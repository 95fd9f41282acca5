//! Shared command-line surface of the bench binaries.
//!
//! Every harness accepts the same core flags — `--smoke` for the
//! CI-sized run, and (where instrumentation exists) `--obs` plus
//! `--trace-out <path.jsonl>` — and until this module existed each
//! binary carried its own copy of the parse loop. [`BenchArgs::parse`]
//! is that loop, once: binaries declare which optional flags they
//! support and get identical usage messages, exit codes, and the
//! `--trace-out ⇒ --obs` implication everywhere.

/// Which optional flags a binary supports beyond `--smoke`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BenchFlags {
    /// Accept `--obs` (instrumented run with registry snapshots).
    pub obs: bool,
    /// Accept `--trace-out <path.jsonl>` (implies `--obs`).
    pub trace: bool,
    /// Accept `--timeseries-out <path.jsonl>` (windowed telemetry
    /// stream; implies `--obs`).
    pub timeseries: bool,
    /// Accept `--pace <sim-per-wall>` (free-running maintainer pacing,
    /// sim-milliseconds of schedule per wall-millisecond).
    pub pace: bool,
}

impl BenchFlags {
    /// `--smoke` only (e.g. `bench_scale`).
    #[must_use]
    pub fn smoke_only() -> Self {
        BenchFlags::default()
    }

    /// `--smoke`, `--obs` and `--trace-out` (e.g. `churn`).
    #[must_use]
    pub fn full() -> Self {
        BenchFlags { obs: true, trace: true, ..BenchFlags::default() }
    }

    /// `--smoke`, `--obs`, `--timeseries-out` and `--pace`
    /// (e.g. `bench_live`).
    #[must_use]
    pub fn live() -> Self {
        BenchFlags { obs: true, timeseries: true, pace: true, ..BenchFlags::default() }
    }

    fn usage(self, bin: &str) -> String {
        let mut u = format!("usage: {bin} [--smoke]");
        if self.obs {
            u.push_str(" [--obs]");
        }
        if self.trace {
            u.push_str(" [--trace-out <path.jsonl>]");
        }
        if self.timeseries {
            u.push_str(" [--timeseries-out <path.jsonl>]");
        }
        if self.pace {
            u.push_str(" [--pace <sim-per-wall>]");
        }
        u
    }
}

/// Parsed common bench arguments.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// CI-sized run requested.
    pub smoke: bool,
    /// Instrumented run requested (set by `--obs` or `--trace-out`).
    pub obs: bool,
    /// Span/instant JSONL output path, when tracing was requested.
    pub trace_out: Option<String>,
    /// Windowed-telemetry JSONL output path, when requested.
    pub timeseries_out: Option<String>,
    /// Maintainer pacing for the free-running rows, sim-ms per
    /// wall-ms; `None` means full rate.
    pub pace: Option<f64>,
}

impl BenchArgs {
    /// Parses `std::env::args()` for binary `bin`, accepting the flags
    /// `flags` enables. Unknown arguments (and flags the binary does
    /// not support) print the usage line and exit with status 2, the
    /// behavior every bench binary already had.
    #[must_use]
    pub fn parse(bin: &str, flags: BenchFlags) -> Self {
        match Self::try_parse(bin, flags, std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The parse loop itself, testable: consumes an argument iterator
    /// and returns the parsed flags or the exact message `parse` would
    /// print before exiting.
    ///
    /// # Errors
    /// Returns the diagnostic (including the usage line) for unknown
    /// or unsupported arguments and for `--trace-out` without a path.
    pub fn try_parse(
        bin: &str,
        flags: BenchFlags,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut out = BenchArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => out.smoke = true,
                "--obs" if flags.obs => out.obs = true,
                "--trace-out" if flags.trace => match args.next() {
                    Some(path) => out.trace_out = Some(path),
                    None => return Err("--trace-out needs a path argument".to_owned()),
                },
                "--timeseries-out" if flags.timeseries => match args.next() {
                    Some(path) => out.timeseries_out = Some(path),
                    None => return Err("--timeseries-out needs a path argument".to_owned()),
                },
                "--pace" if flags.pace => match args.next().map(|v| v.parse::<f64>()) {
                    Some(Ok(p)) if p >= 0.0 && p.is_finite() => out.pace = Some(p),
                    Some(_) => {
                        return Err("--pace needs a non-negative ratio".to_owned());
                    }
                    None => return Err("--pace needs a ratio argument".to_owned()),
                },
                other => {
                    return Err(format!(
                        "unknown argument `{other}` ({})",
                        flags.usage(bin)
                    ));
                }
            }
        }
        // A trace or a time series needs the instrumented run to exist.
        if out.trace_out.is_some() || out.timeseries_out.is_some() {
            out.obs = true;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let a = BenchArgs::try_parse(
            "churn",
            BenchFlags::full(),
            argv(&["--smoke", "--obs", "--trace-out", "t.jsonl"]),
        )
        .unwrap();
        assert!(a.smoke && a.obs);
        assert_eq!(a.trace_out.as_deref(), Some("t.jsonl"));
    }

    #[test]
    fn trace_out_implies_obs() {
        let a = BenchArgs::try_parse(
            "churn",
            BenchFlags::full(),
            argv(&["--trace-out", "t.jsonl"]),
        )
        .unwrap();
        assert!(a.obs, "--trace-out must switch the instrumented path on");
    }

    #[test]
    fn trace_out_requires_a_path() {
        let err = BenchArgs::try_parse("churn", BenchFlags::full(), argv(&["--trace-out"]))
            .unwrap_err();
        assert!(err.contains("needs a path"));
    }

    #[test]
    fn unknown_argument_reports_usage() {
        let err =
            BenchArgs::try_parse("bench_scale", BenchFlags::smoke_only(), argv(&["--nope"]))
                .unwrap_err();
        assert!(err.contains("unknown argument `--nope`"));
        assert!(err.contains("usage: bench_scale [--smoke]"));
        assert!(!err.contains("--obs"), "smoke-only binaries do not advertise --obs");
    }

    #[test]
    fn unsupported_flags_are_unknown() {
        // bench_scale has no instrumented path: --obs must be rejected
        // exactly like any other unknown argument.
        let err = BenchArgs::try_parse("bench_scale", BenchFlags::smoke_only(), argv(&["--obs"]))
            .unwrap_err();
        assert!(err.contains("unknown argument `--obs`"));
        // bench_live supports --obs and --timeseries-out but no tracer.
        let err = BenchArgs::try_parse("bench_live", BenchFlags::live(), argv(&["--trace-out"]))
            .unwrap_err();
        assert!(err.contains("unknown argument `--trace-out`"));
        assert!(err.contains(
            "usage: bench_live [--smoke] [--obs] [--timeseries-out <path.jsonl>] \
             [--pace <sim-per-wall>]"
        ));
        // churn supports --obs and --trace-out but no time series.
        let err =
            BenchArgs::try_parse("churn", BenchFlags::full(), argv(&["--timeseries-out", "x"]))
                .unwrap_err();
        assert!(err.contains("unknown argument `--timeseries-out`"));
    }

    #[test]
    fn timeseries_out_implies_obs_and_requires_a_path() {
        let a = BenchArgs::try_parse(
            "bench_live",
            BenchFlags::live(),
            argv(&["--timeseries-out", "ts.jsonl"]),
        )
        .unwrap();
        assert!(a.obs, "--timeseries-out must switch the instrumented path on");
        assert_eq!(a.timeseries_out.as_deref(), Some("ts.jsonl"));
        let err =
            BenchArgs::try_parse("bench_live", BenchFlags::live(), argv(&["--timeseries-out"]))
                .unwrap_err();
        assert!(err.contains("needs a path"));
    }

    #[test]
    fn empty_args_default_to_full_run() {
        let a = BenchArgs::try_parse("churn", BenchFlags::full(), argv(&[])).unwrap();
        assert!(!a.smoke && !a.obs && a.trace_out.is_none());
        assert!(a.pace.is_none(), "no --pace means full rate");
    }

    #[test]
    fn pace_parses_a_nonnegative_ratio() {
        let a = BenchArgs::try_parse("bench_live", BenchFlags::live(), argv(&["--pace", "50"]))
            .unwrap();
        assert_eq!(a.pace, Some(50.0));
        assert!(!a.obs, "--pace alone does not imply the instrumented run");
        for bad in [&["--pace", "-1"][..], &["--pace", "nan"], &["--pace", "x"], &["--pace"]] {
            let err =
                BenchArgs::try_parse("bench_live", BenchFlags::live(), argv(bad)).unwrap_err();
            assert!(err.contains("--pace needs"), "{bad:?} must be rejected: {err}");
        }
        // Binaries without the flag reject it as unknown.
        let err = BenchArgs::try_parse("churn", BenchFlags::full(), argv(&["--pace", "2"]))
            .unwrap_err();
        assert!(err.contains("unknown argument `--pace`"));
    }
}
