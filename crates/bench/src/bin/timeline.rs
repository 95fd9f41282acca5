//! `hieras-timeline` — render, diff, validate and convert the
//! windowed-telemetry artifacts the experiment drivers emit.
//!
//! Four modes over the `hieras.timeseries/v1` JSONL stream that
//! `figures live --timeseries-out` (and `ChurnObs::timeseries`) write:
//!
//! * `hieras-timeline <ts.jsonl>` — ASCII sparklines plus the
//!   per-window table (lookups/s, tail quantiles, failures, retries,
//!   epoch activity), SLO breaches and the flight recorder's slow
//!   lookups.
//! * `hieras-timeline --compare <a.jsonl> <b.jsonl>` — per-window
//!   deltas (`b - a`) for lookups, p99 and failures.
//! * `hieras-timeline --check <ts.jsonl>` — validation gate for CI:
//!   the stream must parse (schema tag, ascending windows — or, for a
//!   `.slow.jsonl` span trace, one event per line) and re-serialize
//!   byte-identically; exits 1 otherwise.
//! * `hieras-timeline --chrome-trace <trace.jsonl> [out.json]` —
//!   converts a `hieras-obs` span/instant trace (`figures churn
//!   --trace-out`, or the `.slow.jsonl` flight-recorder sibling) to
//!   Chrome trace-event JSON, loadable in `about:tracing` / Perfetto.

#![forbid(unsafe_code)]

use hieras_bench::{timeline_compare, timeline_table};
use hieras_obs::{chrome_trace, TimeSeriesReport, Tracer};
use hieras_rt::ToJson;

const USAGE: &str = "usage: hieras-timeline <ts.jsonl>
       hieras-timeline --compare <a.jsonl> <b.jsonl>
       hieras-timeline --check <ts.jsonl>
       hieras-timeline --chrome-trace <trace.jsonl> [out.json]";

/// Reads and parses one time-series stream, mapping both I/O and
/// schema failures to a printable diagnostic.
fn load(path: &str) -> Result<TimeSeriesReport, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    TimeSeriesReport::parse_jsonl(&text).map_err(|e| format!("{path}: {}", e.0))
}

fn run(args: &[String]) -> Result<String, String> {
    match args {
        [path] if !path.starts_with("--") => Ok(timeline_table(&load(path)?)),
        [flag, a, b] if flag == "--compare" => {
            Ok(timeline_compare(&load(a)?, &load(b)?))
        }
        [flag, path] if flag == "--check" => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let (again, what) = match TimeSeriesReport::parse_jsonl(&text) {
                Ok(ts) => (
                    ts.to_jsonl(),
                    format!(
                        "{} windows x {} ms, {} clock, {} lookups",
                        ts.window_count(),
                        ts.meta.window_ms,
                        ts.meta.mode,
                        ts.total_lookups()
                    ),
                ),
                // Not a time series: the `.slow.jsonl` sibling is a
                // span trace, held to the same round trip.
                Err(ts_err) => {
                    let events = Tracer::parse_jsonl(&text)
                        .map_err(|_| format!("{path}: {}", ts_err.0))?;
                    let again = events.iter().map(|e| e.to_json().dump() + "\n").collect();
                    (again, format!("{} trace events", events.len()))
                }
            };
            if again != text {
                return Err(format!(
                    "{path}: stream does not round-trip byte-identically"
                ));
            }
            Ok(format!("ok: {path} round-trips ({what})\n"))
        }
        [flag, input, rest @ ..] if flag == "--chrome-trace" && rest.len() <= 1 => {
            let text =
                std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
            let events =
                Tracer::parse_jsonl(&text).map_err(|e| format!("{input}: {}", e.0))?;
            let json = chrome_trace(&events).dump();
            match rest.first() {
                Some(out) => {
                    std::fs::write(out, &json).map_err(|e| format!("{out}: {e}"))?;
                    Ok(format!("wrote {out} ({} events)\n", events.len()))
                }
                None => Ok(json + "\n"),
            }
        }
        _ => Err(USAGE.to_owned()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => print!("{out}"),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
}
