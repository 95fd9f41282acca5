//! The experiment drivers: records the paper has no figure for.
//!
//! * `churn` — resilience under membership turnover: the churn engine
//!   over four departure scenarios (graceful, mixed, silent, and
//!   `domain` — the mixed schedule plus a correlated stub-domain cut
//!   fired mid-run, read against `mixed` to price simultaneous site
//!   loss), HIERAS against the same message engine at depth 1 (Chord).
//!   Each scenario carries its registry snapshot (`net.*` counters,
//!   `lookup.*` / `join.*` histograms, the `churn.repair.rounds`
//!   counter; the event counts are the report's `events`) and its
//!   sim-windowed lookup time series; the reports are bit-identical
//!   to an uninstrumented run.
//! * `scale` — how far the replay engine stretches: 1 k → 1 M peers on
//!   the rows and labels latency-oracle backends.
//! * `live` — `hieras-serve`'s two churning modes over one world with
//!   telemetry on: `live_deterministic` (lock-step, reproducible
//!   quality under churn) and `live` (free-running readers against
//!   the maintenance thread).
//!
//! Nothing here is timed for a verdict: commit-to-commit timing is
//! `benchmark/`'s, and every identity these runs rest on is a
//! `cargo test`.

use crate::{Args, SEED};
use hieras_bench::churn_sweep;
use hieras_obs::{Profiler, Registry, Tracer};
use hieras_rt::{Executor, Json, ToJson};
use hieras_serve::{
    CacheConfig, EpochStats, LiveReport, ServeConfig, ServeEngine, TelemetryConfig,
};
use hieras_sim::{
    BuildOptions, ChurnConfig, ComparisonResult, Experiment, ExperimentConfig, Lifetime,
    OracleBackend, WorkloadModel, WorkloadSpec,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Per-scenario tracer capacity under `--trace-out`: large enough for
/// the quick and full sweeps without unbounded growth.
const TRACE_CAP: usize = 1 << 18;

/// Resilience under churn: one record per departure scenario — lookup
/// failure rates, timeout-inflated latency summaries and per-layer
/// maintenance overhead for HIERAS and Chord. Quick runs 120 initial
/// nodes; `--full` the acceptance scale (300 initial nodes, ≥ 5 %
/// turnover). `--trace-out` writes every scenario's span/instant
/// stream (`churn.join` / `churn.leave` / `churn.repair` spans with
/// the transport's lookup/join spans nested beneath) as one JSONL
/// file, in scenario order.
///
/// # Errors
/// The trace cannot be written.
pub fn churn(args: &Args, md: &mut String) -> Result<Json, String> {
    let (initial, arrivals, horizon_ms) =
        if args.full { (300, 20, 12_000) } else { (120, 10, 8_000) };
    let cap = if args.trace_out.is_some() { TRACE_CAP } else { 0 };
    let t0 = Instant::now();
    let sweep = churn_sweep(&Executor::default(), initial, arrivals, horizon_ms, SEED, cap);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let _ = writeln!(md, "{initial} initial nodes, {arrivals} arrivals over {horizon_ms} ms:\n");
    let _ = writeln!(md, "| scenario | turnover | HIERAS failed | Chord failed | timeouts |");
    let _ = writeln!(md, "|----------|---------:|--------------:|-------------:|---------:|");
    for (r, _) in &sweep {
        let (h, c) = (&r.report.hieras, &r.report.chord);
        let _ = writeln!(
            md,
            "| {} | {:.1}% | {}/{} ({:.3}) | {}/{} ({:.3}) | {} |",
            r.scenario,
            r.report.turnover * 100.0,
            h.failed(),
            h.lookups,
            h.failure_rate(),
            c.failed(),
            c.lookups,
            c.failure_rate(),
            r.report.timeouts_total,
        );
    }

    if let Some(path) = args.trace_out.as_deref() {
        let tracers: Vec<&Tracer> = sweep.iter().filter_map(|(_, o)| o.tracer.as_ref()).collect();
        let jsonl: String = tracers.iter().map(|t| t.to_jsonl()).collect();
        std::fs::write(path, jsonl).map_err(|e| format!("cannot write trace to `{path}`: {e}"))?;
        let events: usize = tracers.iter().map(|t| t.len()).sum();
        let _ = writeln!(md, "\ntrace: {path} ({events} events)");
    }

    let scenarios: Vec<Json> = sweep
        .iter()
        .map(|(row, o)| {
            let Json::Obj(mut fields) = row.to_json() else {
                unreachable!("ChurnRow serializes as an object")
            };
            fields.push(("registry".to_owned(), o.registry.to_json()));
            fields.push(("timeseries_windows".to_owned(), o.timeseries.window_count().to_json()));
            fields.push(("timeseries".to_owned(), o.timeseries.to_json()));
            Json::Obj(fields)
        })
        .collect();
    Ok(Json::obj([
        ("initial_nodes", initial.to_json()),
        ("arrivals", arrivals.to_json()),
        ("horizon_ms", horizon_ms.to_json()),
        // The churn engine injects uniformly drawn lookups; every
        // record names the workload model it measured under.
        ("workload", WorkloadSpec::uniform(SEED).to_json()),
        ("wall_ms", wall_ms.to_json()),
        ("scenarios", Json::Arr(scenarios)),
    ]))
}

/// Timed repetitions of the replay per size; the median filters out
/// scheduler warm-up without needing criterion's statistics.
const REPS: usize = 5;

/// Peer count above which the rows backend is not swept. What grows
/// with the world is the cell table of every peer's router — peers ×
/// stub-domain routers × 2 B. Measured by this sweep (seed 20030415,
/// 2 threads on 2 vCPUs), rows against the factored labels: at 20k,
/// 8.4 against 3.4 MB held, 0.18–0.22 against 0.13–0.19 s to build,
/// 0.93–1.08 against 1.61–1.87 µs a lookup; at 100k, 206 against
/// 40 MB, 2.9 against 1.7 s, 1.78 against 3.21 µs, and a 250 MB peak.
/// So 100k is still affordable, and sweeping rows there checks labels ≡
/// rows at the size the labels backend is benchmarked at. At 1M the
/// cell tables would grow about tenfold (not run); labels alone go
/// there.
const ROWS_CEILING: usize = 100_000;

struct SizePoint {
    nodes: usize,
    requests: usize,
}

/// `VmHWM` (peak resident set) of this process in bytes, if the
/// platform exposes `/proc/self/status`.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The scale sweep: quick runs one point (500 peers, 2000 requests),
/// `--full` sweeps {1k, 5k, 20k, 100k, 1M} peers. Per size it runs the
/// lazily built rows backend (not past [`ROWS_CEILING`]; each skip
/// leaves an explicit `"skipped": "row budget"` entry) and then the
/// exact 2-hop hub labels. Per run it records:
///
/// * **build_ms** — full assembly (topology → oracle → precompute),
///   with the phase breakdown and the effective build thread count;
/// * **ns/lookup** — min/median/max over [`REPS`] timed repetitions of
///   the parallel replay, after one explicitly discarded warm-up rep
///   (each lookup evaluates *both* Chord and HIERAS allocation-free);
/// * **peak_rss_bytes** (and the `_mb` rendering) — the process
///   high-water mark (`VmHWM`) at the end of the run's replay. The
///   mark is monotonic per process, so within a size the rows run
///   reads first, and a reading means something only when `scale`
///   runs alone;
/// * **metrics_match_rows** — on a labels run, whether its full replay
///   metrics are byte-identical to the rows run of the same size
///   (labels are exact, so anything but `true` is a bug: the record's
///   top-level `metrics_match_rows` turns `false` and `figures` exits
///   non-zero);
/// * **label_stats** — hub count, label lengths, build ms, bytes;
/// * **oracle_registry** — `Experiment::record_cache_stats`: on rows,
///   `latency_cache.*` (why the build cost what it did, and what it
///   left resident); on labels, `latency_labels.*` and `label_memo.*`;
///   `ring_arena.*` on both;
/// * the replayed Chord/HIERAS routing summaries, including the
///   lower-layer hop and latency shares the paper's §4.3 tracks.
pub fn scale(args: &Args, md: &mut String) -> Json {
    let points: Vec<SizePoint> = if args.full {
        vec![
            SizePoint { nodes: 1000, requests: 20_000 },
            SizePoint { nodes: 5000, requests: 20_000 },
            SizePoint { nodes: 20_000, requests: 10_000 },
            SizePoint { nodes: 100_000, requests: 5000 },
            SizePoint { nodes: 1_000_000, requests: 2000 },
        ]
    } else {
        vec![SizePoint { nodes: 500, requests: 2000 }]
    };
    let exec = Executor::default();
    let _ = writeln!(
        md,
        "| peers | backend | build ms | ns/lookup | peak RSS MB | HIERAS hops | HIERAS ms | \
         lower-layer latency | metrics ≡ rows |"
    );
    let _ = writeln!(
        md,
        "|------:|---------|---------:|----------:|------------:|------------:|----------:|\
         --------------------:|----------------|"
    );
    let mut sizes: Vec<Json> = Vec::new();
    let mut all_match = true;
    for p in &points {
        // Rows first: it is both the byte-identity baseline and —
        // because VmHWM only ever rises — the run whose RSS reading
        // must not be inflated by a neighbour.
        let rows_result = if p.nodes <= ROWS_CEILING {
            let (json, result) = scale_one(&exec, p, OracleBackend::Rows, None, md);
            sizes.push(json);
            Some(result)
        } else {
            // An explicit marker instead of a silent hole: consumers
            // can tell "rows was not swept here" from "rows failed".
            let _ = writeln!(md, "| {} | rows | skipped: row budget | | | | | | |", p.nodes);
            sizes.push(Json::obj([
                ("nodes", p.nodes.to_json()),
                ("backend", OracleBackend::Rows.label().to_json()),
                ("skipped", "row budget".to_json()),
            ]));
            None
        };
        let (json, _) = scale_one(&exec, p, OracleBackend::Labels, rows_result.as_ref(), md);
        if let Some(Json::Bool(false)) = json.get("metrics_match_rows") {
            all_match = false;
        }
        sizes.push(json);
    }
    Json::obj([
        ("reps", REPS.to_json()),
        ("metrics_match_rows", all_match.to_json()),
        ("sizes", Json::Arr(sizes)),
    ])
}

/// One (size, backend) run of [`scale`]. `rows_baseline` carries the
/// rows-backend replay result of the same size so a labels run can
/// prove byte identity; the run's own result is returned for exactly
/// that reuse.
fn scale_one(
    exec: &Executor,
    point: &SizePoint,
    oracle: OracleBackend,
    rows_baseline: Option<&ComparisonResult>,
    md: &mut String,
) -> (Json, ComparisonResult) {
    let mut config = ExperimentConfig::paper(point.nodes, SEED);
    config.requests = point.requests;

    let mut prof = Profiler::new();
    let t0 = Instant::now();
    let e = Experiment::build_with(
        config.clone(),
        &mut prof,
        BuildOptions { exec: *exec, oracle, precompute: true },
    );
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    // One warm-up repetition, timed but *discarded* from the stats —
    // it pays the page faults and scheduler spin-up, and its figure is
    // reported separately so a cold-start regression is still visible.
    let t = Instant::now();
    let mut result = e.run_requests_on(exec, point.requests);
    let warmup_ns = t.elapsed().as_secs_f64() * 1e9 / point.requests as f64;

    let mut per_lookup_ns: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            result = e.run_requests_on(exec, point.requests);
            t.elapsed().as_secs_f64() * 1e9 / point.requests as f64
        })
        .collect();
    per_lookup_ns.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let min_ns = per_lookup_ns[0];
    let median_ns = per_lookup_ns[per_lookup_ns.len() / 2];
    let max_ns = per_lookup_ns[per_lookup_ns.len() - 1];

    let rss = peak_rss_bytes();
    let rss_mb = rss.map(|b| b as f64 / (1024.0 * 1024.0));

    let metrics_match = rows_baseline.map(|base| *base == result);
    let label_stats = e.lat.label_stats().map(|(l, _)| {
        Json::obj([
            ("hubs", l.hubs.to_json()),
            ("entries", l.entries.to_json()),
            ("avg_len", l.avg_len.to_json()),
            ("max_len", l.max_len.to_json()),
            ("build_ms", l.build_ms.to_json()),
            ("bytes", e.lat.cache_bytes().to_json()),
        ])
    });
    // What the build left behind, by name: rows searched vs. composed
    // and resident (rows), label sizes and memo tallies (labels), the
    // ring arena — enough to explain `build_ms` without a re-run.
    let mut oracle_reg = Registry::new();
    e.record_cache_stats(&mut oracle_reg);

    let cs = result.chord.summary();
    let hs = result.hieras.summary();
    let _ = writeln!(
        md,
        "| {} | {} | {:.1} | {:.1} | {:.1} | {:.2} | {:.0} | {:.1}% | {} |",
        point.nodes,
        oracle.label(),
        build_ms,
        median_ns,
        rss_mb.unwrap_or(0.0),
        hs.avg_hops,
        hs.avg_latency_ms,
        hs.lower_latency_share * 100.0,
        match metrics_match {
            Some(true) => "yes",
            Some(false) => "**DIVERGED**",
            None => "-",
        }
    );

    let json = Json::obj([
        ("nodes", point.nodes.to_json()),
        ("requests", point.requests.to_json()),
        // The replay stream `run_requests_on` derives: uniform draws
        // from the experiment seed's workload sub-stream.
        ("workload", WorkloadSpec::uniform(SEED ^ 0x517c_c1b7).to_json()),
        ("backend", oracle.label().to_json()),
        ("build_threads", exec.threads().to_json()),
        ("build_ms", build_ms.to_json()),
        ("build_phases", prof.report().to_json()),
        ("warmup_ns_per_lookup", warmup_ns.to_json()),
        ("min_ns_per_lookup", min_ns.to_json()),
        ("median_ns_per_lookup", median_ns.to_json()),
        ("max_ns_per_lookup", max_ns.to_json()),
        ("ns_per_lookup", per_lookup_ns.to_json()),
        ("peak_rss_mb", rss_mb.map_or(Json::Null, |m| m.to_json())),
        ("peak_rss_bytes", rss.map_or(Json::Null, |b| b.to_json())),
        ("metrics_match_rows", metrics_match.map_or(Json::Null, |m| m.to_json())),
        ("label_stats", label_stats.unwrap_or(Json::Null)),
        ("oracle_registry", oracle_reg.to_json()),
        ("chord", cs.to_json()),
        ("hieras", hs.to_json()),
    ]);
    (json, result)
}

/// Incremental-maintenance threshold of the `live` rows: a churn batch
/// touching at most this fraction of the hierarchy's rings is applied
/// as a delta onto the previous epoch.
const DELTA_FRACTION: f64 = 0.6;

/// The `live` world. Both sizes turn over well above 5 % of the
/// initial population inside the horizon, so the rows measure serving
/// under load, not a static ring with a heartbeat.
struct LiveWorld {
    nodes: usize,
    churn: ChurnConfig,
    events_per_epoch: usize,
    lookups_per_epoch: usize,
}

impl LiveWorld {
    /// Quick: 500 peers, ~19 % of the initial population departing
    /// inside the horizon. Full: 2000 peers under ~26 % turnover.
    fn new(full: bool) -> Self {
        let (nodes, initial_nodes, arrivals, inter_arrival_ms, mean_ms, horizon_ms) = if full {
            (2000, 1800, 200, 500, 400_000.0, 120_000)
        } else {
            (500, 450, 50, 1_000, 300_000.0, 60_000)
        };
        LiveWorld {
            nodes,
            churn: ChurnConfig {
                initial_nodes,
                arrivals,
                inter_arrival: Lifetime::Fixed { ms: inter_arrival_ms },
                lifetime: Lifetime::Exponential { mean_ms },
                graceful_fraction: 0.5,
                horizon_ms,
                seed: SEED,
            },
            events_per_epoch: if full { 8 } else { 4 },
            lookups_per_epoch: if full { 5000 } else { 2000 },
        }
    }

    fn serve_config(&self, pace: f64) -> ServeConfig {
        ServeConfig {
            churn: self.churn,
            readers: 4,
            events_per_epoch: self.events_per_epoch,
            lookups_per_epoch: self.lookups_per_epoch,
            refresh_batch: 64,
            seed: SEED ^ 0xb1e5_5e1f,
            rebin_every: 8,
            rebin_noise: 0.2,
            telemetry: TelemetryConfig::on(),
            delta_max_ring_fraction: DELTA_FRACTION,
            batched: false,
            pace,
            cache: CacheConfig::off(),
            workload: WorkloadModel::Uniform,
        }
    }
}

fn epochs_json(s: &EpochStats) -> Json {
    Json::obj([
        ("published", s.published.to_json()),
        ("reclaimed", s.reclaimed.to_json()),
        ("retired", s.retired.to_json()),
        ("lag_peak", s.lag_peak.to_json()),
    ])
}

fn live_json(r: &LiveReport, workload: WorkloadSpec) -> Json {
    let mut fields = vec![
        ("hieras", r.metrics.summary().to_json()),
        ("workload", workload.to_json()),
        ("lookups", r.lookups.to_json()),
        ("wall_ns", r.wall_ns.to_json()),
        ("lookups_per_sec", r.lookups_per_sec().to_json()),
        ("epochs", epochs_json(&r.epochs)),
        ("final_live", r.final_live.to_json()),
        ("turnover", r.turnover.to_json()),
        ("maintenance", r.maint.to_json()),
    ];
    if let Some(ts) = &r.timeseries {
        fields.push(("timeseries_windows", ts.window_count().to_json()));
        fields.push(("timeseries", ts.to_json()));
    }
    fields.push(("registry", r.registry.to_json()));
    Json::obj(fields)
}

/// `BENCH_ts.jsonl` → `BENCH_ts.<tag>.jsonl` (or plain suffixing when
/// the path has no `.jsonl` extension).
fn sibling(path: &str, tag: &str) -> String {
    path.strip_suffix(".jsonl")
        .map_or_else(|| format!("{path}.{tag}"), |stem| format!("{stem}.{tag}.jsonl"))
}

/// Serving under churn, both churning modes side by side:
///
/// 1. **live_deterministic** — the executor arbitrates the
///    reader/maintainer interleaving in lock step. Routing metrics are
///    bit-identical at any executor width (`tests/live_identity.rs`),
///    so the quality-under-churn figures are reproducible numbers, not
///    races. Its row embeds the sim-windowed time series.
/// 2. **live** — free-running reader threads against the maintenance
///    thread: sustained lookups/sec and latency tails under real
///    concurrent churn, wall-windowed.
///
/// Every row carries its merged `serve.*` registry and a `maintenance`
/// object (rebuild count, publish/rebuild/re-bin wall latencies).
/// `--timeseries-out <path>` streams the deterministic run's windows
/// to `<path>`, the free-running run's to a `.live.jsonl` sibling and
/// the deterministic flight recorder's hop traces to a `.slow.jsonl`
/// sibling — all readable with `hieras-timeline`. `--pace <r>`
/// throttles the free-running maintainer to `r` sim-ms of schedule per
/// wall-ms (the quick 60 s horizon at `--pace 50` spans 1.2 s of wall
/// clock); unset, churn replays at full rate.
///
/// # Errors
/// A time-series file cannot be written.
pub fn live(args: &Args, md: &mut String) -> Result<Json, String> {
    let world = LiveWorld::new(args.full);
    let cfg = world.serve_config(args.pace.unwrap_or(0.0));
    let exec = Executor::default();
    let exp = Experiment::build(ExperimentConfig::paper(world.nodes, SEED));
    let engine = ServeEngine::new(&exp, cfg);
    // The descriptor both rows report: the engine draws its lookup
    // stream from the serve seed under `cfg.workload`.
    let serve_spec = WorkloadSpec { model: cfg.workload, seed: cfg.seed };
    let det = engine.run_deterministic(&exec);
    let live = engine.run_live();
    let det_ts = det.timeseries.as_ref().expect("deterministic run carries telemetry");
    let live_ts = live.timeseries.as_ref().expect("live run carries telemetry");

    let _ = writeln!(md, "{} peers, {} readers:\n", world.nodes, cfg.readers);
    let _ = writeln!(
        md,
        "| mode | lookups | lookups/s | HIERAS hops | HIERAS ms | p99.9 ms | epochs | \
         delta rebuilds | final live | turnover | windows |"
    );
    let _ = writeln!(
        md,
        "|------|--------:|----------:|------------:|----------:|---------:|-------:|\
         ---------------:|-----------:|---------:|--------:|"
    );
    for (mode, r, ts) in [("deterministic", &det, det_ts), ("live", &live, live_ts)] {
        let s = r.metrics.summary();
        let _ = writeln!(
            md,
            "| {mode} | {} | {:.0} | {:.2} | {:.0} | {} | {} | {}/{} | {} | {:.1}% | {} |",
            r.lookups,
            r.lookups_per_sec(),
            s.avg_hops,
            s.avg_latency_ms,
            s.latency_tail.p999_ms,
            r.epochs.published,
            r.maint.delta_rebuilds,
            r.maint.rebuilds,
            r.final_live,
            100.0 * r.turnover,
            ts.window_count()
        );
    }

    if let Some(path) = args.timeseries_out.as_deref() {
        let live_path = sibling(path, "live");
        let slow_path = sibling(path, "slow");
        for (p, jsonl) in [
            (path, det_ts.to_jsonl()),
            (&live_path, live_ts.to_jsonl()),
            (&slow_path, det_ts.slow_trace().to_jsonl()),
        ] {
            std::fs::write(p, jsonl).map_err(|e| format!("cannot write `{p}`: {e}"))?;
        }
        let _ = writeln!(md, "\ntime series: {path}, {live_path}, {slow_path}");
    }

    Ok(Json::obj([
        ("nodes", world.nodes.to_json()),
        (
            "churn",
            Json::obj([
                ("initial_nodes", world.churn.initial_nodes.to_json()),
                ("arrivals", world.churn.arrivals.to_json()),
                ("horizon_ms", world.churn.horizon_ms.to_json()),
                ("lifetime", world.churn.lifetime.to_json()),
                ("graceful_fraction", world.churn.graceful_fraction.to_json()),
                ("turnover", det.turnover.to_json()),
            ]),
        ),
        ("pace", cfg.pace.to_json()),
        ("delta_max_ring_fraction", DELTA_FRACTION.to_json()),
        ("live_deterministic", live_json(&det, serve_spec)),
        ("live", live_json(&live, serve_spec)),
    ]))
}
