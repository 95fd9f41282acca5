//! Live serving driver — lookups under churn via epoch snapshots.
//!
//! Runs `hieras-serve`'s two churning modes over one world with
//! telemetry on and reports them side by side in `BENCH_live.json`
//! (untracked — an experiment record, not a CI input):
//!
//! 1. **live_deterministic** — the executor arbitrates the
//!    reader/maintainer interleaving in lock step. Routing metrics are
//!    bit-identical at any executor width (`tests/live_identity.rs`),
//!    so the quality-under-churn figures are reproducible numbers, not
//!    races. Its row embeds the sim-windowed
//!    [`hieras_obs::TimeSeriesReport`].
//! 2. **live** — free-running reader threads against the maintenance
//!    thread: sustained lookups/sec and latency tails
//!    (p50/p95/p99/p99.9) under real concurrent churn, wall-windowed.
//!
//! Every row carries a `maintenance` object (rebuild count,
//! publish/rebuild/re-bin wall latencies) so the maintainer's side of
//! the ledger is visible, not just the readers'. `--timeseries-out
//! <path.jsonl>` additionally streams the deterministic run's windows
//! to `<path>`, the free-running run's to a `.live.jsonl` sibling, and
//! the deterministic flight recorder's hop traces to a `.slow.jsonl`
//! sibling — all readable with `hieras-timeline`.
//!
//! Nothing here is timed for a verdict: throughput, publish latency
//! and telemetry cost are compared by `benchmark/` (`serve_churn5k`,
//! `serve_hot5k`) under its paired protocol, and the serving
//! identities (delta ≡ full, cache-off ≡ replay, 1/2/8 lanes) are
//! `cargo test`s in the root `tests/`.
//!
//! The churn scenario turns over well above 5% of the initial
//! population inside the horizon, so the rows measure serving under
//! load, not a static ring with a heartbeat. Run with `--smoke` for
//! the CI-sized run (500 peers); `--obs` adds the merged `serve.*`
//! registries per row; `--pace <r>` throttles the free-running
//! maintainer to `r` sim-ms of schedule per wall-ms (the 60 s smoke
//! horizon at `--pace 50` spans 1.2 s of wall clock);
//! `HIERAS_THREADS=n` pins the executor.

use hieras_rt::{Executor, Json, ToJson};
use hieras_serve::{
    CacheConfig, EpochStats, LiveReport, ServeConfig, ServeEngine, TelemetryConfig,
};
use hieras_sim::{
    ChurnConfig, Experiment, ExperimentConfig, Lifetime, WorkloadModel, WorkloadSpec,
};

/// Master seed shared with the figure harness (paper publication date).
const SEED: u64 = 20030415;

/// Incremental-maintenance threshold of the reported rows: a churn
/// batch touching at most this fraction of the hierarchy's rings is
/// applied as a delta onto the previous epoch.
const DELTA_FRACTION: f64 = 0.6;

struct Scenario {
    nodes: usize,
    churn: ChurnConfig,
    events_per_epoch: usize,
    lookups_per_epoch: usize,
}

impl Scenario {
    /// The CI-sized world: 500 peers, ~19% of the initial population
    /// departing inside the horizon (well above the 5% floor).
    fn smoke() -> Self {
        Scenario {
            nodes: 500,
            churn: ChurnConfig {
                initial_nodes: 450,
                arrivals: 50,
                inter_arrival: Lifetime::Fixed { ms: 1_000 },
                lifetime: Lifetime::Exponential { mean_ms: 300_000.0 },
                graceful_fraction: 0.5,
                horizon_ms: 60_000,
                seed: SEED,
            },
            events_per_epoch: 4,
            lookups_per_epoch: 2000,
        }
    }

    /// The full run: 2000 peers under ~26% turnover.
    fn full() -> Self {
        Scenario {
            nodes: 2000,
            churn: ChurnConfig {
                initial_nodes: 1800,
                arrivals: 200,
                inter_arrival: Lifetime::Fixed { ms: 500 },
                lifetime: Lifetime::Exponential { mean_ms: 400_000.0 },
                graceful_fraction: 0.5,
                horizon_ms: 120_000,
                seed: SEED,
            },
            events_per_epoch: 8,
            lookups_per_epoch: 5000,
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

fn live_json(r: &LiveReport, workload: WorkloadSpec, obs: bool) -> Json {
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
    if obs {
        fields.push(("registry", r.registry.to_json()));
    }
    Json::obj(fields)
}

/// `BENCH_ts.jsonl` → `BENCH_ts.<tag>.jsonl` (or plain suffixing when
/// the path has no `.jsonl` extension).
fn sibling(path: &str, tag: &str) -> String {
    path.strip_suffix(".jsonl")
        .map_or_else(|| format!("{path}.{tag}"), |stem| format!("{stem}.{tag}.jsonl"))
}

fn main() {
    let hieras_bench::BenchArgs { smoke, obs, timeseries_out, pace, .. } =
        hieras_bench::BenchArgs::parse("bench_live", hieras_bench::BenchFlags::live());
    let sc = if smoke { Scenario::smoke() } else { Scenario::full() };
    // --pace throttles the free-running maintainer to the schedule
    // clock (sim-ms per wall-ms); unset replays churn at full rate.
    let cfg = sc.serve_config(pace.unwrap_or(0.0));

    let exec = Executor::default();
    println!(
        "live bench: {} thread(s), {} peers, {} readers{}{}",
        exec.threads(),
        sc.nodes,
        cfg.readers,
        if smoke { " [smoke]" } else { "" },
        if obs { " [obs]" } else { "" }
    );

    let exp = Experiment::build(ExperimentConfig::paper(sc.nodes, SEED));
    let engine = ServeEngine::new(&exp, cfg);
    // The descriptor both rows report: the engine draws its lookup
    // stream from the serve seed under `cfg.workload`.
    let serve_spec = WorkloadSpec { model: cfg.workload, seed: cfg.seed };

    // Deterministic live serving: reproducible quality-under-churn,
    // with the sim-windowed time series riding along.
    let det = engine.run_deterministic(&exec);
    let det_ts = det.timeseries.as_ref().expect("deterministic run carries telemetry");
    let ds = det.metrics.summary();
    println!(
        "deterministic | {:>7} lookups over {:>3} epochs | hieras {:.2} hops {:.0} ms | \
         {} live of {} | {}/{} delta rebuilds | {} windows",
        det.lookups,
        det.epochs.published,
        ds.avg_hops,
        ds.avg_latency_ms,
        det.final_live,
        sc.nodes,
        det.maint.delta_rebuilds,
        det.maint.rebuilds,
        det_ts.window_count()
    );

    // Free-running: real threads, wall-clock windows.
    let live = engine.run_live();
    let live_ts = live.timeseries.as_ref().expect("live run carries telemetry");
    let ls = live.metrics.summary();
    println!(
        "live ({} rdr)  | {:>9.0} lookups/s | hieras {:.2} hops {:.0} ms (p99.9 {} ms) | \
         turnover {:.1}% | {} windows",
        cfg.readers,
        live.lookups_per_sec(),
        ls.avg_hops,
        ls.avg_latency_ms,
        ls.latency_tail.p999_ms,
        100.0 * live.turnover,
        live_ts.window_count()
    );

    if let Some(path) = timeseries_out.as_deref() {
        std::fs::write(path, det_ts.to_jsonl()).expect("write deterministic time series");
        let live_path = sibling(path, "live");
        std::fs::write(&live_path, live_ts.to_jsonl()).expect("write live time series");
        let slow_path = sibling(path, "slow");
        std::fs::write(&slow_path, det_ts.slow_trace().to_jsonl())
            .expect("write flight-recorder trace");
        println!("wrote {path}, {live_path}, {slow_path}");
    }

    let out = Json::obj([
        ("bench", "live".to_json()),
        ("seed", SEED.to_json()),
        ("threads", exec.threads().to_json()),
        ("smoke", smoke.to_json()),
        ("obs", obs.to_json()),
        ("nodes", sc.nodes.to_json()),
        (
            "churn",
            Json::obj([
                ("initial_nodes", sc.churn.initial_nodes.to_json()),
                ("arrivals", sc.churn.arrivals.to_json()),
                ("horizon_ms", sc.churn.horizon_ms.to_json()),
                ("lifetime", sc.churn.lifetime.to_json()),
                ("graceful_fraction", sc.churn.graceful_fraction.to_json()),
                ("turnover", det.turnover.to_json()),
            ]),
        ),
        ("pace", cfg.pace.to_json()),
        ("delta_max_ring_fraction", DELTA_FRACTION.to_json()),
        ("live_deterministic", live_json(&det, serve_spec, obs)),
        ("live", live_json(&live, serve_spec, obs)),
    ]);

    let path = "BENCH_live.json";
    std::fs::write(path, out.dump_pretty()).expect("write benchmark output");
    println!("wrote {path}");
}
