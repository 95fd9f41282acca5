//! Live serving benchmark — lookups under churn via epoch snapshots.
//!
//! Exercises `hieras-serve`'s three run modes over one world and
//! reports them side by side in `BENCH_live.json`:
//!
//! 1. **quiesced** — the full membership at epoch 0, no maintenance.
//!    Replays the exact workload stream `bench_replay` uses, so its
//!    HIERAS routing summary is byte-identical to the replay bench's
//!    (`cache_off_identity` asserts it in-process); timed as min/median/max ns per lookup over
//!    several repetitions after a discarded warm-up, which is what the
//!    `scripts/live_budget_ns` throughput gate reads.
//! 2. **live_deterministic** — the executor arbitrates the
//!    reader/maintainer interleaving in lock step. Routing metrics are
//!    bit-identical at any executor width (1, 2 or 8 readers — CI
//!    checks that too), so the quality-under-churn figures are
//!    reproducible numbers, not races. Runs with telemetry enabled:
//!    its row embeds the sim-windowed [`TimeSeriesReport`].
//! 3. **live** — free-running reader threads against a full-rate
//!    maintenance thread: sustained lookups/sec and latency tails
//!    (p50/p95/p99/p99.9) under real concurrent churn. Run twice,
//!    telemetry off (`live_baseline`) then on (`live`).
//!
//! `telemetry_overhead_pct` — the number the
//! `scripts/telemetry_overhead_pct` CI gate budgets — comes from the
//! quiesced repetitions, alternating telemetry off/on and comparing
//! the **fastest** rep of each side: the same per-lookup record path
//! the live readers run, timed deterministically, and scheduler noise
//! only ever inflates a rep, so min-vs-min converges on the true cost
//! where medians still wobble on a busy box. The quiesced reps run on
//! a one-thread executor whatever `HIERAS_THREADS` says: the figure is
//! a per-lookup hot-path cost, and on a wider executor `par_fold`'s
//! per-call thread spawn outweighs a 2 000-request smoke rep and
//! drowns it (the ≤ 10 % gate then failed about one run in three on a
//! 2-core box). (The free-running rows
//! race reader threads against the scheduler — ±20 % rep to rep, too
//! noisy to gate a percent-level cost.)
//!
//! Every mode's row carries a `maintenance` object (rebuild count,
//! publish/rebuild/re-bin wall latencies) so the maintainer's side of
//! the ledger is visible, not just the readers'. `--timeseries-out
//! <path.jsonl>` additionally streams the deterministic run's windows
//! to `<path>`, the free-running run's to `<path>.live.jsonl` (well,
//! `…live.jsonl` next to it), and the deterministic flight recorder's
//! hop traces to a `.slow.jsonl` sibling — all renderable with
//! `hieras-timeline`.
//!
//! One incremental-maintenance comparison rides along:
//! `maintenance_full` vs `maintenance_incremental` replay the same
//! deterministic schedule with the delta rebuild path off and on,
//! reporting exact publish-latency percentiles side by side
//! (`incremental_publish_ratio` is the p50 quotient the
//! `scripts/incremental_publish_ratio` gate budgets, and
//! `delta_identity` asserts both runs published byte-identical
//! snapshots).
//!
//! The churn scenario turns over well above 5% of the initial
//! population inside the horizon, so the live rows measure serving
//! under load, not a static ring with a heartbeat. Run with `--smoke`
//! for the CI-sized run (500 peers); `--obs` adds the merged `serve.*`
//! registries per live mode; `--pace <r>` throttles the free-running
//! maintainer to `r` sim-ms of schedule per wall-ms (the 60 s smoke
//! horizon at `--pace 50` spans 1.2 s of wall clock);
//! `HIERAS_THREADS=n` pins the executor.

use hieras_rt::{Executor, Json, ToJson};
use hieras_serve::{
    CacheConfig, EpochStats, LiveReport, MaintStats, ServeConfig, ServeEngine, TelemetryConfig,
    WorkloadReport,
};
use hieras_sim::{
    ChurnConfig, Experiment, ExperimentConfig, Lifetime, SkewParams, Workload, WorkloadModel,
    WorkloadSpec,
};

/// Master seed shared with the figure harness (paper publication date).
const SEED: u64 = 20030415;

/// Timed repetitions of the quiesced replay (alternating telemetry
/// off/on); the median filters warm-up and scheduler noise for the
/// throughput figure, the min anchors the overhead ratio.
const REPS: usize = 15;

/// Back-to-back quiesced runs aggregated into one timed rep — a
/// single smoke run is sub-millisecond, too short to time reliably.
const ROUNDS: usize = 4;

/// Incremental-maintenance threshold of the reported rows: a churn
/// batch touching at most this fraction of the hierarchy's rings is
/// applied as a delta onto the previous epoch. The
/// `maintenance_full` row re-runs the same schedule with the delta
/// path disabled for the side-by-side publish-latency comparison.
const DELTA_FRACTION: f64 = 0.6;

struct Scenario {
    nodes: usize,
    requests: usize,
    churn: ChurnConfig,
    events_per_epoch: usize,
    lookups_per_epoch: usize,
    readers: usize,
    refresh_batch: usize,
}

impl Scenario {
    /// The CI-sized world: 500 peers, ~19% of the initial population
    /// departing inside the horizon (well above the 5% floor).
    fn smoke() -> Self {
        Scenario {
            nodes: 500,
            requests: 2000,
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
            readers: 4,
            refresh_batch: 64,
        }
    }

    /// The full run: 2000 peers under ~26% turnover.
    fn full() -> Self {
        Scenario {
            nodes: 2000,
            requests: 20_000,
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
            readers: 4,
            refresh_batch: 64,
        }
    }

    fn serve_config(&self, telemetry: TelemetryConfig) -> ServeConfig {
        ServeConfig {
            churn: self.churn,
            readers: self.readers,
            events_per_epoch: self.events_per_epoch,
            lookups_per_epoch: self.lookups_per_epoch,
            refresh_batch: self.refresh_batch,
            seed: SEED ^ 0xb1e5_5e1f,
            rebin_every: 8,
            rebin_noise: 0.2,
            telemetry,
            delta_max_ring_fraction: DELTA_FRACTION,
            batched: false,
            pace: 0.0,
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

/// One timed quiesced rep: `rounds` back-to-back runs, returning the
/// last report and the summed wall time. A single smoke run lasts well
/// under a millisecond — too short to time against scheduler noise —
/// so each rep aggregates several runs. `#[inline(never)]` is
/// load-bearing: the off- and on-telemetry engines must execute the
/// *same* machine code for the overhead ratio to mean anything —
/// inlined separately, the two copies of the hot loop land at
/// different alignments and the comparison measures code layout
/// (5-8 % phantom "overhead" on this box), not telemetry.
#[inline(never)]
fn timed_quiesced(
    engine: &ServeEngine<'_>,
    exec: &Executor,
    requests: usize,
    rounds: usize,
) -> (WorkloadReport, u64) {
    let mut ns = 0u64;
    let mut report = engine.run_quiesced(exec, requests);
    ns += report.wall_ns;
    for _ in 1..rounds {
        report = engine.run_quiesced(exec, requests);
        ns += report.wall_ns;
    }
    (report, ns)
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
    // clock (sim-ms per wall-ms); unset replays churn at full rate,
    // the historical behavior every throughput baseline compares to.
    let pace = pace.unwrap_or(0.0);

    let exec = Executor::default();
    println!(
        "live bench: {} thread(s), {} peers, {} readers{}{}",
        exec.threads(),
        sc.nodes,
        sc.readers,
        if smoke { " [smoke]" } else { "" },
        if obs { " [obs]" } else { "" }
    );

    let mut config = ExperimentConfig::paper(sc.nodes, SEED);
    config.requests = sc.requests;
    let exp = Experiment::build(config);
    // Two engines over the same world: the timed baselines run with
    // telemetry off, the observed runs with it on — the routing
    // metrics are identical either way (the serve tests assert it),
    // only the wall clock sees the difference.
    let mut cfg_off = sc.serve_config(TelemetryConfig::off());
    cfg_off.pace = pace;
    let mut cfg_on = sc.serve_config(TelemetryConfig::on());
    cfg_on.pace = pace;
    let engine = ServeEngine::new(&exp, cfg_off);
    let engine_tel = ServeEngine::new(&exp, cfg_on);
    // The descriptor every live row reports: the serve engines draw
    // their lookup stream from the serve seed under `cfg.workload`.
    let serve_spec = WorkloadSpec { model: cfg_off.workload, seed: cfg_off.seed };

    // Quiesced baseline: one discarded warm-up per engine, then REPS
    // timed reps, alternating telemetry off/on so both sides see the
    // same machine state. The off median feeds the `live_budget_ns`
    // gate; the off/on *min* ratio is the telemetry-overhead figure —
    // the same lookup hot path, timed deterministically, and noise
    // only ever slows a rep down, so the fastest rep of each side is
    // the stable estimate of the true per-lookup cost. One thread:
    // a hot-path cost must not be timed through thread spawns (the
    // metrics are width-invariant, so the row's routing summary is
    // what any other width would report).
    let single = Executor::new(1);
    let (warm, warm_ns) = timed_quiesced(&engine, &single, sc.requests, ROUNDS);
    let warmup_ns = warm_ns as f64 / (ROUNDS * sc.requests) as f64;
    let _ = timed_quiesced(&engine_tel, &single, sc.requests, ROUNDS);
    let mut quiesced = warm;
    let per_rep = (ROUNDS * sc.requests) as f64;
    let mut per_lookup_ns: Vec<f64> = Vec::with_capacity(REPS);
    let mut tel_lookup_ns: Vec<f64> = Vec::with_capacity(REPS);
    // Interleave the off/on reps and alternate which side goes first
    // within each pair: clock-frequency drift over the run then lands
    // on both sides equally instead of biasing whichever block ran
    // later.
    for rep in 0..REPS {
        if rep % 2 == 0 {
            let (q, ns) = timed_quiesced(&engine, &single, sc.requests, ROUNDS);
            quiesced = q;
            per_lookup_ns.push(ns as f64 / per_rep);
            let (_, ns) = timed_quiesced(&engine_tel, &single, sc.requests, ROUNDS);
            tel_lookup_ns.push(ns as f64 / per_rep);
        } else {
            let (_, ns) = timed_quiesced(&engine_tel, &single, sc.requests, ROUNDS);
            tel_lookup_ns.push(ns as f64 / per_rep);
            let (q, ns) = timed_quiesced(&engine, &single, sc.requests, ROUNDS);
            quiesced = q;
            per_lookup_ns.push(ns as f64 / per_rep);
        }
    }
    per_lookup_ns.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    tel_lookup_ns.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let median_ns = per_lookup_ns[per_lookup_ns.len() / 2];
    let tel_median_ns = tel_lookup_ns[tel_lookup_ns.len() / 2];
    let (min_ns, tel_min_ns) = (per_lookup_ns[0], tel_lookup_ns[0]);
    let overhead_pct =
        if min_ns > 0.0 { 100.0 * (tel_min_ns - min_ns) / min_ns } else { 0.0 };
    let qs = quiesced.metrics.summary();
    println!(
        "quiesced      | {:>9.0} ns/lookup | hieras {:.2} hops {:.0} ms (p99.9 {} ms)",
        median_ns, qs.avg_hops, qs.avg_latency_ms, qs.latency_tail.p999_ms
    );

    // Deterministic live serving: reproducible quality-under-churn,
    // with the sim-windowed time series riding along.
    let det = engine_tel.run_deterministic(&exec);
    let ds = det.metrics.summary();
    println!(
        "deterministic | {:>7} lookups over {:>3} epochs | hieras {:.2} hops {:.0} ms | \
         {} live of {} | {} windows",
        det.lookups,
        det.epochs.published,
        ds.avg_hops,
        ds.avg_latency_ms,
        det.final_live,
        sc.nodes,
        det.timeseries.as_ref().map_or(0, hieras_obs::TimeSeriesReport::window_count)
    );

    // Full-vs-incremental maintenance, same schedule twice in the
    // deterministic mode (publish timings are wall-clock but the
    // maintainer runs unraced, so the comparison is stable): once with
    // the delta path disabled, once at the reported threshold. The two
    // runs must publish byte-identical snapshots — `delta_identity` is
    // the serve-level proof CI greps for.
    let mut mf = sc.serve_config(TelemetryConfig::off());
    mf.delta_max_ring_fraction = 0.0;
    let maint_full = ServeEngine::new(&exp, mf).run_deterministic(&exec);
    let mut mi = sc.serve_config(TelemetryConfig::off());
    mi.delta_max_ring_fraction = DELTA_FRACTION;
    let maint_incr = ServeEngine::new(&exp, mi).run_deterministic(&exec);
    let delta_identity = maint_incr.metrics == maint_full.metrics
        && maint_incr.maint.snapshot_digest == maint_full.maint.snapshot_digest;
    assert!(delta_identity, "delta rebuilds diverged from full rebuilds");
    let full_p50 = maint_full.maint.publish_quantile_us(0.50);
    let incr_p50 = maint_incr.maint.publish_quantile_us(0.50);
    let publish_ratio =
        if full_p50 > 0 { incr_p50 as f64 / full_p50 as f64 } else { 1.0 };
    println!(
        "maintenance   | publish p50 {:>6} µs full | {:>6} µs incremental | ratio {:.2} | \
         {}/{} delta rebuilds | identity ok",
        full_p50,
        incr_p50,
        publish_ratio,
        maint_incr.maint.delta_rebuilds,
        maint_incr.maint.rebuilds,
    );

    // Free-running, telemetry off for the throughput baseline, then
    // on — the reported rows.
    let base = engine.run_live();
    let live = engine_tel.run_live();
    let off_rate = base.lookups_per_sec();
    let on_rate = live.lookups_per_sec();
    let ls = live.metrics.summary();
    println!(
        "live ({} rdr)  | {:>9.0} lookups/s | hieras {:.2} hops {:.0} ms (p99.9 {} ms) | \
         turnover {:.1}%",
        sc.readers,
        on_rate,
        ls.avg_hops,
        ls.avg_latency_ms,
        ls.latency_tail.p999_ms,
        100.0 * live.turnover
    );
    println!(
        "telemetry     | {:>9.0} ns/lookup off | {:>9.0} on | overhead {:+.1}% (min/min) | {} windows",
        min_ns,
        tel_min_ns,
        overhead_pct,
        live.timeseries.as_ref().map_or(0, hieras_obs::TimeSeriesReport::window_count)
    );

    // Workload-skew & caching sweep: uniform vs three Zipf exponents
    // vs a flash crowd, each replayed three ways against the same
    // world — the dual-algorithm replay (HIERAS-vs-Chord latency
    // ratio as skew sharpens), then the quiesced serving path with
    // the hot-key cache off and on (in verify mode, so every hit is
    // cross-checked against the authoritative route). Cached and
    // uncached runs must answer every request with the same owner
    // (`digest_identity`), and every uncached run must be
    // byte-identical to the replay of the same workload
    // (`cache_off_identity` — the cache-off no-perturbation proof CI
    // greps for).
    let mut cfg_cache = sc.serve_config(TelemetryConfig::off());
    cfg_cache.cache = CacheConfig::on().verified();
    let engine_cached = ServeEngine::new(&exp, cfg_cache);
    let workload_seed = SEED ^ 0x517c_c1b7;
    let skew_points: [(&str, WorkloadModel); 5] = [
        ("uniform", WorkloadModel::Uniform),
        ("zipf_0.8", WorkloadModel::Skew(SkewParams::zipf(0.8))),
        ("zipf_0.99", WorkloadModel::Skew(SkewParams::zipf(0.99))),
        ("zipf_1.2", WorkloadModel::Skew(SkewParams::zipf(1.2))),
        ("flash", WorkloadModel::Skew(SkewParams::flash_crowd())),
    ];
    let mut cache_off_identity = true;
    let mut zipf_smoke_hit_rate = 0.0;
    let mut cached_hot_p50_ratio = 1.0;
    let mut sweep_rows: Vec<Json> = Vec::with_capacity(skew_points.len());
    for (label, model) in skew_points {
        let w = Workload::with_model(sc.nodes as u32, sc.requests, workload_seed, model);
        let cmp = exp.run_workload_on(&exec, &w);
        let cs = cmp.chord.summary();
        let hs = cmp.hieras.summary();
        let latency_ratio =
            if cs.avg_latency_ms > 0.0 { hs.avg_latency_ms / cs.avg_latency_ms } else { 1.0 };
        let uncached = engine.run_quiesced_workload(&exec, &w);
        let cached = engine_cached.run_quiesced_workload(&exec, &w);
        assert_eq!(
            cached.owner_digest, uncached.owner_digest,
            "{label}: the cache changed a lookup's answer"
        );
        cache_off_identity &= uncached.metrics == cmp.hieras;
        assert!(cache_off_identity, "{label}: cache-off serving diverged from the replay");
        let hit_rate = cached.cache.hit_rate();
        let hot = |r: &WorkloadReport| {
            (r.hot.requests > 0).then(|| r.hot.summary().latency_tail.p50_ms)
        };
        let (hot_off, hot_on) = (hot(&uncached), hot(&cached));
        let hot_ratio = match (hot_off, hot_on) {
            (Some(off), Some(on)) if off > 0 => Some(f64::from(on) / f64::from(off)),
            _ => None,
        };
        if label == "zipf_0.99" {
            zipf_smoke_hit_rate = hit_rate;
            cached_hot_p50_ratio = hot_ratio.unwrap_or(1.0);
        }
        println!(
            "workload {label:>9} | hieras/chord latency {latency_ratio:.2} | \
             cache hit rate {:>5.1}% | hot p50 {} -> {} ms",
            100.0 * hit_rate,
            hot_off.map_or_else(|| "-".into(), |v| v.to_string()),
            hot_on.map_or_else(|| "-".into(), |v| v.to_string()),
        );
        let report_json = |r: &WorkloadReport| {
            Json::obj([
                ("hot_p50_ms", hot(r).map_or(Json::Null, |v| v.to_json())),
                ("p50_ms", r.metrics.summary().latency_tail.p50_ms.to_json()),
                ("hot_requests", r.hot.requests.to_json()),
                ("lookups", r.lookups.to_json()),
                ("wall_ns", r.wall_ns.to_json()),
                ("cache_hits", r.cache.hits.to_json()),
                ("cache_misses", r.cache.misses.to_json()),
                ("cache_admits", r.cache.admits.to_json()),
                ("cache_hit_rate", r.cache.hit_rate().to_json()),
            ])
        };
        sweep_rows.push(Json::obj([
            ("label", label.to_json()),
            ("workload", w.spec().to_json()),
            ("chord", cs.to_json()),
            ("hieras", hs.to_json()),
            ("hieras_vs_chord_latency", latency_ratio.to_json()),
            ("uncached", report_json(&uncached)),
            ("cached", report_json(&cached)),
            ("cached_hot_p50_ratio", hot_ratio.map_or(Json::Null, |v| v.to_json())),
            ("digest_identity", true.to_json()),
        ]));
    }

    if let Some(path) = timeseries_out.as_deref() {
        let det_ts = det.timeseries.as_ref().expect("deterministic run carries telemetry");
        let live_ts = live.timeseries.as_ref().expect("live run carries telemetry");
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
        ("reps", REPS.to_json()),
        ("nodes", sc.nodes.to_json()),
        ("requests", sc.requests.to_json()),
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
        ("pace", pace.to_json()),
        ("delta_max_ring_fraction", DELTA_FRACTION.to_json()),
        ("delta_identity", delta_identity.to_json()),
        ("incremental_publish_ratio", publish_ratio.to_json()),
        ("telemetry_overhead_pct", overhead_pct.to_json()),
        ("telemetry_off_min_ns", min_ns.to_json()),
        ("telemetry_on_min_ns", tel_min_ns.to_json()),
        ("telemetry_on_median_ns", tel_median_ns.to_json()),
        ("telemetry_off_ns_per_lookup", per_lookup_ns.to_json()),
        ("telemetry_on_ns_per_lookup", tel_lookup_ns.to_json()),
        // Cache gates: every cached run re-verified each hit against
        // the authoritative route (`cache_verified`), every cache-off
        // run matched the replay of its workload byte for byte, and
        // the Zipf(0.99) point supplies the hit-rate floor and the
        // hot-key speedup ceiling `scripts/verify.sh` budgets.
        ("cache_verified", true.to_json()),
        ("cache_off_identity", cache_off_identity.to_json()),
        ("zipf_smoke_hit_rate", zipf_smoke_hit_rate.to_json()),
        ("cached_hot_p50_ratio", cached_hot_p50_ratio.to_json()),
        // The quiesced block must stay the first to carry a
        // `median_ns_per_lookup`: the `live_budget_ns` gate reads it
        // by position.
        (
            "quiesced",
            Json::obj([
                ("hieras", qs.to_json()),
                ("workload", WorkloadSpec::uniform(SEED ^ 0x517c_c1b7).to_json()),
                ("lookups", quiesced.lookups.to_json()),
                ("threads", single.threads().to_json()),
                ("warmup_ns_per_lookup", warmup_ns.to_json()),
                ("min_ns_per_lookup", per_lookup_ns[0].to_json()),
                ("median_ns_per_lookup", median_ns.to_json()),
                ("max_ns_per_lookup", per_lookup_ns[per_lookup_ns.len() - 1].to_json()),
                ("ns_per_lookup", per_lookup_ns.to_json()),
                ("maintenance", MaintStats::default().to_json()),
            ]),
        ),
        // Full-vs-incremental maintenance over the same deterministic
        // schedule: wall-clock publish profiles side by side. No
        // `hieras` key — the delta-identity assertion above already
        // proved both runs' routing equal.
        ("maintenance_full", maint_full.maint.to_json()),
        ("maintenance_incremental", maint_incr.maint.to_json()),
        // Throughput baseline for the overhead gate: same free-running
        // scenario, telemetry off. No `hieras` key — its routing
        // numbers are a concurrent race and the `live` row already
        // has them.
        (
            "live_baseline",
            Json::obj([
                ("lookups", base.lookups.to_json()),
                ("wall_ns", base.wall_ns.to_json()),
                ("lookups_per_sec", off_rate.to_json()),
                ("epochs", epochs_json(&base.epochs)),
                ("maintenance", base.maint.to_json()),
            ]),
        ),
        ("live_deterministic", live_json(&det, serve_spec, obs)),
        // `live` must stay the last row with `timeseries_windows`:
        // the window-density gate reads it by position.
        ("live", live_json(&live, serve_spec, obs)),
        ("workload_sweep", Json::Arr(sweep_rows)),
    ]);

    let path = "BENCH_live.json";
    std::fs::write(path, out.dump_pretty()).expect("write benchmark output");
    println!("wrote {path}");
}
