//! Identities and model gates of the serving engine.
//!
//! The contracts the serving path stands on, at sizes tier-1 can
//! afford:
//!
//! 1. the deterministic serving mode produces bit-identical metrics
//!    *and* registries at any executor width — "readers" are executor
//!    lanes arbitrated in lock step, so 1, 2 and 8 must agree;
//! 2. cache off, the quiesced snapshot path *is* the replay path: its
//!    HIERAS metrics equal `Experiment::run_workload_on`'s under every
//!    workload model, and switching the cache on never changes which
//!    owner answers a request;
//! 3. delta rebuilds publish the snapshots full rebuilds would — same
//!    routing metrics, same chained snapshot digest;
//! 4. under Zipf(0.99) keys the hot-key cache earns its keep: a hit
//!    rate and a hot-key latency cut that are exact functions of the
//!    seed, held against fixed thresholds.

use hieras::rt::Executor;
use hieras::serve::{CacheConfig, ServeConfig, ServeEngine, TelemetryConfig, WorkloadReport};
use hieras::sim::{
    ChurnConfig, Experiment, ExperimentConfig, Lifetime, SkewParams, Workload, WorkloadModel,
};

/// The serving knobs every test here shares, over a churn universe of
/// `initial_nodes + arrivals` peers.
fn serve_config(initial_nodes: u32, arrivals: u32) -> ServeConfig {
    ServeConfig {
        churn: ChurnConfig {
            initial_nodes,
            arrivals,
            inter_arrival: Lifetime::Fixed { ms: 400 },
            lifetime: Lifetime::Exponential { mean_ms: 60_000.0 },
            graceful_fraction: 0.5,
            horizon_ms: 25_000,
            seed: 0x1eaf,
        },
        readers: 2,
        events_per_epoch: 2,
        lookups_per_epoch: 300,
        refresh_batch: 32,
        seed: 0x5eed,
        rebin_every: 6,
        rebin_noise: 0.3,
        telemetry: TelemetryConfig::off(),
        delta_max_ring_fraction: 0.35,
        batched: false,
        pace: 0.0,
        cache: CacheConfig::off(),
        workload: WorkloadModel::Uniform,
    }
}

fn world() -> (Experiment, ServeConfig) {
    let mut cfg = ExperimentConfig::paper(150, 7);
    cfg.requests = 1500;
    (Experiment::build(cfg), serve_config(130, 20))
}

#[test]
fn deterministic_mode_is_identical_at_1_2_and_8_readers() {
    let (exp, cfg) = world();
    let engine = ServeEngine::new(&exp, cfg);
    let base = engine.run_deterministic(&Executor::new(1));
    assert!(base.epochs.published > 0, "scenario must churn");
    for width in [2usize, 8] {
        let r = engine.run_deterministic(&Executor::new(width));
        assert_eq!(
            r.metrics, base.metrics,
            "routing metrics diverged at {width} readers"
        );
        assert_eq!(
            r.registry, base.registry,
            "serve.* registry diverged at {width} readers"
        );
        assert_eq!(r.lookups, base.lookups);
        assert_eq!(r.epochs.published, base.epochs.published);
        assert_eq!(r.final_live, base.final_live);
    }
}

#[test]
fn quiesced_mode_equals_the_replay_under_every_workload_model() {
    let (exp, cfg) = world();
    let engine = ServeEngine::new(&exp, cfg);
    let exec = Executor::new(2);
    let quiesced = engine.run_quiesced_workload(&exec, &exp.replay_workload(1500));
    let replay = exp.run_requests_on(&exec, 1500);
    assert_eq!(
        quiesced.metrics, replay.hieras,
        "quiesced serving must replay the exact bench workload"
    );
    assert_eq!(quiesced.lookups, 1500);
    // And the identity holds at a different width too — both sides are
    // chunk-deterministic.
    let wide = engine.run_quiesced_workload(&Executor::new(8), &exp.replay_workload(1500));
    assert_eq!(wide.metrics, replay.hieras);

    // The same identity with the workload as the input: uniform and
    // three Zipf exponents, each replayed cache-off against
    // `run_workload_on`, then cache-on in verify mode (every hit is
    // re-routed and cross-checked inside the evaluator).
    let cached = ServeEngine::new(&exp, ServeConfig { cache: CacheConfig::on().verified(), ..cfg });
    for (label, model) in [
        ("uniform", WorkloadModel::Uniform),
        ("zipf_0.8", WorkloadModel::Skew(SkewParams::zipf(0.8))),
        ("zipf_0.99", WorkloadModel::Skew(SkewParams::zipf(0.99))),
        ("zipf_1.2", WorkloadModel::Skew(SkewParams::zipf(1.2))),
    ] {
        let w = Workload::with_model(150, 1500, 7 ^ 0x517c_c1b7, model);
        let off = engine.run_quiesced_workload(&exec, &w);
        assert_eq!(
            off.metrics,
            exp.run_workload_on(&exec, &w).hieras,
            "{label}: cache-off serving diverged from the replay"
        );
        let on = cached.run_quiesced_workload(&exec, &w);
        assert_eq!(
            on.owner_digest, off.owner_digest,
            "{label}: the cache changed a lookup's answer"
        );
    }
}

#[test]
fn delta_rebuilds_publish_the_snapshots_full_rebuilds_do() {
    let (exp, cfg) = world();
    let exec = Executor::new(2);
    let run = |fraction: f64| {
        ServeEngine::new(&exp, ServeConfig { delta_max_ring_fraction: fraction, ..cfg })
            .run_deterministic(&exec)
    };
    let full = run(0.0);
    assert_eq!(full.maint.delta_rebuilds, 0, "0.0 disables the delta path");
    let delta = run(1.0);
    assert!(delta.maint.delta_rebuilds > 0, "1.0 never falls back");
    assert_eq!(delta.metrics, full.metrics, "routing is oblivious to the rebuild path");
    assert_eq!(
        delta.maint.snapshot_digest, full.maint.snapshot_digest,
        "every published snapshot must be byte-identical either way"
    );
}

/// Floor on the cache hit rate under the Zipf(0.99) smoke workload
/// (measured: 0.246 — frequency-sketch admission, chunk-scoped cache).
const ZIPF_HIT_RATE_FLOOR: f64 = 0.20;

/// Ceiling on cached ÷ uncached hot-key p50 latency under the same
/// workload (measured: 0.439 — "at least 2× faster on the hot set").
const CACHED_HOT_P50_CEILING: f64 = 0.5;

#[test]
fn zipf_workload_hits_the_cache_and_halves_hot_key_latency() {
    const SEED: u64 = 20030415;
    let exp = Experiment::build(ExperimentConfig::paper(500, SEED));
    let mut serve = serve_config(450, 50);
    let exec = Executor::new(2);
    let w = Workload::with_model(
        500,
        2000,
        SEED ^ 0x517c_c1b7,
        WorkloadModel::Skew(SkewParams::zipf(0.99)),
    );
    let uncached = ServeEngine::new(&exp, serve).run_quiesced_workload(&exec, &w);
    serve.cache = CacheConfig::on().verified();
    let cached = ServeEngine::new(&exp, serve).run_quiesced_workload(&exec, &w);

    let hit_rate = cached.cache.hit_rate();
    assert!(
        hit_rate >= ZIPF_HIT_RATE_FLOOR,
        "cache hit rate {hit_rate:.3} under the Zipf(0.99) floor {ZIPF_HIT_RATE_FLOOR}"
    );
    let hot_p50 = |r: &WorkloadReport| {
        assert!(r.hot.requests > 0, "a Zipf stream must draw hot-rank keys");
        f64::from(r.hot.summary().latency_tail.p50_ms)
    };
    let ratio = hot_p50(&cached) / hot_p50(&uncached);
    assert!(
        ratio <= CACHED_HOT_P50_CEILING,
        "cached hot-key p50 at {ratio:.3}x of uncached (ceiling {CACHED_HOT_P50_CEILING})"
    );
}
