//! Acceptance-scale churn experiments: ≥ 300 nodes, ≥ 5 % membership
//! turnover, seeded and fully deterministic.

use hieras_churn::{run_churn, ChurnExperimentConfig};
use hieras_sim::{ChurnConfig, Lifetime};

/// 300 initial nodes and ~30 departures (~10 % turnover) inside the
/// horizon, plus a stream of arrivals.
fn acceptance_churn(graceful: f64, seed: u64) -> ChurnConfig {
    ChurnConfig {
        initial_nodes: 300,
        arrivals: 20,
        inter_arrival: Lifetime::Fixed { ms: 500 },
        lifetime: Lifetime::Exponential { mean_ms: 120_000.0 },
        graceful_fraction: graceful,
        horizon_ms: 12_000,
        seed,
    }
}

#[test]
fn graceful_churn_resolves_every_lookup() {
    let cfg = ChurnExperimentConfig::standard(acceptance_churn(1.0, 20030415));
    let r = run_churn(&cfg);
    assert!(r.population_start >= 300, "acceptance floor: ≥ 300 nodes");
    assert!(r.turnover >= 0.05, "acceptance floor: ≥ 5 % turnover, got {}", r.turnover);
    assert!(r.events.leaves > 0 && r.events.fails == 0, "graceful-only scenario");
    assert!(r.hieras.lookups >= 100, "needs a meaningful lookup volume");
    // The §3.3 choreography splices synchronously and graceful leaves
    // patch every neighbour before vanishing, so lookups stay exact —
    // timeouts against stale fingers inflate latency, never outcomes.
    assert_eq!(r.hieras.failed(), 0, "HIERAS lookup failed under graceful churn: {r:?}");
    assert_eq!(r.chord.failed(), 0, "Chord lookup failed under graceful churn");
    assert_eq!(
        r.population_end,
        r.population_start + r.events.joins as usize - r.events.leaves as usize,
    );
}

#[test]
fn silent_fails_fail_some_lookups_but_bounded() {
    let mut cfg = ChurnExperimentConfig::standard(acceptance_churn(0.0, 20030415));
    // Widen the exposure window: several events pass between
    // maintenance rounds, and more lookups probe each window.
    cfg.lookups_per_event = 12;
    cfg.maintenance_every = 4;
    let r = run_churn(&cfg);
    assert!(r.turnover >= 0.05, "acceptance floor: ≥ 5 % turnover, got {}", r.turnover);
    assert!(r.events.fails > 0 && r.events.leaves == 0, "silent-only scenario");
    // Dead nodes cost timeouts and, until stabilization transfers
    // ownership, some lookups land on the wrong owner or die — a
    // non-zero but bounded failure rate.
    assert!(r.hieras.failed() > 0, "expected some HIERAS failures: {:?}", r.hieras);
    assert!(
        r.hieras.failure_rate() < 0.10,
        "HIERAS failure rate out of bounds: {}",
        r.hieras.failure_rate()
    );
    // The Chord baseline is the same message engine at depth 1: it
    // finds the dead through the same RTOs and repairs through the same
    // scrubbing, so it is held to the same bound.
    assert!(
        r.chord.failure_rate() < 0.10,
        "Chord failure rate out of bounds: {}",
        r.chord.failure_rate()
    );
    // Timeout-inflated latency: the surviving lookups paid RTOs.
    assert!(r.timeouts_total > 0, "silent fails must cost timeouts");
}

#[test]
fn maintenance_overhead_is_split_by_layer_and_purpose() {
    let mut cfg = ChurnExperimentConfig::standard(acceptance_churn(0.5, 7));
    cfg.churn.initial_nodes = 120;
    cfg.churn.arrivals = 10;
    let r = run_churn(&cfg);
    assert_eq!(r.hieras.maint.len(), cfg.hieras.depth, "one bucket per layer");
    // Every layer ran stabilization and finger repair.
    for (i, m) in r.hieras.maint.iter().enumerate() {
        assert!(m.stabilize_msgs > 0, "layer {} saw no stabilize traffic", i + 1);
        assert!(m.fix_finger_msgs > 0, "layer {} saw no fix-finger traffic", i + 1);
    }
    // Cross-layer purposes land in the global bucket.
    assert!(r.hieras.maint[0].join_msgs > 0, "joins must be accounted");
    assert!(r.hieras.maint[0].lookup_msgs > 0, "lookups must be accounted");
    assert!(r.hieras.maint[0].repair_msgs > 0, "graceful leaves must be accounted");
    // And the attribution is exhaustive.
    assert_eq!(r.hieras.maint_total().total(), r.messages_total + r.timeouts_total);
    // The Chord baseline's books are the same buckets, one layer deep.
    assert_eq!(r.chord.maint.len(), 1);
    let cm = r.chord.maint_total();
    assert!(cm.stabilize_msgs > 0 && cm.lookup_msgs > 0 && cm.join_msgs > 0);
    assert!(cm.repair_msgs > 0, "graceful leaves cost the baseline messages too");
}
