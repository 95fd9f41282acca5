//! End-to-end integration: the full §4 pipeline across crates, and the
//! paper's headline claims as assertions.

use hieras::core::{Binning, HierasConfig};
use hieras::prelude::*;

fn ts_experiment(nodes: usize, requests: usize, seed: u64) -> Experiment {
    Experiment::build(ExperimentConfig {
        kind: TopologyKind::TransitStub,
        nodes,
        requests,
        hieras: HierasConfig::paper(),
        seed,
        rtt_noise: 0.0,
    })
}

/// The paper's central result (Figures 2–3): HIERAS ≈ Chord hops,
/// much lower latency, most hops in lower rings.
#[test]
fn headline_result_on_transit_stub() {
    let e = ts_experiment(500, 5_000, 1);
    let r = e.run();
    let (c, h) = (r.chord.summary(), r.hieras.summary());
    assert!(
        h.avg_latency_ms < 0.80 * c.avg_latency_ms,
        "expected a strong latency win: HIERAS {} vs Chord {}",
        h.avg_latency_ms,
        c.avg_latency_ms
    );
    assert!(
        (h.avg_hops - c.avg_hops).abs() / c.avg_hops < 0.15,
        "hop counts should be comparable: {} vs {}",
        h.avg_hops,
        c.avg_hops
    );
    assert!(h.lower_hop_share > 0.4, "lower-hop share {}", h.lower_hop_share);
    assert!(
        h.avg_link_delay_lower_ms < 0.6 * h.avg_link_delay_top_ms,
        "lower rings must use cheaper links: {} vs {}",
        h.avg_link_delay_lower_ms,
        h.avg_link_delay_top_ms
    );
}

/// Scalability (§4.2): hops grow logarithmically with network size for
/// both systems.
#[test]
fn hops_scale_logarithmically() {
    let small = ts_experiment(200, 3_000, 2).run().hieras.summary();
    let large = ts_experiment(800, 3_000, 2).run().hieras.summary();
    // 4x nodes → log2 grows by 2 → hops grow by ≤ ~1.3 + slack.
    assert!(large.avg_hops > small.avg_hops, "more nodes, more hops");
    assert!(
        large.avg_hops < small.avg_hops + 2.5,
        "growth must be logarithmic: {} -> {}",
        small.avg_hops,
        large.avg_hops
    );
}

/// Correctness across the whole stack: HIERAS always resolves keys to
/// the same owner as Chord, on every topology model.
#[test]
fn owner_agreement_on_all_models() {
    for kind in [TopologyKind::TransitStub, TopologyKind::Brite] {
        let e = Experiment::build(ExperimentConfig {
            kind,
            nodes: 150,
            requests: 0,
            hieras: HierasConfig { depth: 3, landmarks: 4, binning: Binning::paper() },
            seed: 3,
            rtt_noise: 0.0,
        });
        for k in 0..200u64 {
            let key = Id::hash_of(&k.to_le_bytes());
            let src = (k % 150) as u32;
            assert_eq!(
                e.hieras.route(src, key).destination(),
                e.chord.owner_of(key),
                "model {kind:?} key {k}"
            );
        }
    }
}

/// Per-run determinism across separately built experiments.
#[test]
fn experiments_are_reproducible() {
    let a = ts_experiment(200, 2_000, 77).run();
    let b = ts_experiment(200, 2_000, 77).run();
    assert_eq!(a.chord.total_hops, b.chord.total_hops);
    assert_eq!(a.hieras.total_latency_ms, b.hieras.total_latency_ms);
    assert_eq!(a.hieras.hop_hist, b.hieras.hop_hist);
}

/// Landmark count controls ring granularity (§4.4 mechanics).
#[test]
fn more_landmarks_make_more_and_smaller_rings() {
    let few = Experiment::build(ExperimentConfig {
        kind: TopologyKind::TransitStub,
        nodes: 400,
        requests: 0,
        hieras: HierasConfig { depth: 2, landmarks: 2, binning: Binning::paper() },
        seed: 5,
        rtt_noise: 0.0,
    });
    let many = Experiment::build(ExperimentConfig {
        kind: TopologyKind::TransitStub,
        nodes: 400,
        requests: 0,
        hieras: HierasConfig { depth: 2, landmarks: 10, binning: Binning::paper() },
        seed: 5,
        rtt_noise: 0.0,
    });
    let few_rings = few.hieras.layers()[1].ring_count();
    let many_rings = many.hieras.layers()[1].ring_count();
    assert!(
        many_rings > few_rings,
        "10 landmarks gave {many_rings} rings vs {few_rings} with 2"
    );
}

/// Deeper hierarchies keep correctness and add lower-layer traffic
/// (§4.5 mechanics).
#[test]
fn depth_increases_lower_layer_share() {
    let mut shares = Vec::new();
    for depth in [2usize, 3] {
        let e = Experiment::build(ExperimentConfig {
            kind: TopologyKind::TransitStub,
            nodes: 400,
            requests: 4_000,
            hieras: HierasConfig { depth, landmarks: 6, binning: Binning::paper() },
            seed: 9,
            rtt_noise: 0.0,
        });
        shares.push(e.run().hieras.summary().lower_hop_share);
    }
    assert!(
        shares[1] >= shares[0] * 0.9,
        "depth 3 should keep or grow the lower-layer share: {shares:?}"
    );
}
