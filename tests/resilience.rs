//! Failure-injection integration tests: landmark death, node failures,
//! ring-table holder loss.

use hieras::chord::DynChord;
use hieras::core::{Binning, HierasConfig, HierasOracle, LandmarkOrder, RingTable};
use hieras::id::{Id, IdSpace};
use hieras::prelude::*;

/// §2.3: when a landmark fails, previously binned nodes drop its digit
/// and the system re-bins consistently — rings coarsen but still
/// partition the membership, and routing stays exact.
#[test]
fn landmark_failure_degrades_gracefully() {
    let e = Experiment::build(ExperimentConfig {
        kind: TopologyKind::TransitStub,
        nodes: 300,
        requests: 0,
        hieras: HierasConfig::paper(),
        seed: 31,
        rtt_noise: 0.0,
    });
    // Landmark 2 dies: every node drops digit 2 from its order.
    let degraded: Vec<LandmarkOrder> =
        e.orders.iter().map(|o| o.drop_landmark(2)).collect();
    let config = HierasConfig { depth: 2, landmarks: 3, binning: Binning::paper() };
    let rebuilt =
        HierasOracle::build(IdSpace::full(), e.ids.clone(), degraded, config).unwrap();
    // Fewer digits → no more rings than before.
    assert!(
        rebuilt.layers()[1].ring_count() <= e.hieras.layers()[1].ring_count(),
        "dropping a landmark cannot refine the partition"
    );
    // Routing must stay exact.
    for k in 0..100u64 {
        let key = Id::hash_of(&k.to_ne_bytes());
        assert_eq!(
            rebuilt.route((k % 300) as u32, key).destination(),
            e.chord.owner_of(key)
        );
    }
}

/// §3.1: when a ring-table member fails, the holder re-populates the
/// slot with a surviving member and entry points stay usable.
#[test]
fn ring_table_holder_repairs_after_member_failure() {
    let order = LandmarkOrder(vec![0, 1]);
    let mut t = RingTable::new(&order);
    let members: Vec<Id> = (1..=8u64).map(|i| Id(i * 100)).collect();
    for &m in &members {
        t.observe(m);
    }
    // The four recorded extremes: 100, 200, 700, 800. Kill 100 and 700.
    assert!(t.remove(Id(100)));
    assert!(t.remove(Id(700)));
    assert_eq!(t.len(), 2);
    // The holder performs new routing procedures and re-observes
    // survivors (here: the remaining membership).
    for &m in &members {
        if m != Id(100) && m != Id(700) {
            t.observe(m);
        }
    }
    assert_eq!(t.smallest(), Some(Id(200)));
    assert_eq!(t.second_smallest(), Some(Id(300)));
    assert_eq!(t.second_largest(), Some(Id(600)));
    assert_eq!(t.largest(), Some(Id(800)));
}

/// Massive correlated failure: a third of the network fails silently;
/// successor lists + stabilization recover a consistent ring and exact
/// lookups (the Chord substrate HIERAS inherits, §3.3).
#[test]
fn mass_failure_recovery() {
    let mut net = DynChord::new(IdSpace::full(), 12);
    let first = Id::hash_of(b"root");
    net.create(first).unwrap();
    for i in 1..90u32 {
        net.join(Id::hash_of(format!("m{i}").as_bytes()), first).unwrap();
        net.stabilize_round();
        net.stabilize_round();
    }
    for _ in 0..5 {
        net.stabilize_round();
    }
    net.fix_all_fingers();
    let victims: Vec<Id> = net.node_ids().into_iter().step_by(3).collect();
    for v in &victims {
        if net.len() > 2 {
            net.fail(*v).unwrap();
        }
    }
    for _ in 0..10 {
        net.stabilize_round();
    }
    net.fix_all_fingers();
    assert!(net.ring_consistent(), "ring must recover from 33% failures");
    let survivors = net.node_ids();
    for k in 0..60u64 {
        let key = Id::hash_of(format!("q{k}").as_bytes());
        let want = net.true_owner(key).unwrap();
        let from = survivors[k as usize % survivors.len()];
        assert_eq!(net.find_successor(from, key).unwrap().0, want, "key {k}");
    }
}

/// Binning noise ablation: even ±50 % RTT measurement error keeps the
/// latency win (weaker, but present) — the paper's claim that ping
/// accuracy "is adequate".
#[test]
fn noisy_binning_keeps_most_of_the_win() {
    let mut ratios = Vec::new();
    for noise in [0.0, 0.5] {
        let e = Experiment::build(ExperimentConfig {
            kind: TopologyKind::TransitStub,
            nodes: 400,
            requests: 4_000,
            hieras: HierasConfig::paper(),
            seed: 33,
            rtt_noise: noise,
        });
        let r = e.run();
        ratios.push(r.hieras.summary().avg_latency_ms / r.chord.summary().avg_latency_ms);
    }
    assert!(ratios[0] < 0.8, "clean binning should win big: {ratios:?}");
    assert!(ratios[1] < 0.95, "noisy binning should still win: {ratios:?}");
}
