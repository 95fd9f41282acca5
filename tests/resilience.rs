//! Failure-injection integration tests: landmark death, node failures,
//! ring-table holder loss, and what maintenance under churn costs.

use hieras::core::{Binning, HierasConfig, HierasOracle, LandmarkOrder, RingTable};
use hieras::id::{Id, IdSpace};
use hieras::prelude::*;
use hieras::proto::SimNet;
use hieras::sim::{ChurnConfig, Lifetime};

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
    let mut t = RingTable::new(&"01".parse().unwrap());
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

/// Massive correlated failure: every third peer fails silently, at
/// hierarchy depth 1 (plain Chord) and 2. The message engine has no
/// spare pointers to fall back on — it recovers through RTO timeouts,
/// suspect scrubbing and finger promotion (§3.3's maintenance, per
/// layer). While the rings heal a lookup may die in the network, but
/// it must never name a wrong owner; after ten maintenance rounds every
/// lookup resolves to the brute-force owner again.
#[test]
fn mass_failure_recovery() {
    for depth in [1usize, 2] {
        let e = Experiment::build(ExperimentConfig {
            kind: TopologyKind::TransitStub,
            nodes: 90,
            requests: 0,
            hieras: HierasConfig {
                depth,
                landmarks: if depth == 1 { 0 } else { 4 },
                binning: Binning::paper(),
            },
            seed: 32,
            rtt_noise: 0.0,
        });
        let mut net = SimNet::from_oracle(&e.hieras, &e.landmarks, |a, b| {
            5 + (a.raw() ^ b.raw()) % 90
        });
        for victim in net.sorted_ids().into_iter().step_by(3) {
            assert!(net.fail_node(victim));
        }
        let survivors = net.sorted_ids();
        assert_eq!(survivors.len(), 60);
        // 200 lookups under the churn engine's retry budget; returns
        // how many never resolved.
        let probe = |net: &mut SimNet, tag: u64| -> usize {
            let mut unresolved = 0;
            for k in 0..200u64 {
                let key = Id::hash_of(format!("q{tag}-{k}").as_bytes());
                let want = *survivors.iter().find(|&&m| m >= key).unwrap_or(&survivors[0]);
                let from = survivors[k as usize % survivors.len()];
                match net.try_lookup(from, key, 4, 400).outcome {
                    Some(o) => assert_eq!(o.owner, want, "depth {depth}, round {tag}, key {k}"),
                    None => unresolved += 1,
                }
            }
            unresolved
        };
        let mut unresolved = Vec::new();
        for round in 0..10u64 {
            for layer in 1..=depth as u8 {
                net.check_predecessors_layer(layer);
                net.stabilize_layer(layer);
                net.fix_fingers_layer(layer, round);
            }
            unresolved.push(probe(&mut net, round));
        }
        assert!(unresolved[0] > 0, "depth {depth}: losing a third of the ring must cost lookups");
        assert_eq!(probe(&mut net, 10), 0, "depth {depth}: unresolved per round {unresolved:?}");
    }
}

/// §3.4's cost shape, measured like for like: the churn baseline is
/// the same message engine at depth 1, so each HIERAS layer pays for
/// stabilization and finger repair what Chord's one ring pays, and the
/// total is ≈ depth × Chord's. Run on quick `figures churn`'s graceful
/// scenario (120 peers, 10 arrivals over 8 s, every departure
/// graceful).
#[test]
fn churn_maintenance_costs_one_chord_per_layer() {
    let horizon_ms = 8_000;
    let cfg = ChurnExperimentConfig::standard(ChurnConfig {
        initial_nodes: 120,
        arrivals: 10,
        inter_arrival: Lifetime::Fixed { ms: horizon_ms / 11 },
        lifetime: Lifetime::Exponential { mean_ms: 10.0 * horizon_ms as f64 },
        graceful_fraction: 1.0,
        horizon_ms,
        seed: 20030415,
    });
    let r = run_churn(&cfg);
    assert!(r.events.joins > 0 && r.events.leaves > 0, "the scenario must churn: {:?}", r.events);
    assert_eq!(r.hieras.failed(), 0, "graceful churn loses no HIERAS lookup");
    assert_eq!(r.chord.failed(), 0, "graceful churn loses no Chord lookup");
    assert_eq!(r.chord.lookups, r.hieras.lookups, "one lookup stream for both");
    assert!(r.chord.attempts >= r.chord.lookups);
    assert_eq!((r.hieras.maint.len(), r.chord.maint.len()), (cfg.hieras.depth, 1));
    let rounds = |m: &hieras::churn::MaintStats| (m.stabilize_msgs + m.fix_finger_msgs) as f64;
    let chord = rounds(&r.chord.maint[0]);
    assert!(chord > 0.0);
    for (i, m) in r.hieras.maint.iter().enumerate() {
        let ratio = rounds(m) / chord;
        assert!((0.9..=1.1).contains(&ratio), "layer {} costs {ratio:.3} Chord rings", i + 1);
    }
    // Every message is in some bucket. `run_churn` itself asserts this
    // of both networks (the baseline's traffic totals are not in the
    // report); the HIERAS half can be re-read from the outside, and the
    // baseline's books must at least cover its joins and lookups.
    assert_eq!(r.hieras.maint_total().total(), r.messages_total + r.timeouts_total);
    let cm = r.chord.maint_total();
    assert!(cm.join_msgs > 0 && cm.lookup_msgs >= r.chord.lookups && cm.repair_msgs > 0);
    assert!(r.hieras.maint_total().join_msgs > cm.join_msgs, "a join enters depth rings, not one");
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
