//! Churn: nodes join, fail silently, and leave while lookups continue.
//!
//! Drives the message engine by hand (`figures churn` does
//! the same through `hieras::churn::run_churn`, with a depth-1 Chord
//! baseline beside it): §3.3 joins, graceful leaves, silent fails found
//! through RTO timeouts, and per-layer check-predecessor / stabilize /
//! fix-fingers rounds, every message counted.
//!
//! ```text
//! cargo run --release --example churn
//! ```

use hieras::core::{HierasConfig, HierasOracle};
use hieras::id::{Id, IdSpace};
use hieras::prelude::*;
use hieras::proto::SimNet;
use hieras::rt::Rng;
use std::collections::HashMap;

fn main() {
    // A 250-peer world; the first 200 start as a stabilized two-layer
    // network, the rest arrive during the run.
    let (initial, pool) = (200usize, 250usize);
    let e = Experiment::build(ExperimentConfig {
        kind: TopologyKind::TransitStub,
        nodes: pool,
        requests: 0,
        hieras: HierasConfig::paper(),
        seed: 5,
        rtt_noise: 0.0,
    });
    let index_of: HashMap<Id, u32> =
        e.ids.iter().enumerate().map(|(i, &id)| (id, i as u32)).collect();
    let oracle = HierasOracle::build(
        IdSpace::full(),
        e.ids[..initial].to_vec().into(),
        e.orders[..initial].to_vec(),
        HierasConfig::paper(),
    )
    .expect("a subset of a valid world");
    let mut net = SimNet::from_oracle(&oracle, &e.landmarks, |a, b| {
        u64::from(e.peer_latency(index_of[&a], index_of[&b]))
    });
    let depth = net.config().depth as u8;
    let mut rng = Rng::seed_from_u64(5);
    println!("bootstrapped {} nodes in {depth} layers\n", net.len());

    // Maintenance between epochs, in every layer: four rounds of
    // failure detection + stabilization, then a full finger sweep. The
    // engine keeps no successor list, so a node's way around a dead
    // successor is its closest live finger — newcomers (which join
    // with an empty global finger table) need theirs resolved before
    // the next failures land.
    let maintain = |net: &mut SimNet| {
        for layer in 1..=depth {
            for _ in 0..4 {
                net.check_predecessors_layer(layer);
                net.stabilize_layer(layer);
            }
            for finger in 0..u64::from(IdSpace::full().bits()) {
                net.fix_fingers_layer(layer, finger);
            }
        }
    };

    // Churn: 10 epochs of {5 silent failures, 2 graceful leaves, 5
    // joins}, maintenance between epochs, and live lookups under a
    // 4-attempt / 400 ms back-off budget.
    let mut next = initial;
    let (mut exact, mut wrong, mut total) = (0u32, 0u32, 0u32);
    for epoch in 0..10u64 {
        for _ in 0..5 {
            let alive = net.sorted_ids();
            net.fail_node(alive[rng.random_range(0..alive.len())]);
        }
        for _ in 0..2 {
            let alive = net.sorted_ids();
            net.leave_node(alive[rng.random_range(0..alive.len())]);
        }
        for _ in 0..5 {
            let alive = net.sorted_ids();
            let boot = alive[rng.random_range(0..alive.len())];
            // A join whose messages run into a corpse is abandoned;
            // the half-made splices heal through maintenance.
            if net.try_join(e.ids[next], boot, e.landmark_rtts(next)).is_none() {
                println!("epoch {epoch}: join of node {next} died in the network");
            }
            next += 1;
        }
        maintain(&mut net);

        // Scored against the live membership: while the rings heal a
        // lookup may be lost, or land on a stale owner.
        let alive = net.sorted_ids();
        let mut ok = 0;
        for k in 0..50u64 {
            let key = Id::hash_of(format!("key-{epoch}-{k}").as_bytes());
            let want = *alive.iter().find(|&&m| m >= key).unwrap_or(&alive[0]);
            let from = alive[rng.random_range(0..alive.len())];
            total += 1;
            match net.try_lookup(from, key, 4, 400).outcome {
                Some(o) if o.owner == want => ok += 1,
                Some(_) => wrong += 1,
                None => {}
            }
        }
        exact += ok;
        println!("epoch {epoch}: {} nodes alive, {ok}/50 lookups exact", net.len());
    }

    let s = net.stats();
    println!("\nlookup exactness under churn: {exact}/{total} ({wrong} wrong owner, the rest lost)");
    println!("traffic: {} messages delivered, {} timeouts, {} drops", s.total, s.timeouts, s.drops);
    // Final convergence: after one more quiet pass everything is exact.
    maintain(&mut net);
    let alive = net.sorted_ids();
    for k in 0..100u64 {
        let key = Id::hash_of(format!("settled-{k}").as_bytes());
        let want = *alive.iter().find(|&&m| m >= key).unwrap_or(&alive[0]);
        let got = net.try_lookup(alive[k as usize % alive.len()], key, 4, 400).outcome;
        assert_eq!(got.map(|o| o.owner), Some(want), "key {k} after churn stopped");
    }
    println!("every lookup exact again after churn stopped ✔");
}
