//! Randomized cross-crate invariants of the HIERAS hierarchy.
//!
//! Formerly proptest suites; now deterministic seeded loops driven by
//! the in-tree PRNG so the workspace builds offline. Each test draws
//! 64 random parameter tuples from a fixed seed — failures reproduce
//! exactly and the printed `case` index identifies the tuple.

use hieras::core::{Binning, HierasConfig, HierasOracle, LandmarkOrder};
use hieras::id::{Id, IdSpace};
use hieras::rt::Rng;
use std::sync::Arc;

const CASES: u64 = 64;

/// Deterministic pseudo-random distinct ids.
fn make_ids(seed: u64, n: usize) -> Arc<[Id]> {
    let mut v: Vec<u64> = (0..n as u64)
        .map(|i| (seed ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left((i % 63) as u32))
        .collect();
    v.sort_unstable();
    v.dedup();
    v.iter().map(|&x| Id(x)).collect::<Vec<_>>().into()
}

fn make_orders(seed: u64, n: usize, landmarks: usize) -> Vec<LandmarkOrder> {
    let b = Binning::paper();
    (0..n as u64)
        .map(|i| {
            let rtts: Vec<u16> = (0..landmarks as u64)
                .map(|l| (((seed ^ i).wrapping_mul(2654435761).wrapping_add(l * 40503)) % 240) as u16)
                .collect();
            b.order(&rtts)
        })
        .collect()
}

/// Rings at each layer partition the membership exactly.
#[test]
fn layers_partition_membership() {
    let mut rng = Rng::seed_from_u64(0x1a_7e55);
    for case in 0..CASES {
        let seed = rng.random_range(0..500u64);
        let n = rng.random_range(2..60usize);
        let depth = rng.random_range(2..4usize);
        let ids = make_ids(seed, n);
        let n = ids.len();
        let orders = make_orders(seed, n, 4);
        let o = HierasOracle::build(
            IdSpace::full(),
            ids,
            orders,
            HierasConfig { depth, landmarks: 4, binning: Binning::paper() },
        )
        .unwrap();
        for layer in o.layers() {
            let mut seen = vec![false; n];
            let mut total = 0usize;
            for (_, ring) in layer.rings() {
                for &m in ring.members() {
                    assert!(
                        !seen[m as usize],
                        "case {case}: node {m} in two rings of layer {}",
                        layer.layer_no
                    );
                    seen[m as usize] = true;
                    total += 1;
                }
            }
            assert_eq!(total, n, "case {case}: layer {} does not cover all nodes", layer.layer_no);
        }
    }
}

/// Ring nesting: a node's layer-(j+1) ring members all share its
/// layer-j ring (prefix refinement guarantees containment).
#[test]
fn rings_nest() {
    let mut rng = Rng::seed_from_u64(0x2e_5711);
    for case in 0..CASES {
        let seed = rng.random_range(0..500u64);
        let n = rng.random_range(2..50usize);
        let depth = rng.random_range(2..5usize);
        let ids = make_ids(seed, n);
        let n = ids.len();
        let orders = make_orders(seed, n, 6);
        let o = HierasOracle::build(
            IdSpace::full(),
            ids,
            orders,
            HierasConfig { depth, landmarks: 6, binning: Binning::paper() },
        )
        .unwrap();
        for j in 0..depth - 1 {
            let upper = &o.layers()[j];
            let lower = &o.layers()[j + 1];
            for node in 0..n as u32 {
                let upper_name = upper.ring_name_of(node);
                for &mate in lower.ring_of(node).members() {
                    assert_eq!(upper.ring_name_of(mate), upper_name, "case {case}");
                }
            }
        }
    }
}

/// Every hop of every trace uses a layer whose ring contains both
/// endpoints (hops never leave the ring that made them).
#[test]
fn hops_stay_in_their_ring() {
    let mut rng = Rng::seed_from_u64(0x31_095a);
    for case in 0..CASES {
        let seed = rng.random_range(0..300u64);
        let n = rng.random_range(2..40usize);
        let ids = make_ids(seed, n);
        let n = ids.len();
        let orders = make_orders(seed, n, 4);
        let o = HierasOracle::build(
            IdSpace::full(),
            ids,
            orders,
            HierasConfig { depth: 2, landmarks: 4, binning: Binning::paper() },
        )
        .unwrap();
        let key = Id(seed.wrapping_mul(0x517c_c1b7_2722_0a95));
        for src in 0..n as u32 {
            let t = o.route(src, key);
            for h in &t.hops {
                let layer = &o.layers()[h.layer as usize - 1];
                assert_eq!(
                    layer.ring_name_of(h.from),
                    layer.ring_name_of(h.to),
                    "case {case}: hop {h:?} crossed rings"
                );
            }
        }
    }
}

/// Hop count is bounded by depth × (log2-ish of the ring sizes):
/// the paper's scalability claim with generous slack.
#[test]
fn hop_bound_scales_logarithmically() {
    let mut rng = Rng::seed_from_u64(0x4b_0bbd);
    for case in 0..CASES {
        let seed = rng.random_range(0..200u64);
        let n = rng.random_range(4..64usize);
        let ids = make_ids(seed, n);
        let n = ids.len();
        let orders = make_orders(seed, n, 4);
        let o = HierasOracle::build(IdSpace::full(), ids, orders, HierasConfig::paper()).unwrap();
        let log2n = (usize::BITS - n.leading_zeros()) as usize;
        let bound = 2 * 2 * (log2n + 2); // depth × 2·log₂ + slack
        for k in 0..8u64 {
            let key = Id((seed ^ k).wrapping_mul(0xdead_beef_cafe_f00d));
            let t = o.route((k % n as u64) as u32, key);
            assert!(
                t.hop_count() <= bound,
                "case {case}: {} hops on {} nodes (bound {})",
                t.hop_count(),
                n,
                bound
            );
        }
    }
}

/// The ring table of every lower ring records exactly the extreme
/// member ids of that ring.
#[test]
fn ring_tables_record_extremes() {
    let mut rng = Rng::seed_from_u64(0x5ca1_ab1e);
    for case in 0..CASES {
        let seed = rng.random_range(0..300u64);
        let n = rng.random_range(2..50usize);
        let ids = make_ids(seed, n);
        let n = ids.len();
        let orders = make_orders(seed, n, 3);
        let o = HierasOracle::build(
            IdSpace::full(),
            ids.clone(),
            orders,
            HierasConfig { depth: 2, landmarks: 3, binning: Binning::paper() },
        )
        .unwrap();
        let _ = n;
        for (name, ring) in o.layers()[1].rings() {
            let table = o.ring_table(name).expect("table exists for every ring");
            let mut member_ids: Vec<Id> =
                ring.members().iter().map(|&m| ids[m as usize]).collect();
            member_ids.sort_unstable();
            assert_eq!(table.smallest(), member_ids.first().copied(), "case {case}");
            assert_eq!(table.largest(), member_ids.last().copied(), "case {case}");
            if member_ids.len() >= 2 {
                assert_eq!(table.second_smallest(), Some(member_ids[1]), "case {case}");
                assert_eq!(
                    table.second_largest(),
                    Some(member_ids[member_ids.len() - 2]),
                    "case {case}"
                );
            }
        }
    }
}
