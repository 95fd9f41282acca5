//! Equivalence properties behind the scale-out replay engine:
//!
//! * routing into a reused (dirty) [`PathBuf`] scratch yields exactly
//!   the path a fresh one receives,
//! * parallel packed-arena construction is bit-identical to serial at
//!   every thread count, and
//! * the closed-form routing over the packed arena reproduces, hop for
//!   hop, the classic top-down scan over materialized finger tables it
//!   replaced.

use hieras_chord::{ChordOracle, PathBuf, RingArenaPool, RingView};
use hieras_id::{Id, IdSpace};
use hieras_rt::{Executor, Rng};
use std::sync::Arc;

fn scrambled_ids(n: u64) -> Arc<[Id]> {
    (0..n).map(|i| Id(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)).collect::<Vec<_>>().into()
}

/// The pre-packing algorithm, reconstructed over the public API: scan
/// the (now on-demand) finger table from the top for the highest entry
/// strictly inside `(id(pos), key)`.
fn reference_closest_preceding_finger(r: &RingView, pos: u32, key: Id) -> u32 {
    let me = r.id_at(pos);
    for i in (0..r.space().bits()).rev() {
        let f = r.finger(pos, i);
        if f != pos && r.space().in_open(me, key, r.id_at(f)) {
            return f;
        }
    }
    pos
}

/// The pre-packing iterative route, verbatim: predecessor/successor
/// ownership stops, then forward to the scanned closest preceding
/// finger (successor fallback when the scan returns `pos`).
fn reference_route(r: &RingView, start: u32, key: Id, to_predecessor: bool) -> Vec<u32> {
    let mut out = vec![start];
    let mut cur = start;
    loop {
        assert!(out.len() <= r.len() + 66, "reference route did not terminate");
        let pred = r.predecessor(cur);
        if r.space().in_open_closed(r.id_at(pred), r.id_at(cur), key) {
            if to_predecessor && pred != cur {
                out.push(pred);
            }
            return out;
        }
        let succ = r.successor(cur);
        if r.space().in_open_closed(r.id_at(cur), r.id_at(succ), key) {
            if !to_predecessor && succ != cur {
                out.push(succ);
            }
            return out;
        }
        let next = reference_closest_preceding_finger(r, cur, key);
        let next = if next == cur { succ } else { next };
        out.push(next);
        cur = next;
    }
}

/// Random rings in full and tiny id spaces: the packed closed-form
/// route (and its hand-off variant) must be byte-identical to the old
/// finger-table scan on every hop, including exact-member keys (the
/// distance-zero edge) and single-member rings.
#[test]
fn packed_route_matches_reference_finger_scan() {
    let mut rng = Rng::seed_from_u64(0x5eed_0006);
    for case in 0..200 {
        let space = if case % 3 == 0 { IdSpace::new(8).unwrap() } else { IdSpace::full() };
        let n = rng.random_range(1usize..100);
        let mut raw: Vec<u64> = (0..n).map(|_| rng.next_u64() & space.mask()).collect();
        raw.sort_unstable();
        raw.dedup();
        let ids: Arc<[Id]> = raw.iter().map(|&v| Id(v)).collect::<Vec<_>>().into();
        let members: Vec<u32> = (0..ids.len() as u32).collect();
        let ring = RingView::build(space, ids, &members).expect("valid ring");
        let len = ring.len() as u64;
        let mut path = PathBuf::new();
        for probe in 0..40 {
            let start = rng.next_u64_below(len) as u32;
            let key = if rng.next_f64() < 0.25 {
                ring.id_at(rng.next_u64_below(len) as u32) // exact member id
            } else {
                Id(rng.next_u64() & space.mask())
            };
            ring.route_into(start, key, &mut path);
            assert_eq!(
                path.as_slice(),
                reference_route(&ring, start, key, false),
                "case {case} probe {probe}: delivery route diverged"
            );
            ring.route_to_predecessor_into(start, key, &mut path);
            assert_eq!(
                path.as_slice(),
                reference_route(&ring, start, key, true),
                "case {case} probe {probe}: hand-off route diverged"
            );
            assert_eq!(
                ring.closest_preceding_finger(start, key),
                reference_closest_preceding_finger(&ring, start, key),
                "case {case} probe {probe}: closest preceding finger diverged"
            );
        }
    }
}

/// The binary search `position_of` used before it went through the
/// seek index: a member's position by id over the whole arena.
fn reference_position_of(r: &RingView, ids: &[Id], node: u32) -> Option<u32> {
    let id = *ids.get(node as usize)?;
    let arena: Vec<Id> = (0..r.len() as u32).map(|p| r.id_at(p)).collect();
    let p = arena.binary_search(&id).ok()?;
    (r.members()[p] == node).then_some(p as u32)
}

/// Holds `position_of` against the reference for every node of the id
/// table (members and non-members) and for a few indices past it.
fn assert_positions_match(r: &RingView, ids: &[Id], what: &str) {
    for node in 0..ids.len() as u32 + 3 {
        assert_eq!(
            r.position_of(node),
            reference_position_of(r, ids, node),
            "{what}: node {node} (id {:?})",
            ids.get(node as usize)
        );
    }
    for (pos, &m) in r.members().iter().enumerate() {
        assert_eq!(r.position_of(m), Some(pos as u32), "{what}: member {m}");
    }
}

/// `position_of` resolves through the seek index and must answer what
/// a binary search over the arena does: every member and every
/// non-member of random subset rings (non-members with out-of-space
/// ids in 8-bit spaces, and with ids a member also holds), 1- and
/// 2-member rings, ids clustered so most seek buckets are empty, and
/// rings produced by `apply_delta_on` on the offset-derived seek grid.
#[test]
fn seek_position_matches_binary_search() {
    let mut rng = Rng::seed_from_u64(0x5eed_0027);
    for case in 0..150 {
        let space = if case % 3 == 0 { IdSpace::new(8).unwrap() } else { IdSpace::full() };
        let n = rng.random_range(1usize..120);
        // Every fourth case clusters the ids into a sliver of the space.
        let cluster = if case % 4 == 1 { space.mask() >> 4 } else { space.mask() };
        let mut raw: Vec<u64> = (0..n).map(|_| rng.next_u64() & cluster).collect();
        raw.sort_unstable();
        raw.dedup();
        let mut table: Vec<Id> = raw.iter().map(|&v| Id(v)).collect();
        // Non-members: out-of-space ids, and a copy of an in-ring id.
        if space.bits() < 64 {
            table.push(Id(space.mask() + 1 + rng.next_u64_below(1000)));
        }
        table.push(table[0]);
        let ids: Arc<[Id]> = table.into();
        let members: Vec<u32> = if rng.next_f64() < 0.5 {
            (0..raw.len() as u32).collect()
        } else {
            let m: Vec<u32> = (0..raw.len() as u32).filter(|_| rng.next_f64() < 0.6).collect();
            if m.is_empty() {
                vec![0]
            } else {
                m
            }
        };
        let ring = RingView::build(space, Arc::clone(&ids), &members).expect("valid ring");
        assert_positions_match(&ring, &ids, &format!("case {case}"));
    }
    // 1- and 2-member rings (one seek bucket), in both spaces.
    for space in [IdSpace::new(8).unwrap(), IdSpace::full()] {
        let ids: Arc<[Id]> = vec![Id(0), Id(7), Id(space.mask()), Id(300), Id(7)].into();
        for members in [&[0u32][..], &[1], &[2], &[0, 2], &[1, 2], &[0, 1]] {
            let ring = RingView::build(space, Arc::clone(&ids), members).expect("valid ring");
            assert_positions_match(&ring, &ids, &format!("{} bits {members:?}", space.bits()));
        }
    }
    // Deltas that keep the ring between the same two powers of two
    // reuse the old seek index shifted by the running balance.
    let ids = scrambled_ids(700);
    let mut pool = RingArenaPool::new(4);
    let start: Vec<u32> = (0..600).collect();
    let mut ring = RingView::build(IdSpace::full(), Arc::clone(&ids), &start).expect("valid ring");
    for step in 0..40 {
        let members = ring.members().to_vec();
        let mut remove: Vec<u32> =
            (0..3).map(|i| members[(step * 37 + i * 101) % members.len()]).collect();
        remove.sort_unstable();
        remove.dedup();
        let insert: Vec<u32> =
            (600..700).filter(|m| !members.contains(m)).take(rng.random_range(0usize..4)).collect();
        let next = ring.apply_delta_on(&remove, &insert, &mut pool).expect("valid delta");
        assert_eq!(next.len(), ring.len() - remove.len() + insert.len());
        assert_positions_match(&next, &ids, &format!("delta step {step}"));
        ring = next;
    }
    assert!(ring.len() > 512, "the deltas stayed on the 1 024-bucket grid");
}

/// A ring over every node (positions == member indices).
fn full_ring(n: u64) -> RingView {
    let ids = scrambled_ids(n);
    let members: Vec<u32> = (0..n as u32).collect();
    RingView::build(IdSpace::full(), ids, &members).expect("valid ring")
}

/// Every `_into` route clears its scratch: a pre-dirtied, reused
/// [`PathBuf`] receives exactly the path a fresh one does.
#[test]
fn reused_scratch_receives_the_path_a_fresh_one_does() {
    let ring = full_ring(257);
    let oracle = ChordOracle::build(IdSpace::full(), scrambled_ids(257)).expect("valid oracle");
    let mut rng = Rng::seed_from_u64(0xfeed_beef);
    let mut scratch = PathBuf::new();
    // Pre-dirty the scratch (longer than any route here) so the test
    // catches any state leaking between lookups.
    for p in 0..40 {
        scratch.push(p * 3 + 1);
    }
    for _ in 0..2000 {
        let start = rng.next_u64_below(257) as u32;
        let key = Id(rng.next_u64());
        let mut fresh = PathBuf::new();
        ring.route_into(start, key, &mut fresh);
        ring.route_into(start, key, &mut scratch);
        assert_eq!(scratch.as_slice(), fresh.as_slice(), "route start={start} key={key:?}");
        ring.route_to_predecessor_into(start, key, &mut fresh);
        ring.route_to_predecessor_into(start, key, &mut scratch);
        assert_eq!(scratch.as_slice(), fresh.as_slice(), "hand-off start={start} key={key:?}");
        let mut fresh = PathBuf::new();
        oracle.lookup_into(start, key, &mut fresh);
        oracle.lookup_into(start, key, &mut scratch);
        assert_eq!(scratch.as_slice(), fresh.as_slice(), "lookup src={start} key={key:?}");
    }
}

#[test]
fn parallel_arena_build_is_bit_identical_across_thread_counts() {
    // 80000 members — past the packed-arena parallel-build threshold,
    // so the multi-thread builds exercise the chunked par_fill path for
    // both the id arena and the seek index.
    const N: u32 = 80_000;
    let ids = scrambled_ids(N as u64);
    let members: Vec<u32> = (0..N).collect();
    let serial = RingView::build_on(&Executor::new(1), IdSpace::full(), Arc::clone(&ids), &members)
        .expect("serial build");
    for threads in [2, 8] {
        let par =
            RingView::build_on(&Executor::new(threads), IdSpace::full(), Arc::clone(&ids), &members)
                .expect("parallel build");
        for pos in (0..N).step_by(37) {
            for i in 0..64u32 {
                assert_eq!(
                    par.finger(pos, i),
                    serial.finger(pos, i),
                    "threads={threads} pos={pos} finger={i}"
                );
            }
        }
        assert_eq!(par.arena_bytes(), serial.arena_bytes(), "threads={threads} arena size");
    }
}

#[test]
fn parallel_build_routes_identically() {
    let ids = scrambled_ids(2048);
    let members: Vec<u32> = (0..2048).collect();
    let rings: Vec<RingView> = [1, 2, 8]
        .iter()
        .map(|&t| {
            RingView::build_on(&Executor::new(t), IdSpace::full(), Arc::clone(&ids), &members)
                .expect("build")
        })
        .collect();
    let mut rng = Rng::seed_from_u64(0xabcd_ef01);
    let (mut base, mut path) = (PathBuf::new(), PathBuf::new());
    for _ in 0..500 {
        let start = rng.next_u64_below(2048) as u32;
        let key = Id(rng.next_u64());
        rings[0].route_into(start, key, &mut base);
        for (ri, ring) in rings.iter().enumerate().skip(1) {
            ring.route_into(start, key, &mut path);
            assert_eq!(path.as_slice(), base.as_slice(), "ring {ri} diverged");
        }
    }
}
