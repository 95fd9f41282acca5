//! Delta-vs-full byte-identity fuzz.
//!
//! The incremental maintenance contract: applying a churn batch onto
//! an existing hierarchy ([`HierasOracle::apply_delta_on`]) produces a
//! hierarchy **byte-identical** to rebuilding from scratch over the
//! post-batch membership ([`HierasOracle::build_members_on`]) — same
//! ring arenas, same ring numbering, same ring tables, same digest —
//! at any executor width. This harness drives a long random churn
//! history (joins, leaves, re-bins, whole-stub-domain removals) both
//! ways at 1, 2 and 8 threads and asserts the identity at every step.
//! Superseded hierarchies are retired into the delta path's arena pool
//! two epochs late, as the serving engine's publisher does, so every
//! later delta builds in recycled arenas: a ring's cached digest must
//! die with the ring, never follow its buffers into the next one. The
//! full rebuilds build in the arenas of the round before's
//! ([`HierasOracle::build_members_pooled_on`]), so they are held to the
//! same identity.

use hieras_core::{
    Binning, HierasConfig, HierasDelta, HierasOracle, LandmarkOrder, RingArenaPool,
};
use hieras_id::{Id, IdSpace};
use hieras_rt::{splitmix64, Executor};
use std::collections::VecDeque;
use std::sync::Arc;

const NODES: u32 = 64;
const ROUNDS: u64 = 16;

/// Deterministic PRNG stream: `n`-th draw of stream `seed`.
fn rng(seed: u64, n: u64) -> u64 {
    splitmix64(seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Landmark-order profiles the fuzz draws from: five stub domains
/// (level digits in the paper's 0/1/2 alphabet, three landmarks).
fn profile(i: u64) -> LandmarkOrder {
    let digits = match i % 5 {
        0 => "000",
        1 => "222",
        2 => "022",
        3 => "200",
        _ => "112",
    };
    digits.parse().unwrap()
}

struct World {
    space: IdSpace,
    ids: Arc<[Id]>,
    config: HierasConfig,
}

fn world() -> World {
    let ids: Arc<[Id]> = (0..u64::from(NODES))
        .map(|i| Id(splitmix64(i ^ 0x5eed_cafe)))
        .collect::<Vec<_>>()
        .into();
    World {
        space: IdSpace::full(),
        ids,
        config: HierasConfig { depth: 2, landmarks: 3, binning: Binning::paper() },
    }
}

/// One scripted churn history: returns the digest of every published
/// hierarchy, asserting delta-vs-full identity at each step.
#[allow(clippy::too_many_lines)]
fn run_history(exec: &Executor, seed: u64) -> Vec<u64> {
    let w = world();
    let mut orders: Vec<LandmarkOrder> =
        (0..u64::from(NODES)).map(|i| profile(rng(seed, i))).collect();
    let mut live: Vec<bool> =
        (0..NODES).map(|m| !rng(seed ^ 1, u64::from(m)).is_multiple_of(4)).collect();
    live[0] = true; // never start empty
    let members = |live: &[bool]| -> Vec<u32> {
        (0..NODES).filter(|&m| live[m as usize]).collect()
    };
    let mut cur = HierasOracle::build_members_on(
        exec,
        w.space,
        Arc::clone(&w.ids),
        orders.clone(),
        &members(&live),
        w.config.clone(),
    )
    .expect("seed membership builds");
    let mut pool = RingArenaPool::new(64);
    let mut full_pool = RingArenaPool::new(64);
    // Epochs a reader may still pin: retired, not yet reclaimed.
    let mut lagging: VecDeque<HierasOracle> = VecDeque::new();
    let mut digests = vec![cur.hierarchy_digest()];
    for round in 0..ROUNDS {
        let r = |n: u64| rng(seed ^ 0xf00d ^ (round << 16), n);
        let mut joined: Vec<u32> = Vec::new();
        let mut departed: Vec<u32> = Vec::new();
        let mut rebinned: Vec<u32> = Vec::new();
        // Joins: up to 3 dead nodes come back (their order may have
        // drifted while dead — adopted silently with the join).
        for n in 0..3 {
            let m = (r(n) % u64::from(NODES)) as u32;
            if !live[m as usize] && !joined.contains(&m) {
                joined.push(m);
                live[m as usize] = true;
                if r(n ^ 0xa) % 2 == 0 {
                    orders[m as usize] = profile(r(n ^ 0xb));
                }
            }
        }
        // Every fourth round, a whole stub domain fails at once: every
        // live member binned to one profile departs together — the
        // "ring death" path, where the delta must drop entire rings.
        if round % 4 == 3 {
            let doomed = profile(r(100));
            for m in 0..NODES {
                if live[m as usize]
                    && !joined.contains(&m)
                    && orders[m as usize] == doomed
                    && members(&live).len() > 4
                {
                    departed.push(m);
                    live[m as usize] = false;
                }
            }
        }
        // Leaves: up to 3 individual departures.
        for n in 10..13 {
            let m = (r(n) % u64::from(NODES)) as u32;
            if live[m as usize]
                && !joined.contains(&m)
                && !departed.contains(&m)
                && members(&live).len() > 2
            {
                departed.push(m);
                live[m as usize] = false;
            }
        }
        // Re-bins: up to 3 surviving members move to a new stub domain
        // (possibly the same one — a declared no-op re-bin is legal).
        for n in 20..23 {
            let m = (r(n) % u64::from(NODES)) as u32;
            if live[m as usize]
                && !joined.contains(&m)
                && !rebinned.contains(&m)
            {
                rebinned.push(m);
                orders[m as usize] = profile(r(n ^ 0xc));
            }
        }
        let delta = HierasDelta {
            joined: &joined,
            departed: &departed,
            rebinned: &rebinned,
        };
        let inc = cur
            .apply_delta_on(exec, &delta, &orders, &mut pool)
            .expect("recorded churn batches are valid deltas");
        let full = HierasOracle::build_members_pooled_on(
            exec,
            w.space,
            Arc::clone(&w.ids),
            orders.clone(),
            &members(&live),
            w.config.clone(),
            &mut full_pool,
        )
        .expect("post-batch membership builds");
        // Byte identity: every arena, numbering and table — compressed
        // into the hierarchy digest — plus routing parity over a key
        // sample, from every live member.
        assert_eq!(
            inc.hierarchy_digest(),
            full.hierarchy_digest(),
            "round {round}: delta diverged from full rebuild \
             (+{joined:?} -{departed:?} ~{rebinned:?})"
        );
        let alive = members(&live);
        for k in 0..25u64 {
            let key = Id(rng(seed ^ 0xab5e, k));
            assert_eq!(inc.owner_of(key), full.owner_of(key), "round {round} key {k}");
            let src = alive[(k as usize) % alive.len()];
            let (a, b) = (inc.route(src, key), full.route(src, key));
            assert_eq!(a.hop_count(), b.hop_count(), "round {round} src {src} key {k}");
            assert_eq!(a.destination(), b.destination());
        }
        digests.push(full.hierarchy_digest());
        full.recycle_into(&mut full_pool);
        lagging.push_back(std::mem::replace(&mut cur, inc));
        if lagging.len() > 2 {
            lagging.pop_front().expect("non-empty").recycle_into(&mut pool);
        }
    }
    assert!(pool.stats().reused > 0, "no delta ever built in a recycled arena");
    assert!(full_pool.stats().reused > 0, "no full rebuild ever built in a recycled arena");
    digests
}

#[test]
fn random_churn_histories_are_identical_delta_or_full_at_any_width() {
    let mut baselines: Vec<Vec<u64>> = Vec::new();
    for seed in [0x0a11_5eed_u64, 0xd15c_0bee] {
        let d1 = run_history(&Executor::new(1), seed);
        assert!(d1.len() as u64 == ROUNDS + 1);
        baselines.push(d1);
    }
    for width in [2usize, 8] {
        let exec = Executor::new(width);
        for (i, seed) in [0x0a11_5eed_u64, 0xd15c_0bee].into_iter().enumerate() {
            let d = run_history(&exec, seed);
            assert_eq!(
                d, baselines[i],
                "digest history diverged at {width} threads (seed {seed:#x})"
            );
        }
    }
}
