//! Pastry baseline with proximity neighbour selection.
//!
//! The HIERAS paper positions Pastry (Rowstron & Druschel, Middleware
//! 2001) as the topology-aware alternative: its routing tables prefer
//! topologically nearby nodes, at the price of "complex data
//! structures" (§1). The paper's §6 lists a HIERAS-vs-Pastry
//! comparison as future work — this crate supplies the baseline so the
//! `compare-pastry` bench target can run it.
//!
//! Oracle-mode implementation (same philosophy as
//! `hieras_chord::ChordOracle`): tables are built from the full
//! membership.
//!
//! * Identifiers are read as 16 hexadecimal digits (base `2^4`,
//!   Pastry's default `b = 4`, most significant digit first).
//! * **Routing table**: row `l`, column `d` holds a node sharing an
//!   `l`-digit prefix with the owner and having digit `d` next —
//!   chosen as the *topologically closest* such node (proximity
//!   neighbour selection), via a caller-supplied latency function.
//! * **Leaf set**: the `L/2` numerically closest nodes on each side
//!   (`L = 16`).
//! * **Routing**: deliver within the leaf set if possible, otherwise
//!   follow the routing-table entry for the first differing digit;
//!   if that entry is empty, forward to any known node that shares at
//!   least as long a prefix and is numerically closer (the "rare
//!   case" rule of the Pastry paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hieras_id::{Id, Key};
use std::sync::Arc;

/// Digits per id: 64-bit ids, base-16 → 16 digits.
pub const DIGITS: usize = 16;
/// Base of the digit alphabet (`2^b`, b = 4).
pub const BASE: usize = 16;
/// Leaf-set size (L/2 = 8 per side).
pub const LEAF_EACH_SIDE: usize = 8;

/// Errors building a Pastry network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PastryBuildError {
    /// No nodes supplied.
    Empty,
    /// Duplicate identifier.
    DuplicateId(Id),
}

impl core::fmt::Display for PastryBuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PastryBuildError::Empty => write!(f, "Pastry needs at least one node"),
            PastryBuildError::DuplicateId(id) => write!(f, "duplicate node id {id}"),
        }
    }
}

impl std::error::Error for PastryBuildError {}

/// The hop path of one Pastry lookup (global node indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PastryPath {
    /// Visited nodes, origin first, key root last.
    pub path: Vec<u32>,
}

impl PastryPath {
    /// Number of hops.
    #[must_use]
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// The node the key resolved to.
    #[must_use]
    pub fn owner(&self) -> u32 {
        *self.path.last().expect("path never empty")
    }
}

/// Digit `l` (0 = most significant) of an id in base 16.
#[inline]
#[must_use]
pub fn digit(id: Id, l: usize) -> usize {
    debug_assert!(l < DIGITS);
    ((id.raw() >> ((DIGITS - 1 - l) * 4)) & 0xf) as usize
}

/// Length of the shared hex-digit prefix of two ids.
#[inline]
#[must_use]
pub fn shared_prefix(a: Id, b: Id) -> usize {
    let x = a.raw() ^ b.raw();
    if x == 0 {
        DIGITS
    } else {
        (x.leading_zeros() / 4) as usize
    }
}


/// Circular numerical distance on the 2^64 id circle (0 for equality).
#[inline]
#[must_use]
pub fn circular_distance(a: Id, b: Id) -> u64 {
    let d = a.raw().abs_diff(b.raw());
    if d == 0 {
        0
    } else {
        d.min((u64::MAX - d) + 1)
    }
}

/// An oracle-mode Pastry network.
#[derive(Debug, Clone)]
pub struct PastryOracle {
    ids: Arc<[Id]>,
    /// Node indices sorted by id (for leaf sets and key roots).
    sorted: Box<[u32]>,
    /// `tables[n][l * BASE + d]`: routing entry, `u32::MAX` = empty.
    tables: Vec<Box<[u32]>>,
    /// `leaves[n]`: the leaf set of node `n` (node indices).
    leaves: Vec<Box<[u32]>>,
}

impl PastryOracle {
    /// Builds the network. `latency(a, b)` is the proximity metric used
    /// to pick routing-table entries (pass `|_, _| 0` for
    /// topology-oblivious tables).
    ///
    /// # Errors
    /// See [`PastryBuildError`].
    pub fn build(
        ids: Arc<[Id]>,
        mut latency: impl FnMut(u32, u32) -> u16,
    ) -> Result<Self, PastryBuildError> {
        let n = ids.len();
        if n == 0 {
            return Err(PastryBuildError::Empty);
        }
        let mut sorted: Vec<u32> = (0..n as u32).collect();
        sorted.sort_unstable_by_key(|&i| ids[i as usize]);
        for w in sorted.windows(2) {
            if ids[w[0] as usize] == ids[w[1] as usize] {
                return Err(PastryBuildError::DuplicateId(ids[w[0] as usize]));
            }
        }
        // Bucket nodes by (shared-prefix length, next digit) is equivalent to a
        // trie walk; build per-node tables by scanning candidates per
        // bucket. Buckets keyed by the l-digit prefix value.
        use std::collections::HashMap;
        // prefix value (l digits) -> nodes having that prefix, per l.
        let mut buckets: Vec<HashMap<u64, Vec<u32>>> = Vec::with_capacity(DIGITS);
        for l in 0..DIGITS {
            let mut m: HashMap<u64, Vec<u32>> = HashMap::new();
            for i in 0..n as u32 {
                let shift = (DIGITS - l) * 4;
                let prefix =
                    if shift == 64 { 0 } else { ids[i as usize].raw() >> shift };
                m.entry(prefix).or_default().push(i);
            }
            buckets.push(m);
        }
        let mut tables = Vec::with_capacity(n);
        for me in 0..n as u32 {
            let mut table = vec![u32::MAX; DIGITS * BASE].into_boxed_slice();
            for l in 0..DIGITS {
                let shift = (DIGITS - l) * 4;
                let my_prefix =
                    if shift == 64 { 0 } else { ids[me as usize].raw() >> shift };
                let Some(cands) = buckets[l].get(&my_prefix) else { continue };
                if cands.len() <= 1 {
                    // Only me under this prefix: all deeper rows empty too.
                    break;
                }
                for &c in cands {
                    if c == me {
                        continue;
                    }
                    let d = digit(ids[c as usize], l);
                    if d == digit(ids[me as usize], l) {
                        continue; // belongs to a deeper row
                    }
                    let slot = &mut table[l * BASE + d];
                    // Proximity neighbour selection: keep the closest.
                    if *slot == u32::MAX || latency(me, c) < latency(me, *slot) {
                        *slot = c;
                    }
                }
            }
            tables.push(table);
        }
        // Leaf sets from the sorted order.
        let mut rank = vec![0u32; n];
        for (r, &i) in sorted.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        let mut leaves = Vec::with_capacity(n);
        for (me, &r) in rank.iter().enumerate() {
            let r = r as usize;
            let mut set = Vec::with_capacity(2 * LEAF_EACH_SIDE);
            for k in 1..=LEAF_EACH_SIDE.min(n - 1) {
                set.push(sorted[(r + k) % n]);
                set.push(sorted[(r + n - k) % n]);
            }
            set.sort_unstable();
            set.dedup();
            set.retain(|&x| x != me as u32);
            leaves.push(set.into_boxed_slice());
        }
        Ok(PastryOracle { ids, sorted: sorted.into_boxed_slice(), tables, leaves })
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Never empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The node numerically closest to `key` (ties: the smaller id) —
    /// Pastry's key root and the routing ground truth.
    #[must_use]
    pub fn owner_of(&self, key: Key) -> u32 {
        let pos = self
            .sorted
            .binary_search_by_key(&key, |&i| self.ids[i as usize])
            .unwrap_or_else(|p| p);
        let n = self.sorted.len();
        let lo = self.sorted[(pos + n - 1) % n];
        let hi = self.sorted[pos % n];
        let dist = |i: u32| circular_distance(self.ids[i as usize], key);
        match dist(lo).cmp(&dist(hi)) {
            core::cmp::Ordering::Less => lo,
            core::cmp::Ordering::Greater => hi,
            core::cmp::Ordering::Equal => {
                if self.ids[lo as usize] < self.ids[hi as usize] {
                    lo
                } else {
                    hi
                }
            }
        }
    }

    /// A node's routing-table entry (row `l`, digit `d`), if present.
    #[must_use]
    pub fn table_entry(&self, node: u32, l: usize, d: usize) -> Option<u32> {
        let e = self.tables[node as usize][l * BASE + d];
        (e != u32::MAX).then_some(e)
    }

    /// A node's leaf set.
    #[must_use]
    pub fn leaf_set(&self, node: u32) -> &[u32] {
        &self.leaves[node as usize]
    }

    /// Routes `key` from `src` with the Pastry forwarding rule.
    ///
    /// # Panics
    /// Panics if routing fails to converge (corrupt tables).
    #[must_use]
    pub fn route(&self, src: u32, key: Key) -> PastryPath {
        let owner = self.owner_of(key);
        let mut path = vec![src];
        let mut cur = src;
        let cap = DIGITS * 4 + self.ids.len();
        let dist = |i: u32| circular_distance(self.ids[i as usize], key);
        while cur != owner {
            assert!(path.len() <= cap, "Pastry routing did not converge");
            // Leaf-set delivery: if the owner is in our leaf set (or is
            // us), go straight there.
            let next = if self.leaves[cur as usize].contains(&owner) {
                owner
            } else {
                let l = shared_prefix(self.ids[cur as usize], key);
                let d = digit(key, l);
                match self.table_entry(cur, l, d) {
                    Some(e) => e,
                    None => {
                        // Rare case: any known node with >= prefix and
                        // strictly smaller numerical distance.
                        let candidates: Vec<u32> = self.leaves[cur as usize]
                            .iter()
                            .chain(
                                self.tables[cur as usize]
                                    .iter()
                                    .filter(|&&e| e != u32::MAX),
                            )
                            .copied()
                            .collect();
                        let cur_d = dist(cur);
                        candidates
                            .iter()
                            .copied()
                            .filter(|&c| {
                                shared_prefix(self.ids[c as usize], key) >= l
                                    && dist(c) < cur_d
                            })
                            .min_by_key(|&c| dist(c))
                            .unwrap_or_else(|| {
                                // Second stage: the leaf set always holds the
                                // sorted neighbours, one of which is strictly
                                // numerically closer whenever cur != owner.
                                candidates
                                    .iter()
                                    .copied()
                                    .filter(|&c| dist(c) < cur_d)
                                    .min_by_key(|&c| dist(c))
                                    .expect("a sorted neighbour is always closer")
                            })
                    }
                }
            };
            path.push(next);
            cur = next;
        }
        PastryPath { path }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u64) -> Arc<[Id]> {
        (0..n).map(|i| Id::hash_of(&i.to_be_bytes())).collect::<Vec<_>>().into()
    }

    #[test]
    fn digit_and_prefix_helpers() {
        let a = Id(0xfedc_ba98_7654_3210);
        assert_eq!(digit(a, 0), 0xf);
        assert_eq!(digit(a, 1), 0xe);
        assert_eq!(digit(a, 15), 0x0);
        assert_eq!(shared_prefix(a, a), DIGITS);
        assert_eq!(shared_prefix(a, Id(0xfedc_ba98_7654_3211)), 15);
        assert_eq!(shared_prefix(a, Id(0x0edc_ba98_7654_3210)), 0);
    }

    #[test]
    fn build_rejects_empty_and_duplicates() {
        assert_eq!(
            PastryOracle::build(Vec::<Id>::new().into(), |_, _| 0).unwrap_err(),
            PastryBuildError::Empty
        );
        let dup: Arc<[Id]> = vec![Id(5), Id(5)].into();
        assert_eq!(
            PastryOracle::build(dup, |_, _| 0).unwrap_err(),
            PastryBuildError::DuplicateId(Id(5))
        );
    }

    #[test]
    fn owner_is_numerically_closest() {
        let set: Arc<[Id]> = vec![Id(100), Id(200), Id(u64::MAX - 50)].into();
        let p = PastryOracle::build(set, |_, _| 0).unwrap();
        assert_eq!(p.owner_of(Id(120)), 0); // 100 is closer than 200
        assert_eq!(p.owner_of(Id(180)), 1);
        assert_eq!(p.owner_of(Id(u64::MAX - 10)), 2);
        // Wraparound: 20 is 70 from MAX-50 (through 0) vs 80 from 100.
        assert_eq!(p.owner_of(Id(20)), 2);
    }

    #[test]
    fn routing_reaches_owner_from_everywhere() {
        let p = PastryOracle::build(ids(300), |_, _| 0).unwrap();
        for k in 0..100u64 {
            let key = Id::hash_of(format!("k{k}").as_bytes());
            let owner = p.owner_of(key);
            for src in (0..300u32).step_by(37) {
                let r = p.route(src, key);
                assert_eq!(r.owner(), owner, "key {k} src {src}");
            }
        }
    }

    #[test]
    fn hops_are_logarithmic_in_digits() {
        let p = PastryOracle::build(ids(1000), |_, _| 0).unwrap();
        let mut max_hops = 0;
        for k in 0..200u64 {
            let key = Id::hash_of(&k.to_le_bytes());
            max_hops = max_hops.max(p.route((k % 1000) as u32, key).hops());
        }
        // log16(1000) ≈ 2.5; leaf set finishes the tail. Generous bound:
        assert!(max_hops <= 7, "Pastry hops {max_hops} not logarithmic");
    }

    #[test]
    fn proximity_selection_prefers_close_nodes() {
        // Latency = |i - j| over node indices: proximity tables should
        // pick numerically-near *indices* whenever digits allow.
        let set = ids(400);
        let near = PastryOracle::build(set.clone(), |a, b| a.abs_diff(b) as u16).unwrap();
        let far = PastryOracle::build(set, |a, b| 1000 - a.abs_diff(b) as u16).unwrap();
        // Average index distance of populated row-0 entries:
        let avg = |p: &PastryOracle| {
            let mut sum = 0u64;
            let mut cnt = 0u64;
            for n in 0..400u32 {
                for d in 0..BASE {
                    if let Some(e) = p.table_entry(n, 0, d) {
                        sum += u64::from(n.abs_diff(e));
                        cnt += 1;
                    }
                }
            }
            sum as f64 / cnt as f64
        };
        assert!(
            avg(&near) < avg(&far),
            "proximity metric must steer entry choice: {} vs {}",
            avg(&near),
            avg(&far)
        );
    }

    #[test]
    fn leaf_sets_hold_nearest_ids() {
        let set = ids(64);
        let p = PastryOracle::build(set.clone(), |_, _| 0).unwrap();
        let mut sorted: Vec<Id> = set.to_vec();
        sorted.sort_unstable();
        for n in 0..64u32 {
            let leaves = p.leaf_set(n);
            assert!(leaves.len() >= LEAF_EACH_SIDE, "leaf set too small");
            assert!(!leaves.contains(&n));
            // The immediate successor id must be in the leaf set.
            let my = set[n as usize];
            let pos = sorted.binary_search(&my).unwrap();
            let succ = sorted[(pos + 1) % 64];
            let succ_idx = set.iter().position(|&i| i == succ).unwrap() as u32;
            assert!(leaves.contains(&succ_idx), "node {n} missing successor");
        }
    }

    #[test]
    fn single_node_owns_everything() {
        let p = PastryOracle::build(vec![Id(7)].into(), |_, _| 0).unwrap();
        let r = p.route(0, Id(999));
        assert_eq!(r.hops(), 0);
    }

    #[test]
    fn always_terminates_at_numerically_closest() {
        let mut rng = hieras_rt::Rng::seed_from_u64(0x9a_57e7);
        for case in 0..200 {
            let seed: u64 = rng.random_range(0..200u64);
            let n: usize = rng.random_range(2..80usize);
            let set: Arc<[Id]> = (0..n as u64)
                .map(|i| Id::hash_of(&(seed ^ (i << 8)).to_be_bytes()))
                .collect::<Vec<_>>()
                .into();
            let p = PastryOracle::build(set.clone(), |_, _| 0).unwrap();
            let key = Id::hash_of(&seed.to_le_bytes());
            let owner = p.owner_of(key);
            // Brute force the numerically closest (with wraparound).
            let brute = (0..n as u32)
                .min_by_key(|&i| circular_distance(set[i as usize], key))
                .unwrap();
            let dist = |i: u32| circular_distance(set[i as usize], key);
            assert_eq!(dist(owner), dist(brute), "case {case}");
            for src in 0..n as u32 {
                assert_eq!(p.route(src, key).owner(), owner, "case {case} src {src}");
            }
        }
    }
}
