//! Dynamic Chord: join / stabilize / notify / fix-fingers / fail.
//!
//! A faithful state-machine implementation of the Chord maintenance
//! protocol (Stoica et al., §4 of the Chord TR), used for:
//!
//! * the §3.4 cost analysis (RPC counts for joins and maintenance
//!   rounds, compared against HIERAS's multi-table variant), and
//! * churn experiments — nodes fail silently and lookups must keep
//!   resolving after stabilization repairs successor pointers.
//!
//! Message accounting: every remote procedure call (one request/response
//! pair) counts as **one message**. An RPC attempted against a dead node
//! also counts (the timeout is paid on the wire), which matches how
//! maintenance traffic is measured in DHT evaluations.

use hieras_id::{Id, IdSpace, Key};
use hieras_rt::{FromJson, Json, JsonError, ToJson};
use std::collections::BTreeMap;

/// Counters for protocol traffic, split by purpose.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintStats {
    /// RPCs spent resolving application lookups.
    pub lookup_msgs: u64,
    /// RPCs spent during `join` (bootstrap lookup + table initialization).
    pub join_msgs: u64,
    /// RPCs spent in stabilize/notify rounds.
    pub stabilize_msgs: u64,
    /// RPCs spent refreshing finger entries.
    pub fix_finger_msgs: u64,
    /// RPCs attempted against dead nodes: the request is sent, the
    /// timeout is paid, and the caller reroutes. Churn experiments
    /// charge each of these one RTO of latency.
    pub timeout_msgs: u64,
    /// RPCs spent repairing auxiliary state after a failure (ring-table
    /// holder repair, landmark re-binning; unused by plain Chord).
    pub repair_msgs: u64,
}

impl MaintStats {
    /// Total RPCs across all categories.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.lookup_msgs
            + self.join_msgs
            + self.stabilize_msgs
            + self.fix_finger_msgs
            + self.timeout_msgs
            + self.repair_msgs
    }

    /// Merges another accumulator into this one (per-layer roll-ups).
    pub fn merge(&mut self, other: &MaintStats) {
        self.lookup_msgs += other.lookup_msgs;
        self.join_msgs += other.join_msgs;
        self.stabilize_msgs += other.stabilize_msgs;
        self.fix_finger_msgs += other.fix_finger_msgs;
        self.timeout_msgs += other.timeout_msgs;
        self.repair_msgs += other.repair_msgs;
    }
}

impl ToJson for MaintStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("lookup_msgs", self.lookup_msgs.to_json()),
            ("join_msgs", self.join_msgs.to_json()),
            ("stabilize_msgs", self.stabilize_msgs.to_json()),
            ("fix_finger_msgs", self.fix_finger_msgs.to_json()),
            ("timeout_msgs", self.timeout_msgs.to_json()),
            ("repair_msgs", self.repair_msgs.to_json()),
            ("total", self.total().to_json()),
        ])
    }
}

impl FromJson for MaintStats {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(MaintStats {
            lookup_msgs: v.field("lookup_msgs")?,
            join_msgs: v.field("join_msgs")?,
            stabilize_msgs: v.field("stabilize_msgs")?,
            fix_finger_msgs: v.field("fix_finger_msgs")?,
            timeout_msgs: v.field("timeout_msgs")?,
            repair_msgs: v.field("repair_msgs")?,
        })
    }
}

/// Result of a traced lookup: the owner, the node path actually
/// walked (for latency accounting), and the timeouts paid en route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupTrace {
    /// The key's owner.
    pub owner: Id,
    /// Every node the request visited, origin first, owner last.
    pub path: Vec<Id>,
    /// RPCs that timed out against dead table entries along the way.
    pub timeouts: u64,
}

/// Errors from dynamic-chord operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynError {
    /// The node id is already present.
    Duplicate(Id),
    /// The referenced node does not exist (or has failed).
    Unknown(Id),
    /// A lookup exceeded its hop budget — the ring is (temporarily)
    /// inconsistent; run stabilization and retry.
    LookupFailed(Key),
    /// The network has no nodes.
    EmptyNetwork,
}

impl core::fmt::Display for DynError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DynError::Duplicate(id) => write!(f, "node {id} already joined"),
            DynError::Unknown(id) => write!(f, "node {id} unknown or failed"),
            DynError::LookupFailed(k) => write!(f, "lookup for {k} failed to converge"),
            DynError::EmptyNetwork => write!(f, "network is empty"),
        }
    }
}

impl std::error::Error for DynError {}

#[derive(Debug, Clone)]
struct DynNode {
    /// Successor list, nearest first (Chord's r-entry repair list).
    succ_list: Vec<Id>,
    pred: Option<Id>,
    fingers: Vec<Option<Id>>,
    /// Round-robin index for incremental fix_fingers.
    next_finger: u32,
}

/// A dynamic Chord network under explicit protocol rounds.
///
/// Time is modelled in rounds: the caller interleaves `join`, `fail`,
/// [`DynChord::stabilize_round`] and [`DynChord::fix_fingers_round`] as
/// the experiment requires, and reads RPC counters from
/// [`DynChord::stats`].
#[derive(Debug, Clone)]
pub struct DynChord {
    space: IdSpace,
    succ_list_len: usize,
    nodes: BTreeMap<Id, DynNode>,
    stats: MaintStats,
}

impl DynChord {
    /// An empty network over `space` with `succ_list_len`-entry
    /// successor lists (Chord recommends r = O(log N); 8 is plenty for
    /// our network sizes).
    #[must_use]
    pub fn new(space: IdSpace, succ_list_len: usize) -> Self {
        assert!(succ_list_len >= 1, "successor list must hold at least one entry");
        DynChord { space, succ_list_len, nodes: BTreeMap::new(), stats: MaintStats::default() }
    }

    /// RPC counters.
    #[must_use]
    pub fn stats(&self) -> MaintStats {
        self.stats
    }

    /// Resets RPC counters (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = MaintStats::default();
    }

    /// Alive node count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes are alive.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of all alive nodes, ascending.
    #[must_use]
    pub fn node_ids(&self) -> Vec<Id> {
        self.nodes.keys().copied().collect()
    }

    /// True if `id` is alive.
    #[must_use]
    pub fn contains(&self, id: Id) -> bool {
        self.nodes.contains_key(&id)
    }

    fn alive(&self, id: Id) -> bool {
        self.nodes.contains_key(&id)
    }

    /// First alive successor of `n`, following its successor list.
    fn live_successor(&self, n: Id) -> Option<Id> {
        let node = self.nodes.get(&n)?;
        node.succ_list.iter().copied().find(|s| self.alive(*s))
    }

    /// Creates the first node of the network.
    ///
    /// # Errors
    /// [`DynError::Duplicate`] if the id exists.
    pub fn create(&mut self, id: Id) -> Result<(), DynError> {
        if self.nodes.contains_key(&id) {
            return Err(DynError::Duplicate(id));
        }
        let bits = self.space.bits() as usize;
        self.nodes.insert(
            id,
            DynNode {
                succ_list: vec![id],
                pred: Some(id),
                fingers: vec![None; bits],
                next_finger: 0,
            },
        );
        Ok(())
    }

    /// Joins `id` through `bootstrap` (§4.4 of the Chord TR): look up
    /// the successor of `id`, adopt it, and leave the rest to
    /// stabilization.
    ///
    /// # Errors
    /// [`DynError::Duplicate`] / [`DynError::Unknown`] /
    /// [`DynError::LookupFailed`].
    pub fn join(&mut self, id: Id, bootstrap: Id) -> Result<(), DynError> {
        if self.nodes.contains_key(&id) {
            return Err(DynError::Duplicate(id));
        }
        if !self.alive(bootstrap) {
            return Err(DynError::Unknown(bootstrap));
        }
        let (succ, hops) = self.find_successor(bootstrap, id)?;
        self.stats.join_msgs += hops as u64 + 1; // +1 for the join RPC itself
        let bits = self.space.bits() as usize;
        let mut succ_list = vec![succ];
        if let Some(s) = self.nodes.get(&succ) {
            succ_list.extend(s.succ_list.iter().copied().take(self.succ_list_len - 1));
            self.stats.join_msgs += 1; // fetching successor's list
        }
        self.nodes.insert(
            id,
            DynNode { succ_list, pred: None, fingers: vec![None; bits], next_finger: 0 },
        );
        Ok(())
    }

    /// Silent failure: the node vanishes without notifying anyone.
    ///
    /// # Errors
    /// [`DynError::Unknown`] if the node is not alive.
    pub fn fail(&mut self, id: Id) -> Result<(), DynError> {
        self.nodes.remove(&id).map(|_| ()).ok_or(DynError::Unknown(id))
    }

    /// Graceful leave: hands its key range to the successor and splices
    /// predecessor/successor pointers before vanishing (costs 2 RPCs).
    ///
    /// # Errors
    /// [`DynError::Unknown`] if the node is not alive.
    pub fn leave(&mut self, id: Id) -> Result<(), DynError> {
        let node = self.nodes.remove(&id).ok_or(DynError::Unknown(id))?;
        let succ = node.succ_list.iter().copied().find(|s| self.alive(*s));
        let pred = node.pred.filter(|p| self.alive(*p));
        self.stats.stabilize_msgs += 2;
        if let (Some(s), Some(p)) = (succ, pred) {
            if let Some(sn) = self.nodes.get_mut(&s) {
                sn.pred = Some(p);
            }
            if let Some(pn) = self.nodes.get_mut(&p) {
                if let Some(first) = pn.succ_list.first_mut() {
                    *first = s;
                }
            }
        }
        Ok(())
    }

    /// Iterative `find_successor` over the current (possibly stale)
    /// state, skipping dead pointers. Returns the owner and hop count.
    ///
    /// # Errors
    /// [`DynError::Unknown`] for a dead origin,
    /// [`DynError::LookupFailed`] if the hop budget is exhausted.
    pub fn find_successor(&mut self, from: Id, key: Key) -> Result<(Id, usize), DynError> {
        let t = self.find_successor_traced(from, key)?;
        Ok((t.owner, t.path.len() - 1))
    }

    /// Like [`DynChord::find_successor`] but returns the full node path
    /// (for latency accounting) and the number of RPC timeouts the
    /// lookup paid rerouting around dead table entries.
    ///
    /// # Errors
    /// Same as [`DynChord::find_successor`].
    pub fn find_successor_traced(&mut self, from: Id, key: Key) -> Result<LookupTrace, DynError> {
        if !self.alive(from) {
            return Err(DynError::Unknown(from));
        }
        let budget = 2 * (self.nodes.len() + self.space.bits() as usize) + 4;
        let mut cur = from;
        let mut path = vec![from];
        let mut timeouts = 0u64;
        loop {
            if path.len() - 1 > budget {
                return Err(DynError::LookupFailed(key));
            }
            let succ = match self.live_successor_counting(cur, &mut timeouts) {
                Some(s) => s,
                None => {
                    self.stats.timeout_msgs += timeouts;
                    return Err(DynError::LookupFailed(key));
                }
            };
            if self.space.in_open_closed(cur, succ, key) {
                if succ != cur {
                    path.push(succ);
                    self.stats.lookup_msgs += 1;
                }
                self.stats.timeout_msgs += timeouts;
                return Ok(LookupTrace { owner: succ, path, timeouts });
            }
            let next = self.closest_preceding_alive(cur, key, &mut timeouts).unwrap_or(succ);
            let next = if next == cur { succ } else { next };
            path.push(next);
            self.stats.lookup_msgs += 1;
            cur = next;
        }
    }

    /// First alive successor of `cur`, counting each dead entry tried
    /// before it as one timed-out RPC.
    fn live_successor_counting(&self, cur: Id, timeouts: &mut u64) -> Option<Id> {
        let node = self.nodes.get(&cur)?;
        for &s in &node.succ_list {
            if self.alive(s) {
                return Some(s);
            }
            *timeouts += 1;
        }
        None
    }

    /// Best alive routing candidate strictly inside `(cur, key)`,
    /// drawn from fingers and the successor list. The real protocol
    /// contacts the best candidate first and only learns it is dead by
    /// timing out, so every dead candidate *better* than the returned
    /// one costs a timed-out RPC.
    fn closest_preceding_alive(&self, cur: Id, key: Key, timeouts: &mut u64) -> Option<Id> {
        let node = self.nodes.get(&cur)?;
        // Distinct routing candidates strictly inside (cur, key).
        let mut cands: Vec<Id> = Vec::new();
        for cand in node.fingers.iter().rev().flatten().copied().chain(node.succ_list.iter().copied())
        {
            if cand != cur && self.space.in_open(cur, key, cand) && !cands.contains(&cand) {
                cands.push(cand);
            }
        }
        let best = cands
            .iter()
            .copied()
            .filter(|&c| self.alive(c))
            .reduce(|a, b| self.space.closer_predecessor(key, a, b));
        // The node tries candidates best-first, so it times out once on
        // every dead candidate closer to the key than the hop it ends
        // up taking (all of them, if none is alive).
        *timeouts += cands
            .iter()
            .filter(|&&c| {
                !self.alive(c)
                    && best.is_none_or(|b| self.space.closer_predecessor(key, c, b) == c)
            })
            .count() as u64;
        best
    }

    /// One stabilization round over every alive node (in id order):
    /// `stabilize` + `notify` + successor-list refresh, exactly the
    /// Chord TR pseudo-code.
    pub fn stabilize_round(&mut self) {
        let ids: Vec<Id> = self.nodes.keys().copied().collect();
        for n in ids {
            if !self.alive(n) {
                continue;
            }
            // Repair: first alive successor.
            let succ = match self.live_successor(n) {
                Some(s) => s,
                None => continue,
            };
            self.stats.stabilize_msgs += 1; // ask successor for its predecessor
            let x = self.nodes.get(&succ).and_then(|s| s.pred);
            let new_succ = match x {
                Some(x) if x != n && self.alive(x) && self.space.in_open(n, succ, x) => x,
                _ => succ,
            };
            // Refresh our successor list from the (new) successor's list.
            self.stats.stabilize_msgs += 1;
            let mut list = vec![new_succ];
            if let Some(sn) = self.nodes.get(&new_succ) {
                list.extend(
                    sn.succ_list
                        .iter()
                        .copied()
                        .filter(|s| *s != n)
                        .take(self.succ_list_len - 1),
                );
            }
            if let Some(me) = self.nodes.get_mut(&n) {
                me.succ_list = list;
            }
            // notify(new_succ, n)
            self.stats.stabilize_msgs += 1;
            let space = self.space;
            let cur_pred = self.nodes.get(&new_succ).and_then(|sn| sn.pred);
            let adopt = match cur_pred {
                None => true,
                Some(p) => !self.nodes.contains_key(&p) || space.in_open(p, new_succ, n),
            };
            if adopt && new_succ != n {
                if let Some(sn) = self.nodes.get_mut(&new_succ) {
                    sn.pred = Some(n);
                }
            }
        }
    }

    /// One incremental fix-fingers round: every node refreshes a single
    /// finger entry (round-robin), via an internal lookup.
    pub fn fix_fingers_round(&mut self) {
        let ids: Vec<Id> = self.nodes.keys().copied().collect();
        for n in ids {
            if !self.alive(n) {
                continue;
            }
            let (i, start) = {
                let node = self.nodes.get_mut(&n).expect("checked alive");
                let i = node.next_finger;
                node.next_finger = (node.next_finger + 1) % self.space.bits();
                (i, self.space.finger_start(n, i))
            };
            let before = self.stats.lookup_msgs;
            if let Ok((owner, _)) = self.find_successor(n, start) {
                if let Some(node) = self.nodes.get_mut(&n) {
                    node.fingers[i as usize] = Some(owner);
                }
            }
            // Attribute the traffic to finger maintenance, not lookups.
            let spent = self.stats.lookup_msgs - before;
            self.stats.lookup_msgs -= spent;
            self.stats.fix_finger_msgs += spent;
        }
    }

    /// Refreshes *all* fingers of all nodes (a full fix-fingers sweep;
    /// `bits` incremental rounds in one call).
    pub fn fix_all_fingers(&mut self) {
        for _ in 0..self.space.bits() {
            self.fix_fingers_round();
        }
    }

    /// True if following first-successor pointers from the minimum id
    /// visits every alive node exactly once — the Chord ring-consistency
    /// invariant stabilization is meant to (re)establish.
    #[must_use]
    pub fn ring_consistent(&self) -> bool {
        let Some((&start, _)) = self.nodes.iter().next() else {
            return true;
        };
        let mut seen = 0usize;
        let mut cur = start;
        loop {
            let Some(succ) = self.live_successor(cur) else {
                return false;
            };
            seen += 1;
            if seen > self.nodes.len() {
                return false;
            }
            // The *immediate* successor must be the next alive id clockwise.
            let expect = self
                .nodes
                .range((std::ops::Bound::Excluded(cur), std::ops::Bound::Unbounded))
                .next()
                .map_or(start, |(&id, _)| id);
            if succ != expect {
                return false;
            }
            cur = succ;
            if cur == start {
                return seen == self.nodes.len();
            }
        }
    }

    /// The id that *should* own `key` given the alive membership
    /// (ground truth for tests).
    #[must_use]
    pub fn true_owner(&self, key: Key) -> Option<Id> {
        if self.nodes.is_empty() {
            return None;
        }
        self.nodes
            .range(key..)
            .next()
            .map(|(&id, _)| id)
            .or_else(|| self.nodes.keys().next().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> IdSpace {
        IdSpace::full()
    }

    fn id(i: u64) -> Id {
        Id(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn build_network(n: usize) -> DynChord {
        let mut net = DynChord::new(space(), 8);
        net.create(id(0)).unwrap();
        for i in 1..n {
            net.join(id(i as u64), id(0)).unwrap();
            // A couple of stabilize rounds lets pointers settle enough
            // for the next join's bootstrap lookup to succeed.
            net.stabilize_round();
            net.stabilize_round();
        }
        for _ in 0..4 {
            net.stabilize_round();
        }
        net.fix_all_fingers();
        net
    }

    #[test]
    fn create_then_join_converges_to_consistent_ring() {
        let net = build_network(24);
        assert!(net.ring_consistent(), "ring inconsistent after joins + stabilization");
    }

    #[test]
    fn duplicate_join_rejected() {
        let mut net = DynChord::new(space(), 4);
        net.create(id(1)).unwrap();
        assert_eq!(net.create(id(1)).unwrap_err(), DynError::Duplicate(id(1)));
        assert_eq!(net.join(id(1), id(1)).unwrap_err(), DynError::Duplicate(id(1)));
    }

    #[test]
    fn join_through_dead_bootstrap_fails() {
        let mut net = DynChord::new(space(), 4);
        net.create(id(1)).unwrap();
        assert_eq!(net.join(id(2), id(99)).unwrap_err(), DynError::Unknown(id(99)));
    }

    #[test]
    fn lookups_resolve_to_true_owner() {
        let mut net = build_network(20);
        for k in 0..50u64 {
            let key = Id(k.wrapping_mul(0x517c_c1b7_2722_0a95));
            let want = net.true_owner(key).unwrap();
            let (got, hops) = net.find_successor(id(3), key).unwrap();
            assert_eq!(got, want, "key {key}");
            assert!(hops <= 2 * (20 + 64));
        }
    }

    #[test]
    fn silent_failures_are_repaired_by_stabilization() {
        let mut net = build_network(30);
        // Kill a quarter of the nodes.
        for i in (0..30u64).step_by(4) {
            net.fail(id(i)).unwrap();
        }
        // (Successor lists may already mask the failures; stabilization
        // must in any case restore the strict ring invariant.)
        for _ in 0..6 {
            net.stabilize_round();
        }
        assert!(net.ring_consistent(), "stabilization failed to repair the ring");
        net.fix_all_fingers();
        for k in 0..30u64 {
            let key = Id(k.wrapping_mul(0xdead_beef_cafe_f00d));
            let want = net.true_owner(key).unwrap();
            let from = net.node_ids()[0];
            assert_eq!(net.find_successor(from, key).unwrap().0, want);
        }
    }

    #[test]
    fn graceful_leave_keeps_ring_consistent() {
        let mut net = build_network(12);
        net.leave(id(5)).unwrap();
        net.leave(id(9)).unwrap();
        for _ in 0..4 {
            net.stabilize_round();
        }
        assert!(net.ring_consistent());
        assert_eq!(net.len(), 10);
    }

    #[test]
    fn stats_attribute_traffic_to_categories() {
        let mut net = DynChord::new(space(), 4);
        net.create(id(0)).unwrap();
        net.join(id(1), id(0)).unwrap();
        assert!(net.stats().join_msgs > 0);
        let before = net.stats();
        net.stabilize_round();
        assert!(net.stats().stabilize_msgs > before.stabilize_msgs);
        net.fix_fingers_round();
        assert!(net.stats().fix_finger_msgs > 0);
        // Fix-finger traffic must not leak into the lookup counter.
        assert_eq!(net.stats().lookup_msgs, before.lookup_msgs);
        net.reset_stats();
        assert_eq!(net.stats().total(), 0);
    }

    #[test]
    fn traced_lookup_path_matches_hops_and_counts_timeouts() {
        let mut net = build_network(20);
        let key = Id(0x1234_5678_9abc_def0);
        let t = net.find_successor_traced(id(3), key).unwrap();
        let (owner, hops) = net.find_successor(id(3), key).unwrap();
        assert_eq!(t.owner, owner);
        assert_eq!(t.path.len() - 1, hops);
        assert_eq!(t.path[0], id(3));
        assert_eq!(*t.path.last().unwrap(), owner);
        assert_eq!(t.timeouts, 0, "no failures yet, no timeouts");
        assert_eq!(net.stats().timeout_msgs, 0);
        // Kill half the network without repair: lookups now pay
        // timeouts rerouting around dead fingers.
        for i in (0..20u64).step_by(2) {
            let _ = net.fail(id(i));
        }
        let mut paid = 0u64;
        for k in 0..40u64 {
            let key = Id(k.wrapping_mul(0x517c_c1b7_2722_0a95));
            if let Ok(t) = net.find_successor_traced(net.node_ids()[0], key) {
                paid += t.timeouts;
                assert!(net.contains(t.owner));
            }
        }
        assert!(paid > 0, "dead fingers must cost timeouts");
        assert!(net.stats().timeout_msgs >= paid);
    }

    #[test]
    fn maint_stats_merge_and_total_cover_new_fields() {
        let a = MaintStats {
            lookup_msgs: 1,
            join_msgs: 2,
            stabilize_msgs: 3,
            fix_finger_msgs: 4,
            timeout_msgs: 5,
            repair_msgs: 6,
        };
        assert_eq!(a.total(), 21);
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.total(), 42);
        assert_eq!(b.timeout_msgs, 10);
        assert_eq!(b.repair_msgs, 12);
    }

    #[test]
    fn empty_network_edge_cases() {
        let net = DynChord::new(space(), 4);
        assert!(net.is_empty());
        assert!(net.ring_consistent());
        assert_eq!(net.true_owner(Id(5)), None);
    }

    #[test]
    fn single_node_owns_all_keys() {
        let mut net = DynChord::new(space(), 4);
        net.create(id(7)).unwrap();
        let (owner, hops) = net.find_successor(id(7), Id(12345)).unwrap();
        assert_eq!(owner, id(7));
        assert_eq!(hops, 0);
    }
}
