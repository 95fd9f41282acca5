//! The per-ring bootstrap table (§3.1, Table 3).
//!
//! For every P2P ring, a *ring table* records four member nodes — the
//! two smallest and two largest ids in the ring. It is stored at the
//! node whose id is numerically closest to `SHA-1(ringname)` and is
//! how a joining node finds *some* member of a ring it must join: it
//! routes a ring-table request to the table holder over the global
//! ring (an ordinary Chord lookup), then asks any recorded member to
//! build its ring-restricted finger table (§3.3).
//!
//! A table is keyed by its ring's name, the packed [`LandmarkOrder`]
//! [`crate::HierasConfig::ring_key`] produced; the ring id is the
//! SHA-1 of the same digits as ASCII, stored so table holders need no
//! rehash.

use crate::LandmarkOrder;
use hieras_id::Id;

/// The paper's Table 3 structure: ringid, ringname and four member
/// slots (largest, second-largest, smallest, second-smallest id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingTable {
    /// `SHA-1(ringname)` — determines which node stores this table.
    pub ring_id: Id,
    /// The landmark-order digit string naming the ring, e.g. "012".
    pub ring_name: LandmarkOrder,
    /// Member ids, ascending, at most four: `[smallest,
    /// second-smallest, second-largest, largest]` (fewer while the ring
    /// is small; always deduplicated).
    members: Vec<Id>,
}

impl RingTable {
    /// An empty table for the ring named by `order`.
    #[must_use]
    pub fn new(order: &LandmarkOrder) -> Self {
        RingTable { ring_id: order.ring_id(), ring_name: *order, members: Vec::new() }
    }

    /// The node with the smallest id, if any.
    #[must_use]
    pub fn smallest(&self) -> Option<Id> {
        self.members.first().copied()
    }

    /// The node with the second smallest id, if the ring has ≥ 2 members.
    #[must_use]
    pub fn second_smallest(&self) -> Option<Id> {
        (self.members.len() >= 2).then(|| self.members[1])
    }

    /// The node with the largest id, if any.
    #[must_use]
    pub fn largest(&self) -> Option<Id> {
        self.members.last().copied()
    }

    /// The node with the second largest id, if the ring has ≥ 2 members.
    #[must_use]
    pub fn second_largest(&self) -> Option<Id> {
        (self.members.len() >= 2).then(|| self.members[self.members.len() - 2])
    }

    /// All recorded members (1–4 entries), ascending by id. Any of them
    /// can serve as the joining node's entry point into the ring.
    #[must_use]
    pub fn entry_points(&self) -> &[Id] {
        &self.members
    }

    /// True if a joining node with id `candidate` should send a
    /// ring-table modification message (§3.3: "larger than the second
    /// largest nodeid or smaller than the second smallest nodeid").
    #[must_use]
    pub fn should_update(&self, candidate: Id) -> bool {
        if self.members.contains(&candidate) {
            return false;
        }
        if self.members.len() < 4 {
            return true;
        }
        candidate < self.members[1] || candidate > self.members[2]
    }

    /// Records a (joining) node, keeping only the two smallest and two
    /// largest ids. Idempotent.
    pub fn observe(&mut self, candidate: Id) {
        if self.members.contains(&candidate) {
            return;
        }
        self.members.push(candidate);
        self.members.sort_unstable();
        if self.members.len() > 4 {
            // Drop from the middle: keep 2 smallest + 2 largest.
            let drop_at = self.members.len() / 2;
            self.members.remove(drop_at);
        }
    }

    /// Removes a departed/failed node. Returns true if it was recorded
    /// (the holder then re-populates the slot by routing a new lookup,
    /// §3.1's failure note — in oracle mode the caller re-observes a
    /// surviving member).
    pub fn remove(&mut self, node: Id) -> bool {
        if let Some(p) = self.members.iter().position(|&m| m == node) {
            self.members.remove(p);
            true
        } else {
            false
        }
    }

    /// Failure repair, step 1 (§3.1's failure note): drops every
    /// recorded member `alive` rejects, returning the dead ids so the
    /// holder can count repair traffic and notify interested parties.
    pub fn purge(&mut self, alive: impl Fn(Id) -> bool) -> Vec<Id> {
        let mut dead = Vec::new();
        self.members.retain(|&m| {
            let keep = alive(m);
            if !keep {
                dead.push(m);
            }
            keep
        });
        dead
    }

    /// Failure repair, step 2: re-populates the freed slots from
    /// surviving ring members (the holder learns them by routing a new
    /// lookup into the ring). Just a bulk [`RingTable::observe`].
    pub fn repair_from(&mut self, survivors: impl IntoIterator<Item = Id>) {
        for s in survivors {
            self.observe(s);
        }
    }

    /// True if the table has free slots a repair could fill (fewer than
    /// the four slots of the paper's Table 3).
    #[must_use]
    pub fn needs_repair(&self) -> bool {
        self.members.len() < 4
    }

    /// Number of recorded members (0–4).
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if no member is recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order() -> LandmarkOrder {
        "012".parse().unwrap()
    }

    #[test]
    fn new_table_is_empty_and_named() {
        let t = RingTable::new(&order());
        assert!(t.is_empty());
        assert_eq!(t.ring_name.name(), "012");
        assert_eq!(t.ring_id, Id::hash_of(b"012"));
        assert_eq!(t.smallest(), None);
        assert_eq!(t.largest(), None);
    }

    #[test]
    fn observe_keeps_two_smallest_two_largest() {
        let mut t = RingTable::new(&order());
        for id in [50u64, 10, 90, 30, 70, 5, 95] {
            t.observe(Id(id));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.smallest(), Some(Id(5)));
        assert_eq!(t.second_smallest(), Some(Id(10)));
        assert_eq!(t.second_largest(), Some(Id(90)));
        assert_eq!(t.largest(), Some(Id(95)));
    }

    #[test]
    fn observe_is_idempotent() {
        let mut t = RingTable::new(&order());
        t.observe(Id(1));
        t.observe(Id(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn should_update_matches_paper_rule() {
        let mut t = RingTable::new(&order());
        for id in [10u64, 20, 80, 90] {
            t.observe(Id(id));
        }
        // Smaller than second smallest (20) or larger than second largest (80).
        assert!(t.should_update(Id(5)));
        assert!(t.should_update(Id(15))); // 15 < 20
        assert!(!t.should_update(Id(50)));
        assert!(t.should_update(Id(85))); // 85 > 80
        assert!(t.should_update(Id(99)));
        assert!(!t.should_update(Id(10))); // already present
        // Under-full tables always accept.
        let mut small = RingTable::new(&order());
        small.observe(Id(42));
        assert!(small.should_update(Id(7)));
    }

    #[test]
    fn remove_and_repopulate() {
        let mut t = RingTable::new(&order());
        for id in [10u64, 20, 80, 90] {
            t.observe(Id(id));
        }
        assert!(t.remove(Id(20)));
        assert!(!t.remove(Id(20)));
        assert_eq!(t.len(), 3);
        t.observe(Id(15));
        assert_eq!(t.second_smallest(), Some(Id(15)));
    }

    #[test]
    fn purge_and_repair_cycle() {
        let mut t = RingTable::new(&order());
        for id in [10u64, 20, 80, 90] {
            t.observe(Id(id));
        }
        // Nodes 20 and 90 die.
        let dead = t.purge(|id| id != Id(20) && id != Id(90));
        assert_eq!(dead, vec![Id(20), Id(90)]);
        assert_eq!(t.len(), 2);
        assert!(t.needs_repair());
        // The holder re-learns survivors by routing into the ring.
        t.repair_from([Id(15), Id(85), Id(10)]);
        assert_eq!(t.entry_points(), &[Id(10), Id(15), Id(80), Id(85)]);
        assert!(!t.needs_repair());
        // Nothing to purge when everyone is alive.
        assert!(t.purge(|_| true).is_empty());
    }

    #[test]
    fn entry_points_are_sorted() {
        let mut t = RingTable::new(&order());
        for id in [90u64, 10, 80, 20] {
            t.observe(Id(id));
        }
        assert_eq!(t.entry_points(), &[Id(10), Id(20), Id(80), Id(90)]);
    }

    /// Seeded-loop replacement for the old property test: after any
    /// observation sequence the table holds exactly the two smallest
    /// and two largest distinct ids seen.
    #[test]
    fn table_converges_to_extremes() {
        let mut rng = hieras_rt::Rng::seed_from_u64(0x7ab1e);
        for case in 0..256 {
            let len = rng.random_range(1usize..64);
            let ids: Vec<u64> = (0..len).map(|_| rng.random_range(0u64..1000)).collect();
            let mut t = RingTable::new(&order());
            for &i in &ids {
                t.observe(Id(i));
            }
            let mut distinct: Vec<u64> = ids.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let want: Vec<Id> = if distinct.len() <= 4 {
                distinct.iter().map(|&i| Id(i)).collect()
            } else {
                let n = distinct.len();
                vec![Id(distinct[0]), Id(distinct[1]), Id(distinct[n - 2]), Id(distinct[n - 1])]
            };
            assert_eq!(t.entry_points(), &want[..], "case {case}");
        }
    }
}
