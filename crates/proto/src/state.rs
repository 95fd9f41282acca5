//! Per-node protocol state and the pure message handler.
//!
//! A node knows each of its rings by the packed [`LandmarkOrder`]
//! [`hieras_core::HierasConfig::ring_key`] named it with: the same
//! `Copy` value keys the ring tables it holds and travels in every
//! ring-scoped message, and its `ring_id()` locates a table's holder.

use crate::Payload;
use hieras_core::{HierasOracle, LandmarkOrder, RingTable};
use hieras_id::{Id, IdSpace, Key};
use std::collections::{BTreeMap, HashSet};

/// One ring membership: the node's routing state in a single layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerState {
    /// Ring name (the empty order for the global ring).
    pub ring_name: LandmarkOrder,
    /// Ring successor.
    pub succ: Id,
    /// Ring predecessor (`None` until learned).
    pub pred: Option<Id>,
    /// Finger table, one entry per id bit; `None` = not yet resolved.
    pub fingers: Vec<Option<Id>>,
}

impl LayerState {
    /// A single-member ring (a node founding a new ring, or the first
    /// node of the system).
    #[must_use]
    pub fn solo(ring_name: LandmarkOrder, me: Id, bits: u32) -> Self {
        LayerState { ring_name, succ: me, pred: Some(me), fingers: vec![None; bits as usize] }
    }
}

/// A node's complete protocol state.
#[derive(Debug, Clone)]
pub struct NodeState {
    /// This node's identifier.
    pub id: Id,
    /// The identifier space.
    pub space: IdSpace,
    /// Per-layer state; index 0 = layer 1 (global), last = lowest.
    pub layers: Vec<LayerState>,
    /// Ring tables this node stores (it is their holder).
    pub ring_tables: BTreeMap<LandmarkOrder, RingTable>,
    /// Landmark router ids (the landmark table of §3.1).
    pub landmarks: Vec<u32>,
    /// Nodes this node has observed to be dead (a send to them timed
    /// out). Suspects are never routed to or re-adopted as neighbours.
    pub suspects: HashSet<Id>,
}

impl NodeState {
    /// The hierarchy depth this node participates in.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Layer state by 1-based layer number.
    ///
    /// # Panics
    /// Panics if `layer` is outside `1..=depth`.
    #[must_use]
    pub fn layer(&self, layer: u8) -> &LayerState {
        &self.layers[layer as usize - 1]
    }

    /// Mutable layer state by 1-based layer number.
    pub fn layer_mut(&mut self, layer: u8) -> &mut LayerState {
        &mut self.layers[layer as usize - 1]
    }

    /// True if this node owns `key` within its layer-`layer` ring:
    /// `key ∈ (pred, me]`. Nodes without a predecessor pointer answer
    /// `false` (they cannot prove ownership yet).
    #[must_use]
    pub fn owns_in_layer(&self, layer: u8, key: Key) -> bool {
        let ls = self.layer(layer);
        match ls.pred {
            Some(p) => self.space.in_open_closed(p, self.id, key),
            None => false,
        }
    }

    /// Chord forwarding choice within one layer: the closest preceding
    /// candidate for `key` among fingers and the successor (suspects
    /// are never chosen); falls back to the successor.
    #[must_use]
    pub fn next_hop_in_layer(&self, layer: u8, key: Key) -> Id {
        let ls = self.layer(layer);
        let mut best: Option<Id> = None;
        let mut consider = |cand: Id| {
            if cand != self.id
                && !self.suspects.contains(&cand)
                && self.space.in_open(self.id, key, cand)
            {
                best = Some(match best {
                    None => cand,
                    Some(b) => self.space.closer_predecessor(key, cand, b),
                });
            }
        };
        for f in ls.fingers.iter().rev().flatten() {
            consider(*f);
        }
        consider(ls.succ);
        best.unwrap_or(ls.succ)
    }

    /// Failure-detection bookkeeping: marks `dead` as a suspect and
    /// scrubs it out of every layer's routing state. Fingers pointing
    /// at it are nulled (fix-fingers re-resolves them); a successor
    /// pointing at it is replaced by the closest alive clockwise finger
    /// (self when none is known — stabilization then repairs it). The
    /// predecessor pointer is deliberately left stale: a suspect pred
    /// keeps the ownership range a safe subset until a live predecessor
    /// notifies, at which point the suspect check in the notify rule
    /// lets the replacement through.
    pub fn note_dead(&mut self, dead: Id) {
        if dead == self.id {
            return;
        }
        self.suspects.insert(dead);
        let me = self.id;
        let space = self.space;
        for ls in &mut self.layers {
            for f in &mut ls.fingers {
                if *f == Some(dead) {
                    *f = None;
                }
            }
            if ls.succ == dead {
                let mut best: Option<Id> = None;
                for &f in ls.fingers.iter().flatten() {
                    if f == me {
                        continue;
                    }
                    best = Some(match best {
                        None => f,
                        // Closest clockwise after me = the one the other
                        // precedes on the arc (me, best].
                        Some(b) => {
                            if space.in_open(me, b, f) {
                                f
                            } else {
                                b
                            }
                        }
                    });
                }
                ls.succ = best.unwrap_or(me);
            }
        }
    }

    /// The §3.2 routing step for an incoming [`Payload::FindSucc`].
    ///
    /// Mirrors [`hieras_core::HierasOracle::route`] hop for hop: the
    /// global owner answers; a node that is the closest-*preceding*
    /// member of the key in a lower ring hands the message up a layer
    /// at no hop cost; a node that ring-locally owns the key in a lower
    /// ring overshoots it in id space and bounces one backward hop to
    /// its predecessor (the hand-off point); everyone else forwards via
    /// the layer's fingers. Returns the messages to emit.
    fn on_find_succ(&self, key: Key, mut layer: u8, origin: Id, req: u64, hops: u32) -> Vec<(Id, Payload)> {
        // The destination check that ends each m loop early (§3.2).
        if self.owns_in_layer(1, key) {
            return vec![(origin, Payload::FoundSucc { key, owner: self.id, req, hops })];
        }
        while layer > 1 {
            let ls = self.layer(layer);
            if ls.succ == self.id || self.space.in_open_closed(self.id, ls.succ, key) {
                // Closest-preceding member of the key in this ring (or a
                // solo ring): ascend toward the global ring.
                layer -= 1;
            } else if self.owns_in_layer(layer, key) {
                // Overshoot bounce: hand the key back to the ring-local
                // predecessor. Only to one believed alive — bouncing to
                // a suspect pred would RTO, re-handle, and bounce again
                // forever, since note_dead leaves pred pointers stale.
                let pred = ls.pred.filter(|p| *p != self.id && !self.suspects.contains(p));
                match pred {
                    Some(p) => {
                        return vec![(
                            p,
                            Payload::FindSucc { key, layer, origin, req, hops: hops + 1 },
                        )];
                    }
                    // Hand-off point unknown or dead: ascend — the
                    // upper layers still reach the global owner.
                    None => layer -= 1,
                }
            } else {
                break;
            }
        }
        let next = self.next_hop_in_layer(layer, key);
        if next == self.id {
            // Degenerate solo ring that doesn't own the key can only
            // happen at layer 1 with one node — which owns everything —
            // so reaching here means state corruption.
            return vec![(origin, Payload::FoundSucc { key, owner: self.id, req, hops })];
        }
        vec![(next, Payload::FindSucc { key, layer, origin, req, hops: hops + 1 })]
    }

    /// The §3.3 routing step for [`Payload::FindRingSucc`]: ordinary
    /// Chord routing confined to `layer`'s ring, answered by the
    /// ring-local owner.
    fn on_find_ring_succ(&self, key: Key, layer: u8, origin: Id, req: u64, hops: u32) -> Vec<(Id, Payload)> {
        if self.owns_in_layer(layer, key) {
            return vec![(origin, Payload::FoundSucc { key, owner: self.id, req, hops })];
        }
        let next = self.next_hop_in_layer(layer, key);
        if next == self.id {
            return vec![(origin, Payload::FoundSucc { key, owner: self.id, req, hops })];
        }
        vec![(next, Payload::FindRingSucc { key, layer, origin, req, hops: hops + 1 })]
    }

    /// Handles one incoming message, returning the messages to send.
    /// Pure with respect to the transport: no I/O, no clocks.
    pub fn handle(&mut self, from: Id, msg: Payload) -> Vec<(Id, Payload)> {
        match msg {
            Payload::FindSucc { key, layer, origin, req, hops } => {
                self.on_find_succ(key, layer, origin, req, hops)
            }
            Payload::FindRingSucc { key, layer, origin, req, hops } => {
                self.on_find_ring_succ(key, layer, origin, req, hops)
            }
            Payload::FoundSucc { .. } => Vec::new(), // consumed by drivers
            Payload::GetPred { layer, req } => {
                let pred = self.layer(layer).pred;
                vec![(from, Payload::PredIs { layer, pred, req })]
            }
            Payload::PredIs { .. } => Vec::new(), // consumed by drivers
            Payload::Notify { layer } => {
                let me = self.id;
                let space = self.space;
                let adopt = match self.layer(layer).pred {
                    None => true,
                    // A suspect predecessor is replaced by any live
                    // claimant — this is how the successor of a failed
                    // node absorbs its key range.
                    Some(p) => {
                        p == me || self.suspects.contains(&p) || space.in_open(p, me, from)
                    }
                };
                if adopt && from != me && !self.suspects.contains(&from) {
                    self.layer_mut(layer).pred = Some(from);
                }
                Vec::new()
            }
            Payload::UpdateSucc { layer } => {
                let me = self.id;
                let space = self.space;
                let succ = self.layer(layer).succ;
                // Accept only if the sender actually sits between us and
                // our current successor (or we are solo).
                if from != me
                    && !self.suspects.contains(&from)
                    && (succ == me || space.in_open(me, succ, from))
                {
                    self.layer_mut(layer).succ = from;
                }
                Vec::new()
            }
            Payload::GetRingTable { ring_name, req } => {
                let table = self.ring_tables.get(&ring_name).cloned();
                vec![(from, Payload::RingTableIs { table, req })]
            }
            Payload::RingTableIs { .. } => Vec::new(), // consumed by drivers
            Payload::RingTableUpdate { ring_name, node } => {
                let fresh = || RingTable::new(&ring_name);
                self.ring_tables.entry(ring_name).or_insert_with(fresh).observe(node);
                Vec::new()
            }
            Payload::GetFingers { layer, req } => {
                let fingers = self.layer(layer).fingers.clone();
                vec![(from, Payload::FingersAre { layer, fingers, req })]
            }
            Payload::FingersAre { .. } => Vec::new(), // consumed by drivers
            Payload::GetLandmarks { req } => {
                vec![(from, Payload::LandmarksAre { landmarks: self.landmarks.clone(), req })]
            }
            Payload::LandmarksAre { .. } => Vec::new(), // consumed by drivers
            Payload::Ping { req } => vec![(from, Payload::Pong { req })],
            Payload::Pong { .. } => Vec::new(), // consumed by drivers
            Payload::LeaveUpdate { layer, new_succ, new_pred } => {
                let me = self.id;
                let ls = self.layer_mut(layer);
                for f in &mut ls.fingers {
                    if *f == Some(from) {
                        *f = None;
                    }
                }
                if let Some(s) = new_succ {
                    if ls.succ == from {
                        // A leaver pointing at itself means the ring
                        // collapses to the receiver alone.
                        ls.succ = if s == from { me } else { s };
                    }
                }
                if let Some(p) = new_pred {
                    if ls.pred == Some(from) {
                        ls.pred = Some(if p == from { me } else { p });
                    }
                }
                Vec::new()
            }
            Payload::RingTableRemove { ring_name, node } => {
                let probe = match self.ring_tables.get_mut(&ring_name) {
                    Some(t) => {
                        t.remove(node);
                        if t.needs_repair() {
                            // §3.1 failure repair: ask a surviving member
                            // for its ring neighbours to refill the slots.
                            t.entry_points().first().copied()
                        } else {
                            None
                        }
                    }
                    None => None,
                };
                match probe {
                    Some(p) => vec![(p, Payload::GetRingNeighbors { ring_name, req: 0 })],
                    None => Vec::new(),
                }
            }
            Payload::GetRingNeighbors { ring_name, req } => {
                match self.layers.iter().find(|l| l.ring_name == ring_name) {
                    Some(ls) => vec![(
                        from,
                        Payload::RingNeighborsAre {
                            ring_name,
                            succ: ls.succ,
                            pred: ls.pred,
                            req,
                        },
                    )],
                    None => Vec::new(), // not a member — probe went stale
                }
            }
            Payload::RingNeighborsAre { ring_name, succ, pred, .. } => {
                if let Some(t) = self.ring_tables.get_mut(&ring_name) {
                    for m in [Some(from), Some(succ), pred].into_iter().flatten() {
                        if !self.suspects.contains(&m) {
                            t.observe(m);
                        }
                    }
                }
                Vec::new()
            }
            Payload::RingTableHandoff { table } => {
                match self.ring_tables.get_mut(&table.ring_name) {
                    Some(existing) => {
                        existing.repair_from(table.entry_points().iter().copied());
                    }
                    None => {
                        self.ring_tables.insert(table.ring_name, table);
                    }
                }
                Vec::new()
            }
            Payload::Timeout { dead, original } => {
                self.note_dead(dead);
                // Reroute with the failed forward refunded: the re-handle
                // below re-increments the hop count, so net hops stay
                // honest while the timeout cost shows up in latency.
                match *original {
                    Payload::FindSucc { key, layer, origin, req, hops } => {
                        self.on_find_succ(key, layer, origin, req, hops.saturating_sub(1))
                    }
                    Payload::FindRingSucc { key, layer, origin, req, hops } => {
                        self.on_find_ring_succ(key, layer, origin, req, hops.saturating_sub(1))
                    }
                    _ => Vec::new(),
                }
            }
        }
    }
}

/// Extracts every member's protocol state from a built oracle — the
/// "warm bootstrap" used to initialize transports with a consistent,
/// fully stabilized network. An oracle over a subset of its id table
/// ([`HierasOracle::build_members_on`]) yields its members only; the
/// other ids are free to join later.
#[must_use]
pub fn states_from_oracle(oracle: &HierasOracle, landmarks: &[u32]) -> Vec<NodeState> {
    let space = oracle.space();
    let bits = space.bits() as usize;
    let n = oracle.len();
    let mut states: Vec<NodeState> = (0..n as u32)
        .map(|node| NodeState {
            id: oracle.id_of(node),
            space,
            layers: Vec::with_capacity(oracle.layers().len()),
            ring_tables: BTreeMap::new(),
            landmarks: landmarks.to_vec(),
            suspects: HashSet::new(),
        })
        .collect();
    for layer in oracle.layers() {
        for (name, ring) in layer.rings() {
            for (pos, &member) in ring.members().iter().enumerate() {
                let pos = pos as u32;
                let succ = oracle.id_of(ring.node_at(ring.successor(pos)));
                let pred = oracle.id_of(ring.node_at(ring.predecessor(pos)));
                let mut fingers = vec![None; bits];
                for (i, f) in fingers.iter_mut().enumerate() {
                    *f = Some(oracle.id_of(ring.node_at(ring.finger(pos, i as u32))));
                }
                states[member as usize].layers.push(LayerState {
                    ring_name: *name,
                    succ,
                    pred: Some(pred),
                    fingers,
                });
            }
        }
    }
    // Ring tables live at their holders.
    for table in oracle.ring_tables().values() {
        let holder = oracle.ring_table_holder(table.ring_id);
        states[holder as usize].ring_tables.insert(table.ring_name, table.clone());
    }
    // Every member sits in the global ring; an id in no ring is none.
    states.retain(|s| !s.layers.is_empty());
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use hieras_core::{Binning, HierasConfig};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn oracle() -> HierasOracle {
        let ids: Arc<[Id]> = (0..16u64)
            .map(|i| Id(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect::<Vec<_>>()
            .into();
        let rtts: Vec<Vec<u16>> =
            (0..16).map(|i| vec![if i % 2 == 0 { 5 } else { 150 }, 30]).collect();
        HierasOracle::from_rtts(
            IdSpace::full(),
            ids,
            &rtts,
            HierasConfig { depth: 2, landmarks: 2, binning: Binning::paper() },
        )
        .unwrap()
    }

    #[test]
    fn states_from_oracle_are_complete() {
        let o = oracle();
        let states = states_from_oracle(&o, &[7, 9]);
        assert_eq!(states.len(), 16);
        for s in &states {
            assert_eq!(s.depth(), 2);
            assert_eq!(s.landmarks, vec![7, 9]);
            for l in &s.layers {
                assert!(l.pred.is_some());
                assert!(l.fingers.iter().all(Option::is_some));
            }
        }
        // Ring tables distributed to holders only.
        let held: usize = states.iter().map(|s| s.ring_tables.len()).sum();
        assert_eq!(held, o.ring_tables().len());
    }

    #[test]
    fn a_subset_oracle_bootstraps_its_members_only() {
        let full = oracle();
        let ids: Arc<[Id]> = (0..16).map(|n| full.id_of(n)).collect::<Vec<_>>().into();
        let orders = (0..16).map(|n| full.layers()[1].ring_name_of(n)).collect();
        let members: Vec<u32> = (0..16).step_by(2).collect();
        let exec = hieras_rt::Executor::new(1);
        let config = full.config().clone();
        let o =
            HierasOracle::build_members_on(&exec, IdSpace::full(), ids, orders, &members, config)
                .unwrap();
        let got: BTreeSet<Id> = states_from_oracle(&o, &[]).iter().map(|s| s.id).collect();
        let want: BTreeSet<Id> = members.iter().map(|&m| o.id_of(m)).collect();
        assert_eq!(got, want, "non-members are left free to join");
    }

    #[test]
    fn ownership_matches_oracle() {
        let o = oracle();
        let states = states_from_oracle(&o, &[]);
        for k in 0..50u64 {
            let key = Id(k.wrapping_mul(0x517c_c1b7_2722_0a95));
            let owner = o.owner_of(key);
            for (i, s) in states.iter().enumerate() {
                assert_eq!(
                    s.owns_in_layer(1, key),
                    i as u32 == owner,
                    "node {i} key {k}"
                );
            }
        }
    }

    #[test]
    fn get_pred_and_fingers_roundtrip() {
        let o = oracle();
        let mut states = states_from_oracle(&o, &[]);
        let asker = states[1].id;
        let out = states[0].handle(asker, Payload::GetPred { layer: 1, req: 9 });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, asker);
        match &out[0].1 {
            Payload::PredIs { pred, req: 9, .. } => assert!(pred.is_some()),
            other => panic!("unexpected {other:?}"),
        }
        let out = states[0].handle(asker, Payload::GetFingers { layer: 2, req: 1 });
        match &out[0].1 {
            Payload::FingersAre { fingers, .. } => assert_eq!(fingers.len(), 64),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn notify_adopts_closer_predecessor_only() {
        let o = oracle();
        let mut states = states_from_oracle(&o, &[]);
        let me = states[0].id;
        let old_pred = states[0].layer(1).pred.unwrap();
        // A node *behind* the current predecessor must not displace it.
        let space = states[0].space;
        let worse = space.sub(old_pred, 1);
        let out = states[0].handle(worse, Payload::Notify { layer: 1 });
        assert!(out.is_empty());
        assert_eq!(states[0].layer(1).pred, Some(old_pred));
        // A node between pred and me is adopted.
        let better = space.sub(me, 1);
        if better != old_pred {
            states[0].handle(better, Payload::Notify { layer: 1 });
            assert_eq!(states[0].layer(1).pred, Some(better));
        }
    }

    #[test]
    fn ring_table_update_creates_table_on_demand() {
        let o = oracle();
        let mut states = states_from_oracle(&o, &[]);
        let sender = states[4].id;
        let ring: LandmarkOrder = "99".parse().unwrap();
        let out =
            states[3].handle(sender, Payload::RingTableUpdate { ring_name: ring, node: Id(42) });
        assert!(out.is_empty());
        let t = &states[3].ring_tables[&ring];
        assert_eq!(t.entry_points(), &[Id(42)]);
        assert_eq!(t.ring_id, Id::hash_of(b"99"));
    }
}
