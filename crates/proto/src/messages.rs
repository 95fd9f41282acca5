//! The HIERAS protocol messages.
//!
//! Layer numbers are 1-based as in the paper: layer 1 is the global
//! ring, layer `depth` the lowest. A lookup starts at the originator's
//! lowest layer and *ascends* toward layer 1 (§3.2's m loops).
//!
//! Ring-scoped messages name their ring by its packed `Copy`
//! [`LandmarkOrder`] (the digit string of §3.1), so a message is plain
//! data with no heap string to clone per hop.

use hieras_core::{LandmarkOrder, RingTable};
use hieras_id::Id;

/// Protocol messages. Every message is addressed to a node id; the
/// transport resolves ids to endpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Hierarchical find-successor, forwarded recursively. `layer` is
    /// the ring currently being searched; `hops` counts forwarding
    /// steps so far (the paper's routing-hop metric).
    FindSucc {
        /// Key being resolved.
        key: Id,
        /// Ring layer being searched (1 = global).
        layer: u8,
        /// Node that issued the lookup (receives [`Payload::FoundSucc`]).
        origin: Id,
        /// Request correlation id.
        req: u64,
        /// Routing hops taken so far.
        hops: u32,
    },
    /// Single-ring find-successor: ordinary Chord routing confined to
    /// one ring (§3.3 resolves join-time successors and ring-table
    /// holders this way). Unlike [`Payload::FindSucc`] it never ascends
    /// layers; the ring-local owner answers.
    FindRingSucc {
        /// Key being resolved.
        key: Id,
        /// Ring layer to route in (1 = global).
        layer: u8,
        /// Node that issued the lookup (receives [`Payload::FoundSucc`]).
        origin: Id,
        /// Request correlation id.
        req: u64,
        /// Routing hops taken so far.
        hops: u32,
    },
    /// Final response to a [`Payload::FindSucc`] or
    /// [`Payload::FindRingSucc`], sent by the owner directly to the
    /// originator.
    FoundSucc {
        /// The resolved key.
        key: Id,
        /// The key's owner.
        owner: Id,
        /// Request correlation id.
        req: u64,
        /// Total routing hops.
        hops: u32,
    },
    /// Asks for the receiver's predecessor in `layer` (join/stabilize).
    GetPred {
        /// Ring layer.
        layer: u8,
        /// Request correlation id.
        req: u64,
    },
    /// Response to [`Payload::GetPred`].
    PredIs {
        /// Ring layer.
        layer: u8,
        /// The predecessor, if known.
        pred: Option<Id>,
        /// Request correlation id.
        req: u64,
    },
    /// Chord `notify`: the sender believes it is the receiver's
    /// predecessor in `layer`.
    Notify {
        /// Ring layer.
        layer: u8,
    },
    /// Aggressive-join counterpart of [`Payload::Notify`]: tells the
    /// receiver its layer-`layer` successor is now the sender.
    UpdateSucc {
        /// Ring layer.
        layer: u8,
    },
    /// Asks the receiver (the table holder) for the ring table of
    /// `ring_name` (§3.3: "sends a ring table request message").
    GetRingTable {
        /// Ring name (landmark-order digit string).
        ring_name: LandmarkOrder,
        /// Request correlation id.
        req: u64,
    },
    /// Response to [`Payload::GetRingTable`]. `table` is `None` when
    /// the holder has never heard of the ring — the joining node is
    /// founding it.
    RingTableIs {
        /// The stored table, if any.
        table: Option<RingTable>,
        /// Request correlation id.
        req: u64,
    },
    /// Ring-table modification message (§3.3): the sender joined
    /// `ring_name` and its id may belong in the table.
    RingTableUpdate {
        /// Ring name.
        ring_name: LandmarkOrder,
        /// The joining node's id.
        node: Id,
    },
    /// Asks the receiver for its full finger table in `layer`
    /// (§3.3: finger-table creation request, answered with the entry
    /// point's own table as the initial approximation).
    GetFingers {
        /// Ring layer.
        layer: u8,
        /// Request correlation id.
        req: u64,
    },
    /// Response to [`Payload::GetFingers`].
    FingersAre {
        /// Ring layer.
        layer: u8,
        /// Finger entries (one per id bit; `None` = unresolved).
        fingers: Vec<Option<Id>>,
        /// Request correlation id.
        req: u64,
    },
    /// Asks for the landmark table (§3.3 step 1: the newcomer fetches
    /// landmark information from a nearby member).
    GetLandmarks {
        /// Request correlation id.
        req: u64,
    },
    /// Response to [`Payload::GetLandmarks`]: landmark router ids.
    LandmarksAre {
        /// Landmark router identifiers (opaque to the protocol).
        landmarks: Vec<u32>,
        /// Request correlation id.
        req: u64,
    },
    /// Liveness probe (check-predecessor and failure detection).
    Ping {
        /// Request correlation id.
        req: u64,
    },
    /// Response to [`Payload::Ping`].
    Pong {
        /// Request correlation id.
        req: u64,
    },
    /// Graceful-leave pointer patch: the sender is departing `layer`
    /// and tells the receiver its replacement neighbours. `new_succ`
    /// is set when the receiver was the leaver's predecessor,
    /// `new_pred` when it was the successor.
    LeaveUpdate {
        /// Ring layer.
        layer: u8,
        /// The receiver's new successor, if it changes.
        new_succ: Option<Id>,
        /// The receiver's new predecessor, if it changes.
        new_pred: Option<Id>,
    },
    /// Tells a ring-table holder that `node` left or died; the holder
    /// removes it and starts a repair probe (§3.1's failure note).
    RingTableRemove {
        /// Ring name.
        ring_name: LandmarkOrder,
        /// The departed node.
        node: Id,
    },
    /// Holder repair probe: asks a surviving ring member for its
    /// ring-local neighbours so freed table slots can be refilled.
    GetRingNeighbors {
        /// Ring name the receiver is expected to be a member of.
        ring_name: LandmarkOrder,
        /// Request correlation id.
        req: u64,
    },
    /// Response to [`Payload::GetRingNeighbors`]: the sender's
    /// in-ring successor and predecessor. Consumed by the holder's
    /// message handler, not a driver.
    RingNeighborsAre {
        /// Ring name.
        ring_name: LandmarkOrder,
        /// The member's ring successor.
        succ: Id,
        /// The member's ring predecessor, if known.
        pred: Option<Id>,
        /// Request correlation id.
        req: u64,
    },
    /// Graceful leave of a ring-table holder: the stored table moves
    /// to the sender's global-ring successor (the new id closest to
    /// `SHA-1(ringname)`).
    RingTableHandoff {
        /// The table being handed over.
        table: RingTable,
    },
    /// Transport-generated timer: a message the receiver previously
    /// sent to `dead` was never acknowledged (the destination failed).
    /// Fires one RTO after the send; the receiver marks `dead` as
    /// suspect, scrubs its tables and reroutes `original`.
    Timeout {
        /// The unresponsive destination.
        dead: Id,
        /// The payload whose delivery timed out.
        original: Box<Payload>,
    },
}

/// Expands the payload→tag table into [`Payload::kind`] plus the
/// precomposed `net.send.*` / `net.deliver.*` counter names, so the
/// per-message accounting in the transport never builds a `String`
/// (the names are `concat!`-assembled at compile time).
macro_rules! payload_kinds {
    ($($variant:ident => $tag:literal),+ $(,)?) => {
        /// Short tag for traffic accounting.
        #[must_use]
        pub fn kind(&self) -> &'static str {
            match self { $(Payload::$variant { .. } => $tag,)+ }
        }

        /// The `net.send.<kind>` counter name for this payload.
        #[must_use]
        pub fn send_counter(&self) -> &'static str {
            match self { $(Payload::$variant { .. } => concat!("net.send.", $tag),)+ }
        }

        /// The `net.deliver.<kind>` counter name for this payload.
        #[must_use]
        pub fn deliver_counter(&self) -> &'static str {
            match self { $(Payload::$variant { .. } => concat!("net.deliver.", $tag),)+ }
        }
    };
}

impl Payload {
    payload_kinds! {
        FindSucc => "find_succ",
        FindRingSucc => "find_ring_succ",
        FoundSucc => "found_succ",
        GetPred => "get_pred",
        PredIs => "pred_is",
        Notify => "notify",
        UpdateSucc => "update_succ",
        GetRingTable => "get_ring_table",
        RingTableIs => "ring_table_is",
        RingTableUpdate => "ring_table_update",
        GetFingers => "get_fingers",
        FingersAre => "fingers_are",
        GetLandmarks => "get_landmarks",
        LandmarksAre => "landmarks_are",
        Ping => "ping",
        Pong => "pong",
        LeaveUpdate => "leave_update",
        RingTableRemove => "ring_table_remove",
        GetRingNeighbors => "get_ring_neighbors",
        RingNeighborsAre => "ring_neighbors_are",
        RingTableHandoff => "ring_table_handoff",
        Timeout => "timeout",
    }

    /// True for messages routed hop-by-hop through finger tables —
    /// the ones whose loss the transport converts into a
    /// [`Payload::Timeout`] at the sender (dead-node delivery
    /// semantics); everything else is dropped silently.
    #[must_use]
    pub fn is_routed(&self) -> bool {
        matches!(self, Payload::FindSucc { .. } | Payload::FindRingSucc { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let ring: LandmarkOrder = "01".parse().unwrap();
        let msgs = [
            Payload::FindSucc { key: Id(1), layer: 1, origin: Id(2), req: 0, hops: 0 },
            Payload::FindRingSucc { key: Id(1), layer: 2, origin: Id(2), req: 0, hops: 0 },
            Payload::FoundSucc { key: Id(1), owner: Id(2), req: 0, hops: 3 },
            Payload::GetPred { layer: 1, req: 0 },
            Payload::PredIs { layer: 1, pred: None, req: 0 },
            Payload::Notify { layer: 1 },
            Payload::UpdateSucc { layer: 1 },
            Payload::GetRingTable { ring_name: ring, req: 0 },
            Payload::RingTableIs { table: None, req: 0 },
            Payload::RingTableUpdate { ring_name: ring, node: Id(3) },
            Payload::GetFingers { layer: 2, req: 0 },
            Payload::FingersAre { layer: 2, fingers: vec![], req: 0 },
            Payload::GetLandmarks { req: 0 },
            Payload::LandmarksAre { landmarks: vec![1, 2], req: 0 },
            Payload::Ping { req: 0 },
            Payload::Pong { req: 0 },
            Payload::LeaveUpdate { layer: 2, new_succ: Some(Id(4)), new_pred: None },
            Payload::RingTableRemove { ring_name: ring, node: Id(3) },
            Payload::GetRingNeighbors { ring_name: ring, req: 0 },
            Payload::RingNeighborsAre { ring_name: ring, succ: Id(4), pred: None, req: 0 },
            Payload::RingTableHandoff {
                table: RingTable::new(&ring),
            },
            Payload::Timeout {
                dead: Id(9),
                original: Box::new(Payload::FindSucc {
                    key: Id(1),
                    layer: 1,
                    origin: Id(2),
                    req: 0,
                    hops: 0,
                }),
            },
        ];
        let mut kinds: Vec<&str> = msgs.iter().map(Payload::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), msgs.len());
    }
}
