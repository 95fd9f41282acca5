//! Message-level HIERAS protocol engine.
//!
//! The oracle crates compute *what* HIERAS routes; this crate shows the
//! system actually *exchanging the messages* the paper describes —
//! most importantly the §3.3 join choreography (landmark table fetch →
//! binning → ring-table request routed over the global ring →
//! finger-table creation through an in-ring entry point → ring-table
//! modification message).
//!
//! Architecture: node behaviour is a *pure message handler*
//! ([`NodeState::handle`]) that maps an incoming [`Payload`] to a list
//! of outgoing messages, with no knowledge of how messages move.
//! [`SimNet`] is the transport that drives it: single-threaded,
//! deterministic discrete-event delivery with per-link latencies from
//! a caller-supplied delay function, plus the failure model the churn
//! engine needs (dead-node timeouts one 250 ms RTO after the send, a
//! hop TTL on routed messages, retried lookups, graceful leaves,
//! silent fails, per-layer maintenance rounds). Messages stay typed
//! [`Payload`] values end to end: the crate's private future-event
//! list holds each one until its delivery time, ties in post order.
//! [`TrafficStats`] counts delivered, timed-out and dropped messages;
//! the per-kind split is the registry's `net.deliver.*` counters
//! ([`SimNet::enable_registry`]).
//!
//! Protocol-vs-oracle equivalence is tested: a `SimNet` bootstrapped
//! from a [`hieras_core::HierasOracle`] produces *hop-for-hop identical*
//! lookups, because both sides implement the same §3.2 routing rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod des;
mod messages;
mod sim_net;
mod state;

pub use messages::Payload;
pub use sim_net::{JoinOutcome, LookupOutcome, RetriedLookup, SimNet, TrafficStats};
pub use state::{LayerState, NodeState};
