//! # HIERAS — a DHT-based hierarchical P2P routing algorithm
//!
//! Facade crate for the HIERAS reproduction (Xu, Min & Hu, ICPP 2003).
//! Re-exports the workspace crates under one roof so downstream users
//! can depend on a single `hieras` crate:
//!
//! * [`id`] — identifier circle, SHA-1, interval arithmetic.
//! * [`topology`] — GT-ITM Transit-Stub / Inet / BRITE network models
//!   and the shortest-path latency oracle.
//! * [`chord`] — the Chord baseline DHT (oracle-mode rings).
//! * [`core`] — HIERAS itself: distributed binning, ring tables,
//!   multi-layer finger tables and the m-loop routing procedure.
//! * [`sim`] — workload generation, metrics, experiment runners.
//! * [`proto`] — message-level protocol engine on a deterministic
//!   discrete-event transport.
//! * [`churn`] — deterministic churn engine: joins, graceful leaves
//!   and silent fails replayed through the message engine twice — at
//!   the configured depth and at depth 1, the Chord baseline — with
//!   timeout/retry lookups and failure-rate metrics.
//! * [`serve`] — the live serving engine: epoch-published snapshots,
//!   incremental maintenance under churn, the reader-side hot-key
//!   cache (quiesced, deterministic and free-running modes).
//! * [`pastry`] — Pastry prefix-routing baseline for the cross-DHT
//!   comparison.
//! * [`obs`] — metric registry, span tracer, windowed telemetry and
//!   the flight recorder every instrumented run reports through.
//! * [`rt`] — the zero-dependency runtime: deterministic parallel
//!   executor, seeded PRNG, and the JSON writer every record goes
//!   through, with the reader behind the two streams a program reads
//!   back (telemetry windows and span traces).
//!
//! See `examples/quickstart.rs` for a five-minute tour, and
//! `EXPERIMENTS.md` for the paper-versus-measured record of every
//! table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hieras_chord as chord;
pub use hieras_churn as churn;
pub use hieras_core as core;
pub use hieras_id as id;
pub use hieras_obs as obs;
pub use hieras_pastry as pastry;
pub use hieras_proto as proto;
pub use hieras_rt as rt;
pub use hieras_serve as serve;
pub use hieras_sim as sim;
pub use hieras_topology as topology;

/// Commonly used items, importable in one line.
pub mod prelude {
    pub use hieras_chord::ChordOracle;
    pub use hieras_churn::{run_churn, ChurnExperimentConfig, ChurnReport};
    pub use hieras_core::{Binning, HierasConfig, HierasOracle};
    pub use hieras_id::{Id, IdSpace, Key, Sha1};
    pub use hieras_sim::{Experiment, ExperimentConfig, Metrics, TopologyKind, Workload};
    pub use hieras_topology::{LatencyOracle, Topology, TransitStubConfig};
}
