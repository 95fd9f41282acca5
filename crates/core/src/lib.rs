//! HIERAS — a DHT-based hierarchical P2P routing algorithm (the
//! paper's primary contribution).
//!
//! HIERAS keeps the underlying DHT (Chord here, as in the paper)
//! untouched and adds a *hierarchy of P2P rings*: besides the global
//! ring containing every peer, topologically adjacent peers — grouped
//! by the Ratnasamy/Shenker distributed binning scheme against a small
//! landmark set — form lower-layer rings. Every peer belongs to one
//! ring per layer; each membership carries its own Chord finger table
//! restricted to that ring. A lookup routes to completion inside the
//! originator's lowest-layer ring first, then climbs layer by layer,
//! so most hops traverse short, cheap links (§3.2).
//!
//! Module map (paper section in parentheses):
//!
//! * [`Binning`] — distributed binning: landmark RTT → level digits →
//!   landmark order (§2.2, Table 1).
//! * [`HierasConfig`] — hierarchy depth, landmark count, level bounds
//!   (§2.4), plus [`HierasConfig::ring_key`], the one function that
//!   names a peer's ring at each layer (prefix refinement, which for
//!   depths above 2 is DESIGN.md §3.4's interpretation — the paper
//!   leaves deep hierarchies unspecified).
//! * [`RingTable`] — the four-slot per-ring bootstrap table stored at
//!   the node whose id is closest to `SHA-1(ringname)` (§3.1, Table 3).
//! * [`HierasOracle`] — multi-layer finger tables over a known
//!   membership and the m-loop routing procedure (§3.1–3.2); yields a
//!   per-hop [`RouteTrace`] the simulator turns into the paper's
//!   hop/latency metrics.
//! * [`CostReport`] — the §3.4 state/maintenance cost accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binning;
mod config;
mod cost;
mod node_map;
mod oracle;
mod ring_table;
mod trace;

pub use binning::{Binning, LandmarkOrder};
pub use config::{ConfigError, HierasConfig};
pub use cost::CostReport;
pub use oracle::{
    DeltaStats, FingerRow, HierasBuildError, HierasDelta, HierasOracle, Layer, OrderTable,
    RingArenaStats,
};
pub use hieras_chord::{ArenaPoolStats, PathBuf, RingArenaPool};
pub use ring_table::RingTable;
pub use trace::{HopRecord, RouteCost, RouteTrace};
