//! Network topology substrate for the HIERAS evaluation.
//!
//! The paper (§4.1) drives its simulations with three internetwork
//! topology models:
//!
//! * **GT-ITM Transit-Stub** ([`TransitStubConfig`]) — the primary
//!   model. Transit domains form a top-level backbone; each transit
//!   node attaches several stub domains. Link delays follow the paper
//!   exactly: 100 ms intra-transit, 20 ms transit–stub, 5 ms intra-stub.
//! * **Inet** ([`InetConfig`]) — AS-level power-law degree topology
//!   (the paper uses ≥ 3000 nodes for Inet runs).
//! * **BRITE** ([`BriteConfig`]) — Barabási–Albert incremental growth
//!   with nodes on a plane and distance-proportional delays.
//!
//! The original external generators are replaced by faithful synthetic
//! equivalents (see DESIGN.md §5 for the substitution log). All
//! generators are fully deterministic given a seed.
//!
//! On top of a generated [`Topology`], the [`LatencyOracle`] answers
//! "what is the underlay latency between overlay peers u and v?" —
//! the quantity every routing-latency figure in the paper integrates
//! over — through one of two exact backends: lazily built rows (a full
//! Dijkstra row per core router, a cell-sized table per router below a
//! bridge), or 2-hop hub labels through the same bridge cells
//! ([`FactoredLabels`] over [`HubLabels`]) whose sub-quadratic build
//! makes 10⁵-router graphs cheap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod brite;
mod graph;
mod inet;
mod labels;
mod latency;
mod topo;
mod transit_stub;

pub use brite::BriteConfig;
pub use graph::{Edge, Graph, GraphBuilder};
pub use inet::InetConfig;
pub use labels::{FactoredLabels, HubLabels, LabelStats};
pub use latency::{LatencyOracle, RowStats};
pub use topo::{NodeKind, Topology};
pub use transit_stub::TransitStubConfig;
