//! Chord DHT — the paper's baseline and HIERAS's underlying routing
//! algorithm.
//!
//! Two operating modes (DESIGN.md §2):
//!
//! * [`RingView`] / [`ChordOracle`] — *oracle mode*: finger tables are
//!   constructed directly from a known membership, lookups are replayed
//!   synchronously and deterministically. This is what trace-driven DHT
//!   simulators (including the paper's) do, and what all figures use.
//!   `RingView` is membership-generic: HIERAS reuses it verbatim to
//!   build the *lower-layer* finger tables over ring subsets, which is
//!   precisely the paper's observation that "the same underlying DHT
//!   routing algorithm keeps being used in different layer rings with
//!   the corresponding finger table" (§3.2).
//! * [`DynChord`] — *dynamic mode*: nodes join through a bootstrap
//!   peer, maintain successor lists and predecessors, run
//!   `stabilize` / `notify` / `fix_fingers` rounds, and may fail
//!   silently. Message counts are tracked for the §3.4 cost analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dynamic;
mod oracle;
mod path;
mod pool;

pub use dynamic::{DynChord, DynError, LookupTrace, MaintStats};
pub use oracle::{ChordOracle, RingBuildError, RingView};
pub use path::PathBuf;
pub use pool::{ArenaPoolStats, RingArenaPool};
