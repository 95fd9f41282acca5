//! Chord DHT — the paper's baseline and HIERAS's underlying routing
//! algorithm.
//!
//! [`RingView`] / [`ChordOracle`] work in *oracle mode* (DESIGN.md §2):
//! finger tables are constructed directly from a known membership,
//! lookups are replayed synchronously and deterministically. This is
//! what trace-driven DHT simulators (including the paper's) do, and
//! what all figures use. `RingView` is membership-generic: HIERAS
//! reuses it verbatim to build the *lower-layer* finger tables over
//! ring subsets, which is precisely the paper's observation that "the
//! same underlying DHT routing algorithm keeps being used in different
//! layer rings with the corresponding finger table" (§3.2).
//!
//! Chord *under churn* — joins through a bootstrap peer, `stabilize` /
//! `notify` / `fix_fingers` rounds, silent failures, message counts for
//! the §3.4 cost analysis — is the message engine `hieras_proto::SimNet`
//! at hierarchy depth 1: one protocol implementation serves both
//! algorithms, so their maintenance costs are counted in the same unit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod oracle;
mod path;
mod pool;

pub use oracle::{ChordOracle, RingBuildError, RingView};
pub use path::PathBuf;
pub use pool::{ArenaPoolStats, RingArenaPool, RingArenas};
