//! # hieras-rt — the in-tree runtime for the HIERAS workspace
//!
//! This environment builds offline, so the workspace depends on no
//! registry crates at all. Everything the reproduction needs beyond
//! `std` lives here, purpose-built and small:
//!
//! * [`Rng`] — a SplitMix64-seeded xoshiro256++ PRNG with the range /
//!   shuffle / sample helpers the topology generators and workloads
//!   use (replaces `rand`).
//! * [`Executor`] — a deterministic parallel executor over scoped
//!   worker threads. Work is split into *fixed-size* chunks that are
//!   claimed dynamically but merged sequentially in chunk order, so
//!   `par_fold` produces bit-identical results at any thread count
//!   (replaces `rayon` in the replay and APSP hot paths).
//! * [`Json`] — a minimal JSON value, writer and recursive-descent
//!   reader, plus the [`ToJson`]/[`FromJson`] traits the config,
//!   metrics and figure structs implement by hand (replaces
//!   `serde`/`serde_json`).
//! * [`fingerprint`] / [`fingerprint_u32`] — a multi-lane SplitMix64
//!   hash of whole arrays, the one kernel behind every per-epoch digest
//!   and snapshot checksum.
//!
//! The zero-dependency policy is documented in the repository's
//! DESIGN.md; new code must build on these primitives instead of
//! reintroducing registry dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fingerprint;
mod json;
mod par;
mod rng;

pub use fingerprint::{fingerprint, fingerprint_u32};
pub use json::{from_str, to_string, to_string_pretty, FromJson, Json, JsonError, ToJson};
pub use par::Executor;
pub use rng::{Rng, SampleRange};

/// Mixes a `u64` with the SplitMix64 finalizer — handy for deriving
/// stream seeds from `(seed, index)` pairs without constructing an RNG.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
