//! Trace-driven simulation of HIERAS vs. Chord — the paper's §4.
//!
//! The pipeline mirrors the paper's evaluation exactly:
//!
//! 1. Generate a network model ([`TopologyKind`]: GT-ITM Transit-Stub,
//!    Inet or BRITE) and place N overlay peers on it.
//! 2. Pick landmark routers, measure each peer's landmark RTTs through
//!    the latency oracle, and bin peers into rings.
//! 3. Build the Chord baseline and the HIERAS hierarchy over the same
//!    membership.
//! 4. Replay R uniform-random routing requests (the paper uses
//!    100 000) through both, collecting hop and latency metrics.
//!
//! [`Experiment`] owns steps 1–3; [`Experiment::run`] performs step 4
//! in parallel on the in-tree `hieras_rt::Executor` with deterministic
//! per-request RNG streams and a fixed chunked merge order, so the same
//! seed always reproduces the same numbers — bit-identical — regardless
//! of thread count.
//!
//! The crate also generates churn: a [`ChurnSchedule`] of joins,
//! leaves and fails in [`SimClock`] milliseconds, which the churn
//! engine (`hieras-churn`) replays through the message-level protocol
//! engine (`hieras-proto`), and [`MembershipReplay`] replays as bare
//! liveness for the serving engine (`hieras-serve`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod experiment;
mod metrics;
mod replay;
mod workload;

pub use churn::{ChurnConfig, ChurnEvent, ChurnEventKind, ChurnSchedule, Lifetime, SimClock};
pub use experiment::{
    BuildOptions, ComparisonResult, Experiment, ExperimentConfig, OracleBackend, TopologyKind,
};
pub use metrics::{Histogram, Metrics, Sample, Summary, TailLatency};
pub use replay::{MembershipReplay, ReplayDelta};
pub use workload::{SkewParams, Workload, WorkloadModel, WorkloadSpec, HOT_RANK_MAX};
