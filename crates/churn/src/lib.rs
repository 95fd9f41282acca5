//! Churn engine — membership dynamics as a measurable experiment.
//!
//! The paper's evaluation (§4) is a static snapshot; its maintenance
//! story (§2.3 ring tables, §3.3 joins, §3.4 cost analysis) only
//! becomes measurable when nodes actually come and go. This crate
//! closes that gap: a deterministic, seed-reproducible engine that
//!
//! 1. samples a [`hieras_sim::ChurnSchedule`] from configurable
//!    lifetime / inter-arrival distributions,
//! 2. replays it simultaneously onto the message-level HIERAS network
//!    ([`hieras_proto::SimNet`] — §3.3 join choreography, graceful
//!    leaves with ring-table handoff, silent fails discovered through
//!    RTO timeouts, per-layer stabilize / notify / fix-fingers rounds,
//!    landmark death with re-binning) and onto the Chord baseline —
//!    a second `SimNet` over the same members at hierarchy depth 1,
//!    so both sides pay in the same messages and the same RTOs — and
//! 3. interleaves timeout/retry/backoff lookups, scoring each answer
//!    against the ground-truth owner derived from the live membership.
//!
//! The output is a [`ChurnReport`]: lookup failure rate (wrong owner
//! vs. lost request), timeout-inflated routing latency in the same
//! mergeable [`hieras_sim::Metrics`] containers the static experiments
//! use, and maintenance-message overhead split by layer and by purpose
//! ([`MaintStats`]). Everything is a pure function of the
//! seed: the same [`ChurnExperimentConfig`] produces a bit-identical
//! report on any machine and any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod report;

pub use config::{ChurnExperimentConfig, DomainFail, LandmarkFail};
pub use engine::{run_churn, run_churn_traced, ChurnObs, CHURN_WINDOW_MS};
/// The liveness cursor lives beside [`hieras_sim::ChurnSchedule`];
/// re-exported so existing paths keep working.
pub use hieras_sim::{MembershipReplay, ReplayDelta};
pub use report::{AlgoChurnStats, ChurnReport, EventCounts, MaintStats};
