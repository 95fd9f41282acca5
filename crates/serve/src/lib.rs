//! `hieras-serve` — the live serving engine: concurrent lookups under
//! churn via epoch-versioned snapshots.
//!
//! The replay world (`hieras-sim`) routes against a static oracle and
//! the churn world (`hieras-churn`) mutates membership inside a
//! sequential event loop; production needs both at once. This crate is
//! that shape:
//!
//! * [`ServeSnapshot`] — one epoch's immutable routing state: a
//!   HIERAS hierarchy built over exactly the live membership, the
//!   membership list itself, and a checksum binding both to the epoch.
//! * [`epoch_pair`] / [`Publisher`] / [`Reader`] — epoch-versioned
//!   publication in safe `std`: a reader holds an `Arc` of the
//!   snapshot it routes against, the single maintenance thread swaps
//!   in new snapshots and takes a retired one back once
//!   `Arc::try_unwrap` says no reader holds it.
//! * [`ServeEngine`] — the service loop. N readers execute
//!   allocation-free lookups against their pinned snapshot while the
//!   maintenance thread replays a churn schedule
//!   ([`hieras_sim::MembershipReplay`]) onto a private membership
//!   copy, rebuilds the hierarchy, and publishes. One lookup path
//!   (evaluator → telemetry recorder → reader accumulator), three
//!   drivers: quiesced (no churn — one executor fold, the replay-bench
//!   baseline), deterministic (the `hieras-rt` executor arbitrates
//!   reader/maintainer interleaving in lock step, so metrics are
//!   bit-identical at any reader count), and free-running (real
//!   reader threads, wall-clock throughput).
//!
//! Observability flows through `hieras-obs` under the `serve.*`
//! namespace: published epochs, reclaim lag, the stale-read window,
//! per-reader throughput, and applied membership deltas. With
//! [`TelemetryConfig`] enabled, every churning run also emits *time-resolved*
//! telemetry — rotating windowed metrics with per-window tails and
//! `serve.epoch.*` health gauges, a K-slowest-lookups flight recorder
//! with full hop traces, and an SLO monitor — assembled into a
//! [`hieras_obs::TimeSeriesReport`]; both churning modes report their
//! wall-clock maintenance profile as [`MaintStats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
mod epoch;
mod snapshot;
mod telemetry;

pub use cache::{CacheConfig, CacheStats, LookupCache};
pub use engine::{LiveReport, Maintainer, ServeConfig, ServeEngine, WorkloadReport};
pub use epoch::{epoch_pair, EpochHandle, EpochStats, Publisher, Reader, Versioned};
pub use snapshot::ServeSnapshot;
pub use telemetry::{MaintStats, TelemetryConfig};
