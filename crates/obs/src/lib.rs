//! # hieras-obs — observability substrate for the HIERAS workspace
//!
//! The paper's whole evaluation (§4) is about *where* hops and
//! milliseconds go: per-layer hop splits, latency CDFs, maintenance
//! cost. This crate gives every layer of the reproduction the
//! instruments to answer those questions live instead of only as
//! end-of-run aggregates — with zero external dependencies, on the
//! same `hieras_rt` JSON the rest of the workspace writes its records
//! with.
//!
//! Three instruments, designed around the workspace's two invariants
//! (determinism at any thread count; near-zero cost when off):
//!
//! * [`Registry`] — named monotonic counters, gauges, and log-bucketed
//!   [`LogHistogram`]s with nearest-rank quantiles. Mergeable and
//!   **merge-order-invariant** (like `hieras_sim::Metrics`), so
//!   per-thread instances fold deterministically in the parallel
//!   replay loop: the merged snapshot is byte-identical at 1, 2 or 64
//!   threads.
//! * [`Tracer`] — a bounded ring-buffer of sim-time-stamped
//!   [`TraceEvent`]s: span open/close with parent ids plus instant
//!   events. Producers hold an `Option<Tracer>`; the disabled path is
//!   a single `Option` check with no allocation. Exports JSONL whose
//!   per-span fields reconcile exactly with the aggregate counters.
//! * [`Profiler`] — wall-clock phase scopes (topology build, APSP,
//!   binning, ring construction, join choreography, replay, churn
//!   horizon) reported as a self-time tree ([`PhaseReport`]).
//! * [`TelemetryShard`] — time-resolved telemetry: rotating windowed
//!   metrics (per-window lookup rate, tails, failures, epoch-health
//!   gauges), a bounded K-slowest-lookups flight recorder, and an SLO
//!   monitor ([`SloSpec`]), assembled into a [`TimeSeriesReport`] with
//!   a JSONL stream format. Shards fold merge-order-invariantly, so
//!   deterministic runs emit bit-identical windows at any reader
//!   count.
//!
//! Every reported type writes itself through [`hieras_rt::ToJson`].
//! The two streams a program reads back parse through
//! [`hieras_rt::FromJson`]: the window stream
//! ([`TimeSeriesReport::parse_jsonl`]: its meta line, [`TelemetryWindow`],
//! [`LogHistogram`], [`Registry`]) and the span trace
//! ([`Tracer::parse_jsonl`]: [`TraceEvent`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod profile;
mod registry;
mod trace;
mod window;

pub mod names;

pub use profile::{Phase, PhaseReport, Profiler};
pub use registry::{LogHistogram, Registry};
pub use trace::{chrome_trace, TraceEvent, TraceKind, Tracer};
pub use window::{
    HopRecord, SloBreach, SloSpec, SlowLookup, TelemetryShard, TelemetryWindow, TimeSeriesMeta,
    TimeSeriesReport, TIMESERIES_SCHEMA,
};
