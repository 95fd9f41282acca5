//! Benchmark harness: sweep runners and renderers that regenerate
//! every table and figure of the HIERAS paper.
//!
//! The `figures` binary (`cargo run -p hieras-bench --release --bin
//! figures -- <id>`) prints each artifact as a markdown table after
//! writing its JSON record to `results/<id>.json`; EXPERIMENTS.md is
//! written from the `figures all` output. Its `churn`, `scale` and
//! `live` ids are experiment drivers, not gates: they record
//! resilience, scale and serving runs the paper has no figure for.
//! Timing comparisons live in the repo's `benchmark/` package,
//! invariants in `cargo test`.
//!
//! Every sweep takes explicit sizes/requests so the same code serves
//! quick (laptop-scale, the default) and `--full` (paper-scale:
//! 10 000 nodes, 100 000 requests) runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod render;
pub mod sweeps;

pub use render::{sparkline, timeline_compare, timeline_table};
pub use sweeps::{
    churn_sweep, depth_sweep, landmark_sweep, size_sweep, ChurnRow, DepthRow, LandmarkRow,
    SizeRow,
};
