//! Benchmark harness: sweep runners and renderers that regenerate
//! every table and figure of the HIERAS paper.
//!
//! The `figures` binary (`cargo run -p hieras-bench --release --bin
//! figures -- <id>`) prints each artifact as a markdown table plus a
//! JSON record; EXPERIMENTS.md is written from the `figures all`
//! output. `churn`, `bench_scale` and `bench_live` are experiment
//! drivers, not gates: they assert their own identities and write
//! untracked `BENCH_*.json` records. Timing comparisons live in the
//! repo's `benchmark/` package, invariants in `cargo test`.
//!
//! Every sweep takes explicit sizes/requests so the same code serves
//! `--quick` (laptop-scale, minutes) and `--full` (paper-scale:
//! 10 000 nodes, 100 000 requests) runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod render;
pub mod sweeps;

pub use cli::{BenchArgs, BenchFlags};
pub use render::{sparkline, timeline_compare, timeline_table};
pub use sweeps::{
    churn_sweep, churn_sweep_traced, depth_sweep, landmark_sweep, size_sweep, ChurnRow,
    DepthRow, LandmarkRow, SizeRow,
};
