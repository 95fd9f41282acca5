//! Scale sweep — how far the replay engine stretches.
//!
//! Sweeps the experiment over {1k, 5k, 20k, 100k, 1M} peers and, per
//! size, over the latency-oracle backends: lazily built rows (`rows`)
//! and the exact 2-hop hub labels (`labels`). Rows is not swept past
//! 20k (see `ROWS_CEILING`) and each skip leaves an explicit
//! `"skipped": "row budget"` entry, so 100k and 1M are labels-only.
//! Per run it records:
//!
//! * **build_ms** — full assembly (topology → oracle → precompute),
//!   with the phase breakdown and the effective build thread count;
//! * **ns/lookup** — min/median/max over `REPS` timed repetitions of
//!   the parallel replay, after one explicitly discarded warm-up rep
//!   (each lookup evaluates *both* Chord and HIERAS allocation-free);
//! * **peak_rss_bytes** (and the `_mb` rendering) — the process
//!   high-water mark (`VmHWM` from `/proc/self/status`) at the end of
//!   the run's replay. The mark is monotonic per process, so within a
//!   size the rows run reads first;
//! * **metrics_match_rows** — on a labels run, whether its full replay
//!   metrics are byte-identical to the rows run of the same size
//!   (labels are exact, so anything but `true` is a bug — the binary
//!   exits non-zero on it);
//! * **label_stats** — hub count, label lengths, build ms, bytes;
//! * **oracle_registry** — `Experiment::record_cache_stats`: on rows,
//!   `latency_cache.rows_searched` / `rows_composed` / `resident_rows`
//!   / `bytes` (why the build cost what it did, and what it left
//!   resident); on labels, `latency_labels.*` and `label_memo.*`;
//!   `ring_arena.*` on both;
//! * the replayed Chord/HIERAS routing summaries, including the
//!   lower-layer hop and latency shares the paper's §4.3 tracks.
//!
//! Output goes to `BENCH_scale.json` (untracked) and stdout. `--smoke`
//! runs the CI-sized point (500 peers, 2000 requests, both backends)
//! only; `HIERAS_THREADS=n` pins the executor width. This is the one
//! 1 k → 1 M size sweep; commit-to-commit timing comparisons are
//! `benchmark/`'s (`replay_paper10k`, `scale_labels100k`).

use hieras_obs::{Profiler, Registry};
use hieras_rt::{Executor, Json, ToJson};
use hieras_sim::{
    BuildOptions, ComparisonResult, Experiment, ExperimentConfig, OracleBackend, WorkloadSpec,
};
use std::time::Instant;

/// Master seed shared with the figure harness (paper publication date).
const SEED: u64 = 20030415;

/// Timed repetitions of the replay per size; the median filters out
/// scheduler warm-up without needing criterion's statistics.
const REPS: usize = 5;

/// Peer count above which the rows backend is not swept. The wall was
/// memory, N² `u16`s (0.8 GB at 20k, 20 GB at 100k). On the
/// Transit-Stub worlds this sweeps it no longer stands: at 20k the
/// rows backend holds 8.4 MB (`latency_cache.bytes`: 7 full rows,
/// 20 013 cell tables) and warms in 0.2 s. What grows now is the cell
/// table — peers × stub-domain routers × 2 B, ≤ 313 MB at 100k
/// (computed, not run). The value stays until a rows point past it has
/// a measured row of its own.
const ROWS_CEILING: usize = 20_000;

struct SizePoint {
    nodes: usize,
    requests: usize,
}

/// `VmHWM` (peak resident set) of this process in bytes, if the
/// platform exposes `/proc/self/status`.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// One (size, backend) run. `rows_baseline` carries the rows-backend
/// replay result of the same size so a labels run can prove byte
/// identity; the run's own result is returned for exactly that reuse.
fn bench_one(
    exec: &Executor,
    point: &SizePoint,
    oracle: OracleBackend,
    rows_baseline: Option<&ComparisonResult>,
) -> (Json, ComparisonResult) {
    let mut config = ExperimentConfig::paper(point.nodes, SEED);
    config.requests = point.requests;

    let mut prof = Profiler::new();
    let t0 = Instant::now();
    let e = Experiment::build_with(
        config.clone(),
        &mut prof,
        BuildOptions { exec: *exec, oracle, precompute: true },
    );
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    // One warm-up repetition, timed but *discarded* from the stats —
    // it pays the page faults and scheduler spin-up, and its figure is
    // reported separately so a cold-start regression is still visible.
    let t = Instant::now();
    let mut result = e.run_requests_on(exec, point.requests);
    let warmup_ns = t.elapsed().as_secs_f64() * 1e9 / point.requests as f64;

    let mut per_lookup_ns: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            result = e.run_requests_on(exec, point.requests);
            t.elapsed().as_secs_f64() * 1e9 / point.requests as f64
        })
        .collect();
    per_lookup_ns.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let min_ns = per_lookup_ns[0];
    let median_ns = per_lookup_ns[per_lookup_ns.len() / 2];
    let max_ns = per_lookup_ns[per_lookup_ns.len() - 1];

    let rss = peak_rss_bytes();
    let rss_mb = rss.map(|b| b as f64 / (1024.0 * 1024.0));

    let metrics_match = rows_baseline.map(|base| *base == result);
    let label_stats = e.lat.label_stats().map(|(l, _)| {
        Json::obj([
            ("hubs", l.hubs.to_json()),
            ("entries", l.entries.to_json()),
            ("avg_len", l.avg_len.to_json()),
            ("max_len", l.max_len.to_json()),
            ("build_ms", l.build_ms.to_json()),
            ("bytes", e.lat.cache_bytes().to_json()),
        ])
    });
    // What the build left behind, by name: rows searched vs. composed
    // and resident (rows), label sizes and memo tallies (labels), the
    // ring arena — enough to explain `build_ms` without a re-run.
    let mut oracle_reg = Registry::new();
    e.record_cache_stats(&mut oracle_reg);

    let cs = result.chord.summary();
    let hs = result.hieras.summary();
    println!(
        "{:>7} peers | {:<6} | build {:>9.1} ms | replay {:>9.1} ns/lookup | rss {:>8.1} MB | \
         hieras {:.2} hops {:.0} ms ({:.1}% lower-layer latency){}",
        point.nodes,
        oracle.label(),
        build_ms,
        median_ns,
        rss_mb.unwrap_or(0.0),
        hs.avg_hops,
        hs.avg_latency_ms,
        hs.lower_latency_share * 100.0,
        match metrics_match {
            Some(true) => " | metrics == rows",
            Some(false) => " | METRICS DIVERGE FROM ROWS",
            None => "",
        }
    );

    let json = Json::obj([
        ("nodes", point.nodes.to_json()),
        ("requests", point.requests.to_json()),
        // The replay stream `run_requests_on` derives: uniform draws
        // from the experiment seed's workload sub-stream.
        ("workload", WorkloadSpec::uniform(SEED ^ 0x517c_c1b7).to_json()),
        ("backend", oracle.label().to_json()),
        ("build_threads", exec.threads().to_json()),
        ("build_ms", build_ms.to_json()),
        ("build_phases", prof.report().to_json()),
        ("warmup_ns_per_lookup", warmup_ns.to_json()),
        ("min_ns_per_lookup", min_ns.to_json()),
        ("median_ns_per_lookup", median_ns.to_json()),
        ("max_ns_per_lookup", max_ns.to_json()),
        ("ns_per_lookup", per_lookup_ns.to_json()),
        ("peak_rss_mb", rss_mb.map_or(Json::Null, |m| m.to_json())),
        ("peak_rss_bytes", rss.map_or(Json::Null, |b| b.to_json())),
        ("metrics_match_rows", metrics_match.map_or(Json::Null, |m| m.to_json())),
        ("label_stats", label_stats.unwrap_or(Json::Null)),
        ("oracle_registry", oracle_reg.to_json()),
        ("chord", cs.to_json()),
        ("hieras", hs.to_json()),
    ]);
    (json, result)
}

fn main() {
    let args =
        hieras_bench::BenchArgs::parse("bench_scale", hieras_bench::BenchFlags::smoke_only());
    let smoke = args.smoke;
    let points: Vec<SizePoint> = if smoke {
        vec![SizePoint { nodes: 500, requests: 2000 }]
    } else {
        vec![
            SizePoint { nodes: 1000, requests: 20_000 },
            SizePoint { nodes: 5000, requests: 20_000 },
            SizePoint { nodes: 20_000, requests: 10_000 },
            SizePoint { nodes: 100_000, requests: 5000 },
            SizePoint { nodes: 1_000_000, requests: 2000 },
        ]
    };

    let exec = Executor::default();
    println!(
        "scale bench: {} thread(s), {} size point(s){}",
        exec.threads(),
        points.len(),
        if smoke { " [smoke]" } else { "" }
    );

    let mut sizes: Vec<Json> = Vec::new();
    let mut diverged = false;
    for p in &points {
        // Rows first: it is both the byte-identity baseline and —
        // because VmHWM only ever rises — the run whose RSS reading
        // must not be inflated by a neighbour.
        let rows_result = if p.nodes <= ROWS_CEILING {
            let (json, result) = bench_one(&exec, p, OracleBackend::Rows, None);
            sizes.push(json);
            Some(result)
        } else {
            // An explicit marker instead of a silent hole: consumers
            // can tell "rows was not swept here" from "rows failed".
            sizes.push(Json::obj([
                ("nodes", p.nodes.to_json()),
                ("backend", OracleBackend::Rows.label().to_json()),
                ("skipped", "row budget".to_json()),
            ]));
            None
        };
        let (json, _) = bench_one(&exec, p, OracleBackend::Labels, rows_result.as_ref());
        if let Some(Json::Bool(false)) = json.get("metrics_match_rows") {
            diverged = true;
        }
        sizes.push(json);
    }

    let out = Json::obj([
        ("bench", "scale".to_json()),
        ("seed", SEED.to_json()),
        ("threads", exec.threads().to_json()),
        ("smoke", smoke.to_json()),
        ("reps", REPS.to_json()),
        ("sizes", Json::Arr(sizes)),
    ]);

    let path = "BENCH_scale.json";
    std::fs::write(path, out.dump_pretty()).expect("write benchmark output");
    println!("wrote {path}");
    assert!(!diverged, "labels-backend metrics diverged from the rows baseline");
}
