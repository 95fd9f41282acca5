//! Replay benchmark — the in-tree replacement for the criterion suite.
//!
//! Times the two expensive phases of an experiment:
//!
//! 1. **build** — topology generation, landmark measurement, binning,
//!    and oracle construction (`Experiment::build`), reported in ms;
//! 2. **replay** — the parallel lookup replay
//!    (`Experiment::run_requests_on`), reported as min/median/max ns
//!    per lookup over several timed repetitions after one explicitly
//!    discarded warm-up rep. Each lookup evaluates
//!    *both* Chord and HIERAS on the same `(src, key)` pair, so the
//!    figure is directly comparable across commits.
//!
//! Output goes to `BENCH_replay.json` (and stdout): one record per
//! network size with the timing plus the replayed Chord/HIERAS routing
//! summaries (including p50/p95/p99 tail latency), the executor thread
//! count, and the config. Run with `--smoke` for the CI-sized run
//! (500 peers, 2000 requests); `HIERAS_THREADS=n` pins the executor
//! width.
//!
//! `--obs` adds an observability section per size point: the
//! per-phase wall-clock tree of the build, a merged replay registry
//! (hop/latency histograms per algorithm), and a message-level probe
//! whose `net.send.*` / `net.deliver.*` counters break the traffic
//! down by payload kind. The timed repetitions stay on the untraced
//! path, so `--obs` does not perturb the reported ns/lookup.
//! `--trace-out <path.jsonl>` additionally writes the probe's
//! per-lookup spans (with per-hop instants) as JSONL.

use hieras_bench::message_probe;
use hieras_obs::Profiler;
use hieras_rt::{Executor, Json, ToJson};
use hieras_sim::{Experiment, ExperimentConfig, WorkloadSpec};
use std::time::Instant;

/// Master seed shared with the figure harness (paper publication date).
const SEED: u64 = 20030415;

/// Timed repetitions of the replay per size; the median filters out
/// scheduler warm-up without needing criterion's statistics.
const REPS: usize = 5;

/// Lookups driven through the message-level probe under `--obs`.
const PROBE_LOOKUPS: usize = 200;

/// Ring-buffer capacity of the probe tracer: comfortably holds every
/// open/hop/close event of the probe sample.
const PROBE_TRACE_CAP: usize = 1 << 16;

struct SizePoint {
    nodes: usize,
    requests: usize,
}

struct ObsOpts<'a> {
    enabled: bool,
    trace_out: Option<&'a str>,
}

fn bench_one(exec: &Executor, point: &SizePoint, obs: &ObsOpts) -> Json {
    let mut config = ExperimentConfig::paper(point.nodes, SEED);
    config.requests = point.requests;

    let mut prof = Profiler::new();
    let t0 = Instant::now();
    let e = Experiment::build_profiled(config.clone(), &mut prof);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    // One warm-up repetition, timed but *discarded* from the stats —
    // it pays the page faults and scheduler spin-up, and its figure is
    // reported separately so a cold-start regression is still visible.
    let t = Instant::now();
    let mut result = e.run_requests_on(exec, point.requests);
    let warmup_ns = t.elapsed().as_secs_f64() * 1e9 / point.requests as f64;

    // Then REPS timed repetitions, always on the untraced path.
    prof.start("timed_replay");
    let mut per_lookup_ns: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            result = e.run_requests_on(exec, point.requests);
            t.elapsed().as_secs_f64() * 1e9 / point.requests as f64
        })
        .collect();
    prof.end();
    per_lookup_ns.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let min_ns = per_lookup_ns[0];
    let median_ns = per_lookup_ns[per_lookup_ns.len() / 2];
    let max_ns = per_lookup_ns[per_lookup_ns.len() - 1];

    let cs = result.chord.summary();
    let hs = result.hieras.summary();
    println!(
        "{:>6} peers | build {:>8.1} ms | replay {:>9.0} ns/lookup | \
         chord {:.2} hops {:.0} ms | hieras {:.2} hops {:.0} ms",
        point.nodes, build_ms, median_ns, cs.avg_hops, cs.avg_latency_ms, hs.avg_hops,
        hs.avg_latency_ms
    );

    let mut fields = vec![
        ("nodes", point.nodes.to_json()),
        ("requests", point.requests.to_json()),
        // The replay stream `run_requests_on` derives: uniform draws
        // from the experiment seed's workload sub-stream.
        ("workload", WorkloadSpec::uniform(config.seed ^ 0x517c_c1b7).to_json()),
        ("build_ms", build_ms.to_json()),
        ("warmup_ns_per_lookup", warmup_ns.to_json()),
        ("min_ns_per_lookup", min_ns.to_json()),
        ("median_ns_per_lookup", median_ns.to_json()),
        ("max_ns_per_lookup", max_ns.to_json()),
        ("ns_per_lookup", per_lookup_ns.to_json()),
        ("chord", cs.to_json()),
        ("hieras", hs.to_json()),
    ];

    if obs.enabled {
        // One instrumented replay for the per-algorithm registry, and a
        // message-level probe for the per-message-type breakdown. Both
        // run after the timed reps and do not touch their figures.
        prof.start("obs_replay");
        let (_, mut replay_reg) = e.run_requests_traced(exec, point.requests);
        prof.end();
        // The oracle's side of the build: how many rows were searched
        // vs. composed, what is resident, the ring arena's footprint.
        e.record_cache_stats(&mut replay_reg);
        prof.start("obs_probe");
        let probe = message_probe(&e, PROBE_LOOKUPS, PROBE_TRACE_CAP);
        prof.end();
        if let Some(path) = obs.trace_out {
            if let Err(err) = std::fs::write(path, probe.tracer.to_jsonl()) {
                eprintln!("cannot write trace to `{path}`: {err}");
                std::process::exit(1);
            }
            println!("wrote {path} ({} events)", probe.tracer.len());
        }
        fields.push((
            "obs",
            Json::obj([
                ("phases", prof.report().to_json()),
                ("replay_registry", replay_reg.to_json()),
                ("probe_lookups", probe.lookups.to_json()),
                ("probe_hops", probe.total_hops.to_json()),
                ("probe_registry", probe.registry.to_json()),
            ]),
        ));
    }
    Json::obj(fields)
}

fn main() {
    let hieras_bench::BenchArgs { smoke, obs, trace_out, .. } =
        hieras_bench::BenchArgs::parse("bench_replay", hieras_bench::BenchFlags::full());
    let points: Vec<SizePoint> = if smoke {
        vec![SizePoint { nodes: 500, requests: 2000 }]
    } else {
        [1000usize, 3000, 5000]
            .iter()
            .map(|&nodes| SizePoint { nodes, requests: 20_000 })
            .collect()
    };

    let exec = Executor::default();
    println!(
        "replay bench: {} thread(s), {} size point(s){}{}",
        exec.threads(),
        points.len(),
        if smoke { " [smoke]" } else { "" },
        if obs { " [obs]" } else { "" }
    );

    let sizes: Vec<Json> = points
        .iter()
        .map(|p| bench_one(&exec, p, &ObsOpts { enabled: obs, trace_out: trace_out.as_deref() }))
        .collect();
    let out = Json::obj([
        ("bench", "replay".to_json()),
        ("seed", SEED.to_json()),
        ("threads", exec.threads().to_json()),
        ("smoke", smoke.to_json()),
        ("obs", obs.to_json()),
        ("reps", REPS.to_json()),
        ("sizes", Json::Arr(sizes)),
    ]);

    let path = "BENCH_replay.json";
    std::fs::write(path, out.dump_pretty()).expect("write benchmark output");
    println!("wrote {path}");
}
