//! Churn benchmark — resilience under membership turnover.
//!
//! Runs the deterministic churn engine over four departure scenarios
//! — all-graceful, 50/50, all-silent, and `domain` (the 50/50 mix
//! plus a correlated stub-domain cut fired mid-run, read against
//! `mixed` to price simultaneous site loss over the same
//! independent-death background) — and writes one record per scenario
//! to `BENCH_churn.json`: lookup failure rates, timeout-inflated
//! latency summaries, and per-layer maintenance overhead for both
//! HIERAS and the Chord baseline (the same message engine at depth 1).
//!
//! Run with `--smoke` for the CI-sized run (120 initial nodes);
//! the full run uses the acceptance scale (300 initial nodes, ≥ 5 %
//! turnover). `HIERAS_THREADS=n` pins the executor width — the
//! engine is strictly sequential per scenario, so the JSON is
//! bit-identical at any thread count.
//!
//! `--obs` swaps in the instrumented engine: each scenario record
//! gains a registry snapshot (per-message-type `net.*` counters,
//! `lookup.*` / `join.*` histograms, `churn.*` event counters) and the
//! sim-windowed lookup time series (1 s windows over the schedule
//! horizon, renderable with `hieras-timeline`). The reports themselves
//! are bit-identical to an uninstrumented run.
//! `--trace-out <path.jsonl>` additionally writes every scenario's
//! span/instant stream (`churn.join`, `churn.leave`, `churn.repair`
//! spans with transport-level lookup/join spans nested beneath) as
//! one concatenated JSONL file, in scenario order.

use hieras_bench::{churn_sweep, churn_sweep_traced, ChurnRow};
use hieras_churn::ChurnObs;
use hieras_rt::{Executor, Json, ToJson};
use hieras_sim::WorkloadSpec;
use std::time::Instant;

/// Master seed shared with the figure harness (paper publication date).
const SEED: u64 = 20030415;

/// Per-scenario tracer capacity under `--trace-out`: large enough for
/// the smoke and full sweeps without unbounded growth.
const TRACE_CAP: usize = 1 << 18;

fn main() {
    let hieras_bench::BenchArgs { smoke, obs, trace_out, .. } =
        hieras_bench::BenchArgs::parse("churn", hieras_bench::BenchFlags::full());
    // (initial nodes, arrivals, horizon ms): smoke is CI-sized; the
    // full run matches the acceptance floor of ≥ 300 nodes and ≥ 5 %
    // membership turnover.
    let (initial, arrivals, horizon_ms) =
        if smoke { (120, 10, 8_000) } else { (300, 20, 12_000) };

    let exec = Executor::default();
    println!(
        "churn bench: {} thread(s), {} initial nodes{}{}",
        exec.threads(),
        initial,
        if smoke { " [smoke]" } else { "" },
        if obs { " [obs]" } else { "" }
    );

    let t0 = Instant::now();
    let (rows, scenario_obs): (Vec<ChurnRow>, Vec<Option<ChurnObs>>) = if obs {
        let cap = if trace_out.is_some() { TRACE_CAP } else { 0 };
        churn_sweep_traced(&exec, initial, arrivals, horizon_ms, SEED, cap)
            .into_iter()
            .map(|(row, o)| (row, Some(o)))
            .unzip()
    } else {
        churn_sweep(&exec, initial, arrivals, horizon_ms, SEED)
            .into_iter()
            .map(|row| (row, None))
            .unzip()
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    for r in &rows {
        let h = &r.report.hieras;
        let c = &r.report.chord;
        println!(
            "{:>8} | turnover {:>5.1}% | hieras {:>3}/{:<4} failed ({:.3}) | \
             chord {:>3}/{:<4} failed ({:.3}) | timeouts {}",
            r.scenario,
            r.report.turnover * 100.0,
            h.failed(),
            h.lookups,
            h.failure_rate(),
            c.failed(),
            c.lookups,
            c.failure_rate(),
            r.report.timeouts_total,
        );
    }

    if let Some(path) = trace_out.as_deref() {
        let mut jsonl = String::new();
        let mut events = 0usize;
        for o in scenario_obs.iter().flatten() {
            if let Some(t) = &o.tracer {
                jsonl.push_str(&t.to_jsonl());
                events += t.len();
            }
        }
        if let Err(err) = std::fs::write(path, jsonl) {
            eprintln!("cannot write trace to `{path}`: {err}");
            std::process::exit(1);
        }
        println!("wrote {path} ({events} events)");
    }

    let scenarios: Vec<Json> = rows
        .iter()
        .zip(scenario_obs.iter())
        .map(|(row, o)| match o {
            Some(o) => {
                let Json::Obj(mut fields) = row.to_json() else {
                    unreachable!("ChurnRow serializes as an object")
                };
                fields.push(("registry".to_owned(), o.registry.to_json()));
                fields.push((
                    "timeseries_windows".to_owned(),
                    o.timeseries.window_count().to_json(),
                ));
                fields.push(("timeseries".to_owned(), o.timeseries.to_json()));
                Json::Obj(fields)
            }
            None => row.to_json(),
        })
        .collect();

    let out = Json::obj([
        ("bench", "churn".to_json()),
        ("seed", SEED.to_json()),
        ("threads", exec.threads().to_json()),
        ("smoke", smoke.to_json()),
        ("obs", obs.to_json()),
        ("initial_nodes", initial.to_json()),
        ("arrivals", arrivals.to_json()),
        ("horizon_ms", horizon_ms.to_json()),
        // The churn engine injects uniformly drawn lookups; every
        // bench artifact names the workload model it measured under.
        ("workload", WorkloadSpec::uniform(SEED).to_json()),
        ("wall_ms", wall_ms.to_json()),
        ("scenarios", Json::Arr(scenarios)),
    ]);

    let path = "BENCH_churn.json";
    std::fs::write(path, out.dump_pretty()).expect("write benchmark output");
    println!("wrote {path}");
}
