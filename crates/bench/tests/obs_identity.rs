//! Observability acceptance tests:
//!
//! * the churn sweep's reports and registries must be
//!   **byte-identical** at any executor width: the engine is strictly
//!   sequential per scenario and the merge order is fixed by chunk
//!   index, so only wall-clock fields may differ between runs;
//! * a message-level probe's JSONL trace must reconcile **exactly**
//!   with the aggregate hop counters — per-span close fields, per-hop
//!   instants, and the registry histogram all tell the same story.

use hieras_bench::churn_sweep;
use hieras_id::Id;
use hieras_obs::{Registry, TraceKind, Tracer};
use hieras_proto::SimNet;
use hieras_rt::Executor;
use hieras_sim::{Experiment, ExperimentConfig, Workload};
use std::collections::HashMap;

fn experiment() -> Experiment {
    Experiment::build(ExperimentConfig { requests: 0, ..ExperimentConfig::paper(200, 20030415) })
}

/// What one probe run captured.
#[derive(Debug, PartialEq)]
struct Probe {
    total_hops: u64,
    registry: Registry,
    tracer: Tracer,
}

/// Replays `lookups` workload requests through a stabilized,
/// churn-free [`SimNet`] built from the experiment's HIERAS oracle,
/// with the registry and tracer on. The replay path evaluates lookups
/// against the oracles (no messages); this is the view that says which
/// message types carried them.
fn message_probe(e: &Experiment, lookups: usize, trace_capacity: usize) -> Probe {
    let index_of: HashMap<Id, u32> =
        e.ids.iter().enumerate().map(|(i, &id)| (id, i as u32)).collect();
    let mut net = SimNet::from_oracle(&e.hieras, &e.landmarks, |a, b| {
        u64::from(e.peer_latency(index_of[&a], index_of[&b]))
    });
    net.enable_registry();
    net.set_tracer(Tracer::bounded(trace_capacity));
    let w = Workload::new(e.config.nodes as u32, lookups, e.config.seed ^ 0x0b5e_7a11);
    let total_hops =
        w.iter().map(|(src, key)| u64::from(net.lookup(e.ids[src as usize], key).hops)).sum();
    Probe {
        total_hops,
        registry: net.take_registry().expect("registry enabled"),
        tracer: net.take_tracer().expect("tracer installed"),
    }
}

#[test]
fn churn_sweep_is_identical_across_thread_counts() {
    let run = |threads: usize| churn_sweep(&Executor::new(threads), 50, 5, 3_000, 7, 0);
    let base = run(1);
    for threads in [2, 8] {
        let got = run(threads);
        assert_eq!(got.len(), base.len());
        for ((row, obs), (brow, bobs)) in got.iter().zip(base.iter()) {
            assert_eq!(row, brow, "{}: report diverges at {threads} threads", row.scenario);
            assert_eq!(
                obs.registry.snapshot(),
                bobs.registry.snapshot(),
                "{}: registry diverges at {threads} threads",
                row.scenario
            );
        }
    }
}

#[test]
fn trace_jsonl_reconciles_with_aggregate_hop_counters() {
    let e = experiment();
    let probe = message_probe(&e, 120, 1 << 15);
    assert_eq!(probe, message_probe(&e, 120, 1 << 15), "the probe must be deterministic");
    assert_eq!(probe.registry.counter("lookup.count"), 120);
    assert_eq!(probe.tracer.dropped, 0, "probe trace must not evict events");

    // Round-trip the trace through its JSONL wire format.
    let events = Tracer::parse_jsonl(&probe.tracer.to_jsonl()).expect("trace parses back");
    assert_eq!(events.len(), probe.tracer.len());

    // Per-span accounting: open events carry the inputs, close events
    // the outcome, hop instants attach to the owning span.
    let mut close_hops: HashMap<u64, u64> = HashMap::new();
    let mut hop_instants: HashMap<u64, u64> = HashMap::new();
    let mut opens = 0u64;
    for ev in &events {
        match ev.kind {
            TraceKind::Open => {
                assert_eq!(ev.name, "lookup");
                opens += 1;
            }
            TraceKind::Close => {
                let hops = ev
                    .fields
                    .iter()
                    .find(|(k, _)| k == "hops")
                    .expect("lookup close carries hops")
                    .1;
                close_hops.insert(ev.span, hops);
            }
            TraceKind::Instant => {
                assert_eq!(ev.name, "hop");
                *hop_instants.entry(ev.span).or_insert(0) += 1;
            }
        }
    }
    assert_eq!(opens, 120, "one span per probe lookup");
    assert_eq!(close_hops.len(), 120, "every span closed");

    // Reconciliation 1: summed per-span close hops == aggregate.
    let span_total: u64 = close_hops.values().sum();
    assert_eq!(span_total, probe.total_hops);
    assert_eq!(span_total, probe.registry.hist("lookup.hops").expect("histogram").sum());

    // Reconciliation 2: each span's hop instants equal its close
    // count — the per-hop stream is complete, not sampled. (The
    // injection delivery at hops=0 counts as one instant; a k-hop
    // lookup delivers k+1 FindSucc messages.)
    for (span, &hops) in &close_hops {
        let instants = hop_instants.get(span).copied().unwrap_or(0);
        assert_eq!(instants, hops + 1, "span {span}: instants vs close hops");
    }

    // Reconciliation 3: delivered FindSucc messages == all hop
    // instants (churn-free probe: nothing dropped or timed out).
    let find_succ = probe.registry.counter("net.deliver.find_succ");
    assert_eq!(find_succ, hop_instants.values().sum::<u64>());
    assert_eq!(probe.registry.counter("net.drop.ttl"), 0);
    assert_eq!(probe.registry.counter("net.timeout"), 0);
}
