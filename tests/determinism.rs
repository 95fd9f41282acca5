//! Replay determinism: the parallel executor must produce
//! *bit-identical* metrics at any thread count. The fixed-chunk
//! claim-based distribution assigns each request index to a chunk
//! independently of which worker claims it, and chunk accumulators
//! merge in index order — so 1, 2, and 8 workers (on any number of
//! physical cores) fold to the same `ComparisonResult`, including its
//! request-order fold `latency_order`. The latency backend is as
//! invisible as the thread count: hub labels are exact, so a
//! labels-backed world replays to the metrics of the rows-backed one.

use hieras::core::HierasConfig;
use hieras::obs::Profiler;
use hieras::prelude::*;
use hieras::rt::Executor;
use hieras::sim::{BuildOptions, OracleBackend};

fn experiment(kind: TopologyKind, nodes: usize, seed: u64) -> Experiment {
    Experiment::build(ExperimentConfig {
        kind,
        nodes,
        requests: 0,
        hieras: HierasConfig::paper(),
        seed,
        rtt_noise: 0.0,
    })
}

#[test]
fn replay_metrics_identical_across_thread_counts() {
    let e = experiment(TopologyKind::TransitStub, 300, 41);
    let requests = 5_000;
    let baseline = e.run_requests_on(&Executor::new(1), requests);
    for threads in [2, 8] {
        let r = e.run_requests_on(&Executor::new(threads), requests);
        assert_eq!(
            r, baseline,
            "replay metrics diverged between 1 and {threads} threads"
        );
    }
}

#[test]
fn replay_is_reproducible_within_one_executor() {
    let e = experiment(TopologyKind::Brite, 200, 42);
    let exec = Executor::new(4);
    let a = e.run_requests_on(&exec, 3_000);
    let b = e.run_requests_on(&exec, 3_000);
    assert_eq!(a, b, "same executor, same workload, different metrics");
}

#[test]
fn experiment_build_is_deterministic() {
    let a = experiment(TopologyKind::Inet, 3000, 43);
    let b = experiment(TopologyKind::Inet, 3000, 43);
    assert_eq!(a.ids, b.ids);
    assert_eq!(a.orders, b.orders);
    assert_eq!(a.landmarks, b.landmarks);
    assert_eq!(a.router_of, b.router_of);
}

#[test]
fn labels_backend_replays_to_the_rows_metrics() {
    // Transit-Stub: cells nested below a bridge in every stub domain.
    // Inet: a tree fringe of cells around a bridgeless core. BRITE: no
    // bridges, no cells — the labels cover the whole graph.
    let worlds = [
        (TopologyKind::TransitStub, 300, 41),
        (TopologyKind::Inet, 3000, 44),
        (TopologyKind::Brite, 300, 45),
    ];
    let exec = Executor::new(2);
    for (kind, nodes, seed) in worlds {
        let rows = experiment(kind, nodes, seed);
        let labels = Experiment::build_with(
            rows.config.clone(),
            &mut Profiler::new(),
            BuildOptions { oracle: OracleBackend::Labels, ..BuildOptions::default() },
        );
        assert_eq!(labels.lat.backend_name(), "labels");
        assert_eq!(
            labels.run_requests_on(&exec, 3_000),
            rows.run_requests_on(&exec, 3_000),
            "{kind:?}: labels are exact — replay metrics must be byte-identical to rows"
        );
    }
}
