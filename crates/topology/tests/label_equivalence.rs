//! Hub labels vs. Dijkstra rows on seeded random graphs and the
//! paper's three network models. The labels — whole-graph
//! [`HubLabels`], and the [`FactoredLabels`] through bridge cells that
//! the labels backend queries — are the production latency backend at
//! scale; every query they answer must be byte-identical to a fresh
//! Dijkstra (and to the rows backend), and the index itself must be
//! bit-identical at any build thread count.

use hieras_rt::{Executor, Rng};
use hieras_topology::{
    BriteConfig, FactoredLabels, Graph, GraphBuilder, HubLabels, InetConfig, LatencyOracle,
    Topology, TransitStubConfig,
};

/// Every label query against every Dijkstra row, source-sampled for
/// the large generator graphs (`stride` 1 checks all n² pairs).
fn assert_labels_exact(g: &Graph, labels: &HubLabels, stride: usize, tag: &str) {
    let n = g.node_count();
    assert_eq!(labels.node_count(), n, "{tag}: node count");
    for src in (0..n as u32).step_by(stride) {
        let row = g.dijkstra(src);
        for v in 0..n as u32 {
            assert_eq!(
                labels.latency(src, v),
                row[v as usize],
                "{tag}: labels diverge from Dijkstra at ({src},{v})"
            );
        }
    }
}

fn assert_model_labeled(topo: &Topology, tag: &str) {
    let exec = Executor::new(2);
    let labels = HubLabels::build_on(&exec, &topo.graph);
    let s = labels.stats();
    assert!(s.hubs > 0 && s.entries > 0, "{tag}: degenerate label index");
    assert!(
        s.avg_len < 64.0,
        "{tag}: hierarchy-shaped graphs must label compactly, got avg {}",
        s.avg_len
    );
    assert_labels_exact(&topo.graph, &labels, 13, tag);
}

/// Mixed bag of seeded random graphs: connected chains with chords,
/// extra disconnected islands, zero-weight edges, duplicate edges.
fn random_graph(rng: &mut Rng) -> Graph {
    let n = rng.random_range(2usize..40);
    let islands = rng.random_range(0usize..4);
    let mut g = GraphBuilder::with_nodes(n + islands);
    for i in 1..n {
        let j = rng.random_range(0usize..i) as u32;
        g.add_edge(i as u32, j, rng.random_range(0u16..=50));
    }
    for _ in 0..rng.random_range(0usize..2 * n) {
        let u = rng.random_range(0usize..n) as u32;
        let v = rng.random_range(0usize..n) as u32;
        g.add_edge(u, v, rng.random_range(0u16..=50));
    }
    g.build()
}

#[test]
fn labels_match_dijkstra_on_random_graphs() {
    let mut rng = Rng::seed_from_u64(0x1a8e15);
    let exec = Executor::new(1);
    for case in 0..80 {
        let g = random_graph(&mut rng);
        let tag = format!("random case {case}");
        assert_labels_exact(&g, &HubLabels::build_on(&exec, &g), 1, &tag);
        assert_factored_exact(&g, &FactoredLabels::build_on(&exec, &g), 1, &tag);
    }
}

#[test]
fn transit_stub_labels_match() {
    assert_model_labeled(&TransitStubConfig::for_peers(800, 11).generate(), "TransitStub");
}

#[test]
fn inet_labels_match() {
    assert_model_labeled(&InetConfig::for_peers(3000, 12).generate(), "Inet");
}

#[test]
fn brite_labels_match() {
    assert_model_labeled(&BriteConfig::for_peers(1000, 13).generate(), "BRITE");
}

/// The label build is a pure function of the graph: each component's
/// hub order and labels depend on that component alone, whichever
/// worker builds it. The whole index — offsets and packed entries, and
/// for the factored labels the exit table too — must come out
/// bit-identical at 1, 2, and 8 threads, on every model and on the
/// hand-built world. TS 4 000's cut graph has enough cells for the
/// workers to interleave.
#[test]
fn label_build_is_bit_identical_across_thread_counts() {
    let graphs = [
        TransitStubConfig::for_peers(600, 21).generate().graph,
        TransitStubConfig::for_peers(4000, 14).generate().graph,
        InetConfig::for_peers(3000, 22).generate().graph,
        BriteConfig::for_peers(800, 23).generate().graph,
        every_cell_shape().into(),
    ];
    for (i, g) in graphs.iter().enumerate() {
        let base = HubLabels::build_on(&Executor::new(1), g);
        let factored = FactoredLabels::build_on(&Executor::new(1), g);
        for threads in [2, 8] {
            let exec = Executor::new(threads);
            assert_eq!(HubLabels::build_on(&exec, g), base, "graph {i}: diverges at {threads} threads");
            assert_eq!(
                FactoredLabels::build_on(&exec, g),
                factored,
                "graph {i}: factored index diverges at {threads} threads"
            );
        }
    }
}

/// Every factored-label query from every `stride`-th source against
/// that source's Dijkstra row (`u == v` included).
fn assert_factored_exact(g: &Graph, labels: &FactoredLabels, stride: usize, tag: &str) {
    let n = g.node_count();
    assert_eq!(labels.node_count(), n, "{tag}: node count");
    for src in (0..n as u32).step_by(stride) {
        let row = g.dijkstra(src);
        for v in 0..n as u32 {
            assert_eq!(
                labels.latency(src, v),
                row[v as usize],
                "{tag}: factored labels diverge from Dijkstra at ({src},{v})"
            );
        }
    }
}

/// Every pair through the labels backend of [`LatencyOracle`] against
/// the rows backend and [`Graph::dijkstra`].
fn assert_backends_agree(g: &Graph, tag: &str) {
    let rows = LatencyOracle::new(g.clone());
    let labels = LatencyOracle::with_labels_on(&Executor::new(2), g.clone());
    for u in 0..g.node_count() as u32 {
        let want = g.dijkstra(u);
        for v in 0..g.node_count() as u32 {
            let want = if u == v { 0 } else { want[v as usize] };
            assert_eq!(rows.latency(u, v), want, "{tag}: rows at ({u},{v})");
            assert_eq!(labels.latency(u, v), want, "{tag}: labels at ({u},{v})");
        }
    }
}

/// The factored oracle against Dijkstra on the models it serves:
/// Transit-Stub at two sizes (cells nested in every stub domain), Inet
/// (a tree fringe around a bridgeless core) and BRITE (no cells), with
/// its entry count against whole-graph labels, both pinned. Each cut
/// component ranks its own hubs, so the cut drops entries on every
/// model with cells, the tiny TS 800 world included (3 727 against
/// 6 083); BRITE has nothing to cut.
#[test]
fn factored_labels_match_dijkstra_on_the_models() {
    let exec = Executor::new(2);
    let worlds = [
        (TransitStubConfig::for_peers(800, 11).generate(), (3_727, 6_083)),
        (TransitStubConfig::for_peers(4000, 14).generate(), (32_420, 56_288)),
        (InetConfig::for_peers(3000, 12).generate(), (14_640, 49_847)),
        (BriteConfig::for_peers(1000, 13).generate(), (13_497, 13_497)),
    ];
    for (topo, (cut, whole)) in &worlds {
        let tag = format!("{} {}", topo.model, topo.graph.node_count());
        let labels = FactoredLabels::build_on(&exec, &topo.graph);
        let s = labels.stats();
        assert!(s.hubs > 0 && s.entries > 0, "{tag}: degenerate label index");
        assert_factored_exact(&topo.graph, &labels, 17, &tag);
        let whole_entries = HubLabels::build_on(&exec, &topo.graph).stats().entries;
        assert_eq!((s.entries, whole_entries), (*cut, *whole), "{tag}: cut vs whole entries");
    }
}

/// One hand-built world with every shape the factoring distinguishes:
///
/// * component A, DFS root 0: router 0 hangs off the core triangle
///   {1, 2, 3} on the root's side of bridge 0–1 (not a cell: the
///   larger side), with the cell {4} below it;
/// * below core router 2, the cell {5..9} holds a triangle {5, 6, 7}
///   and the nested cells {8, 9} and {9};
/// * below core router 3, the sibling cells {10} and {11, 12};
/// * component B, triangle {13, 14, 15} with the cell {16} below 14.
///
/// All pairs — core–core, core–cell, same cell, nested, sibling,
/// root side, across components (`u16::MAX`, never `u16::MAX − 1`).
fn every_cell_shape() -> Graph {
    let mut g = GraphBuilder::with_nodes(17);
    let edges = [
        (0, 1, 3),
        (0, 4, 8),
        (1, 2, 10),
        (2, 3, 10),
        (3, 1, 10),
        (2, 5, 7),
        (5, 6, 2),
        (6, 7, 2),
        (7, 5, 2),
        (6, 8, 4),
        (8, 9, 1),
        (3, 10, 5),
        (3, 11, 6),
        (11, 12, 3),
        (13, 14, 4),
        (14, 15, 4),
        (15, 13, 4),
        (14, 16, 9),
    ];
    for (u, v, w) in edges {
        g.add_edge(u, v, w);
    }
    g.build()
}

#[test]
fn factored_labels_cover_every_cell_shape() {
    let g = every_cell_shape();
    assert_backends_agree(&g, "every cell shape");
    let labels = FactoredLabels::build_on(&Executor::new(1), &g);
    // Spot values, one per kind of pair.
    assert_eq!(labels.latency(1, 3), 10, "core–core");
    assert_eq!(labels.latency(1, 9), 10 + 7 + 2 + 4 + 1, "core–nested cell");
    assert_eq!(labels.latency(5, 9), 2 + 4 + 1, "same outermost cell");
    assert_eq!(labels.latency(10, 12), 5 + 6 + 3, "sibling cells under one core router");
    assert_eq!(labels.latency(4, 12), 8 + 3 + 10 + 6 + 3, "root-side cell to a core cell");
    assert_eq!(labels.latency(4, 0), 8, "root-side cell to its parent");
    for (u, v) in [(9, 16), (0, 13), (16, 4), (12, 15)] {
        assert_eq!(labels.latency(u, v), u16::MAX, "({u},{v}) across components");
    }
}

/// The factored sum `exit + core + exit` clamps at `u16::MAX − 1` as
/// the rows walk does, on either side of the boundary, and when the
/// core merge saturates on its own.
#[test]
fn factored_sums_saturate_exactly_as_rows() {
    for core_ms in [30_000u16, 40_000] {
        for k in 0..4u16 {
            // Core cycle 0-1-2-3; cell {4, 5} below 0 (nested {5}),
            // cell {6} below 1, and an unreachable router 7.
            let mut g = GraphBuilder::with_nodes(8);
            for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
                g.add_edge(u, v, core_ms);
            }
            g.add_edge(0, 4, 17_000 + k);
            g.add_edge(4, 5, 1);
            g.add_edge(1, 6, 18_533);
            let g = g.build();
            assert_backends_agree(&g, &format!("core {core_ms}, k {k}"));
            let labels = LatencyOracle::with_labels_on(&Executor::new(1), g);
            let want = (u32::from(core_ms) + 17_000 + u32::from(k) + 18_533).min(65_534);
            assert_eq!(u32::from(labels.latency(4, 6)), want, "core {core_ms}, k {k}");
            assert_eq!(labels.latency(5, 6), u16::MAX - 1, "saturated, still reachable");
            assert_eq!(labels.latency(5, 7), u16::MAX, "unreachable");
        }
    }
}
