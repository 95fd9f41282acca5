//! Rows composed through bridge cells vs. the binary-heap reference.
//!
//! The rows oracle fills a row below a bridge from a cell-local search
//! plus a vector add over the bridge parent's row. That is a claim of
//! byte identity with a full search, checked here for *every* source —
//! on the paper's three models, on random graphs built to be awkward
//! (forests, zero-weight links, delays at the saturation boundary) —
//! and a claim about how much searching is left, checked by count.

use hieras_rt::{Executor, Rng};
use hieras_topology::{
    BriteConfig, Graph, InetConfig, LatencyOracle, RowStats, Topology, TransitStubConfig,
};

/// Every row of an unbounded oracle over `g` equals the heap row.
/// Returns how the rows were built.
fn assert_rows_match_heap(g: &Graph, label: &str) -> RowStats {
    let oracle = LatencyOracle::new(g.clone());
    for src in 0..g.node_count() as u32 {
        assert_eq!(oracle.row(src), &g.dijkstra_heap(src)[..], "{label}: source {src}");
    }
    assert_eq!(oracle.cached_rows(), g.node_count(), "{label}");
    let stats = oracle.row_stats();
    assert_eq!(stats.searched + stats.composed, g.node_count(), "{label}");
    stats
}

#[test]
fn transit_stub_rows_match_heap() {
    for seed in 0..3 {
        let topo = TransitStubConfig::for_peers(500, seed).generate();
        let stats = assert_rows_match_heap(&topo.graph, &format!("TransitStub seed {seed}"));
        assert!(stats.composed >= topo.attach_candidates.len(), "seed {seed}: {stats:?}");
    }
}

#[test]
fn inet_rows_match_heap() {
    for seed in 0..3 {
        let topo = InetConfig { nodes: 600, ..InetConfig::for_peers(0, seed) }.generate();
        let stats = assert_rows_match_heap(&topo.graph, &format!("Inet seed {seed}"));
        assert!(stats.composed > 0 && stats.searched > 0, "seed {seed}: {stats:?}");
    }
}

#[test]
fn brite_rows_match_heap() {
    for seed in 0..3 {
        let topo = BriteConfig::for_peers(400, seed).generate();
        assert_rows_match_heap(&topo.graph, &format!("BRITE seed {seed}"));
    }
}

/// A sparse random forest: most routers link to one earlier router (so
/// most links are bridges), some start a new component, a few extra
/// links close cycles. Delays include 0 and, when `heavy`, values that
/// push sums across the `u16::MAX - 1` clamp.
fn awkward_graph(rng: &mut Rng, heavy: bool) -> Graph {
    let n = rng.random_range(2usize..40);
    let mut g = Graph::with_nodes(n);
    let delay = |rng: &mut Rng| match rng.random_range(0u32..8) {
        0 => 0,
        1 if heavy => rng.random_range(20_000u16..=u16::MAX - 1),
        _ => rng.random_range(1u16..=50),
    };
    for i in 1..n {
        if rng.random_range(0u32..6) != 0 {
            let j = rng.random_range(0usize..i) as u32;
            g.add_edge(i as u32, j, delay(rng));
        }
    }
    for _ in 0..rng.random_range(0usize..=n / 3) {
        let u = rng.random_range(0usize..n) as u32;
        let v = rng.random_range(0usize..n) as u32;
        g.add_edge(u, v, delay(rng));
    }
    g
}

#[test]
fn forests_zero_weights_and_saturating_delays_match_heap() {
    let mut rng = Rng::seed_from_u64(0xb21d_9e5e);
    let mut composed = 0;
    for case in 0..400 {
        let g = awkward_graph(&mut rng, case % 2 == 1);
        composed += assert_rows_match_heap(&g, &format!("case {case}")).composed;
    }
    assert!(composed > 2000, "the generator must keep producing bridges ({composed} composed)");
}

/// A path of `u16::MAX - 1` ms links is all bridges: every composed sum
/// sits at or past the clamp, and must clamp (not wrap, not read as
/// unreachable) exactly as `Graph::dijkstra` does; the isolated router
/// must stay unreachable from everywhere.
#[test]
fn saturating_path_clamps_and_marks_unreachable() {
    const TOP: u16 = u16::MAX - 1;
    let mut g = Graph::with_nodes(7);
    for i in 1..6 {
        g.add_edge(i - 1, i, TOP);
    }
    assert_rows_match_heap(&g, "saturating path");
    let oracle = LatencyOracle::new(g);
    assert_eq!(oracle.row(5), &[TOP, TOP, TOP, TOP, TOP, 0, u16::MAX]);
    assert!(oracle.row_stats().composed > 0, "the far end of a path composes");
    assert_eq!(oracle.row(6), &[u16::MAX, u16::MAX, u16::MAX, u16::MAX, u16::MAX, u16::MAX, 0]);
}

#[test]
fn precompute_is_identical_at_any_thread_count() {
    let topo = TransitStubConfig::for_peers(500, 5).generate();
    // Sources in an order that makes workers meet on shared parents.
    let sources: Vec<u32> = topo.attach_candidates.iter().copied().step_by(3).collect();
    let warm = |threads| {
        let oracle = LatencyOracle::new(topo.graph.clone());
        oracle.precompute_on(&Executor::new(threads), &sources);
        oracle
    };
    let base = warm(1);
    assert!(base.row_stats().composed >= sources.len());
    for threads in [2, 8] {
        let other = warm(threads);
        assert_eq!(other.cached_rows(), base.cached_rows(), "{threads} threads");
        assert_eq!(other.row_stats(), base.row_stats(), "{threads} threads");
        for &s in &sources {
            assert_eq!(other.row(s), base.row(s), "{threads} threads, source {s}");
        }
    }
}

/// Warms `sources` and returns the oracle.
fn warmed(topo: &Topology, sources: &[u32]) -> LatencyOracle {
    let oracle = LatencyOracle::new(topo.graph.clone());
    oracle.precompute_on(&Executor::new(2), sources);
    oracle
}

/// The gain, as a count rather than a timing: on a Transit-Stub world
/// only the transit routers are ever searched in full (and a unit test
/// in `graph.rs` bounds every other search by the stub domain).
#[test]
fn transit_stub_searches_only_the_transit_core() {
    for seed in [1, 2, 3] {
        let cfg = TransitStubConfig::for_peers(2000, seed);
        let topo = cfg.generate();
        let oracle = warmed(&topo, &topo.attach_candidates);
        let stats = oracle.row_stats();
        assert!(
            stats.searched <= cfg.transit_domains * cfg.transit_nodes_per_domain,
            "seed {seed}: {} full searches",
            stats.searched
        );
        assert!(stats.composed >= topo.attach_candidates.len(), "seed {seed}");
    }
}

/// The no-loss side: BRITE's preferential attachment with two links per
/// router leaves no bridge, so every row is a plain search and nothing
/// extra is resident.
#[test]
fn brite_composes_nothing() {
    let topo = BriteConfig::for_peers(600, 9).generate();
    let sources: Vec<u32> = topo.attach_candidates.iter().copied().step_by(2).collect();
    let stats = warmed(&topo, &sources).row_stats();
    assert_eq!((stats.searched, stats.composed), (sources.len(), 0));
}
