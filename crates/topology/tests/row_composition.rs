//! Rows answered through bridge cells vs. the binary-heap reference.
//!
//! Below a bridge the rows oracle keeps a cell-local search and the
//! delay to the router across the bridge, and answers everything else
//! by walking up to that router's row. That is a claim of byte identity
//! with a full search, checked here for *every* pair — on the paper's
//! three models, on random graphs built to be awkward (forests,
//! zero-weight links, delays at the saturation boundary), at the clamp
//! itself, and from racing threads — and a claim about how much
//! searching and how many bytes are left, checked by count.

use hieras_rt::{Executor, Rng};
use hieras_topology::{
    BriteConfig, Graph, GraphBuilder, InetConfig, LatencyOracle, RowStats, Topology,
    TransitStubConfig,
};
use std::sync::Barrier;

/// Every `latency(u, v)` of a rows oracle over `g` equals the heap
/// row's entry (`row()` is the same walk written out; the tests below
/// that compare whole rows go through it). Returns how the rows were
/// built.
fn assert_rows_match_heap(g: &Graph, label: &str) -> RowStats {
    let oracle = LatencyOracle::new(g.clone());
    for src in 0..g.node_count() as u32 {
        for (v, &d) in g.dijkstra_heap(src).iter().enumerate() {
            assert_eq!(oracle.latency(src, v as u32), d, "{label}: ({src}, {v})");
        }
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
    let mut g = GraphBuilder::with_nodes(n);
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
    g.build()
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
    let mut g = GraphBuilder::with_nodes(7);
    for i in 1..6 {
        g.add_edge(i - 1, i, TOP);
    }
    let g = g.build();
    assert_rows_match_heap(&g, "saturating path");
    let oracle = LatencyOracle::new(g);
    assert_eq!(oracle.row(5), &[TOP, TOP, TOP, TOP, TOP, 0, u16::MAX]);
    assert!(oracle.row_stats().composed > 0, "the far end of a path composes");
    assert_eq!(oracle.row(6), &[u16::MAX, u16::MAX, u16::MAX, u16::MAX, u16::MAX, u16::MAX, 0]);
}

/// Cells nested three deep below a ring, every bridge delay swept
/// across the clamp: the walk adds the three crossings and clamps once,
/// where a written-out row would clamp at each bridge. Both must agree
/// with the reference at every boundary, and a router in another
/// component must stay unreachable however much is added on the way.
#[test]
fn one_end_clamp_equals_the_nested_clamps_at_the_boundary() {
    const TOP: u16 = u16::MAX - 1;
    const DELAYS: [u16; 7] = [0, 1, 32_767, 32_768, TOP - 2, TOP - 1, TOP];
    let nested = |d: u16, exit: u16| match d {
        u16::MAX => d,
        _ => d.saturating_add(exit).min(TOP),
    };
    for (b1, b2, b3) in DELAYS
        .iter()
        .flat_map(|&a| DELAYS.iter().flat_map(move |&b| DELAYS.iter().map(move |&c| (a, b, c))))
    {
        // Ring 0..6 (the core), chain 5 — 6 — 7 — 8 below it, and a
        // second component 9 — 10.
        let mut g = GraphBuilder::with_nodes(11);
        for i in 0..6 {
            g.add_edge(i, (i + 1) % 6, 1);
        }
        g.add_edge(5, 6, b1);
        g.add_edge(6, 7, b2);
        g.add_edge(7, 8, b3);
        g.add_edge(9, 10, TOP);
        let g = g.build();
        let oracle = LatencyOracle::new(g.clone());
        let label = format!("bridges ({b1}, {b2}, {b3})");
        for v in 0..6u32 {
            let via_each_bridge =
                nested(nested(nested(g.dijkstra_heap(5)[v as usize], b1), b2), b3);
            assert_eq!(oracle.latency(8, v), via_each_bridge, "{label}: (8, {v})");
        }
        for u in 0..11u32 {
            assert_eq!(oracle.row(u), &g.dijkstra_heap(u)[..], "{label}: source {u}");
        }
        assert_eq!(oracle.latency(8, 9), u16::MAX, "{label}");
        assert_eq!(oracle.latency(10, 8), u16::MAX, "{label}");
        assert_eq!(
            oracle.row_stats(),
            RowStats { searched: 7, composed: 4 },
            "{label}: 6, 7, 8 and 10 sit below bridges"
        );
    }
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
        assert_eq!(other.cache_bytes(), base.cache_bytes(), "{threads} threads");
        for &s in &sources {
            assert_eq!(other.row(s), base.row(s), "{threads} threads, source {s}");
        }
    }
}

/// Nothing warmed: every row, and every bridge parent's row, is built
/// by whichever query gets there first. The threads start together and
/// take interleaved sources, so they meet on the shared parents.
#[test]
fn cold_queries_agree_at_any_thread_count() {
    let topo = TransitStubConfig::for_peers(500, 6).generate();
    let sources = &topo.attach_candidates;
    let targets: Vec<u32> = (0..topo.graph.node_count() as u32).step_by(5).collect();
    let cold = |threads: usize| {
        let oracle = LatencyOracle::new(topo.graph.clone());
        let start = Barrier::new(threads);
        let mut answers = vec![0u16; sources.len() * targets.len()];
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (oracle, start, targets) = (&oracle, &start, &targets);
                    s.spawn(move || {
                        start.wait();
                        let mut mine = Vec::new();
                        for (i, &u) in sources.iter().enumerate().skip(t).step_by(threads) {
                            for (j, &v) in targets.iter().enumerate() {
                                mine.push((i * targets.len() + j, oracle.latency(u, v)));
                            }
                        }
                        mine
                    })
                })
                .collect();
            for worker in workers {
                for (at, d) in worker.join().expect("query thread panicked") {
                    answers[at] = d;
                }
            }
        });
        (answers, oracle.row_stats(), oracle.cache_bytes())
    };
    let base = cold(1);
    assert!(base.1.composed >= sources.len() && base.1.searched > 0, "{:?}", base.1);
    for (i, &u) in sources.iter().enumerate() {
        let row = topo.graph.dijkstra_heap(u);
        let want: Vec<u16> = targets.iter().map(|&v| row[v as usize]).collect();
        assert_eq!(base.0[i * targets.len()..][..targets.len()], want, "source {u}");
    }
    for threads in [2, 8] {
        assert!(cold(threads) == base, "{threads} threads");
    }
}

/// Warms `sources` and returns the oracle.
fn warmed(topo: &Topology, sources: &[u32]) -> LatencyOracle {
    let oracle = LatencyOracle::new(topo.graph.clone());
    oracle.precompute_on(&Executor::new(2), sources);
    oracle
}

/// The gain, as counts rather than timings: on a Transit-Stub world
/// only the transit routers are ever searched in full, and only they
/// hold a full row — every other source holds at most a stub domain's
/// worth of distances (a unit test in `graph.rs` bounds its cell).
#[test]
fn transit_stub_searches_and_stores_only_the_transit_core() {
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
        let n = topo.graph.node_count();
        assert!(
            oracle.cache_bytes()
                <= stats.searched * n * 2 + stats.composed * cfg.stub_nodes_per_domain * 2,
            "seed {seed}: {} bytes resident for {stats:?} over {n} routers",
            oracle.cache_bytes()
        );
    }
}

/// The no-loss side: BRITE's preferential attachment with two links per
/// router leaves no bridge, so every row is a plain search, nothing
/// extra is resident, and the bytes are a full row per source.
#[test]
fn brite_composes_nothing() {
    let topo = BriteConfig::for_peers(600, 9).generate();
    let sources: Vec<u32> = topo.attach_candidates.iter().copied().step_by(2).collect();
    let oracle = warmed(&topo, &sources);
    let stats = oracle.row_stats();
    assert_eq!((stats.searched, stats.composed), (sources.len(), 0));
    assert_eq!(oracle.cache_bytes(), sources.len() * topo.graph.node_count() * 2);
}
