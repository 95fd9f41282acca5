//! Exact 2-hop (hub) distance labels — the sub-quadratic latency
//! backend.
//!
//! A written-out row matrix — what the rows backend still comes to on
//! a graph without bridges — pays one full Dijkstra per distinct source
//! and `N × N` `u16`s of residency: at 10⁵ routers that is the entire
//! build wall (≈20 min) and 20 GB of RSS. The internet-shaped graphs
//! this repo simulates (Transit-Stub, Inet power-law, BRITE) are
//! exactly the low-highway-dimension graphs on which *pruned landmark
//! labeling* (Akiba, Iwata, Yoshida — SIGMOD 2013) is known to produce
//! tiny labels: every shortest path crosses a small hierarchy of hub
//! routers, so a handful of `(hub, distance)` pairs per vertex suffice
//! to answer **exact** shortest-path queries by a sorted merge:
//!
//! ```text
//! d(u, v) = min over hubs h ∈ label(u) ∩ label(v) of d(u,h) + d(h,v)
//! ```
//!
//! Construction processes vertices in a deterministic
//! *sampled-betweenness* order: a fixed, seeded set of shortest-path
//! trees is computed and vertices are ranked by how many sampled
//! shortest paths run through them (degree, then index, break ties).
//! Betweenness is the quantity pruned labeling actually wants —
//! "covers the most shortest paths" — and on internet-shaped graphs it
//! ranks the transit backbone above merely well-connected stub routers,
//! yielding measurably shorter labels than degree order. Each hub then
//! runs one *pruned* Dijkstra: when a visited vertex's distance is
//! already covered by previously committed labels, the search neither
//! labels nor expands it. On a Transit-Stub instance the transit
//! routers are ranked first and every later search collapses to its own
//! stub domain — total work scales with the label size, not `N²`.
//!
//! Hubs are processed in fixed geometric warm-up batches (1, 2, 4, …,
//! [`MAX_BATCH`]); within a batch every pruned Dijkstra sees only the
//! labels committed by *prior* batches, so each batch is a pure
//! function of the previous state and [`Executor::par_fill`] can run
//! it on any number of threads with **bit-identical** results. (Less
//! intra-batch pruning only ever adds redundant — still exact —
//! entries, and the schedule is fixed, so the label set is a pure
//! function of the graph.)

use crate::graph::DijkstraScratch;
use crate::Graph;
use hieras_rt::{Executor, Rng};
use std::cell::RefCell;

/// Hubs per full-speed batch. Must not depend on the thread count —
/// it defines the commit schedule and therefore the exact label set.
/// The geometric warm-up (1, 2, 4, … hubs) keeps the earliest, most
/// widely covering hubs pruning each other near-sequentially; by the
/// time batches reach this size the searches are local and intra-batch
/// redundancy is negligible.
const MAX_BATCH: usize = 256;

/// Hubs per work chunk inside a batch. Small: one pruned search is
/// microseconds to milliseconds, and chunk order fixes the merge.
const LABEL_CHUNK: usize = 2;

/// Shortest-path trees sampled to score the betweenness hub order.
/// Fixed — it is part of the label-set definition, like [`MAX_BATCH`].
const BETWEENNESS_SAMPLES: usize = 32;

/// Sample roots per betweenness work chunk: bounds the number of live
/// 8-byte-per-vertex accumulators while leaving 16 chunks to spread.
const BETWEENNESS_CHUNK: usize = 2;

/// Size/effort statistics of a built [`HubLabels`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelStats {
    /// Vertices serving as a hub in at least one label list.
    pub hubs: usize,
    /// Total `(hub, distance)` entries across all vertices.
    pub entries: usize,
    /// Mean label length.
    pub avg_len: f64,
    /// Longest label list.
    pub max_len: usize,
    /// Wall-clock build time, milliseconds.
    pub build_ms: f64,
}

/// Exact 2-hop distance labels over a [`Graph`].
///
/// Immutable once built; queries take `&self` and are safe to share
/// across threads. Equality compares the label structure only (not
/// the recorded build time), so thread-identity tests can assert
/// builds at different widths produce the same labels.
#[derive(Debug, Clone)]
pub struct HubLabels {
    /// CSR offsets into `entries`, one slice per vertex.
    offsets: Box<[u32]>,
    /// Per-vertex label entries, packed `(hub_rank << 32) | distance`,
    /// sorted ascending by hub rank (commit order guarantees it).
    entries: Box<[u64]>,
    /// Number of distinct hubs used by at least one label.
    hubs: usize,
    /// Wall-clock build time, ms (diagnostic; not part of equality).
    build_ms: f64,
}

impl PartialEq for HubLabels {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.entries == other.entries && self.hubs == other.hubs
    }
}

impl Eq for HubLabels {}

/// Per-worker working memory for one pruned Dijkstra: the shared
/// [`DijkstraScratch`] (tentative distances + Dial bucket ring, reset
/// lazily through `touched`) plus the current hub's committed label
/// scattered by rank for O(|label|) cover queries.
#[derive(Default)]
struct LabelScratch {
    dij: DijkstraScratch,
    /// Vertices whose tentative distance was set this run.
    touched: Vec<u32>,
    /// Distance from the current hub to committed hub `rank`;
    /// `u32::MAX` = hub not on the current root's label.
    hub_dist_of_rank: Vec<u32>,
    /// Ranks set in `hub_dist_of_rank`, for O(|label|) reset.
    marked: Vec<u32>,
}

impl LabelScratch {
    /// Grows the arrays to cover `n` vertices and `nb` buckets,
    /// keeping prior allocations. Distances are maintained reset by
    /// the lazy `touched`/`marked` lists, so this never refills them.
    fn ensure(&mut self, n: usize, nb: usize) {
        if self.dij.dist.len() < n {
            self.dij.dist.resize(n, u32::MAX);
        }
        if self.dij.buckets.len() < nb {
            self.dij.buckets.resize_with(nb, Vec::new);
        }
        if self.hub_dist_of_rank.len() < n {
            self.hub_dist_of_rank.resize(n, u32::MAX);
        }
    }
}

thread_local! {
    /// One scratch per worker thread. Purely an allocation cache: the
    /// labels produced are independent of scratch state, so reuse
    /// cannot perturb determinism.
    static SCRATCH: RefCell<LabelScratch> = RefCell::new(LabelScratch::default());
}

/// Adds one sampled shortest-path tree rooted at `root` into `scores`.
///
/// Runs a canonical Dial-bucket Dijkstra (deterministic: single
/// threaded, LIFO buckets, the parent of a vertex is whichever strict
/// relaxation fixed its final distance), then accumulates subtree
/// sizes in reverse settle order — `size[v]` counts the sampled
/// shortest paths from `root` that pass through `v`, the standard
/// one-tree term of sampled betweenness centrality.
fn accumulate_sp_tree(graph: &Graph, root: u32, nb: usize, scores: &mut [u64]) {
    let n = graph.node_count();
    let mut dist = vec![u32::MAX; n];
    let mut parent = vec![u32::MAX; n];
    let mut settled: Vec<u32> = Vec::with_capacity(n);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); nb];
    dist[root as usize] = 0;
    buckets[0].push(root);
    let mut pending = 1usize;
    let mut d = 0usize;
    while pending > 0 {
        let b = d % nb;
        while let Some(u) = buckets[b].pop() {
            pending -= 1;
            if dist[u as usize] != d as u32 {
                continue; // superseded entry
            }
            settled.push(u);
            for e in graph.neighbors(u) {
                let nd = d as u32 + u32::from(e.delay_ms);
                if nd < dist[e.to as usize] {
                    dist[e.to as usize] = nd;
                    parent[e.to as usize] = u;
                    buckets[nd as usize % nb].push(e.to);
                    pending += 1;
                }
            }
        }
        d += 1;
    }
    // A vertex's parent settles strictly before it, so reverse settle
    // order sees every child before its parent.
    let mut size = vec![1u64; n];
    for &u in settled.iter().rev() {
        let p = parent[u as usize];
        if p != u32::MAX {
            let s = size[u as usize];
            size[p as usize] += s;
        }
    }
    for &u in &settled {
        if u != root {
            scores[u as usize] += size[u as usize];
        }
    }
}

/// Deterministic hub priority: sampled-betweenness score descending,
/// then degree descending, then index. The sample-root set is seeded
/// from the vertex count alone, so the order — and therefore the label
/// set — is a pure function of the graph at any thread count.
fn hub_order(exec: &Executor, graph: &Graph) -> Vec<u32> {
    let n = graph.node_count();
    let mut order: Vec<u32> = (0..n as u32).collect();
    let k = BETWEENNESS_SAMPLES.min(n);
    let mut scores = vec![0u64; n];
    if k > 0 {
        let mut rng = Rng::seed_from_u64(0x4_8655_2615_u64 ^ (n as u64).rotate_left(17));
        let roots = rng.sample_indices(n, k);
        let nb = usize::from(graph.max_delay()) + 1;
        scores = exec.par_fold(
            k,
            BETWEENNESS_CHUNK,
            || vec![0u64; n],
            |acc, i| accumulate_sp_tree(graph, roots[i] as u32, nb, acc),
            |mut a, b| {
                // Element-wise u64 sums: exact and order-independent,
                // so the merge is trivially thread-invariant.
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
    }
    order.sort_by_key(|&v| {
        (u64::MAX - scores[v as usize], usize::MAX - graph.degree(v), v)
    });
    order
}

/// One pruned Dijkstra from `root`: returns the `(vertex, distance)`
/// pairs this hub must label, in deterministic settle order. Pruning
/// consults only `committed` (labels from prior batches), making the
/// result a pure function of `(graph, committed, root)`.
fn pruned_dijkstra(
    graph: &Graph,
    committed: &[Vec<(u32, u32)>],
    root: u32,
    nb: usize,
) -> Vec<(u32, u32)> {
    SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        scratch.ensure(graph.node_count(), nb);
        let LabelScratch { dij, touched, hub_dist_of_rank, marked } = scratch;
        let (dist, buckets) = (&mut dij.dist, &mut dij.buckets);
        let mut out = Vec::new();

        // Scatter the root's committed label for O(|label(u)|) cover
        // queries at every visited vertex u.
        for &(rank, d) in &committed[root as usize] {
            hub_dist_of_rank[rank as usize] = d;
            marked.push(rank);
        }

        let mut pending = 1usize;
        dist[root as usize] = 0;
        touched.push(root);
        buckets[0].push(root);
        let mut d = 0usize;
        while pending > 0 {
            let b = d % nb;
            while let Some(u) = buckets[b].pop() {
                pending -= 1;
                if dist[u as usize] != d as u32 {
                    continue; // superseded entry
                }
                // Pruning test: is d(root, u) already achieved through
                // a committed hub common to both labels?
                let covered = committed[u as usize].iter().any(|&(rank, du)| {
                    let dr = hub_dist_of_rank[rank as usize];
                    dr != u32::MAX && u64::from(dr) + u64::from(du) <= d as u64
                });
                if covered {
                    continue;
                }
                out.push((u, d as u32));
                for e in graph.neighbors(u) {
                    let nd = d as u32 + u32::from(e.delay_ms);
                    if nd < dist[e.to as usize] {
                        if dist[e.to as usize] == u32::MAX {
                            touched.push(e.to);
                        }
                        dist[e.to as usize] = nd;
                        buckets[nd as usize % nb].push(e.to);
                        pending += 1;
                    }
                }
            }
            d += 1;
        }

        // Lazy reset: only what this run wrote.
        for &t in touched.iter() {
            dist[t as usize] = u32::MAX;
        }
        touched.clear();
        for &r in marked.iter() {
            hub_dist_of_rank[r as usize] = u32::MAX;
        }
        marked.clear();
        out
    })
}

impl HubLabels {
    /// Builds labels on the default executor. Identical to
    /// [`HubLabels::build_on`] at any width.
    #[must_use]
    pub fn build(graph: &Graph) -> Self {
        Self::build_on(&Executor::default(), graph)
    }

    /// Builds exact hub labels for `graph`, parallelized on `exec`.
    ///
    /// The hub order (sampled betweenness, see [`hub_order`]), the
    /// batch schedule, and the per-batch chunk size are all fixed, so
    /// the resulting labels are **bit-identical at any thread count**
    /// — asserted by `tests/label_equivalence.rs`.
    #[must_use]
    pub fn build_on(exec: &Executor, graph: &Graph) -> Self {
        let t0 = std::time::Instant::now();
        let n = graph.node_count();

        let order = hub_order(exec, graph);

        let nb = usize::from(graph.max_delay()) + 1;
        let mut committed: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut hubs = 0usize;

        let mut start = 0usize;
        let mut batch = 1usize;
        while start < n {
            let size = batch.min(n - start);
            let mut results: Vec<Vec<(u32, u32)>> = vec![Vec::new(); size];
            {
                let committed = &committed;
                let order = &order;
                exec.par_fill(&mut results, LABEL_CHUNK, |i| {
                    pruned_dijkstra(graph, committed, order[start + i], nb)
                });
            }
            // Commit sequentially in rank order; each vertex's list
            // stays sorted by hub rank by construction.
            for (i, ins) in results.into_iter().enumerate() {
                let rank = (start + i) as u32;
                if !ins.is_empty() {
                    hubs += 1;
                }
                for (v, d) in ins {
                    committed[v as usize].push((rank, d));
                }
            }
            start += size;
            if batch < MAX_BATCH {
                batch *= 2;
            }
        }

        // Flatten to CSR with packed entries.
        let total: usize = committed.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::with_capacity(total);
        offsets.push(0u32);
        for label in &committed {
            for &(rank, d) in label {
                entries.push((u64::from(rank) << 32) | u64::from(d));
            }
            offsets.push(u32::try_from(entries.len()).expect("label entries overflow u32"));
        }

        HubLabels {
            offsets: offsets.into_boxed_slice(),
            entries: entries.into_boxed_slice(),
            hubs,
            build_ms: t0.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// The packed label slice of vertex `u`.
    #[inline]
    fn label(&self, u: u32) -> &[u64] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.entries[lo..hi]
    }

    /// Exact shortest-path delay between `u` and `v` in milliseconds,
    /// saturating at `u16::MAX - 1`; `u16::MAX` = unreachable. Matches
    /// [`Graph::dijkstra`] rows entry for entry.
    #[inline]
    #[must_use]
    pub fn latency(&self, u: u32, v: u32) -> u16 {
        if u == v {
            return 0;
        }
        const DIST: u64 = 0xffff_ffff;
        let (a, b) = (self.label(u), self.label(v));
        let mut best = u64::MAX;
        let (mut i, mut j) = (0usize, 0usize);
        // Branch-free two-pointer merge: every iteration advances at
        // least one side; mismatched hubs poison the candidate with MAX
        // so the min is a no-op. The hub comparison feeds conditional
        // moves instead of a three-way branch the predictor keeps
        // missing on (rank interleavings are effectively random).
        while i < a.len() && j < b.len() {
            let (ea, eb) = (a[i], b[j]);
            let (ra, rb) = (ea >> 32, eb >> 32);
            let sum = (ea & DIST) + (eb & DIST);
            let cand = if ra == rb { sum } else { u64::MAX };
            best = best.min(cand);
            i += usize::from(ra <= rb);
            j += usize::from(rb <= ra);
        }
        if best == u64::MAX {
            u16::MAX
        } else {
            best.min(u64::from(u16::MAX - 1)) as u16
        }
    }

    /// Number of vertices labeled.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Approximate bytes held by the label arrays.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.entries.len() * core::mem::size_of::<u64>()
            + self.offsets.len() * core::mem::size_of::<u32>()
    }

    /// Size/effort statistics.
    #[must_use]
    pub fn stats(&self) -> LabelStats {
        let n = self.node_count();
        let entries = self.entries.len();
        let max_len = (0..n as u32).map(|u| self.label(u).len()).max().unwrap_or(0);
        LabelStats {
            hubs: self.hubs,
            entries,
            avg_len: if n == 0 { 0.0 } else { entries as f64 / n as f64 },
            max_len,
            build_ms: self.build_ms,
        }
    }
}

/// "Outside every cell" in [`Exit::outer`].
const NO_CELL: u32 = u32::MAX;

/// Where a router leaves its outermost bridge cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Exit {
    /// Index of the outermost cell around the router, [`NO_CELL`]
    /// outside every cell.
    outer: u32,
    /// The router across that cell's bridge; the router itself outside
    /// every cell.
    top: u32,
    /// Clamped delay from the router to `top`: its cell-local distance
    /// to the cell root plus the bridge. 0 outside every cell.
    ms: u16,
}

/// Exact hub labels through bridge cells — what the labels backend of
/// [`crate::LatencyOracle`] queries.
///
/// The graph's bridge decomposition (`Graph::bridge_cells`) is taken
/// and the bridge of every *outermost* cell is cut. One [`HubLabels`]
/// build labels that cut graph: its components are the
/// 2-edge-connected core (with the DFS root's side of any bridge) and
/// the outermost cells, nested cells included. One cell-local search
/// from each outermost cell's root gives every router its `Exit`.
/// Then `latency(u, v)` is
///
/// * a merge of the two cell labels when `u` and `v` sit in the same
///   outermost cell, or both outside every cell;
/// * `exit(u) + merge(top(u), top(v)) + exit(v)` otherwise, clamped
///   at `u16::MAX − 1` and `u16::MAX` (unreachable) when the core merge
///   is — exactly as the rows backend's walk through the same cells.
///
/// Exact by the bridge argument: a cell's bridge is its only exit, so
/// no shortest path between two of its routers leaves it, and every
/// path from inside to outside crosses it; nor does a shortest path
/// between two routers outside a cell gain anything by entering it.
/// A cross-cell query merges the short labels of two core routers.
/// The cut labels are smaller than whole-graph labels on Transit-Stub
/// from 4 000 routers up and on Inet, since no hub of one cell appears
/// in another's labels; on a tiny world they can be larger, when the
/// sampled hub order misses most cells. A graph without bridges
/// (BRITE) has no cells and is labelled whole.
#[derive(Debug, Clone)]
pub struct FactoredLabels {
    /// Labels over the cut graph.
    labels: HubLabels,
    /// One `Exit` per router.
    exits: Box<[Exit]>,
    /// Wall-clock build time, ms, decomposition and exits included
    /// (diagnostic; not part of equality).
    build_ms: f64,
}

impl PartialEq for FactoredLabels {
    fn eq(&self, other: &Self) -> bool {
        self.labels == other.labels && self.exits == other.exits
    }
}

impl Eq for FactoredLabels {}

impl FactoredLabels {
    /// Builds the factored labels of `graph` on `exec`: bit-identical
    /// at any thread count, as [`HubLabels::build_on`] is.
    #[must_use]
    pub fn build_on(exec: &Executor, graph: &Graph) -> Self {
        let t0 = std::time::Instant::now();
        let n = graph.node_count();
        let cells = graph.bridge_cells();
        let order = cells.order();
        let mut exits: Box<[Exit]> =
            (0..n as u32).map(|v| Exit { outer: NO_CELL, top: v, ms: 0 }).collect();
        let mut scratch = DijkstraScratch::new();
        let mut outermost = 0u32;
        for cell in cells.outermost() {
            let root = order[cell.lo as usize];
            let from_root = graph.dijkstra_cell(root, &cells, cell, &mut scratch);
            let members = &order[cell.lo as usize..cell.lo as usize + from_root.len()];
            // A cell is connected: every `d` is finite, so no exit may
            // read as unreachable.
            for (&v, &d) in members.iter().zip(from_root) {
                let ms = d.saturating_add(u32::from(cell.bridge_ms)).min(u32::from(u16::MAX - 1));
                exits[v as usize] = Exit { outer: outermost, top: cell.parent, ms: ms as u16 };
            }
            outermost += 1;
        }
        let labels = if outermost == 0 {
            HubLabels::build_on(exec, graph)
        } else {
            // The only edges between routers of different outermost
            // cells (or a cell and the outside) are the cut bridges.
            let cut =
                graph.without_edges(|u, v| exits[u as usize].outer != exits[v as usize].outer);
            HubLabels::build_on(exec, &cut)
        };
        FactoredLabels { labels, exits, build_ms: t0.elapsed().as_secs_f64() * 1e3 }
    }

    /// Exact shortest-path delay between `u` and `v` in milliseconds,
    /// saturating at `u16::MAX - 1`; `u16::MAX` = unreachable. Matches
    /// [`Graph::dijkstra`] rows entry for entry.
    #[inline]
    #[must_use]
    pub fn latency(&self, u: u32, v: u32) -> u16 {
        let (a, b) = (self.exits[u as usize], self.exits[v as usize]);
        if a.outer == b.outer {
            return self.labels.latency(u, v);
        }
        match self.labels.latency(a.top, b.top) {
            u16::MAX => u16::MAX,
            core => (u32::from(core) + u32::from(a.ms) + u32::from(b.ms))
                .min(u32::from(u16::MAX - 1)) as u16,
        }
    }

    /// Number of routers covered.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.exits.len()
    }

    /// Bytes held: the cut-graph label arrays plus the exit table.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.labels.bytes() + std::mem::size_of_val::<[Exit]>(&self.exits)
    }

    /// The cut-graph labels' statistics, with the build time of the
    /// whole factored build.
    #[must_use]
    pub fn stats(&self) -> LabelStats {
        LabelStats { build_ms: self.build_ms, ..self.labels.stats() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_exact(g: &Graph, labels: &HubLabels) {
        for u in 0..g.node_count() as u32 {
            let row = g.dijkstra(u);
            for v in 0..g.node_count() as u32 {
                let want = if u == v { 0 } else { row[v as usize] };
                assert_eq!(labels.latency(u, v), want, "({u},{v})");
            }
        }
    }

    #[test]
    fn triangle_labels_are_exact() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 10);
        g.add_edge(0, 2, 50);
        assert_exact(&g, &HubLabels::build(&g));
    }

    #[test]
    fn disconnected_pairs_report_unreachable() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0, 1, 7);
        g.add_edge(2, 3, 9);
        let l = HubLabels::build(&g);
        assert_eq!(l.latency(0, 1), 7);
        assert_eq!(l.latency(0, 2), u16::MAX);
        assert_eq!(l.latency(1, 3), u16::MAX);
        assert_exact(&g, &l);
    }

    #[test]
    fn zero_weight_edges_are_exact() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0, 1, 0);
        g.add_edge(1, 2, 3);
        g.add_edge(2, 3, 0);
        assert_exact(&g, &HubLabels::build(&g));
    }

    #[test]
    fn saturating_distances_match_rows() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1, u16::MAX - 1);
        g.add_edge(1, 2, u16::MAX - 1);
        let l = HubLabels::build(&g);
        assert_eq!(l.latency(0, 2), u16::MAX - 1, "saturated, still reachable");
        assert_exact(&g, &l);
    }

    #[test]
    fn empty_and_single_node_graphs() {
        let l = HubLabels::build(&Graph::with_nodes(0));
        assert_eq!(l.node_count(), 0);
        let g = Graph::with_nodes(1);
        let l = HubLabels::build(&g);
        assert_eq!(l.latency(0, 0), 0);
    }

    /// Root-side, nested and sibling cells: each router outside every
    /// cell is its own `top`; each router in a cell names its outermost
    /// cell, the router across that cell's bridge and its delay there,
    /// and the labels see the cut.
    #[test]
    fn exits_name_the_outermost_cell_and_its_bridge_parent() {
        // 0 —3— triangle {1, 2, 3}, DFS root 0; cell {4} below 0, cell
        // {5, 6} below 2 with {6} nested in it, cells {7} and {8} below 3.
        let mut g = Graph::with_nodes(9);
        let edges = [(0, 1, 3), (0, 4, 8), (1, 2, 10), (2, 3, 10), (3, 1, 10)];
        for (u, v, w) in edges.into_iter().chain([(2, 5, 7), (5, 6, 2), (3, 7, 5), (3, 8, 6)]) {
            g.add_edge(u, v, w);
        }
        let f = FactoredLabels::build_on(&Executor::new(1), &g);
        for v in 0..4u32 {
            assert_eq!(f.exits[v as usize], Exit { outer: NO_CELL, top: v, ms: 0 }, "router {v}");
        }
        let exit = |v: usize| (f.exits[v].top, f.exits[v].ms);
        assert_eq!([exit(4), exit(5), exit(6), exit(7), exit(8)], [(0, 8), (2, 7), (2, 9), (3, 5), (3, 6)]);
        assert_eq!(f.exits[5].outer, f.exits[6].outer, "a nested cell is in its outermost cell");
        let mut outer: Vec<u32> = [4, 5, 7, 8].iter().map(|&v| f.exits[v].outer).collect();
        outer.dedup();
        assert_eq!(outer.len(), 4, "one outermost cell each");
        assert_eq!(f.labels.latency(4, 0), u16::MAX, "bridge 0–4 is cut");
        assert_eq!(f.labels.latency(5, 6), 2);
        assert_eq!(f.latency(4, 8), 8 + 3 + 10 + 6);
    }

    #[test]
    fn stats_reconcile_with_structure() {
        let mut g = Graph::with_nodes(5);
        for i in 0..4 {
            g.add_edge(i, i + 1, 2);
        }
        let l = HubLabels::build(&g);
        let s = l.stats();
        assert_eq!(s.entries, l.entries.len());
        assert!(s.hubs >= 1 && s.hubs <= 5);
        assert!(s.max_len >= 1);
        assert!((s.avg_len - s.entries as f64 / 5.0).abs() < 1e-12);
        assert!(l.bytes() >= s.entries * 8);
    }
}
