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
//! No shortest path leaves a connected component, so each component is
//! labelled on its own: copied out with local vertex indices, ranked,
//! and pruned without ever seeing another component's labels.
//!
//! A component's hubs are processed in a deterministic
//! *sampled-betweenness* order: a fixed, seeded set of shortest-path
//! trees is computed and vertices are ranked by how many sampled
//! shortest paths run through them (degree, then index, break ties).
//! Betweenness is the quantity pruned labeling actually wants —
//! "covers the most shortest paths" — and on internet-shaped graphs it
//! ranks the transit backbone above merely well-connected stub routers,
//! yielding measurably shorter labels than degree order. Each hub then
//! runs one *pruned* Dijkstra, strictly in rank order: when a visited
//! vertex's distance is already covered by the labels of earlier hubs,
//! the search neither labels nor expands it. On a Transit-Stub instance
//! the transit routers are ranked first and every later search
//! collapses to its own stub domain — total work scales with the label
//! size, not `N²`. Pruning is exact under any hub order; a sequential
//! pass gives the smallest labels for a given order.
//!
//! The components, not the hubs, are what run in parallel: they are
//! spread over the [`Executor`] largest first. Each component's labels
//! are a pure function of that component, and its ranks are offset by
//! a base fixed by the component numbering, so the whole index is
//! **bit-identical** at any thread count.

use crate::graph::{clamp_ms, Components, DialScratch};
use crate::Graph;
use hieras_rt::{Executor, Rng};
use std::cmp::Reverse;

/// Shortest-path trees sampled per component to score its hub order
/// (every vertex of a smaller component roots one). Fixed — it is part
/// of the label-set definition.
const BETWEENNESS_SAMPLES: usize = 32;

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
    /// sorted ascending by hub rank (commit order guarantees it). Ranks
    /// are unique across the graph, so labels of two components never
    /// share a hub.
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

/// One component's labels: a CSR over its local indices, entries packed
/// `(hub_rank << 32) | distance` with the component's rank base added.
#[derive(Clone, Default)]
struct ComponentLabels {
    offsets: Vec<u32>,
    entries: Vec<u64>,
    hubs: usize,
}

/// Adds one sampled shortest-path tree rooted at `root` into `scores`.
///
/// Runs the canonical Dial search ([`Graph::dial`]: LIFO buckets, the
/// parent of a vertex is whichever strict relaxation fixed its final
/// distance), then accumulates subtree sizes in reverse settle order —
/// `size[v]` counts the sampled shortest paths from `root` that pass
/// through `v`, the standard one-tree term of sampled betweenness
/// centrality.
fn accumulate_sp_tree(comp: &Graph, root: u32, scores: &mut [u64], scratch: &mut DialScratch) {
    let n = comp.node_count();
    let mut parent = vec![u32::MAX; n];
    let mut settled: Vec<u32> = Vec::with_capacity(n);
    let settle = |u, _| {
        settled.push(u);
        true
    };
    comp.dial(root, n, |v| Some(v as usize), scratch, settle, |u, v| parent[v as usize] = u);
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

/// Deterministic hub priority within one component: sampled-betweenness
/// score descending, then degree descending, then local index. The
/// sample roots are seeded from the component's size alone, so the
/// order is a pure function of the component.
fn hub_order(comp: &Graph, scratch: &mut DialScratch) -> Vec<u32> {
    let n = comp.node_count();
    let mut scores = vec![0u64; n];
    let mut rng = Rng::seed_from_u64(0x4_8655_2615_u64 ^ (n as u64).rotate_left(17));
    for root in rng.sample_indices(n, BETWEENNESS_SAMPLES.min(n)) {
        accumulate_sp_tree(comp, root as u32, &mut scores, scratch);
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| (Reverse(scores[v as usize]), Reverse(comp.degree(v)), v));
    order
}

/// Pruned landmark labeling of one component: one pruned Dijkstra per
/// hub, strictly in rank order, each pruning against every label
/// committed before it. Ranks start at `base`.
fn label_component(comp: &Graph, base: u32) -> ComponentLabels {
    let n = comp.node_count();
    let mut scratch = DialScratch::default();
    let order = hub_order(comp, &mut scratch);
    // `(local rank, distance)` pairs, ascending by rank.
    let mut labels: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    // Distance from the current root to hub `rank`; `u32::MAX` = not on
    // the root's label. Turns each cover test into O(|label(u)|).
    let mut root_dist_of_rank = vec![u32::MAX; n];
    let mut hubs = 0usize;

    for (rank, &root) in order.iter().enumerate() {
        let rank = rank as u32;
        for &(r, d) in &labels[root as usize] {
            root_dist_of_rank[r as usize] = d;
        }
        let mut labelled = false;
        // Settles `u` at `d`, labelling and expanding it unless d(root,
        // u) is already achieved through an earlier hub common to both
        // labels.
        let settle = |u: u32, d: u32| {
            let covered = labels[u as usize].iter().any(|&(r, du)| {
                let dr = root_dist_of_rank[r as usize];
                dr != u32::MAX && u64::from(dr) + u64::from(du) <= u64::from(d)
            });
            // `rank` is not scattered above, so this entry never prunes
            // the rest of its own search.
            if !covered {
                labels[u as usize].push((rank, d));
                labelled = true;
            }
            !covered
        };
        comp.dial(root, n, |v| Some(v as usize), &mut scratch, settle, |_, _| {});
        hubs += usize::from(labelled);
        for &(r, _) in &labels[root as usize] {
            root_dist_of_rank[r as usize] = u32::MAX;
        }
    }

    let mut out = ComponentLabels {
        offsets: Vec::with_capacity(n + 1),
        entries: Vec::with_capacity(labels.iter().map(Vec::len).sum::<usize>()),
        hubs,
    };
    out.offsets.push(0);
    for label in &labels {
        out.entries.extend(label.iter().map(|&(r, d)| (u64::from(base + r) << 32) | u64::from(d)));
        out.offsets.push(u32::try_from(out.entries.len()).expect("label entries overflow u32"));
    }
    out
}

impl HubLabels {
    /// Builds labels on the default executor. Identical to
    /// [`HubLabels::build_on`] at any width.
    #[must_use]
    pub fn build(graph: &Graph) -> Self {
        Self::build_on(&Executor::default(), graph)
    }

    /// Builds exact hub labels for `graph`, one connected component at
    /// a time, the components spread over `exec`.
    ///
    /// Each component's hub order (sampled betweenness, see
    /// `hub_order`) and labels depend on that component alone, and
    /// its ranks start at the number of vertices in the components
    /// numbered before it, so the resulting labels are **bit-identical
    /// at any thread count** — asserted by `tests/label_equivalence.rs`.
    #[must_use]
    pub fn build_on(exec: &Executor, graph: &Graph) -> Self {
        Self::build_cut(exec, graph, |_, _| true)
    }

    /// [`HubLabels::build_on`] over `graph` less the links `keep(u, v)`
    /// drops, each component copied straight out of `graph`.
    fn build_cut(exec: &Executor, graph: &Graph, keep: impl Fn(u32, u32) -> bool + Sync) -> Self {
        let t0 = std::time::Instant::now();
        let parts = Components::walk(graph.node_count(), |u| graph.neighbors(u), &keep);

        // Largest first, in rounds of at most one largest component's
        // vertices per worker. `par_fill` clones each round's results
        // into memory this thread owns before the next round, so what
        // the workers free is reused by the next round rather than
        // kept resident.
        let mut by_size: Vec<usize> = (0..parts.count()).collect();
        by_size.sort_by_key(|&c| (Reverse(parts.size(c)), c));
        let budget = exec.threads() * by_size.first().map_or(0, |&c| parts.size(c));
        let mut done = vec![ComponentLabels::default(); parts.count()];
        let mut next = 0usize;
        while next < by_size.len() {
            let (mut end, mut total) = (next, 0usize);
            while end < by_size.len() && total + parts.size(by_size[end]) <= budget {
                total += parts.size(by_size[end]);
                end += 1;
            }
            let round = &by_size[next..end];
            let mut out = vec![ComponentLabels::default(); round.len()];
            exec.par_fill(&mut out, 1, |i| {
                let c = round[i];
                label_component(&parts.copy_out(graph, c, &keep), parts.start[c])
            });
            for (&c, labels) in round.iter().zip(out) {
                done[c] = labels;
            }
            next = end;
        }

        // Scatter into one CSR indexed by global vertex.
        let n = graph.node_count();
        let total: usize = done.iter().map(|l| l.entries.len()).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::with_capacity(total);
        offsets.push(0u32);
        for v in 0..n {
            let l = &done[parts.comp[v] as usize];
            let i = parts.local[v] as usize;
            entries.extend_from_slice(&l.entries[l.offsets[i] as usize..l.offsets[i + 1] as usize]);
            offsets.push(u32::try_from(entries.len()).expect("label entries overflow u32"));
        }

        HubLabels {
            offsets: offsets.into_boxed_slice(),
            entries: entries.into_boxed_slice(),
            hubs: done.iter().map(|l| l.hubs).sum(),
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
/// build labels that cut graph, one component at a time: its
/// components are the 2-edge-connected core (with the DFS root's side
/// of any bridge) and the outermost cells, nested cells included, so
/// each cell is ranked and pruned on its own. One cell-local search
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
/// and Inet — no hub of one cell appears in another's labels, and each
/// cell's hub order is sampled from that cell — 3 727 against 6 083
/// entries on an 800-peer Transit-Stub world. A graph without bridges
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
        for (outer, cell) in (0u32..).zip(cells.outermost()) {
            let root = order[cell.lo as usize];
            let from_root = graph.dijkstra_cell(root, &cells, cell);
            let members = &order[cell.lo as usize..cell.lo as usize + from_root.len()];
            // A cell is connected: every `d` is finite, so no exit may
            // read as unreachable.
            for (&v, &d) in members.iter().zip(&from_root[..]) {
                let ms = clamp_ms(u32::from(d) + u32::from(cell.bridge_ms));
                exits[v as usize] = Exit { outer, top: cell.parent, ms };
            }
        }
        // The only edges between routers of different outermost cells
        // (or a cell and the outside) are the cut bridges.
        let same_outer = |u: u32, v: u32| exits[u as usize].outer == exits[v as usize].outer;
        let labels = HubLabels::build_cut(exec, graph, same_outer);
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
    use crate::GraphBuilder;

    /// A packed graph of `n` routers with the given links.
    fn graph(n: usize, links: &[(u32, u32, u16)]) -> Graph {
        let mut g = GraphBuilder::with_nodes(n);
        for &(u, v, w) in links {
            g.add_edge(u, v, w);
        }
        g.build()
    }

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
        let g = graph(3, &[(0, 1, 10), (1, 2, 10), (0, 2, 50)]);
        assert_exact(&g, &HubLabels::build(&g));
    }

    #[test]
    fn disconnected_pairs_report_unreachable() {
        let g = graph(4, &[(0, 1, 7), (2, 3, 9)]);
        let l = HubLabels::build(&g);
        assert_eq!(l.latency(0, 1), 7);
        assert_eq!(l.latency(0, 2), u16::MAX);
        assert_eq!(l.latency(1, 3), u16::MAX);
        assert_exact(&g, &l);
    }

    #[test]
    fn zero_weight_edges_are_exact() {
        let g = graph(4, &[(0, 1, 0), (1, 2, 3), (2, 3, 0)]);
        assert_exact(&g, &HubLabels::build(&g));
    }

    #[test]
    fn saturating_distances_match_rows() {
        let g = graph(3, &[(0, 1, u16::MAX - 1), (1, 2, u16::MAX - 1)]);
        let l = HubLabels::build(&g);
        assert_eq!(l.latency(0, 2), u16::MAX - 1, "saturated, still reachable");
        assert_exact(&g, &l);
    }

    #[test]
    fn empty_and_single_node_graphs() {
        let l = HubLabels::build(&graph(0, &[]));
        assert_eq!(l.node_count(), 0);
        let l = HubLabels::build(&graph(1, &[]));
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
        let g = graph(9, &[
            (0, 1, 3), (0, 4, 8), (1, 2, 10), (2, 3, 10), (3, 1, 10),
            (2, 5, 7), (5, 6, 2), (3, 7, 5), (3, 8, 6),
        ]);
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

    /// Each router's label as `(hub router, distance)` pairs. A hub's
    /// own label holds it at distance 0 — the one such entry of its
    /// rank when no link has zero delay — which names the router
    /// behind every rank.
    fn labels_by_router(l: &HubLabels) -> Vec<Vec<(u32, u64)>> {
        let n = l.node_count() as u32;
        let mut router_of_rank = std::collections::HashMap::new();
        for v in 0..n {
            for &e in l.label(v).iter().filter(|&&e| e as u32 == 0) {
                assert_eq!(router_of_rank.insert(e >> 32, v), None, "rank {} twice", e >> 32);
            }
        }
        let by_router = |v| l.label(v).iter().map(|&e| (router_of_rank[&(e >> 32)], e & 0xffff_ffff));
        (0..n).map(|v| by_router(v).collect()).collect()
    }

    /// Appending one more cell (a triangle hung off a core router by a
    /// single bridge) leaves every other router's label untouched: a
    /// component is ranked and pruned on its own.
    #[test]
    fn a_cells_labels_depend_on_that_cell_alone() {
        let world = crate::TransitStubConfig::for_peers(2000, 31).generate().graph;
        let exec = Executor::new(2);
        let before = FactoredLabels::build_on(&exec, &world);
        let core = (0..world.node_count()).find(|&v| before.exits[v].outer == NO_CELL).unwrap();
        let mut grown = world.to_builder();
        let [a, b, c] = [grown.add_node(), grown.add_node(), grown.add_node()];
        for (u, v) in [(a, b), (b, c), (c, a)] {
            grown.add_edge(u, v, 3);
        }
        grown.add_edge(core as u32, a, 20);
        let grown = grown.build();
        let after = FactoredLabels::build_on(&exec, &grown);
        assert_ne!(after.exits[a as usize].outer, NO_CELL, "the new triangle is a cell");
        let (old, new) = (labels_by_router(&before.labels), labels_by_router(&after.labels));
        assert_eq!(old[..], new[..world.node_count()]);
        assert_eq!(after.latency(a, core as u32), 20);
    }

    #[test]
    fn stats_reconcile_with_structure() {
        let g = graph(5, &[(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 4, 2)]);
        let l = HubLabels::build(&g);
        let s = l.stats();
        assert_eq!(s.entries, l.entries.len());
        assert!(s.hubs >= 1 && s.hubs <= 5);
        assert!(s.max_len >= 1);
        assert!((s.avg_len - s.entries as f64 / 5.0).abs() < 1e-12);
        assert!(l.bytes() >= s.entries * 8);
    }
}
