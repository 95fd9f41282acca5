//! Undirected weighted router graph: the mutable [`GraphBuilder`] a
//! generator grows, the packed [`Graph`] everything searches, the one
//! Dial loop and the one component walk over it, and the bridge
//! decomposition that lets a row be composed instead of searched.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// A directed half-edge in the adjacency list (every undirected link
/// is stored twice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Neighbour router index.
    pub to: u32,
    /// Link propagation delay in milliseconds.
    pub delay_ms: u16,
}

/// The mutable form of a router graph: what a generator grows, link by
/// link, before [`GraphBuilder::into_shared`] packs it into a [`Graph`].
///
/// Node indices are dense `u32`s. Each router lists its neighbours in
/// the order their links were first added; a parallel link keeps the
/// smaller delay, a self-loop is ignored.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    adj: Vec<Vec<Edge>>,
    /// Edge positions keyed by the packed `(min, max)` endpoint pair:
    /// `(position in adj[min], position in adj[max])`. Makes duplicate
    /// detection and min-delay coalescing O(1) — the Inet/BRITE
    /// generators push thousands of edges onto hub nodes, and a linear
    /// scan of the hub's adjacency list made insertion quadratic in
    /// hub degree.
    index: HashMap<u64, (u32, u32)>,
}

/// Packs an unordered node pair into one map key.
fn pair_key(u: u32, v: u32) -> u64 {
    let (a, b) = if u <= v { (u, v) } else { (v, u) };
    (u64::from(a) << 32) | u64::from(b)
}

impl GraphBuilder {
    /// An empty graph with `n` isolated nodes.
    #[must_use]
    pub fn with_nodes(n: usize) -> Self {
        GraphBuilder { adj: vec![Vec::new(); n], index: HashMap::new() }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.index.len()
    }

    /// Appends a new isolated node, returning its index.
    pub fn add_node(&mut self) -> u32 {
        self.adj.push(Vec::new());
        (self.adj.len() - 1) as u32
    }

    /// Adds an undirected edge `u — v` with the given delay.
    ///
    /// Parallel edges are coalesced: if the edge already exists the
    /// smaller delay wins (shortest-path semantics make the larger one
    /// irrelevant). Self-loops are ignored.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: u32, v: u32, delay_ms: u16) {
        assert!((u as usize) < self.adj.len() && (v as usize) < self.adj.len());
        if u == v {
            return;
        }
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        match self.index.entry(pair_key(u, v)) {
            std::collections::hash_map::Entry::Occupied(slot) => {
                let (pa, pb) = *slot.get();
                let ea = &mut self.adj[a as usize][pa as usize].delay_ms;
                *ea = (*ea).min(delay_ms);
                let eb = &mut self.adj[b as usize][pb as usize].delay_ms;
                *eb = (*eb).min(delay_ms);
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert((self.adj[a as usize].len() as u32, self.adj[b as usize].len() as u32));
                self.adj[a as usize].push(Edge { to: b, delay_ms });
                self.adj[b as usize].push(Edge { to: a, delay_ms });
            }
        }
    }

    /// True if the edge `u — v` exists.
    #[must_use]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        u != v && self.index.contains_key(&pair_key(u, v))
    }

    /// Neighbours of `u`, in the order their links were added.
    #[must_use]
    pub fn neighbors(&self, u: u32) -> &[Edge] {
        &self.adj[u as usize]
    }

    /// Degree of `u`.
    #[must_use]
    pub fn degree(&self, u: u32) -> usize {
        self.adj[u as usize].len()
    }

    /// Packs the graph: every router's list, in order, into one array.
    /// The dedup index is dropped first.
    #[must_use]
    pub fn build(self) -> Graph {
        let GraphBuilder { adj, index } = self;
        let half_edges = 2 * index.len();
        drop(index);
        Graph::pack(adj.iter().map(|list| list.iter().copied()), half_edges)
    }

    /// Hands a generated graph over for sharing: [`GraphBuilder::build`]
    /// behind an [`Arc`].
    #[must_use]
    pub fn into_shared(self) -> Arc<Graph> {
        #[cfg(test)]
        tests::LAST_SHARED.with(|last| *last.borrow_mut() = Some(self.clone()));
        Arc::new(self.build())
    }
}

/// An undirected router-level graph with millisecond link delays,
/// packed: router `u`'s neighbours are one slice of a single edge
/// array, in the order [`GraphBuilder`] added them, which is the order
/// every search and the bridge DFS visit them in.
///
/// Node indices are dense `u32`s; delays saturate at `u16::MAX`.
/// Everything downstream (DHT simulation, latency oracle) works on
/// these dense indices, keeping hot structures flat per the
/// hpc-parallel guides.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Router `u`'s neighbours are `edges[offsets[u]..offsets[u + 1]]`.
    offsets: Box<[u32]>,
    edges: Box<[Edge]>,
    /// Largest link delay present; sizes the Dial bucket array.
    max_delay: u16,
}

/// Working memory of [`Graph::dial`]: the tentative `u32` distance by
/// slot (`u32::MAX` = unseen), the Dial bucket ring, and the slots the
/// last search wrote. One scratch serves any number of consecutive
/// searches, over any graphs: each resets only what the one before it
/// touched.
#[derive(Debug, Default)]
pub(crate) struct DialScratch {
    dist: Vec<u32>,
    buckets: Vec<Vec<u32>>,
    touched: Vec<u32>,
}

thread_local! {
    /// The calling thread's scratch for the searches that keep none of
    /// their own — full rows and cell rows — so a stream of them (every
    /// source of a rows-backend world) allocates no search memory.
    static SCRATCH: RefCell<DialScratch> = RefCell::new(DialScratch::default());
}

/// "No such node": an unvisited router, a DFS root's parent, a router
/// outside every cell.
const NONE: u32 = u32::MAX;

/// Converts a tentative `u32` distance into a row entry: `u16::MAX`
/// for unseen, everything reachable clamped to `u16::MAX - 1`.
pub(crate) fn clamp_ms(d: u32) -> u16 {
    if d == u32::MAX {
        u16::MAX
    } else {
        d.min(u32::from(u16::MAX - 1)) as u16
    }
}

/// The connected components of a graph, numbered in order of their
/// smallest router. Component `c` holds `members[start[c]..start[c + 1]]`,
/// ascending — the order that gives its routers their local indices.
pub(crate) struct Components {
    pub(crate) start: Vec<u32>,
    members: Vec<u32>,
    /// Each router's component.
    pub(crate) comp: Vec<u32>,
    /// Each router's local index within its component.
    pub(crate) local: Vec<u32>,
}

impl Components {
    /// The one component walk: the components of the `n` routers whose
    /// links are `neighbors(u)`, following only the links `keep(u, v)`
    /// selects (asked from both ends).
    pub(crate) fn walk<'g>(
        n: usize,
        neighbors: impl Fn(u32) -> &'g [Edge],
        keep: impl Fn(u32, u32) -> bool,
    ) -> Self {
        let mut comp = vec![NONE; n];
        let mut start = vec![0u32];
        let mut stack = Vec::new();
        for s in 0..n as u32 {
            if comp[s as usize] != NONE {
                continue;
            }
            let c = start.len() as u32 - 1;
            comp[s as usize] = c;
            stack.push(s);
            let mut size = 0u32;
            while let Some(u) = stack.pop() {
                size += 1;
                for e in neighbors(u) {
                    if comp[e.to as usize] == NONE && keep(u, e.to) {
                        comp[e.to as usize] = c;
                        stack.push(e.to);
                    }
                }
            }
            start.push(start[c as usize] + size);
        }
        // Counting sort by component; ascending `v` keeps members sorted.
        let mut fill = start.clone();
        let mut members = vec![0u32; n];
        let mut local = vec![0u32; n];
        for v in 0..n {
            let c = comp[v] as usize;
            members[fill[c] as usize] = v as u32;
            local[v] = fill[c] - start[c];
            fill[c] += 1;
        }
        Components { start, members, comp, local }
    }

    pub(crate) fn count(&self) -> usize {
        self.start.len() - 1
    }

    pub(crate) fn size(&self, c: usize) -> usize {
        (self.start[c + 1] - self.start[c]) as usize
    }

    /// The routers of component `c`, ascending.
    pub(crate) fn members(&self, c: usize) -> &[u32] {
        &self.members[self.start[c] as usize..self.start[c + 1] as usize]
    }

    /// Component `c` of the walk over `graph` with the same `keep`,
    /// copied out as a graph of its own over local indices. Each list
    /// keeps the graph's edge order, less the links `keep` drops.
    pub(crate) fn copy_out(&self, graph: &Graph, c: usize, keep: impl Fn(u32, u32) -> bool) -> Graph {
        let (members, local, keep) = (self.members(c), &self.local, &keep);
        let half_edges = members.iter().map(|&v| graph.degree(v)).sum();
        let lists = members.iter().map(|&v| {
            let kept = graph.neighbors(v).iter().filter(move |e| keep(v, e.to));
            kept.map(|e| Edge { to: local[e.to as usize], delay_ms: e.delay_ms })
        });
        Graph::pack(lists, half_edges)
    }
}

/// One cell of a [`BridgeCells`] decomposition: the DFS subtree below a
/// bridge, which that bridge alone connects to the rest of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell {
    /// The router across the bridge, outside the cell.
    pub(crate) parent: u32,
    /// Delay of the bridge.
    pub(crate) bridge_ms: u16,
    /// Preorder position of the cell's router on the bridge (its DFS
    /// subtree root); the cell is the routers at preorder positions
    /// `lo..lo + len`.
    pub(crate) lo: u32,
    /// Routers in the cell.
    len: u32,
}

/// The bridge decomposition of a graph ([`Graph::bridge_cells`]).
///
/// Every router outside the 2-edge-connected core of its component
/// sits in a *cell*: the DFS subtree below its nearest ancestor-or-self
/// whose tree edge to its parent is a bridge with at most half the
/// routers under it. The bridge is the cell's only exit, so no shortest
/// path between two of its routers leaves it, and every shortest path
/// to the outside crosses the bridge — which is what lets
/// [`crate::LatencyOracle`] fill a row from a cell-local search plus
/// the row of the router across the bridge. Cells nest (a cell's
/// members include the cells hanging below it); routers with no such
/// ancestor — the core, and a DFS root's side of any bridge — have no
/// cell.
#[derive(Debug)]
pub(crate) struct BridgeCells {
    /// DFS preorder position of each router; a cell is a contiguous
    /// run of positions.
    pre: Vec<u32>,
    /// Index into `cells` of each router's cell, `NONE` outside them.
    cell_of: Vec<u32>,
    cells: Vec<Cell>,
}

impl BridgeCells {
    /// The cell router `v` sits in, if any.
    pub(crate) fn cell(&self, v: u32) -> Option<&Cell> {
        // `NONE` indexes past any cell list.
        self.cells.get(self.cell_of[v as usize] as usize)
    }

    /// DFS preorder position of router `v`: `pre(v) - cell.lo` is its
    /// slot in a cell-local search of `cell`, below `cell.len` exactly
    /// when `v` is in the cell.
    #[inline]
    pub(crate) fn pre(&self, v: u32) -> u32 {
        self.pre[v as usize]
    }

    /// The cells inside no other cell — those whose bridge parent sits
    /// outside every cell — in DFS post-order.
    pub(crate) fn outermost(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter().filter(|c| self.cell(c.parent).is_none())
    }

    /// The routers in DFS preorder: `order()[pre(v)] == v`.
    pub(crate) fn order(&self) -> Vec<u32> {
        let mut order = vec![NONE; self.pre.len()];
        for (v, &p) in self.pre.iter().enumerate() {
            order[p as usize] = v as u32;
        }
        order
    }
}

impl Graph {
    /// Packs per-router neighbour lists, router by router, into one
    /// graph; `half_edges` reserves the edge array.
    fn pack<L>(lists: impl Iterator<Item = L>, half_edges: usize) -> Graph
    where
        L: IntoIterator<Item = Edge>,
    {
        let mut offsets = Vec::with_capacity(lists.size_hint().0 + 1);
        offsets.push(0u32);
        let mut edges = Vec::with_capacity(half_edges);
        for list in lists {
            edges.extend(list);
            offsets.push(u32::try_from(edges.len()).expect("half-edges overflow u32"));
        }
        let max_delay = edges.iter().map(|e| e.delay_ms).max().unwrap_or(0);
        Graph { offsets: offsets.into_boxed_slice(), edges: edges.into_boxed_slice(), max_delay }
    }

    /// The mutable form back: the same lists in the same order, ready
    /// to grow.
    #[cfg(test)]
    pub(crate) fn to_builder(&self) -> GraphBuilder {
        let adj: Vec<Vec<Edge>> =
            (0..self.node_count() as u32).map(|u| self.neighbors(u).to_vec()).collect();
        let mut index = HashMap::with_capacity(self.edge_count());
        for (u, list) in adj.iter().enumerate() {
            for (i, e) in list.iter().enumerate() {
                let (at_min, at_max) = index.entry(pair_key(u as u32, e.to)).or_insert((0, 0));
                *if (u as u32) < e.to { at_min } else { at_max } = i as u32;
            }
        }
        GraphBuilder { adj, index }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len() / 2
    }

    /// Neighbours of `u`, in the order their links were added.
    #[must_use]
    pub fn neighbors(&self, u: u32) -> &[Edge] {
        &self.edges[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    /// Degree of `u`.
    #[must_use]
    pub fn degree(&self, u: u32) -> usize {
        self.neighbors(u).len()
    }

    /// Largest link delay present (sizes Dial bucket rings).
    #[must_use]
    pub fn max_delay(&self) -> u16 {
        self.max_delay
    }

    /// True if every node can reach every other node.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        Components::walk(self.node_count(), |u| self.neighbors(u), |_, _| true).count() <= 1
    }

    /// Single-source shortest path delays from `src` to every node,
    /// in milliseconds, saturating at `u16::MAX - 1`. Unreachable
    /// nodes report `u16::MAX`.
    ///
    /// Implemented with Dial's algorithm (a circular bucket queue):
    /// link delays are small integers (the topology models use 5, 20
    /// and 100 ms), so a `max_delay + 1`-wide bucket ring replaces the
    /// `O(log n)` binary heap with `O(1)` pushes and pops on the
    /// `10⁴`-router all-pairs warm-up. The distances produced are
    /// identical to the heap version (see [`Graph::dijkstra_heap`] and
    /// the equivalence tests).
    #[must_use]
    pub fn dijkstra(&self, src: u32) -> Box<[u16]> {
        let n = self.node_count();
        if n == 0 {
            return Box::default();
        }
        self.row(src, n, |v| Some(v as usize))
    }

    /// Shortest paths from `src` to the routers of its `cell`, never
    /// leaving the cell, clamped as [`Graph::dijkstra`] clamps, by
    /// preorder slot (`cells.pre(v) - cell.lo`; slot 0 is the cell
    /// root). Exact, not an approximation — the bridge is the only way
    /// out, so no shortest path between two members crosses it.
    pub(crate) fn dijkstra_cell(&self, src: u32, cells: &BridgeCells, cell: &Cell) -> Box<[u16]> {
        self.row(src, cell.len as usize, |v| {
            let s = cells.pre[v as usize].wrapping_sub(cell.lo);
            (s < cell.len).then_some(s as usize)
        })
    }

    /// One clamped row by slot, searched on the calling thread's
    /// scratch.
    fn row(&self, src: u32, slots: usize, slot: impl Fn(u32) -> Option<usize>) -> Box<[u16]> {
        SCRATCH.with_borrow_mut(|scratch| {
            self.dial(src, slots, slot, scratch, |_, _| true, |_, _| {});
            scratch.dist[..slots].iter().map(|&d| clamp_ms(d)).collect()
        })
    }

    /// The one Dial loop: shortest paths from `src` over the routers
    /// `slot` maps to `Some(index below slots)`, left unclamped in
    /// `scratch.dist` by slot (`u32::MAX` = unseen). Edges into routers
    /// mapped to `None` are not followed.
    ///
    /// Buckets are LIFO and each router's edges are relaxed in list
    /// order, so the settle order is a function of the graph alone.
    /// `settle(u, d)` sees each router as it settles at distance `d`,
    /// in that order, and says whether to relax its edges; `relax(u, v)`
    /// sees each strict improvement of `v`'s distance through `u`.
    pub(crate) fn dial(
        &self,
        src: u32,
        slots: usize,
        slot: impl Fn(u32) -> Option<usize>,
        scratch: &mut DialScratch,
        mut settle: impl FnMut(u32, u32) -> bool,
        mut relax: impl FnMut(u32, u32),
    ) {
        // One bucket per distinct distance residue; max edge weight C
        // bounds every queued tentative distance to [d, d + C], so
        // C + 1 buckets suffice.
        let nb = usize::from(self.max_delay) + 1;
        let DialScratch { dist, buckets, touched } = scratch;
        for &t in touched.iter() {
            dist[t as usize] = u32::MAX;
        }
        touched.clear();
        if dist.len() < slots {
            dist.resize(slots, u32::MAX);
        }
        if buckets.len() < nb {
            buckets.resize_with(nb, Vec::new);
        }
        let at = slot(src).expect("source inside the searched set");
        dist[at] = 0;
        touched.push(at as u32);
        buckets[0].push(src);
        let mut pending = 1usize;
        let mut d = 0usize;
        while pending > 0 {
            let b = d % nb;
            while let Some(u) = buckets[b].pop() {
                pending -= 1;
                let at = slot(u).expect("only routers inside the search are queued");
                if dist[at] != d as u32 || !settle(u, d as u32) {
                    continue; // superseded entry, or settled without expanding
                }
                for e in self.neighbors(u) {
                    let Some(to) = slot(e.to) else { continue };
                    let nd = d as u32 + u32::from(e.delay_ms);
                    if nd < dist[to] {
                        if dist[to] == u32::MAX {
                            touched.push(to as u32);
                        }
                        dist[to] = nd;
                        relax(u, e.to);
                        buckets[nd as usize % nb].push(e.to);
                        pending += 1;
                    }
                }
            }
            d += 1;
        }
    }

    /// Finds the bridges with one iterative DFS and groups the routers
    /// below them into cells (see [`BridgeCells`]). `O(nodes + edges)`.
    pub(crate) fn bridge_cells(&self) -> BridgeCells {
        let n = self.node_count();
        let mut pre = vec![NONE; n];
        // Lowest preorder position reachable from the subtree by tree
        // edges plus one back edge; `low == pre` at a non-root router
        // means the tree edge above it is a bridge (parallel links are
        // coalesced on insertion, so skipping the parent skips exactly
        // the tree edge).
        let mut low = vec![0u32; n];
        let mut up = vec![(NONE, 0u16); n];
        let mut order = Vec::with_capacity(n);
        let mut cell_of = vec![NONE; n];
        let mut cells = Vec::new();
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for start in 0..n as u32 {
            if pre[start as usize] != NONE {
                continue;
            }
            pre[start as usize] = order.len() as u32;
            low[start as usize] = order.len() as u32;
            order.push(start);
            stack.push((start, 0));
            while let Some(&mut (u, ref mut next)) = stack.last_mut() {
                if let Some(e) = self.neighbors(u).get(*next) {
                    *next += 1;
                    let v = e.to as usize;
                    if pre[v] == NONE {
                        pre[v] = order.len() as u32;
                        low[v] = order.len() as u32;
                        up[v] = (u, e.delay_ms);
                        order.push(e.to);
                        stack.push((e.to, 0));
                    } else if e.to != up[u as usize].0 {
                        low[u as usize] = low[u as usize].min(pre[v]);
                    }
                    continue;
                }
                stack.pop();
                let (parent, bridge_ms) = up[u as usize];
                if parent == NONE {
                    continue;
                }
                low[parent as usize] = low[parent as usize].min(low[u as usize]);
                let (lo, len) = (pre[u as usize], order.len() as u32 - pre[u as usize]);
                // The larger side of a bridge is not a cell: searching
                // it would cost more than half a full search, and a DFS
                // rooted inside a stub would otherwise make one cell of
                // everything else.
                if low[u as usize] == lo && 2 * len as usize <= n {
                    cell_of[u as usize] = cells.len() as u32;
                    cells.push(Cell { parent, bridge_ms, lo, len });
                }
            }
        }
        // Preorder visits a parent before its children, so one pass
        // hands every router its nearest enclosing cell.
        for &v in &order {
            let (parent, _) = up[v as usize];
            if cell_of[v as usize] == NONE && parent != NONE {
                cell_of[v as usize] = cell_of[parent as usize];
            }
        }
        BridgeCells { pre, cell_of, cells }
    }

    /// The original binary-heap Dijkstra, kept as the reference
    /// implementation the bucket-queue version is tested against.
    #[must_use]
    pub fn dijkstra_heap(&self, src: u32) -> Box<[u16]> {
        const UNREACHABLE: u32 = u32::MAX;
        let n = self.node_count();
        let mut dist = vec![UNREACHABLE; n];
        let mut out = vec![u16::MAX; n].into_boxed_slice();
        if n == 0 {
            return out;
        }
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        dist[src as usize] = 0;
        heap.push(Reverse((0, src)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for e in self.neighbors(u) {
                let nd = d + u32::from(e.delay_ms);
                if nd < dist[e.to as usize] {
                    dist[e.to as usize] = nd;
                    heap.push(Reverse((nd, e.to)));
                }
            }
        }
        for (o, d) in out.iter_mut().zip(dist) {
            if d != UNREACHABLE {
                *o = d.min(u32::from(u16::MAX - 1)) as u16;
            }
        }
        out
    }

    /// Shortest-path delay between one pair (convenience for tests;
    /// hot paths use [`crate::LatencyOracle`]).
    #[must_use]
    pub fn shortest_delay(&self, u: u32, v: u32) -> u16 {
        self.dijkstra(u)[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hieras_rt::Rng;
    use std::cell::RefCell;

    thread_local! {
        /// The working graph the calling thread last handed to
        /// [`GraphBuilder::into_shared`].
        pub(super) static LAST_SHARED: RefCell<Option<GraphBuilder>> = const { RefCell::new(None) };
    }

    fn line(n: usize, w: u16) -> Graph {
        let mut g = GraphBuilder::with_nodes(n);
        for i in 1..n {
            g.add_edge((i - 1) as u32, i as u32, w);
        }
        g.build()
    }

    /// The routers of `cell` in DFS preorder, the one on the bridge
    /// first.
    fn members(cells: &BridgeCells, cell: &Cell) -> Vec<u32> {
        let mut inside: Vec<u32> = (0..cells.pre.len() as u32)
            .filter(|&v| cells.pre(v).wrapping_sub(cell.lo) < cell.len)
            .collect();
        inside.sort_by_key(|&v| cells.pre(v));
        inside
    }

    fn random_graph(rng: &mut Rng) -> Graph {
        let n = rng.random_range(3usize..24);
        let mut g = GraphBuilder::with_nodes(n);
        for i in 1..n {
            let j = rng.random_range(0usize..i) as u32;
            g.add_edge(i as u32, j, rng.random_range(1u16..=50));
        }
        for _ in 0..n {
            let u = rng.random_range(0usize..n) as u32;
            let v = rng.random_range(0usize..n) as u32;
            g.add_edge(u, v, rng.random_range(1u16..=50));
        }
        g.build()
    }

    /// What the builder must list: each router's neighbours in the
    /// order their links were first added, at the smallest delay added.
    fn insertion_order(n: usize, links: &[(u32, u32, u16)]) -> Vec<Vec<Edge>> {
        let mut adj = vec![Vec::<Edge>::new(); n];
        for &(u, v, w) in links.iter().filter(|(u, v, _)| u != v) {
            for (a, b) in [(u, v), (v, u)] {
                match adj[a as usize].iter_mut().find(|e| e.to == b) {
                    Some(e) => e.delay_ms = e.delay_ms.min(w),
                    None => adj[a as usize].push(Edge { to: b, delay_ms: w }),
                }
            }
        }
        adj
    }

    fn lists(g: &Graph) -> Vec<Vec<Edge>> {
        (0..g.node_count() as u32).map(|u| g.neighbors(u).to_vec()).collect()
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(GraphBuilder::with_nodes(0).build().is_connected());
        assert!(GraphBuilder::with_nodes(1).build().is_connected());
        assert!(!GraphBuilder::with_nodes(2).build().is_connected());
    }

    #[test]
    fn add_edge_is_symmetric_and_counted() {
        let mut g = GraphBuilder::with_nodes(3);
        g.add_edge(0, 1, 10);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert_eq!((g.edge_count(), g.degree(0)), (1, 1));
        let g = g.build();
        assert_eq!((g.edge_count(), g.degree(0), g.degree(2)), (1, 1, 0));
        assert_eq!(g.neighbors(1), [Edge { to: 0, delay_ms: 10 }]);
    }

    #[test]
    fn parallel_edges_keep_min_delay() {
        let mut g = GraphBuilder::with_nodes(2);
        g.add_edge(0, 1, 50);
        g.add_edge(0, 1, 10);
        g.add_edge(0, 1, 90);
        let packed = g.clone().build();
        assert_eq!((packed.edge_count(), packed.max_delay()), (1, 10));
        assert_eq!(packed.shortest_delay(0, 1), 10);
        // Coalescing works from both directions of the pair.
        g.add_edge(1, 0, 4);
        let packed = g.build();
        assert_eq!(packed.edge_count(), 1);
        assert_eq!(packed.shortest_delay(0, 1), 4);
        assert_eq!(packed.shortest_delay(1, 0), 4);
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = GraphBuilder::with_nodes(2);
        g.add_edge(1, 1, 5);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.has_edge(1, 1));
        assert_eq!(g.build().degree(1), 0);
    }

    /// Random link streams — parallel links both ways round, self-loops
    /// — against the insertion-order reference, on the builder, on the
    /// packed graph, and grown further from [`Graph::to_builder`].
    #[test]
    fn packed_lists_keep_insertion_order_and_min_delays() {
        let mut rng = Rng::seed_from_u64(0x0c5e);
        for case in 0..200 {
            let n = rng.random_range(1usize..20);
            let link = |rng: &mut Rng| {
                let (u, v) = (rng.random_range(0..n) as u32, rng.random_range(0..n) as u32);
                (u, v, rng.random_range(0u16..=60))
            };
            let count = rng.random_range(0..4 * n);
            let mut links: Vec<_> = (0..count).map(|_| link(&mut rng)).collect();
            let mut g = GraphBuilder::with_nodes(n);
            for &(u, v, w) in &links {
                g.add_edge(u, v, w);
            }
            let want = insertion_order(n, &links);
            assert_eq!(g.adj, want, "case {case}: builder");
            let packed = g.build();
            assert_eq!(lists(&packed), want, "case {case}: packed");
            let mut grown = packed.to_builder();
            for _ in 0..n {
                let (u, v, w) = link(&mut rng);
                grown.add_edge(u, v, w);
                links.push((u, v, w));
            }
            assert_eq!(lists(&grown.build()), insertion_order(n, &links), "case {case}: regrown");
        }
    }

    /// The graph every world shares lists each router's neighbours as
    /// its generator's working graph did — in insertion order, at the
    /// coalesced minimum delays — which is what rows, the bridge DFS
    /// and the hub order walk.
    #[test]
    fn shared_worlds_keep_the_working_graphs_lists() {
        let worlds: [fn() -> crate::Topology; 3] = [
            || crate::TransitStubConfig::for_peers(2000, 5).generate(),
            || crate::InetConfig { nodes: 800, ..crate::InetConfig::for_peers(0, 6) }.generate(),
            || crate::BriteConfig::for_peers(600, 7).generate(),
        ];
        for generate in worlds {
            let topo = generate();
            let working = LAST_SHARED.with(|last| last.borrow_mut().take()).expect("handed over");
            assert_eq!(working.node_count(), topo.graph.node_count(), "{}", topo.model);
            assert_eq!(lists(&topo.graph), working.adj, "{}", topo.model);
        }
    }

    #[test]
    fn dijkstra_on_line() {
        let g = line(5, 7);
        let d = g.dijkstra(0);
        assert_eq!(&d[..], &[0, 7, 14, 21, 28]);
    }

    #[test]
    fn dijkstra_prefers_cheaper_detour() {
        // 0-1 expensive direct, 0-2-1 cheap detour.
        let mut g = GraphBuilder::with_nodes(3);
        g.add_edge(0, 1, 100);
        g.add_edge(0, 2, 10);
        g.add_edge(2, 1, 10);
        assert_eq!(g.build().shortest_delay(0, 1), 20);
    }

    #[test]
    fn dijkstra_unreachable_is_max() {
        let mut g = GraphBuilder::with_nodes(3);
        g.add_edge(0, 1, 1);
        assert_eq!(g.build().dijkstra(0)[2], u16::MAX);
    }

    #[test]
    fn dijkstra_saturates() {
        // Chain long enough to exceed u16::MAX total delay.
        let g = line(3, u16::MAX - 1);
        let d = g.dijkstra(0);
        assert_eq!(d[2], u16::MAX - 1); // saturated, still "reachable"
    }

    #[test]
    fn dijkstra_zero_weight_edges() {
        let mut g = GraphBuilder::with_nodes(3);
        g.add_edge(0, 1, 0);
        g.add_edge(1, 2, 3);
        assert_eq!(g.build().shortest_delay(0, 2), 3);
    }

    #[test]
    fn dijkstra_all_zero_graph() {
        // max_delay == 0 → a single bucket; must still terminate.
        let g = line(4, 0);
        assert_eq!(&g.dijkstra(0)[..], &[0, 0, 0, 0]);
    }

    /// Triangle inequality: d(a,c) <= d(a,b) + d(b,c) on random
    /// connected graphs (modulo saturation, which the sizes avoid).
    #[test]
    fn triangle_inequality() {
        let mut rng = Rng::seed_from_u64(0x7419);
        for _ in 0..200 {
            let g = random_graph(&mut rng);
            let n = g.node_count();
            let a = rng.random_range(0usize..n) as u32;
            let b = rng.random_range(0usize..n) as u32;
            let c = rng.random_range(0usize..n) as u32;
            let dab = u32::from(g.shortest_delay(a, b));
            let dbc = u32::from(g.shortest_delay(b, c));
            let dac = u32::from(g.shortest_delay(a, c));
            assert!(dac <= dab + dbc);
        }
    }

    /// A triangle with a branching tail: the tail is cut at its first
    /// bridge, its twigs are cells of their own nested inside it, and
    /// the triangle is the core.
    #[test]
    fn bridge_cells_nest_below_the_core() {
        let mut g = GraphBuilder::with_nodes(7);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (3, 5)] {
            g.add_edge(u, v, 1);
        }
        let cells = g.build().bridge_cells();
        for core in [0, 1, 2, 6] {
            assert_eq!(cells.cell(core), None, "router {core}");
        }
        let tail = cells.cell(3).expect("below the bridge 2-3");
        assert_eq!((tail.parent, members(&cells, tail)), (2, vec![3, 4, 5]));
        for twig in [4, 5] {
            let cell = cells.cell(twig).expect("a leaf is its own cell");
            assert_eq!((cell.parent, members(&cells, cell)), (3, vec![twig]));
        }
    }

    /// The larger side of a bridge is never a cell, wherever the DFS
    /// happens to start: a path rooted at one end cuts only its far
    /// half.
    #[test]
    fn bridge_cells_skip_the_larger_side() {
        let cells = line(6, 1).bridge_cells();
        let celled: Vec<u32> = (0..6).filter(|&v| cells.cell(v).is_some()).collect();
        assert_eq!(celled, [3, 4, 5]);
        assert_eq!(members(&cells, cells.cell(3).unwrap()), [3, 4, 5]);
    }

    /// On a Transit-Stub world no stub router's cell reaches past its
    /// own stub domain — the row search below a bridge is bounded by
    /// the domain size, whatever the world size.
    #[test]
    fn transit_stub_cells_stay_inside_their_stub_domain() {
        for seed in [1, 2, 3] {
            let cfg = crate::TransitStubConfig::for_peers(2000, seed);
            let topo = cfg.generate();
            let cells = topo.graph.bridge_cells();
            for &c in &topo.attach_candidates {
                let cell = cells.cell(c).expect("every stub router sits below a bridge");
                let members = members(&cells, cell);
                assert!(members.len() <= cfg.stub_nodes_per_domain, "seed {seed}: router {c}");
                assert!(
                    members.iter().all(|&m| topo.domain_of(m) == topo.domain_of(c)),
                    "seed {seed}: router {c}'s cell leaves its stub domain"
                );
            }
        }
    }

    /// One scratch recycled across sources, across graphs of different
    /// sizes and after pruned searches must reproduce a fresh row
    /// exactly — the lazy reset must leave nothing stale behind.
    #[test]
    fn dial_scratch_reuse_matches_fresh_rows() {
        let mut rng = Rng::seed_from_u64(0x5c7a);
        let mut scratch = DialScratch::default();
        for _ in 0..60 {
            let g = random_graph(&mut rng);
            let n = g.node_count();
            for src in 0..n as u32 {
                let all = |v: u32| Some(v as usize);
                // A pruned search first: it stops expanding at odd routers.
                g.dial(src, n, all, &mut scratch, |u, _| u % 2 == 0, |_, _| {});
                g.dial(src, n, all, &mut scratch, |_, _| true, |_, _| {});
                let row: Vec<u16> = scratch.dist[..n].iter().map(|&d| clamp_ms(d)).collect();
                assert_eq!(row[..], g.dijkstra_heap(src)[..], "src {src}");
            }
        }
    }

    /// The bucket-queue rows must be byte-identical to the heap rows
    /// on random graphs, including unreachable and saturating cases.
    #[test]
    fn bucket_queue_matches_heap_on_random_graphs() {
        let mut rng = Rng::seed_from_u64(0xd1a1);
        for _ in 0..100 {
            let g = random_graph(&mut rng);
            for src in 0..g.node_count() as u32 {
                assert_eq!(g.dijkstra(src), g.dijkstra_heap(src));
            }
        }
    }
}
