//! The latency oracle: exact underlay shortest-path delays behind one
//! query interface, with two interchangeable backends.
//!
//! Every overlay hop in the simulation costs the underlay shortest-path
//! delay between the two peers' attachment routers. The oracle answers
//! `latency(u, v)` identically under both backends — they trade build
//! time, memory, and per-query cost, never values:
//!
//! * **Rows** ([`LatencyOracle::new`]) — one lazily built entry per
//!   source asked for (`u16` milliseconds), memoized behind `OnceLock`s
//!   so concurrent readers race benignly. A source in the
//!   2-edge-connected core holds a full Dijkstra row. A source below a
//!   bridge (`graph::BridgeCells` — every stub router of a
//!   Transit-Stub world, the tree fringe of an Inet world, nothing on
//!   BRITE) holds only the distances inside its cell plus its delay to
//!   the router across the bridge: a target outside the cell is that
//!   delay plus the bridge parent's answer, so the product is never
//!   written out. Residency is a full row per core source and a
//!   cell-sized table per source below a bridge — 2.2 MB for the 10⁴
//!   peers of a Transit-Stub world where the N × N matrix was 202 MB;
//!   only a bridgeless graph (BRITE) still pays a row per source.
//!   [`RowStats`] counts which shape each entry took.
//! * **Labels** ([`LatencyOracle::with_labels_on`]) — exact 2-hop hub
//!   labels through the same bridge cells ([`FactoredLabels`]): the
//!   bridge of every outermost cell is cut and the cut graph labelled
//!   one component at a time — the core and each outermost cell with
//!   its own hub order, the components spread over the executor
//!   (pruned landmark labeling, [`crate::HubLabels`]) — and every
//!   router keeps the router across its outermost cell's bridge and its
//!   delay there. A pair inside one outermost cell is a merge of its
//!   two labels; any other pair is that delay at both ends plus a merge
//!   of the two core routers' short labels. Sub-quadratic build, tens
//!   of bytes per router instead of a row. The backend for 10⁵ routers
//!   and beyond, and for worlds with no cells to factor through
//!   (BRITE), where it labels the whole graph.

use crate::graph::{clamp_ms, BridgeCells, Cell};
use crate::{FactoredLabels, Graph, LabelStats};
use hieras_rt::Executor;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Sources per work chunk for parallel row precomputation. Sized for
/// the expensive case — a full search is a fraction of a millisecond
/// at 10⁴ routers, and four of them balance any worker count — and
/// harmless in the cheap one: claiming a chunk is one atomic add and
/// one slot write against ≥ 40 µs of composed rows (~10 µs each).
/// Measured at 4 / 32 / 256 on 2 threads: no difference beyond noise
/// on Transit-Stub 10k, Inet 5k or BRITE 5k, so the value stays.
const PRECOMPUTE_CHUNK: usize = 4;

/// Slots in the per-thread direct-mapped `(u, v)` memo on the labels
/// backend: 2^15 slots × 16 B = 512 KB per worker thread, small enough
/// to live in L2. It does not hold a large replay's working set:
/// `scale_labels100k`, which replays one set of 2 000 requests over
/// and over, reads a hit share of 0.51 / 0.69 / 0.82 at 2^14 / 2^15 /
/// 2^16 slots (2 threads, EXPERIMENTS.md) — the share follows
/// capacity.
const MEMO_SLOTS: usize = 1 << 15;

/// One entry of the per-thread label-query memo.
#[derive(Clone, Copy)]
struct MemoSlot {
    /// Oracle tag the entry answers for; 0 = never written.
    epoch: u64,
    /// Packed pair `(min << 32) | max` (latency is symmetric).
    key: u64,
    /// The memoized answer.
    val: u16,
}

thread_local! {
    /// One direct-mapped memo per worker thread, shared by every
    /// labels oracle alive on that thread. Entries are claimed per
    /// oracle through the epoch tag, so a fresh oracle can never read
    /// another oracle's (or a dead oracle's) value. Allocated lazily on
    /// the first memoized query of the thread.
    static MEMO: RefCell<Vec<MemoSlot>> = const { RefCell::new(Vec::new()) };
}

/// Distinct-tag source for [`MemoSlot::epoch`]; starts at 1 so 0 always
/// means "empty slot".
static MEMO_EPOCH: AtomicU64 = AtomicU64::new(1);

/// The label-query counters of one labels oracle, on a cache line of
/// their own. A query bumps exactly one of them, so queries served =
/// hits + misses, by definition. Next to anything a query *reads* —
/// the label arrays' pointers, or whatever the oracle's owner keeps
/// beside it — each bump costs the other threads a coherence miss on
/// that read (measured: EXPERIMENTS.md, "Rows that are never written").
#[derive(Debug, Default)]
#[repr(align(64))]
struct OwnLine {
    /// Queries answered from the memo.
    hits: AtomicU64,
    /// Queries answered by a label merge.
    misses: AtomicU64,
}

impl OwnLine {
    /// `(hits, misses)`.
    fn totals(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

/// The per-thread query memo of one labels oracle: the epoch tag its
/// entries carry in the calling thread's [`MEMO`] table. Its hit and
/// miss counts (the `label_memo.*` metrics) live in the oracle's
/// [`OwnLine`].
#[derive(Debug)]
struct LabelMemo {
    epoch: u64,
}

impl LabelMemo {
    /// Answers `latency(u, v)` through the calling thread's memo,
    /// falling back to (and recording) a label merge on miss.
    #[inline]
    fn latency(&self, labels: &FactoredLabels, counts: &OwnLine, u: u32, v: u32) -> u16 {
        let (lo, hi) = if u < v { (u, v) } else { (v, u) };
        let key = (u64::from(lo) << 32) | u64::from(hi);
        let slot_i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 49) as usize;
        MEMO.with(|cell| {
            let memo = &mut *cell.borrow_mut();
            if memo.is_empty() {
                memo.resize(MEMO_SLOTS, MemoSlot { epoch: 0, key: 0, val: 0 });
            }
            let slot = &mut memo[slot_i];
            if slot.epoch == self.epoch && slot.key == key {
                counts.hits.fetch_add(1, Ordering::Relaxed);
                return slot.val;
            }
            let val = labels.latency(u, v);
            *slot = MemoSlot { epoch: self.epoch, key, val };
            counts.misses.fetch_add(1, Ordering::Relaxed);
            val
        })
    }
}

/// How the resident rows were built ([`LatencyOracle::row_stats`]);
/// `searched + composed` is [`LatencyOracle::cached_rows`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowStats {
    /// Rows filled by a full-graph Dijkstra: sources in the
    /// 2-edge-connected core.
    pub searched: usize,
    /// Rows held as a cell-local search plus the delay to the bridge
    /// parent, whose row answers for everything outside the cell.
    pub composed: usize,
}

/// One resident row of the rows backend.
#[derive(Debug)]
enum Row {
    /// A source outside every cell: what [`Graph::dijkstra`] writes.
    Dense(Box<[u16]>),
    /// A source below a bridge. Every path out of its cell crosses the
    /// bridge, so `row[v]` is `inside[pre(v) - lo]` for a `v` in the
    /// cell and `exit + row(parent)[v]` for any other.
    Celled {
        /// The router across the bridge.
        parent: u32,
        /// Clamped delay from the source to `parent`.
        exit: u16,
        /// Preorder position of the cell's first router.
        lo: u32,
        /// Clamped cell-local distances by preorder slot.
        inside: Box<[u16]>,
        /// The first router up the chain of parents with a dense row,
        /// and the clamped sum of the exits on the way to it: what a
        /// target outside every cell around the source is answered
        /// from, in one step whatever the nesting.
        top: u32,
        top_exit: u16,
        /// Preorder range of the outermost cell around the source.
        outer_lo: u32,
        outer_len: u32,
    },
}

impl Row {
    /// Bytes of distance entries the row holds.
    fn bytes(&self) -> usize {
        let (Row::Dense(entries) | Row::Celled { inside: entries, .. }) = self;
        std::mem::size_of_val::<[u16]>(entries)
    }
}

/// Storage strategy behind a [`LatencyOracle`].
#[derive(Debug)]
enum Backend {
    /// One lazily built [`Row`] per source asked for.
    Rows {
        rows: Vec<OnceLock<Row>>,
        /// Rows resident in `rows` — maintained at row-init time so
        /// [`LatencyOracle::cached_rows`] is O(1), not a scan.
        materialized: AtomicUsize,
        /// How many of those are [`Row::Celled`].
        composed: AtomicUsize,
        /// Distance entries those rows hold, in bytes.
        bytes: AtomicUsize,
        /// The graph's bridge decomposition.
        cells: BridgeCells,
    },
    /// Exact 2-hop hub labels through bridge cells, memoized per
    /// thread.
    Labels { labels: FactoredLabels, counts: OwnLine, memo: LabelMemo },
}

/// Exact shortest-path delays over a router graph.
///
/// Cheap to share by reference across threads; all methods take
/// `&self`. The graph is held by [`Arc`], so a world's
/// [`crate::Topology`] and its oracle share one copy.
#[derive(Debug)]
pub struct LatencyOracle {
    graph: Arc<Graph>,
    backend: Backend,
}

impl LatencyOracle {
    /// Wraps a router graph with the rows backend. The bridges are
    /// found (one DFS); no shortest paths are computed yet.
    #[must_use]
    pub fn new(graph: impl Into<Arc<Graph>>) -> Self {
        let graph = graph.into();
        let n = graph.node_count();
        let mut rows = Vec::with_capacity(n);
        rows.resize_with(n, OnceLock::new);
        let cells = graph.bridge_cells();
        LatencyOracle {
            graph,
            backend: Backend::Rows {
                rows,
                materialized: AtomicUsize::new(0),
                composed: AtomicUsize::new(0),
                bytes: AtomicUsize::new(0),
                cells,
            },
        }
    }

    /// Wraps a router graph with exact 2-hop hub labels built on
    /// `exec`. The build is the whole cost — queries never run a
    /// Dijkstra — and the labels are bit-identical at any thread
    /// count. Every query answer matches the rows backend exactly.
    /// Queries go through a per-thread memo, which exploits replay
    /// lookup locality (the same router pairs recur across requests)
    /// and never changes an answer.
    #[must_use]
    pub fn with_labels_on(exec: &Executor, graph: impl Into<Arc<Graph>>) -> Self {
        let graph = graph.into();
        let labels = FactoredLabels::build_on(exec, &graph);
        let memo = LabelMemo { epoch: MEMO_EPOCH.fetch_add(1, Ordering::Relaxed) };
        LatencyOracle { graph, backend: Backend::Labels { labels, counts: OwnLine::default(), memo } }
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Short name of the active backend: `"rows"` or `"labels"`.
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            Backend::Rows { .. } => "rows",
            Backend::Labels { .. } => "labels",
        }
    }

    /// The full distance row from router `src`, written out entry by
    /// entry through [`LatencyOracle::latency`] — byte for byte what
    /// [`Graph::dijkstra`] returns. For tests and one-off inspection;
    /// nothing resident has this shape below a bridge.
    ///
    /// # Panics
    /// Panics on the labels backend (no rows exist).
    #[must_use]
    pub fn row(&self, src: u32) -> Vec<u16> {
        assert!(
            matches!(self.backend, Backend::Rows { .. }),
            "row({src}): labels backend holds no rows; use latency()"
        );
        (0..self.graph.node_count() as u32).map(|v| self.latency(src, v)).collect()
    }

    /// `src`'s resident row, built on first use.
    #[inline]
    fn resident<'a>(&'a self, rows: &'a [OnceLock<Row>], src: u32) -> &'a Row {
        match rows[src as usize].get() {
            Some(row) => row,
            None => self.fill(src),
        }
    }

    /// The row of `src`, a router of `cell`, given the resident row of
    /// the router across the cell's bridge.
    fn compose(&self, src: u32, cells: &BridgeCells, cell: &Cell, above: &Row) -> Row {
        let inside = self.graph.dijkstra_cell(src, cells, cell);
        let exit = clamp_ms(u32::from(inside[0]) + u32::from(cell.bridge_ms));
        let (top, top_exit, outer_lo, outer_len) = match above {
            Row::Dense(_) => (cell.parent, exit, cell.lo, inside.len() as u32),
            Row::Celled { top, top_exit, outer_lo, outer_len, .. } => {
                (*top, clamp_ms(u32::from(*top_exit) + u32::from(exit)), *outer_lo, *outer_len)
            }
        };
        Row::Celled {
            parent: cell.parent,
            exit,
            lo: cell.lo,
            inside,
            top,
            top_exit,
            outer_lo,
            outer_len,
        }
    }

    /// Makes `src`'s row resident, and with it the row of every bridge
    /// parent above it, so that a query never has to build one midway.
    ///
    /// A router in a cell keeps `d_cell(src, v)` for the cell and
    /// `d_cell(src, root) + bridge` as its way out — every path out
    /// crosses the bridge, so both are exact, and each is clamped as
    /// [`Graph::dijkstra`] clamps. A router outside every cell gets the
    /// full search.
    ///
    /// Kept out of line: inlined into [`LatencyOracle::latency`] it
    /// grows the frame every resident-row query sets up.
    #[cold]
    #[inline(never)]
    fn fill(&self, src: u32) -> &Row {
        let Backend::Rows { rows, materialized, composed, bytes, cells } = &self.backend else {
            unreachable!("fill() is only reached from the rows backend");
        };
        let fill_one = move |src: u32| {
            rows[src as usize].get_or_init(|| {
                materialized.fetch_add(1, Ordering::Relaxed);
                let row = match cells.cell(src) {
                    None => Row::Dense(self.graph.dijkstra(src)),
                    Some(cell) => {
                        composed.fetch_add(1, Ordering::Relaxed);
                        let above = rows[cell.parent as usize].get();
                        self.compose(src, cells, cell, above.expect("parents are filled first"))
                    }
                };
                bytes.fetch_add(row.bytes(), Ordering::Relaxed);
                row
            })
        };
        // Bridge parents still missing their rows, nearest first. Each
        // step crosses a bridge towards the DFS root, so the climb ends
        // at a resident row or in the core; filling top-down means a
        // resident row's parents are resident too, on any thread.
        let mut missing = Vec::new();
        let mut at = src;
        while let Some(cell) = cells.cell(at) {
            if rows[cell.parent as usize].get().is_some() {
                break;
            }
            missing.push(cell.parent);
            at = cell.parent;
        }
        for &parent in missing.iter().rev() {
            fill_one(parent);
        }
        fill_one(src)
    }

    /// Shortest-path delay in milliseconds between routers `u` and `v`.
    ///
    /// `u == v` is answered as 0 without touching any backend state.
    /// Both backends return identical values.
    #[inline]
    #[must_use]
    pub fn latency(&self, u: u32, v: u32) -> u16 {
        if u == v {
            return 0;
        }
        match &self.backend {
            Backend::Labels { .. } => self.label_latency(u, v),
            Backend::Rows { rows, cells, .. } => {
                let mut row = self.resident(rows, u);
                let mut exits = 0u32;
                // A target outside every cell around `u` — most of them
                // — is one step away however deep `u` sits. (Walking
                // there costs a mispredicted branch per query on worlds
                // whose sources sit at mixed depths: ≈ 25 → 10 ns on a
                // random pair of a 10⁴-peer Transit-Stub world.)
                if let Row::Celled { top, top_exit, outer_lo, outer_len, .. } = row {
                    if cells.pre(v).wrapping_sub(*outer_lo) >= *outer_len {
                        exits = u32::from(*top_exit);
                        row = self.resident(rows, *top);
                    }
                }
                // Otherwise up through the cells around `u` until one
                // holds `v`, summing the bridge crossings.
                let base = loop {
                    match row {
                        Row::Dense(all) => break all[v as usize],
                        Row::Celled { parent, exit, lo, inside, .. } => {
                            let slot = cells.pre(v).wrapping_sub(*lo) as usize;
                            if let Some(&d) = inside.get(slot) {
                                break d;
                            }
                            exits = exits.saturating_add(u32::from(*exit));
                            row = self.resident(rows, *parent);
                        }
                    }
                };
                // One clamp for the whole walk: every term is ≥ 0, so
                // `min(min(b + e₂, M) + e₁, M) = min(b + e₁ + e₂, M)` —
                // the nested per-row clamps of a written-out row.
                match base {
                    u16::MAX => u16::MAX,
                    _ => u32::from(base).saturating_add(exits).min(u32::from(u16::MAX - 1)) as u16,
                }
            }
        }
    }

    /// [`LatencyOracle::latency`] on the labels backend. Kept out of
    /// line, like [`LatencyOracle::fill`], so that the rows backend's
    /// inlined query does not set up the frame of this one.
    #[inline(never)]
    fn label_latency(&self, u: u32, v: u32) -> u16 {
        let Backend::Labels { labels, counts, memo } = &self.backend else {
            unreachable!("label_latency() is only reached from the labels backend");
        };
        // One count per query answered: a memo hit or a miss (a label
        // merge).
        memo.latency(labels, counts, u, v)
    }

    /// Number of resident rows (0 on the labels backend): every source
    /// asked for, plus the bridge parents above them. O(1): the count
    /// is maintained at row-init time, not by scanning.
    #[must_use]
    pub fn cached_rows(&self) -> usize {
        match &self.backend {
            Backend::Rows { materialized, .. } => materialized.load(Ordering::Relaxed),
            Backend::Labels { .. } => 0,
        }
    }

    /// How the resident rows were built: full searches vs. rows
    /// composed through a bridge. Counted at row-init time only —
    /// [`LatencyOracle::latency`] never touches these — so a slow world
    /// build can be read off the two numbers. All zero on the labels
    /// backend.
    #[must_use]
    pub fn row_stats(&self) -> RowStats {
        match &self.backend {
            Backend::Rows { composed, .. } => {
                let composed = composed.load(Ordering::Relaxed);
                RowStats { searched: self.cached_rows().saturating_sub(composed), composed }
            }
            Backend::Labels { .. } => RowStats::default(),
        }
    }

    /// Label-size statistics plus the number of queries served (memo
    /// hits included; `u == v` excluded), if this oracle runs on the
    /// labels backend. Counters aggregate across threads.
    #[must_use]
    pub fn label_stats(&self) -> Option<(LabelStats, u64)> {
        match &self.backend {
            Backend::Labels { labels, counts, .. } => {
                let (hits, misses) = counts.totals();
                Some((labels.stats(), hits + misses))
            }
            Backend::Rows { .. } => None,
        }
    }

    /// `(hits, misses)` of the per-thread query memo, if this oracle
    /// runs on the labels backend — the `label_memo.*` metrics.
    /// Counters aggregate across threads.
    #[must_use]
    pub fn memo_stats(&self) -> Option<(u64, u64)> {
        match &self.backend {
            Backend::Labels { counts, .. } => Some(counts.totals()),
            Backend::Rows { .. } => None,
        }
    }

    /// Eagerly computes the rows for the given sources in parallel on
    /// `exec`.
    ///
    /// Experiments know exactly which routers host peers; warming those
    /// rows up front turns the replay phase into pure lookups. A no-op
    /// on the labels backend, whose build is its own precompute.
    pub fn precompute_on(&self, exec: &Executor, sources: &[u32]) {
        let Backend::Rows { rows, .. } = &self.backend else {
            return;
        };
        exec.par_for_each(sources.len(), PRECOMPUTE_CHUNK, |i| {
            self.resident(rows, sources[i]);
        });
    }

    /// Bytes held by the backend: the distance entries of the resident
    /// rows (counted at row-init time, never on the query path), or
    /// the cut-graph label arrays plus the per-router exit table.
    #[must_use]
    pub fn cache_bytes(&self) -> usize {
        match &self.backend {
            Backend::Rows { bytes, .. } => bytes.load(Ordering::Relaxed),
            Backend::Labels { labels, .. } => labels.bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        let mut g = GraphBuilder::with_nodes(3);
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 10);
        g.add_edge(0, 2, 50);
        g.build()
    }

    fn line(n: u32) -> Graph {
        let mut g = GraphBuilder::with_nodes(n as usize);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, 5);
        }
        g.build()
    }

    #[test]
    fn latency_matches_dijkstra_and_is_symmetric() {
        let o = LatencyOracle::new(triangle());
        assert_eq!(o.latency(0, 2), 20);
        assert_eq!(o.latency(2, 0), 20);
        assert_eq!(o.latency(0, 0), 0);
    }

    #[test]
    fn rows_are_cached_lazily() {
        let o = LatencyOracle::new(triangle());
        assert_eq!(o.cached_rows(), 0);
        let _ = o.latency(0, 1);
        assert_eq!(o.cached_rows(), 1);
        let _ = o.latency(0, 2); // same row
        assert_eq!(o.cached_rows(), 1);
    }

    #[test]
    fn self_latency_never_materializes_a_row() {
        let o = LatencyOracle::new(triangle());
        assert_eq!(o.latency(1, 1), 0);
        assert_eq!(o.cached_rows(), 0);
    }

    #[test]
    fn precompute_warms_requested_rows() {
        let o = LatencyOracle::new(triangle());
        let exec = Executor::new(2);
        o.precompute_on(&exec, &[0, 2]);
        assert_eq!(o.cached_rows(), 2);
        o.precompute_on(&exec, &[0, 1, 2]);
        assert_eq!(o.cached_rows(), 3);
        assert_eq!(o.cache_bytes(), 3 * 3 * 2, "no bridge: three full rows");
    }

    /// `cache_bytes` is what is held, not rows × routers: below a
    /// bridge a source keeps its cell's distances only.
    #[test]
    fn cache_bytes_counts_cell_tables_not_full_rows() {
        // Triangle 0-1-2 with the tail 2-3-4: {3, 4} and {4} are cells.
        let mut g = triangle().to_builder();
        let (a, b) = (g.add_node(), g.add_node());
        g.add_edge(2, a, 7);
        g.add_edge(a, b, 9);
        let o = LatencyOracle::new(g.build());
        assert_eq!(o.latency(b, 0), 9 + 7 + 20);
        assert_eq!(o.row_stats(), RowStats { searched: 1, composed: 2 });
        assert_eq!(o.cache_bytes(), (5 + 2 + 1) * 2, "row of 2, cell table of 3, of 4");
        assert_eq!(o.row(b), [36, 26, 16, 9, 0]);
        assert_eq!(o.cache_bytes(), (5 + 2 + 1) * 2, "row() holds on to nothing");
    }

    #[test]
    fn concurrent_row_access_is_consistent() {
        let o = LatencyOracle::new(triangle());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for u in 0..3u32 {
                        for v in 0..3u32 {
                            let fwd = o.latency(u, v);
                            let bwd = o.latency(v, u);
                            assert_eq!(fwd, bwd);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn labels_backend_matches_rows_exactly() {
        let free = LatencyOracle::new(line(24));
        let labels = LatencyOracle::with_labels_on(&Executor::new(2), line(24));
        assert_eq!(labels.backend_name(), "labels");
        for u in 0..24u32 {
            for v in 0..24u32 {
                assert_eq!(labels.latency(u, v), free.latency(u, v), "({u},{v})");
            }
        }
        let (stats, queries) = labels.label_stats().expect("labels backend");
        assert_eq!(queries, 24 * 23, "u == v is answered before counting");
        assert!(stats.entries > 0 && stats.hubs > 0);
        assert_eq!(labels.cached_rows(), 0);
        assert_eq!(labels.row_stats(), RowStats::default());
        assert!(labels.cache_bytes() > 0);
    }

    /// The memo must be invisible in answers: every query repeated
    /// twice (cold then memoized) against the rows backend, the
    /// reference, on a graph with enough pairs to force direct-mapped
    /// slot collisions and overwrites.
    #[test]
    fn memoized_labels_match_rows() {
        let exec = Executor::new(1);
        let rows = LatencyOracle::new(line(60));
        let labels = LatencyOracle::with_labels_on(&exec, line(60));
        assert_eq!(rows.memo_stats(), None);
        for pass in 0..2 {
            for u in 0..60u32 {
                for v in 0..60u32 {
                    assert_eq!(labels.latency(u, v), rows.latency(u, v), "pass {pass} ({u},{v})");
                }
            }
        }
        let (hits, misses) = labels.memo_stats().expect("labels backend");
        assert!(hits > 0, "second pass must hit the memo");
        assert!(misses > 0, "first pass must miss the memo");
        assert_eq!(hits + misses, 2 * 60 * 59, "every non-self query goes through the memo");
        let (_, queries) = labels.label_stats().expect("labels backend");
        assert_eq!(queries, 2 * 60 * 59, "memo hits still count as queries");
    }

    /// The query counters sum to exactly the queries issued:
    /// barrier-started threads at widths 1, 2 and 8.
    #[test]
    fn label_counters_are_exact_under_concurrency() {
        const PER_THREAD: u64 = 4_000;
        let exec = Executor::new(1);
        for width in [1u64, 2, 8] {
            let o = LatencyOracle::with_labels_on(&exec, line(40));
            let start = std::sync::Barrier::new(width as usize);
            std::thread::scope(|s| {
                for t in 0..width {
                    let (o, start) = (&o, &start);
                    s.spawn(move || {
                        start.wait();
                        for q in 0..PER_THREAD {
                            let u = ((q + t) % 40) as u32;
                            let v = (u + 1 + (q % 39) as u32) % 40; // never u
                            let _ = o.latency(u, v);
                        }
                    });
                }
            });
            let issued = PER_THREAD * width;
            let (_, queries) = o.label_stats().expect("labels backend");
            assert_eq!(queries, issued, "{width} threads");
            let (hits, misses) = o.memo_stats().expect("labels backend");
            assert_eq!(hits + misses, issued, "{width} threads");
        }
    }

    /// Two oracles alive on the same thread must not cross-read memo
    /// slots: the epoch tag isolates them even when their (u, v) pairs
    /// collide on the same direct-mapped slot.
    #[test]
    fn memo_epochs_isolate_oracles() {
        let exec = Executor::new(1);
        let a = LatencyOracle::with_labels_on(&exec, line(30));
        let b = LatencyOracle::with_labels_on(&exec, triangle());
        for u in 0..30u32 {
            for v in 0..30u32 {
                let _ = a.latency(u, v);
            }
        }
        // Same small indices, different graph — must answer from b's
        // labels, not a's memoized values.
        let fresh = LatencyOracle::new(triangle());
        for u in 0..3u32 {
            for v in 0..3u32 {
                assert_eq!(b.latency(u, v), fresh.latency(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn labels_precompute_is_a_noop() {
        let exec = Executor::new(2);
        let o = LatencyOracle::with_labels_on(&exec, triangle());
        o.precompute_on(&exec, &[0, 1]);
        assert_eq!(o.cached_rows(), 0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| o.row(0)));
        assert!(caught.is_err(), "labels backend must refuse row()");
    }
}
