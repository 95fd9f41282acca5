//! The latency oracle: exact underlay shortest-path delays behind one
//! query interface, with three interchangeable backends.
//!
//! Every overlay hop in the simulation costs the underlay shortest-path
//! delay between the two peers' attachment routers. The oracle answers
//! `latency(u, v)` identically under all backends — they trade build
//! time, memory, and per-query cost, never values:
//!
//! * **Rows** ([`LatencyOracle::new`]) — lazily cached full distance
//!   rows (`u16` milliseconds), memoized behind `OnceLock`s so
//!   concurrent readers race benignly. O(1) queries and N×N `u16`s of
//!   residency for N distinct sources (20 GB at 10⁵ routers). A source
//!   in the 2-edge-connected core costs a full Dijkstra; a source
//!   below a bridge (`graph::BridgeCells` — every stub router of a
//!   Transit-Stub world, the tree fringe of an Inet world, nothing on
//!   BRITE) costs a search of its cell plus one saturating vector add
//!   over the row of the router across the bridge, and yields the same
//!   bytes ([`RowStats`] counts which way each row was built).
//! * **Bounded** ([`LatencyOracle::with_row_budget`]) — Rows with a cap
//!   on resident rows: the first `budget/2` distinct sources pin
//!   permanently into the lock-free `OnceLock` segment, the remainder
//!   cycle through 16 mutex-sharded CLOCK caches whose capacities
//!   partition the rest of the budget *exactly* (pinned + overflow
//!   never exceeds the budget). Misses recompute through a pooled
//!   row/scratch pair ([`Graph::dijkstra_into`]), so steady state
//!   allocates nothing. Hit/miss/eviction counters ([`CacheStats`])
//!   quantify the trade.
//! * **Labels** ([`LatencyOracle::with_labels_on`]) — exact 2-hop hub
//!   labels ([`HubLabels`]): sub-quadratic build (pruned landmark
//!   labeling), tens of bytes per router instead of a row, queries by
//!   sorted label merge. The backend that takes a 10⁵-router build
//!   from ~20 minutes / 20 GB to seconds / tens of MB.

use crate::graph::{clamp_ms, BridgeCells, DijkstraScratch};
use crate::{Graph, HubLabels, LabelStats};
use hieras_rt::Executor;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Sources per work chunk for parallel row precomputation. Sized for
/// the expensive case — a full search is a fraction of a millisecond
/// at 10⁴ routers, and four of them balance any worker count — and
/// harmless in the cheap one: claiming a chunk is one atomic add and
/// one slot write against ≥ 40 µs of composed rows (~10 µs each).
/// Measured at 4 / 32 / 256 on 2 threads: no difference beyond noise
/// on Transit-Stub 10k, Inet 5k or BRITE 5k, so the value stays.
const PRECOMPUTE_CHUNK: usize = 4;

/// Slots in the per-thread direct-mapped `(u, v)` memo on the labels
/// backend: 2^15 slots × 16 B = 512 KB per worker thread — large
/// enough to hold a replay's working set of router pairs, small enough
/// to live in L2.
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

/// The per-thread query memo of one labels oracle: its epoch tag plus
/// hit/miss counters (the `label_memo.*` metrics).
#[derive(Debug)]
struct LabelMemo {
    epoch: u64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl LabelMemo {
    /// Answers `latency(u, v)` through the calling thread's memo,
    /// falling back to (and recording) a label merge on miss.
    #[inline]
    fn latency(&self, labels: &HubLabels, u: u32, v: u32) -> u16 {
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
                self.hits.fetch_add(1, Ordering::Relaxed);
                return slot.val;
            }
            let val = labels.latency(u, v);
            *slot = MemoSlot { epoch: self.epoch, key, val };
            self.misses.fetch_add(1, Ordering::Relaxed);
            val
        })
    }
}

/// Mutex shards for the bounded overflow cache. Sixteen shards keep
/// contention negligible at replay thread counts while the per-shard
/// linear scans stay short.
const OVERFLOW_SHARDS: usize = 16;

/// Upper bound on pooled row buffers / Dijkstra scratches kept for
/// reuse on the bounded miss path. Bounded by concurrency in practice;
/// the cap just keeps a pathological burst from pinning memory.
const POOL_CAP: usize = 16;

/// Cache-effectiveness counters of a bounded [`LatencyOracle`]
/// (all zero in unbounded mode, where no counting happens on the hot
/// path, and on the labels backend, which holds no rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from a resident row (pinned or overflow).
    pub hits: u64,
    /// Queries that had to run a fresh Dijkstra.
    pub misses: u64,
    /// Rows evicted from the overflow shards. At most one per miss.
    pub evictions: u64,
    /// Rows pinned in the lock-free segment.
    pub pinned: usize,
    /// Rows currently resident (pinned + overflow).
    pub resident: usize,
    /// The row budget, if bounded.
    pub budget: Option<usize>,
}

/// How the rows resident in the lock-free segment were built
/// ([`LatencyOracle::row_stats`]); `searched + composed` is
/// [`LatencyOracle::cached_rows`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowStats {
    /// Rows filled by a full-graph Dijkstra: sources in the
    /// 2-edge-connected core, and every row of a bounded oracle.
    pub searched: usize,
    /// Rows filled by a cell-local search plus a vector add over the
    /// bridge parent's row.
    pub composed: usize,
}

/// One slot of a CLOCK shard: a materialized row plus its
/// second-chance bit.
#[derive(Debug)]
struct ClockSlot {
    src: u32,
    row: Box<[u16]>,
    referenced: bool,
}

/// Outcome of a [`ClockShard::insert`]: whether the row was stored,
/// and any displaced buffer handed back for pooling.
enum Insert {
    /// Row stored in a free slot.
    Stored,
    /// Row stored by evicting another; the evicted buffer is returned.
    Evicted(Box<[u16]>),
    /// Row not stored (zero capacity, or another thread raced the same
    /// source in first); the unused buffer is returned.
    Rejected(Box<[u16]>),
}

/// A CLOCK (second-chance) eviction shard. Capacity is enforced by the
/// caller; lookups are linear scans, fine for the small per-shard
/// capacities a row budget implies.
#[derive(Debug, Default)]
struct ClockShard {
    slots: Vec<ClockSlot>,
    hand: usize,
}

impl ClockShard {
    /// The cached `row[src][v]`, marking the row recently used.
    fn lookup(&mut self, src: u32, v: u32) -> Option<u16> {
        for s in &mut self.slots {
            if s.src == src {
                s.referenced = true;
                return Some(s.row[v as usize]);
            }
        }
        None
    }

    /// Inserts a freshly computed row, evicting the first
    /// not-recently-used slot once at capacity. A row another thread
    /// raced in is kept as-is; a zero-capacity shard stores nothing.
    fn insert(&mut self, src: u32, row: Box<[u16]>, cap: usize) -> Insert {
        for s in &mut self.slots {
            if s.src == src {
                s.referenced = true;
                return Insert::Rejected(row);
            }
        }
        if cap == 0 {
            return Insert::Rejected(row);
        }
        if self.slots.len() < cap {
            self.slots.push(ClockSlot { src, row, referenced: true });
            return Insert::Stored;
        }
        loop {
            let h = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let s = &mut self.slots[h];
            if s.referenced {
                s.referenced = false;
            } else {
                let old = std::mem::replace(s, ClockSlot { src, row, referenced: true });
                return Insert::Evicted(old.row);
            }
        }
    }
}

/// State a bounded oracle carries on top of the `OnceLock` row vector.
#[derive(Debug)]
struct Bound {
    /// Total row budget requested.
    budget: usize,
    /// Rows allowed to pin into the lock-free segment (`budget / 2`).
    pin_cap: usize,
    /// Pin slots claimed so far.
    pinned: AtomicUsize,
    /// Overflow rows divided exactly across the shards: shard `i` holds
    /// `overflow / SHARDS` slots plus one of the `overflow % SHARDS`
    /// remainder slots, so pinned + overflow capacity == budget.
    overflow_base: usize,
    overflow_rem: usize,
    shards: Box<[Mutex<ClockShard>]>,
    /// Recycled row buffers for the miss path (fed by evictions and
    /// lost insertion races).
    row_pool: Mutex<Vec<Box<[u16]>>>,
    /// Recycled Dijkstra scratches for the miss path.
    scratch_pool: Mutex<Vec<DijkstraScratch>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Bound {
    fn new(budget: usize) -> Self {
        let budget = budget.max(1);
        let pin_cap = budget / 2;
        let overflow = budget - pin_cap;
        Bound {
            budget,
            pin_cap,
            pinned: AtomicUsize::new(0),
            overflow_base: overflow / OVERFLOW_SHARDS,
            overflow_rem: overflow % OVERFLOW_SHARDS,
            shards: (0..OVERFLOW_SHARDS).map(|_| Mutex::new(ClockShard::default())).collect(),
            row_pool: Mutex::new(Vec::new()),
            scratch_pool: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Claims one pin slot if any remain.
    fn try_claim_pin(&self) -> bool {
        self.pinned
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| {
                (p < self.pin_cap).then_some(p + 1)
            })
            .is_ok()
    }

    /// Returns a pin slot claimed for a row another thread pinned first.
    fn release_pin(&self) {
        self.pinned.fetch_sub(1, Ordering::Relaxed);
    }

    fn shard_index(&self, src: u32) -> usize {
        src as usize % OVERFLOW_SHARDS
    }

    fn shard_cap(&self, idx: usize) -> usize {
        self.overflow_base + usize::from(idx < self.overflow_rem)
    }

    /// Pops a recycled row buffer, or allocates one of `n` entries.
    fn take_row(&self, n: usize) -> Box<[u16]> {
        self.row_pool
            .lock()
            .expect("pool poisoned")
            .pop()
            .unwrap_or_else(|| vec![u16::MAX; n].into_boxed_slice())
    }

    /// Returns a displaced row buffer to the pool (dropped past cap).
    fn recycle_row(&self, row: Box<[u16]>) {
        let mut pool = self.row_pool.lock().expect("pool poisoned");
        if pool.len() < POOL_CAP {
            pool.push(row);
        }
    }

    fn take_scratch(&self) -> DijkstraScratch {
        self.scratch_pool.lock().expect("pool poisoned").pop().unwrap_or_default()
    }

    fn recycle_scratch(&self, scratch: DijkstraScratch) {
        let mut pool = self.scratch_pool.lock().expect("pool poisoned");
        if pool.len() < POOL_CAP {
            pool.push(scratch);
        }
    }
}

/// Storage strategy behind a [`LatencyOracle`].
#[derive(Debug)]
enum Backend {
    /// Cached full distance rows, optionally budget-bounded.
    Rows {
        rows: Vec<OnceLock<Box<[u16]>>>,
        /// Rows resident in `rows` — maintained at row-init time so
        /// [`LatencyOracle::cached_rows`] is O(1), not a scan.
        materialized: AtomicUsize,
        /// How many of those were composed through a bridge rather
        /// than searched (always 0 on a bounded oracle).
        composed: AtomicUsize,
        /// The graph's bridge decomposition, found on the first row an
        /// unbounded oracle materialises.
        cells: OnceLock<BridgeCells>,
        bound: Option<Bound>,
    },
    /// Exact 2-hop hub labels, optionally memoized per thread.
    Labels { labels: HubLabels, queries: AtomicU64, memo: Option<LabelMemo> },
}

/// Exact shortest-path delays over a router graph.
///
/// Cheap to share by reference across threads; all methods take
/// `&self`.
#[derive(Debug)]
pub struct LatencyOracle {
    graph: Graph,
    backend: Backend,
}

impl LatencyOracle {
    /// Wraps a router graph with an unbounded row cache. No shortest
    /// paths are computed yet.
    #[must_use]
    pub fn new(graph: Graph) -> Self {
        let n = graph.node_count();
        let mut rows = Vec::with_capacity(n);
        rows.resize_with(n, OnceLock::new);
        LatencyOracle {
            graph,
            backend: Backend::Rows {
                rows,
                materialized: AtomicUsize::new(0),
                composed: AtomicUsize::new(0),
                cells: OnceLock::new(),
                bound: None,
            },
        }
    }

    /// Wraps a router graph with at most `budget_rows` rows resident
    /// (clamped to ≥ 1), each filled by a plain full search — composing
    /// would pin bridge parents nobody asked for against the budget.
    /// The first `budget_rows / 2` distinct sources
    /// pin into the lock-free segment and keep the `OnceLock` fast
    /// path; later sources share the remaining budget through sharded
    /// CLOCK caches whose capacities sum exactly to the rest of the
    /// budget. Latencies are identical to the unbounded oracle — only
    /// residency and recomputation differ.
    #[must_use]
    pub fn with_row_budget(graph: Graph, budget_rows: usize) -> Self {
        let mut o = Self::new(graph);
        if let Backend::Rows { bound, .. } = &mut o.backend {
            *bound = Some(Bound::new(budget_rows));
        }
        o
    }

    /// Wraps a router graph with exact hub labels built on the default
    /// executor (see [`LatencyOracle::with_labels_on`]).
    #[must_use]
    pub fn with_labels(graph: Graph) -> Self {
        Self::with_labels_on(&Executor::default(), graph)
    }

    /// Wraps a router graph with exact 2-hop hub labels built on
    /// `exec`. The build is the whole cost — queries never run a
    /// Dijkstra — and the labels are bit-identical at any thread
    /// count. Every query answer matches the row backends exactly.
    /// The per-thread query memo is enabled.
    #[must_use]
    pub fn with_labels_on(exec: &Executor, graph: Graph) -> Self {
        Self::with_labels_memoized(exec, graph, true)
    }

    /// [`LatencyOracle::with_labels_on`] with explicit control over the
    /// per-thread query memo. The memo exploits replay lookup locality
    /// (the same router pairs recur across requests) and never changes
    /// an answer — disabling it exists for the memo-identity tests and
    /// for isolating raw merge cost in benchmarks.
    #[must_use]
    pub fn with_labels_memoized(exec: &Executor, graph: Graph, memoized: bool) -> Self {
        let labels = HubLabels::build_on(exec, &graph);
        let memo = memoized.then(|| LabelMemo {
            epoch: MEMO_EPOCH.fetch_add(1, Ordering::Relaxed),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        });
        LatencyOracle {
            graph,
            backend: Backend::Labels { labels, queries: AtomicU64::new(0), memo },
        }
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Short name of the active backend: `"rows"`, `"bounded"`, or
    /// `"labels"`.
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            Backend::Rows { bound: None, .. } => "rows",
            Backend::Rows { bound: Some(_), .. } => "bounded",
            Backend::Labels { .. } => "labels",
        }
    }

    /// The full distance row from router `src` (computed on first use).
    ///
    /// Row backends only: on a bounded oracle this is only available
    /// for sources that fit the pinned segment — overflow rows are
    /// transient, so no `&[u16]` can be handed out for them. Prefer
    /// [`LatencyOracle::latency`].
    ///
    /// # Panics
    /// Panics on the labels backend (no rows exist), and on a bounded
    /// oracle whose pinned segment is full and does not hold `src`.
    #[must_use]
    pub fn row(&self, src: u32) -> &[u16] {
        let Backend::Rows { rows, materialized, bound, .. } = &self.backend else {
            panic!("row({src}): labels backend holds no rows; use latency()");
        };
        let slot = &rows[src as usize];
        if let Some(row) = slot.get() {
            return row;
        }
        match bound {
            None => self.fill(src),
            Some(b) => {
                assert!(
                    b.try_claim_pin(),
                    "row({src}): pinned segment full on a bounded LatencyOracle; use latency()"
                );
                if slot.set(self.graph.dijkstra(src)).is_ok() {
                    materialized.fetch_add(1, Ordering::Relaxed);
                } else {
                    b.release_pin();
                }
                slot.get().expect("row just pinned")
            }
        }
    }

    /// Materialises `src`'s row on the unbounded backend.
    ///
    /// A router in a cell gets `d_cell(src, v)` inside the cell and
    /// `d_cell(src, root) + bridge + row(parent)[v]` everywhere else —
    /// every path out crosses the bridge, so both are exact, and the
    /// unreachable mark and the reachable clamp are applied as
    /// [`Graph::dijkstra`] applies them: the rows are byte-identical.
    /// A router outside every cell gets the full search.
    ///
    /// Kept out of line: inlined into [`LatencyOracle::row`] it grows
    /// the frame every resident-row query sets up (six saved registers
    /// against three — 5 % on a cache-resident `latency()`).
    #[cold]
    #[inline(never)]
    fn fill(&self, src: u32) -> &[u16] {
        let Backend::Rows { rows, materialized, composed, cells, .. } = &self.backend else {
            unreachable!("fill() is only reached from the rows backend");
        };
        let cells = cells.get_or_init(|| self.graph.bridge_cells());
        let fill_one = move |src: u32| {
            rows[src as usize].get_or_init(|| {
                materialized.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.cell(src) else {
                    return self.graph.dijkstra(src);
                };
                composed.fetch_add(1, Ordering::Relaxed);
                let outside = rows[cell.parent as usize].get().expect("bridge parent filled first");
                let mut scratch = DijkstraScratch::new();
                let inside = self.graph.dijkstra_cell(src, cells, cell, &mut scratch);
                let exit = clamp_ms(inside[0].saturating_add(u32::from(cell.bridge_ms)));
                let mut row: Box<[u16]> = outside
                    .iter()
                    .map(|&d| match d {
                        u16::MAX => d,
                        _ => d.saturating_add(exit).min(u16::MAX - 1),
                    })
                    .collect();
                for (&v, &d) in cells.members(cell).iter().zip(inside) {
                    row[v as usize] = clamp_ms(d);
                }
                row
            })
        };
        // Bridge parents still missing their rows, nearest first. Each
        // step crosses a bridge towards the DFS root, so the climb ends
        // at a resident row or in the core; filling top-down means a
        // row's parent is always there when it is built, on any thread.
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
    /// On a bounded oracle every other query counts exactly one hit or
    /// one miss, and a miss evicts at most one overflow row, so
    /// `hits + misses == queries` and `evictions <= misses` hold
    /// exactly. All backends return identical values.
    #[inline]
    #[must_use]
    pub fn latency(&self, u: u32, v: u32) -> u16 {
        if u == v {
            return 0;
        }
        match &self.backend {
            Backend::Labels { labels, queries, memo } => {
                // Counted per query answered, memo hit or not — the
                // counter means "label queries served", and the memo is
                // invisible except in `label_memo.*`.
                queries.fetch_add(1, Ordering::Relaxed);
                match memo {
                    Some(m) => m.latency(labels, u, v),
                    None => labels.latency(u, v),
                }
            }
            Backend::Rows { rows, materialized, bound, .. } => {
                let Some(b) = bound else {
                    return self.row(u)[v as usize];
                };
                // Pinned fast path: lock-free, same as the unbounded
                // oracle.
                if let Some(row) = rows[u as usize].get() {
                    b.hits.fetch_add(1, Ordering::Relaxed);
                    return row[v as usize];
                }
                let si = b.shard_index(u);
                if let Some(val) =
                    b.shards[si].lock().expect("shard poisoned").lookup(u, v)
                {
                    b.hits.fetch_add(1, Ordering::Relaxed);
                    return val;
                }
                b.misses.fetch_add(1, Ordering::Relaxed);
                // Dijkstra runs outside any lock, into a pooled buffer
                // with pooled scratch — steady-state misses never
                // allocate. Concurrent misses on the same source both
                // count and race benignly on insertion.
                let mut row = b.take_row(self.graph.node_count());
                let mut scratch = b.take_scratch();
                self.graph.dijkstra_into(u, &mut row, &mut scratch);
                b.recycle_scratch(scratch);
                let val = row[v as usize];
                if b.try_claim_pin() {
                    match rows[u as usize].set(row) {
                        Ok(()) => {
                            materialized.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(row) => {
                            b.release_pin();
                            b.recycle_row(row);
                        }
                    }
                } else {
                    let cap = b.shard_cap(si);
                    match b.shards[si].lock().expect("shard poisoned").insert(u, row, cap) {
                        Insert::Stored => {}
                        Insert::Evicted(old) => {
                            b.evictions.fetch_add(1, Ordering::Relaxed);
                            b.recycle_row(old);
                        }
                        Insert::Rejected(row) => b.recycle_row(row),
                    }
                }
                val
            }
        }
    }

    /// Number of rows resident in the lock-free segment (0 on the
    /// labels backend): every source asked for, plus the bridge parents
    /// their rows were composed through. O(1): the count is maintained
    /// at row-init time, not by scanning.
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

    /// Current cache-effectiveness counters. On an unbounded oracle
    /// only `pinned`/`resident` are meaningful (no hot-path counting);
    /// on the labels backend everything is zero — see
    /// [`LatencyOracle::label_stats`].
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let pinned = self.cached_rows();
        match &self.backend {
            Backend::Labels { .. } => CacheStats::default(),
            Backend::Rows { bound: None, .. } => {
                CacheStats { pinned, resident: pinned, ..CacheStats::default() }
            }
            Backend::Rows { bound: Some(b), .. } => {
                let overflow: usize = b
                    .shards
                    .iter()
                    .map(|s| s.lock().expect("shard poisoned").slots.len())
                    .sum();
                CacheStats {
                    hits: b.hits.load(Ordering::Relaxed),
                    misses: b.misses.load(Ordering::Relaxed),
                    evictions: b.evictions.load(Ordering::Relaxed),
                    pinned,
                    resident: pinned + overflow,
                    budget: Some(b.budget),
                }
            }
        }
    }

    /// Label-size statistics plus the query counter, if this oracle
    /// runs on the labels backend.
    #[must_use]
    pub fn label_stats(&self) -> Option<(LabelStats, u64)> {
        match &self.backend {
            Backend::Labels { labels, queries, .. } => {
                Some((labels.stats(), queries.load(Ordering::Relaxed)))
            }
            Backend::Rows { .. } => None,
        }
    }

    /// `(hits, misses)` of the per-thread query memo, if this oracle
    /// runs on the labels backend with the memo enabled — the
    /// `label_memo.*` metrics. Counters aggregate across threads.
    #[must_use]
    pub fn memo_stats(&self) -> Option<(u64, u64)> {
        match &self.backend {
            Backend::Labels { memo: Some(m), .. } => {
                Some((m.hits.load(Ordering::Relaxed), m.misses.load(Ordering::Relaxed)))
            }
            _ => None,
        }
    }

    /// Eagerly computes the rows for the given sources in parallel on
    /// the default executor.
    ///
    /// Experiments know exactly which routers host peers; warming those
    /// rows up front turns the replay phase into pure lookups. A no-op
    /// on the labels backend, whose build is its own precompute.
    pub fn precompute(&self, sources: &[u32]) {
        self.precompute_on(&Executor::default(), sources);
    }

    /// [`LatencyOracle::precompute`] on a caller-supplied executor. On
    /// a bounded oracle this pins rows until the pinned segment is full
    /// and then stops — warming never counts hits or misses and never
    /// thrashes the overflow shards.
    pub fn precompute_on(&self, exec: &Executor, sources: &[u32]) {
        if matches!(self.backend, Backend::Labels { .. }) {
            return;
        }
        exec.par_for_each(sources.len(), PRECOMPUTE_CHUNK, |i| {
            self.warm(sources[i]);
        });
    }

    /// Eagerly computes every row (full APSP). Only sensible for
    /// moderate graphs; prefer [`LatencyOracle::precompute`].
    pub fn precompute_all(&self) {
        if matches!(self.backend, Backend::Labels { .. }) {
            return;
        }
        Executor::default().par_for_each(self.graph.node_count(), PRECOMPUTE_CHUNK, |i| {
            self.warm(i as u32);
        });
    }

    /// Pins `src`'s row if the cache has room for it; a no-op once the
    /// pinned segment is full on a bounded oracle.
    fn warm(&self, src: u32) {
        let Backend::Rows { rows, materialized, bound, .. } = &self.backend else {
            return;
        };
        let slot = &rows[src as usize];
        if slot.get().is_some() {
            return;
        }
        match bound {
            None => {
                let _ = self.row(src);
            }
            Some(b) => {
                if b.try_claim_pin() {
                    if slot.set(self.graph.dijkstra(src)).is_ok() {
                        materialized.fetch_add(1, Ordering::Relaxed);
                    } else {
                        b.release_pin();
                    }
                }
            }
        }
    }

    /// Approximate bytes held by the backend (materialized rows, or
    /// the label arrays).
    #[must_use]
    pub fn cache_bytes(&self) -> usize {
        match &self.backend {
            Backend::Rows { .. } => {
                self.cache_stats().resident * self.graph.node_count() * core::mem::size_of::<u16>()
            }
            Backend::Labels { labels, .. } => labels.bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 10);
        g.add_edge(0, 2, 50);
        g
    }

    fn line(n: u32) -> Graph {
        let mut g = Graph::with_nodes(n as usize);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, 5);
        }
        g
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
        o.precompute(&[0, 2]);
        assert_eq!(o.cached_rows(), 2);
        o.precompute_all();
        assert_eq!(o.cached_rows(), 3);
        assert_eq!(o.cache_bytes(), 3 * 3 * 2);
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
    fn bounded_matches_unbounded_exactly() {
        let free = LatencyOracle::new(line(24));
        let tight = LatencyOracle::with_row_budget(line(24), 3);
        for u in 0..24u32 {
            for v in 0..24u32 {
                assert_eq!(tight.latency(u, v), free.latency(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn labels_backend_matches_rows_exactly() {
        let free = LatencyOracle::new(line(24));
        let labels = LatencyOracle::with_labels(line(24));
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
        assert_eq!(labels.cache_stats(), CacheStats::default());
        assert!(labels.cache_bytes() > 0);
    }

    /// The memo must be invisible in answers: every query repeated
    /// twice (cold then memoized) against a memo-off oracle and the
    /// rows backend, on a graph with enough pairs to force
    /// direct-mapped slot collisions and overwrites.
    #[test]
    fn memoized_labels_match_unmemoized_and_rows() {
        let exec = Executor::new(1);
        let rows = LatencyOracle::new(line(60));
        let memo_on = LatencyOracle::with_labels_memoized(&exec, line(60), true);
        let memo_off = LatencyOracle::with_labels_memoized(&exec, line(60), false);
        assert!(memo_on.memo_stats().is_some());
        assert_eq!(memo_off.memo_stats(), None);
        assert_eq!(rows.memo_stats(), None);
        for pass in 0..2 {
            for u in 0..60u32 {
                for v in 0..60u32 {
                    let want = rows.latency(u, v);
                    assert_eq!(memo_off.latency(u, v), want, "pass {pass} ({u},{v})");
                    assert_eq!(memo_on.latency(u, v), want, "pass {pass} ({u},{v})");
                }
            }
        }
        let (hits, misses) = memo_on.memo_stats().expect("memo enabled");
        assert!(hits > 0, "second pass must hit the memo");
        assert!(misses > 0, "first pass must miss the memo");
        assert_eq!(hits + misses, 2 * 60 * 59, "every non-self query goes through the memo");
        let (_, queries) = memo_on.label_stats().expect("labels backend");
        assert_eq!(queries, 2 * 60 * 59, "memo hits still count as queries");
    }

    /// Two oracles alive on the same thread must not cross-read memo
    /// slots: the epoch tag isolates them even when their (u, v) pairs
    /// collide on the same direct-mapped slot.
    #[test]
    fn memo_epochs_isolate_oracles() {
        let exec = Executor::new(1);
        let a = LatencyOracle::with_labels_memoized(&exec, line(30), true);
        let b = LatencyOracle::with_labels_memoized(&exec, triangle(), true);
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
        let o = LatencyOracle::with_labels(triangle());
        o.precompute(&[0, 1]);
        o.precompute_all();
        assert_eq!(o.cached_rows(), 0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| o.row(0)));
        assert!(caught.is_err(), "labels backend must refuse row()");
    }

    #[test]
    fn bounded_counters_reconcile() {
        // 40 sources against a 4-row budget force CLOCK collisions.
        let o = LatencyOracle::with_row_budget(line(40), 4);
        let mut queries = 0u64;
        for round in 0..3 {
            for u in 0..40u32 {
                for v in 0..40u32 {
                    let _ = o.latency(u, v);
                    if u != v {
                        queries += 1;
                    }
                }
            }
            let s = o.cache_stats();
            assert_eq!(s.hits + s.misses, queries, "round {round}");
            assert!(s.evictions <= s.misses, "round {round}");
            assert!(s.resident <= s.budget.unwrap(), "round {round}");
        }
        let s = o.cache_stats();
        assert!(s.evictions > 0, "tiny budget over 40 sources must evict");
        assert_eq!(s.pinned, 2, "budget 4 pins budget/2 rows");
    }

    /// Regression for the budget overshoot: `per_shard_cap` used to
    /// round up (`div_ceil`), letting pinned + overflow exceed the
    /// budget (BENCH_scale.json once recorded 126 resident rows
    /// against a 125-row budget). The shard capacities must partition
    /// the overflow exactly.
    #[test]
    fn bounded_residency_never_exceeds_budget() {
        let budget = 125;
        let o = LatencyOracle::with_row_budget(line(200), budget);
        for round in 0..3 {
            // Saturate from more distinct sources than the budget.
            for u in 0..200u32 {
                for v in [199u32, 0, 100] {
                    let _ = o.latency(u, v);
                }
                let s = o.cache_stats();
                assert!(
                    s.resident <= budget,
                    "round {round}: resident {} exceeds budget {budget}",
                    s.resident
                );
            }
        }
        let s = o.cache_stats();
        assert_eq!(s.resident, budget, "a saturated cache should use its whole budget");
        assert_eq!(s.pinned, budget / 2);
    }

    #[test]
    fn tiny_budgets_clamp_and_never_overshoot() {
        for budget in 1..=4usize {
            let o = LatencyOracle::with_row_budget(line(64), budget);
            for u in 0..64u32 {
                let _ = o.latency(u, 63);
            }
            let s = o.cache_stats();
            assert!(s.resident <= budget.max(1), "budget {budget}: resident {}", s.resident);
        }
    }

    #[test]
    fn bounded_precompute_pins_without_counting() {
        let o = LatencyOracle::with_row_budget(line(16), 8);
        o.precompute(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let s = o.cache_stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 0, 0));
        assert_eq!(s.pinned, 4, "pin cap is budget/2");
        // Pinned rows answer on the lock-free path as hits.
        let _ = o.latency(0, 9);
        assert_eq!(o.cache_stats().hits, 1);
    }

    #[test]
    fn bounded_row_serves_pinned_and_panics_past_cap() {
        let o = LatencyOracle::with_row_budget(line(8), 4);
        assert_eq!(o.row(0)[7], 35);
        assert_eq!(o.row(1)[7], 30);
        assert_eq!(o.row(0)[7], 35); // still resident
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| o.row(5)));
        assert!(caught.is_err(), "third distinct row() must exceed pin cap 2");
    }

    #[test]
    fn unbounded_stats_report_no_counting() {
        let o = LatencyOracle::new(triangle());
        let _ = o.latency(0, 1);
        let s = o.cache_stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 0, 0));
        assert_eq!(s.budget, None);
        assert_eq!(s.resident, 1);
        assert_eq!(o.backend_name(), "rows");
        assert_eq!(LatencyOracle::with_row_budget(triangle(), 2).backend_name(), "bounded");
    }
}
