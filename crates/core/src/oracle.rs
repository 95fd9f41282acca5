//! Oracle-mode HIERAS: multi-layer finger tables and m-loop routing.
//!
//! Layer numbering follows the paper: **layer 1** is the single global
//! ring containing every peer; **layer m** (= the configured depth) is
//! the lowest layer, whose rings are named by the full landmark order.
//! Every layer reuses [`hieras_chord::RingView`] — the "underlying DHT
//! routing algorithm with the corresponding finger table" of §3.2 —
//! restricted to the ring's membership.

use crate::{ConfigError, HierasConfig, LandmarkOrder, RingTable, RouteTrace};
use crate::node_map::NodeMap;
use crate::trace::{HopRecord, RouteCost};
use hieras_chord::{ChordOracle, PathBuf, RingArenaPool, RingArenas, RingBuildError, RingView};
use hieras_id::{Id, IdSpace, Key};
use hieras_rt::{fingerprint, splitmix64, Executor};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Errors building a [`HierasOracle`].
#[derive(Debug, Clone, PartialEq)]
pub enum HierasBuildError {
    /// Invalid configuration.
    Config(ConfigError),
    /// Ring construction failed (duplicate ids, empty membership…).
    Ring(RingBuildError),
    /// `orders.len() != ids.len()`.
    OrderCount {
        /// Number of node ids supplied.
        expected: usize,
        /// Number of landmark orders supplied.
        got: usize,
    },
    /// A landmark order has fewer digits than the configured landmark
    /// count — the lowest layer could not be named.
    OrderTooShort {
        /// Offending node index.
        node: u32,
        /// Digits present.
        got: usize,
        /// Digits required (`config.landmarks`).
        need: usize,
    },
    /// A live member's landmark order changed without the node being
    /// declared in the delta's `rebinned` (or `joined`) set — applying
    /// the delta would silently diverge from a full rebuild.
    UndeclaredRebin {
        /// The member whose order moved undeclared.
        node: u32,
    },
}

impl core::fmt::Display for HierasBuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HierasBuildError::Config(e) => write!(f, "bad config: {e}"),
            HierasBuildError::Ring(e) => write!(f, "ring construction failed: {e}"),
            HierasBuildError::OrderCount { expected, got } => {
                write!(f, "expected {expected} landmark orders, got {got}")
            }
            HierasBuildError::OrderTooShort { node, got, need } => {
                write!(f, "node {node} has {got}-digit order, need {need}")
            }
            HierasBuildError::UndeclaredRebin { node } => {
                write!(f, "member {node} changed order without being declared rebinned")
            }
        }
    }
}

impl std::error::Error for HierasBuildError {}

impl From<ConfigError> for HierasBuildError {
    fn from(e: ConfigError) -> Self {
        HierasBuildError::Config(e)
    }
}

impl From<RingBuildError> for HierasBuildError {
    fn from(e: RingBuildError) -> Self {
        HierasBuildError::Ring(e)
    }
}

/// Aggregate packed-routing-state footprint over the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingArenaStats {
    /// Total rings across all layers (layer 1 contributes one).
    pub rings: usize,
    /// Total member slots across all ring arenas (each node appears
    /// once per layer, so this is ≈ nodes × depth).
    pub member_slots: usize,
    /// Total bytes of packed routing state (member indices, id arenas,
    /// seek indices) across all rings.
    pub bytes: usize,
}

/// One hierarchy layer: the disjoint rings partitioning all peers.
///
/// Rings are held behind per-ring [`Arc`]s so epochs of a serving
/// hierarchy share untouched rings structurally: a delta application
/// copies only the rings whose membership or binning moved and bumps a
/// reference count for every other one.
#[derive(Debug, Clone)]
pub struct Layer {
    /// 1-based layer number (1 = global).
    pub layer_no: usize,
    /// The rings of this layer, individually shareable across epochs.
    rings: Vec<Arc<RingView>>,
    /// Ring names ([`HierasConfig::ring_key`]), sorted, parallel to
    /// `rings`.
    names: Vec<LandmarkOrder>,
    /// Ring index (into `rings`) of each global node, in chunks shared
    /// with every epoch that did not write to them.
    ring_of_node: NodeMap,
}

impl Layer {
    /// Number of rings in this layer.
    #[must_use]
    pub fn ring_count(&self) -> usize {
        self.rings.len()
    }

    /// The ring containing global node `node`.
    ///
    /// # Panics
    /// Panics if `node` is not part of this hierarchy (subset builds
    /// via [`HierasOracle::build_members_on`] exclude dead nodes).
    #[must_use]
    pub fn ring_of(&self, node: u32) -> &RingView {
        &self.rings[self.ring_of_node.at(node) as usize]
    }

    /// The name of the ring containing `node`.
    #[must_use]
    pub fn ring_name_of(&self, node: u32) -> LandmarkOrder {
        self.names[self.ring_of_node.at(node) as usize]
    }

    /// Ring index of `node` at this layer, or `None` for a non-member.
    #[must_use]
    pub fn ring_index_of(&self, node: u32) -> Option<u32> {
        match self.ring_of_node.get(node) {
            Some(r) if r != u32::MAX => Some(r),
            _ => None,
        }
    }

    /// Iterates `(name, ring)` pairs.
    pub fn rings(&self) -> impl Iterator<Item = (&LandmarkOrder, &RingView)> {
        self.names.iter().zip(self.rings.iter().map(|r| &**r))
    }
}

/// One row of a node's (multi-layer) finger table, as in the paper's
/// Table 2: the finger start, the interval it covers, and the
/// successor chosen in every layer's ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerRow {
    /// `n + 2^i`.
    pub start: Id,
    /// End of the covered interval `[start, end)` = next finger start.
    pub end: Id,
    /// Successor node per layer: `successors[j-1]` is the layer-`j`
    /// finger target (global node index).
    pub successors: Vec<u32>,
}

/// The per-node landmark orders a hierarchy was built from, behind
/// one shared allocation. Every epoch whose binning did not move holds
/// the same table — a clone bumps a reference count — and its digest
/// is hashed once for all of them. A re-bin makes a new table; nothing
/// writes into a shared one.
#[derive(Debug, Clone)]
pub struct OrderTable(Arc<OrderList>);

#[derive(Debug)]
struct OrderList {
    list: Vec<LandmarkOrder>,
    digest: OnceLock<u64>,
}

impl OrderTable {
    /// Seals `list` as a table.
    #[must_use]
    pub fn new(list: Vec<LandmarkOrder>) -> Self {
        OrderTable(Arc::new(OrderList { list, digest: OnceLock::new() }))
    }

    /// True when `orders` is this table's own memory: the same
    /// allocation and the same length. Identical memory means
    /// identical contents, so a caller handed this table back needs no
    /// entry-by-entry comparison.
    #[must_use]
    pub fn is(&self, orders: &[LandmarkOrder]) -> bool {
        std::ptr::eq(self.0.list.as_ptr(), orders.as_ptr()) && self.0.list.len() == orders.len()
    }

    /// The list back when this handle is the table's last owner — how
    /// a maintainer recycles a retired table's buffer for its next
    /// re-bin; `None` while any other handle shares it.
    #[must_use]
    pub fn into_list(self) -> Option<Vec<LandmarkOrder>> {
        Arc::try_unwrap(self.0).ok().map(|t| t.list)
    }

    /// Order-sensitive digest of every entry's length and digits.
    fn digest(&self) -> u64 {
        *self.0.digest.get_or_init(|| {
            fingerprint(0x0a4d_e45a_7ab1_e000, &self.0.list, |o| o.code())
        })
    }
}

impl From<Vec<LandmarkOrder>> for OrderTable {
    fn from(list: Vec<LandmarkOrder>) -> Self {
        OrderTable::new(list)
    }
}

impl std::ops::Deref for OrderTable {
    type Target = [LandmarkOrder];

    fn deref(&self) -> &[LandmarkOrder] {
        &self.0.list
    }
}

/// Recomputes the ring table of `name` from every lower-layer ring so
/// named (two layers with equal prefix lengths share a name), in layer
/// order, or drops it when no such ring is left. Each ring enters
/// through the two ends of its id-sorted arena: a table keeps the two
/// smallest and two largest ids it has seen, so these (at most four)
/// members are all of the ring it can ever hold — the same table as
/// observing every member.
fn refresh_table(
    tables: &mut BTreeMap<LandmarkOrder, RingTable>,
    layers: &[Layer],
    name: LandmarkOrder,
) {
    tables.remove(&name);
    for layer in &layers[1..] {
        let Ok(ri) = layer.names.binary_search(&name) else { continue };
        let ring = &layer.rings[ri];
        let table = tables.entry(name).or_insert_with(|| RingTable::new(&name));
        let last = ring.len() as u32 - 1;
        for pos in [0, 1.min(last), last.saturating_sub(1), last] {
            table.observe(ring.id_at(pos));
        }
    }
}

/// HIERAS over a known membership: every peer's ring memberships and
/// per-layer finger tables, plus the ring tables, built centrally.
#[derive(Debug, Clone)]
pub struct HierasOracle {
    space: IdSpace,
    ids: Arc<[Id]>,
    config: HierasConfig,
    /// Per-node landmark orders; shared across epochs whose binning
    /// did not move.
    orders: OrderTable,
    /// `layers[j-1]` is layer `j`; `layers[0]` is the global ring.
    layers: Vec<Layer>,
    /// Ring tables of every non-global ring, keyed by ring name.
    ring_tables: BTreeMap<LandmarkOrder, RingTable>,
}

/// One epoch's membership/binning movement, in global node indices.
/// The three sets must be disjoint; `rebinned` nodes stay live but
/// changed landmark order.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierasDelta<'a> {
    /// Nodes that came up this epoch (must not be current members).
    pub joined: &'a [u32],
    /// Members that departed or failed this epoch.
    pub departed: &'a [u32],
    /// Members whose landmark order changed this epoch.
    pub rebinned: &'a [u32],
}

impl HierasDelta<'_> {
    /// True when the delta moves nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.joined.is_empty() && self.departed.is_empty() && self.rebinned.is_empty()
    }
}

/// How much of the hierarchy a delta would touch — the serve
/// maintainer's cheap eligibility probe for the incremental path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaStats {
    /// Rings whose membership the delta moves (born and dying rings
    /// included), across all layers.
    pub touched_rings: usize,
    /// Total rings in the current hierarchy.
    pub total_rings: usize,
}

impl DeltaStats {
    /// Touched fraction of the hierarchy, in `[0, 1]`.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total_rings == 0 {
            return 0.0;
        }
        self.touched_rings as f64 / self.total_rings as f64
    }
}

impl HierasOracle {
    /// Builds the hierarchy from per-node landmark orders.
    ///
    /// `orders[i]` must carry at least `config.landmarks` digits (extra
    /// digits are ignored); produce them with
    /// [`crate::Binning::order`] from measured landmark RTTs.
    ///
    /// # Errors
    /// See [`HierasBuildError`].
    pub fn build(
        space: IdSpace,
        ids: Arc<[Id]>,
        orders: Vec<LandmarkOrder>,
        config: HierasConfig,
    ) -> Result<Self, HierasBuildError> {
        Self::build_on(&Executor::default(), space, ids, orders, config)
    }

    /// [`HierasOracle::build`] on a caller-supplied executor.
    ///
    /// The per-layer ring grouping runs in parallel across layers and
    /// every ring's finger table builds in parallel across rings (the
    /// global ring additionally fills its table in parallel inside
    /// [`RingView::build_on`]). Each unit of work is a pure function
    /// of the inputs and results merge in deterministic chunk order,
    /// so the hierarchy is bit-identical at any thread count.
    ///
    /// # Errors
    /// See [`HierasBuildError`].
    pub fn build_on(
        exec: &Executor,
        space: IdSpace,
        ids: Arc<[Id]>,
        orders: Vec<LandmarkOrder>,
        config: HierasConfig,
    ) -> Result<Self, HierasBuildError> {
        let members: Vec<u32> = (0..ids.len() as u32).collect();
        Self::build_members_on(exec, space, ids, orders, &members, config)
    }

    /// [`HierasOracle::build_on`] restricted to a *subset* of the node
    /// table: only the global indices in `members` join the hierarchy
    /// (one global ring of the members, lower rings grouping members by
    /// [`HierasConfig::ring_key`]). The id table and landmark orders stay
    /// global-sized, so routes, [`HierasOracle::eval`] link callbacks
    /// and [`HierasOracle::owner_of`] all speak global node indices —
    /// a churned snapshot drops straight into code written for the
    /// full-membership oracle.
    ///
    /// Only members' orders need `config.landmarks` digits; dead nodes'
    /// orders are never read. Routing *from* a non-member is a protocol
    /// violation and panics (the node has no ring), which is the guard
    /// the serving engine relies on to catch stale-source bugs.
    ///
    /// # Errors
    /// See [`HierasBuildError`]; an empty or out-of-range `members`
    /// surfaces as [`HierasBuildError::Ring`].
    pub fn build_members_on(
        exec: &Executor,
        space: IdSpace,
        ids: Arc<[Id]>,
        orders: Vec<LandmarkOrder>,
        members: &[u32],
        config: HierasConfig,
    ) -> Result<Self, HierasBuildError> {
        let mut pool = RingArenaPool::disabled();
        Self::build_members_pooled_on(exec, space, ids, orders, members, config, &mut pool)
    }

    /// [`HierasOracle::build_members_on`] with every ring's arenas
    /// drawn from `pool` — the serving maintainer's full rebuild, which
    /// then reuses what the hierarchy it replaces retired instead of
    /// growing the heap by a hierarchy per rebuild. Identical output.
    /// `orders` may be an [`OrderTable`] another hierarchy already
    /// holds: the new one shares it instead of copying it.
    ///
    /// # Errors
    /// See [`HierasBuildError`].
    pub fn build_members_pooled_on(
        exec: &Executor,
        space: IdSpace,
        ids: Arc<[Id]>,
        orders: impl Into<OrderTable>,
        members: &[u32],
        config: HierasConfig,
        pool: &mut RingArenaPool,
    ) -> Result<Self, HierasBuildError> {
        let orders: OrderTable = orders.into();
        config.validate()?;
        if orders.len() != ids.len() {
            return Err(HierasBuildError::OrderCount { expected: ids.len(), got: orders.len() });
        }
        if members.is_empty() {
            return Err(HierasBuildError::Ring(RingBuildError::Empty));
        }
        for &m in members {
            let Some(o) = orders.get(m as usize) else {
                return Err(HierasBuildError::Ring(RingBuildError::BadIndex(m)));
            };
            if o.len() < config.landmarks {
                return Err(HierasBuildError::OrderTooShort {
                    node: m,
                    got: o.len(),
                    need: config.landmarks,
                });
            }
        }
        let n = ids.len();
        // Ascending members fill each node→ring map chunk by chunk.
        let sorted: Vec<u32>;
        let members = if members.is_sorted() {
            members
        } else {
            let mut v = members.to_vec();
            v.sort_unstable();
            sorted = v;
            &sorted
        };
        // Phase 1 — group members into rings, one independent job per
        // layer (chunk = 1 layer; merged in ascending layer order).
        struct LayerProto {
            layer_no: usize,
            names: Vec<LandmarkOrder>,
            /// Ring `r` holds `members[starts[r]..starts[r + 1]]`.
            starts: Vec<usize>,
            members: Vec<u32>,
            ring_of_node: NodeMap,
        }
        let group_layer = |layer_no: usize| -> LayerProto {
            // Pass 1: every member's ring, numbered as first seen, and
            // every ring's size, so the grouping is one exact
            // allocation. Locality-packed node tables put a ring's
            // members side by side: a run of one key costs one map
            // lookup.
            let mut first_seen: BTreeMap<LandmarkOrder, u32> = BTreeMap::new();
            let mut sizes: Vec<usize> = Vec::new();
            let mut grouped = vec![0u32; members.len()];
            let mut last: Option<(LandmarkOrder, u32)> = None;
            for (slot, &i) in grouped.iter_mut().zip(members) {
                let k = config.ring_key(layer_no, &orders[i as usize]);
                let g = match last {
                    Some((lk, g)) if lk == k => g,
                    _ => {
                        let g = *first_seen.entry(k).or_insert_with(|| {
                            sizes.push(0);
                            sizes.len() as u32 - 1
                        });
                        last = Some((k, g));
                        g
                    }
                };
                sizes[g as usize] += 1;
                *slot = g;
            }
            // Rings are numbered in name order, deterministically.
            let mut rank = vec![0u32; sizes.len()];
            let mut names = Vec::with_capacity(sizes.len());
            let mut starts = Vec::with_capacity(sizes.len() + 1);
            let mut at = 0;
            for (ri, (&name, &g)) in first_seen.iter().enumerate() {
                rank[g as usize] = ri as u32;
                names.push(name);
                starts.push(at);
                at += sizes[g as usize];
            }
            starts.push(at);
            // Pass 2: the node→ring map, chunk by chunk. Non-members
            // keep u32::MAX, so `ring_of` on a dead node trips an index
            // panic instead of silently routing.
            let ring_of_node = NodeMap::from_sorted(
                n,
                members.iter().zip(&grouped).map(|(&i, &g)| (i, rank[g as usize])),
            );
            // Pass 3: each ring's members, in member order.
            let mut fill = starts.clone();
            for &i in members {
                let ri = ring_of_node.at(i) as usize;
                grouped[fill[ri]] = i;
                fill[ri] += 1;
            }
            LayerProto { layer_no, names, starts, members: grouped, ring_of_node }
        };
        let protos: Vec<LayerProto> = exec.par_fold(
            config.depth,
            1,
            Vec::new,
            |acc, d| acc.push(group_layer(d + 1)),
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        // Phase 2 — build every ring of every layer. Rings are
        // independent; one job per ring, merged in (layer, ring) order.
        let jobs: Vec<(usize, usize)> = protos
            .iter()
            .enumerate()
            .flat_map(|(li, p)| (0..p.names.len()).map(move |ri| (li, ri)))
            .collect();
        // The pool is single-owner: withdraw every job's arenas here
        // and hand each job its own. Largest ring first, so the big
        // retired buffers go to the rings that need them rather than
        // to a small ring that nothing smaller fits.
        let ring_members = |j: usize| {
            let (p, ri) = (&protos[jobs[j].0], jobs[j].1);
            &p.members[p.starts[ri]..p.starts[ri + 1]]
        };
        let ring_len = |j: usize| ring_members(j).len();
        let mut arenas: Vec<Mutex<RingArenas>> = jobs.iter().map(|_| Mutex::default()).collect();
        let mut by_size: Vec<usize> = (0..jobs.len()).collect();
        by_size.sort_by_key(|&j| Reverse(ring_len(j)));
        for j in by_size {
            *arenas[j].get_mut().expect("not shared yet") = pool.take_ring(space, ring_len(j));
        }
        let built: Vec<Result<RingView, RingBuildError>> = exec.par_fold(
            jobs.len(),
            1,
            Vec::new,
            |acc, j| {
                let arenas = std::mem::take(&mut *arenas[j].lock().expect("one job per slot"));
                // Inner parallelism only pays off for the big rings
                // (the global ring); small rings build serially inside
                // their own job.
                acc.push(RingView::build_in(
                    exec,
                    space,
                    Arc::clone(&ids),
                    ring_members(j),
                    arenas,
                ));
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        let mut rings_by_job = built.into_iter();
        let mut layers = Vec::with_capacity(config.depth);
        for proto in protos {
            let mut rings = Vec::with_capacity(proto.names.len());
            for _ in 0..proto.names.len() {
                rings.push(Arc::new(rings_by_job.next().expect("one result per job")?));
            }
            layers.push(Layer {
                layer_no: proto.layer_no,
                rings,
                names: proto.names,
                ring_of_node: proto.ring_of_node,
            });
        }
        // Ring tables for every non-global ring (§3.1).
        let mut ring_tables = BTreeMap::new();
        for &name in layers[1..].iter().flat_map(|layer| &layer.names) {
            refresh_table(&mut ring_tables, &layers, name);
        }
        Ok(HierasOracle { space, ids, config, orders, layers, ring_tables })
    }

    /// Convenience: builds from raw landmark RTT vectors using the
    /// configured binning.
    ///
    /// # Errors
    /// See [`HierasBuildError`].
    pub fn from_rtts(
        space: IdSpace,
        ids: Arc<[Id]>,
        rtts: &[Vec<u16>],
        config: HierasConfig,
    ) -> Result<Self, HierasBuildError> {
        let orders = rtts.iter().map(|r| config.binning.order(r)).collect();
        Self::build(space, ids, orders, config)
    }

    /// The identifier space.
    #[must_use]
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// The configuration this hierarchy was built with.
    #[must_use]
    pub fn config(&self) -> &HierasConfig {
        &self.config
    }

    /// The per-node landmark orders this hierarchy was built from.
    /// Handing this table back to [`HierasOracle::apply_delta_on`]
    /// skips its entry-by-entry check.
    #[must_use]
    pub fn orders(&self) -> &OrderTable {
        &self.orders
    }

    /// Number of peers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Never empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Id of node `node`.
    #[must_use]
    pub fn id_of(&self, node: u32) -> Id {
        self.ids[node as usize]
    }

    /// The layers, top (global, layer 1) first.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Aggregate size of the packed routing state across every ring of
    /// every layer — the source feeding the `ring_arena.*` metrics. The
    /// whole routing fabric is these arenas plus the shared id table.
    #[must_use]
    pub fn arena_stats(&self) -> RingArenaStats {
        let mut stats = RingArenaStats { rings: 0, member_slots: 0, bytes: 0 };
        for layer in &self.layers {
            for (_, ring) in layer.rings() {
                stats.rings += 1;
                stats.member_slots += ring.len();
                stats.bytes += ring.arena_bytes();
            }
        }
        stats
    }

    /// The global ring (layer 1).
    #[must_use]
    pub fn global_ring(&self) -> &RingView {
        &self.layers[0].rings[0]
    }

    /// The global ring as a plain Chord oracle, sharing this
    /// hierarchy's ring: layer 1 *is* the Chord ring over every member
    /// (§2), so the baseline needs no second build.
    #[must_use]
    pub fn chord(&self) -> ChordOracle {
        ChordOracle::from_ring(Arc::clone(&self.layers[0].rings[0]))
    }

    /// Global node index owning `key` (ground truth = Chord owner).
    #[must_use]
    pub fn owner_of(&self, key: Key) -> u32 {
        let g = self.global_ring();
        g.node_at(g.successor_of_key(key))
    }

    /// The ring table of the ring named `name`, if that ring exists.
    #[must_use]
    pub fn ring_table(&self, name: &LandmarkOrder) -> Option<&RingTable> {
        self.ring_tables.get(name)
    }

    /// All ring tables in ring-name order (for diagnostics and the
    /// Table 3 figure).
    #[must_use]
    pub fn ring_tables(&self) -> &BTreeMap<LandmarkOrder, RingTable> {
        &self.ring_tables
    }

    /// The node that *stores* a ring table: the one whose id is
    /// numerically closest to the ring id — i.e. the Chord owner of
    /// `ring_id` on the global ring (§3.1).
    #[must_use]
    pub fn ring_table_holder(&self, ring_id: Id) -> u32 {
        self.owner_of(ring_id)
    }

    /// Routes `key` from `src` with the paper's m-loop procedure
    /// (§3.2): finish in the lowest-layer ring of the current node,
    /// check whether the current node is already the destination, and
    /// otherwise continue one layer up with that layer's finger table.
    ///
    /// Lower layers route to the closest *preceding* ring member of the
    /// key and hand off there; only the global ring takes the delivery
    /// hop to the owner. Handing off at the ring-local owner instead
    /// would overshoot the key in id space and force the next layer to
    /// route nearly the whole circle.
    ///
    /// # Panics
    /// Panics if `src` is out of range.
    #[must_use]
    pub fn route(&self, src: u32, key: Key) -> RouteTrace {
        let mut trace = RouteTrace { origin: src, hops: Vec::with_capacity(8) };
        let mut scratch = PathBuf::new();
        self.route_with(src, key, &mut scratch, |from, to, layer| {
            trace.hops.push(HopRecord { from, to, layer });
        });
        trace
    }

    /// Visitor core of the m-loop procedure: walks the exact hop
    /// sequence [`HierasOracle::route`] records, calling
    /// `on_hop(from, to, layer)` per hop with global node indices, and
    /// returns the node the key resolved to. Per-layer ring paths are
    /// written into `scratch`, so a caller that reuses one scratch
    /// across lookups routes without heap allocation in steady state.
    ///
    /// # Panics
    /// Panics if `src` is out of range.
    pub fn route_with<F>(&self, src: u32, key: Key, scratch: &mut PathBuf, mut on_hop: F) -> u32
    where
        F: FnMut(u32, u32, u8),
    {
        assert!((src as usize) < self.ids.len(), "src out of range");
        let owner = self.owner_of(key);
        let mut cur = src;
        // Lowest layer first: layers[depth-1] … layers[0].
        for layer in self.layers.iter().rev() {
            // The destination check that ends each loop early (§3.2).
            if cur == owner {
                return cur;
            }
            // Layer 1 is one ring: no node→ring map to read.
            let ring = if layer.layer_no == 1 { &*layer.rings[0] } else { layer.ring_of(cur) };
            let pos = ring.position_of(cur).expect("node is member of its own ring");
            if layer.layer_no == 1 {
                ring.route_into(pos, key, scratch);
            } else {
                ring.route_to_predecessor_into(pos, key, scratch);
            }
            let path = scratch.as_slice();
            for w in path.windows(2) {
                on_hop(ring.node_at(w[0]), ring.node_at(w[1]), layer.layer_no as u8);
            }
            cur = ring.node_at(*path.last().expect("path never empty"));
        }
        debug_assert_eq!(cur, owner, "global loop must end at the key's owner");
        cur
    }

    /// Routes `key` from `src` and condenses the trace into a
    /// [`RouteCost`] on the fly — the replay hot path. `link` supplies
    /// per-hop latency (typically `LatencyOracle::latency` over
    /// attachment routers). Produces exactly the quantities
    /// [`HierasOracle::route`] + [`RouteTrace::latency_split`] would,
    /// without materializing the trace.
    ///
    /// # Panics
    /// Panics if `src` is out of range.
    pub fn eval(
        &self,
        src: u32,
        key: Key,
        scratch: &mut PathBuf,
        mut link: impl FnMut(u32, u32) -> u16,
    ) -> RouteCost {
        let mut cost = RouteCost::default();
        let dest = self.route_with(src, key, scratch, |from, to, layer| {
            let l = u64::from(link(from, to));
            cost.hops += 1;
            cost.latency_ms += l;
            if layer > 1 {
                cost.lower_hops += 1;
                cost.lower_latency_ms += l;
            }
        });
        cost.destination = dest;
        cost
    }

    /// The multi-layer finger table of `node`, one [`FingerRow`] per
    /// finger index — the paper's Table 2. Rows whose interval is
    /// empty (tiny demo spaces) are still emitted, matching the paper's
    /// fixed `bits` rows.
    #[must_use]
    pub fn finger_rows(&self, node: u32) -> Vec<FingerRow> {
        let me = self.id_of(node);
        let bits = self.space.bits();
        let mut rows = Vec::with_capacity(bits as usize);
        for i in 0..bits {
            let start = self.space.finger_start(me, i);
            let end = if i + 1 < bits {
                self.space.finger_start(me, i + 1)
            } else {
                me
            };
            let successors = self
                .layers
                .iter()
                .map(|layer| {
                    let ring = layer.ring_of(node);
                    ring.node_at(ring.successor_of_key(start))
                })
                .collect();
            rows.push(FingerRow { start, end, successors });
        }
        rows
    }

    /// Walks a delta's movement at one layer: `f(ring, node, joins)`
    /// once per node leaving (`joins == false`) or entering a ring.
    /// Departures leave the ring of the node's *old* order (the one it
    /// was grouped by), joins enter the ring of the *new* one; a
    /// re-bin whose ring key is unchanged at this layer moves nothing.
    ///
    /// # Panics
    /// Panics if the delta names out-of-range nodes (the public
    /// callers validate first).
    fn walk_changes(
        &self,
        layer_no: usize,
        delta: &HierasDelta<'_>,
        orders: &[LandmarkOrder],
        mut f: impl FnMut(LandmarkOrder, u32, bool),
    ) {
        let key = |order: &LandmarkOrder| self.config.ring_key(layer_no, order);
        for &m in delta.departed {
            f(key(&self.orders[m as usize]), m, false);
        }
        for &m in delta.joined {
            f(key(&orders[m as usize]), m, true);
        }
        for &m in delta.rebinned {
            let old = key(&self.orders[m as usize]);
            let new = key(&orders[m as usize]);
            if old != new {
                f(old, m, false);
                f(new, m, true);
            }
        }
    }

    /// Per-ring movement of a delta at one layer, keyed by ring name
    /// (sorted): `name → (removals, insertions)`, from
    /// [`Self::walk_changes`].
    fn layer_changes(
        &self,
        layer_no: usize,
        delta: &HierasDelta<'_>,
        orders: &[LandmarkOrder],
    ) -> BTreeMap<LandmarkOrder, (Vec<u32>, Vec<u32>)> {
        let mut changes: BTreeMap<LandmarkOrder, (Vec<u32>, Vec<u32>)> = BTreeMap::new();
        self.walk_changes(layer_no, delta, orders, |ring, m, joins| {
            let (removals, insertions) = changes.entry(ring).or_default();
            if joins {
                insertions.push(m);
            } else {
                removals.push(m);
            }
        });
        changes
    }

    /// How many rings `delta` would touch versus the hierarchy total —
    /// the cheap (one sort of the `O(|delta|)` touched ring names per
    /// layer, no builds) probe the serve maintainer uses to pick the
    /// incremental path when the churn batch is local and fall back to
    /// a full rebuild when it is not. A ring counts once per layer
    /// however many of the delta's nodes leave or enter it.
    ///
    /// # Panics
    /// Panics if the delta names out-of-range nodes.
    #[must_use]
    pub fn delta_touch_stats(&self, delta: &HierasDelta<'_>, orders: &[LandmarkOrder]) -> DeltaStats {
        let mut touched = 0usize;
        let mut total = 0usize;
        let mut rings = Vec::with_capacity(
            delta.departed.len() + delta.joined.len() + 2 * delta.rebinned.len(),
        );
        for layer in &self.layers {
            total += layer.rings.len();
            rings.clear();
            self.walk_changes(layer.layer_no, delta, orders, |ring, _, _| rings.push(ring));
            rings.sort_unstable();
            rings.dedup();
            touched += rings.len();
        }
        DeltaStats { touched_rings: touched, total_rings: total }
    }

    /// The order table the delta's hierarchy holds. This hierarchy's
    /// own table is shared without a look at its entries: the same
    /// memory holds the same orders. Any other table is compared entry
    /// by entry — a live member whose order moved without being
    /// declared is misuse, since sharing its rings would silently
    /// diverge from a full rebuild — and copied when an entry moved.
    /// The declared set is sorted once and walked beside the scan, so
    /// the check costs O(n + |delta| log |delta|) however many entries
    /// differ.
    fn sync_orders(
        &self,
        delta: &HierasDelta<'_>,
        orders: &[LandmarkOrder],
    ) -> Result<OrderTable, HierasBuildError> {
        if self.orders.is(orders) {
            return Ok(self.orders.clone());
        }
        let mut declared: Vec<u32> =
            delta.rebinned.iter().chain(delta.joined).chain(delta.departed).copied().collect();
        declared.sort_unstable();
        let mut declared = declared.into_iter().peekable();
        let mut changed = false;
        for (i, (new, old)) in orders.iter().zip(self.orders.iter()).enumerate() {
            if new != old {
                let node = i as u32;
                while declared.next_if(|&d| d < node).is_some() {}
                if declared.peek() != Some(&node) && self.layers[0].ring_index_of(node).is_some() {
                    return Err(HierasBuildError::UndeclaredRebin { node });
                }
                changed = true;
            }
        }
        Ok(if changed { OrderTable::new(orders.to_vec()) } else { self.orders.clone() })
    }

    /// Applies one epoch's membership/binning delta, producing a new
    /// hierarchy **byte-identical** to
    /// [`HierasOracle::build_members_on`] over the post-delta
    /// membership and `orders`. Untouched rings are structurally shared
    /// with `self` (their [`Arc`]s are cloned); only rings whose
    /// membership or binning moved are copied, via
    /// [`RingView::apply_delta_on`] (with arenas recycled through
    /// `pool`), born rings are built fresh, and emptied rings
    /// disappear. Ring tables are recomputed for touched ring names
    /// only, from the ends of their rings' arenas.
    ///
    /// What is decided and copied per epoch follows the delta, except
    /// for the touched rings themselves: each touched ring's arenas are
    /// streamed once (`memcpy` speed), each touched layer's node→ring
    /// map copies only the chunks the delta writes to (all of them
    /// when a ring is born or dies and the rings renumber), and the
    /// order table is shared outright when `orders` is this
    /// hierarchy's own ([`HierasOracle::orders`]). Any other `orders`
    /// is read whole, to check that no live member's order moved
    /// undeclared, and copied when an entry moved.
    ///
    /// `orders` is the caller's full (global-sized) order table after
    /// this epoch's re-binning; entries may differ from the builder's
    /// table only for `joined`/`rebinned`/dead nodes.
    ///
    /// # Errors
    /// See [`HierasBuildError`]; notably
    /// [`HierasBuildError::UndeclaredRebin`] when a live member's
    /// order moved without being declared, and ring-level errors for
    /// joins of existing members or departures of non-members.
    pub fn apply_delta_on(
        &self,
        exec: &Executor,
        delta: &HierasDelta<'_>,
        orders: &[LandmarkOrder],
        pool: &mut RingArenaPool,
    ) -> Result<Self, HierasBuildError> {
        if orders.len() != self.ids.len() {
            return Err(HierasBuildError::OrderCount {
                expected: self.ids.len(),
                got: orders.len(),
            });
        }
        for &m in delta.joined.iter().chain(delta.rebinned).chain(delta.departed) {
            if (m as usize) >= self.ids.len() {
                return Err(HierasBuildError::Ring(RingBuildError::BadIndex(m)));
            }
        }
        for &m in delta.joined.iter().chain(delta.rebinned) {
            let o = &orders[m as usize];
            if o.len() < self.config.landmarks {
                return Err(HierasBuildError::OrderTooShort {
                    node: m,
                    got: o.len(),
                    need: self.config.landmarks,
                });
            }
        }
        for &m in delta.rebinned {
            if self.layers[0].ring_index_of(m).is_none() {
                return Err(HierasBuildError::Ring(RingBuildError::NotAMember(m)));
            }
        }
        let new_orders = self.sync_orders(delta, orders)?;
        let mut new_layers = Vec::with_capacity(self.layers.len());
        let mut touched_names: Vec<LandmarkOrder> = Vec::new();
        for layer in &self.layers {
            let changes = self.layer_changes(layer.layer_no, delta, orders);
            if changes.is_empty() {
                // Nothing moved at this layer: share it outright.
                new_layers.push(layer.clone());
                continue;
            }
            if layer.layer_no > 1 {
                touched_names.extend(changes.keys());
            }
            // Rings born this epoch: changed names with no current ring.
            let mut born: Vec<(&LandmarkOrder, &Vec<u32>)> = Vec::new();
            for (name, (rem, ins)) in &changes {
                if layer.names.binary_search(name).is_err() {
                    if let Some(&m) = rem.first() {
                        return Err(HierasBuildError::Ring(RingBuildError::NotAMember(m)));
                    }
                    born.push((name, ins));
                }
            }
            // Merge old (surviving/delta'd) and born rings in sorted
            // name order — the numbering a full rebuild produces.
            let mut new_names: Vec<LandmarkOrder> = Vec::with_capacity(layer.names.len() + born.len());
            let mut new_rings: Vec<Arc<RingView>> = Vec::with_capacity(layer.rings.len() + born.len());
            let mut old_to_new: Vec<u32> = vec![u32::MAX; layer.names.len()];
            let mut bi = 0usize;
            let spawn = |name: &LandmarkOrder,
                             ins: &[u32],
                             names: &mut Vec<LandmarkOrder>,
                             rings: &mut Vec<Arc<RingView>>|
             -> Result<(), RingBuildError> {
                let ring = RingView::build_on(exec, self.space, Arc::clone(&self.ids), ins)?;
                names.push(*name);
                rings.push(Arc::new(ring));
                Ok(())
            };
            for (oi, name) in layer.names.iter().enumerate() {
                while bi < born.len() && born[bi].0 < name {
                    spawn(born[bi].0, born[bi].1, &mut new_names, &mut new_rings)?;
                    bi += 1;
                }
                let old = &layer.rings[oi];
                match changes.get(name) {
                    None => {
                        old_to_new[oi] = new_names.len() as u32;
                        new_names.push(*name);
                        new_rings.push(Arc::clone(old));
                    }
                    Some((rem, ins)) => {
                        if ins.is_empty() && rem.len() == old.len() {
                            let mut pos: Vec<u32> = Vec::with_capacity(rem.len());
                            for &m in rem {
                                pos.push(
                                    old.position_of(m).ok_or(RingBuildError::NotAMember(m))?,
                                );
                            }
                            pos.sort_unstable();
                            pos.dedup();
                            if pos.len() == old.len() {
                                continue; // the ring emptied and disappears
                            }
                        }
                        let ring = old.apply_delta_on(rem, ins, pool)?;
                        old_to_new[oi] = new_names.len() as u32;
                        new_names.push(*name);
                        new_rings.push(Arc::new(ring));
                    }
                }
            }
            while bi < born.len() {
                spawn(born[bi].0, born[bi].1, &mut new_names, &mut new_rings)?;
                bi += 1;
            }
            if new_rings.is_empty() {
                return Err(HierasBuildError::Ring(RingBuildError::Empty));
            }
            // Re-point every node at its ring: a straight copy unless
            // a birth or death renumbered the surviving rings.
            let renumbered = old_to_new.iter().enumerate().any(|(oi, &ni)| ni != oi as u32);
            let mut map = if renumbered {
                layer.ring_of_node.renumbered(&old_to_new)
            } else {
                layer.ring_of_node.clone()
            };
            for &m in delta.departed {
                map.set(m, u32::MAX);
            }
            for &m in delta.joined.iter().chain(delta.rebinned) {
                let name = self.config.ring_key(layer.layer_no, &orders[m as usize]);
                let ri = new_names
                    .binary_search(&name)
                    .expect("a joined/re-binned node's target ring exists");
                map.set(m, ri as u32);
            }
            new_layers.push(Layer {
                layer_no: layer.layer_no,
                rings: new_rings,
                names: new_names,
                ring_of_node: map,
            });
        }
        // Ring tables: recompute touched names only, as the full build
        // computes every one.
        let mut ring_tables = self.ring_tables.clone();
        for name in touched_names {
            refresh_table(&mut ring_tables, &new_layers, name);
        }
        Ok(HierasOracle {
            space: self.space,
            ids: Arc::clone(&self.ids),
            config: self.config.clone(),
            orders: new_orders,
            layers: new_layers,
            ring_tables,
        })
    }

    /// Order-sensitive digest of everything routing-visible — ring
    /// names, packed arenas, node→ring maps, ring tables (sorted by
    /// name), and the order table. Two oracles with equal digests
    /// route identically; the delta-vs-full identity gates chain this
    /// across whole runs. Rings, node→ring map chunks and the order
    /// table enter through their own cached digests, so an epoch
    /// re-hashes only the rings and chunks it copied, its ring tables,
    /// and the order table when binning moved.
    #[must_use]
    pub fn hierarchy_digest(&self) -> u64 {
        let mut h = splitmix64(0x48ae_5a11_d161_57a1 ^ self.layers.len() as u64);
        for layer in &self.layers {
            h = splitmix64(h ^ layer.layer_no as u64);
            for (name, ring) in layer.rings() {
                for d in name.digits() {
                    h = splitmix64(h ^ u64::from(d) ^ 0x1111);
                }
                h = splitmix64(h ^ ring.arena_digest());
            }
            h = layer.ring_of_node.digest(h);
        }
        for (name, t) in &self.ring_tables {
            // The name enters as its ASCII digits.
            for d in name.digits() {
                h = splitmix64(h ^ u64::from(b'0' + d));
            }
            h = splitmix64(h ^ t.ring_id.0);
            for &m in t.entry_points() {
                h = splitmix64(h ^ m.0);
            }
        }
        splitmix64(h ^ self.orders.digest())
    }

    /// Dismantles this hierarchy into `pool`, salvaging the arena
    /// allocations of every ring this oracle was the last owner of
    /// (rings still shared with a newer epoch just drop their
    /// reference). The epoch publisher calls this on reclaimed
    /// snapshots so steady-state publishing stops round-tripping arena
    /// buffers through the allocator.
    pub fn recycle_into(self, pool: &mut RingArenaPool) {
        for layer in self.layers {
            for ring in layer.rings {
                if let Ok(r) = Arc::try_unwrap(ring) {
                    r.recycle_into(pool);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_map::CHUNK;
    use crate::Binning;

    fn ord(digits: &str) -> LandmarkOrder {
        digits.parse().unwrap()
    }

    /// Hand-built 2-layer system: 12 nodes, 2 landmarks, two bins.
    fn two_bin_system() -> (HierasOracle, Arc<[Id]>) {
        let space = IdSpace::full();
        let ids: Arc<[Id]> = (0..12u64)
            .map(|i| Id(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect::<Vec<_>>()
            .into();
        // Even nodes near both landmarks ("00"), odd nodes far ("22").
        let rtts: Vec<Vec<u16>> = (0..12)
            .map(|i| if i % 2 == 0 { vec![5, 10] } else { vec![150, 200] })
            .collect();
        let config = HierasConfig { depth: 2, landmarks: 2, binning: Binning::paper() };
        let o = HierasOracle::from_rtts(space, Arc::clone(&ids), &rtts, config).unwrap();
        (o, ids)
    }

    #[test]
    fn builds_expected_ring_structure() {
        let (o, _) = two_bin_system();
        assert_eq!(o.layers().len(), 2);
        assert_eq!(o.layers()[0].ring_count(), 1);
        assert_eq!(o.layers()[1].ring_count(), 2);
        assert_eq!(o.global_ring().len(), 12);
        // Each lower ring holds the 6 even or 6 odd nodes.
        for (_, ring) in o.layers()[1].rings() {
            assert_eq!(ring.len(), 6);
        }
        assert_eq!(o.layers()[1].ring_name_of(0).name(), "00");
        assert_eq!(o.layers()[1].ring_name_of(1).name(), "22");
    }

    #[test]
    fn route_agrees_with_chord_owner_for_all_keys() {
        let (o, _) = two_bin_system();
        for k in 0..200u64 {
            let key = Id(k.wrapping_mul(0x517c_c1b7_2722_0a95).wrapping_add(k));
            let owner = o.owner_of(key);
            for src in 0..12u32 {
                let t = o.route(src, key);
                assert_eq!(t.destination(), owner, "src {src} key {k}");
                assert_eq!(t.origin, src);
            }
        }
    }

    #[test]
    fn route_uses_lower_layer_first() {
        let (o, _) = two_bin_system();
        let mut saw_lower = false;
        for k in 0..100u64 {
            let key = Id(k.wrapping_mul(0xdead_beef_1234_5678));
            let t = o.route(0, key);
            // Layers must be non-increasing along the trace (lower layer
            // number = higher layer; we go lowest-first so recorded layer
            // numbers run high → low).
            for w in t.hops.windows(2) {
                assert!(w[0].layer >= w[1].layer, "layer order violated: {:?}", t.hops);
            }
            if t.lower_layer_hops() > 0 {
                saw_lower = true;
            }
        }
        assert!(saw_lower, "no request ever used the lower layer");
    }

    #[test]
    fn lower_layer_hops_stay_within_origin_ring() {
        let (o, _) = two_bin_system();
        for k in 0..100u64 {
            let key = Id(k.wrapping_mul(0xabcdef12_3456789b));
            let t = o.route(1, key); // odd node, ring "22"
            for h in t.hops.iter().filter(|h| h.layer == 2) {
                assert_eq!(h.from % 2, 1, "lower hop left the origin ring");
                assert_eq!(h.to % 2, 1, "lower hop left the origin ring");
            }
        }
    }

    #[test]
    fn depth1_is_plain_chord() {
        let space = IdSpace::full();
        let ids: Arc<[Id]> = (1..=20u64).map(|i| Id(i << 40)).collect::<Vec<_>>().into();
        let rtts: Vec<Vec<u16>> = (0..20).map(|_| vec![]).collect();
        let config = HierasConfig { depth: 1, landmarks: 0, binning: Binning::paper() };
        let o = HierasOracle::from_rtts(space, Arc::clone(&ids), &rtts, config).unwrap();
        let chord = hieras_chord::ChordOracle::build(space, ids).unwrap();
        let mut c = PathBuf::new();
        for k in 0..100u64 {
            let key = Id(k.wrapping_mul(0x0123_4567_89ab_cdef));
            let t = o.route(3, key);
            chord.lookup_into(3, key, &mut c);
            assert_eq!(Some(&t.destination()), c.as_slice().last());
            assert_eq!(t.hop_count(), c.len() - 1, "key {k}");
            assert!(t.hops.iter().all(|h| h.layer == 1));
        }
    }

    #[test]
    fn build_rejects_mismatched_orders() {
        let space = IdSpace::full();
        let ids: Arc<[Id]> = vec![Id(1), Id(2)].into();
        let err = HierasOracle::build(
            space,
            Arc::clone(&ids),
            vec![ord("00")],
            HierasConfig { depth: 2, landmarks: 2, binning: Binning::paper() },
        )
        .unwrap_err();
        assert_eq!(err, HierasBuildError::OrderCount { expected: 2, got: 1 });
        let err = HierasOracle::build(
            space,
            ids,
            vec![ord("0"), ord("01")],
            HierasConfig { depth: 2, landmarks: 2, binning: Binning::paper() },
        )
        .unwrap_err();
        assert_eq!(err, HierasBuildError::OrderTooShort { node: 0, got: 1, need: 2 });
    }

    #[test]
    fn ring_tables_cover_all_lower_rings() {
        let (o, ids) = two_bin_system();
        assert_eq!(o.ring_tables().len(), 2);
        let t = o.ring_table(&ord("00")).unwrap();
        assert_eq!(t.ring_name, ord("00"));
        assert!((1..=4).contains(&t.len()));
        // Every entry point is an even node's id.
        for ep in t.entry_points() {
            assert!(ids.iter().step_by(2).any(|i| i == ep));
        }
        // The holder is the global owner of the ring id.
        let holder = o.ring_table_holder(t.ring_id);
        assert_eq!(holder, o.owner_of(t.ring_id));
    }

    #[test]
    fn finger_rows_have_one_successor_per_layer() {
        let (o, _) = two_bin_system();
        let rows = o.finger_rows(4);
        assert_eq!(rows.len(), 64);
        for r in &rows {
            assert_eq!(r.successors.len(), 2);
            // Layer-2 successor stays in node 4's ring (even nodes).
            assert_eq!(r.successors[1] % 2, 0);
        }
    }

    #[test]
    fn deeper_hierarchies_nest_rings() {
        let space = IdSpace::full();
        let n = 30u64;
        let ids: Arc<[Id]> =
            (0..n).map(|i| Id(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))).collect::<Vec<_>>().into();
        // 4 landmarks, varied bins.
        let rtts: Vec<Vec<u16>> = (0..n)
            .map(|i| {
                vec![
                    if i % 2 == 0 { 5 } else { 150 },
                    if i % 3 == 0 { 10 } else { 120 },
                    if i % 5 == 0 { 15 } else { 200 },
                    30,
                ]
            })
            .collect();
        let config = HierasConfig { depth: 3, landmarks: 4, binning: Binning::paper() };
        let o = HierasOracle::from_rtts(space, ids, &rtts, config).unwrap();
        assert_eq!(o.layers().len(), 3);
        // Nesting: all members of a layer-3 ring share their layer-2 ring.
        for node in 0..n as u32 {
            let l3 = o.layers()[2].ring_of(node);
            let my_l2 = o.layers()[1].ring_name_of(node);
            for &m in l3.members() {
                assert_eq!(o.layers()[1].ring_name_of(m), my_l2);
            }
        }
        // Routing still exact.
        for k in 0..60u64 {
            let key = Id(k.wrapping_mul(0x517c_c1b7_2722_0a95));
            let t = o.route((k % n) as u32, key);
            assert_eq!(t.destination(), o.owner_of(key));
        }
    }

    fn two_bin_inputs() -> (IdSpace, Arc<[Id]>, Vec<LandmarkOrder>, HierasConfig) {
        let space = IdSpace::full();
        let ids: Arc<[Id]> = (0..12u64)
            .map(|i| Id(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect::<Vec<_>>()
            .into();
        let binning = Binning::paper();
        let orders: Vec<LandmarkOrder> = (0..12)
            .map(|i| {
                let rtts: Vec<u16> =
                    if i % 2 == 0 { vec![5, 10] } else { vec![150, 200] };
                binning.order(&rtts)
            })
            .collect();
        let config = HierasConfig { depth: 2, landmarks: 2, binning };
        (space, ids, orders, config)
    }

    #[test]
    fn subset_build_matches_subset_chord_owner() {
        let (space, ids, orders, config) = two_bin_inputs();
        // Nodes 3 and 8 are dead; the rest form the hierarchy.
        let members: Vec<u32> = (0..12u32).filter(|&m| m != 3 && m != 8).collect();
        let o = HierasOracle::build_members_on(
            &Executor::default(),
            space,
            Arc::clone(&ids),
            orders,
            &members,
            config,
        )
        .unwrap();
        assert_eq!(o.global_ring().len(), 10);
        assert_eq!(o.len(), 12, "id table stays global-sized");
        // Ground truth: a Chord ring over the same subset.
        let chord = RingView::build(space, ids, &members).unwrap();
        for k in 0..200u64 {
            let key = Id(k.wrapping_mul(0x517c_c1b7_2722_0a95).wrapping_add(k));
            let want = chord.node_at(chord.successor_of_key(key));
            assert_eq!(o.owner_of(key), want, "key {k}");
            for &src in &members {
                assert_eq!(o.route(src, key).destination(), want, "src {src} key {k}");
            }
        }
    }

    #[test]
    fn subset_build_rejects_empty_and_out_of_range_members() {
        let (space, ids, orders, config) = two_bin_inputs();
        let err = HierasOracle::build_members_on(
            &Executor::default(),
            space,
            Arc::clone(&ids),
            orders.clone(),
            &[],
            config.clone(),
        )
        .unwrap_err();
        assert_eq!(err, HierasBuildError::Ring(RingBuildError::Empty));
        let err = HierasOracle::build_members_on(
            &Executor::default(),
            space,
            ids,
            orders,
            &[0, 99],
            config,
        )
        .unwrap_err();
        assert_eq!(err, HierasBuildError::Ring(RingBuildError::BadIndex(99)));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn routing_from_a_dead_node_panics() {
        let (space, ids, orders, config) = two_bin_inputs();
        let members: Vec<u32> = (0..12u32).filter(|&m| m != 3).collect();
        let o = HierasOracle::build_members_on(
            &Executor::default(),
            space,
            ids,
            orders,
            &members,
            config,
        )
        .unwrap();
        let _ = o.route(3, Id(42));
    }

    /// The identity gates compare digest to digest, so each piece of
    /// state the digest covers must move it on its own.
    #[test]
    fn hierarchy_digest_covers_node_maps_orders_and_ring_tables() {
        let (o, _) = two_bin_system();
        let base = o.hierarchy_digest();
        assert_eq!(o.clone().hierarchy_digest(), base);

        let mut m = o.clone();
        let r = m.layers[1].ring_of_node.at(4);
        m.layers[1].ring_of_node.set(4, r ^ 1);
        assert_ne!(m.hierarchy_digest(), base, "one ring_of_node entry");

        let mut m = o.clone();
        let mut list = m.orders.to_vec();
        list[4] = ord("01");
        m.orders = OrderTable::new(list);
        assert_ne!(m.hierarchy_digest(), base, "one order");

        let mut m = o.clone();
        let t = m.ring_tables.get_mut(&ord("00")).unwrap();
        let before = t.entry_points().to_vec();
        t.observe(Id(1));
        assert_ne!(t.entry_points(), before);
        assert_ne!(m.hierarchy_digest(), base, "one ring-table entry point");

        // A map of several chunks: one entry in any chunk, the first,
        // a middle one and the short last one, moves the digest.
        let (space, ids, orders, config) = chunked_inputs(3 * CHUNK + 40);
        let o = HierasOracle::build(space, ids, orders, config).unwrap();
        let base = o.hierarchy_digest();
        for node in [0, CHUNK as u32 + 7, 2 * CHUNK as u32 - 1, 3 * CHUNK as u32 + 39] {
            for layer in 0..2 {
                let mut m = o.clone();
                let _ = m.hierarchy_digest(); // cache every chunk's digest
                let r = m.layers[layer].ring_of_node.at(node);
                m.layers[layer].ring_of_node.set(node, r ^ 1);
                assert_ne!(m.hierarchy_digest(), base, "layer {layer} node {node}");
            }
        }
    }

    /// `n` nodes over two stub domains in alternating runs of 300, so
    /// both rings span every chunk.
    fn chunked_inputs(n: usize) -> (IdSpace, Arc<[Id]>, Vec<LandmarkOrder>, HierasConfig) {
        let ids: Arc<[Id]> = (0..n as u64)
            .map(|i| Id(splitmix64(i ^ 0xc4a2)))
            .collect::<Vec<_>>()
            .into();
        let orders = (0..n).map(|i| ord(if (i / 300) % 2 == 0 { "00" } else { "22" })).collect();
        let config = HierasConfig { depth: 2, landmarks: 2, binning: Binning::paper() };
        (IdSpace::full(), ids, orders, config)
    }

    /// A four-event delta copies the map chunks it writes to and
    /// shares every other chunk, and the order table, with its parent.
    #[test]
    fn delta_copies_only_the_chunks_it_writes() {
        let (space, ids, orders, config) = chunked_inputs(4 * CHUNK + 3);
        let exec = Executor::new(1);
        let n = ids.len() as u32;
        let members: Vec<u32> = (0..n).filter(|&m| m != 5).collect();
        let base = HierasOracle::build_members_on(
            &exec,
            space,
            Arc::clone(&ids),
            orders.clone(),
            &members,
            config.clone(),
        )
        .unwrap();
        // Node 5 joins and node 6 leaves (chunk 0), node 2 * CHUNK + 1
        // leaves and node 4 * CHUNK + 2 (the short last chunk) leaves.
        let departed = [6, 2 * CHUNK as u32 + 1, 4 * CHUNK as u32 + 2];
        let delta = HierasDelta { joined: &[5], departed: &departed, rebinned: &[] };
        let inc = base
            .apply_delta_on(&exec, &delta, base.orders(), &mut RingArenaPool::disabled())
            .unwrap();
        assert!(inc.orders.0.list.as_ptr() == base.orders.0.list.as_ptr(), "table shared");
        for (li, lb) in inc.layers().iter().zip(base.layers()) {
            let shared = li.ring_of_node.shared_chunks(&lb.ring_of_node);
            assert_eq!(shared, 2, "layer {}: chunks 1 and 3 untouched", li.layer_no);
        }
        let post: Vec<u32> = (0..n).filter(|&m| !departed.contains(&m)).collect();
        let full =
            HierasOracle::build_members_on(&exec, space, ids, orders, &post, config).unwrap();
        assert_same(&inc, &full);
    }

    /// Field-by-field structural equality: every ring arena, ring
    /// numbering, node→ring map and the whole-hierarchy digest.
    fn assert_same(a: &HierasOracle, b: &HierasOracle) {
        assert_eq!(a.layers().len(), b.layers().len());
        for (la, lb) in a.layers().iter().zip(b.layers()) {
            assert_eq!(la.ring_count(), lb.ring_count(), "layer {}", la.layer_no);
            for ((na, ra), (nb, rb)) in la.rings().zip(lb.rings()) {
                assert_eq!(na, nb, "layer {}", la.layer_no);
                assert_eq!(ra, rb, "layer {} ring {}", la.layer_no, na.name());
            }
            assert_eq!(la.ring_of_node, lb.ring_of_node, "layer {}", la.layer_no);
        }
        assert_eq!(a.hierarchy_digest(), b.hierarchy_digest());
    }

    #[test]
    fn delta_matches_full_rebuild_on_churn_batch() {
        let (space, ids, orders, config) = two_bin_inputs();
        let exec = Executor::default();
        let members: Vec<u32> = (0..12u32).filter(|&m| m != 5 && m != 8).collect();
        let base = HierasOracle::build_members_on(
            &exec,
            space,
            Arc::clone(&ids),
            orders.clone(),
            &members,
            config.clone(),
        )
        .unwrap();
        // One epoch: node 5 joins, node 2 leaves, node 4 re-bins to "22".
        let mut after = orders.clone();
        after[4] = ord("22");
        let delta = HierasDelta { joined: &[5], departed: &[2], rebinned: &[4] };
        let inc = base
            .apply_delta_on(&exec, &delta, &after, &mut RingArenaPool::disabled())
            .unwrap();
        let post: Vec<u32> = (0..12u32).filter(|&m| m != 2 && m != 8).collect();
        let full = HierasOracle::build_members_on(
            &exec,
            space,
            Arc::clone(&ids),
            after,
            &post,
            config,
        )
        .unwrap();
        assert_same(&inc, &full);
        for k in 0..50u64 {
            let key = Id(k.wrapping_mul(0x517c_c1b7_2722_0a95));
            assert_eq!(inc.owner_of(key), full.owner_of(key));
            assert_eq!(inc.route(4, key).hop_count(), full.route(4, key).hop_count());
        }
        // The untouched base survives unchanged (copy-on-write).
        assert!(base.layers()[0].ring_index_of(2).is_some());
        assert!(base.layers()[0].ring_index_of(5).is_none());
    }

    #[test]
    fn delta_handles_ring_death_and_birth() {
        let (space, ids, orders, config) = two_bin_inputs();
        let exec = Executor::default();
        let all: Vec<u32> = (0..12u32).collect();
        let base = HierasOracle::build_members_on(
            &exec,
            space,
            Arc::clone(&ids),
            orders.clone(),
            &all,
            config.clone(),
        )
        .unwrap();
        // Whole-stub-domain removal: every "22" node departs at once.
        let odds: Vec<u32> = (0..12u32).filter(|m| m % 2 == 1).collect();
        let delta = HierasDelta { departed: &odds, ..HierasDelta::default() };
        let inc = base
            .apply_delta_on(&exec, &delta, &orders, &mut RingArenaPool::disabled())
            .unwrap();
        let evens: Vec<u32> = (0..12u32).filter(|m| m % 2 == 0).collect();
        let full = HierasOracle::build_members_on(
            &exec,
            space,
            Arc::clone(&ids),
            orders.clone(),
            &evens,
            config.clone(),
        )
        .unwrap();
        assert_same(&inc, &full);
        assert_eq!(inc.layers()[1].ring_count(), 1, "ring 22 died");
        assert!(inc.ring_table(&ord("22")).is_none(), "dead ring keeps no table");
        // Birth: node 1 rejoins under a brand-new order "11".
        let mut after = orders.clone();
        after[1] = ord("11");
        let delta = HierasDelta { joined: &[1], ..HierasDelta::default() };
        let inc2 = inc
            .apply_delta_on(&exec, &delta, &after, &mut RingArenaPool::disabled())
            .unwrap();
        let post: Vec<u32> = (0..12u32).filter(|&m| m % 2 == 0 || m == 1).collect();
        let full2 = HierasOracle::build_members_on(
            &exec,
            space,
            Arc::clone(&ids),
            after,
            &post,
            config,
        )
        .unwrap();
        assert_same(&inc2, &full2);
        assert_eq!(inc2.layers()[1].ring_count(), 2, "ring 11 born");
        assert_eq!(inc2.ring_table(&ord("11")).unwrap().len(), 1);
    }

    #[test]
    fn delta_validates_inputs() {
        let (space, ids, orders, config) = two_bin_inputs();
        let exec = Executor::default();
        let all: Vec<u32> = (0..12u32).collect();
        let o = HierasOracle::build_members_on(
            &exec,
            space,
            Arc::clone(&ids),
            orders.clone(),
            &all,
            config,
        )
        .unwrap();
        let mut pool = RingArenaPool::disabled();
        let err = o
            .apply_delta_on(&exec, &HierasDelta::default(), &orders[..5], &mut pool)
            .unwrap_err();
        assert_eq!(err, HierasBuildError::OrderCount { expected: 12, got: 5 });
        // A live member's order moved without being declared re-binned.
        let mut sneaky = orders.clone();
        sneaky[7] = ord("00");
        let err = o
            .apply_delta_on(&exec, &HierasDelta::default(), &sneaky, &mut pool)
            .unwrap_err();
        assert_eq!(err, HierasBuildError::UndeclaredRebin { node: 7 });
        // ...but declaring it makes the same input valid.
        let delta = HierasDelta { rebinned: &[7], ..HierasDelta::default() };
        assert!(o.apply_delta_on(&exec, &delta, &sneaky, &mut pool).is_ok());
        // Re-binning a node that is not a member.
        let dead = HierasDelta { departed: &[7], ..HierasDelta::default() };
        let o2 = o.apply_delta_on(&exec, &dead, &orders, &mut pool).unwrap();
        let delta = HierasDelta { rebinned: &[7], ..HierasDelta::default() };
        let err = o2.apply_delta_on(&exec, &delta, &orders, &mut pool).unwrap_err();
        assert_eq!(err, HierasBuildError::Ring(RingBuildError::NotAMember(7)));
        // A copy of the hierarchy's own table is foreign memory: it is
        // checked entry by entry, so an undeclared move still errors.
        let mut copy = o.orders().to_vec();
        copy[3] = ord("00");
        let err = o
            .apply_delta_on(&exec, &HierasDelta::default(), &copy, &mut pool)
            .unwrap_err();
        assert_eq!(err, HierasBuildError::UndeclaredRebin { node: 3 });
        // A prefix of the own table is not the own table.
        let err = o
            .apply_delta_on(&exec, &HierasDelta::default(), &o.orders()[..11], &mut pool)
            .unwrap_err();
        assert_eq!(err, HierasBuildError::OrderCount { expected: 12, got: 11 });
        // Every odd node re-binned, declared out of order: the sorted
        // walk accepts exactly the declared moves.
        let mut all_moved = orders.clone();
        let odd: Vec<u32> = (0..12u32).rev().filter(|m| m % 2 == 1).collect();
        for &m in &odd {
            all_moved[m as usize] = ord("00");
        }
        let delta = HierasDelta { rebinned: &odd, ..HierasDelta::default() };
        assert!(o.apply_delta_on(&exec, &delta, &all_moved, &mut pool).is_ok());
        let delta = HierasDelta { rebinned: &odd[1..], ..HierasDelta::default() };
        let err = o.apply_delta_on(&exec, &delta, &all_moved, &mut pool).unwrap_err();
        assert_eq!(err, HierasBuildError::UndeclaredRebin { node: odd[0] });
        // Out-of-range node indices.
        let delta = HierasDelta { joined: &[99], ..HierasDelta::default() };
        let err = o.apply_delta_on(&exec, &delta, &orders, &mut pool).unwrap_err();
        assert_eq!(err, HierasBuildError::Ring(RingBuildError::BadIndex(99)));
        // An empty delta is the identity.
        let same = o
            .apply_delta_on(&exec, &HierasDelta::default(), &orders, &mut pool)
            .unwrap();
        assert_same(&same, &o);
    }

    /// Every lower ring's table against the definition: a fresh table
    /// that observed every member of the ring.
    fn assert_tables_observe_everyone(o: &HierasOracle) {
        let mut rings = 0;
        for layer in o.layers().iter().skip(1) {
            for (name, ring) in layer.rings() {
                let mut want = RingTable::new(name);
                for &m in ring.members() {
                    want.observe(o.id_of(m));
                }
                assert_eq!(o.ring_table(name), Some(&want), "ring {name}");
                rings += 1;
            }
        }
        assert_eq!(o.ring_tables().len(), rings);
    }

    /// A ring table filled from the ends of the ring's sorted arena is
    /// the table that observed every member — for every ring size
    /// around the four slots, from full builds and from deltas that
    /// take an extreme member away or add a new one.
    #[test]
    fn ring_tables_from_arena_ends_match_observing_every_member() {
        let (space, ids, _, config) = two_bin_inputs();
        let exec = Executor::new(1);
        let all: Vec<u32> = (0..12u32).collect();
        let by_id = |ring: &RingView| (ring.node_at(0), ring.node_at(ring.len() as u32 - 1));
        for small in 1..=6usize {
            // Ring "00" holds `small` nodes, ring "22" the other 12 - small.
            let orders: Vec<LandmarkOrder> = (0..12)
                .map(|i| ord(if i < small { "00" } else { "22" }))
                .collect();
            let mut o = HierasOracle::build_members_on(
                &exec,
                space,
                Arc::clone(&ids),
                orders.clone(),
                &all,
                config.clone(),
            )
            .unwrap();
            assert_eq!(o.layers()[1].ring_of(0).len(), small);
            assert_tables_observe_everyone(&o);
            // Shrink "22" from both ends down to one member, then hand
            // the departed back one by one.
            let mut gone: Vec<u32> = Vec::new();
            while o.layers()[1].ring_of(11).len() > 1 {
                let (lo, hi) = by_id(o.layers()[1].ring_of(11));
                let out = if gone.len().is_multiple_of(2) { lo } else { hi };
                let out = if out == 11 { lo + hi - 11 } else { out };
                let delta = HierasDelta { departed: &[out], ..HierasDelta::default() };
                o = o.apply_delta_on(&exec, &delta, &orders, &mut RingArenaPool::disabled()).unwrap();
                assert_tables_observe_everyone(&o);
                gone.push(out);
            }
            for &back in &gone {
                let delta = HierasDelta { joined: &[back], ..HierasDelta::default() };
                o = o.apply_delta_on(&exec, &delta, &orders, &mut RingArenaPool::disabled()).unwrap();
                assert_tables_observe_everyone(&o);
            }
        }
    }

    #[test]
    fn delta_touch_stats_count_affected_rings() {
        let (space, ids, orders, config) = two_bin_inputs();
        let exec = Executor::default();
        let all: Vec<u32> = (0..12u32).collect();
        let o = HierasOracle::build_members_on(
            &exec,
            space,
            Arc::clone(&ids),
            orders.clone(),
            &all,
            config,
        )
        .unwrap();
        let none = o.delta_touch_stats(&HierasDelta::default(), &orders);
        assert_eq!((none.touched_rings, none.total_rings), (0, 3));
        assert_eq!(none.fraction(), 0.0);
        // One departure touches the global ring and its "22" stub ring.
        let delta = HierasDelta { departed: &[3], ..HierasDelta::default() };
        let s = o.delta_touch_stats(&delta, &orders);
        assert_eq!((s.touched_rings, s.total_rings), (2, 3));
        // A re-bin from "22" to "00" touches both stub rings, not global.
        let mut after = orders.clone();
        after[3] = ord("00");
        let delta = HierasDelta { rebinned: &[3], ..HierasDelta::default() };
        let s = o.delta_touch_stats(&delta, &after);
        assert_eq!((s.touched_rings, s.total_rings), (2, 3));

        // Random deltas over a three-layer, four-landmark world: the
        // count is the number of rings `layer_changes` moves nodes in.
        let n = 300u64;
        let ids: Arc<[Id]> =
            (0..n).map(|i| Id(splitmix64(i))).collect::<Vec<_>>().into();
        let binning = Binning::paper();
        let order_of = |seed: u64| {
            let rtts: Vec<u16> =
                (0..4u64).map(|l| (splitmix64(seed ^ (l << 32)) % 160) as u16).collect();
            binning.order(&rtts)
        };
        let orders: Vec<LandmarkOrder> = (0..n).map(order_of).collect();
        let config = HierasConfig { depth: 3, landmarks: 4, binning: binning.clone() };
        let members: Vec<u32> = (0..n as u32).filter(|m| !m.is_multiple_of(5)).collect();
        let o = HierasOracle::build_members_on(
            &exec,
            IdSpace::full(),
            ids,
            orders.clone(),
            &members,
            config,
        )
        .unwrap();
        for case in 0..40u64 {
            let pick = |salt: u64, m: &u32| splitmix64(case ^ salt ^ u64::from(*m)).is_multiple_of(16);
            let departed: Vec<u32> = members.iter().filter(|m| pick(1, m)).copied().collect();
            let rebinned: Vec<u32> = members
                .iter()
                .filter(|m| !departed.contains(m) && pick(2, m))
                .copied()
                .collect();
            let joined: Vec<u32> =
                (0..n as u32).filter(|m| m.is_multiple_of(5) && pick(3, m)).collect();
            let mut after = orders.clone();
            for &m in &rebinned {
                after[m as usize] = order_of(splitmix64(case) ^ u64::from(m));
            }
            let delta = HierasDelta { departed: &departed, joined: &joined, rebinned: &rebinned };
            let s = o.delta_touch_stats(&delta, &after);
            let expected: usize = o
                .layers
                .iter()
                .map(|l| o.layer_changes(l.layer_no, &delta, &after).len())
                .sum();
            assert_eq!(s.touched_rings, expected, "case {case}");
            assert_eq!(s.total_rings, o.layers.iter().map(|l| l.rings.len()).sum::<usize>());
            assert!(s.touched_rings > 0, "case {case} moved nothing");
        }
    }

    #[test]
    fn recycled_oracle_feeds_the_next_delta() {
        let (space, ids, orders, config) = two_bin_inputs();
        let exec = Executor::default();
        let all: Vec<u32> = (0..12u32).collect();
        let mut pool = RingArenaPool::new(16);
        let base = HierasOracle::build_members_on(
            &exec,
            space,
            Arc::clone(&ids),
            orders.clone(),
            &all,
            config,
        )
        .unwrap();
        let delta = HierasDelta { departed: &[3], ..HierasDelta::default() };
        let next = base.apply_delta_on(&exec, &delta, &orders, &mut pool).unwrap();
        // Retire the base epoch: only rings it solely owns are salvaged.
        base.recycle_into(&mut pool);
        assert!(pool.stats().returned > 0, "retired arenas were deposited");
        let delta = HierasDelta { departed: &[5], ..HierasDelta::default() };
        let reused_before = pool.stats().reused;
        let _ = next.apply_delta_on(&exec, &delta, &orders, &mut pool).unwrap();
        assert!(pool.stats().reused > reused_before, "delta build drew from the pool");
    }

    /// Seeded-loop replacement for the old property test: HIERAS always
    /// resolves to the Chord owner, for arbitrary memberships, orders
    /// and depths.
    #[test]
    fn hieras_owner_equals_chord_owner() {
        let mut rng = hieras_rt::Rng::seed_from_u64(0x0c1e);
        for case in 0..128 {
            let seed = rng.random_range(0u64..300);
            let n = rng.random_range(2usize..40);
            let depth = rng.random_range(1usize..4);
            let key = Id(rng.next_u64());
            let space = IdSpace::full();
            let mut raw: Vec<u64> = (0..n as u64)
                .map(|i| seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i << 17))
                .collect();
            raw.sort_unstable();
            raw.dedup();
            let ids: Arc<[Id]> = raw.iter().map(|&v| Id(v)).collect::<Vec<_>>().into();
            let landmarks = 3usize;
            let rtts: Vec<Vec<u16>> = (0..raw.len() as u64)
                .map(|i| {
                    (0..landmarks as u64)
                        .map(|l| (((seed ^ i).wrapping_mul(31).wrapping_add(l * 97)) % 250) as u16)
                        .collect()
                })
                .collect();
            let config = HierasConfig { depth, landmarks, binning: Binning::paper() };
            let o = HierasOracle::from_rtts(space, Arc::clone(&ids), &rtts, config).unwrap();
            let chord = hieras_chord::ChordOracle::build(space, ids).unwrap();
            let want = chord.owner_of(key);
            for src in 0..raw.len() as u32 {
                let t = o.route(src, key);
                assert_eq!(t.destination(), want, "case {case} src {src}");
                // Scalability bound: O(depth * log N) with generous slack.
                assert!(t.hop_count() <= depth * (raw.len() + 64), "case {case}");
            }
        }
    }
}
