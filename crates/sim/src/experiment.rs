//! Experiment assembly and parallel replay — the paper's §4 pipeline.

use crate::metrics::{Metrics, Sample};
use crate::Workload;
use hieras_chord::{ChordOracle, PathBuf};
use hieras_core::{HierasConfig, HierasOracle, LandmarkOrder, RingArenaPool};
use hieras_id::{Id, IdSpace};
use hieras_obs::{names, Profiler, Registry};
use hieras_topology::{BriteConfig, InetConfig, LatencyOracle, Topology, TransitStubConfig};
use hieras_rt::{Executor, Rng};
use std::collections::HashSet;
use std::sync::Arc;

/// Which of the paper's three network models to simulate (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// GT-ITM Transit-Stub — the primary model.
    TransitStub,
    /// Inet-style power-law AS topology (paper minimum: 3000 nodes).
    Inet,
    /// BRITE-style Barabási–Albert with planar delays.
    Brite,
}

impl TopologyKind {
    /// Short name used in figure output ("TS", "Inet", "BRITE").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TopologyKind::TransitStub => "TS",
            TopologyKind::Inet => "Inet",
            TopologyKind::Brite => "BRITE",
        }
    }

    fn generate_on(self, exec: &Executor, peers: usize, seed: u64) -> Topology {
        match self {
            TopologyKind::TransitStub => {
                TransitStubConfig::for_peers(peers, seed).generate_on(exec)
            }
            TopologyKind::Inet => InetConfig::for_peers(peers, seed).generate(),
            TopologyKind::Brite => BriteConfig::for_peers(peers, seed).generate_on(exec),
        }
    }
}

/// Full description of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Network model.
    pub kind: TopologyKind,
    /// Number of overlay peers (the paper sweeps 1000–10000).
    pub nodes: usize,
    /// Number of routing requests to replay (the paper uses 100 000).
    pub requests: usize,
    /// HIERAS parameters (depth, landmarks, binning).
    pub hieras: HierasConfig,
    /// Master seed: topology, placement, ids and workload all derive
    /// from it deterministically.
    pub seed: u64,
    /// Multiplicative landmark-RTT measurement noise: each RTT is
    /// scaled by a uniform factor in `[1-noise, 1+noise]` before
    /// binning. 0.0 reproduces the paper's exact-measurement setting;
    /// > 0 models `ping` inaccuracy (§2.2 ablation).
    pub rtt_noise: f64,
}

impl ExperimentConfig {
    /// The paper's standard setup at a given network size: TS model,
    /// 2-layer HIERAS with 4 landmarks, 100 000 requests.
    #[must_use]
    pub fn paper(nodes: usize, seed: u64) -> Self {
        ExperimentConfig {
            kind: TopologyKind::TransitStub,
            nodes,
            requests: 100_000,
            hieras: HierasConfig::paper(),
            seed,
            rtt_noise: 0.0,
        }
    }
}

/// Replay results for both algorithms over the identical workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonResult {
    /// Chord baseline metrics.
    pub chord: Metrics,
    /// HIERAS metrics.
    pub hieras: Metrics,
}

/// Which [`LatencyOracle`] backend an experiment builds on. Every
/// backend answers identical latencies — exactness is an invariant,
/// not a quality setting — so the choice only moves build time,
/// memory, and per-query cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OracleBackend {
    /// Lazily built rows ([`LatencyOracle::new`]): a full Dijkstra row
    /// per core router, a cell-sized table per router below a bridge.
    /// Queries are a short walk up the bridges; residency is O(N²)
    /// only on a graph with no bridges.
    #[default]
    Rows,
    /// Exact 2-hop hub labels ([`LatencyOracle::with_labels_on`]):
    /// sub-quadratic build and memory, label-merge queries.
    Labels,
}

impl OracleBackend {
    /// Short name used in bench output ("rows", "labels").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OracleBackend::Rows => "rows",
            OracleBackend::Labels => "labels",
        }
    }
}

/// Knobs for [`Experiment::build_with`] that change *how* (not what)
/// an experiment is assembled: the executor every parallel build phase
/// runs on, the latency-oracle backend, and whether to warm the
/// latency cache up front. All combinations produce identical routing
/// structures and bit-identical replay metrics.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Executor for ring construction, label builds, and latency
    /// precompute.
    pub exec: Executor,
    /// Latency-oracle backend to build on.
    pub oracle: OracleBackend,
    /// Warm the latency rows of every peer router during build. Skip
    /// for memory-bounded runs where rows should fault in on demand;
    /// a no-op on the labels backend (its build is its precompute).
    pub precompute: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions { exec: Executor::default(), oracle: OracleBackend::Rows, precompute: true }
    }
}

/// A fully assembled experiment: topology, peer placement, landmark
/// measurements, and both routing structures over one membership.
pub struct Experiment {
    /// The configuration this experiment realizes.
    pub config: ExperimentConfig,
    /// The generated internetwork.
    pub topo: Topology,
    /// Latency oracle over the router graph (it shares `topo.graph`).
    pub lat: LatencyOracle,
    /// Attachment router of each overlay peer.
    pub router_of: Vec<u32>,
    /// Node identifiers (index = peer).
    pub ids: Arc<[Id]>,
    /// Landmark routers.
    pub landmarks: Vec<u32>,
    /// Noise-free landmark RTTs, `nodes × landmarks` row-major in
    /// packed peer order; read through [`Experiment::landmark_rtts`].
    landmark_rtts: Vec<u16>,
    /// Landmark orders per peer (after optional noise).
    pub orders: Vec<LandmarkOrder>,
    /// The Chord baseline: the hierarchy's own global ring
    /// ([`HierasOracle::chord`]), shared, not rebuilt.
    pub chord: ChordOracle,
    /// The HIERAS hierarchy.
    pub hieras: HierasOracle,
}

impl Experiment {
    /// Requests per work chunk, here and in the serving engine's
    /// folds. Each request is a pair of table lookups (microseconds),
    /// so a few hundred per claim amortizes the atomic increment
    /// without starving the workers; the chunking also fixes the
    /// metric merge order, so replay and serving must share it.
    pub const REPLAY_CHUNK: usize = 256;

    /// Assembles the experiment: generates the topology, places peers,
    /// measures landmark RTTs, bins, and builds the hierarchy, whose
    /// global ring doubles as the Chord baseline.
    ///
    /// This is the expensive step (it warms the latency rows of every
    /// peer router in parallel); [`Experiment::run`] afterwards is pure
    /// replay.
    ///
    /// # Panics
    /// Panics on invalid configurations (zero nodes) or on the
    /// astronomically unlikely failure to find distinct 64-bit ids.
    #[must_use]
    pub fn build(config: ExperimentConfig) -> Self {
        Self::build_with(config, &mut Profiler::new(), BuildOptions::default())
    }

    /// [`Experiment::build`] with explicit [`BuildOptions`] and every
    /// assembly phase timed into `prof` as a `build` scope (topology
    /// generation, peer placement, landmark selection, binning, id
    /// generation, the hierarchy build — whose global ring is the
    /// Chord baseline — and the parallel latency precompute). The
    /// parallel phases (finger tables, label builds, latency
    /// precompute) run on `opts.exec`, and the latency oracle is built
    /// on the backend `opts.oracle` selects; the built experiment is
    /// identical to an unprofiled build.
    ///
    /// # Panics
    /// As [`Experiment::build`].
    #[must_use]
    #[allow(clippy::too_many_lines)] // linear phase sequence, one scope per step
    pub fn build_with(config: ExperimentConfig, prof: &mut Profiler, opts: BuildOptions) -> Self {
        assert!(config.nodes > 0, "experiment needs at least one peer");
        config.hieras.validate().expect("invalid HIERAS config");
        prof.start("build");
        prof.start("topology");
        let topo = config.kind.generate_on(&opts.exec, config.nodes, config.seed);
        prof.end();
        let mut rng = Rng::seed_from_u64(config.seed ^ 0xe9_5e_ed_5e_ed);
        prof.start("place_peers");
        let router_of = topo.place_peers(config.nodes, &mut rng);
        prof.end();
        // The oracle build is the dominant cost at scale for the
        // labels backend (the rows backend defers its own to
        // latency_precompute / query time), so it gets its own phase.
        prof.start("latency_oracle");
        let graph = Arc::clone(&topo.graph);
        let lat = match opts.oracle {
            OracleBackend::Rows => LatencyOracle::new(graph),
            OracleBackend::Labels => LatencyOracle::with_labels_on(&opts.exec, graph),
        };
        prof.end();

        // Landmarks + per-peer RTT measurement. Only the landmark rows
        // are needed here (cheap: L Dijkstras).
        prof.start("landmarks");
        let lm_count = config.hieras.landmarks;
        let landmarks = if lm_count > 0 {
            topo.pick_landmarks(lm_count, &lat, &mut rng)
        } else {
            Vec::new()
        };
        prof.end();
        prof.start("binning");
        let lm_len = landmarks.len();
        let mut rtt_table = vec![0u16; config.nodes * lm_len];
        let mut orders = Vec::with_capacity(config.nodes);
        let mut noise: Vec<f64> = Vec::with_capacity(lm_len);
        let binning = &config.hieras.binning;
        for (p, &r) in router_of.iter().enumerate() {
            let rtts = &mut rtt_table[p * lm_len..(p + 1) * lm_len];
            for (rtt, &lm) in rtts.iter_mut().zip(&landmarks) {
                *rtt = lat.latency(lm, r);
            }
            noise.clear();
            if config.rtt_noise > 0.0 {
                noise.extend((0..lm_len).map(|_| {
                    1.0 + rng.random_range(-config.rtt_noise..=config.rtt_noise)
                }));
            }
            orders.push(binning.order_with_noise(rtts, &noise));
        }
        prof.end();

        // Locality packing: renumber peers by binning order (stable on
        // the old index) so every ring's membership — a ring is an
        // order-prefix group at each layer — becomes a contiguous peer
        // range. Packed ring arenas then walk `ids`/`router_of`
        // sequentially instead of striding the whole peer space. Peers
        // are interchangeable before ids exist, so this changes which
        // id a peer draws, not any distribution the experiment samples.
        prof.start("locality_pack");
        let mut perm: Vec<u32> = (0..config.nodes as u32).collect();
        perm.sort_by(|&a, &b| orders[a as usize].cmp(&orders[b as usize]).then(a.cmp(&b)));
        let router_of: Vec<u32> = perm.iter().map(|&p| router_of[p as usize]).collect();
        let orders: Vec<LandmarkOrder> =
            perm.iter().map(|&p| orders[p as usize]).collect();
        let mut landmark_rtts = Vec::with_capacity(rtt_table.len());
        for &p in &perm {
            let p = p as usize;
            landmark_rtts.extend_from_slice(&rtt_table[p * lm_len..(p + 1) * lm_len]);
        }
        drop(rtt_table);
        prof.end();

        // Unique node identifiers (production path: SHA-1 of a name).
        prof.start("ids");
        let mut seen = HashSet::with_capacity(config.nodes);
        let mut ids = Vec::with_capacity(config.nodes);
        for i in 0..config.nodes {
            let mut salt = 0u32;
            loop {
                let id =
                    Id::hash_of(format!("node-{seed}-{i}-{salt}", seed = config.seed).as_bytes());
                if seen.insert(id) {
                    ids.push(id);
                    break;
                }
                salt += 1;
                assert!(salt < 64, "could not find a distinct id — broken hash?");
            }
        }
        let ids: Arc<[Id]> = ids.into();
        prof.end();
        prof.start("hieras_build");
        let hieras = HierasOracle::build_on(
            &opts.exec,
            IdSpace::full(),
            Arc::clone(&ids),
            orders.clone(),
            config.hieras.clone(),
        )
        .expect("validated config and matching orders");
        prof.end();

        // Warm the latency rows every replay hop can touch, in
        // parallel. Labels need no warming: their build already
        // answers every pair.
        prof.start("latency_precompute");
        if opts.precompute && opts.oracle != OracleBackend::Labels {
            let mut distinct: Vec<u32> = router_of.clone();
            distinct.sort_unstable();
            distinct.dedup();
            lat.precompute_on(&opts.exec, &distinct);
        }
        prof.end();
        prof.end(); // build

        Experiment {
            config,
            topo,
            lat,
            router_of,
            ids,
            landmarks,
            landmark_rtts,
            orders,
            chord: hieras.chord(),
            hieras,
        }
    }

    /// Peer `peer`'s RTT to each of [`Experiment::landmarks`], in
    /// landmark order, as the set-up measured them before any
    /// `rtt_noise` — exactly `lat.latency(landmarks[j], router_of[peer])`.
    /// Re-bins read this row instead of re-querying the oracle: the
    /// topology is static, only the ping noise moves.
    #[inline]
    #[must_use]
    pub fn landmark_rtts(&self, peer: usize) -> &[u16] {
        let l = self.landmarks.len();
        &self.landmark_rtts[peer * l..(peer + 1) * l]
    }

    /// Link latency between two *peers* (their attachment routers).
    #[inline]
    #[must_use]
    pub fn peer_latency(&self, a: u32, b: u32) -> u16 {
        self.lat.latency(self.router_of[a as usize], self.router_of[b as usize])
    }

    /// Builds a HIERAS hierarchy over a *subset* of this experiment's
    /// peers — the snapshot constructor of the live serving engine.
    /// `members` are global peer indices (ascending, the live set of a
    /// churn epoch); `orders` and `config` default to this experiment's
    /// own when `None`, or carry re-binned orders after a landmark
    /// change. The resulting oracle shares this experiment's id table
    /// (`Arc` clone) — and, with `orders` `None`, its hierarchy's order
    /// table — and speaks global indices, so
    /// [`Experiment::peer_latency`] remains the link callback.
    ///
    /// # Errors
    /// See [`hieras_core::HierasBuildError`].
    pub fn subset_hieras_on(
        &self,
        exec: &Executor,
        members: &[u32],
        orders: Option<&[LandmarkOrder]>,
        config: Option<&HierasConfig>,
    ) -> Result<HierasOracle, hieras_core::HierasBuildError> {
        let orders = orders.map_or_else(|| self.hieras.orders().clone(), |o| o.to_vec().into());
        HierasOracle::build_members_pooled_on(
            exec,
            self.hieras.space(),
            Arc::clone(&self.ids),
            orders,
            members,
            config.unwrap_or(self.hieras.config()).clone(),
            &mut RingArenaPool::disabled(),
        )
    }

    /// Replays `requests` random lookups through both algorithms in
    /// parallel and returns the merged metrics. Deterministic in the
    /// experiment seed regardless of thread count.
    #[must_use]
    pub fn run_requests(&self, requests: usize) -> ComparisonResult {
        self.run_requests_on(&Executor::default(), requests)
    }

    /// The uniform replay stream of `requests` lookups: the workload
    /// every `run_requests*` entry point (and the serving engine's
    /// quiesced baseline) replays.
    #[must_use]
    pub fn replay_workload(&self, requests: usize) -> Workload {
        Workload::new(self.config.nodes as u32, requests, self.config.seed ^ 0x517c_c1b7)
    }

    /// Like [`Experiment::run_requests`] but on a caller-supplied
    /// executor — used to pin the thread count (determinism tests, the
    /// bench harness): [`Experiment::run_workload_on`] over
    /// [`Experiment::replay_workload`].
    #[must_use]
    pub fn run_requests_on(&self, exec: &Executor, requests: usize) -> ComparisonResult {
        self.run_workload_on(exec, &self.replay_workload(requests))
    }

    /// Replays the configured number of requests.
    #[must_use]
    pub fn run(&self) -> ComparisonResult {
        self.run_requests(self.config.requests)
    }

    /// Replays an arbitrary [`Workload`] — uniform or skewed — through
    /// both algorithms. The chunk size is fixed independently of the
    /// executor, so the merged metrics — including the request-order
    /// fold `latency_order` — are bit-identical at any parallelism level.
    /// Each chunk accumulator carries its own path scratch, so the hot
    /// loop never touches the heap; the scratch is dropped at merge
    /// time and cannot influence the metrics.
    ///
    /// # Panics
    /// Panics if the workload draws sources outside this experiment's
    /// peer range.
    #[must_use]
    pub fn run_workload_on(&self, exec: &Executor, w: &Workload) -> ComparisonResult {
        assert!(
            w.nodes as usize <= self.config.nodes,
            "workload sources exceed the peer range"
        );
        let (chord, hieras, _) = exec.par_fold(
            w.requests,
            Self::REPLAY_CHUNK,
            || (Metrics::default(), Metrics::default(), PathBuf::new()),
            |acc, i| {
                let (src, key) = w.request(i);
                let cs = self.eval_chord(src, key, &mut acc.2);
                let (hs, _) = self.eval_hieras_on(&self.hieras, src, key, &mut acc.2);
                acc.0.record(cs);
                acc.1.record(hs);
            },
            |a, b| (a.0.merged(b.0), a.1.merged(b.1), a.2),
        );
        ComparisonResult { chord, hieras }
    }

    /// One Chord lookup, evaluated allocation-free: the path lands in
    /// `scratch` and is costed in place.
    fn eval_chord(&self, src: u32, key: Id, scratch: &mut PathBuf) -> Sample {
        self.chord.lookup_into(src, key, scratch);
        let path = scratch.as_slice();
        let mut latency = 0u32;
        for w in path.windows(2) {
            latency += u32::from(self.peer_latency(w[0], w[1]));
        }
        Sample {
            hops: (path.len() - 1) as u32,
            lower_hops: 0,
            latency_ms: latency,
            lower_latency_ms: 0,
        }
    }

    /// One HIERAS route on `oracle` — this experiment's own hierarchy
    /// or a serving snapshot's — costed with this experiment's peer
    /// latencies, allocation-free via [`HierasOracle::eval`]: the
    /// sample (millisecond sums saturating, see `Sample::from`) and
    /// the key's owner. Replay and serving share this one evaluation,
    /// which is why their metrics reconcile byte for byte.
    #[inline]
    #[must_use]
    pub fn eval_hieras_on(
        &self,
        oracle: &HierasOracle,
        src: u32,
        key: Id,
        scratch: &mut PathBuf,
    ) -> (Sample, u32) {
        let c = oracle.eval(src, key, scratch, |a, b| self.peer_latency(a, b));
        (c.into(), c.destination)
    }

    /// Publishes the latency oracle's state into `reg`: resident rows,
    /// their [`hieras_topology::RowStats`] and the bytes they hold as
    /// `latency_cache.*` on the rows backend, and the
    /// [`hieras_topology::LabelStats`] plus query counter as
    /// `latency_labels.*` on the labels backend. The packed
    /// routing-state footprint goes out as `ring_arena.*` on every
    /// backend, and the per-thread memo tallies as `label_memo.*`
    /// where the labels backend has one.
    pub fn record_cache_stats(&self, reg: &mut Registry) {
        let arena = self.hieras.arena_stats();
        reg.gauge_set(names::RING_ARENA_RINGS, arena.rings as i64);
        reg.gauge_set(names::RING_ARENA_MEMBER_SLOTS, arena.member_slots as i64);
        reg.gauge_set(names::RING_ARENA_BYTES, arena.bytes as i64);
        if let Some((hits, misses)) = self.lat.memo_stats() {
            reg.inc_by(names::LABEL_MEMO_HITS, hits);
            reg.inc_by(names::LABEL_MEMO_MISSES, misses);
        }
        if let Some((l, queries)) = self.lat.label_stats() {
            reg.gauge_set(names::LATENCY_LABELS_HUBS, l.hubs as i64);
            reg.gauge_set(names::LATENCY_LABELS_ENTRIES, l.entries as i64);
            #[allow(clippy::cast_possible_truncation)] // label lists are tiny
            reg.gauge_set(names::LATENCY_LABELS_AVG_LEN_MILLI, (l.avg_len * 1000.0) as i64);
            reg.gauge_set(names::LATENCY_LABELS_MAX_LEN, l.max_len as i64);
            #[allow(clippy::cast_possible_truncation)]
            reg.gauge_set(names::LATENCY_LABELS_BUILD_MS, l.build_ms as i64);
            reg.gauge_set(names::LATENCY_LABELS_BYTES, self.lat.cache_bytes() as i64);
            reg.inc_by(names::LATENCY_LABELS_QUERIES, queries);
            return;
        }
        reg.gauge_set(names::LATENCY_CACHE_RESIDENT_ROWS, self.lat.cached_rows() as i64);
        reg.gauge_set(names::LATENCY_CACHE_BYTES, self.lat.cache_bytes() as i64);
        let built = self.lat.row_stats();
        reg.gauge_set(names::LATENCY_CACHE_ROWS_SEARCHED, built.searched as i64);
        reg.gauge_set(names::LATENCY_CACHE_ROWS_COMPOSED, built.composed as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig {
            kind: TopologyKind::TransitStub,
            nodes: 300,
            requests: 2000,
            hieras: HierasConfig::paper(),
            seed: 7,
            rtt_noise: 0.0,
        }
    }

    #[test]
    fn build_produces_consistent_structures() {
        let e = Experiment::build(small_cfg());
        assert_eq!(e.ids.len(), 300);
        assert_eq!(e.router_of.len(), 300);
        assert_eq!(e.landmarks.len(), 4);
        assert_eq!(e.chord.len(), 300);
        assert_eq!(e.hieras.len(), 300);
        assert!(e.hieras.layers()[1].ring_count() > 1, "binning produced a single ring");
    }

    #[test]
    fn one_graph_and_one_global_ring_per_world() {
        for oracle in [OracleBackend::Rows, OracleBackend::Labels] {
            let e = Experiment::build_with(
                ExperimentConfig { nodes: 120, ..small_cfg() },
                &mut Profiler::new(),
                BuildOptions { oracle, ..BuildOptions::default() },
            );
            assert!(std::ptr::eq(e.lat.graph(), &*e.topo.graph), "{} oracle", oracle.label());
            assert!(std::ptr::eq(e.chord.ring(), e.hieras.global_ring()), "{}", oracle.label());
        }
    }

    #[test]
    fn hieras_beats_chord_on_latency_in_ts_model() {
        let e = Experiment::build(small_cfg());
        let r = e.run();
        let (c, h) = (r.chord.summary(), r.hieras.summary());
        assert_eq!(c.requests, 2000);
        // The paper's headline (Fig. 3): HIERAS latency well below Chord.
        assert!(
            h.avg_latency_ms < 0.85 * c.avg_latency_ms,
            "HIERAS {h:.1?} vs Chord {c:.1?}"
        );
        // Hops comparable (within ~15 % — paper: +0.8..3.4 %).
        assert!(h.avg_hops < 1.15 * c.avg_hops);
        // A solid share of hops run in the lower layer.
        assert!(h.lower_hop_share > 0.3, "lower-layer share {}", h.lower_hop_share);
        // Lower-layer links are cheaper on average than top links.
        assert!(h.avg_link_delay_lower_ms < c.avg_latency_ms / c.avg_hops);
    }

    #[test]
    fn replay_is_bit_identical_across_thread_counts() {
        let e = Experiment::build(ExperimentConfig { nodes: 200, ..small_cfg() });
        let base = e.run_requests_on(&Executor::new(1), 1500);
        for threads in [2, 3, 8] {
            let r = e.run_requests_on(&Executor::new(threads), 1500);
            assert_eq!(r, base, "metrics diverge at {threads} threads");
        }
    }

    #[test]
    fn profiled_build_records_every_phase() {
        let mut prof = Profiler::new();
        let e = Experiment::build_with(
            ExperimentConfig { nodes: 120, ..small_cfg() },
            &mut prof,
            BuildOptions::default(),
        );
        assert_eq!(e.ids.len(), 120);
        let report = prof.report();
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].name, "build");
        let children: Vec<&str> =
            report.phases[0].children.iter().map(|p| p.name.as_str()).collect();
        for want in
            ["topology", "place_peers", "latency_oracle", "landmarks", "binning",
             "locality_pack", "ids", "hieras_build", "latency_precompute"]
        {
            assert!(children.contains(&want), "phase {want} missing from {children:?}");
        }
        assert!(report.render().contains("hieras_build"));
    }

    #[test]
    fn build_is_bit_identical_across_thread_counts() {
        let cfg = ExperimentConfig { nodes: 200, ..small_cfg() };
        let base = Experiment::build_with(
            cfg.clone(),
            &mut Profiler::new(),
            BuildOptions { exec: Executor::new(1), ..BuildOptions::default() },
        )
        .run_requests_on(&Executor::new(1), 1200);
        for threads in [2, 8] {
            let e = Experiment::build_with(
                cfg.clone(),
                &mut Profiler::new(),
                BuildOptions { exec: Executor::new(threads), ..BuildOptions::default() },
            );
            let r = e.run_requests_on(&Executor::new(1), 1200);
            assert_eq!(r, base, "a {threads}-thread build changed the replay metrics");
        }
    }

    #[test]
    fn build_is_thread_invariant_on_every_model() {
        // End-to-end: topology generation, binning, locality packing,
        // and both ring builds all run on the supplied executor, and
        // the replay metrics must not notice its thread count.
        for kind in [TopologyKind::TransitStub, TopologyKind::Brite, TopologyKind::Inet] {
            let cfg = ExperimentConfig { kind, nodes: 150, requests: 0, ..small_cfg() };
            let build = |threads| {
                Experiment::build_with(
                    cfg.clone(),
                    &mut Profiler::new(),
                    BuildOptions { exec: Executor::new(threads), ..BuildOptions::default() },
                )
                .run_requests_on(&Executor::new(1), 600)
            };
            let base = build(1);
            for threads in [2, 8] {
                assert_eq!(
                    build(threads),
                    base,
                    "{threads}-thread build diverged on {}",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn locality_pack_makes_ring_members_contiguous() {
        let e = Experiment::build(small_cfg());
        // Binning orders must be sorted after the renumbering...
        assert!(e.orders.windows(2).all(|w| w[0] <= w[1]), "orders not locality-packed");
        // ...so every lower-layer ring owns a contiguous peer range
        // (the members array itself stays in ring/id order, so check
        // the span, not the sequence).
        for layer in &e.hieras.layers()[1..] {
            for (_, ring) in layer.rings() {
                let m = ring.members();
                let lo = *m.iter().min().unwrap();
                let hi = *m.iter().max().unwrap();
                assert_eq!(
                    (hi - lo + 1) as usize,
                    m.len(),
                    "ring members not a contiguous peer range"
                );
            }
        }
    }

    #[test]
    fn landmark_rtt_table_equals_the_oracle() {
        for oracle in [OracleBackend::Rows, OracleBackend::Labels] {
            for rtt_noise in [0.0, 0.5] {
                let e = Experiment::build_with(
                    ExperimentConfig { nodes: 150, rtt_noise, ..small_cfg() },
                    &mut Profiler::new(),
                    BuildOptions { oracle, ..BuildOptions::default() },
                );
                for p in 0..e.config.nodes {
                    let row = e.landmark_rtts(p);
                    assert_eq!(row.len(), e.landmarks.len());
                    for (j, &lm) in e.landmarks.iter().enumerate() {
                        assert_eq!(
                            row[j],
                            e.lat.latency(lm, e.router_of[p]),
                            "peer {p} landmark {j} on {} at noise {rtt_noise}",
                            oracle.label()
                        );
                    }
                    // Noise-free, the row is what binned the peer.
                    if rtt_noise == 0.0 {
                        assert_eq!(e.config.hieras.binning.order(row), e.orders[p]);
                    }
                }
            }
        }
    }

    #[test]
    fn record_cache_stats_publishes_arena_footprint() {
        let e = Experiment::build(ExperimentConfig { nodes: 120, ..small_cfg() });
        let mut reg = Registry::new();
        e.record_cache_stats(&mut reg);
        let arena = e.hieras.arena_stats();
        assert_eq!(reg.gauge(names::RING_ARENA_RINGS), Some(arena.rings as i64));
        assert_eq!(reg.gauge(names::RING_ARENA_MEMBER_SLOTS), Some(arena.member_slots as i64));
        assert_eq!(reg.gauge(names::RING_ARENA_BYTES), Some(arena.bytes as i64));
        assert!(arena.member_slots >= 2 * 120, "every peer sits in ≥ 2 rings");
        // Rows backend: no memo counters.
        assert_eq!(reg.counter(names::LABEL_MEMO_HITS), 0);
        assert_eq!(reg.counter(names::LABEL_MEMO_MISSES), 0);
        // How the warmed rows were built: every peer sits on a stub
        // router, so its row is composed; only transit rows are
        // searched, and the two add up to what is resident.
        let searched = reg.gauge(names::LATENCY_CACHE_ROWS_SEARCHED).expect("published");
        let composed = reg.gauge(names::LATENCY_CACHE_ROWS_COMPOSED).expect("published");
        assert!(composed >= 120, "{composed} composed rows for 120 peers");
        assert!((1..=4).contains(&searched), "{searched} searched rows");
        assert_eq!(Some(searched + composed), reg.gauge(names::LATENCY_CACHE_RESIDENT_ROWS));
        // What those rows hold is the searched rows in full and a
        // stub-sized table for each of the others — not rows × routers.
        let bytes = reg.gauge(names::LATENCY_CACHE_BYTES).expect("published");
        let n = e.topo.graph.node_count() as i64;
        assert!(bytes >= searched * n * 2 + composed * 2, "{bytes} bytes");
        assert!(bytes < (searched + composed) * n * 2 / 4, "{bytes} bytes for {n} routers");
    }

    #[test]
    fn labels_backend_publishes_memo_counters() {
        let e = Experiment::build_with(
            ExperimentConfig { nodes: 120, ..small_cfg() },
            &mut Profiler::new(),
            BuildOptions { oracle: OracleBackend::Labels, ..BuildOptions::default() },
        );
        let _ = e.run_requests_on(&Executor::new(1), 800);
        let mut reg = Registry::new();
        e.record_cache_stats(&mut reg);
        let (hits, misses) = e.lat.memo_stats().expect("labels backend carries a memo");
        assert_eq!(reg.counter(names::LABEL_MEMO_HITS), hits);
        assert_eq!(reg.counter(names::LABEL_MEMO_MISSES), misses);
        assert!(hits > 0, "replay re-queries pairs — the memo must hit");
        assert_eq!(
            hits + misses,
            reg.counter(names::LATENCY_LABELS_QUERIES),
            "every label query is either a memo hit or a miss"
        );
    }

    #[test]
    fn labels_oracle_leaves_metrics_unchanged() {
        let cfg = ExperimentConfig { nodes: 200, ..small_cfg() };
        let rows = Experiment::build(cfg.clone()).run_requests_on(&Executor::new(1), 1000);
        let labeled = Experiment::build_with(
            cfg,
            &mut Profiler::new(),
            BuildOptions { oracle: OracleBackend::Labels, ..BuildOptions::default() },
        );
        assert_eq!(labeled.lat.backend_name(), "labels");
        assert_eq!(
            labeled.run_requests_on(&Executor::new(1), 1000),
            rows,
            "labels are exact — replay metrics must be byte-identical to rows"
        );
        let mut reg = Registry::new();
        labeled.record_cache_stats(&mut reg);
        assert!(reg.gauge(names::LATENCY_LABELS_HUBS).unwrap() > 0);
        assert!(reg.gauge(names::LATENCY_LABELS_ENTRIES).unwrap() > 0);
        assert!(reg.gauge(names::LATENCY_LABELS_MAX_LEN).unwrap() > 0);
        assert!(reg.gauge(names::LATENCY_LABELS_BYTES).unwrap() > 0);
        assert!(reg.counter(names::LATENCY_LABELS_QUERIES) > 0);
        assert_eq!(reg.gauge(names::LATENCY_CACHE_BYTES), None, "no cache metrics on labels");
    }

    #[test]
    fn labels_build_is_bit_identical_across_thread_counts() {
        let cfg = ExperimentConfig { nodes: 200, ..small_cfg() };
        let build = |threads| {
            Experiment::build_with(
                cfg.clone(),
                &mut Profiler::new(),
                BuildOptions { exec: Executor::new(threads), oracle: OracleBackend::Labels,
                               precompute: true },
            )
            .run_requests_on(&Executor::new(1), 1200)
        };
        let base = build(1);
        for threads in [2, 8] {
            assert_eq!(build(threads), base, "{threads}-thread label build changed the metrics");
        }
    }

    #[test]
    fn replay_is_deterministic_across_runs() {
        let e = Experiment::build(small_cfg());
        let a = e.run_requests(500);
        let b = e.run_requests(500);
        assert_eq!(a.chord.total_latency_ms, b.chord.total_latency_ms);
        assert_eq!(a.hieras.total_hops, b.hieras.total_hops);
        // And across rebuilds from the same config.
        let e2 = Experiment::build(small_cfg());
        let c = e2.run_requests(500);
        assert_eq!(a.hieras.total_latency_ms, c.hieras.total_latency_ms);
    }

    #[test]
    fn run_workload_on_uniform_matches_run_requests_on() {
        let e = Experiment::build(small_cfg());
        let exec = Executor::new(2);
        let w = Workload::new(e.config.nodes as u32, 500, e.config.seed ^ 0x517c_c1b7);
        assert_eq!(
            e.run_workload_on(&exec, &w),
            e.run_requests_on(&exec, 500),
            "the uniform workload path must reproduce the legacy stream bit-exactly"
        );
    }

    #[test]
    fn skewed_workload_is_thread_invariant_and_comparable() {
        let e = Experiment::build(small_cfg());
        let w = Workload::with_model(
            e.config.nodes as u32,
            600,
            e.config.seed ^ 0x5103,
            crate::WorkloadModel::Skew(crate::SkewParams::zipf(0.99)),
        );
        let one = e.run_workload_on(&Executor::new(1), &w);
        for threads in [2, 8] {
            assert_eq!(
                e.run_workload_on(&Executor::new(threads), &w),
                one,
                "{threads}-thread skewed replay diverged"
            );
        }
        assert_eq!(one.chord.requests, 600);
        assert!(one.hieras.summary().avg_latency_ms > 0.0);
    }

    #[test]
    fn destinations_agree_between_algorithms() {
        let e = Experiment::build(ExperimentConfig { nodes: 120, requests: 0, ..small_cfg() });
        let w = Workload::new(120, 300, 99);
        for (src, key) in w.iter() {
            let mut c = PathBuf::new();
            e.chord.lookup_into(src, key, &mut c);
            let h = e.hieras.route(src, key);
            assert_eq!(c.as_slice().last(), Some(&h.destination()));
        }
    }

    #[test]
    fn noise_perturbs_binning_but_not_correctness() {
        let mut cfg = small_cfg();
        cfg.nodes = 150;
        cfg.rtt_noise = 0.5;
        let e = Experiment::build(cfg);
        let w = Workload::new(150, 200, 3);
        for (src, key) in w.iter() {
            assert_eq!(e.hieras.route(src, key).destination(), e.chord.owner_of(key));
        }
    }

    #[test]
    fn brite_and_inet_models_run() {
        for kind in [TopologyKind::Brite, TopologyKind::Inet] {
            let cfg = ExperimentConfig {
                kind,
                nodes: 150,
                requests: 300,
                hieras: HierasConfig::paper(),
                seed: 5,
                rtt_noise: 0.0,
            };
            let e = Experiment::build(cfg);
            let r = e.run();
            assert_eq!(r.chord.requests, 300);
            assert!(r.hieras.summary().avg_hops > 0.0);
            assert_eq!(e.topo.model, if kind == TopologyKind::Brite { "brite" } else { "inet" });
        }
    }

    #[test]
    fn depth1_hieras_equals_chord_metrics() {
        let cfg = ExperimentConfig {
            hieras: HierasConfig { depth: 1, landmarks: 0, ..HierasConfig::paper() },
            nodes: 100,
            requests: 500,
            ..small_cfg()
        };
        let e = Experiment::build(cfg);
        let r = e.run();
        let (c, h) = (r.chord.summary(), r.hieras.summary());
        assert_eq!(c.avg_hops, h.avg_hops);
        assert_eq!(c.avg_latency_ms, h.avg_latency_ms);
        assert_eq!(h.lower_hop_share, 0.0);
        assert!(e.landmark_rtts(0).is_empty(), "no landmarks, empty rows");
    }
}
