//! The service loop: readers looking up, a maintainer churning.
//!
//! [`ServeEngine`] wires the three building blocks together: an
//! [`Experiment`] supplies the world (ids, landmark orders, latency
//! oracle), a [`hieras_sim::MembershipReplay`] supplies *who is
//! alive after the next K events*, and the [`crate::epoch`] machinery
//! carries each rebuilt hierarchy from the maintenance thread to the
//! readers without ever blocking a lookup.
//!
//! Every served lookup takes one path, whatever the mode:
//!
//! 1. **evaluator** — `ServeEngine::lookup`: probe the reader cache
//!    (a no-op when disabled), else route + cost on the pinned
//!    snapshot through `hieras-sim`'s shared
//!    [`Experiment::eval_hieras_on`];
//! 2. **recorder** — `ReaderAcc::record`: feed the telemetry window
//!    and admit flight-recorder candidates *path-less*; the hop traces
//!    of the entries that survive are captured once per batch
//!    (`ServeEngine::close_batch`), before the snapshot they were
//!    costed on is released;
//! 3. **accumulator** — `ReaderAcc`, folded with one
//!    `ReaderAcc::merged` across executor chunks, rounds and reader
//!    threads alike.
//!
//! What differs between the modes is who drives that step and which
//! clock cuts the telemetry windows:
//!
//! * [`ServeEngine::run_quiesced_workload`] — no churn; the full
//!   membership at epoch 0, one executor fold over an explicit
//!   [`Workload`], telemetry off. On the uniform replay stream its
//!   routing metrics are byte-identical to `hieras-sim`'s replay — the
//!   CI identity that proves the snapshot path is faithful.
//! * [`ServeEngine::run_deterministic`] — the executor drives, in lock
//!   step: each round folds a fixed quota of lookups against the
//!   pinned snapshot (chunk-ordered merge), then the maintainer
//!   applies one event batch and publishes. Windows follow the sim
//!   clock; everything is bit-identical at any executor width.
//! * [`ServeEngine::run_live`] — reader threads drive, free-running,
//!   one refresh batch at a time, while the maintenance thread (this
//!   thread) churns and publishes. Windows follow the wall clock;
//!   throughput and reclaim lag are real, routing metrics depend on
//!   the race and are reported, not asserted.
//!
//! The two churning modes share one set-up and tear-down
//! (`ServeEngine::start` / `ServeEngine::finish`) and one
//! maintenance round (`ServeEngine::maintain`).

use crate::cache::{CacheConfig, CacheStats, LookupCache};
use crate::epoch::{epoch_pair, EpochHandle, EpochStats, Publisher, Reader};
use crate::snapshot::ServeSnapshot;
use crate::telemetry::{MaintStats, TelemetryConfig};
use hieras_chord::PathBuf;
use hieras_core::{HierasDelta, HierasOracle, LandmarkOrder, OrderTable, RingArenaPool};
use hieras_id::{Id, Key};
use hieras_obs::{names, HopRecord, Registry, SlowLookup, TelemetryShard, TimeSeriesReport};
use hieras_rt::{splitmix64, Executor};
use hieras_sim::{
    ChurnConfig, Experiment, MembershipReplay, Metrics, Sample, Workload, WorkloadModel,
    HOT_RANK_MAX,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Knobs of one serving run.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// The churn scenario the maintenance thread replays. Its node
    /// universe (`initial_nodes + arrivals`) must equal the
    /// experiment's peer count — arrivals are peers of the experiment
    /// that simply have not joined yet.
    pub churn: ChurnConfig,
    /// Reader threads in [`ServeEngine::run_live`] (the deterministic
    /// mode takes its width from the executor instead).
    pub readers: usize,
    /// Churn events the maintainer applies per published epoch.
    pub events_per_epoch: usize,
    /// Lookups served per round in the deterministic mode.
    pub lookups_per_epoch: usize,
    /// Lookups a free-running reader executes between two refreshes
    /// (the epoch-poll granularity of the hot loop).
    pub refresh_batch: usize,
    /// Request-stream seed (independent of the churn seed).
    pub seed: u64,
    /// Re-bin cadence: every this many maintenance rounds the
    /// maintainer re-measures every live peer's landmark RTTs under
    /// fresh multiplicative noise and re-derives its ring order.
    /// 0 disables re-binning.
    pub rebin_every: u64,
    /// Multiplicative RTT noise of a re-bin measurement (±fraction).
    pub rebin_noise: f64,
    /// Time-resolved telemetry: windowed metrics, flight recorder,
    /// SLO monitor. Off by default; turning it on never perturbs the
    /// routing metrics (telemetry accumulates in its own shards).
    pub telemetry: TelemetryConfig,
    /// Incremental-maintenance threshold: when a churn batch touches
    /// at most this fraction of the hierarchy's rings, the maintainer
    /// applies it as a delta onto the previous epoch's arenas
    /// ([`hieras_core::HierasOracle::apply_delta_on`] — byte-identical
    /// to a full rebuild by construction) instead of rebuilding from
    /// scratch; batches above the threshold fall back to the full
    /// rebuild. `0.0` disables the delta path entirely, `1.0` never
    /// falls back.
    pub delta_max_ring_fraction: f64,
    /// Inert: the batched reader fork it selected is gone (DESIGN.md
    /// removal log). The field stays only because the frozen
    /// `benchmark/src/spec.rs` names every field of this struct.
    pub batched: bool,
    /// Free-running maintainer pacing, in sim-milliseconds of schedule
    /// time per wall-millisecond. At `0.0` the maintainer replays
    /// churn at full rate (the schedule drains in a few ms of wall
    /// time at smoke sizes — wall-mode telemetry then sees one giant
    /// burst); at `pace > 0` it sleeps until each batch's schedule
    /// time, so a 60 s horizon at `pace = 50` spans 1.2 s of wall
    /// clock and the wall windows resolve the churn as a time series.
    /// Ignored outside [`ServeEngine::run_live`].
    pub pace: f64,
    /// Reader-side hot-key result cache ([`crate::LookupCache`]). Disabled
    /// by default; with the cache off every serving path is
    /// byte-identical to the pre-cache engine. In the executor-driven
    /// modes the cache lives in the chunk accumulator (fresh per chunk
    /// — bit-identical at any width); free-running readers each keep
    /// one across their whole run, invalidated wholesale on every
    /// epoch adoption.
    pub cache: CacheConfig,
    /// Draw model of the serving request streams. Every stream is a
    /// [`Workload`] over the live set, seeded per round (lock-step)
    /// or per reader (free-running); its source indices map through
    /// the snapshot's live array. `Uniform` draws the paper's uniform
    /// sources and keys; `Skew` draws Zipf-popular keys (stable per
    /// stream seed, so hot keys stay hot across epochs within a
    /// stream) with clustered sources.
    pub workload: WorkloadModel,
}

/// A quiesced replay of one explicit [`Workload`]: full membership,
/// epoch 0, no maintenance.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// HIERAS routing metrics over every request.
    pub metrics: Metrics,
    /// Metrics over the hot-key subset alone (popularity rank ≤
    /// [`HOT_RANK_MAX`]; empty for uniform workloads, whose keys have
    /// no ranks).
    pub hot: Metrics,
    /// Requests served.
    pub lookups: u64,
    /// Wall-clock duration of the replay, ns.
    pub wall_ns: u64,
    /// Cache counters merged across chunks (all zero with the cache
    /// off).
    pub cache: CacheStats,
    /// `splitmix64` chain over every request's answered owner, in
    /// request order (chunk digests chained in ascending chunk order).
    /// Cached and uncached runs of the same workload answered every
    /// request identically iff these match — the per-request
    /// correctness identity the cache tests and CI assert.
    pub owner_digest: u64,
}

/// What a live (churning) run did and measured.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// HIERAS routing metrics over every served lookup (in the
    /// free-running mode, merged in ascending reader order).
    pub metrics: Metrics,
    /// Lookups served across all readers.
    pub lookups: u64,
    /// Wall-clock duration of the serving window, ns.
    pub wall_ns: u64,
    /// Publication/reclamation counters of the epoch machinery.
    pub epochs: EpochStats,
    /// `serve.*` metrics: membership deltas, stale-read window,
    /// per-reader throughput, reclaim counters.
    pub registry: Registry,
    /// Live peers once the schedule was exhausted.
    pub final_live: u32,
    /// Membership turnover of the replayed schedule (departures over
    /// initial population).
    pub turnover: f64,
    /// Wall-clock maintenance profile: rounds, rebuilds, re-bins, and
    /// publish/rebuild/re-bin latency histograms.
    pub maint: MaintStats,
    /// Windowed telemetry (sim windows in the deterministic mode,
    /// wall windows free-running), when `cfg.telemetry.enabled`.
    pub timeseries: Option<TimeSeriesReport>,
}

impl LiveReport {
    /// Sustained throughput, lookups per second of wall time.
    #[must_use]
    pub fn lookups_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.lookups as f64 * 1e9 / self.wall_ns as f64
    }
}

/// Telemetry window width on the sim clock, ms (deterministic mode).
const SIM_WINDOW_MS: u64 = 1_000;
/// Telemetry window width on the wall clock, ms (free-running mode).
const WALL_WINDOW_MS: u64 = 250;

/// The clock that cuts a churning run's telemetry windows: the
/// replay's sim clock (deterministic) or wall time since the run
/// started (free-running). `Copy`, so reader threads cut windows on
/// the very clock the maintainer does and both sides' health lands in
/// the same windows.
#[derive(Clone, Copy)]
struct WindowClock {
    wall: bool,
    t0: Instant,
    window_ms: u64,
}

impl WindowClock {
    /// Now, given the replay's sim time (ignored on the wall clock).
    fn now_ms(&self, sim_now: u64) -> u64 {
        if self.wall {
            self.t0.elapsed().as_millis() as u64
        } else {
            sim_now
        }
    }

    fn window(&self, sim_now: u64) -> u64 {
        self.now_ms(sim_now) / self.window_ms
    }
}

/// The telemetry window a reader is recording into, plus the window's
/// capture-pruning floor: the largest [`TelemetryShard::slow_floor`]
/// any shard of the **same window** has published. A lookup strictly
/// below it is outranked by ≥ K same-window lookups, so it skips
/// flight-recorder admission. Relaxed and racy by design — a stale
/// floor only readmits work, never drops a qualifying lookup, and the
/// final union-truncate merge keeps the reported top-K exact at any
/// thread count.
struct Window {
    /// Telemetry enabled — off, recording is one predictable branch.
    on: bool,
    index: u64,
    floor: AtomicU64,
}

impl Window {
    fn new(on: bool) -> Self {
        Window { on, index: 0, floor: AtomicU64::new(0) }
    }

    /// Moves to window `index`; a change starts a fresh floor.
    fn enter(&mut self, index: u64) {
        if index != self.index {
            self.index = index;
            *self.floor.get_mut() = 0;
        }
    }
}

/// Everything a reader accumulates while serving — one per executor
/// chunk in the folded modes, one per thread free-running — merged by
/// the one [`ReaderAcc::merged`] across chunks, rounds and readers.
struct ReaderAcc {
    metrics: Metrics,
    /// Hot-key-subset metrics (quiesced workloads only).
    hot: Metrics,
    /// Path scratch of the allocation-free route; dropped at merge
    /// time, so it cannot influence any result.
    scratch: PathBuf,
    shard: TelemetryShard,
    /// Chunk-fresh in the folded modes (the cache state a lookup sees
    /// is a function of its chunk alone, so the fold is bit-identical
    /// at any width); one persistent cache per free-running reader.
    cache: LookupCache,
    /// Chain over answered owners (quiesced workloads only).
    owner_digest: u64,
}

impl ReaderAcc {
    fn new(cfg: &ServeConfig) -> Self {
        ReaderAcc {
            metrics: Metrics::default(),
            hot: Metrics::default(),
            scratch: PathBuf::new(),
            shard: TelemetryShard::new(cfg.telemetry.slow_k),
            cache: LookupCache::new(cfg.cache),
            owner_digest: 0,
        }
    }

    fn merged(mut self, o: ReaderAcc) -> ReaderAcc {
        self.cache.stats = self.cache.stats.merged(o.cache.stats);
        ReaderAcc {
            metrics: self.metrics.merged(o.metrics),
            hot: self.hot.merged(o.hot),
            scratch: self.scratch,
            shard: self.shard.merged(o.shard),
            cache: self.cache,
            owner_digest: splitmix64(self.owner_digest ^ o.owner_digest),
        }
    }

    /// The one telemetry recorder: counts the lookup into `win` and,
    /// if it ranks among the window's slowest, admits it to the flight
    /// recorder **path-less** ([`ServeEngine::close_batch`] captures
    /// the hop traces of the survivors). A cache hit's latency is a
    /// direct hop, not a routed path, so hits are recorded but never
    /// admitted — a re-routed path would not reconcile with it.
    #[inline]
    fn record(&mut self, win: &Window, src: u32, key: Key, latency_ms: u64, seq: u64, hit: bool) {
        if hit || latency_ms < win.floor.load(Ordering::Relaxed) {
            self.shard.lookup(win.index, latency_ms);
        } else if self.shard.lookup_qualifies(win.index, latency_ms) {
            self.shard.admit_slow(SlowLookup {
                window: win.index,
                latency_ms,
                src,
                key: key.0,
                seq,
                path: Vec::new(),
            });
            if let Some(f) = self.shard.slow_floor() {
                win.floor.fetch_max(f, Ordering::Relaxed);
            }
        }
    }
}

/// The state one churning run threads from [`ServeEngine::start`]
/// through its maintenance rounds to [`ServeEngine::finish`].
struct ChurnRun {
    /// Executor of the maintainer's rebuilds.
    exec: Executor,
    turnover: f64,
    replay: MembershipReplay,
    /// The published live list, ascending, shared with the current
    /// snapshot: the next epoch's list is merged from it.
    live: Arc<Vec<u32>>,
    /// Live-list buffers taken back from reclaimed snapshots.
    spare_live: Vec<Vec<u32>>,
    /// An order-table buffer taken back from a retired table; the next
    /// re-bin copies the published table into it.
    spare_orders: Vec<LandmarkOrder>,
    pb: Publisher<ServeSnapshot>,
    reg: Registry,
    /// Maintenance rounds run so far.
    round: u64,
    /// The published hierarchy — the base every delta applies onto. It
    /// shares its ring `Arc`s with the snapshot readers hold, so a
    /// delta copies only touched rings, and its order table is the
    /// maintainer's: a batch without a re-bin hands it back unchanged.
    cur: HierasOracle,
    pool: RingArenaPool,
    joined: Vec<u32>,
    departed: Vec<u32>,
    rebinned: Vec<u32>,
    clock: WindowClock,
    /// Publish time of the current snapshot on the window clock, ms —
    /// the baseline of the snapshot-age gauge.
    last_pub_ms: u64,
    /// The health shard the maintainer publishes gauges into.
    shard: TelemetryShard,
    stats: MaintStats,
}

/// The maintenance side of a churning run, stepped by the caller one
/// round at a time — the round [`ServeEngine::run_deterministic`] and
/// [`ServeEngine::run_live`] run between their readers' batches: apply
/// the next event batch, re-bin when due, rebuild, publish, reclaim.
/// No reader is attached, so each retired snapshot is reclaimed in the
/// round that retires it. Made by [`ServeEngine::maintainer`].
pub struct Maintainer<'a> {
    engine: ServeEngine<'a>,
    run: ChurnRun,
}

impl Maintainer<'_> {
    /// Runs one maintenance round; true once the schedule is exhausted.
    pub fn round(&mut self) -> bool {
        self.engine.maintain(&mut self.run)
    }

    /// The maintenance profile so far.
    #[must_use]
    pub fn stats(&self) -> &MaintStats {
        &self.run.stats
    }
}

/// The serving engine over one experiment's world.
#[derive(Clone, Copy)]
pub struct ServeEngine<'a> {
    exp: &'a Experiment,
    cfg: ServeConfig,
}

impl<'a> ServeEngine<'a> {
    /// Retired arenas a maintainer plausibly holds between delta
    /// epochs: a few rings per layer, three buffers each.
    const POOL_SLACK: usize = 64;
    /// Live-list buffers the maintainer keeps for its next epochs.
    const LIVE_SPARES: usize = 4;

    /// Creates the engine.
    ///
    /// # Panics
    /// Panics if the churn scenario's node universe does not match the
    /// experiment's peer count, or any knob is zero where it must not
    /// be.
    #[must_use]
    pub fn new(exp: &'a Experiment, cfg: ServeConfig) -> Self {
        assert_eq!(
            (cfg.churn.initial_nodes + cfg.churn.arrivals) as usize,
            exp.config.nodes,
            "churn universe must equal the experiment's peer table"
        );
        assert!(cfg.readers >= 1, "need at least one reader");
        assert!(cfg.events_per_epoch >= 1, "need at least one event per epoch");
        assert!(cfg.lookups_per_epoch >= 1, "need at least one lookup per epoch");
        assert!(cfg.refresh_batch >= 1, "need at least one lookup per refresh");
        assert!(cfg.rebin_noise >= 0.0, "noise is a magnitude");
        assert!(
            (0.0..=1.0).contains(&cfg.delta_max_ring_fraction),
            "the delta threshold is a ring fraction"
        );
        assert!(cfg.pace >= 0.0, "pace is a sim-per-wall ratio");
        ServeEngine { exp, cfg }
    }

    /// The configuration this engine runs.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The one evaluator. A cache probe hit answers with the cached
    /// owner — one direct hop, costed with the same latency oracle
    /// (shortest-path RTTs, so never dearer than the routed path); a
    /// miss, or a disabled cache, routes on the snapshot through the
    /// evaluation the replay bench performs
    /// ([`Experiment::eval_hieras_on`] — which is why quiesced metrics
    /// reconcile) and offers the learned owner to the cache's
    /// admission policy. Entries bind to `snap.checksum`, so an epoch
    /// advance invalidates them wholesale before any probe; in
    /// [`CacheConfig::verify`] mode every hit is re-routed and the
    /// cached owner (and its lowest-layer ring) asserted against the
    /// authoritative answer.
    ///
    /// Returns the sample, the key's owner, and whether the cache
    /// answered.
    #[inline]
    fn lookup(
        &self,
        snap: &ServeSnapshot,
        src: u32,
        key: Key,
        scratch: &mut PathBuf,
        cache: &mut LookupCache,
    ) -> (Sample, u32, bool) {
        let cached = if cache.enabled() {
            cache.bind(snap.checksum);
            cache.get(key.0)
        } else {
            None
        };
        let Some((owner, ring)) = cached else {
            let (s, owner) = self.exp.eval_hieras_on(&snap.oracle, src, key, scratch);
            if cache.enabled() {
                cache.insert(key.0, owner, snap.owner_ring(owner));
            }
            return (s, owner, false);
        };
        if cache.verify() {
            let routed = snap.oracle.route_with(src, key, scratch, |_, _, _| {});
            assert_eq!(routed, owner, "stale cache hit: owner diverged from the route");
            assert_eq!(
                snap.owner_ring(owner),
                ring,
                "stale cache hit: owner ring diverged from the snapshot"
            );
        }
        let latency_ms =
            if src == owner { 0 } else { u32::from(self.exp.peer_latency(src, owner)) };
        let s = Sample {
            hops: u32::from(src != owner),
            lower_hops: 0,
            latency_ms,
            lower_latency_ms: 0,
        };
        (s, owner, true)
    }

    /// The reader step every mode runs per lookup: evaluate, record
    /// (`seq` is the flight recorder's tie-break), accumulate. Returns
    /// the sample and the answered owner.
    #[inline]
    fn serve(
        &self,
        snap: &ServeSnapshot,
        acc: &mut ReaderAcc,
        win: &Window,
        src: u32,
        key: Key,
        seq: u64,
    ) -> (Sample, u32) {
        let (s, owner, hit) = self.lookup(snap, src, key, &mut acc.scratch, &mut acc.cache);
        if win.on {
            acc.record(win, src, key, u64::from(s.latency_ms), seq, hit);
        }
        acc.metrics.record(s);
        (s, owner)
    }

    /// Closes a batch of lookups served against `snap` in `win`, while
    /// `snap` is still pinned: captures the hop traces of the batch's
    /// flight-recorder entries (`seq >= since`) that are still in the
    /// window's top-K, and publishes the batch's cache probes (the
    /// counters' growth over `before`) into the window's health.
    ///
    /// The capture re-routes through the same `route_with` core the
    /// evaluator costs through, and a path is a pure function of
    /// (snapshot, source, key), so each captured path's summed link
    /// milliseconds equal the lookup's recorded latency exactly — the
    /// reconciliation the telemetry identity tests assert.
    fn close_batch(
        &self,
        snap: &ServeSnapshot,
        acc: &mut ReaderAcc,
        win: &Window,
        since: u64,
        before: CacheStats,
    ) {
        if !win.on {
            return;
        }
        for rec in acc.shard.slow_mut(win.index).filter(|r| r.seq >= since) {
            let path = &mut rec.path;
            let _owner =
                snap.oracle.route_with(rec.src, Id(rec.key), &mut acc.scratch, |from, to, layer| {
                    path.push(HopRecord { from, to, layer, ms: self.exp.peer_latency(from, to) });
                });
        }
        if acc.cache.enabled() {
            let now = acc.cache.stats;
            let h = acc.shard.health(win.index);
            h.inc_by(names::SERVE_CACHE_WINDOW_HITS, now.hits - before.hits);
            h.inc_by(
                names::SERVE_CACHE_WINDOW_LOOKUPS,
                (now.hits + now.misses) - (before.hits + before.misses),
            );
        }
    }

    /// A churning reader's refresh: adopts the newest snapshot
    /// (checksum-verified against its epoch), observes how stale the
    /// pinned one is, and enters telemetry window `index`.
    ///
    /// # Panics
    /// Panics if the adopted snapshot fails its epoch checksum — the
    /// torn-read invariant.
    fn pin(
        &self,
        rd: &mut Reader<ServeSnapshot>,
        reg: &mut Registry,
        acc: &mut ReaderAcc,
        win: &mut Window,
        index: u64,
    ) {
        if let Some(e) = rd.refresh() {
            assert!(rd.snapshot().value.verify(e), "torn snapshot adopted at epoch {e}");
        }
        reg.observe(names::SERVE_STALE_EPOCHS, rd.lag());
        win.enter(index);
        if win.on {
            acc.shard.health(index).gauge_set(names::SERVE_EPOCH_READER_LAG, rd.lag() as i64);
        }
    }

    /// The serving request stream `stream` over `live_len` live peers:
    /// the configured model, drawing sources as indices into the
    /// snapshot's live array.
    fn serve_workload(&self, live_len: usize, stream: u64) -> Workload {
        Workload::with_model(live_len.max(1) as u32, usize::MAX, stream, self.cfg.workload)
    }

    /// Draws serving request `i` of `w` against `snap`, mapping the
    /// drawn source index onto the live peer it names.
    #[inline]
    #[allow(clippy::cast_possible_truncation)] // request indices fit usize
    fn draw(snap: &ServeSnapshot, w: &Workload, i: u64) -> (u32, Key) {
        let (si, key) = w.request(i as usize);
        (snap.live[si as usize], key)
    }

    /// Builds the snapshot of `epoch` over `members` with the
    /// experiment's ring orders.
    fn snapshot(&self, exec: &Executor, epoch: u64, members: Arc<Vec<u32>>) -> ServeSnapshot {
        let oracle = self
            .exp
            .subset_hieras_on(exec, &members, None, None)
            .expect("live membership is a valid non-empty subset");
        ServeSnapshot::new(epoch, oracle, members)
    }

    /// Re-measures every live peer's landmark RTTs under fresh
    /// multiplicative noise (deterministic in `(round, peer)`) and
    /// re-derives its ring order into `orders`. The topology is
    /// static, so the noise-free RTTs come from the set-up's table
    /// ([`Experiment::landmark_rtts`]), not the latency oracle.
    /// Returns how many live peers changed order — the peers the next
    /// snapshot re-bins — and appends them to `changed_peers` (not
    /// cleared first).
    fn rebin(
        &self,
        round: u64,
        live: &[u32],
        orders: &mut [LandmarkOrder],
        changed_peers: &mut Vec<u32>,
    ) -> u64 {
        let binning = &self.exp.config.hieras.binning;
        let mut changed = 0u64;
        let mut noise: Vec<f64> = Vec::with_capacity(self.exp.landmarks.len());
        for &p in live {
            noise.clear();
            let rtts = self.exp.landmark_rtts(p as usize);
            for j in 0..rtts.len() {
                let raw = splitmix64(
                    self.cfg.seed
                        ^ 0x5eb1_u64
                        ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        ^ u64::from(p).wrapping_mul(0x2545_f491_4f6c_dd1d)
                        ^ j as u64,
                );
                let u = (raw >> 11) as f64 / (1u64 << 53) as f64;
                noise.push(1.0 + self.cfg.rebin_noise * (2.0 * u - 1.0));
            }
            let o = binning.order_with_noise(rtts, &noise);
            if o != orders[p as usize] {
                orders[p as usize] = o;
                changed_peers.push(p);
                changed += 1;
            }
        }
        changed
    }

    /// One maintenance round: apply the next event batch, re-bin if
    /// due, rebuild + publish when the membership or orders moved, and
    /// reclaim. Returns whether the schedule is exhausted.
    ///
    /// When the batch touches at most `delta_max_ring_fraction` of the
    /// hierarchy's rings, the rebuild applies the recorded membership
    /// delta onto `run.cur` — structurally sharing every untouched
    /// ring with the previous epoch — and falls back to a full rebuild
    /// otherwise. Both paths build new rings in the arenas retired
    /// snapshots returned to `run.pool`, and both produce
    /// byte-identical snapshots (the CI-gated delta identity), so the
    /// choice is purely a cost decision.
    ///
    /// Wall-clock phase durations always flow into [`MaintStats`];
    /// when telemetry is enabled the round also publishes
    /// `serve.epoch.*` health counters and gauges into its window
    /// (and, on the wall clock only, the duration histograms — wall
    /// values never enter sim windows, which must stay deterministic).
    fn maintain(&self, run: &mut ChurnRun) -> bool {
        run.round += 1;
        run.stats.rounds += 1;
        let delta = run.replay.apply_next_recording(
            self.cfg.events_per_epoch,
            &mut run.joined,
            &mut run.departed,
        );
        // The membership is fixed once the batch is applied: merge the
        // batch into the last epoch's live list, in a recycled buffer.
        if delta.changed() {
            let mut live = run.spare_live.pop().unwrap_or_default();
            MembershipReplay::merge_live(&run.live, &run.joined, &run.departed, &mut live);
            run.live = Arc::new(live);
        }
        let mut rebin_us = 0u64;
        run.rebinned.clear();
        let rebin_every = self.cfg.rebin_every;
        // A re-bin writes into a copy of the published order table in
        // a recycled buffer; the copy becomes the next table only if
        // some order moved.
        let mut rebinned_orders = None;
        let rebinned = if rebin_every > 0 && run.round.is_multiple_of(rebin_every) {
            let tr = Instant::now();
            let mut orders = std::mem::take(&mut run.spare_orders);
            orders.clear();
            orders.extend_from_slice(run.cur.orders());
            let changed = self.rebin(run.round, &run.live, &mut orders, &mut run.rebinned);
            if changed > 0 {
                rebinned_orders = Some(orders);
            } else {
                run.spare_orders = orders;
            }
            rebin_us = tr.elapsed().as_micros() as u64;
            run.stats.rebin_rounds += 1;
            run.stats.rebinned_peers += changed;
            run.stats.rebin_us.record(rebin_us);
            changed
        } else {
            0
        };
        let published = delta.changed() || rebinned > 0;
        let mut publish_us = 0u64;
        let mut rebuild_us = 0u64;
        let mut used_delta = false;
        if published {
            // A peer that joined this very batch is not a member of the
            // base hierarchy yet — its (possibly re-binned) order rides
            // in with the join, not as a re-bin.
            run.rebinned.retain(|m| run.joined.binary_search(m).is_err());
            let next = run.pb.published_epoch() + 1;
            let tp = Instant::now();
            // Without a re-bin this is the published hierarchy's own
            // table, which the delta shares without reading it.
            let orders: &[LandmarkOrder] = rebinned_orders.as_deref().unwrap_or(run.cur.orders());
            let hdelta = HierasDelta {
                joined: &run.joined,
                departed: &run.departed,
                rebinned: &run.rebinned,
            };
            // Note: the touched fraction can exceed 1.0 — born rings
            // count as touched but not as existing — so 1.0 is handled
            // as the documented "never fall back", not a comparison.
            let frac = self.cfg.delta_max_ring_fraction;
            used_delta = frac >= 1.0
                || (frac > 0.0 && run.cur.delta_touch_stats(&hdelta, orders).fraction() <= frac);
            let oracle = if used_delta {
                run.cur
                    .apply_delta_on(&run.exec, &hdelta, orders, &mut run.pool)
                    .expect("a recorded churn delta over the live membership is valid")
            } else {
                // A full rebuild takes the table whole: the re-binned
                // buffer moves in, the published table is shared.
                let table = match rebinned_orders.take() {
                    Some(list) => OrderTable::new(list),
                    None => run.cur.orders().clone(),
                };
                HierasOracle::build_members_pooled_on(
                    &run.exec,
                    self.exp.hieras.space(),
                    Arc::clone(&self.exp.ids),
                    table,
                    &run.live,
                    self.exp.hieras.config().clone(),
                    &mut run.pool,
                )
                .expect("live membership is a valid non-empty subset")
            };
            let snap = ServeSnapshot::new(next, oracle.clone(), Arc::clone(&run.live));
            rebuild_us = tp.elapsed().as_micros() as u64;
            run.pb.publish(snap);
            publish_us = tp.elapsed().as_micros() as u64;
            run.cur = oracle;
            // Chained off the timed path: proves, run against run, that
            // the delta and full paths publish byte-identical state.
            run.stats.snapshot_digest =
                splitmix64(run.stats.snapshot_digest ^ run.cur.hierarchy_digest());
            run.stats.rebuilds += 1;
            if used_delta {
                run.stats.delta_rebuilds += 1;
            } else {
                run.stats.full_rebuilds += 1;
            }
            run.stats.rebuild_us.record(rebuild_us);
            run.stats.publish_us.record(publish_us);
            run.stats.publish_samples.push(publish_us);
            run.reg.inc(names::SERVE_EPOCHS_PUBLISHED);
            run.reg.inc_by(names::SERVE_JOINS, u64::from(delta.joins));
            run.reg.inc_by(names::SERVE_LEAVES, u64::from(delta.leaves));
            run.reg.inc_by(names::SERVE_FAILS, u64::from(delta.fails));
            run.reg.inc_by(names::SERVE_REBINNED, rebinned);
        }
        // The delta path copied a re-binned table into its own.
        if let Some(list) = rebinned_orders {
            run.spare_orders = list;
        }
        self.reclaim(run);
        if self.cfg.telemetry.enabled {
            let now = run.clock.now_ms(run.replay.now_ms());
            let wall = run.clock.wall;
            let age = now.saturating_sub(run.last_pub_ms);
            let backlog = run.pb.stats().retired;
            let h = run.shard.health(now / run.clock.window_ms);
            h.inc_by(names::SERVE_EPOCH_JOINS, u64::from(delta.joins));
            h.inc_by(names::SERVE_EPOCH_LEAVES, u64::from(delta.leaves));
            h.inc_by(names::SERVE_EPOCH_FAILS, u64::from(delta.fails));
            h.inc_by(names::SERVE_EPOCH_REBINNED, rebinned);
            h.gauge_set(names::SERVE_EPOCH_RETIRED_BACKLOG, backlog as i64);
            if published {
                h.inc(names::SERVE_EPOCH_PUBLISHED);
                h.inc(if used_delta {
                    names::SERVE_EPOCH_DELTA_REBUILDS
                } else {
                    names::SERVE_EPOCH_FULL_REBUILDS
                });
                // Age of the snapshot just replaced, at replacement.
                h.gauge_set(names::SERVE_EPOCH_SNAPSHOT_AGE_MS, age as i64);
                if wall {
                    h.observe(names::SERVE_EPOCH_PUBLISH_US, publish_us);
                    h.observe(names::SERVE_EPOCH_REBUILD_US, rebuild_us);
                }
                run.last_pub_ms = now;
            }
            if wall && rebin_us > 0 {
                h.observe(names::SERVE_EPOCH_REBIN_US, rebin_us);
            }
        }
        delta.done
    }

    /// Salvages the retired snapshots the publisher solely owns: ring
    /// arenas into the arena pool — the next rebuild, delta or full,
    /// builds in them — and the live list and order table, when no
    /// newer epoch shares them, into the buffers the next epochs'
    /// lists and the next re-bin write into.
    fn reclaim(&self, run: &mut ChurnRun) {
        let ChurnRun { pb, pool, spare_live, spare_orders, .. } = run;
        let freed = pb.reclaim_with(|snap| {
            let orders = snap.oracle.orders().clone();
            snap.oracle.recycle_into(pool);
            if let Some(list) = orders.into_list() {
                *spare_orders = list;
            }
            if let Ok(live) = Arc::try_unwrap(snap.live) {
                if spare_live.len() < Self::LIVE_SPARES {
                    spare_live.push(live);
                }
            }
        });
        run.reg.inc_by(names::SERVE_SNAPSHOTS_RECLAIMED, freed as u64);
    }

    /// Sets a churning run up: the schedule's replay, the maintainer's
    /// private orders, the verified epoch-0 snapshot over the initial
    /// membership and its epoch pair. `wall` picks the window clock.
    fn start(&self, exec: Executor, wall: bool) -> (ChurnRun, EpochHandle<ServeSnapshot>) {
        let schedule = self.cfg.churn.schedule();
        let turnover = schedule.turnover(self.cfg.churn.initial_nodes);
        let replay = MembershipReplay::new(self.cfg.churn.initial_nodes, schedule);
        let live = Arc::new(replay.live_members());
        let snap0 = self.snapshot(&exec, 0, Arc::clone(&live));
        assert!(snap0.verify(0), "initial snapshot failed verification");
        let cur = snap0.oracle.clone();
        // A full rebuild draws one set of arenas per ring and retires
        // the hierarchy it replaces, so the pool keeps a whole
        // hierarchy's buffers (two `u32` ones per ring) besides the
        // slack: what it drops the next full rebuild must allocate.
        let pool = RingArenaPool::new(2 * cur.arena_stats().rings + Self::POOL_SLACK);
        let (pb, handle) = epoch_pair(snap0);
        let window_ms = if wall { WALL_WINDOW_MS } else { SIM_WINDOW_MS };
        let run = ChurnRun {
            exec,
            turnover,
            replay,
            live,
            spare_live: Vec::with_capacity(Self::LIVE_SPARES),
            spare_orders: Vec::new(),
            pb,
            reg: Registry::new(),
            round: 0,
            cur,
            pool,
            joined: Vec::new(),
            departed: Vec::new(),
            rebinned: Vec::new(),
            clock: WindowClock { wall, t0: Instant::now(), window_ms },
            last_pub_ms: 0,
            shard: TelemetryShard::new(self.cfg.telemetry.slow_k),
            stats: MaintStats::default(),
        };
        (run, handle)
    }

    /// Tears a churning run down once every reader handle is dropped:
    /// folds the readers (ascending order) and their registries into
    /// the run's, reclaims what is left, and assembles the report.
    /// Only deterministic values enter the registry, so the
    /// deterministic mode's registry identity holds at any width.
    fn finish(
        &self,
        mut run: ChurnRun,
        readers: Vec<(ReaderAcc, Registry)>,
        wall_ns: u64,
    ) -> LiveReport {
        let mut total = ReaderAcc::new(&self.cfg);
        for (acc, local) in readers {
            run.reg.merge(&local);
            run.reg.inc_by(names::SERVE_LOOKUPS, acc.metrics.requests);
            run.reg.observe(names::SERVE_READER_LOOKUPS, acc.metrics.requests);
            total = total.merged(acc);
        }
        if self.cfg.cache.enabled {
            let c = total.cache.stats;
            run.reg.inc_by(names::SERVE_CACHE_HITS, c.hits);
            run.reg.inc_by(names::SERVE_CACHE_MISSES, c.misses);
            run.reg.inc_by(names::SERVE_CACHE_ADMITS, c.admits);
            run.reg.inc_by(names::SERVE_CACHE_INVALIDATIONS, c.invalidations);
        }
        self.reclaim(&mut run);
        run.stats.arena = run.pool.stats();
        run.reg.inc_by(names::SERVE_EPOCH_ARENA_REUSED, run.stats.arena.reused);
        run.reg.inc_by(names::SERVE_EPOCH_ARENA_RETURNED, run.stats.arena.returned);
        run.reg.inc_by(names::SERVE_EPOCH_ARENA_DROPPED, run.stats.arena.dropped);
        let epochs = run.pb.stats();
        run.reg.gauge_set(names::SERVE_RECLAIM_LAG_PEAK, epochs.lag_peak as i64);
        let timeseries = self.cfg.telemetry.enabled.then(|| {
            let mode = if run.clock.wall { "wall" } else { "sim" };
            let ts = self.report(total.shard.merged(run.shard), mode, run.clock.window_ms);
            run.reg.gauge_set(names::TELEMETRY_WINDOWS, ts.window_count() as i64);
            run.reg.inc_by(names::TELEMETRY_SLOW_LOOKUPS, ts.slow.len() as u64);
            run.reg.inc_by(names::TELEMETRY_SLO_BREACHES, ts.breaches.len() as u64);
            ts
        });
        LiveReport {
            lookups: total.metrics.requests,
            metrics: total.metrics,
            wall_ns,
            epochs,
            registry: run.reg,
            final_live: run.replay.live_count(),
            turnover: run.turnover,
            maint: run.stats,
            timeseries,
        }
    }

    /// Assembles a run's merged shard into its [`TimeSeriesReport`],
    /// deriving each window's cache hit-rate gauge from its counters
    /// (counters sum across shards; a ratio could not).
    fn report(&self, shard: TelemetryShard, mode: &str, window_ms: u64) -> TimeSeriesReport {
        let mut ts = shard.into_report(mode, window_ms, self.cfg.telemetry.slo);
        for w in &mut ts.windows {
            let probes = w.health.counter(names::SERVE_CACHE_WINDOW_LOOKUPS);
            let hits = w.health.counter(names::SERVE_CACHE_WINDOW_HITS);
            if let Some(ppm) = (hits * 1_000_000).checked_div(probes) {
                #[allow(clippy::cast_possible_wrap)] // ppm fits i64
                w.health.gauge_set(names::SERVE_CACHE_HIT_RATE_PPM, ppm as i64);
            }
        }
        ts
    }

    /// Replays an explicit [`Workload`] against the quiesced epoch-0
    /// snapshot with `hieras-sim`'s chunking
    /// ([`Experiment::REPLAY_CHUNK`] — it fixes the metric merge
    /// order). The cache, like every accumulator, is chunk-fresh, so
    /// the whole report is bit-identical at any executor width.
    /// Telemetry does not ride along whatever `cfg.telemetry` says
    /// (windowed telemetry comes from the churning modes); what it
    /// reports is the hot-key-subset metrics, the merged cache
    /// counters, and the per-request owner digest. With the cache
    /// disabled, `metrics` is byte-identical to
    /// `Experiment::run_workload_on(..).hieras` — the CI cache-off
    /// identity; on [`Experiment::replay_workload`] it is the replay
    /// bench's.
    ///
    /// # Panics
    /// Panics if the workload draws sources outside the experiment's
    /// peer range, or (in [`CacheConfig::verify`] mode) if any cache
    /// hit disagrees with the authoritative route.
    #[must_use]
    pub fn run_quiesced_workload(&self, exec: &Executor, w: &Workload) -> WorkloadReport {
        let n = self.exp.config.nodes;
        assert!(w.nodes as usize <= n, "workload sources exceed the experiment's peers");
        let members: Vec<u32> = (0..n as u32).collect();
        let snap = self.snapshot(exec, 0, Arc::new(members));
        assert!(snap.verify(0), "freshly built snapshot failed verification");
        let win = Window::new(false);
        let t0 = Instant::now();
        let acc = exec.par_fold(
            w.requests,
            Experiment::REPLAY_CHUNK,
            || ReaderAcc::new(&self.cfg),
            |acc, i| {
                let (src, key, rank) = w.request_detail(i);
                let (s, owner) = self.serve(&snap, acc, &win, src, key, i as u64);
                acc.owner_digest = splitmix64(acc.owner_digest ^ (u64::from(owner) + 1));
                if rank.is_some_and(|r| r <= HOT_RANK_MAX) {
                    acc.hot.record(s);
                }
            },
            ReaderAcc::merged,
        );
        let wall_ns = t0.elapsed().as_nanos() as u64;
        WorkloadReport {
            metrics: acc.metrics,
            hot: acc.hot,
            lookups: w.requests as u64,
            wall_ns,
            cache: acc.cache.stats,
            owner_digest: acc.owner_digest,
        }
    }

    /// Deterministic serving: the executor arbitrates the
    /// reader/maintainer interleaving in lock step. Each round serves
    /// `lookups_per_epoch` requests against the pinned snapshot
    /// (chunk-ordered parallel fold — bit-identical at any executor
    /// width), then runs one maintenance round, until the schedule is
    /// exhausted; the final snapshot serves a round too. Every lookup
    /// of a round lands in the window the sim clock sits in — a
    /// round-level constant — with `seq = (round << 32) | i`.
    ///
    /// # Panics
    /// Panics if an adopted snapshot fails its epoch checksum.
    #[must_use]
    pub fn run_deterministic(&self, exec: &Executor) -> LiveReport {
        let (mut run, handle) = self.start(*exec, false);
        let mut rd = handle.reader();
        let mut total = ReaderAcc::new(&self.cfg);
        let mut local = Registry::new();
        let mut win = Window::new(self.cfg.telemetry.enabled);
        let t0 = Instant::now();
        loop {
            let index = run.clock.window(run.replay.now_ms());
            self.pin(&mut rd, &mut local, &mut total, &mut win, index);
            let snap = &rd.snapshot().value;
            let round = run.round;
            let stream = splitmix64(self.cfg.seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let sw = self.serve_workload(snap.live_count(), stream);
            let mut acc = exec.par_fold(
                self.cfg.lookups_per_epoch,
                Experiment::REPLAY_CHUNK,
                || ReaderAcc::new(&self.cfg),
                |acc, i| {
                    let (src, key) = Self::draw(snap, &sw, i as u64);
                    self.serve(snap, acc, &win, src, key, (round << 32) | i as u64);
                },
                ReaderAcc::merged,
            );
            self.close_batch(snap, &mut acc, &win, 0, CacheStats::default());
            total = total.merged(acc);
            if run.replay.is_done() {
                break;
            }
            self.maintain(&mut run);
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        drop(rd);
        self.finish(run, vec![(total, local)], wall_ns)
    }

    /// The maintainer of a churning run over this engine's schedule,
    /// set up as the deterministic mode sets it up (epoch 0 published
    /// over the initial membership), its rebuilds on `exec`.
    #[must_use]
    pub fn maintainer(&self, exec: Executor) -> Maintainer<'a> {
        let (run, _handle) = self.start(exec, false);
        Maintainer { engine: *self, run }
    }

    /// Free-running serving: `cfg.readers` real reader threads
    /// refresh/verify/lookup continuously, one `refresh_batch` per
    /// pinned snapshot and wall window, while this thread — the one
    /// maintenance thread of the epoch contract — replays the whole
    /// schedule (at full rate, or paced by `cfg.pace`), publishing and
    /// reclaiming per batch. The maintainer starts only once every
    /// reader thread is running, and a reader checks the stop flag
    /// *after* a batch, so every reader serves at least one batch and
    /// `wall_ns` never closes before a reader has started. Each reader
    /// draws stream
    /// `splitmix64(seed ^ (r+1)·0xd134_2543_de82_ef95)` with its
    /// lookup counter as `seq`; readers merge in ascending order (a
    /// deterministic order over nondeterministic contents —
    /// throughput is a measurement, not a reproducible figure).
    ///
    /// Maintenance builds run on a single-thread executor by design:
    /// one maintainer, N readers, exactly the production shape.
    ///
    /// # Panics
    /// Panics (in any thread, surfaced at join) if a reader ever
    /// adopts a snapshot that fails its epoch checksum — the torn-read
    /// invariant.
    #[must_use]
    pub fn run_live(&self) -> LiveReport {
        let (mut run, handle) = self.start(Executor::new(1), true);
        let clock = run.clock;
        let stop = AtomicBool::new(false);
        let ready = Barrier::new(self.cfg.readers + 1);
        let (wall_ns, readers) = std::thread::scope(|scope| {
            let (stop, ready) = (&stop, &ready);
            let workers: Vec<_> = (0..self.cfg.readers as u64)
                .map(|r| {
                    let mut rd = handle.reader();
                    scope.spawn(move || {
                        let mut acc = ReaderAcc::new(&self.cfg);
                        let mut local = Registry::new();
                        let mut win = Window::new(self.cfg.telemetry.enabled);
                        let stream = splitmix64(
                            self.cfg.seed ^ (r + 1).wrapping_mul(0xd134_2543_de82_ef95),
                        );
                        let mut i = 0u64;
                        ready.wait();
                        loop {
                            // One window probe per refresh batch keeps
                            // the per-lookup telemetry cost to a
                            // cached-window fast path.
                            self.pin(&mut rd, &mut local, &mut acc, &mut win, clock.window(0));
                            let snap = &rd.snapshot().value;
                            let sw = self.serve_workload(snap.live_count(), stream);
                            let (since, before) = (i, acc.cache.stats);
                            for _ in 0..self.cfg.refresh_batch {
                                let (src, key) = Self::draw(snap, &sw, i);
                                self.serve(snap, &mut acc, &win, src, key, i);
                                i += 1;
                            }
                            self.close_batch(snap, &mut acc, &win, since, before);
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                        }
                        (acc, local)
                    })
                })
                .collect();
            // The clock starts before the barrier releases anyone, so
            // no lookup predates it; the churn starts after.
            let t0 = Instant::now();
            ready.wait();
            loop {
                // Pace the maintainer against the schedule: sleep until
                // the next batch's sim time maps onto the wall clock at
                // `pace` sim-ms per wall-ms. At 0.0, replay flat out.
                if self.cfg.pace > 0.0 {
                    if let Some(at) = run.replay.next_event_at() {
                        let target = Duration::from_secs_f64(at as f64 / 1000.0 / self.cfg.pace);
                        std::thread::sleep(target.saturating_sub(t0.elapsed()));
                    }
                }
                if self.maintain(&mut run) {
                    break;
                }
            }
            stop.store(true, Ordering::Release);
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let readers: Vec<_> = workers
                .into_iter()
                .map(|w| w.join().expect("reader thread panicked"))
                .collect();
            (wall_ns, readers)
        });
        self.finish(run, readers, wall_ns)
    }
}

// Engine-level behavior is tested where the pieces meet real worlds:
// `tests/live_safety.rs` (torn-snapshot stress, reclaim pinning) and
// the root package's `tests/live_identity.rs` (1/2/8-reader metric
// identity, quiesced-vs-replay byte identity).
#[cfg(test)]
mod tests {
    use super::*;
    use hieras_obs::SloSpec;
    use hieras_sim::{ExperimentConfig, Lifetime, SkewParams};

    fn tiny() -> (Experiment, ServeConfig) {
        let mut cfg = ExperimentConfig::paper(60, 11);
        cfg.requests = 200;
        let exp = Experiment::build(cfg);
        let serve = ServeConfig {
            churn: ChurnConfig {
                initial_nodes: 50,
                arrivals: 10,
                inter_arrival: Lifetime::Fixed { ms: 300 },
                lifetime: Lifetime::Exponential { mean_ms: 40_000.0 },
                graceful_fraction: 0.5,
                horizon_ms: 20_000,
                seed: 0xfeed,
            },
            readers: 2,
            events_per_epoch: 3,
            lookups_per_epoch: 64,
            refresh_batch: 16,
            seed: 0xabcd,
            rebin_every: 4,
            // The tiny world's landmark RTTs cluster at 40-50 and
            // 140-150 ms; ±60% reaches the 20/100 ms bounds.
            rebin_noise: 0.6,
            telemetry: TelemetryConfig::off(),
            delta_max_ring_fraction: 0.35,
            batched: false,
            pace: 0.0,
            cache: CacheConfig::off(),
            workload: WorkloadModel::Uniform,
        };
        (exp, serve)
    }

    #[test]
    fn draws_map_the_workload_stream_onto_the_live_set() {
        let (exp, mut cfg) = tiny();
        // Every third peer: a strict subset, so an unmapped index or
        // one drawn modulo the full peer count would show.
        let live: Arc<Vec<u32>> = Arc::new((0..60).step_by(3).collect());
        for model in [WorkloadModel::Uniform, WorkloadModel::Skew(SkewParams::zipf(0.99))] {
            cfg.workload = model;
            let engine = ServeEngine::new(&exp, cfg);
            let snap = engine.snapshot(&Executor::new(1), 0, Arc::clone(&live));
            for stream in [7u64, 0xabcd] {
                let w = engine.serve_workload(snap.live_count(), stream);
                let again = engine.serve_workload(snap.live_count(), stream);
                for i in 0..2000u64 {
                    let (src, key) = ServeEngine::draw(&snap, &w, i);
                    assert!(live.contains(&src), "request {i} drew dead source {src}");
                    assert_eq!(ServeEngine::draw(&snap, &again, i), (src, key));
                    if model == WorkloadModel::Uniform {
                        let x = splitmix64(stream ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                        assert_eq!(src, live[(x % live.len() as u64) as usize]);
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_run_serves_every_epoch_and_reclaims_everything() {
        let (exp, cfg) = tiny();
        let engine = ServeEngine::new(&exp, cfg);
        let r = engine.run_deterministic(&Executor::new(2));
        assert!(r.epochs.published > 0, "churn must publish at least one epoch");
        assert_eq!(
            r.epochs.reclaimed + r.epochs.retired as u64,
            r.epochs.published,
            "every retired snapshot is accounted for"
        );
        assert_eq!(r.epochs.retired, 0, "no reader left, everything reclaims");
        // One serve round per maintenance round plus the initial one.
        let rounds = r.lookups / cfg.lookups_per_epoch as u64;
        assert!(rounds > r.epochs.published, "the final snapshot must serve too");
        assert_eq!(r.registry.counter(names::SERVE_LOOKUPS), r.lookups);
        // The schedule's membership arithmetic holds.
        let joins = r.registry.counter(names::SERVE_JOINS);
        let departs =
            r.registry.counter(names::SERVE_LEAVES) + r.registry.counter(names::SERVE_FAILS);
        assert_eq!(u64::from(r.final_live), 50 + joins - departs);
        assert!(r.turnover > 0.0);
    }

    #[test]
    fn rebinning_changes_orders_deterministically() {
        let (exp, cfg) = tiny();
        let engine = ServeEngine::new(&exp, cfg);
        let mut a: Vec<LandmarkOrder> = exp.orders.clone();
        let mut b: Vec<LandmarkOrder> = exp.orders.clone();
        let live: Vec<u32> = (0..60).collect();
        let mut moved = Vec::new();
        let ca = engine.rebin(4, &live, &mut a, &mut moved);
        let cb = engine.rebin(4, &live, &mut b, &mut Vec::new());
        assert_eq!(ca, cb, "re-bin must be deterministic in (round, peer)");
        assert_eq!(a, b);
        assert_eq!(moved.len() as u64, ca, "every changed peer is recorded");
        // A different round draws different noise.
        let cc = engine.rebin(8, &live, &mut b, &mut Vec::new());
        assert!(ca > 0 || cc > 0, "±60% noise must flip at least one bin boundary");

        // The table-driven re-bin is the oracle-querying one: same
        // orders, same changed peers, same counts, round after round.
        let reference = |round: u64, orders: &mut [LandmarkOrder], moved: &mut Vec<u32>| {
            let mut changed = 0u64;
            for &p in &live {
                let router = exp.router_of[p as usize];
                let (rtts, noise): (Vec<u16>, Vec<f64>) = exp
                    .landmarks
                    .iter()
                    .enumerate()
                    .map(|(j, &lm)| {
                        let raw = splitmix64(
                            cfg.seed
                                ^ 0x5eb1_u64
                                ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                                ^ u64::from(p).wrapping_mul(0x2545_f491_4f6c_dd1d)
                                ^ j as u64,
                        );
                        let u = (raw >> 11) as f64 / (1u64 << 53) as f64;
                        (exp.lat.latency(lm, router), 1.0 + cfg.rebin_noise * (2.0 * u - 1.0))
                    })
                    .unzip();
                let o = exp.config.hieras.binning.order_with_noise(&rtts, &noise);
                if o != orders[p as usize] {
                    orders[p as usize] = o;
                    moved.push(p);
                    changed += 1;
                }
            }
            changed
        };
        let (mut got, mut want) = (exp.orders.clone(), exp.orders.clone());
        let mut total = 0u64;
        for round in [4, 8, 12, 16, 20] {
            let (mut got_moved, mut want_moved) = (Vec::new(), Vec::new());
            let n = engine.rebin(round, &live, &mut got, &mut got_moved);
            assert_eq!(n, reference(round, &mut want, &mut want_moved), "round {round}");
            assert_eq!(got_moved, want_moved, "round {round} changed peers");
            assert_eq!(got, want, "round {round} orders");
            total += n;
        }
        assert!(total > 0, "the rounds must move someone");
    }

    #[test]
    fn delta_maintenance_publishes_identical_snapshots() {
        let (exp, mut cfg) = tiny();
        let exec = Executor::new(2);
        cfg.delta_max_ring_fraction = 0.0;
        let full = ServeEngine::new(&exp, cfg).run_deterministic(&exec);
        assert_eq!(full.maint.delta_rebuilds, 0, "0.0 disables the delta path");
        cfg.delta_max_ring_fraction = 1.0;
        let delta = ServeEngine::new(&exp, cfg).run_deterministic(&exec);
        assert!(delta.maint.delta_rebuilds > 0, "1.0 never falls back");
        assert_eq!(delta.maint.full_rebuilds, 0);
        assert_eq!(delta.metrics, full.metrics, "routing is oblivious to the rebuild path");
        assert_eq!(
            delta.maint.snapshot_digest, full.maint.snapshot_digest,
            "every published snapshot must be byte-identical either way"
        );
        // Both paths build their rings in the arenas retired snapshots
        // return to the pool.
        assert!(delta.maint.arena.returned > 0, "retired snapshots feed the pool");
        assert!(delta.maint.arena.reused > 0, "deltas build from recycled arenas");
        assert!(full.maint.arena.returned > 0, "retired snapshots feed the pool");
        assert!(full.maint.arena.reused > 0, "full rebuilds build from recycled arenas");
    }

    #[test]
    #[should_panic(expected = "churn universe")]
    fn mismatched_universe_is_rejected() {
        let (exp, mut cfg) = tiny();
        cfg.churn.arrivals = 99;
        let _ = ServeEngine::new(&exp, cfg);
    }

    #[test]
    fn telemetry_never_perturbs_routing_metrics() {
        let (exp, mut cfg) = tiny();
        let exec = Executor::new(2);
        let base = ServeEngine::new(&exp, cfg).run_deterministic(&exec);
        assert!(base.timeseries.is_none(), "telemetry off reports no series");
        cfg.telemetry = TelemetryConfig::on();
        let traced = ServeEngine::new(&exp, cfg).run_deterministic(&exec);
        assert_eq!(traced.metrics, base.metrics, "telemetry must not touch routing");
        assert_eq!(traced.lookups, base.lookups);
        let ts = traced.timeseries.expect("telemetry on reports a series");
        assert_eq!(ts.meta.mode, "sim");
        assert_eq!(ts.total_lookups(), traced.lookups, "every lookup lands in a window");
        assert!(ts.window_count() >= 2, "a 20 s horizon spans several 1 s windows");
        assert!(!ts.slow.is_empty(), "the flight recorder must capture something");
        for s in &ts.slow {
            let sum: u64 = s.path.iter().map(|h| u64::from(h.ms)).sum();
            assert_eq!(sum, s.latency_ms, "hop trace must reconcile with the latency");
        }
        // The maintenance profile reports in both runs, telemetry or not.
        assert!(base.maint.rounds > 0 && traced.maint.rebuilds > 0);
        assert_eq!(
            traced.maint.rebuilds,
            traced.registry.counter(names::SERVE_EPOCHS_PUBLISHED),
            "maint stats reconcile with the registry"
        );
        // Health rollup: per-window epoch counters sum to the run totals.
        let published: u64 = ts
            .windows
            .iter()
            .map(|w| w.health.counter(names::SERVE_EPOCH_PUBLISHED))
            .sum();
        assert_eq!(published, traced.epochs.published, "windowed publishes sum to the total");
    }

    #[test]
    fn slo_breaches_are_recorded_with_epoch_context() {
        let (exp, mut cfg) = tiny();
        // An impossible SLO: every populated window breaches.
        cfg.telemetry =
            TelemetryConfig::on().with_slo(SloSpec { p99_ms: 0, max_failure_ppm: 0 });
        let r = ServeEngine::new(&exp, cfg).run_deterministic(&Executor::new(1));
        let ts = r.timeseries.expect("telemetry on");
        assert_eq!(ts.breaches.len(), ts.window_count(), "p99 budget 0 breaches everywhere");
        assert_eq!(
            r.registry.counter(names::TELEMETRY_SLO_BREACHES),
            ts.breaches.len() as u64
        );
        let churn_in_breaches: u64 = ts.breaches.iter().map(|b| b.churn_events).sum();
        assert!(churn_in_breaches > 0, "breach windows carry their churn events");
    }

    #[test]
    fn cache_off_uniform_workload_replay_is_the_quiesced_identity() {
        let (exp, cfg) = tiny();
        let exec = Executor::new(2);
        let w = Workload::new(60, 200, exp.config.seed ^ 0x517c_c1b7);
        let replay = exp.run_workload_on(&exec, &w).hieras;
        let r = ServeEngine::new(&exp, cfg).run_quiesced_workload(&exec, &w);
        assert_eq!(r.metrics, replay, "cache off, the snapshot path is the replay path");
        assert_eq!(r.cache, CacheStats::default(), "a disabled cache counts nothing");
        assert_eq!(r.hot.requests, 0, "uniform keys carry no popularity ranks");
        assert_eq!(r.lookups, 200);
    }

    #[test]
    fn quiesced_fold_with_cache_is_identical_at_any_width() {
        let (exp, mut cfg) = tiny();
        cfg.cache = CacheConfig::on().verified();
        let engine = ServeEngine::new(&exp, cfg);
        let w = Workload::with_model(60, 4096, 99, WorkloadModel::Skew(SkewParams::zipf(0.99)));
        let base = engine.run_quiesced_workload(&Executor::new(1), &w);
        assert!(base.cache.hits > 0, "hot keys repeat within a chunk");
        for width in [2, 8] {
            let r = engine.run_quiesced_workload(&Executor::new(width), &w);
            assert_eq!(r.metrics, base.metrics, "width {width}");
            assert_eq!(r.hot, base.hot, "width {width}");
            assert_eq!(r.owner_digest, base.owner_digest, "width {width}");
            assert_eq!(r.cache, base.cache, "width {width}");
        }
    }

    #[test]
    fn cached_replay_answers_every_request_identically() {
        let (exp, mut cfg) = tiny();
        let exec = Executor::new(2);
        let w = Workload::with_model(
            60,
            4096,
            99,
            WorkloadModel::Skew(SkewParams::zipf(0.99)),
        );
        let cold = ServeEngine::new(&exp, cfg).run_quiesced_workload(&exec, &w);
        assert_eq!(cold.cache, CacheStats::default());
        assert!(cold.hot.requests > 0, "a Zipf stream must draw hot-rank keys");
        // Verify mode: every hit is re-routed and cross-checked against
        // the authoritative answer inside the evaluator.
        cfg.cache = CacheConfig::on().verified();
        let warm = ServeEngine::new(&exp, cfg).run_quiesced_workload(&exec, &w);
        assert_eq!(
            warm.owner_digest, cold.owner_digest,
            "cached and uncached runs must answer every request with the same owner"
        );
        assert_eq!(warm.hot.requests, cold.hot.requests);
        assert!(warm.cache.hits > 0, "hot keys repeat within a chunk");
        assert_eq!(warm.cache.invalidations, 0, "one epoch, one binding");
        // A hit answers with the direct src→owner hop, and peer latency
        // is shortest-path: never slower than the routed path it skips.
        assert!(warm.metrics.total_latency_ms <= cold.metrics.total_latency_ms);
        assert!(
            warm.hot.summary().latency_tail.p50_ms <= cold.hot.summary().latency_tail.p50_ms,
            "cache hits cannot slow the hot subset down"
        );
    }

    #[test]
    fn cached_deterministic_serving_is_identical_at_any_width() {
        let (exp, mut cfg) = tiny();
        cfg.cache = CacheConfig::on();
        // Zipf(1.1)'s head is heavy enough that even 64-lookup rounds
        // re-draw hot keys inside one chunk-scoped cache.
        cfg.workload = WorkloadModel::Skew(SkewParams::zipf(1.1));
        cfg.telemetry = TelemetryConfig::on();
        let engine = ServeEngine::new(&exp, cfg);
        let base = engine.run_deterministic(&Executor::new(1));
        assert!(
            base.registry.counter(names::SERVE_CACHE_HITS) > 0,
            "a Zipf(1.1) stream must hit the chunk cache"
        );
        assert_eq!(
            base.registry.counter(names::SERVE_CACHE_HITS)
                + base.registry.counter(names::SERVE_CACHE_MISSES),
            base.lookups,
            "every lookup probes the cache exactly once"
        );
        for width in [2, 8] {
            let r = engine.run_deterministic(&Executor::new(width));
            assert_eq!(r.metrics, base.metrics, "width {width} must not move a metric");
            assert_eq!(r.registry, base.registry, "width {width} must not move a counter");
        }
        // The per-window hit-rate gauge is derived wherever the window
        // saw cache probes.
        let ts = base.timeseries.expect("telemetry on");
        let mut derived = 0;
        for w in &ts.windows {
            let probes = w.health.counter(names::SERVE_CACHE_WINDOW_LOOKUPS);
            if probes > 0 {
                let ppm = w
                    .health
                    .gauge(names::SERVE_CACHE_HIT_RATE_PPM)
                    .expect("probed windows carry the hit-rate gauge");
                assert!((0..=1_000_000).contains(&ppm));
                assert!(w.health.counter(names::SERVE_CACHE_WINDOW_HITS) <= probes);
                derived += 1;
            }
        }
        assert!(derived > 0, "at least one window must have cache activity");
    }

    #[test]
    fn live_readers_verify_cached_hits_across_epoch_flips() {
        let (exp, mut cfg) = tiny();
        // Verified hits under real churn: a stale cached answer served
        // after an epoch flip would panic inside the evaluator.
        cfg.cache = CacheConfig::on().verified();
        cfg.workload = WorkloadModel::Skew(SkewParams::zipf(1.1));
        // Pace the maintainer (~50 ms of wall clock for the 20 s
        // schedule) so readers serve across many epoch flips.
        cfg.pace = 400.0;
        let r = ServeEngine::new(&exp, cfg).run_live();
        assert!(r.lookups > 0);
        assert!(
            r.registry.counter(names::SERVE_CACHE_HITS) > 0,
            "hot keys must hit between epoch flips"
        );
        assert!(
            r.registry.counter(names::SERVE_CACHE_INVALIDATIONS) > 0,
            "every adopted epoch re-binds (and so invalidates) the reader caches"
        );
        assert_eq!(
            r.registry.counter(names::SERVE_CACHE_HITS)
                + r.registry.counter(names::SERVE_CACHE_MISSES),
            r.lookups
        );
    }
}

