//! The churn engine: replays a [`ChurnSchedule`] onto both DHTs.
//!
//! Everything is strictly sequential and index-addressed, so a run is
//! a pure function of its configuration: the same seed produces a
//! bit-identical [`ChurnReport`] on any machine and any thread count
//! (callers parallelize *across* scenarios, never within one).
//!
//! One run proceeds as:
//!
//! 1. **World building.** An [`Experiment`] is assembled over the full
//!    node pool (initial members + future arrivals) so every node has
//!    a topology attachment, landmark RTT vector and identifier from
//!    the start. Two [`HierasOracle`]s over just the initial members
//!    bootstrap the two message networks in their stabilized state:
//!    the configured hierarchy for HIERAS, and the same members at
//!    depth 1 — one global ring, which *is* Chord — for the baseline.
//!    Both run the one protocol engine ([`SimNet`]) over the same link
//!    delays, so every cost below is counted in the same unit.
//! 2. **Schedule replay.** Each churn event is applied to both
//!    networks: arrivals run the §3.3 join choreography through a
//!    seed-chosen live bootstrap (retried through another bootstrap if
//!    the messages die), graceful leaves patch neighbours and hand off
//!    ring tables, silent fails just vanish. After every event a batch
//!    of lookups runs through both algorithms, each scored against the
//!    ground-truth owner (the first live id clockwise from the key);
//!    maintenance rounds fire on their configured cadence. Memberships
//!    stay mirrored: an arrival only one side could place is failed
//!    out of the other.
//! 3. **Accounting.** Message deltas are attributed around each driver
//!    call into per-layer [`MaintStats`] buckets (one bucket for the
//!    baseline), exhaustively: at the end of a run each side's buckets
//!    sum to its network's delivered + timed-out traffic.
//!    Successful-lookup hops and timeout-inflated latencies land in
//!    [`hieras_sim::Metrics`].
//!
//! [`ChurnSchedule`]: hieras_sim::ChurnSchedule

use crate::report::{AlgoChurnStats, MaintStats};
use crate::{ChurnExperimentConfig, ChurnReport, EventCounts};
use hieras_core::{HierasConfig, HierasOracle};
use hieras_id::{Id, IdSpace};
use hieras_obs::{Registry, TelemetryShard, TimeSeriesReport, Tracer};
use hieras_proto::SimNet;
use hieras_rt::splitmix64;
use hieras_sim::{ChurnEventKind, Experiment, ExperimentConfig, Sample};
use std::collections::HashMap;
use std::sync::Arc;

/// Observability artifacts captured by [`run_churn_traced`]: the
/// HIERAS network's metric registry (per-message-type counters,
/// lookup/join histograms, `churn.*` event counters) and — when a
/// trace capacity was requested — the structured event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnObs {
    /// Merged counters / gauges / histograms for the whole run.
    pub registry: Registry,
    /// The span/instant event buffer, `None` when tracing was off.
    pub tracer: Option<Tracer>,
    /// Time-resolved lookup telemetry over the churn horizon:
    /// [`CHURN_WINDOW_MS`]-wide sim windows with per-window success
    /// latencies, failures (wrong owner or unresolved), and retry
    /// counts. Windowed and aggregate accounting reconcile exactly —
    /// the identity `tests/` assert.
    pub timeseries: TimeSeriesReport,
}

/// Width of the churn engine's telemetry windows on the sim clock, ms.
pub const CHURN_WINDOW_MS: u64 = 1_000;

/// Lookup retry budget: attempts per lookup before it is declared
/// failed.
const LOOKUP_ATTEMPTS: u32 = 4;
/// Backoff between lookup attempts, ms (inflates the measured latency
/// of retried lookups).
const BACKOFF_MS: u64 = 400;
/// Bootstraps an arrival tries before it is abandoned.
const JOIN_ATTEMPTS: u64 = 3;

/// Traffic counters of one network; the difference of two readings is
/// the traffic of the driver calls in between.
#[derive(Clone, Copy)]
struct Snap {
    total: u64,
    timeouts: u64,
}

/// One algorithm's half of a run: its network, its books, and where
/// each layer's round-robin finger repair stands. Every churn step is
/// written once here and applied to both sides. Only the HIERAS side
/// ever carries a registry or a tracer, so the obs hooks below are
/// no-ops on the baseline.
struct Side<'a> {
    net: SimNet<'a>,
    stats: AlgoChurnStats,
    fix_rounds: Vec<u64>,
}

impl<'a> Side<'a> {
    fn new(oracle: &HierasOracle, landmarks: &[u32], delay: impl Fn(Id, Id) -> u64 + 'a) -> Self {
        let depth = oracle.config().depth;
        Side {
            net: SimNet::from_oracle(oracle, landmarks, delay),
            stats: AlgoChurnStats::new(depth),
            fix_rounds: vec![0; depth],
        }
    }

    fn traffic(&self) -> Snap {
        Snap { total: self.net.stats().total, timeouts: self.net.stats().timeouts }
    }

    fn since(&self, before: Snap) -> Snap {
        let now = self.traffic();
        Snap { total: now.total - before.total, timeouts: now.timeouts - before.timeouts }
    }

    /// Runs `op` on the network and books the traffic it caused:
    /// delivered messages to `bucket` of layer index `li`, RTOs to
    /// that layer's `timeout_msgs`.
    fn charged<T>(
        &mut self,
        li: usize,
        bucket: fn(&mut MaintStats) -> &mut u64,
        op: impl FnOnce(&mut SimNet<'a>) -> T,
    ) -> (T, Snap) {
        let before = self.traffic();
        let out = op(&mut self.net);
        let d = self.since(before);
        let m = &mut self.stats.maint[li];
        *bucket(m) += d.total;
        m.timeout_msgs += d.timeouts;
        (out, d)
    }

    fn open(&mut self, name: &str, fields: &[(&str, u64)]) -> Option<u64> {
        let now = self.net.now();
        self.net.tracer_mut().map(|t| t.open(now, name, fields))
    }

    fn close(&mut self, span: Option<u64>, fields: &[(&str, u64)]) {
        let now = self.net.now();
        if let (Some(t), Some(s)) = (self.net.tracer_mut(), span) {
            t.close(now, s, fields);
        }
    }

    fn count(&mut self, name: &str, n: u64) {
        if let Some(r) = self.net.registry_mut() {
            r.inc_by(name, n);
        }
    }

    /// An arrival: the §3.3 choreography through a live bootstrap drawn
    /// from `salt`, retried through another when the messages die.
    /// Returns whether the node got in and how many attempts died.
    fn join(&mut self, id: Id, rtts: &[u16], salt: u64) -> (bool, u64) {
        for attempt in 0..JOIN_ATTEMPTS {
            let members = self.net.sorted_ids();
            let bootstrap = members[splitmix64(salt ^ attempt) as usize % members.len()];
            let (outcome, _) =
                self.charged(0, |m| &mut m.join_msgs, |net| net.try_join(id, bootstrap, rtts));
            if outcome.is_some() {
                return (true, attempt);
            }
        }
        (false, JOIN_ATTEMPTS)
    }

    fn leave(&mut self, id: Id, ev_no: u64) {
        let span = self.open("churn.leave", &[("ev", ev_no), ("node", id.raw())]);
        let (_, d) = self.charged(0, |m| &mut m.repair_msgs, |net| net.leave_node(id));
        self.close(span, &[("messages", d.total)]);
    }

    fn fail(&mut self, id: Id, ev_no: u64) {
        self.net.fail_node(id);
        let now = self.net.now();
        if let Some(t) = self.net.tracer_mut() {
            t.instant(now, "churn.fail", &[("ev", ev_no), ("node", id.raw())]);
        }
    }

    /// A whole failure domain dies at one instant: `kill` fail
    /// silently, back to back, with no maintenance in between — the
    /// repair bill lands on the rounds that follow.
    fn cut_domain(&mut self, domain: u32, kill: &[Id], ev_no: u64) {
        let span =
            self.open("churn.domain_fail", &[("ev", ev_no), ("domain", u64::from(domain))]);
        for &id in kill {
            self.net.fail_node(id);
        }
        self.close(span, &[("killed", kill.len() as u64)]);
    }

    /// One application lookup under the retry budget, scored against
    /// the ground-truth owner (and into `tele`'s window, if given).
    fn lookup(&mut self, src: Id, key: Id, truth: Id, tele: Option<&mut TelemetryShard>) {
        let (rl, _) = self.charged(0, |m| &mut m.lookup_msgs, |net| {
            net.try_lookup(src, key, LOOKUP_ATTEMPTS, BACKOFF_MS)
        });
        let exact = rl.outcome.filter(|o| o.owner == truth);
        let s = &mut self.stats;
        s.lookups += 1;
        s.attempts += u64::from(rl.attempts);
        match exact {
            Some(o) => s.routing.record(Sample {
                hops: o.hops,
                lower_hops: 0,
                latency_ms: u32::try_from(o.latency_ms).unwrap_or(u32::MAX),
                lower_latency_ms: 0,
            }),
            None if rl.outcome.is_some() => s.wrong_owner += 1,
            None => s.unresolved += 1,
        }
        if let Some(t) = tele {
            let win = self.net.now() / CHURN_WINDOW_MS;
            if rl.attempts > 1 {
                t.retries(win, u64::from(rl.attempts) - 1);
            }
            match exact {
                Some(o) => t.lookup(win, o.latency_ms),
                None => t.lookup_failed(win),
            }
        }
    }

    /// One maintenance round: per layer, failure-detection pings and
    /// stabilization, then one finger index re-resolved by every
    /// member.
    fn maintain(&mut self, ev_no: u64) {
        let span = self.open("churn.repair", &[("ev", ev_no)]);
        let before = self.traffic();
        for li in 0..self.fix_rounds.len() {
            let layer = li as u8 + 1;
            self.charged(li, |m| &mut m.stabilize_msgs, |net| {
                net.check_predecessors_layer(layer);
                net.stabilize_layer(layer);
            });
            let round = self.fix_rounds[li];
            self.fix_rounds[li] += 1;
            self.charged(li, |m| &mut m.fix_finger_msgs, |net| net.fix_fingers_layer(layer, round));
        }
        let d = self.since(before);
        self.close(span, &[("messages", d.total), ("timeouts", d.timeouts)]);
        self.count("churn.repair.rounds", 1);
    }
}

/// Ground truth: the live member that owns `key` — the first id
/// clockwise at or after it (a node owns its own id).
fn owner_of(members: &[Id], key: Id) -> Id {
    let i = members.partition_point(|&m| m < key);
    if i == members.len() {
        members[0]
    } else {
        members[i]
    }
}

/// Runs one churn experiment end to end.
///
/// # Panics
/// Panics on configurations the engine cannot replay: fewer than two
/// initial nodes, a schedule that drains the network below two
/// members, or internal protocol invariants breaking.
#[must_use]
pub fn run_churn(cfg: &ChurnExperimentConfig) -> ChurnReport {
    run_churn_impl(cfg, None).0
}

/// [`run_churn`] with observability on: the HIERAS network's metric
/// registry is enabled for the whole run and — when
/// `trace_capacity > 0` — a bounded [`Tracer`] records per-event spans
/// (`churn.join`, `churn.leave`, `churn.repair`, …) with the
/// per-lookup / per-join spans from the transport nested beneath them.
///
/// The returned [`ChurnReport`] is bit-identical to what [`run_churn`]
/// produces for the same configuration — instrumentation only reads.
///
/// # Panics
/// As [`run_churn`].
#[must_use]
pub fn run_churn_traced(
    cfg: &ChurnExperimentConfig,
    trace_capacity: usize,
) -> (ChurnReport, ChurnObs) {
    let (report, obs) = run_churn_impl(cfg, Some(trace_capacity));
    (report, obs.expect("obs requested"))
}

fn run_churn_impl(
    cfg: &ChurnExperimentConfig,
    obs: Option<usize>,
) -> (ChurnReport, Option<ChurnObs>) {
    let churn = cfg.churn;
    let initial = churn.initial_nodes as usize;
    let pool = initial + churn.arrivals as usize;
    assert!(initial >= 2, "churn engine needs at least two initial nodes");

    // World: topology, placement, landmark RTTs and ids for the *full*
    // pool, so arrivals are measurable before they join.
    let exp = Experiment::build(ExperimentConfig {
        kind: cfg.kind,
        nodes: pool,
        requests: 0,
        hieras: cfg.hieras.clone(),
        seed: churn.seed,
        rtt_noise: 0.0,
    });
    let space = IdSpace::full();
    let index_of: HashMap<Id, u32> =
        exp.ids.iter().enumerate().map(|(i, &id)| (id, i as u32)).collect();
    let mut landmarks = exp.landmarks.clone();
    let delay = |a: Id, b: Id| u64::from(exp.peer_latency(index_of[&a], index_of[&b]));

    // Both networks start over the initial members only, born
    // stabilized: HIERAS as configured, the Chord baseline as the same
    // engine at depth 1 — one global ring, no landmarks, no ring tables.
    let init_ids: Arc<[Id]> = exp.ids[..initial].to_vec().into();
    let init_orders = exp.orders[..initial].to_vec();
    let plain = HierasConfig { depth: 1, landmarks: 0, binning: cfg.hieras.binning.clone() };
    let ring = HierasOracle::build(space, init_ids.clone(), init_orders.clone(), plain)
        .expect("a single ring over distinct ids");
    let mut c = Side::new(&ring, &[], delay);
    let hierarchy = HierasOracle::build(space, init_ids, init_orders, cfg.hieras.clone())
        .expect("initial subset of a validated configuration");
    let mut h = Side::new(&hierarchy, &landmarks, delay);
    if let Some(cap) = obs {
        h.net.enable_registry();
        if cap > 0 {
            h.net.set_tracer(Tracer::bounded(cap));
        }
    }

    let mut counts = EventCounts::default();
    let mut lookup_no = 0u64;
    // Windowed lookup telemetry (obs runs only; the plain run stays
    // untouched). The churn engine has no hop-capture path, so the
    // flight recorder stays off (k = 0).
    let mut tele = obs.map(|_| TelemetryShard::new(0));
    let seed = churn.seed;
    let schedule = churn.schedule();

    // The set-up's RTT table, re-measuring only a slot whose landmark
    // a `LandmarkFail` has replaced.
    let measure = |landmarks: &[u32], peer: usize| -> Vec<u16> {
        let mut rtts = exp.landmark_rtts(peer).to_vec();
        for ((rtt, &lm), &was) in rtts.iter_mut().zip(landmarks).zip(&exp.landmarks) {
            if lm != was {
                *rtt = exp.lat.latency(lm, exp.router_of[peer]);
            }
        }
        rtts
    };

    for (ev_no, ev) in schedule.events.iter().enumerate() {
        let ev_no = ev_no as u64;
        match ev.kind {
            ChurnEventKind::Join { node } => {
                let id = exp.ids[node as usize];
                let rtts = measure(&landmarks, node as usize);
                let span = h.open("churn.join", &[("ev", ev_no), ("node", id.raw())]);
                let salt = seed ^ 0xb007_57a9 ^ (ev_no << 8);
                let (placed, retries) = h.join(id, &rtts, salt);
                counts.join_retries += retries;
                // The membership ground truth is shared, so an arrival
                // only HIERAS could place is failed out of it again.
                let joined = placed && c.join(id, &[], salt).0;
                if joined {
                    counts.joins += 1;
                } else {
                    h.net.fail_node(id);
                    counts.join_aborts += 1;
                }
                h.close(span, &[("joined", u64::from(joined))]);
            }
            ChurnEventKind::Leave { node } => {
                let id = exp.ids[node as usize];
                if h.net.alive(id) {
                    h.leave(id, ev_no);
                    c.leave(id, ev_no);
                    counts.leaves += 1;
                } else {
                    counts.skipped += 1;
                }
            }
            ChurnEventKind::Fail { node } => {
                let id = exp.ids[node as usize];
                if h.net.alive(id) {
                    h.fail(id, ev_no);
                    c.fail(id, ev_no);
                    counts.fails += 1;
                } else {
                    counts.skipped += 1;
                }
            }
        }
        assert!(h.net.len() >= 2, "churn schedule drained the network");
        assert_eq!(h.net.len(), c.net.len(), "memberships are mirrored");

        // Application lookups, scored against the live ground truth.
        for _ in 0..cfg.lookups_per_event {
            lookup_no += 1;
            let members = h.net.sorted_ids();
            let src =
                members[splitmix64(seed ^ 0x5eed_0502 ^ lookup_no) as usize % members.len()];
            let key = Id(splitmix64(seed ^ 0x0ca7_10ad ^ lookup_no));
            let truth = owner_of(&members, key);
            h.lookup(src, key, truth, tele.as_mut());
            c.lookup(src, key, truth, None);
        }

        if cfg.maintenance_every > 0
            && (ev_no + 1).is_multiple_of(u64::from(cfg.maintenance_every))
        {
            h.maintain(ev_no);
            c.maintain(ev_no);
        }

        // Landmark death: swap in the backup measurement point and
        // re-bin every live node against the new RTT vectors. The
        // baseline has no landmarks to lose.
        if let Some(lf) = cfg.landmark_fail {
            if ev_no + 1 == u64::from(lf.after_event) && !landmarks.is_empty() {
                let li = lf.landmark as usize % landmarks.len();
                landmarks[li] = exp.router_of[pool - 1];
                let span = h.open("churn.rebin", &[("ev", ev_no)]);
                let (moved, d) = h.charged(cfg.hieras.depth - 1, |m| &mut m.repair_msgs, |net| {
                    let mut moved = 0u64;
                    for id in net.sorted_ids() {
                        let rtts = measure(&landmarks, index_of[&id] as usize);
                        moved += net.rebin_node(id, &rtts) as u64;
                    }
                    moved
                });
                counts.rebinned += moved;
                h.close(span, &[("moved", moved), ("messages", d.total)]);
            }
        }

        // Domain-correlated failure: every live peer attached to the
        // most-populated Transit-Stub failure domain (site power cut /
        // uplink loss) dies at one instant.
        if let Some(df) = cfg.domain_fail {
            if ev_no + 1 == u64::from(df.after_event) {
                let mut by_domain: HashMap<u32, Vec<Id>> = HashMap::new();
                for id in h.net.sorted_ids() {
                    let router = exp.router_of[index_of[&id] as usize];
                    by_domain.entry(exp.topo.domain_of(router)).or_default().push(id);
                }
                // Deterministic victim: most live peers, lowest domain
                // id on ties; capped so at least two peers survive.
                let victim = by_domain
                    .iter()
                    .max_by_key(|(dom, peers)| (peers.len(), u32::MAX - **dom))
                    .map(|(dom, _)| *dom);
                if let Some(dom) = victim {
                    let doomed = &by_domain[&dom];
                    let survivors = h.net.len() - doomed.len();
                    let kill: &[Id] =
                        if survivors >= 2 { doomed } else { &doomed[..h.net.len() - 2] };
                    h.cut_domain(dom, kill, ev_no);
                    c.cut_domain(dom, kill, ev_no);
                    counts.domain_killed += kill.len() as u64;
                }
            }
        }
    }

    for side in [&h, &c] {
        let t = side.traffic();
        assert_eq!(
            side.stats.maint_total().total(),
            t.total + t.timeouts,
            "per-layer attribution must account for all traffic"
        );
    }
    let traffic = h.net.stats();
    let report = ChurnReport {
        turnover: schedule.turnover(churn.initial_nodes),
        events: counts,
        population_start: initial,
        population_end: h.net.len(),
        messages_total: traffic.total,
        timeouts_total: traffic.timeouts,
        drops_total: traffic.drops,
        hieras: h.stats,
        chord: c.stats,
    };
    let obs_out = obs.map(|_| ChurnObs {
        registry: h.net.take_registry().expect("registry enabled when obs requested"),
        tracer: h.net.take_tracer(),
        timeseries: tele
            .take()
            .expect("telemetry shard runs whenever obs does")
            .into_report("sim", CHURN_WINDOW_MS, None),
    });
    (report, obs_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChurnExperimentConfig;
    use hieras_sim::{ChurnConfig, Lifetime};

    fn small_cfg(graceful: f64, seed: u64) -> ChurnExperimentConfig {
        ChurnExperimentConfig::standard(ChurnConfig {
            initial_nodes: 60,
            arrivals: 10,
            inter_arrival: Lifetime::Fixed { ms: 400 },
            lifetime: Lifetime::Exponential { mean_ms: 40_000.0 },
            graceful_fraction: graceful,
            horizon_ms: 10_000,
            seed,
        })
    }

    #[test]
    fn owner_of_picks_clockwise_successor() {
        let members = [Id(10), Id(20), Id(30)];
        assert_eq!(owner_of(&members, Id(5)), Id(10));
        assert_eq!(owner_of(&members, Id(10)), Id(10));
        assert_eq!(owner_of(&members, Id(11)), Id(20));
        assert_eq!(owner_of(&members, Id(31)), Id(10), "wraps to the minimum");
    }

    #[test]
    fn same_seed_same_report() {
        let cfg = small_cfg(0.5, 11);
        let a = run_churn(&cfg);
        let b = run_churn(&cfg);
        assert_eq!(a, b, "the engine must be a pure function of its config");
        assert!(a.hieras.lookups > 0);
        assert_eq!(a.hieras.lookups, a.chord.lookups, "identical workload for both");
    }

    #[test]
    fn different_seed_different_report() {
        let a = run_churn(&small_cfg(0.5, 11));
        let b = run_churn(&small_cfg(0.5, 12));
        assert_ne!(a, b);
    }

    #[test]
    fn attribution_covers_every_message() {
        let r = run_churn(&small_cfg(0.3, 7));
        assert_eq!(
            r.hieras.maint_total().total(),
            r.messages_total + r.timeouts_total,
            "per-layer attribution must account for all traffic"
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_reconciles() {
        let cfg = small_cfg(0.5, 11);
        let plain = run_churn(&cfg);
        let (traced, obs) = run_churn_traced(&cfg, 1 << 16);
        assert_eq!(plain, traced, "instrumentation must not perturb the run");
        let r = &obs.registry;
        // Every delivered message was counted by kind.
        let delivered: u64 = r
            .counters()
            .filter(|(k, _)| k.starts_with("net.deliver."))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(delivered, traced.messages_total);
        // Timeouts too — including the maintenance-path RTOs charged
        // by the dead-successor scrub and predecessor checks.
        assert_eq!(r.counter("net.timeout"), traced.timeouts_total);
        // Lookup histogram covers every application lookup.
        assert_eq!(
            r.hist("lookup.latency_ms").expect("lookups ran").total()
                + r.counter("lookup.unresolved"),
            traced.hieras.lookups
        );
        // Retry latency is a histogram, not just a counter: one
        // observation per lookup that retried (resolved late or burned
        // the whole budget), so tail inflation is attributable.
        let retried_lookups = r.hist("lookup.retry_wait_ms").map_or(0, |h| h.total());
        assert!(
            r.counter("lookup.retries") >= retried_lookups,
            "each retried lookup carries >= 1 retry"
        );
        if r.counter("lookup.retries") > 0 {
            assert!(retried_lookups > 0, "retries happened but no retry-wait was observed");
            assert!(
                r.hist("lookup.retry_wait_ms").expect("observed").max() > 0,
                "retry waits include backoff time"
            );
        }
        let t = obs.tracer.expect("tracing was on");
        assert!(!t.is_empty());
        // Windowed telemetry reconciles exactly with the aggregates:
        // every lookup lands in one window, failures split into wrong
        // owner + unresolved, retries match the attempt surplus, and
        // the per-window success histograms merge to the same total
        // the run-level routing stats carry.
        let ts = &obs.timeseries;
        assert_eq!(ts.meta.mode, "sim");
        assert_eq!(ts.meta.window_ms, CHURN_WINDOW_MS);
        assert!(ts.window_count() > 1, "a 10 s horizon spans several 1 s windows");
        assert_eq!(ts.total_lookups(), traced.hieras.lookups);
        let failures: u64 = ts.windows.iter().map(|w| w.failures).sum();
        assert_eq!(failures, traced.hieras.wrong_owner + traced.hieras.unresolved);
        let retries: u64 = ts.windows.iter().map(|w| w.retries).sum();
        assert_eq!(retries, traced.hieras.attempts - traced.hieras.lookups);
        let mut merged = hieras_obs::LogHistogram::default();
        for w in &ts.windows {
            merged.merge(&w.latency);
        }
        assert_eq!(merged.total(), traced.hieras.lookups - failures);
        assert_eq!(
            merged.total(),
            traced.hieras.routing.requests,
            "windowed latencies cover exactly the successful lookups"
        );
        // And the stream format round-trips bit-identically.
        let text = ts.to_jsonl();
        let back = TimeSeriesReport::parse_jsonl(&text).expect("own stream parses");
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn landmark_death_rebins_some_nodes() {
        let mut cfg = small_cfg(1.0, 21);
        cfg.landmark_fail = Some(crate::LandmarkFail { after_event: 2, landmark: 0 });
        let r = run_churn(&cfg);
        // The backup measurement point sits elsewhere in the topology,
        // so at least some nodes change bins; repair traffic was paid
        // in the lowest layer.
        assert!(r.events.rebinned > 0, "no node moved rings after landmark death");
        assert!(r.hieras.maint.last().expect("depth >= 1").repair_msgs > 0);
    }

    #[test]
    fn domain_death_kills_a_site_at_one_instant() {
        let mut cfg = small_cfg(1.0, 33);
        let base = run_churn(&cfg);
        assert_eq!(base.events.domain_killed, 0, "no cut without a DomainFail");
        cfg.domain_fail = Some(crate::DomainFail { after_event: 3 });
        let r = run_churn(&cfg);
        // A whole stub domain's worth of correlated deaths: more than
        // one peer went down in the same instant, and the network
        // stayed serviceable (the engine asserts `len >= 2` throughout,
        // and later lookups still resolve).
        assert!(r.events.domain_killed > 1, "a site cut must kill several peers at once");
        // Membership arithmetic: the cut's victims are accounted
        // separately from the schedule's own departures.
        assert_eq!(
            r.population_end as u64,
            60 + r.events.joins - r.events.leaves - r.events.fails - r.events.domain_killed
        );
        assert!(r.hieras.lookups == base.hieras.lookups, "same schedule, same lookup count");
        // Correlated loss is strictly harsher than the independent
        // baseline for at least one of the failure counters.
        let failed = r.hieras.wrong_owner + r.hieras.unresolved + r.hieras.attempts;
        let failed_base =
            base.hieras.wrong_owner + base.hieras.unresolved + base.hieras.attempts;
        assert!(failed >= failed_base, "a site cut cannot make routing healthier");
    }
}
