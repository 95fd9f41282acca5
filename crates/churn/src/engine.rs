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
//!    the start. A second [`HierasOracle`] over just the initial
//!    members bootstraps the message network in its stabilized state;
//!    the Chord baseline bootstraps through its own join +
//!    stabilization protocol until ring-consistent. Bootstrap traffic
//!    is not counted.
//! 2. **Schedule replay.** Each churn event is applied to both
//!    networks: arrivals run the §3.3 join choreography through a
//!    seed-chosen live bootstrap (retried through another bootstrap if
//!    the messages die), graceful leaves patch neighbours and hand off
//!    ring tables, silent fails just vanish. After every event a batch
//!    of lookups runs through both algorithms, each scored against the
//!    ground-truth owner (the first live id clockwise from the key);
//!    maintenance rounds fire on their configured cadence.
//! 3. **Accounting.** HIERAS message deltas are attributed around each
//!    driver call into per-layer [`MaintStats`] buckets; Chord keeps
//!    its own internal attribution. Successful-lookup hops and
//!    timeout-inflated latencies land in [`hieras_sim::Metrics`].

use crate::{ChurnExperimentConfig, ChurnReport, EventCounts};
use crate::report::AlgoChurnStats;
use hieras_chord::{DynChord, DynError};
use hieras_core::HierasOracle;
use hieras_id::{Id, IdSpace};
use hieras_obs::{Registry, TelemetryShard, TimeSeriesReport, Tracer};
use hieras_proto::{SimNet, RTO_MS};
use hieras_rt::splitmix64;
use hieras_sim::{ChurnEventKind, Experiment, ExperimentConfig, Sample};
use std::collections::HashMap;
use std::sync::Arc;

/// Observability artifacts captured by [`run_churn_traced`]: the
/// network's metric registry (per-message-type counters, lookup/join
/// histograms, `churn.*` event counters) and — when a trace capacity
/// was requested — the structured event stream.
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
/// Successor-list length of the Chord baseline.
const SUCC_LIST_LEN: usize = 8;

/// Message counters captured before a driver call; the difference
/// afterwards is the call's traffic.
#[derive(Clone, Copy)]
struct Snap {
    total: u64,
    timeouts: u64,
}

fn snap(net: &SimNet) -> Snap {
    Snap { total: net.stats().total, timeouts: net.stats().timeouts }
}

fn delta(net: &SimNet, before: Snap) -> Snap {
    Snap {
        total: net.stats().total - before.total,
        timeouts: net.stats().timeouts - before.timeouts,
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

/// [`run_churn`] with observability on: the network's metric registry
/// is enabled for the whole run and — when `trace_capacity > 0` — a
/// bounded [`Tracer`] records per-event spans (`churn.join`,
/// `churn.leave`, `churn.repair`, …) with the per-lookup / per-join
/// spans from the transport nested beneath them.
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

#[allow(clippy::too_many_lines)] // one linear replay loop reads better unsplit
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

    // HIERAS network over the initial members only, born stabilized.
    let init_ids: Arc<[Id]> = exp.ids[..initial].to_vec().into();
    let init_orders = exp.orders[..initial].to_vec();
    let oracle = HierasOracle::build(space, init_ids, init_orders, cfg.hieras.clone())
        .expect("initial subset of a validated configuration");
    let mut net = SimNet::from_oracle(&oracle, &landmarks, |a, b| {
        u64::from(exp.peer_latency(index_of[&a], index_of[&b]))
    });
    if let Some(cap) = obs {
        net.enable_registry();
        if cap > 0 {
            net.set_tracer(Tracer::bounded(cap));
        }
    }

    // Chord baseline over the same membership, converged through its
    // own protocol (the TR completes joins via stabilization).
    let mut sorted_init: Vec<Id> = exp.ids[..initial].to_vec();
    sorted_init.sort_unstable();
    let mut chord = DynChord::new(space, SUCC_LIST_LEN);
    chord.create(sorted_init[0]).expect("fresh network");
    for &id in &sorted_init[1..] {
        chord.join(id, sorted_init[0]).expect("bootstrap ring is consistent");
        chord.stabilize_round();
        chord.stabilize_round();
    }
    chord.fix_all_fingers();
    assert!(chord.ring_consistent(), "chord bootstrap failed to converge");
    chord.reset_stats();

    let depth = cfg.hieras.depth;
    let mut h = AlgoChurnStats::new(depth);
    let mut c = AlgoChurnStats::new(1);
    let mut counts = EventCounts::default();
    let mut fix_rounds = vec![0u64; depth];
    let mut lookup_no = 0u64;
    // Windowed lookup telemetry (obs runs only; the plain run stays
    // untouched). The churn engine has no hop-capture path, so the
    // flight recorder stays off (k = 0).
    let mut tele = obs.map(|_| TelemetryShard::new(0));
    let seed = churn.seed;
    let schedule = churn.schedule();

    let measure = |landmarks: &[u32], peer: usize| -> Vec<u16> {
        landmarks.iter().map(|&lm| exp.lat.latency(lm, exp.router_of[peer])).collect()
    };

    for (ev_no, ev) in schedule.events.iter().enumerate() {
        match ev.kind {
            ChurnEventKind::Join { node } => {
                let id = exp.ids[node as usize];
                let rtts = measure(&landmarks, node as usize);
                let t_now = net.now();
                let span = net.tracer_mut().map(|t| {
                    t.open(t_now, "churn.join", &[("ev", ev_no as u64), ("node", id.raw())])
                });
                let mut joined_via = None;
                for attempt in 0..3u64 {
                    let members = net.sorted_ids();
                    let r = splitmix64(seed ^ 0xb007_57a9 ^ ((ev_no as u64) << 8) ^ attempt);
                    let bootstrap = members[r as usize % members.len()];
                    let before = snap(&net);
                    let outcome = net.try_join(id, bootstrap, &rtts);
                    let d = delta(&net, before);
                    h.maint[0].join_msgs += d.total;
                    h.maint[0].timeout_msgs += d.timeouts;
                    if outcome.is_some() {
                        joined_via = Some(bootstrap);
                        break;
                    }
                    counts.join_retries += 1;
                    if let Some(r) = net.registry_mut() {
                        r.inc("churn.join.retry");
                    }
                }
                match joined_via {
                    Some(bootstrap) => {
                        let mut ok = false;
                        for _ in 0..4 {
                            match chord.join(id, bootstrap) {
                                Ok(()) => {
                                    ok = true;
                                    break;
                                }
                                Err(DynError::LookupFailed(_)) => chord.stabilize_round(),
                                Err(e) => unreachable!("chord join via live bootstrap: {e}"),
                            }
                        }
                        if ok {
                            // Two immediate rounds complete the splice
                            // (notify + predecessor adoption) so the
                            // newcomer is visible to lookups — HIERAS's
                            // choreography splices synchronously, and
                            // the membership ground truth includes the
                            // node from this instant.
                            chord.stabilize_round();
                            chord.stabilize_round();
                            counts.joins += 1;
                        } else {
                            // Chord could not place the node; keep the
                            // two memberships identical by undoing the
                            // HIERAS join.
                            net.fail_node(id);
                            counts.join_aborts += 1;
                        }
                    }
                    None => counts.join_aborts += 1,
                }
                let joined = u64::from(joined_via.is_some());
                let t_now = net.now();
                if let Some(t) = net.tracer_mut() {
                    if let Some(s) = span {
                        t.close(t_now, s, &[("joined", joined)]);
                    }
                }
                if let Some(r) = net.registry_mut() {
                    r.inc(if joined == 1 { "churn.join.ok" } else { "churn.join.abort" });
                }
            }
            ChurnEventKind::Leave { node } => {
                let id = exp.ids[node as usize];
                if net.alive(id) {
                    let t_now = net.now();
                    let span = net.tracer_mut().map(|t| {
                        t.open(t_now, "churn.leave", &[("ev", ev_no as u64), ("node", id.raw())])
                    });
                    let before = snap(&net);
                    net.leave_node(id);
                    let d = delta(&net, before);
                    h.maint[0].repair_msgs += d.total;
                    h.maint[0].timeout_msgs += d.timeouts;
                    let t_now = net.now();
                    if let Some(t) = net.tracer_mut() {
                        if let Some(s) = span {
                            t.close(t_now, s, &[("messages", d.total)]);
                        }
                    }
                    if let Some(r) = net.registry_mut() {
                        r.inc("churn.leave");
                    }
                    chord.leave(id).expect("memberships are mirrored");
                    counts.leaves += 1;
                } else {
                    counts.skipped += 1;
                }
            }
            ChurnEventKind::Fail { node } => {
                let id = exp.ids[node as usize];
                if net.alive(id) {
                    net.fail_node(id);
                    let t_now = net.now();
                    if let Some(t) = net.tracer_mut() {
                        t.instant(t_now, "churn.fail", &[
                            ("ev", ev_no as u64),
                            ("node", id.raw()),
                        ]);
                    }
                    if let Some(r) = net.registry_mut() {
                        r.inc("churn.fail");
                    }
                    chord.fail(id).expect("memberships are mirrored");
                    counts.fails += 1;
                } else {
                    counts.skipped += 1;
                }
            }
        }
        assert!(net.len() >= 2, "churn schedule drained the network");

        // Application lookups, scored against the live ground truth.
        for _ in 0..cfg.lookups_per_event {
            lookup_no += 1;
            let members = net.sorted_ids();
            let src =
                members[splitmix64(seed ^ 0x5eed_0502 ^ lookup_no) as usize % members.len()];
            let key = Id(splitmix64(seed ^ 0x0ca7_10ad ^ lookup_no));
            let truth = owner_of(&members, key);

            let before = snap(&net);
            let rl = net.try_lookup(src, key, LOOKUP_ATTEMPTS, BACKOFF_MS);
            let d = delta(&net, before);
            h.maint[0].lookup_msgs += d.total;
            h.maint[0].timeout_msgs += d.timeouts;
            h.lookups += 1;
            h.attempts += u64::from(rl.attempts);
            let win = net.now() / CHURN_WINDOW_MS;
            if let Some(t) = tele.as_mut() {
                if rl.attempts > 1 {
                    t.retries(win, u64::from(rl.attempts) - 1);
                }
            }
            match rl.outcome {
                Some(o) if o.owner == truth => {
                    if let Some(t) = tele.as_mut() {
                        t.lookup(win, o.latency_ms);
                    }
                    h.routing.record(Sample {
                        hops: o.hops,
                        lower_hops: 0,
                        latency_ms: u32::try_from(o.latency_ms).unwrap_or(u32::MAX),
                        lower_latency_ms: 0,
                    });
                }
                Some(_) => {
                    if let Some(t) = tele.as_mut() {
                        t.lookup_failed(win);
                    }
                    h.wrong_owner += 1;
                }
                None => {
                    if let Some(t) = tele.as_mut() {
                        t.lookup_failed(win);
                    }
                    h.unresolved += 1;
                }
            }

            c.lookups += 1;
            c.attempts += 1;
            match chord.find_successor_traced(src, key) {
                Ok(t) if t.owner == truth => {
                    let mut lat = t.timeouts * RTO_MS;
                    for w in t.path.windows(2) {
                        lat += u64::from(exp.peer_latency(index_of[&w[0]], index_of[&w[1]]));
                    }
                    c.routing.record(Sample {
                        hops: (t.path.len() - 1) as u32,
                        lower_hops: 0,
                        latency_ms: u32::try_from(lat).unwrap_or(u32::MAX),
                        lower_latency_ms: 0,
                    });
                }
                Ok(_) => c.wrong_owner += 1,
                Err(_) => c.unresolved += 1,
            }
        }

        // Maintenance on its cadence: per-layer failure detection,
        // stabilization and finger repair for HIERAS; the TR rounds
        // for Chord.
        if cfg.maintenance_every > 0
            && (ev_no as u64 + 1).is_multiple_of(u64::from(cfg.maintenance_every))
        {
            let t_now = net.now();
            let repair_span = net.tracer_mut().map(|t| {
                t.open(t_now, "churn.repair", &[("ev", ev_no as u64)])
            });
            let repair_before = snap(&net);
            for layer in 1..=depth as u8 {
                let li = layer as usize - 1;
                let before = snap(&net);
                net.check_predecessors_layer(layer);
                net.stabilize_layer(layer);
                let d = delta(&net, before);
                h.maint[li].stabilize_msgs += d.total;
                h.maint[li].timeout_msgs += d.timeouts;

                let before = snap(&net);
                net.fix_fingers_layer(layer, fix_rounds[li]);
                fix_rounds[li] += 1;
                let d = delta(&net, before);
                h.maint[li].fix_finger_msgs += d.total;
                h.maint[li].timeout_msgs += d.timeouts;
            }
            let d = delta(&net, repair_before);
            let t_now = net.now();
            if let Some(t) = net.tracer_mut() {
                if let Some(s) = repair_span {
                    t.close(t_now, s, &[("messages", d.total), ("timeouts", d.timeouts)]);
                }
            }
            if let Some(r) = net.registry_mut() {
                r.inc("churn.repair.rounds");
            }
            chord.stabilize_round();
            chord.fix_fingers_round();
        }

        // Landmark death: swap in the backup measurement point and
        // re-bin every live node against the new RTT vectors.
        if let Some(lf) = cfg.landmark_fail {
            if ev_no as u64 + 1 == u64::from(lf.after_event) && !landmarks.is_empty() {
                let li = lf.landmark as usize % landmarks.len();
                landmarks[li] = exp.router_of[pool - 1];
                let t_now = net.now();
                let rebin_span = net.tracer_mut().map(|t| {
                    t.open(t_now, "churn.rebin", &[("ev", ev_no as u64)])
                });
                let rebinned_before = counts.rebinned;
                let before = snap(&net);
                for id in net.sorted_ids() {
                    let peer = index_of[&id] as usize;
                    let rtts = measure(&landmarks, peer);
                    counts.rebinned += net.rebin_node(id, &rtts) as u64;
                }
                let d = delta(&net, before);
                let lowest = depth.saturating_sub(1);
                h.maint[lowest].repair_msgs += d.total;
                h.maint[lowest].timeout_msgs += d.timeouts;
                let moved = counts.rebinned - rebinned_before;
                let t_now = net.now();
                if let Some(t) = net.tracer_mut() {
                    if let Some(s) = rebin_span {
                        t.close(t_now, s, &[("moved", moved), ("messages", d.total)]);
                    }
                }
                if let Some(r) = net.registry_mut() {
                    r.inc_by("churn.rebinned", moved);
                }
            }
        }

        // Domain-correlated failure: a whole Transit-Stub failure
        // domain (site power cut / uplink loss) dies at one instant.
        // Every live peer attached to the most-populated domain fails
        // silently, back to back, with no maintenance in between — the
        // repair bill lands on the rounds that follow.
        if let Some(df) = cfg.domain_fail {
            if ev_no as u64 + 1 == u64::from(df.after_event) {
                let mut by_domain: HashMap<u32, Vec<Id>> = HashMap::new();
                for id in net.sorted_ids() {
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
                    let survivors = net.len() - doomed.len();
                    let kill: &[Id] =
                        if survivors >= 2 { doomed } else { &doomed[..net.len() - 2] };
                    let t_now = net.now();
                    let span = net.tracer_mut().map(|t| {
                        t.open(t_now, "churn.domain_fail", &[
                            ("ev", ev_no as u64),
                            ("domain", u64::from(dom)),
                        ])
                    });
                    for &id in kill {
                        net.fail_node(id);
                        chord.fail(id).expect("memberships are mirrored");
                        counts.domain_killed += 1;
                    }
                    let t_now = net.now();
                    if let Some(t) = net.tracer_mut() {
                        if let Some(s) = span {
                            t.close(t_now, s, &[("killed", kill.len() as u64)]);
                        }
                    }
                    if let Some(r) = net.registry_mut() {
                        r.inc_by("churn.domain_fail.killed", kill.len() as u64);
                    }
                }
            }
        }
    }

    c.maint = vec![chord.stats()];
    let pop_end = net.len();
    if let Some(r) = net.registry_mut() {
        r.gauge_set("churn.population.start", initial as i64);
        r.gauge_set("churn.population.end", pop_end as i64);
    }
    let traffic = net.stats();
    let report = ChurnReport {
        turnover: schedule.turnover(churn.initial_nodes),
        events: counts,
        population_start: initial,
        population_end: pop_end,
        messages_total: traffic.total,
        timeouts_total: traffic.timeouts,
        drops_total: traffic.drops,
        hieras: h,
        chord: c,
    };
    let obs_out = obs.map(|_| ChurnObs {
        registry: net.take_registry().expect("registry enabled when obs requested"),
        tracer: net.take_tracer(),
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
        // Event counters mirror the report's accounting.
        assert_eq!(r.counter("churn.join.ok"), traced.events.joins);
        assert_eq!(r.counter("churn.join.abort"), traced.events.join_aborts);
        assert_eq!(r.counter("churn.leave"), traced.events.leaves);
        assert_eq!(r.counter("churn.fail"), traced.events.fails);
        assert_eq!(r.counter("churn.join.retry"), traced.events.join_retries);
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
        assert_eq!(r.gauge("churn.population.end"), Some(traced.population_end as i64));
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
