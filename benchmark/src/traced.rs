//! The traced run: every layer timed from outside, span by span.
//!
//! Three sections, all single-threaded while they trace:
//!
//! 1. **Set-up probes** — the public constructors `Experiment::build_with`
//!    chains, called one by one on the built world's own inputs.
//! 2. **Staged look-ups** — the look-up path re-composed from the public
//!    layer calls and executed *stage by stage per 256-request chunk*
//!    over the workload's request stream, interleaved rep for rep with
//!    the untraced engine so both see the same machine state.
//! 3. **Staged maintenance** — the serving maintainer's round
//!    re-composed per epoch over the workload's churn schedule.
//!
//! A trace of different work is not a trace: the staged look-ups must
//! fold to exactly the engine's `Metrics` (and owner digest, and cache
//! counters), and the staged rounds must publish exactly the digest
//! chain of a `rebin_every = 0` `run_deterministic` pass, or the run
//! fails.
//!
//! Stages the workload's own engine path does not execute (a cache
//! probe on an uncached workload, the Chord baseline beside a serving
//! run, pin and telemetry-shard calls beside a quiesced replay) still
//! run, as *probes*: same calls, same chunk, recorded under a sibling
//! `lookup.probe` span so they never count towards the staged total.

use crate::report::Report;
use crate::spans::Tracer;
use crate::spec::{
    Driver, Spec, DELTA_MAX_RING_FRACTION, EVENTS_PER_EPOCH, LOOKUPS_PER_EPOCH, REBIN_EVERY,
    REBIN_NOISE,
};
use hieras_chord::{ChordOracle, PathBuf, RingView};
use hieras_churn::MembershipReplay;
use hieras_core::{HierasDelta, HierasOracle, RingArenaPool};
use hieras_id::{Id, IdSpace};
use hieras_obs::TelemetryShard;
use hieras_rt::{splitmix64, Executor};
use hieras_serve::{
    epoch_pair, CacheConfig, LookupCache, Reader, ServeConfig, ServeEngine, ServeSnapshot,
};
use hieras_sim::{Experiment, Metrics, OracleBackend, Sample};
use hieras_topology::{LatencyOracle, TransitStubConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Staged/untraced rep pairs: at least, and at most (bounds the trace).
const MIN_LOOKUP_REPS: usize = 3;
const MAX_LOOKUP_REPS: usize = 48;
/// Sim window every probe look-up lands in (quiesced time never moves).
const WINDOW: u64 = 0;

pub fn run(spec: &Spec, peers: usize, seed: u64, seconds: f64, rep: &mut Report, tr: &mut Tracer) {
    let exp = crate::world::build(spec, peers, seed);
    setup_probes(spec, &exp, seed, tr);
    let counts = lookups(spec, &exp, seed, seconds / 3.0, rep, tr);
    let maint = maintenance(&exp, spec.serve(peers, seed), rep, tr);

    let by = tr.by_name();
    let cost = |name: &str| by.get(name).copied().unwrap_or_default();
    // (metric, span, factor): span self time per unit of work, scaled
    // from ns to the metric's unit.
    const NS: f64 = 1.0;
    const US: f64 = 1e-3;
    const MS: f64 = 1e-6;
    for (metric, span, scale) in [
        ("sim.draw_ns", "sim.draw", NS),
        ("sim.record_ns", "sim.record", NS),
        ("chord.lookup_ns", "chord.lookup", NS),
        ("core.route_ns", "core.route", NS),
        ("core.eval_ns", "core.eval", NS),
        ("topology.latency_ns_per_query", "topology.latency", NS),
        ("rt.par_fold_ns_per_chunk", "rt.par_fold", NS),
        ("serve.pin_ns", "serve.pin", NS),
        ("serve.verify_us", "serve.verify", US),
        ("serve.cache_get_ns", "serve.cache_get", NS),
        ("serve.cache_insert_ns", "serve.cache_insert", NS),
        ("obs.shard_lookup_ns", "obs.shard", NS),
        ("obs.shard_merge_us", "obs.shard_merge", US),
        ("obs.report_build_ms", "obs.report_build", MS),
        ("churn.schedule_build_ms", "churn.schedule_build", MS),
        ("churn.apply_batch_us", "churn.apply", US),
        ("churn.live_members_us", "churn.live_members", US),
        ("core.rebin_us_per_round", "core.rebin", US),
        ("core.delta_touch_us", "core.delta_touch", US),
        ("core.apply_delta_us", "core.delta", US),
        ("core.full_build_us", "core.full_build", US),
        ("core.oracle_clone_us", "core.oracle_clone", US),
        ("core.digest_us", "core.digest", US),
        ("chord.ring_build_us", "chord.ring_build", US),
        ("chord.ring_delta_us", "chord.ring_delta", US),
        ("serve.snapshot_new_us", "serve.snapshot_new", US),
        ("serve.publish_us", "serve.publish", US),
        ("serve.reclaim_us", "serve.reclaim", US),
        ("topology.generate_ms", "topology.generate", MS),
        ("topology.oracle_build_ms", "topology.oracle_build", MS),
        ("id.sha1_ns_per_id", "id.sha1", NS),
        ("core.landmark_order_ms", "core.landmark_order", MS),
        ("chord.build_ms", "chord.build", MS),
        ("core.build_ms", "core.build", MS),
    ] {
        rep.set(metric, cost(span).ns_per_unit() * scale);
    }
    let share = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    rep.set(
        "core.lower_latency_share",
        share(counts.lower_latency_ms, counts.latency_ms),
    );
    rep.set(
        "topology.latency_queries_per_lookup",
        share(cost("topology.latency").units, counts.native_lookups),
    );
    rep.set(
        "topology.memo_hit_share",
        share(counts.memo_hits, counts.memo_hits + counts.memo_misses),
    );
    rep.set(
        "topology.label_avg_len",
        exp.lat.label_stats().map_or(0.0, |(l, _)| l.avg_len),
    );
    rep.set(
        "serve.cache_hit_share",
        share(counts.cache_hits, counts.cache_hits + counts.cache_misses),
    );
    rep.set(
        "core.delta_share",
        share(maint.engine_deltas, maint.engine_rebuilds),
    );
    rep.set(
        "chord.pool_reuse_share",
        share(maint.pool_reused, maint.pool_retired),
    );
    rep.set("serve.reclaim_lag_peak", maint.lag_peak as f64);
    rep.set("topology.oracle_bytes", exp.lat.cache_bytes() as f64);
    rep.set("core.arena_bytes", exp.hieras.arena_stats().bytes as f64);

    // Staged total vs the untraced engine, over interleaved reps.
    let staged_ns = tr.total_ns("lookup.chunk") as f64;
    rep.set(
        "bench.trace_overhead_pct",
        100.0 * (staged_ns / counts.untraced_ns as f64 - 1.0),
    );
    let native = counts.native_lookups as f64;
    let stack: f64 = [
        "sim.draw",
        "chord.lookup",
        "core.route",
        "serve.cache",
        "topology.latency",
        "sim.record",
    ]
    .iter()
    .map(|s| native_self_ns(tr, s) as f64)
    .sum();
    rep.info("untraced_ns_per_lookup", counts.untraced_ns as f64 / native);
    rep.info("staged_ns_per_lookup", staged_ns / native);
    rep.info("lookup_stack_self_ns_per_lookup", stack / native);
    rep.info(
        "lookup_stack_over_untraced",
        stack / counts.untraced_ns as f64,
    );
    rep.info("lookup_reps", counts.reps);
    rep.info("maintenance_epochs", maint.deltas + maint.fulls);
    rep.info("spans", tr.spans().len());
    rep.info(
        "span_self_ms",
        hieras_rt::Json::obj(
            by.iter()
                .map(|(n, c)| (*n, hieras_rt::Json::F64(c.self_ns as f64 / 1e6))),
        ),
    );
}

/// Self time of the spans called `name` that sit directly under a
/// `lookup.chunk` span (the native stages; probes sit elsewhere).
fn native_self_ns(tr: &Tracer, name: &str) -> u64 {
    let spans = tr.spans();
    let selfs = tr.self_times();
    spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| {
            s.name == name && s.parent != 0 && spans[(s.parent - 1) as usize].name == "lookup.chunk"
        })
        .map(|(_, &ns)| ns)
        .sum()
}

/// Section 1: what `Experiment::build_with` costs, constructor by
/// constructor, on the built experiment's own inputs.
fn setup_probes(spec: &Spec, exp: &Experiment, seed: u64, tr: &mut Tracer) {
    let exec = spec.executor();
    let n = exp.ids.len();
    let root = tr.open("setup.probe", 0);
    let topo = tr.leaf("topology.generate", 0, || {
        (TransitStubConfig::for_peers(n, seed).generate_on(&exec), 1)
    });
    black_box(tr.leaf("topology.oracle_build", 0, || {
        let lat = match spec.backend {
            OracleBackend::Labels => LatencyOracle::with_labels_on(&exec, topo.graph.clone()),
            _ => {
                let lat = LatencyOracle::new(topo.graph.clone());
                let mut distinct = exp.router_of.clone();
                distinct.sort_unstable();
                distinct.dedup();
                lat.precompute_on(&exec, &distinct);
                lat
            }
        };
        (lat, 1)
    }));
    drop(topo);
    tr.leaf("id.sha1", 0, || {
        for i in 0..n {
            black_box(Id::hash_of(format!("node-{seed}-{i}-0").as_bytes()));
        }
        ((), n as u64)
    });
    tr.leaf("core.landmark_order", 0, || {
        let binning = &exp.config.hieras.binning;
        let mut rtts = Vec::with_capacity(exp.landmarks.len());
        for &r in &exp.router_of {
            rtts.clear();
            rtts.extend(exp.landmarks.iter().map(|&lm| exp.lat.latency(lm, r)));
            black_box(binning.order(&rtts));
        }
        ((), 1)
    });
    black_box(tr.leaf("chord.build", 0, || {
        (
            ChordOracle::build_on(&exec, IdSpace::full(), Arc::clone(&exp.ids))
                .expect("ids are distinct"),
            1,
        )
    }));
    black_box(tr.leaf("core.build", 0, || {
        let h = HierasOracle::build_on(
            &exec,
            IdSpace::full(),
            Arc::clone(&exp.ids),
            exp.orders.clone(),
            exp.config.hieras.clone(),
        );
        (h.expect("the experiment's own orders and config"), 1)
    }));
    tr.close(root, 1);
}

/// Exact counts the staged look-ups produce beside their spans.
#[derive(Default)]
struct LookupCounts {
    reps: usize,
    /// Requests that went through the native (identity-checked) stages.
    native_lookups: u64,
    untraced_ns: u64,
    latency_ms: u64,
    lower_latency_ms: u64,
    memo_hits: u64,
    memo_misses: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// What one rep of the untraced engine answered.
#[derive(PartialEq, Debug)]
struct Answers {
    chord: Option<Metrics>,
    hieras: Metrics,
    /// Owner digest and cache hits/misses (serving engine only).
    serve: Option<(u64, u64, u64)>,
}

/// Per-chunk buffers the stages hand each other; reused across chunks.
#[derive(Default)]
struct Chunk {
    srcs: Vec<u32>,
    keys: Vec<Id>,
    /// Chord hop pairs of the whole chunk, `chord_end[r]` = end of
    /// request `r`'s run.
    chord_hops: Vec<(u32, u32)>,
    chord_end: Vec<usize>,
    hops: Vec<(u32, u32, u8)>,
    hop_end: Vec<usize>,
    dests: Vec<u32>,
    hit: Vec<bool>,
    chord_ms: Vec<u16>,
    hop_ms: Vec<u16>,
    direct_ms: Vec<u16>,
    latency_ms: Vec<u64>,
}

impl Chunk {
    fn clear(&mut self) {
        let Chunk {
            srcs,
            keys,
            chord_hops,
            chord_end,
            hops,
            hop_end,
            dests,
            hit,
            chord_ms,
            hop_ms,
            direct_ms,
            latency_ms,
        } = self;
        srcs.clear();
        keys.clear();
        chord_hops.clear();
        chord_end.clear();
        hops.clear();
        hop_end.clear();
        dests.clear();
        hit.clear();
        chord_ms.clear();
        hop_ms.clear();
        direct_ms.clear();
        latency_ms.clear();
    }
}

/// Runs the chunk-fresh cache over the chunk in request order, exactly
/// as `ServeEngine::eval_cached` would: probe, and on a miss offer the
/// routed owner. Returns (hits, misses).
fn cache_pass(cfg: CacheConfig, snap: &ServeSnapshot, c: &mut Chunk) -> (u64, u64) {
    let mut cache = LookupCache::new(cfg);
    cache.bind(snap.checksum);
    c.hit.clear();
    for (&key, &dest) in c.keys.iter().zip(&c.dests) {
        let hit = cache.get(key.0).is_some();
        if !hit {
            cache.insert(key.0, dest, snap.owner_ring(dest));
        }
        c.hit.push(hit);
    }
    (cache.stats.hits, cache.stats.misses)
}

/// Section 2. Returns the exact counts; spans land in `tr`.
fn lookups(
    spec: &Spec,
    exp: &Experiment,
    seed: u64,
    budget_s: f64,
    rep: &mut Report,
    tr: &mut Tracer,
) -> LookupCounts {
    let exec = Executor::new(1);
    let n = exp.ids.len();
    let w = spec.workload(n, seed);
    let cfg = spec.serve(n, seed);
    let replaying = spec.driver == Driver::Replay;
    let engine = ServeEngine::new(exp, cfg);

    // The epoch-0 snapshot of the full membership, behind a reader —
    // what a serving reader pins; static replays route on the
    // experiment's own hierarchy, as their engine does.
    let all: Vec<u32> = (0..n as u32).collect();
    let oracle = exp
        .subset_hieras_on(&exec, &all, None, None)
        .expect("the full membership is valid");
    let (_pb, handle) = epoch_pair(ServeSnapshot::new(0, oracle, all.into()));
    let mut reader: Reader<ServeSnapshot> = handle.reader();

    let untraced = || -> (Answers, u64) {
        if replaying {
            let t = Instant::now();
            let r = black_box(exp.run_workload_on(&exec, black_box(&w)));
            let ns = t.elapsed().as_nanos() as u64;
            (
                Answers {
                    chord: Some(r.chord),
                    hieras: r.hieras,
                    serve: None,
                },
                ns,
            )
        } else {
            let r = engine.run_quiesced_workload(&exec, &w);
            let serve = Some((r.owner_digest, r.cache.hits, r.cache.misses));
            (
                Answers {
                    chord: None,
                    hieras: r.metrics,
                    serve,
                },
                r.wall_ns,
            )
        }
    };

    let mut counts = LookupCounts::default();
    let mut c = Chunk::default();
    let mut scratch = PathBuf::new();
    let mut side_cache = LookupCache::new(CacheConfig::on());
    let mut series = TelemetryShard::new(cfg.telemetry.slow_k);
    let t0 = Instant::now();
    while counts.reps < MIN_LOOKUP_REPS
        || (t0.elapsed().as_secs_f64() < budget_s && counts.reps < MAX_LOOKUP_REPS)
    {
        let (want, ns) = untraced();
        counts.untraced_ns += ns;

        let rep_id = counts.reps as u64;
        let (mut chord_total, mut hieras_total) = (Metrics::default(), Metrics::default());
        let mut digest = 0u64;
        let (mut hits, mut misses) = (0u64, 0u64);
        for (ci, lo) in (0..w.requests).step_by(LOOKUPS_PER_EPOCH).enumerate() {
            let hi = (lo + LOOKUPS_PER_EPOCH).min(w.requests);
            let len = (hi - lo) as u64;
            let group = (rep_id << 32) | ci as u64;
            c.clear();
            let snap = &reader.snapshot().value;
            let hieras: &HierasOracle = if replaying { &exp.hieras } else { &snap.oracle };

            let chunk_id = tr.open("lookup.chunk", group);
            tr.leaf("sim.draw", group, || {
                for i in lo..hi {
                    let (src, key) = w.request(i);
                    c.srcs.push(src);
                    c.keys.push(key);
                }
                ((), len)
            });
            if replaying {
                chord_stage(tr, group, exp, &mut scratch, &mut c);
            }
            tr.leaf("core.route", group, || {
                for (&src, &key) in c.srcs.iter().zip(&c.keys) {
                    let hops = &mut c.hops;
                    let dest = hieras.route_with(src, key, &mut scratch, |from, to, layer| {
                        hops.push((from, to, layer))
                    });
                    c.dests.push(dest);
                    c.hop_end.push(c.hops.len());
                }
                ((), len)
            });
            if spec.cache {
                let (h, m) = tr.leaf("serve.cache", group, || {
                    (cache_pass(cfg.cache, snap, &mut c), len)
                });
                hits += h;
                misses += m;
            } else {
                c.hit.resize(c.srcs.len(), false);
            }
            let memo0 = exp.lat.memo_stats();
            tr.leaf("topology.latency", group, || {
                let mut queries = 0u64;
                for &(a, b) in &c.chord_hops {
                    c.chord_ms.push(exp.peer_latency(a, b));
                }
                queries += c.chord_hops.len() as u64;
                let mut from = 0usize;
                for r in 0..c.srcs.len() {
                    let to = c.hop_end[r];
                    if c.hit[r] {
                        // A hit costs the one direct hop to the cached owner.
                        let (src, owner) = (c.srcs[r], c.dests[r]);
                        c.direct_ms.push(if src == owner {
                            0
                        } else {
                            exp.peer_latency(src, owner)
                        });
                        queries += u64::from(src != owner);
                    } else {
                        for &(a, b, _) in &c.hops[from..to] {
                            c.hop_ms.push(exp.peer_latency(a, b));
                        }
                        queries += (to - from) as u64;
                        c.direct_ms.push(0);
                    }
                    from = to;
                }
                ((), queries)
            });
            if let (Some((h0, m0)), Some((h1, m1))) = (memo0, exp.lat.memo_stats()) {
                counts.memo_hits += h1 - h0;
                counts.memo_misses += m1 - m0;
            }
            let (cm, hm, chunk_digest) = tr.leaf("sim.record", group, || {
                let (mut cm, mut hm) = (Metrics::default(), Metrics::default());
                let mut chunk_digest = 0u64;
                let (mut cfrom, mut hfrom, mut ms_at) = (0usize, 0usize, 0usize);
                for r in 0..c.srcs.len() {
                    if replaying {
                        let cto = c.chord_end[r];
                        let latency_ms = c.chord_ms[cfrom..cto].iter().map(|&l| u32::from(l)).sum();
                        cm.record(Sample {
                            hops: (cto - cfrom) as u32,
                            lower_hops: 0,
                            latency_ms,
                            lower_latency_ms: 0,
                        });
                        cfrom = cto;
                    }
                    let hto = c.hop_end[r];
                    let s = if c.hit[r] {
                        let hops = u32::from(c.srcs[r] != c.dests[r]);
                        Sample {
                            hops,
                            lower_hops: 0,
                            latency_ms: u32::from(c.direct_ms[r]),
                            lower_latency_ms: 0,
                        }
                    } else {
                        let mut s = Sample {
                            hops: (hto - hfrom) as u32,
                            lower_hops: 0,
                            latency_ms: 0,
                            lower_latency_ms: 0,
                        };
                        for &(_, _, layer) in &c.hops[hfrom..hto] {
                            let l = u32::from(c.hop_ms[ms_at]);
                            ms_at += 1;
                            s.latency_ms += l;
                            if layer > 1 {
                                s.lower_hops += 1;
                                s.lower_latency_ms += l;
                            }
                        }
                        s
                    };
                    hfrom = hto;
                    c.latency_ms.push(u64::from(s.latency_ms));
                    hm.record(s);
                    chunk_digest = splitmix64(chunk_digest ^ (u64::from(c.dests[r]) + 1));
                }
                ((cm, hm, chunk_digest), len)
            });
            // The engine's chunk-ordered merge.
            tr.leaf("sim.record", group, || {
                chord_total = std::mem::take(&mut chord_total).merged(cm);
                hieras_total = std::mem::take(&mut hieras_total).merged(hm);
                digest = splitmix64(digest ^ chunk_digest);
                ((), 0)
            });
            tr.close(chunk_id, len);

            // Probes: the layers this workload's engine path bypasses.
            let probe_id = tr.open("lookup.probe", group);
            tr.leaf("serve.pin", group, || {
                for _ in lo..hi {
                    black_box(reader.refresh());
                    black_box(reader.snapshot().epoch);
                }
                ((), len)
            });
            let snap = &reader.snapshot().value;
            if !replaying {
                chord_stage(tr, group, exp, &mut scratch, &mut c);
            }
            if !spec.cache {
                let (h, m) = tr.leaf("serve.cache", group, || {
                    (cache_pass(CacheConfig::on(), snap, &mut c), len)
                });
                hits += h;
                misses += m;
            }
            // A reader's persistent cache, costed call by call.
            side_cache.bind(snap.checksum);
            tr.leaf("serve.cache_insert", group, || {
                for (&key, &dest) in c.keys.iter().zip(&c.dests) {
                    side_cache.insert(key.0, dest, snap.owner_ring(dest));
                }
                ((), len)
            });
            tr.leaf("serve.cache_get", group, || {
                for &key in &c.keys {
                    black_box(side_cache.get(key.0));
                }
                ((), len)
            });
            let shard = tr.leaf("obs.shard", group, || {
                let mut shard = TelemetryShard::new(cfg.telemetry.slow_k);
                for &ms in &c.latency_ms {
                    shard.lookup(WINDOW, ms);
                }
                (shard, len)
            });
            tr.leaf("obs.shard_merge", group, || {
                series = std::mem::replace(&mut series, TelemetryShard::new(0)).merged(shard);
                ((), 1)
            });
            tr.close(probe_id, len);
        }

        let got = Answers {
            chord: replaying.then_some(chord_total),
            hieras: hieras_total,
            serve: (!replaying).then_some(if spec.cache {
                (digest, hits, misses)
            } else {
                (digest, 0, 0)
            }),
        };
        counts.latency_ms += got.hieras.total_latency_ms;
        counts.lower_latency_ms += got.hieras.lower_latency_ms;
        counts.cache_hits += hits;
        counts.cache_misses += misses;
        counts.native_lookups += w.requests as u64;
        counts.reps += 1;
        rep.attempted(w.requests as u64);
        rep.check(
            got == want,
            w.requests as u64,
            "the staged look-up pipeline did not reproduce the engine's answers",
        );
    }

    // One-off probes on the same request stream.
    let root = tr.open("lookup.probe", u64::MAX);
    tr.leaf("core.eval", u64::MAX, || {
        for (src, key) in w.iter() {
            black_box(exp.hieras.eval(src, key, &mut scratch, |_, _| 0));
        }
        ((), w.requests as u64)
    });
    let par = spec.executor();
    let chunks = w.requests.div_ceil(LOOKUPS_PER_EPOCH) as u64;
    for _ in 0..32 {
        tr.leaf("rt.par_fold", u64::MAX, || {
            let sum = par.par_fold(
                w.requests,
                LOOKUPS_PER_EPOCH,
                || 0u64,
                |acc, i| *acc += black_box(i as u64),
                |a, b| a + b,
            );
            (black_box(sum), chunks)
        });
    }
    black_box(tr.leaf("obs.report_build", u64::MAX, || {
        (series.into_report("sim", 1_000, None), 1)
    }));
    tr.close(root, 1);
    counts
}

fn chord_stage(
    tr: &mut Tracer,
    group: u64,
    exp: &Experiment,
    scratch: &mut PathBuf,
    c: &mut Chunk,
) {
    let len = c.srcs.len() as u64;
    tr.leaf("chord.lookup", group, || {
        for (&src, &key) in c.srcs.iter().zip(&c.keys) {
            exp.chord.lookup_into(src, key, scratch);
            c.chord_hops
                .extend(scratch.as_slice().windows(2).map(|p| (p[0], p[1])));
            c.chord_end.push(c.chord_hops.len());
        }
        ((), len)
    });
}

#[derive(Default)]
struct MaintCounts {
    deltas: u64,
    fulls: u64,
    /// Delta epochs over published epochs of the engine itself, with
    /// re-binning live.
    engine_deltas: u64,
    engine_rebuilds: u64,
    pool_reused: u64,
    pool_retired: u64,
    lag_peak: usize,
}

/// Section 3: the maintainer's round, public call by public call, over
/// the workload's churn schedule, with one reader adopting every epoch.
///
/// Re-binning is *measured* on its cadence (landmark RTTs and a noisy
/// order for every live peer) but its orders are discarded, so the
/// digest chain has an engine reference that needs none of the
/// engine's private noise derivation: `run_deterministic` with
/// `rebin_every = 0`.
fn maintenance(
    exp: &Experiment,
    cfg: ServeConfig,
    rep: &mut Report,
    tr: &mut Tracer,
) -> MaintCounts {
    let exec = Executor::new(1);
    let schedule = tr.leaf("churn.schedule_build", 0, || (cfg.churn.schedule(), 1));
    let mut replay = MembershipReplay::new(cfg.churn.initial_nodes, schedule);
    let orders = &exp.orders;
    let members = replay.live_members();
    let mut cur = exp
        .subset_hieras_on(&exec, &members, Some(orders), None)
        .expect("the initial membership is valid");
    let (mut pb, handle) = epoch_pair(ServeSnapshot::new(0, cur.clone(), members.into()));
    let mut reader = handle.reader();
    let mut pool = RingArenaPool::new(64);
    let (mut joined, mut departed) = (Vec::new(), Vec::new());
    let mut counts = MaintCounts::default();
    let mut digest = 0u64;
    let mut torn = 0u64;
    let mut round = 0u64;
    while !replay.is_done() {
        round += 1;
        let epoch_id = tr.open("maint.epoch", round);
        let delta = tr.leaf("churn.apply", round, || {
            (
                replay.apply_next_recording(EVENTS_PER_EPOCH, &mut joined, &mut departed),
                1,
            )
        });
        if round.is_multiple_of(REBIN_EVERY) {
            tr.leaf("core.rebin", round, || {
                (black_box(rebin_probe(exp, &replay, cfg.seed, round)), 1)
            });
            // With the re-binned orders discarded no batch is ever wide
            // enough to fall back, so the fallback's cost is probed on
            // the same cadence: a from-scratch build over the live set.
            let live = replay.live_members();
            let _ = black_box(tr.leaf("core.full_build", round, || {
                (exp.subset_hieras_on(&exec, &live, Some(orders), None), 1)
            }));
        }
        if delta.changed() {
            let members = tr.leaf("churn.live_members", round, || (replay.live_members(), 1));
            let hdelta = HierasDelta {
                joined: &joined,
                departed: &departed,
                rebinned: &[],
            };
            // Ring-level probes: what the global ring alone costs to
            // splice or rebuild for this batch.
            let _ = black_box(tr.leaf("chord.ring_delta", round, || {
                (cur.global_ring().apply_delta(&departed, &joined), 1)
            }));
            let _ = black_box(tr.leaf("chord.ring_build", round, || {
                (
                    RingView::build_on(&exec, exp.hieras.space(), Arc::clone(&exp.ids), &members),
                    1,
                )
            }));
            let touched = tr.leaf("core.delta_touch", round, || {
                (cur.delta_touch_stats(&hdelta, orders).fraction(), 1)
            });
            let next = if touched <= DELTA_MAX_RING_FRACTION {
                counts.deltas += 1;
                tr.leaf("core.delta", round, || {
                    (
                        cur.apply_delta_on(&exec, &hdelta, orders, &mut pool)
                            .expect("a recorded churn delta is valid"),
                        1,
                    )
                })
            } else {
                counts.fulls += 1;
                tr.leaf("core.full_build", round, || {
                    (
                        exp.subset_hieras_on(&exec, &members, Some(orders), None)
                            .expect("the live membership is valid"),
                        1,
                    )
                })
            };
            let sealed = tr.leaf("core.oracle_clone", round, || (next.clone(), 1));
            let epoch = pb.published_epoch() + 1;
            let snap = tr.leaf("serve.snapshot_new", round, || {
                (ServeSnapshot::new(epoch, sealed, members.into()), 1)
            });
            tr.leaf("serve.publish", round, || (pb.publish(snap), 1));
            cur = next;
            digest = tr.leaf("core.digest", round, || {
                (splitmix64(digest ^ cur.hierarchy_digest()), 1)
            });
        }
        tr.leaf("serve.reclaim", round, || {
            (
                pb.reclaim_with(|snap| snap.oracle.recycle_into(&mut pool)),
                1,
            )
        });
        let adopted = tr.leaf("serve.pin", round, || {
            let adopted = reader.refresh();
            black_box(reader.snapshot().epoch);
            (adopted, 1)
        });
        if let Some(e) = adopted {
            let ok = tr.leaf("serve.verify", round, || {
                (reader.snapshot().value.verify(e), 1)
            });
            torn += u64::from(!ok);
        }
        tr.close(epoch_id, 1);
    }
    drop(reader);
    pb.reclaim_with(|snap| snap.oracle.recycle_into(&mut pool));

    let reference = ServeEngine::new(
        exp,
        ServeConfig {
            rebin_every: 0,
            lookups_per_epoch: 1,
            ..cfg
        },
    )
    .run_deterministic(&exec);
    let same = reference.maint.snapshot_digest == digest
        && reference.maint.delta_rebuilds == counts.deltas
        && reference.maint.full_rebuilds == counts.fulls;
    rep.attempted(round);
    rep.check(
        same,
        round,
        "the staged maintenance rounds did not publish the engine's digest chain",
    );
    rep.check(
        torn == 0,
        torn,
        "the reader adopted a snapshot that failed verification",
    );

    // How often the real maintainer, re-binning on its cadence, gets to
    // take the delta path on this schedule.
    let real = ServeEngine::new(
        exp,
        ServeConfig {
            lookups_per_epoch: 1,
            ..cfg
        },
    )
    .run_deterministic(&exec);
    counts.engine_deltas = real.maint.delta_rebuilds;
    counts.engine_rebuilds = real.maint.rebuilds;

    let ps = pool.stats();
    counts.pool_reused = ps.reused;
    counts.pool_retired = ps.returned + ps.dropped;
    counts.lag_peak = pb.stats().lag_peak;
    counts
}

/// The maintainer's re-bin measurement for every live peer, under the
/// benchmark's own noise; returns how many orders would have moved.
fn rebin_probe(exp: &Experiment, replay: &MembershipReplay, seed: u64, round: u64) -> u64 {
    let binning = &exp.config.hieras.binning;
    let mut rtts: Vec<u16> = Vec::with_capacity(exp.landmarks.len());
    let mut noise: Vec<f64> = Vec::with_capacity(exp.landmarks.len());
    let mut moved = 0u64;
    for p in replay.live_members() {
        rtts.clear();
        noise.clear();
        let router = exp.router_of[p as usize];
        for (j, &lm) in exp.landmarks.iter().enumerate() {
            rtts.push(exp.lat.latency(lm, router));
            let raw = splitmix64(seed ^ (round << 40) ^ (u64::from(p) << 8) ^ j as u64);
            let unit = (raw >> 11) as f64 / (1u64 << 53) as f64;
            noise.push(1.0 + REBIN_NOISE * (2.0 * unit - 1.0));
        }
        moved += u64::from(binning.order_with_noise(&rtts, &noise) != exp.orders[p as usize]);
    }
    moved
}
