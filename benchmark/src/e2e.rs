//! The untraced run: set-up, the timed closed-loop section, the output
//! checks. It alone feeds the end-to-end metrics.
//!
//! All load is closed-loop — the engine is an in-process library with no
//! arrival queue — so the rate is work completed per second at the
//! workload's stated size, from one process with at most `nproc`
//! threads.

use crate::estimate::{median, nearest_rank, steady_duration, steady_rate};
use crate::report::Report;
use crate::spec::{Driver, Spec};
use crate::world::{self, Owners};
use hieras_chord::PathBuf;
use hieras_rt::Executor;
use hieras_serve::{CacheConfig, ServeConfig, ServeEngine};
use hieras_sim::{ComparisonResult, Experiment, Metrics, Workload};
use std::hint::black_box;
use std::time::Instant;

/// Floor on fixed-work reps of a replay section (each 10–20 ms), so
/// that the fastest tenth is ten reps whatever the clock says.
const MIN_REPLAY_REPS: usize = 100;

/// One run is `spec.segments` segments, each a fresh set-up followed by
/// its slice of the timed section. The host's slow spells last seconds
/// (README.md, "host-noise findings"): set-ups bunched at the start of a
/// run all land in one spell, set-ups spread over the run do not.
/// Every segment's world is built from the same seed, so every segment
/// must reproduce the first one's answers; each world is dropped before
/// the next is built, so peak RSS is one world's.
pub fn run(spec: &Spec, peers: usize, seed: u64, seconds: f64, rep: &mut Report) {
    let segments = spec.segments;
    let slice = seconds / segments as f64;
    let cfg = spec.serve(peers, seed);
    let w = spec.workload(peers, seed);
    let mut setup_s = Vec::with_capacity(segments);
    let mut replay = Replay::default();
    let mut probe = MaintainerProbe::default();
    let mut live = Live::default();
    let mut exp = None;
    for _ in 0..segments {
        drop(exp.take());
        let t = Instant::now();
        let exp = exp.insert(world::build(spec, peers, seed));
        setup_s.push(t.elapsed().as_secs_f64());
        match spec.driver {
            Driver::Replay => {
                replay.segment(spec, exp, &w, slice);
                probe.pass(exp, cfg, rep);
            }
            Driver::Live => live.segment(exp, cfg, slice, rep),
        }
    }
    let exp = exp.expect("at least one segment");
    rep.set("setup_s", steady_duration(&setup_s));
    rep.info("setup_s_all", setup_s);
    match spec.driver {
        Driver::Replay => {
            replay.finish(&exp, &w, rep);
            probe.finish(cfg, rep);
        }
        Driver::Live => live.finish(spec, &exp, cfg, &w, rep),
    }
    rep.set("peak_rss_bytes", world::peak_rss_bytes() as f64);
}

fn model_metrics(m: &Metrics, rep: &mut Report) {
    let s = m.summary();
    rep.set("route_ms_p50", f64::from(s.latency_tail.p50_ms));
    rep.set("route_ms_p99", f64::from(s.latency_tail.p99_ms));
    rep.set("route_ms_p999", f64::from(s.latency_tail.p999_ms));
    rep.set("route_hops_mean", s.avg_hops);
}

fn rate_stats(key: &str, rates: &[f64], rep: &mut Report) {
    let mut sorted = rates.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    rep.info(&format!("{key}_reps"), rates.len());
    rep.info(&format!("{key}_rep_median"), median(rates));
    // Slow tail: the rate that 95 % of reps beat.
    rep.info(&format!("{key}_rep_p05"), nearest_rank(&sorted, 0.05));
    rep.info(&format!("{key}_rep_values"), rates.to_vec());
}

/// Static world: fixed-work reps of `run_workload_on` (Chord + HIERAS
/// per request), then one verification rep against brute force.
#[derive(Default)]
struct Replay {
    /// The first segment's warm-up rep: what every timed rep of every
    /// segment must reproduce.
    reference: Option<ComparisonResult>,
    rates: Vec<f64>,
    diverged: u64,
}

impl Replay {
    fn segment(&mut self, spec: &Spec, exp: &Experiment, w: &Workload, slice: f64) {
        let exec = spec.executor();
        // Warm-up rep on the fresh world.
        let warm = exp.run_workload_on(&exec, w);
        let reference = self.reference.get_or_insert(warm.clone());
        self.diverged += u64::from(warm != *reference);
        let floor = self.rates.len() + MIN_REPLAY_REPS.div_ceil(spec.segments);
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < slice || self.rates.len() < floor {
            let t = Instant::now();
            let r = black_box(exp.run_workload_on(&exec, black_box(w)));
            self.rates
                .push(w.requests as f64 / t.elapsed().as_secs_f64());
            self.diverged += u64::from(r != *reference);
        }
    }

    fn finish(self, exp: &Experiment, w: &Workload, rep: &mut Report) {
        let Replay {
            reference,
            rates,
            diverged,
        } = self;
        let reference = reference.expect("segments ran");
        rep.set("lookups_per_s", steady_rate(&rates).expect("reps ran"));
        rate_stats("lookups_per_s", &rates, rep);
        rep.attempted(rates.len() as u64 * w.requests as u64);
        rep.check(
            diverged == 0,
            diverged * w.requests as u64,
            "a replay rep diverged from the first segment's reference rep",
        );

        // Verification rep: every request's destination, both algorithms,
        // against the brute-force successor of its key over all ids.
        let owners = Owners::over(&exp.ids, 0..exp.ids.len() as u32);
        let mut scratch = PathBuf::new();
        let mut wrong = 0u64;
        for (src, key) in w.iter() {
            let truth = owners.owner_of(key);
            let hieras = exp.hieras.route_with(src, key, &mut scratch, |_, _, _| {});
            exp.chord.lookup_into(src, key, &mut scratch);
            let chord = scratch.last().expect("a path holds at least its source");
            wrong += u64::from(hieras != truth || chord != truth);
        }
        rep.attempted(w.requests as u64);
        rep.check(
            wrong == 0,
            wrong,
            "a destination differs from the brute-force successor of its key",
        );

        model_metrics(&reference.hieras, rep);
        let (c, h) = (reference.chord.summary(), reference.hieras.summary());
        rep.set(
            "hieras_chord_latency_ratio",
            h.avg_latency_ms / c.avg_latency_ms,
        );
    }
}

/// Publish cost of every epoch of a deterministic churn schedule, one
/// column per pass over it. Epoch `i` is the same work in every pass, so
/// its cost is the `steady_duration` of its passes and the percentiles
/// are taken over epochs.
#[derive(Default)]
struct EpochCosts {
    passes: Vec<Vec<u64>>,
}

impl EpochCosts {
    /// Adds a pass; false when it published another number of epochs
    /// than the first pass did.
    fn push(&mut self, samples: &[u64]) -> bool {
        let same = self.passes.first().is_none_or(|p| p.len() == samples.len());
        if same {
            self.passes.push(samples.to_vec());
        }
        same
    }

    fn epochs(&self) -> usize {
        self.passes.first().map_or(0, Vec::len)
    }

    /// Per-epoch costs, ascending.
    fn sorted(&self) -> Vec<f64> {
        let mut costs: Vec<f64> = (0..self.epochs())
            .map(|e| {
                let column: Vec<f64> = self.passes.iter().map(|p| p[e] as f64).collect();
                steady_duration(&column)
            })
            .collect();
        costs.sort_by(|a, b| a.partial_cmp(b).expect("costs are finite"));
        costs
    }
}

/// The maintainer metrics of a static workload: the real engine's
/// lock-step mode over a short churn schedule on the workload's world,
/// one look-up per epoch so the maintainer is all that runs; one pass
/// per segment.
#[derive(Default)]
struct MaintainerProbe {
    costs: EpochCosts,
    wall_s: Vec<f64>,
    digest: Option<u64>,
}

impl MaintainerProbe {
    fn pass(&mut self, exp: &Experiment, mut cfg: ServeConfig, rep: &mut Report) {
        cfg.lookups_per_epoch = 1;
        let r = ServeEngine::new(exp, cfg).run_deterministic(&Executor::new(1));
        self.wall_s.push(r.wall_ns as f64 / 1e9);
        let same = *self.digest.get_or_insert(r.maint.snapshot_digest) == r.maint.snapshot_digest
            && self.costs.push(&r.maint.publish_samples);
        rep.attempted(r.lookups);
        rep.check(
            same,
            r.lookups,
            "two passes of the same churn schedule published different state",
        );
    }

    fn finish(self, cfg: ServeConfig, rep: &mut Report) {
        let events = cfg.churn.schedule().len();
        let costs = self.costs.sorted();
        rep.set(
            "churn_events_per_s",
            events as f64 / steady_duration(&self.wall_s),
        );
        rep.set("publish_us_p50", nearest_rank(&costs, 0.50));
        rep.set("publish_us_p99", nearest_rank(&costs, 0.99));
        rep.info("maintainer_probe_events", events);
        rep.info("maintainer_probe_epochs", costs.len());
        rep.info("maintainer_probe_passes", self.wall_s.len());
        rep.info("maintainer_probe_wall_s", self.wall_s);
    }
}

/// Churning world: reps of `run_live`, each one full schedule, checked
/// against the deterministic pass and a full-rebuild pass.
#[derive(Default)]
struct Live {
    /// Snapshot digest of the first rep: what every rep's maintainer
    /// must publish, whatever the readers do (`finish` holds it against
    /// the deterministic pass).
    digest: Option<u64>,
    rates: Vec<f64>,
    wall_s: Vec<f64>,
    costs: EpochCosts,
    /// Per rep: route p50, p99, p999 (ms) and mean hops.
    tails: [Vec<f64>; 4],
    hit_shares: Vec<f64>,
}

impl Live {
    fn segment(&mut self, exp: &Experiment, cfg: ServeConfig, slice: f64, rep: &mut Report) {
        let engine = ServeEngine::new(exp, cfg);
        let t0 = Instant::now();
        let mut reps = 0;
        while t0.elapsed().as_secs_f64() < slice || reps == 0 {
            reps += 1;
            let r = engine.run_live();
            self.rates.push(r.lookups_per_sec());
            self.wall_s.push(r.wall_ns as f64 / 1e9);
            let s = r.metrics.summary();
            let t = s.latency_tail;
            for (v, x) in self.tails.iter_mut().zip([
                t.p50_ms.into(),
                t.p99_ms.into(),
                t.p999_ms.into(),
                s.avg_hops,
            ]) {
                v.push(x);
            }
            let (hits, misses) = (
                r.registry.counter(hieras_obs::names::SERVE_CACHE_HITS),
                r.registry.counter(hieras_obs::names::SERVE_CACHE_MISSES),
            );
            self.hit_shares.push(if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            });
            let same = *self.digest.get_or_insert(r.maint.snapshot_digest)
                == r.maint.snapshot_digest
                && self.costs.push(&r.maint.publish_samples);
            rep.attempted(r.lookups);
            rep.check(
                same,
                r.lookups,
                "two free-running reps of the same schedule published different state",
            );
        }
    }

    fn finish(
        self,
        spec: &Spec,
        exp: &Experiment,
        cfg: ServeConfig,
        w: &Workload,
        rep: &mut Report,
    ) {
        let exec = Executor::new(1);
        let events = cfg.churn.schedule().len();

        // What the maintainer must have published.
        let det = ServeEngine::new(exp, cfg).run_deterministic(&exec);
        let full = ServeEngine::new(
            exp,
            ServeConfig {
                delta_max_ring_fraction: 0.0,
                ..cfg
            },
        )
        .run_deterministic(&exec);
        rep.attempted(2 * det.lookups);
        rep.check(
            full.maint.snapshot_digest == det.maint.snapshot_digest && full.metrics == det.metrics,
            det.lookups,
            "delta rebuilds diverged from full rebuilds",
        );
        rep.check(
            self.digest == Some(det.maint.snapshot_digest),
            det.lookups,
            "the free-running reps published state the deterministic pass did not",
        );

        let event_rates: Vec<f64> = self.wall_s.iter().map(|s| events as f64 / s).collect();
        let costs = self.costs.sorted();
        rep.set("lookups_per_s", steady_rate(&self.rates).expect("reps ran"));
        // A rep's wall time is the maintainer's: its rare fast reps are
        // the ones a reader started late on, so it is costed like every
        // other repeated duration, not by its fastest tenth.
        rep.set(
            "churn_events_per_s",
            events as f64 / steady_duration(&self.wall_s),
        );
        rep.set("publish_us_p50", nearest_rank(&costs, 0.50));
        rep.set("publish_us_p99", nearest_rank(&costs, 0.99));
        rate_stats("lookups_per_s", &self.rates, rep);
        rate_stats("churn_events_per_s", &event_rates, rep);
        rep.info("epochs_per_rep", det.epochs.published);
        rep.info("delta_rebuilds_per_rep", det.maint.delta_rebuilds);
        rep.info("full_rebuilds_per_rep", det.maint.full_rebuilds);
        rep.info("turnover", det.turnover);
        rep.info("free_running_cache_hit_share", median(&self.hit_shares));

        // Only `run_live` keeps a persistent reader cache, so a cached
        // workload reports the free-running model values (median across
        // reps); an uncached one reports the deterministic pass's, exactly.
        if spec.cache {
            for (name, v) in [
                "route_ms_p50",
                "route_ms_p99",
                "route_ms_p999",
                "route_hops_mean",
            ]
            .into_iter()
            .zip(&self.tails)
            {
                rep.set(name, median(v));
            }
        } else {
            model_metrics(&det.metrics, rep);
        }

        // Quiesced replay of the workload's request stream, cache off and
        // on (verified: every hit re-routed inside the engine): same
        // answers, and the answers brute force gives.
        let quiesced = |cache: CacheConfig| {
            ServeEngine::new(exp, ServeConfig { cache, ..cfg }).run_quiesced_workload(&exec, w)
        };
        let (off, on) = (
            quiesced(CacheConfig::off()),
            quiesced(CacheConfig::on().verified()),
        );
        let owners = Owners::over(&exp.ids, 0..exp.ids.len() as u32);
        rep.attempted(2 * w.requests as u64);
        rep.check(
            on.owner_digest == off.owner_digest,
            on.cache.hits,
            "the cache changed a look-up's answer",
        );
        rep.check(
            owners.quiesced_digest(w) == off.owner_digest,
            w.requests as u64,
            "quiesced owners differ from the brute-force successors",
        );

        // The paper's claim on this world: static replay of a uniform
        // stream over the full peer table.
        let uniform = Workload::new(w.nodes, w.requests, w.seed);
        let cmp = exp.run_workload_on(&exec, &uniform);
        rep.set(
            "hieras_chord_latency_ratio",
            cmp.hieras.summary().avg_latency_ms / cmp.chord.summary().avg_latency_ms,
        );
    }
}
