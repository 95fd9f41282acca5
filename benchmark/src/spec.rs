//! The four workloads: what world each builds and why it exists.
//!
//! Sizes are fixed; `--seed` feeds `ExperimentConfig.seed`,
//! `ChurnConfig.seed`, `ServeConfig.seed` and `Workload.seed` (the last
//! two through the same xor constants the repo's own benches use).

use hieras_rt::Executor;
use hieras_serve::{CacheConfig, ServeConfig, TelemetryConfig};
use hieras_sim::{
    ChurnConfig, ExperimentConfig, Lifetime, OracleBackend, SkewParams, Workload, WorkloadModel,
};

/// Which engine entry point the timed section drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Reps of `Experiment::run_workload_on` over a static world.
    Replay,
    /// Reps of `ServeEngine::run_live`: one maintainer beside readers.
    Live,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub driver: Driver,
    pub peers: usize,
    pub smoke_peers: usize,
    pub backend: OracleBackend,
    /// Build and replay on every core (else one thread). Live workloads
    /// always run 1 maintainer + (`nproc` − 1) readers.
    pub all_cores: bool,
    /// Requests per replay rep, and the length of the request stream the
    /// checks and the traced look-up pipeline replay.
    pub requests: usize,
    /// Segments of an untraced run: each is one timed set-up followed by
    /// its share of the timed section.
    pub segments: usize,
    /// Peers of the world that join during the churn schedule.
    arrivals: fn(usize) -> u32,
    horizon_ms: fn(usize) -> u64,
    /// Sim-ms of schedule per wall-ms for the free-running maintainer
    /// (0 = flat out).
    pub pace: f64,
    pub skewed: bool,
    pub cache: bool,
    pub telemetry: bool,
}

pub const DEFAULT_SEED: u64 = 20_030_415;

/// Lookups the deterministic engine serves per epoch: one executor chunk.
pub const LOOKUPS_PER_EPOCH: usize = 256;
pub const EVENTS_PER_EPOCH: usize = 4;
pub const REBIN_EVERY: u64 = 8;
pub const REBIN_NOISE: f64 = 0.2;
pub const DELTA_MAX_RING_FRACTION: f64 = 0.6;

const SPECS: [Spec; 4] = [
    Spec {
        name: "replay_paper10k",
        why: "Paper's largest size, static rows world on 1 thread: chord/core routing and topology row look-ups do all the work; the bypass workload for every serving or maintenance change.",
        driver: Driver::Replay,
        peers: 10_000,
        smoke_peers: 500,
        backend: OracleBackend::Rows,
        all_cores: false,
        requests: 10_000,
        segments: 4,
        // A static world still reports the maintainer metrics, from a
        // short unraced churn probe: ~1 000 events whatever the size.
        arrivals: |_| 32,
        horizon_ms: |peers| 1_200_000_000 / peers as u64,
        pace: 0.0,
        skewed: false,
        cache: false,
        telemetry: false,
    },
    Spec {
        name: "scale_labels100k",
        why: "100 000 peers on the labels backend, nproc threads: topology::labels (build, query, memo) and the parallel rt::Executor dominate; set-up is most of the cost and memory the constraint.",
        driver: Driver::Replay,
        peers: 100_000,
        smoke_peers: 2_000,
        backend: OracleBackend::Labels,
        all_cores: true,
        requests: 2_000,
        segments: 4,
        // ~100 events: an epoch costs 10–50 ms at this size.
        arrivals: |_| 32,
        horizon_ms: |peers| 150_000_000 / peers as u64,
        pace: 0.0,
        skewed: false,
        cache: false,
        telemetry: false,
    },
    Spec {
        name: "serve_churn5k",
        why: "Writes beside reads: run_live unpaced, turnover 0.42, cache and telemetry off; the maintainer (re-bin, delta splice, seal, publish, reclaim) runs flat out while readers route under epoch flips.",
        driver: Driver::Live,
        peers: 5_000,
        smoke_peers: 500,
        backend: OracleBackend::Rows,
        all_cores: false,
        requests: 10_000,
        segments: 6,
        arrivals: |peers| peers as u32 / 10,
        horizon_ms: |_| 600_000,
        pace: 0.0,
        skewed: false,
        cache: false,
        telemetry: false,
    },
    Spec {
        name: "serve_hot5k",
        why: "serve the other way round: paced, nearly idle maintainer; Zipf(0.99) keys with the reader cache and telemetry on, so readers live on the cache-probe + telemetry-shard path.",
        driver: Driver::Live,
        peers: 5_000,
        smoke_peers: 500,
        backend: OracleBackend::Rows,
        all_cores: false,
        requests: 10_000,
        segments: 6,
        arrivals: |peers| peers as u32 / 100,
        horizon_ms: |_| 60_000,
        pace: 100.0,
        skewed: true,
        cache: true,
        telemetry: true,
    },
];

impl Spec {
    pub fn all() -> &'static [Spec] {
        &SPECS
    }

    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    pub fn peers(&self, smoke: bool) -> usize {
        if smoke {
            self.smoke_peers
        } else {
            self.peers
        }
    }

    /// Threads of the set-up and of a replay rep.
    pub fn threads(&self) -> usize {
        if self.all_cores {
            nproc()
        } else {
            1
        }
    }

    pub fn executor(&self) -> Executor {
        Executor::new(self.threads())
    }

    /// Reader threads of a free-running rep (the maintainer takes the
    /// remaining core).
    pub fn readers(&self) -> usize {
        (nproc() - 1).max(1)
    }

    pub fn experiment(&self, peers: usize, seed: u64) -> ExperimentConfig {
        let mut c = ExperimentConfig::paper(peers, seed);
        c.requests = self.requests;
        c
    }

    pub fn model(&self) -> WorkloadModel {
        if self.skewed {
            WorkloadModel::Skew(SkewParams::zipf(0.99))
        } else {
            WorkloadModel::Uniform
        }
    }

    /// The workload's request stream over the full peer table.
    pub fn workload(&self, peers: usize, seed: u64) -> Workload {
        Workload::with_model(
            peers as u32,
            self.requests,
            seed ^ 0x517c_c1b7,
            self.model(),
        )
    }

    pub fn churn(&self, peers: usize, seed: u64) -> ChurnConfig {
        let arrivals = (self.arrivals)(peers).min(peers as u32 - 1);
        ChurnConfig {
            initial_nodes: peers as u32 - arrivals,
            arrivals,
            inter_arrival: Lifetime::Fixed { ms: 1_197 },
            lifetime: Lifetime::Exponential { mean_ms: 1.2e6 },
            graceful_fraction: 0.5,
            horizon_ms: (self.horizon_ms)(peers),
            seed,
        }
    }

    pub fn serve(&self, peers: usize, seed: u64) -> ServeConfig {
        ServeConfig {
            churn: self.churn(peers, seed),
            readers: self.readers(),
            events_per_epoch: EVENTS_PER_EPOCH,
            lookups_per_epoch: LOOKUPS_PER_EPOCH,
            refresh_batch: 64,
            seed: seed ^ 0xb1e5_5e1f,
            rebin_every: REBIN_EVERY,
            rebin_noise: REBIN_NOISE,
            telemetry: if self.telemetry {
                TelemetryConfig::on()
            } else {
                TelemetryConfig::off()
            },
            delta_max_ring_fraction: DELTA_MAX_RING_FRACTION,
            batched: false,
            pace: self.pace,
            cache: if self.cache {
                CacheConfig::on()
            } else {
                CacheConfig::off()
            },
            workload: self.model(),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_universe_always_equals_the_peer_table() {
        for s in Spec::all() {
            for peers in [s.peers, s.smoke_peers] {
                let c = s.churn(peers, 1);
                assert_eq!((c.initial_nodes + c.arrivals) as usize, peers, "{}", s.name);
                assert!(c.initial_nodes > 0 && c.horizon_ms > 0);
            }
        }
    }

    #[test]
    fn the_issue_sizes_are_fixed() {
        let names: Vec<_> = Spec::all()
            .iter()
            .map(|s| (s.name, s.peers, s.smoke_peers))
            .collect();
        assert_eq!(
            names,
            [
                ("replay_paper10k", 10_000, 500),
                ("scale_labels100k", 100_000, 2_000),
                ("serve_churn5k", 5_000, 500),
                ("serve_hot5k", 5_000, 500),
            ]
        );
        let churn = Spec::by_name("serve_churn5k").unwrap().churn(5_000, 7);
        assert_eq!(
            (churn.initial_nodes, churn.arrivals, churn.horizon_ms),
            (4_500, 500, 600_000)
        );
        let hot = Spec::by_name("serve_hot5k").unwrap().churn(5_000, 7);
        assert_eq!(
            (hot.initial_nodes, hot.arrivals, hot.horizon_ms),
            (4_950, 50, 60_000)
        );
        assert!(Spec::by_name("nope").is_none());
    }
}
