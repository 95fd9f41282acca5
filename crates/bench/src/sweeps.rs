//! Parameter sweeps behind the paper's figures.

use hieras_churn::{run_churn_traced, ChurnExperimentConfig, ChurnObs, ChurnReport};
use hieras_core::{Binning, HierasConfig};
use hieras_rt::{Executor, Json, ToJson};
use hieras_sim::{ChurnConfig, Experiment, ExperimentConfig, Lifetime, Summary, TopologyKind};

/// One row of a network-size sweep (Figures 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeRow {
    /// Network model.
    pub kind: &'static str,
    /// Number of peers.
    pub nodes: usize,
    /// Chord baseline summary.
    pub chord: Summary,
    /// HIERAS summary.
    pub hieras: Summary,
}

/// Sweeps network size for one model, comparing Chord and HIERAS
/// (Figures 2 and 3; 4 landmarks, depth 2, as §4.2).
#[must_use]
pub fn size_sweep(
    kind: TopologyKind,
    sizes: &[usize],
    requests: usize,
    seed: u64,
) -> Vec<SizeRow> {
    sizes
        .iter()
        .map(|&nodes| {
            let cfg = ExperimentConfig {
                kind,
                nodes,
                requests,
                hieras: HierasConfig::paper(),
                seed: seed ^ (nodes as u64),
                rtt_noise: 0.0,
            };
            let e = Experiment::build(cfg);
            let r = e.run();
            SizeRow {
                kind: kind.label(),
                nodes,
                chord: r.chord.summary(),
                hieras: r.hieras.summary(),
            }
        })
        .collect()
}

/// One row of the landmark-count sweep (Figures 6 and 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LandmarkRow {
    /// Number of landmark nodes.
    pub landmarks: usize,
    /// Number of lower-layer rings the binning produced.
    pub rings: usize,
    /// Chord baseline summary (identical workload).
    pub chord: Summary,
    /// HIERAS summary.
    pub hieras: Summary,
}

/// Sweeps the number of landmarks on a fixed TS network (§4.4: 2–12
/// landmarks, 10 000 nodes, 100 000 requests).
#[must_use]
pub fn landmark_sweep(
    nodes: usize,
    requests: usize,
    landmarks: &[usize],
    seed: u64,
) -> Vec<LandmarkRow> {
    landmarks
        .iter()
        .map(|&lm| {
            let cfg = ExperimentConfig {
                kind: TopologyKind::TransitStub,
                nodes,
                requests,
                hieras: HierasConfig { depth: 2, landmarks: lm, binning: Binning::paper() },
                seed,
                rtt_noise: 0.0,
            };
            let e = Experiment::build(cfg);
            let rings = e.hieras.layers().last().expect("depth >= 1").ring_count();
            let r = e.run();
            LandmarkRow {
                landmarks: lm,
                rings,
                chord: r.chord.summary(),
                hieras: r.hieras.summary(),
            }
        })
        .collect()
}

/// One row of the hierarchy-depth sweep (Figures 8 and 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthRow {
    /// Number of peers.
    pub nodes: usize,
    /// Hierarchy depth.
    pub depth: usize,
    /// HIERAS summary (Chord is depth-independent; compare across rows).
    pub hieras: Summary,
    /// Chord baseline at this size, for reference.
    pub chord: Summary,
}

/// Sweeps hierarchy depth × network size (§4.5: depths 2–4, 5000–10000
/// nodes, 6 landmarks).
#[must_use]
pub fn depth_sweep(
    sizes: &[usize],
    depths: &[usize],
    requests: usize,
    seed: u64,
) -> Vec<DepthRow> {
    let mut rows = Vec::with_capacity(sizes.len() * depths.len());
    for &nodes in sizes {
        for &depth in depths {
            let cfg = ExperimentConfig {
                kind: TopologyKind::TransitStub,
                nodes,
                requests,
                hieras: HierasConfig { depth, landmarks: 6, binning: Binning::paper() },
                seed: seed ^ (nodes as u64),
                rtt_noise: 0.0,
            };
            let e = Experiment::build(cfg);
            let r = e.run();
            rows.push(DepthRow {
                nodes,
                depth,
                hieras: r.hieras.summary(),
                chord: r.chord.summary(),
            });
        }
    }
    rows
}

/// One row of the churn sweep: a scenario label plus the full
/// [`ChurnReport`] the engine produced for it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnRow {
    /// Scenario label: `graceful`, `mixed`, `silent`, or `domain`.
    pub scenario: &'static str,
    /// Fraction of departures executed as graceful leaves.
    pub graceful_fraction: f64,
    /// The engine's full report.
    pub report: ChurnReport,
}

/// The departure scenarios the churn sweep compares: three independent
/// mixes plus `domain` — the `mixed` schedule with a correlated
/// stub-domain cut injected mid-run, so its row reads directly against
/// `mixed` to isolate what simultaneous site loss costs over the same
/// independent-death background.
const CHURN_SCENARIOS: [(&str, f64, bool); 4] = [
    ("graceful", 1.0, false),
    ("mixed", 0.5, false),
    ("silent", 0.0, false),
    ("domain", 0.5, true),
];

/// Runs the churn engine over the departure scenarios — all-graceful,
/// 50/50, all-silent, and 50/50 with a correlated stub-domain cut —
/// on identically sized populations, with observability on: each
/// scenario's row comes with its [`ChurnObs`] — the transport
/// registry, the sim-windowed lookup time series and (when
/// `trace_capacity > 0`) the structured event stream. Instrumentation
/// only reads: every row is bit-identical to what [`run_churn`]
/// produces for its scenario.
///
/// Scenarios are farmed out across the executor one per chunk; each
/// engine run is strictly sequential and seeded, and the merge order
/// is fixed by chunk index, so the result (and its JSON) is
/// bit-identical at any thread count.
///
/// [`run_churn`]: hieras_churn::run_churn
#[must_use]
pub fn churn_sweep(
    exec: &Executor,
    initial_nodes: u32,
    arrivals: u32,
    horizon_ms: u64,
    seed: u64,
    trace_capacity: usize,
) -> Vec<(ChurnRow, ChurnObs)> {
    exec.par_fold(
        CHURN_SCENARIOS.len(),
        1,
        Vec::new,
        |acc: &mut Vec<(ChurnRow, ChurnObs)>, i| {
            let (scenario, graceful_fraction, _) = CHURN_SCENARIOS[i];
            let cfg = churn_scenario(i, initial_nodes, arrivals, horizon_ms, seed);
            let (report, obs) = run_churn_traced(&cfg, trace_capacity);
            acc.push((ChurnRow { scenario, graceful_fraction, report }, obs));
        },
        |mut a, b| {
            a.extend(b);
            a
        },
    )
}

/// The engine configuration of scenario `i` of [`CHURN_SCENARIOS`].
fn churn_scenario(
    i: usize,
    initial_nodes: u32,
    arrivals: u32,
    horizon_ms: u64,
    seed: u64,
) -> ChurnExperimentConfig {
    let (_, graceful_fraction, domain_cut) = CHURN_SCENARIOS[i];
    let churn = ChurnConfig {
        initial_nodes,
        arrivals,
        inter_arrival: Lifetime::Fixed { ms: horizon_ms / (arrivals as u64 + 1) },
        // Mean lifetime of 10x the horizon gives each initial node a
        // ~9.5 % chance of departing inside the run.
        lifetime: Lifetime::Exponential { mean_ms: 10.0 * horizon_ms as f64 },
        graceful_fraction,
        horizon_ms,
        seed: seed ^ ((i as u64) << 32),
    };
    let mut cfg = ChurnExperimentConfig::standard(churn);
    if graceful_fraction < 1.0 {
        // Widen the window in which silent failures are observable:
        // fewer maintenance rounds, more probes.
        cfg.lookups_per_event = 12;
        cfg.maintenance_every = 4;
    }
    if domain_cut {
        // Mid-run site cut: every schedule has at least `arrivals`
        // events, so the cut always fires.
        cfg.domain_fail = Some(hieras_churn::DomainFail { after_event: (arrivals / 2).max(1) });
    }
    cfg
}

impl ToJson for ChurnRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", self.scenario.to_json()),
            ("graceful_fraction", self.graceful_fraction.to_json()),
            ("report", self.report.to_json()),
        ])
    }
}

impl ToJson for SizeRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kind", self.kind.to_json()),
            ("nodes", self.nodes.to_json()),
            ("chord", self.chord.to_json()),
            ("hieras", self.hieras.to_json()),
        ])
    }
}

impl ToJson for LandmarkRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("landmarks", self.landmarks.to_json()),
            ("rings", self.rings.to_json()),
            ("chord", self.chord.to_json()),
            ("hieras", self.hieras.to_json()),
        ])
    }
}

impl ToJson for DepthRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("nodes", self.nodes.to_json()),
            ("depth", self.depth.to_json()),
            ("hieras", self.hieras.to_json()),
            ("chord", self.chord.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_sweep_produces_one_row_per_size() {
        let rows = size_sweep(TopologyKind::TransitStub, &[100, 200], 300, 1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].nodes, 100);
        assert!(rows[1].chord.avg_hops > rows[0].chord.avg_hops * 0.8);
        for r in &rows {
            assert_eq!(r.kind, "TS");
            assert_eq!(r.chord.requests, 300);
        }
    }

    #[test]
    fn landmark_sweep_ring_counts_grow() {
        let rows = landmark_sweep(200, 200, &[2, 6], 3);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].rings >= rows[0].rings,
            "more landmarks should not shrink the ring count: {rows:?}"
        );
    }

    #[test]
    fn churn_sweep_covers_all_scenarios_and_obs_never_perturbs_a_row() {
        let sweep = churn_sweep(&Executor::new(2), 40, 4, 3000, 11, 0);
        let rows: Vec<&ChurnRow> = sweep.iter().map(|(row, _)| row).collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].scenario, "graceful");
        assert_eq!(rows[1].scenario, "mixed");
        assert_eq!(rows[2].scenario, "silent");
        assert_eq!(rows[3].scenario, "domain");
        for r in &rows {
            assert!(r.report.hieras.lookups > 0, "{}: no lookups ran", r.scenario);
            assert!(r.report.population_start >= 40);
        }
        // The departure mix actually differs across scenarios.
        assert_eq!(rows[0].report.events.fails, 0, "graceful scenario saw silent fails");
        assert_eq!(rows[2].report.events.leaves, 0, "silent scenario saw graceful leaves");
        // Only the domain scenario takes the correlated cut, and it
        // kills a whole site at once.
        for r in &rows[..3] {
            assert_eq!(r.report.events.domain_killed, 0, "{}", r.scenario);
        }
        assert!(rows[3].report.events.domain_killed > 1, "the site cut must fire");
        // The plain engine is the reference: obs must not move a field.
        for (i, (row, obs)) in sweep.iter().enumerate() {
            let plain = hieras_churn::run_churn(&churn_scenario(i, 40, 4, 3000, 11));
            assert_eq!(row.report, plain, "{}: obs must not perturb the report", row.scenario);
            assert!(!obs.registry.is_empty());
            assert!(obs.tracer.is_none(), "capacity 0 → no tracer");
        }
    }

    #[test]
    fn depth_sweep_covers_grid() {
        let rows = depth_sweep(&[150], &[2, 3], 200, 9);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].depth, 2);
        assert_eq!(rows[1].depth, 3);
    }
}
