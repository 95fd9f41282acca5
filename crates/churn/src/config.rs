//! Churn-experiment configuration.

use hieras_core::HierasConfig;
use hieras_sim::{ChurnConfig, TopologyKind};

/// A landmark death injected mid-run: after the given churn event the
/// landmark is replaced by a backup measurement point, every live node
/// re-measures its RTT vector, and nodes whose bin changed re-join the
/// lower-layer rings the new order names (§2.2's landmark dependency,
/// exercised as a failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LandmarkFail {
    /// The landmark dies once this many churn events have fired.
    pub after_event: u32,
    /// Index into the landmark set (taken modulo its length).
    pub landmark: u32,
}

/// A domain-correlated failure injected mid-run: after the given churn
/// event, every live peer attached to one Transit-Stub failure domain
/// (`hieras_topology::Topology::domain`) fails silently at the same
/// instant — a power cut or uplink loss at a site, against which the
/// independent-death lifetime model says nothing. The victim is the
/// most-populated live domain at that instant (deterministic), capped
/// so at least two peers survive the cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainFail {
    /// The domain dies once this many churn events have fired.
    pub after_event: u32,
}

/// Full description of one churn experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnExperimentConfig {
    /// Network model peers are placed on.
    pub kind: TopologyKind,
    /// HIERAS parameters (depth, landmarks, binning).
    pub hieras: HierasConfig,
    /// Membership dynamics: initial population, arrival process,
    /// lifetimes, graceful fraction, horizon and master seed.
    pub churn: ChurnConfig,
    /// Application lookups injected after every churn event (each is
    /// run through both algorithms against the same ground truth).
    pub lookups_per_event: u32,
    /// Maintenance cadence: run one full round (failure-detection
    /// pings, stabilize, fix-fingers — per layer, so once for the
    /// depth-1 Chord baseline) every this many churn events. 0
    /// disables maintenance.
    pub maintenance_every: u32,
    /// Optional landmark death injected mid-run.
    pub landmark_fail: Option<LandmarkFail>,
    /// Optional domain-correlated failure injected mid-run.
    pub domain_fail: Option<DomainFail>,
}

impl ChurnExperimentConfig {
    /// The standard setup around a given churn scenario: TS topology,
    /// paper HIERAS config, 4 lookups and one maintenance round after
    /// every event.
    #[must_use]
    pub fn standard(churn: ChurnConfig) -> Self {
        ChurnExperimentConfig {
            kind: TopologyKind::TransitStub,
            hieras: HierasConfig::paper(),
            churn,
            lookups_per_event: 4,
            maintenance_every: 1,
            landmark_fail: None,
            domain_fail: None,
        }
    }
}
