//! Serving-side telemetry configuration and maintenance-path stats.
//!
//! The windowed machinery itself lives in `hieras-obs`
//! ([`hieras_obs::TelemetryShard`]); this module holds what is
//! serving-specific: the knobs a [`crate::ServeEngine`] run takes
//! ([`TelemetryConfig`]) and the wall-clock maintenance profile every
//! churning run reports ([`MaintStats`]).

use hieras_core::ArenaPoolStats;
use hieras_obs::{LogHistogram, SloSpec};
use hieras_rt::{Json, ToJson};

/// Time-resolved telemetry knobs of a serving run.
///
/// The deterministic mode cuts windows on the **sim clock** (1 s
/// wide), so the windowed output is bit-identical at any executor
/// width; the free-running mode cuts them on the **wall
/// clock** (250 ms wide). With `enabled = false` every lookup
/// pays a single predictable branch and the run's routing metrics are
/// byte-identical to a telemetry-on run — telemetry only ever
/// accumulates into its own shards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Master switch.
    pub enabled: bool,
    /// Slowest lookups flight-recorded per window (0 disables the
    /// recorder).
    pub slow_k: usize,
    /// Per-window SLO to monitor, if any.
    pub slo: Option<SloSpec>,
}

impl TelemetryConfig {
    /// Telemetry disabled (the default).
    #[must_use]
    pub fn off() -> Self {
        TelemetryConfig { enabled: false, slow_k: 4, slo: None }
    }

    /// Telemetry enabled, 4 flight-recorded lookups per window.
    #[must_use]
    pub fn on() -> Self {
        TelemetryConfig { enabled: true, ..TelemetryConfig::off() }
    }

    /// The same configuration with an SLO attached.
    #[must_use]
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = Some(slo);
        self
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::off()
    }
}

/// Wall-clock profile of the maintenance path, reported by both
/// churning modes (the quiesced replay has no maintainer).
///
/// These are real durations on the maintenance thread, so they stay
/// *out* of the deterministic registry and the sim-windowed telemetry;
/// they ride on the report struct instead (and, in free-running runs,
/// in the wall windows' health registries).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MaintStats {
    /// Maintenance rounds executed.
    pub rounds: u64,
    /// Rounds that rebuilt and published a snapshot.
    pub rebuilds: u64,
    /// Published snapshots built incrementally from the churn delta
    /// (`rebuilds = delta_rebuilds + full_rebuilds`).
    pub delta_rebuilds: u64,
    /// Published snapshots rebuilt from scratch — the fallback when a
    /// batch touched more rings than the configured fraction, or the
    /// delta path is disabled.
    pub full_rebuilds: u64,
    /// Rounds that ran a re-bin pass.
    pub rebin_rounds: u64,
    /// Live peers whose landmark order changed across all re-bins.
    pub rebinned_peers: u64,
    /// `splitmix64` chain over every published snapshot's hierarchy
    /// digest, in publication order. Two runs of the same schedule
    /// published byte-identical snapshots iff these match — the
    /// serve-level delta-vs-full identity check.
    pub snapshot_digest: u64,
    /// Arena-recycling counters of the maintainer's pool.
    pub arena: ArenaPoolStats,
    /// End-to-end publish latency per published snapshot (hierarchy
    /// rebuild + epoch swap), µs.
    pub publish_us: LogHistogram,
    /// Hierarchy rebuild duration per published snapshot, µs.
    pub rebuild_us: LogHistogram,
    /// Re-bin pass duration per re-bin round, µs.
    pub rebin_us: LogHistogram,
    /// Every publish latency sample in publication order, µs — the raw
    /// series behind `publish_us`, kept so the bench can report exact
    /// percentiles instead of log-bucket midpoints.
    pub publish_samples: Vec<u64>,
}

impl MaintStats {
    /// Exact quantile of the raw publish-latency samples, µs (0 when
    /// nothing was published). `q` in `[0, 1]`.
    #[must_use]
    pub fn publish_quantile_us(&self, q: f64) -> u64 {
        if self.publish_samples.is_empty() {
            return 0;
        }
        let mut sorted = self.publish_samples.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted[rank]
    }
}

impl ToJson for MaintStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rounds", self.rounds.to_json()),
            ("rebuilds", self.rebuilds.to_json()),
            ("delta_rebuilds", self.delta_rebuilds.to_json()),
            ("full_rebuilds", self.full_rebuilds.to_json()),
            ("rebin_rounds", self.rebin_rounds.to_json()),
            ("rebinned_peers", self.rebinned_peers.to_json()),
            ("arena_reused", self.arena.reused.to_json()),
            ("arena_returned", self.arena.returned.to_json()),
            ("arena_dropped", self.arena.dropped.to_json()),
            ("publish_us_p50", self.publish_quantile_us(0.50).to_json()),
            ("publish_us_p95", self.publish_quantile_us(0.95).to_json()),
            ("publish_us_p99", self.publish_quantile_us(0.99).to_json()),
            ("rebuild_us_p50", self.rebuild_us.quantile(0.50).to_json()),
            ("rebin_us_p50", self.rebin_us.quantile(0.50).to_json()),
            ("publish_us", self.publish_us.to_json()),
            ("rebuild_us", self.rebuild_us.to_json()),
            ("rebin_us", self.rebin_us.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_off_and_sane() {
        let c = TelemetryConfig::default();
        assert!(!c.enabled);
        let on = TelemetryConfig::on().with_slo(SloSpec { p99_ms: 50, max_failure_ppm: 0 });
        assert!(on.enabled);
        assert_eq!(on.slow_k, c.slow_k, "`on` only flips the switch");
        assert_eq!(on.slo.unwrap().p99_ms, 50);
    }

    #[test]
    fn maint_stats_serialize_with_derived_quantiles() {
        let mut s = MaintStats {
            rounds: 3,
            rebuilds: 2,
            delta_rebuilds: 1,
            full_rebuilds: 1,
            ..MaintStats::default()
        };
        s.publish_us.record(100);
        s.publish_us.record(900);
        s.publish_samples = vec![100, 900];
        let j = s.to_json();
        assert_eq!(j.field::<u64>("rounds").unwrap(), 3);
        assert_eq!(j.field::<u64>("delta_rebuilds").unwrap(), 1);
        assert_eq!(j.field::<u64>("publish_us_p99").unwrap(), 900, "exact, not a bucket");
        assert!(j.get("rebin_us").is_some());
    }

    #[test]
    fn publish_quantiles_are_exact_over_raw_samples() {
        let mut s = MaintStats::default();
        assert_eq!(s.publish_quantile_us(0.5), 0, "empty series");
        s.publish_samples = (0..=100u64).rev().collect();
        assert_eq!(s.publish_quantile_us(0.0), 0);
        assert_eq!(s.publish_quantile_us(0.50), 50);
        assert_eq!(s.publish_quantile_us(0.95), 95);
        assert_eq!(s.publish_quantile_us(1.0), 100);
    }
}
