//! Churn-run results: failure rates, timeout-inflated latency, and
//! per-layer maintenance overhead.

use hieras_rt::{Json, ToJson};
use hieras_sim::Metrics;

/// Counters for protocol traffic, split by purpose. Every delivered
/// message counts once; a send into a dead node counts as one timeout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintStats {
    /// Messages spent resolving application lookups.
    pub lookup_msgs: u64,
    /// Messages spent during joins (bootstrap lookup + splices + table
    /// initialization).
    pub join_msgs: u64,
    /// Messages spent in failure-detection pings and stabilize/notify
    /// rounds.
    pub stabilize_msgs: u64,
    /// Messages spent refreshing finger entries.
    pub fix_finger_msgs: u64,
    /// Sends against dead nodes: the request is sent, the RTO is paid,
    /// and the caller reroutes.
    pub timeout_msgs: u64,
    /// Messages spent repairing state around a departure (graceful
    /// leave patches, ring-table handoff, landmark re-binning).
    pub repair_msgs: u64,
}

impl MaintStats {
    /// Total across all categories.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.lookup_msgs
            + self.join_msgs
            + self.stabilize_msgs
            + self.fix_finger_msgs
            + self.timeout_msgs
            + self.repair_msgs
    }

    /// Merges another accumulator into this one (per-layer roll-ups).
    pub fn merge(&mut self, other: &MaintStats) {
        self.lookup_msgs += other.lookup_msgs;
        self.join_msgs += other.join_msgs;
        self.stabilize_msgs += other.stabilize_msgs;
        self.fix_finger_msgs += other.fix_finger_msgs;
        self.timeout_msgs += other.timeout_msgs;
        self.repair_msgs += other.repair_msgs;
    }
}

impl ToJson for MaintStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("lookup_msgs", self.lookup_msgs.to_json()),
            ("join_msgs", self.join_msgs.to_json()),
            ("stabilize_msgs", self.stabilize_msgs.to_json()),
            ("fix_finger_msgs", self.fix_finger_msgs.to_json()),
            ("timeout_msgs", self.timeout_msgs.to_json()),
            ("repair_msgs", self.repair_msgs.to_json()),
            ("total", self.total().to_json()),
        ])
    }
}

/// What happened to the membership over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Arrivals that completed the §3.3 join choreography.
    pub joins: u64,
    /// Join attempts that died in the network and were retried through
    /// another bootstrap.
    pub join_retries: u64,
    /// Arrivals abandoned after exhausting their bootstrap retries.
    pub join_aborts: u64,
    /// Graceful departures executed.
    pub leaves: u64,
    /// Silent failures executed.
    pub fails: u64,
    /// Departure events skipped because the node never joined.
    pub skipped: u64,
    /// Layer moves performed by landmark-death re-binning.
    pub rebinned: u64,
    /// Peers killed by the correlated domain failure (0 without one).
    pub domain_killed: u64,
}

impl ToJson for EventCounts {
    fn to_json(&self) -> Json {
        Json::obj([
            ("joins", self.joins.to_json()),
            ("join_retries", self.join_retries.to_json()),
            ("join_aborts", self.join_aborts.to_json()),
            ("leaves", self.leaves.to_json()),
            ("fails", self.fails.to_json()),
            ("skipped", self.skipped.to_json()),
            ("rebinned", self.rebinned.to_json()),
            ("domain_killed", self.domain_killed.to_json()),
        ])
    }
}

/// Lookup and maintenance accounting for one algorithm under churn.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlgoChurnStats {
    /// Lookups injected.
    pub lookups: u64,
    /// Lookups that resolved to the wrong owner (stale pointers during
    /// the repair window).
    pub wrong_owner: u64,
    /// Lookups that never resolved (every retry lost to dead nodes or
    /// TTL drops).
    pub unresolved: u64,
    /// Total attempts consumed (≥ `lookups`; the excess is retries).
    pub attempts: u64,
    /// Hop / latency metrics of the *successful* lookups. Latency is
    /// timeout-inflated: every send into a dead node costs one RTO,
    /// and retried lookups carry their backoff.
    pub routing: Metrics,
    /// Maintenance traffic split by purpose, one entry per layer
    /// (index 0 = the global ring; the depth-1 Chord baseline has a
    /// single entry).
    /// Cross-layer work — joins, graceful-leave repair, lookups — is
    /// attributed to the global-ring entry; landmark re-binning to the
    /// lowest layer.
    pub maint: Vec<MaintStats>,
}

impl AlgoChurnStats {
    /// An empty accumulator with one maintenance bucket per layer.
    #[must_use]
    pub fn new(layers: usize) -> Self {
        AlgoChurnStats { maint: vec![MaintStats::default(); layers], ..Default::default() }
    }

    /// Lookups that did not produce the true owner.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.wrong_owner + self.unresolved
    }

    /// Failed lookups as a fraction of all lookups.
    #[must_use]
    pub fn failure_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.failed() as f64 / self.lookups as f64
        }
    }

    /// All layers' maintenance counters merged.
    #[must_use]
    pub fn maint_total(&self) -> MaintStats {
        let mut total = MaintStats::default();
        for m in &self.maint {
            total.merge(m);
        }
        total
    }
}

impl ToJson for AlgoChurnStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("lookups", self.lookups.to_json()),
            ("wrong_owner", self.wrong_owner.to_json()),
            ("unresolved", self.unresolved.to_json()),
            ("failed", self.failed().to_json()),
            ("failure_rate", self.failure_rate().to_json()),
            ("attempts", self.attempts.to_json()),
            ("routing", self.routing.summary().to_json()),
            ("maint_by_layer", self.maint.to_json()),
            ("maint_total", self.maint_total().to_json()),
        ])
    }
}

/// The full result of one churn run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnReport {
    /// Departures as a fraction of the initial population.
    pub turnover: f64,
    /// Membership-event outcomes.
    pub events: EventCounts,
    /// Population at t = 0.
    pub population_start: usize,
    /// Population when the schedule ran out.
    pub population_end: usize,
    /// HIERAS under churn.
    pub hieras: AlgoChurnStats,
    /// The Chord baseline — the same message engine at depth 1 —
    /// under the identical schedule, bootstraps and lookups.
    pub chord: AlgoChurnStats,
    /// Every message the HIERAS network delivered.
    pub messages_total: u64,
    /// RPCs that timed out against dead HIERAS nodes.
    pub timeouts_total: u64,
    /// Messages the HIERAS network dropped (dead destination, TTL).
    pub drops_total: u64,
}

impl ToJson for ChurnReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("turnover", self.turnover.to_json()),
            ("events", self.events.to_json()),
            ("population_start", self.population_start.to_json()),
            ("population_end", self.population_end.to_json()),
            ("hieras", self.hieras.to_json()),
            ("chord", self.chord.to_json()),
            ("messages_total", self.messages_total.to_json()),
            ("timeouts_total", self.timeouts_total.to_json()),
            ("drops_total", self.drops_total.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maint_stats_merge_and_total_cover_every_field() {
        let a = MaintStats {
            lookup_msgs: 1,
            join_msgs: 2,
            stabilize_msgs: 3,
            fix_finger_msgs: 4,
            timeout_msgs: 5,
            repair_msgs: 6,
        };
        assert_eq!(a.total(), 21);
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.total(), 42);
        assert_eq!(b.timeout_msgs, 10);
        assert_eq!(b.repair_msgs, 12);
    }
}
