//! Churn schedule generation: membership dynamics as data.
//!
//! A [`ChurnSchedule`] is a deterministic, seed-reproducible list of
//! join / graceful-leave / silent-fail events sampled from configurable
//! lifetime and inter-arrival distributions. Like [`crate::Workload`],
//! every quantity is derived from the *node index* through SplitMix64
//! streams, so the schedule is identical no matter how (or on how many
//! threads) it is materialized — the churn engine replays it onto the
//! event queue and the same seed always produces the same experiment.

use hieras_rt::{splitmix64, Json, ToJson};

/// Simulated time in milliseconds since simulation start.
pub type SimClock = u64;

/// A sampling distribution for node lifetimes and inter-arrival gaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lifetime {
    /// Exponential with the given mean (memoryless churn, the classic
    /// Poisson-process model).
    Exponential {
        /// Mean of the distribution, ms.
        mean_ms: f64,
    },
    /// Every sample is exactly `ms` (degenerate; useful in tests).
    Fixed {
        /// The constant value, ms.
        ms: u64,
    },
}

impl Lifetime {
    /// The `index`-th sample of the stream named `stream`, in ms.
    /// Index-addressable: no sampler state, any order, any thread.
    #[must_use]
    pub fn sample(&self, stream: u64, index: u64) -> SimClock {
        // A uniform draw in (0, 1]: never exactly 0 so ln() is finite.
        let raw = splitmix64(stream ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let u = ((raw >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        match *self {
            Lifetime::Exponential { mean_ms } => (-mean_ms * u.ln()).round() as SimClock,
            Lifetime::Fixed { ms } => ms,
        }
    }

    /// The distribution's theoretical mean, ms.
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        match *self {
            Lifetime::Exponential { mean_ms } => mean_ms,
            Lifetime::Fixed { ms } => ms as f64,
        }
    }
}

impl ToJson for Lifetime {
    fn to_json(&self) -> Json {
        match *self {
            Lifetime::Exponential { mean_ms } => Json::obj([
                ("dist", "exponential".to_json()),
                ("mean_ms", mean_ms.to_json()),
            ]),
            Lifetime::Fixed { ms } => {
                Json::obj([("dist", "fixed".to_json()), ("ms", ms.to_json())])
            }
        }
    }
}

/// Parameters of one churn scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Nodes alive at t = 0 (the engine bootstraps them instantly).
    pub initial_nodes: u32,
    /// Additional nodes that join during the run.
    pub arrivals: u32,
    /// Gap between consecutive arrivals.
    pub inter_arrival: Lifetime,
    /// Session length of every node (initial nodes age from t = 0,
    /// arrivals from their join time).
    pub lifetime: Lifetime,
    /// Probability that a departure is a graceful leave rather than a
    /// silent fail.
    pub graceful_fraction: f64,
    /// Schedule horizon, ms: departures past it never happen.
    pub horizon_ms: SimClock,
    /// Master seed; all sampling streams derive from it.
    pub seed: u64,
}

impl ChurnConfig {
    /// Per-node facts, index-addressable: `(birth, departure, graceful)`
    /// for node `i` (`departure` is `None` when the node outlives the
    /// horizon). Birth of an initial node is 0; birth of arrival `j`
    /// (`i = initial_nodes + j`) is the prefix sum of the first `j + 1`
    /// inter-arrival gaps.
    #[must_use]
    pub fn node_fate(&self, i: u32) -> (SimClock, Option<SimClock>, bool) {
        let birth = if i < self.initial_nodes {
            0
        } else {
            // O(arrival index) prefix sum: schedules are built once per
            // experiment, so clarity beats memoization here.
            (self.initial_nodes..=i)
                .map(|j| self.inter_arrival.sample(self.seed ^ 0xa88_17a1, u64::from(j)).max(1))
                .sum()
        };
        let death = birth + self.lifetime.sample(self.seed ^ 0x11f3_71f3, u64::from(i)).max(1);
        let graceful_draw =
            splitmix64(self.seed ^ 0x6_ac3f_u64 ^ u64::from(i).wrapping_mul(0x2545_f491_4f6c_dd1d));
        let graceful =
            (graceful_draw >> 11) as f64 / ((1u64 << 53) as f64) < self.graceful_fraction;
        let departure = (death <= self.horizon_ms).then_some(death);
        (birth, departure, graceful)
    }

    /// Materializes the full schedule: one `Join` per arrival inside
    /// the horizon, one `Leave`/`Fail` per node whose session ends
    /// inside it, sorted by time with a deterministic tie order.
    #[must_use]
    pub fn schedule(&self) -> ChurnSchedule {
        let total = self.initial_nodes + self.arrivals;
        let mut events = Vec::new();
        for i in 0..total {
            let (birth, departure, graceful) = self.node_fate(i);
            if i >= self.initial_nodes && birth <= self.horizon_ms {
                events.push(ChurnEvent { at: birth, kind: ChurnEventKind::Join { node: i } });
            }
            if let Some(at) = departure {
                if birth <= self.horizon_ms {
                    let kind = if graceful {
                        ChurnEventKind::Leave { node: i }
                    } else {
                        ChurnEventKind::Fail { node: i }
                    };
                    events.push(ChurnEvent { at, kind });
                }
            }
        }
        // Stable by construction order, so ties break join-before-death
        // per node and by node index — identical every time.
        events.sort_by_key(|e| e.at);
        ChurnSchedule { nodes_total: total, events }
    }
}

/// What happens to the membership at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEventKind {
    /// Node `node` joins the overlay.
    Join {
        /// Birth-order node index.
        node: u32,
    },
    /// Node `node` leaves gracefully (hands off state, notifies peers).
    Leave {
        /// Birth-order node index.
        node: u32,
    },
    /// Node `node` fails silently (just vanishes).
    Fail {
        /// Birth-order node index.
        node: u32,
    },
}

impl ChurnEventKind {
    /// The affected node index.
    #[must_use]
    pub fn node(&self) -> u32 {
        match *self {
            ChurnEventKind::Join { node }
            | ChurnEventKind::Leave { node }
            | ChurnEventKind::Fail { node } => node,
        }
    }

    /// Short tag ("join" / "leave" / "fail").
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ChurnEventKind::Join { .. } => "join",
            ChurnEventKind::Leave { .. } => "leave",
            ChurnEventKind::Fail { .. } => "fail",
        }
    }
}

/// One scheduled membership event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Firing time, ms.
    pub at: SimClock,
    /// What happens.
    pub kind: ChurnEventKind,
}

/// A materialized, time-sorted churn schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnSchedule {
    /// Total distinct nodes the scenario ever references
    /// (`initial_nodes + arrivals`).
    pub nodes_total: u32,
    /// Events, ascending by time.
    pub events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the scenario has no membership events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Membership turnover: departures (leaves + fails) as a fraction
    /// of the peak population — the "% churn" knob experiments report.
    #[must_use]
    pub fn turnover(&self, initial_nodes: u32) -> f64 {
        let departures = self
            .events
            .iter()
            .filter(|e| !matches!(e.kind, ChurnEventKind::Join { .. }))
            .count();
        departures as f64 / f64::from(initial_nodes.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hieras_rt::Executor;

    fn cfg() -> ChurnConfig {
        ChurnConfig {
            initial_nodes: 100,
            arrivals: 40,
            inter_arrival: Lifetime::Exponential { mean_ms: 500.0 },
            lifetime: Lifetime::Exponential { mean_ms: 60_000.0 },
            graceful_fraction: 0.5,
            horizon_ms: 120_000,
            seed: 42,
        }
    }

    #[test]
    fn schedule_is_sorted_and_complete() {
        let s = cfg().schedule();
        assert!(s.events.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(s.nodes_total, 140);
        // Every arrival inside the horizon produces exactly one Join.
        let joins = s.events.iter().filter(|e| e.kind.label() == "join").count();
        assert!(joins > 0 && joins <= 40);
        // No node departs before (or without) being born.
        for e in &s.events {
            let (birth, _, _) = cfg().node_fate(e.kind.node());
            assert!(e.at >= birth, "{e:?} fires before birth {birth}");
        }
    }

    #[test]
    fn same_seed_same_schedule_different_seed_differs() {
        let a = cfg().schedule();
        let b = cfg().schedule();
        assert_eq!(a, b);
        let c = ChurnConfig { seed: 43, ..cfg() }.schedule();
        assert_ne!(a, c);
    }

    #[test]
    fn exponential_empirical_mean_within_tolerance() {
        let d = Lifetime::Exponential { mean_ms: 10_000.0 };
        let n = 20_000u64;
        let sum: u64 = (0..n).map(|i| d.sample(7, i)).sum();
        let mean = sum as f64 / n as f64;
        let want = d.mean_ms();
        assert!(
            (mean - want).abs() / want < 0.05,
            "exponential mean {mean} vs theoretical {want}"
        );
    }

    #[test]
    fn fixed_is_degenerate() {
        let f = Lifetime::Fixed { ms: 123 };
        assert_eq!(f.sample(1, 99), 123);
        assert_eq!(f.mean_ms(), 123.0);
    }

    #[test]
    fn node_fates_are_identical_across_thread_counts() {
        // Materialize every node's fate on executors of different
        // widths; the chunk-merged vectors must be bit-identical, and
        // equal to the sequential schedule's view.
        let c = cfg();
        let total = c.initial_nodes + c.arrivals;
        let run = |threads: usize| {
            Executor::new(threads).par_fold(
                total as usize,
                8,
                Vec::new,
                |acc: &mut Vec<(SimClock, Option<SimClock>, bool)>, i| {
                    acc.push(c.node_fate(i as u32));
                },
                |mut a, b| {
                    a.extend(b);
                    a
                },
            )
        };
        let seq: Vec<_> = (0..total).map(|i| c.node_fate(i)).collect();
        for threads in [1, 2, 8] {
            assert_eq!(run(threads), seq, "fates diverge at {threads} threads");
        }
        // And therefore the materialized schedules agree too.
        assert_eq!(c.schedule(), c.schedule());
    }

    #[test]
    fn turnover_counts_departures() {
        let s = cfg().schedule();
        let departures =
            s.events.iter().filter(|e| e.kind.label() != "join").count();
        assert!((s.turnover(100) - departures as f64 / 100.0).abs() < 1e-12);
    }
}
