//! Metric containers: hop histograms (PDF), latency CDFs, summaries.
//!
//! All containers are mergeable so the replay loop can fold per-thread
//! accumulators and reduce them at the end — no shared mutable state on
//! the hot path (hpc-parallel guide idiom).

use hieras_core::RouteCost;
use hieras_rt::{FromJson, Json, JsonError, ToJson};

/// A dense histogram over small non-negative integers (hop counts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: usize) {
        if self.counts.len() <= value {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += 1;
        self.total += 1;
    }

    /// Number of observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count at `value`.
    #[must_use]
    pub fn count(&self, value: usize) -> u64 {
        self.counts.get(value).copied().unwrap_or(0)
    }

    /// Largest observed value (0 for an empty histogram).
    #[must_use]
    pub fn max_value(&self) -> usize {
        self.counts.len().saturating_sub(1)
    }

    /// Mean of the observations (0.0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self.counts.iter().enumerate().map(|(v, c)| v as u64 * c).sum();
        sum as f64 / self.total as f64
    }

    /// The probability density function: `pdf()[v]` = fraction of
    /// observations equal to `v`. Empty histogram → empty vector.
    #[must_use]
    pub fn pdf(&self) -> Vec<f64> {
        if self.total == 0 {
            return Vec::new();
        }
        self.counts.iter().map(|&c| c as f64 / self.total as f64).collect()
    }

    /// The nearest-rank `q`-quantile (0.0 ≤ q ≤ 1.0): the smallest
    /// observed value such that at least `ceil(q·N)` observations are
    /// ≤ it. Returns 0 for an empty histogram; `q = 0` yields the
    /// smallest observed value.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> usize {
        assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
        if self.total == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (v, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return v;
            }
        }
        self.counts.len() - 1
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// An empirical CDF over latency samples (milliseconds).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cdf {
    sorted: Vec<u32>,
}

impl Cdf {
    /// Builds from raw samples (takes ownership, sorts once).
    #[must_use]
    pub fn from_samples(mut samples: Vec<u32>) -> Self {
        samples.sort_unstable();
        Cdf { sorted: samples }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no samples were collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    #[must_use]
    pub fn at(&self, x: u32) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `p`-quantile (0.0 ≤ p ≤ 1.0); e.g. `quantile(0.5)` = median.
    ///
    /// # Panics
    /// Panics if the CDF is empty or `p` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> u32 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
        let idx = ((p * (self.sorted.len() - 1) as f64).round()) as usize;
        self.sorted[idx]
    }

    /// Mean of the samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().map(|&v| u64::from(v)).sum::<u64>() as f64 / self.sorted.len() as f64
    }

    /// Evenly spaced `(x, P(X<=x))` points for plotting, from 0 to the
    /// max sample, `points` entries.
    #[must_use]
    pub fn curve(&self, points: usize) -> Vec<(u32, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let max = *self.sorted.last().expect("non-empty");
        (0..=points)
            .map(|i| {
                let x = (u64::from(max) * i as u64 / points as u64) as u32;
                (x, self.at(x))
            })
            .collect()
    }
}

/// Per-request sample folded into [`Metrics`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Total hops for the request.
    pub hops: u32,
    /// Hops taken in lower-layer rings (0 for Chord).
    pub lower_hops: u32,
    /// End-to-end routing latency, ms.
    pub latency_ms: u32,
    /// Portion of the latency spent in lower-layer hops, ms.
    pub lower_latency_ms: u32,
}

impl From<RouteCost> for Sample {
    /// The one `RouteCost → Sample` conversion replay and serving
    /// share. A route's millisecond sums fit `u32` by orders of
    /// magnitude; one that ever did not saturates at `u32::MAX`
    /// instead of wrapping to a small (fast-looking) value.
    fn from(c: RouteCost) -> Sample {
        let ms = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
        Sample {
            hops: c.hops,
            lower_hops: c.lower_hops,
            latency_ms: ms(c.latency_ms),
            lower_latency_ms: ms(c.lower_latency_ms),
        }
    }
}

/// A mergeable metric accumulator for one routing algorithm.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Number of requests replayed.
    pub requests: u64,
    /// Sum of hop counts.
    pub total_hops: u64,
    /// Sum of lower-layer hop counts.
    pub lower_hops: u64,
    /// Sum of latencies (ms).
    pub total_latency_ms: u64,
    /// Sum of lower-layer latencies (ms).
    pub lower_latency_ms: u64,
    /// Histogram of per-request total hops (Figure 4 PDF).
    pub hop_hist: Histogram,
    /// Histogram of per-request lower-layer hops (Figure 4, third curve).
    pub lower_hop_hist: Histogram,
    /// Raw per-request latencies for the CDF (Figure 5).
    pub latency_samples: Vec<u32>,
}

impl Metrics {
    /// Records one request.
    pub fn record(&mut self, s: Sample) {
        self.requests += 1;
        self.total_hops += u64::from(s.hops);
        self.lower_hops += u64::from(s.lower_hops);
        self.total_latency_ms += u64::from(s.latency_ms);
        self.lower_latency_ms += u64::from(s.lower_latency_ms);
        self.hop_hist.record(s.hops as usize);
        self.lower_hop_hist.record(s.lower_hops as usize);
        self.latency_samples.push(s.latency_ms);
    }

    /// Merges a sibling accumulator (parallel-replay merge step).
    #[must_use]
    pub fn merged(mut self, other: Metrics) -> Metrics {
        self.requests += other.requests;
        self.total_hops += other.total_hops;
        self.lower_hops += other.lower_hops;
        self.total_latency_ms += other.total_latency_ms;
        self.lower_latency_ms += other.lower_latency_ms;
        self.hop_hist.merge(&other.hop_hist);
        self.lower_hop_hist.merge(&other.lower_hop_hist);
        self.latency_samples.extend_from_slice(&other.latency_samples);
        self
    }

    /// Condenses into the headline numbers.
    #[must_use]
    pub fn summary(&self) -> Summary {
        let req = self.requests.max(1) as f64;
        let avg_hops = self.total_hops as f64 / req;
        let avg_lower_hops = self.lower_hops as f64 / req;
        let top_hops = self.total_hops - self.lower_hops;
        let top_latency = self.total_latency_ms - self.lower_latency_ms;
        let mut sorted = self.latency_samples.clone();
        sorted.sort_unstable();
        let latency_tail = TailLatency {
            p50_ms: nearest_rank(&sorted, 0.50),
            p95_ms: nearest_rank(&sorted, 0.95),
            p99_ms: nearest_rank(&sorted, 0.99),
            p999_ms: nearest_rank(&sorted, 0.999),
        };
        Summary {
            latency_tail,
            requests: self.requests,
            avg_hops,
            avg_latency_ms: self.total_latency_ms as f64 / req,
            avg_lower_hops,
            lower_hop_share: if self.total_hops == 0 {
                0.0
            } else {
                self.lower_hops as f64 / self.total_hops as f64
            },
            lower_latency_share: if self.total_latency_ms == 0 {
                0.0
            } else {
                self.lower_latency_ms as f64 / self.total_latency_ms as f64
            },
            avg_link_delay_top_ms: if top_hops == 0 {
                0.0
            } else {
                top_latency as f64 / top_hops as f64
            },
            avg_link_delay_lower_ms: if self.lower_hops == 0 {
                0.0
            } else {
                self.lower_latency_ms as f64 / self.lower_hops as f64
            },
        }
    }

    /// The latency CDF (consumes a clone of the samples).
    #[must_use]
    pub fn latency_cdf(&self) -> Cdf {
        Cdf::from_samples(self.latency_samples.clone())
    }
}

/// The nearest-rank `q`-quantile of pre-sorted samples: the value at
/// rank `ceil(q·N)` (1-based). 0 for an empty slice.
fn nearest_rank(sorted: &[u32], q: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank tail latencies (ms) — the CDF's headline points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailLatency {
    /// Median latency.
    pub p50_ms: u32,
    /// 95th-percentile latency.
    pub p95_ms: u32,
    /// 99th-percentile latency.
    pub p99_ms: u32,
    /// 99.9th-percentile latency — the extreme tail the live-serving
    /// bench watches for timeout inflation under churn.
    pub p999_ms: u32,
}

impl ToJson for TailLatency {
    fn to_json(&self) -> Json {
        Json::obj([
            ("p50_ms", self.p50_ms.to_json()),
            ("p95_ms", self.p95_ms.to_json()),
            ("p99_ms", self.p99_ms.to_json()),
            ("p999_ms", self.p999_ms.to_json()),
        ])
    }
}

impl FromJson for TailLatency {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(TailLatency {
            p50_ms: v.field("p50_ms")?,
            p95_ms: v.field("p95_ms")?,
            p99_ms: v.field("p99_ms")?,
            p999_ms: v.field("p999_ms")?,
        })
    }
}

/// Headline statistics for one algorithm on one experiment — the
/// numbers the paper's figures plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Requests replayed.
    pub requests: u64,
    /// Average routing hops per request (Figures 2, 6, 8).
    pub avg_hops: f64,
    /// Average routing latency per request, ms (Figures 3, 7, 9).
    pub avg_latency_ms: f64,
    /// Average lower-layer hops per request (Figure 6, second curve).
    pub avg_lower_hops: f64,
    /// Fraction of hops executed in lower-layer rings (§4.3: 71.38 %).
    pub lower_hop_share: f64,
    /// Fraction of latency spent in lower-layer hops (§4.3: 47.24 %).
    pub lower_latency_share: f64,
    /// Mean per-hop link delay in the global ring (§4.3: 79 ms).
    pub avg_link_delay_top_ms: f64,
    /// Mean per-hop link delay in lower rings (§4.3: 27.758 ms).
    pub avg_link_delay_lower_ms: f64,
    /// Nearest-rank latency tail (p50 / p95 / p99).
    pub latency_tail: TailLatency,
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        Json::obj([("counts", self.counts.to_json()), ("total", self.total.to_json())])
    }
}

impl FromJson for Histogram {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let counts: Vec<u64> = v.field("counts")?;
        let total: u64 = v.field("total")?;
        if counts.iter().sum::<u64>() != total {
            return Err(JsonError("histogram total does not match counts".into()));
        }
        Ok(Histogram { counts, total })
    }
}

impl ToJson for Cdf {
    fn to_json(&self) -> Json {
        Json::obj([("sorted", self.sorted.to_json())])
    }
}

impl FromJson for Cdf {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let sorted: Vec<u32> = v.field("sorted")?;
        if sorted.windows(2).any(|w| w[0] > w[1]) {
            return Err(JsonError("cdf samples must be sorted".into()));
        }
        Ok(Cdf { sorted })
    }
}

impl ToJson for Metrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("requests", self.requests.to_json()),
            ("total_hops", self.total_hops.to_json()),
            ("lower_hops", self.lower_hops.to_json()),
            ("total_latency_ms", self.total_latency_ms.to_json()),
            ("lower_latency_ms", self.lower_latency_ms.to_json()),
            ("hop_hist", self.hop_hist.to_json()),
            ("lower_hop_hist", self.lower_hop_hist.to_json()),
            ("latency_samples", self.latency_samples.to_json()),
        ])
    }
}

impl FromJson for Metrics {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Metrics {
            requests: v.field("requests")?,
            total_hops: v.field("total_hops")?,
            lower_hops: v.field("lower_hops")?,
            total_latency_ms: v.field("total_latency_ms")?,
            lower_latency_ms: v.field("lower_latency_ms")?,
            hop_hist: v.field("hop_hist")?,
            lower_hop_hist: v.field("lower_hop_hist")?,
            latency_samples: v.field("latency_samples")?,
        })
    }
}

impl ToJson for Summary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("requests", self.requests.to_json()),
            ("avg_hops", self.avg_hops.to_json()),
            ("avg_latency_ms", self.avg_latency_ms.to_json()),
            ("avg_lower_hops", self.avg_lower_hops.to_json()),
            ("lower_hop_share", self.lower_hop_share.to_json()),
            ("lower_latency_share", self.lower_latency_share.to_json()),
            ("avg_link_delay_top_ms", self.avg_link_delay_top_ms.to_json()),
            ("avg_link_delay_lower_ms", self.avg_link_delay_lower_ms.to_json()),
            ("latency_tail", self.latency_tail.to_json()),
        ])
    }
}

impl FromJson for Summary {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Summary {
            requests: v.field("requests")?,
            avg_hops: v.field("avg_hops")?,
            avg_latency_ms: v.field("avg_latency_ms")?,
            avg_lower_hops: v.field("avg_lower_hops")?,
            lower_hop_share: v.field("lower_hop_share")?,
            lower_latency_share: v.field("lower_latency_share")?,
            avg_link_delay_top_ms: v.field("avg_link_delay_top_ms")?,
            avg_link_delay_lower_ms: v.field("avg_link_delay_lower_ms")?,
            latency_tail: v.field("latency_tail")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_cost_milliseconds_saturate_instead_of_wrapping() {
        let over = u64::from(u32::MAX) + 1;
        let c = RouteCost { hops: 3, lower_hops: 2, latency_ms: over, lower_latency_ms: over, destination: 9 };
        let s = Sample::from(c);
        assert_eq!((s.latency_ms, s.lower_latency_ms), (u32::MAX, u32::MAX), "not 0");
        assert_eq!((s.hops, s.lower_hops), (3, 2));
        let exact = Sample::from(RouteCost { latency_ms: u64::from(u32::MAX), ..c });
        assert_eq!(exact.latency_ms, u32::MAX, "the largest representable sum is exact");
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new();
        for v in [1usize, 2, 2, 3, 3, 3] {
            h.record(v);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.count(3), 3);
        assert_eq!(h.count(99), 0);
        assert_eq!(h.max_value(), 3);
        assert!((h.mean() - 14.0 / 6.0).abs() < 1e-12);
        let pdf = h.pdf();
        assert!((pdf[2] - 2.0 / 6.0).abs() < 1e-12);
        assert!((pdf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(1);
        let mut b = Histogram::new();
        b.record(5);
        b.record(1);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count(1), 2);
        assert_eq!(a.count(5), 1);
    }

    #[test]
    fn empty_histogram_edge_cases() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert!(h.pdf().is_empty());
        assert_eq!(h.max_value(), 0);
    }

    #[test]
    fn cdf_basics() {
        let c = Cdf::from_samples(vec![10, 20, 30, 40]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.at(9), 0.0);
        assert_eq!(c.at(10), 0.25);
        assert_eq!(c.at(25), 0.5);
        assert_eq!(c.at(40), 1.0);
        assert_eq!(c.at(1000), 1.0);
        assert_eq!(c.quantile(0.0), 10);
        assert_eq!(c.quantile(1.0), 40);
        assert!((c.mean() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_curve_is_monotone() {
        let c = Cdf::from_samples((0..100u32).map(|i| i * i % 301).collect());
        let curve = c.curve(20);
        assert_eq!(curve.len(), 21);
        for w in curve.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn cdf_quantile_empty_panics() {
        let _ = Cdf::from_samples(vec![]).quantile(0.5);
    }

    #[test]
    fn histogram_quantile_nearest_rank() {
        // Empty → 0 at every q.
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.0), 0);
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.quantile(1.0), 0);
        // Single observation → that value at every q.
        let mut one = Histogram::new();
        one.record(7);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 7, "q={q}");
        }
        // All ties → the tied value at every q.
        let mut ties = Histogram::new();
        for _ in 0..10 {
            ties.record(4);
        }
        assert_eq!(ties.quantile(0.01), 4);
        assert_eq!(ties.quantile(0.99), 4);
        // Nearest rank on a known distribution: 1..=10, one each.
        let mut h = Histogram::new();
        for v in 1..=10usize {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1, "q=0 is the minimum");
        assert_eq!(h.quantile(0.5), 5, "rank ceil(0.5*10)=5");
        assert_eq!(h.quantile(0.51), 6, "rank ceil(0.51*10)=6");
        assert_eq!(h.quantile(0.95), 10);
        assert_eq!(h.quantile(1.0), 10);
    }

    #[test]
    fn summary_tail_latency_is_nearest_rank() {
        let mut m = Metrics::default();
        for ms in [10u32, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            m.record(Sample { hops: 1, lower_hops: 0, latency_ms: ms, lower_latency_ms: 0 });
        }
        let t = m.summary().latency_tail;
        assert_eq!(t.p50_ms, 50);
        assert_eq!(t.p95_ms, 100, "rank ceil(0.95*10)=10");
        assert_eq!(t.p99_ms, 100);
        assert_eq!(t.p999_ms, 100);
        // Empty metrics: all-zero tail.
        assert_eq!(Metrics::default().summary().latency_tail, TailLatency::default());
        // Single sample: every percentile is that sample.
        let mut one = Metrics::default();
        one.record(Sample { hops: 1, lower_hops: 0, latency_ms: 42, lower_latency_ms: 0 });
        let t = one.summary().latency_tail;
        assert_eq!((t.p50_ms, t.p95_ms, t.p99_ms, t.p999_ms), (42, 42, 42, 42));
        // Ties: every percentile is the tied value.
        let mut ties = Metrics::default();
        for _ in 0..7 {
            ties.record(Sample { hops: 1, lower_hops: 0, latency_ms: 9, lower_latency_ms: 0 });
        }
        let t = ties.summary().latency_tail;
        assert_eq!((t.p50_ms, t.p95_ms, t.p99_ms), (9, 9, 9));
    }

    #[test]
    fn p999_is_nearest_rank_on_a_large_sample() {
        // 1..=1000, one each: rank ceil(0.999*1000) = 999 → value 999,
        // one below the p100 max — p99.9 resolves the extreme tail.
        let mut m = Metrics::default();
        for ms in 1..=1000u32 {
            m.record(Sample { hops: 1, lower_hops: 0, latency_ms: ms, lower_latency_ms: 0 });
        }
        let t = m.summary().latency_tail;
        assert_eq!(t.p99_ms, 990);
        assert_eq!(t.p999_ms, 999);
    }

    #[test]
    fn tail_latency_round_trips_in_summary_json() {
        let mut m = Metrics::default();
        for ms in [5u32, 15, 25] {
            m.record(Sample { hops: 2, lower_hops: 1, latency_ms: ms, lower_latency_ms: 1 });
        }
        let s = m.summary();
        let back = Summary::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.latency_tail.p50_ms, 15);
    }

    #[test]
    fn metrics_summary_matches_hand_computation() {
        let mut m = Metrics::default();
        m.record(Sample { hops: 6, lower_hops: 4, latency_ms: 300, lower_latency_ms: 100 });
        m.record(Sample { hops: 4, lower_hops: 2, latency_ms: 200, lower_latency_ms: 50 });
        let s = m.summary();
        assert_eq!(s.requests, 2);
        assert!((s.avg_hops - 5.0).abs() < 1e-12);
        assert!((s.avg_latency_ms - 250.0).abs() < 1e-12);
        assert!((s.lower_hop_share - 6.0 / 10.0).abs() < 1e-12);
        assert!((s.lower_latency_share - 150.0 / 500.0).abs() < 1e-12);
        // top: 4 hops, 350 ms; lower: 6 hops, 150 ms.
        assert!((s.avg_link_delay_top_ms - 87.5).abs() < 1e-12);
        assert!((s.avg_link_delay_lower_ms - 25.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_merge_is_sum() {
        let mut a = Metrics::default();
        a.record(Sample { hops: 3, lower_hops: 0, latency_ms: 90, lower_latency_ms: 0 });
        let mut b = Metrics::default();
        b.record(Sample { hops: 5, lower_hops: 5, latency_ms: 50, lower_latency_ms: 50 });
        let m = a.merged(b);
        assert_eq!(m.requests, 2);
        assert_eq!(m.total_hops, 8);
        assert_eq!(m.latency_samples.len(), 2);
        assert_eq!(m.hop_hist.total(), 2);
    }

    #[test]
    fn zero_request_summary_is_finite() {
        let s = Metrics::default().summary();
        assert_eq!(s.requests, 0);
        assert_eq!(s.avg_hops, 0.0);
        assert_eq!(s.avg_link_delay_top_ms, 0.0);
        assert_eq!(s.avg_link_delay_lower_ms, 0.0);
    }
}
