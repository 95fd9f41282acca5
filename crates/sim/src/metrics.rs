//! Metric containers: hop and latency histograms (PDF, CDF), summaries.
//!
//! All containers are mergeable so the replay loop can fold per-thread
//! accumulators and reduce them at the end — no shared mutable state on
//! the hot path (hpc-parallel guide idiom).

use hieras_core::RouteCost;
use hieras_rt::{Json, ToJson};

/// A dense histogram over small non-negative integers (hop counts,
/// 1-ms latency buckets).
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

    /// `P(X ≤ x)`: the share of observations at most `x` (0.0 if
    /// empty).
    #[must_use]
    pub fn cdf_at(&self, x: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let at_most: u64 = self.counts.iter().take(x.saturating_add(1)).sum();
        at_most as f64 / self.total as f64
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

/// Latency bucket that collects every route of this many ms or more.
/// `Sample::from` saturates a route at `u32::MAX` ms by design, and one
/// 1-ms bucket per value up to that would allocate ≈ 34 GB. No workload
/// comes near the bound (the largest churn p99.9 is ≈ 4.7 s), and only
/// the histogram clamps: `total_latency_ms` stays exact.
const LATENCY_TOP_BUCKET_MS: u32 = 1 << 16;

/// Multiplier of the `latency_order` fold; odd, so multiplying by it
/// loses no information mod 2^64.
const ORDER_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// `ORDER_K^n`, wrapping.
fn order_k_pow(mut n: u64) -> u64 {
    let (mut base, mut acc) = (ORDER_K, 1u64);
    while n > 0 {
        if n & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        n >>= 1;
    }
    acc
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
    /// Histogram of per-request latency in 1-ms buckets (Figure 5 CDF
    /// and the nearest-rank tails); routes of `LATENCY_TOP_BUCKET_MS` or
    /// more share the top bucket.
    pub latency_hist: Histogram,
    /// Order-sensitive fold of the per-request latencies: `d·K + (ms+1)`
    /// per record and `a·K^{n_b} + b` when `b`'s `n_b` requests merge
    /// after `a`'s (wrapping). It depends only on the request-ordered
    /// latency sequence, not on how it was chunked, so runs that record
    /// the same latencies in another order compare unequal.
    pub latency_order: u64,
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
        self.latency_hist.record(s.latency_ms.min(LATENCY_TOP_BUCKET_MS) as usize);
        self.latency_order =
            self.latency_order.wrapping_mul(ORDER_K).wrapping_add(u64::from(s.latency_ms) + 1);
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
        self.latency_hist.merge(&other.latency_hist);
        self.latency_order = self
            .latency_order
            .wrapping_mul(order_k_pow(other.requests))
            .wrapping_add(other.latency_order);
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
        // Every bucket index is at most `LATENCY_TOP_BUCKET_MS`.
        let tail = |q| self.latency_hist.quantile(q) as u32;
        let latency_tail = TailLatency {
            p50_ms: tail(0.50),
            p95_ms: tail(0.95),
            p99_ms: tail(0.99),
            p999_ms: tail(0.999),
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
    /// Nearest-rank latency tail (p50 / p95 / p99 / p99.9).
    pub latency_tail: TailLatency,
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
        assert_eq!(h.cdf_at(0), 0.0);
        assert_eq!(h.cdf_at(2), 0.5);
        assert_eq!(h.cdf_at(3), 1.0);
        assert_eq!(h.cdf_at(usize::MAX), 1.0);
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
        assert_eq!(h.cdf_at(5), 0.0);
    }

    /// The sort-based nearest rank the histogram tails replaced: the
    /// value at rank `ceil(q·N)` (1-based) of the sorted samples, 0 for
    /// none.
    fn nearest_rank(sorted: &[u32], q: f64) -> u32 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn latency(ms: u32) -> Sample {
        Sample { hops: 1, lower_hops: 0, latency_ms: ms, lower_latency_ms: 0 }
    }

    #[test]
    fn histogram_tails_match_the_sort_reference() {
        let mut rng = hieras_rt::Rng::seed_from_u64(31);
        let mut cases: Vec<Vec<u32>> = vec![vec![], vec![0], vec![42], vec![9; 7], vec![0; 5]];
        for n in [2u64, 10, 999, 1000, 4_321] {
            let spread = 1 + rng.next_u64_below(5_000);
            cases.push((0..n).map(|_| rng.next_u64_below(spread) as u32).collect());
        }
        for samples in cases {
            let mut m = Metrics::default();
            for &ms in &samples {
                m.record(latency(ms));
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let reference = TailLatency {
                p50_ms: nearest_rank(&sorted, 0.50),
                p95_ms: nearest_rank(&sorted, 0.95),
                p99_ms: nearest_rank(&sorted, 0.99),
                p999_ms: nearest_rank(&sorted, 0.999),
            };
            assert_eq!(m.summary().latency_tail, reference, "{} samples", samples.len());
            let max = sorted.last().copied().unwrap_or(0);
            for x in [0, max / 3, max / 2, max, max + 1] {
                let at_most = sorted.partition_point(|&v| v <= x);
                let expect = if sorted.is_empty() { 0.0 } else { at_most as f64 / sorted.len() as f64 };
                assert_eq!(m.latency_hist.cdf_at(x as usize), expect, "P(X <= {x})");
            }
        }
    }

    #[test]
    fn latency_order_ignores_chunking_and_sees_order() {
        let mut rng = hieras_rt::Rng::seed_from_u64(7);
        let samples: Vec<u32> = (0..1_000).map(|_| rng.next_u64_below(3_000) as u32).collect();
        let fold = |chunks: &mut dyn Iterator<Item = &[u32]>| {
            chunks
                .map(|c| {
                    let mut m = Metrics::default();
                    for &ms in c {
                        m.record(latency(ms));
                    }
                    m
                })
                .fold(Metrics::default(), Metrics::merged)
        };
        let whole = fold(&mut samples.chunks(samples.len()));
        for size in [1, 7, 256] {
            assert_eq!(fold(&mut samples.chunks(size)), whole, "chunk size {size}");
        }
        let (a, b) = samples.split_at(500);
        let swapped = fold(&mut [b, a].into_iter());
        assert_eq!(swapped.latency_hist, whole.latency_hist);
        assert_ne!(swapped.latency_order, whole.latency_order, "swapping two chunks is seen");
        assert_ne!(swapped, whole);
    }

    #[test]
    fn saturated_latency_stays_in_one_bounded_bucket() {
        let c = RouteCost { hops: 2, lower_hops: 1, latency_ms: u64::MAX, lower_latency_ms: 5, destination: 1 };
        let mut m = Metrics::default();
        m.record(Sample::from(c));
        m.record(latency(30));
        assert_eq!(m.latency_hist.max_value(), LATENCY_TOP_BUCKET_MS as usize, "not ≈ 34 GB of buckets");
        assert_eq!(m.latency_hist.count(LATENCY_TOP_BUCKET_MS as usize), 1);
        assert_eq!(m.total_latency_ms, u64::from(u32::MAX) + 30, "the sum stays exact");
        assert_eq!(m.summary().latency_tail.p99_ms, LATENCY_TOP_BUCKET_MS);
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
        assert_eq!(m.latency_hist.total(), 2);
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
