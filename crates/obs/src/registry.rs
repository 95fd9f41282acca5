//! The metric registry: named counters, gauges, and log-bucketed
//! histograms.
//!
//! Like `hieras_sim::Metrics`, every container here is *mergeable* and
//! the merge is **order-invariant**: counters and histogram buckets
//! add, gauges take the maximum, and all maps iterate in key order
//! (`BTreeMap`), so folding per-thread registries in any sequence
//! produces byte-identical snapshots. That is the property the
//! parallel replay loop relies on.

use hieras_rt::{FromJson, Json, JsonError, ToJson};
use std::collections::BTreeMap;

/// A histogram over `u64` values with logarithmic (power-of-two)
/// buckets — constant memory regardless of the value range, exact
/// count/sum/min/max, and nearest-rank quantiles resolved to the
/// bucket upper bound (clamped into the observed `[min, max]`).
///
/// Bucket `0` holds the value `0`; bucket `b ≥ 1` holds values in
/// `[2^(b-1), 2^b - 1]` — i.e. the bucket index is the value's bit
/// length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index of a value: its bit length (0 for 0).
#[inline]
#[must_use]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Largest value bucket `b` can hold.
#[inline]
fn bucket_hi(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        if self.total == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observations (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 if empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observation (0 if empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the observations (0.0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The nearest-rank `q`-quantile (0.0 ≤ q ≤ 1.0), resolved to the
    /// upper bound of the bucket holding the rank-th observation and
    /// clamped into `[min, max]`. Empty histogram → 0.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
        if self.total == 0 {
            return 0;
        }
        // Nearest rank: the ceil(q*N)-th observation, 1-based (≥ 1).
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_hi(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one (order-invariant).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.total == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        if self.total == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

impl ToJson for LogHistogram {
    fn to_json(&self) -> Json {
        Json::obj([
            ("counts", self.counts.to_json()),
            ("total", self.total.to_json()),
            ("sum", self.sum.to_json()),
            ("min", self.min.to_json()),
            ("max", self.max.to_json()),
        ])
    }
}

impl FromJson for LogHistogram {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let h = LogHistogram {
            counts: v.field("counts")?,
            total: v.field("total")?,
            sum: v.field("sum")?,
            min: v.field("min")?,
            max: v.field("max")?,
        };
        // Checked: counts near `u64::MAX` must not overflow the sum.
        if h.counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c)) != Some(h.total) {
            return Err(JsonError("log histogram total does not match counts".into()));
        }
        // `quantile` clamps into [min, max]; an empty histogram is the
        // all-zero one `new` builds.
        let consistent = if h.total == 0 {
            h.min == 0 && h.max == 0 && h.sum == 0
        } else {
            h.min <= h.max
        };
        if !consistent {
            return Err(JsonError("log histogram min/max/sum inconsistent with its total".into()));
        }
        Ok(h)
    }
}

/// A named-metric registry: monotonic counters, gauges, and
/// [`LogHistogram`]s, each addressed by a dotted string name
/// (`net.deliver.find_succ`, `lookup.latency_ms`, …).
///
/// Backed by `BTreeMap`s so snapshots serialize in name order and the
/// merge is order-invariant — two registries folded in any order yield
/// the same bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, LogHistogram>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments counter `name` by 1.
    pub fn inc(&mut self, name: &str) {
        self.inc_by(name, 1);
    }

    /// Increments counter `name` by `by`.
    pub fn inc_by(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                self.counters.insert(name.to_owned(), by);
            }
        }
    }

    /// Current value of counter `name` (0 if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name`. On merge, gauges resolve to the maximum —
    /// the only commutative choice for last-value semantics — so use
    /// them for high-water marks.
    pub fn gauge_set(&mut self, name: &str, v: i64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_owned(), v);
            }
        }
    }

    /// Current value of gauge `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records `v` into histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        match self.hists.get_mut(name) {
            Some(h) => h.record(v),
            None => {
                let mut h = LogHistogram::new();
                h.record(v);
                self.hists.insert(name.to_owned(), h);
            }
        }
    }

    /// Histogram `name`, if any value was observed.
    #[must_use]
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// Counter names and values in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Merges another registry into this one. Counters and histograms
    /// add, gauges take the maximum; the operation is associative and
    /// commutative, so any fold order yields identical snapshots.
    pub fn merge(&mut self, other: &Registry) {
        for (k, &v) in &other.counters {
            self.inc_by(k, v);
        }
        for (k, &v) in &other.gauges {
            match self.gauges.get_mut(k) {
                Some(g) => *g = (*g).max(v),
                None => {
                    self.gauges.insert(k.clone(), v);
                }
            }
        }
        for (k, h) in &other.hists {
            match self.hists.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.hists.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Consuming merge for executor folds.
    #[must_use]
    pub fn merged(mut self, other: Registry) -> Registry {
        self.merge(&other);
        self
    }

    /// The canonical snapshot: pretty JSON, keys in name order.
    /// Byte-identical for equal registries — the thread-identity tests
    /// compare exactly this.
    #[must_use]
    pub fn snapshot(&self) -> String {
        self.to_json().dump_pretty()
    }
}

impl ToJson for Registry {
    fn to_json(&self) -> Json {
        let counters =
            Json::obj(self.counters.iter().map(|(k, v)| (k.clone(), v.to_json())));
        let gauges = Json::obj(self.gauges.iter().map(|(k, v)| (k.clone(), v.to_json())));
        let hists = Json::obj(self.hists.iter().map(|(k, h)| (k.clone(), h.to_json())));
        Json::obj([("counters", counters), ("gauges", gauges), ("hists", hists)])
    }
}

impl FromJson for Registry {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let obj_fields = |key: &str| -> Result<Vec<(String, Json)>, JsonError> {
            match v.get(key) {
                Some(Json::Obj(fields)) => Ok(fields.clone()),
                Some(_) => Err(JsonError(format!("field `{key}`: expected object"))),
                None => Err(JsonError(format!("missing field `{key}`"))),
            }
        };
        let mut r = Registry::default();
        for (k, c) in obj_fields("counters")? {
            r.counters.insert(k, u64::from_json(&c)?);
        }
        for (k, g) in obj_fields("gauges")? {
            r.gauges.insert(k, i64::from_json(&g)?);
        }
        for (k, h) in obj_fields("hists")? {
            r.hists.insert(k, LogHistogram::from_json(&h)?);
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_bit_lengths() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_hi(0), 0);
        assert_eq!(bucket_hi(2), 3);
        assert_eq!(bucket_hi(64), u64::MAX);
    }

    #[test]
    fn log_histogram_stats() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 5, 5, 100] {
            h.record(v);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.sum(), 111);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 22.2).abs() < 1e-12);
    }

    #[test]
    fn quantiles_resolve_to_bucket_bounds() {
        let mut h = LogHistogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        // rank(0.5) = 2nd obs (20) → bucket [16,31] → hi 31.
        assert_eq!(h.quantile(0.5), 31);
        // p0 clamps to min, p100 to max.
        assert_eq!(h.quantile(0.0), 15.max(h.min()));
        assert_eq!(h.quantile(1.0), 40);
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(LogHistogram::new().quantile(0.5), 0, "empty");
        let mut one = LogHistogram::new();
        one.record(7);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 7, "single observation at q={q}");
        }
        let mut ties = LogHistogram::new();
        for _ in 0..10 {
            ties.record(64);
        }
        assert_eq!(ties.quantile(0.5), 64, "all-ties clamp to the observed value");
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for v in [3u64, 9, 1000] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 500_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        // Merging an empty histogram changes nothing.
        a.merge(&LogHistogram::new());
        assert_eq!(a, all);
        let mut empty = LogHistogram::new();
        empty.merge(&all);
        assert_eq!(empty, all);
    }

    #[test]
    fn registry_counters_gauges_hists() {
        let mut r = Registry::new();
        r.inc("a.x");
        r.inc_by("a.x", 4);
        r.gauge_set("g", -3);
        r.gauge_set("g", 7);
        r.observe("h", 12);
        assert_eq!(r.counter("a.x"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("g"), Some(7));
        assert_eq!(r.hist("h").unwrap().total(), 1);
        assert!(!r.is_empty());
        assert!(Registry::new().is_empty());
    }

    #[test]
    fn merge_is_order_invariant() {
        let mk = |vals: &[u64], c: u64| {
            let mut r = Registry::new();
            r.inc_by("count", c);
            r.gauge_set("peak", c as i64);
            for &v in vals {
                r.observe("lat", v);
            }
            r
        };
        let (a, b, c) = (mk(&[1, 2], 3), mk(&[100], 1), mk(&[7, 7, 7], 9));
        let abc = a.clone().merged(b.clone()).merged(c.clone());
        let cba = c.merged(b).merged(a);
        assert_eq!(abc, cba);
        assert_eq!(abc.snapshot(), cba.snapshot(), "snapshots must be byte-identical");
        assert_eq!(abc.counter("count"), 13);
        assert_eq!(abc.gauge("peak"), Some(9));
        assert_eq!(abc.hist("lat").unwrap().total(), 6);
    }

    /// Counts whose sum overflows `u64` make an inconsistent histogram,
    /// not an overflow panic.
    #[test]
    fn overflowing_counts_are_rejected() {
        let text = r#"{"counts":[18446744073709551615,1],"total":0,"sum":0,"min":0,"max":0}"#;
        let json = hieras_rt::Json::parse(text).expect("valid JSON");
        assert!(<LogHistogram as hieras_rt::FromJson>::from_json(&json).is_err());
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let mut r = Registry::new();
        r.inc("zeta");
        r.inc("alpha");
        let s = r.snapshot();
        assert!(s.find("alpha").unwrap() < s.find("zeta").unwrap());
    }
}
