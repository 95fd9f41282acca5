//! Time-resolved telemetry: rotating windowed metrics, a bounded
//! slow-lookup flight recorder, and an SLO monitor.
//!
//! End-of-run aggregates hide transients — a two-second p99 spike
//! during a landmark death disappears into a sixty-second mean. The
//! types here keep the time axis: producers feed per-thread
//! [`TelemetryShard`]s that bucket every observation into a
//! fixed-width **window** (sim-time in deterministic modes, wall-clock
//! in free-running ones), and the shards fold **merge-order-invariantly**
//! — counters add, histograms add bucket-wise, gauges take the
//! maximum, and the per-window top-K slow-lookup sets merge by
//! union-then-truncate under a total order — so a deterministic run
//! produces bit-identical windowed output at any thread count.
//!
//! The assembled [`TimeSeriesReport`] serializes two ways: embedded
//! JSON (everything, including slow lookups and SLO breaches) and a
//! JSONL stream ([`TimeSeriesReport::to_jsonl`]) of one meta line plus
//! one line per window, parseable back through [`hieras_rt::FromJson`].

use crate::names;
use crate::registry::{LogHistogram, Registry};
use crate::trace::Tracer;
use hieras_rt::{FromJson, Json, JsonError, ToJson};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Schema tag of the JSONL stream's leading meta line.
pub const TIMESERIES_SCHEMA: &str = "hieras.timeseries/v1";

/// One window of telemetry: fixed-width slice of the run's time axis.
///
/// `lookups` counts every lookup that landed in the window; `latency`
/// holds only the *successful* ones (in engines without a failure
/// path, that is all of them), `failures` and `retries` count the
/// rest. `health` carries the maintenance-side `serve.epoch.*` gauges
/// and counters observed during the window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryWindow {
    /// Window index: `floor(now / window_ms)` on the producer's clock.
    pub index: u64,
    /// Lookups that completed in this window (success or not).
    pub lookups: u64,
    /// Lookups that failed (wrong owner, unresolved, …).
    pub failures: u64,
    /// Retry attempts beyond the first, summed over the window.
    pub retries: u64,
    /// Latency of each successful lookup, ms.
    pub latency: LogHistogram,
    /// Epoch-health gauges and counters (`serve.epoch.*`).
    pub health: Registry,
}

impl TelemetryWindow {
    /// An empty window at `index`.
    #[must_use]
    pub fn empty(index: u64) -> Self {
        TelemetryWindow { index, ..TelemetryWindow::default() }
    }

    /// Merges a sibling observation of the **same** window
    /// (order-invariant: counters add, histograms add, gauges max).
    ///
    /// # Panics
    /// Panics if the indices differ — merging different windows is a
    /// bucketing bug, not a degenerate merge.
    pub fn merge(&mut self, other: &TelemetryWindow) {
        assert_eq!(self.index, other.index, "merging two different windows");
        self.lookups += other.lookups;
        self.failures += other.failures;
        self.retries += other.retries;
        self.latency.merge(&other.latency);
        self.health.merge(&other.health);
    }
}

impl ToJson for TelemetryWindow {
    fn to_json(&self) -> Json {
        // The quantiles are derived from `latency` at serialization
        // time — a parse/re-serialize round trip reproduces them
        // exactly, so the JSONL stays bit-stable through `FromJson`.
        Json::obj([
            ("window", self.index.to_json()),
            ("lookups", self.lookups.to_json()),
            ("failures", self.failures.to_json()),
            ("retries", self.retries.to_json()),
            ("p50_ms", self.latency.quantile(0.50).to_json()),
            ("p95_ms", self.latency.quantile(0.95).to_json()),
            ("p99_ms", self.latency.quantile(0.99).to_json()),
            ("p999_ms", self.latency.quantile(0.999).to_json()),
            ("latency_ms", self.latency.to_json()),
            ("health", self.health.to_json()),
        ])
    }
}

impl FromJson for TelemetryWindow {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(TelemetryWindow {
            index: v.field("window")?,
            lookups: v.field("lookups")?,
            failures: v.field("failures")?,
            retries: v.field("retries")?,
            latency: v.field("latency_ms")?,
            health: v.field("health")?,
        })
    }
}

/// One hop of a recorded slow lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// Hop source (global peer index).
    pub from: u32,
    /// Hop destination (global peer index).
    pub to: u32,
    /// Hierarchy layer the hop ran in (1 = global ring).
    pub layer: u8,
    /// Link latency of the hop, ms.
    pub ms: u16,
}

impl ToJson for HopRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("from", self.from.to_json()),
            ("to", self.to.to_json()),
            ("layer", self.layer.to_json()),
            ("ms", self.ms.to_json()),
        ])
    }
}

/// A flight-recorded lookup: one of the K slowest of its window, with
/// its full hop trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowLookup {
    /// Window the lookup completed in.
    pub window: u64,
    /// End-to-end latency, ms.
    pub latency_ms: u64,
    /// Lookup source (global peer index).
    pub src: u32,
    /// Raw looked-up key.
    pub key: u64,
    /// Producer-assigned sequence number; with `src`/`key` it makes
    /// the slowest-first order total, so the merged top-K is unique.
    pub seq: u64,
    /// Every hop of the route, in order.
    pub path: Vec<HopRecord>,
}

impl SlowLookup {
    /// Replays this lookup into `tracer` as one span (opened at
    /// `t0_ms`, closed at `t0_ms + latency_ms`) with one `hop` instant
    /// per hop at its cumulative offset — the same span shape the
    /// message transport emits, so `hieras-timeline --chrome-trace`
    /// renders flight-recorder dumps without a second format.
    pub fn record_into(&self, tracer: &mut Tracer, t0_ms: u64) {
        let span = tracer.open(
            t0_ms,
            "serve.slow_lookup",
            &[
                ("window", self.window),
                ("latency_ms", self.latency_ms),
                ("src", u64::from(self.src)),
                ("key", self.key),
                ("seq", self.seq),
            ],
        );
        let mut at = t0_ms;
        for h in &self.path {
            at += u64::from(h.ms);
            tracer.instant(
                at,
                "hop",
                &[
                    ("from", u64::from(h.from)),
                    ("to", u64::from(h.to)),
                    ("layer", u64::from(h.layer)),
                    ("ms", u64::from(h.ms)),
                ],
            );
        }
        tracer.close(t0_ms + self.latency_ms, span, &[("hops", self.path.len() as u64)]);
    }
}

impl ToJson for SlowLookup {
    fn to_json(&self) -> Json {
        Json::obj([
            ("window", self.window.to_json()),
            ("latency_ms", self.latency_ms.to_json()),
            ("src", self.src.to_json()),
            ("key", self.key.to_json()),
            ("seq", self.seq.to_json()),
            ("path", Json::Arr(self.path.iter().map(ToJson::to_json).collect())),
        ])
    }
}

/// Slowest-first total order: latency descending, then sequence, then
/// source, then key ascending. Total, so union-then-truncate merges of
/// per-shard top-K sets are associative, commutative, and **exact**:
/// an entry dropped from a shard's local top-K is dominated by K
/// entries that all survive into any superset's top-K.
fn slow_rank(a: &SlowLookup, b: &SlowLookup) -> Ordering {
    b.latency_ms
        .cmp(&a.latency_ms)
        .then(a.seq.cmp(&b.seq))
        .then(a.src.cmp(&b.src))
        .then(a.key.cmp(&b.key))
}

/// Merges `extra` into the rank-sorted top-`k` vector `kept`.
fn merge_topk(kept: &mut Vec<SlowLookup>, extra: Vec<SlowLookup>, k: usize) {
    kept.extend(extra);
    kept.sort_by(slow_rank);
    kept.truncate(k);
}

/// A per-thread telemetry accumulator: rotates observations into
/// [`TelemetryWindow`]s and keeps the K slowest lookups per window
/// (the flight recorder).
///
/// The hot path is one branch: while observations stay inside the
/// current window they hit a resident accumulator; a window change
/// flushes it into the finished-window map. Shards merge with
/// [`TelemetryShard::merged`] in any order to the same result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryShard {
    k: usize,
    started: bool,
    cur_index: u64,
    cur: TelemetryWindow,
    cur_slow: Vec<SlowLookup>,
    done: BTreeMap<u64, TelemetryWindow>,
    slow_done: BTreeMap<u64, Vec<SlowLookup>>,
}

impl TelemetryShard {
    /// A fresh shard keeping the `slow_k` slowest lookups per window
    /// (0 disables the flight recorder).
    #[must_use]
    pub fn new(slow_k: usize) -> Self {
        TelemetryShard { k: slow_k, ..TelemetryShard::default() }
    }

    #[inline]
    fn roll(&mut self, window: u64) {
        if self.started && self.cur_index == window {
            return;
        }
        self.flush();
        self.started = true;
        self.cur_index = window;
        self.cur.index = window;
    }

    fn flush(&mut self) {
        if !self.started {
            return;
        }
        let w = std::mem::take(&mut self.cur);
        let slow = std::mem::take(&mut self.cur_slow);
        self.done
            .entry(self.cur_index)
            .or_insert_with(|| TelemetryWindow::empty(self.cur_index))
            .merge(&w);
        if !slow.is_empty() {
            merge_topk(self.slow_done.entry(self.cur_index).or_default(), slow, self.k);
        }
        self.started = false;
    }

    /// Records one successful lookup of `latency_ms` in `window`.
    #[inline]
    pub fn lookup(&mut self, window: u64, latency_ms: u64) {
        self.roll(window);
        self.cur.lookups += 1;
        self.cur.latency.record(latency_ms);
    }

    /// Records one successful lookup and reports whether it would
    /// enter the window's slow top-K — the cheap pre-check before
    /// [`TelemetryShard::admit_slow`]. Exact: the current top-K is
    /// rank-sorted, so its last entry is the floor.
    #[inline]
    pub fn lookup_qualifies(&mut self, window: u64, latency_ms: u64) -> bool {
        self.roll(window);
        self.cur.lookups += 1;
        self.cur.latency.record(latency_ms);
        self.k != 0
            && (self.cur_slow.len() < self.k
                || latency_ms > self.cur_slow.last().expect("k > 0").latency_ms)
    }

    /// Records one failed lookup (counted, not observed into the
    /// latency histogram).
    pub fn lookup_failed(&mut self, window: u64) {
        self.roll(window);
        self.cur.lookups += 1;
        self.cur.failures += 1;
    }

    /// Records `n` retry attempts beyond the first.
    pub fn retries(&mut self, window: u64, n: u64) {
        self.roll(window);
        self.cur.retries += n;
    }

    /// The window's health registry, for maintenance-side gauges and
    /// counters (`serve.epoch.*`).
    pub fn health(&mut self, window: u64) -> &mut Registry {
        self.roll(window);
        &mut self.cur.health
    }

    /// The open window's top-K admission floor: the latency of its
    /// K-th slowest entry, once the set is full (`None` until then).
    ///
    /// A same-window lookup **strictly below** the floor is outranked
    /// by the K entries at or above it (greater latency dominates
    /// `slow_rank` regardless of tie-breaks), so it can never enter
    /// the window's final merged top-K — producers may share the
    /// largest floor across shards as an exact capture-pruning hint.
    #[must_use]
    pub fn slow_floor(&self) -> Option<u64> {
        (self.k > 0 && self.cur_slow.len() == self.k)
            .then(|| self.cur_slow.last().expect("k > 0").latency_ms)
    }

    /// Admits a slow lookup into its window's top-K. A producer may
    /// admit it with an empty `path` and fill the hop traces of the
    /// entries that survive later, through
    /// [`TelemetryShard::slow_mut`].
    pub fn admit_slow(&mut self, rec: SlowLookup) {
        if self.k == 0 {
            return;
        }
        self.roll(rec.window);
        self.cur_slow.push(rec);
        self.cur_slow.sort_by(slow_rank);
        self.cur_slow.truncate(self.k);
    }

    /// `window`'s flight-recorder entries held so far, for a producer
    /// to complete in place. Rank (`slow_rank`) never reads `path`,
    /// so filling it cannot reorder the top-K.
    pub fn slow_mut(&mut self, window: u64) -> impl Iterator<Item = &mut SlowLookup> {
        let open: &mut [SlowLookup] =
            if self.started && self.cur_index == window { &mut self.cur_slow } else { &mut [] };
        self.slow_done.get_mut(&window).into_iter().flatten().chain(open)
    }

    /// Folds another shard into this one. Window contents merge
    /// field-wise and the per-window top-K sets merge by
    /// union-then-truncate — both order-invariant, so any fold order
    /// over any partition of the observations yields identical state.
    #[must_use]
    pub fn merged(mut self, mut other: TelemetryShard) -> TelemetryShard {
        self.flush();
        other.flush();
        self.k = self.k.max(other.k);
        for (i, w) in other.done {
            self.done.entry(i).or_insert_with(|| TelemetryWindow::empty(i)).merge(&w);
        }
        for (i, slow) in other.slow_done {
            merge_topk(self.slow_done.entry(i).or_default(), slow, self.k);
        }
        self
    }

    /// Total lookups recorded so far (including the open window).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.done.values().map(|w| w.lookups).sum::<u64>() + self.cur.lookups
    }

    /// Finalizes into a [`TimeSeriesReport`], scanning for SLO
    /// breaches when a spec is given.
    #[must_use]
    pub fn into_report(
        mut self,
        mode: &str,
        window_ms: u64,
        slo: Option<SloSpec>,
    ) -> TimeSeriesReport {
        self.flush();
        let windows: Vec<TelemetryWindow> = self.done.into_values().collect();
        let slow: Vec<SlowLookup> = self.slow_done.into_values().flatten().collect();
        let breaches = slo.map(|s| s.scan(&windows)).unwrap_or_default();
        TimeSeriesReport {
            meta: TimeSeriesMeta { mode: mode.to_owned(), window_ms },
            windows,
            slow,
            breaches,
        }
    }
}

/// Per-window service-level objective: a p99 latency budget and a
/// failure-rate budget in parts per million.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSpec {
    /// Largest acceptable per-window p99 latency, ms.
    pub p99_ms: u64,
    /// Largest acceptable per-window failure rate, ppm of lookups.
    pub max_failure_ppm: u64,
}

impl SloSpec {
    /// Scans finished windows and reports every breach, carrying the
    /// epoch/churn activity that co-occurred with it.
    #[must_use]
    pub fn scan(&self, windows: &[TelemetryWindow]) -> Vec<SloBreach> {
        windows
            .iter()
            .filter(|w| w.lookups > 0)
            .filter_map(|w| {
                let p99_ms = w.latency.quantile(0.99);
                let failure_ppm = w.failures * 1_000_000 / w.lookups;
                let p99_over = p99_ms > self.p99_ms;
                let failures_over = failure_ppm > self.max_failure_ppm;
                (p99_over || failures_over).then(|| SloBreach {
                    window: w.index,
                    lookups: w.lookups,
                    p99_ms,
                    failure_ppm,
                    p99_over,
                    failures_over,
                    epochs_published: w.health.counter(names::SERVE_EPOCH_PUBLISHED),
                    churn_events: w.health.counter(names::SERVE_EPOCH_JOINS)
                        + w.health.counter(names::SERVE_EPOCH_LEAVES)
                        + w.health.counter(names::SERVE_EPOCH_FAILS),
                })
            })
            .collect()
    }
}

/// One window that violated the [`SloSpec`], with the epoch/churn
/// events that ran inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloBreach {
    /// The breaching window's index.
    pub window: u64,
    /// Lookups the window served.
    pub lookups: u64,
    /// The window's p99 latency, ms.
    pub p99_ms: u64,
    /// The window's failure rate, ppm.
    pub failure_ppm: u64,
    /// The p99 budget was exceeded.
    pub p99_over: bool,
    /// The failure-rate budget was exceeded.
    pub failures_over: bool,
    /// Epochs published during the window (`serve.epoch.published`).
    pub epochs_published: u64,
    /// Membership events applied during the window (joins + leaves +
    /// fails).
    pub churn_events: u64,
}

impl ToJson for SloBreach {
    fn to_json(&self) -> Json {
        Json::obj([
            ("window", self.window.to_json()),
            ("lookups", self.lookups.to_json()),
            ("p99_ms", self.p99_ms.to_json()),
            ("failure_ppm", self.failure_ppm.to_json()),
            ("p99_over", self.p99_over.to_json()),
            ("failures_over", self.failures_over.to_json()),
            ("epochs_published", self.epochs_published.to_json()),
            ("churn_events", self.churn_events.to_json()),
        ])
    }
}

/// How the windows of a [`TimeSeriesReport`] were cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeriesMeta {
    /// Window clock: `"sim"` (schedule time — deterministic) or
    /// `"wall"` (free-running wall clock).
    pub mode: String,
    /// Window width on that clock, ms (positive; parsing rejects 0).
    pub window_ms: u64,
}

impl ToJson for TimeSeriesMeta {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", TIMESERIES_SCHEMA.to_json()),
            ("mode", self.mode.to_json()),
            ("window_ms", self.window_ms.to_json()),
        ])
    }
}

impl FromJson for TimeSeriesMeta {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let schema: String = v.field("schema")?;
        if schema != TIMESERIES_SCHEMA {
            return Err(JsonError(format!("unknown timeseries schema `{schema}`")));
        }
        let window_ms: u64 = v.field("window_ms")?;
        if window_ms == 0 {
            return Err(JsonError("timeseries window_ms must be positive".into()));
        }
        Ok(TimeSeriesMeta { mode: v.field("mode")?, window_ms })
    }
}

/// The assembled time series of one run: meta, finished windows in
/// ascending index order, the flight-recorded slow lookups, and any
/// SLO breaches.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesReport {
    /// Window clock and width.
    pub meta: TimeSeriesMeta,
    /// Finished windows, ascending by index. Windows that saw no
    /// observation are absent, not zero-filled.
    pub windows: Vec<TelemetryWindow>,
    /// The K slowest lookups per window, windows ascending, slowest
    /// first within a window.
    pub slow: Vec<SlowLookup>,
    /// Windows that violated the SLO, ascending.
    pub breaches: Vec<SloBreach>,
}

impl TimeSeriesReport {
    /// Populated windows.
    #[must_use]
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Lookups across all windows (saturating).
    #[must_use]
    pub fn total_lookups(&self) -> u64 {
        self.windows.iter().fold(0u64, |sum, w| sum.saturating_add(w.lookups))
    }

    /// The JSONL stream: one meta line, then one compact line per
    /// window. Slow lookups and breaches are *not* part of the stream
    /// (they ride in the embedded JSON and the trace dump), so
    /// [`TimeSeriesReport::parse_jsonl`] followed by `to_jsonl` is
    /// byte-identical.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = self.meta.to_json().dump();
        out.push('\n');
        for w in &self.windows {
            out.push_str(&w.to_json().dump());
            out.push('\n');
        }
        out
    }

    /// Parses a stream produced by [`TimeSeriesReport::to_jsonl`].
    ///
    /// # Errors
    /// On a malformed line (naming its 1-based number), a bad schema
    /// tag, or windows out of ascending order.
    pub fn parse_jsonl(text: &str) -> Result<TimeSeriesReport, JsonError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .map(|(i, l)| {
                hieras_rt::from_str(l)
                    .map_err(|e| JsonError(format!("line {}: {}", i + 1, e.0)))
                    .map(|j| (i, j))
            });
        let (_, meta_json) =
            lines.next().ok_or_else(|| JsonError("empty timeseries stream".into()))??;
        let meta = TimeSeriesMeta::from_json(&meta_json)?;
        let mut windows = Vec::new();
        for line in lines {
            let (i, j) = line?;
            let w = TelemetryWindow::from_json(&j)
                .map_err(|e| JsonError(format!("line {}: {}", i + 1, e.0)))?;
            if let Some(prev) = windows.last() {
                let prev: &TelemetryWindow = prev;
                if w.index <= prev.index {
                    return Err(JsonError(format!(
                        "line {}: window {} out of ascending order",
                        i + 1,
                        w.index
                    )));
                }
            }
            windows.push(w);
        }
        Ok(TimeSeriesReport {
            meta,
            windows,
            slow: Vec::new(),
            breaches: Vec::new(),
        })
    }

    /// Replays every flight-recorded lookup into a fresh [`Tracer`]
    /// (spans opened at `window * window_ms`), producing the same
    /// JSONL span format the message transport emits — viewable
    /// through `hieras-timeline --chrome-trace`.
    #[must_use]
    pub fn slow_trace(&self) -> Tracer {
        let events = self.slow.iter().map(|s| s.path.len() + 2).sum::<usize>();
        let mut t = Tracer::bounded(events.max(1));
        for s in &self.slow {
            s.record_into(&mut t, s.window * self.meta.window_ms);
        }
        t
    }
}

impl ToJson for TimeSeriesReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("meta", self.meta.to_json()),
            ("windows", Json::Arr(self.windows.iter().map(ToJson::to_json).collect())),
            ("slow", Json::Arr(self.slow.iter().map(ToJson::to_json).collect())),
            ("breaches", Json::Arr(self.breaches.iter().map(ToJson::to_json).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow(window: u64, latency: u64, seq: u64) -> SlowLookup {
        SlowLookup {
            window,
            latency_ms: latency,
            src: seq as u32,
            key: seq ^ 0xabcd,
            seq,
            path: vec![HopRecord { from: 0, to: 1, layer: 1, ms: latency as u16 }],
        }
    }

    #[test]
    fn windows_rotate_and_accumulate() {
        let mut s = TelemetryShard::new(2);
        s.lookup(0, 10);
        s.lookup(0, 20);
        s.lookup_failed(0);
        s.retries(0, 3);
        s.lookup(2, 5);
        let r = s.into_report("sim", 100, None);
        assert_eq!(r.window_count(), 2, "untouched windows are absent");
        assert_eq!(r.windows[0].index, 0);
        assert_eq!(r.windows[0].lookups, 3);
        assert_eq!(r.windows[0].failures, 1);
        assert_eq!(r.windows[0].retries, 3);
        assert_eq!(r.windows[0].latency.total(), 2, "failures stay out of the histogram");
        assert_eq!(r.windows[1].index, 2);
        assert_eq!(r.total_lookups(), 4);
    }

    #[test]
    fn shard_merge_is_order_invariant() {
        let feed = |s: &mut TelemetryShard, obs: &[(u64, u64)]| {
            for &(w, ms) in obs {
                if s.lookup_qualifies(w, ms) {
                    s.admit_slow(slow(w, ms, ms));
                }
            }
        };
        let mk = |obs: &[(u64, u64)]| {
            let mut s = TelemetryShard::new(2);
            feed(&mut s, obs);
            s
        };
        let a = mk(&[(0, 10), (1, 500), (1, 2)]);
        let b = mk(&[(0, 99), (2, 7)]);
        let c = mk(&[(1, 501), (1, 499), (0, 1)]);
        let abc = a.clone().merged(b.clone()).merged(c.clone());
        let cba = c.merged(b).merged(a);
        let ra = abc.into_report("sim", 10, None);
        let rb = cba.into_report("sim", 10, None);
        assert_eq!(ra, rb);
        assert_eq!(ra.to_jsonl(), rb.to_jsonl(), "windowed JSONL must be byte-identical");
        assert_eq!(ra.slow, rb.slow, "merged top-K must be identical too");
    }

    #[test]
    fn flight_recorder_keeps_the_exact_global_top_k() {
        // Split one observation stream across three shards in odd ways;
        // the merged top-2 per window must equal the brute-force top-2.
        let obs: Vec<(u64, u64, u64)> = (0..30u64)
            .map(|i| (i % 3, (i * 37) % 11, i)) // (window, latency, seq)
            .collect();
        let mut shards = vec![
            TelemetryShard::new(2),
            TelemetryShard::new(2),
            TelemetryShard::new(2),
        ];
        for (n, &(w, ms, seq)) in obs.iter().enumerate() {
            let s = &mut shards[n % 3];
            if s.lookup_qualifies(w, ms) {
                s.admit_slow(slow(w, ms, seq));
            }
        }
        let merged = shards
            .into_iter()
            .reduce(TelemetryShard::merged)
            .expect("non-empty")
            .into_report("sim", 10, None);
        for w in 0..3u64 {
            let mut want: Vec<SlowLookup> =
                obs.iter().filter(|o| o.0 == w).map(|&(w, ms, seq)| slow(w, ms, seq)).collect();
            want.sort_by(slow_rank);
            want.truncate(2);
            let got: Vec<SlowLookup> =
                merged.slow.iter().filter(|s| s.window == w).cloned().collect();
            assert_eq!(got, want, "window {w}");
        }
    }

    #[test]
    fn path_less_admission_filled_through_slow_mut_equals_eager_capture() {
        // (window, latency, seq) per shard; window 0 ends up flushed,
        // window 1 stays open in shard `a`.
        let feeds: [&[(u64, u64, u64)]; 2] =
            [&[(0, 50, 1), (0, 70, 2), (0, 5, 3), (1, 10, 4)], &[(0, 60, 5), (1, 99, 6)]];
        let shards = |eager: bool| {
            feeds.map(|obs| {
                let mut s = TelemetryShard::new(2);
                for &(w, ms, seq) in obs {
                    if s.lookup_qualifies(w, ms) {
                        let mut rec = slow(w, ms, seq);
                        if !eager {
                            rec.path.clear();
                        }
                        s.admit_slow(rec);
                    }
                }
                s
            })
        };
        let fill = |s: &mut TelemetryShard, w: u64| {
            let mut n = 0;
            for rec in s.slow_mut(w) {
                rec.path = slow(rec.window, rec.latency_ms, rec.seq).path;
                n += 1;
            }
            n
        };
        let [mut a, b] = shards(false);
        assert_eq!(fill(&mut a, 1), 1, "the open window's entries are reachable");
        assert_eq!(fill(&mut a, 7), 0, "an untouched window has none");
        let mut lazy = a.merged(b);
        assert_eq!(fill(&mut lazy, 0), 2, "only the merged top-K is left to fill");
        assert_eq!(fill(&mut lazy, 1), 2);
        let [ea, eb] = shards(true);
        assert_eq!(
            lazy.into_report("sim", 10, None),
            ea.merged(eb).into_report("sim", 10, None),
            "filling survivors late must equal capturing every candidate early"
        );
    }

    #[test]
    fn slow_k_zero_disables_the_recorder() {
        let mut s = TelemetryShard::new(0);
        assert!(!s.lookup_qualifies(0, 1000));
        s.admit_slow(slow(0, 1000, 1));
        assert!(s.into_report("sim", 10, None).slow.is_empty());
    }

    #[test]
    fn slo_scan_flags_breaches_with_context() {
        let mut s = TelemetryShard::new(0);
        // Window 0: healthy. Window 1: slow p99 + failures + churn.
        for _ in 0..100 {
            s.lookup(0, 10);
        }
        for _ in 0..49 {
            s.lookup(1, 10);
        }
        s.lookup(1, 5000);
        s.lookup_failed(1);
        s.health(1).inc(names::SERVE_EPOCH_PUBLISHED);
        s.health(1).inc_by(names::SERVE_EPOCH_JOINS, 2);
        s.health(1).inc(names::SERVE_EPOCH_FAILS);
        let spec = SloSpec { p99_ms: 100, max_failure_ppm: 1000 };
        let r = s.into_report("sim", 1000, Some(spec));
        assert_eq!(r.breaches.len(), 1);
        let b = r.breaches[0];
        assert_eq!(b.window, 1);
        assert!(b.p99_over, "p99 {} must exceed 100", b.p99_ms);
        assert!(b.failures_over, "1 failure in 51 lookups is ~19600 ppm");
        assert_eq!(b.epochs_published, 1);
        assert_eq!(b.churn_events, 3);
    }

    #[test]
    fn jsonl_round_trips_byte_identically() {
        let mut s = TelemetryShard::new(1);
        for i in 0..50u64 {
            s.lookup(i / 10, i * 3);
        }
        s.lookup_failed(2);
        s.health(3).gauge_set(names::SERVE_EPOCH_SNAPSHOT_AGE_MS, 42);
        let r = s.into_report("sim", 250, None);
        let text = r.to_jsonl();
        let back = TimeSeriesReport::parse_jsonl(&text).unwrap();
        assert_eq!(back.to_jsonl(), text, "parse → serialize must be the identity");
        assert_eq!(back.meta, r.meta);
        assert_eq!(back.windows, r.windows);
    }

    #[test]
    fn malformed_jsonl_is_rejected_with_line_numbers() {
        assert!(TimeSeriesReport::parse_jsonl("").is_err(), "empty stream");
        let bad_schema = "{\"schema\":\"nope/v0\",\"mode\":\"sim\",\"window_ms\":10}\n";
        assert!(TimeSeriesReport::parse_jsonl(bad_schema).is_err());
        let mut s = TelemetryShard::new(0);
        s.lookup(0, 1);
        let good = s.into_report("sim", 10, None).to_jsonl();
        let err = TimeSeriesReport::parse_jsonl(&format!("{good}not json\n")).unwrap_err();
        assert!(err.0.contains("line 3"), "{err}");
        // JSON that would break the renderer: a histogram whose
        // min > max (its quantile clamp panics), a zero window width.
        let (meta, window) = good.split_once('\n').unwrap();
        let bad = window.replace(r#""min":1,"max":1"#, r#""min":5,"max":3"#);
        assert_ne!(bad, window);
        let err = TimeSeriesReport::parse_jsonl(&format!("{meta}\n{bad}")).unwrap_err();
        assert!(err.0.contains("line 2") && err.0.contains("min"), "{err}");
        let zero = meta.replace(r#""window_ms":10"#, r#""window_ms":0"#);
        assert_ne!(zero, meta);
        let err = TimeSeriesReport::parse_jsonl(&format!("{zero}\n{window}")).unwrap_err();
        assert!(err.0.contains("window_ms"), "{err}");
    }

    /// A hostile line nested a million deep is a parse error on its
    /// line, not a stack overflow.
    #[test]
    fn deeply_nested_line_is_an_error() {
        let mut s = TelemetryShard::new(0);
        s.lookup(0, 1);
        let good = s.into_report("sim", 10, None).to_jsonl();
        let deep = "[".repeat(1_000_000);
        let err = TimeSeriesReport::parse_jsonl(&format!("{good}{deep}\n")).unwrap_err();
        assert!(err.0.contains("line 3") && err.0.contains("nesting"), "{err}");
        assert!(TimeSeriesReport::parse_jsonl(&deep).is_err(), "as the meta line");
    }

    #[test]
    fn slow_trace_replays_spans_per_hop() {
        let mut s = TelemetryShard::new(1);
        if s.lookup_qualifies(2, 30) {
            let mut rec = slow(2, 30, 0);
            rec.path = vec![
                HopRecord { from: 0, to: 4, layer: 2, ms: 10 },
                HopRecord { from: 4, to: 9, layer: 1, ms: 20 },
            ];
            s.admit_slow(rec);
        }
        let r = s.into_report("sim", 100, None);
        let t = r.slow_trace();
        assert_eq!(t.len(), 4, "open + 2 hops + close");
        let evs: Vec<_> = t.events().iter().collect();
        assert_eq!(evs[0].t_ms, 200, "span opens at window * window_ms");
        assert_eq!(evs[1].t_ms, 210, "hops land at cumulative offsets");
        assert_eq!(evs[3].t_ms, 230, "span closes after the full latency");
    }
}
