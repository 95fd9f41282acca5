//! Markdown renderers for the figures binary and EXPERIMENTS.md, plus
//! the ASCII timeline views `hieras-timeline` prints for
//! [`TimeSeriesReport`] streams.

use crate::{DepthRow, LandmarkRow, SizeRow};
use hieras_obs::TimeSeriesReport;
use std::fmt::Write as _;

/// Renders Figure 2 (average hops vs network size) as markdown.
#[must_use]
pub fn fig2_table(rows: &[SizeRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "| model | nodes | Chord hops | HIERAS hops | HIERAS/Chord |");
    let _ = writeln!(s, "|-------|------:|-----------:|------------:|-------------:|");
    for r in rows {
        let _ = writeln!(
            s,
            "| {} | {} | {:.4} | {:.4} | {:+.2}% |",
            r.kind,
            r.nodes,
            r.chord.avg_hops,
            r.hieras.avg_hops,
            (r.hieras.avg_hops / r.chord.avg_hops - 1.0) * 100.0
        );
    }
    s
}

/// Renders Figure 3 (average latency vs network size) as markdown.
#[must_use]
pub fn fig3_table(rows: &[SizeRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "| model | nodes | Chord ms | HIERAS ms | HIERAS/Chord |");
    let _ = writeln!(s, "|-------|------:|---------:|----------:|-------------:|");
    for r in rows {
        let _ = writeln!(
            s,
            "| {} | {} | {:.1} | {:.1} | {:.2}% |",
            r.kind,
            r.nodes,
            r.chord.avg_latency_ms,
            r.hieras.avg_latency_ms,
            r.hieras.avg_latency_ms / r.chord.avg_latency_ms * 100.0
        );
    }
    s
}

/// Renders Figures 6/7 (landmark sweep) as markdown.
#[must_use]
pub fn landmark_table(rows: &[LandmarkRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "| landmarks | rings | Chord hops | HIERAS hops | lower hops | Chord ms | HIERAS ms | ratio |"
    );
    let _ = writeln!(
        s,
        "|----------:|------:|-----------:|------------:|-----------:|---------:|----------:|------:|"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "| {} | {} | {:.3} | {:.3} | {:.3} | {:.1} | {:.1} | {:.1}% |",
            r.landmarks,
            r.rings,
            r.chord.avg_hops,
            r.hieras.avg_hops,
            r.hieras.avg_lower_hops,
            r.chord.avg_latency_ms,
            r.hieras.avg_latency_ms,
            r.hieras.avg_latency_ms / r.chord.avg_latency_ms * 100.0
        );
    }
    s
}

/// Renders Figures 8/9 (depth sweep) as markdown.
#[must_use]
pub fn depth_table(rows: &[DepthRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "| nodes | depth | HIERAS hops | HIERAS ms | Chord ms | ratio |");
    let _ = writeln!(s, "|------:|------:|------------:|----------:|---------:|------:|");
    for r in rows {
        let _ = writeln!(
            s,
            "| {} | {} | {:.3} | {:.1} | {:.1} | {:.1}% |",
            r.nodes,
            r.depth,
            r.hieras.avg_hops,
            r.hieras.avg_latency_ms,
            r.chord.avg_latency_ms,
            r.hieras.avg_latency_ms / r.chord.avg_latency_ms * 100.0
        );
    }
    s
}

/// Renders a PDF histogram comparison (Figure 4).
#[must_use]
pub fn pdf_table(chord: &[f64], hieras: &[f64], hieras_lower: &[f64]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "| hops | Chord | HIERAS | HIERAS lower-layer |");
    let _ = writeln!(s, "|-----:|------:|-------:|-------------------:|");
    let len = chord.len().max(hieras.len()).max(hieras_lower.len());
    for h in 0..len {
        let g = |v: &[f64]| v.get(h).copied().unwrap_or(0.0);
        let _ = writeln!(
            s,
            "| {} | {:.4} | {:.4} | {:.4} |",
            h,
            g(chord),
            g(hieras),
            g(hieras_lower)
        );
    }
    s
}

/// Renders a latency CDF comparison (Figure 5).
#[must_use]
pub fn cdf_table(points: &[(u32, f64, f64)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "| latency ms | Chord CDF | HIERAS CDF |");
    let _ = writeln!(s, "|-----------:|----------:|-----------:|");
    for (x, c, h) in points {
        let _ = writeln!(s, "| {x} | {c:.4} | {h:.4} |");
    }
    s
}

/// Eight-level block-glyph sparkline over `values`, scaled to the
/// series' own maximum (an all-zero series renders all-low).
#[must_use]
pub fn sparkline(values: &[u64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0).max(1);
    values
        .iter()
        .map(|&v| GLYPHS[((u128::from(v) * 7).div_ceil(u128::from(max)) as usize).min(7)])
        .collect()
}

/// Renders a [`TimeSeriesReport`] as sparklines plus a per-window
/// table: lookups/s, tail quantiles, failures, retries, and the
/// windows' epoch activity (published snapshots, membership events).
#[must_use]
pub fn timeline_table(ts: &TimeSeriesReport) -> String {
    use hieras_obs::names;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# timeline: {} windows x {} ms ({} clock)",
        ts.window_count(),
        ts.meta.window_ms,
        ts.meta.mode
    );
    if ts.windows.is_empty() {
        return s;
    }
    let rate: Vec<u64> = ts.windows.iter().map(|w| w.lookups).collect();
    let p99: Vec<u64> = ts.windows.iter().map(|w| w.latency.quantile(0.99)).collect();
    let _ = writeln!(s, "lookups {}", sparkline(&rate));
    let _ = writeln!(s, "p99 ms  {}", sparkline(&p99));
    // Publish-latency series: wall-mode runs observe the maintainer's
    // per-publish µs into each window's health registry (sim windows
    // never carry wall durations, so the series is wall-only).
    let pub_p50 = |w: &hieras_obs::TelemetryWindow| {
        w.health.hist(names::SERVE_EPOCH_PUBLISH_US).map(|h| h.quantile(0.50))
    };
    if ts.windows.iter().any(|w| pub_p50(w).is_some()) {
        let series: Vec<u64> =
            ts.windows.iter().map(|w| pub_p50(w).unwrap_or(0)).collect();
        let _ = writeln!(s, "pub µs  {}", sparkline(&series));
    }
    // Cache hit-rate series: runs with the hot-key lookup cache on
    // fold per-window probe/hit counters into each window's health
    // registry; cache-off runs never carry them, so the section only
    // appears when there is something to show.
    let cache_probes =
        |w: &hieras_obs::TelemetryWindow| w.health.counter(names::SERVE_CACHE_WINDOW_LOOKUPS);
    let cache_hits =
        |w: &hieras_obs::TelemetryWindow| w.health.counter(names::SERVE_CACHE_WINDOW_HITS);
    if ts.windows.iter().any(|w| cache_probes(w) > 0) {
        let pct: Vec<u64> = ts
            .windows
            .iter()
            .map(|w| {
                let pct = (u128::from(cache_hits(w)) * 100).checked_div(cache_probes(w).into());
                pct.map_or(0, |p| u64::try_from(p).unwrap_or(u64::MAX))
            })
            .collect();
        let _ = writeln!(s, "cache % {}", sparkline(&pct));
        let (hits, probes) = ts
            .windows
            .iter()
            .fold((0u64, 0u64), |(h, p), w| {
                (h.saturating_add(cache_hits(w)), p.saturating_add(cache_probes(w)))
            });
        let _ = writeln!(
            s,
            "# cache: {hits} hits / {probes} lookups ({:.1}%), per-window {}",
            100.0 * hits as f64 / probes.max(1) as f64,
            pct.iter()
                .map(|p| format!("{p}%"))
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    let _ = writeln!(
        s,
        "| window | lookups | lookups/s | p50 | p95 | p99 | p99.9 | fail | retry | epochs | full | pub µs | churn |"
    );
    let _ = writeln!(
        s,
        "|-------:|--------:|----------:|----:|----:|----:|------:|-----:|------:|-------:|-----:|-------:|------:|"
    );
    for w in &ts.windows {
        let per_sec = w.lookups as f64 * 1000.0 / ts.meta.window_ms as f64;
        let churn = [names::SERVE_EPOCH_JOINS, names::SERVE_EPOCH_LEAVES, names::SERVE_EPOCH_FAILS]
            .iter()
            .fold(0u64, |sum, &name| sum.saturating_add(w.health.counter(name)));
        let _ = writeln!(
            s,
            "| {} | {} | {:.0} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            w.index,
            w.lookups,
            per_sec,
            w.latency.quantile(0.50),
            w.latency.quantile(0.95),
            w.latency.quantile(0.99),
            w.latency.quantile(0.999),
            w.failures,
            w.retries,
            w.health.counter(names::SERVE_EPOCH_PUBLISHED),
            w.health.counter(names::SERVE_EPOCH_FULL_REBUILDS),
            pub_p50(w).map_or_else(|| "-".to_owned(), |v| v.to_string()),
            churn,
        );
    }
    // Fallback flags: in a run where the incremental path was active
    // (some window rebuilt by delta), call out every window the
    // maintainer fell back to a full rebuild — the windows whose
    // publish latency spikes off the delta baseline.
    let delta_active =
        ts.windows.iter().any(|w| w.health.counter(names::SERVE_EPOCH_DELTA_REBUILDS) > 0);
    let fallbacks: Vec<&hieras_obs::TelemetryWindow> = ts
        .windows
        .iter()
        .filter(|w| w.health.counter(names::SERVE_EPOCH_FULL_REBUILDS) > 0)
        .collect();
    if delta_active && !fallbacks.is_empty() {
        let _ = writeln!(s, "# full-rebuild fallbacks: {} windows", fallbacks.len());
        for w in fallbacks {
            let _ = writeln!(
                s,
                "window {}: {} full of {} rebuilds{}",
                w.index,
                w.health.counter(names::SERVE_EPOCH_FULL_REBUILDS),
                w.health.counter(names::SERVE_EPOCH_PUBLISHED),
                pub_p50(w).map_or_else(String::new, |v| format!(", publish p50 {v} µs")),
            );
        }
    }
    if !ts.breaches.is_empty() {
        let _ = writeln!(s, "# SLO breaches: {}", ts.breaches.len());
        for b in &ts.breaches {
            let _ = writeln!(
                s,
                "window {}: p99 {} ms ({}), failures {} ppm ({}); {} epochs, {} churn events",
                b.window,
                b.p99_ms,
                if b.p99_over { "OVER" } else { "ok" },
                b.failure_ppm,
                if b.failures_over { "OVER" } else { "ok" },
                b.epochs_published,
                b.churn_events,
            );
        }
    }
    if !ts.slow.is_empty() {
        let _ = writeln!(s, "# flight recorder: {} slow lookups", ts.slow.len());
        for rec in &ts.slow {
            let _ = writeln!(
                s,
                "window {}: {} ms, {} -> key {:#018x}, {} hops",
                rec.window,
                rec.latency_ms,
                rec.src,
                rec.key,
                rec.path.len(),
            );
        }
    }
    s
}

/// Renders per-window deltas between two time series (`b - a`) —
/// lookups, p99, failures — so churn-vs-quiesced transients diff in
/// CI logs. Windows present in only one series render with a `-` on
/// the missing side.
#[must_use]
pub fn timeline_compare(a: &TimeSeriesReport, b: &TimeSeriesReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# compare: {} vs {} windows ({} ms {} | {} ms {})",
        a.window_count(),
        b.window_count(),
        a.meta.window_ms,
        a.meta.mode,
        b.meta.window_ms,
        b.meta.mode
    );
    let _ = writeln!(s, "| window | lookups a | lookups b | Δlookups | p99 a | p99 b | Δp99 | fail a | fail b |");
    let _ = writeln!(s, "|-------:|----------:|----------:|---------:|------:|------:|-----:|-------:|-------:|");
    let mut ia = a.windows.iter().peekable();
    let mut ib = b.windows.iter().peekable();
    loop {
        let (wa, wb) = match (ia.peek(), ib.peek()) {
            (None, None) => break,
            (Some(x), Some(y)) if x.index == y.index => (ia.next(), ib.next()),
            (Some(x), Some(y)) if x.index < y.index => (ia.next(), None),
            (Some(_), Some(_)) | (None, Some(_)) => (None, ib.next()),
            (Some(_), None) => (ia.next(), None),
        };
        let idx = wa.or(wb).expect("one side advanced").index;
        let fmt = |w: Option<&hieras_obs::TelemetryWindow>,
                   f: fn(&hieras_obs::TelemetryWindow) -> u64| {
            w.map_or_else(|| "-".to_owned(), |w| f(w).to_string())
        };
        let delta = |f: fn(&hieras_obs::TelemetryWindow) -> u64| match (wa, wb) {
            (Some(x), Some(y)) => format!("{:+}", i128::from(f(y)) - i128::from(f(x))),
            _ => "-".to_owned(),
        };
        let _ = writeln!(
            s,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            idx,
            fmt(wa, |w| w.lookups),
            fmt(wb, |w| w.lookups),
            delta(|w| w.lookups),
            fmt(wa, |w| w.latency.quantile(0.99)),
            fmt(wb, |w| w.latency.quantile(0.99)),
            delta(|w| w.latency.quantile(0.99)),
            fmt(wa, |w| w.failures),
            fmt(wb, |w| w.failures),
        );
    }
    // Flash-crowd flags: windows whose lookup volume spikes to at
    // least 3x the stream's own median — the signature a flash-crowd
    // workload leaves on the timeline. Flagged per side so a
    // crowd-vs-uniform diff names exactly where the surge landed.
    for (name, ts) in [("a", a), ("b", b)] {
        let mut volumes: Vec<u64> = ts.windows.iter().map(|w| w.lookups).collect();
        volumes.sort_unstable();
        let median = volumes.get(volumes.len() / 2).copied().unwrap_or(0);
        let crowded: Vec<&hieras_obs::TelemetryWindow> = if median > 0 {
            ts.windows.iter().filter(|w| w.lookups >= median.saturating_mul(3)).collect()
        } else {
            Vec::new()
        };
        if !crowded.is_empty() {
            let _ = writeln!(
                s,
                "# flash-crowd windows ({name}): {} of {} (median {median} lookups/window)",
                crowded.len(),
                ts.window_count(),
            );
            for w in crowded {
                let _ = writeln!(
                    s,
                    "window {}: {} lookups ({:.1}x median), p99 {} ms",
                    w.index,
                    w.lookups,
                    w.lookups as f64 / median as f64,
                    w.latency.quantile(0.99),
                );
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use hieras_sim::Summary;

    fn summary(hops: f64, ms: f64) -> Summary {
        Summary {
            requests: 10,
            avg_hops: hops,
            avg_latency_ms: ms,
            avg_lower_hops: 1.0,
            lower_hop_share: 0.5,
            lower_latency_share: 0.3,
            avg_link_delay_top_ms: 80.0,
            avg_link_delay_lower_ms: 25.0,
            latency_tail: hieras_sim::TailLatency {
                p50_ms: ms as u32,
                p95_ms: ms as u32,
                p99_ms: ms as u32,
                p999_ms: ms as u32,
            },
        }
    }

    #[test]
    fn tables_contain_all_rows_and_ratios() {
        let rows = vec![SizeRow {
            kind: "TS",
            nodes: 1000,
            chord: summary(6.0, 500.0),
            hieras: summary(6.1, 250.0),
        }];
        let t2 = fig2_table(&rows);
        assert!(t2.contains("| TS | 1000 |"));
        assert!(t2.contains("+1.67%"));
        let t3 = fig3_table(&rows);
        assert!(t3.contains("50.00%"));
    }

    #[test]
    fn pdf_table_pads_ragged_series() {
        let t = pdf_table(&[0.5, 0.5], &[1.0], &[0.2, 0.3, 0.5]);
        assert!(t.contains("| 2 | 0.0000 | 0.0000 | 0.5000 |"));
    }

    #[test]
    fn cdf_table_renders_points() {
        let t = cdf_table(&[(0, 0.0, 0.1), (100, 0.5, 0.9)]);
        assert!(t.contains("| 100 | 0.5000 | 0.9000 |"));
    }

    #[test]
    fn sparkline_scales_to_the_series_maximum() {
        assert_eq!(sparkline(&[0, 1]), "▁█");
        assert_eq!(sparkline(&[0, 0, 0]), "▁▁▁", "an all-zero series renders all-low");
        assert_eq!(sparkline(&[8, 4, 1]).chars().count(), 3);
        assert_eq!(sparkline(&[u64::MAX, 3]), "█▂", "no overflow at the top of the range");
    }

    fn demo_report() -> hieras_obs::TimeSeriesReport {
        use hieras_obs::{names, HopRecord, SloSpec, SlowLookup, TelemetryShard};
        let mut sh = TelemetryShard::new(1);
        sh.lookup(0, 10);
        sh.lookup(0, 20);
        sh.lookup(2, 500);
        sh.lookup_failed(2);
        sh.retries(2, 3);
        sh.health(2).inc(names::SERVE_EPOCH_PUBLISHED);
        sh.health(2).inc_by(names::SERVE_EPOCH_LEAVES, 2);
        sh.admit_slow(SlowLookup {
            window: 2,
            latency_ms: 500,
            src: 7,
            key: 0xabcd,
            seq: 1,
            path: vec![HopRecord { from: 7, to: 9, layer: 0, ms: 500 }],
        });
        sh.into_report("sim", 1000, Some(SloSpec { p99_ms: 100, max_failure_ppm: 1000 }))
    }

    #[test]
    fn timeline_table_renders_windows_breaches_and_flight_recorder() {
        let t = timeline_table(&demo_report());
        assert!(t.contains("# timeline: 2 windows x 1000 ms (sim clock)"), "{t}");
        // lookup_failed counts as a lookup too: 2 lookups, 1 failed.
        // No publish histogram (sim windows): the pub-µs cell dashes.
        assert!(t.contains("| 2 | 2 | 2 | 500 | 500 | 500 | 500 | 1 | 3 | 1 | 0 | - | 2 |"), "{t}");
        assert!(!t.contains("pub µs  "), "sim windows carry no publish series");
        assert!(!t.contains("fallbacks"), "no delta rebuilds, nothing to flag");
        assert!(t.contains("# SLO breaches: 1"), "{t}");
        assert!(t.contains("window 2: p99 500 ms (OVER)"), "{t}");
        assert!(t.contains("# flight recorder: 1 slow lookups"), "{t}");
        assert!(t.contains("window 2: 500 ms, 7 -> key 0x000000000000abcd, 1 hops"), "{t}");
    }

    #[test]
    fn timeline_table_flags_full_rebuild_fallbacks() {
        use hieras_obs::{names, TelemetryShard};
        let mut sh = TelemetryShard::new(0);
        // Window 0: two delta rebuilds. Window 1: one fell back full.
        sh.lookup(0, 10);
        sh.health(0).inc_by(names::SERVE_EPOCH_PUBLISHED, 2);
        sh.health(0).inc_by(names::SERVE_EPOCH_DELTA_REBUILDS, 2);
        sh.health(0).observe(names::SERVE_EPOCH_PUBLISH_US, 40);
        sh.lookup(1, 10);
        sh.health(1).inc_by(names::SERVE_EPOCH_PUBLISHED, 2);
        sh.health(1).inc(names::SERVE_EPOCH_DELTA_REBUILDS);
        sh.health(1).inc(names::SERVE_EPOCH_FULL_REBUILDS);
        sh.health(1).observe(names::SERVE_EPOCH_PUBLISH_US, 900);
        let t = timeline_table(&sh.into_report("wall", 250, None));
        assert!(t.contains("pub µs  "), "wall windows render the publish series");
        assert!(t.contains("# full-rebuild fallbacks: 1 windows"), "{t}");
        assert!(t.contains("window 1: 1 full of 2 rebuilds, publish p50 "), "{t}");
        // The per-window table carries the full count and publish p50.
        assert!(t.contains("| 0 | 1 | 4 | "), "{t}");
    }

    #[test]
    fn timeline_table_renders_cache_hit_rate_series() {
        use hieras_obs::{names, TelemetryShard};
        let mut sh = TelemetryShard::new(0);
        // Window 0: 4 probes, 1 hit. Window 1: 4 probes, 3 hits.
        sh.lookup(0, 10);
        sh.health(0).inc_by(names::SERVE_CACHE_WINDOW_LOOKUPS, 4);
        sh.health(0).inc_by(names::SERVE_CACHE_WINDOW_HITS, 1);
        sh.lookup(1, 10);
        sh.health(1).inc_by(names::SERVE_CACHE_WINDOW_LOOKUPS, 4);
        sh.health(1).inc_by(names::SERVE_CACHE_WINDOW_HITS, 3);
        let t = timeline_table(&sh.into_report("sim", 1000, None));
        assert!(t.contains("cache % "), "{t}");
        assert!(t.contains("# cache: 4 hits / 8 lookups (50.0%), per-window 25% 75%"), "{t}");
    }

    #[test]
    fn timeline_table_omits_cache_series_when_the_cache_is_off() {
        let t = timeline_table(&demo_report());
        assert!(!t.contains("cache %"), "cache-off windows render no cache series");
        assert!(!t.contains("# cache:"), "{t}");
    }

    #[test]
    fn timeline_compare_flags_flash_crowd_windows() {
        use hieras_obs::TelemetryShard;
        // Side a: steady 10 lookups/window. Side b: same stream with a
        // window-2 surge to 40 (4x the median of 10).
        let mut sa = TelemetryShard::new(0);
        let mut sb = TelemetryShard::new(0);
        for w in 0..4u64 {
            for _ in 0..10 {
                sa.lookup(w, 20);
                sb.lookup(w, 20);
            }
        }
        for _ in 0..30 {
            sb.lookup(2, 35);
        }
        let a = sa.into_report("sim", 1000, None);
        let b = sb.into_report("sim", 1000, None);
        let t = timeline_compare(&a, &b);
        assert!(!t.contains("flash-crowd windows (a)"), "{t}");
        assert!(t.contains("# flash-crowd windows (b): 1 of 4 (median 10 lookups/window)"), "{t}");
        assert!(t.contains("window 2: 40 lookups (4.0x median)"), "{t}");
    }

    #[test]
    fn timeline_compare_diffs_shared_windows_and_dashes_missing_ones() {
        let a = demo_report();
        let mut sh = hieras_obs::TelemetryShard::new(0);
        sh.lookup(0, 10);
        sh.lookup(1, 40);
        let b = sh.into_report("sim", 1000, None);
        let t = timeline_compare(&a, &b);
        // Window 0 in both: lookups 2 -> 1.
        assert!(t.contains("| 0 | 2 | 1 | -1 |"), "{t}");
        // Window 1 only in b, window 2 only in a: dashes on the gap.
        assert!(t.contains("| 1 | - | 1 | - |"), "{t}");
        assert!(t.contains("| 2 | 2 | - | - |"), "{t}");
    }

    #[test]
    fn depth_and_landmark_tables_render() {
        let d = depth_table(&[DepthRow {
            nodes: 5000,
            depth: 3,
            hieras: summary(6.2, 240.0),
            chord: summary(6.0, 500.0),
        }]);
        assert!(d.contains("| 5000 | 3 |"));
        let l = landmark_table(&[LandmarkRow {
            landmarks: 8,
            rings: 40,
            chord: summary(6.0, 500.0),
            hieras: summary(5.9, 216.0),
        }]);
        assert!(l.contains("| 8 | 40 |"));
    }
}
