//! Every metric the benchmark emits: name, unit, direction, meaning.
//!
//! `BENCHMARK.json` at the repo root carries the same names (plus the
//! end-to-end bounds); a test holds the two equal in both directions,
//! and [`crate::report::Report::finish`] refuses to emit a run whose
//! metrics differ from the catalogue.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub what: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        what,
    }
}

use Better::{Higher, Lower};

/// What a user of the engine would feel. Emitted with `--trace 0`.
#[rustfmt::skip] // one row per metric
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower, "wall time of one Experiment::build_with call (lower tercile of the run's set-ups, one per segment)"),
    m("lookups_per_s", "1/s", Higher, "HIERAS look-ups completed per wall second (fastest tenth of reps)"),
    m("churn_events_per_s", "1/s", Higher, "churn-schedule events applied and published per wall second (events over the lower-tercile wall time of the passes or reps)"),
    m("publish_us_p50", "us", Lower, "median epoch publish latency (delta or rebuild + snapshot + publish)"),
    m("publish_us_p99", "us", Lower, "p99 epoch publish latency: the full-rebuild fallback epochs"),
    m("peak_rss_bytes", "bytes", Lower, "VmHWM of the workload's process"),
    m("route_ms_p50", "ms", Lower, "median simulated HIERAS path latency"),
    m("route_ms_p99", "ms", Lower, "p99 simulated HIERAS path latency"),
    m("route_ms_p999", "ms", Lower, "p99.9 simulated HIERAS path latency"),
    m("route_hops_mean", "hops", Lower, "mean simulated HIERAS hop count"),
    m("hieras_chord_latency_ratio", "ratio", Lower, "mean HIERAS path latency over mean Chord path latency (the paper's claim)"),
];

/// One layer each (layers are the crate names). Emitted with `--trace 1`.
#[rustfmt::skip] // one row per metric
pub const PER_LAYER: &[MetricDef] = &[
    // Look-up stack: ns of span self time per unit, single thread.
    m("sim.draw_ns", "ns", Lower, "Workload::request per look-up"),
    m("sim.record_ns", "ns", Lower, "Metrics::record + merged per look-up"),
    m("chord.lookup_ns", "ns", Lower, "ChordOracle::lookup_into per look-up"),
    m("core.route_ns", "ns", Lower, "HierasOracle::route_with (hops recorded) per routed look-up"),
    m("core.eval_ns", "ns", Lower, "HierasOracle::eval with a zero-cost link callback per look-up"),
    m("core.lower_latency_share", "share", Higher, "share of HIERAS path latency spent in lower-layer rings (exact)"),
    m("topology.latency_ns_per_query", "ns", Lower, "LatencyOracle::latency over the recorded hop pairs"),
    m("topology.latency_queries_per_lookup", "count", Lower, "latency queries per look-up (exact)"),
    m("topology.memo_hit_share", "share", Higher, "per-thread label memo hits over queries (0 on the rows backend)"),
    m("topology.label_avg_len", "count", Lower, "mean hub-label length (0 on the rows backend)"),
    m("rt.par_fold_ns_per_chunk", "ns", Lower, "empty-body Executor::par_fold per 256-request chunk at the workload's thread count"),
    m("serve.pin_ns", "ns", Lower, "Reader::refresh + snapshot per call"),
    m("serve.verify_us", "us", Lower, "ServeSnapshot::verify per adopted epoch"),
    m("serve.cache_get_ns", "ns", Lower, "LookupCache::get per probe"),
    m("serve.cache_insert_ns", "ns", Lower, "LookupCache::insert per offered answer"),
    m("serve.cache_hit_share", "share", Higher, "chunk-fresh cache hits over probes on the workload's request stream (exact)"),
    m("obs.shard_lookup_ns", "ns", Lower, "TelemetryShard::lookup per look-up"),
    m("obs.shard_merge_us", "us", Lower, "TelemetryShard::merged per chunk shard"),
    m("obs.report_build_ms", "ms", Lower, "TelemetryShard::into_report once per run"),
    // Maintainer stack: µs of span self time per epoch.
    m("churn.schedule_build_ms", "ms", Lower, "ChurnConfig::schedule"),
    m("churn.apply_batch_us", "us", Lower, "MembershipReplay::apply_next_recording per epoch"),
    m("churn.live_members_us", "us", Lower, "MembershipReplay::live_members per epoch"),
    m("core.rebin_us_per_round", "us", Lower, "landmark RTTs + Binning::order_with_noise for every live peer, per re-bin round"),
    m("core.delta_touch_us", "us", Lower, "HierasOracle::delta_touch_stats per epoch"),
    m("core.apply_delta_us", "us", Lower, "HierasOracle::apply_delta_on per delta epoch"),
    m("core.full_build_us", "us", Lower, "Experiment::subset_hieras_on per full-rebuild epoch"),
    m("core.oracle_clone_us", "us", Lower, "HierasOracle::clone per epoch"),
    m("core.digest_us", "us", Lower, "HierasOracle::hierarchy_digest per epoch"),
    m("core.delta_share", "share", Higher, "epochs the engine applies as a delta over epochs it publishes, re-binning live (exact)"),
    m("chord.ring_build_us", "us", Lower, "RingView::build_on over the live global ring, per epoch"),
    m("chord.ring_delta_us", "us", Lower, "RingView::apply_delta of the epoch's batch onto the global ring"),
    m("chord.pool_reuse_share", "share", Higher, "RingArenaPool buffers reused over buffers retired to it"),
    m("serve.snapshot_new_us", "us", Lower, "ServeSnapshot::new per epoch"),
    m("serve.publish_us", "us", Lower, "Publisher::publish per epoch"),
    m("serve.reclaim_us", "us", Lower, "Publisher::reclaim_with + recycle_into per epoch"),
    m("serve.reclaim_lag_peak", "count", Lower, "peak retired-snapshot backlog"),
    // Set-up stack: public constructors on the built Experiment's inputs.
    m("topology.generate_ms", "ms", Lower, "TransitStubConfig::generate_on"),
    m("topology.oracle_build_ms", "ms", Lower, "rows: LatencyOracle::new + precompute_on; labels: with_labels_on"),
    m("topology.oracle_bytes", "bytes", Lower, "LatencyOracle::cache_bytes"),
    m("id.sha1_ns_per_id", "ns", Lower, "Id::hash_of a node name"),
    m("core.landmark_order_ms", "ms", Lower, "landmark RTTs + Binning::order for every peer"),
    m("chord.build_ms", "ms", Lower, "ChordOracle::build_on"),
    m("core.build_ms", "ms", Lower, "HierasOracle::build_on"),
    m("core.arena_bytes", "bytes", Lower, "HierasOracle::arena_stats().bytes"),
    m("bench.trace_overhead_pct", "%", Lower, "staged look-up pipeline wall time over the untraced engine's, minus one"),
];

/// The catalogue as a markdown table (README.md carries a copy).
pub fn print() {
    for (title, defs) in [
        ("End-to-end (`--trace 0`)", END_TO_END),
        ("Per-layer (`--trace 1`)", PER_LAYER),
    ] {
        println!("### {title}\n\n| metric | unit | better | what |\n|---|---|---|---|");
        for d in defs {
            println!(
                "| `{}` | {} | {} | {} |",
                d.name,
                d.unit,
                d.better.label(),
                d.what
            );
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hieras_rt::Json;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_follow_the_contract_syntax() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "bad metric name {:?}", d.name);
            assert!(unit_ok(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} is catalogued twice", d.name);
        }
        for w in crate::spec::Spec::all() {
            assert!(
                name_ok(w.name) && seen.insert(w.name),
                "bad or reused workload name {}",
                w.name
            );
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(!name_ok("") && !name_ok(".x") && !name_ok("a b") && !name_ok("é"));
    }

    /// Two-way: every catalogued metric is in BENCHMARK.json with the
    /// same unit and direction, and BENCHMARK.json names nothing else.
    #[test]
    fn catalogue_equals_benchmark_json() {
        let j = benchmark_json();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = j.get(key).and_then(Json::as_arr).expect("metric list");
            let theirs: Vec<(String, String, String)> = listed
                .iter()
                .map(|e| {
                    (
                        e.field::<String>("name").unwrap(),
                        e.field::<String>("unit").unwrap(),
                        e.field::<String>("better").unwrap(),
                    )
                })
                .collect();
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| {
                    (
                        d.name.to_owned(),
                        d.unit.to_owned(),
                        d.better.label().to_owned(),
                    )
                })
                .collect();
            assert_eq!(
                ours, theirs,
                "{key} differs between catalogue.rs and BENCHMARK.json"
            );
        }
        for e in j.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound: f64 = e.field("bound").unwrap();
            assert!((0.0..=0.25).contains(&bound));
        }
        let setup = &j.get("end_to_end").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(setup.field::<String>("name").unwrap(), "setup_s");
    }

    #[test]
    fn workloads_equal_benchmark_json() {
        let j = benchmark_json();
        let theirs: Vec<(String, String)> = j
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                (
                    w.field::<String>("name").unwrap(),
                    w.field::<String>("why").unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = crate::spec::Spec::all()
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(ours, theirs);
    }
}
