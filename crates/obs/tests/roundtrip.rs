//! JSON round-trip coverage for every obs type a program reads back
//! (the telemetry stream's histograms and registries, the span trace's
//! events): a value serialized with `ToJson` must parse back equal
//! through `FromJson`, and malformed shapes must be rejected rather
//! than silently zeroed.

use hieras_obs::{LogHistogram, Registry, TraceEvent, Tracer};
use hieras_rt::{from_str, to_string, FromJson, Json, ToJson};

#[test]
fn log_histogram_round_trips() {
    let mut h = LogHistogram::new();
    for v in [0u64, 1, 3, 250, 250, 1_000_000, u64::MAX] {
        h.record(v);
    }
    let back: LogHistogram = from_str(&to_string(&h)).unwrap();
    assert_eq!(back, h);
    assert_eq!(back.quantile(0.5), h.quantile(0.5));
    // Empty histograms round-trip too.
    let empty: LogHistogram = from_str(&to_string(&LogHistogram::new())).unwrap();
    assert_eq!(empty, LogHistogram::new());
}

#[test]
fn log_histogram_rejects_inconsistent_totals() {
    let mut h = LogHistogram::new();
    h.record(5);
    let mut json = h.to_json();
    if let Json::Obj(fields) = &mut json {
        for (k, v) in fields.iter_mut() {
            if k == "total" {
                *v = Json::U64(99);
            }
        }
    }
    assert!(LogHistogram::from_json(&json).is_err());
    // `quantile` clamps into [min, max]: min > max would panic there,
    // and an empty histogram is all zeros.
    for bad in [
        r#"{"counts":[0,1],"total":1,"sum":1,"min":5,"max":3}"#,
        r#"{"counts":[0],"total":0,"sum":0,"min":1,"max":1}"#,
        r#"{"counts":[],"total":0,"sum":7,"min":0,"max":0}"#,
    ] {
        assert!(from_str::<LogHistogram>(bad).is_err(), "{bad} must be rejected");
    }
}

#[test]
fn registry_round_trips_with_all_three_kinds() {
    let mut r = Registry::new();
    r.inc_by("net.deliver.find_succ", 41);
    r.inc("net.timeout");
    r.gauge_set("population", 300);
    r.gauge_set("negative", -7);
    for v in [12u64, 90, 3000] {
        r.observe("lookup.latency_ms", v);
    }
    let back: Registry = from_str(&to_string(&r)).unwrap();
    assert_eq!(back, r);
    assert_eq!(back.snapshot(), r.snapshot());
    assert_eq!(back.counter("net.deliver.find_succ"), 41);
    assert_eq!(back.gauge("negative"), Some(-7));
    assert_eq!(back.hist("lookup.latency_ms").unwrap().total(), 3);
}

#[test]
fn empty_registry_round_trips() {
    let back: Registry = from_str(&to_string(&Registry::new())).unwrap();
    assert!(back.is_empty());
    assert!(from_str::<Registry>("{\"counters\":{}}").is_err(), "missing sections rejected");
}

#[test]
fn trace_events_round_trip_via_jsonl() {
    let mut t = Tracer::bounded(64);
    let lookup = t.open(100, "lookup", &[("origin", 7), ("layer", 2)]);
    t.instant(130, "hop", &[("layer", 2), ("hops", 1)]);
    t.instant(160, "hop", &[("layer", 1), ("hops", 2)]);
    t.close(200, lookup, &[("hops", 2), ("latency_ms", 100)]);
    let events = Tracer::parse_jsonl(&t.to_jsonl()).unwrap();
    assert_eq!(events.len(), 4);
    for (a, b) in t.events().iter().zip(events.iter()) {
        assert_eq!(a, b);
    }
    // Single-event round trip through the value API as well.
    let one: TraceEvent = from_str(&to_string(&events[0])).unwrap();
    assert_eq!(one, events[0]);
}

#[test]
fn trace_event_rejects_unknown_kind() {
    assert!(from_str::<TraceEvent>(
        "{\"t\":1,\"e\":\"explode\",\"span\":1,\"parent\":0,\"name\":\"x\",\"f\":{}}"
    )
    .is_err());
}
