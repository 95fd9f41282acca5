//! JSON round-trips of every public configuration and result type —
//! experiments must be fully describable and replayable from JSON
//! using only the in-tree `hieras::rt` reader/writer.

use hieras::core::{Binning, HierasConfig, LandmarkOrder, RingTable};
use hieras::id::{Id, IdSpace};
use hieras::prelude::*;
use hieras::rt::{FromJson, Json, ToJson};
use hieras::sim::Experiment;

fn roundtrip<T: ToJson + FromJson>(v: &T) -> T {
    let text = v.to_json().dump();
    T::from_json(&Json::parse(&text).expect("parse")).expect("deserialize")
}

#[test]
fn id_serializes_transparently_as_u64() {
    let id = Id(0xdead_beef_1234_5678);
    assert_eq!(id.to_json().dump(), "16045690981402826360");
    assert_eq!(roundtrip(&id), id);
}

#[test]
fn config_types_roundtrip() {
    let cfg = ExperimentConfig {
        kind: TopologyKind::Brite,
        nodes: 1234,
        requests: 567,
        hieras: HierasConfig { depth: 3, landmarks: 7, binning: Binning::new(vec![10, 80, 300]) },
        seed: 99,
        rtt_noise: 0.25,
    };
    assert_eq!(roundtrip(&cfg), cfg);
    assert_eq!(roundtrip(&IdSpace::new(16).unwrap()), IdSpace::new(16).unwrap());
}

#[test]
fn ring_table_and_order_roundtrip() {
    let order = LandmarkOrder::new(&[0, 2, 1]).unwrap();
    let mut t = RingTable::new(&order);
    for i in [5u64, 900, 17, 40000] {
        t.observe(Id(i));
    }
    let back: RingTable = roundtrip(&t);
    assert_eq!(back, t);
    assert_eq!(roundtrip(&order), order);
}

/// Hostile landmark orders, ring names and landmark counts are JSON
/// errors, never a panic or a clamp: `[9]` and `[12]` once rendered to
/// the same ring name "9" and shared one ring table.
#[test]
fn out_of_range_orders_and_ring_names_are_rejected() {
    let parse = |text: &str| Json::parse(text).expect("well-formed JSON");
    assert!(LandmarkOrder::from_json(&parse("[9]")).is_ok());
    for bad in ["[12]", "[0, 10]", "[255]", "[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]", "\"012\""] {
        assert!(LandmarkOrder::from_json(&parse(bad)).is_err(), "order {bad}");
    }
    let table = |name: &str| {
        let id = Id::hash_of(name.as_bytes()).0;
        format!(r#"{{"ring_id": {id}, "ring_name": "{name}", "members": []}}"#)
    };
    assert!(RingTable::from_json(&parse(&table("012"))).is_ok());
    assert!(RingTable::from_json(&parse(&table(""))).is_ok());
    for bad in ["7x", "x", "-1", "0123456789012345678"] {
        assert!(RingTable::from_json(&parse(&table(bad))).is_err(), "ring name {bad:?}");
    }
    let mut cfg = HierasConfig::paper();
    cfg.landmarks = 16;
    assert_eq!(roundtrip(&cfg), cfg);
    cfg.landmarks = 17;
    assert!(HierasConfig::from_json(&parse(&cfg.to_json().dump())).is_err(), "17 landmarks");
}

/// A ring table's id is `SHA-1(ring name)`, nothing else: a table
/// naming one ring with another ring's id (or any stray id) would be
/// stored at, and looked up from, the wrong holder.
#[test]
fn ring_table_with_a_foreign_ring_id_is_rejected() {
    let parse = |text: &str| Json::parse(text).expect("well-formed JSON");
    let table = |id: Id, name: &str| {
        parse(&format!(r#"{{"ring_id": {}, "ring_name": "{name}", "members": [3, 9]}}"#, id.0))
    };
    let own = Id::hash_of(b"012");
    assert_eq!(RingTable::from_json(&table(own, "012")).expect("own id").ring_id, own);
    for stray in [Id(1), Id(0), Id::hash_of(b"01"), Id::hash_of(b"210"), Id(own.0 ^ 1)] {
        assert!(RingTable::from_json(&table(stray, "012")).is_err(), "ring id {stray:?}");
    }
    assert!(RingTable::from_json(&table(own, "01")).is_err(), "name of another ring");
}

#[test]
fn metrics_and_summary_roundtrip_through_json() {
    let e = Experiment::build(ExperimentConfig {
        kind: TopologyKind::TransitStub,
        nodes: 120,
        requests: 500,
        hieras: HierasConfig::paper(),
        seed: 4,
        rtt_noise: 0.0,
    });
    let r = e.run();
    let m: Metrics = roundtrip(&r.hieras);
    assert_eq!(m.total_hops, r.hieras.total_hops);
    assert_eq!(m.hop_hist, r.hieras.hop_hist);
    let s = r.hieras.summary();
    let s2: hieras::sim::Summary = roundtrip(&s);
    assert_eq!(s, s2);
}

#[test]
fn topology_configs_roundtrip() {
    use hieras::topology::{BriteConfig, InetConfig, TransitStubConfig};
    let ts = TransitStubConfig::for_peers(1000, 5);
    assert_eq!(roundtrip(&ts), ts);
    let inet = InetConfig::for_peers(4000, 6);
    assert_eq!(roundtrip(&inet), inet);
    let brite = BriteConfig::for_peers(2000, 7);
    assert_eq!(roundtrip(&brite), brite);
}

#[test]
fn route_traces_roundtrip() {
    use hieras::core::{HopRecord, RouteTrace};
    let t = RouteTrace {
        origin: 3,
        hops: vec![
            HopRecord { from: 3, to: 9, layer: 2 },
            HopRecord { from: 9, to: 1, layer: 1 },
        ],
    };
    assert_eq!(roundtrip(&t), t);
}
