//! Byte-level reproduction of the paper's worked examples: Table 1
//! (binning orders), Table 2 (two-layer finger tables of node 121) and
//! Table 3 (ring-table structure), and the ring names those tables are
//! keyed by.

use hieras::core::{Binning, ConfigError, HierasConfig, HierasOracle, LandmarkOrder};
use hieras::id::{Id, IdSpace};
use std::sync::Arc;

/// Table 1: the six sample nodes and their landmark orders, verbatim.
#[test]
fn table1_verbatim() {
    let b = Binning::paper();
    let rows: [([u16; 4], &str); 6] = [
        ([25, 5, 30, 100], "1012"),
        ([40, 18, 12, 200], "1002"),
        ([100, 180, 5, 10], "2200"),
        ([160, 220, 8, 20], "2200"),
        ([45, 10, 100, 5], "1020"),
        ([20, 140, 50, 40], "0211"),
    ];
    for (rtts, want) in rows {
        assert_eq!(b.order(&rtts).name(), want);
    }
}

fn table2_system() -> HierasOracle {
    let space = IdSpace::new(8).unwrap();
    let nodes: [(u64, [u8; 3]); 9] = [
        (121, [0, 1, 2]),
        (124, [0, 0, 1]),
        (131, [0, 1, 1]),
        (139, [0, 2, 2]),
        (143, [0, 1, 2]),
        (158, [0, 1, 2]),
        (192, [0, 0, 1]),
        (212, [0, 1, 2]),
        (253, [0, 1, 2]),
    ];
    let ids: Arc<[Id]> = nodes.iter().map(|&(v, _)| Id(v)).collect::<Vec<_>>().into();
    let orders = nodes.iter().map(|&(_, d)| LandmarkOrder::new(&d).unwrap()).collect();
    HierasOracle::build(
        space,
        ids,
        orders,
        HierasConfig { depth: 2, landmarks: 3, binning: Binning::paper() },
    )
    .unwrap()
}

/// Table 2: node 121 ("012")'s finger tables in the 2^8 demo system.
/// Every start, interval and successor in both layers must match the
/// paper's printed table.
#[test]
fn table2_verbatim() {
    let oracle = table2_system();
    let rows = oracle.finger_rows(0); // node index 0 = id 121
    let want: [(u64, u64, u64, u64); 8] = [
        // (start, interval_end, layer1_succ, layer2_succ)
        (122, 123, 124, 143),
        (123, 125, 124, 143),
        (125, 129, 131, 143),
        (129, 137, 131, 143),
        (137, 153, 139, 143),
        (153, 185, 158, 158),
        (185, 249, 192, 212),
        (249, 121, 253, 253),
    ];
    assert_eq!(rows.len(), 8);
    for (row, (start, end, l1, l2)) in rows.iter().zip(want) {
        assert_eq!(row.start.raw(), start);
        assert_eq!(row.end.raw(), end);
        assert_eq!(oracle.id_of(row.successors[0]).raw(), l1, "layer-1 succ of {start}");
        assert_eq!(oracle.id_of(row.successors[1]).raw(), l2, "layer-2 succ of {start}");
    }
    // The paper's ring annotations: 124 is in "001", 131 in "011", 139
    // in "022", 143/158/212/253 in "012".
    let ring = |id: u64| {
        let idx = (0..9u32).find(|&i| oracle.id_of(i).raw() == id).unwrap();
        oracle.layers()[1].ring_name_of(idx).name()
    };
    assert_eq!(ring(124), "001");
    assert_eq!(ring(131), "011");
    assert_eq!(ring(139), "022");
    for id in [143, 158, 212, 253] {
        assert_eq!(ring(id), "012");
    }
}

/// Table 3: the ring table of "012" records the two smallest and two
/// largest member ids and lives at the ring-id's successor.
#[test]
fn table3_structure() {
    let oracle = table2_system();
    let name: LandmarkOrder = "012".parse().unwrap();
    let t = oracle.ring_table(&name).expect("ring 012 exists");
    // Members of "012": 121, 143, 158, 212, 253.
    assert_eq!(t.smallest(), Some(Id(121)));
    assert_eq!(t.second_smallest(), Some(Id(143)));
    assert_eq!(t.second_largest(), Some(Id(212)));
    assert_eq!(t.largest(), Some(Id(253)));
    assert_eq!(t.ring_id, Id::hash_of(b"012"));
    // Holder = global successor of the ring id.
    let holder = oracle.ring_table_holder(t.ring_id);
    assert_eq!(holder, oracle.owner_of(t.ring_id));
    // §3.3 replacement rule at the boundaries.
    assert!(t.should_update(Id(120))); // smaller than 2nd smallest
    assert!(t.should_update(Id(250))); // larger than 2nd largest
    assert!(!t.should_update(Id(150))); // middle of the pack
}

/// Hostile landmark orders, ring names and landmark counts are config
/// errors, never a panic or a clamp: `[9]` and `[12]` once rendered to
/// the same ring name "9" and shared one ring table.
#[test]
fn out_of_range_orders_and_ring_names_are_rejected() {
    let bad_order = |r: Result<LandmarkOrder, ConfigError>| {
        matches!(r, Err(ConfigError::BadLandmarkOrder(_)))
    };
    assert!(LandmarkOrder::new(&[9]).is_ok());
    for bad in [&[12][..], &[0, 10], &[255], &[0; 17]] {
        assert!(bad_order(LandmarkOrder::new(bad)), "order {bad:?}");
    }
    assert!("012".parse::<LandmarkOrder>().is_ok());
    assert!("".parse::<LandmarkOrder>().is_ok(), "the global ring's name");
    for bad in ["7x", "x", "-1", "0123456789012345678"] {
        assert!(bad_order(bad.parse()), "ring name {bad:?}");
    }
    let mut cfg = HierasConfig::paper();
    cfg.landmarks = 16;
    assert_eq!(cfg.validate(), Ok(()));
    cfg.landmarks = 17;
    assert_eq!(cfg.validate(), Err(ConfigError::TooManyLandmarks(17)), "17 landmarks");
}

/// §3.2's worked latency example: 6 hops at 100 ms vs 4 lower hops at
/// 25 ms + 2 top hops at 100 ms = 50 % saving — our trace arithmetic
/// reproduces it exactly.
#[test]
fn section32_worked_example() {
    use hieras::core::{HopRecord, RouteTrace};
    let chord_like = RouteTrace {
        origin: 0,
        hops: (0..6).map(|i| HopRecord { from: i, to: i + 1, layer: 1 }).collect(),
    };
    let (chord_ms, _) = chord_like.latency_split(|_, _| 100);
    assert_eq!(chord_ms, 600);
    let hieras_like = RouteTrace {
        origin: 0,
        hops: (0..6)
            .map(|i| HopRecord { from: i, to: i + 1, layer: if i < 4 { 2 } else { 1 } })
            .collect(),
    };
    let (total, lower) = hieras_like.latency_split(|a, b| {
        // Lower-layer hops are the first four (nodes 0..4).
        if a < 4 && b <= 4 {
            25
        } else {
            100
        }
    });
    assert_eq!(lower, 100);
    assert_eq!(total, 300, "the paper's 50% reduction example");
}
