//! Cross-crate equivalence: the message-level protocol engine and the
//! oracle must implement the *same* algorithm — hop-for-hop.

use hieras::chord::PathBuf;
use hieras::core::{Binning, HierasConfig};
use hieras::id::Id;
use hieras::prelude::*;
use hieras::proto::SimNet;

fn experiment(nodes: usize, seed: u64) -> Experiment {
    Experiment::build(ExperimentConfig {
        kind: TopologyKind::TransitStub,
        nodes,
        requests: 0,
        hieras: HierasConfig::paper(),
        seed,
        rtt_noise: 0.0,
    })
}

/// SimNet lookups = oracle routes, over a real binned topology.
#[test]
fn simnet_matches_oracle_on_real_topology() {
    let e = experiment(200, 21);
    let mut net = SimNet::from_oracle(&e.hieras, &e.landmarks, |a, b| {
        // Any deterministic delay works for hop equality.
        3 + (a.raw() ^ b.raw()) % 40
    });
    for k in 0..150u64 {
        let key = Id::hash_of(&k.to_be_bytes());
        let src = (k % 200) as u32;
        let oracle = e.hieras.route(src, key);
        let proto = net.lookup(e.ids[src as usize], key);
        assert_eq!(proto.owner, e.ids[oracle.destination() as usize], "key {k}");
        assert_eq!(proto.hops as usize, oracle.hop_count(), "key {k}");
    }
}

/// Joins through the §3.3 choreography leave a network where both old
/// and new members resolve keys to the correct successor.
#[test]
fn join_choreography_preserves_global_correctness() {
    let e = experiment(150, 22);
    let mut net = SimNet::from_oracle(&e.hieras, &e.landmarks, |_, _| 10);
    let mut members: Vec<Id> = e.ids.to_vec();
    for j in 0..8u64 {
        let new_id = Id::hash_of(format!("late-joiner-{j}").as_bytes());
        let boot = members[(j as usize * 13) % members.len()];
        let rtts = [
            (10 + j * 17) as u16 % 200,
            (40 + j * 31) as u16 % 200,
            (90 + j * 7) as u16 % 200,
            (120 + j * 3) as u16 % 200,
        ];
        let out = net.join(new_id, boot, &rtts);
        assert_eq!(out.rings_joined, 2);
        members.push(new_id);
    }
    let mut sorted = members.clone();
    sorted.sort_unstable();
    for k in 0..100u64 {
        let key = Id::hash_of(format!("probe-{k}").as_bytes());
        let want = *sorted.iter().find(|&&m| m >= key).unwrap_or(&sorted[0]);
        let src = members[(k as usize * 7) % members.len()];
        assert_eq!(net.lookup(src, key).owner, want, "key {k}");
    }
}

/// What makes the message engine its own Chord baseline: built from a
/// depth-1 hierarchy (one global ring, no landmarks) it routes exactly
/// as `ChordOracle` does — same owner, same hop count — and peers that
/// join it later through the §3.3 choreography, with no RTTs to bin,
/// keep every lookup exact.
#[test]
fn depth1_simnet_is_chord() {
    let e = experiment(200, 23);
    let plain = HierasConfig { depth: 1, landmarks: 0, binning: e.hieras.config().binning.clone() };
    let ring = HierasOracle::build(IdSpace::full(), e.ids.clone(), e.orders.clone(), plain)
        .expect("one ring over distinct ids");
    let mut net = SimNet::from_oracle(&ring, &[], |a, b| 3 + (a.raw() ^ b.raw()) % 40);
    let mut path = PathBuf::new();
    for k in 0..150u64 {
        let key = Id::hash_of(&k.to_be_bytes());
        let src = (k % 200) as u32;
        e.chord.lookup_into(src, key, &mut path);
        let got = net.lookup(e.ids[src as usize], key);
        let owner = *path.as_slice().last().expect("a path holds its source");
        assert_eq!(got.owner, e.ids[owner as usize], "key {k}");
        assert_eq!(got.hops as usize, path.len() - 1, "key {k}");
    }
    let mut members: Vec<Id> = e.ids.to_vec();
    for j in 0..8u64 {
        let new_id = Id::hash_of(format!("late-joiner-{j}").as_bytes());
        let boot = members[(j as usize * 13) % members.len()];
        let out = net.try_join(new_id, boot, &[]).expect("nothing fails, so no message is lost");
        assert_eq!((out.rings_joined, out.rings_founded), (1, 0));
        members.push(new_id);
    }
    let mut sorted = members.clone();
    sorted.sort_unstable();
    for k in 0..100u64 {
        let key = Id::hash_of(format!("probe-{k}").as_bytes());
        let want = *sorted.iter().find(|&&m| m >= key).unwrap_or(&sorted[0]);
        let src = members[(k as usize * 7) % members.len()];
        assert_eq!(net.lookup(src, key).owner, want, "key {k}");
    }
}

/// Simulated lookup latency equals the sum of per-hop link delays the
/// latency oracle reports (DES clock integrity).
#[test]
fn simnet_latency_equals_trace_latency() {
    let e = experiment(120, 24);
    let ids = e.ids.clone();
    let idx = move |id: Id| ids.iter().position(|&i| i == id).expect("member id");
    let mut net = SimNet::from_oracle(&e.hieras, &e.landmarks, |a, b| {
        u64::from(e.peer_latency(idx(a) as u32, idx(b) as u32))
    });
    for k in 0..80u64 {
        let key = Id::hash_of(&(k * 101).to_be_bytes());
        let src = (k % 120) as u32;
        let trace = e.hieras.route(src, key);
        let (want, _) = trace.latency_split(|a, b| e.peer_latency(a, b));
        let got = net.lookup(e.ids[src as usize], key);
        assert_eq!(got.latency_ms, want, "key {k}");
    }
}

/// Two layers may name the same ring: with 2 landmarks at depth 4 the
/// ring keys are prefixes of length 0 / 1 / 2 / 2, so layers 3 and 4
/// share every name (depth 3 with 4 landmarks, 0 / 2 / 4, is the
/// control). The oracle keeps one ring table per distinct name, the
/// message engine places each at the holder of its ring id, and a
/// join, a ring-table holder's graceful leave and a re-bin — each of
/// which sends the shared name once per layer — leave every lookup
/// exact.
#[test]
fn shared_ring_names_keep_one_table_and_lookups_exact() {
    for (depth, landmarks) in [(4usize, 2usize), (3, 4)] {
        let config = HierasConfig { depth, landmarks, binning: Binning::paper() };
        let e = Experiment::build(ExperimentConfig {
            kind: TopologyKind::TransitStub,
            nodes: 200,
            requests: 0,
            hieras: config.clone(),
            seed: 25,
            rtt_noise: 0.0,
        });
        let o = &e.hieras;
        let names_of =
            |layer: usize| o.layers()[layer - 1].rings().map(|(n, _)| *n).collect::<Vec<_>>();
        let mut names: Vec<_> = (2..=depth).flat_map(names_of).collect();
        let lower_rings = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(o.ring_tables().keys().copied().collect::<Vec<_>>(), names, "depth {depth}");
        if depth == 4 {
            assert_eq!(names_of(3), names_of(4), "layers 3 and 4 share their names");
            assert!(names.len() < lower_rings);
        } else {
            assert_eq!(names.len(), lower_rings, "depth 3 / 4 landmarks names every ring apart");
        }
        let mut net = SimNet::from_oracle(o, &e.landmarks, |a, b| 3 + (a.raw() ^ b.raw()) % 40);
        for (name, table) in o.ring_tables() {
            assert_eq!((table.ring_name, table.ring_id), (*name, name.ring_id()));
            let holder = e.ids[o.ring_table_holder(table.ring_id) as usize];
            assert_eq!(net.node(holder).unwrap().ring_tables.get(name), Some(table), "ring {name}");
        }
        let held: usize =
            net.sorted_ids().iter().map(|&id| net.node(id).unwrap().ring_tables.len()).sum();
        assert_eq!(held, names.len());

        let mut members: Vec<Id> = e.ids.to_vec();
        let newcomer = Id::hash_of(b"shared-name-joiner");
        let rtts = vec![30; landmarks];
        net.join(newcomer, members[3], &rtts);
        members.push(newcomer);
        let order = config.binning.order(&rtts);
        for layer in 1..=depth {
            let got = net.node(newcomer).unwrap().layer(layer as u8).ring_name;
            assert_eq!(got, config.ring_key(layer, &order), "depth {depth} layer {layer}");
        }
        let leaver = e.ids[o.ring_table_holder(names[0].ring_id()) as usize];
        assert!(net.leave_node(leaver));
        members.retain(|&m| m != leaver);
        let far = config.binning.order(&vec![150; landmarks]);
        let lowest = |net: &SimNet, m: Id| net.node(m).unwrap().layer(depth as u8).ring_name;
        let mover = *members
            .iter()
            .find(|&&m| m != newcomer && lowest(&net, m) != config.ring_key(depth, &far))
            .expect("some peer is binned near a landmark");
        assert!(net.rebin_node(mover, &vec![150; landmarks]) > 0);
        for layer in 1..=depth {
            let got = net.node(mover).unwrap().layer(layer as u8).ring_name;
            assert_eq!(got, config.ring_key(layer, &far), "depth {depth} layer {layer}");
        }

        let mut sorted = members.clone();
        sorted.sort_unstable();
        for k in 0..100u64 {
            let key = Id::hash_of(format!("shared-{k}").as_bytes());
            let want = *sorted.iter().find(|&&m| m >= key).unwrap_or(&sorted[0]);
            let src = members[(k as usize * 7) % members.len()];
            assert_eq!(net.lookup(src, key).owner, want, "depth {depth} key {k}");
        }
    }
}
