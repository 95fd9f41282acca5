//! Protocol walkthrough: a lookup and the §3.3 join choreography,
//! message by message, on the deterministic transport.
//!
//! ```text
//! cargo run --release --example protocol_demo
//! ```

use hieras::core::HierasConfig;
use hieras::id::Id;
use hieras::prelude::*;
use hieras::proto::SimNet;

fn main() {
    // A 300-peer HIERAS system over a Transit-Stub internetwork.
    let e = Experiment::build(ExperimentConfig {
        kind: TopologyKind::TransitStub,
        nodes: 300,
        requests: 0,
        hieras: HierasConfig::paper(),
        seed: 3,
        rtt_noise: 0.0,
    });

    // Link delays come from the underlay shortest paths.
    let ids = e.ids.clone();
    let idx = move |id: Id| ids.iter().position(|&i| i == id);
    let mut net = SimNet::from_oracle(&e.hieras, &e.landmarks, |a, b| {
        match (idx(a), idx(b)) {
            (Some(x), Some(y)) => u64::from(e.peer_latency(x as u32, y as u32)),
            _ => 25,
        }
    });
    // Per-message-type counters (`net.send.*`, `net.deliver.*`).
    net.enable_registry();
    println!("message-level network: {} nodes\n", net.len());

    // A lookup, counted in protocol messages.
    let key = Id::hash_of(b"some-content");
    let out = net.lookup(e.ids[0], key);
    println!(
        "lookup({key}) from node[0]: owner {}, {} hops, {} ms simulated",
        out.owner, out.hops, out.latency_ms
    );

    // The §3.3 join choreography.
    let newcomer = Id::hash_of(b"newcomer:198.51.100.7:9000");
    let join = net.join(newcomer, e.ids[42], &[12, 45, 130, 80]);
    println!("\njoin of {newcomer} through node[42]:");
    println!("  rings joined : {} (founded {})", join.rings_joined, join.rings_founded);
    println!("  messages     : {} ({} total in network)", join.messages, net.stats().total);
    println!("  simulated ms : {}", join.duration_ms);
    // The lowest ring's name is the newcomer's landmark order as
    // `HierasConfig::ring_key` cuts it for that layer (at depth 2, the
    // whole digit string); the ring table was found at the owner of its
    // ring id, the SHA-1 of those digits.
    let ring = net.node(newcomer).unwrap().layer(2).ring_name;
    println!("  ring name    : \"{ring}\" (ring id {})", ring.ring_id());
    println!("  traffic by kind since start:");
    let registry = net.registry().expect("enabled above");
    for (name, v) in registry.counters() {
        if let Some(k) = name.strip_prefix("net.deliver.") {
            println!("    {k:<18} {v}");
        }
    }

    // The newcomer is now resolvable.
    let probe = net.lookup(e.ids[0], newcomer);
    assert_eq!(probe.owner, newcomer);
    println!("  probe: node[0] resolves the newcomer in {} hops ✔", probe.hops);
}
