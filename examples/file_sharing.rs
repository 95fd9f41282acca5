//! A file-sharing workload — the application the paper's introduction
//! motivates (Napster/Gnutella-class systems).
//!
//! A catalogue of files is published into the DHT (each file key is the
//! SHA-1 of its name, stored at the key's successor, as in CFS/PAST).
//! Peers then fetch files with Zipf-like popularity. We measure what a
//! *user* sees: per-fetch lookup latency, for Chord vs HIERAS over the
//! identical network.
//!
//! ```text
//! cargo run --release --example file_sharing
//! ```

use hieras::chord::PathBuf;
use hieras::prelude::*;
use hieras::rt::Rng;

const CATALOGUE: usize = 5_000;
const FETCHES: usize = 30_000;

fn main() {
    let e = Experiment::build(ExperimentConfig {
        kind: TopologyKind::TransitStub,
        nodes: 600,
        requests: 0,
        hieras: hieras::core::HierasConfig::paper(),
        seed: 7,
        rtt_noise: 0.0,
    });
    println!("600-peer swarm, {CATALOGUE} published files, {FETCHES} fetches (Zipf popularity)\n");

    // Publish: file name -> key -> owning node.
    let keys: Vec<Id> =
        (0..CATALOGUE).map(|i| Id::hash_of(format!("file-{i}.bin").as_bytes())).collect();
    // Per-file popularity ~ Zipf(1.0): rank r gets weight 1/r.
    let weights: Vec<f64> = (1..=CATALOGUE).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();

    let mut rng = Rng::seed_from_u64(99);
    let mut chord_ms = 0u64;
    let mut hieras_ms = 0u64;
    let mut chord_hops = 0usize;
    let mut hieras_hops = 0usize;
    let mut worst_chord = 0u64;
    let mut worst_hieras = 0u64;
    let mut cp = PathBuf::new();
    for _ in 0..FETCHES {
        // Zipf draw.
        let mut pick = rng.random_range(0.0..total);
        let mut file = CATALOGUE - 1;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                file = i;
                break;
            }
            pick -= w;
        }
        let key = keys[file];
        let client = rng.random_range(0..600u32);

        e.chord.lookup_into(client, key, &mut cp);
        let mut cl = 0u64;
        for w in cp.as_slice().windows(2) {
            cl += u64::from(e.peer_latency(w[0], w[1]));
        }
        let ht = e.hieras.route(client, key);
        let (hl, _) = ht.latency_split(|a, b| e.peer_latency(a, b));
        assert_eq!(
            cp.as_slice().last(),
            Some(&ht.destination()),
            "both systems agree on the file's home"
        );

        chord_ms += cl;
        hieras_ms += hl;
        chord_hops += cp.len() - 1;
        hieras_hops += ht.hop_count();
        worst_chord = worst_chord.max(cl);
        worst_hieras = worst_hieras.max(hl);
    }

    let f = FETCHES as f64;
    println!("| system | avg lookup ms | avg hops | worst lookup ms |");
    println!("|--------|--------------:|---------:|----------------:|");
    println!(
        "| Chord  | {:>13.1} | {:>8.3} | {:>15} |",
        chord_ms as f64 / f,
        chord_hops as f64 / f,
        worst_chord
    );
    println!(
        "| HIERAS | {:>13.1} | {:>8.3} | {:>15} |",
        hieras_ms as f64 / f,
        hieras_hops as f64 / f,
        worst_hieras
    );
    println!(
        "\nusers wait {:.1}% as long for file lookups under HIERAS.",
        hieras_ms as f64 / chord_ms as f64 * 100.0
    );
}
