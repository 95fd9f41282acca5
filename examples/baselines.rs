//! Baseline shoot-out: Chord vs Pastry (proximity tables) vs HIERAS,
//! all over the same Transit-Stub internetwork and the same workload.
//!
//! ```text
//! cargo run --release --example baselines
//! ```

use hieras::core::HierasConfig;
use hieras::pastry::PastryOracle;
use hieras::prelude::*;

const NODES: usize = 700;
const REQUESTS: usize = 10_000;

fn main() {
    let e = Experiment::build(ExperimentConfig {
        kind: TopologyKind::TransitStub,
        nodes: NODES,
        requests: REQUESTS,
        hieras: HierasConfig::paper(),
        seed: 17,
        rtt_noise: 0.0,
    });
    let pastry =
        PastryOracle::build(e.ids.clone(), |a, b| e.peer_latency(a, b)).expect("distinct ids");
    let w = Workload::new(NODES as u32, REQUESTS, 4242);

    // Chord + HIERAS via the experiment replay.
    let r = e.run_requests(REQUESTS);
    let (c, h) = (r.chord.summary(), r.hieras.summary());

    // Pastry measured over the same latency oracle.
    let (mut ph, mut pl) = (0u64, 0u64);
    for (src, key) in w.iter() {
        let p = pastry.route(src, key);
        ph += p.hops() as u64;
        for pair in p.path.windows(2) {
            pl += u64::from(e.peer_latency(pair[0], pair[1]));
        }
    }
    let q = REQUESTS as f64;

    println!("{NODES} peers, Transit-Stub model, {REQUESTS} uniform lookups\n");
    println!("| system | avg hops | avg latency ms | vs Chord |");
    println!("|--------|---------:|---------------:|---------:|");
    println!("| Chord | {:.3} | {:.1} | 100.0% |", c.avg_hops, c.avg_latency_ms);
    println!(
        "| HIERAS (2-layer, 4 landmarks) | {:.3} | {:.1} | {:.1}% |",
        h.avg_hops,
        h.avg_latency_ms,
        h.avg_latency_ms / c.avg_latency_ms * 100.0
    );
    println!(
        "| Pastry (proximity tables) | {:.3} | {:.1} | {:.1}% |",
        ph as f64 / q,
        pl as f64 / q,
        (pl as f64 / q) / c.avg_latency_ms * 100.0
    );
    println!("\nNotes: Pastry resolves keys to its own notion of the key's home");
    println!("(the numerically closest node), so hop paths differ per system;");
    println!("each pays its full lookup cost on the same underlay, which is the fair");
    println!("comparison the HIERAS paper's §6 sketches as future work.");
}
