//! Regenerates every table and figure of the HIERAS paper, and runs
//! the experiment drivers beside them.
//!
//! ```text
//! cargo run --release -p hieras-bench --bin figures -- [<id>...] [--full] [options]
//! ```
//!
//! Quick (laptop-scale) sizes are the default; `--full` runs the
//! paper's 10 000-node networks and 100 000-request workloads. Each
//! artifact's JSON record — with the run's `seed`, `threads`, `nproc`
//! and `full` in front — is written to `results/<id>.json` before its
//! markdown goes to stdout (so `figures <id> | head` keeps the
//! record). An unknown id or option prints the usage and exits 2
//! before any work; a record that cannot be written exits 1.

#![forbid(unsafe_code)]

mod drivers;

use hieras_bench::render;
use hieras_bench::{depth_sweep, landmark_sweep, size_sweep};
use hieras_core::{Binning, CostReport, HierasConfig, HierasOracle, LandmarkOrder};
use hieras_id::{Id, IdSpace};
use hieras_pastry::PastryOracle;
use hieras_proto::SimNet;
use hieras_rt::{Executor, Json, ToJson};
use hieras_sim::{Experiment, ExperimentConfig, TopologyKind, Workload};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

const SEED: u64 = 20030415; // ICPP 2003 — any fixed seed works.

/// The paper's artifacts, in `all` order.
const PAPER_IDS: [&str; 14] = [
    "table1", "table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "costs", "ablate-noise", "compare-pastry",
];

/// The experiment drivers, never part of `all`: `scale --full` builds
/// a 1 M-peer world.
const DRIVER_IDS: [&str; 3] = ["churn", "scale", "live"];

/// Paper ids that are two views of one sweep: a pair shares one job,
/// so its sweep runs once per process and both records come from it.
const PAIRS: [[&str; 2]; 4] =
    [["fig2", "fig3"], ["fig4", "fig5"], ["fig6", "fig7"], ["fig8", "fig9"]];

const USAGE: &str = "\
usage: figures [<id>...] [--full] [--trace-out <path.jsonl>]
               [--timeseries-out <path.jsonl>] [--pace <sim-per-wall>]

paper ids: table1 table2 table3 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9
           costs ablate-noise compare-pastry, or all (the default)
drivers:   churn scale live (never part of all)

--full                   paper-scale sizes (quick is the default)
--trace-out <path>       churn: every scenario's span stream as JSONL
--timeseries-out <path>  live: the deterministic run's windows; the
                         free-running run's go to a .live.jsonl sibling,
                         the flight recorder's hop traces to .slow.jsonl
--pace <r>               live: throttle the free-running maintainer to
                         r sim-ms per wall-ms (unset: full rate)

scale's peak_rss_bytes is the process high-water mark: run scale alone
when reading RSS. HIERAS_THREADS=n pins the executor width.";

/// The command line: the artifacts to generate and the run options.
#[derive(Debug, Default, PartialEq)]
struct Args {
    ids: Vec<&'static str>,
    full: bool,
    trace_out: Option<String>,
    timeseries_out: Option<String>,
    pace: Option<f64>,
}

/// Parses the arguments after the program name. Every id and option is
/// validated before any work starts.
///
/// # Errors
/// The diagnostic and the usage text, for an unknown argument, a path
/// option without its path, a `--pace` that is not a finite
/// non-negative number, or a driver option without its driver's id.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let usage = |msg: &str| format!("figures: {msg}\n\n{USAGE}");
    let mut out = Args::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => out.full = true,
            "--trace-out" => {
                let path = args.next().ok_or_else(|| usage("--trace-out needs a path"))?;
                out.trace_out = Some(path);
            }
            "--timeseries-out" => {
                let path = args.next().ok_or_else(|| usage("--timeseries-out needs a path"))?;
                out.timeseries_out = Some(path);
            }
            "--pace" => match args.next().map(|v| v.parse::<f64>()) {
                Some(Ok(p)) if p >= 0.0 && p.is_finite() => out.pace = Some(p),
                _ => return Err(usage("--pace needs a finite non-negative ratio")),
            },
            "all" => out.ids.extend(PAPER_IDS),
            other => match PAPER_IDS.iter().chain(&DRIVER_IDS).find(|&&id| id == other) {
                Some(&id) => out.ids.push(id),
                None => return Err(usage(&format!("unknown argument `{other}`"))),
            },
        }
    }
    if out.ids.is_empty() {
        out.ids.extend(PAPER_IDS);
    }
    for (set, flag, id) in [
        (out.trace_out.is_some(), "--trace-out", "churn"),
        (out.timeseries_out.is_some(), "--timeseries-out", "live"),
        (out.pace.is_some(), "--pace", "live"),
    ] {
        if set && !out.ids.contains(&id) {
            return Err(usage(&format!("{flag} needs the `{id}` id")));
        }
    }
    Ok(out)
}

/// Scale knobs for quick vs full (paper-scale) runs.
struct Scale {
    sizes: Vec<usize>,
    inet_sizes: Vec<usize>,
    depth_sizes: Vec<usize>,
    dist_nodes: usize,
    requests: usize,
    dist_requests: usize,
}

impl Scale {
    fn quick() -> Self {
        Scale {
            sizes: vec![500, 1000, 2000],
            inet_sizes: vec![3000],
            depth_sizes: vec![1000, 2000],
            dist_nodes: 2000,
            requests: 10_000,
            dist_requests: 20_000,
        }
    }

    fn full() -> Self {
        Scale {
            sizes: (1..=10).map(|k| k * 1000).collect(),
            inet_sizes: (3..=10).map(|k| k * 1000).collect(),
            depth_sizes: (5..=10).map(|k| k * 1000).collect(),
            dist_nodes: 10_000,
            requests: 100_000,
            dist_requests: 100_000,
        }
    }
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    for job in jobs(&args.ids) {
        let figs = write_job(&job, &args, Path::new("results")).unwrap_or_else(|e| {
            eprintln!("figures: {}: {e}", job.join(" "));
            std::process::exit(1);
        });
        for (id, fig) in job.iter().zip(figs) {
            let printed = std::io::stdout().write_all(fig.md.as_bytes());
            if fig.diverged {
                eprintln!("figures: {id}: labels-backend metrics diverged from the rows baseline");
                std::process::exit(1);
            }
            // `figures <id> | head` closes stdout early; the JSON is
            // already on disk, so a closed pipe just ends the run.
            if let Err(e) = printed {
                if e.kind() == std::io::ErrorKind::BrokenPipe {
                    return;
                }
                panic!("failed printing to stdout: {e}");
            }
        }
    }
}

/// Groups `ids` into jobs in first-appearance order: the ids of one
/// [`PAIRS`] entry share a job, every other id is a job of its own.
fn jobs(ids: &[&'static str]) -> Vec<Vec<&'static str>> {
    let mut out: Vec<Vec<&'static str>> = Vec::new();
    for &id in ids {
        let pair = PAIRS.iter().find(|pair| pair.contains(&id));
        match out.iter_mut().find(|job| pair.is_some_and(|pair| pair.contains(&job[0]))) {
            Some(job) => job.push(id),
            None => out.push(vec![id]),
        }
    }
    out
}

/// A generated artifact whose JSON record is on disk.
struct Figure {
    /// The markdown for stdout.
    md: String,
    /// The record's top-level `metrics_match_rows` is `false`: the
    /// labels backend diverged from the rows baseline (`scale`).
    diverged: bool,
}

/// Generates the artifacts of one job (see [`jobs`]) from one
/// computation and writes the shared JSON record, provenance first, to
/// `<dir>/<id>.json` for every id of the job **before** anything
/// reaches stdout: the returned markdown, one per id, is the caller's
/// to print.
///
/// # Errors
/// An unknown id (nothing is written), a driver's side file or a
/// record that cannot be written.
fn write_job(job: &[&str], args: &Args, dir: &Path) -> Result<Vec<Figure>, String> {
    let started = std::time::Instant::now();
    let scale = if args.full { Scale::full() } else { Scale::quick() };
    let mut mds: Vec<String> = job.iter().map(|id| format!("\n## {id}\n\n")).collect();
    let md = &mut mds[0];
    let record = match job[0] {
        "table1" => table1(md),
        "table2" => table2(md),
        "table3" => table3(md),
        "fig2" | "fig3" => fig23(job, &scale, &mut mds),
        "fig4" | "fig5" => fig45(job, &scale, &mut mds),
        "fig6" | "fig7" => fig67(job, &scale, &mut mds),
        "fig8" | "fig9" => fig89(&scale, &mut mds),
        "costs" => costs(&scale, md),
        "ablate-noise" => ablate_noise(&scale, md),
        "compare-pastry" => compare_pastry(&scale, md),
        "churn" => drivers::churn(args, md)?,
        "scale" => drivers::scale(args, md),
        "live" => drivers::live(args, md)?,
        id => return Err(format!("unknown figure id `{id}`")),
    };
    let diverged = record.get("metrics_match_rows") == Some(&Json::Bool(false));
    let Json::Obj(fields) = record else { unreachable!("every record is a JSON object") };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let provenance = [
        ("seed", SEED.to_json()),
        ("threads", Executor::default().threads().to_json()),
        ("nproc", nproc.to_json()),
        ("full", args.full.to_json()),
        ("git_sha", git_sha().to_json()),
    ];
    let record = Json::obj(provenance.map(|(k, v)| (k.to_owned(), v)).into_iter().chain(fields))
        .dump_pretty();
    job.iter()
        .zip(mds)
        .map(|(id, mut md)| {
            let path = dir.join(format!("{id}.json"));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, &record))
                .map_err(|e| format!("could not write {}: {e}", path.display()))?;
            let secs = started.elapsed().as_secs_f64();
            let _ = writeln!(md, "\n_(generated in {secs:.1}s; JSON at {})_", path.display());
            Ok(Figure { md, diverged })
        })
        .collect()
}

/// The checked-out commit, `git rev-parse HEAD`, with `-dirty` appended
/// when tracked files are modified; `"unknown"` when git or the
/// repository is unavailable. Asked once per process.
fn git_sha() -> &'static str {
    static SHA: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    SHA.get_or_init(|| {
        let git = |args: &[&str]| {
            let out = std::process::Command::new("git").args(args).output().ok()?;
            out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        };
        let changes = git(&["status", "--porcelain", "--untracked-files=no"]);
        match (git(&["rev-parse", "HEAD"]), changes) {
            (Some(sha), Some(changes)) if !changes.is_empty() => format!("{sha}-dirty"),
            (Some(sha), _) => sha,
            (None, _) => "unknown".to_owned(),
        }
    })
}

/// Table 1: the distributed binning worked example, verbatim.
fn table1(md: &mut String) -> Json {
    let b = Binning::paper();
    let rows: [(&str, [u16; 4]); 6] = [
        ("A", [25, 5, 30, 100]),
        ("B", [40, 18, 12, 200]),
        ("C", [100, 180, 5, 10]),
        ("D", [160, 220, 8, 20]),
        ("E", [45, 10, 100, 5]),
        ("F", [20, 140, 50, 40]),
    ];
    let _ = writeln!(md, "| Node | Dist-L1 | Dist-L2 | Dist-L3 | Dist-L4 | Order |");
    let _ = writeln!(md, "|------|--------:|--------:|--------:|--------:|-------|");
    let mut out = Vec::new();
    for (node, rtts) in rows {
        let order = b.order(&rtts);
        let _ = writeln!(
            md,
            "| {node} | {}ms | {}ms | {}ms | {}ms | {} |",
            rtts[0], rtts[1], rtts[2], rtts[3], order
        );
        out.push(Json::obj([
            ("node", node.to_json()),
            ("rtts", rtts.to_json()),
            ("order", order.name().to_json()),
        ]));
    }
    Json::obj([("table1", out.to_json())])
}

/// The paper's Table 2 demo system: a 2^8 space, 3 landmarks, node 121
/// in ring "012".
fn table2_system() -> (HierasOracle, u32) {
    let space = IdSpace::new(8).expect("8-bit space");
    // (id, ring digits) — exactly the nodes the paper's Table 2 shows.
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
    let orders =
        nodes.iter().map(|&(_, d)| LandmarkOrder::new(&d).expect("paper digits")).collect();
    let config = HierasConfig { depth: 2, landmarks: 3, binning: Binning::paper() };
    let oracle = HierasOracle::build(space, ids, orders, config).expect("demo system builds");
    (oracle, 0) // node index 0 = id 121
}

/// Table 2: node 121's two-layer finger tables.
fn table2(md: &mut String) -> Json {
    let (oracle, node) = table2_system();
    let rows = oracle.finger_rows(node);
    let _ = writeln!(md, "| Start | Interval | Layer-1 successor | Layer-2 successor |");
    let _ = writeln!(md, "|------:|----------|-------------------|-------------------|");
    let mut out = Vec::new();
    for r in &rows {
        let l1 = r.successors[0];
        let l2 = r.successors[1];
        let name = |n: u32| oracle.layers()[1].ring_name_of(n).name();
        let _ = writeln!(
            md,
            "| {} | [{},{}) | {} (\"{}\") | {} (\"{}\") |",
            r.start.raw(),
            r.start.raw(),
            r.end.raw(),
            oracle.id_of(l1).raw(),
            name(l1),
            oracle.id_of(l2).raw(),
            name(l2),
        );
        out.push(Json::obj([
            ("start", r.start.raw().to_json()),
            ("layer1", oracle.id_of(l1).raw().to_json()),
            ("layer2", oracle.id_of(l2).raw().to_json()),
        ]));
    }
    Json::obj([("table2", out.to_json())])
}

/// Table 3: ring-table structure of the demo system.
fn table3(md: &mut String) -> Json {
    let (oracle, _) = table2_system();
    let _ = writeln!(md, "| Ringid | Ringname | Largest | 2nd largest | Smallest | 2nd smallest | Holder |");
    let _ = writeln!(md, "|--------|----------|--------:|------------:|---------:|-------------:|-------:|");
    let mut out = Vec::new();
    for t in oracle.ring_tables().values() {
        let holder = oracle.id_of(oracle.ring_table_holder(t.ring_id)).raw();
        let f = |v: Option<Id>| v.map_or("-".into(), |i| i.raw().to_string());
        let _ = writeln!(
            md,
            "| {:.8}… | \"{}\" | {} | {} | {} | {} | {} |",
            t.ring_id,
            t.ring_name,
            f(t.largest()),
            f(t.second_largest()),
            f(t.smallest()),
            f(t.second_smallest()),
            holder,
        );
        out.push(Json::obj([
            ("ring", t.ring_name.name().to_json()),
            ("members", t.entry_points().iter().map(|i| i.raw()).collect::<Vec<_>>().to_json()),
            ("holder", holder.to_json()),
        ]));
    }
    Json::obj([("table3", out.to_json())])
}

/// Figures 2 & 3: hops / latency vs network size across models.
fn fig23(job: &[&str], scale: &Scale, mds: &mut [String]) -> Json {
    let mut rows = Vec::new();
    for (kind, sizes) in [
        (TopologyKind::TransitStub, &scale.sizes),
        (TopologyKind::Inet, &scale.inet_sizes),
        (TopologyKind::Brite, &scale.sizes),
    ] {
        rows.extend(size_sweep(kind, sizes, scale.requests, SEED));
    }
    for (&id, md) in job.iter().zip(mds) {
        let table = if id == "fig2" { render::fig2_table(&rows) } else { render::fig3_table(&rows) };
        md.push_str(&table);
    }
    Json::obj([("rows", rows.to_json())])
}

/// Figures 4 & 5: hop PDF and latency CDF on one large TS network.
fn fig45(job: &[&str], scale: &Scale, mds: &mut [String]) -> Json {
    let cfg = ExperimentConfig {
        kind: TopologyKind::TransitStub,
        nodes: scale.dist_nodes,
        requests: scale.dist_requests,
        hieras: HierasConfig::paper(),
        seed: SEED,
        rtt_noise: 0.0,
    };
    let e = Experiment::build(cfg);
    let r = e.run();
    let (cs, hs) = (r.chord.summary(), r.hieras.summary());
    for (&id, md) in job.iter().zip(mds) {
        if id == "fig4" {
            md.push_str(&render::pdf_table(
                &r.chord.hop_hist.pdf(),
                &r.hieras.hop_hist.pdf(),
                &r.hieras.lower_hop_hist.pdf(),
            ));
            let _ = writeln!(
                md,
                "\navg hops: Chord {:.4}, HIERAS {:.4} ({:+.2}%); lower-layer hops/request {:.3} ({:.2}% of all hops)",
                cs.avg_hops,
                hs.avg_hops,
                (hs.avg_hops / cs.avg_hops - 1.0) * 100.0,
                hs.avg_lower_hops,
                hs.lower_hop_share * 100.0
            );
        } else {
            let (chord, hieras) = (&r.chord.latency_hist, &r.hieras.latency_hist);
            let max = chord.max_value();
            let points: Vec<(u32, f64, f64)> = (0..=30)
                .map(|i| {
                    let x = max * i / 30;
                    (x as u32, chord.cdf_at(x), hieras.cdf_at(x))
                })
                .collect();
            md.push_str(&render::cdf_table(&points));
            let _ = writeln!(
                md,
                "\navg latency: Chord {:.2} ms, HIERAS {:.2} ms ({:.2}% of Chord)",
                cs.avg_latency_ms,
                hs.avg_latency_ms,
                hs.avg_latency_ms / cs.avg_latency_ms * 100.0
            );
            let _ = writeln!(
                md,
                "avg link delay: top layer {:.2} ms, lower layers {:.3} ms; lower-layer latency share {:.2}%",
                hs.avg_link_delay_top_ms,
                hs.avg_link_delay_lower_ms,
                hs.lower_latency_share * 100.0
            );
        }
    }
    Json::obj([
        ("chord", cs.to_json()),
        ("hieras", hs.to_json()),
        ("chord_pdf", r.chord.hop_hist.pdf().to_json()),
        ("hieras_pdf", r.hieras.hop_hist.pdf().to_json()),
        ("hieras_lower_pdf", r.hieras.lower_hop_hist.pdf().to_json()),
    ])
}

/// Figures 6 & 7: landmark-count sweep.
fn fig67(job: &[&str], scale: &Scale, mds: &mut [String]) -> Json {
    let landmarks: Vec<usize> = (2..=12).collect();
    let rows = landmark_sweep(scale.dist_nodes, scale.requests, &landmarks, SEED);
    let best = rows.iter().min_by(|a, b| {
        (a.hieras.avg_latency_ms / a.chord.avg_latency_ms)
            .partial_cmp(&(b.hieras.avg_latency_ms / b.chord.avg_latency_ms))
            .expect("finite")
    });
    for (&id, md) in job.iter().zip(mds) {
        md.push_str(&render::landmark_table(&rows));
        if let (Some(best), "fig7") = (best, id) {
            let _ = writeln!(
                md,
                "\nbest: {} landmarks — HIERAS latency {:.2}% of Chord",
                best.landmarks,
                best.hieras.avg_latency_ms / best.chord.avg_latency_ms * 100.0
            );
        }
    }
    Json::obj([("rows", rows.to_json())])
}

/// Figures 8 & 9: hierarchy-depth sweep (one table serves both).
fn fig89(scale: &Scale, mds: &mut [String]) -> Json {
    let rows = depth_sweep(&scale.depth_sizes, &[2, 3, 4], scale.requests, SEED);
    for md in mds {
        md.push_str(&render::depth_table(&rows));
    }
    Json::obj([("rows", rows.to_json())])
}

/// §3.4 / §6 cost analysis: state per node and join message counts.
fn costs(scale: &Scale, md: &mut String) -> Json {
    let nodes = scale.dist_nodes.min(2000);
    let _ = writeln!(md, "state cost (N = {nodes}, TS model, r = 8 successor list):\n");
    let _ = writeln!(md, "| depth | finger entries | distinct fingers | succ-list entries | ring tables | bytes/node | vs Chord |");
    let _ = writeln!(md, "|------:|---------------:|-----------------:|------------------:|------------:|-----------:|---------:|");
    let mut reports = Vec::new();
    let mut base: Option<CostReport> = None;
    for depth in 1..=4usize {
        let cfg = ExperimentConfig {
            kind: TopologyKind::TransitStub,
            nodes,
            requests: 0,
            hieras: HierasConfig {
                depth,
                landmarks: if depth == 1 { 0 } else { 6 },
                binning: Binning::paper(),
            },
            seed: SEED,
            rtt_noise: 0.0,
        };
        let e = Experiment::build(cfg);
        let rep = CostReport::for_oracle(&e.hieras, 8);
        let overhead = base.as_ref().map_or(1.0, |b| rep.overhead_vs(b));
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {:.0} | {:.2}x |",
            rep.depth,
            rep.finger_entries,
            rep.distinct_finger_entries,
            rep.succ_list_entries,
            rep.ring_table_count,
            rep.bytes_per_node,
            overhead
        );
        if depth == 1 {
            base = Some(rep);
        }
        reports.push(rep);
    }

    // Join message counts: ten peers of one 410-peer world join the
    // other 400 through the one message engine — the two-layer
    // hierarchy against its depth-1 self, which is plain Chord — each
    // with its own id and measured landmark RTTs. Peers are numbered
    // by landmark order, so the joiners are spread over that order
    // (every 41st peer), not taken from the end, which is one ring.
    let cfg = ExperimentConfig {
        kind: TopologyKind::TransitStub,
        nodes: 410,
        requests: 0,
        hieras: HierasConfig::paper(),
        seed: SEED,
        rtt_noise: 0.0,
    };
    let e = Experiment::build(cfg);
    let (joiners, members): (Vec<u32>, Vec<u32>) = (0..410).partition(|p| p % 41 == 0);
    let peer_of: HashMap<Id, u32> = e.ids.iter().zip(0..).map(|(&id, p)| (id, p)).collect();
    let delay = |a: Id, b: Id| u64::from(e.peer_latency(peer_of[&a], peer_of[&b]));
    let join_msgs = |config: Option<&HierasConfig>| -> Vec<u64> {
        let oracle = e
            .subset_hieras_on(&Executor::default(), &members, None, config)
            .expect("a validated configuration over distinct ids");
        let mut net = SimNet::from_oracle(&oracle, &e.landmarks, delay);
        joiners
            .iter()
            .enumerate()
            .map(|(j, &p)| {
                let boot = e.ids[members[(j * 37) % members.len()] as usize];
                net.join(e.ids[p as usize], boot, e.landmark_rtts(p as usize)).messages
            })
            .collect()
    };
    let hieras_join = join_msgs(None);
    let chord_join =
        join_msgs(Some(&HierasConfig { depth: 1, landmarks: 0, binning: Binning::paper() }));
    let avg = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
    let _ = writeln!(
        md,
        "\njoin cost (10 peers joining 400, message-level): HIERAS (2-layer) {:.1} msgs/join; Chord (the same engine, depth 1) {:.1} msgs/join; ratio {:.2}x",
        avg(&hieras_join),
        avg(&chord_join),
        avg(&hieras_join) / avg(&chord_join)
    );
    Json::obj([
        ("state", reports.to_json()),
        ("hieras_join_msgs", hieras_join.to_json()),
        ("chord_join_msgs", chord_join.to_json()),
    ])
}

/// Binning-noise ablation: does ping inaccuracy break the win?
fn ablate_noise(scale: &Scale, md: &mut String) -> Json {
    let _ = writeln!(md, "| rtt noise | HIERAS ms | Chord ms | ratio | lower-hop share |");
    let _ = writeln!(md, "|----------:|----------:|---------:|------:|----------------:|");
    let mut out = Vec::new();
    for noise in [0.0, 0.2, 0.5, 1.0] {
        let cfg = ExperimentConfig {
            kind: TopologyKind::TransitStub,
            nodes: scale.dist_nodes.min(2000),
            requests: scale.requests.min(20_000),
            hieras: HierasConfig::paper(),
            seed: SEED,
            rtt_noise: noise,
        };
        let e = Experiment::build(cfg);
        let r = e.run();
        let (c, h) = (r.chord.summary(), r.hieras.summary());
        let _ = writeln!(
            md,
            "| {:.1} | {:.1} | {:.1} | {:.1}% | {:.1}% |",
            noise,
            h.avg_latency_ms,
            c.avg_latency_ms,
            h.avg_latency_ms / c.avg_latency_ms * 100.0,
            h.lower_hop_share * 100.0
        );
        out.push(Json::obj([
            ("noise", noise.to_json()),
            ("chord", c.to_json()),
            ("hieras", h.to_json()),
        ]));
    }
    Json::obj([("ablate_noise", out.to_json())])
}

/// §6 future work: HIERAS vs Pastry (with proximity neighbour
/// selection) vs Chord on the same TS network and workload.
fn compare_pastry(scale: &Scale, md: &mut String) -> Json {
    let nodes = scale.dist_nodes.min(3000);
    let requests = scale.requests.min(20_000);
    let cfg = ExperimentConfig {
        kind: TopologyKind::TransitStub,
        nodes,
        requests,
        hieras: HierasConfig::paper(),
        seed: SEED,
        rtt_noise: 0.0,
    };
    let e = Experiment::build(cfg);
    let pastry = PastryOracle::build(e.ids.clone(), |a, b| e.peer_latency(a, b))
        .expect("distinct ids");
    let w = Workload::new(nodes as u32, requests, SEED ^ 0x517c_c1b7);
    let (mut ph, mut pl) = (0u64, 0u64);
    for (src, key) in w.iter() {
        let r = pastry.route(src, key);
        ph += r.hops() as u64;
        for pair in r.path.windows(2) {
            pl += u64::from(e.peer_latency(pair[0], pair[1]));
        }
    }
    let r = e.run();
    let (c, h) = (r.chord.summary(), r.hieras.summary());
    let req = requests as f64;
    let _ = writeln!(md, "| system | avg hops | avg latency ms | vs Chord latency |");
    let _ = writeln!(md, "|--------|---------:|---------------:|-----------------:|");
    let _ = writeln!(md, "| Chord | {:.3} | {:.1} | 100% |", c.avg_hops, c.avg_latency_ms);
    let _ = writeln!(
        md,
        "| Pastry (proximity) | {:.3} | {:.1} | {:.1}% |",
        ph as f64 / req,
        pl as f64 / req,
        pl as f64 / req / c.avg_latency_ms * 100.0
    );
    let _ = writeln!(
        md,
        "| HIERAS | {:.3} | {:.1} | {:.1}% |",
        h.avg_hops,
        h.avg_latency_ms,
        h.avg_latency_ms / c.avg_latency_ms * 100.0
    );
    let _ = writeln!(md, "
note: Pastry resolves to the numerically-closest node; Chord/HIERAS to the");
    let _ = writeln!(md, "successor. Destinations differ per key, but each system pays its own full");
    let _ = writeln!(md, "lookup, so the latency comparison is fair.");
    Json::obj([
        ("chord", c.to_json()),
        ("hieras", h.to_json()),
        ("pastry", Json::obj([
            ("hops", (ph as f64 / req).to_json()),
            ("latency", (pl as f64 / req).to_json()),
        ])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Args, String> {
        parse(args.iter().map(|s| (*s).to_owned()))
    }

    /// Scratch space next to the test binary, i.e. inside `target/`.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let exe = std::env::current_exe().expect("test binary path");
        exe.with_file_name(format!("figures-{tag}-{}", std::process::id()))
    }

    #[test]
    fn parses_every_option() {
        let a = parse_args(&[
            "churn",
            "live",
            "--full",
            "--trace-out",
            "t.jsonl",
            "--timeseries-out",
            "ts.jsonl",
            "--pace",
            "50",
        ])
        .unwrap();
        assert_eq!(a.ids, ["churn", "live"]);
        assert!(a.full);
        assert_eq!(a.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(a.timeseries_out.as_deref(), Some("ts.jsonl"));
        assert_eq!(a.pace, Some(50.0));
    }

    #[test]
    fn no_id_means_the_paper_and_all_never_starts_a_driver() {
        let a = parse_args(&[]).unwrap();
        assert_eq!(a, Args { ids: PAPER_IDS.to_vec(), ..Args::default() }, "quick, no paths");
        assert_eq!(parse_args(&["all", "--full"]).unwrap().ids, PAPER_IDS);
        let ids = parse_args(&["all", "scale"]).unwrap().ids;
        assert_eq!(ids.len(), PAPER_IDS.len() + 1);
        assert_eq!(ids.last(), Some(&"scale"), "drivers run only when named");
    }

    #[test]
    fn each_pair_is_one_job() {
        let jobs_of = |argv: &[&str]| jobs(&parse_args(argv).unwrap().ids);
        assert_eq!(jobs_of(&["fig2", "fig3"]), [["fig2", "fig3"]]);
        assert_eq!(jobs_of(&["fig3", "table1", "fig2"]), [vec!["fig3", "fig2"], vec!["table1"]]);
        let all = jobs_of(&["all"]);
        assert_eq!(all.len(), PAPER_IDS.len() - PAIRS.len());
        for pair in PAIRS {
            assert_eq!(all.iter().filter(|job| job[..] == pair[..]).count(), 1, "{pair:?}");
        }
        assert!(all.iter().flatten().eq(PAPER_IDS.iter()), "every id once, in all order");
    }

    #[test]
    fn unknown_arguments_print_the_usage() {
        for bad in ["--nope", "--smoke", "--obs", "--quick", "fig99", "ALL"] {
            let err = parse_args(&["table1", bad]).unwrap_err();
            assert!(err.contains(&format!("unknown argument `{bad}`")), "{err}");
            assert!(err.contains("usage: figures"), "{bad}: {err}");
        }
    }

    #[test]
    fn path_options_need_a_path_and_their_driver() {
        for flag in ["--trace-out", "--timeseries-out"] {
            let err = parse_args(&["churn", "live", flag]).unwrap_err();
            assert!(err.contains(&format!("{flag} needs a path")), "{err}");
            assert!(err.contains("usage: figures"));
        }
        let err = parse_args(&["live", "--trace-out", "t.jsonl"]).unwrap_err();
        assert!(err.contains("--trace-out needs the `churn` id"), "{err}");
        let err = parse_args(&["all", "--timeseries-out", "ts.jsonl"]).unwrap_err();
        assert!(err.contains("--timeseries-out needs the `live` id"), "{err}");
    }

    #[test]
    fn pace_must_be_finite_and_non_negative() {
        assert_eq!(parse_args(&["live", "--pace", "0"]).unwrap().pace, Some(0.0));
        assert_eq!(parse_args(&["live"]).unwrap().pace, None, "unset means full rate");
        for bad in [&["-1"][..], &["nan"], &["inf"], &["x"], &[]] {
            let argv: Vec<&str> = ["live", "--pace"].iter().chain(bad).copied().collect();
            let err = parse_args(&argv).unwrap_err();
            assert!(err.contains("--pace needs"), "{bad:?} must be rejected: {err}");
        }
        let err = parse_args(&["churn", "--pace", "2"]).unwrap_err();
        assert!(err.contains("--pace needs the `live` id"), "{err}");
    }

    /// A seeded mutation fuzz of the command line, after
    /// `tests/hostile_input.rs`: argv vectors drawn from the ids, the
    /// options and junk tokens (empty strings, repeated options, an
    /// option last without its value, paces that are not finite,
    /// negative or out of range). Each must parse to `Ok` or to an
    /// `Err` carrying the usage, never panic; every `Ok` keeps
    /// `parse`'s invariants.
    #[test]
    fn hostile_command_lines_never_panic_the_parser() {
        const CASES: usize = 5_000;
        const OPTIONS: [&str; 5] = ["--full", "--trace-out", "--timeseries-out", "--pace", "all"];
        const PACES: [&str; 9] = ["NaN", "inf", "-inf", "-0", "1e400", "-1", "0", "2.5", "1e-400"];
        const JUNK: [&str; 12] =
            ["", " ", "-", "--", "--pace=1", "--FULL", "ALL", "fig99", "t.jsonl", "\0", "é", "-1"];
        let mut rng = hieras_rt::Rng::seed_from_u64(0xc11);
        let (mut accepted, mut with_pace) = (0usize, 0usize);
        for case in 0..CASES {
            let mut argv = Vec::new();
            for _ in 0..rng.random_range(0usize..7) {
                let pool: &[&str] = match rng.random_range(0u32..5) {
                    0 => &PAPER_IDS,
                    1 => &DRIVER_IDS,
                    2 => &OPTIONS,
                    3 => &PACES,
                    _ => &JUNK,
                };
                let token = *rng.choose(pool).expect("a non-empty pool");
                argv.push(token.to_owned());
                if token == "--pace" && rng.random_range(0u32..2) == 0 {
                    argv.push((*rng.choose(&PACES).expect("paces")).to_owned());
                }
            }
            let outcome = std::panic::catch_unwind(|| parse(argv.clone()));
            let parsed = outcome.unwrap_or_else(|_| panic!("case {case} panicked on {argv:?}"));
            let a = match parsed {
                Ok(a) => a,
                Err(err) => {
                    assert!(err.starts_with("figures: "), "case {case} {argv:?}: {err}");
                    assert!(err.ends_with(USAGE), "case {case} {argv:?}: no usage in {err}");
                    continue;
                }
            };
            accepted += 1;
            assert!(!a.ids.is_empty(), "case {case} {argv:?}: no id means all");
            for (set, id) in [
                (a.trace_out.is_some(), "churn"),
                (a.timeseries_out.is_some(), "live"),
                (a.pace.is_some(), "live"),
            ] {
                assert!(!set || a.ids.contains(&id), "case {case} {argv:?}: no `{id}` id");
            }
            if let Some(pace) = a.pace {
                with_pace += 1;
                assert!(pace.is_finite() && pace >= 0.0, "case {case} {argv:?}: pace {pace}");
            }
        }
        // Neither answer may swallow the corpus, and some paces get through.
        assert!(accepted > CASES / 10 && accepted < CASES * 9 / 10, "{accepted} accepted");
        assert!(with_pace > 0, "no accepted case set a pace");
    }

    #[test]
    fn json_record_is_on_disk_before_any_markdown_is_printed() {
        let dir = scratch("record");
        let args = Args::default();
        let figs = write_job(&["table1"], &args, &dir).expect("table1 is a figure id");
        assert_eq!(figs.len(), 1, "one figure per id");
        let fig = &figs[0];
        let json = std::fs::read_to_string(dir.join("table1.json")).expect("record written");
        std::fs::remove_dir_all(&dir).expect("scratch directory removed");
        let record: Json = hieras_rt::from_str(&json).expect("record is JSON");
        assert!(record.get("table1").is_some());
        for field in ["seed", "threads", "nproc", "full", "git_sha"] {
            assert!(record.get(field).is_some(), "provenance field `{field}` missing");
        }
        let sha: String = record.field("git_sha").expect("git_sha is a string");
        assert!(!sha.is_empty(), "a commit id or `unknown`");
        assert!(!fig.diverged);
        assert!(fig.md.contains("| A | 25ms | 5ms | 30ms | 100ms |"), "markdown: {}", fig.md);
        assert!(write_job(&["fig99"], &args, &dir).is_err(), "unknown id");
        assert!(!dir.exists(), "an unknown id writes nothing");
    }

    #[test]
    fn an_unwritable_results_directory_is_an_error() {
        // A results "directory" below a regular file cannot be created.
        let file = scratch("blocker");
        std::fs::write(&file, "").expect("scratch file written");
        let err = write_job(&["table1"], &Args::default(), &file.join("results"));
        std::fs::remove_file(&file).expect("scratch file removed");
        let err = err.err().expect("the write must fail");
        assert!(err.contains("could not write"), "{err}");
    }
}
