//! The repo's benchmark. One process runs one workload, untraced
//! (`--trace 0`: the end-to-end metrics) or traced (`--trace 1`: the
//! per-layer metrics and `out/trace.<workload>.jsonl`), checks its
//! outputs, prints every metric by name with its unit, and prints the
//! driver's one-line JSON result last. `run.sh` builds and drives it;
//! `README.md` has the catalogue.

mod catalogue;
mod e2e;
mod estimate;
mod report;
mod spans;
mod spec;
mod summarize;
mod traced;
mod world;

use report::{Provenance, Report};
use spec::Spec;
use std::path::PathBuf;
use std::process::ExitCode;

/// Timed seconds of one run unless `--seconds` says otherwise; equals
/// `run_seconds` in BENCHMARK.json, so `run.sh` and the driver measure
/// the same thing.
pub const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 2.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    chrome_trace: bool,
    out: PathBuf,
    git_sha: String,
    rustc: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: hieras-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      [--smoke] [--chrome-trace] [--out DIR] [--git-sha SHA] [--rustc VERSION]\n\
         \x20      hieras-benchmark summarize <BENCHMARK.json> <out.json> <run-dir>...\n\
         \x20      hieras-benchmark catalogue",
        Spec::all()
            .iter()
            .map(|s| s.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    std::process::exit(2)
}

fn parse(mut argv: impl Iterator<Item = String>) -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: spec::DEFAULT_SEED,
        seconds: None,
        traced: false,
        smoke: false,
        chrome_trace: false,
        out: PathBuf::from("benchmark/out"),
        git_sha: "unknown".into(),
        rustc: "unknown".into(),
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                a.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => a.smoke = true,
            "--chrome-trace" => a.chrome_trace = true,
            "--out" => a.out = value().into(),
            "--git-sha" => a.git_sha = value(),
            "--rustc" => a.rustc = value(),
            _ => usage(),
        }
    }
    if a.seconds.is_some_and(|s| !(s.is_finite() && s > 0.0)) {
        usage();
    }
    a
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("summarize") => return summarize::main(argv.skip(1).collect()),
        Some("catalogue") => {
            catalogue::print();
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = parse(argv);
    let Some(spec) = Spec::by_name(&args.workload) else {
        usage()
    };
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let peers = spec.peers(args.smoke);
    let prov = Provenance {
        git_sha: args.git_sha,
        rustc: args.rustc,
        nproc: spec::nproc(),
        threads: match spec.driver {
            spec::Driver::Replay => format!("{} replay/build", spec.threads()),
            spec::Driver::Live => format!("1 maintainer + {} readers", spec.readers()),
        },
        seed: args.seed,
        seconds,
        smoke: args.smoke,
    };

    println!("{}: {}", spec.name, spec.why);
    let mut rep = Report::new(spec.name, args.traced);
    if args.traced {
        let mut tracer = spans::Tracer::new();
        traced::run(spec, peers, args.seed, seconds, &mut rep, &mut tracer);
        // Spans stay in memory until the measured work is over.
        let mut files = vec![(format!("trace.{}.jsonl", spec.name), tracer.to_jsonl())];
        if args.chrome_trace {
            files.push((
                format!("trace.{}.chrome.json", spec.name),
                tracer.to_chrome(),
            ));
        }
        for (name, body) in files {
            let path = args.out.join(name);
            if let Err(e) =
                std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, body))
            {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("wrote {}", path.display());
        }
    } else {
        e2e::run(spec, peers, args.seed, seconds, &mut rep);
    }
    ExitCode::from(rep.finish(&prov, &args.out) as u8)
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_seconds_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let j = hieras_rt::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            j.field::<f64>("run_seconds").unwrap(),
            super::DEFAULT_SECONDS
        );
    }
}
