//! `summarize`: holds repeated runs of the same code against the
//! benchmark's own bounds (`repeat.sh` drives it).
//!
//! For every workload × end-to-end metric it prints the median of the
//! given run directories, their quartile spread `(Q3 − Q1) / median` —
//! the statistic the driver holds against the bound — their relative
//! range `(max − min) / median`, and the bound from BENCHMARK.json.
//! Model metrics are simulated and exact: at one seed they must be
//! bit-identical across runs. A host-time metric's quartile spread must
//! stay within its bound.

use crate::catalogue::END_TO_END;
use crate::estimate::{median, quartile_spread, relative_range};
use crate::spec::Spec;
use hieras_rt::{Json, ToJson};
use std::path::Path;
use std::process::ExitCode;

/// Simulated, seed-determined metrics. A cached workload's route
/// figures are free-running (only `run_live` keeps a persistent reader
/// cache), so there only the static-replay ratio is exact.
fn exact(spec: &Spec, metric: &str) -> bool {
    match metric {
        "hieras_chord_latency_ratio" => true,
        "route_ms_p50" | "route_ms_p99" | "route_ms_p999" | "route_hops_mean" => !spec.cache,
        _ => false,
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<bool, String> {
    let [bench, out, dirs @ ..] = args else {
        return Err("summarize <BENCHMARK.json> <out.json> <run-dir>...".into());
    };
    if dirs.is_empty() {
        return Err("summarize needs at least one run directory".into());
    }
    let bench = load(Path::new(bench))?;
    let bound_of = |metric: &str| -> Result<f64, String> {
        bench
            .get("end_to_end")
            .and_then(Json::as_arr)
            .and_then(|l| {
                l.iter()
                    .find(|e| e.get("name").and_then(Json::as_str) == Some(metric))
            })
            .and_then(|e| e.field::<f64>("bound").ok())
            .ok_or_else(|| format!("BENCHMARK.json has no bound for {metric}"))
    };

    let mut rows = Vec::new();
    let mut all_ok = true;
    let mut context: Option<(u64, bool, f64)> = None;
    println!(
        "{:<18} {:<28} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "spread", "range", "bound"
    );
    for spec in Spec::all() {
        let runs: Vec<Json> = dirs
            .iter()
            .map(|d| load(&Path::new(d).join(format!("{}.e2e.json", spec.name))))
            .collect::<Result<_, _>>()?;
        for r in &runs {
            let ctx = (
                r.field::<u64>("seed").map_err(|e| e.to_string())?,
                r.field::<bool>("smoke").map_err(|e| e.to_string())?,
                r.field::<f64>("seconds").map_err(|e| e.to_string())?,
            );
            if *context.get_or_insert(ctx) != ctx {
                return Err("runs differ in seed, smoke or seconds: not comparable".into());
            }
            all_ok &= r.field::<bool>("correct").map_err(|e| e.to_string())?;
        }
        for d in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| {
                    r.get("metrics")
                        .and_then(|m| m.get(d.name))
                        .and_then(|m| m.field::<f64>("value").ok())
                        .ok_or_else(|| format!("{} lacks {}", spec.name, d.name))
                })
                .collect::<Result<_, _>>()?;
            let bound = bound_of(d.name)?;
            let range = relative_range(&values);
            let spread = quartile_spread(&values);
            let is_exact = exact(spec, d.name);
            let ok = if is_exact {
                values.iter().all(|v| v.to_bits() == values[0].to_bits())
            } else {
                spread <= bound
            };
            all_ok &= ok;
            println!(
                "{:<18} {:<28} {:>14.4} {:>8.2}% {:>8.2}% {:>6.1}%  {}",
                spec.name,
                d.name,
                median(&values),
                100.0 * spread,
                100.0 * range,
                100.0 * bound,
                match (is_exact, ok) {
                    (true, true) => "identical",
                    (true, false) => "MODEL METRIC MOVED",
                    (false, true) => "within bound",
                    (false, false) => "OUT OF BOUND",
                }
            );
            rows.push(Json::obj([
                ("workload", spec.name.to_json()),
                ("metric", d.name.to_json()),
                ("unit", d.unit.to_json()),
                ("values", values.to_json()),
                ("median", median(&values).to_json()),
                ("quartile_spread", spread.to_json()),
                ("relative_range", range.to_json()),
                ("bound", bound.to_json()),
                ("exact", is_exact.to_json()),
                ("ok", ok.to_json()),
            ]));
        }
    }
    let (seed, smoke, seconds) = context.expect("at least one run");
    let file = Json::obj([
        ("runs", dirs.len().to_json()),
        ("seed", seed.to_json()),
        ("smoke", smoke.to_json()),
        ("seconds", seconds.to_json()),
        ("ok", all_ok.to_json()),
        ("rows", Json::Arr(rows)),
    ]);
    std::fs::write(out, file.dump_pretty() + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(all_ok)
}

pub fn main(args: Vec<String>) -> ExitCode {
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("summarize: {e}");
            ExitCode::from(2)
        }
    }
}
