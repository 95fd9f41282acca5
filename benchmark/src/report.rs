//! One run's result: catalogued metrics, non-gating extras, the output
//! check's tally, provenance — printed by name, written under `out/`,
//! and condensed into the one-line JSON the driver reads.

use crate::catalogue::{MetricDef, END_TO_END, PER_LAYER};
use hieras_rt::{Json, ToJson};
use std::path::{Path, PathBuf};

/// Where a run came from; recorded in every output file.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub git_sha: String,
    pub rustc: String,
    pub nproc: usize,
    pub threads: String,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    metrics: Vec<(&'static str, f64)>,
    info: Vec<(String, Json)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Report {
            workload,
            traced,
            metrics: Vec::new(),
            info: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn catalogue(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Sets a catalogued metric.
    ///
    /// # Panics
    /// Panics on a name the active catalogue does not list, or a value
    /// set twice — both are bugs in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.catalogue().iter().any(|d| d.name == name),
            "{name} is not catalogued"
        );
        assert!(
            self.metrics.iter().all(|(n, _)| *n != name),
            "{name} set twice"
        );
        self.metrics.push((name, value));
    }

    /// A non-gating field: rep medians, tails, counts, digests.
    pub fn info(&mut self, key: &str, value: impl ToJson) {
        self.info.push((key.to_owned(), value.to_json()));
    }

    /// Look-ups (or other operations) whose answers the run checked.
    pub fn attempted(&mut self, n: u64) {
        self.attempted += n;
    }

    /// One output check: on failure, `weight` operations count as failed.
    pub fn check(&mut self, ok: bool, weight: u64, what: &str) {
        if !ok {
            self.failed += weight.max(1);
            self.failures.push(what.to_owned());
            eprintln!("CHECK FAILED: {what}");
        }
    }

    fn out_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!(
            "{}.{}.json",
            self.workload,
            if self.traced { "layers" } else { "e2e" }
        ))
    }

    /// Prints every metric by name with its unit, writes the run's JSON
    /// under `out_dir`, and prints the driver's result line last.
    /// Returns the process exit code: non-zero when an output check
    /// failed.
    ///
    /// # Panics
    /// Panics when the emitted names differ from the catalogue, or an
    /// end-to-end value is not a positive finite number.
    pub fn finish(self, prov: &Provenance, out_dir: &Path) -> i32 {
        let defs = self.catalogue();
        let mut ordered: Vec<(&MetricDef, f64)> = Vec::with_capacity(defs.len());
        for d in defs {
            let v = self
                .metrics
                .iter()
                .find(|(n, _)| *n == d.name)
                .unwrap_or_else(|| panic!("{} was never measured", d.name))
                .1;
            assert!(v.is_finite(), "{} is not finite", d.name);
            assert!(
                self.traced || v > 0.0,
                "end-to-end metric {} must never be 0",
                d.name
            );
            ordered.push((d, v));
        }
        let attempted = self.attempted.max(1);
        let correct = self.failed == 0;
        let failed_share = self.failed as f64 / attempted as f64;

        println!(
            "== {} [{}]{} seed {} ==",
            self.workload,
            if self.traced {
                "per-layer, traced"
            } else {
                "end-to-end, untraced"
            },
            if prov.smoke { " [smoke]" } else { "" },
            prov.seed
        );
        for (d, v) in &ordered {
            println!(
                "{:<38} {:>18.6} {:<6} ({} is better)",
                d.name,
                v,
                d.unit,
                d.better.label()
            );
        }
        println!(
            "{:<38} {:>18.6} share  (failed {} of {} attempted)",
            "failed_share", failed_share, self.failed, attempted
        );

        let metrics_json = Json::obj(ordered.iter().map(|(d, v)| {
            (
                d.name,
                Json::obj([("value", v.to_json()), ("unit", d.unit.to_json())]),
            )
        }));
        let file = Json::obj([
            ("workload", self.workload.to_json()),
            ("traced", self.traced.to_json()),
            ("smoke", prov.smoke.to_json()),
            ("seed", prov.seed.to_json()),
            ("seconds", prov.seconds.to_json()),
            ("git_sha", prov.git_sha.to_json()),
            ("rustc", prov.rustc.to_json()),
            ("nproc", prov.nproc.to_json()),
            ("threads", prov.threads.to_json()),
            ("correct", correct.to_json()),
            ("attempted", attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("failed_share", failed_share.to_json()),
            ("failures", self.failures.to_json()),
            ("metrics", metrics_json.clone()),
            ("info", Json::Obj(self.info.clone())),
        ]);
        let path = self.out_path(out_dir);
        if let Err(e) = std::fs::create_dir_all(out_dir)
            .and_then(|()| std::fs::write(&path, file.dump_pretty() + "\n"))
        {
            eprintln!("cannot write {}: {e}", path.display());
            return 2;
        }
        println!("wrote {}", path.display());

        let line = Json::obj([
            ("correct", correct.to_json()),
            ("attempted", attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", metrics_json),
        ]);
        println!("{}", line.dump());
        i32::from(!correct)
    }
}
