//! Helpers shared by the untraced and the traced run: building the
//! world, the brute-force owner reference, and the process's peak RSS.

use crate::spec::Spec;
use hieras_id::Id;
use hieras_obs::Profiler;
use hieras_rt::splitmix64;
use hieras_sim::{BuildOptions, Experiment, Workload};

/// The workload's set-up: the one call `setup_s` times.
pub fn build(spec: &Spec, peers: usize, seed: u64) -> Experiment {
    Experiment::build_with(
        spec.experiment(peers, seed),
        &mut Profiler::new(),
        BuildOptions {
            exec: spec.executor(),
            oracle: spec.backend,
            precompute: true,
        },
    )
}

/// Brute-force reference for "who owns this key": the members sorted by
/// id, searched directly — no ring arena, no seek index, no routing.
pub struct Owners {
    sorted: Vec<(Id, u32)>,
}

impl Owners {
    pub fn over(ids: &[Id], members: impl IntoIterator<Item = u32>) -> Self {
        let mut sorted: Vec<(Id, u32)> =
            members.into_iter().map(|m| (ids[m as usize], m)).collect();
        sorted.sort_unstable();
        assert!(!sorted.is_empty(), "an overlay never empties");
        Owners { sorted }
    }

    /// The first member clockwise from `key` (inclusive), wrapping.
    pub fn owner_of(&self, key: Id) -> u32 {
        let p = self.sorted.partition_point(|&(id, _)| id < key);
        self.sorted[p % self.sorted.len()].1
    }

    /// The digest `ServeEngine::run_quiesced_workload` would report if
    /// every request of `w` resolved to its brute-force owner: per
    /// 256-request chunk a splitmix64 chain over `owner + 1`, chunk
    /// digests chained in ascending order.
    pub fn quiesced_digest(&self, w: &Workload) -> u64 {
        let mut out = 0u64;
        for lo in (0..w.requests).step_by(crate::spec::LOOKUPS_PER_EPOCH) {
            let hi = (lo + crate::spec::LOOKUPS_PER_EPOCH).min(w.requests);
            let mut chunk = 0u64;
            for i in lo..hi {
                let owner = self.owner_of(w.request(i).1);
                chunk = splitmix64(chunk ^ (u64::from(owner) + 1));
            }
            out = splitmix64(out ^ chunk);
        }
        out
    }
}

/// `VmHWM` of this process, bytes (0 where `/proc` has no such line).
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_force_owner_is_the_inclusive_successor_with_wrap() {
        let ids = [Id(50), Id(10), Id(30)];
        let o = Owners::over(&ids, 0..3);
        assert_eq!(
            o.owner_of(Id(10)),
            1,
            "a key equal to an id is owned by that node"
        );
        assert_eq!(o.owner_of(Id(11)), 2);
        assert_eq!(o.owner_of(Id(30)), 2);
        assert_eq!(o.owner_of(Id(31)), 0);
        assert_eq!(o.owner_of(Id(51)), 1, "past the largest id the ring wraps");
        assert_eq!(o.owner_of(Id(0)), 1);
        // A subset only ever answers with its own members.
        let sub = Owners::over(&ids, [0, 2]);
        assert_eq!(sub.owner_of(Id(5)), 2);
        assert_eq!(sub.owner_of(Id(31)), 0);
    }

    #[test]
    fn peak_rss_reads_a_positive_high_water_mark() {
        assert!(peak_rss_bytes() > 0);
    }
}
