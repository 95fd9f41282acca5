//! Workload generation: "randomly generated routing requests" (§4.1),
//! plus skewed models for realistic traffic.
//!
//! Requests are derived from the request *index* through a SplitMix64
//! stream, so request `i` is identical whether the replay is
//! sequential, chunked, or parallel — determinism is independent of
//! thread count.
//!
//! Beyond the paper's uniform draws, [`WorkloadModel::Skew`] generates
//! Zipf-popular keys (bounded-Pareto inverse CDF — O(1), no frequency
//! tables), landmark-clustered source draws (peers are numbered
//! locality-packed, so a contiguous index slice approximates one
//! landmark region). All of it is a pure function of `(seed, i)`, so
//! the skewed stream inherits the same thread invariance as the
//! uniform one.

use hieras_id::{Id, Key};
use hieras_rt::{splitmix64, Json, ToJson};

/// Requests with popularity rank at or below this count form the
/// "hot-key subset" that cache benchmarks report separately.
pub const HOT_RANK_MAX: u32 = 16;

/// Number of distinct keys a skewed stream draws (popularity ranks
/// `1..=KEY_UNIVERSE`).
const KEY_UNIVERSE: u32 = 65_536;
/// Number of source clusters (≈ landmark regions; peers are
/// locality-packed so cluster `c` is one contiguous index slice).
const CLUSTERS: u32 = 8;
/// Probability a skewed request's source comes from its key's home
/// cluster rather than uniformly from all peers.
const CLUSTER_BIAS: f64 = 0.7;

/// Skewed-draw parameters: Zipf keys over a 64k-key universe with
/// 8 source clusters at 70% home-cluster bias.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewParams {
    /// Zipf exponent `s` (0 = uniform over the universe, 0.99 = the
    /// classic web-trace figure, >1 = heavy head).
    pub exponent: f64,
}

impl SkewParams {
    /// Zipf(`exponent`) keys with clustered sources.
    #[must_use]
    pub fn zipf(exponent: f64) -> Self {
        SkewParams { exponent }
    }
}

/// How `(source, key)` pairs are drawn from the request index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadModel {
    /// The paper's model: uniform source, uniform 64-bit key. The
    /// derivation is bit-exact with the pre-skew `Workload`, so every
    /// historical metric stays byte-identical.
    Uniform,
    /// Zipf keys, clustered sources.
    Skew(SkewParams),
}

impl WorkloadModel {
    /// Short model name for bench descriptors.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadModel::Uniform => "uniform",
            WorkloadModel::Skew(_) => "zipf",
        }
    }
}

/// A deterministic stream of `(source node, lookup key)` requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Number of overlay nodes (sources are drawn from `0..nodes`).
    pub nodes: u32,
    /// Number of requests.
    pub requests: usize,
    /// Stream seed.
    pub seed: u64,
    /// Draw model (uniform unless configured otherwise).
    pub model: WorkloadModel,
}

impl Workload {
    /// Creates a uniform workload description.
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    #[must_use]
    pub fn new(nodes: u32, requests: usize, seed: u64) -> Self {
        assert!(nodes > 0, "workload needs at least one node");
        Workload { nodes, requests, seed, model: WorkloadModel::Uniform }
    }

    /// Creates a workload with an explicit draw model.
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    #[must_use]
    pub fn with_model(nodes: u32, requests: usize, seed: u64, model: WorkloadModel) -> Self {
        assert!(nodes > 0, "workload needs at least one node");
        Workload { nodes, requests, seed, model }
    }

    /// The `i`-th request.
    #[must_use]
    pub fn request(&self, i: usize) -> (u32, Key) {
        let (src, key, _) = self.request_detail(i);
        (src, key)
    }

    /// The `i`-th request plus its popularity rank (1-based; `None`
    /// for the uniform model, whose keys have no rank structure).
    #[must_use]
    pub fn request_detail(&self, i: usize) -> (u32, Key, Option<u32>) {
        // Draw `k` of a SplitMix64 stream seeded at `x`.
        let x = self.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let draw = |k: u64| splitmix64(x.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        let (a, b) = (draw(0), draw(1));
        match &self.model {
            WorkloadModel::Uniform => {
                ((a % u64::from(self.nodes)) as u32, Id(b), None)
            }
            WorkloadModel::Skew(p) => {
                let rank = zipf_rank(to_unit(b), KEY_UNIVERSE, p.exponent);
                let src = if to_unit(draw(2)) < CLUSTER_BIAS {
                    self.cluster_source(self.cluster_of_rank(rank), a)
                } else {
                    (a % u64::from(self.nodes)) as u32
                };
                (src, self.key_of_rank(rank), Some(rank))
            }
        }
    }

    /// The stable 64-bit key identified by popularity rank `rank`.
    #[must_use]
    pub fn key_of_rank(&self, rank: u32) -> Key {
        Id(splitmix64(self.seed ^ 0x6b79_5f72_616e_6b21 ^ u64::from(rank)))
    }

    /// Which cluster a key rank calls home (stable per seed).
    fn cluster_of_rank(&self, rank: u32) -> u32 {
        let h = splitmix64(self.seed ^ 0x636c_7573_7465_7221 ^ u64::from(rank));
        (h % u64::from(CLUSTERS)) as u32
    }

    /// A source drawn from cluster `cluster`'s contiguous index slice.
    fn cluster_source(&self, cluster: u32, entropy: u64) -> u32 {
        let clusters = CLUSTERS.min(self.nodes);
        let cluster = cluster % clusters;
        let lo = (u64::from(self.nodes) * u64::from(cluster) / u64::from(clusters)) as u32;
        let hi = (u64::from(self.nodes) * u64::from(cluster + 1) / u64::from(clusters)) as u32;
        let span = (hi - lo).max(1);
        lo + (entropy % u64::from(span)) as u32
    }

    /// Iterates all requests.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Key)> + '_ {
        (0..self.requests).map(|i| self.request(i))
    }

    /// Self-describing descriptor for bench JSON rows.
    #[must_use]
    pub fn spec(&self) -> WorkloadSpec {
        WorkloadSpec { model: self.model, seed: self.seed }
    }
}

/// Bench-row descriptor: which model generated a row's traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Draw model.
    pub model: WorkloadModel,
    /// Stream seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Descriptor for the legacy uniform stream at `seed`.
    #[must_use]
    pub fn uniform(seed: u64) -> Self {
        WorkloadSpec { model: WorkloadModel::Uniform, seed }
    }
}

impl ToJson for WorkloadSpec {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("model", self.model.name().to_json()),
            ("seed", self.seed.to_json()),
        ];
        if let WorkloadModel::Skew(p) = &self.model {
            fields.push(("zipf_exponent", p.exponent.to_json()));
        }
        Json::obj(fields)
    }
}

/// Inverse-CDF Zipf rank in `1..=universe` via the bounded-Pareto
/// continuous approximation — O(1), table-free, and a pure function of
/// the unit draw `u`, so it keeps the stream index-addressable.
fn zipf_rank(u: f64, universe: u32, exponent: f64) -> u32 {
    let n = f64::from(universe);
    let u = u.clamp(0.0, 1.0 - 1e-12);
    let r = if (exponent - 1.0).abs() < 1e-9 {
        // s → 1 limit: CDF ∝ ln(rank), so rank = N^u.
        n.powf(u)
    } else {
        let one_minus_s = 1.0 - exponent;
        (u * (n.powf(one_minus_s) - 1.0) + 1.0).powf(1.0 / one_minus_s)
    };
    (r.floor() as u32).clamp(1, universe)
}

/// Maps a 64-bit draw onto `[0, 1)`.
fn to_unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_deterministic_and_index_addressable() {
        let w = Workload::new(100, 1000, 42);
        let all: Vec<_> = w.iter().collect();
        assert_eq!(all.len(), 1000);
        for (i, &(src, key)) in all.iter().enumerate() {
            assert_eq!(w.request(i), (src, key));
            assert!(src < 100);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = Workload::new(50, 100, 1).iter().collect();
        let b: Vec<_> = Workload::new(50, 100, 2).iter().collect();
        assert_ne!(a, b);
    }

    #[test]
    fn sources_cover_the_node_range() {
        let w = Workload::new(16, 2000, 7);
        let mut seen = [false; 16];
        for (src, _) in w.iter() {
            seen[src as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some node never originates a request");
    }

    #[test]
    fn keys_are_spread() {
        let w = Workload::new(4, 4096, 11);
        let high = w.iter().filter(|(_, k)| k.raw() >> 63 == 1).count();
        assert!((1600..=2500).contains(&high), "keys badly skewed: {high}");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = Workload::new(0, 10, 0);
    }

    /// The uniform derivation through the model enum must remain
    /// bit-exact with the historical two-draw stream: every bench
    /// metric recorded before skewed models existed depends on it.
    #[test]
    fn uniform_model_matches_legacy_derivation() {
        let w = Workload::new(128, 512, 0xdead_beef);
        for i in 0..512 {
            // The first two outputs of a stateful SplitMix64 generator
            // started at state `x`.
            let mut x = 0xdead_beefu64 ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let (a, b) = (next(), next());
            assert_eq!(w.request(i), ((a % 128) as u32, Id(b)));
        }
        // Pinned outputs, uniform and Zipf, from before the stream's
        // helpers were folded into `hieras_rt::splitmix64`.
        assert_eq!(w.request(0), (27, Id(0xde58_6a31_41a1_0922)));
        assert_eq!(w.request(511), (63, Id(0xbb8f_8d7f_f110_536a)));
        let z = Workload::with_model(200, 8000, 7, WorkloadModel::Skew(SkewParams::zipf(0.99)));
        assert_eq!(z.request_detail(1), (54, Id(0x61f4_444c_8989_ec89), Some(62_519)));
        assert_eq!(z.request_detail(7999), (132, Id(0x544d_74f7_984d_98e0), Some(7)));
    }

    #[test]
    fn zipf_stream_is_deterministic_and_skewed() {
        let w = Workload::with_model(200, 8000, 7, WorkloadModel::Skew(SkewParams::zipf(0.99)));
        let again = Workload::with_model(200, 8000, 7, WorkloadModel::Skew(SkewParams::zipf(0.99)));
        let hot_key = w.key_of_rank(1);
        let mut hot = 0usize;
        let mut hot_subset = 0usize;
        for i in 0..8000 {
            let (src, key, rank) = w.request_detail(i);
            assert_eq!(again.request_detail(i), (src, key, rank));
            assert!(src < 200);
            let rank = rank.expect("skewed draws carry a rank");
            assert!(rank >= 1);
            if key == hot_key {
                assert_eq!(rank, 1);
                hot += 1;
            }
            if rank <= HOT_RANK_MAX {
                hot_subset += 1;
            }
        }
        // Zipf(0.99) over 64k keys: rank 1 alone carries ~8% of
        // draws, the top-16 subset roughly a quarter. Wide bounds —
        // this asserts skew exists, not an exact distribution.
        assert!(hot > 8000 / 25, "rank-1 key drew only {hot} of 8000");
        assert!(hot_subset > 8000 / 8, "hot subset drew only {hot_subset} of 8000");
        assert!(hot_subset < 8000, "degenerate: everything hot");
    }

    #[test]
    fn zipf_exponent_orders_head_mass() {
        let mass = |s: f64| {
            let w = Workload::with_model(64, 6000, 3, WorkloadModel::Skew(SkewParams::zipf(s)));
            (0..6000)
                .filter(|&i| w.request_detail(i).2.expect("rank") <= HOT_RANK_MAX)
                .count()
        };
        let (lo, mid, hi) = (mass(0.8), mass(0.99), mass(1.2));
        assert!(lo < mid && mid < hi, "head mass not monotone in s: {lo} {mid} {hi}");
    }

    #[test]
    fn clustered_sources_concentrate_per_key() {
        let w = Workload::with_model(800, 40_000, 9, WorkloadModel::Skew(SkewParams::zipf(0.99)));
        // Each rank calls one of 8 contiguous 100-peer slices home
        // (800 peers). A draw takes its source from there with
        // probability 0.7, otherwise uniformly — which lands in the
        // home slice one time in 8 more: 0.7 + 0.3 / 8 ≈ 0.7375.
        let mut home = 0usize;
        let mut slices_of_rank: std::collections::HashMap<u32, [u32; 8]> =
            std::collections::HashMap::new();
        for i in 0..40_000 {
            let (src, _, rank) = w.request_detail(i);
            let rank = rank.expect("rank");
            let slice = src / 100;
            assert!(slice < 8);
            if slice == w.cluster_of_rank(rank) {
                home += 1;
            }
            slices_of_rank.entry(rank).or_default()[slice as usize] += 1;
        }
        let share = home as f64 / 40_000.0;
        assert!((0.72..0.755).contains(&share), "home-slice share {share}");
        // The hottest rank's draws concentrate on its home slice.
        let hot = slices_of_rank[&1];
        let peak = *hot.iter().max().expect("8 slices");
        assert_eq!(peak, hot[w.cluster_of_rank(1) as usize]);
        assert!(f64::from(peak) > 0.65 * f64::from(hot.iter().sum::<u32>()), "{hot:?}");
    }

    #[test]
    fn workload_spec_describes_the_model() {
        let u = Workload::new(10, 10, 5).spec().to_json().dump();
        assert!(u.contains("\"model\":\"uniform\""), "{u}");
        let z = Workload::with_model(10, 10, 5, WorkloadModel::Skew(SkewParams::zipf(1.2)))
            .spec()
            .to_json()
            .dump();
        assert!(z.contains("\"model\":\"zipf\""), "{z}");
        assert!(z.contains("\"zipf_exponent\""), "{z}");
    }
}
