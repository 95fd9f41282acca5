//! BRITE-style topology generator.
//!
//! BRITE (Medina, Lakhina, Matta & Byers, MASCOTS'01) grows router
//! topologies incrementally: nodes are placed on a plane and join one
//! at a time, connecting `m` links by Barabási–Albert preferential
//! attachment (optionally distance-weighted, Waxman style). Link delays
//! in BRITE are propagation delays — proportional to Euclidean
//! distance — which is exactly what this module produces.

use crate::{GraphBuilder, NodeKind, Topology};
use hieras_rt::{Executor, Rng};

/// Candidate count from which the per-link weight vector is computed in
/// parallel. Below this a single dispatch costs more than the `exp()`
/// loop it parallelizes.
const PAR_WEIGHT_THRESHOLD: usize = 8192;

/// Candidates per parallel weight chunk. Fixed: chunk boundaries define
/// the float-summation grouping, which must not depend on thread count.
const PAR_WEIGHT_CHUNK: usize = 2048;

/// Parameters for the BRITE-style generator.
#[derive(Debug, Clone, PartialEq)]
pub struct BriteConfig {
    /// Number of routers.
    pub nodes: usize,
    /// Links added per joining node (BRITE's `m`; default 2).
    pub links_per_node: usize,
    /// Side length of the placement plane.
    pub plane: f64,
    /// Delay per distance unit in milliseconds.
    pub ms_per_unit: f64,
    /// Waxman locality bias: probability weight multiplier
    /// `exp(-d / (waxman_beta * plane))`; larger β ⇒ distance matters
    /// less. BRITE's BA mode corresponds to β = ∞ (no bias); we default
    /// to a mild bias which matches BRITE's combined mode.
    pub waxman_beta: f64,
    /// RNG seed.
    pub seed: u64,
}

impl BriteConfig {
    /// Configuration for `peers` overlay nodes.
    #[must_use]
    pub fn for_peers(peers: usize, seed: u64) -> Self {
        BriteConfig {
            nodes: peers.max(16),
            links_per_node: 2,
            plane: 1000.0,
            ms_per_unit: 0.12,
            waxman_beta: 0.4,
            seed,
        }
    }

    /// Generates the topology on the default executor.
    ///
    /// # Panics
    /// Panics if `nodes < links_per_node + 1` or `links_per_node == 0`.
    #[must_use]
    pub fn generate(&self) -> Topology {
        self.generate_on(&Executor::default())
    }

    /// [`BriteConfig::generate`] on a caller-supplied executor: for
    /// large joining steps the degree × Waxman weight vector (the
    /// `exp()`-heavy inner loop) is computed in parallel. Whether a
    /// step parallelizes depends only on its size, and partial sums
    /// merge in fixed chunk order, so the graph is a pure function of
    /// the config at any thread count.
    ///
    /// # Panics
    /// Panics if `nodes < links_per_node + 1` or `links_per_node == 0`.
    #[must_use]
    pub fn generate_on(&self, exec: &Executor) -> Topology {
        assert!(self.links_per_node >= 1, "need at least one link per node");
        assert!(
            self.nodes > self.links_per_node,
            "need more nodes ({}) than links per node ({})",
            self.nodes,
            self.links_per_node
        );
        let mut rng = Rng::seed_from_u64(self.seed);
        let n = self.nodes;
        let m = self.links_per_node;

        let coords: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.random_range(0.0..self.plane), rng.random_range(0.0..self.plane)))
            .collect();
        let delay = |a: (f64, f64), b: (f64, f64)| -> u16 {
            let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
            (d * self.ms_per_unit).round().clamp(1.0, f64::from(u16::MAX - 1)) as u16
        };

        let mut graph = GraphBuilder::with_nodes(n);
        // Seed clique over the first m+1 nodes.
        for u in 0..=m {
            for v in (u + 1)..=m {
                graph.add_edge(u as u32, v as u32, delay(coords[u], coords[v]));
            }
        }
        // Incremental growth: node t connects m distinct targets among
        // 0..t, weighted by degree × Waxman distance factor.
        let beta_len = self.waxman_beta * self.plane;
        for t in (m + 1)..n {
            let mut chosen: Vec<u32> = Vec::with_capacity(m);
            for _ in 0..m {
                let weight_of = |u: usize| -> f64 {
                    if chosen.contains(&(u as u32)) {
                        0.0
                    } else {
                        let deg = graph.degree(u as u32) as f64;
                        let d = dist(coords[t], coords[u]);
                        deg * (-d / beta_len).exp()
                    }
                };
                // The parallel path groups the float sum per chunk, so
                // whether it runs must depend only on `t` — never on the
                // executor's thread count — to keep graphs thread-invariant.
                let (weights, total) = if t >= PAR_WEIGHT_THRESHOLD {
                    exec.par_fold(
                        t,
                        PAR_WEIGHT_CHUNK,
                        || (Vec::new(), 0.0f64),
                        |acc, u| {
                            let w = weight_of(u);
                            acc.0.push(w);
                            acc.1 += w;
                        },
                        |mut a, mut b| {
                            a.0.append(&mut b.0);
                            a.1 += b.1;
                            a
                        },
                    )
                } else {
                    let mut total = 0.0f64;
                    let mut weights: Vec<f64> = Vec::with_capacity(t);
                    for u in 0..t {
                        let w = weight_of(u);
                        weights.push(w);
                        total += w;
                    }
                    (weights, total)
                };
                let pick = if total > 0.0 {
                    let mut r = rng.random_range(0.0..total);
                    let mut sel = t - 1;
                    for (u, w) in weights.iter().enumerate() {
                        if r < *w {
                            sel = u;
                            break;
                        }
                        r -= w;
                    }
                    sel as u32
                } else {
                    // All earlier nodes already chosen (tiny t): pick any.
                    rng.random_range(0..t) as u32
                };
                if !chosen.contains(&pick) {
                    chosen.push(pick);
                }
            }
            for &u in &chosen {
                graph.add_edge(t as u32, u, delay(coords[t], coords[u as usize]));
            }
        }

        let attach_candidates = (0..n as u32).collect();
        Topology { graph: graph.into_shared(), kind: vec![NodeKind::Router; n], attach_candidates, domain: (0..n as u32).collect(), model: "brite" }
    }
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> BriteConfig {
        BriteConfig { nodes: 400, ..BriteConfig::for_peers(0, seed) }
    }

    #[test]
    fn generated_topology_is_connected() {
        for seed in 0..3 {
            let t = small(seed).generate();
            assert!(t.graph.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn incremental_growth_yields_preferential_hubs() {
        let t = small(5).generate();
        let max_deg =
            (0..t.router_count() as u32).map(|u| t.graph.degree(u)).max().unwrap();
        assert!(max_deg >= 8, "BA growth should create hubs, max degree {max_deg}");
    }

    #[test]
    fn edge_count_is_roughly_m_per_node() {
        let cfg = small(6);
        let t = cfg.generate();
        let expect = (t.router_count() - cfg.links_per_node - 1) * cfg.links_per_node;
        // Seed clique adds a few; duplicates may drop a few.
        assert!(t.graph.edge_count() >= expect / 2);
        assert!(t.graph.edge_count() <= expect + 16);
    }

    #[test]
    fn delays_scale_with_distance() {
        let t = small(8).generate();
        let mut delays: Vec<u16> = Vec::new();
        for u in 0..t.router_count() as u32 {
            for e in t.graph.neighbors(u) {
                if e.to > u {
                    delays.push(e.delay_ms);
                }
            }
        }
        let max = *delays.iter().max().unwrap();
        let min = *delays.iter().min().unwrap();
        assert!(max > min, "all delays identical — distance not modelled");
    }

    #[test]
    #[should_panic(expected = "more nodes")]
    fn rejects_degenerate_config() {
        let cfg = BriteConfig { nodes: 2, links_per_node: 2, ..BriteConfig::for_peers(0, 0) };
        let _ = cfg.generate();
    }

    #[test]
    fn parallel_weight_path_is_thread_invariant() {
        // Past PAR_WEIGHT_THRESHOLD the weight vector is computed in
        // parallel; m = 1 keeps the quadratic growth loop affordable.
        let cfg = BriteConfig {
            nodes: PAR_WEIGHT_THRESHOLD + 800,
            links_per_node: 1,
            ..BriteConfig::for_peers(0, 3)
        };
        let base = cfg.generate_on(&Executor::new(1));
        for threads in [2, 8] {
            let t = cfg.generate_on(&Executor::new(threads));
            assert_eq!(t.graph.edge_count(), base.graph.edge_count());
            let same = (0..cfg.nodes as u32)
                .all(|u| t.graph.neighbors(u) == base.graph.neighbors(u));
            assert!(same, "{threads}-thread BRITE generation diverged");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small(9).generate();
        let b = small(9).generate();
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        let diff = small(10).generate();
        let same = (0..a.router_count() as u32)
            .all(|u| a.graph.neighbors(u) == diff.graph.neighbors(u));
        assert!(!same);
    }
}
