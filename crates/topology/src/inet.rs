//! Inet-style power-law topology generator.
//!
//! The Inet generator (Jin, Chen & Jamin, UM-CSE-TR-443-00) produces
//! AS-level topologies whose degree distribution follows the power law
//! observed in BGP tables (frequency ∝ degree^−α with α ≈ 2.2). This
//! module reproduces that structural property: a degree sequence drawn
//! from a truncated discrete power law, realized by preferential
//! attachment with a connectivity repair pass.
//!
//! Inet emits no link delays. As in common practice (and noted in
//! DESIGN.md §5), routers are placed uniformly on a plane and each
//! link's delay is proportional to its Euclidean length, yielding the
//! heterogeneous delay distribution HIERAS exercises. The paper's Inet
//! experiments start at 3000 nodes; [`InetConfig::for_peers`] enforces
//! the same minimum.

use crate::graph::Components;
use crate::{GraphBuilder, NodeKind, Topology};
use hieras_rt::Rng;

/// Parameters for the Inet-style generator.
#[derive(Debug, Clone, PartialEq)]
pub struct InetConfig {
    /// Number of routers (Inet requires ≥ 3000 in the original tool;
    /// we allow smaller for tests but `for_peers` clamps to 3000 as the
    /// paper does).
    pub nodes: usize,
    /// Power-law exponent α for the degree distribution (Inet-3.0 ≈ 2.2).
    pub alpha: f64,
    /// Maximum degree cap (fraction of n), mirroring Inet's top-degree node.
    pub max_degree_frac: f64,
    /// Side length of the placement plane, in "distance units".
    pub plane: f64,
    /// Delay per distance unit in milliseconds.
    pub ms_per_unit: f64,
    /// RNG seed.
    pub seed: u64,
}

impl InetConfig {
    /// Configuration for `peers` overlay nodes, honouring the paper's
    /// 3000-node minimum for the Inet model.
    #[must_use]
    pub fn for_peers(peers: usize, seed: u64) -> Self {
        InetConfig {
            nodes: peers.max(3000),
            alpha: 2.2,
            max_degree_frac: 0.03,
            plane: 1000.0,
            ms_per_unit: 0.12,
            seed,
        }
    }

    /// Generates the topology.
    ///
    /// # Panics
    /// Panics if `nodes < 4` or `alpha <= 1.0`.
    #[must_use]
    pub fn generate(&self) -> Topology {
        assert!(self.nodes >= 4, "Inet model needs at least 4 nodes");
        assert!(self.alpha > 1.0, "power-law exponent must exceed 1");
        let mut rng = Rng::seed_from_u64(self.seed);
        let n = self.nodes;

        // Node placement on the plane (drives link delays).
        let coords: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.random_range(0.0..self.plane), rng.random_range(0.0..self.plane)))
            .collect();

        // Target degree sequence: discrete power law P(d) ∝ d^-α,
        // d ∈ [1, max_degree], drawn by inverse-CDF sampling.
        let max_degree = ((n as f64 * self.max_degree_frac) as usize).clamp(3, n - 1);
        let weights: Vec<f64> = (1..=max_degree).map(|d| (d as f64).powf(-self.alpha)).collect();
        let total_w: f64 = weights.iter().sum();
        let mut degrees: Vec<usize> = (0..n)
            .map(|_| {
                let mut r = rng.random_range(0.0..total_w);
                for (i, w) in weights.iter().enumerate() {
                    if r < *w {
                        return i + 1;
                    }
                    r -= w;
                }
                max_degree
            })
            .collect();
        // Inet guarantees a connected core by promoting the top nodes;
        // give the three largest hubs generous degrees.
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        // degrees[i] belongs to router order[i]; hubs are the first few.
        let mut want = vec![0usize; n];
        for (rank, &node) in order.iter().enumerate() {
            want[node] = degrees[rank];
        }

        let mut graph = GraphBuilder::with_nodes(n);
        let delay = |a: (f64, f64), b: (f64, f64)| -> u16 {
            let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
            (d * self.ms_per_unit).round().clamp(1.0, f64::from(u16::MAX - 1)) as u16
        };

        // Preferential attachment on residual degrees: process nodes in
        // random order; each node spends its degree budget connecting to
        // nodes with remaining budget, weighted by that budget.
        let mut residual = want.clone();
        let mut stubs: Vec<u32> = Vec::new();
        for (node, &w) in want.iter().enumerate() {
            for _ in 0..w {
                stubs.push(node as u32);
            }
        }
        rng.shuffle(&mut stubs);
        // Pair off half-edge stubs (configuration-model style), skipping
        // self-loops/duplicates.
        let mut i = 0;
        while i + 1 < stubs.len() {
            let (u, v) = (stubs[i], stubs[i + 1]);
            i += 2;
            if u != v && !graph.has_edge(u, v) {
                graph.add_edge(u, v, delay(coords[u as usize], coords[v as usize]));
                residual[u as usize] = residual[u as usize].saturating_sub(1);
                residual[v as usize] = residual[v as usize].saturating_sub(1);
            }
        }

        // Connectivity repair: link every non-main component to the
        // largest component through its closest (planar) node, mimicking
        // Inet's connected-core guarantee.
        repair_connectivity(&mut graph, &coords, delay);

        let attach_candidates = (0..n as u32).collect();
        Topology { graph: graph.into_shared(), kind: vec![NodeKind::Router; n], attach_candidates, domain: (0..n as u32).collect(), model: "inet" }
    }
}

/// Joins all components to the largest one with shortest planar links.
fn repair_connectivity(
    graph: &mut GraphBuilder,
    coords: &[(f64, f64)],
    delay: impl Fn((f64, f64), (f64, f64)) -> u16,
) {
    let n = graph.node_count();
    let parts = Components::walk(n, |u| graph.neighbors(u), |_, _| true);
    if parts.count() <= 1 {
        return;
    }
    // The largest component (the last of equal sizes).
    let main = (0..parts.count()).max_by_key(|&c| parts.size(c)).unwrap_or(0);
    // Representative of main component nearest to each foreign node.
    let main_nodes = parts.members(main);
    let mut linked = vec![false; parts.count()];
    linked[main] = true;
    for u in 0..n {
        let c = parts.comp[u] as usize;
        if linked[c] {
            continue;
        }
        // Closest main-component node on the plane: least squared
        // distance (`to_bits` is order-preserving for the non-negative
        // distances here), then least node index.
        let key = |a: u32| -> (u64, u32) { (dist2(coords[u], coords[a as usize]).to_bits(), a) };
        let v = main_nodes.iter().map(|&a| key(a)).min().expect("main component non-empty").1;
        graph.add_edge(u as u32, v, delay(coords[u], coords[v as usize]));
        linked[c] = true;
    }
}

fn dist2(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> InetConfig {
        InetConfig { nodes: 500, ..InetConfig::for_peers(0, seed) }
    }

    #[test]
    fn generated_topology_is_connected() {
        for seed in 0..3 {
            let t = small(seed).generate();
            assert!(t.graph.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn for_peers_respects_paper_minimum() {
        assert_eq!(InetConfig::for_peers(1000, 0).nodes, 3000);
        assert_eq!(InetConfig::for_peers(5000, 0).nodes, 5000);
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let t = small(7).generate();
        let n = t.router_count();
        let degs: Vec<usize> = (0..n as u32).map(|u| t.graph.degree(u)).collect();
        let max = *degs.iter().max().unwrap();
        let ones = degs.iter().filter(|&&d| d <= 2).count();
        // Power law: most nodes have tiny degree, hubs exist.
        assert!(ones > n / 3, "expected many low-degree nodes, got {ones}/{n}");
        assert!(max >= 8, "expected hub nodes, max degree {max}");
    }

    #[test]
    fn delays_are_heterogeneous() {
        let t = small(11).generate();
        let mut delays: Vec<u16> = Vec::new();
        for u in 0..t.router_count() as u32 {
            for e in t.graph.neighbors(u) {
                if e.to > u {
                    delays.push(e.delay_ms);
                }
            }
        }
        let min = *delays.iter().min().unwrap();
        let max = *delays.iter().max().unwrap();
        assert!(max > 4 * min.max(1), "delays not heterogeneous: {min}..{max}");
    }

    #[test]
    fn all_routers_are_attach_candidates() {
        let t = small(13).generate();
        assert_eq!(t.attach_candidates.len(), t.router_count());
        assert_eq!(t.model, "inet");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small(21).generate();
        let b = small(21).generate();
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
    }
}
