//! GT-ITM Transit-Stub topology generator.
//!
//! Reproduces the structural model of Zegura's GT-ITM `ts` generator
//! (the paper's primary network model, §4.1): a top-level backbone of
//! *transit domains*, each a small connected random graph of transit
//! routers; every transit router attaches a few *stub domains*, each a
//! connected random graph of stub routers. The paper's link delays are
//! the defaults: intra-transit 100 ms, transit–stub 20 ms, intra-stub
//! 5 ms. Inter-transit-domain links (which the paper does not list) use
//! the intra-transit delay, as in common GT-ITM parameterizations.

use crate::{GraphBuilder, NodeKind, Topology};
use hieras_rt::{Executor, Rng};

/// Parameters for the Transit-Stub generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitStubConfig {
    /// Number of transit domains (the paper varies this with network size).
    pub transit_domains: usize,
    /// Transit routers per transit domain.
    pub transit_nodes_per_domain: usize,
    /// Stub domains hanging off each transit router.
    pub stub_domains_per_transit: usize,
    /// Stub routers per stub domain.
    pub stub_nodes_per_domain: usize,
    /// Delay of intra-transit-domain (and inter-domain) links, ms. Paper: 100.
    pub intra_transit_ms: u16,
    /// Delay of transit–stub attachment links, ms. Paper: 20.
    pub transit_stub_ms: u16,
    /// Delay of intra-stub-domain links, ms. Paper: 5.
    pub intra_stub_ms: u16,
    /// Probability of extra (non-spanning-tree) edges inside a domain;
    /// controls redundancy, GT-ITM's edge-density knob.
    pub extra_edge_prob: f64,
    /// RNG seed; the generator is fully deterministic given the config.
    pub seed: u64,
}

impl TransitStubConfig {
    /// Largest stub domain `for_peers` will configure. Past ~128k peers
    /// the fixed domain grid would otherwise inflate every stub domain
    /// without bound, and label sizes on big random subgraphs grow with
    /// domain size — a 1M-peer build would blow the memory budget.
    /// GT-ITM scales the other way: more domains, not bigger ones.
    const MAX_STUB_DOMAIN: usize = 2048;

    /// A configuration sized so the topology offers at least `peers`
    /// stub routers.
    ///
    /// The transit fabric is kept small and coarse (a handful of transit
    /// routers, each aggregating many stub domains): with the paper's
    /// link delays any path through a 100 ms transit link quantizes to
    /// the top latency level, so the landmark orders can only
    /// discriminate *within* a transit router's neighbourhood. Few, fat
    /// neighbourhoods keep the paper's `[20, 100]` binning informative —
    /// matching Table 1, where most sample RTTs straddle those
    /// boundaries — and let a 4-landmark deployment cover the network.
    #[must_use]
    pub fn for_peers(peers: usize, seed: u64) -> Self {
        let peers = peers.max(8);
        let transit_domains = (peers / 2500).clamp(2, 4);
        let transit_nodes_per_domain = 2;
        let mut stub_domains_per_transit = 8;
        let transit_total = transit_domains * transit_nodes_per_domain;
        // Sizes up to ~128k peers keep the historical 8-domain grid;
        // beyond that the domain count doubles until domains fit the cap.
        while peers.div_ceil(transit_total * stub_domains_per_transit) > Self::MAX_STUB_DOMAIN {
            stub_domains_per_transit *= 2;
        }
        let stub_slots = transit_total * stub_domains_per_transit;
        let stub_nodes_per_domain = peers.div_ceil(stub_slots).max(2);
        TransitStubConfig {
            transit_domains,
            transit_nodes_per_domain,
            stub_domains_per_transit,
            stub_nodes_per_domain,
            intra_transit_ms: 100,
            transit_stub_ms: 20,
            intra_stub_ms: 5,
            extra_edge_prob: 0.3,
            seed,
        }
    }

    /// Total stub routers this configuration will produce.
    #[must_use]
    pub fn stub_router_count(&self) -> usize {
        self.transit_domains
            * self.transit_nodes_per_domain
            * self.stub_domains_per_transit
            * self.stub_nodes_per_domain
    }

    /// Generates the topology on the default executor.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn generate(&self) -> Topology {
        self.generate_on(&Executor::default())
    }

    /// [`TransitStubConfig::generate`] on a caller-supplied executor.
    ///
    /// The transit fabric and backbone draw from the main seed stream;
    /// each stub domain draws from its own stream seeded by `(seed,
    /// domain index)` and is generated independently in parallel, with
    /// edge lists merged in domain order — so the graph is a pure
    /// function of the config at any thread count.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn generate_on(&self, exec: &Executor) -> Topology {
        assert!(self.transit_domains > 0, "need at least one transit domain");
        assert!(self.transit_nodes_per_domain > 0, "need transit nodes");
        assert!(self.stub_domains_per_transit > 0, "need stub domains");
        assert!(self.stub_nodes_per_domain > 0, "need stub nodes");
        let mut rng = Rng::seed_from_u64(self.seed);
        let transit_total = self.transit_domains * self.transit_nodes_per_domain;
        let total = transit_total + self.stub_router_count();
        let mut graph = GraphBuilder::with_nodes(total);
        let mut kind = vec![NodeKind::Stub; total];

        // Transit routers occupy indices [0, transit_total); domain d owns
        // the contiguous block starting at d * transit_nodes_per_domain.
        for k in kind.iter_mut().take(transit_total) {
            *k = NodeKind::Transit;
        }
        let domain_nodes: Vec<Vec<u32>> = (0..self.transit_domains)
            .map(|d| {
                let base = d * self.transit_nodes_per_domain;
                (base..base + self.transit_nodes_per_domain).map(|i| i as u32).collect()
            })
            .collect();

        // Connected random graph inside each transit domain.
        for nodes in &domain_nodes {
            connect_random(&mut graph, nodes, self.intra_transit_ms, self.extra_edge_prob, &mut rng);
        }

        // Backbone between transit domains: ring over the domains plus
        // random chords, each realized between random routers of the
        // two domains (GT-ITM's top-level random graph).
        for d in 0..self.transit_domains {
            let e = (d + 1) % self.transit_domains;
            if d == e {
                break;
            }
            let u = *rng.choose(&domain_nodes[d]).expect("non-empty domain");
            let v = *rng.choose(&domain_nodes[e]).expect("non-empty domain");
            graph.add_edge(u, v, self.intra_transit_ms);
        }
        if self.transit_domains > 2 {
            let chords = self.transit_domains / 2;
            for _ in 0..chords {
                let d = rng.random_range(0..self.transit_domains);
                let e = rng.random_range(0..self.transit_domains);
                if d != e {
                    let u = *rng.choose(&domain_nodes[d]).expect("non-empty domain");
                    let v = *rng.choose(&domain_nodes[e]).expect("non-empty domain");
                    graph.add_edge(u, v, self.intra_transit_ms);
                }
            }
        }

        // Stub domains: each occupies a contiguous index block after the
        // transit routers and is wired from its own seed stream, so the
        // domains generate independently in parallel; edges land in the
        // graph sequentially, in domain order.
        let per_dom = self.stub_nodes_per_domain;
        let n_domains = transit_total * self.stub_domains_per_transit;
        let domains: Vec<(u32, Vec<(u32, u32)>)> = exec.par_fold(
            n_domains,
            1,
            Vec::new,
            |acc, s| {
                let mut rng = Rng::seed_from_u64(
                    self.seed ^ (s as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                );
                let base = transit_total + s * per_dom;
                let nodes: Vec<u32> = (base..base + per_dom).map(|i| i as u32).collect();
                let mut edges = Vec::new();
                connect_random_pairs(&nodes, self.extra_edge_prob, &mut rng, &mut edges);
                // Attach the stub domain to its transit router via a
                // random gateway stub node.
                let gw = *rng.choose(&nodes).expect("non-empty stub domain");
                acc.push((gw, edges));
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        // Failure domains: transit domain d is domain d; stub domain s
        // is domain transit_domains + s.
        let mut domain = vec![0u32; total];
        for (i, d) in domain.iter_mut().enumerate().take(transit_total) {
            *d = (i / self.transit_nodes_per_domain) as u32;
        }
        let mut attach_candidates = Vec::with_capacity(self.stub_router_count());
        for (s, (gw, edges)) in domains.into_iter().enumerate() {
            for (u, v) in edges {
                graph.add_edge(u, v, self.intra_stub_ms);
            }
            let t = (s / self.stub_domains_per_transit) as u32;
            graph.add_edge(t, gw, self.transit_stub_ms);
            let base = (transit_total + s * per_dom) as u32;
            attach_candidates.extend(base..base + per_dom as u32);
            let dom = (self.transit_domains + s) as u32;
            for d in &mut domain[base as usize..base as usize + per_dom] {
                *d = dom;
            }
        }
        debug_assert_eq!(attach_candidates.len() + transit_total, total);

        Topology { graph: graph.into_shared(), kind, attach_candidates, domain, model: "transit-stub" }
    }
}

/// Wires `nodes` into a connected random subgraph: random spanning tree
/// (each node links to a random earlier node) plus extra edges with
/// probability `extra_prob` per candidate pair, capped to keep density
/// linear in the domain size.
fn connect_random(
    graph: &mut GraphBuilder,
    nodes: &[u32],
    delay: u16,
    extra_prob: f64,
    rng: &mut Rng,
) {
    let mut pairs = Vec::new();
    connect_random_pairs(nodes, extra_prob, rng, &mut pairs);
    for (u, v) in pairs {
        graph.add_edge(u, v, delay);
    }
}

/// The pair-producing core of [`connect_random`]: pushes the chosen
/// endpoint pairs without touching a graph, so parallel stub-domain
/// workers can collect edges and let the caller apply them in order.
fn connect_random_pairs(
    nodes: &[u32],
    extra_prob: f64,
    rng: &mut Rng,
    out: &mut Vec<(u32, u32)>,
) {
    for (i, &u) in nodes.iter().enumerate().skip(1) {
        let v = nodes[rng.random_range(0..i)];
        out.push((u, v));
    }
    // Extra edges: sample ~extra_prob * |nodes| random pairs.
    let extras = ((nodes.len() as f64) * extra_prob).round() as usize;
    for _ in 0..extras {
        let u = *rng.choose(nodes).expect("non-empty");
        let v = *rng.choose(nodes).expect("non-empty");
        if u != v {
            out.push((u, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_topology_is_connected() {
        for seed in 0..5 {
            let t = TransitStubConfig::for_peers(300, seed).generate();
            assert!(t.graph.is_connected(), "seed {seed} produced disconnected graph");
        }
    }

    #[test]
    fn counts_match_config() {
        let cfg = TransitStubConfig {
            transit_domains: 3,
            transit_nodes_per_domain: 4,
            stub_domains_per_transit: 2,
            stub_nodes_per_domain: 5,
            intra_transit_ms: 100,
            transit_stub_ms: 20,
            intra_stub_ms: 5,
            extra_edge_prob: 0.3,
            seed: 1,
        };
        let t = cfg.generate();
        assert_eq!(t.router_count(), 3 * 4 + 3 * 4 * 2 * 5);
        assert_eq!(t.attach_candidates.len(), cfg.stub_router_count());
        let transit = t.kind.iter().filter(|k| **k == NodeKind::Transit).count();
        assert_eq!(transit, 12);
    }

    #[test]
    fn attach_candidates_are_stub_routers() {
        let t = TransitStubConfig::for_peers(200, 9).generate();
        for &c in &t.attach_candidates {
            assert_eq!(t.kind[c as usize], NodeKind::Stub);
        }
    }

    #[test]
    fn for_peers_offers_enough_stub_routers() {
        for n in [100, 1000, 5000, 10000] {
            let cfg = TransitStubConfig::for_peers(n, 0);
            assert!(cfg.stub_router_count() >= n, "n={n}");
        }
    }

    #[test]
    fn for_peers_caps_stub_domain_size() {
        for n in [200_000usize, 1_000_000] {
            let cfg = TransitStubConfig::for_peers(n, 0);
            assert!(
                cfg.stub_nodes_per_domain <= TransitStubConfig::MAX_STUB_DOMAIN,
                "n={n}: domain size {} exceeds cap",
                cfg.stub_nodes_per_domain
            );
            assert!(cfg.stub_router_count() >= n, "n={n}");
        }
        // The historical grid is untouched below the cap boundary.
        let small = TransitStubConfig::for_peers(100_000, 0);
        assert_eq!(small.stub_domains_per_transit, 8);
    }

    #[test]
    fn parallel_generation_is_thread_invariant() {
        let cfg = TransitStubConfig::for_peers(600, 17);
        let base = cfg.generate_on(&Executor::new(1));
        for threads in [2, 8] {
            let t = cfg.generate_on(&Executor::new(threads));
            assert_eq!(t.graph.edge_count(), base.graph.edge_count(), "threads={threads}");
            assert_eq!(t.attach_candidates, base.attach_candidates, "threads={threads}");
            for u in 0..base.router_count() as u32 {
                assert_eq!(t.graph.neighbors(u), base.graph.neighbors(u), "threads={threads} u={u}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TransitStubConfig::for_peers(150, 5).generate();
        let b = TransitStubConfig::for_peers(150, 5).generate();
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(a.attach_candidates, b.attach_candidates);
        let c = TransitStubConfig::for_peers(150, 6).generate();
        // Different seed rewires something (counts may coincide, edges shouldn't all).
        let same_edges = (0..a.router_count() as u32)
            .all(|u| a.graph.neighbors(u) == c.graph.neighbors(u));
        assert!(!same_edges, "different seeds produced identical graphs");
    }

    #[test]
    fn intra_stub_paths_are_cheap_cross_domain_expensive() {
        let t = TransitStubConfig::for_peers(400, 11).generate();
        // Two stub routers in the same stub domain communicate in
        // multiples of 5 ms; crossing transit costs at least
        // 20 + 20 = 40 ms (two attachment links).
        let spd = t.graph.shortest_delay(t.attach_candidates[0], t.attach_candidates[1]);
        assert!(spd > 0);
        // Same-domain neighbours (first stub domain is contiguous):
        let cfg_stub = TransitStubConfig::for_peers(400, 11);
        let per_dom = cfg_stub.stub_nodes_per_domain;
        let a = t.attach_candidates[0];
        let b = t.attach_candidates[per_dom - 1];
        let local = t.graph.shortest_delay(a, b);
        assert!(local < 40, "intra-domain delay {local} should be < transit round trip");
    }

    #[test]
    fn failure_domains_partition_the_routers() {
        let cfg = TransitStubConfig::for_peers(300, 7);
        let t = cfg.generate();
        let transit_total = cfg.transit_domains * cfg.transit_nodes_per_domain;
        for (i, &d) in t.domain.iter().enumerate() {
            if i < transit_total {
                assert_eq!(d as usize, i / cfg.transit_nodes_per_domain);
            } else {
                let s = (i - transit_total) / cfg.stub_nodes_per_domain;
                assert_eq!(d as usize, cfg.transit_domains + s, "router {i}");
            }
        }
        assert_eq!(t.domain_of(0), 0);
    }

    #[test]
    fn delay_hierarchy_matches_paper_setting() {
        let cfg = TransitStubConfig::for_peers(100, 3);
        assert_eq!(
            (cfg.intra_transit_ms, cfg.transit_stub_ms, cfg.intra_stub_ms),
            (100, 20, 5)
        );
    }
}
