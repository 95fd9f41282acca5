//! The [`Topology`] wrapper: a generated router graph plus the
//! metadata overlay construction needs (which routers host peers,
//! where landmarks should sit).

use crate::{Graph, LatencyOracle};
use hieras_rt::Rng;
use std::sync::Arc;

/// Role of a router in the generated internetwork.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Backbone router inside a transit domain (GT-ITM only).
    Transit,
    /// Edge router inside a stub domain (GT-ITM only).
    Stub,
    /// Undifferentiated router (Inet / BRITE flat models).
    Router,
}

/// A generated internetwork: router graph + roles + attachment points.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The router-level graph, shared with the [`LatencyOracle`] built
    /// over it.
    pub graph: Arc<Graph>,
    /// Role of each router.
    pub kind: Vec<NodeKind>,
    /// Routers on which overlay peers may attach (stub routers for the
    /// Transit-Stub model, every router for flat models).
    pub attach_candidates: Vec<u32>,
    /// Correlated-failure domain of each router. In the Transit-Stub
    /// model, transit routers carry their transit-domain index and stub
    /// routers their stub-domain index offset past the transit domains
    /// — a power cut or uplink loss takes a whole domain at once. Flat
    /// models (Inet / BRITE) have no domain structure: every router is
    /// its own singleton domain.
    pub domain: Vec<u32>,
    /// Human-readable model name ("transit-stub", "inet", "brite").
    pub model: &'static str,
}

impl Topology {
    /// Number of routers.
    #[must_use]
    pub fn router_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Correlated-failure domain of a router ([`Topology::domain`]).
    #[must_use]
    pub fn domain_of(&self, router: u32) -> u32 {
        self.domain[router as usize]
    }

    /// Chooses attachment routers for `n` overlay peers.
    ///
    /// Peers occupy distinct candidate routers while any remain
    /// (sampling without replacement); if `n` exceeds the number of
    /// candidates, additional peers share routers (several hosts on one
    /// LAN — latency between co-attached peers is then 0 ms at the
    /// router level, a faithful model of same-site hosts).
    #[must_use]
    pub fn place_peers(&self, n: usize, rng: &mut Rng) -> Vec<u32> {
        let mut cands = self.attach_candidates.clone();
        rng.shuffle(&mut cands);
        let mut out = Vec::with_capacity(n);
        if n <= cands.len() {
            out.extend_from_slice(&cands[..n]);
        } else {
            out.extend_from_slice(&cands);
            for _ in cands.len()..n {
                out.push(*rng.choose(&cands).expect("non-empty candidates"));
            }
        }
        out
    }

    /// Picks `k` landmark routers "spread across the Internet" (§2.3).
    ///
    /// Uses greedy farthest-point traversal (k-center seeding) over the
    /// latency oracle: the first landmark is random, each subsequent
    /// landmark is the attach candidate maximizing the minimum latency
    /// to the landmarks chosen so far. This matches the paper's
    /// assumption of well-separated, well-known machines regardless of
    /// the underlying model.
    #[must_use]
    pub fn pick_landmarks(&self, k: usize, oracle: &LatencyOracle, rng: &mut Rng) -> Vec<u32> {
        assert!(k >= 1, "at least one landmark required");
        let cands = &self.attach_candidates;
        assert!(!cands.is_empty(), "topology has no attach candidates");
        let mut landmarks = Vec::with_capacity(k);
        landmarks.push(*rng.choose(cands).expect("non-empty"));
        let mut min_d: Vec<u32> = cands
            .iter()
            .map(|&c| u32::from(oracle.latency(landmarks[0], c)))
            .collect();
        while landmarks.len() < k.min(cands.len()) {
            let (best_i, _) = min_d
                .iter()
                .enumerate()
                .max_by_key(|&(_, d)| *d)
                .expect("non-empty");
            let lm = cands[best_i];
            landmarks.push(lm);
            for (i, &c) in cands.iter().enumerate() {
                min_d[i] = min_d[i].min(u32::from(oracle.latency(lm, c)));
            }
        }
        // Degenerate tiny topologies: repeat landmarks if k > candidates.
        while landmarks.len() < k {
            landmarks.push(*rng.choose(cands).expect("non-empty"));
        }
        landmarks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransitStubConfig;

    fn small_topo() -> Topology {
        TransitStubConfig::for_peers(64, 7).generate()
    }

    #[test]
    fn place_peers_without_replacement_when_possible() {
        let t = small_topo();
        let mut rng = Rng::seed_from_u64(1);
        let n = t.attach_candidates.len().min(20);
        let placed = t.place_peers(n, &mut rng);
        let mut uniq = placed.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), n, "peers should occupy distinct routers");
    }

    #[test]
    fn place_peers_overflow_shares_routers() {
        let t = small_topo();
        let mut rng = Rng::seed_from_u64(2);
        let n = t.attach_candidates.len() + 10;
        let placed = t.place_peers(n, &mut rng);
        assert_eq!(placed.len(), n);
        for &r in &placed {
            assert!(t.attach_candidates.contains(&r));
        }
    }

    #[test]
    fn place_peers_is_deterministic_per_seed() {
        let t = small_topo();
        let a = t.place_peers(10, &mut Rng::seed_from_u64(42));
        let b = t.place_peers(10, &mut Rng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn landmarks_are_spread() {
        let t = small_topo();
        let oracle = LatencyOracle::new(t.graph.clone());
        let mut rng = Rng::seed_from_u64(3);
        let lms = t.pick_landmarks(4, &oracle, &mut rng);
        assert_eq!(lms.len(), 4);
        // Pairwise distances among landmarks should all be non-trivial:
        // farther than an intra-stub hop (5 ms) apart.
        for i in 0..lms.len() {
            for j in i + 1..lms.len() {
                assert!(
                    oracle.latency(lms[i], lms[j]) > 5,
                    "landmarks {i},{j} too close"
                );
            }
        }
    }

    #[test]
    fn landmarks_count_exceeding_candidates_still_returns_k() {
        let t = small_topo();
        let oracle = LatencyOracle::new(t.graph.clone());
        let mut rng = Rng::seed_from_u64(4);
        let k = t.attach_candidates.len() + 3;
        let lms = t.pick_landmarks(k, &oracle, &mut rng);
        assert_eq!(lms.len(), k);
    }
}
