//! Per-hop routing traces — the raw material for every figure.

/// One routing hop: the message moved from global node `from` to
/// global node `to`, using the finger table of layer `layer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// Global index of the forwarding node.
    pub from: u32,
    /// Global index of the receiving node.
    pub to: u32,
    /// 1-based layer whose finger table made this hop (1 = global
    /// ring; larger = lower layers). Plain Chord traces use layer 1
    /// throughout.
    pub layer: u8,
}

/// The full trace of one routing procedure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteTrace {
    /// Originating node.
    pub origin: u32,
    /// Hops in order. Empty if the originator owned the key.
    pub hops: Vec<HopRecord>,
}

impl RouteTrace {
    /// Total number of hops.
    #[must_use]
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// The node the key resolved to.
    #[must_use]
    pub fn destination(&self) -> u32 {
        self.hops.last().map_or(self.origin, |h| h.to)
    }

    /// Hops taken in layers *below* the global ring (layer > 1) — the
    /// quantity Figure 4's third curve and §4.3's "71.38%" statistic
    /// measure.
    #[must_use]
    pub fn lower_layer_hops(&self) -> usize {
        self.hops.iter().filter(|h| h.layer > 1).count()
    }

    /// Hops taken in the global ring (layer 1).
    #[must_use]
    pub fn top_layer_hops(&self) -> usize {
        self.hops.iter().filter(|h| h.layer == 1).count()
    }

    /// Sums hop latencies with a caller-supplied link-latency function
    /// (typically `LatencyOracle::latency` over attachment routers),
    /// returning `(total, lower_layer_total)` in milliseconds.
    #[must_use]
    pub fn latency_split(&self, mut link: impl FnMut(u32, u32) -> u16) -> (u64, u64) {
        let mut total = 0u64;
        let mut lower = 0u64;
        for h in &self.hops {
            let l = u64::from(link(h.from, h.to));
            total += l;
            if h.layer > 1 {
                lower += l;
            }
        }
        (total, lower)
    }
}

/// Condensed result of one routing evaluation — what the replay hot
/// loop needs from a lookup, computed without materializing a
/// [`RouteTrace`] (no per-lookup heap allocation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCost {
    /// Total hops.
    pub hops: u32,
    /// Hops taken in layers below the global ring.
    pub lower_hops: u32,
    /// Sum of link latencies over all hops, ms.
    pub latency_ms: u64,
    /// Portion of the latency spent in lower-layer hops, ms.
    pub lower_latency_ms: u64,
    /// The node the key resolved to.
    pub destination: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> RouteTrace {
        RouteTrace {
            origin: 0,
            hops: vec![
                HopRecord { from: 0, to: 3, layer: 2 },
                HopRecord { from: 3, to: 7, layer: 2 },
                HopRecord { from: 7, to: 9, layer: 1 },
            ],
        }
    }

    #[test]
    fn counts_and_destination() {
        let t = trace();
        assert_eq!(t.hop_count(), 3);
        assert_eq!(t.lower_layer_hops(), 2);
        assert_eq!(t.top_layer_hops(), 1);
        assert_eq!(t.destination(), 9);
    }

    #[test]
    fn empty_trace_resolves_to_origin() {
        let t = RouteTrace { origin: 5, hops: vec![] };
        assert_eq!(t.destination(), 5);
        assert_eq!(t.hop_count(), 0);
        assert_eq!(t.latency_split(|_, _| 10), (0, 0));
    }

    #[test]
    fn latency_split_sums_per_layer() {
        let t = trace();
        // Every hop costs 10ms.
        assert_eq!(t.latency_split(|_, _| 10), (30, 20));
        // Distance-dependent link function.
        let (total, lower) =
            t.latency_split(|a, b| (u16::try_from(a + b).unwrap()) * 10);
        assert_eq!(total, 30 + 100 + 160);
        assert_eq!(lower, 130);
    }
}
