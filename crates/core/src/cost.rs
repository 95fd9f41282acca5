//! The §3.4 cost analysis: how much extra state and maintenance does
//! the hierarchy cost compared to plain Chord?
//!
//! The paper argues the overhead is affordable ("hundreds or thousands
//! of bytes") because lower-layer finger tables are smaller and their
//! entries are topologically close. This module computes those numbers
//! for a built hierarchy; the paper's promised "quantitative analysis
//! of HIERAS overheads" (future work, §6) is realized in the `costs`
//! bench target.

use crate::HierasOracle;
use hieras_rt::{Json, ToJson};

/// Bytes we charge per routing-table entry: 8-byte node id + 4-byte
/// IPv4 address + 2-byte port, padded to 16 for alignment — the same
/// back-of-envelope the paper's "hundred or thousands of bytes" uses.
pub const BYTES_PER_ENTRY: usize = 16;

/// State-size accounting for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// Hierarchy depth (1 = plain Chord).
    pub depth: usize,
    /// Number of peers.
    pub nodes: usize,
    /// Total finger-table entries across all nodes and layers
    /// (`bits` rows per table; the raw table size).
    pub finger_entries: u64,
    /// Total *distinct* finger targets across all nodes and layers —
    /// the number of live remote peers each node actually monitors,
    /// which is what keep-alive traffic scales with.
    pub distinct_finger_entries: u64,
    /// Successor-list entries across all nodes and layers
    /// (`succ_list_len` per ring membership, capped by ring size).
    pub succ_list_entries: u64,
    /// Number of ring tables in the system (stored at their holders).
    pub ring_table_count: usize,
    /// Estimated routing-state bytes per node.
    pub bytes_per_node: f64,
}

impl CostReport {
    /// Computes the report for a built hierarchy with the given
    /// successor-list length per layer (the paper's `r`).
    #[must_use]
    pub fn for_oracle(oracle: &HierasOracle, succ_list_len: usize) -> Self {
        let n = oracle.len() as u64;
        let mut finger_entries = 0u64;
        let mut distinct = 0u64;
        let mut succ_entries = 0u64;
        for layer in oracle.layers() {
            for (_, ring) in layer.rings() {
                let members = ring.len() as u64;
                finger_entries += members * u64::from(oracle.space().bits());
                distinct += (ring.avg_distinct_fingers() * members as f64).round() as u64;
                succ_entries += members * (succ_list_len as u64).min(members.saturating_sub(1)).max(1);
            }
        }
        let ring_table_count = oracle.ring_tables().len();
        let per_node_entries = (distinct + succ_entries) as f64 / n as f64;
        CostReport {
            depth: oracle.config().depth,
            nodes: oracle.len(),
            finger_entries,
            distinct_finger_entries: distinct,
            succ_list_entries: succ_entries,
            ring_table_count,
            bytes_per_node: per_node_entries * BYTES_PER_ENTRY as f64,
        }
    }

    /// Multiplicative state overhead versus a baseline (plain-Chord)
    /// report: `self.bytes_per_node / base.bytes_per_node`.
    #[must_use]
    pub fn overhead_vs(&self, base: &CostReport) -> f64 {
        self.bytes_per_node / base.bytes_per_node
    }
}

impl ToJson for CostReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("depth", self.depth.to_json()),
            ("nodes", self.nodes.to_json()),
            ("finger_entries", self.finger_entries.to_json()),
            ("distinct_finger_entries", self.distinct_finger_entries.to_json()),
            ("succ_list_entries", self.succ_list_entries.to_json()),
            ("ring_table_count", self.ring_table_count.to_json()),
            ("bytes_per_node", self.bytes_per_node.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Binning, HierasConfig};
    use hieras_id::{Id, IdSpace};
    use std::sync::Arc;

    fn system(depth: usize) -> HierasOracle {
        let ids: Arc<[Id]> = (0..64u64)
            .map(|i| Id(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect::<Vec<_>>()
            .into();
        let rtts: Vec<Vec<u16>> = (0..64)
            .map(|i| {
                vec![
                    if i % 2 == 0 { 5 } else { 150 },
                    if i % 4 < 2 { 10 } else { 130 },
                ]
            })
            .collect();
        let landmarks = if depth == 1 { 0 } else { 2 };
        let config = HierasConfig { depth, landmarks, binning: Binning::paper() };
        HierasOracle::from_rtts(IdSpace::full(), ids, &rtts, config).unwrap()
    }

    #[test]
    fn deeper_hierarchy_costs_more_state() {
        let base = CostReport::for_oracle(&system(1), 8);
        let two = CostReport::for_oracle(&system(2), 8);
        assert!(two.finger_entries > base.finger_entries);
        assert!(two.bytes_per_node > base.bytes_per_node);
        assert!(two.overhead_vs(&base) > 1.0);
        // …but well below 2× raw: lower-ring tables have fewer distinct
        // entries than the global table (§3.4's affordability claim).
        assert!(two.overhead_vs(&base) < 2.5, "overhead {}", two.overhead_vs(&base));
    }

    #[test]
    fn report_scales_with_nodes_and_depth() {
        let r = CostReport::for_oracle(&system(2), 8);
        assert_eq!(r.depth, 2);
        assert_eq!(r.nodes, 64);
        // 64 nodes × 64 bits × 2 layers of raw rows.
        assert_eq!(r.finger_entries, 64 * 64 * 2);
        assert_eq!(r.ring_table_count, 4); // 2 landmarks × {0,2} digits → ≤ 9, here 4 bins
        assert!(r.bytes_per_node > 0.0);
    }

    #[test]
    fn chord_baseline_has_no_ring_tables() {
        let r = CostReport::for_oracle(&system(1), 8);
        assert_eq!(r.ring_table_count, 0);
        assert_eq!(r.finger_entries, 64 * 64);
    }
}
