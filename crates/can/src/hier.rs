//! Hierarchical CAN: the paper's §3.2 transplant of HIERAS onto CAN.
//!
//! Each landmark-order bin runs its own CAN over the full coordinate
//! space, containing only that bin's peers; the global CAN contains
//! everyone. A lookup first routes inside the originator's bin-CAN to
//! the bin-local owner of the key point, then continues on the global
//! CAN — exactly the two-loop structure of Chord-HIERAS, with zones
//! and neighbour sets instead of rings and finger tables.

use crate::{CanBuildError, CanOracle};
use hieras_core::LandmarkOrder;
use hieras_id::Key;
use std::collections::BTreeMap;

/// A two-layer hierarchical CAN over a binned membership.
#[derive(Debug, Clone)]
pub struct HierCan {
    global: CanOracle,
    /// Bin CANs with their member lists (global node indices).
    bins: Vec<(Vec<u32>, CanOracle)>,
    /// Bin index per global node.
    bin_of: Vec<u32>,
    /// Position of each global node within its bin's CAN.
    pos_in_bin: Vec<u32>,
}

/// One hop of a hierarchical CAN route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierCanHop {
    /// Global node index of the sender.
    pub from: u32,
    /// Global node index of the receiver.
    pub to: u32,
    /// True if the hop ran inside a bin CAN (lower layer).
    pub lower: bool,
}

impl HierCan {
    /// Builds the hierarchy: one CAN per bin plus the global CAN.
    /// `orders[i]` is node `i`'s landmark order (bins group equal
    /// orders, as in Chord-HIERAS).
    ///
    /// # Errors
    /// See [`CanBuildError`].
    pub fn build(orders: &[LandmarkOrder], dims: usize, seed: u64) -> Result<Self, CanBuildError> {
        if orders.is_empty() {
            return Err(CanBuildError::Empty);
        }
        let n = orders.len();
        let global = CanOracle::build(n, dims, seed)?;
        // Bins are numbered in order-name order, deterministically.
        let mut groups: BTreeMap<LandmarkOrder, Vec<u32>> = BTreeMap::new();
        for (i, o) in orders.iter().enumerate() {
            groups.entry(*o).or_default().push(i as u32);
        }
        let mut bins = Vec::with_capacity(groups.len());
        let mut bin_of = vec![0u32; n];
        let mut pos_in_bin = vec![0u32; n];
        for (bi, members) in groups.into_values().enumerate() {
            for (pos, &m) in members.iter().enumerate() {
                bin_of[m as usize] = bi as u32;
                pos_in_bin[m as usize] = pos as u32;
            }
            // Per-bin CAN seeded distinctly but deterministically.
            let can = CanOracle::build(members.len(), dims, seed ^ (bi as u64 + 1))?;
            bins.push((members, can));
        }
        Ok(HierCan { global, bins, bin_of, pos_in_bin })
    }

    /// Number of peers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bin_of.len()
    }

    /// Never empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of bins (lower-layer CANs).
    #[must_use]
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// The global CAN.
    #[must_use]
    pub fn global(&self) -> &CanOracle {
        &self.global
    }

    /// The global owner of `key` (ground truth, same as plain CAN).
    #[must_use]
    pub fn owner_of(&self, key: Key) -> u32 {
        self.global.owner_of_point(&self.global.key_point(key))
    }

    /// Two-loop hierarchical routing from global node `src`.
    #[must_use]
    pub fn route(&self, src: u32, key: Key) -> Vec<HierCanHop> {
        let p = self.global.key_point(key);
        let owner = self.global.owner_of_point(&p);
        let mut hops = Vec::new();
        let mut cur = src;
        // Loop 1: inside the originator's bin CAN.
        if cur != owner {
            let (members, can) = &self.bins[self.bin_of[cur as usize] as usize];
            let r = can.route_point(self.pos_in_bin[cur as usize], &p);
            for w in r.path.windows(2) {
                hops.push(HierCanHop {
                    from: members[w[0] as usize],
                    to: members[w[1] as usize],
                    lower: true,
                });
            }
            cur = members[r.owner() as usize];
        }
        // Loop 2: global CAN (the destination check between loops is
        // the `cur != owner` test).
        if cur != owner {
            let r = self.global.route_point(cur, &p);
            for w in r.path.windows(2) {
                hops.push(HierCanHop { from: w[0], to: w[1], lower: false });
            }
            cur = r.owner();
        }
        debug_assert_eq!(cur, owner);
        hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hieras_core::Binning;
    use hieras_id::Id;

    fn orders(n: usize) -> Vec<LandmarkOrder> {
        let b = Binning::paper();
        (0..n)
            .map(|i| {
                b.order(&[
                    if i % 2 == 0 { 5 } else { 150 },
                    if i % 4 < 2 { 10 } else { 130 },
                ])
            })
            .collect()
    }

    #[test]
    fn build_groups_bins_correctly() {
        let h = HierCan::build(&orders(32), 2, 7).unwrap();
        assert_eq!(h.len(), 32);
        assert_eq!(h.bin_count(), 4);
        let total: usize = h.bins.iter().map(|(m, _)| m.len()).sum();
        assert_eq!(total, 32);
    }

    #[test]
    fn hierarchical_route_reaches_global_owner() {
        let h = HierCan::build(&orders(48), 2, 3).unwrap();
        for k in 0..60u64 {
            let key = Id(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let owner = h.owner_of(key);
            for src in (0..48u32).step_by(5) {
                let hops = h.route(src, key);
                let dest = hops.last().map_or(src, |h| h.to);
                assert_eq!(dest, owner, "key {k} src {src}");
            }
        }
    }

    #[test]
    fn lower_hops_precede_global_hops() {
        let h = HierCan::build(&orders(48), 2, 9).unwrap();
        let mut saw_lower = false;
        for k in 0..40u64 {
            let key = Id(k.wrapping_mul(0x517c_c1b7_2722_0a95));
            let hops = h.route((k % 48) as u32, key);
            let mut seen_global = false;
            for hop in &hops {
                if !hop.lower {
                    seen_global = true;
                }
                assert!(!(hop.lower && seen_global), "lower hop after global hop");
                saw_lower |= hop.lower;
            }
        }
        assert!(saw_lower, "no lookup ever used a bin CAN");
    }

    #[test]
    fn lower_hops_stay_within_origin_bin() {
        let h = HierCan::build(&orders(40), 2, 5).unwrap();
        for k in 0..40u64 {
            let key = Id(k.wrapping_mul(0xdead_beef_cafe_1234));
            let src = (k % 40) as u32;
            let bin = h.bin_of[src as usize];
            for hop in h.route(src, key).iter().filter(|h| h.lower) {
                assert_eq!(h.bin_of[hop.from as usize], bin);
                assert_eq!(h.bin_of[hop.to as usize], bin);
            }
        }
    }

    #[test]
    fn empty_orders_rejected() {
        assert_eq!(HierCan::build(&[], 2, 1).unwrap_err(), CanBuildError::Empty);
    }

    #[test]
    fn singleton_bins_work() {
        // Every node in its own bin: lower loop is always trivial.
        let orders: Vec<LandmarkOrder> =
            (0..6u8).map(|i| LandmarkOrder::new(&[i, i]).unwrap()).collect();
        let h = HierCan::build(&orders, 2, 2).unwrap();
        assert_eq!(h.bin_count(), 6);
        for k in 0..20u64 {
            let key = Id(k * 7919);
            let hops = h.route((k % 6) as u32, key);
            assert!(hops.iter().all(|hp| !hp.lower));
            let dest = hops.last().map_or((k % 6) as u32, |hp| hp.to);
            assert_eq!(dest, h.owner_of(key));
        }
    }
}
