//! The immutable unit the serving engine publishes per epoch.

use hieras_core::HierasOracle;
use hieras_rt::fingerprint_u32;
use std::sync::Arc;

/// One epoch's routing state: the hierarchy over the live membership,
/// the membership itself, and a checksum binding the two to the epoch
/// they were published under. Readers route against this without
/// locks; [`ServeSnapshot::verify`] catches a torn mix of two epochs
/// whose epoch number, live list or global-ring membership differs
/// from the sealed ones — the invariant the snapshot-safety stress
/// test hammers.
#[derive(Debug, Clone)]
pub struct ServeSnapshot {
    /// The hierarchy over exactly the live peers (global indices).
    pub oracle: HierasOracle,
    /// Live peer indices, ascending. A `Vec` behind the `Arc`, so the
    /// maintainer can take the buffer back once the snapshot retires
    /// and merge the next epoch's list into it.
    pub live: Arc<Vec<u32>>,
    /// [`fingerprint_u32`] of the epoch, the live list and the global
    /// ring's members (in ring order).
    pub checksum: u64,
}

impl ServeSnapshot {
    /// Assembles a snapshot for `epoch` and seals it with its
    /// checksum. The live list is held as given, not copied.
    ///
    /// # Panics
    /// Panics if the oracle's global ring does not hold exactly the
    /// live peers — a snapshot must be internally consistent at birth.
    #[must_use]
    pub fn new(epoch: u64, oracle: HierasOracle, live: Arc<Vec<u32>>) -> Self {
        assert_eq!(
            oracle.global_ring().len(),
            live.len(),
            "oracle membership and live set disagree"
        );
        let checksum = Self::checksum_of(epoch, &oracle, &live);
        ServeSnapshot { oracle, live, checksum }
    }

    fn checksum_of(epoch: u64, oracle: &HierasOracle, live: &[u32]) -> u64 {
        let x = fingerprint_u32(epoch ^ 0x5e7e_5e7e_5e7e_5e7e, live);
        fingerprint_u32(x, oracle.global_ring().members())
    }

    /// Recomputes the checksum against `epoch` and re-checks the
    /// ring/membership size agreement. True only when the epoch, the
    /// live list and the global ring's member list all hash as sealed.
    /// The lower layers and the id arenas are not re-hashed.
    #[must_use]
    pub fn verify(&self, epoch: u64) -> bool {
        self.oracle.global_ring().len() == self.live.len()
            && self.checksum == Self::checksum_of(epoch, &self.oracle, &self.live)
    }

    /// Number of live peers.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The lowest-layer ring a live peer belongs to — the key-owner
    /// ring identity the reader-side lookup cache stores alongside
    /// each cached owner (`u32::MAX` for a peer outside every lowest
    /// ring, which a live owner never is).
    #[must_use]
    pub fn owner_ring(&self, owner: u32) -> u32 {
        self.oracle
            .layers()
            .last()
            .and_then(|l| l.ring_index_of(owner))
            .unwrap_or(u32::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hieras_core::{Binning, HierasConfig};
    use hieras_id::{Id, IdSpace};

    fn oracle_over(live: &[u32], n: u64) -> HierasOracle {
        let ids: Arc<[Id]> = (0..n)
            .map(|i| Id(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect::<Vec<_>>()
            .into();
        let binning = Binning::paper();
        let orders = (0..n)
            .map(|i| {
                let rtts: Vec<u16> = vec![if i % 2 == 0 { 5 } else { 150 }, 30];
                binning.order(&rtts)
            })
            .collect();
        let config = HierasConfig { depth: 2, landmarks: 2, binning };
        HierasOracle::build_members_on(
            &hieras_rt::Executor::new(1),
            IdSpace::full(),
            ids,
            orders,
            live,
            config,
        )
        .expect("valid subset")
    }

    #[test]
    fn verify_accepts_its_own_epoch_and_rejects_others() {
        let live = Arc::new(vec![0, 1, 2, 5, 7]);
        let snap = ServeSnapshot::new(3, oracle_over(&live, 8), Arc::clone(&live));
        assert!(snap.verify(3));
        assert!(!snap.verify(2), "checksum must bind the epoch");
        // A torn snapshot — membership swapped for another epoch's —
        // fails even under the right epoch.
        let other = Arc::new(vec![0, 1, 2, 5]);
        let torn = ServeSnapshot { oracle: snap.oracle.clone(), live: other, checksum: snap.checksum };
        assert!(!torn.verify(3));
    }

    #[test]
    fn verify_rejects_rings_torn_from_a_same_size_membership() {
        let live = Arc::new(vec![0, 1, 2, 5, 7]);
        let snap = ServeSnapshot::new(3, oracle_over(&live, 8), Arc::clone(&live));
        // Rings from an epoch where peer 3 stood in for peer 2: same
        // size, same live list, the sealed checksum.
        let torn = ServeSnapshot {
            oracle: oracle_over(&[0, 1, 3, 5, 7], 8),
            live: Arc::clone(&live),
            checksum: snap.checksum,
        };
        assert!(!torn.verify(3));
    }
}
