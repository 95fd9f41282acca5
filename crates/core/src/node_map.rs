//! A layer's node → ring map as copy-on-write chunks.
//!
//! Every epoch of a serving hierarchy needs the map, and a churn batch
//! moves a handful of its entries. The map is therefore a row of
//! fixed-size chunks, each behind its own [`Arc`] with its digest
//! cached beside it (as [`hieras_chord::RingView::arena_digest`] is): a
//! delta epoch copies, and [`NodeMap::digest`] rehashes, only the
//! chunks its batch wrote to, and shares every other chunk with the
//! epoch it came from.

use hieras_rt::{fingerprint_u32, splitmix64};
use std::sync::{Arc, OnceLock};

/// Entries per chunk (a 4 KiB page of `u32`s).
pub(crate) const CHUNK: usize = 1 << SHIFT;
const SHIFT: usize = 10;
const MASK: usize = CHUNK - 1;

/// One chunk: `CHUNK` slots (a short last chunk pads with `u32::MAX`)
/// and their digest, computed on first use.
#[derive(Debug)]
struct Chunk {
    slots: [u32; CHUNK],
    digest: OnceLock<u64>,
}

impl Chunk {
    fn new(slots: [u32; CHUNK]) -> Arc<Self> {
        Arc::new(Chunk { slots, digest: OnceLock::new() })
    }

    fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| fingerprint_u32(0x0c4a_11c0_de00_0000, &self.slots))
    }
}

/// A copy starts with no digest: it exists to be written to.
impl Clone for Chunk {
    fn clone(&self) -> Self {
        Chunk { slots: self.slots, digest: OnceLock::new() }
    }
}

/// Ring index per global node, `u32::MAX` for a node outside the
/// layer. Cloning shares every chunk.
#[derive(Debug, Clone)]
pub(crate) struct NodeMap {
    chunks: Vec<Arc<Chunk>>,
    len: usize,
}

impl NodeMap {
    /// A map over `len` nodes from `(node, ring)` pairs in ascending
    /// node order; every node not listed maps to `u32::MAX`.
    /// Each chunk is filled in place and sealed once, so a full build
    /// writes the map exactly once.
    ///
    /// # Panics
    /// Panics if a node is out of range or the nodes are not ascending.
    pub(crate) fn from_sorted(len: usize, entries: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let count = len.div_ceil(CHUNK);
        let mut chunks = Vec::with_capacity(count);
        let mut slots = [u32::MAX; CHUNK];
        for (node, ring) in entries {
            let node = node as usize;
            assert!(node < len, "node {node} outside a map of {len}");
            assert!(node >> SHIFT >= chunks.len(), "nodes must ascend");
            while node >> SHIFT > chunks.len() {
                chunks.push(Chunk::new(std::mem::replace(&mut slots, [u32::MAX; CHUNK])));
            }
            slots[node & MASK] = ring;
        }
        while chunks.len() < count {
            chunks.push(Chunk::new(std::mem::replace(&mut slots, [u32::MAX; CHUNK])));
        }
        NodeMap { chunks, len }
    }

    /// Number of nodes the map covers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The entry of `node`. A node past the end but inside the last
    /// chunk reads the `u32::MAX` padding, so any caller that indexes
    /// rings with it trips the same bounds check a non-member does.
    ///
    /// # Panics
    /// Panics if `node` lies beyond the last chunk.
    #[inline]
    pub(crate) fn at(&self, node: u32) -> u32 {
        let node = node as usize;
        self.chunks[node >> SHIFT].slots[node & MASK]
    }

    /// The entry of `node`, or `None` past the end.
    #[inline]
    pub(crate) fn get(&self, node: u32) -> Option<u32> {
        ((node as usize) < self.len).then(|| self.at(node))
    }

    /// Writes one entry, first copying its chunk if another map shares
    /// it. Writing the value already there copies nothing.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub(crate) fn set(&mut self, node: u32, ring: u32) {
        assert!((node as usize) < self.len, "node {node} outside a map of {}", self.len);
        if self.at(node) == ring {
            return;
        }
        let node = node as usize;
        let chunk = Arc::make_mut(&mut self.chunks[node >> SHIFT]);
        chunk.slots[node & MASK] = ring;
        chunk.digest = OnceLock::new();
    }

    /// A new map with every ring index `r != u32::MAX` replaced by
    /// `renumber[r]` — what a ring birth or death costs: every chunk.
    pub(crate) fn renumbered(&self, renumber: &[u32]) -> Self {
        let chunks = self
            .chunks
            .iter()
            .map(|c| {
                Chunk::new(c.slots.map(|r| if r == u32::MAX { r } else { renumber[r as usize] }))
            })
            .collect();
        NodeMap { chunks, len: self.len }
    }

    /// Order-sensitive digest of the length and every chunk, folding
    /// each chunk's cached digest.
    pub(crate) fn digest(&self, seed: u64) -> u64 {
        let mut h = splitmix64(seed ^ self.len as u64);
        for c in &self.chunks {
            h = splitmix64(h ^ c.digest());
        }
        h
    }

    /// Every entry, in node order.
    #[cfg(test)]
    pub(crate) fn to_vec(&self) -> Vec<u32> {
        (0..self.len as u32).map(|n| self.at(n)).collect()
    }

    /// Chunks this map shares with `other` (same allocation).
    #[cfg(test)]
    pub(crate) fn shared_chunks(&self, other: &NodeMap) -> usize {
        self.chunks.iter().zip(&other.chunks).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }
}

/// Content equality, entry by entry.
#[cfg(test)]
impl PartialEq for NodeMap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .chunks
                .iter()
                .zip(&other.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a.slots == b.slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A map over `len` nodes where every third node is a member of
    /// ring `node % 7`.
    fn sample(len: usize) -> NodeMap {
        NodeMap::from_sorted(
            len,
            (0..len as u32).filter(|n| n % 3 != 1).map(|n| (n, n % 7)),
        )
    }

    #[test]
    fn entries_survive_chunk_edges_and_a_short_last_chunk() {
        for len in [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17] {
            let m = sample(len);
            assert_eq!(m.len(), len);
            assert_eq!(m.chunks.len(), len.div_ceil(CHUNK));
            for n in 0..len as u32 {
                let want = if n % 3 == 1 { u32::MAX } else { n % 7 };
                assert_eq!(m.at(n), want, "len {len} node {n}");
                assert_eq!(m.get(n), Some(want));
            }
            assert_eq!(m.get(len as u32), None, "one past the end");
            // The last chunk's padding reads as a non-member.
            if len % CHUNK != 0 {
                assert_eq!(m.at(len as u32), u32::MAX);
            }
            assert_eq!(m.to_vec().len(), len);
        }
    }

    #[test]
    fn one_write_copies_one_chunk_and_shares_the_rest() {
        let base = sample(4 * CHUNK + 6);
        for node in [0, CHUNK as u32 - 1, CHUNK as u32, 4 * CHUNK as u32 + 4] {
            let mut next = base.clone();
            assert_eq!(next.shared_chunks(&base), 5, "a clone shares every chunk");
            next.set(node, 99);
            assert_eq!(next.at(node), 99);
            assert_eq!(base.at(node), if node % 3 == 1 { u32::MAX } else { node % 7 });
            assert_eq!(next.shared_chunks(&base), 4, "node {node}");
            let c = node as usize >> SHIFT;
            assert!(!Arc::ptr_eq(&next.chunks[c], &base.chunks[c]));
            for (i, (a, b)) in next.chunks.iter().zip(&base.chunks).enumerate() {
                assert_eq!(Arc::ptr_eq(a, b), i != c, "chunk {i}");
            }
            // A second write into the copied chunk copies nothing more.
            next.set(node ^ 1, 98);
            assert_eq!(next.shared_chunks(&base), 4);
            // Non-members are u32::MAX and can be made so again.
            next.set(node, u32::MAX);
            assert_eq!(next.get(node), Some(u32::MAX));
        }
        // Writing what is already there copies nothing.
        let mut same = base.clone();
        same.set(0, base.at(0));
        assert_eq!(same.shared_chunks(&base), 5);
    }

    #[test]
    fn digest_moves_with_any_chunk_and_equals_a_fresh_build() {
        let len = 3 * CHUNK + 100;
        let base = sample(len);
        let d = base.digest(7);
        assert_eq!(base.clone().digest(7), d);
        assert_ne!(base.digest(8), d, "the seed enters");
        for node in [0u32, CHUNK as u32, 2 * CHUNK as u32 + 3, len as u32 - 1] {
            let mut m = base.clone();
            // Hash first so a stale cached digest would show.
            let _ = m.digest(7);
            m.set(node, 1234);
            assert_ne!(m.digest(7), d, "write to node {node}");
            // The same contents built from scratch hash the same.
            let fresh = NodeMap::from_sorted(len, m.to_vec().into_iter().enumerate().filter_map(
                |(n, r)| (r != u32::MAX).then_some((n as u32, r)),
            ));
            assert_eq!(fresh, m);
            assert_eq!(fresh.digest(7), m.digest(7));
        }
    }

    #[test]
    fn renumbering_maps_every_member_and_keeps_non_members() {
        let m = sample(CHUNK + 9);
        let renumber: Vec<u32> = (0..7).map(|r| 10 + r).collect();
        let r = m.renumbered(&renumber);
        for n in 0..(CHUNK + 9) as u32 {
            let want = if n % 3 == 1 { u32::MAX } else { 10 + n % 7 };
            assert_eq!(r.at(n), want);
        }
        assert_eq!(r.shared_chunks(&m), 0);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn unsorted_entries_are_rejected() {
        let _ = NodeMap::from_sorted(3 * CHUNK, [(CHUNK as u32 * 2, 0), (1, 0)]);
    }
}
