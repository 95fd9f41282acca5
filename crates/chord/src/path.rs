//! Reusable, allocation-free path scratch for the routing hot path.
//!
//! A `Vec<u32>` per layer per lookup would be millions of short-lived
//! allocations in the steady-state replay loop at 100k peers and 10⁵
//! requests. [`PathBuf`] avoids them: paths up to [`PathBuf::INLINE`]
//! hops (covering Chord's `O(log n)` paths well past 10⁶ peers) live
//! in an inline array; longer paths spill into an internal `Vec`
//! whose capacity is *retained* across [`PathBuf::clear`], so even
//! spilled routing reaches a zero-allocation steady state.

/// A growable `u32` path with inline small-path storage.
///
/// Semantically a `Vec<u32>` that never shrinks its spill capacity;
/// reuse one instance across lookups via [`PathBuf::clear`].
#[derive(Debug, Clone)]
pub struct PathBuf {
    /// Inline storage, used while `len <= INLINE` and not spilled.
    inline: [u32; Self::INLINE],
    /// Elements in `inline` (unused once spilled).
    len: usize,
    /// Spill storage; holds the *entire* path once spilled so
    /// [`PathBuf::as_slice`] stays contiguous.
    spill: Vec<u32>,
    /// True once the path outgrew the inline array.
    spilled: bool,
}

impl PathBuf {
    /// Hops stored without touching the heap. Chord paths are
    /// `O(log n)` — ~9 expected hops at 10⁵ peers — so 24 inline
    /// slots absorb the far tail of realistic workloads.
    pub const INLINE: usize = 24;

    /// An empty scratch. Allocation-free until a path exceeds
    /// [`PathBuf::INLINE`] entries.
    #[must_use]
    pub fn new() -> Self {
        PathBuf { inline: [0; Self::INLINE], len: 0, spill: Vec::new(), spilled: false }
    }

    /// Empties the path, keeping any spill capacity for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
        self.spilled = false;
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        if self.spilled {
            self.spill.len()
        } else {
            self.len
        }
    }

    /// True if the path holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends an entry, moving to spill storage when the inline
    /// array is full.
    pub fn push(&mut self, v: u32) {
        if self.spilled {
            self.spill.push(v);
        } else if self.len < Self::INLINE {
            self.inline[self.len] = v;
            self.len += 1;
        } else {
            self.spill.extend_from_slice(&self.inline);
            self.spill.push(v);
            self.spilled = true;
        }
    }

    /// The path as a contiguous slice.
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        if self.spilled {
            &self.spill
        } else {
            &self.inline[..self.len]
        }
    }

    /// The path as a mutable slice (used to remap ring positions to
    /// global node indices in place).
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [u32] {
        if self.spilled {
            &mut self.spill
        } else {
            &mut self.inline[..self.len]
        }
    }

    /// Last entry, if any.
    #[must_use]
    pub fn last(&self) -> Option<u32> {
        self.as_slice().last().copied()
    }

    /// Copies the path into a fresh `Vec` (compatibility wrappers).
    #[must_use]
    pub fn to_vec(&self) -> Vec<u32> {
        self.as_slice().to_vec()
    }
}

impl Default for PathBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for PathBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PathBuf {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_pushes_inline() {
        let mut p = PathBuf::new();
        assert!(p.is_empty());
        assert_eq!(p.last(), None);
        p.push(7);
        p.push(9);
        assert_eq!(p.as_slice(), &[7, 9]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.last(), Some(9));
    }

    #[test]
    fn spills_past_inline_capacity_and_stays_contiguous() {
        let mut p = PathBuf::new();
        let n = PathBuf::INLINE as u32 + 10;
        for v in 0..n {
            p.push(v * 3);
        }
        let want: Vec<u32> = (0..n).map(|v| v * 3).collect();
        assert_eq!(p.as_slice(), &want[..]);
        assert_eq!(p.len(), n as usize);
        assert_eq!(p.last(), Some((n - 1) * 3));
        assert_eq!(p.to_vec(), want);
    }

    #[test]
    fn clear_resets_but_keeps_spill_capacity() {
        let mut p = PathBuf::new();
        for v in 0..(PathBuf::INLINE as u32 + 5) {
            p.push(v);
        }
        let cap = p.spill.capacity();
        assert!(cap > 0);
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.spill.capacity(), cap, "clear must not release spill capacity");
        p.push(42);
        assert_eq!(p.as_slice(), &[42]);
    }

    #[test]
    fn exact_inline_boundary() {
        let mut p = PathBuf::new();
        for v in 0..PathBuf::INLINE as u32 {
            p.push(v);
        }
        assert!(!p.spilled, "boundary fill must stay inline");
        assert_eq!(p.len(), PathBuf::INLINE);
        p.push(999);
        assert!(p.spilled);
        assert_eq!(p.len(), PathBuf::INLINE + 1);
        assert_eq!(p.as_slice()[PathBuf::INLINE], 999);
        assert_eq!(p.as_slice()[..PathBuf::INLINE], (0..PathBuf::INLINE as u32).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn mutable_slice_remaps_in_place() {
        let mut p = PathBuf::new();
        for v in [1u32, 2, 3] {
            p.push(v);
        }
        for v in p.as_mut_slice() {
            *v *= 10;
        }
        assert_eq!(p.as_slice(), &[10, 20, 30]);
    }

    #[test]
    fn equality_compares_contents_not_representation() {
        let mut a = PathBuf::new();
        let mut b = PathBuf::new();
        for v in 0..3 {
            a.push(v);
        }
        // Drive b through a spill and back via clear, then same content.
        for v in 0..(PathBuf::INLINE as u32 + 1) {
            b.push(v);
        }
        b.clear();
        for v in 0..3 {
            b.push(v);
        }
        assert_eq!(a, b);
    }
}
