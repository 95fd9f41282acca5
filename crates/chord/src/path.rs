//! Reusable path scratch for the routing hot path.
//!
//! Every route clears the scratch it is given and refills it, so one
//! [`PathBuf`] reused across lookups keeps the capacity its longest
//! path needed and allocates nothing once warm
//! (`tests/epoch_alloc.rs` replays the same lookups twice on one
//! scratch and holds the second pass to zero bytes).

/// A `u32` path: a `Vec<u32>` whose capacity survives
/// [`PathBuf::clear`]. Reuse one instance across lookups.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathBuf(Vec<u32>);

impl PathBuf {
    /// An empty scratch; it allocates on its first push.
    #[must_use]
    pub fn new() -> Self {
        PathBuf(Vec::new())
    }

    /// Empties the path, keeping its capacity for reuse.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the path holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Appends an entry.
    pub fn push(&mut self, v: u32) {
        self.0.push(v);
    }

    /// The path as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }

    /// The path as a mutable slice (used to remap ring positions to
    /// global node indices in place).
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [u32] {
        &mut self.0
    }

    /// Last entry, if any.
    #[must_use]
    pub fn last(&self) -> Option<u32> {
        self.0.last().copied()
    }

    /// Copies the path into a fresh `Vec`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u32> {
        self.0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_pushes() {
        let mut p = PathBuf::new();
        assert!(p.is_empty());
        assert_eq!(p.last(), None);
        p.push(7);
        p.push(9);
        assert_eq!(p.as_slice(), &[7, 9]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.last(), Some(9));
        assert_eq!(p.to_vec(), vec![7, 9]);
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
}
