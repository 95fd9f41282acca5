//! The [`Id`] newtype: a point on the identifier circle.

use crate::Sha1;

/// A point on the identifier circle.
///
/// Stored as a `u64`. In the full production space the circle has
/// `2^64` points and an `Id` is the top 64 bits of a SHA-1 digest; in
/// demo spaces (see [`crate::IdSpace::new`]) only the low `bits` bits
/// are significant and the rest must be zero.
///
/// `Ord` on `Id` is *linear* order on the underlying integer, which is
/// what ring construction (sorting node ids) needs. Circular relations
/// ("is x between a and b going clockwise?") live on
/// [`crate::IdSpace`], because they depend on the ring size.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Id(pub u64);

impl Id {
    /// The identifier `0`.
    pub const ZERO: Id = Id(0);

    /// The largest identifier in the full 64-bit space.
    pub const MAX: Id = Id(u64::MAX);

    /// Hashes an arbitrary name onto the full 64-bit circle with SHA-1.
    ///
    /// This is the production way of assigning node ids (hash of the
    /// node's IP address and port) and file keys (hash of the file
    /// name), exactly as the paper prescribes in §3.1.
    #[must_use]
    pub fn hash_of(name: &[u8]) -> Id {
        Id(Sha1::digest_u64(name))
    }

    /// Raw integer value.
    #[inline]
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl From<u64> for Id {
    fn from(v: u64) -> Self {
        Id(v)
    }
}

impl From<Id> for u64 {
    fn from(v: Id) -> Self {
        v.0
    }
}

impl core::fmt::Debug for Id {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Id({:#018x})", self.0)
    }
}

impl core::fmt::Display for Id {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_of_is_deterministic_and_spreads() {
        let a = Id::hash_of(b"node-a");
        let b = Id::hash_of(b"node-b");
        assert_eq!(a, Id::hash_of(b"node-a"));
        assert_ne!(a, b);
    }

    #[test]
    fn display_is_fixed_width_hex() {
        assert_eq!(Id(0xff).to_string(), "00000000000000ff");
        assert_eq!(Id::MAX.to_string(), "ffffffffffffffff");
    }

    #[test]
    fn ordering_is_linear() {
        assert!(Id(1) < Id(2));
        assert!(Id::ZERO < Id::MAX);
    }

    #[test]
    fn conversions_roundtrip() {
        let x: Id = 42u64.into();
        let y: u64 = x.into();
        assert_eq!(y, 42);
        assert_eq!(x.raw(), 42);
    }

    #[test]
    fn zero_and_max_constants() {
        assert_eq!(Id::ZERO.raw(), 0);
        assert_eq!(Id::MAX.raw(), u64::MAX);
    }

    #[test]
    fn hash_uniformity_rough_check() {
        // Top-bit balance over 4k hashed names: expect roughly half set.
        let ones = (0..4096)
            .filter(|i| Id::hash_of(format!("name-{i}").as_bytes()).raw() >> 63 == 1)
            .count();
        assert!((1600..=2500).contains(&ones), "top-bit count {ones} badly skewed");
    }
}
