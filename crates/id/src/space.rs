//! Modular arithmetic on the identifier circle.
//!
//! A [`IdSpace`] fixes the ring size `2^bits` and provides the interval
//! predicates Chord-style routing is built from. Keeping them here (and
//! property-testing them exhaustively) means the DHT layers never do
//! raw wraparound arithmetic themselves — historically the single most
//! bug-prone part of Chord implementations.

use crate::Id;

/// Errors constructing or using an identifier space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceError {
    /// `bits` was 0 or greater than 64.
    BadBits(u32),
    /// An id had bits set outside the space's mask.
    OutOfSpace(Id),
}

impl core::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpaceError::BadBits(b) => write!(f, "identifier space bits must be 1..=64, got {b}"),
            SpaceError::OutOfSpace(id) => write!(f, "id {id} has bits outside the space"),
        }
    }
}

impl std::error::Error for SpaceError {}

/// An identifier circle with `2^bits` points.
///
/// All arithmetic is modulo the ring size. `bits = 64` (the
/// [`IdSpace::full`] space) is the production configuration; smaller
/// spaces exist to reproduce the paper's worked examples and to make
/// exhaustive tests feasible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdSpace {
    bits: u32,
}

impl Default for IdSpace {
    fn default() -> Self {
        Self::full()
    }
}

impl IdSpace {
    /// The full 64-bit identifier space used in production.
    #[must_use]
    pub const fn full() -> Self {
        IdSpace { bits: 64 }
    }

    /// A space with `2^bits` identifiers.
    ///
    /// # Errors
    /// Returns [`SpaceError::BadBits`] unless `1 <= bits <= 64`.
    pub const fn new(bits: u32) -> Result<Self, SpaceError> {
        if bits == 0 || bits > 64 {
            Err(SpaceError::BadBits(bits))
        } else {
            Ok(IdSpace { bits })
        }
    }

    /// Number of bits, i.e. the maximum length of a finger table.
    #[inline]
    #[must_use]
    pub const fn bits(self) -> u32 {
        self.bits
    }

    /// Bit mask selecting the valid id bits.
    #[inline]
    #[must_use]
    pub const fn mask(self) -> u64 {
        if self.bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }

    /// True if `id` lies inside this space.
    #[inline]
    #[must_use]
    pub const fn contains(self, id: Id) -> bool {
        id.0 & !self.mask() == 0
    }

    /// Reduces an arbitrary 64-bit id into this space (keeps the low bits).
    #[inline]
    #[must_use]
    pub const fn reduce(self, id: Id) -> Id {
        Id(id.0 & self.mask())
    }

    /// `(a + k) mod 2^bits`.
    #[inline]
    #[must_use]
    pub const fn add(self, a: Id, k: u64) -> Id {
        Id(a.0.wrapping_add(k) & self.mask())
    }

    /// `(a - k) mod 2^bits`.
    #[inline]
    #[must_use]
    pub const fn sub(self, a: Id, k: u64) -> Id {
        Id(a.0.wrapping_sub(k) & self.mask())
    }

    /// The clockwise distance from `a` to `b`: the unique `d` with
    /// `0 <= d < 2^bits` and `a + d ≡ b`.
    #[inline]
    #[must_use]
    pub const fn distance_cw(self, a: Id, b: Id) -> u64 {
        b.0.wrapping_sub(a.0) & self.mask()
    }

    /// The i-th finger start of node `n`: `n + 2^i mod 2^bits`
    /// (fingers are numbered from 0; the Chord paper's `finger[k].start`
    /// with 1-based `k` equals `finger_start(n, k-1)`).
    ///
    /// # Panics
    /// Panics if `i >= bits` — a finger index outside the table is a
    /// programming error, not a runtime condition.
    #[inline]
    #[must_use]
    pub fn finger_start(self, n: Id, i: u32) -> Id {
        assert!(i < self.bits, "finger index {i} out of range for {}-bit space", self.bits);
        self.add(n, 1u64 << i)
    }

    /// True if `x ∈ (a, b)` on the circle (clockwise open arc).
    ///
    /// When `a == b` the open arc is the whole circle minus `a`, which
    /// matches Chord's usage (a single-node ring owns everything).
    #[inline]
    #[must_use]
    pub const fn in_open(self, a: Id, b: Id, x: Id) -> bool {
        let dab = self.distance_cw(a, b);
        let dax = self.distance_cw(a, x);
        if dab == 0 {
            // Whole circle minus the endpoint.
            dax != 0
        } else {
            dax != 0 && dax < dab
        }
    }

    /// True if `x ∈ (a, b]` on the circle.
    #[inline]
    #[must_use]
    pub const fn in_open_closed(self, a: Id, b: Id, x: Id) -> bool {
        let dab = self.distance_cw(a, b);
        let dax = self.distance_cw(a, x);
        if dab == 0 {
            // (a, a] is the whole circle: every point qualifies
            // (wrapping all the way around ends at a itself).
            true
        } else {
            dax != 0 && dax <= dab
        }
    }

    /// True if `x ∈ [a, b)` on the circle.
    #[inline]
    #[must_use]
    pub const fn in_closed_open(self, a: Id, b: Id, x: Id) -> bool {
        let dab = self.distance_cw(a, b);
        let dax = self.distance_cw(a, x);
        if dab == 0 {
            true
        } else {
            dax < dab
        }
    }

    /// Of `a` and `b`, the one clockwise-closer to `target` *from*
    /// `target`'s perspective going counter-clockwise — i.e. the better
    /// predecessor of `target`. Used by routing tie-breaks.
    #[inline]
    #[must_use]
    pub const fn closer_predecessor(self, target: Id, a: Id, b: Id) -> Id {
        // Smaller clockwise distance *to* the target wins.
        if self.distance_cw(a, target) <= self.distance_cw(b, target) {
            a
        } else {
            b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_bad_bits() {
        assert_eq!(IdSpace::new(0), Err(SpaceError::BadBits(0)));
        assert_eq!(IdSpace::new(65), Err(SpaceError::BadBits(65)));
        assert!(IdSpace::new(1).is_ok());
        assert!(IdSpace::new(64).is_ok());
    }

    #[test]
    fn mask_and_contains() {
        let s8 = IdSpace::new(8).unwrap();
        assert_eq!(s8.mask(), 0xff);
        assert!(s8.contains(Id(255)));
        assert!(!s8.contains(Id(256)));
        assert_eq!(s8.reduce(Id(0x1_2f)), Id(0x2f));
        assert_eq!(IdSpace::full().mask(), u64::MAX);
    }

    #[test]
    fn add_sub_wrap() {
        let s8 = IdSpace::new(8).unwrap();
        assert_eq!(s8.add(Id(250), 10), Id(4));
        assert_eq!(s8.sub(Id(4), 10), Id(250));
        let full = IdSpace::full();
        assert_eq!(full.add(Id::MAX, 1), Id::ZERO);
        assert_eq!(full.sub(Id::ZERO, 1), Id::MAX);
    }

    #[test]
    fn distance_cw_basics() {
        let s8 = IdSpace::new(8).unwrap();
        assert_eq!(s8.distance_cw(Id(10), Id(20)), 10);
        assert_eq!(s8.distance_cw(Id(20), Id(10)), 246);
        assert_eq!(s8.distance_cw(Id(7), Id(7)), 0);
    }

    #[test]
    fn finger_starts_match_chord_paper() {
        // Chord paper figure: node 1 in a 3-bit space has finger starts 2,3,5.
        let s3 = IdSpace::new(3).unwrap();
        assert_eq!(s3.finger_start(Id(1), 0), Id(2));
        assert_eq!(s3.finger_start(Id(1), 1), Id(3));
        assert_eq!(s3.finger_start(Id(1), 2), Id(5));
    }

    #[test]
    #[should_panic(expected = "finger index")]
    fn finger_start_rejects_out_of_range() {
        let s3 = IdSpace::new(3).unwrap();
        let _ = s3.finger_start(Id(1), 3);
    }

    #[test]
    fn intervals_non_wrapping() {
        let s = IdSpace::new(8).unwrap();
        assert!(s.in_open(Id(10), Id(20), Id(15)));
        assert!(!s.in_open(Id(10), Id(20), Id(10)));
        assert!(!s.in_open(Id(10), Id(20), Id(20)));
        assert!(s.in_open_closed(Id(10), Id(20), Id(20)));
        assert!(!s.in_open_closed(Id(10), Id(20), Id(10)));
        assert!(s.in_closed_open(Id(10), Id(20), Id(10)));
        assert!(!s.in_closed_open(Id(10), Id(20), Id(20)));
    }

    #[test]
    fn intervals_wrapping() {
        let s = IdSpace::new(8).unwrap();
        // (250, 5): contains 255, 0, 3 but not 250, 5, 100.
        assert!(s.in_open(Id(250), Id(5), Id(255)));
        assert!(s.in_open(Id(250), Id(5), Id(0)));
        assert!(s.in_open(Id(250), Id(5), Id(3)));
        assert!(!s.in_open(Id(250), Id(5), Id(250)));
        assert!(!s.in_open(Id(250), Id(5), Id(5)));
        assert!(!s.in_open(Id(250), Id(5), Id(100)));
    }

    #[test]
    fn degenerate_intervals() {
        let s = IdSpace::new(8).unwrap();
        // (a, a) = circle minus a; (a, a] = whole circle.
        assert!(s.in_open(Id(7), Id(7), Id(8)));
        assert!(!s.in_open(Id(7), Id(7), Id(7)));
        assert!(s.in_open_closed(Id(7), Id(7), Id(7)));
        assert!(s.in_open_closed(Id(7), Id(7), Id(200)));
        assert!(s.in_closed_open(Id(7), Id(7), Id(7)));
    }

    #[test]
    fn closer_predecessor_picks_smaller_cw_distance() {
        let s = IdSpace::new(8).unwrap();
        assert_eq!(s.closer_predecessor(Id(100), Id(90), Id(10)), Id(90));
        assert_eq!(s.closer_predecessor(Id(5), Id(250), Id(100)), Id(250));
    }

    /// Deterministic case generator replacing the old proptest
    /// strategies: a random space and three ids inside it per case.
    fn random_cases(seed: u64, cases: usize) -> impl Iterator<Item = (IdSpace, Id, Id, Id)> {
        let mut rng = hieras_rt::Rng::seed_from_u64(seed);
        (0..cases).map(move |_| {
            let s = IdSpace::new(rng.random_range(1u32..=64)).unwrap();
            let a = s.reduce(Id(rng.next_u64()));
            let b = s.reduce(Id(rng.next_u64()));
            let x = s.reduce(Id(rng.next_u64()));
            (s, a, b, x)
        })
    }

    #[test]
    fn distance_is_additive_inverse() {
        for (s, a, b, _) in random_cases(0xd157, 2000) {
            let d = s.distance_cw(a, b);
            assert_eq!(s.add(a, d), b);
            if a != b {
                assert_eq!(s.distance_cw(b, a), (s.mask() - d).wrapping_add(1) & s.mask());
            }
        }
    }

    #[test]
    fn open_closed_partition() {
        // Every point is in exactly one of (a,b] or (b,a] when a != b.
        for (s, a, b, x) in random_cases(0x0c9a, 2000) {
            if a == b {
                continue;
            }
            let in1 = s.in_open_closed(a, b, x);
            let in2 = s.in_open_closed(b, a, x);
            assert!(in1 ^ in2, "x={x:?} a={a:?} b={b:?}");
        }
    }

    #[test]
    fn open_is_open_closed_minus_endpoint() {
        for (s, a, b, x) in random_cases(0x09e4, 2000) {
            if a == b {
                continue;
            }
            let open = s.in_open(a, b, x);
            let oc = s.in_open_closed(a, b, x);
            assert_eq!(open, oc && x != b);
        }
    }

    #[test]
    fn finger_start_monotone_distance() {
        for (s, n, _, _) in random_cases(0xf19e, 500) {
            let mut prev = 0u64;
            for i in 0..s.bits() {
                let d = s.distance_cw(n, s.finger_start(n, i));
                assert_eq!(d, 1u64 << i);
                assert!(d > prev || i == 0);
                prev = d;
            }
        }
    }
}
