//! The distributed binning scheme (§2.2, after Ratnasamy & Shenker).
//!
//! Each node measures its RTT to a well-known set of landmark nodes and
//! quantizes every measurement into a small number of *levels*; the
//! resulting digit string — the **landmark order** — names the bin.
//! Nodes sharing a bin are topologically close with high probability.
//! The paper's Table 1 uses three levels with boundaries at 20 ms and
//! 100 ms: latency ∈ [0, 20] → 0, (20, 100) → 1, [100, ∞) → 2 (the
//! table's sample data pin down the boundary conventions: node F's
//! 20 ms → digit 0, node A's 100 ms → digit 2).
//!
//! The same digit string is a ring's *name* (§3.1): one packed `Copy`
//! [`LandmarkOrder`] is a peer's bin, a ring-table key and the ring
//! field of every protocol message, and [`crate::HierasConfig::ring_key`]
//! picks which of its prefixes names the peer's ring at each layer.

use core::fmt::Write as _;
use core::str::FromStr;
use crate::ConfigError;
use hieras_id::Id;

/// Most digits a [`LandmarkOrder`] holds: sixteen 4-bit digits fill
/// one `u64`.
pub(crate) const MAX_DIGITS: usize = 16;

/// A landmark order: one quantized-latency digit per landmark, in
/// landmark-table order. `"1012"` in the paper's Table 1 means levels
/// 1, 0, 1, 2 against landmarks L1..L4.
///
/// Packed into one word: digit `i` occupies the four bits below bit
/// `64 - 4i` of `digits` (left-aligned, zero after the last digit).
/// The derived `Ord` compares `digits`, then `len`, which is the
/// lexicographic order of the digit strings: a proper prefix pads with
/// zeros and so sorts first. Digits are 0–9 and there are at most 16 of
/// them; every constructor checks both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LandmarkOrder {
    digits: u64,
    len: u8,
}

/// Parses a ring name as the paper prints it: 0–16 ASCII digits.
impl FromStr for LandmarkOrder {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, ConfigError> {
        // Non-digits wrap to values above 9, which `collect` rejects.
        LandmarkOrder::collect(s.bytes().map(|b| b.wrapping_sub(b'0')))
            .ok_or_else(|| ConfigError::BadLandmarkOrder(format!("{s:?}")))
    }
}

/// Bit mask of the first `n` digits.
fn head_mask(n: usize) -> u64 {
    u64::MAX.checked_shl(64 - 4 * n as u32).unwrap_or(0)
}

impl LandmarkOrder {
    /// The order with the given digits, e.g. `&[1, 0, 1, 2]` for "1012".
    ///
    /// # Errors
    /// [`ConfigError::BadLandmarkOrder`] for a digit above 9 or more
    /// than 16 digits.
    pub fn new(digits: &[u8]) -> Result<Self, ConfigError> {
        Self::collect(digits.iter().copied())
            .ok_or_else(|| ConfigError::BadLandmarkOrder(format!("{digits:?}")))
    }

    /// Packs `digits`, or `None` unless each is 0–9 and there are at
    /// most 16.
    fn collect(digits: impl IntoIterator<Item = u8>) -> Option<Self> {
        let mut o = LandmarkOrder { digits: 0, len: 0 };
        for d in digits {
            if d > 9 || o.len() == MAX_DIGITS {
                return None;
            }
            o.digits |= u64::from(d) << (60 - 4 * u32::from(o.len));
            o.len += 1;
        }
        Some(o)
    }

    /// The digits, first landmark first.
    pub(crate) fn digits(self) -> impl Iterator<Item = u8> {
        (0..self.len()).map(move |i| (self.digits >> (60 - 4 * i)) as u8 & 0xf)
    }

    /// One injective `u64` for `(digits, len)`: every held digit plus
    /// one, packed as stored. Held nibbles are 1–10 and the rest stay 0
    /// (digits past `len` are never set), so the nonzero nibbles give
    /// back the length and, less one, the digits — a 16-digit order
    /// fills all 64 bits without meeting a shorter one.
    #[must_use]
    pub(crate) fn code(self) -> u64 {
        // No nibble carries: 9 + 1 < 16.
        self.digits + (0x1111_1111_1111_1111 & head_mask(self.len()))
    }

    /// The first `len` digits (all of them when `len` is larger).
    #[must_use]
    pub(crate) fn prefix(&self, len: usize) -> LandmarkOrder {
        let len = len.min(self.len());
        LandmarkOrder { digits: self.digits & head_mask(len), len: len as u8 }
    }

    /// Number of digits (= number of landmarks measured).
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// True for the empty order (zero landmarks / zero-length prefix —
    /// the name of the single global ring).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops the digit of a failed landmark (§2.3: "previously binned
    /// nodes only need to drop the failed landmark(s) from their order
    /// information"). An out-of-range `idx` drops nothing.
    #[must_use]
    pub fn drop_landmark(&self, idx: usize) -> LandmarkOrder {
        if idx >= self.len() {
            return *self;
        }
        let tail = self.digits.checked_shl(4 * (idx as u32 + 1)).unwrap_or(0) >> (4 * idx);
        LandmarkOrder { digits: (self.digits & head_mask(idx)) | tail, len: self.len - 1 }
    }

    /// The ring name as the paper prints it: the digit string, e.g. "1012".
    #[must_use]
    pub fn name(&self) -> String {
        self.to_string()
    }

    /// The ring id: `SHA-1(ringname)` truncated onto the 64-bit circle
    /// (§3.1: "the ringid is generated by using the collision-free
    /// algorithm on the ringname").
    #[must_use]
    pub fn ring_id(&self) -> Id {
        let mut ascii = [0u8; MAX_DIGITS];
        for (c, d) in ascii.iter_mut().zip(self.digits()) {
            *c = b'0' + d;
        }
        Id::hash_of(&ascii[..self.len()])
    }
}

impl core::fmt::Display for LandmarkOrder {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.digits().try_for_each(|d| f.write_char(char::from(b'0' + d)))
    }
}

/// Latency-level quantizer.
///
/// `bounds` are the ascending level boundaries in milliseconds; `k`
/// bounds produce `k + 1` levels (digits `0..=k`, so at most 9 bounds
/// keep every level one digit of a [`LandmarkOrder`]). The paper uses
/// `[20, 100]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binning {
    bounds: Vec<u16>,
}

impl Binning {
    /// The paper's three-level binning: `[0,20] (20,100) [100,∞)`.
    #[must_use]
    pub fn paper() -> Self {
        Binning { bounds: vec![20, 100] }
    }

    /// Custom boundaries (must be strictly ascending, at most 9 bounds).
    ///
    /// # Panics
    /// Panics on empty, non-ascending or oversized boundary lists —
    /// a malformed quantizer is a configuration bug.
    #[must_use]
    pub fn new(bounds: Vec<u16>) -> Self {
        assert!(!bounds.is_empty(), "need at least one level boundary");
        assert!(bounds.len() <= 9, "at most 9 boundaries (10 levels) supported");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "boundaries must be ascending");
        Binning { bounds }
    }

    /// Number of levels (digits range over `0..levels`).
    #[must_use]
    pub fn levels(&self) -> usize {
        self.bounds.len() + 1
    }

    /// Quantizes one latency into its level digit.
    ///
    /// Matches the paper's Table 1 exactly: the first boundary is
    /// inclusive on the low side (20 ms → 0) and the last boundary is
    /// inclusive on the high side (100 ms → 2).
    #[must_use]
    pub fn level(&self, latency_ms: u16) -> u8 {
        let mut lvl = 0u8;
        for (i, &b) in self.bounds.iter().enumerate() {
            if latency_ms > b || (latency_ms == b && i == self.bounds.len() - 1) {
                lvl = i as u8 + 1;
            }
        }
        lvl
    }

    /// The landmark order of a node given its measured RTTs to each
    /// landmark (in landmark-table order).
    ///
    /// # Panics
    /// Panics on more than 16 RTTs ([`crate::HierasConfig::validate`]
    /// caps the landmark count there).
    #[must_use]
    pub fn order(&self, rtts_ms: &[u16]) -> LandmarkOrder {
        self.order_with_noise(rtts_ms, &[])
    }

    /// Like [`Binning::order`] but with multiplicative measurement
    /// noise applied to each RTT first — models `ping` inaccuracy
    /// (§2.2 concedes ping "is not very accurate ... but adequate").
    /// `noise[i]` multiplies `rtts_ms[i]`; callers draw the factors
    /// from their RNG of choice (e.g. lognormal around 1.0).
    ///
    /// # Panics
    /// Panics on more than 16 RTTs, as [`Binning::order`].
    #[must_use]
    pub fn order_with_noise(&self, rtts_ms: &[u16], noise: &[f64]) -> LandmarkOrder {
        let noise = noise.iter().chain(core::iter::repeat(&1.0));
        let levels = rtts_ms.iter().zip(noise).map(|(&l, &f)| {
            let noisy = (f64::from(l) * f).round().clamp(0.0, f64::from(u16::MAX));
            self.level(noisy as u16)
        });
        // At most 9 bounds, so every level is a single digit.
        LandmarkOrder::collect(levels).expect("at most 16 landmarks")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table 1, verbatim.
    #[test]
    fn table1_orders_reproduced() {
        let b = Binning::paper();
        let rows: [(&str, [u16; 4], &str); 6] = [
            ("A", [25, 5, 30, 100], "1012"),
            ("B", [40, 18, 12, 200], "1002"),
            ("C", [100, 180, 5, 10], "2200"),
            ("D", [160, 220, 8, 20], "2200"),
            ("E", [45, 10, 100, 5], "1020"),
            ("F", [20, 140, 50, 40], "0211"),
        ];
        for (node, rtts, want) in rows {
            assert_eq!(b.order(&rtts).name(), want, "node {node}");
        }
    }

    #[test]
    fn nodes_c_and_d_share_a_ring_others_do_not() {
        let b = Binning::paper();
        let orders: Vec<LandmarkOrder> = [
            [25u16, 5, 30, 100],
            [40, 18, 12, 200],
            [100, 180, 5, 10],
            [160, 220, 8, 20],
            [45, 10, 100, 5],
            [20, 140, 50, 40],
        ]
        .iter()
        .map(|r| b.order(r))
        .collect();
        assert_eq!(orders[2], orders[3]); // C == D
        for i in 0..orders.len() {
            for j in i + 1..orders.len() {
                if (i, j) != (2, 3) {
                    assert_ne!(orders[i], orders[j], "nodes {i},{j}");
                }
            }
        }
    }

    #[test]
    fn level_boundaries_match_paper_conventions() {
        let b = Binning::paper();
        assert_eq!(b.level(0), 0);
        assert_eq!(b.level(20), 0); // [0,20] inclusive
        assert_eq!(b.level(21), 1);
        assert_eq!(b.level(99), 1);
        assert_eq!(b.level(100), 2); // [100,∞) inclusive
        assert_eq!(b.level(60000), 2);
        assert_eq!(b.levels(), 3);
    }

    #[test]
    fn custom_bounds() {
        let b = Binning::new(vec![10, 50, 200]);
        assert_eq!(b.levels(), 4);
        assert_eq!(b.level(10), 0);
        assert_eq!(b.level(11), 1);
        assert_eq!(b.level(50), 1);
        assert_eq!(b.level(51), 2);
        assert_eq!(b.level(200), 3);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn rejects_unsorted_bounds() {
        let _ = Binning::new(vec![100, 20]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty_bounds() {
        let _ = Binning::new(vec![]);
    }

    /// The packed value against a plain `Vec<u8>` / `String` reference,
    /// over random 0–16-digit strings: order, prefixes, landmark drops,
    /// names, ring ids and the ring-name round trip. The first
    /// rows are the worked cases of the paper's examples.
    #[test]
    fn packed_order_matches_digit_string_reference() {
        let mut rng = hieras_rt::Rng::seed_from_u64(0xb113);
        let mut cases: Vec<Vec<u8>> = vec![vec![1, 0, 1, 2], vec![0, 1, 2], vec![0, 1, 0], vec![]];
        for _ in 0..3000 {
            let len = rng.random_range(0usize..=MAX_DIGITS);
            cases.push((0..len).map(|_| rng.random_range(0u8..10)).collect());
        }
        // The reference: the digits as a `Vec<u8>` and as a `String`.
        let name = |d: &[u8]| -> String { d.iter().map(|&x| char::from(b'0' + x)).collect() };
        let dropped = |d: &[u8], i: usize| -> Vec<u8> {
            d.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &x)| x).collect()
        };
        // `code` is injective: the digits and length decode back out.
        let decode = |c: u64| -> Vec<u8> {
            let nibbles = (0..MAX_DIGITS).map(|i| (c >> (60 - 4 * i)) as u8 & 0xf);
            nibbles.take_while(|&n| n != 0).map(|n| n - 1).collect()
        };
        let packed: Vec<LandmarkOrder> =
            cases.iter().map(|d| LandmarkOrder::new(d).unwrap()).collect();
        for (i, (d, o)) in cases.iter().zip(&packed).enumerate() {
            assert_eq!((o.len(), o.is_empty()), (d.len(), d.is_empty()));
            assert_eq!(o.name(), name(d), "case {i}");
            assert_eq!(o.ring_id(), Id::hash_of(name(d).as_bytes()), "case {i}");
            assert_eq!(decode(o.code()), *d, "case {i}");
            for k in 0..=MAX_DIGITS + 1 {
                assert_eq!(o.prefix(k).name(), name(&d[..k.min(d.len())]), "case {i} prefix {k}");
                assert_eq!(o.drop_landmark(k).name(), name(&dropped(d, k)), "case {i} drop {k}");
                assert_eq!(decode(o.prefix(k).code()), d[..k.min(d.len())], "case {i} prefix {k}");
                assert_eq!(decode(o.drop_landmark(k).code()), dropped(d, k), "case {i} drop {k}");
            }
            assert_eq!(o.name().parse::<LandmarkOrder>(), Ok(*o));
            let j = rng.random_range(0..cases.len());
            assert_eq!(o.cmp(&packed[j]), d.cmp(&cases[j]), "cases {i} vs {j}");
            assert_eq!(o.cmp(&packed[j]), name(d).cmp(&name(&cases[j])), "cases {i} vs {j}");
        }
        let mut by_packed = packed.clone();
        by_packed.sort_unstable();
        let mut by_name: Vec<String> = cases.iter().map(|d| name(d)).collect();
        by_name.sort_unstable();
        assert_eq!(by_packed.iter().map(LandmarkOrder::name).collect::<Vec<_>>(), by_name);
    }

    /// Hostile digits and lengths are errors, never panics or a clamp
    /// that would merge two bins (`[9]` and `[12]` both named "9").
    #[test]
    fn out_of_range_orders_are_rejected() {
        assert!(LandmarkOrder::new(&[9]).is_ok());
        let err = LandmarkOrder::new(&[12]).unwrap_err();
        assert_eq!(err, ConfigError::BadLandmarkOrder("[12]".into()));
        assert!(LandmarkOrder::new(&[0; MAX_DIGITS]).is_ok());
        assert!(LandmarkOrder::new(&[0; MAX_DIGITS + 1]).is_err());
        for bad in ["7x", "x", "-1", "1 2", "٣", "01234567890123456"] {
            let err = bad.parse::<LandmarkOrder>().unwrap_err();
            assert_eq!(err, ConfigError::BadLandmarkOrder(format!("{bad:?}")));
        }
        assert_eq!("".parse::<LandmarkOrder>().unwrap().name(), "");
    }

    #[test]
    fn noise_can_flip_borderline_digits() {
        let b = Binning::paper();
        // 19 ms with +20% noise crosses the 20 ms boundary.
        let clean = b.order(&[19]);
        let noisy = b.order_with_noise(&[19], &[1.2]);
        assert_eq!(clean.name(), "0");
        assert_eq!(noisy.name(), "1");
        // Noise slice shorter than RTTs: remaining digits unperturbed.
        let o = b.order_with_noise(&[19, 150], &[1.0]);
        assert_eq!(o.name(), "02");
    }

    /// Seeded-loop replacement for the old property test.
    #[test]
    fn level_is_monotone() {
        let mut rng = hieras_rt::Rng::seed_from_u64(0xb111);
        let b = Binning::paper();
        for _ in 0..512 {
            let a = rng.random_range(0u16..5000);
            let d = rng.random_range(0u16..5000);
            let (lo, hi) = (a, a.saturating_add(d));
            assert!(b.level(lo) <= b.level(hi), "lo {lo} hi {hi}");
        }
    }

    /// Seeded-loop replacement for the old property test.
    #[test]
    fn order_len_matches_input() {
        let mut rng = hieras_rt::Rng::seed_from_u64(0xb112);
        let b = Binning::paper();
        for _ in 0..256 {
            let len = rng.random_range(0usize..12);
            let rtts: Vec<u16> = (0..len).map(|_| rng.random_range(0u16..1000)).collect();
            let o = b.order(&rtts);
            assert_eq!(o.len(), rtts.len());
            assert!(o.digits().all(|d| d < b.levels() as u8));
        }
    }
}
