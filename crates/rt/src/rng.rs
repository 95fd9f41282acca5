//! A small, fast, deterministic PRNG: xoshiro256++ seeded via
//! SplitMix64, with the sampling helpers the workspace needs.
//!
//! Not cryptographic. Streams are fully determined by the seed, which
//! is what the experiments require: every topology, placement and
//! workload must be replayable from a config line.

use std::ops::{Range, RangeInclusive};

/// xoshiro256++ generator (Blackman & Vigna), SplitMix64-seeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the full 256-bit state from one `u64` by running
    /// SplitMix64 four times, as the xoshiro authors recommend.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut w = z;
            w = (w ^ (w >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            w = (w ^ (w >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            w ^ (w >> 31)
        };
        Rng { s: [next(), next(), next(), next()] }
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.s = [s0, s1, s2, s3];
        result
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)` by Lemire's multiply-shift with a
    /// rejection pass, so every value is exactly equally likely.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty sampling range");
        // Widening multiply: high 64 bits of x * bound are uniform in
        // [0, bound) once low-bits bias is rejected.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let wide = u128::from(x) * u128::from(bound);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Uniform sample from `range` (see [`SampleRange`] for the
    /// supported range types — half-open integer ranges, half-open and
    /// inclusive `f64` ranges).
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    pub fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_u64_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly random element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.next_u64_below(slice.len() as u64) as usize])
        }
    }

    /// `k` distinct indices drawn uniformly from `0..len`, in selection
    /// order (partial Fisher–Yates over an index vector).
    ///
    /// # Panics
    /// Panics if `k > len`.
    #[must_use]
    pub fn sample_indices(&mut self, len: usize, k: usize) -> Vec<usize> {
        assert!(k <= len, "cannot sample {k} of {len}");
        let mut idx: Vec<usize> = (0..len).collect();
        for i in 0..k {
            let j = i + self.next_u64_below((len - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

/// Range types [`Rng::random_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty sampling range");
                let span = (self.end - self.start) as u64;
                self.start + rng.next_u64_below(span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty sampling range");
                let span = (hi - lo) as u64 + 1;
                lo + rng.next_u64_below(span) as $t
            }
        }
    )*};
}

int_range!(usize, u64, u32, u16, u8);

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty sampling range");
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty sampling range");
        lo + (hi - lo) * rng.next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_samples_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..2000 {
            let x = rng.random_range(3usize..17);
            assert!((3..17).contains(&x));
            let f = rng.random_range(-0.5f64..=0.5);
            assert!((-0.5..=0.5).contains(&f));
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(11);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[rng.next_u64_below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c} far from 10000");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 100-element shuffle virtually never is the identity");
    }

    #[test]
    fn choose_and_sample_indices() {
        let mut rng = Rng::seed_from_u64(9);
        assert_eq!(rng.choose::<u8>(&[]), None);
        let xs = [10, 20, 30];
        for _ in 0..50 {
            assert!(xs.contains(rng.choose(&xs).unwrap()));
        }
        let picked = rng.sample_indices(50, 10);
        assert_eq!(picked.len(), 10);
        let mut dedup = picked.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10, "sampled indices must be distinct");
    }

    #[test]
    fn splitmix_free_function_matches_reference() {
        // Reference values from the public-domain splitmix64.c.
        assert_eq!(crate::splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_ne!(crate::splitmix64(0xe220_a839_7b1d_cdaf), 0);
    }
}
