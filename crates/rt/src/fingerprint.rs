//! Multi-lane fingerprints of whole arrays — the one hash kernel behind
//! every per-epoch digest and checksum.
//!
//! A single `splitmix64` chain over an array runs at the latency of two
//! dependent multiplies per element. Here `LANES` independent chains
//! take the words round-robin (word `i` goes to lane `i % LANES`), so
//! their multiplies overlap; every word still passes through the full
//! SplitMix64 finalizer. The lanes are then folded, in lane order, with
//! the element count: the result is sensitive to order, to every bit of
//! every element, and to length.

use crate::splitmix64;

/// Independent chains per fingerprint; the value is part of the digest.
/// Two chains hash a word in about half the serial chain's time and
/// take that time run after run. Wider kernels are faster only at
/// best: over 100 000 `u64` words on a 2-vCPU Xeon, eight chains read
/// 1.2–2.2 ns per word (interquartile range 27 % of the median), four
/// 1.7–2.5 ns (9 %), two 3.1–4.1 ns (3 %), one 5.7–6.5 ns (2 %). A
/// maintainer epoch inherits its kernel's spread.
const LANES: usize = 2;

/// The lanes before any word: lane `i` starts at `splitmix64(seed + i)`.
fn start(seed: u64) -> [u64; LANES] {
    core::array::from_fn(|i| splitmix64(seed.wrapping_add(i as u64)))
}

/// One chain from `splitmix64(seed ^ count)` over the lanes in order.
fn fold(seed: u64, lanes: [u64; LANES], count: usize) -> u64 {
    lanes.iter().fold(splitmix64(seed ^ count as u64), |h, &l| splitmix64(h ^ l))
}

/// Order- and length-sensitive fingerprint of `items` under `seed`,
/// each element entering as the 64-bit `word` it maps to. Chaining one
/// fingerprint into the next one's `seed` hashes several arrays as one
/// unambiguous sequence (each folds its own length).
#[must_use]
pub fn fingerprint<T>(seed: u64, items: &[T], word: impl Fn(&T) -> u64) -> u64 {
    let mut lanes = start(seed);
    let mut blocks = items.chunks_exact(LANES);
    for b in &mut blocks {
        for i in 0..LANES {
            lanes[i] = splitmix64(lanes[i] ^ word(&b[i]));
        }
    }
    for (i, x) in blocks.remainder().iter().enumerate() {
        lanes[i] = splitmix64(lanes[i] ^ word(x));
    }
    fold(seed, lanes, items.len())
}

/// [`fingerprint`] of a `u32` array, two elements per word (element
/// `2k` low, `2k + 1` high). An odd last element enters alone; the fold
/// counts elements, not words, so `[a]` and `[a, 0]` differ.
#[must_use]
pub fn fingerprint_u32(seed: u64, items: &[u32]) -> u64 {
    // Indexing the block by element, not as `[u32; 2]` pairs, keeps
    // LLVM from vectorizing the multiplies into SSE2 emulation, which
    // measured slower than scalar chains.
    let mut lanes = start(seed);
    let mut blocks = items.chunks_exact(2 * LANES);
    for b in &mut blocks {
        for i in 0..LANES {
            let word = u64::from(b[2 * i]) | u64::from(b[2 * i + 1]) << 32;
            lanes[i] = splitmix64(lanes[i] ^ word);
        }
    }
    for (i, pair) in blocks.remainder().chunks(2).enumerate() {
        let word = u64::from(pair[0]) | pair.get(1).map_or(0, |&hi| u64::from(hi) << 32);
        lanes[i] = splitmix64(lanes[i] ^ word);
    }
    fold(seed, lanes, items.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract written out: `LANES` SplitMix64 chains seeded
    /// `splitmix64(seed + lane)`, word `i` into chain `i % LANES`, then
    /// one chain from `splitmix64(seed ^ count)` over the lanes in order.
    fn reference(seed: u64, words: &[u64], count: usize) -> u64 {
        let mut lanes = [0u64; LANES];
        for (lane, h) in lanes.iter_mut().enumerate() {
            *h = splitmix64(seed.wrapping_add(lane as u64));
        }
        for (i, &w) in words.iter().enumerate() {
            lanes[i % LANES] = splitmix64(lanes[i % LANES] ^ w);
        }
        let mut h = splitmix64(seed ^ count as u64);
        for l in lanes {
            h = splitmix64(h ^ l);
        }
        h
    }

    fn words(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| splitmix64(i ^ 0xf1a9)).collect()
    }

    fn fp64(v: &[u64]) -> u64 {
        fingerprint(7, v, |&x| x)
    }

    fn fp32(v: &[u32]) -> u64 {
        fingerprint_u32(7, v)
    }

    #[test]
    fn matches_the_scalar_reference() {
        for n in 0..=3 * LANES {
            let v = words(n);
            assert_eq!(fp64(&v), reference(7, &v, n), "u64 length {n}");
        }
        for n in 0..=6 * LANES {
            let v: Vec<u32> = words(n).iter().map(|&x| x as u32).collect();
            let packed: Vec<u64> = v
                .chunks(2)
                .map(|c| u64::from(c[0]) | c.get(1).map_or(0, |&hi| u64::from(hi) << 32))
                .collect();
            assert_eq!(fp32(&v), reference(7, &packed, n), "u32 length {n}");
        }
    }

    #[test]
    fn every_bit_position_and_order_and_length_counts() {
        for n in 1..=2 * LANES + 1 {
            let v = words(n);
            let v32: Vec<u32> = v.iter().map(|&x| x as u32).collect();
            let (base, base32) = (fp64(&v), fp32(&v32));
            for pos in 0..n {
                for bit in 0..64 {
                    let mut w = v.clone();
                    w[pos] ^= 1 << bit;
                    assert_ne!(fp64(&w), base, "u64 flip {pos}.{bit} of {n}");
                }
                for bit in 0..32 {
                    let mut w = v32.clone();
                    w[pos] ^= 1 << bit;
                    assert_ne!(fp32(&w), base32, "u32 flip {pos}.{bit} of {n}");
                }
                for other in pos + 1..n {
                    let mut w = v.clone();
                    w.swap(pos, other);
                    assert_ne!(fp64(&w), base, "u64 swap {pos}<->{other} of {n}");
                    let mut w = v32.clone();
                    w.swap(pos, other);
                    assert_ne!(fp32(&w), base32, "u32 swap {pos}<->{other} of {n}");
                }
            }
            let (mut longer, mut longer32) = (v.clone(), v32.clone());
            longer.push(0);
            longer32.push(0);
            assert_ne!(fp64(&longer), base, "u64 appended zero at {n}");
            assert_ne!(fp32(&longer32), base32, "u32 appended zero at {n}");
            assert_ne!(fp64(&v[..n - 1]), base, "u64 truncated at {n}");
            assert_ne!(fp32(&v32[..n - 1]), base32, "u32 truncated at {n}");
        }
    }

    #[test]
    fn an_odd_u32_tail_is_unambiguous() {
        for a in [0, 1, 0xdead_beef, u32::MAX] {
            assert_ne!(fp32(&[a]), fp32(&[a, 0]));
            assert_ne!(fp32(&[5, a]), fp32(&[5, a, 0]));
        }
        assert_ne!(fp32(&[]), fp32(&[0]));
    }
}
