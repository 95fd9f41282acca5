//! A from-scratch SHA-1 implementation (FIPS 180-1).
//!
//! HIERAS, like Chord/Pastry/Tapestry/CAN, derives node and key
//! identifiers with "a collision free algorithm such as SHA-1"
//! (paper §3.1). No SHA-1 crate is in the offline dependency set, so we
//! implement the compression function directly. The implementation is
//! streaming (incremental `update`) so large inputs never need to be
//! buffered whole, and it is validated against the official test
//! vectors plus a property test comparing against an independent
//! one-shot reference implementation in the test module.
//!
//! SHA-1 is cryptographically broken for collision resistance against
//! adversarial inputs; for DHT identifier assignment (uniform spreading
//! of benign names over the ring) it remains exactly as suitable as it
//! was in 2003, and using it keeps the reproduction faithful.

/// Streaming SHA-1 hasher.
///
/// ```
/// use hieras_id::Sha1;
/// let mut h = Sha1::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha1::digest(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha1 {
    /// Chaining state A..E.
    state: [u32; 5],
    /// Total message length in bytes so far.
    len: u64,
    /// Partially filled block.
    buf: [u8; 64],
    /// Number of valid bytes in `buf` (always < 64 between calls).
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Initial chaining values from FIPS 180-1.
    const H0: [u32; 5] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476, 0xc3d2_e1f0];

    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha1 { state: Self::H0, len: 0, buf: [0u8; 64], buf_len: 0 }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        // Top up a partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                // Input exhausted without completing the block; the
                // buffered bytes must survive for the next update.
                return;
            }
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
        // Whole blocks straight from the input.
        let mut chunks = rest.chunks_exact(64);
        for block in &mut chunks {
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
        }
        let tail = chunks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the computation and returns the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length,
        // written straight into the block — one extra block when fewer
        // than 9 bytes are left for the marker and the length.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            let block = self.buf;
            self.compress(&block);
            self.buf[..56].fill(0);
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience: digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 20] {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }

    /// One-shot convenience: the top 64 bits of the digest, big-endian.
    ///
    /// This is how [`crate::Id::hash_of`] maps names onto the 64-bit ring.
    pub fn digest_u64(data: &[u8]) -> u64 {
        let d = Self::digest(data);
        u64::from_be_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]])
    }

    /// SHA-1 compression function over one 512-bit block.
    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for t in 16..80 {
            w[t] = (w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        for (t, &wt) in w.iter().enumerate() {
            let (f, k) = match t {
                0..=19 => ((b & c) | ((!b) & d), 0x5a82_7999),
                20..=39 => (b ^ c ^ d, 0x6ed9_eba1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8f1b_bcdc),
                _ => (b ^ c ^ d, 0xca62_c1d6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wt);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

impl core::fmt::Debug for Sha1 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Sha1").field("len", &self.len).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(hex(&Sha1::digest(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(hex(&Sha1::digest(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn fips_vector_448_bits() {
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        assert_eq!(hex(&Sha1::digest(msg)), "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
    }

    #[test]
    fn fips_vector_million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(hex(&Sha1::digest(&msg)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn quick_brown_fox() {
        assert_eq!(
            hex(&Sha1::digest(b"The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn streaming_equals_oneshot_at_every_split() {
        let data: Vec<u8> = (0u32..300).map(|i| (i * 7 + 3) as u8).collect();
        let want = Sha1::digest(&data);
        for split in 0..data.len() {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn streaming_many_small_updates() {
        let data: Vec<u8> = (0u32..1000).map(|i| (i % 251) as u8).collect();
        let want = Sha1::digest(&data);
        let mut h = Sha1::new();
        for b in &data {
            h.update(core::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), want);
    }

    #[test]
    fn digest_u64_is_prefix() {
        let d = Sha1::digest(b"abc");
        let hi = Sha1::digest_u64(b"abc");
        assert_eq!(hi.to_be_bytes(), d[..8]);
    }

    #[test]
    fn boundary_lengths_55_56_63_64_65() {
        // Padding edge cases: message lengths around the block boundary.
        for len in [55usize, 56, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xabu8; len];
            // Compare against the streaming path split in the middle.
            let whole = Sha1::digest(&data);
            let mut h = Sha1::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize(), whole, "len {len}");
        }
    }

    /// Independent reference implementation used only for differential
    /// testing: processes the whole (padded) message in one pass with a
    /// deliberately different code structure.
    fn reference_sha1(msg: &[u8]) -> [u8; 20] {
        let mut padded = msg.to_vec();
        let bit_len = (msg.len() as u64) * 8;
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&bit_len.to_be_bytes());
        let mut h: [u32; 5] = Sha1::H0;
        for block in padded.chunks_exact(64) {
            let mut w = vec![0u32; 80];
            for i in 0..16 {
                w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
            }
            for t in 16..80 {
                w[t] = (w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]).rotate_left(1);
            }
            let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
            for (t, &wt) in w.iter().enumerate() {
                let (f, k): (u32, u32) = if t < 20 {
                    ((b & c) | (!b & d), 0x5a827999)
                } else if t < 40 {
                    (b ^ c ^ d, 0x6ed9eba1)
                } else if t < 60 {
                    ((b & c) | (b & d) | (c & d), 0x8f1bbcdc)
                } else {
                    (b ^ c ^ d, 0xca62c1d6)
                };
                let tmp = a
                    .rotate_left(5)
                    .wrapping_add(f)
                    .wrapping_add(e)
                    .wrapping_add(k)
                    .wrapping_add(wt);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = tmp;
            }
            h[0] = h[0].wrapping_add(a);
            h[1] = h[1].wrapping_add(b);
            h[2] = h[2].wrapping_add(c);
            h[3] = h[3].wrapping_add(d);
            h[4] = h[4].wrapping_add(e);
        }
        let mut out = [0u8; 20];
        for i in 0..5 {
            out[i * 4..i * 4 + 4].copy_from_slice(&h[i].to_be_bytes());
        }
        out
    }

    /// Seeded-loop replacement for the old property test: random
    /// inputs of every length in 0..512 must match the reference
    /// implementation.
    #[test]
    fn matches_reference_on_random_inputs() {
        let mut rng = hieras_rt::Rng::seed_from_u64(0x51a1);
        for case in 0..256 {
            let len = rng.random_range(0usize..512);
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(Sha1::digest(&data), reference_sha1(&data), "case {case} len {len}");
        }
    }
}
