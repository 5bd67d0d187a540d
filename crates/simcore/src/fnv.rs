//! FNV-1a 64-bit hashing: the one byte-wise fold behind every
//! determinism digest in the workspace (histograms, memory images,
//! transaction counters). Two runs digest equal iff they fed identical
//! bytes in identical order.
//!
//! XOR with a zero byte leaves the state unchanged, so `n` zero bytes
//! fold to `h · PRIME^n (mod 2^64)` exactly. [`Fnv64::bytes`] scans its
//! input one 64-byte block at a time and folds each run of all-zero
//! blocks with a single multiply by `PRIME^len`; other blocks and the
//! tail fold byte-wise. The digest is bit-identical to the plain byte
//! loop, but on mostly-zero data (sparse memory chunks) it costs a
//! memory scan rather than one multiply per byte.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Scan granularity of the zero-run fold: eight `u64` words.
const BLOCK: usize = 64;

/// An FNV-1a 64 hasher. Integers are fed as little-endian bytes, so a
/// digest is the same on every host.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV offset basis (the digest of no bytes).
    #[inline]
    pub const fn new() -> Self {
        Fnv64(OFFSET)
    }

    /// Fold `bytes` in order. Runs of all-zero 64-byte blocks fold in
    /// closed form (see the module docs); the result equals the
    /// byte-wise fold for every input.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        let (blocks, tail) = bytes.as_chunks::<BLOCK>();
        let mut zeros = 0u64;
        for block in blocks {
            if is_zero(block) {
                zeros += BLOCK as u64;
            } else {
                self.skip_zeros(zeros);
                zeros = 0;
                self.fold(block);
            }
        }
        self.skip_zeros(zeros);
        self.fold(tail);
        self
    }

    /// Fold `v` as its eight little-endian bytes: a straight byte-wise
    /// fold, with no zero scan (this is the per-key scramble hash).
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.fold(&v.to_le_bytes());
        self
    }

    /// The digest of everything folded so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// Fold `n` zero bytes: each is a bare multiply by `PRIME`.
    #[inline]
    fn skip_zeros(&mut self, n: u64) {
        if n != 0 {
            self.0 = self.0.wrapping_mul(prime_pow(n));
        }
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Whether a block is all zero: an OR-reduction over its eight words,
/// which the compiler vectorizes.
#[inline]
fn is_zero(block: &[u8; BLOCK]) -> bool {
    let (words, _) = block.as_chunks::<8>();
    words.iter().fold(0, |acc, w| acc | u64::from_ne_bytes(*w)) == 0
}

/// `PRIME^n (mod 2^64)` by square-and-multiply, exact for every `u64`
/// exponent.
fn prime_pow(mut n: u64) -> u64 {
    let (mut base, mut acc) = (PRIME, 1u64);
    while n != 0 {
        if n & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        n >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// Reference model: the plain byte-wise FNV-1a loop.
    fn bytewise(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
    }

    fn check(bytes: &[u8]) {
        assert_eq!(
            Fnv64::new().bytes(bytes).finish(),
            bytewise(OFFSET, bytes),
            "len {}",
            bytes.len()
        );
    }

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::new().bytes(b"foobar").finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn u64_folds_little_endian_bytes() {
        let v = 0x0102_0304_0506_0708u64;
        assert_eq!(Fnv64::new().u64(v).finish(), Fnv64::new().bytes(&v.to_le_bytes()).finish());
        let mut split = Fnv64::new();
        split.bytes(&[8, 7, 6]).bytes(&[5, 4, 3, 2, 1]);
        assert_eq!(split.finish(), Fnv64::new().u64(v).finish());
        assert_eq!(Fnv64::new().u64(0).finish(), bytewise(OFFSET, &[0; 8]));
    }

    #[test]
    fn prime_pow_matches_repeated_multiplication() {
        let mut acc = 1u64;
        for n in 0..=1000u64 {
            assert_eq!(prime_pow(n), acc, "n = {n}");
            acc = acc.wrapping_mul(PRIME);
        }
        // Past u32::MAX: PRIME^(2^32) by 32 squarings, then repeated
        // multiplication from there. A u32-truncated exponent would give
        // PRIME^0 = 1 at 2^32.
        let mut p = (0..32).fold(PRIME, |p, _| p.wrapping_mul(p));
        assert_ne!(p, 1);
        for k in 0..=100u64 {
            assert_eq!(prime_pow((1 << 32) + k), p, "n = 2^32 + {k}");
            p = p.wrapping_mul(PRIME);
        }
        for n in [u64::from(u32::MAX) * 3, 0x1234_5678_9abc, u64::MAX] {
            assert_eq!(prime_pow(n / 2).wrapping_mul(prime_pow(n - n / 2)), prime_pow(n));
        }
    }

    #[test]
    fn zero_runs_match_the_bytewise_fold() {
        let mut rng = SimRng::new(0xf17e);
        // Every length up to 4 KiB, as all-zero, all-non-zero and
        // sparse inputs.
        for len in 0..=4096usize {
            check(&vec![0u8; len]);
            check(&vec![0xa5u8; len]);
            let mut sparse = vec![0u8; len];
            for _ in 0..rng.gen_range(4) {
                if len > 0 {
                    sparse[rng.gen_range(len as u64) as usize] = rng.next_u64() as u8 | 1;
                }
            }
            check(&sparse);
        }
        // A 64 KiB chunk with non-zero bytes on block edges.
        let mut chunk = vec![0u8; 64 << 10];
        check(&chunk);
        for i in [0, 63, 64, 127, 128, 4095, 4096, 32 * 1024 - 1, 64 * 1024 - 64, 64 * 1024 - 1] {
            chunk[i] = (i % 251) as u8 | 1;
            check(&chunk);
        }
        // Seeded random sparse fills, checked whole and from unaligned
        // starts.
        for _ in 0..32 {
            let mut buf = vec![0u8; 64 << 10];
            for _ in 0..rng.gen_range(64) {
                let at = rng.gen_range(buf.len() as u64) as usize;
                buf[at] = rng.next_u64() as u8;
            }
            check(&buf);
            for off in 1..8 {
                check(&buf[off..]);
                check(&buf[off..buf.len() - off]);
            }
        }
    }

    #[test]
    fn pieces_fold_like_the_whole() {
        let mut rng = SimRng::new(7);
        let mut buf = vec![0u8; 20_000];
        for _ in 0..40 {
            let at = rng.gen_range(buf.len() as u64) as usize;
            buf[at] = rng.next_u64() as u8;
        }
        let whole = Fnv64::new().bytes(&buf).finish();
        assert_eq!(whole, bytewise(OFFSET, &buf));
        for _ in 0..64 {
            let mut h = Fnv64::new();
            let mut rest = &buf[..];
            while !rest.is_empty() {
                let n = (rng.gen_range(300) as usize).min(rest.len());
                let (piece, tail) = rest.split_at(n);
                h.bytes(piece);
                rest = tail;
            }
            assert_eq!(h.finish(), whole);
        }
    }
}
