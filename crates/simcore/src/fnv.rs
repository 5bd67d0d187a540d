//! FNV-1a 64-bit hashing: the one byte-wise fold behind every
//! determinism digest in the workspace (histograms, memory images,
//! transaction counters). Two runs digest equal iff they fed identical
//! bytes in identical order.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

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

    /// Fold `bytes` in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// Fold `v` as its eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest of everything folded so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }
}
