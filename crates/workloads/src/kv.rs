//! Key-value operation streams for the disaggregated hashtable (§IV-B).

use crate::zipf::Zipf;
use simcore::SimRng;

/// One hashtable operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Insert/update `key` with a value of the configured length.
    Insert {
        /// Key id in `0..keys`.
        key: u64,
        /// Value bytes (deterministic fill derived from the key).
        value: Vec<u8>,
    },
    /// Look up `key`.
    Get {
        /// Key id in `0..keys`.
        key: u64,
    },
}

impl KvOp {
    /// The key this op touches.
    pub fn key(&self) -> u64 {
        match self {
            KvOp::Insert { key, .. } | KvOp::Get { key } => *key,
        }
    }
}

/// Specification of a KV workload.
#[derive(Clone, Debug)]
pub struct KvSpec {
    /// Key-space size.
    pub keys: u64,
    /// Value length in bytes (paper: 64).
    pub value_len: usize,
    /// Fraction of inserts (paper's breakdown runs 100 % writes).
    pub write_fraction: f64,
    /// Zipf skew (paper: 0.99).
    pub zipf_theta: f64,
}

impl Default for KvSpec {
    fn default() -> Self {
        KvSpec { keys: 1 << 20, value_len: 64, write_fraction: 1.0, zipf_theta: 0.99 }
    }
}

impl KvSpec {
    /// YCSB workload A: 50 % updates, 50 % reads, Zipf 0.99.
    pub fn ycsb_a(keys: u64) -> Self {
        KvSpec { keys, write_fraction: 0.5, ..Default::default() }
    }

    /// YCSB workload B: 5 % updates, 95 % reads.
    pub fn ycsb_b(keys: u64) -> Self {
        KvSpec { keys, write_fraction: 0.05, ..Default::default() }
    }

    /// YCSB workload C: read-only.
    pub fn ycsb_c(keys: u64) -> Self {
        KvSpec { keys, write_fraction: 0.0, ..Default::default() }
    }

    /// Build the key distribution. Every [`KvStream`] of a run shares one.
    pub fn zipf(&self) -> Zipf {
        Zipf::new(self.keys, self.zipf_theta)
    }

    /// The `k` hottest keys (by scrambled id) — what a front-end promotes
    /// into the hot area. Computed analytically from the zipf ranking.
    pub fn hot_keys(&self, k: usize) -> Vec<u64> {
        (0..k as u64).map(|rank| crate::zipf::fnv64(rank) % self.keys).collect()
    }
}

/// A deterministic stream of KV operations.
pub struct KvStream {
    spec: KvSpec,
    zipf: Zipf,
    rng: SimRng,
}

impl KvStream {
    /// Build a stream over `zipf`, the run's [`KvSpec::zipf`]; `rng`
    /// should be a per-client split of the run seed.
    pub fn new(spec: KvSpec, zipf: &Zipf, rng: SimRng) -> Self {
        assert!(
            zipf.n() == spec.keys && zipf.theta() == spec.zipf_theta,
            "zipf table does not match the spec"
        );
        KvStream { spec, zipf: zipf.clone(), rng }
    }

    /// The spec this stream was built from.
    pub fn spec(&self) -> &KvSpec {
        &self.spec
    }

    /// Draw the next operation.
    pub fn next_op(&mut self) -> KvOp {
        let key = self.zipf.scrambled_key(&mut self.rng);
        if self.rng.gen_bool(self.spec.write_fraction) {
            KvOp::Insert { key, value: value_for(key, self.spec.value_len) }
        } else {
            KvOp::Get { key }
        }
    }
}

/// Deterministic value bytes for a key (checkable after any shuffle/copy).
pub fn value_for(key: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    let seed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes();
    while v.len() < len {
        v.extend_from_slice(&seed);
    }
    v.truncate(len);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream over its own freshly built table.
    fn stream(spec: KvSpec, rng: SimRng) -> KvStream {
        let zipf = spec.zipf();
        KvStream::new(spec, &zipf, rng)
    }

    #[test]
    fn all_write_workload_yields_only_inserts() {
        let mut s = stream(KvSpec::default(), SimRng::new(1));
        for _ in 0..100 {
            assert!(matches!(s.next_op(), KvOp::Insert { .. }));
        }
    }

    #[test]
    fn mixed_workload_respects_write_fraction() {
        let spec = KvSpec { write_fraction: 0.3, ..Default::default() };
        let mut s = stream(spec, SimRng::new(2));
        let writes = (0..10_000).filter(|_| matches!(s.next_op(), KvOp::Insert { .. })).count();
        let frac = writes as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "write fraction {frac}");
    }

    #[test]
    fn values_are_deterministic_and_sized() {
        let a = value_for(42, 64);
        let b = value_for(42, 64);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert_ne!(value_for(43, 64), a);
        assert_eq!(value_for(1, 5).len(), 5);
    }

    #[test]
    fn hot_keys_match_the_stream_head() {
        let spec = KvSpec::default();
        let hot = spec.hot_keys(16);
        assert_eq!(hot.len(), 16);
        // The hottest key (rank 0 scrambled) must be among the most
        // frequently drawn keys of a long stream.
        let mut s2 = stream(spec, SimRng::new(4));
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(s2.next_op().key()).or_insert(0u64) += 1;
        }
        let top = counts.iter().max_by_key(|(_, &c)| c).map(|(&k, _)| k).unwrap();
        assert_eq!(top, hot[0]);
    }

    #[test]
    fn ycsb_presets_have_the_standard_mixes() {
        assert_eq!(KvSpec::ycsb_a(100).write_fraction, 0.5);
        assert_eq!(KvSpec::ycsb_b(100).write_fraction, 0.05);
        assert_eq!(KvSpec::ycsb_c(100).write_fraction, 0.0);
        let mut s = stream(KvSpec::ycsb_c(100), SimRng::new(1));
        for _ in 0..50 {
            assert!(matches!(s.next_op(), KvOp::Get { .. }));
        }
    }

    #[test]
    fn key_space_is_respected() {
        let spec = KvSpec { keys: 100, ..Default::default() };
        let mut s = stream(spec, SimRng::new(5));
        for _ in 0..1000 {
            assert!(s.next_op().key() < 100);
        }
    }

    /// Two streams sharing one table draw, interleaved, the same ops as
    /// two streams that each built their own.
    #[test]
    fn streams_sharing_one_table_draw_like_private_tables() {
        let spec = KvSpec { keys: 1 << 12, write_fraction: 0.5, ..Default::default() };
        let root = SimRng::new(0x4B56);
        let zipf = spec.zipf();
        let mut shared = [1, 2].map(|i| KvStream::new(spec.clone(), &zipf, root.split(i)));
        let mut private = [1, 2].map(|i| stream(spec.clone(), root.split(i)));
        for _ in 0..10_000 {
            for (a, b) in shared.iter_mut().zip(private.iter_mut()) {
                assert_eq!(a.next_op(), b.next_op());
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn a_table_of_another_key_space_is_rejected() {
        let zipf = KvSpec { keys: 100, ..Default::default() }.zipf();
        KvStream::new(KvSpec { keys: 200, ..Default::default() }, &zipf, SimRng::new(1));
    }
}
