//! Property-style tests for the workload generators, driven by the
//! deterministic [`SimRng`] (fixed seeds; no external framework needed).

use simcore::SimRng;
use workloads::{
    expected_matches, generate_relations, partition_of, scan_log, value_for, KvOp, KvSpec,
    KvStream, Record, Zipf,
};

/// Inner relations are exact permutations; outer keys always match.
#[test]
fn relations_are_well_formed() {
    let mut meta = SimRng::new(0x6101);
    for _ in 0..24 {
        let n = 2 + meta.gen_range(1998);
        let mut rng = SimRng::new(meta.next_u64());
        let pair = generate_relations(n, &mut rng);
        let mut keys: Vec<u64> = pair.inner.iter().map(|t| t.key).collect();
        keys.sort_unstable();
        assert!(keys.iter().enumerate().all(|(i, &k)| k == i as u64));
        assert!(pair.outer.iter().all(|t| t.key < n));
        assert_eq!(expected_matches(&pair), n);
    }
}

/// Hash partitioning is deterministic, total, and (for enough keys) never
/// leaves a partition empty.
#[test]
fn partitioning_properties() {
    for parts in 1..32 {
        let mut seen = vec![false; parts];
        for key in 0..(parts as u64 * 64) {
            let p = partition_of(key, parts);
            assert!(p < parts);
            assert_eq!(p, partition_of(key, parts));
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}

/// KV values are pure functions of (key, len).
#[test]
fn values_are_pure() {
    let mut rng = SimRng::new(0x6102);
    for _ in 0..64 {
        let key = rng.next_u64();
        let len = rng.gen_range(256) as usize;
        let v = value_for(key, len);
        assert_eq!(v.len(), len);
        assert_eq!(value_for(key, len), v);
    }
}

/// Mixed workloads only emit the two op kinds with keys in range.
#[test]
fn kv_stream_ops_in_range() {
    let mut meta = SimRng::new(0x6103);
    for _ in 0..24 {
        let seed = meta.next_u64();
        let frac = meta.gen_range(1_000_001) as f64 / 1_000_000.0;
        let spec = KvSpec { keys: 500, write_fraction: frac, ..Default::default() };
        let zipf = spec.zipf();
        let mut s = KvStream::new(spec, &zipf, SimRng::new(seed));
        for _ in 0..200 {
            match s.next_op() {
                KvOp::Insert { key, value } => {
                    assert!(key < 500);
                    assert_eq!(value, value_for(key, 64));
                }
                KvOp::Get { key } => assert!(key < 500),
            }
        }
    }
}

/// Zipf head mass is monotone in k and in skew.
#[test]
fn zipf_head_mass_monotone() {
    let mut rng = SimRng::new(0x6104);
    for _ in 0..16 {
        let n = 16 + rng.gen_range(100_000 - 16);
        let k1 = 1 + rng.gen_range(999);
        let k2 = 1 + rng.gen_range(999);
        let z = Zipf::paper(n);
        let (lo, hi) = (k1.min(k2), k1.max(k2));
        assert!(z.head_mass(lo) <= z.head_mass(hi) + 1e-12);
        assert!(z.head_mass(n) > 0.999_999);
        // More skew concentrates more mass in the same head.
        let z_flat = Zipf::new(n, 0.5);
        assert!(z.head_mass(lo.min(n)) + 1e-12 >= z_flat.head_mass(lo.min(n)));
    }
}

/// Any byte soup either fails to decode or decodes into a record that
/// re-encodes to a prefix-equal image (no decode-encode divergence).
#[test]
fn record_decode_is_safe() {
    let mut rng = SimRng::new(0x6105);
    for _ in 0..64 {
        let bytes: Vec<u8> = (0..rng.gen_range(200)).map(|_| rng.next_u64() as u8).collect();
        if let Some((rec, used)) = Record::decode(&bytes) {
            let re = rec.encode();
            assert_eq!(re.len(), used);
            assert_eq!(&re[..], &bytes[..used]);
        }
    }
}

/// A scan of concatenated valid records followed by garbage returns at
/// least the valid prefix and never panics.
#[test]
fn scan_is_prefix_safe() {
    let mut rng = SimRng::new(0x6106);
    for _ in 0..32 {
        let n = 1 + rng.gen_range(9) as usize;
        let garbage: Vec<u8> = (0..rng.gen_range(64)).map(|_| rng.next_u64() as u8).collect();
        let mut log = Vec::new();
        for seq in 0..n {
            log.extend_from_slice(&Record::synthetic(9, seq as u32, 24).encode());
        }
        log.extend_from_slice(&garbage);
        let recs = scan_log(&log);
        assert!(recs.len() >= n, "lost valid records");
        // The first n are exactly what we wrote.
        for (seq, r) in recs.iter().take(n).enumerate() {
            assert_eq!(r, &Record::synthetic(9, seq as u32, 24));
        }
    }
}
