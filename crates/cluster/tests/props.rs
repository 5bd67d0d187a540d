//! Property-style tests for the cluster's verb execution, driven by the
//! deterministic [`SimRng`] (fixed seeds; no external framework needed).

use cluster::{ClusterConfig, Endpoint, Testbed, Transport};
use rnicsim::{CqeStatus, RKey, Sge, VerbKind, WorkRequest, WrId};
use simcore::{SimRng, SimTime};

/// SGL writes are equivalent to the concatenation of their pieces, for
/// arbitrary scatter layouts.
#[test]
fn sgl_gather_equivalence() {
    let mut rng = SimRng::new(0xC101);
    for _ in 0..24 {
        let pieces: Vec<(u64, u64)> =
            (0..1 + rng.gen_range(7)).map(|_| (rng.gen_range(64), 1 + rng.gen_range(63))).collect();
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let src = tb.register(0, 1, 1 << 16);
        let dst = tb.register(1, 1, 1 << 16);
        let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        // Non-overlapping source spans: page-strided slots.
        let mut expected = Vec::new();
        let mut sgl = Vec::new();
        for (i, &(jitter, len)) in pieces.iter().enumerate() {
            let off = i as u64 * 256 + jitter;
            let fill = vec![i as u8 + 1; len as usize];
            tb.machine_mut(0).mem.write(src, off, &fill);
            expected.extend_from_slice(&fill);
            sgl.push(Sge::new(src, off, len));
        }
        let wr = WorkRequest {
            wr_id: WrId(1),
            kind: VerbKind::Write,
            sgl: sgl.into(),
            remote: Some((RKey(dst.0 as u64), 100)),
            signaled: true,
        };
        let cqe = tb.post_one_ref(SimTime::ZERO, conn, &wr);
        assert_eq!(cqe.status, CqeStatus::Success);
        assert_eq!(tb.machine(1).mem.read(dst, 100, expected.len() as u64), expected);
    }
}

/// Completions never travel back in time, and a later post never completes
/// before an earlier identical one started.
#[test]
fn completions_are_causal() {
    let mut rng = SimRng::new(0xC102);
    for _ in 0..24 {
        let posts: Vec<u64> = (0..1 + rng.gen_range(29)).map(|_| 1 + rng.gen_range(2047)).collect();
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let src = tb.register(0, 1, 1 << 16);
        let dst = tb.register(1, 1, 1 << 16);
        let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        let mut t = SimTime::ZERO;
        for (i, &len) in posts.iter().enumerate() {
            let wr = WorkRequest::write(i as u64, Sge::new(src, 0, len), RKey(dst.0 as u64), 0);
            let c = tb.post_one_ref(t, conn, &wr);
            assert!(c.at > t, "completion at {} not after post at {}", c.at, t);
            t = c.at;
        }
    }
}

/// Out-of-bounds requests always produce error CQEs without touching
/// memory, for any offset/length combination past the boundary.
#[test]
fn bounds_violations_are_contained() {
    let mut rng = SimRng::new(0xC103);
    for _ in 0..40 {
        let base = rng.gen_range(4096);
        let len = 1 + rng.gen_range(4095);
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let src = tb.register(0, 1, 1 << 16);
        let dst = tb.register(1, 1, 4096);
        let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        let off = 4096 - base.min(len - 1).min(4095) + 4096; // always past the end
        tb.machine_mut(0).mem.write(src, 0, &[7u8; 16]);
        let wr = WorkRequest::write(1, Sge::new(src, 0, len), RKey(dst.0 as u64), off);
        let cqe = tb.post_one_ref(SimTime::ZERO, conn, &wr);
        assert_eq!(cqe.status, CqeStatus::RemoteAccessError);
        // Memory untouched.
        assert_eq!(tb.machine(1).mem.read(dst, 0, 4096), vec![0u8; 4096]);
    }
}

/// Interleaved FAA and CAS from two connections keep exact counter
/// semantics whatever the interleaving.
#[test]
fn atomic_semantics_exact() {
    let mut rng = SimRng::new(0xC104);
    for _ in 0..24 {
        let script: Vec<(bool, u64)> = (0..1 + rng.gen_range(39))
            .map(|_| (rng.gen_bool(0.5), 1 + rng.gen_range(99)))
            .collect();
        let mut tb = Testbed::new(ClusterConfig { machines: 3, ..Default::default() });
        let s0 = tb.register(0, 1, 64);
        let s1 = tb.register(1, 1, 64);
        let cell = tb.register(2, 1, 64);
        let c0 = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(2, 1));
        let c1 = tb.connect(Endpoint::affine(1, 1), Endpoint::affine(2, 1));
        let rkey = RKey(cell.0 as u64);
        let mut model = 0u64;
        let mut t = SimTime::ZERO;
        for (i, &(use_cas, v)) in script.iter().enumerate() {
            let (conn, scratch) = if i % 2 == 0 { (c0, s0) } else { (c1, s1) };
            let kind = if use_cas {
                VerbKind::CompareSwap { expected: model, desired: v }
            } else {
                VerbKind::FetchAdd { delta: v }
            };
            let wr = WorkRequest {
                wr_id: WrId(i as u64),
                kind,
                sgl: Sge::new(scratch, 0, 8).into(),
                remote: Some((rkey, 0)),
                signaled: true,
            };
            let c = tb.post_one_ref(t, conn, &wr);
            assert_eq!(c.old_value, model);
            model = if use_cas { v } else { model.wrapping_add(v) };
            t = c.at;
        }
        assert_eq!(tb.machine(2).mem.load_u64(cell, 0), model);
    }
}

/// UC and RC writes land identical bytes; only timing differs.
#[test]
fn uc_rc_same_data() {
    let mut rng = SimRng::new(0xC105);
    for _ in 0..24 {
        let data: Vec<u8> = (0..1 + rng.gen_range(511)).map(|_| rng.next_u64() as u8).collect();
        let mut images = Vec::new();
        for transport in [Transport::Rc, Transport::Uc] {
            let mut tb = Testbed::new(ClusterConfig::two_machines());
            let src = tb.register(0, 1, 4096);
            let dst = tb.register(1, 1, 4096);
            let conn = tb.connect_with(Endpoint::affine(0, 1), Endpoint::affine(1, 1), transport);
            tb.machine_mut(0).mem.write(src, 0, &data);
            let wr =
                WorkRequest::write(1, Sge::new(src, 0, data.len() as u64), RKey(dst.0 as u64), 7);
            tb.post_one_ref(SimTime::ZERO, conn, &wr);
            images.push(tb.machine(1).mem.read(dst, 7, data.len() as u64));
        }
        assert_eq!(&images[0], &data);
        assert_eq!(&images[1], &data);
    }
}
