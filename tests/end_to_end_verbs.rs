//! Cross-crate integration: the full verb stack against the calibration
//! anchors the paper publishes.

use rdma_memsem::net::{ClusterConfig, Endpoint, Testbed};
use rdma_memsem::nic::{CqeStatus, MrId, RKey, Sge, VerbKind, WorkRequest, WrId};
use rdma_memsem::sim::SimTime;

fn setup() -> (Testbed, MrId, MrId, rdma_memsem::net::ConnId) {
    let mut tb = Testbed::new(ClusterConfig::two_machines());
    let src = tb.register(0, 1, 1 << 20);
    let dst = tb.register(1, 1, 1 << 20);
    let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
    (tb, src, dst, conn)
}

fn warm_latency(kind: VerbKind, payload: u64) -> SimTime {
    let (mut tb, src, dst, conn) = setup();
    let mk = |id| WorkRequest {
        wr_id: WrId(id),
        kind: kind.clone(),
        sgl: Sge::new(src, 0, payload).into(),
        remote: Some((RKey(dst.0 as u64), 0)),
        signaled: true,
    };
    let warm = tb.post_one_ref(SimTime::ZERO, conn, &mk(0));
    let c = tb.post_one_ref(warm.at, conn, &mk(1));
    c.at - warm.at
}

#[test]
fn small_write_latency_matches_fig1() {
    let lat = warm_latency(VerbKind::Write, 8);
    assert!((lat.as_us() - 1.16).abs() < 0.05, "small write latency {lat} off the 1.16us anchor");
}

#[test]
fn small_read_latency_matches_fig1() {
    let lat = warm_latency(VerbKind::Read, 8);
    assert!((lat.as_us() - 2.00).abs() < 0.08, "small read latency {lat} off the 2.00us anchor");
}

#[test]
fn atomic_latency_sits_between_write_and_rpc() {
    let w = warm_latency(VerbKind::Write, 8);
    let a = warm_latency(VerbKind::FetchAdd { delta: 1 }, 8);
    let (mut tb, _src, _dst, conn) = setup();
    let rpc = tb.rpc_call(SimTime::ZERO, conn, 16, 16, SimTime::from_ns(100));
    assert!(w < a, "atomics pay the atomic unit");
    assert!(a < rpc - SimTime::ZERO, "atomics beat two-sided RPC");
}

#[test]
fn latency_grows_monotonically_with_payload() {
    let mut prev = SimTime::ZERO;
    for shift in 1..=13 {
        let lat = warm_latency(VerbKind::Write, 1 << shift);
        assert!(lat > prev, "latency not monotone at 2^{shift}");
        prev = lat;
    }
    // And steeply past 2 KB (link + PCIe serialization dominate).
    let at2k = warm_latency(VerbKind::Write, 2048);
    let at8k = warm_latency(VerbKind::Write, 8192);
    assert!(at8k.as_ns() > 2.0 * at2k.as_ns());
}

#[test]
fn data_round_trips_through_two_hops() {
    // Write m0 -> m1, then a third machine reads it back out of m1.
    let mut tb = Testbed::new(ClusterConfig { machines: 3, ..Default::default() });
    let a = tb.register(0, 1, 4096);
    let b = tb.register(1, 1, 4096);
    let c = tb.register(2, 1, 4096);
    let ab = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
    let cb = tb.connect(Endpoint::affine(2, 1), Endpoint::affine(1, 1));
    tb.machine_mut(0).mem.write(a, 0, b"relayed through machine one");
    let w = tb.post_one_ref(
        SimTime::ZERO,
        ab,
        &WorkRequest::write(1, Sge::new(a, 0, 27), RKey(b.0 as u64), 100),
    );
    let r =
        tb.post_one_ref(w.at, cb, &WorkRequest::read(2, Sge::new(c, 0, 27), RKey(b.0 as u64), 100));
    assert_eq!(r.status, CqeStatus::Success);
    assert_eq!(tb.machine(2).mem.read(c, 0, 27), b"relayed through machine one");
}

#[test]
fn concurrent_faa_from_many_machines_is_exact() {
    use rdma_memsem::net::{run_clients, Client, ClosedLoop};
    let mut tb = Testbed::new(ClusterConfig::default());
    let counter = tb.register(7, 1, 64);
    let mut loops = Vec::new();
    for m in 0..7 {
        let scratch = tb.register(m, 1, 64);
        let conn = tb.connect(Endpoint::affine(m, 1), Endpoint::affine(7, 1));
        let rkey = RKey(counter.0 as u64);
        loops.push(ClosedLoop::new(2, 50, move |tb: &mut Testbed, now, i| {
            let wr = WorkRequest {
                wr_id: WrId(i),
                kind: VerbKind::FetchAdd { delta: 1 },
                sgl: Sge::new(scratch, 0, 8).into(),
                remote: Some((rkey, 0)),
                signaled: true,
            };
            tb.post_one_ref(now, conn, &wr).at
        }));
    }
    let mut clients: Vec<Box<dyn Client + '_>> =
        loops.iter_mut().map(|c| Box::new(c) as _).collect();
    run_clients(&mut tb, &mut clients, SimTime::MAX);
    drop(clients);
    assert_eq!(tb.machine(7).mem.load_u64(counter, 0), 7 * 50);
}

#[test]
fn mtt_thrash_degrades_random_write_latency() {
    // §II-B2: with many registered pages, random access loses badly.
    let (mut tb, src, dst, conn) = setup();
    // Warm sequential ops on a small range stay fast.
    let seq = warm_latency(VerbKind::Write, 32);
    // Now a giant region accessed randomly: every op misses the MTT.
    let big = tb.register_unbacked(1, 1, 2 << 30);
    let mut rng = rdma_memsem::sim::SimRng::new(1);
    let mut t = SimTime::ZERO;
    let mut total = SimTime::ZERO;
    let n = 50;
    for i in 0..n {
        let off = rng.gen_range((2 << 30) - 64);
        let wr = WorkRequest::write(i, Sge::new(src, 0, 32), RKey(big.0 as u64), off);
        let c = tb.post_one_ref(t, conn, &wr);
        total += c.at - t;
        t = c.at;
    }
    let rand = total / n;
    assert!(
        rand.as_ns() > seq.as_ns() * 1.3,
        "random ({rand}) should exceed sequential ({seq}) clearly"
    );
    let _ = dst;
}
