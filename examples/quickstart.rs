//! Quickstart: bring up a simulated RDMA cluster, register memory, and
//! issue the full one-sided verb family — Write, Read, compare-and-swap,
//! fetch-and-add — printing the paper-calibrated latency of each.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rdma_memsem::net::{ClusterConfig, Endpoint, Testbed};
use rdma_memsem::nic::{RKey, Sge, VerbKind, WorkRequest, WrId};
use rdma_memsem::sim::SimTime;

fn main() {
    // Two machines of the paper's testbed: dual-socket Xeon, dual-port
    // 40 Gbps ConnectX-3. Port 1 sits on socket 1 on both ends.
    let mut tb = Testbed::new(ClusterConfig::two_machines());
    let src = tb.register(0, 1, 1 << 16);
    let dst = tb.register(1, 1, 1 << 16);
    let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));

    println!("simulated testbed up: 2 machines, RC connection established");

    // --- RDMA Write: move real bytes, no remote CPU -------------------
    tb.machine_mut(0).mem.write(src, 0, b"one-sided writes move real bytes");
    let wr = WorkRequest::write(1, Sge::new(src, 0, 32), RKey(dst.0 as u64), 128);
    let warm = tb.post_one_ref(SimTime::ZERO, conn, &wr);
    let cqe = tb.post_one_ref(warm.at, conn, &WorkRequest { wr_id: WrId(2), ..wr });
    println!(
        "RDMA Write  32B: {:>10}   (paper: ~1.16us small writes)",
        format!("{}", cqe.at - warm.at)
    );
    assert_eq!(tb.machine(1).mem.read(dst, 128, 32), b"one-sided writes move real bytes");

    // --- RDMA Read -----------------------------------------------------
    let rd = WorkRequest::read(3, Sge::new(src, 4096, 32), RKey(dst.0 as u64), 128);
    let t0 = cqe.at;
    let cqe = tb.post_one_ref(t0, conn, &rd);
    println!("RDMA Read   32B: {:>10}   (paper: ~2.00us small reads)", format!("{}", cqe.at - t0));
    assert_eq!(tb.machine(0).mem.read(src, 4096, 32), b"one-sided writes move real bytes");

    // --- RDMA fetch-and-add ---------------------------------------------
    let t0 = cqe.at;
    let faa = WorkRequest {
        wr_id: WrId(4),
        kind: VerbKind::FetchAdd { delta: 5 },
        sgl: Sge::new(src, 0, 8).into(),
        remote: Some((RKey(dst.0 as u64), 0)),
        signaled: true,
    };
    let cqe = tb.post_one_ref(t0, conn, &faa);
    println!(
        "RDMA FAA     8B: {:>10}   returned old value {} (counter now {})",
        format!("{}", cqe.at - t0),
        cqe.old_value,
        tb.machine(1).mem.load_u64(rdma_memsem::nic::MrId(0), 0),
    );

    // --- RDMA compare-and-swap ------------------------------------------
    let t0 = cqe.at;
    let cas = WorkRequest {
        wr_id: WrId(5),
        kind: VerbKind::CompareSwap { expected: 5, desired: 99 },
        sgl: Sge::new(src, 0, 8).into(),
        remote: Some((RKey(dst.0 as u64), 0)),
        signaled: true,
    };
    let cqe = tb.post_one_ref(t0, conn, &cas);
    println!(
        "RDMA CAS     8B: {:>10}   swapped {} -> {}",
        format!("{}", cqe.at - t0),
        cqe.old_value,
        tb.machine(1).mem.load_u64(rdma_memsem::nic::MrId(0), 0),
    );

    // --- Two-sided RPC for contrast --------------------------------------
    let t0 = cqe.at;
    let reply = tb.rpc_call(t0, conn, 32, 32, SimTime::from_ns(100));
    println!(
        "two-sided RPC  : {:>10}   (the remote CPU cost one-sided verbs avoid)",
        format!("{}", reply - t0)
    );
}
