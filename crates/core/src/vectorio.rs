//! Vector IO: the three remote-memory batching strategies of §III-A.
//!
//! All three move `N` scattered local buffers to remote memory; they
//! differ in *who gathers* and *how many PCIe/network transactions* are
//! spent:
//!
//! | strategy   | gathers      | MMIOs | RDMA ops | network RTTs |
//! |------------|--------------|-------|----------|--------------|
//! | `Sp`       | CPU (memcpy) | 1     | 1        | 1            |
//! | `Doorbell` | —            | 1     | N        | 1 (pipelined)|
//! | `Sgl`      | RNIC DMA     | 1     | 1        | 1            |
//!
//! `Sp` burns host CPU and memory bandwidth but posts one large write;
//! `Doorbell` only saves MMIOs, every WQE still occupies the NIC's
//! execution unit; `Sgl` offloads gathering to the NIC's scatter/gather
//! engine but pays a per-SGE setup cost that grows with payload size.

use cluster::{ConnId, Testbed};
use rnicsim::{CqeStatus, MrId, RKey, Sge, VerbKind, WorkRequest, WrId};
use simcore::SimTime;

/// Which batching strategy to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Software protocol: CPU-gather into a staging buffer, one big write.
    Sp,
    /// Doorbell batching: N WRs, one MMIO.
    Doorbell,
    /// Scatter/gather list: one WR with N SGEs.
    Sgl,
}

impl Strategy {
    /// All strategies, in the paper's presentation order.
    pub const ALL: [Strategy; 3] = [Strategy::Sp, Strategy::Doorbell, Strategy::Sgl];

    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Sp => "SP",
            Strategy::Doorbell => "Doorbell",
            Strategy::Sgl => "SGL",
        }
    }
}

/// Where a batch lands remotely.
#[derive(Clone, Debug)]
pub enum RemoteDst {
    /// One contiguous remote span starting at this offset (SP and SGL
    /// coalesce into this; Doorbell writes buffers back-to-back into it).
    Contiguous(RKey, u64),
    /// One remote offset per buffer (only Doorbell supports this — the
    /// paper's §III-A: SP/SGL can only scatter/gather on one side).
    Scattered(RKey, Vec<u64>),
}

/// Outcome of one batched write.
#[derive(Clone, Copy, Debug)]
pub struct BatchOutcome {
    /// When the last completion is visible to the caller.
    pub done: SimTime,
    /// Host CPU time the caller burned (staging copies, MMIOs) — the
    /// currency of Fig 18.
    pub cpu_busy: SimTime,
    /// Buffer-operations carried by the batch.
    pub ops: u64,
}

/// Issue one batched write of `bufs` over `conn` using `strategy`.
///
/// `staging` must be a registered local region of at least the total
/// payload size when `strategy == Sp` (the CPU gathers into it); the other
/// strategies ignore it.
pub fn batched_write(
    tb: &mut Testbed,
    now: SimTime,
    conn: ConnId,
    strategy: Strategy,
    bufs: &[Sge],
    staging: Option<MrId>,
    dst: &RemoteDst,
) -> BatchOutcome {
    assert!(!bufs.is_empty(), "empty batch");
    let total: u64 = bufs.iter().map(|s| s.len).sum();
    let client = tb.client_of(conn);
    match strategy {
        Strategy::Sp => {
            let staging = staging.expect("SP needs a staging region");
            let (rkey, offset) = match dst {
                RemoteDst::Contiguous(r, o) => (*r, *o),
                RemoteDst::Scattered(..) => panic!("SP requires a contiguous destination"),
            };
            // CPU gathers every buffer into the staging region: real bytes
            // move now, and the client is busy for the copy duration.
            let mut cursor = 0u64;
            let mut copy_cost = SimTime::ZERO;
            for sge in bufs {
                tb.machine_mut(client.machine)
                    .mem
                    .copy_within(sge.mr, sge.offset, staging, cursor, sge.len);
                cursor += sge.len;
                copy_cost += tb.cfg.host.memcpy_cost(sge.len as usize) + tb.cfg.host.l1_touch;
            }
            let post_at = now + copy_cost;
            let wr = WorkRequest::write(0, Sge::new(staging, 0, total), rkey, offset);
            let cqe = tb.post_one_ref(post_at, conn, &wr);
            debug_assert_eq!(cqe.status, CqeStatus::Success);
            BatchOutcome {
                done: cqe.at,
                cpu_busy: copy_cost + tb.cfg.rnic.mmio_cost,
                ops: bufs.len() as u64,
            }
        }
        Strategy::Doorbell => {
            let offsets: Vec<(RKey, u64)> = match dst {
                RemoteDst::Contiguous(r, o) => {
                    let mut off = *o;
                    bufs.iter()
                        .map(|s| {
                            let here = (*r, off);
                            off += s.len;
                            here
                        })
                        .collect()
                }
                RemoteDst::Scattered(r, offs) => {
                    assert_eq!(offs.len(), bufs.len(), "one offset per buffer");
                    offs.iter().map(|&o| (*r, o)).collect()
                }
            };
            // N WRs, one doorbell: only the last is signaled (selective
            // signaling, as the paper's benchmarks do).
            let wrs: Vec<WorkRequest> = bufs
                .iter()
                .zip(&offsets)
                .enumerate()
                .map(|(i, (sge, &(rkey, off)))| WorkRequest {
                    wr_id: WrId(i as u64),
                    kind: VerbKind::Write,
                    sgl: (*sge).into(),
                    remote: Some((rkey, off)),
                    signaled: i == bufs.len() - 1,
                })
                .collect();
            let done = tb.post(now, conn, &wrs).last().expect("last WR is signaled").at;
            // CPU cost: one MMIO plus queuing N WQEs into the send queue.
            let cpu = tb.cfg.rnic.mmio_cost + tb.cfg.host.l1_touch * bufs.len() as u64;
            BatchOutcome { done, cpu_busy: cpu, ops: bufs.len() as u64 }
        }
        Strategy::Sgl => {
            let (rkey, offset) = match dst {
                RemoteDst::Contiguous(r, o) => (*r, *o),
                RemoteDst::Scattered(..) => {
                    panic!("SGL coalesces to one remote address (§III-A)")
                }
            };
            let wr = WorkRequest {
                wr_id: WrId(0),
                kind: VerbKind::Write,
                sgl: bufs.into(),
                remote: Some((rkey, offset)),
                signaled: true,
            };
            let cqe = tb.post_one_ref(now, conn, &wr);
            debug_assert_eq!(cqe.status, CqeStatus::Success);
            let cpu = tb.cfg.rnic.mmio_cost + tb.cfg.host.l1_touch * bufs.len() as u64;
            BatchOutcome { done: cqe.at, cpu_busy: cpu, ops: bufs.len() as u64 }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterConfig, Endpoint};

    fn setup(payload: u64, batch: usize) -> (Testbed, Vec<Sge>, MrId, MrId, ConnId) {
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let src = tb.register(0, 1, 1 << 20);
        let staging = tb.register(0, 1, 1 << 20);
        let dst = tb.register(1, 1, 1 << 20);
        let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        // Scatter the source buffers a page apart so they're genuinely
        // non-contiguous.
        let bufs: Vec<Sge> = (0..batch).map(|i| Sge::new(src, i as u64 * 4096, payload)).collect();
        (tb, bufs, staging, dst, conn)
    }

    fn fill_sources(tb: &mut Testbed, bufs: &[Sge]) {
        for (i, sge) in bufs.iter().enumerate() {
            let byte = b'A' + (i as u8 % 26);
            let data = vec![byte; sge.len as usize];
            tb.machine_mut(0).mem.write(sge.mr, sge.offset, &data);
        }
    }

    fn check_contiguous(tb: &Testbed, dst: MrId, bufs: &[Sge]) {
        let mut off = 0u64;
        for (i, sge) in bufs.iter().enumerate() {
            let byte = b'A' + (i as u8 % 26);
            assert_eq!(
                tb.machine(1).mem.read(dst, off, sge.len),
                vec![byte; sge.len as usize],
                "buffer {i} corrupted"
            );
            off += sge.len;
        }
    }

    #[test]
    fn all_strategies_deliver_identical_bytes() {
        for strategy in Strategy::ALL {
            let (mut tb, bufs, staging, dst, conn) = setup(32, 4);
            fill_sources(&mut tb, &bufs);
            let out = batched_write(
                &mut tb,
                SimTime::ZERO,
                conn,
                strategy,
                &bufs,
                Some(staging),
                &RemoteDst::Contiguous(RKey(dst.0 as u64), 0),
            );
            assert_eq!(out.ops, 4);
            check_contiguous(&tb, dst, &bufs);
        }
    }

    #[test]
    fn doorbell_scattered_destinations() {
        let (mut tb, bufs, _staging, dst, conn) = setup(16, 3);
        fill_sources(&mut tb, &bufs);
        let offsets = vec![100, 5000, 9000];
        batched_write(
            &mut tb,
            SimTime::ZERO,
            conn,
            Strategy::Doorbell,
            &bufs,
            None,
            &RemoteDst::Scattered(RKey(dst.0 as u64), offsets.clone()),
        );
        for (i, &off) in offsets.iter().enumerate() {
            let byte = b'A' + i as u8;
            assert_eq!(tb.machine(1).mem.read(dst, off, 16), vec![byte; 16]);
        }
    }

    #[test]
    fn sp_burns_more_cpu_than_sgl() {
        let (mut tb, bufs, staging, dst, conn) = setup(256, 16);
        let dst_c = RemoteDst::Contiguous(RKey(dst.0 as u64), 0);
        let sp =
            batched_write(&mut tb, SimTime::ZERO, conn, Strategy::Sp, &bufs, Some(staging), &dst_c);
        let (mut tb2, bufs2, _s, dst2, conn2) = setup(256, 16);
        let dst_c2 = RemoteDst::Contiguous(RKey(dst2.0 as u64), 0);
        let sgl =
            batched_write(&mut tb2, SimTime::ZERO, conn2, Strategy::Sgl, &bufs2, None, &dst_c2);
        assert!(sp.cpu_busy > sgl.cpu_busy * 2, "sp {:?} sgl {:?}", sp.cpu_busy, sgl.cpu_busy);
    }

    #[test]
    fn batching_beats_singles_for_small_payloads() {
        // One batch-16 SP write of 32 B buffers finishes far sooner than
        // 16 serialized single writes.
        let (mut tb, bufs, staging, dst, conn) = setup(32, 16);
        let out = batched_write(
            &mut tb,
            SimTime::ZERO,
            conn,
            Strategy::Sp,
            &bufs,
            Some(staging),
            &RemoteDst::Contiguous(RKey(dst.0 as u64), 0),
        );
        let (mut tb2, bufs2, _s, dst2, conn2) = setup(32, 16);
        let mut t = SimTime::ZERO;
        for (i, sge) in bufs2.iter().enumerate() {
            let wr = WorkRequest::write(i as u64, *sge, RKey(dst2.0 as u64), i as u64 * 32);
            t = tb2.post_one_ref(t, conn2, &wr).at;
        }
        assert!(out.done * 4 < t, "batched {:?} vs singles {t:?}", out.done);
    }

    #[test]
    fn strategy_ordering_matches_paper_at_32b_batch16() {
        // Fig 4: SP > SGL > Doorbell in completion speed for small
        // payloads (single client, closed loop).
        let mut done = Vec::new();
        for strategy in Strategy::ALL {
            let (mut tb, bufs, staging, dst, conn) = setup(32, 16);
            let dst_c = RemoteDst::Contiguous(RKey(dst.0 as u64), 0);
            // Warm the MTT/QPC caches, then measure a steady-state batch.
            let warm =
                batched_write(&mut tb, SimTime::ZERO, conn, strategy, &bufs, Some(staging), &dst_c);
            let out =
                batched_write(&mut tb, warm.done, conn, strategy, &bufs, Some(staging), &dst_c);
            done.push((strategy, out.done - warm.done));
        }
        let sp = done[0].1;
        let doorbell = done[1].1;
        let sgl = done[2].1;
        assert!(sp < sgl, "SP {sp} must beat SGL {sgl}");
        assert!(sgl < doorbell, "SGL {sgl} must beat Doorbell {doorbell}");
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn sp_rejects_scattered_destination() {
        let (mut tb, bufs, staging, dst, conn) = setup(8, 2);
        batched_write(
            &mut tb,
            SimTime::ZERO,
            conn,
            Strategy::Sp,
            &bufs,
            Some(staging),
            &RemoteDst::Scattered(RKey(dst.0 as u64), vec![0, 8]),
        );
    }
}
