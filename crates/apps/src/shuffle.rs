//! Application 2: push-based distributed shuffle (§IV-C, Figs 14–15).
//!
//! `n` executors stream key-value entries and push each to its
//! destination executor (full mesh) with in-bound RDMA Writes — the paper
//! picks push over pull because in-bound Write beats out-bound Read.
//! Every producer owns a private slab inside each consumer's receive
//! region, so no write coordination is needed; a remote fetch-and-add on
//! a completion counter synchronizes stage hand-off.
//!
//! Variants (Fig 15's legend):
//!
//! * **Basic** — one synchronous RDMA Write per entry.
//! * **SGL(λ)** — accumulate λ same-destination entries, send their
//!   *addresses* as one scatter/gather WR: the RNIC gathers, the CPU
//!   doesn't copy.
//! * **SP(λ)** — accumulate λ entries, CPU-copy them into a staging
//!   buffer, send one contiguous write.

use cluster::{run_clients, Client, ClusterConfig, ConnId, Endpoint, Step, Testbed};
use remem::{batched_write, RemoteDst, Strategy};
use rnicsim::{CqeStatus, MrId, QpNum, RKey, Sge, VerbKind, WorkRequest, WrId};
use simcore::{Meter, SimRng, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::{Entry, EntryStream};

/// Shuffle strategy under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShuffleVariant {
    /// One write per entry.
    Basic,
    /// Scatter/gather batching with this batch size.
    Sgl(usize),
    /// Software-protocol (CPU staging) batching with this batch size.
    Sp(usize),
}

impl ShuffleVariant {
    /// Figure label.
    pub fn label(&self) -> String {
        match self {
            ShuffleVariant::Basic => "Basic Shuffle".into(),
            ShuffleVariant::Sgl(b) => format!("+SGL(Batch={b})"),
            ShuffleVariant::Sp(b) => format!("+SP(Batch={b})"),
        }
    }
}

/// Shuffle experiment configuration.
#[derive(Clone, Debug)]
pub struct ShuffleConfig {
    /// Executors, spread two per machine.
    pub executors: usize,
    /// Cluster size.
    pub machines: usize,
    /// Entries each executor produces.
    pub entries_per_executor: u64,
    /// Value bytes per entry (8-byte key + this; paper-style small KVs).
    pub value_len: usize,
    /// Batching strategy.
    pub variant: ShuffleVariant,
    /// Socket-affine placement (NUMA-awareness of §IV-C) or oblivious.
    pub numa: bool,
    /// Per-entry executor CPU cost: hashing, routing, bookkeeping.
    pub route_cost: SimTime,
    /// Run seed.
    pub seed: u64,
}

impl Default for ShuffleConfig {
    fn default() -> Self {
        ShuffleConfig {
            executors: 8,
            machines: 8,
            entries_per_executor: 4000,
            value_len: 24,
            variant: ShuffleVariant::Sp(16),
            numa: true,
            route_cost: SimTime::from_ns(180),
            seed: 42,
        }
    }
}

impl ShuffleConfig {
    fn entry_bytes(&self) -> u64 {
        8 + self.value_len as u64
    }

    fn slab_bytes(&self) -> u64 {
        // Expected share per (producer, consumer) with 2x headroom + slack.
        (self.entries_per_executor / self.executors as u64 + 16) * 2 * self.entry_bytes() + 4096
    }
}

/// Measured outcome of one shuffle run.
#[derive(Clone, Debug)]
pub struct ShuffleReport {
    /// Aggregate throughput in M entries/s.
    pub mops: f64,
    /// Virtual makespan (includes the final sync barrier).
    pub makespan: SimTime,
    /// Entries shuffled.
    pub entries: u64,
    /// Whether every entry arrived intact at its correct destination.
    pub verified: bool,
}

fn executor_place(cfg: &ShuffleConfig, e: usize) -> (usize, usize) {
    // Spread across machines first, then across sockets (16 executors on
    // 8 machines = two per machine, one per socket).
    let machine = e % cfg.machines;
    let socket = (e / cfg.machines) % 2;
    (machine, socket)
}

struct Executor {
    id: usize,
    machine: usize,
    variant: ShuffleVariant,
    route_cost: SimTime,
    entry_bytes: u64,
    input: MrId,
    staging: MrId,
    produced: u64,
    total: u64,
    /// Per-consumer pending input offsets.
    pending: Vec<Vec<u64>>,
    /// Per-consumer connection (None = same machine, delivered locally).
    conns: Vec<Option<ConnId>>,
    /// Per-consumer (region, next slab offset).
    slabs: Vec<(MrId, u64)>,
    /// Remote completion counter for the final barrier.
    sync: (Option<ConnId>, RKey),
    finished: bool,
    meter: Rc<RefCell<Meter>>,
    consumers: usize,
}

impl Executor {
    fn flush(&mut self, tb: &mut Testbed, now: SimTime, dest: usize) -> SimTime {
        let offsets = std::mem::take(&mut self.pending[dest]);
        debug_assert!(!offsets.is_empty());
        let n = offsets.len() as u64;
        let (region, slab_off) = self.slabs[dest];
        let bufs: Vec<Sge> =
            offsets.iter().map(|&o| Sge::new(self.input, o, self.entry_bytes)).collect();
        let done = match self.conns[dest] {
            None => {
                // Same machine: the "shuffle" is a memcpy into the
                // consumer's region.
                let mut t = now;
                for sge in &bufs {
                    let (r, o) = self.slabs[dest];
                    tb.machine_mut(self.machine).mem.copy_within(sge.mr, sge.offset, r, o, sge.len);
                    self.slabs[dest].1 += sge.len;
                    t += tb.cfg.host.memcpy_cost(sge.len as usize) + tb.cfg.host.l1_touch;
                }
                t
            }
            Some(conn) => {
                let strategy = match self.variant {
                    ShuffleVariant::Basic => Strategy::Doorbell, // 1-entry batch
                    ShuffleVariant::Sgl(_) => Strategy::Sgl,
                    ShuffleVariant::Sp(_) => Strategy::Sp,
                };
                let out = batched_write(
                    tb,
                    now,
                    conn,
                    strategy,
                    &bufs,
                    Some(self.staging),
                    &RemoteDst::Contiguous(RKey(region.0 as u64), slab_off),
                );
                self.slabs[dest].1 += n * self.entry_bytes;
                out.done
            }
        };
        self.meter.borrow_mut().record_n(done, n);
        done
    }

    fn batch_size(&self) -> usize {
        match self.variant {
            ShuffleVariant::Basic => 1,
            ShuffleVariant::Sgl(b) | ShuffleVariant::Sp(b) => b,
        }
    }
}

impl Client for Executor {
    fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
        let batch = self.batch_size();
        let mut t = now;
        // Consume input until one destination list is full.
        while self.produced < self.total {
            let off = self.produced * self.entry_bytes;
            let key = tb.machine(self.machine).mem.load_u64(self.input, off);
            let dest = (workloads::fnv64(key) % self.consumers as u64) as usize;
            t += self.route_cost;
            self.produced += 1;
            self.pending[dest].push(off);
            if self.pending[dest].len() >= batch {
                return Step::Yield(self.flush(tb, t, dest));
            }
        }
        // Input exhausted: drain leftovers one list per step.
        if let Some(dest) = (0..self.consumers).find(|&d| !self.pending[d].is_empty()) {
            let done = self.flush(tb, t, dest);
            return Step::Yield(done);
        }
        if !self.finished {
            self.finished = true;
            // Barrier: bump the completion counter (remote FAA, or a local
            // atomic when the counter lives on this machine).
            let done = match self.sync.0 {
                Some(conn) => {
                    let wr = WorkRequest {
                        wr_id: WrId(self.id as u64),
                        kind: VerbKind::FetchAdd { delta: 1 },
                        sgl: Sge::new(self.staging, 0, 8).into(),
                        remote: Some((self.sync.1, 0)),
                        signaled: true,
                    };
                    let cqe = tb.post_one_ref(t, conn, &wr);
                    debug_assert_eq!(cqe.status, CqeStatus::Success);
                    cqe.at
                }
                None => {
                    // The counter lives on this machine: a local atomic.
                    let mr = rnicsim::MrId(self.sync.1 .0 as u32);
                    let v = tb.machine(self.machine).mem.load_u64(mr, 0);
                    tb.machine_mut(self.machine).mem.store_u64(mr, 0, v + 1);
                    t + tb.cfg.host.atomic_base
                }
            };
            return Step::Yield(done);
        }
        Step::Done
    }
}

/// The analyzable form of one producer's verb sequence: executor 0's
/// slab geometry from [`run_shuffle`] plus one slab's worth of pushes to
/// a remote consumer, in the shape the configured variant produces —
/// per-entry writes (`Basic`), one multi-SGE WR (`Sgl`), or one staged
/// contiguous write (`Sp`). Running `verbcheck` over the `Basic` program
/// reports W203 (small writes to one block should consolidate): the very
/// guideline the `Sgl`/`Sp` variants implement.
pub fn verb_program(cfg: &ShuffleConfig) -> verbcheck::VerbProgram {
    let entry_bytes = cfg.entry_bytes();
    let slab_bytes = cfg.slab_bytes();
    let mut p = verbcheck::VerbProgram::new();
    // Producer 0 on machine 0; consumer 1 on machine 1 (socket-affine
    // placement — the oblivious variant differs only in core placement).
    let (pm, ps) = executor_place(cfg, 0);
    let (cm, cs) = executor_place(cfg, 1);
    let region_socket = if cfg.numa { cs } else { 1 - cs };
    let input = MrId(0);
    let staging = MrId(1);
    p.mr(pm, input, ps, cfg.entries_per_executor * entry_bytes + 4096);
    p.mr(pm, staging, ps, 64 * entry_bytes + 4096);
    let recv = MrId(0);
    p.mr(cm, recv, region_socket, slab_bytes * cfg.executors as u64);
    let conn = QpNum(0);
    p.qp(conn, pm, cm, ps, cs);

    // Producer 0's slab inside the consumer's region starts at offset 0.
    let mut slab_off = 0u64;
    let batch = match cfg.variant {
        ShuffleVariant::Basic => 1,
        ShuffleVariant::Sgl(b) | ShuffleVariant::Sp(b) => b,
    };
    let pushes = 16u64;
    match cfg.variant {
        ShuffleVariant::Basic => {
            // One small write per entry, packed back to back in the slab.
            for i in 0..pushes {
                p.post(
                    conn,
                    WorkRequest::write(
                        i,
                        Sge::new(input, i * entry_bytes, entry_bytes),
                        RKey(recv.0 as u64),
                        slab_off,
                    ),
                );
                p.poll(conn, 1);
                slab_off += entry_bytes;
            }
        }
        ShuffleVariant::Sgl(_) => {
            // λ gather entries in one WR: the RNIC does the copying.
            let sgl: Vec<Sge> =
                (0..batch as u64).map(|i| Sge::new(input, i * entry_bytes, entry_bytes)).collect();
            p.post(
                conn,
                WorkRequest {
                    wr_id: WrId(0),
                    kind: VerbKind::Write,
                    sgl: sgl.into(),
                    remote: Some((RKey(recv.0 as u64), slab_off)),
                    signaled: true,
                },
            );
            p.poll(conn, 1);
        }
        ShuffleVariant::Sp(_) => {
            // CPU-staged copy, then one contiguous write.
            p.post(
                conn,
                WorkRequest::write(
                    0,
                    Sge::new(staging, 0, batch as u64 * entry_bytes),
                    RKey(recv.0 as u64),
                    slab_off,
                ),
            );
            p.poll(conn, 1);
        }
    }
    // The stage hand-off barrier: FAA on the sync counter (machine 0
    // socket 0 — declared only when the producer is remote from it).
    let sync_conn = QpNum(1);
    let sync = MrId(2);
    p.mr(0, sync, 0, 64);
    if pm != 0 {
        p.qp(sync_conn, pm, 0, ps, 0);
        p.post(
            sync_conn,
            WorkRequest {
                wr_id: WrId(99),
                kind: VerbKind::FetchAdd { delta: 1 },
                sgl: Sge::new(staging, 0, 8).into(),
                remote: Some((RKey(sync.0 as u64), 0)),
                signaled: true,
            },
        );
        p.poll(sync_conn, 1);
    }
    p
}

/// Run one shuffle and verify delivery.
pub fn run_shuffle(cfg: &ShuffleConfig) -> ShuffleReport {
    assert!(cfg.executors >= 2, "shuffle needs at least two executors");
    let mut tb = Testbed::new(ClusterConfig { machines: cfg.machines, ..Default::default() });
    let root_rng = SimRng::new(cfg.seed);
    let entry_bytes = cfg.entry_bytes();
    let slab_bytes = cfg.slab_bytes();

    // Receive regions: one per consumer, sliced into per-producer slabs.
    let mut recv_regions = Vec::new();
    for c in 0..cfg.executors {
        let (machine, socket) = executor_place(cfg, c);
        let region_socket = if cfg.numa { socket } else { 1 - socket };
        recv_regions.push(tb.register(machine, region_socket, slab_bytes * cfg.executors as u64));
    }
    // Sync counter on machine 0, socket 0.
    let sync_mr = tb.register(0, 0, 64);

    // Input regions: fill with real encoded entries.
    let meter = Rc::new(RefCell::new(Meter::new(SimTime::from_us(20))));
    let mut clients: Vec<Box<dyn Client>> = Vec::new();
    let mut produced_entries: Vec<Vec<Entry>> = Vec::new();
    for p in 0..cfg.executors {
        let (machine, socket) = executor_place(cfg, p);
        let input = tb.register(machine, socket, cfg.entries_per_executor * entry_bytes + 4096);
        let staging = tb.register(machine, socket, 64 * entry_bytes + 4096);
        let stream =
            EntryStream::new(cfg.entries_per_executor, cfg.value_len, root_rng.split(p as u64));
        let entries: Vec<Entry> = stream.collect();
        for (i, e) in entries.iter().enumerate() {
            tb.machine_mut(machine).mem.write(input, i as u64 * entry_bytes, &e.encode());
        }
        produced_entries.push(entries);

        let mut conns = Vec::new();
        let mut slabs = Vec::new();
        for c in 0..cfg.executors {
            let (cm, cs) = executor_place(cfg, c);
            if cm == machine {
                conns.push(None);
            } else {
                let (client_ep, server_ep) = if cfg.numa {
                    (Endpoint::affine(machine, socket), Endpoint::affine(cm, cs))
                } else {
                    (
                        Endpoint { machine, port: socket, core_socket: 1 - socket },
                        Endpoint { machine: cm, port: cs, core_socket: 1 - cs },
                    )
                };
                conns.push(Some(tb.connect(client_ep, server_ep)));
            }
            slabs.push((recv_regions[c], p as u64 * slab_bytes));
        }
        let sync_conn = if machine == 0 {
            None
        } else {
            Some(tb.connect(Endpoint::affine(machine, socket), Endpoint::affine(0, 0)))
        };

        clients.push(Box::new(Executor {
            id: p,
            machine,
            variant: cfg.variant,
            route_cost: cfg.route_cost,
            entry_bytes,
            input,
            staging,
            produced: 0,
            total: cfg.entries_per_executor,
            pending: vec![Vec::new(); cfg.executors],
            conns,
            slabs,
            sync: (sync_conn, RKey(sync_mr.0 as u64)),
            finished: false,
            meter: Rc::clone(&meter),
            consumers: cfg.executors,
        }));
    }

    let makespan = run_clients(&mut tb, &mut clients, SimTime::MAX);
    drop(clients);

    // Barrier sanity: every executor must have bumped the counter.
    let sync_val = tb.machine(0).mem.load_u64(sync_mr, 0);
    let barrier_ok = sync_val == cfg.executors as u64;

    // Verify delivery: every produced entry is present, intact, at its
    // correct consumer's slab for its producer.
    let mut delivered = 0u64;
    let mut intact = true;
    for c in 0..cfg.executors {
        let (cm, _) = executor_place(cfg, c);
        for p in 0..cfg.executors {
            let base = p as u64 * slab_bytes;
            let mut off = base;
            let expect: Vec<&Entry> =
                produced_entries[p].iter().filter(|e| e.destination(cfg.executors) == c).collect();
            for e in expect {
                let raw = tb.machine(cm).mem.read(recv_regions[c], off, entry_bytes);
                let got = Entry::decode(&raw, cfg.value_len);
                if &got != e {
                    intact = false;
                }
                off += entry_bytes;
                delivered += 1;
            }
        }
    }
    let total = cfg.entries_per_executor * cfg.executors as u64;
    let mops = meter.borrow().mops();
    ShuffleReport {
        mops,
        makespan,
        entries: total,
        verified: intact && barrier_ok && delivered == total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(variant: ShuffleVariant, executors: usize) -> ShuffleReport {
        run_shuffle(&ShuffleConfig {
            executors,
            entries_per_executor: 1500,
            variant,
            ..Default::default()
        })
    }

    #[test]
    fn every_entry_arrives_intact_basic() {
        let r = quick(ShuffleVariant::Basic, 4);
        assert!(r.verified);
        assert_eq!(r.entries, 6000);
    }

    #[test]
    fn every_entry_arrives_intact_sgl_and_sp() {
        for v in [ShuffleVariant::Sgl(16), ShuffleVariant::Sp(16)] {
            let r = quick(v, 6);
            assert!(r.verified, "{v:?} lost or corrupted entries");
        }
    }

    #[test]
    fn batching_beats_basic_substantially() {
        let basic = quick(ShuffleVariant::Basic, 8);
        let sp = quick(ShuffleVariant::Sp(16), 8);
        let sgl = quick(ShuffleVariant::Sgl(16), 8);
        assert!(sp.mops > basic.mops * 3.5, "sp {} basic {}", sp.mops, basic.mops);
        assert!(sgl.mops > basic.mops * 3.0, "sgl {} basic {}", sgl.mops, basic.mops);
        // SP edges out SGL (the paper's 5.8x vs 4.8x).
        assert!(sp.mops > sgl.mops, "sp {} sgl {}", sp.mops, sgl.mops);
    }

    #[test]
    fn numa_affinity_helps() {
        let mut cfg = ShuffleConfig {
            executors: 8,
            entries_per_executor: 1500,
            variant: ShuffleVariant::Sp(16),
            ..Default::default()
        };
        cfg.numa = false;
        let oblivious = run_shuffle(&cfg);
        cfg.numa = true;
        let affine = run_shuffle(&cfg);
        assert!(affine.verified && oblivious.verified);
        assert!(
            affine.mops > oblivious.mops * 1.02,
            "affine {} oblivious {}",
            affine.mops,
            oblivious.mops
        );
    }

    #[test]
    fn throughput_grows_with_executors() {
        let small = quick(ShuffleVariant::Sp(16), 4);
        let large = quick(ShuffleVariant::Sp(16), 16);
        assert!(large.mops > small.mops * 2.0, "4 exec {} vs 16 {}", small.mops, large.mops);
    }
}
