//! Application 1: the disaggregated hashtable (§IV-B, Figs 11–13).
//!
//! Request processing (front-ends) and storage (back-end) are decoupled;
//! front-ends reach the back-end table purely with one-sided verbs. The
//! insert path is the paper's multi-version scheme: fetch-and-add the
//! entry's version word, then RDMA-Write the key+value — no back-end CPU.
//!
//! An insert is one RDMA Write of `[version | key | value]` into the
//! key's slot (the FAA-per-insert multi-version variant is available as
//! an ablation — it pins throughput to the NIC's 2.35 MOPS atomic unit,
//! which is why the paper reserves atomics for coordination, not data).
//!
//! Optimization steps (matching Fig 12's breakdown):
//!
//! * **Basic** — NUMA-oblivious placement: the issuing core sits on the
//!   socket opposite its NIC port, and entries land on whichever socket
//!   the key hashes to, crossing QPI about half the time.
//! * **+NUMA** — core/port/memory affinity with proxy-socket hand-off for
//!   keys whose back-end socket doesn't match the front-end thread's.
//! * **+Reorder(θ)** — the Zipf head (a configurable fraction of keys) is
//!   promoted to a *hot area* organized in blocks; front-ends absorb hot
//!   writes into a local shadow and flush a whole block under a remote
//!   spinlock (with exponential backoff) once θ writes accumulate —
//!   IO consolidation riding on packet throttling.

use cluster::{run_clients, Client, ClusterConfig, ConnId, Endpoint, Step, Testbed};
use remem::{Backoff, RemoteSpinlock};
use rnicsim::{CqeStatus, MrId, QpNum, RKey, Sge, VerbKind, WorkRequest, WrId};
use simcore::{Meter, SimRng, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use workloads::{KvOp, KvSpec, KvStream};

/// Slot layout: [version u64 | key u64 | value] padded to this stride.
pub const SLOT_BYTES: u64 = 128;
/// Entries per hot block (2^t of §IV-B); 16 × 128 B = one 2 KB block.
pub const BLOCK_ENTRIES: u64 = 16;
/// Physical blocks in each front-end's remote burst-buffer ring. Logical
/// hot blocks map onto the ring (`block % RING_BLOCKS`); keeping the ring
/// small (64 × 2 KB = 128 KB) keeps the back-end's MTT resident — sizing
/// the burst area like the whole hot set thrashes the NIC SRAM and erases
/// the consolidation win.
pub const RING_BLOCKS: u64 = 64;

/// Which optimization level to run (Fig 12's legend).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HtVariant {
    /// NUMA-oblivious baseline.
    Basic,
    /// + socket-affine placement and proxy routing.
    Numa,
    /// + hot-area consolidation with flush threshold θ (implies NUMA).
    Reorder {
        /// Writes absorbed per block before a flush.
        theta: usize,
    },
    /// Ablation: like `Reorder`, but every flush takes a remote spinlock
    /// on the block (the design needed if burst areas were shared between
    /// front-ends). Three extra backend messages per flush — kept to show
    /// what single-writer ownership saves.
    ReorderLocked {
        /// Writes absorbed per block before a flush.
        theta: usize,
    },
    /// Ablation: NUMA placement but every insert draws a version via
    /// remote FAA first (the naive multi-version cold path). Caps at the
    /// atomic unit — kept to *show* why that design loses.
    VersionedFaa,
}

/// Hashtable experiment configuration.
#[derive(Clone, Debug)]
pub struct HtConfig {
    /// Number of front-end threads (paper: 1–14 over 7 machines).
    pub front_ends: usize,
    /// Cluster size; the last machine is the back-end.
    pub machines: usize,
    /// Key-space / table size.
    pub keys: u64,
    /// Value bytes (paper: 64).
    pub value_len: usize,
    /// Inserts issued per front-end.
    pub ops_per_fe: u64,
    /// Optimization level.
    pub variant: HtVariant,
    /// Hot keys = keys / this (paper's Fig 13a sweeps 4–32).
    pub hot_fraction_inv: u64,
    /// Fraction of inserts in the workload (the paper's Fig 12 breakdown
    /// runs 100 % writes; searches go through one-sided Reads).
    pub write_fraction: f64,
    /// Operations each front-end keeps in flight (request pipelining).
    pub pipeline_depth: usize,
    /// Run seed.
    pub seed: u64,
}

impl Default for HtConfig {
    fn default() -> Self {
        HtConfig {
            front_ends: 6,
            machines: 8,
            keys: 1 << 18,
            value_len: 64,
            ops_per_fe: 1500,
            variant: HtVariant::Reorder { theta: 16 },
            hot_fraction_inv: 32,
            write_fraction: 1.0,
            pipeline_depth: 4,
            seed: 42,
        }
    }
}

/// Measured outcome of one hashtable run.
#[derive(Clone, Debug)]
pub struct HtReport {
    /// Aggregate insert throughput in MOPS.
    pub mops: f64,
    /// Virtual makespan.
    pub makespan: SimTime,
    /// Total inserts completed.
    pub ops: u64,
    /// Fraction of ops that hit the hot (consolidated) path.
    pub hot_fraction: f64,
    /// Block flushes issued.
    pub flushes: u64,
    /// Mean CAS attempts per flush lock acquisition.
    pub avg_lock_attempts: f64,
    /// Mean flush duration (lock + block write).
    pub avg_flush: SimTime,
    /// Mean lock-acquisition part of the flush.
    pub avg_lock: SimTime,
}

struct Shared {
    meter: Meter,
    hot_ops: u64,
    total_ops: u64,
    flushes: u64,
    lock_attempts: u64,
    flush_time: SimTime,
    lock_time: SimTime,
}

struct Tables {
    /// Per-socket main table region on the back-end.
    table: [MrId; 2],
}

enum FeState {
    NextOp,
    /// Ablation only: FAA done; the entry write goes out next step.
    WritePending {
        key: u64,
        value: Vec<u8>,
    },
}

struct FrontEnd {
    socket: usize,
    /// Connection per back-end socket.
    conns: [ConnId; 2],
    variant: HtVariant,
    stream: KvStream,
    staging: MrId,
    shadow: MrId,
    tables: Rc<Tables>,
    /// This front-end's private burst-buffer area (per socket) and its
    /// block-lock table.
    hot: [MrId; 2],
    locks: [MrId; 2],
    hot_map: Rc<HashMap<u64, u64>>,
    block_counts: HashMap<u64, usize>,
    ops_left: u64,
    state: FeState,
    ipc_hop: SimTime,
    rng: SimRng,
    shared: Rc<RefCell<Shared>>,
}

impl FrontEnd {
    fn rkey(mr: MrId) -> RKey {
        RKey(mr.0 as u64)
    }

    /// Search: one RDMA Read of the key's slot (`[version | key | value]`).
    /// Hot keys this front-end has buffered are answered from the local
    /// shadow — the paper's scenario-I "remote memory as a cache" shape.
    fn search(&mut self, now: SimTime, tb: &mut Testbed, key: u64, value_len: usize) -> SimTime {
        if let Some(&hot_idx) = self.hot_map.get(&key) {
            if !matches!(self.variant, HtVariant::Basic | HtVariant::Numa) {
                // Served from the shadow: a couple of cache-line touches.
                let _ = hot_idx;
                return now + tb.cfg.host.l1_touch * 2;
            }
        }
        let socket = (key & 1) as usize;
        let slot = (key >> 1) * SLOT_BYTES;
        let (conn, hop) = self.route(socket);
        let wr = WorkRequest::read(
            key,
            Sge::new(self.staging, 1024, 16 + value_len as u64),
            Self::rkey(self.tables.table[socket]),
            slot,
        );
        let cqe = tb.post_one_ref(now + hop, conn, &wr);
        debug_assert_eq!(cqe.status, CqeStatus::Success);
        cqe.at + hop
    }

    /// Connection + pre/post hand-off cost for reaching back-end `socket`.
    fn route(&self, target_socket: usize) -> (ConnId, SimTime) {
        match self.variant {
            HtVariant::Basic => (self.conns[self.socket], SimTime::ZERO),
            _ => {
                if target_socket == self.socket {
                    (self.conns[target_socket], SimTime::ZERO)
                } else {
                    (self.conns[target_socket], self.ipc_hop)
                }
            }
        }
    }

    fn cold_faa(&mut self, now: SimTime, tb: &mut Testbed, key: u64) -> SimTime {
        let socket = (key & 1) as usize;
        let slot = (key >> 1) * SLOT_BYTES;
        let (conn, hop) = self.route(socket);
        let wr = WorkRequest {
            wr_id: WrId(key),
            kind: VerbKind::FetchAdd { delta: 1 },
            sgl: Sge::new(self.staging, 0, 8).into(),
            remote: Some((Self::rkey(self.tables.table[socket]), slot)),
            signaled: true,
        };
        let cqe = tb.post_one_ref(now + hop, conn, &wr);
        debug_assert_eq!(cqe.status, CqeStatus::Success);
        cqe.at + hop
    }

    /// One-shot insert: write `[version=1 | key | value]` into the slot.
    fn cold_write(&mut self, now: SimTime, tb: &mut Testbed, key: u64, value: &[u8]) -> SimTime {
        let socket = (key & 1) as usize;
        let slot = (key >> 1) * SLOT_BYTES;
        let (conn, hop) = self.route(socket);
        let me = tb.client_of(conn).machine;
        let mut buf = Vec::with_capacity(16 + value.len());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(value);
        tb.machine_mut(me).mem.write(self.staging, 16, &buf);
        let build = tb.cfg.host.memcpy_cost(buf.len());
        let wr = WorkRequest::write(
            key,
            Sge::new(self.staging, 16, buf.len() as u64),
            Self::rkey(self.tables.table[socket]),
            slot,
        );
        let cqe = tb.post_one_ref(now + hop + build, conn, &wr);
        debug_assert_eq!(cqe.status, CqeStatus::Success);
        cqe.at + hop
    }

    /// Absorb a hot write into the local shadow; flush the block under a
    /// remote backoff-spinlock when θ writes have accumulated.
    #[allow(clippy::too_many_arguments)]
    fn hot_write(
        &mut self,
        now: SimTime,
        tb: &mut Testbed,
        hot_idx: u64,
        key: u64,
        value: &[u8],
        theta: usize,
        locked: bool,
    ) -> SimTime {
        let socket = (hot_idx & 1) as usize;
        let slot_in_area = hot_idx >> 1;
        let me = {
            let (conn, _) = self.route(socket);
            tb.client_of(conn).machine
        };
        // Shadow write (local): [version=1 | key | value] at the slot's
        // position inside the ring-mapped block.
        let ring_slot = ((slot_in_area / BLOCK_ENTRIES) % RING_BLOCKS) * BLOCK_ENTRIES
            + slot_in_area % BLOCK_ENTRIES;
        let mut buf = Vec::with_capacity(16 + value.len());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(value);
        tb.machine_mut(me).mem.write(self.shadow, ring_slot * SLOT_BYTES, &buf);
        let absorb = tb.cfg.host.memcpy_cost(buf.len()) + tb.cfg.host.l1_touch;

        let block = (slot_in_area / BLOCK_ENTRIES) % RING_BLOCKS;
        let count = self.block_counts.entry((socket as u64) << 32 | block).or_insert(0);
        *count += 1;
        if *count < theta {
            return now + absorb;
        }
        *count = 0;
        // Flush: lock the block of this front-end's burst-buffer area,
        // write it whole from the shadow, unlock. The flush is issued
        // asynchronously — one-sided verbs need no reply processing, so
        // the front-end keeps serving while the lock/write/unlock chain
        // drains in the background (its resource usage is still charged).
        let (conn, hop) = self.route(socket);
        let flush_start = now + absorb + hop;
        // Our burst-buffer areas are single-writer (per front-end), so the
        // default flush needs no remote lock — lanes of one front-end
        // coordinate with a local (cache-hit) latch. The `ReorderLocked`
        // ablation takes a remote spinlock instead.
        let (write_at, attempts, mmios) = if locked {
            let lock = RemoteSpinlock {
                rkey: Self::rkey(self.locks[socket]),
                offset: block * 8,
                backoff: Some(Backoff::default()),
            };
            let acq = lock.lock(tb, conn, flush_start, Sge::new(self.staging, 0, 8), &mut self.rng);
            (acq.at, acq.attempts, 3)
        } else {
            (flush_start + tb.cfg.host.l1_touch, 1, 1)
        };
        let wr = WorkRequest::write(
            block,
            Sge::new(self.shadow, block * BLOCK_ENTRIES * SLOT_BYTES, BLOCK_ENTRIES * SLOT_BYTES),
            Self::rkey(self.hot[socket]),
            block * BLOCK_ENTRIES * SLOT_BYTES,
        );
        let cqe = tb.post_one_ref(write_at, conn, &wr);
        debug_assert_eq!(cqe.status, CqeStatus::Success);
        if locked {
            // Release asynchronously once the data write lands.
            let lock = RemoteSpinlock::plain(Self::rkey(self.locks[socket]), block * 8);
            lock.unlock(tb, conn, cqe.at, Sge::new(self.staging, 8, 8));
        }
        {
            let mut sh = self.shared.borrow_mut();
            sh.flushes += 1;
            sh.lock_attempts += attempts as u64;
            sh.flush_time += cqe.at - flush_start;
            sh.lock_time += write_at - flush_start;
        }
        // The op itself is done once the flush WRs are posted; the
        // one-sided chain drains in the background.
        now + absorb + tb.cfg.rnic.mmio_cost * mmios
    }
}

impl Client for FrontEnd {
    fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
        match std::mem::replace(&mut self.state, FeState::NextOp) {
            FeState::WritePending { key, value } => {
                let done = self.cold_write(now, tb, key, &value);
                let mut sh = self.shared.borrow_mut();
                sh.meter.record(done);
                sh.total_ops += 1;
                drop(sh);
                self.ops_left -= 1;
                if self.ops_left == 0 {
                    Step::Done
                } else {
                    Step::Yield(done)
                }
            }
            FeState::NextOp => {
                let (key, value) = match self.stream.next_op() {
                    KvOp::Insert { key, value } => (key, value),
                    KvOp::Get { key } => {
                        let value_len = 64;
                        let done = self.search(now, tb, key, value_len);
                        let mut sh = self.shared.borrow_mut();
                        sh.meter.record(done);
                        sh.total_ops += 1;
                        drop(sh);
                        self.ops_left -= 1;
                        return if self.ops_left == 0 { Step::Done } else { Step::Yield(done) };
                    }
                };
                let (theta, locked) = match self.variant {
                    HtVariant::Reorder { theta } => (theta, false),
                    HtVariant::ReorderLocked { theta } => (theta, true),
                    _ => (0, false),
                };
                if theta > 0 {
                    if let Some(&hot_idx) = self.hot_map.get(&key) {
                        let done = self.hot_write(now, tb, hot_idx, key, &value, theta, locked);
                        let mut sh = self.shared.borrow_mut();
                        sh.meter.record(done);
                        sh.total_ops += 1;
                        sh.hot_ops += 1;
                        drop(sh);
                        self.ops_left -= 1;
                        return if self.ops_left == 0 { Step::Done } else { Step::Yield(done) };
                    }
                }
                if matches!(self.variant, HtVariant::VersionedFaa) {
                    // Ablation: FAA now, entry write next step.
                    let t = self.cold_faa(now, tb, key);
                    self.state = FeState::WritePending { key, value };
                    return Step::Yield(t);
                }
                let done = self.cold_write(now, tb, key, &value);
                let mut sh = self.shared.borrow_mut();
                sh.meter.record(done);
                sh.total_ops += 1;
                drop(sh);
                self.ops_left -= 1;
                if self.ops_left == 0 {
                    Step::Done
                } else {
                    Step::Yield(done)
                }
            }
        }
    }
}

/// Run the disaggregated hashtable experiment.
pub fn run_hashtable(cfg: &HtConfig) -> HtReport {
    run_hashtable_debug(cfg).0
}

/// Like [`run_hashtable`] but also returns the testbed for resource
/// utilization inspection.
pub fn run_hashtable_debug(cfg: &HtConfig) -> (HtReport, Testbed) {
    assert!(cfg.machines >= 2, "need at least one front-end and one back-end machine");
    let backend = cfg.machines - 1;
    let mut tb = Testbed::new(ClusterConfig { machines: cfg.machines, ..Default::default() });

    // Back-end layout.
    let per_socket = (cfg.keys / 2 + 1) * SLOT_BYTES;
    let hot_keys = (cfg.keys / cfg.hot_fraction_inv).max(BLOCK_ENTRIES * 2);
    let ring_bytes = RING_BLOCKS * BLOCK_ENTRIES * SLOT_BYTES;
    let tables = Rc::new(Tables {
        table: [tb.register(backend, 0, per_socket), tb.register(backend, 1, per_socket)],
    });
    // One private burst-buffer area (+ lock table) per front-end and
    // socket; front-ends never contend on each other's block locks.
    let mut fe_hot: Vec<[MrId; 2]> = Vec::new();
    let mut fe_locks: Vec<[MrId; 2]> = Vec::new();
    for _ in 0..cfg.front_ends {
        fe_hot.push([tb.register(backend, 0, ring_bytes), tb.register(backend, 1, ring_bytes)]);
        fe_locks.push([
            tb.register(backend, 0, RING_BLOCKS * 8),
            tb.register(backend, 1, RING_BLOCKS * 8),
        ]);
    }

    // Hot map: scrambled ids of the zipf head, indexed by hotness rank.
    let spec = KvSpec {
        keys: cfg.keys,
        value_len: cfg.value_len,
        write_fraction: cfg.write_fraction,
        zipf_theta: 0.99,
    };
    // Interleave hotness ranks across blocks so the very hottest keys do
    // not all contend for one block's lock: rank r lands in block
    // (r % num_blocks), slot (r / num_blocks).
    let hot_slots = hot_keys.next_multiple_of(BLOCK_ENTRIES);
    let num_blocks = (hot_slots / BLOCK_ENTRIES).max(1);
    let mut hot_map = HashMap::new();
    for (rank, key) in spec.hot_keys(hot_keys as usize).into_iter().enumerate() {
        let rank = rank as u64;
        // Alternate sockets by rank parity, then interleave across blocks,
        // so neither a socket nor a single block absorbs the whole head.
        let socket = rank & 1;
        let r2 = rank >> 1;
        let idx = (r2 % num_blocks) * BLOCK_ENTRIES + r2 / num_blocks;
        hot_map.entry(key).or_insert(idx << 1 | socket);
    }
    let hot_map = Rc::new(hot_map);

    let shared = Rc::new(RefCell::new(Shared {
        meter: Meter::new(SimTime::from_us(30)),
        hot_ops: 0,
        total_ops: 0,
        flushes: 0,
        lock_attempts: 0,
        flush_time: SimTime::ZERO,
        lock_time: SimTime::ZERO,
    }));
    let root_rng = SimRng::new(cfg.seed);
    let zipf = spec.zipf();

    let mut clients: Vec<Box<dyn Client>> = Vec::new();
    let lanes = cfg.front_ends * cfg.pipeline_depth.max(1);
    for lane in 0..lanes {
        let fe = lane % cfg.front_ends;
        // Two front-ends per machine, one per socket, like the paper's 14
        // front-ends over 7 machines.
        let machine = (fe / 2) % (cfg.machines - 1);
        let socket = fe % 2;
        let staging = tb.register(machine, socket, 4096);
        let shadow = tb.register(machine, socket, ring_bytes);
        // One connection per back-end socket. Basic places the issuing
        // core on the opposite socket of its port (oblivious); the
        // optimized variants are affine.
        let conns = match cfg.variant {
            HtVariant::Basic => [
                tb.connect(
                    Endpoint { machine, port: socket, core_socket: 1 - socket },
                    Endpoint::affine(backend, socket),
                ),
                tb.connect(
                    Endpoint { machine, port: socket, core_socket: 1 - socket },
                    Endpoint::affine(backend, socket),
                ),
            ],
            _ => [
                tb.connect(Endpoint::affine(machine, 0), Endpoint::affine(backend, 0)),
                tb.connect(Endpoint::affine(machine, 1), Endpoint::affine(backend, 1)),
            ],
        };
        clients.push(Box::new(FrontEnd {
            socket,
            conns,
            variant: cfg.variant,
            stream: KvStream::new(spec.clone(), &zipf, root_rng.split(lane as u64 + 1)),
            staging,
            shadow,
            tables: Rc::clone(&tables),
            hot: fe_hot[fe],
            locks: fe_locks[fe],
            hot_map: Rc::clone(&hot_map),
            block_counts: HashMap::new(),
            ops_left: (cfg.ops_per_fe / cfg.pipeline_depth.max(1) as u64).max(1),
            state: FeState::NextOp,
            ipc_hop: remem::DEFAULT_IPC_HOP,
            rng: root_rng.split(1000 + lane as u64),
            shared: Rc::clone(&shared),
        }));
    }

    let makespan = run_clients(&mut tb, &mut clients, SimTime::MAX);
    drop(clients);
    let sh = shared.borrow();
    let report = HtReport {
        mops: sh.meter.mops(),
        makespan,
        ops: sh.total_ops,
        hot_fraction: if sh.total_ops == 0 { 0.0 } else { sh.hot_ops as f64 / sh.total_ops as f64 },
        flushes: sh.flushes,
        avg_lock_attempts: if sh.flushes == 0 {
            0.0
        } else {
            sh.lock_attempts as f64 / sh.flushes as f64
        },
        avg_flush: if sh.flushes == 0 { SimTime::ZERO } else { sh.flush_time / sh.flushes },
        avg_lock: if sh.flushes == 0 { SimTime::ZERO } else { sh.lock_time / sh.flushes },
    };
    drop(sh);
    (report, tb)
}

/// The analyzable form of one front-end's verb sequence: the table /
/// burst-buffer / staging geometry of [`run_hashtable`] plus a
/// representative run of inserts (and, for [`HtVariant::Reorder`], a hot
/// block flush). `verbcheck` checks this before any simulation runs —
/// every offset below uses the same [`SLOT_BYTES`] / [`BLOCK_ENTRIES`] /
/// [`RING_BLOCKS`] arithmetic as the simulated front-end.
pub fn verb_program(cfg: &HtConfig) -> verbcheck::VerbProgram {
    use verbcheck::VerbProgram;
    let backend = cfg.machines - 1;
    let per_socket = (cfg.keys / 2 + 1) * SLOT_BYTES;
    let ring_bytes = RING_BLOCKS * BLOCK_ENTRIES * SLOT_BYTES;
    let mut p = VerbProgram::new();
    // Back-end: the per-socket tables, one front-end's burst area + locks.
    let table = [MrId(0), MrId(1)];
    p.mr(backend, table[0], 0, per_socket);
    p.mr(backend, table[1], 1, per_socket);
    let hot = [MrId(2), MrId(3)];
    let locks = [MrId(4), MrId(5)];
    p.mr(backend, hot[0], 0, ring_bytes);
    p.mr(backend, hot[1], 1, ring_bytes);
    p.mr(backend, locks[0], 0, RING_BLOCKS * 8);
    p.mr(backend, locks[1], 1, RING_BLOCKS * 8);
    // Front-end machine 0, one lane per socket: staging + shadow.
    let staging = [MrId(0), MrId(1)];
    let shadow = [MrId(2), MrId(3)];
    p.mr(0, staging[0], 0, 4096);
    p.mr(0, staging[1], 1, 4096);
    p.mr(0, shadow[0], 0, ring_bytes);
    p.mr(0, shadow[1], 1, ring_bytes);
    // One connection per back-end socket (socket-affine ports, as in the
    // optimized variants; `Basic` differs only in core placement, which
    // the analyzer does not model).
    let conn = [QpNum(0), QpNum(1)];
    p.qp(conn[0], 0, backend, 0, 0);
    p.qp(conn[1], 0, backend, 1, 1);

    let value_len = cfg.value_len as u64;
    for key in 0..6u64 {
        let socket = (key & 1) as usize;
        let slot = (key >> 1) * SLOT_BYTES;
        if matches!(cfg.variant, HtVariant::VersionedFaa) {
            // Ablation cold path: FAA the version word first.
            p.post(
                conn[socket],
                WorkRequest {
                    wr_id: WrId(key),
                    kind: VerbKind::FetchAdd { delta: 1 },
                    sgl: Sge::new(staging[socket], 0, 8).into(),
                    remote: Some((RKey(table[socket].0 as u64), slot)),
                    signaled: true,
                },
            );
            p.poll(conn[socket], 1);
        }
        // The insert: write [version | key | value] into the slot.
        p.post(
            conn[socket],
            WorkRequest::write(
                key,
                Sge::new(staging[socket], 16, 16 + value_len),
                RKey(table[socket].0 as u64),
                slot,
            ),
        );
        p.poll(conn[socket], 1);
        // A search of the same slot.
        p.post(
            conn[socket],
            WorkRequest::read(
                100 + key,
                Sge::new(staging[socket], 1024, 16 + value_len),
                RKey(table[socket].0 as u64),
                slot,
            ),
        );
        p.poll(conn[socket], 1);
    }
    if matches!(cfg.variant, HtVariant::Reorder { .. } | HtVariant::ReorderLocked { .. }) {
        // A hot block flush: one 2 KB write into the burst-buffer ring —
        // the consolidation that *avoids* W203's small-write pattern.
        let block = 3u64;
        p.post(
            conn[1],
            WorkRequest::write(
                200,
                Sge::new(shadow[1], block * BLOCK_ENTRIES * SLOT_BYTES, BLOCK_ENTRIES * SLOT_BYTES),
                RKey(hot[1].0 as u64),
                block * BLOCK_ENTRIES * SLOT_BYTES,
            ),
        );
        p.poll(conn[1], 1);
    }
    p
}

/// Single-front-end correctness harness: runs inserts and then checks the
/// back-end table really contains the entries (used by tests/examples).
pub fn verify_hashtable_contents(keys_to_check: u64) -> bool {
    let cfg = HtConfig {
        front_ends: 1,
        keys: 1 << 12,
        ops_per_fe: 600,
        variant: HtVariant::Numa,
        ..Default::default()
    };
    let backend = cfg.machines - 1;
    let mut tb = Testbed::new(ClusterConfig { machines: cfg.machines, ..Default::default() });
    let per_socket = (cfg.keys / 2 + 1) * SLOT_BYTES;
    let table = [tb.register(backend, 0, per_socket), tb.register(backend, 1, per_socket)];
    let conn = [
        tb.connect(Endpoint::affine(0, 0), Endpoint::affine(backend, 0)),
        tb.connect(Endpoint::affine(0, 1), Endpoint::affine(backend, 1)),
    ];
    let staging = tb.register(0, 0, 4096);
    let spec = KvSpec { keys: cfg.keys, value_len: cfg.value_len, ..Default::default() };
    let zipf = spec.zipf();
    let mut stream = KvStream::new(spec, &zipf, SimRng::new(7));
    let mut written = HashMap::new();
    let mut t = SimTime::ZERO;
    for _ in 0..cfg.ops_per_fe {
        let KvOp::Insert { key, value } = stream.next_op() else { unreachable!() };
        let socket = (key & 1) as usize;
        let slot = (key >> 1) * SLOT_BYTES;
        // FAA version then write entry — the cold path.
        let wr = WorkRequest {
            wr_id: WrId(key),
            kind: VerbKind::FetchAdd { delta: 1 },
            sgl: Sge::new(staging, 0, 8).into(),
            remote: Some((RKey(table[socket].0 as u64), slot)),
            signaled: true,
        };
        let cqe = tb.post_one_ref(t, conn[socket], &wr);
        let mut buf = key.to_le_bytes().to_vec();
        buf.extend_from_slice(&value);
        tb.machine_mut(0).mem.write(staging, 16, &buf);
        let wr2 = WorkRequest::write(
            key,
            Sge::new(staging, 16, buf.len() as u64),
            RKey(table[socket].0 as u64),
            slot + 8,
        );
        let cqe2 = tb.post_one_ref(cqe.at, conn[socket], &wr2);
        t = cqe2.at;
        written.insert(key, value);
    }
    // Check a sample of written keys.
    written.iter().take(keys_to_check as usize).all(|(&key, value)| {
        let socket = (key & 1) as usize;
        let slot = (key >> 1) * SLOT_BYTES;
        let mem = &tb.machine(backend).mem;
        let version = mem.load_u64(table[socket], slot);
        let stored_key = mem.load_u64(table[socket], slot + 8);
        let stored_value = mem.read(table[socket], slot + 16, value.len() as u64);
        version >= 1 && stored_key == key && &stored_value == value
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(variant: HtVariant, front_ends: usize) -> HtReport {
        run_hashtable(&HtConfig {
            front_ends,
            keys: 1 << 14,
            ops_per_fe: 400,
            variant,
            ..Default::default()
        })
    }

    #[test]
    fn contents_survive_the_protocol() {
        assert!(verify_hashtable_contents(200));
    }

    #[test]
    fn numa_beats_basic() {
        let basic = quick(HtVariant::Basic, 6);
        let numa = quick(HtVariant::Numa, 6);
        assert!(numa.mops > basic.mops * 1.05, "numa {} vs basic {}", numa.mops, basic.mops);
    }

    #[test]
    fn reorder_beats_numa_substantially() {
        let numa = quick(HtVariant::Numa, 6);
        let reorder = quick(HtVariant::Reorder { theta: 16 }, 6);
        assert!(reorder.mops > numa.mops * 1.4, "reorder {} vs numa {}", reorder.mops, numa.mops);
        assert!(reorder.hot_fraction > 0.4, "hot fraction {}", reorder.hot_fraction);
    }

    #[test]
    fn throughput_scales_with_front_ends_then_saturates() {
        let one = quick(HtVariant::Numa, 1);
        let six = quick(HtVariant::Numa, 6);
        assert!(six.mops > one.mops * 2.5, "1 FE {} vs 6 FE {}", one.mops, six.mops);
    }

    #[test]
    fn all_ops_complete() {
        let r = quick(HtVariant::Reorder { theta: 4 }, 3);
        assert_eq!(r.ops, 3 * 400);
        assert!(r.makespan > SimTime::ZERO);
    }
}

#[cfg(test)]
mod mixed_workload_tests {
    use super::*;

    fn mixed(write_fraction: f64, variant: HtVariant) -> HtReport {
        run_hashtable(&HtConfig {
            front_ends: 6,
            keys: 1 << 14,
            ops_per_fe: 600,
            write_fraction,
            variant,
            ..Default::default()
        })
    }

    #[test]
    fn read_heavy_workloads_run_and_count_every_op() {
        let r = mixed(0.1, HtVariant::Numa);
        assert_eq!(r.ops, 6 * 600);
        assert!(r.mops > 0.0);
    }

    #[test]
    fn hot_shadow_makes_reads_cheap_under_reorder() {
        // With consolidation, hot searches are served from the front-end's
        // shadow, so a read-heavy skewed workload gets faster than under
        // plain NUMA placement.
        let numa = mixed(0.2, HtVariant::Numa);
        let reorder = mixed(0.2, HtVariant::Reorder { theta: 16 });
        assert!(reorder.mops > numa.mops * 1.3, "reorder {} vs numa {}", reorder.mops, numa.mops);
    }

    #[test]
    fn search_returns_inserted_bytes() {
        // Single front-end: insert then search via raw verbs and compare.
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let table = tb.register(1, 1, 1 << 16);
        let staging = tb.register(0, 1, 4096);
        let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        // Insert [version=1 | key | value] at slot 5.
        let key = 5u64;
        let slot = key * SLOT_BYTES;
        let mut image = 1u64.to_le_bytes().to_vec();
        image.extend_from_slice(&key.to_le_bytes());
        image.extend_from_slice(&workloads::value_for(key, 64));
        tb.machine_mut(0).mem.write(staging, 0, &image);
        let w = tb.post_one_ref(
            SimTime::ZERO,
            conn,
            &WorkRequest::write(
                1,
                Sge::new(staging, 0, image.len() as u64),
                RKey(table.0 as u64),
                slot,
            ),
        );
        // Search: read the slot back.
        let r = tb.post_one_ref(
            w.at,
            conn,
            &WorkRequest::read(
                2,
                Sge::new(staging, 1024, image.len() as u64),
                RKey(table.0 as u64),
                slot,
            ),
        );
        assert_eq!(r.status, CqeStatus::Success);
        assert_eq!(tb.machine(0).mem.read(staging, 1024, image.len() as u64), image);
    }
}
