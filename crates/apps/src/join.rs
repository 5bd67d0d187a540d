//! Application 3: distributed hash join (§IV-D, Figs 16–18).
//!
//! Two phases, as in the paper: a **partition** phase that shuffles both
//! relations across θ executors by key hash (using the vector-IO
//! strategies — the paper picks SGL; SP is kept for the Fig 18 CPU-cost
//! comparison), and a **build-probe** phase where each executor builds a
//! hash table over its inner partition and probes it with its outer
//! partition (the paper uses one TBB `concurrent_hash_map` per executor;
//! we model the same per-tuple costs and — in verify mode — really build
//! and probe a hash map over the shuffled bytes).
//!
//! The single-machine baseline is the same build-probe with no partition
//! phase and no parallelism (the paper's 6.46 s for 16 M tuples).

use cluster::{run_clients, Client, ClusterConfig, ConnId, Endpoint, Step, Testbed};
use remem::{batched_write, RemoteDst, Strategy};
use rnicsim::{MrId, RKey, Sge};
use simcore::{SimRng, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use workloads::partition_of;

/// Per-tuple build cost (hash-map insert, TBB-style).
pub const BUILD_COST: SimTime = SimTime::from_ns(300);
/// Per-tuple probe cost.
pub const PROBE_COST: SimTime = SimTime::from_ns(250);
/// Per-tuple partition-phase CPU cost (hash, route, bookkeeping).
pub const ROUTE_COST: SimTime = SimTime::from_ns(90);

/// Join experiment configuration.
#[derive(Clone, Debug)]
pub struct JoinConfig {
    /// Executors θ (paper sweeps 4 and 16; Fig 16b sweeps 1–16).
    pub executors: usize,
    /// Batch size λ for the partition shuffle.
    pub batch: usize,
    /// Tuples per relation (paper: 16 M; Fig 17 scales 2^24–2^26).
    pub tuples: u64,
    /// Tuple size in bytes (≥16; Fig 18 sweeps 64–4096).
    pub tuple_bytes: u64,
    /// Partition-phase batching strategy (paper: SGL; SP for Fig 18).
    pub strategy: Strategy,
    /// Socket-affine placement or oblivious.
    pub numa: bool,
    /// Cluster size.
    pub machines: usize,
    /// Materialize bytes and check the join result (small scales only).
    pub verify: bool,
    /// Run seed.
    pub seed: u64,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig {
            executors: 4,
            batch: 16,
            tuples: 1 << 16,
            tuple_bytes: 16,
            strategy: Strategy::Sgl,
            numa: true,
            machines: 8,
            verify: true,
            seed: 42,
        }
    }
}

/// Measured outcome of one distributed join.
#[derive(Clone, Debug)]
pub struct JoinReport {
    /// End-to-end execution time (partition + build-probe).
    pub time: SimTime,
    /// Partition-phase makespan alone.
    pub partition_time: SimTime,
    /// Join result rows (equals the outer cardinality by construction).
    pub matches: u64,
    /// Whether the materialized join checked out (verify mode only).
    pub verified: bool,
    /// Partition-phase host CPU busy time across executors (Fig 18).
    pub cpu_busy: SimTime,
}

/// Execution time of the single-machine baseline: scan-free build + probe
/// over `tuples`-row relations on one core.
pub fn single_machine_time(tuples: u64) -> SimTime {
    BUILD_COST * tuples + PROBE_COST * tuples
}

fn place(machines: usize, e: usize) -> (usize, usize) {
    (e % machines, (e / machines) % 2)
}

struct Counts {
    /// (inner, outer) tuples received, indexed [producer][consumer].
    matrix: Vec<Vec<(u64, u64)>>,
    cpu_busy: SimTime,
}

impl Counts {
    fn received(&self, consumer: usize) -> (u64, u64) {
        self.matrix
            .iter()
            .fold((0, 0), |acc, row| (acc.0 + row[consumer].0, acc.1 + row[consumer].1))
    }
}

struct PartitionExecutor {
    id: usize,
    machine: usize,
    parts: usize,
    batch: usize,
    strategy: Strategy,
    tuple_bytes: u64,
    input: MrId,
    staging: MrId,
    /// (key, is_outer) source stream: inner first, then outer.
    produced: u64,
    inner_total: u64,
    /// First global inner key owned by this producer (timing mode).
    inner_base: u64,
    total: u64,
    rng: SimRng,
    tuples_global: u64,
    verify: bool,
    pending: Vec<Vec<u64>>,
    pending_kind: Vec<Vec<bool>>,
    /// One relation's gather list, reused by every flush.
    sges: Vec<Sge>,
    conns: Vec<Option<ConnId>>,
    /// Per-consumer (inner slab region+offset, outer slab region+offset).
    slabs: Vec<[(MrId, u64); 2]>,
    counts: Rc<RefCell<Counts>>,
    route_cost: SimTime,
}

impl PartitionExecutor {
    /// The key of source tuple `i` of this producer. In verify mode keys
    /// were materialized into the input region; in timing mode they're
    /// derived deterministically without touching memory.
    fn key_of(&mut self, tb: &Testbed, i: u64) -> (u64, bool) {
        let is_outer = i >= self.inner_total;
        if self.verify {
            let key = tb.machine(self.machine).mem.load_u64(self.input, i * self.tuple_bytes);
            (key, is_outer)
        } else if is_outer {
            (self.rng.gen_range(self.tuples_global), true)
        } else {
            // Inner share of this producer: globally unique keys.
            (self.inner_base + i, false)
        }
    }

    fn flush(&mut self, tb: &mut Testbed, now: SimTime, dest: usize) -> SimTime {
        let bufs = &mut self.sges;
        let mut done = now;
        // Split by relation so each lands in its own slab (build side must
        // be separable from probe side at the consumer).
        for rel in 0..2usize {
            bufs.clear();
            bufs.extend(
                self.pending[dest]
                    .iter()
                    .zip(&self.pending_kind[dest])
                    .filter(|(_, &k)| (k as usize) == rel)
                    .map(|(&o, _)| Sge::new(self.input, o, self.tuple_bytes)),
            );
            if bufs.is_empty() {
                continue;
            }
            let n = bufs.len() as u64;
            let (region, off) = self.slabs[dest][rel];
            let t = match self.conns[dest] {
                None => {
                    let mut t = now;
                    let mut cursor = off;
                    for sge in bufs.iter() {
                        tb.machine_mut(self.machine)
                            .mem
                            .copy_within(sge.mr, sge.offset, region, cursor, sge.len);
                        cursor += sge.len;
                        t += tb.cfg.host.memcpy_cost(sge.len as usize) + tb.cfg.host.l1_touch;
                    }
                    let mut c = self.counts.borrow_mut();
                    c.cpu_busy += t - now;
                    t
                }
                Some(conn) => {
                    let out = batched_write(
                        tb,
                        now,
                        conn,
                        self.strategy,
                        bufs,
                        Some(self.staging),
                        &RemoteDst::Contiguous(RKey(region.0 as u64), off),
                    );
                    self.counts.borrow_mut().cpu_busy += out.cpu_busy;
                    out.done
                }
            };
            self.slabs[dest][rel].1 += n * self.tuple_bytes;
            {
                let mut c = self.counts.borrow_mut();
                if rel == 0 {
                    c.matrix[self.id][dest].0 += n;
                } else {
                    c.matrix[self.id][dest].1 += n;
                }
            }
            done = done.max(t);
        }
        self.pending[dest].clear();
        self.pending_kind[dest].clear();
        done
    }
}

impl Client for PartitionExecutor {
    fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
        let mut t = now;
        while self.produced < self.total {
            let i = self.produced;
            let (key, is_outer) = self.key_of(tb, i);
            let dest = partition_of(key, self.parts);
            t += self.route_cost;
            self.counts.borrow_mut().cpu_busy += self.route_cost;
            self.produced += 1;
            self.pending[dest].push(i * self.tuple_bytes);
            self.pending_kind[dest].push(is_outer);
            if self.pending[dest].len() >= self.batch {
                return Step::Yield(self.flush(tb, t, dest));
            }
        }
        if let Some(dest) = (0..self.parts).find(|&d| !self.pending[d].is_empty()) {
            let done = self.flush(tb, t, dest);
            return Step::Yield(done);
        }
        Step::Done
    }
}

/// The analyzable form of one partition executor's verb sequence:
/// producer 0's slab geometry from [`run_join`] plus one flush per
/// relation to a remote consumer, shaped by the configured strategy —
/// a λ-entry SGL gather ([`Strategy::Sgl`]) or one staged contiguous
/// write ([`Strategy::Sp`]). A λ beyond the device's `max_sge` makes
/// `verbcheck` report W201 on the SGL form.
pub fn verb_program(cfg: &JoinConfig) -> verbcheck::VerbProgram {
    use rnicsim::{QpNum, VerbKind, WorkRequest, WrId};
    let base_share = cfg.tuples / cfg.executors as u64;
    let slab = ((base_share + 1) / cfg.executors as u64 + 16) * 2 * cfg.tuple_bytes + 4096;
    let mut p = verbcheck::VerbProgram::new();
    let (pm, ps) = place(cfg.machines, 0);
    let (cm, cs) = place(cfg.machines, 1);
    let recv_socket = if cfg.numa { cs } else { 1 - cs };
    // Consumer 1's [inner | outer] receive regions.
    let recv = [MrId(0), MrId(1)];
    p.mr(cm, recv[0], recv_socket, slab * cfg.executors as u64);
    p.mr(cm, recv[1], recv_socket, slab * cfg.executors as u64);
    // Producer 0's input (both relations' share) and staging.
    let input = MrId(0);
    let staging = MrId(1);
    p.mr(pm, input, ps, 2 * (base_share + 1) * cfg.tuple_bytes + 4096);
    p.mr(pm, staging, ps, 64 * cfg.tuple_bytes + 4096);
    let conn = QpNum(0);
    p.qp(conn, pm, cm, ps, cs);

    let batch = cfg.batch.max(1) as u64;
    for rel in 0..2u64 {
        // Producer 0's slab inside the relation's region starts at 0.
        let dst = RKey(recv[rel as usize].0 as u64);
        match cfg.strategy {
            Strategy::Sgl => {
                let sgl: Vec<Sge> = (0..batch)
                    .map(|i| Sge::new(input, (rel * batch + i) * cfg.tuple_bytes, cfg.tuple_bytes))
                    .collect();
                p.post(
                    conn,
                    WorkRequest {
                        wr_id: WrId(rel),
                        kind: VerbKind::Write,
                        sgl: sgl.into(),
                        remote: Some((dst, 0)),
                        signaled: true,
                    },
                );
            }
            _ => {
                // Sp (and the doorbell fallback) send one contiguous
                // staged write per flush.
                p.post(
                    conn,
                    WorkRequest::write(rel, Sge::new(staging, 0, batch * cfg.tuple_bytes), dst, 0),
                );
            }
        }
        p.poll(conn, 1);
    }
    p
}

/// Run the distributed join.
pub fn run_join(cfg: &JoinConfig) -> JoinReport {
    assert!(cfg.tuple_bytes >= 16, "tuples carry a key and a payload");
    assert!(cfg.executors >= 2, "distributed join needs ≥ 2 executors");
    let mut tb = Testbed::new(ClusterConfig { machines: cfg.machines, ..Default::default() });
    let root_rng = SimRng::new(cfg.seed);

    // Per-producer shares: the first (tuples % executors) producers carry
    // one extra tuple so nothing is dropped when θ doesn't divide n.
    let base_share = cfg.tuples / cfg.executors as u64;
    let remainder = cfg.tuples % cfg.executors as u64;
    let share_of = |p: usize| base_share + u64::from((p as u64) < remainder);
    let start_of = |p: usize| {
        let p = p as u64;
        p * base_share + p.min(remainder)
    };
    let slab = ((base_share + 1) / cfg.executors as u64 + 16) * 2 * cfg.tuple_bytes + 4096;

    // Receive regions per consumer: [inner | outer] slab areas.
    let mut recv: Vec<[MrId; 2]> = Vec::new();
    for c in 0..cfg.executors {
        let (m, s) = place(cfg.machines, c);
        let socket = if cfg.numa { s } else { 1 - s };
        let mk = |tb: &mut Testbed| {
            if cfg.verify {
                tb.register(m, socket, slab * cfg.executors as u64)
            } else {
                tb.register_unbacked(m, socket, slab * cfg.executors as u64)
            }
        };
        recv.push([mk(&mut tb), mk(&mut tb)]);
    }

    // Materialize inputs in verify mode.
    let pair = if cfg.verify {
        Some(workloads::generate_relations(cfg.tuples, &mut root_rng.split(999)))
    } else {
        None
    };

    let counts = Rc::new(RefCell::new(Counts {
        matrix: vec![vec![(0, 0); cfg.executors]; cfg.executors],
        cpu_busy: SimTime::ZERO,
    }));
    let mut clients: Vec<Box<dyn Client>> = Vec::new();
    for p in 0..cfg.executors {
        let (machine, socket) = place(cfg.machines, p);
        let share = share_of(p);
        let total = share * 2;
        let input_len = total * cfg.tuple_bytes + 4096;
        let input = if cfg.verify {
            let mr = tb.register(machine, socket, input_len);
            let pair = pair.as_ref().expect("verify mode");
            let lo = start_of(p);
            for (i, t) in pair.inner[lo as usize..(lo + share) as usize].iter().enumerate() {
                let mut bytes = vec![0u8; cfg.tuple_bytes as usize];
                bytes[..8].copy_from_slice(&t.key.to_le_bytes());
                bytes[8..16].copy_from_slice(&t.payload.to_le_bytes());
                tb.machine_mut(machine).mem.write(mr, i as u64 * cfg.tuple_bytes, &bytes);
            }
            for (i, t) in pair.outer[lo as usize..(lo + share) as usize].iter().enumerate() {
                let mut bytes = vec![0u8; cfg.tuple_bytes as usize];
                bytes[..8].copy_from_slice(&t.key.to_le_bytes());
                bytes[8..16].copy_from_slice(&t.payload.to_le_bytes());
                tb.machine_mut(machine).mem.write(mr, (share + i as u64) * cfg.tuple_bytes, &bytes);
            }
            mr
        } else {
            tb.register_unbacked(machine, socket, input_len)
        };
        let staging = tb.register(machine, socket, (cfg.batch as u64 + 1) * cfg.tuple_bytes + 4096);

        let mut conns = Vec::new();
        let mut slabs = Vec::new();
        for c in 0..cfg.executors {
            let (cm, cs) = place(cfg.machines, c);
            if cm == machine {
                conns.push(None);
            } else {
                let (cl, sv) = if cfg.numa {
                    (Endpoint::affine(machine, socket), Endpoint::affine(cm, cs))
                } else {
                    (
                        Endpoint { machine, port: socket, core_socket: 1 - socket },
                        Endpoint { machine: cm, port: cs, core_socket: 1 - cs },
                    )
                };
                conns.push(Some(tb.connect(cl, sv)));
            }
            slabs.push([(recv[c][0], p as u64 * slab), (recv[c][1], p as u64 * slab)]);
        }

        clients.push(Box::new(PartitionExecutor {
            id: p,
            machine,
            parts: cfg.executors,
            batch: cfg.batch,
            strategy: cfg.strategy,
            tuple_bytes: cfg.tuple_bytes,
            input,
            staging,
            produced: 0,
            inner_total: share,
            inner_base: start_of(p),
            total,
            rng: root_rng.split(p as u64),
            tuples_global: cfg.tuples,
            verify: cfg.verify,
            pending: vec![Vec::new(); cfg.executors],
            pending_kind: vec![Vec::new(); cfg.executors],
            sges: Vec::new(),
            conns,
            slabs,
            counts: Rc::clone(&counts),
            route_cost: ROUTE_COST,
        }));
    }

    let partition_time = run_clients(&mut tb, &mut clients, SimTime::MAX);
    drop(clients);

    // Build-probe phase: per-executor compute, all in parallel; in verify
    // mode really join the received bytes.
    let c = counts.borrow();
    let mut compute_max = SimTime::ZERO;
    let mut matches = 0u64;
    let mut verified = true;
    for e in 0..cfg.executors {
        let (inner_n, outer_n) = c.received(e);
        compute_max = compute_max.max(BUILD_COST * inner_n + PROBE_COST * outer_n);
        if cfg.verify {
            let (m, _) = place(cfg.machines, e);
            let mut table: HashMap<u64, u64> = HashMap::new();
            // Build: scan exactly the tuples each producer delivered.
            for p in 0..cfg.executors {
                let (got_inner, _) = c.matrix[p][e];
                for i in 0..got_inner {
                    let off = p as u64 * slab + i * cfg.tuple_bytes;
                    let raw = tb.machine(m).mem.read(recv[e][0], off, 16);
                    let key = u64::from_le_bytes(raw[..8].try_into().expect("8"));
                    let payload = u64::from_le_bytes(raw[8..16].try_into().expect("8"));
                    if partition_of(key, cfg.executors) != e {
                        verified = false;
                    }
                    table.insert(key, payload);
                }
            }
            // Probe.
            for p in 0..cfg.executors {
                let (_, got_outer) = c.matrix[p][e];
                for i in 0..got_outer {
                    let off = p as u64 * slab + i * cfg.tuple_bytes;
                    let raw = tb.machine(m).mem.read(recv[e][1], off, 16);
                    let key = u64::from_le_bytes(raw[..8].try_into().expect("8"));
                    if table.get(&key) == Some(&key.wrapping_mul(0x9E37_79B9)) {
                        matches += 1;
                    } else {
                        verified = false;
                    }
                }
            }
        }
    }
    if cfg.verify && matches != cfg.tuples {
        verified = false;
    }
    if !cfg.verify {
        // Timing mode: the result size is the outer cardinality by
        // construction.
        matches = cfg.tuples;
    }

    JoinReport {
        time: partition_time + compute_max,
        partition_time,
        matches,
        verified,
        cpu_busy: c.cpu_busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verified_join_finds_every_match() {
        let r = run_join(&JoinConfig { tuples: 1 << 12, executors: 4, ..Default::default() });
        assert!(r.verified, "join result mismatch");
        assert_eq!(r.matches, 1 << 12);
    }

    #[test]
    fn batching_speeds_up_the_join() {
        let base =
            JoinConfig { tuples: 1 << 14, executors: 4, verify: false, ..Default::default() };
        let no_batch = run_join(&JoinConfig { batch: 1, ..base.clone() });
        let batched = run_join(&JoinConfig { batch: 16, ..base });
        assert!(
            batched.time < no_batch.time.scale(80, 100),
            "batched {} vs unbatched {}",
            batched.time,
            no_batch.time
        );
    }

    #[test]
    fn more_executors_reduce_time_sublinearly() {
        let base = JoinConfig { tuples: 1 << 15, verify: false, batch: 16, ..Default::default() };
        let four = run_join(&JoinConfig { executors: 4, ..base.clone() });
        let sixteen = run_join(&JoinConfig { executors: 16, ..base });
        let speedup = four.time.as_ns() / sixteen.time.as_ns();
        assert!(speedup > 2.0, "4→16 executors speedup {speedup}");
        assert!(speedup < 4.5, "superlinear? {speedup}");
    }

    #[test]
    fn distributed_beats_single_machine_with_batching() {
        let cfg = JoinConfig {
            tuples: 1 << 16,
            executors: 16,
            batch: 16,
            verify: false,
            ..Default::default()
        };
        let dist = run_join(&cfg);
        let single = single_machine_time(cfg.tuples);
        let speedup = single.as_ns() / dist.time.as_ns();
        assert!(speedup > 3.0, "speedup {speedup}");
    }

    #[test]
    fn numa_awareness_reduces_time() {
        let base = JoinConfig {
            tuples: 1 << 14,
            executors: 4,
            verify: false,
            batch: 4,
            ..Default::default()
        };
        let affine = run_join(&JoinConfig { numa: true, ..base.clone() });
        let oblivious = run_join(&JoinConfig { numa: false, ..base });
        assert!(affine.time < oblivious.time, "{} vs {}", affine.time, oblivious.time);
    }

    #[test]
    fn sgl_burns_less_cpu_than_sp_at_large_tuples() {
        let base = JoinConfig {
            tuples: 1 << 13,
            executors: 7,
            batch: 16,
            tuple_bytes: 4096,
            verify: false,
            ..Default::default()
        };
        let sgl = run_join(&JoinConfig { strategy: Strategy::Sgl, ..base.clone() });
        let sp = run_join(&JoinConfig { strategy: Strategy::Sp, ..base });
        let ratio = sgl.cpu_busy.as_ns() / sp.cpu_busy.as_ns();
        // Paper: SGL cuts CPU cost by ~67 % at 4 KB entries.
        assert!(ratio < 0.6, "sgl/sp cpu ratio {ratio}");
    }
}
