//! The multi-tenant transaction service: N tenants multiplexed over M
//! shared QPs with per-tenant quotas, a deficit-round-robin fairness
//! scheduler, and per-tenant telemetry.
//!
//! # Structure
//!
//! One [`TxnService`] is one `cluster::Client` (so whole services pin to
//! machines and shard with the pod they live in). It owns:
//!
//! * a **QP pool** — M connection *slots*, each a `ConnId` plus a private
//!   staging window. A transaction occupies its slot from dispatch to
//!   commit/abort-final, so concurrent transactions never share staging
//!   bytes (which would be an E005 write-write race).
//! * **tenant queues** — each tenant is a pre-drawn, arrival-ordered
//!   schedule of [`TxnRequest`]s plus a FIFO of admitted-but-undispatched
//!   requests, bounded by the tenant's in-flight quota.
//! * the **scheduler** — FIFO (arrival order, the no-isolation baseline)
//!   or deficit round-robin over estimated verb cost.
//!
//! # DRR invariants
//!
//! * Each full cursor rotation credits every backlogged tenant exactly one
//!   `quantum` of verb budget, so long-run dispatched-verb share of any
//!   two continuously-backlogged tenants is 1:1 regardless of how cheap
//!   or expensive their transactions are — an aggressor issuing big
//!   multi-record transactions cannot starve a small-transaction tenant.
//! * A tenant's deficit persists only while it is backlogged; going idle
//!   resets it to zero (no credit hoarding — standard DRR).
//! * Dispatch order within one `step()` is a pure function of queue
//!   state and the cursor, so the schedule is deterministic and identical
//!   under sharding (the service is wholly inside one shard).
//!
//! # Quotas
//!
//! A tenant never holds more than `quota` slots at once, however deep its
//! backlog — the RDMAvisor-style isolation knob that keeps one tenant
//! from monopolising the QP pool between scheduler decisions.

use crate::protocol::{
    staging_window, Advance, Concurrency, RetryPolicy, TxnMachine, TxnRequest, TxnStats,
};
use crate::table::TxnTable;
use cluster::{ConnId, Step, Testbed};
use rnicsim::MrId;
use simcore::{Fnv64, LatencyHistogram, Meter, SimRng, SimTime};
use std::collections::VecDeque;

/// Scheduling discipline for the shared QP pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// Global arrival order, no isolation — the fairness baseline.
    Fifo,
    /// Deficit round-robin over estimated verb cost.
    Drr {
        /// Verb budget credited per backlogged tenant per rotation.
        quantum: u64,
    },
}

impl Scheduler {
    /// Stable lowercase name (used in experiment tables).
    pub fn name(&self) -> &'static str {
        match self {
            Scheduler::Fifo => "fifo",
            Scheduler::Drr { .. } => "drr",
        }
    }
}

/// Service-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Scheduling discipline.
    pub scheduler: Scheduler,
    /// Concurrency-control mode for every transaction.
    pub concurrency: Concurrency,
    /// Retry policy for every transaction.
    pub policy: RetryPolicy,
    /// Local compute charged between read and lock/write phases.
    pub hold: SimTime,
    /// Largest read set any request may carry (sizes staging windows).
    pub cap_reads: usize,
    /// Telemetry warmup: completions before this are not metered.
    pub warmup: SimTime,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            scheduler: Scheduler::Drr { quantum: 8 },
            concurrency: Concurrency::Optimistic,
            policy: RetryPolicy::default(),
            hold: SimTime::from_ns(200),
            cap_reads: 4,
            warmup: SimTime::ZERO,
        }
    }
}

/// One tenant's workload and isolation settings.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Max transactions in flight (slots held) at once.
    pub quota: usize,
    /// Arrival-ordered request schedule (times strictly increasing is not
    /// required, non-decreasing is).
    pub schedule: Vec<(SimTime, TxnRequest)>,
}

/// Per-tenant telemetry, readable after the run.
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// End-to-end transaction latency (arrival → commit), post-warmup.
    pub hist: LatencyHistogram,
    /// Commit-completion meter (achieved transaction throughput).
    pub meter: Meter,
    /// Protocol accounting folded across this tenant's transactions.
    pub txn: TxnStats,
    /// Requests admitted from the schedule.
    pub admitted: u64,
    /// Transactions finished (committed or permanently failed).
    pub completed: u64,
}

impl TenantStats {
    fn new(warmup: SimTime) -> Self {
        TenantStats {
            hist: LatencyHistogram::new(),
            meter: Meter::new(warmup),
            txn: TxnStats::default(),
            admitted: 0,
            completed: 0,
        }
    }

    /// Combined determinism token: latency buckets + abort accounting.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for v in [self.hist.digest(), self.txn.digest(), self.admitted, self.completed] {
            h.u64(v);
        }
        h.finish()
    }
}

struct Tenant {
    quota: usize,
    /// Remaining schedule, reversed so admission pops from the back.
    schedule: Vec<(SimTime, TxnRequest)>,
    /// Admitted, waiting for a slot (front = oldest).
    pending: VecDeque<(SimTime, TxnRequest)>,
    inflight: usize,
    deficit: u64,
    rng: SimRng,
    /// Requests dispatched so far (per-request RNG stream id).
    seq: u64,
    stats: TenantStats,
}

struct Running {
    tenant: usize,
    arrival: SimTime,
    resume_at: SimTime,
    machine: TxnMachine,
}

struct Slot {
    conn: ConnId,
    staging_base: u64,
    running: Option<Running>,
}

/// The multi-tenant transaction service (one per pod; a `cluster::Client`).
pub struct TxnService {
    table: TxnTable,
    cfg: ServiceConfig,
    staging: MrId,
    slots: Vec<Slot>,
    tenants: Vec<Tenant>,
    /// DRR cursor: next tenant to visit.
    cursor: usize,
}

/// Staging bytes a service with `qps` slots needs for a table with this
/// stride and the given read-set cap.
pub fn staging_bytes(qps: usize, cap_reads: usize, stride: u64) -> u64 {
    qps as u64 * staging_window(cap_reads, stride)
}

impl TxnService {
    /// Build a service over `conns` (one per QP slot) staging into
    /// `staging`, which must hold [`staging_bytes`] for the slot count.
    /// Tenant RNG streams split deterministically from `rng`.
    pub fn new(
        table: TxnTable,
        cfg: ServiceConfig,
        conns: Vec<ConnId>,
        staging: MrId,
        specs: Vec<TenantSpec>,
        rng: &SimRng,
    ) -> Self {
        assert!(!conns.is_empty(), "need at least one QP slot");
        assert!(!specs.is_empty(), "need at least one tenant");
        let window = staging_window(cfg.cap_reads, table.stride());
        let slots = conns
            .into_iter()
            .enumerate()
            .map(|(s, conn)| Slot { conn, staging_base: s as u64 * window, running: None })
            .collect();
        let tenants = specs
            .into_iter()
            .enumerate()
            .map(|(t, spec)| {
                assert!(spec.quota >= 1, "tenant quota must be at least 1");
                debug_assert!(
                    spec.schedule.windows(2).all(|w| w[0].0 <= w[1].0),
                    "schedule must be arrival-ordered"
                );
                let mut schedule = spec.schedule;
                schedule.reverse();
                Tenant {
                    quota: spec.quota,
                    schedule,
                    pending: VecDeque::new(),
                    inflight: 0,
                    deficit: 0,
                    rng: rng.split(3000 + t as u64),
                    seq: 0,
                    stats: TenantStats::new(cfg.warmup),
                }
            })
            .collect();
        TxnService { table, cfg, staging, slots, tenants, cursor: 0 }
    }

    /// Per-tenant telemetry, in tenant order.
    pub fn tenant_stats(&self) -> Vec<&TenantStats> {
        self.tenants.iter().map(|t| &t.stats).collect()
    }

    /// Fold every tenant's protocol accounting (tenant order).
    pub fn total_txn_stats(&self) -> TxnStats {
        let mut out = TxnStats::default();
        for t in &self.tenants {
            out.merge(&t.stats.txn);
        }
        out
    }

    /// Digest over all tenants, in tenant order — the service-level
    /// determinism token.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for t in &self.tenants {
            h.u64(t.stats.digest());
        }
        h.finish()
    }

    fn admit(&mut self, now: SimTime) {
        for t in &mut self.tenants {
            while t.schedule.last().is_some_and(|(at, _)| *at <= now) {
                let entry = t.schedule.pop().unwrap();
                t.stats.admitted += 1;
                t.pending.push_back(entry);
            }
        }
    }

    /// Whether tenant `t` can dispatch right now.
    fn eligible(&self, t: usize) -> bool {
        let ten = &self.tenants[t];
        !ten.pending.is_empty() && ten.inflight < ten.quota
    }

    fn free_slot(&self) -> Option<usize> {
        self.slots.iter().position(|s| s.running.is_none())
    }

    /// Move one pending request of tenant `t` into slot `s` and run its
    /// first protocol step at `now`.
    fn dispatch(&mut self, tb: &mut Testbed, now: SimTime, t: usize, s: usize) {
        let ten = &mut self.tenants[t];
        let (arrival, req) = ten.pending.pop_front().expect("dispatch without pending");
        let rng = ten.rng.split(ten.seq);
        ten.seq += 1;
        ten.inflight += 1;
        let slot = &self.slots[s];
        let mut machine = TxnMachine::new(
            self.table,
            slot.conn,
            self.staging,
            slot.staging_base,
            self.cfg.cap_reads,
            self.cfg.concurrency,
            self.cfg.policy,
            self.cfg.hold,
            req,
            rng,
        );
        let resume_at = match machine.advance(tb, now) {
            Advance::Continue(at) => at,
            Advance::Done(at) => {
                self.retire(t, arrival, at, &machine);
                return;
            }
        };
        self.slots[s].running = Some(Running { tenant: t, arrival, resume_at, machine });
    }

    fn retire(&mut self, t: usize, arrival: SimTime, done: SimTime, machine: &TxnMachine) {
        let ten = &mut self.tenants[t];
        ten.inflight -= 1;
        ten.stats.completed += 1;
        ten.stats.txn.merge(&machine.stats);
        ten.stats.meter.record(done);
        if arrival >= self.cfg.warmup {
            ten.stats.hist.record(done - arrival);
        }
    }

    /// Fill free slots according to the scheduling discipline.
    fn schedule(&mut self, tb: &mut Testbed, now: SimTime) {
        match self.cfg.scheduler {
            Scheduler::Fifo => {
                while let Some(s) = self.free_slot() {
                    // Oldest eligible head wins; tenant index breaks ties.
                    let pick = (0..self.tenants.len())
                        .filter(|&t| self.eligible(t))
                        .min_by_key(|&t| (self.tenants[t].pending[0].0, t));
                    let Some(t) = pick else { break };
                    self.dispatch(tb, now, t, s);
                }
            }
            Scheduler::Drr { quantum } => {
                let n = self.tenants.len();
                'outer: while self.free_slot().is_some() {
                    // Find the next eligible tenant; idle tenants passed
                    // over lose their deficit (no credit hoarding).
                    let mut scanned = 0;
                    while scanned < n && !self.eligible(self.cursor) {
                        self.tenants[self.cursor].deficit = 0;
                        self.cursor = (self.cursor + 1) % n;
                        scanned += 1;
                    }
                    if scanned == n {
                        break;
                    }
                    let t = self.cursor;
                    self.tenants[t].deficit += quantum;
                    while self.eligible(t) {
                        let cost = self.tenants[t].pending[0].1.verb_cost();
                        if self.tenants[t].deficit < cost {
                            break;
                        }
                        let Some(s) = self.free_slot() else {
                            // Pool exhausted mid-service: keep the deficit,
                            // keep the cursor — this tenant resumes first.
                            break 'outer;
                        };
                        self.tenants[t].deficit -= cost;
                        self.dispatch(tb, now, t, s);
                    }
                    if self.tenants[t].pending.is_empty() {
                        self.tenants[t].deficit = 0;
                    }
                    self.cursor = (self.cursor + 1) % n;
                }
            }
        }
    }

    fn next_arrival(&self) -> Option<SimTime> {
        self.tenants.iter().filter_map(|t| t.schedule.last().map(|(at, _)| *at)).min()
    }
}

impl cluster::Client for TxnService {
    fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
        // 1. Advance due transactions, in slot order. One protocol step
        // per slot per engine step: every advance lands strictly in the
        // future, so a loop here could never run twice anyway.
        for s in 0..self.slots.len() {
            let due = self.slots[s].running.as_ref().is_some_and(|r| r.resume_at <= now);
            if !due {
                continue;
            }
            let mut running = self.slots[s].running.take().unwrap();
            match running.machine.advance(tb, now) {
                Advance::Continue(at) => {
                    debug_assert!(at > now, "txn resume time must advance");
                    running.resume_at = at;
                    self.slots[s].running = Some(running);
                }
                Advance::Done(at) => {
                    self.retire(running.tenant, running.arrival, at, &running.machine);
                }
            }
        }
        // 2. Admit arrivals that have come due, then 3. fill free slots.
        self.admit(now);
        self.schedule(tb, now);
        // 4. Sleep until the next resume or arrival.
        let mut wake = SimTime::MAX;
        for s in &self.slots {
            if let Some(r) = &s.running {
                wake = wake.min(r.resume_at);
            }
        }
        if let Some(at) = self.next_arrival() {
            wake = wake.min(at);
        }
        if wake == SimTime::MAX {
            debug_assert!(self.tenants.iter().all(|t| t.pending.is_empty() && t.inflight == 0));
            return Step::Done;
        }
        debug_assert!(wake > now, "service wake time must advance");
        Step::Yield(wake)
    }
}
