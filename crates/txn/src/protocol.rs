//! The transaction protocol: optimistic version-validated reads plus
//! lock-based writes with bounded retry (the Storm shape), as a
//! one-verb-per-step state machine.
//!
//! # Protocol (optimistic)
//!
//! 1. **Read** — one RDMA READ per read-set record fetches the whole
//!    record (lock, version, value). A record observed locked is a
//!    conflict: abort and retry after backoff (a locked value may be
//!    mid-write, so its bytes cannot be trusted).
//! 2. **Lock** — one CAS(0→1) per write-set record, in ascending record
//!    order (global order ⇒ no deadlock). A failing CAS retries in place
//!    under exponential backoff; after `cas_budget` failures the whole
//!    transaction aborts, releasing any locks it already holds.
//! 3. **Validate** — one 8-byte READ per read-set record re-fetches the
//!    version; any change since step 1 aborts. Write-set versions are
//!    (re)read here too — the commit needs them for the bump, and a
//!    write-set record that is also in the read set validates against its
//!    snapshot (its lock is held, so the version is now stable).
//! 4. **Write** — one WRITE per write-set record stores the new value.
//! 5. **Commit** — one 16-byte WRITE per write-set record clears the lock
//!    *and* bumps the version in a single verb (`[0, v+1]` spans both
//!    header words). The last commit write's CQE is the commit point.
//!
//! The **locked** (pessimistic) variant skips optimistic reads entirely:
//! lock first, read under the lock, write, release. It never aborts on
//! validation — it pays two extra hold-time verbs per record instead,
//! which is exactly the trade the contention experiments measure.
//!
//! # Determinism
//!
//! Every abort, retry, and backoff delay is a pure function of the
//! testbed interleaving and the machine's seeded [`SimRng`], so abort
//! accounting is byte-identical across serial and sharded runs.

use crate::table::{RecId, TxnTable, VALUE_OFF, VERSION_OFF};
use cluster::{ConnId, Testbed};
use remem::Backoff;
use rnicsim::{CqeStatus, MrId, Sge, VerbKind, WorkRequest, WrId};
use simcore::{SimRng, SimTime};

/// What a transactional write stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOp {
    /// Read-modify-write: add this delta to the record's leading `u64`
    /// counter (the record must be in the read set, or the transaction
    /// must run in locked mode — the add needs a trustworthy base value).
    Add(u64),
    /// Blind write: store a value derived from this seed, ignoring the
    /// record's prior contents.
    Put(u64),
}

/// One write-set entry.
#[derive(Clone, Copy, Debug)]
pub struct TxnWrite {
    /// Target record.
    pub rec: RecId,
    /// What to store.
    pub op: WriteOp,
}

/// One transaction request: what to read and what to write.
///
/// `reads` and `writes` must be sorted by record id and duplicate-free
/// ([`TxnRequest::new`] enforces both); sorted lock order is the deadlock
/// freedom argument.
#[derive(Clone, Debug, Default)]
pub struct TxnRequest {
    /// Records read (optimistically in [`Concurrency::Optimistic`] mode).
    pub reads: Vec<RecId>,
    /// Records written under their record locks.
    pub writes: Vec<TxnWrite>,
}

impl TxnRequest {
    /// Build a request, sorting and deduplicating both sets.
    pub fn new(mut reads: Vec<RecId>, mut writes: Vec<TxnWrite>) -> Self {
        reads.sort_unstable();
        reads.dedup();
        writes.sort_unstable_by_key(|w| w.rec);
        writes.dedup_by_key(|w| w.rec);
        assert!(!reads.is_empty() || !writes.is_empty(), "empty transaction");
        TxnRequest { reads, writes }
    }

    /// A read-only transaction.
    pub fn read_only(reads: Vec<RecId>) -> Self {
        Self::new(reads, Vec::new())
    }

    /// A read-modify-write incrementing `rec`'s counter by `delta`.
    pub fn rmw(rec: RecId, delta: u64) -> Self {
        Self::new(vec![rec], vec![TxnWrite { rec, op: WriteOp::Add(delta) }])
    }

    /// Verbs a conflict-free optimistic execution of this request posts —
    /// the deficit-round-robin cost unit of the service scheduler.
    pub fn verb_cost(&self) -> u64 {
        // reads + validates (reads ∪ writes) + locks + writes + commits.
        let validates = self.validate_len();
        self.reads.len() as u64 + validates + 3 * self.writes.len() as u64
    }

    fn validate_len(&self) -> u64 {
        let extra =
            self.writes.iter().filter(|w| self.reads.binary_search(&w.rec).is_err()).count();
        (self.reads.len() + extra) as u64
    }
}

/// Concurrency-control mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Concurrency {
    /// Storm-style: optimistic version-validated reads, lock-based writes.
    Optimistic,
    /// Pessimistic baseline: lock first, read under the lock.
    Locked,
}

impl Concurrency {
    /// Stable lowercase name (used in experiment tables).
    pub fn name(&self) -> &'static str {
        match self {
            Concurrency::Optimistic => "optimistic",
            Concurrency::Locked => "locked",
        }
    }
}

/// Retry policy: bounded CAS spinning plus capped exponential backoff
/// between whole-transaction attempts.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Backoff between failed CAS attempts on one lock.
    pub cas_backoff: Backoff,
    /// Failed CAS attempts on one lock before the transaction aborts.
    pub cas_budget: u32,
    /// Backoff between transaction attempts (doubles per abort, capped).
    pub abort_backoff: Backoff,
    /// Aborts after which the transaction gives up (counted as a
    /// failure). `u32::MAX` retries forever — the torture-test setting.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            cas_backoff: Backoff { base: SimTime::from_ns(300), max: SimTime::from_us(6) },
            cas_budget: 4,
            abort_backoff: Backoff { base: SimTime::from_us(1), max: SimTime::from_us(50) },
            max_retries: u32::MAX,
        }
    }
}

/// Why a transaction attempt aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortCause {
    /// An optimistic read observed a held lock.
    LockedRead,
    /// A lock acquisition exhausted its CAS budget.
    CasBudget,
    /// Version validation failed (a concurrent commit intervened).
    Validate,
}

/// Commit/abort/retry accounting, folded across transactions and tenants
/// in deterministic order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts (each may retry).
    pub aborts: u64,
    /// Aborts caused by reading a locked record.
    pub aborts_locked_read: u64,
    /// Aborts caused by CAS budget exhaustion.
    pub aborts_cas: u64,
    /// Aborts caused by version-validation failure.
    pub aborts_validate: u64,
    /// Transactions that gave up after `max_retries` aborts.
    pub failures: u64,
    /// Failed CAS attempts (including those inside aborted attempts).
    pub cas_retries: u64,
    /// Verbs posted.
    pub verbs: u64,
}

impl TxnStats {
    /// Fold `other` into `self` (commutative; callers fold in tenant
    /// order anyway so digests stay byte-stable).
    pub fn merge(&mut self, other: &TxnStats) {
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.aborts_locked_read += other.aborts_locked_read;
        self.aborts_cas += other.aborts_cas;
        self.aborts_validate += other.aborts_validate;
        self.failures += other.failures;
        self.cas_retries += other.cas_retries;
        self.verbs += other.verbs;
    }

    /// FNV-1a digest over every counter — the determinism token for
    /// abort/retry accounting (serial vs sharded runs must agree).
    pub fn digest(&self) -> u64 {
        let mut h = simcore::Fnv64::new();
        for v in [
            self.commits,
            self.aborts,
            self.aborts_locked_read,
            self.aborts_cas,
            self.aborts_validate,
            self.failures,
            self.cas_retries,
            self.verbs,
        ] {
            h.u64(v);
        }
        h.finish()
    }

    /// Aborts per commit (0 when nothing committed).
    pub fn abort_ratio(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts as f64 / self.commits as f64
        }
    }
}

/// Deterministic value image for a committed write: the leading 8 bytes
/// carry the counter, the rest a splitmix-derived pattern of
/// `(rec, counter)` so digests notice any torn or misplaced write.
pub fn value_image(rec: RecId, counter: u64, value_len: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(value_len as usize);
    out.extend_from_slice(&counter.to_le_bytes());
    let mut x = rec.wrapping_mul(0x9e3779b97f4a7c15) ^ counter;
    while (out.len() as u64) < value_len {
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(value_len as usize);
    out
}

/// What [`TxnMachine::advance`] reports back to its driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Advance {
    /// Step me again at this time (strictly after `now`).
    Continue(SimTime),
    /// The transaction finished (committed, or failed permanently) at
    /// this time.
    Done(SimTime),
}

/// One validate-phase entry: which record, the read-set slot it must
/// match (if any), and the write-set slot whose version it feeds.
#[derive(Clone, Copy, Debug)]
struct ValidateEntry {
    rec: RecId,
    read_idx: Option<usize>,
    write_idx: Option<usize>,
}

#[derive(Clone, Copy, Debug)]
enum Phase {
    Read(usize),
    Lock(usize),
    LockedRead(usize),
    Validate(usize),
    WriteVal(usize),
    Commit(usize),
    AbortUnlock(usize, AbortCause),
    Done,
}

/// Executes one [`TxnRequest`] against a [`TxnTable`], one verb per
/// [`advance`](TxnMachine::advance) call, retrying through aborts until
/// commit (or permanent failure under a finite `max_retries`).
///
/// The machine owns a staging window inside `staging`: record read
/// buffers, an 8-byte validate/CAS scratch, a 16-byte commit image, and
/// a value build area. Concurrent machines must not share windows.
pub struct TxnMachine {
    table: TxnTable,
    conn: ConnId,
    staging: MrId,
    /// Byte offset of this machine's staging window inside `staging`.
    staging_base: u64,
    /// Read buffers in the window (records the request may read).
    cap_reads: usize,
    concurrency: Concurrency,
    policy: RetryPolicy,
    /// Local compute cost charged once per attempt, between the read and
    /// lock/write phases (the lock-hold-time knob of the sweeps).
    hold: SimTime,
    req: TxnRequest,
    validates: Vec<ValidateEntry>,
    rng: SimRng,
    phase: Phase,
    /// 0-based attempt number (== aborts so far).
    attempt: u32,
    /// Failed CAS attempts on the lock currently being acquired.
    cas_attempts: u32,
    /// Version snapshot per read-set record.
    snap: Vec<u64>,
    /// Counter value per read-set record.
    vals: Vec<u64>,
    /// Version per write-set record (for the commit bump).
    wver: Vec<u64>,
    /// Locked mode only: counter per write-set record, read under the lock.
    locked_vals: Vec<u64>,
    /// Write-set locks currently held (a prefix, in lock order).
    locked: usize,
    next_wr_id: u64,
    /// Accounting for this machine's transaction.
    pub stats: TxnStats,
}

/// Staging bytes one machine needs for requests reading at most
/// `cap_reads` records of a table with this stride.
pub fn staging_window(cap_reads: usize, stride: u64) -> u64 {
    // read buffers + scratch (8) + commit image (16) + value build.
    cap_reads as u64 * stride + 8 + 16 + stride
}

impl TxnMachine {
    /// A machine for `req`, staging into the window at `staging_base`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        table: TxnTable,
        conn: ConnId,
        staging: MrId,
        staging_base: u64,
        cap_reads: usize,
        concurrency: Concurrency,
        policy: RetryPolicy,
        hold: SimTime,
        req: TxnRequest,
        rng: SimRng,
    ) -> Self {
        assert!(req.reads.len() <= cap_reads, "read set exceeds staging capacity");
        assert!(
            req.reads.windows(2).all(|w| w[0] < w[1]),
            "read set must be sorted and duplicate-free"
        );
        assert!(
            req.writes.windows(2).all(|w| w[0].rec < w[1].rec),
            "write set must be sorted and duplicate-free"
        );
        if concurrency == Concurrency::Optimistic {
            for w in &req.writes {
                if let WriteOp::Add(_) = w.op {
                    assert!(
                        req.reads.binary_search(&w.rec).is_ok(),
                        "optimistic Add needs its record in the read set"
                    );
                }
            }
        } else {
            // Locked mode reads every touched record under its lock, so
            // it needs read buffers for the write set too.
            assert!(req.writes.len() <= cap_reads, "write set exceeds staging capacity");
        }
        let validates = req
            .reads
            .iter()
            .enumerate()
            .map(|(i, &rec)| ValidateEntry {
                rec,
                read_idx: Some(i),
                write_idx: req.writes.iter().position(|w| w.rec == rec),
            })
            .chain(req.writes.iter().enumerate().filter_map(|(j, w)| {
                req.reads.binary_search(&w.rec).is_err().then_some(ValidateEntry {
                    rec: w.rec,
                    read_idx: None,
                    write_idx: Some(j),
                })
            }))
            .collect();
        let phase = match concurrency {
            Concurrency::Optimistic if !req.reads.is_empty() => Phase::Read(0),
            Concurrency::Optimistic => Phase::Lock(0),
            Concurrency::Locked if !req.writes.is_empty() => Phase::Lock(0),
            // Locked read-only still locks: lock the read records. Model
            // it as optimistic reads instead — a read-only "locked" txn
            // degenerates to read+validate, which is what Storm does too.
            Concurrency::Locked => Phase::Read(0),
        };
        let snap = vec![0; req.reads.len()];
        let vals = vec![0; req.reads.len()];
        let wver = vec![0; req.writes.len()];
        let locked_vals = vec![0; req.writes.len()];
        TxnMachine {
            table,
            conn,
            staging,
            staging_base,
            cap_reads,
            concurrency,
            policy,
            hold,
            req,
            validates,
            rng,
            phase,
            attempt: 0,
            cas_attempts: 0,
            snap,
            vals,
            wver,
            locked_vals,
            locked: 0,
            next_wr_id: 0,
            stats: TxnStats::default(),
        }
    }

    /// The request this machine executes.
    pub fn request(&self) -> &TxnRequest {
        &self.req
    }

    fn read_buf(&self, i: usize) -> u64 {
        debug_assert!(i < self.cap_reads);
        self.staging_base + i as u64 * self.table.stride()
    }

    fn scratch_off(&self) -> u64 {
        self.staging_base + self.cap_reads as u64 * self.table.stride()
    }

    fn commit_image_off(&self) -> u64 {
        self.scratch_off() + 8
    }

    fn value_build_off(&self) -> u64 {
        self.commit_image_off() + 16
    }

    fn wr_id(&mut self) -> WrId {
        self.next_wr_id += 1;
        WrId(self.next_wr_id)
    }

    fn post(&mut self, tb: &mut Testbed, now: SimTime, wr: WorkRequest) -> SimTime {
        self.stats.verbs += 1;
        let cqe = tb.post_one_ref(now, self.conn, &wr);
        debug_assert_eq!(cqe.status, CqeStatus::Success, "txn verb failed: {:?}", cqe.status);
        cqe.at
    }

    fn post_cas(&mut self, tb: &mut Testbed, now: SimTime, rec: RecId) -> (u64, SimTime) {
        self.stats.verbs += 1;
        let wr = WorkRequest {
            wr_id: WrId(self.next_wr_id),
            kind: VerbKind::CompareSwap { expected: 0, desired: 1 },
            sgl: Sge::new(self.staging, self.scratch_off(), 8).into(),
            remote: Some((self.table.rkey, self.table.lock_off(rec))),
            signaled: true,
        };
        self.next_wr_id += 1;
        let cqe = tb.post_one_ref(now, self.conn, &wr);
        debug_assert_eq!(cqe.status, CqeStatus::Success);
        (cqe.old_value, cqe.at)
    }

    /// Abort the current attempt: charge the cause, schedule the retry
    /// (or give up), and reset per-attempt state. Locks must already be
    /// released.
    fn abort(&mut self, at: SimTime, cause: AbortCause) -> Advance {
        debug_assert_eq!(self.locked, 0, "abort with locks still held");
        self.stats.aborts += 1;
        match cause {
            AbortCause::LockedRead => self.stats.aborts_locked_read += 1,
            AbortCause::CasBudget => self.stats.aborts_cas += 1,
            AbortCause::Validate => self.stats.aborts_validate += 1,
        }
        self.cas_attempts = 0;
        if self.attempt >= self.policy.max_retries {
            self.stats.failures += 1;
            self.phase = Phase::Done;
            return Advance::Done(at);
        }
        let delay = self.policy.abort_backoff.delay(self.attempt, &mut self.rng);
        self.attempt += 1;
        self.phase = match self.concurrency {
            Concurrency::Optimistic if !self.req.reads.is_empty() => Phase::Read(0),
            Concurrency::Optimistic => Phase::Lock(0),
            Concurrency::Locked if !self.req.writes.is_empty() => Phase::Lock(0),
            Concurrency::Locked => Phase::Read(0),
        };
        Advance::Continue(at + delay)
    }

    /// After the locks are all held: where to next.
    fn after_locks(&self) -> Phase {
        match self.concurrency {
            Concurrency::Optimistic => Phase::Validate(0),
            Concurrency::Locked => Phase::LockedRead(0),
        }
    }

    /// Run one protocol step at `now`, posting at most one verb.
    pub fn advance(&mut self, tb: &mut Testbed, now: SimTime) -> Advance {
        match self.phase {
            Phase::Read(i) => {
                let rec = self.req.reads[i];
                let stride = self.table.stride();
                let wr_id = self.wr_id();
                let at = self.post(
                    tb,
                    now,
                    WorkRequest::read(
                        wr_id.0,
                        Sge::new(self.staging, self.read_buf(i), stride),
                        self.table.rkey,
                        self.table.lock_off(rec),
                    ),
                );
                let m = tb.client_of(self.conn).machine;
                let mem = &tb.machine(m).mem;
                let lock = mem.load_u64(self.staging, self.read_buf(i));
                if lock != 0 {
                    return self.abort(at, AbortCause::LockedRead);
                }
                self.snap[i] = mem.load_u64(self.staging, self.read_buf(i) + VERSION_OFF);
                self.vals[i] = mem.load_u64(self.staging, self.read_buf(i) + VALUE_OFF);
                if i + 1 < self.req.reads.len() {
                    self.phase = Phase::Read(i + 1);
                    return Advance::Continue(at);
                }
                if self.req.writes.is_empty() {
                    // Read-only: validate straight away (the hold models
                    // the work done on the snapshot before it is trusted).
                    self.phase = Phase::Validate(0);
                    return Advance::Continue(at + self.hold);
                }
                self.phase = Phase::Lock(0);
                Advance::Continue(at + self.hold)
            }
            Phase::Lock(i) => {
                let rec = self.req.writes[i].rec;
                let (old, at) = self.post_cas(tb, now, rec);
                if old == 0 {
                    self.locked = i + 1;
                    self.cas_attempts = 0;
                    self.phase = if i + 1 < self.req.writes.len() {
                        Phase::Lock(i + 1)
                    } else {
                        self.after_locks()
                    };
                    return Advance::Continue(at);
                }
                self.stats.cas_retries += 1;
                self.cas_attempts += 1;
                if self.cas_attempts >= self.policy.cas_budget {
                    self.cas_attempts = 0;
                    if self.locked > 0 {
                        self.phase = Phase::AbortUnlock(0, AbortCause::CasBudget);
                        return Advance::Continue(at);
                    }
                    return self.abort(at, AbortCause::CasBudget);
                }
                let delay = self.policy.cas_backoff.delay(self.cas_attempts - 1, &mut self.rng);
                Advance::Continue(at + delay)
            }
            Phase::LockedRead(i) => {
                // Under the lock: fetch version + value in one read.
                let rec = self.req.writes[i].rec;
                let len = 8 + self.table.value_len;
                let wr_id = self.wr_id();
                let at = self.post(
                    tb,
                    now,
                    WorkRequest::read(
                        wr_id.0,
                        Sge::new(self.staging, self.read_buf(i), len),
                        self.table.rkey,
                        self.table.version_off(rec),
                    ),
                );
                let m = tb.client_of(self.conn).machine;
                let mem = &tb.machine(m).mem;
                self.wver[i] = mem.load_u64(self.staging, self.read_buf(i));
                let counter = mem.load_u64(self.staging, self.read_buf(i) + 8);
                self.locked_vals[i] = counter;
                if let Ok(ri) = self.req.reads.binary_search(&rec) {
                    self.vals[ri] = counter;
                }
                if i + 1 < self.req.writes.len() {
                    self.phase = Phase::LockedRead(i + 1);
                    return Advance::Continue(at);
                }
                self.phase = Phase::WriteVal(0);
                Advance::Continue(at + self.hold)
            }
            Phase::Validate(j) => {
                let entry = self.validates[j];
                let wr_id = self.wr_id();
                let at = self.post(
                    tb,
                    now,
                    WorkRequest::read(
                        wr_id.0,
                        Sge::new(self.staging, self.scratch_off(), 8),
                        self.table.rkey,
                        self.table.version_off(entry.rec),
                    ),
                );
                let m = tb.client_of(self.conn).machine;
                let version = tb.machine(m).mem.load_u64(self.staging, self.scratch_off());
                if let Some(ri) = entry.read_idx {
                    if version != self.snap[ri] {
                        return if self.locked > 0 {
                            self.phase = Phase::AbortUnlock(0, AbortCause::Validate);
                            Advance::Continue(at)
                        } else {
                            self.abort(at, AbortCause::Validate)
                        };
                    }
                }
                if let Some(wi) = entry.write_idx {
                    self.wver[wi] = version;
                }
                if j + 1 < self.validates.len() {
                    self.phase = Phase::Validate(j + 1);
                    return Advance::Continue(at);
                }
                if self.req.writes.is_empty() {
                    self.stats.commits += 1;
                    self.phase = Phase::Done;
                    return Advance::Done(at);
                }
                self.phase = Phase::WriteVal(0);
                Advance::Continue(at)
            }
            Phase::WriteVal(i) => {
                let w = self.req.writes[i];
                let counter = match w.op {
                    WriteOp::Add(delta) => self.base_counter(i, w.rec) + delta,
                    WriteOp::Put(seed) => seed,
                };
                let image = value_image(w.rec, counter, self.table.value_len);
                let m = tb.client_of(self.conn).machine;
                let off = self.value_build_off();
                tb.machine_mut(m).mem.write(self.staging, off, &image);
                let build = tb.cfg.host.memcpy_cost(image.len());
                let wr_id = self.wr_id();
                let at = self.post(
                    tb,
                    now + build,
                    WorkRequest::write(
                        wr_id.0,
                        Sge::new(self.staging, off, self.table.value_len),
                        self.table.rkey,
                        self.table.value_off(w.rec),
                    ),
                );
                self.phase = if i + 1 < self.req.writes.len() {
                    Phase::WriteVal(i + 1)
                } else {
                    Phase::Commit(0)
                };
                Advance::Continue(at)
            }
            Phase::Commit(i) => {
                // One 16-byte write clears the lock and bumps the version.
                let rec = self.req.writes[i].rec;
                let mut image = [0u8; 16];
                image[8..].copy_from_slice(&(self.wver[i] + 1).to_le_bytes());
                let m = tb.client_of(self.conn).machine;
                let off = self.commit_image_off();
                tb.machine_mut(m).mem.write(self.staging, off, &image);
                let build = tb.cfg.host.memcpy_cost(image.len());
                let wr_id = self.wr_id();
                let at = self.post(
                    tb,
                    now + build,
                    WorkRequest::write(
                        wr_id.0,
                        Sge::new(self.staging, off, 16),
                        self.table.rkey,
                        self.table.lock_off(rec),
                    ),
                );
                if i + 1 < self.req.writes.len() {
                    self.phase = Phase::Commit(i + 1);
                    return Advance::Continue(at);
                }
                self.locked = 0;
                self.stats.commits += 1;
                self.phase = Phase::Done;
                Advance::Done(at)
            }
            Phase::AbortUnlock(i, cause) => {
                // Release lock i (value and version untouched): write an
                // 8-byte zero from the scratch word.
                let rec = self.req.writes[i].rec;
                let m = tb.client_of(self.conn).machine;
                let off = self.scratch_off();
                tb.machine_mut(m).mem.store_u64(self.staging, off, 0);
                let wr_id = self.wr_id();
                let at = self.post(
                    tb,
                    now,
                    WorkRequest::write(
                        wr_id.0,
                        Sge::new(self.staging, off, 8),
                        self.table.rkey,
                        self.table.lock_off(rec),
                    ),
                );
                if i + 1 < self.locked {
                    self.phase = Phase::AbortUnlock(i + 1, cause);
                    return Advance::Continue(at);
                }
                self.locked = 0;
                self.abort(at, cause)
            }
            Phase::Done => panic!("advance() after Done"),
        }
    }

    /// The base counter an Add builds on.
    fn base_counter(&self, write_idx: usize, rec: RecId) -> u64 {
        match self.concurrency {
            Concurrency::Locked => self.locked_vals[write_idx],
            Concurrency::Optimistic => {
                let ri = self.req.reads.binary_search(&rec).expect("checked in new()");
                self.vals[ri]
            }
        }
    }
}
