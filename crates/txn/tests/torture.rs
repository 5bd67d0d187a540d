//! Contention-correctness torture tests for the transactional dataplane.
//!
//! The workload is all `Add(1)` read-modify-writes, so the serial
//! reference model is order-independent: every committed transaction
//! bumps its record's version by exactly 1 *and* its counter by exactly
//! one. A lost update — two transactions reading the same base value and
//! both committing — would leave `counter < version`; the byte-for-byte
//! equality of the two is the zero-lost-updates oracle, checked on every
//! record. Abort/retry accounting and final table bytes must also be
//! byte-identical between the serial and `--shards 2` runs.

use cluster::{ClusterConfig, Pinned, Testbed};
use rnicsim::MrId;
use simcore::{SimRng, SimTime};
use txn::{
    build_pod, Advance, Concurrency, ConflictGeometry, PodSetup, RetryPolicy, Scheduler,
    ServiceConfig, TenantSpec, TxnMachine, TxnRequest, TxnService, TxnStats,
};

const RECORDS: u64 = 64;
const HOT: u64 = 8;
const VALUE_LEN: u64 = 32;

fn drive(machine: &mut TxnMachine, tb: &mut Testbed, mut now: SimTime) -> SimTime {
    loop {
        match machine.advance(tb, now) {
            Advance::Continue(at) => now = at,
            Advance::Done(at) => return at,
        }
    }
}

#[test]
fn single_txn_commits_and_bumps_version() {
    let mut tb = Testbed::new(ClusterConfig { machines: 2, ..Default::default() });
    let pod = build_pod(&mut tb, 0, 1, 1, 2, RECORDS, VALUE_LEN);
    for concurrency in [Concurrency::Optimistic, Concurrency::Locked] {
        let before = pod.table.peek(&tb, 1, 7);
        let mut m = TxnMachine::new(
            pod.table,
            pod.conns[0],
            pod.staging,
            0,
            2,
            concurrency,
            RetryPolicy::default(),
            SimTime::from_ns(200),
            TxnRequest::rmw(7, 5),
            SimRng::new(1),
        );
        drive(&mut m, &mut tb, SimTime::ZERO);
        let after = pod.table.peek(&tb, 1, 7);
        assert_eq!(m.stats.commits, 1);
        assert_eq!(m.stats.aborts, 0);
        assert_eq!(after.lock, 0, "{}: lock must be free", concurrency.name());
        assert_eq!(after.version, before.version + 1, "{}", concurrency.name());
        assert_eq!(after.counter, before.counter + 5, "{}", concurrency.name());
    }
}

#[test]
fn read_only_txn_validates_without_writing() {
    let mut tb = Testbed::new(ClusterConfig { machines: 2, ..Default::default() });
    let pod = build_pod(&mut tb, 0, 1, 1, 2, RECORDS, VALUE_LEN);
    let mut m = TxnMachine::new(
        pod.table,
        pod.conns[0],
        pod.staging,
        0,
        2,
        Concurrency::Optimistic,
        RetryPolicy::default(),
        SimTime::ZERO,
        TxnRequest::read_only(vec![3, 9]),
        SimRng::new(2),
    );
    drive(&mut m, &mut tb, SimTime::ZERO);
    assert_eq!(m.stats.commits, 1);
    assert_eq!(m.stats.verbs, 4, "2 reads + 2 validates");
    assert_eq!(pod.table.peek(&tb, 1, 3).version, 0, "read-only must not bump");
}

#[test]
fn validate_failure_aborts_and_retries() {
    let mut tb = Testbed::new(ClusterConfig { machines: 2, ..Default::default() });
    let pod = build_pod(&mut tb, 0, 1, 1, 2, RECORDS, VALUE_LEN);
    let table_mr = MrId(pod.table.rkey.0 as u32);
    let mut m = TxnMachine::new(
        pod.table,
        pod.conns[0],
        pod.staging,
        0,
        2,
        Concurrency::Optimistic,
        RetryPolicy::default(),
        SimTime::ZERO,
        TxnRequest::rmw(4, 1),
        SimRng::new(3),
    );
    // Step 1: optimistic read takes its snapshot.
    let t = match m.advance(&mut tb, SimTime::ZERO) {
        Advance::Continue(t) => t,
        Advance::Done(_) => panic!("txn cannot finish in one verb"),
    };
    // A concurrent commit lands: version bumps behind the snapshot's back.
    tb.machine_mut(1).mem.store_u64(table_mr, pod.table.version_off(4), 1);
    tb.machine_mut(1).mem.store_u64(table_mr, pod.table.value_off(4), 10);
    let done = drive(&mut m, &mut tb, t);
    assert_eq!(m.stats.aborts_validate, 1, "the stale snapshot must abort");
    assert_eq!(m.stats.commits, 1, "and the retry must commit");
    let fin = pod.table.peek(&tb, 1, 4);
    assert_eq!(fin.lock, 0);
    assert_eq!(fin.version, 2, "concurrent bump + our commit");
    assert_eq!(fin.counter, 11, "Add must build on the concurrent value");
    assert!(done > t);
}

#[test]
fn locked_record_read_aborts() {
    let mut tb = Testbed::new(ClusterConfig { machines: 2, ..Default::default() });
    let pod = build_pod(&mut tb, 0, 1, 1, 2, RECORDS, VALUE_LEN);
    let table_mr = MrId(pod.table.rkey.0 as u32);
    // Hold record 5's lock; the optimistic read must refuse the snapshot.
    tb.machine_mut(1).mem.store_u64(table_mr, pod.table.lock_off(5), 1);
    let mut m = TxnMachine::new(
        pod.table,
        pod.conns[0],
        pod.staging,
        0,
        2,
        Concurrency::Optimistic,
        RetryPolicy::default(),
        SimTime::ZERO,
        TxnRequest::rmw(5, 1),
        SimRng::new(4),
    );
    let t = match m.advance(&mut tb, SimTime::ZERO) {
        Advance::Continue(t) => t,
        Advance::Done(_) => panic!("must retry, not finish"),
    };
    assert_eq!(m.stats.aborts_locked_read, 1);
    // The holder releases; the retry goes through.
    tb.machine_mut(1).mem.store_u64(table_mr, pod.table.lock_off(5), 0);
    drive(&mut m, &mut tb, t);
    assert_eq!(m.stats.commits, 1);
    assert_eq!(pod.table.peek(&tb, 1, 5).counter, 1);
}

// ---------------------------------------------------------------------------
// Service-level torture

struct TortureOutcome {
    /// Per-pod service digests (tenant telemetry + abort accounting).
    digests: Vec<u64>,
    /// Per-pod final table bytes.
    tables: Vec<Vec<u8>>,
    /// Folded protocol accounting across pods.
    stats: TxnStats,
    /// Per-pod per-record (version, counter) for the reference check.
    records: Vec<Vec<(u64, u64, u64)>>,
}

/// The service configuration every torture run uses, per mode.
fn service(concurrency: Concurrency, scheduler: Scheduler) -> ServiceConfig {
    ServiceConfig {
        scheduler,
        concurrency,
        cap_reads: 2,
        hold: SimTime::from_ns(300),
        ..Default::default()
    }
}

/// All-Add torture: `tenants` tenants per pod, each issuing `ops` RMW
/// transactions mostly into the shared hot set.
fn run_torture(
    pods: usize,
    tenants: usize,
    ops: u64,
    conflict: f64,
    cfg: ServiceConfig,
    seed: u64,
    shards: usize,
) -> TortureOutcome {
    let mut tb = Testbed::new(ClusterConfig { machines: pods * 2, ..Default::default() });
    let root = SimRng::new(seed);
    let geo = ConflictGeometry { records: RECORDS, hot: HOT, conflict, tenants };
    let mut setups: Vec<PodSetup> = Vec::new();
    let mut services: Vec<TxnService> = Vec::new();
    for pod in 0..pods {
        let setup = build_pod(&mut tb, pod * 2, pod * 2 + 1, 3, cfg.cap_reads, RECORDS, VALUE_LEN);
        let specs = (0..tenants)
            .map(|t| {
                let mut rng = root.split(100 + (pod * tenants + t) as u64);
                let mut at = SimTime::ZERO;
                let schedule = (0..ops)
                    .map(|_| {
                        at += SimTime::from_ns(800 + rng.gen_range(2400));
                        let rec = geo.pick(t, &mut rng);
                        (at, TxnRequest::rmw(rec, 1))
                    })
                    .collect();
                TenantSpec { quota: 2, schedule }
            })
            .collect();
        let service = TxnService::new(
            setup.table,
            cfg,
            setup.conns.clone(),
            setup.staging,
            specs,
            &root.split(500 + pod as u64),
        );
        setups.push(setup);
        services.push(service);
    }
    {
        let mut pins: Vec<Pinned<'_>> = services
            .iter_mut()
            .zip(&setups)
            .map(|(s, setup)| Pinned::new(setup.client, s))
            .collect();
        cluster::run_clients_sharded(&mut tb, &mut pins, shards, SimTime::MAX);
    }
    let mut stats = TxnStats::default();
    let mut digests = Vec::new();
    let mut tables = Vec::new();
    let mut records = Vec::new();
    for (service, setup) in services.iter().zip(&setups) {
        stats.merge(&service.total_txn_stats());
        digests.push(service.digest());
        let mr = MrId(setup.table.rkey.0 as u32);
        tables.push(tb.machine(setup.server).mem.read(mr, 0, setup.table.footprint()));
        records.push(
            (0..RECORDS)
                .map(|r| {
                    let st = setup.table.peek(&tb, setup.server, r);
                    (st.lock, st.version, st.counter)
                })
                .collect(),
        );
    }
    TortureOutcome { digests, tables, stats, records }
}

fn assert_no_lost_updates(out: &TortureOutcome, expected_commits: u64) {
    assert_eq!(out.stats.failures, 0, "unbounded retry must never give up");
    assert_eq!(out.stats.commits, expected_commits, "every admitted txn must commit");
    let mut total = 0u64;
    for pod in &out.records {
        for &(lock, version, counter) in pod {
            assert_eq!(lock, 0, "all locks released at quiescence");
            assert_eq!(
                version, counter,
                "all-Add workload: a lost update would leave counter < version"
            );
            total += counter;
        }
    }
    assert_eq!(total, expected_commits, "Σ counters must equal committed Adds");
}

#[test]
fn torture_optimistic_has_no_lost_updates() {
    let out = run_torture(
        1,
        4,
        120,
        0.8,
        service(Concurrency::Optimistic, Scheduler::Drr { quantum: 8 }),
        11,
        1,
    );
    assert_no_lost_updates(&out, 4 * 120);
    assert!(out.stats.aborts > 0, "0.8 conflict on 8 hot records must produce aborts");
}

#[test]
fn torture_locked_has_no_lost_updates() {
    let out = run_torture(
        1,
        4,
        120,
        0.8,
        service(Concurrency::Locked, Scheduler::Drr { quantum: 8 }),
        12,
        1,
    );
    assert_no_lost_updates(&out, 4 * 120);
    assert!(out.stats.cas_retries > 0, "lock mode must contend on the hot set");
}

#[test]
fn torture_serial_vs_sharded_byte_identical() {
    for concurrency in [Concurrency::Optimistic, Concurrency::Locked] {
        let serial =
            run_torture(2, 3, 80, 0.7, service(concurrency, Scheduler::Drr { quantum: 8 }), 13, 1);
        let sharded =
            run_torture(2, 3, 80, 0.7, service(concurrency, Scheduler::Drr { quantum: 8 }), 13, 2);
        assert_no_lost_updates(&serial, 2 * 3 * 80);
        assert_eq!(
            serial.stats,
            sharded.stats,
            "{}: abort/retry accounting must be byte-identical",
            concurrency.name()
        );
        assert_eq!(serial.digests, sharded.digests, "{}", concurrency.name());
        assert_eq!(serial.tables, sharded.tables, "{}: final table bytes", concurrency.name());
    }
}

#[test]
fn fifo_and_drr_both_preserve_integrity() {
    for scheduler in [Scheduler::Fifo, Scheduler::Drr { quantum: 16 }] {
        let out = run_torture(1, 3, 60, 0.9, service(Concurrency::Optimistic, scheduler), 14, 1);
        assert_no_lost_updates(&out, 3 * 60);
    }
}
