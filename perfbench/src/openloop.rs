//! `openloop`: Poisson arrivals at two fixed offered loads per
//! configuration, about 0.5× and 0.9× of the knees committed in
//! `BENCH_apps.json` and `BENCH_txn.json`. Fixed loads rather than a knee
//! search keep the run length fixed. Each request is timed from its
//! scheduled arrival, so a stall delays every request queued behind it.
//!
//! It covers the four traffic drivers in both variants and the
//! transactional service in optimistic and locked modes (DRR scheduling,
//! an 8× aggressor tenant, conflict 0.2): the timing wheel, arrival
//! generation, per-request histogram recording and folding, driver
//! linger and batching, and the CAS/validate/abort paths. Set-up is a
//! few dozen 2-machine pods and MTTs stay warm. Runs are serial.
//!
//! Pods are assembled from the crates' public functions
//! (`traffic::apps::build`, `txn::build_pod`, `TxnService::new`) so the
//! benchmark can time set-up, each worker's steps and the fold apart.

use crate::gate::Point;
use crate::trace::{self, ns_since, quantile, Tracer};
use crate::{memory_bytes, memory_layers, nic_counters, nic_layers, point_seed, Pass};
use cluster::{run_clients_sharded, Client, ClusterConfig, Pinned, Step, Testbed};
use simcore::{LatencyHistogram, LatencySeries, Meter, SimRng, SimTime};
use std::time::Instant;
use traffic::{
    AppKind, ArrivalGen, ArrivalProcess, TrafficConfig, TrafficReport, TxnReport, TxnTrafficConfig,
};
use txn::{
    build_pod, gen_request, Concurrency, ConflictGeometry, Scheduler, ServiceConfig, TenantSpec,
    TenantStats, TxnProfile, TxnService, TxnStats,
};

/// Fractions of the committed knee each configuration is offered.
pub const LOADS: [f64; 2] = [0.5, 0.9];

/// Pods per app-traffic point. The knees were found on 2 pods of 2
/// workers; pods are connection-disjoint and identical, so offering
/// `knee × PODS / 2` keeps every pod at the knee's per-pod load.
pub const PODS: usize = 64;
/// Workers per pod, as in the knee search.
pub const WORKERS_PER_POD: usize = 2;
/// Arrivals per worker.
pub const OPS_PER_WORKER: u64 = 400;

/// Pods per transactional point (the knee search used 2).
pub const TXN_PODS: usize = 32;
/// Transactions per tenant.
pub const OPS_PER_TENANT: u64 = 300;
/// Tenant 0's arrival-rate multiplier.
pub const AGGRESSOR: f64 = 8.0;

/// Knees (MOPS on 2 pods) from `BENCH_apps.json`: (app, basic, optimized).
pub const APP_KNEES: [(AppKind, f64, f64); 4] = [
    (AppKind::Hashtable, 14.7, 39.225),
    (AppKind::Shuffle, 18.3375, 247.0),
    (AppKind::Join, 12.8625, 12.7125),
    (AppKind::Dlog, 4.9719, 83.15),
];

/// Knees (MTPS on 2 pods) of the hashtable transaction profile from
/// `BENCH_txn.json`: (mode, knee).
pub const TXN_KNEES: [(Concurrency, f64); 2] =
    [(Concurrency::Optimistic, 1.3938), (Concurrency::Locked, 1.7719)];

/// Host-time probe around one client's steps.
struct Timed<C> {
    inner: C,
    probe: Option<Vec<u64>>,
}

impl<C: Client> Client for Timed<C> {
    fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
        match &mut self.probe {
            None => self.inner.step(now, tb),
            Some(samples) => {
                let t = Instant::now();
                let s = self.inner.step(now, tb);
                samples.push(ns_since(t));
                s
            }
        }
    }
}

fn timed<C>(inner: C, traced: bool) -> Timed<C> {
    Timed { inner, probe: traced.then(|| Vec::with_capacity(4096)) }
}

/// The app-traffic configuration of one point. As in
/// `traffic::run_point`, the expected warmup arrivals come on top of
/// [`OPS_PER_WORKER`], so every point keeps about that many samples.
pub fn traffic_cfg(
    app: AppKind,
    optimized: bool,
    knee: f64,
    load: f64,
    seed: u64,
) -> TrafficConfig {
    let mut cfg = TrafficConfig {
        app,
        optimized,
        offered_mops: knee * load * PODS as f64 / 2.0,
        pods: PODS,
        workers_per_pod: WORKERS_PER_POD,
        seed,
        shards: 1,
        ..Default::default()
    };
    cfg.ops_per_worker =
        OPS_PER_WORKER + (cfg.rate_per_worker() * cfg.warmup.as_us()).ceil() as u64;
    cfg
}

/// The transactional configuration of one point. The offered figure is
/// the base rate; with the aggressor the total is `(tenants - 1 +
/// AGGRESSOR) / tenants` times that, so the base is scaled down to put
/// the total at `load` of the knee. Warmup arrivals come on top of
/// [`OPS_PER_TENANT`], as in `traffic::run_txn_at`.
pub fn txn_cfg(concurrency: Concurrency, knee: f64, load: f64, seed: u64) -> TxnTrafficConfig {
    let base = TxnTrafficConfig::default();
    let tenants = base.tenants as f64;
    let boost = (tenants - 1.0 + AGGRESSOR) / tenants;
    let mut cfg = TxnTrafficConfig {
        profile: TxnProfile::Hashtable,
        concurrency,
        scheduler: Scheduler::Drr { quantum: 8 },
        offered_mops: knee * load * TXN_PODS as f64 / 2.0 / boost,
        pods: TXN_PODS,
        conflict: 0.2,
        aggressor: AGGRESSOR,
        seed,
        shards: 1,
        ..base
    };
    cfg.ops_per_tenant =
        OPS_PER_TENANT + (cfg.rate_per_tenant() * cfg.warmup.as_us()).ceil() as u64;
    cfg
}

/// Requests in `hist` slower than `slo`: the samples above the highest
/// rank whose quantile is still within the SLO.
pub fn slo_misses(hist: &LatencyHistogram, slo: SimTime) -> u64 {
    let n = hist.count();
    let at = |rank: u64| hist.quantile((rank as f64 - 0.5) / n as f64).expect("non-empty");
    if n == 0 || at(1) > slo {
        return n;
    }
    let (mut lo, mut hi) = (1u64, n); // at(lo) <= slo
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if at(mid) <= slo {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    n - lo
}

/// Per-pass accumulators for layer metrics.
#[derive(Default)]
struct Acc {
    traffic_steps: Vec<u64>,
    txn_steps: Vec<u64>,
    run_ns: u64,
    step_ns: u64,
    steps: u64,
    samples: u64,
    fold_ns: u64,
    build_ns: u64,
    new_ns: u64,
    teardown_ns: u64,
    txn: TxnStats,
    misses: u64,
    requests: u64,
    resident: u64,
    dense: u64,
}

/// One pass over every point.
pub fn pass(seed: u64, tr: &mut Option<Tracer>) -> Pass {
    let traced = tr.is_some();
    let mut pass = Pass::default();
    let mut acc = Acc::default();
    let mut idx = 0u64;
    for (app, basic, opt) in APP_KNEES {
        for (optimized, knee) in [(false, basic), (true, opt)] {
            for load in LOADS {
                let cfg = traffic_cfg(app, optimized, knee, load, point_seed(seed, idx));
                let variant = if optimized { "opt" } else { "basic" };
                let id = format!("{}-{variant}-{load}", app.name());
                if let Some(t) = tr {
                    t.set_point(idx as u32);
                }
                let point = traffic_point(id, &cfg, &mut pass, &mut acc, tr);
                pass.points.push(point);
                idx += 1;
            }
        }
    }
    for (mode, knee) in TXN_KNEES {
        for load in LOADS {
            let cfg = txn_cfg(mode, knee, load, point_seed(seed, idx));
            let name = match mode {
                Concurrency::Optimistic => "optimistic",
                Concurrency::Locked => "locked",
            };
            if let Some(t) = tr {
                t.set_point(idx as u32);
            }
            let point = txn_point(format!("txn-{name}-{load}"), &cfg, &mut pass, &mut acc, tr);
            pass.points.push(point);
            idx += 1;
        }
    }
    pass.virt.insert("virt_slo_miss_ratio", acc.misses as f64 / acc.requests.max(1) as f64);
    if traced {
        layers(&mut pass, &mut acc);
    }
    pass
}

fn traffic_point(
    id: String,
    cfg: &TrafficConfig,
    pass: &mut Pass,
    acc: &mut Acc,
    tr: &mut Option<Tracer>,
) -> Point {
    let traced = tr.is_some();
    let mut point = Point::new(id);
    let t_setup = Instant::now();
    trace::open(tr, "traffic.apps.build");
    let (mut tb, workers) = traffic::apps::build(cfg);
    let mut workers: Vec<(usize, Timed<_>)> =
        workers.into_iter().map(|(m, w)| (m, timed(w, traced))).collect();
    trace::close(tr);
    let setup_ns = ns_since(t_setup);
    acc.build_ns += setup_ns;

    let t_rest = Instant::now();
    trace::open(tr, "cluster.engine.run");
    let ops_before = simcore::opcount::current();
    let t = Instant::now();
    {
        let mut pins: Vec<Pinned<'_>> =
            workers.iter_mut().map(|(m, w)| Pinned::new(*m, w)).collect();
        run_clients_sharded(&mut tb, &mut pins, 1, SimTime::MAX);
    }
    acc.run_ns += ns_since(t);
    point.sim_ops = simcore::opcount::current() - ops_before;
    trace::close(tr);

    // The same fold as `traffic::run_traffic`, in worker order.
    trace::open(tr, "simcore.stats.fold");
    let t = Instant::now();
    let mut hist = LatencyHistogram::new();
    let mut series = LatencySeries::new(cfg.window);
    let mut meter = Meter::new(cfg.warmup);
    for (_, w) in &workers {
        point.check("every arrival issued", w.inner.stats.issued == cfg.ops_per_worker);
        hist.merge(&w.inner.stats.hist);
        series.merge(&w.inner.stats.series);
        meter.merge(&w.inner.stats.meter);
    }
    let report = TrafficReport {
        offered_mops: cfg.offered_mops,
        realized_mops: 0.0,
        achieved_mops: meter.mops(),
        ops: hist.count(),
        hist,
        series,
        finished: SimTime::ZERO,
    };
    let misses = slo_misses(&report.hist, cfg.app.default_slo());
    let p99 = report.q_us(0.99);
    let digest = report.digest();
    acc.fold_ns += ns_since(t);
    trace::close(tr);
    acc.samples += report.ops;
    acc.misses += misses;
    acc.requests += report.ops;
    point.mops = report.achieved_mops;
    point.pin("hist_digest", format!("{digest:016x}"));
    point.pin("p99_us", p99);
    point.pin("slo_misses", misses);
    let nic = nic_counters(&tb);
    nic_layers(pass, &mut point, nic, traced);
    if traced {
        let (r, d) = memory_bytes(&tb);
        acc.resident += r;
        acc.dense += d;
        for (_, w) in &mut workers {
            let s = w.probe.take().expect("traced worker");
            acc.steps += s.len() as u64;
            acc.step_ns += s.iter().sum::<u64>();
            acc.traffic_steps.extend(s);
        }
    }

    trace::open(tr, "cluster.testbed.teardown");
    let t = Instant::now();
    drop(workers);
    drop(tb);
    acc.teardown_ns += ns_since(t);
    trace::close(tr);
    pass.account(setup_ns, ns_since(t_rest));
    pass.sim_ops += point.sim_ops;
    point
}

fn txn_point(
    id: String,
    cfg: &TxnTrafficConfig,
    pass: &mut Pass,
    acc: &mut Acc,
    tr: &mut Option<Tracer>,
) -> Point {
    let traced = tr.is_some();
    let mut point = Point::new(id);
    let t_setup = Instant::now();
    trace::open(tr, "txn.setup");
    trace::open(tr, "cluster.testbed.new");
    let t = Instant::now();
    let mut tb = Testbed::new(ClusterConfig { machines: cfg.pods * 2, ..Default::default() });
    acc.new_ns += ns_since(t);
    trace::close(tr);
    // The pod assembly of `traffic::run_txn_traffic`: split RNG streams,
    // pre-drawn per-tenant schedules, one service per pod.
    let root = SimRng::new(cfg.seed);
    let geo = ConflictGeometry {
        records: cfg.records,
        hot: cfg.hot,
        conflict: cfg.conflict,
        tenants: cfg.tenants,
    };
    let svc_cfg = ServiceConfig {
        scheduler: cfg.scheduler,
        concurrency: cfg.concurrency,
        hold: cfg.hold,
        cap_reads: cfg.profile.cap_reads(),
        warmup: cfg.warmup,
        ..Default::default()
    };
    let mut services = Vec::with_capacity(cfg.pods);
    for pod in 0..cfg.pods {
        let setup = build_pod(
            &mut tb,
            pod * 2,
            pod * 2 + 1,
            cfg.qps,
            svc_cfg.cap_reads,
            cfg.records,
            cfg.table_value_len(),
        );
        let specs: Vec<TenantSpec> = (0..cfg.tenants)
            .map(|t| {
                let gidx = (pod * cfg.tenants + t) as u64;
                let rate = cfg.rate_per_tenant() * if t == 0 { cfg.aggressor } else { 1.0 };
                let mut arrivals = ArrivalGen::new(
                    ArrivalProcess::Poisson { rate_mops: rate },
                    root.split(4000 + gidx),
                );
                let mut req_rng = root.split(5000 + gidx);
                let mut at = SimTime::ZERO;
                let schedule = (0..cfg.ops_per_tenant)
                    .map(|_| {
                        at += arrivals.next_gap();
                        (at, gen_request(cfg.profile, &geo, t, &mut req_rng))
                    })
                    .collect();
                TenantSpec { quota: cfg.quota, schedule }
            })
            .collect();
        let service = TxnService::new(
            setup.table,
            svc_cfg,
            setup.conns.clone(),
            setup.staging,
            specs,
            &root.split(500 + pod as u64),
        );
        services.push((setup.client, timed(service, traced)));
    }
    trace::close(tr);
    let setup_ns = ns_since(t_setup);

    let t_rest = Instant::now();
    trace::open(tr, "cluster.engine.run");
    let ops_before = simcore::opcount::current();
    let t = Instant::now();
    {
        let mut pins: Vec<Pinned<'_>> =
            services.iter_mut().map(|(m, s)| Pinned::new(*m, s)).collect();
        run_clients_sharded(&mut tb, &mut pins, 1, SimTime::MAX);
    }
    acc.run_ns += ns_since(t);
    point.sim_ops = simcore::opcount::current() - ops_before;
    trace::close(tr);

    // The fold of `traffic::run_txn_traffic`: tenant-major, pod order.
    trace::open(tr, "simcore.stats.fold");
    let t = Instant::now();
    let mut tenants: Vec<TenantStats> = Vec::new();
    for (_, s) in &services {
        for (i, stats) in s.inner.tenant_stats().into_iter().enumerate() {
            point.check("every admitted txn completed", stats.completed == stats.admitted);
            match tenants.get_mut(i) {
                Some(agg) => {
                    agg.hist.merge(&stats.hist);
                    agg.meter.merge(&stats.meter);
                    agg.txn.merge(&stats.txn);
                    agg.admitted += stats.admitted;
                    agg.completed += stats.completed;
                }
                None => tenants.push(stats.clone()),
            }
        }
    }
    let mut hist = LatencyHistogram::new();
    let mut stats = TxnStats::default();
    let mut achieved = 0.0;
    for t in &tenants {
        hist.merge(&t.hist);
        stats.merge(&t.txn);
        achieved += t.meter.mops();
    }
    let report = TxnReport {
        offered_mops: cfg.offered_mops,
        realized_mops: 0.0,
        achieved_mops: achieved,
        ops: hist.count(),
        hist,
        stats,
        tenants,
    };
    let misses = slo_misses(&report.hist, cfg.default_slo());
    let digest = report.digest();
    acc.fold_ns += ns_since(t);
    trace::close(tr);
    point.check("txn failures == 0", report.stats.failures == 0);
    point.check(
        "every scheduled txn committed",
        report.stats.commits == (cfg.pods * cfg.tenants) as u64 * cfg.ops_per_tenant,
    );
    acc.samples += report.ops;
    acc.misses += misses;
    acc.requests += report.ops;
    acc.txn.merge(&report.stats);
    point.mops = report.achieved_mops;
    point.pin("txn_digest", format!("{digest:016x}"));
    point.pin("p99_us", report.q_us(0.99));
    point.pin("slo_misses", misses);
    let nic = nic_counters(&tb);
    nic_layers(pass, &mut point, nic, traced);
    if traced {
        let (r, d) = memory_bytes(&tb);
        acc.resident += r;
        acc.dense += d;
        for (_, s) in &mut services {
            let samples = s.probe.take().expect("traced service");
            acc.steps += samples.len() as u64;
            acc.step_ns += samples.iter().sum::<u64>();
            acc.txn_steps.extend(samples);
        }
    }

    trace::open(tr, "cluster.testbed.teardown");
    let t = Instant::now();
    drop(services);
    drop(tb);
    acc.teardown_ns += ns_since(t);
    trace::close(tr);
    pass.account(setup_ns, ns_since(t_rest));
    pass.sim_ops += point.sim_ops;
    point
}

/// Run one app-traffic point untraced, as a pass would.
pub fn run_traffic_point(id: &str, cfg: &TrafficConfig) -> Point {
    traffic_point(id.into(), cfg, &mut Pass::default(), &mut Acc::default(), &mut None)
}

/// Run one transactional point untraced, as a pass would.
pub fn run_txn_point(id: &str, cfg: &TxnTrafficConfig) -> Point {
    txn_point(id.into(), cfg, &mut Pass::default(), &mut Acc::default(), &mut None)
}

fn layers(pass: &mut Pass, acc: &mut Acc) {
    pass.layer_add("traffic.apps.build_ms", acc.build_ns as f64 / 1e6);
    pass.layer_add("traffic.engine.steps", acc.traffic_steps.len() as f64);
    pass.layer_add("traffic.engine.step_ns_p50", quantile(&mut acc.traffic_steps, 0.5) as f64);
    pass.layer_add("traffic.engine.step_ns_p99", quantile(&mut acc.traffic_steps, 0.99) as f64);
    pass.layer_add("txn.service.step_ns_p50", quantile(&mut acc.txn_steps, 0.5) as f64);
    pass.layer_add("txn.service.step_ns_p99", quantile(&mut acc.txn_steps, 0.99) as f64);
    pass.layer_add("cluster.engine.steps", acc.steps as f64);
    pass.layer_add("cluster.engine.self_s", acc.run_ns.saturating_sub(acc.step_ns) as f64 / 1e9);
    pass.layer_add("cluster.testbed.new_ms", acc.new_ns as f64 / 1e6);
    pass.layer_add("cluster.testbed.teardown_ms", acc.teardown_ns as f64 / 1e6);
    pass.layer_add("simcore.stats.samples", acc.samples as f64);
    pass.layer_add("simcore.stats.fold_ms", acc.fold_ns as f64 / 1e6);
    let s = &acc.txn;
    pass.layer_add("txn.protocol.commits", s.commits as f64);
    pass.layer_add("txn.protocol.aborts", s.aborts as f64);
    pass.layer_add("txn.protocol.cas_retries", s.cas_retries as f64);
    pass.layer_add(
        "txn.protocol.useful_ratio",
        s.commits as f64 / (s.commits + s.aborts).max(1) as f64,
    );
    pass.layer_add("txn.protocol.verbs_per_commit", s.verbs as f64 / s.commits.max(1) as f64);
    memory_layers(pass, acc.resident, acc.dense);
    // One alias table per hashtable or join worker: time one of each.
    let t = Instant::now();
    std::hint::black_box(workloads::ZipfAlias::paper(traffic::apps::HT_KEYS));
    let ht_ms = ns_since(t) as f64 / 1e6;
    let t = Instant::now();
    std::hint::black_box(workloads::ZipfAlias::paper(traffic::apps::JOIN_TUPLES));
    let join_ms = ns_since(t) as f64 / 1e6;
    // Four hashtable and four join points per pass, one table per worker.
    let builds = 4.0 * (PODS * WORKERS_PER_POD) as f64;
    let builds_ms = builds * (ht_ms + join_ms);
    let build_ms = acc.build_ns as f64 / 1e6;
    pass.notes.push(format!(
        "traffic.apps.build {build_ms:.1} ms per pass; ZipfAlias builds {builds} x {ht_ms:.3} ms \
         (hashtable) + {builds} x {join_ms:.3} ms (join) = {builds_ms:.1} ms ({:.0}% of it)",
        100.0 * builds_ms / build_ms,
    ));
    pass.layer_add("workloads.zipf.build_ms", ht_ms + join_ms);
}
