//! `apps-closed`: the paper's four §IV case studies through `apps::run_*`,
//! basic against optimized, each a closed loop with the window the app
//! already uses. This is where `repro` users spend most of their host
//! time: the join's post pipeline on an 8-machine, MTT-warm testbed and
//! the hashtable's fixed per-run cost. No fleet set-up, no sharding, no
//! open-loop timers; every run is serial.
//!
//! The `run_*` functions build and drop their testbeds inside the call,
//! so set-up cannot be timed apart from the simulation. `setup_s` here is
//! each point's fixed per-run cost instead: the same call with one
//! operation per client (testbed, registrations, connections, app state
//! and teardown, with a negligible simulation).

use crate::gate::Point;
use crate::trace::{self, ns_since, Tracer};
use crate::{point_seed, Pass};
use apps::{
    run_dlog, run_hashtable, run_join, run_shuffle, single_machine_time, DlogConfig, HtConfig,
    HtVariant, JoinConfig, ShuffleConfig, ShuffleVariant,
};
use std::time::Instant;

/// The paper's optimized/basic speedups (§IV): hashtable, shuffle, join
/// (against one machine) and log.
pub const PAPER_SPEEDUPS: [f64; 4] = [2.7, 5.8, 5.3, 9.1];

/// Hashtable front-end counts.
pub const HT_FRONT_ENDS: [usize; 2] = [2, 8];
/// Join tuples per relation for the unmaterialized points.
pub const JOIN_TUPLES: u64 = 1 << 20;
/// Join tuples for the verified point.
pub const JOIN_VERIFIED_TUPLES: u64 = 1 << 16;

/// One app run: its config, and the same config reduced to one operation
/// per client.
#[derive(Clone, Debug)]
pub enum AppRun {
    /// A hashtable run.
    Ht(HtConfig),
    /// A shuffle run.
    Shuffle(ShuffleConfig),
    /// A join run.
    Join(JoinConfig),
    /// A log run.
    Dlog(DlogConfig),
}

/// What a run call reported, reduced to what the gate and metrics need.
struct Outcome {
    mops: f64,
    verified: bool,
    lock_attempts: Option<f64>,
    /// Join execution time in ns (for the speedup against one machine).
    join_ns: Option<f64>,
}

impl AppRun {
    /// Span and metric names of the run's app: the run span, the
    /// fixed-cost span and the run-time metric.
    pub fn names(&self) -> [&'static str; 3] {
        match self {
            AppRun::Ht(_) => ["apps.hashtable.run", "apps.hashtable.fixed", "apps.hashtable.run_s"],
            AppRun::Shuffle(_) => ["apps.shuffle.run", "apps.shuffle.fixed", "apps.shuffle.run_s"],
            AppRun::Join(_) => ["apps.join.run", "apps.join.fixed", "apps.join.run_s"],
            AppRun::Dlog(_) => ["apps.dlog.run", "apps.dlog.fixed", "apps.dlog.run_s"],
        }
    }

    /// The same run with one operation per client.
    pub fn fixed(&self) -> AppRun {
        match self {
            AppRun::Ht(c) => AppRun::Ht(HtConfig { ops_per_fe: 1, ..c.clone() }),
            AppRun::Shuffle(c) => {
                AppRun::Shuffle(ShuffleConfig { entries_per_executor: 1, ..c.clone() })
            }
            AppRun::Join(c) => AppRun::Join(JoinConfig { tuples: c.executors as u64, ..c.clone() }),
            AppRun::Dlog(c) => {
                AppRun::Dlog(DlogConfig { records_per_engine: c.batch as u64, ..c.clone() })
            }
        }
    }

    fn run(&self) -> Outcome {
        match self {
            AppRun::Ht(c) => {
                let r = run_hashtable(c);
                Outcome {
                    mops: r.mops,
                    verified: r.ops == c.front_ends as u64 * c.ops_per_fe,
                    lock_attempts: (r.flushes > 0).then_some(r.avg_lock_attempts),
                    join_ns: None,
                }
            }
            AppRun::Shuffle(c) => {
                let r = run_shuffle(c);
                let all = r.entries == c.executors as u64 * c.entries_per_executor;
                Outcome {
                    mops: r.mops,
                    verified: r.verified && all,
                    lock_attempts: None,
                    join_ns: None,
                }
            }
            AppRun::Join(c) => {
                let r = run_join(c);
                let ns = r.time.as_ns();
                Outcome {
                    mops: c.tuples as f64 / (ns / 1e3),
                    verified: r.matches == c.tuples && (!c.verify || r.verified),
                    lock_attempts: None,
                    join_ns: Some(ns),
                }
            }
            AppRun::Dlog(c) => {
                let r = run_dlog(c);
                let all = r.records == c.engines as u64 * c.records_per_engine;
                Outcome {
                    mops: r.mops,
                    verified: r.verified && all,
                    lock_attempts: None,
                    join_ns: None,
                }
            }
        }
    }
}

/// The workload's points, in run order, with per-point seeds derived
/// from `seed`.
pub fn points(seed: u64) -> Vec<(String, AppRun)> {
    let mut out: Vec<(String, AppRun)> = Vec::new();
    let mut push = |id: String, run: AppRun| {
        let s = point_seed(seed, out.len() as u64);
        let run = match run {
            AppRun::Ht(c) => AppRun::Ht(HtConfig { seed: s, ..c }),
            AppRun::Shuffle(c) => AppRun::Shuffle(ShuffleConfig { seed: s, ..c }),
            AppRun::Join(c) => AppRun::Join(JoinConfig { seed: s, ..c }),
            AppRun::Dlog(c) => AppRun::Dlog(DlogConfig { seed: s, ..c }),
        };
        out.push((id, run));
    };
    for fe in HT_FRONT_ENDS {
        for (name, variant) in [
            ("basic", HtVariant::Basic),
            ("numa", HtVariant::Numa),
            ("reorder16", HtVariant::Reorder { theta: 16 }),
        ] {
            push(
                format!("ht-{name}-fe{fe}"),
                AppRun::Ht(HtConfig {
                    front_ends: fe,
                    ops_per_fe: 1200,
                    variant,
                    write_fraction: 0.5,
                    ..Default::default()
                }),
            );
        }
    }
    for (name, variant) in [
        ("basic", ShuffleVariant::Basic),
        ("sgl16", ShuffleVariant::Sgl(16)),
        ("sp16", ShuffleVariant::Sp(16)),
    ] {
        push(
            format!("shuffle-{name}"),
            AppRun::Shuffle(ShuffleConfig {
                executors: 16,
                entries_per_executor: 2000,
                variant,
                ..Default::default()
            }),
        );
    }
    for theta in [4usize, 16] {
        for lambda in [1usize, 16] {
            push(
                format!("join-t{theta}-l{lambda}"),
                AppRun::Join(JoinConfig {
                    executors: theta,
                    batch: lambda,
                    tuples: JOIN_TUPLES,
                    verify: false,
                    ..Default::default()
                }),
            );
        }
    }
    push(
        "join-verified".into(),
        AppRun::Join(JoinConfig {
            executors: 4,
            batch: 16,
            tuples: JOIN_VERIFIED_TUPLES,
            verify: true,
            ..Default::default()
        }),
    );
    for batch in [1usize, 32] {
        push(
            format!("dlog-b{batch}"),
            AppRun::Dlog(DlogConfig {
                engines: 7,
                batch,
                records_per_engine: 800,
                ..Default::default()
            }),
        );
    }
    out
}

/// Mean absolute relative error (%) of `speedups` against the paper's.
pub fn paper_err_pct(speedups: [f64; 4]) -> f64 {
    speedups.iter().zip(PAPER_SPEEDUPS).map(|(s, p)| ((s - p) / p).abs()).sum::<f64>() / 4.0 * 100.0
}

/// One pass over every point.
pub fn pass(seed: u64, tr: &mut Option<Tracer>) -> Pass {
    let traced = tr.is_some();
    let mut pass = Pass::default();
    let mut mops = std::collections::BTreeMap::new();
    let mut best_join_ns = f64::MAX;
    let mut lock_attempts = Vec::new();
    let mut fixed = std::collections::BTreeMap::new();
    let mut ht_fixed = std::collections::BTreeMap::new();
    for (idx, (id, run)) in points(seed).into_iter().enumerate() {
        if let Some(t) = tr {
            t.set_point(idx as u32);
        }
        let [run_span, fixed_span, run_metric] = run.names();
        trace::open(tr, fixed_span);
        let t = Instant::now();
        let _ = run.fixed().run();
        let fixed_ns = ns_since(t);
        trace::close(tr);

        trace::open(tr, run_span);
        let ops_before = simcore::opcount::current();
        let t = Instant::now();
        let out = run.run();
        let run_ns = ns_since(t);
        let sim_ops = simcore::opcount::current() - ops_before;
        trace::close(tr);

        pass.times.push([fixed_ns, run_ns, run_ns]);
        pass.sim_ops += sim_ops;
        if traced {
            pass.layer_add(run_metric, run_ns as f64 / 1e9);
            let f = fixed.entry(fixed_span).or_insert((0u64, 0u32));
            f.0 += fixed_ns;
            f.1 += 1;
            if let AppRun::Ht(c) = &run {
                let f = ht_fixed.entry(c.front_ends).or_insert((0u64, 0u32));
                f.0 += fixed_ns;
                f.1 += 1;
            }
        }
        if let Some(a) = out.lock_attempts {
            lock_attempts.push(a);
        }
        if let (AppRun::Join(c), Some(ns)) = (&run, out.join_ns) {
            if c.tuples == JOIN_TUPLES {
                best_join_ns = best_join_ns.min(ns);
            }
        }
        mops.insert(id.clone(), out.mops);
        let mut point = Point::new(id);
        point.mops = out.mops;
        point.sim_ops = sim_ops;
        point.check("verified", out.verified);
        pass.points.push(point);
    }
    let fe = HT_FRONT_ENDS[HT_FRONT_ENDS.len() - 1];
    let speedups = [
        mops[&format!("ht-reorder16-fe{fe}")] / mops[&format!("ht-basic-fe{fe}")],
        mops["shuffle-sp16"] / mops["shuffle-basic"],
        single_machine_time(JOIN_TUPLES).as_ns() / best_join_ns,
        mops["dlog-b32"] / mops["dlog-b1"],
    ];
    pass.virt.insert("paper_err_pct", paper_err_pct(speedups));
    for (name, s) in ["speedup.hashtable", "speedup.shuffle", "speedup.join", "speedup.dlog"]
        .into_iter()
        .zip(speedups)
    {
        pass.virt.insert(name, s);
    }
    if traced && !lock_attempts.is_empty() {
        let mean = lock_attempts.iter().sum::<f64>() / lock_attempts.len() as f64;
        // Every flush makes at least one lock attempt.
        pass.layer_add("apps.hashtable.lock_useful_ratio", 1.0 / mean);
    }
    if traced {
        // Mean over the app's points, so the figure is per run call.
        for (span, name) in [
            ("apps.hashtable.fixed", "apps.hashtable.fixed_ms"),
            ("apps.join.fixed", "apps.join.fixed_ms"),
        ] {
            let (ns, n) = fixed[span];
            pass.layer_add(name, ns as f64 / 1e6 / n as f64);
        }
        let zipf_ms = zipf_layer(&mut pass, tr);
        // Each hashtable lane (front-end x pipeline depth) builds its own
        // key stream over the same Zipf, plus one stream for the hot map.
        let depth = HtConfig::default().pipeline_depth;
        for (fe, (ns, n)) in &ht_fixed {
            let fixed_ms = *ns as f64 / 1e6 / *n as f64;
            let builds = fe * depth + 1;
            let z = zipf_ms * builds as f64;
            pass.notes.push(format!(
                "hashtable fixed cost at {fe} front-ends: {fixed_ms:.1} ms per run; \
                 {builds} Zipf builds x {zipf_ms:.2} ms = {z:.1} ms ({:.0}% of it)",
                100.0 * z / fixed_ms
            ));
        }
    }
    pass
}

/// Time one build of the Zipf table the hashtable's key streams use,
/// directly; returns it in ms.
fn zipf_layer(pass: &mut Pass, tr: &mut Option<Tracer>) -> f64 {
    trace::open(tr, "workloads.zipf.build");
    let t = Instant::now();
    std::hint::black_box(workloads::Zipf::paper(HtConfig::default().keys));
    let ms = ns_since(t) as f64 / 1e6;
    trace::close(tr);
    pass.layer_add("workloads.zipf.build_ms", ms);
    ms
}
