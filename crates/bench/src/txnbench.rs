//! Transactional-dataplane experiments (`txn-*`) plus the burstiness
//! satellites (`traffic-burst`, `traffic-series`).
//!
//! * `txn-contention` — p99 latency and abort ratio vs conflict rate for
//!   both concurrency-control modes of the txn service, at a fixed
//!   offered load. The optimistic/locked crossover under contention is
//!   the subsystem's core trade-off.
//! * `txn-fairness` — the multi-tenant fairness table: an aggressor
//!   tenant floods the shared QP pool at [`AGGRESSOR`]× the base rate
//!   and the victims' p99 inflation is compared between FIFO and
//!   deficit-round-robin scheduling. DRR must keep the inflation
//!   bounded; FIFO lets the aggressor's backlog starve the victims.
//! * `traffic-burst` — MMPP vs Poisson capacity knees at the same mean
//!   offered load, per app × variant: the headroom an operator must
//!   reserve when traffic is bursty rather than memoryless.
//! * `traffic-series` — the windowed latency series rendered as a
//!   committed time-series: per-window p99 and per-window goodput under
//!   MMPP arrivals, showing the tail breathing with the phase
//!   transitions.
//!
//! All experiments fan their independent simulation points out through
//! [`par_map`]; per-point digests ride along in the notes so the
//! rendered output is a byte-identity unit for the determinism gates.

use crate::openloop::{base_cfg, KneeRow};
use crate::{par_map, Experiment, Output, Scale};
use simcore::{Series, SimTime};
use traffic::{
    find_knee, find_txn_knee, run_traffic, run_txn_at, AppKind, TrafficConfig, TxnTrafficConfig,
};
use txn::{Concurrency, Scheduler, TxnProfile};

/// Aggressor tenant's arrival-rate multiplier in the fairness table.
pub const AGGRESSOR: f64 = 8.0;

/// Base transactional traffic configuration for the committed
/// experiments: crate default topology, more ops at paper scale.
pub fn base_txn_cfg(profile: TxnProfile, scale: Scale) -> TxnTrafficConfig {
    TxnTrafficConfig {
        profile,
        ops_per_tenant: if scale.paper { 1600 } else { 400 },
        ..TxnTrafficConfig::default()
    }
}

// ---------------------------------------------------------------------------
// txn-contention

/// Conflict-probability grid for `txn-contention`.
const CONFLICTS: &[f64] = &[0.0, 0.2, 0.4, 0.6, 0.8];

/// One pod, a small hot set, both modes: conflict probability is the
/// only axis that moves.
fn contention_cfg(concurrency: Concurrency, conflict: f64, scale: Scale) -> TxnTrafficConfig {
    TxnTrafficConfig {
        concurrency,
        conflict,
        pods: 1,
        records: 256,
        hot: 8,
        offered_mops: 0.3,
        ops_per_tenant: if scale.paper { 1000 } else { 250 },
        ..base_txn_cfg(TxnProfile::Hashtable, scale)
    }
}

/// `txn-contention`: p99 and abort ratio vs conflict rate, optimistic
/// and locked side by side.
pub fn contention_experiment(scale: Scale) -> Vec<Experiment> {
    let mut items: Vec<(Concurrency, f64)> = Vec::new();
    for mode in [Concurrency::Optimistic, Concurrency::Locked] {
        items.extend(CONFLICTS.iter().map(|&c| (mode, c)));
    }
    let reports = par_map(items.clone(), |(mode, conflict)| {
        let cfg = contention_cfg(mode, conflict, scale);
        run_txn_at(&cfg, cfg.offered_mops)
    });
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for (mi, mode) in [Concurrency::Optimistic, Concurrency::Locked].into_iter().enumerate() {
        let mut p99 = Series::new(format!("{} p99(us)", mode.name()));
        let mut abort = Series::new(format!("{} abort-ratio", mode.name()));
        let mut digests = Vec::new();
        for (i, &conflict) in CONFLICTS.iter().enumerate() {
            let r = &reports[mi * CONFLICTS.len() + i];
            p99.push(conflict, r.q_us(0.99));
            abort.push(conflict, r.stats.abort_ratio());
            digests.push(format!("{conflict}:{:016x}", r.digest()));
        }
        series.push(p99);
        series.push(abort);
        notes.push(format!("{} digests: {}", mode.name(), digests.join(" ")));
    }
    let cfg = contention_cfg(Concurrency::Optimistic, 0.0, scale);
    notes.push(format!(
        "{} tenants x {} txns over {} QPs at {} MTPS offered; {} records, {} hot; abort ratio = \
         aborts / (commits + aborts)",
        cfg.tenants, cfg.ops_per_tenant, cfg.qps, cfg.offered_mops, cfg.records, cfg.hot
    ));
    vec![Experiment {
        id: "txn-contention",
        title: "transactional service — tail latency and abort ratio vs conflict rate".into(),
        output: Output::Series { x: "conflict".into(), y: "p99(us) / abort-ratio".into(), series },
        notes,
    }]
}

// ---------------------------------------------------------------------------
// txn-fairness

/// One row of the fairness table: a (scheduler, aggressor) cell.
pub struct FairnessRow {
    /// QP-pool scheduling discipline.
    pub scheduler: Scheduler,
    /// Tenant 0's rate multiplier (1.0 = baseline).
    pub aggressor: f64,
    /// Per-tenant p99, tenant order (tenant 0 is the aggressor).
    pub tenant_p99_us: Vec<f64>,
    /// Worst victim p99 (max over tenants 1..).
    pub victim_p99_us: f64,
    /// Report digest (determinism token).
    pub digest: u64,
}

fn fairness_cfg(scheduler: Scheduler, aggressor: f64, scale: Scale) -> TxnTrafficConfig {
    TxnTrafficConfig {
        scheduler,
        aggressor,
        offered_mops: 0.6,
        conflict: 0.1,
        ops_per_tenant: if scale.paper { 1200 } else { 300 },
        ..base_txn_cfg(TxnProfile::Hashtable, scale)
    }
}

/// Run the four fairness cells: {FIFO, DRR} × {baseline, aggressor}.
pub fn fairness_rows(scale: Scale) -> Vec<FairnessRow> {
    let items: Vec<(Scheduler, f64)> = vec![
        (Scheduler::Fifo, 1.0),
        (Scheduler::Fifo, AGGRESSOR),
        (Scheduler::Drr { quantum: 8 }, 1.0),
        (Scheduler::Drr { quantum: 8 }, AGGRESSOR),
    ];
    par_map(items, |(scheduler, aggressor)| {
        let cfg = fairness_cfg(scheduler, aggressor, scale);
        let r = run_txn_at(&cfg, cfg.offered_mops);
        let tenant_p99_us = r.tenant_p99_us();
        let victim_p99_us = tenant_p99_us.iter().skip(1).copied().fold(0.0f64, f64::max);
        FairnessRow { scheduler, aggressor, tenant_p99_us, victim_p99_us, digest: r.digest() }
    })
}

/// Victim p99 inflation per scheduler: aggressor cell over baseline
/// cell. The number the acceptance gate bounds for DRR.
pub fn victim_inflation(rows: &[FairnessRow], scheduler: Scheduler) -> f64 {
    let pick = |aggr: f64| {
        rows.iter()
            .find(|r| r.scheduler.name() == scheduler.name() && r.aggressor == aggr)
            .expect("fairness cell present")
    };
    let base = pick(1.0).victim_p99_us;
    let aggr = pick(AGGRESSOR).victim_p99_us;
    if base > 0.0 {
        aggr / base
    } else {
        f64::INFINITY
    }
}

/// Render the fairness rows as an aligned table.
pub fn fairness_table(rows: &[FairnessRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:>9} {:>10} {:>10} {:>10} {:>10} {:>11} {:>10}",
        "sched", "aggressor", "t0_p99", "t1_p99", "t2_p99", "t3_p99", "victim_p99", "inflation"
    );
    for r in rows {
        let inflation = if r.aggressor > 1.0 {
            format!("{:.2}x", victim_inflation(rows, r.scheduler))
        } else {
            "-".into()
        };
        let mut line = format!("{:<6} {:>9.1}", r.scheduler.name(), r.aggressor);
        for t in &r.tenant_p99_us {
            line.push_str(&format!(" {t:>10.3}"));
        }
        let _ = writeln!(out, "{line} {:>11.3} {inflation:>10}", r.victim_p99_us);
    }
    out
}

/// `txn-fairness`: the committed fairness table plus its digests.
pub fn fairness_experiment(scale: Scale) -> Vec<Experiment> {
    let rows = fairness_rows(scale);
    let cfg = fairness_cfg(Scheduler::Fifo, 1.0, scale);
    let mut notes = vec![
        format!(
            "tenant 0 multiplies its arrival rate by {AGGRESSOR}; victims keep the base rate \
             ({} MTPS offered across {} pods x {} tenants, quota {}, {} QPs)",
            cfg.offered_mops, cfg.pods, cfg.tenants, cfg.quota, cfg.qps
        ),
        format!(
            "victim p99 inflation: fifo {:.2}x vs drr {:.2}x — DRR's per-tenant deficit bounds \
             the aggressor's share of the QP pool",
            victim_inflation(&rows, Scheduler::Fifo),
            victim_inflation(&rows, Scheduler::Drr { quantum: 8 }),
        ),
    ];
    let digests: Vec<String> = rows
        .iter()
        .map(|r| format!("{}-x{}:{:016x}", r.scheduler.name(), r.aggressor, r.digest))
        .collect();
    notes.push(format!("digests: {}", digests.join(" ")));
    vec![Experiment {
        id: "txn-fairness",
        title: "multi-tenant QP pool — victim p99 under an aggressor tenant, FIFO vs DRR".into(),
        output: Output::Table(fairness_table(&rows)),
        notes,
    }]
}

// ---------------------------------------------------------------------------
// traffic-burst

/// `traffic-burst`: Poisson vs MMPP capacity knees at the same mean
/// offered load, per app × variant, with the headroom lost to burst.
pub fn burst_experiment(scale: Scale) -> Vec<Experiment> {
    use std::fmt::Write as _;
    let mut items: Vec<(AppKind, bool, bool)> = Vec::new();
    for app in AppKind::all() {
        for optimized in [false, true] {
            for bursty in [false, true] {
                items.push((app, optimized, bursty));
            }
        }
    }
    let knees = par_map(items.clone(), |(app, optimized, bursty)| {
        let cfg = TrafficConfig { optimized, bursty, ..base_cfg(app, scale) };
        find_knee(&cfg, app.default_slo())
    });
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<10} {:<9} {:>8} {:>14} {:>12} {:>12}",
        "app", "variant", "slo(us)", "poisson(MOPS)", "mmpp(MOPS)", "headroom-lost"
    );
    let mut notes = Vec::new();
    for pair in items.chunks(2).zip(knees.chunks(2)) {
        let ((app, optimized, _), [poisson, mmpp]) = (pair.0[0], pair.1) else {
            unreachable!("items built in (poisson, mmpp) pairs");
        };
        let lost = if poisson.knee_mops > 0.0 {
            (1.0 - mmpp.knee_mops / poisson.knee_mops) * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            table,
            "{:<10} {:<9} {:>8.1} {:>14.4} {:>12.4} {:>11.1}%",
            app.name(),
            if optimized { "optimized" } else { "basic" },
            poisson.slo.as_us(),
            poisson.knee_mops,
            mmpp.knee_mops,
            lost
        );
    }
    notes.push(
        "MMPP burst phases run at 1.5x the mean rate (0.5x between bursts, 200us mean dwell); \
         the knee is the max mean load whose p99 still meets the app SLO, so the gap is the \
         capacity an operator must hold back when arrivals are bursty"
            .into(),
    );
    vec![Experiment {
        id: "traffic-burst",
        title: "burstiness tax — Poisson vs MMPP capacity knees at equal mean load".into(),
        output: Output::Table(table),
        notes,
    }]
}

// ---------------------------------------------------------------------------
// traffic-series

fn series_cfg(optimized: bool, scale: Scale) -> TrafficConfig {
    TrafficConfig {
        optimized,
        bursty: true,
        offered_mops: 8.0,
        ops_per_worker: if scale.paper { 9600 } else { 2400 },
        window: SimTime::from_us(100),
        ..base_cfg(AppKind::Hashtable, scale)
    }
}

/// `traffic-series`: per-window p99 and goodput over time under MMPP
/// arrivals — the latency series as a committed experiment.
pub fn series_experiment(scale: Scale) -> Vec<Experiment> {
    let reports =
        par_map(vec![false, true], |optimized| run_traffic(&series_cfg(optimized, scale)));
    let window_us = series_cfg(false, scale).window.as_us();
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for (optimized, r) in [false, true].into_iter().zip(&reports) {
        let label = if optimized { "optimized" } else { "basic" };
        let mut p99 = Series::new(format!("{label} p99(us)"));
        let mut goodput = Series::new(format!("{label} goodput(MOPS)"));
        for (start, h) in r.series.windows() {
            let x = start.as_us();
            p99.push(x, h.quantile(0.99).map_or(0.0, |t| t.as_us()));
            goodput.push(x, h.count() as f64 / window_us);
        }
        series.push(p99);
        series.push(goodput);
        notes.push(format!("{label} histogram digest: {:016x}", r.digest()));
    }
    let cfg = series_cfg(false, scale);
    notes.push(format!(
        "hashtable under MMPP arrivals at {} MOPS mean ({}us windows, windowed by arrival time \
         so the series is schedule-independent); burst phases push offered load to 1.5x the \
         mean and the p99 breathes with the phase transitions",
        cfg.offered_mops, window_us
    ));
    vec![Experiment {
        id: "traffic-series",
        title: "windowed tail dynamics — p99 and goodput over time under MMPP bursts".into(),
        output: Output::Series { x: "window(us)".into(), y: "p99(us) / MOPS".into(), series },
        notes,
    }]
}

// ---------------------------------------------------------------------------
// repro --txn: knee rows and sweep tables

/// Locate the capacity knee of every (profile, mode) pair under the
/// profile's SLO (or `slo_us` for all, when given). Pairs fan out
/// across cores; rows come back in (profile, mode) order.
pub fn txn_knee_rows(
    profiles: &[TxnProfile],
    modes: &[Concurrency],
    scale: Scale,
    slo_us: Option<f64>,
) -> Vec<KneeRow> {
    let mut items: Vec<(TxnProfile, Concurrency)> = Vec::new();
    for &profile in profiles {
        for &mode in modes {
            items.push((profile, mode));
        }
    }
    par_map(items, |(profile, concurrency)| {
        let base = TxnTrafficConfig { concurrency, ..base_txn_cfg(profile, scale) };
        let slo = match slo_us {
            Some(us) => SimTime::from_ns_f64(us * 1e3),
            None => base.default_slo(),
        };
        KneeRow {
            app: format!("txn-{}", profile.name()),
            variant: concurrency.name().into(),
            knee: find_txn_knee(&base, slo),
        }
    })
}

/// Render a txn load sweep over profiles × modes × `loads` as an
/// aligned table — the unit of the txn-mode determinism comparison
/// (latency quantiles, abort accounting, and digests all included, so
/// byte identity covers the whole report).
pub fn txn_sweep_table(
    profiles: &[TxnProfile],
    modes: &[Concurrency],
    loads: &[f64],
    scale: Scale,
    shards: usize,
) -> String {
    use std::fmt::Write as _;
    let mut items: Vec<(TxnProfile, Concurrency, f64)> = Vec::new();
    for &profile in profiles {
        for &mode in modes {
            items.extend(loads.iter().map(|&l| (profile, mode, l)));
        }
    }
    let reports = par_map(items.clone(), |(profile, concurrency, load)| {
        let base = TxnTrafficConfig { concurrency, shards, ..base_txn_cfg(profile, scale) };
        run_txn_at(&base, load)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<10} {:>9} {:>9} {:>7} {:>8} {:>8} {:>8} {:>8} {:>7}  digest",
        "profile",
        "mode",
        "offered",
        "achieved",
        "ops",
        "p50_us",
        "p99_us",
        "commits",
        "aborts",
        "casrty",
    );
    for ((profile, mode, _), r) in items.iter().zip(&reports) {
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:>9.4} {:>9.4} {:>7} {:>8.3} {:>8.3} {:>8} {:>8} {:>7}  {:016x}",
            profile.name(),
            mode.name(),
            r.offered_mops,
            r.achieved_mops,
            r.ops,
            r.q_us(0.5),
            r.q_us(0.99),
            r.stats.commits,
            r.stats.aborts,
            r.stats.cas_retries,
            r.digest()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_raises_aborts_with_conflict() {
        let scale = Scale { paper: false };
        let quiet = run_txn_at(&contention_cfg(Concurrency::Optimistic, 0.0, scale), 0.3);
        let hot = run_txn_at(&contention_cfg(Concurrency::Optimistic, 0.8, scale), 0.3);
        assert_eq!(quiet.stats.failures, 0);
        assert_eq!(hot.stats.failures, 0);
        assert!(
            hot.stats.abort_ratio() > quiet.stats.abort_ratio(),
            "conflict 0.8 ({:.3}) must abort more than conflict 0 ({:.3})",
            hot.stats.abort_ratio(),
            quiet.stats.abort_ratio()
        );
    }

    #[test]
    fn drr_bounds_victim_inflation_under_aggressor() {
        // The acceptance property: with an 8x aggressor on the shared QP
        // pool, DRR keeps the victims' p99 inflation bounded, and no
        // worse than FIFO's (which serves the aggressor's backlog in
        // arrival order).
        let rows = fairness_rows(Scale { paper: false });
        let fifo = victim_inflation(&rows, Scheduler::Fifo);
        let drr = victim_inflation(&rows, Scheduler::Drr { quantum: 8 });
        assert!(drr.is_finite() && drr > 0.0);
        assert!(drr <= fifo * 1.05, "drr inflation {drr:.2}x must not exceed fifo {fifo:.2}x");
        assert!(drr < 10.0, "drr victim inflation {drr:.2}x must stay bounded");
    }

    #[test]
    fn txn_sweep_table_is_shard_invariant() {
        let profiles = [TxnProfile::Hashtable];
        let modes = [Concurrency::Optimistic, Concurrency::Locked];
        let scale = Scale { paper: false };
        let serial = txn_sweep_table(&profiles, &modes, &[0.05], scale, 1);
        let sharded = txn_sweep_table(&profiles, &modes, &[0.05], scale, 2);
        assert_eq!(serial, sharded, "txn sweep table must be byte-identical under --shards 2");
        assert!(serial.contains("optimistic") && serial.contains("locked"));
    }

    #[test]
    fn burst_and_series_experiments_render() {
        // Shape-only smoke at tiny scale happens implicitly through the
        // committed results; here just check the series experiment has
        // multiple windows and both variants.
        let exps = series_experiment(Scale { paper: false });
        let r = exps[0].render();
        assert!(r.contains("basic p99(us)") && r.contains("optimized p99(us)"));
        let data_lines = r
            .lines()
            .filter(|l| l.split_whitespace().next().is_some_and(|w| w.parse::<f64>().is_ok()));
        assert!(data_lines.count() >= 4, "expected several windows:\n{r}");
    }
}
