//! # bench — the reproduction harness
//!
//! Regenerates every data table and figure of *Thinking More about RDMA
//! Memory Semantics* (CLUSTER 2021) from the simulated testbed. The
//! `repro` binary drives the modules here; standalone timing binaries
//! (in `benches/`, built on [`harness`]) cover simulator hot paths.
//!
//! Experiments are independent deterministic simulations, so the runner
//! fans them out across cores with [`par_map`]; results are merged back
//! in submission order and are byte-identical to a serial run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

pub mod ablate;
pub mod appfigs;
pub mod atomics;
pub mod harness;
pub mod lint;
pub mod micro;
pub mod openloop;
pub mod report;
pub mod txnbench;

pub use appfigs::Scale;
pub use report::{Experiment, Output};
use verbcheck::VerbProgram;

/// `0` = decide automatically; otherwise the fixed worker count set by
/// [`set_parallelism`].
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pin the number of worker threads [`par_map`] uses (`Some(1)` forces
/// serial execution); `None` restores the default (the machine's
/// available parallelism). Returns the override this call replaced, so
/// a caller can put it back. Parallelism only changes wall-clock, never
/// results — experiments are independent deterministic simulations and
/// outputs are merged in input order.
pub fn set_parallelism(jobs: Option<usize>) -> Option<usize> {
    match JOBS_OVERRIDE.swap(jobs.unwrap_or(0), Ordering::SeqCst) {
        0 => None,
        j => Some(j),
    }
}

/// The worker count [`par_map`] will use for `n` items.
pub fn parallelism(n: usize) -> usize {
    let configured = match JOBS_OVERRIDE.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        j => j,
    };
    configured.min(n).max(1)
}

/// Order-preserving parallel map over independent experiment points on
/// [`parallelism`] workers; see [`simcore::opcount::par_map`].
pub fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let workers = parallelism(items.len());
    simcore::opcount::par_map(items, workers, f)
}

/// One experiment group the harness can regenerate — the single registry
/// entry behind `repro <id>`, `repro micro`, `repro --lint <id>`, and
/// the `--check-determinism` id set.
pub struct ExperimentSpec {
    /// The id `repro` accepts.
    pub id: &'static str,
    /// Run the group.
    pub run: fn(Scale) -> Vec<Experiment>,
    /// The verb programs behind the group's posting patterns, labeled
    /// `<id>/<variant>` from the id passed in. Empty only for groups that
    /// post no verbs at all.
    pub lint: fn(&str) -> Vec<(String, VerbProgram)>,
    /// Member of the §III microbenchmark set (`repro micro`, the bench
    /// wall-clock acceptance target).
    pub micro: bool,
    /// Member of the `repro --check-determinism` id set.
    pub determinism: bool,
}

impl ExperimentSpec {
    /// This group's labeled lint programs.
    pub fn programs(&self) -> Vec<(String, VerbProgram)> {
        (self.lint)(self.id)
    }

    const fn micro(self) -> Self {
        ExperimentSpec { micro: true, ..self }
    }

    const fn determinism(self) -> Self {
        ExperimentSpec { determinism: true, ..self }
    }
}

const fn spec(
    id: &'static str,
    run: fn(Scale) -> Vec<Experiment>,
    lint: fn(&str) -> Vec<(String, VerbProgram)>,
) -> ExperimentSpec {
    ExperimentSpec { id, run, lint, micro: false, determinism: false }
}

/// Every experiment group, in paper order. `determinism` marks the
/// `--check-determinism` set: txn-contention puts the transactional
/// service inside the gate, and fig6-xxl's notes carry the fleet memory
/// digest, so the gate pins sparse-page placement too.
pub static EXPERIMENTS: &[ExperimentSpec] = &[
    spec("fig1", |_| micro::fig1(), lint::fig1).micro(),
    spec("fig3", |_| micro::fig3(), lint::doorbell16).micro(),
    spec("fig4", |_| micro::fig4(), lint::doorbell32).micro(),
    spec("fig5", |_| micro::fig5(), lint::fig5).micro(),
    spec("table1", |_| micro::table1(), lint::doorbell32).micro().determinism(),
    spec("fig6", |_| micro::fig6(), lint::fig6).micro(),
    spec("fig8", |_| micro::fig8(), lint::fig8).micro().determinism(),
    // Local inter-socket memory: no verbs to lint.
    spec("table2", |_| micro::table2(), |_| Vec::new()).micro().determinism(),
    spec("table3", |_| micro::table3(), lint::table3).micro(),
    spec("fig10", |_| atomics::fig10(), lint::atomics),
    spec("fig12", |_| appfigs::fig12(), lint::hashtable),
    spec("fig13", |_| appfigs::fig13(), lint::hashtable),
    spec("fig15", |_| appfigs::fig15(), lint::shuffle),
    spec("fig16", appfigs::fig16, lint::join),
    spec("fig17", appfigs::fig17, lint::join),
    spec("fig18", |_| appfigs::fig18(), lint::join),
    spec("fig19", |_| appfigs::fig19(), lint::dlog),
    spec("extra-mr-scale", |_| micro::extra_mr_scale(), lint::mr_scale),
    spec("extra-qp-scale", |_| micro::extra_qp_scale(), lint::qp_scale),
    spec("extra-recovery", |_| appfigs::extra_recovery(), lint::recovery),
    spec("extra-reg-cost", |_| micro::extra_reg_cost(), lint::reg_cost),
    spec("extra-ycsb", |_| appfigs::extra_ycsb(), lint::ycsb),
    spec("fig6-xl", micro::fig6_xl, lint::fig6),
    spec("fig6-xxl", micro::fig6_xxl, lint::fig6).determinism(),
    spec("ablate-occupancy", |_| ablate::ablate_occupancy(), lint::rand_write),
    spec("ablate-mtt", |_| ablate::ablate_mtt_capacity(), lint::rand_write),
    spec("ablate-backoff", |_| ablate::ablate_backoff(), lint::atomics),
    spec("ablate-inline", |_| ablate::ablate_inline(), lint::inline),
    spec("traffic-hashtable", |s| openloop::experiment("traffic-hashtable", s), lint::traffic_app),
    spec("traffic-shuffle", |s| openloop::experiment("traffic-shuffle", s), lint::traffic_app),
    spec("traffic-join", |s| openloop::experiment("traffic-join", s), lint::traffic_app),
    spec("traffic-dlog", |s| openloop::experiment("traffic-dlog", s), lint::traffic_app),
    spec("traffic-burst", txnbench::burst_experiment, lint::traffic_burst),
    spec("traffic-series", txnbench::series_experiment, lint::traffic_series),
    spec("txn-contention", txnbench::contention_experiment, lint::txn_contention).determinism(),
    spec("txn-fairness", txnbench::fairness_experiment, lint::txn_fairness),
];

/// The registry entry for `id`, if there is one.
pub fn experiment(id: &str) -> Option<&'static ExperimentSpec> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Every experiment id, in registry (paper) order.
pub fn experiment_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|e| e.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_resolve() {
        let mut ids = experiment_ids();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");
        assert!(experiment("nosuch").is_none());
        // Run the cheapest experiment end to end.
        let exps = (experiment("table2").unwrap().run)(Scale { paper: false });
        assert!(!exps.is_empty());
        for e in exps {
            assert!(!e.render().is_empty());
        }
    }

    #[test]
    fn par_map_preserves_order_and_ops() {
        let before = simcore::opcount::current();
        let out = par_map((0..100u64).collect(), |i| {
            simcore::opcount::add(i);
            i * 2
        });
        assert_eq!(out, (0..100u64).map(|i| i * 2).collect::<Vec<_>>());
        // All worker-side op counts landed on the calling thread.
        assert_eq!(simcore::opcount::current() - before, (0..100u64).sum::<u64>());
    }

    #[test]
    fn par_map_serial_override_matches() {
        set_parallelism(Some(1));
        let serial = par_map((0..20u64).collect(), |i| i + 1);
        set_parallelism(None);
        let parallel = par_map((0..20u64).collect(), |i| i + 1);
        assert_eq!(serial, parallel);
    }
}
