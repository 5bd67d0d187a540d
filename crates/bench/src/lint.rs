//! Static verb analysis over the experiments' posting patterns.
//!
//! Every experiment id maps to one or more [`VerbProgram`]s capturing the
//! verbs the simulation posts — the strategies of Fig 3–5, the access
//! patterns of Fig 6/8, the application traffic of Fig 12–19. `repro
//! --lint <ids>` runs [`verbcheck`] over them and fails on error-severity
//! findings; guideline warnings (W2xx) are printed but pass, because
//! several experiments *exist* to demonstrate those anti-patterns (the
//! basic shuffle draws W203, the random sweeps draw W202, the NUMA
//! matrix's worst cell draws W204).

use crate::ExperimentSpec;
use apps::{DlogConfig, HtConfig, HtVariant, JoinConfig, ShuffleConfig, ShuffleVariant};
use remem::Strategy;
use rnicsim::{DeviceCaps, MrId, QpNum, RKey, Sge, VerbKind, WorkRequest, WrId};
use verbcheck::VerbProgram;

/// The deterministic page scramble the repro harness's random sweeps
/// stand in for (Weyl-style multiplicative hash; no RNG in static code).
fn scrambled(i: u64, slots: u64) -> u64 {
    (i.wrapping_mul(2654435761)) % slots.max(1)
}

/// Two machines, one QP, socket-affine everywhere (the
/// `ClusterConfig::two_machines()` + `Endpoint::affine` shape every
/// microbenchmark uses): MR 0 on each side, sized as given.
fn two_machines(local_len: u64, remote_len: u64) -> VerbProgram {
    let mut p = VerbProgram::new();
    p.mr(0, MrId(0), 1, local_len);
    p.mr(1, MrId(0), 1, remote_len);
    p.qp(QpNum(0), 0, 1, 1, 1);
    p
}

fn write(id: u64, src: Sge, remote_off: u64) -> WorkRequest {
    WorkRequest::write(id, src, RKey(0), remote_off)
}

// The `pub(crate)` functions below are the `lint` entries of
// `crate::EXPERIMENTS`: each takes the experiment id and labels its
// programs `<id>/<variant>`.

fn named(id: &str, label: &str, p: VerbProgram) -> (String, VerbProgram) {
    (format!("{id}/{label}"), p)
}

/// Fig 1: warm latency + windowed throughput of one verb — an in-bounds
/// write and read per payload extreme, each polled.
pub(crate) fn fig1(id: &str) -> Vec<(String, VerbProgram)> {
    let mut p = two_machines(1 << 20, 1 << 20);
    let mut wr_id = 0;
    for payload in [8u64, 8192] {
        p.post(QpNum(0), write(wr_id, Sge::new(MrId(0), 0, payload), 0));
        p.poll(QpNum(0), 1);
        wr_id += 1;
        p.post(QpNum(0), WorkRequest::read(wr_id, Sge::new(MrId(0), 0, payload), RKey(0), 0));
        p.poll(QpNum(0), 1);
        wr_id += 1;
    }
    vec![named(id, "write-read", p)]
}

/// One `batched_write` cycle of a vector-IO strategy (Fig 3/4, Table I):
/// Doorbell posts `batch` WRs (selectively signaled), SGL packs the batch
/// into one WR's gather list, SP stages locally and posts one contiguous
/// write. MR 1 on machine 0 is the SP staging buffer.
fn strategy_program(strategy: Strategy, batch: usize, payload: u64) -> VerbProgram {
    let mut p = two_machines(1 << 20, 1 << 22);
    p.mr(0, MrId(1), 1, 1 << 16);
    match strategy {
        Strategy::Doorbell => {
            for i in 0..batch {
                let mut wr = write(
                    i as u64,
                    Sge::new(MrId(0), i as u64 * 4096, payload),
                    i as u64 * payload,
                );
                wr.signaled = i + 1 == batch;
                p.post(QpNum(0), wr);
            }
            p.poll(QpNum(0), 1);
        }
        Strategy::Sgl => {
            let sgl: Vec<Sge> =
                (0..batch).map(|i| Sge::new(MrId(0), i as u64 * 4096, payload)).collect();
            p.post(
                QpNum(0),
                WorkRequest {
                    wr_id: WrId(0),
                    kind: VerbKind::Write,
                    sgl: sgl.into(),
                    remote: Some((RKey(0), 0)),
                    signaled: true,
                },
            );
            p.poll(QpNum(0), 1);
        }
        Strategy::Sp => {
            p.post(QpNum(0), write(0, Sge::new(MrId(1), 0, batch as u64 * payload), 0));
            p.poll(QpNum(0), 1);
        }
    }
    p
}

fn strategy_programs(id: &str, batch: usize, payload: u64) -> Vec<(String, VerbProgram)> {
    Strategy::ALL
        .iter()
        .map(|s| {
            let label = format!("{}-batch{batch}", s.label().to_lowercase());
            named(id, &label, strategy_program(*s, batch, payload))
        })
        .collect()
}

/// Fig 5: two threads sharing the NIC — one QP each, SP flushes into
/// disjoint 64 KB slabs of the shared destination (no W101: no overlap).
pub(crate) fn fig5(id: &str) -> Vec<(String, VerbProgram)> {
    let mut p = VerbProgram::new();
    p.mr(1, MrId(0), 1, 1 << 22);
    for th in 0..2u64 {
        p.mr(0, MrId(th as u32), 1, 1 << 14);
        p.qp(QpNum(th as u32), 0, 1, 1, 1);
        p.post(QpNum(th as u32), write(th, Sge::new(MrId(th as u32), 0, 128), th * (1 << 16)));
        p.poll(QpNum(th as u32), 1);
    }
    vec![named(id, "two-threads", p)]
}

/// Fig 6: page-sized writes over a 2 GB region — sequentially, or at
/// scrambled page offsets (the random curve; draws W202 because the
/// region is far beyond the MTT cache's coverage).
fn fig6_program(sequential: bool) -> VerbProgram {
    let region = 2u64 << 30;
    let pages = region / 4096;
    let mut p = two_machines(1 << 20, region);
    for i in 0..16u64 {
        let page = if sequential { i } else { scrambled(i, pages) };
        p.post(QpNum(0), write(i, Sge::new(MrId(0), 0, 4096), page * 4096));
        p.poll(QpNum(0), 1);
    }
    p
}

/// Fig 8, native path: skewed 32 B writes over 64 MB of 1 KB blocks —
/// the §III-C scenario verbatim. Eight hit the hot block (W203: should
/// consolidate), eight stride randomly (W202: beyond MTT coverage).
fn fig8_native_program() -> VerbProgram {
    let region = 64u64 << 20;
    let mut p = two_machines(4096, region);
    let mut id = 0;
    for i in 0..8u64 {
        p.post(QpNum(0), write(id, Sge::new(MrId(0), 0, 32), i * 32));
        p.poll(QpNum(0), 1);
        id += 1;
    }
    for i in 0..8u64 {
        let block = scrambled(i + 1, region / 1024);
        p.post(QpNum(0), write(id, Sge::new(MrId(0), 0, 32), block * 1024));
        p.poll(QpNum(0), 1);
        id += 1;
    }
    p
}

/// Fig 8, consolidated path (θ=16): the same traffic after absorption —
/// a handful of whole-block flushes from the local shadow. Clean.
fn fig8_consolidated_program() -> VerbProgram {
    let region = 64u64 << 20;
    let mut p = two_machines(region, region);
    for i in 0..6u64 {
        let block = scrambled(i, region / 1024);
        p.post(QpNum(0), write(i, Sge::new(MrId(0), block * 1024, 1024), block * 1024));
        p.poll(QpNum(0), 1);
    }
    p
}

/// Table III: a cell of the NUMA placement matrix. The worst cell puts
/// both buffers on the socket the ports do *not* own — W204 twice per
/// post, which is the entire point of the table.
fn table3_program(affine: bool) -> VerbProgram {
    let socket = if affine { 1 } else { 0 };
    let mut p = VerbProgram::new();
    p.mr(0, MrId(0), socket, 1 << 16);
    p.mr(1, MrId(0), socket, 1 << 16);
    p.qp(QpNum(0), 0, 1, 1, 1);
    p.post(QpNum(0), write(0, Sge::new(MrId(0), 0, 64), 0));
    p.poll(QpNum(0), 1);
    p.post(QpNum(0), WorkRequest::read(1, Sge::new(MrId(0), 0, 64), RKey(0), 0));
    p.poll(QpNum(0), 1);
    p
}

/// Fig 10 / ablate-backoff: the remote spinlock (CAS acquire, write
/// release) and sequencer (FAA) clients. Every atomic is 8-byte aligned
/// with an 8-byte result SGL, and each op is polled before the next —
/// the happens-before discipline the analyzer demands.
fn atomics_program() -> VerbProgram {
    let mut p = VerbProgram::new();
    p.mr(0, MrId(0), 1, 64); // scratch (result + release image)
    p.mr(1, MrId(0), 1, 64); // lock word + sequencer counter
    p.qp(QpNum(0), 0, 1, 1, 1);
    let mut id = 0;
    for _ in 0..3 {
        p.post(
            QpNum(0),
            WorkRequest {
                wr_id: WrId(id),
                kind: VerbKind::CompareSwap { expected: 0, desired: 1 },
                sgl: Sge::new(MrId(0), 0, 8).into(),
                remote: Some((RKey(0), 0)),
                signaled: true,
            },
        );
        p.poll(QpNum(0), 1);
        id += 1;
        p.post(QpNum(0), write(id, Sge::new(MrId(0), 8, 8), 0));
        p.poll(QpNum(0), 1);
        id += 1;
    }
    for _ in 0..3 {
        p.post(
            QpNum(0),
            WorkRequest {
                wr_id: WrId(id),
                kind: VerbKind::FetchAdd { delta: 1 },
                sgl: Sge::new(MrId(0), 0, 8).into(),
                remote: Some((RKey(0), 8)),
                signaled: true,
            },
        );
        p.poll(QpNum(0), 1);
        id += 1;
    }
    p
}

/// extra-qp-scale: four RC clients writing disjoint slots of one server
/// region, plus a UD client using two-sided sends (no remote memory).
pub(crate) fn qp_scale(id: &str) -> Vec<(String, VerbProgram)> {
    let mut p = VerbProgram::new();
    p.mr(7, MrId(0), 1, 1 << 20);
    for cl in 0..4u64 {
        p.mr(cl as usize, MrId(0), 1, 4096);
        p.qp(QpNum(cl as u32), cl as usize, 7, 1, 1);
        p.post(QpNum(cl as u32), write(cl, Sge::new(MrId(0), 0, 32), cl * 64));
        p.poll(QpNum(cl as u32), 1);
    }
    p.mr(4, MrId(0), 1, 4096);
    p.qp(QpNum(4), 4, 7, 1, 1);
    p.post(
        QpNum(4),
        WorkRequest {
            wr_id: WrId(100),
            kind: VerbKind::Send,
            sgl: Sge::new(MrId(0), 0, 32).into(),
            remote: None,
            signaled: true,
        },
    );
    p.poll(QpNum(4), 1);
    vec![named(id, "rc-and-ud", p)]
}

/// extra-mr-scale: ten 4 MB regions written round-robin. Each region
/// individually fits the MTT cache, so the per-MR lint stays quiet even
/// though the *combined* footprint is what the experiment measures —
/// a scope limit recorded in DESIGN.md.
pub(crate) fn mr_scale(id: &str) -> Vec<(String, VerbProgram)> {
    let per_mr = 4u64 << 20;
    let mut p = VerbProgram::new();
    p.mr(0, MrId(0), 1, 4096);
    p.qp(QpNum(0), 0, 1, 1, 1);
    for mr in 0..10u32 {
        p.mr(1, MrId(mr), 1, per_mr);
    }
    for i in 0..20u64 {
        let mr = (i % 10) as u32;
        let off = scrambled(i, per_mr / 32) * 32;
        p.post(QpNum(0), WorkRequest::write(i, Sge::new(MrId(0), 0, 32), RKey(mr as u64), off));
        p.poll(QpNum(0), 1);
    }
    vec![named(id, "round-robin", p)]
}

/// extra-reg-cost: a pooled 4 KB write, then the register-on-IO-path
/// pattern (fresh MR, one write, deregister). Registration itself is a
/// control-path cost the event list doesn't carry; both transfers are
/// clean verbs.
pub(crate) fn reg_cost(id: &str) -> Vec<(String, VerbProgram)> {
    let mut p = two_machines(4096, 1 << 20);
    p.mr(0, MrId(1), 1, 4096); // the on-path registration
    p.post(QpNum(0), write(0, Sge::new(MrId(0), 0, 4096), 0));
    p.poll(QpNum(0), 1);
    p.post(QpNum(0), write(1, Sge::new(MrId(1), 0, 4096), 4096));
    p.poll(QpNum(0), 1);
    vec![named(id, "pooled-vs-onpath", p)]
}

/// extra-recovery: replaying the distributed log — sequential batch
/// reads of the log region back into the recovering engine.
fn recovery_replay_program() -> VerbProgram {
    let batch_bytes = 3 * 4096u64;
    let mut p = two_machines(1 << 20, batch_bytes * 8);
    for i in 0..4u64 {
        p.post(
            QpNum(0),
            WorkRequest::read(i, Sge::new(MrId(0), 0, batch_bytes), RKey(0), i * batch_bytes),
        );
        p.poll(QpNum(0), 1);
    }
    p
}

/// ablate-occupancy / ablate-mtt: the random 32 B write sweep those
/// ablations re-measure under perturbed penalties — draws W202 by
/// construction (that thrash is the mechanism being ablated).
pub(crate) fn rand_write(id: &str) -> Vec<(String, VerbProgram)> {
    let region = 2u64 << 30;
    let mut p = two_machines(4096, region);
    for i in 0..16u64 {
        let off = scrambled(i, region / 4096) * 4096;
        p.post(QpNum(0), write(i, Sge::new(MrId(0), 0, 32), off));
        p.poll(QpNum(0), 1);
    }
    vec![named(id, "rand-write", p)]
}

/// ablate-inline: repeated small writes to one slot (absorbed in place;
/// kept under θ so the consolidation lint stays quiet).
pub(crate) fn inline(id: &str) -> Vec<(String, VerbProgram)> {
    let mut p = two_machines(4096, 1 << 20);
    for i in 0..4u64 {
        p.post(QpNum(0), write(i, Sge::new(MrId(0), 0, 32), 0));
        p.poll(QpNum(0), 1);
    }
    vec![named(id, "small-write", p)]
}

pub(crate) fn doorbell16(id: &str) -> Vec<(String, VerbProgram)> {
    strategy_programs(id, 16, 32)
}

pub(crate) fn doorbell32(id: &str) -> Vec<(String, VerbProgram)> {
    strategy_programs(id, 32, 32)
}

/// fig6-xl and fig6-xxl replicate the fig6 posting pattern across many
/// machine pairs (fig6-xxl additionally fans each pair out over many
/// QPs); per-pair verb programs are identical, so all three lint the
/// pattern once.
pub(crate) fn fig6(id: &str) -> Vec<(String, VerbProgram)> {
    vec![named(id, "seq", fig6_program(true)), named(id, "rand", fig6_program(false))]
}

pub(crate) fn fig8(id: &str) -> Vec<(String, VerbProgram)> {
    vec![
        named(id, "native", fig8_native_program()),
        named(id, "consolidated-theta16", fig8_consolidated_program()),
    ]
}

pub(crate) fn table3(id: &str) -> Vec<(String, VerbProgram)> {
    vec![
        named(id, "best-placement", table3_program(true)),
        named(id, "worst-placement", table3_program(false)),
    ]
}

pub(crate) fn atomics(id: &str) -> Vec<(String, VerbProgram)> {
    vec![named(id, "spinlock-sequencer", atomics_program())]
}

pub(crate) fn hashtable(id: &str) -> Vec<(String, VerbProgram)> {
    [
        ("basic", HtVariant::Basic),
        ("numa", HtVariant::Numa),
        ("reorder16", HtVariant::Reorder { theta: 16 }),
    ]
    .into_iter()
    .map(|(l, variant)| {
        named(id, l, apps::hashtable::verb_program(&HtConfig { variant, ..Default::default() }))
    })
    .collect()
}

pub(crate) fn ycsb(id: &str) -> Vec<(String, VerbProgram)> {
    [("numa", HtVariant::Numa), ("reorder16", HtVariant::Reorder { theta: 16 })]
        .into_iter()
        .map(|(l, variant)| {
            let cfg = HtConfig { variant, write_fraction: 0.5, ..Default::default() };
            named(id, l, apps::hashtable::verb_program(&cfg))
        })
        .collect()
}

pub(crate) fn shuffle(id: &str) -> Vec<(String, VerbProgram)> {
    [
        ("basic", ShuffleVariant::Basic),
        ("sgl16", ShuffleVariant::Sgl(16)),
        ("sp16", ShuffleVariant::Sp(16)),
    ]
    .into_iter()
    .map(|(l, variant)| {
        named(id, l, apps::shuffle::verb_program(&ShuffleConfig { variant, ..Default::default() }))
    })
    .collect()
}

pub(crate) fn join(id: &str) -> Vec<(String, VerbProgram)> {
    [("sgl", Strategy::Sgl), ("sp", Strategy::Sp)]
        .into_iter()
        .map(|(l, strategy)| {
            named(id, l, apps::join::verb_program(&JoinConfig { strategy, ..Default::default() }))
        })
        .collect()
}

pub(crate) fn dlog(id: &str) -> Vec<(String, VerbProgram)> {
    [1usize, 32]
        .into_iter()
        .map(|batch| {
            let cfg = DlogConfig { batch, ..Default::default() };
            named(id, &format!("batch{batch}"), apps::dlog::verb_program(&cfg))
        })
        .collect()
}

pub(crate) fn recovery(id: &str) -> Vec<(String, VerbProgram)> {
    let append = DlogConfig { batch: 1, ..Default::default() };
    vec![
        named(id, "append", apps::dlog::verb_program(&append)),
        named(id, "replay", recovery_replay_program()),
    ]
}

/// The open-loop traffic experiments reuse the traffic crate's own verb
/// programs, so static analysis sees exactly what the drivers post
/// (per-variant posting shapes, sockets, and batch flushes).
pub(crate) fn traffic_app(id: &str) -> Vec<(String, VerbProgram)> {
    let app = crate::openloop::app_of(id);
    vec![
        named(id, "basic", traffic::verb_program(app, false)),
        named(id, "optimized", traffic::verb_program(app, true)),
    ]
}

/// Burstiness changes *when* verbs are posted, never *which*: the burst
/// knee table posts exactly the app drivers' shapes, every app × variant.
pub(crate) fn traffic_burst(id: &str) -> Vec<(String, VerbProgram)> {
    traffic::AppKind::all()
        .into_iter()
        .flat_map(|app| {
            [("basic", false), ("optimized", true)].into_iter().map(move |(l, optimized)| {
                named(id, &format!("{}-{l}", app.name()), traffic::verb_program(app, optimized))
            })
        })
        .collect()
}

/// The windowed series drives the hashtable app's two variants.
pub(crate) fn traffic_series(id: &str) -> Vec<(String, VerbProgram)> {
    vec![
        named(id, "basic", traffic::verb_program(traffic::AppKind::Hashtable, false)),
        named(id, "optimized", traffic::verb_program(traffic::AppKind::Hashtable, true)),
    ]
}

/// The txn experiments post the transactional protocol's verb sequences
/// (read/CAS-lock/validate/write/commit-unlock over the record layout) —
/// the builders mirror the service's geometry.
pub(crate) fn txn_contention(id: &str) -> Vec<(String, VerbProgram)> {
    [("optimistic", txn::Concurrency::Optimistic), ("locked", txn::Concurrency::Locked)]
        .into_iter()
        .map(|(l, mode)| named(id, l, txn::verb_program(txn::TxnProfile::Hashtable, mode)))
        .collect()
}

pub(crate) fn txn_fairness(id: &str) -> Vec<(String, VerbProgram)> {
    let mode = txn::Concurrency::Optimistic;
    vec![named(id, "optimistic", txn::verb_program(txn::TxnProfile::Hashtable, mode))]
}

/// Outcome of linting a set of experiment ids.
pub struct LintReport {
    /// Programs analyzed.
    pub programs: usize,
    /// Warning-severity findings.
    pub warnings: usize,
    /// Error-severity findings (a non-empty count fails the gate).
    pub errors: usize,
    /// Rendered diagnostics plus the per-id status lines.
    pub rendered: String,
}

/// Analyze every program of every experiment against the default device
/// capabilities (the geometry the testbed simulates).
pub fn lint_ids(ids: &[&ExperimentSpec]) -> LintReport {
    lint_ids_with_caps(ids, &DeviceCaps::default())
}

/// Parse a device-capability file: `key = value` lines, `#` comments.
/// Unset keys keep the ConnectX-3 defaults; unknown keys are an error
/// (a typoed capability silently linting against the default geometry
/// would defeat the point of `--caps`).
pub fn parse_caps_file(text: &str) -> Result<DeviceCaps, String> {
    let mut caps = DeviceCaps::default();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`, got {:?}", i + 1, line))?;
        let (key, value) = (key.trim(), value.trim());
        let num = |v: &str| {
            v.parse::<u64>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("line {}: {key} needs a positive integer", i + 1))
        };
        match key {
            "max_sge" => caps.max_sge = num(value)? as usize,
            "sq_depth" => caps.sq_depth = num(value)? as usize,
            "cq_depth" => caps.cq_depth = num(value)? as usize,
            "mtt_cache_entries" => caps.mtt_cache_entries = num(value)? as usize,
            "page_bytes" => caps.page_bytes = num(value)?,
            other => {
                return Err(format!(
                    "line {}: unknown capability key {other:?} (known: max_sge, sq_depth, \
                     cq_depth, mtt_cache_entries, page_bytes)",
                    i + 1
                ))
            }
        }
    }
    Ok(caps)
}

/// Analyze every program of every id against an explicit device
/// geometry — `repro --lint --caps <profile|file>` and the profile
/// sweep both land here.
pub fn lint_ids_with_caps(ids: &[&ExperimentSpec], caps: &DeviceCaps) -> LintReport {
    use std::fmt::Write as _;
    let mut report = LintReport { programs: 0, warnings: 0, errors: 0, rendered: String::new() };
    for spec in ids {
        let programs = spec.programs();
        if programs.is_empty() {
            let _ = writeln!(report.rendered, "{}: no verb traffic", spec.id);
            continue;
        }
        for (label, prog) in programs {
            report.programs += 1;
            let diags = verbcheck::analyze(&prog, caps);
            let (e, w): (Vec<_>, Vec<_>) =
                diags.iter().partition(|d| d.severity() == verbcheck::Severity::Error);
            report.errors += e.len();
            report.warnings += w.len();
            let status = if !e.is_empty() {
                format!("{} error(s), {} warning(s)", e.len(), w.len())
            } else if !w.is_empty() {
                format!("{} warning(s)", w.len())
            } else {
                "clean".into()
            };
            let _ = writeln!(report.rendered, "{label} ({} posts): {status}", prog.post_count());
            for d in &diags {
                for line in d.render().lines() {
                    let _ = writeln!(report.rendered, "  {line}");
                }
            }
        }
    }
    report
}

/// Outcome of `repro --lint --fix`.
pub struct FixReport {
    /// Programs analyzed.
    pub programs: usize,
    /// Programs that received at least one machine-applied fix.
    pub fixed: usize,
    /// Total fixes applied across all programs.
    pub fixes_applied: usize,
    /// W2xx findings still present after the fixpoint — the CI gate
    /// requires zero.
    pub remaining_w2xx: usize,
    /// Programs whose applied fixes claim result equivalence and whose
    /// replay digests were verified byte-identical.
    pub equivalence_checked: usize,
    /// Error-severity findings after fixing, plus any equivalence
    /// mismatch (a non-zero count fails the gate).
    pub errors: usize,
    /// Human-readable per-program log.
    pub rendered: String,
}

/// Run the auto-fix engine over every program of every id: apply each
/// W2xx diagnostic's machine fix to fixpoint, re-lint, and — where every
/// applied fix claims result equivalence — replay both the original and
/// the fixed program through the simulated testbed and compare memory
/// digests byte for byte.
pub fn fix_ids(ids: &[&ExperimentSpec]) -> FixReport {
    use std::fmt::Write as _;
    let caps = DeviceCaps::default();
    let opts = verbcheck::LintOptions::default();
    let mut report = FixReport {
        programs: 0,
        fixed: 0,
        fixes_applied: 0,
        remaining_w2xx: 0,
        equivalence_checked: 0,
        errors: 0,
        rendered: String::new(),
    };
    for spec in ids {
        let programs = spec.programs();
        if programs.is_empty() {
            let _ = writeln!(report.rendered, "{}: no verb traffic", spec.id);
            continue;
        }
        for (label, prog) in programs {
            report.programs += 1;
            let before = verbcheck::analyze_with(&prog, &caps, &opts);
            let out = verbcheck::fix_to_fixpoint(&prog, &caps, &opts);
            let w2 = out
                .remaining
                .iter()
                .filter(|d| d.severity() == verbcheck::Severity::Warning)
                .count();
            let errs = out.remaining.len() - w2;
            report.remaining_w2xx += w2;
            report.errors += errs;
            if out.applied.is_empty() {
                let _ = writeln!(report.rendered, "{label}: no fixes needed");
                continue;
            }
            report.fixed += 1;
            report.fixes_applied += out.applied.len();
            let _ = writeln!(
                report.rendered,
                "{label}: {} fix(es) in {} round(s), {w2} W2xx remaining",
                out.applied.len(),
                out.rounds
            );
            for f in &out.applied {
                let _ = writeln!(report.rendered, "  = applied: {}", f.describe());
            }
            if out.preserves_results && !verbcheck::has_errors(&before) {
                let a = cluster::replay_program(&prog);
                let b = cluster::replay_program(&out.program);
                if a.digests == b.digests && a.failures == 0 && b.failures == 0 {
                    report.equivalence_checked += 1;
                    let _ = writeln!(
                        report.rendered,
                        "  = equivalence: replay digests identical ({} machine(s))",
                        a.digests.len()
                    );
                } else {
                    report.errors += 1;
                    let _ = writeln!(
                        report.rendered,
                        "  = equivalence: MISMATCH (original {:x?}/{} failure(s) vs fixed \
                         {:x?}/{} failure(s))",
                        a.digests, a.failures, b.digests, b.failures
                    );
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use verbcheck::{analyze, has_errors, Code};

    fn codes(p: &VerbProgram) -> Vec<Code> {
        analyze(p, &DeviceCaps::default()).iter().map(|d| d.code).collect()
    }

    #[test]
    fn no_experiment_program_has_errors() {
        let caps = DeviceCaps::default();
        for spec in crate::EXPERIMENTS {
            for (label, prog) in spec.programs() {
                let diags = analyze(&prog, &caps);
                assert!(
                    !has_errors(&diags),
                    "{label}: {}",
                    diags.iter().map(|d| d.render()).collect::<String>()
                );
            }
        }
    }

    #[test]
    fn intentional_anti_patterns_draw_their_lints() {
        assert!(codes(&fig6_program(false)).contains(&Code::W202), "random sweep → W202");
        assert!(codes(&fig6_program(true)).is_empty(), "sequential sweep is clean");
        let native = codes(&fig8_native_program());
        assert!(native.contains(&Code::W203), "native fig8 → consolidate");
        assert!(native.contains(&Code::W202), "native fig8 thrashes the MTT");
        assert!(codes(&fig8_consolidated_program()).is_empty());
        assert_eq!(codes(&table3_program(false)), vec![Code::W204; 4]);
        assert!(codes(&table3_program(true)).is_empty());
        assert!(codes(&atomics_program()).is_empty(), "atomics are aligned and polled");
    }

    #[test]
    fn doorbell_strategy_draws_consolidation_but_sgl_and_sp_are_clean() {
        assert_eq!(codes(&strategy_program(Strategy::Doorbell, 16, 32)), vec![Code::W203]);
        assert!(codes(&strategy_program(Strategy::Sgl, 32, 32)).is_empty());
        assert!(codes(&strategy_program(Strategy::Sp, 32, 32)).is_empty());
    }

    #[test]
    fn lint_report_over_all_ids_is_error_free() {
        let ids: Vec<&ExperimentSpec> = crate::EXPERIMENTS.iter().collect();
        let report = lint_ids(&ids);
        assert_eq!(report.errors, 0, "{}", report.rendered);
        assert!(report.programs > 30, "expected broad coverage, got {}", report.programs);
        assert!(report.warnings > 0, "the anti-pattern demos should warn");
    }

    fn labels(id: &str) -> Vec<String> {
        crate::experiment(id).unwrap().programs().into_iter().map(|(l, _)| l).collect()
    }

    #[test]
    fn registry_lint_entries_cover_their_experiments() {
        // Every experiment posts verbs except table2 (local memory only),
        // whose entry is an explicit empty list.
        for spec in crate::EXPERIMENTS {
            assert_eq!(spec.programs().is_empty(), spec.id == "table2", "{}", spec.id);
        }
        // The per-app traffic ids cover both variants: the basic and
        // optimized drivers post different shapes (single ops vs batched
        // flushes).
        for id in crate::openloop::TRAFFIC_IDS {
            let labels = labels(id);
            for variant in ["basic", "optimized"] {
                assert!(
                    labels.contains(&format!("{id}/{variant}")),
                    "{id} lint entry is missing the {variant} variant (has {labels:?})"
                );
            }
        }
        // The burst knee table spans every app × variant; its lint entry
        // must too.
        let burst = labels("traffic-burst");
        assert_eq!(burst.len(), 8, "burst knees cover 4 apps x 2 variants (has {burst:?})");
        // The contention experiment runs both concurrency modes.
        let contention = labels("txn-contention");
        for mode in ["optimistic", "locked"] {
            assert!(
                contention.contains(&format!("txn-contention/{mode}")),
                "txn-contention lint entry is missing the {mode} mode (has {contention:?})"
            );
        }
    }

    #[test]
    fn caps_files_parse_and_reject_unknown_keys() {
        let caps = parse_caps_file(
            "# a ConnectX-3-ish geometry\nmax_sge = 16\nmtt_cache_entries = 512 # half\n\n",
        )
        .unwrap();
        assert_eq!(caps.max_sge, 16);
        assert_eq!(caps.mtt_cache_entries, 512);
        assert_eq!(caps.sq_depth, DeviceCaps::default().sq_depth, "unset keys keep defaults");
        assert!(parse_caps_file("max_sg = 16").unwrap_err().contains("unknown capability key"));
        assert!(parse_caps_file("max_sge 16").unwrap_err().contains("key = value"));
        assert!(parse_caps_file("max_sge = lots").unwrap_err().contains("positive integer"));
        // Zero is not positive: `page_bytes = 0` would divide by zero in
        // the analyzer, and a zero depth or cache size is no device.
        for key in ["max_sge", "sq_depth", "cq_depth", "mtt_cache_entries", "page_bytes"] {
            let err = parse_caps_file(&format!("{key} = 0")).unwrap_err();
            assert!(err.contains(&format!("{key} needs a positive integer")), "{err}");
        }
    }

    /// 32 MB random-stride writes: between ConnectX-3's 4 MB MTT
    /// coverage and ConnectX-5's 64 MB.
    fn mtt_sensitive_program() -> VerbProgram {
        let region = 32u64 << 20;
        let mut p = two_machines(4096, region);
        for i in 0..16u64 {
            let off = scrambled(i, region / 4096) * 4096;
            p.post(QpNum(0), write(i, Sge::new(MrId(0), 0, 32), off));
            p.poll(QpNum(0), 1);
        }
        p
    }

    #[test]
    fn caps_profiles_change_the_verdict() {
        // The same program thrashes a ConnectX-3 MTT but fits entirely
        // inside a ConnectX-5's — the scenario `--lint --caps` exists for.
        let p = mtt_sensitive_program();
        let cx3 = analyze(&p, &DeviceCaps::connectx3());
        assert_eq!(cx3.iter().map(|d| d.code).collect::<Vec<_>>(), vec![Code::W202]);
        let cx5 = analyze(&p, &DeviceCaps::profile("connectx5").unwrap());
        assert!(cx5.is_empty(), "{cx5:?}");
    }

    #[test]
    fn caps_sweep_never_introduces_errors() {
        // Profiles dominate the calibrated baseline, so a program that
        // lints error-free on the default geometry stays error-free on
        // every profile — the property that makes `--caps sweep` a gate.
        let ids: Vec<&ExperimentSpec> = crate::EXPERIMENTS.iter().collect();
        for (name, caps) in rnicsim::PROFILES {
            let report = lint_ids_with_caps(&ids, caps);
            assert_eq!(report.errors, 0, "profile {name}: {}", report.rendered);
        }
    }

    #[test]
    fn fix_report_reaches_zero_w2xx_over_all_ids() {
        let ids: Vec<&ExperimentSpec> = crate::EXPERIMENTS.iter().collect();
        let report = fix_ids(&ids);
        assert_eq!(report.errors, 0, "{}", report.rendered);
        assert_eq!(report.remaining_w2xx, 0, "{}", report.rendered);
        assert!(report.fixed > 0, "the anti-pattern demos should receive fixes");
        assert!(
            report.equivalence_checked > 0,
            "at least one program (table3 worst placement) replays for equivalence"
        );
    }
}
