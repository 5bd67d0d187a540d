//! # perfbench — the simulator's end-to-end and per-layer benchmark
//!
//! One process runs one named workload through the crates' public
//! functions for a fixed host-time budget, pass after pass, and reports
//! medians over the passes. Host time (how fast the simulator runs) is
//! measured from outside, around the benchmark's own calls; virtual time
//! (what the modelled NIC reports) is deterministic and doubles as the
//! correctness check, see [`gate`].
//!
//! * [`fleet`] — `fleet-verbs`: closed-loop one-sided verbs over a
//!   2048-machine fleet on 2 shards.
//! * [`closed`] — `apps-closed`: the paper's four §IV case studies,
//!   basic against optimized.
//! * [`openloop`] — `openloop`: Poisson arrivals at fixed offered loads
//!   through the four traffic drivers and the transactional service.

pub mod closed;
pub mod fleet;
pub mod gate;
pub mod heap;
pub mod metrics;
pub mod openloop;
pub mod trace;

use std::collections::BTreeMap;

pub use gate::{Pins, Point, DEFAULT_SEED, HELD_OUT_SEED};
pub use trace::Tracer;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fleet-scale one-sided verbs.
    FleetVerbs,
    /// The four case-study apps, closed loop.
    AppsClosed,
    /// Open-loop traffic and transactions.
    OpenLoop,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::FleetVerbs, Workload::AppsClosed, Workload::OpenLoop];

    /// Name on the command line and in pin keys.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetVerbs => "fleet-verbs",
            Workload::AppsClosed => "apps-closed",
            Workload::OpenLoop => "openloop",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Run one pass: every point of the workload once.
    pub fn pass(self, seed: u64, tr: &mut Option<Tracer>) -> Pass {
        match self {
            Workload::FleetVerbs => fleet::pass(seed, tr),
            Workload::AppsClosed => closed::pass(seed, tr),
            Workload::OpenLoop => openloop::pass(seed, tr),
        }
    }
}

/// What one pass over a workload measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host ns per point, in run order: `[set-up, wall, simulate + fold +
    /// teardown]`. Set-up covers testbeds, registrations, connections, pods
    /// and pre-drawn inputs; wall runs from the start of set-up to the end
    /// of teardown.
    pub times: Vec<[u64; 3]>,
    /// Simulated operations (the `simcore::opcount` delta of the run calls).
    pub sim_ops: u64,
    /// Every point, in run order.
    pub points: Vec<Point>,
    /// Workload-specific virtual results (`virt_slo_miss_ratio`,
    /// `paper_err_pct`).
    pub virt: BTreeMap<&'static str, f64>,
    /// Per-layer metrics; filled by traced passes.
    pub layers: BTreeMap<&'static str, f64>,
    /// Breakdowns finer than the per-layer metrics, printed by traced runs.
    pub notes: Vec<String>,
}

impl Pass {
    /// Account one point's phases: `setup_ns` of set-up followed by
    /// `rest_ns` of simulate + fold + teardown.
    pub fn account(&mut self, setup_ns: u64, rest_ns: u64) {
        self.times.push([setup_ns, setup_ns + rest_ns, rest_ns]);
    }

    /// Wall time of the whole pass, in s.
    pub fn wall_s(&self) -> f64 {
        self.times.iter().map(|t| t[1]).sum::<u64>() as f64 / 1e9
    }

    /// Add `v` to per-layer metric `name`.
    pub fn layer_add(&mut self, name: &'static str, v: f64) {
        *self.layers.entry(name).or_default() += v;
    }

    /// Geometric mean of the points' virtual throughput.
    pub fn virt_mops(&self) -> f64 {
        geomean(self.points.iter().map(|p| p.mops))
    }
}

/// Geometric mean; 0 for an empty or non-positive input.
pub fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for x in xs {
        if x <= 0.0 {
            return 0.0;
        }
        sum += x.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// A per-point seed derived from the workload seed (SplitMix64 finalizer),
/// so each point's inputs differ and all follow from the one seed.
pub fn point_seed(seed: u64, point: u64) -> u64 {
    let mut z = seed ^ point.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// MTT and QP-context cache counters summed over `machines` of `tb`:
/// `(mtt hits, mtt misses, qpc hits, qpc misses)`.
pub fn nic_counters(tb: &cluster::Testbed) -> [u64; 4] {
    let mut c = [0u64; 4];
    for m in 0..tb.machine_count() {
        let rnic = &tb.machine(m).rnic;
        let (mh, mm) = rnic.mtt.stats();
        let (qh, qm) = rnic.qpc.stats();
        for (dst, v) in c.iter_mut().zip([mh, mm, qh, qm]) {
            *dst += v;
        }
    }
    c
}

/// Record NIC cache counters on `point` (pinned) and, when traced, on
/// the pass's layer metrics.
pub fn nic_layers(pass: &mut Pass, point: &mut Point, c: [u64; 4], traced: bool) {
    point.pin("mtt_hits", c[0]);
    point.pin("mtt_misses", c[1]);
    point.pin("qpc_hits", c[2]);
    point.pin("qpc_misses", c[3]);
    if traced {
        pass.layer_add("rnicsim.mtt.hits", c[0] as f64);
        pass.layer_add("rnicsim.mtt.misses", c[1] as f64);
        pass.layer_add("rnicsim.qpc.hits", c[2] as f64);
        pass.layer_add("rnicsim.qpc.misses", c[3] as f64);
    }
}

/// Sparse-pool accounting over every machine of `tb`: `(resident bytes,
/// dense-equivalent bytes)`.
pub fn memory_bytes(tb: &cluster::Testbed) -> (u64, u64) {
    (0..tb.machine_count()).fold((0, 0), |(r, d), m| {
        let mem = &tb.machine(m).mem;
        (r + mem.resident_bytes(), d + mem.dense_bytes())
    })
}

/// Record sparse-pool layer metrics on a traced pass.
pub fn memory_layers(pass: &mut Pass, resident: u64, dense: u64) {
    pass.layer_add("cluster.memory.resident_mib", resident as f64 / (1u64 << 20) as f64);
    pass.layer_add("cluster.memory.dense_gib", dense as f64 / (1u64 << 30) as f64);
}
