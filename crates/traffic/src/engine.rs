//! The open-loop worker and the traffic-run harness.
//!
//! # The open-loop protocol
//!
//! Each [`OpenLoopWorker`] wraps one app [`Driver`] and one [`ArrivalGen`].
//! The worker is a `cluster::Client`: it yields until the next arrival
//! time, issues exactly one app operation *at that time*, then immediately
//! schedules the following arrival — never waiting for the operation to
//! complete. Because the testbed models queueing internally (every
//! contended resource books real service intervals), issuing at the exact
//! arrival instant *is* the open-loop discipline: under overload,
//! completion times recede without throttling arrivals, and the latency
//! tail grows without bound — exactly the signal the knee finder needs.
//!
//! # Deferred samples
//!
//! Optimized app variants batch: an arrival may be absorbed locally and
//! only complete when a later arrival triggers the flush. Drivers therefore
//! report latency samples through an out-buffer of `(arrival, completion)`
//! pairs, resolved when known — immediately for unbatched operations, at
//! flush time for absorbed ones. Samples are windowed by *arrival* time,
//! which is scheduling-independent, so the per-window series is
//! byte-identical across serial/parallel/sharded runs.
//!
//! # Determinism
//!
//! Worker RNG streams are split from the run seed by global worker index;
//! per-worker stats are folded in worker-index order after the run. A
//! traffic cluster is made of connection-disjoint *pods*, so
//! `cluster::shard_plan` places whole pods on shards and the sharded run
//! is byte-identical to the serial one.

use crate::apps::{self, AppDriver};
use crate::arrivals::{ArrivalGen, ArrivalProcess};
use cluster::{run_clients_sharded, Pinned, Step, Testbed};
use simcore::{LatencyHistogram, LatencySeries, Meter, SimRng, SimTime};

/// Which case-study app the traffic drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppKind {
    /// Distributed hashtable front-ends (search + insert, Zipf keys).
    Hashtable,
    /// Shuffle entry push into per-destination slabs.
    Shuffle,
    /// Join-probe: indexed tuple lookups.
    Join,
    /// Sequencer-ordered log append.
    Dlog,
}

impl AppKind {
    /// All four apps, in canonical order.
    pub fn all() -> [AppKind; 4] {
        [AppKind::Hashtable, AppKind::Shuffle, AppKind::Join, AppKind::Dlog]
    }

    /// Stable lowercase name (used in experiment ids and CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            AppKind::Hashtable => "hashtable",
            AppKind::Shuffle => "shuffle",
            AppKind::Join => "join",
            AppKind::Dlog => "dlog",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<AppKind> {
        Self::all().into_iter().find(|a| a.name() == s)
    }

    /// Default p99 SLO for the knee search. Calibrated per app so both
    /// variants clear it comfortably at low load: the knee then measures
    /// capacity, not baseline latency.
    pub fn default_slo(&self) -> SimTime {
        match self {
            AppKind::Hashtable => SimTime::from_us(12),
            AppKind::Shuffle => SimTime::from_us(15),
            AppKind::Join => SimTime::from_us(40),
            AppKind::Dlog => SimTime::from_us(60),
        }
    }
}

/// Everything a traffic run needs.
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// App under load.
    pub app: AppKind,
    /// Paper-guideline variant (consolidation / SGL+SP / doorbell batch /
    /// batched append) instead of the naive one.
    pub optimized: bool,
    /// Aggregate offered load across all workers, in MOPS.
    pub offered_mops: f64,
    /// Arrivals issued per worker (fixed count ⇒ deterministic end).
    pub ops_per_worker: u64,
    /// Connection-disjoint pods (2 machines each); pods shard.
    pub pods: usize,
    /// Open-loop workers per pod, pinned to the pod's client machine.
    pub workers_per_pod: usize,
    /// Bursty (MMPP) arrivals instead of Poisson.
    pub bursty: bool,
    /// Samples arriving before this are excluded from the histogram.
    pub warmup: SimTime,
    /// Window width of the per-run latency/throughput time series.
    pub window: SimTime,
    /// Run seed; worker streams split from it.
    pub seed: u64,
    /// Shard count for the partitioned parallel run (1 = serial).
    pub shards: usize,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            app: AppKind::Hashtable,
            optimized: false,
            offered_mops: 0.5,
            ops_per_worker: 1200,
            pods: 2,
            workers_per_pod: 2,
            bursty: false,
            warmup: SimTime::from_us(50),
            window: SimTime::from_us(500),
            seed: 42,
            shards: 1,
        }
    }
}

impl TrafficConfig {
    /// Total worker count.
    pub fn workers(&self) -> usize {
        self.pods * self.workers_per_pod
    }

    /// Per-worker arrival rate in MOPS.
    pub fn rate_per_worker(&self) -> f64 {
        self.offered_mops / self.workers() as f64
    }
}

/// One app operation source: called once per arrival; pushes resolved
/// `(arrival, completion)` latency samples into `out` (possibly none now
/// and several later, for batching drivers).
pub trait Driver: Send {
    /// Issue the operation arriving at `now`.
    fn issue(&mut self, now: SimTime, tb: &mut Testbed, out: &mut Vec<(SimTime, SimTime)>);
    /// Flush anything still buffered (end of stream or linger expiry).
    fn drain(&mut self, now: SimTime, tb: &mut Testbed, out: &mut Vec<(SimTime, SimTime)>);
    /// Latest time buffered work may linger unflushed. The worker wakes at
    /// this time (if it precedes the next arrival) and calls [`drain`] —
    /// bounding the batch-fill wait that open-loop gaps would otherwise
    /// make unbounded at low load.
    ///
    /// [`drain`]: Driver::drain
    fn deadline(&self) -> Option<SimTime> {
        None
    }
}

/// Per-worker telemetry, folded across workers in index order.
#[derive(Clone, Debug)]
pub struct WorkerStats {
    /// Whole-run latency distribution (post-warmup arrivals).
    pub hist: LatencyHistogram,
    /// Windowed latency/throughput series (windowed by arrival).
    pub series: LatencySeries,
    /// Completion meter (achieved throughput).
    pub meter: Meter,
    /// Arrivals issued.
    pub issued: u64,
}

/// An open-loop client: one driver + one arrival stream + its stats.
pub struct OpenLoopWorker {
    pub(crate) driver: AppDriver,
    gen: ArrivalGen,
    next_at: SimTime,
    remaining: u64,
    warmup: SimTime,
    buf: Vec<(SimTime, SimTime)>,
    /// Telemetry, readable after the run.
    pub stats: WorkerStats,
}

impl OpenLoopWorker {
    /// A worker issuing `ops` arrivals through `driver`.
    pub fn new(
        driver: AppDriver,
        process: ArrivalProcess,
        rng: SimRng,
        cfg: &TrafficConfig,
    ) -> Self {
        let mut gen = ArrivalGen::new(process, rng);
        // The first arrival is one gap past time zero.
        let next_at = SimTime::ZERO + gen.next_gap();
        OpenLoopWorker {
            driver,
            gen,
            next_at,
            remaining: cfg.ops_per_worker,
            warmup: cfg.warmup,
            buf: Vec::new(),
            stats: WorkerStats {
                hist: LatencyHistogram::new(),
                series: LatencySeries::new(cfg.window),
                meter: Meter::new(cfg.warmup),
                issued: 0,
            },
        }
    }

    fn absorb(&mut self) {
        for (arrival, done) in self.buf.drain(..) {
            debug_assert!(done >= arrival, "completion precedes arrival");
            self.stats.meter.record(done);
            if arrival >= self.warmup {
                let lat = done - arrival;
                self.stats.hist.record(lat);
                self.stats.series.record(arrival, lat);
            }
        }
    }
}

impl cluster::Client for OpenLoopWorker {
    fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
        if self.remaining == 0 {
            return Step::Done;
        }
        // A linger deadline that has come due flushes the driver's
        // partially-filled batch before (or instead of) issuing.
        if self.driver.deadline().is_some_and(|d| now >= d) {
            self.driver.drain(now, tb, &mut self.buf);
        }
        if now >= self.next_at {
            self.driver.issue(now, tb, &mut self.buf);
            self.remaining -= 1;
            self.stats.issued += 1;
            if self.remaining == 0 {
                // End of stream: resolve whatever the driver still buffers.
                self.driver.drain(now, tb, &mut self.buf);
                self.absorb();
                return Step::Done;
            }
            self.next_at = now + self.gen.next_gap();
        }
        self.absorb();
        // Wake at the next arrival, or earlier if buffered work would
        // outstay its linger bound. A due deadline was just drained, so
        // any remaining one is strictly in the future.
        let wake = match self.driver.deadline() {
            Some(d) => self.next_at.min(d),
            None => self.next_at,
        };
        debug_assert!(wake > now, "worker wake time must advance");
        Step::Yield(wake)
    }
}

/// Aggregate result of one traffic run at one offered load.
#[derive(Clone, Debug)]
pub struct TrafficReport {
    /// The offered load that was requested.
    pub offered_mops: f64,
    /// Arrival rate the run actually realized: post-warmup arrivals over
    /// the post-warmup arrival span — the same window the completion
    /// meter observes, so the two rates are comparable point for point.
    /// Matches `offered_mops` in expectation, but a finite bursty (MMPP)
    /// run's phase luck shifts it by several percent either way —
    /// capacity judgements should compare achieved throughput against
    /// this, not the nominal rate.
    pub realized_mops: f64,
    /// Throughput actually achieved (completions over the observed span).
    pub achieved_mops: f64,
    /// Post-warmup samples in the histogram.
    pub ops: u64,
    /// Folded whole-run latency distribution.
    pub hist: LatencyHistogram,
    /// Folded windowed series.
    pub series: LatencySeries,
    /// Virtual time the run finished at.
    pub finished: SimTime,
}

impl TrafficReport {
    /// A quantile in microseconds (0 when the histogram is empty).
    pub fn q_us(&self, q: f64) -> f64 {
        self.hist.quantile(q).map_or(0.0, |t| t.as_us())
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.hist.mean().map_or(0.0, |t| t.as_us())
    }

    /// Digest of the folded histogram — the determinism gate's unit of
    /// comparison across serial/parallel/sharded runs.
    pub fn digest(&self) -> u64 {
        self.hist.digest()
    }
}

/// Run one open-loop traffic simulation and fold the telemetry.
pub fn run_traffic(cfg: &TrafficConfig) -> TrafficReport {
    assert!(cfg.pods >= 1 && cfg.workers_per_pod >= 1);
    assert!(cfg.offered_mops > 0.0, "offered load must be positive");
    let (mut tb, mut workers) = apps::build(cfg);
    {
        let mut pins: Vec<Pinned<'_>> =
            workers.iter_mut().map(|(m, w)| Pinned::new(*m, w)).collect();
        run_clients_sharded(&mut tb, &mut pins, cfg.shards, SimTime::MAX);
    }
    let mut hist = LatencyHistogram::new();
    let mut series = LatencySeries::new(cfg.window);
    let mut meter = Meter::new(cfg.warmup);
    let mut finished = SimTime::ZERO;
    for (_, w) in &workers {
        debug_assert_eq!(w.stats.issued, cfg.ops_per_worker);
        hist.merge(&w.stats.hist);
        series.merge(&w.stats.series);
        meter.merge(&w.stats.meter);
        finished = finished.max(w.next_at);
    }
    // Every post-warmup arrival yields exactly one histogram sample, so
    // the histogram count over the post-warmup arrival span *is* the
    // realized arrival rate, measured over the meter's own window.
    let realized = simcore::mops(hist.count(), finished.saturating_sub(cfg.warmup));
    TrafficReport {
        offered_mops: cfg.offered_mops,
        realized_mops: realized,
        achieved_mops: meter.mops(),
        ops: hist.count(),
        hist,
        series,
        finished,
    }
}
