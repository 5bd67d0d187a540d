//! Measurement utilities: latency summaries and throughput meters.

use crate::fnv::Fnv64;
use crate::time::{mops, SimTime};

/// Order statistics and moments over a set of latency samples.
#[derive(Clone, Debug)]
pub struct Summary {
    sorted: Vec<SimTime>,
    sum_ps: u128,
}

impl Summary {
    /// Build a summary from raw samples, or `None` for an empty sample
    /// set — callers name the experiment that produced zero samples
    /// instead of aborting the whole run.
    pub fn try_from_samples(mut samples: Vec<SimTime>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let sum_ps = samples.iter().map(|t| t.as_ps() as u128).sum();
        Some(Summary { sorted: samples, sum_ps })
    }

    /// Build a summary from raw samples. Panics on an empty sample set;
    /// sweeps that may legitimately come up empty should use
    /// [`Summary::try_from_samples`] and report which experiment
    /// produced no samples.
    pub fn from_samples(samples: Vec<SimTime>) -> Self {
        Self::try_from_samples(samples).expect("Summary needs at least one sample")
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> SimTime {
        SimTime::from_ps((self.sum_ps / self.sorted.len() as u128) as u64)
    }

    /// The `q`-quantile (0.0 ≤ q ≤ 1.0) by the nearest-rank method.
    pub fn quantile(&self, q: f64) -> SimTime {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let n = self.sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// Median latency.
    pub fn p50(&self) -> SimTime {
        self.quantile(0.50)
    }

    /// 99th percentile latency.
    pub fn p99(&self) -> SimTime {
        self.quantile(0.99)
    }

    /// 99.9th percentile latency. Exact (nearest-rank over the retained
    /// samples); serves as the oracle the streaming
    /// [`LatencyHistogram`] is property-tested against.
    pub fn p999(&self) -> SimTime {
        self.quantile(0.999)
    }

    /// Smallest sample.
    pub fn min(&self) -> SimTime {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> SimTime {
        *self.sorted.last().expect("non-empty")
    }
}

/// Values below this record into exact unit-width buckets.
const HIST_LINEAR_MAX: u64 = 256;
/// log2 of the subbuckets per octave above the linear range; 128
/// subbuckets bound the relative quantile error by 1/128 < 0.8%.
const HIST_SUB_BITS: u32 = 7;
const HIST_SUBS: usize = 1 << HIST_SUB_BITS;

/// Streaming log-bucketed latency histogram (HDR-style).
///
/// `record` is O(1) and allocation-free once the bucket array has grown to
/// cover the observed range (at most 7424 buckets for the full `u64`
/// picosecond range — constant space no matter how many samples stream
/// through). Values below [`HIST_LINEAR_MAX`] ps are exact; above, each
/// octave is split into 128 subbuckets, so any reported quantile is the
/// true bucket lower bound and under-reads the exact order statistic by
/// less than 1/128.
///
/// `merge` adds bucket counts elementwise, which is commutative and
/// associative — but the traffic engine still folds per-worker histograms
/// in worker-index order so aggregate digests are byte-identical between
/// serial, parallel, and sharded runs by construction rather than by
/// arithmetic accident.
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_ps: u128,
    min_ps: u64,
    max_ps: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { counts: Vec::new(), count: 0, sum_ps: 0, min_ps: u64::MAX, max_ps: 0 }
    }

    /// Bucket index for a picosecond value.
    #[inline]
    fn index(v: u64) -> usize {
        if v < HIST_LINEAR_MAX {
            v as usize
        } else {
            let h = (63 - v.leading_zeros()) as usize; // >= 8
            let sub = ((v >> (h as u32 - HIST_SUB_BITS)) as usize) & (HIST_SUBS - 1);
            HIST_LINEAR_MAX as usize + (h - 8) * HIST_SUBS + sub
        }
    }

    /// Smallest value that maps to bucket `idx`.
    #[inline]
    fn lower_bound(idx: usize) -> u64 {
        if idx < HIST_LINEAR_MAX as usize {
            idx as u64
        } else {
            let h = 8 + (idx - HIST_LINEAR_MAX as usize) / HIST_SUBS;
            let sub = ((idx - HIST_LINEAR_MAX as usize) % HIST_SUBS) as u64;
            (HIST_SUBS as u64 + sub) << (h as u32 - HIST_SUB_BITS)
        }
    }

    /// Record one latency sample.
    #[inline]
    pub fn record(&mut self, sample: SimTime) {
        self.record_ps(sample.as_ps());
    }

    /// Record one sample given in raw picoseconds.
    #[inline]
    pub fn record_ps(&mut self, v: u64) {
        let idx = Self::index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_ps += v as u128;
        self.min_ps = self.min_ps.min(v);
        self.max_ps = self.max_ps.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (exact). `None` when empty.
    pub fn min(&self) -> Option<SimTime> {
        (self.count > 0).then(|| SimTime::from_ps(self.min_ps))
    }

    /// Largest recorded sample (exact). `None` when empty.
    pub fn max(&self) -> Option<SimTime> {
        (self.count > 0).then(|| SimTime::from_ps(self.max_ps))
    }

    /// Arithmetic mean (exact; the running sum is exact even though the
    /// buckets are lossy). `None` when empty.
    pub fn mean(&self) -> Option<SimTime> {
        (self.count > 0).then(|| SimTime::from_ps((self.sum_ps / self.count as u128) as u64))
    }

    /// The `q`-quantile by the nearest-rank method, reported as the lower
    /// bound of the bucket holding the true order statistic (clamped into
    /// `[min, max]`, so extreme quantiles are exact). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<SimTime> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let v = Self::lower_bound(idx).clamp(self.min_ps, self.max_ps);
                return Some(SimTime::from_ps(v));
            }
        }
        Some(SimTime::from_ps(self.max_ps))
    }

    /// Median latency. `None` when empty.
    pub fn p50(&self) -> Option<SimTime> {
        self.quantile(0.50)
    }

    /// 99th percentile latency. `None` when empty.
    pub fn p99(&self) -> Option<SimTime> {
        self.quantile(0.99)
    }

    /// 99.9th percentile latency. `None` when empty.
    pub fn p999(&self) -> Option<SimTime> {
        self.quantile(0.999)
    }

    /// Absorb another histogram: bucket counts add elementwise, moments
    /// and extrema fold. O(buckets), independent of sample count.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        self.min_ps = self.min_ps.min(other.min_ps);
        self.max_ps = self.max_ps.max(other.max_ps);
    }

    /// FNV-1a digest over the full bucket state. Two histograms digest
    /// equal iff every bucket count and moment matches — the determinism
    /// gate compares these across serial/parallel/sharded runs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.u64(self.count)
            .u64(self.sum_ps as u64)
            .u64((self.sum_ps >> 64) as u64)
            .u64(self.min_ps)
            .u64(self.max_ps);
        // Trailing zero buckets don't alter the digest, so histograms that
        // differ only in allocated capacity digest equal.
        let mut last = self.counts.len();
        while last > 0 && self.counts[last - 1] == 0 {
            last -= 1;
        }
        for &c in &self.counts[..last] {
            h.u64(c);
        }
        h.finish()
    }
}

/// Fixed-width-windowed latency/throughput time series: one
/// [`LatencyHistogram`] plus op count per window of virtual time.
///
/// Samples are windowed by *arrival* time (not completion), so a sample's
/// window assignment never depends on scheduling — a prerequisite for
/// byte-identical series across serial and sharded runs. Merging is
/// per-window elementwise, folded across workers like `opcount`.
#[derive(Clone, Debug)]
pub struct LatencySeries {
    window: SimTime,
    wins: Vec<LatencyHistogram>,
}

impl LatencySeries {
    /// A series with the given window width (> 0).
    pub fn new(window: SimTime) -> Self {
        assert!(window > SimTime::ZERO, "window must be positive");
        LatencySeries { window, wins: Vec::new() }
    }

    /// Window width.
    pub fn window(&self) -> SimTime {
        self.window
    }

    /// Record a sample that *arrived* at `at` with the given latency.
    pub fn record(&mut self, at: SimTime, latency: SimTime) {
        let idx = (at.as_ps() / self.window.as_ps()) as usize;
        if idx >= self.wins.len() {
            self.wins.resize_with(idx + 1, LatencyHistogram::new);
        }
        self.wins[idx].record(latency);
    }

    /// Absorb another series (same window width), window by window.
    pub fn merge(&mut self, other: &LatencySeries) {
        assert_eq!(self.window, other.window, "window widths must match");
        if other.wins.len() > self.wins.len() {
            self.wins.resize_with(other.wins.len(), LatencyHistogram::new);
        }
        for (dst, src) in self.wins.iter_mut().zip(other.wins.iter()) {
            dst.merge(src);
        }
    }

    /// Iterate `(window start, histogram)` over non-empty windows.
    pub fn windows(&self) -> impl Iterator<Item = (SimTime, &LatencyHistogram)> {
        self.wins
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.is_empty())
            .map(move |(i, h)| (SimTime::from_ps(i as u64 * self.window.as_ps()), h))
    }

    /// Fold every window into one histogram.
    pub fn total(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::new();
        for h in &self.wins {
            all.merge(h);
        }
        all
    }
}

/// Counts operation completions inside a measurement window and converts
/// them to MOPS. The warmup prefix is excluded so cold caches and empty
/// pipelines don't drag the steady-state figure down.
#[derive(Clone, Debug)]
pub struct Meter {
    warmup_until: SimTime,
    ops: u64,
    first: Option<SimTime>,
    last: SimTime,
}

impl Meter {
    /// A meter that ignores completions before `warmup_until`.
    pub fn new(warmup_until: SimTime) -> Self {
        Meter { warmup_until, ops: 0, first: None, last: SimTime::ZERO }
    }

    /// Record one operation completing at `at`.
    pub fn record(&mut self, at: SimTime) {
        if at < self.warmup_until {
            return;
        }
        if self.first.is_none() {
            self.first = Some(at);
        }
        self.ops += 1;
        self.last = self.last.max(at);
    }

    /// Record `n` operations completing at `at` (batch completion).
    pub fn record_n(&mut self, at: SimTime, n: u64) {
        if at < self.warmup_until {
            return;
        }
        if self.first.is_none() {
            self.first = Some(at);
        }
        self.ops += n;
        self.last = self.last.max(at);
    }

    /// Operations recorded inside the window.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Steady-state throughput in MOPS over the observed span.
    pub fn mops(&self) -> f64 {
        match self.first {
            Some(first) if self.last > first => mops(self.ops, self.last - first),
            _ => 0.0,
        }
    }

    /// Span between the first and last recorded completion.
    pub fn span(&self) -> SimTime {
        match self.first {
            Some(first) => self.last.saturating_sub(first),
            None => SimTime::ZERO,
        }
    }

    /// Absorb another meter's window: op counts add, the observed span
    /// widens to cover both. Merging is commutative and associative, so
    /// folding per-shard meters in any order yields the same aggregate.
    pub fn merge(&mut self, other: &Meter) {
        self.ops += other.ops;
        self.first = match (self.first, other.first) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last = self.last.max(other.last);
    }
}

/// One (x, y) series destined for a figure, with a label — mirrors one
/// plotted line in the paper.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label, e.g. `"write-seq-seq"`.
    pub label: String,
    /// Data points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Series { label: label.into(), points: Vec::new() }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at a given x, if the series contains it exactly.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|(px, _)| *px == x).map(|(_, y)| *y)
    }

    /// Maximum y value (NaN-free by construction).
    pub fn y_max(&self) -> f64 {
        self.points.iter().map(|&(_, y)| y).fold(f64::MIN, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_order_statistics() {
        let samples: Vec<SimTime> = (1..=100).map(SimTime::from_ns).collect();
        let s = Summary::from_samples(samples);
        assert_eq!(s.count(), 100);
        assert_eq!(s.min(), SimTime::from_ns(1));
        assert_eq!(s.max(), SimTime::from_ns(100));
        assert_eq!(s.p50(), SimTime::from_ns(50));
        assert_eq!(s.p99(), SimTime::from_ns(99));
        assert_eq!(s.mean(), SimTime::from_ps(50_500));
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples(vec![SimTime::from_us(2)]);
        assert_eq!(s.mean(), SimTime::from_us(2));
        assert_eq!(s.p50(), SimTime::from_us(2));
        assert_eq!(s.quantile(0.0), SimTime::from_us(2));
        assert_eq!(s.quantile(1.0), SimTime::from_us(2));
    }

    #[test]
    fn summary_empty_is_none_not_panic() {
        assert!(Summary::try_from_samples(Vec::new()).is_none());
        assert!(Summary::try_from_samples(vec![SimTime::from_ns(3)]).is_some());
    }

    #[test]
    fn meter_excludes_warmup_and_computes_mops() {
        let mut m = Meter::new(SimTime::from_us(10));
        // 5 warmup completions are ignored.
        for i in 0..5 {
            m.record(SimTime::from_us(i));
        }
        // 1000 completions spaced 1us apart starting at 10us.
        for i in 0..1000 {
            m.record(SimTime::from_us(10 + i));
        }
        assert_eq!(m.ops(), 1000);
        // 1000 ops over 999us ≈ 1.001 MOPS.
        assert!((m.mops() - 1000.0 / 999.0).abs() < 1e-9);
    }

    #[test]
    fn meter_batch_records() {
        let mut m = Meter::new(SimTime::ZERO);
        m.record_n(SimTime::from_us(1), 16);
        m.record_n(SimTime::from_us(2), 16);
        assert_eq!(m.ops(), 32);
        assert!((m.mops() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn meter_merge_widens_the_window_and_adds_ops() {
        let mut a = Meter::new(SimTime::ZERO);
        a.record(SimTime::from_us(5));
        a.record(SimTime::from_us(9));
        let mut b = Meter::new(SimTime::ZERO);
        b.record(SimTime::from_us(2));
        b.record(SimTime::from_us(7));
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.ops(), 4);
        // Window covers 2us..9us.
        assert_eq!(ab.span(), SimTime::from_us(7));
        // Commutative: b.merge(a) gives the same aggregate.
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ba.ops(), ab.ops());
        assert_eq!(ba.span(), ab.span());
        assert!((ba.mops() - ab.mops()).abs() < 1e-12);
        // Merging an empty meter is a no-op.
        ab.merge(&Meter::new(SimTime::ZERO));
        assert_eq!(ab.ops(), 4);
        assert_eq!(ab.span(), SimTime::from_us(7));
    }

    #[test]
    fn meter_empty_is_zero() {
        let m = Meter::new(SimTime::ZERO);
        assert_eq!(m.mops(), 0.0);
        assert_eq!(m.span(), SimTime::ZERO);
    }

    #[test]
    fn series_accessors() {
        let mut s = Series::new("write-seq-seq");
        s.push(1.0, 4.7);
        s.push(2.0, 4.5);
        assert_eq!(s.y_at(2.0), Some(4.5));
        assert_eq!(s.y_at(3.0), None);
        assert_eq!(s.y_max(), 4.7);
    }

    #[test]
    fn histogram_linear_range_is_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..HIST_LINEAR_MAX {
            h.record_ps(v);
        }
        assert_eq!(h.count(), HIST_LINEAR_MAX);
        assert_eq!(h.min(), Some(SimTime::from_ps(0)));
        assert_eq!(h.max(), Some(SimTime::from_ps(HIST_LINEAR_MAX - 1)));
        // Every sub-256 quantile is exact: bucket == value.
        assert_eq!(h.p50(), Some(SimTime::from_ps(127)));
        assert_eq!(h.quantile(1.0), Some(SimTime::from_ps(HIST_LINEAR_MAX - 1)));
    }

    #[test]
    fn histogram_bucket_round_trip_bounds() {
        // lower_bound(index(v)) <= v, with relative slack < 1/128.
        let mut rng = crate::rng::SimRng::new(17);
        for _ in 0..20_000 {
            let v = rng.next_u64() >> rng.gen_range(60);
            let idx = LatencyHistogram::index(v);
            let lb = LatencyHistogram::lower_bound(idx);
            assert!(lb <= v, "lb {lb} > v {v}");
            assert!(v - lb <= lb / 128, "bucket too wide at {v}: lb {lb}");
            // And lower bounds are themselves fixed points.
            assert_eq!(LatencyHistogram::index(lb), idx);
        }
        // The u64 extremes stay in range.
        assert!(LatencyHistogram::index(u64::MAX) < 7424);
    }

    /// Property test (satellite of the traffic-engine PR): the streaming
    /// histogram's quantiles bracket the exact `Summary` order statistics
    /// within the documented 1/128 relative error, and the exact moments
    /// match, under seeded random workloads spanning many octaves.
    #[test]
    fn histogram_quantiles_match_summary_oracle() {
        let mut rng = crate::rng::SimRng::new(0xB0B);
        for round in 0..20 {
            let n = 500 + rng.gen_range(3000);
            let mut h = LatencyHistogram::new();
            let mut samples = Vec::with_capacity(n as usize);
            for _ in 0..n {
                // Log-uniform-ish latencies from ps to ~minutes.
                let v = rng.next_u64() >> (8 + rng.gen_range(48));
                h.record_ps(v);
                samples.push(SimTime::from_ps(v));
            }
            let s = Summary::from_samples(samples);
            assert_eq!(h.count(), s.count() as u64, "round {round}");
            assert_eq!(h.min(), Some(s.min()));
            assert_eq!(h.max(), Some(s.max()));
            assert_eq!(h.mean(), Some(s.mean()));
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let exact = s.quantile(q).as_ps();
                let approx = h.quantile(q).unwrap().as_ps();
                assert!(approx <= exact, "q={q}: approx {approx} > exact {exact}");
                assert!(
                    exact - approx <= approx / 128,
                    "q={q}: approx {approx} too far below exact {exact}"
                );
            }
            // p999 is the oracle pairing named in the issue.
            assert!(h.p999().unwrap() <= s.p999());
        }
    }

    #[test]
    fn histogram_merge_equals_single_stream() {
        let mut rng = crate::rng::SimRng::new(42);
        let mut whole = LatencyHistogram::new();
        let mut parts: Vec<LatencyHistogram> = (0..4).map(|_| LatencyHistogram::new()).collect();
        for i in 0..10_000u64 {
            let v = rng.next_u64() >> rng.gen_range(56);
            whole.record_ps(v);
            parts[(i % 4) as usize].record_ps(v);
        }
        let mut folded = LatencyHistogram::new();
        for p in &parts {
            folded.merge(p);
        }
        assert_eq!(folded.digest(), whole.digest());
        assert_eq!(folded.count(), whole.count());
        assert_eq!(folded.p99(), whole.p99());
        // Digest ignores trailing allocated-but-empty buckets.
        let mut padded = whole.clone();
        padded.counts.resize(padded.counts.len() + 64, 0);
        assert_eq!(padded.digest(), whole.digest());
    }

    #[test]
    fn latency_series_windows_by_arrival_and_merges() {
        let w = SimTime::from_us(10);
        let mut a = LatencySeries::new(w);
        let mut b = LatencySeries::new(w);
        a.record(SimTime::from_us(1), SimTime::from_ns(100));
        a.record(SimTime::from_us(25), SimTime::from_ns(300));
        b.record(SimTime::from_us(5), SimTime::from_ns(200));
        let mut ab = a.clone();
        ab.merge(&b);
        let wins: Vec<(SimTime, u64)> = ab.windows().map(|(t, h)| (t, h.count())).collect();
        assert_eq!(wins, vec![(SimTime::ZERO, 2), (SimTime::from_us(20), 1)]);
        assert_eq!(ab.total().count(), 3);
        assert_eq!(ab.total().max(), Some(SimTime::from_ns(300)));
    }

    #[test]
    fn summary_p999_is_exact_nearest_rank() {
        let samples: Vec<SimTime> = (1..=10_000).map(SimTime::from_ns).collect();
        let s = Summary::from_samples(samples);
        assert_eq!(s.p999(), SimTime::from_ns(9990));
        assert_eq!(s.p99(), SimTime::from_ns(9900));
        assert_eq!(s.p50(), SimTime::from_ns(5000));
    }
}
