//! Host-time spans and per-call samples, recorded from outside the
//! simulator around the benchmark's own calls into each layer.
//!
//! A traced pass records coarse spans (name, start, end, parent, point)
//! into a buffer allocated once up front, and per-call durations (one
//! post, one client step, one registration) into sample vectors. Nothing
//! is written out until the benchmark ends. An untraced pass records
//! nothing: every hook is behind an `Option`.

use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed interval, in nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `cluster.testbed.new`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Point of the workload the span belongs to.
    pub point: u32,
}

/// Span buffer plus the stack of currently open spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    point: u32,
}

impl Tracer {
    /// A tracer with room for `capacity` spans before it has to grow.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
            point: 0,
        }
    }

    /// Attribute spans opened from now on to point `point`.
    pub fn set_point(&mut self, point: u32) {
        self.point = point;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start = self.now();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span { name, start, end: start, parent, point: self.point });
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let idx = self.open.pop().expect("close without a matching open") as usize;
        self.spans[idx].end = self.now();
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Open a span on an optional tracer.
pub fn open(tr: &mut Option<Tracer>, name: &'static str) {
    if let Some(t) = tr {
        t.open(name);
    }
}

/// Close the innermost span on an optional tracer.
pub fn close(tr: &mut Option<Tracer>) {
    if let Some(t) = tr {
        t.close();
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent
/// and overlapping children count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Sum of self time per span name, in ns, sorted by name.
pub fn self_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let selfs = self_times(spans);
    let mut acc: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
    for (s, own) in spans.iter().zip(selfs) {
        let e = acc.entry(s.name).or_default();
        e.0 += s.end - s.start;
        e.1 += own;
    }
    acc.into_iter().map(|(n, (total, own))| (n, total, own)).collect()
}

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}
