//! Contended hardware resources as queueing servers.
//!
//! Every piece of hardware the simulator models — NIC processing units,
//! DMA engines, DRAM banks, PCIe and QPI links, the network wire — is one
//! of two primitives:
//!
//! * [`KServer`]: `k` identical units, each serving one request at a time.
//!   Requests take the unit that can start them earliest.
//! * [`BandwidthLink`]: a serialization resource where the service time is
//!   proportional to the transferred byte count, plus a fixed propagation
//!   latency paid after serialization completes.
//!
//! Both are backed by a [`Timeline`]: a busy-interval calendar that serves
//! requests in **arrival (ready-time) order**, not booking order. This
//! matters because the simulator computes a whole verb pipeline when the
//! verb is *posted*, booking downstream resources up to a round-trip into
//! the future; a later client whose packet arrives in one of the idle
//! gaps must be allowed to use it, or one client's future bookings would
//! head-of-line-block everyone else's present.

use crate::time::SimTime;
use std::collections::VecDeque;

/// How many discrete busy intervals a timeline tracks before the oldest
/// are collapsed into the "past" floor. Pipelined verbs book each
/// resource a little ahead of the last booking, so busy timelines sit at
/// this bound almost permanently: every append past it evicts the oldest
/// interval, which is why `busy` is a ring.
const MAX_INTERVALS: usize = 64;

/// A single service unit's busy calendar.
#[derive(Clone, Debug, Default)]
struct Timeline {
    /// Everything before this instant is unavailable (collapsed history).
    floor: SimTime,
    /// Sorted, disjoint busy intervals at or after `floor`, held in a ring
    /// so that evicting the oldest at the cap is O(1).
    busy: VecDeque<(SimTime, SimTime)>,
}

impl Timeline {
    /// Index of the first interval that can host or delay a request
    /// starting no earlier than `start`. Intervals ending strictly before
    /// `start` can do neither, and ends are non-decreasing, so they form a
    /// prefix. The comparison is strict so that the first fit lands on the
    /// linear scan's index: a zero-length request at `start` goes before a
    /// zero-length `(start, start)` interval, not after it. (Either index
    /// merges into the same calendar; the strict form needs no such proof.)
    fn first_relevant(&self, start: SimTime) -> usize {
        self.busy.partition_point(|&(_, e)| e < start)
    }

    /// Book `service` starting no earlier than `ready`, using the first
    /// idle gap that fits. Returns `(start, end)`.
    fn book(&mut self, ready: SimTime, service: SimTime) -> (SimTime, SimTime) {
        let mut start = ready.max(self.floor);
        // Tail fast path: a request ready at or after the last busy
        // interval can never fit an earlier gap, so it appends (merging
        // with a touching tail). Simulation time mostly moves forward, so
        // this is the overwhelmingly common case — O(1) instead of a scan.
        match self.busy.back_mut() {
            None => {
                self.busy.push_back((start, start + service));
                return (start, start + service);
            }
            Some(last) if start >= last.1 => {
                let end = start + service;
                if start == last.1 {
                    last.1 = end;
                } else {
                    self.busy.push_back((start, end));
                    self.evict_over_cap();
                }
                return (start, end);
            }
            _ => {}
        }
        let first = self.first_relevant(start);
        let mut idx = self.busy.len();
        for (i, &(s, e)) in self.busy.range(first..).enumerate() {
            if start + service <= s {
                // Fits entirely in the gap before interval `first + i`.
                idx = first + i;
                break;
            }
            start = start.max(e);
        }
        let end = start + service;
        // Insert, merging with touching neighbours to keep the list short.
        let merged_prev = idx > 0 && self.busy[idx - 1].1 == start;
        let merged_next = idx < self.busy.len() && self.busy[idx].0 == end;
        match (merged_prev, merged_next) {
            (true, true) => {
                self.busy[idx - 1].1 = self.busy[idx].1;
                self.busy.remove(idx);
            }
            (true, false) => self.busy[idx - 1].1 = end,
            (false, true) => self.busy[idx].0 = start,
            (false, false) => self.busy.insert(idx, (start, end)),
        }
        // Evict only after inserting: the new interval may itself be the
        // oldest, and then it is the one collapsed into the floor.
        self.evict_over_cap();
        (start, end)
    }

    /// Collapse the oldest interval into the floor once over the cap.
    fn evict_over_cap(&mut self) {
        if self.busy.len() > MAX_INTERVALS {
            let (_, e0) = self.busy.pop_front().expect("over the cap, so non-empty");
            self.floor = self.floor.max(e0);
        }
    }

    /// Earliest instant at which the start of the calendar has a gap.
    fn earliest_free(&self) -> SimTime {
        match self.busy.front() {
            Some(&(s, e)) if s <= self.floor => e,
            _ => self.floor,
        }
    }

    /// When the unit could start a request ready at `ready` (no booking).
    fn probe(&self, ready: SimTime, service: SimTime) -> SimTime {
        let mut start = ready.max(self.floor);
        // Tail fast path mirroring `book`.
        match self.busy.back() {
            None => return start,
            Some(&(_, e)) if start >= e => return start,
            _ => {}
        }
        for &(s, e) in self.busy.range(self.first_relevant(start)..) {
            if start + service <= s {
                break;
            }
            start = start.max(e);
        }
        start
    }

    fn reset(&mut self) {
        self.floor = SimTime::ZERO;
        self.busy.clear();
    }
}

/// `k` identical service units (e.g. RNIC processing units, DRAM banks).
#[derive(Clone, Debug)]
pub struct KServer {
    units: Vec<Timeline>,
    busy: SimTime,
}

impl KServer {
    /// A server pool with `k ≥ 1` units, all idle at time zero.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "a KServer needs at least one unit");
        KServer { units: vec![Timeline::default(); k], busy: SimTime::ZERO }
    }

    /// Number of units.
    pub fn units(&self) -> usize {
        self.units.len()
    }

    /// Occupy the unit that can serve soonest for `service`, starting no
    /// earlier than `ready`. Returns `(start, end)` of the service
    /// interval.
    pub fn acquire(&mut self, ready: SimTime, service: SimTime) -> (SimTime, SimTime) {
        self.busy += service;
        if self.units.len() == 1 {
            return self.units[0].book(ready, service);
        }
        let idx = self
            .units
            .iter()
            .enumerate()
            .min_by_key(|(_, u)| u.probe(ready, service))
            .map(|(i, _)| i)
            .expect("KServer has at least one unit");
        self.units[idx].book(ready, service)
    }

    /// Total service time dispensed across all units (for utilization:
    /// divide by `units() × makespan`).
    pub fn busy(&self) -> SimTime {
        self.busy
    }

    /// Earliest instant at which any unit is (or becomes) idle.
    pub fn earliest_free(&self) -> SimTime {
        self.units.iter().map(Timeline::earliest_free).min().expect("non-empty")
    }

    /// Forget all queued work; all units become idle at time zero.
    pub fn reset(&mut self) {
        for u in &mut self.units {
            u.reset();
        }
        self.busy = SimTime::ZERO;
    }
}

/// A serialization link: bytes drain at a fixed rate, then arrive after a
/// fixed propagation latency. Models PCIe lanes, QPI, and network wires.
#[derive(Clone, Debug)]
pub struct BandwidthLink {
    line: Timeline,
    ps_per_byte: u64,
    latency: SimTime,
    busy: SimTime,
}

impl BandwidthLink {
    /// A link that serializes at `ps_per_byte` and then delays delivery by
    /// `latency` (propagation + fixed per-hop processing).
    pub fn new(ps_per_byte: u64, latency: SimTime) -> Self {
        BandwidthLink { line: Timeline::default(), ps_per_byte, latency, busy: SimTime::ZERO }
    }

    /// Serialization rate in ps/byte.
    pub fn ps_per_byte(&self) -> u64 {
        self.ps_per_byte
    }

    /// Fixed propagation latency.
    pub fn latency(&self) -> SimTime {
        self.latency
    }

    /// Push `bytes` through the link starting no earlier than `ready`.
    /// Returns `(start, arrival)`: when serialization began and when the
    /// last byte arrives at the far end.
    pub fn transfer(&mut self, ready: SimTime, bytes: u64) -> (SimTime, SimTime) {
        let ser = SimTime::from_ps(bytes * self.ps_per_byte);
        let (start, drained) = self.line.book(ready, ser);
        self.busy += ser;
        (start, drained + self.latency)
    }

    /// Total serialization time dispensed (utilization numerator).
    pub fn busy(&self) -> SimTime {
        self.busy
    }

    /// Pure serialization time for `bytes`, without queueing.
    pub fn serialization(&self, bytes: u64) -> SimTime {
        SimTime::from_ps(bytes * self.ps_per_byte)
    }

    /// Forget all queued work.
    pub fn reset(&mut self) {
        self.line.reset();
        self.busy = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::ps_per_byte_gbps;

    #[test]
    fn single_server_is_fifo_for_equal_ready_times() {
        let mut s = KServer::new(1);
        let svc = SimTime::from_ns(10);
        let (a0, a1) = s.acquire(SimTime::ZERO, svc);
        assert_eq!((a0, a1), (SimTime::ZERO, SimTime::from_ns(10)));
        // Second request ready at t=3 must wait until t=10.
        let (b0, b1) = s.acquire(SimTime::from_ns(3), svc);
        assert_eq!((b0, b1), (SimTime::from_ns(10), SimTime::from_ns(20)));
        // A request ready after the queue drained starts immediately.
        let (c0, _) = s.acquire(SimTime::from_ns(50), svc);
        assert_eq!(c0, SimTime::from_ns(50));
    }

    #[test]
    fn earlier_arrivals_fill_gaps_before_future_bookings() {
        let mut s = KServer::new(1);
        // A pipeline books far in the future...
        let (f0, _) = s.acquire(SimTime::from_us(10), SimTime::from_ns(100));
        assert_eq!(f0, SimTime::from_us(10));
        // ...but a request arriving now is served now, in the idle gap.
        let (n0, n1) = s.acquire(SimTime::ZERO, SimTime::from_ns(100));
        assert_eq!(n0, SimTime::ZERO);
        assert_eq!(n1, SimTime::from_ns(100));
    }

    #[test]
    fn gap_must_fit_the_whole_service() {
        let mut s = KServer::new(1);
        s.acquire(SimTime::ZERO, SimTime::from_ns(100)); // [0,100)
        s.acquire(SimTime::from_ns(150), SimTime::from_ns(100)); // [150,250)
                                                                 // 60ns job ready at 80: gap [100,150) fits only 50ns of it after
                                                                 // its ready time... it can start at 100, needs until 160 > 150, so
                                                                 // it must go after 250.
        let (start, _) = s.acquire(SimTime::from_ns(80), SimTime::from_ns(60));
        assert_eq!(start, SimTime::from_ns(250));
        // A 40ns job ready at 100 fits the gap exactly.
        let (start, end) = s.acquire(SimTime::from_ns(100), SimTime::from_ns(40));
        assert_eq!(start, SimTime::from_ns(100));
        assert_eq!(end, SimTime::from_ns(140));
    }

    #[test]
    fn k_units_serve_in_parallel() {
        let mut s = KServer::new(3);
        let svc = SimTime::from_ns(10);
        for _ in 0..3 {
            let (start, _) = s.acquire(SimTime::ZERO, svc);
            assert_eq!(start, SimTime::ZERO);
        }
        // Fourth request queues behind the earliest finisher.
        let (start, end) = s.acquire(SimTime::ZERO, svc);
        assert_eq!(start, SimTime::from_ns(10));
        assert_eq!(end, SimTime::from_ns(20));
        assert_eq!(s.earliest_free(), SimTime::from_ns(10));
    }

    #[test]
    fn throughput_of_k_server_is_k_over_service() {
        // 4 units at 100ns/op must sustain 40 MOPS: 4000 ops finish by 100us.
        let mut s = KServer::new(4);
        let svc = SimTime::from_ns(100);
        let mut last = SimTime::ZERO;
        for _ in 0..4000 {
            let (_, end) = s.acquire(SimTime::ZERO, svc);
            last = last.max(end);
        }
        assert_eq!(last, SimTime::from_us(100));
    }

    #[test]
    fn interval_cap_collapses_history_not_future() {
        let mut s = KServer::new(1);
        let svc = SimTime::from_ns(10);
        // 84 disjoint bookings 10 us apart: the 20 oldest, ending at
        // 10i us + 10 ns for i < 20, are collapsed into the floor.
        for i in 0..(MAX_INTERVALS as u64 + 20) {
            s.acquire(SimTime::from_us(10 * i), svc);
        }
        let floor = SimTime::from_us(190) + svc;
        assert_eq!(s.earliest_free(), floor);
        // A request ready at 0 starts at the floor, not before it.
        assert_eq!(s.acquire(SimTime::ZERO, svc), (floor, floor + svc));
        // That booking became the oldest of 65 intervals and was itself
        // collapsed, raising the floor past it.
        assert_eq!(s.earliest_free(), floor + svc);
        // The gaps after the floor are still served in ready-time order.
        let ready = SimTime::from_us(205);
        assert_eq!(s.acquire(ready, svc), (ready, ready + svc));
    }

    #[test]
    fn bandwidth_link_serializes_and_delays() {
        // 40 Gbps, 200ns propagation.
        let mut l = BandwidthLink::new(ps_per_byte_gbps(40), SimTime::from_ns(200));
        let (start, arrival) = l.transfer(SimTime::ZERO, 4096);
        assert_eq!(start, SimTime::ZERO);
        // 4096 B * 200 ps = 819.2 ns serialization + 200 ns latency.
        assert_eq!(arrival, SimTime::from_ps(4096 * 200 + 200_000));
        // Next transfer queues behind the first's serialization, not its
        // propagation (cut-through of the sender side).
        let (s2, _) = l.transfer(SimTime::ZERO, 64);
        assert_eq!(s2, SimTime::from_ps(4096 * 200));
    }

    #[test]
    fn busy_accounting_accumulates_service_only() {
        let mut s = KServer::new(2);
        s.acquire(SimTime::ZERO, SimTime::from_ns(30));
        s.acquire(SimTime::from_us(5), SimTime::from_ns(70));
        assert_eq!(s.busy(), SimTime::from_ns(100));
        let mut l = BandwidthLink::new(100, SimTime::from_ns(5));
        l.transfer(SimTime::ZERO, 1000);
        assert_eq!(l.busy(), SimTime::from_ps(100_000));
    }

    #[test]
    fn reset_clears_backlog() {
        let mut s = KServer::new(2);
        s.acquire(SimTime::ZERO, SimTime::from_us(5));
        s.reset();
        assert_eq!(s.earliest_free(), SimTime::ZERO);
        assert_eq!(s.busy(), SimTime::ZERO);
        let mut l = BandwidthLink::new(100, SimTime::ZERO);
        l.transfer(SimTime::ZERO, 1_000_000);
        l.reset();
        assert_eq!(l.transfer(SimTime::ZERO, 1).0, SimTime::ZERO);
    }

    /// The calendar as a plain sorted `Vec`: a linear first-fit scan and a
    /// front `remove` at the cap. `Timeline` must match it exactly.
    #[derive(Clone, Default)]
    struct VecTimeline {
        floor: SimTime,
        busy: Vec<(SimTime, SimTime)>,
    }

    impl VecTimeline {
        fn book(&mut self, ready: SimTime, service: SimTime) -> (SimTime, SimTime) {
            let mut start = ready.max(self.floor);
            match self.busy.last_mut() {
                None => {
                    self.busy.push((start, start + service));
                    return (start, start + service);
                }
                Some(last) if start >= last.1 => {
                    let end = start + service;
                    if start == last.1 {
                        last.1 = end;
                    } else {
                        self.busy.push((start, end));
                        if self.busy.len() > MAX_INTERVALS {
                            let (_, e0) = self.busy.remove(0);
                            self.floor = self.floor.max(e0);
                        }
                    }
                    return (start, end);
                }
                _ => {}
            }
            let mut idx = self.busy.len();
            for (i, &(s, e)) in self.busy.iter().enumerate() {
                if start + service <= s {
                    idx = i;
                    break;
                }
                start = start.max(e);
            }
            let end = start + service;
            let merged_prev = idx > 0 && self.busy[idx - 1].1 == start;
            let merged_next = idx < self.busy.len() && self.busy[idx].0 == end;
            match (merged_prev, merged_next) {
                (true, true) => {
                    self.busy[idx - 1].1 = self.busy[idx].1;
                    self.busy.remove(idx);
                }
                (true, false) => self.busy[idx - 1].1 = end,
                (false, true) => self.busy[idx].0 = start,
                (false, false) => self.busy.insert(idx, (start, end)),
            }
            if self.busy.len() > MAX_INTERVALS {
                let (_, e0) = self.busy.remove(0);
                self.floor = self.floor.max(e0);
            }
            (start, end)
        }

        fn earliest_free(&self) -> SimTime {
            match self.busy.first() {
                Some(&(s, e)) if s <= self.floor => e,
                _ => self.floor,
            }
        }

        fn probe(&self, ready: SimTime, service: SimTime) -> SimTime {
            let mut start = ready.max(self.floor);
            for &(s, e) in &self.busy {
                if start + service <= s {
                    break;
                }
                start = start.max(e);
            }
            start
        }
    }

    /// `KServer::acquire` over reference timelines: first minimum wins.
    fn reference_acquire(
        units: &mut [VecTimeline],
        ready: SimTime,
        service: SimTime,
    ) -> (SimTime, SimTime) {
        let idx = (0..units.len())
            .min_by_key(|&i| units[i].probe(ready, service))
            .expect("at least one unit");
        units[idx].book(ready, service)
    }

    /// A ready time that exercises one path of the calendar: the tail
    /// (appending, touching or leaving a gap), the past (below the last
    /// end, often below the floor), a gap edge or interior, or far ahead.
    fn draw_ready(rng: &mut SimRng, unit: &VecTimeline) -> SimTime {
        let ns = SimTime::from_ns;
        let last_end = unit.busy.last().map_or(unit.floor, |&(_, e)| e);
        match rng.gen_range(10) {
            0..=2 => last_end + ns(10 * rng.gen_range(4)),
            3..=4 => SimTime::from_ps(rng.gen_range(last_end.as_ps() + 1)),
            5..=8 if unit.busy.len() >= 2 => {
                let i = rng.gen_range(unit.busy.len() as u64 - 1) as usize;
                let (s, e) = unit.busy[i];
                let next = unit.busy[i + 1].0;
                match rng.gen_range(4) {
                    0 => s,
                    1 => e,
                    2 => next,
                    _ => e + SimTime::from_ps(rng.gen_range((next - e).as_ps() + 1)),
                }
            }
            _ => last_end + ns(rng.gen_range(2_000)),
        }
    }

    /// Services: zero, whole 10 ns steps (so bookings touch and merge),
    /// odd picosecond counts, and the occasional long one.
    fn draw_service(rng: &mut SimRng) -> SimTime {
        match rng.gen_range(8) {
            0..=1 => SimTime::ZERO,
            2..=5 => SimTime::from_ns(10 * (1 + rng.gen_range(4))),
            6 => SimTime::from_ps(1 + rng.gen_range(20_000)),
            _ => SimTime::from_ns(rng.gen_range(3_000)),
        }
    }

    #[test]
    fn timeline_matches_vec_reference_model() {
        const OPS: u64 = 200_000;
        for k in [1usize, 2, 4] {
            let mut rng = SimRng::new(0x7131_11AE ^ k as u64);
            let mut s = KServer::new(k);
            let mut reference = vec![VecTimeline::default(); k];
            let mut longest = 0;
            for op in 0..OPS {
                let unit = rng.gen_range(k as u64) as usize;
                let ready = draw_ready(&mut rng, &reference[unit]);
                let service = draw_service(&mut rng);
                let got = s.acquire(ready, service);
                let want = reference_acquire(&mut reference, ready, service);
                assert_eq!(got, want, "k={k} op {op}: acquire({ready:?}, {service:?})");
                for (u, r) in s.units.iter().zip(&reference) {
                    assert_eq!(u.floor, r.floor, "k={k} op {op}: floor");
                    assert!(u.busy.iter().eq(&r.busy), "k={k} op {op}: intervals");
                    assert_eq!(u.earliest_free(), r.earliest_free(), "k={k} op {op}");
                    let (ready, service) = (draw_ready(&mut rng, r), draw_service(&mut rng));
                    assert_eq!(u.probe(ready, service), r.probe(ready, service), "k={k} op {op}");
                    longest = longest.max(r.busy.len());
                }
                assert_eq!(
                    s.earliest_free(),
                    reference.iter().map(VecTimeline::earliest_free).min().unwrap()
                );
            }
            assert_eq!(longest, MAX_INTERVALS, "k={k}: the cap must be exercised");
            assert!(reference.iter().all(|r| r.floor > SimTime::ZERO), "k={k}: no eviction");
        }
    }
}
