//! `fleet-verbs`: closed-loop 32 B one-sided verbs over a 2048-machine
//! fleet, the only workload where fleet set-up and teardown, MTT misses,
//! the sparse memory pool and the shard split/absorb do most of the work.
//!
//! 1024 connection-disjoint machine pairs, 6 RC connections per pair,
//! one 256 MiB backed region per machine. Pairs are dealt round-robin to
//! four classes (write/read × sequential/random offsets) that run side by
//! side; every random verb misses the MTT. Offsets are drawn from the
//! workload seed during set-up, so the simulation receives only them.
//! Each pair's client keeps 8 verbs in flight (the window fig6-xxl uses)
//! and the benchmark's own client makes every `post_one_ref` call.

use crate::gate::Point;
use crate::trace::{self, ns_since, quantile, Tracer};
use crate::{memory_bytes, memory_layers, nic_counters, nic_layers, Pass};
use cluster::{
    run_clients_sharded, shard_plan, Client, ClusterConfig, ConnId, Endpoint, Pinned, Step, Testbed,
};
use rnicsim::{MrId, RKey, Sge, VerbKind, WorkRequest, WrId};
use simcore::{Meter, SimRng, SimTime};
use std::collections::VecDeque;
use std::time::Instant;

/// Connection-disjoint machine pairs.
pub const PAIRS: usize = 1024;
/// RC connections per pair.
pub const FAN: usize = 6;
/// Backed region registered on every machine.
pub const REGION: u64 = 256 << 20;
/// Verbs each pair's client issues.
pub const OPS: usize = 256;
/// Verbs each client keeps in flight.
pub const WINDOW: usize = 8;
/// Verb payload.
pub const PAYLOAD: u64 = 32;
/// Shards the run is split across (one per core of a 2-core host).
pub const SHARDS: usize = 2;

/// Pair classes: (label, write, sequential offsets).
pub const CLASSES: [(&str, bool, bool); 4] = [
    ("write-seq", true, true),
    ("write-rand", true, false),
    ("read-seq", false, true),
    ("read-rand", false, false),
];

/// Host-time probe a traced client carries.
#[derive(Default)]
struct Probe {
    post_ns: Vec<u64>,
    step_ns: u64,
    steps: u64,
    /// Start of the client's first step and end of its last: a shard's
    /// active span runs from its clients' earliest start to latest end.
    first: Option<Instant>,
    last: Option<Instant>,
}

/// One pair's closed-loop client: issues the pre-drawn verbs in order,
/// at most [`WINDOW`] in flight, round-robin over the pair's connections.
struct FleetClient {
    conns: Vec<ConnId>,
    local: MrId,
    remote: RKey,
    wr: WorkRequest,
    offsets: Vec<(u64, u64)>,
    issued: usize,
    outstanding: VecDeque<SimTime>,
    /// Completions of the second half of the run (steady state).
    meter: Meter,
    probe: Option<Probe>,
}

impl FleetClient {
    fn issue(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
        let i = self.issued;
        let (l_off, r_off) = self.offsets[i];
        self.wr.wr_id = WrId(i as u64);
        self.wr.sgl = Sge::new(self.local, l_off, PAYLOAD).into();
        self.wr.remote = Some((self.remote, r_off));
        let conn = self.conns[i % self.conns.len()];
        let done = match &mut self.probe {
            Some(p) => {
                let t = Instant::now();
                let at = tb.post_one_ref(now, conn, &self.wr).at;
                p.post_ns.push(ns_since(t));
                at
            }
            None => tb.post_one_ref(now, conn, &self.wr).at,
        };
        assert!(done >= now, "verb completed before it was issued");
        self.issued += 1;
        if i >= self.offsets.len() / 2 {
            self.meter.record(done);
        }
        self.outstanding.push_back(done);
        if self.issued == self.offsets.len() {
            Step::Done
        } else if self.outstanding.len() < WINDOW {
            Step::Yield(now)
        } else {
            let oldest = self.outstanding.pop_front().expect("window is full");
            Step::Yield(oldest.max(now))
        }
    }
}

impl Client for FleetClient {
    fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
        if self.probe.is_none() {
            return self.issue(now, tb);
        }
        let t = Instant::now();
        let step = self.issue(now, tb);
        let end = Instant::now();
        let p = self.probe.as_mut().expect("traced client");
        p.step_ns += (end - t).as_nanos() as u64;
        p.steps += 1;
        p.first.get_or_insert(t);
        p.last = Some(end);
        step
    }
}

/// Offsets for one pair: sequential walks slot by slot from 0; random
/// draws both ends uniformly over the region.
fn draw_offsets(rng: &mut SimRng, seq: bool) -> Vec<(u64, u64)> {
    let slots = REGION / PAYLOAD;
    (0..OPS as u64)
        .map(|i| {
            if seq {
                ((i % slots) * PAYLOAD, (i % slots) * PAYLOAD)
            } else {
                (rng.gen_range(slots) * PAYLOAD, rng.gen_range(slots) * PAYLOAD)
            }
        })
        .collect()
}

/// One pass: a single fleet point.
pub fn pass(seed: u64, tr: &mut Option<Tracer>) -> Pass {
    let traced = tr.is_some();
    let mut pass = Pass::default();
    let mut point = Point::new("fleet");
    let (mut reg_ns, mut conn_ns) = (Vec::new(), Vec::new());
    let timed = |samples: &mut Vec<u64>, t: Instant| {
        if traced {
            samples.push(ns_since(t));
        }
    };
    if let Some(t) = tr {
        t.set_point(0);
    }

    // ---- set-up
    let t_setup = Instant::now();
    trace::open(tr, "setup");
    trace::open(tr, "cluster.testbed.new");
    let t = Instant::now();
    let mut tb = Testbed::new(ClusterConfig { machines: 2 * PAIRS, ..Default::default() });
    let new_ns = ns_since(t);
    trace::close(tr);
    trace::open(tr, "cluster.testbed.wire");
    let root = SimRng::new(seed);
    let mut regions = Vec::with_capacity(PAIRS);
    let mut clients = Vec::with_capacity(PAIRS);
    for p in 0..PAIRS {
        let (a, b) = (2 * p, 2 * p + 1);
        let (_, write, seq) = CLASSES[p % CLASSES.len()];
        let t = Instant::now();
        let local = tb.register(a, 1, REGION);
        timed(&mut reg_ns, t);
        let t = Instant::now();
        let remote = tb.register(b, 1, REGION);
        timed(&mut reg_ns, t);
        // Nonzero bytes at the head of the side that sends data: the first
        // sequential verbs carry them and materialize one receiving page;
        // everything else moves zeros, which the sparse pool elides.
        let (src_m, src_mr) = if write { (a, local) } else { (b, remote) };
        tb.machine_mut(src_m).mem.write(src_mr, 0, b"fleet-verbs sparse fleet seed 32");
        let conns: Vec<ConnId> = (0..FAN)
            .map(|_| {
                let t = Instant::now();
                let c = tb.connect(Endpoint::affine(a, 1), Endpoint::affine(b, 1));
                timed(&mut conn_ns, t);
                c
            })
            .collect();
        regions.push([(a, local), (b, remote)]);
        let kind = if write { VerbKind::Write } else { VerbKind::Read };
        clients.push(FleetClient {
            conns,
            local,
            remote: RKey(remote.0 as u64),
            wr: WorkRequest {
                wr_id: WrId(0),
                kind,
                sgl: Sge::new(local, 0, PAYLOAD).into(),
                remote: Some((RKey(remote.0 as u64), 0)),
                signaled: true,
            },
            offsets: draw_offsets(&mut root.split(p as u64), seq),
            issued: 0,
            outstanding: VecDeque::with_capacity(WINDOW),
            meter: Meter::new(SimTime::ZERO),
            probe: traced.then(|| Probe { post_ns: Vec::with_capacity(OPS), ..Default::default() }),
        });
    }
    trace::close(tr);
    trace::close(tr);
    let setup_ns = ns_since(t_setup);

    // ---- simulate
    let t_rest = Instant::now();
    let homes: Vec<usize> = (0..PAIRS).map(|p| 2 * p).collect();
    let owner = traced.then(|| shard_plan(&tb, &homes, SHARDS));
    trace::open(tr, "cluster.shard.run");
    let ops_before = simcore::opcount::current();
    let t = Instant::now();
    {
        let mut pins: Vec<Pinned<'_>> =
            clients.iter_mut().zip(&homes).map(|(c, &h)| Pinned::new(h, c)).collect();
        run_clients_sharded(&mut tb, &mut pins, SHARDS, SimTime::MAX);
    }
    let run_ns = ns_since(t);
    point.sim_ops = simcore::opcount::current() - ops_before;
    trace::close(tr);

    // ---- fold
    trace::open(tr, "fold");
    let mut all = Meter::new(SimTime::ZERO);
    let mut class_meters: Vec<Meter> = CLASSES.iter().map(|_| Meter::new(SimTime::ZERO)).collect();
    for (p, c) in clients.iter().enumerate() {
        all.merge(&c.meter);
        class_meters[p % CLASSES.len()].merge(&c.meter);
        point.check("every verb issued", c.issued == OPS);
    }
    point.mops = all.mops();
    for ((label, _, _), m) in CLASSES.iter().zip(&class_meters) {
        point.pinned.push((label_key(label), m.mops().to_string()));
    }
    trace::open(tr, "cluster.memory.digest");
    let (resident, dense) = memory_bytes(&tb);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for pair in &regions {
        for &(m, mr) in pair {
            digest ^= tb.machine(m).mem.resident_digest(mr);
            digest = digest.wrapping_mul(0x100_0000_01b3);
        }
    }
    trace::close(tr);
    point.check("resident*5 <= dense", resident * 5 <= dense);
    point.pin("resident_bytes", resident);
    point.pin("memory_digest", format!("{digest:016x}"));
    let nic = nic_counters(&tb);
    nic_layers(&mut pass, &mut point, nic, traced);
    trace::close(tr);

    // ---- teardown
    trace::open(tr, "cluster.testbed.teardown");
    let t = Instant::now();
    let probes: Vec<Option<Probe>> = clients.iter_mut().map(|c| c.probe.take()).collect();
    drop(clients);
    drop(tb);
    let teardown_ns = ns_since(t);
    trace::close(tr);
    pass.account(setup_ns, ns_since(t_rest));
    pass.sim_ops = point.sim_ops;

    if traced {
        memory_layers(&mut pass, resident, dense);
        layers(&mut pass, new_ns, teardown_ns, run_ns, &mut reg_ns, &mut conn_ns, probes, owner);
    }
    pass.points.push(point);
    pass
}

/// Pin key of a class's throughput.
fn label_key(label: &str) -> &'static str {
    match label {
        "write-seq" => "write_seq_mops",
        "write-rand" => "write_rand_mops",
        "read-seq" => "read_seq_mops",
        _ => "read_rand_mops",
    }
}

#[allow(clippy::too_many_arguments)]
fn layers(
    pass: &mut Pass,
    new_ns: u64,
    teardown_ns: u64,
    run_ns: u64,
    reg_ns: &mut [u64],
    conn_ns: &mut [u64],
    probes: Vec<Option<Probe>>,
    owner: Option<Vec<usize>>,
) {
    let owner = owner.expect("traced pass plans shards");
    pass.layer_add("cluster.testbed.new_ms", new_ns as f64 / 1e6);
    pass.layer_add("cluster.testbed.teardown_ms", teardown_ns as f64 / 1e6);
    pass.layer_add("cluster.testbed.register_count", reg_ns.len() as f64);
    pass.layer_add("cluster.testbed.register_us_p50", quantile(reg_ns, 0.5) as f64 / 1e3);
    pass.layer_add("cluster.testbed.register_us_p99", quantile(reg_ns, 0.99) as f64 / 1e3);
    pass.layer_add("cluster.testbed.connect_count", conn_ns.len() as f64);
    pass.layer_add("cluster.testbed.connect_us_p50", quantile(conn_ns, 0.5) as f64 / 1e3);
    pass.layer_add("cluster.testbed.connect_us_p99", quantile(conn_ns, 0.99) as f64 / 1e3);
    let mut post: Vec<u64> = Vec::with_capacity(PAIRS * OPS);
    let mut by_class: Vec<Vec<u64>> = CLASSES.iter().map(|_| Vec::new()).collect();
    let mut steps = 0u64;
    let mut shard_step_ns = [0u64; SHARDS];
    let mut shard_span: [Option<(Instant, Instant)>; SHARDS] = [None; SHARDS];
    for (p, probe) in probes.into_iter().enumerate() {
        let probe = probe.expect("traced client");
        post.extend_from_slice(&probe.post_ns);
        by_class[p % CLASSES.len()].extend_from_slice(&probe.post_ns);
        steps += probe.steps;
        let s = owner[2 * p];
        shard_step_ns[s] += probe.step_ns;
        if let (Some(a), Some(b)) = (probe.first, probe.last) {
            shard_span[s] = Some(match shard_span[s] {
                Some((x, y)) => (x.min(a), y.max(b)),
                None => (a, b),
            });
        }
    }
    let span_ns: Vec<u64> =
        shard_span.iter().map(|s| s.map_or(0, |(a, b)| (b - a).as_nanos() as u64)).collect();
    let engine_self: u64 =
        span_ns.iter().zip(&shard_step_ns).map(|(s, st)| s.saturating_sub(*st)).sum();
    for (s, (span, steps)) in span_ns.iter().zip(&shard_step_ns).enumerate() {
        pass.notes.push(format!(
            "shard {s}: active {:.1} ms, client steps {:.1} ms",
            *span as f64 / 1e6,
            *steps as f64 / 1e6
        ));
    }
    for ((label, _, _), samples) in CLASSES.iter().zip(&mut by_class) {
        pass.notes.push(format!(
            "post_ns {label}: p50 {} p99 {} over {} posts",
            quantile(samples, 0.5),
            quantile(samples, 0.99),
            samples.len()
        ));
    }
    pass.layer_add("cluster.testbed.post_calls", post.len() as f64);
    pass.layer_add("cluster.testbed.post_s", post.iter().sum::<u64>() as f64 / 1e9);
    pass.layer_add("cluster.testbed.post_ns_p50", quantile(&mut post, 0.5) as f64);
    pass.layer_add("cluster.testbed.post_ns_p99", quantile(&mut post, 0.99) as f64);
    pass.layer_add("cluster.engine.steps", steps as f64);
    pass.layer_add("cluster.engine.self_s", engine_self as f64 / 1e9);
    let busiest = span_ns.iter().copied().max().unwrap_or(0);
    pass.layer_add("cluster.shard.overhead_s", run_ns.saturating_sub(busiest) as f64 / 1e9);
}
