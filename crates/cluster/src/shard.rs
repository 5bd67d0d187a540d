//! Sharded client runtime: conservative parallel simulation of the
//! cluster, machine-partitioned.
//!
//! [`run_clients_sharded`] is the parallel counterpart of
//! [`run_clients`](crate::run_clients): each client is [`Pinned`] to its
//! home machine, connections are grouped into *components* (machines
//! reachable from one another through some connection), and whole
//! components are dealt across shards. Each shard takes ownership of its
//! machines' state ([`Testbed::split_shards`]) plus a private event
//! queue, and all shards advance concurrently under the conservative
//! window protocol of [`simcore::shard`].
//!
//! Because the partition closes over every connection, a client can only
//! ever touch machines its own shard owns — shards exchange *zero*
//! messages, so the run uses [`Lookahead::Unbounded`]: one window, no
//! barriers, and byte-identical state to the serial engine (each shard
//! replays exactly the serial interleaving restricted to its clients;
//! clients on different shards share no machine, connection, or memory,
//! so their relative order is unobservable). A verb that does reach a
//! foreign machine panics — see `Testbed::split_shards` — rather than
//! silently corrupting the causal order. [`run_clients_windowed`]
//! exposes the finite-lookahead mode the cross-shard traffic engine
//! (ROADMAP item 2) will build on; today it must produce the same bytes,
//! which the tests pin.

use crate::engine::{drive_steps, Client};
use crate::testbed::Testbed;
use simcore::shard::{run_sharded, CrossMsg, Lookahead, ShardWorker};
use simcore::{EventQueue, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide default shard count: 0 = auto (one shard per available
/// core, capped). Runner flags set this once at startup.
static SHARDS_DEFAULT: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide default shard count. `None` restores auto.
pub fn set_shards_default(n: Option<usize>) {
    SHARDS_DEFAULT.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// The effective default shard count: the value set by
/// [`set_shards_default`], or (auto) the machine's available
/// parallelism capped at 8 — shards beyond the component count idle, so
/// a modest cap keeps thread churn bounded.
pub fn shards_default() -> usize {
    match SHARDS_DEFAULT.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()).min(8),
        n => n,
    }
}

/// A client pinned to its home machine — the shard planner needs to know
/// where each client's issuing CPU lives.
pub struct Pinned<'a> {
    /// Machine whose CPU runs this client.
    pub machine: usize,
    /// The client itself; `Send` so a shard thread can step it.
    pub client: Box<dyn Client + Send + 'a>,
}

impl<'a> Pinned<'a> {
    /// Pin `client` to `machine`.
    pub fn new(machine: usize, client: impl Client + Send + 'a) -> Self {
        Pinned { machine, client: Box::new(client) }
    }
}

/// Partition machines across `shards` so no connection crosses a shard:
/// union machines joined by any connection into components, then deal
/// components to shards greedily by descending client weight
/// (least-loaded shard first; every tie broken by index, so the plan is
/// deterministic). Returns the owning shard of each machine.
pub fn shard_plan(tb: &Testbed, homes: &[usize], shards: usize) -> Vec<usize> {
    let n = tb.machine_count();
    // Union-find over machines.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for c in 0..tb.conn_count() {
        let id = crate::ConnId(c as u32);
        let a = find(&mut parent, tb.client_of(id).machine);
        let b = find(&mut parent, tb.server_of(id).machine);
        if a != b {
            // Root at the smaller index so component identity is stable.
            parent[a.max(b)] = a.min(b);
        }
    }
    // Components in order of first machine appearance, weighted by how
    // many clients call the component home.
    let mut weight = vec![0u64; n];
    for &h in homes {
        let r = find(&mut parent, h);
        weight[r] += 1;
    }
    let mut comps: Vec<(usize, u64)> = Vec::new();
    for (m, &w) in weight.iter().enumerate() {
        if find(&mut parent, m) == m {
            comps.push((m, w));
        }
    }
    // Largest components first; the sort is stable, so equal weights
    // keep appearance order.
    comps.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
    let mut load = vec![0u64; shards.max(1)];
    let mut comp_shard = vec![0usize; n];
    for (root, w) in comps {
        let s = (0..load.len()).min_by_key(|&s| (load[s], s)).expect("at least one shard");
        load[s] += w;
        comp_shard[root] = s;
    }
    (0..n).map(|m| comp_shard[find(&mut parent, m)]).collect()
}

/// One shard: its slice of the cluster, the clients homed there, and a
/// private event queue. Cross-shard messages never occur (the partition
/// closes over connections), so `Msg` is uninhabited-in-practice.
struct ShardClients<'p, 'a> {
    tb: Testbed,
    clients: Vec<&'p mut Pinned<'a>>,
    q: EventQueue<usize>,
    deadline: SimTime,
    last: SimTime,
}

impl ShardWorker for ShardClients<'_, '_> {
    type Msg = ();

    fn next_time(&self) -> Option<SimTime> {
        self.q.peek_time()
    }

    fn run_window(&mut self, end: Option<SimTime>, _outbox: &mut Vec<CrossMsg<()>>) {
        let ShardClients { tb, clients, q, deadline, last } = self;
        drive_steps(tb, q, *deadline, end, last, &mut |tb, now, i| clients[i].client.step(now, tb));
    }

    fn deliver(&mut self, _at: SimTime, _msg: ()) {
        unreachable!("cluster shards exchange no messages: the partition closes over connections");
    }
}

/// Drive `clients` against `tb` on up to `shards` concurrent shards
/// until all finish or `deadline` passes; returns the last time any
/// client was stepped. Byte-identical to [`run_clients`](crate::run_clients)
/// — shard 1 *is* the serial path, and higher counts partition the
/// cluster so no observable order changes.
pub fn run_clients_sharded(
    tb: &mut Testbed,
    clients: &mut [Pinned<'_>],
    shards: usize,
    deadline: SimTime,
) -> SimTime {
    run_clients_windowed(tb, clients, shards, deadline, Lookahead::Unbounded)
}

/// [`run_clients_sharded`] with an explicit lookahead mode. Cluster
/// shards never exchange messages, so `Unbounded` (one window) and
/// `Finite` (e.g. [`ClusterConfig::min_link_latency`]
/// (crate::ClusterConfig::min_link_latency), many windows with a barrier
/// each) produce identical bytes; the finite mode exists to exercise the
/// window machinery the future cross-shard traffic engine needs.
pub fn run_clients_windowed(
    tb: &mut Testbed,
    clients: &mut [Pinned<'_>],
    shards: usize,
    deadline: SimTime,
    lookahead: Lookahead,
) -> SimTime {
    if clients.is_empty() {
        return SimTime::ZERO;
    }
    let homes: Vec<usize> = clients.iter().map(|p| p.machine).collect();
    let owner = shard_plan(tb, &homes, shards.max(1));
    // Shards that ended up without any client would only spin an idle
    // thread; compact the plan to the shards that actually host work.
    let mut used: Vec<usize> = homes.iter().map(|&h| owner[h]).collect();
    used.sort_unstable();
    used.dedup();
    if shards <= 1 || used.len() <= 1 {
        // Serial path: exactly the engine's single-queue loop.
        let mut boxed: Vec<Box<dyn Client + '_>> =
            clients.iter_mut().map(|p| Box::new(&mut *p.client) as Box<dyn Client + '_>).collect();
        return crate::run_clients(tb, &mut boxed, deadline);
    }
    let owner: Vec<usize> =
        owner.iter().map(|o| used.iter().position(|u| u == o).unwrap_or(0)).collect();
    let k = used.len();
    let subs = tb.split_shards(&owner, k);

    // Group clients per shard, preserving global order within a shard so
    // same-time ties step in the same relative order as the serial
    // engine.
    let mut grouped: Vec<Vec<&mut Pinned<'_>>> = (0..k).map(|_| Vec::new()).collect();
    for p in clients.iter_mut() {
        let s = owner[p.machine];
        grouped[s].push(p);
    }
    let mut workers: Vec<ShardClients<'_, '_>> = subs
        .into_iter()
        .zip(grouped)
        .map(|(sub, group)| {
            let mut q = EventQueue::new();
            for i in 0..group.len() {
                q.push(SimTime::ZERO, i);
            }
            ShardClients { tb: sub, clients: group, q, deadline, last: SimTime::ZERO }
        })
        .collect();

    run_sharded(&mut workers, lookahead, true);

    // Fold in shard order: `last` is a max, so the fold order doesn't
    // matter, but keeping it deterministic is free.
    let mut last = SimTime::ZERO;
    let mut subs = Vec::with_capacity(k);
    for w in workers {
        last = last.max(w.last);
        subs.push(w.tb);
    }
    tb.absorb_shards(subs, &owner);
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::engine::{ClosedLoop, Step};
    use crate::testbed::Endpoint;
    use rnicsim::{RKey, Sge, VerbKind, WorkRequest, WrId};
    use simcore::{opcount, SimRng};

    /// Mixed read/write/FAA traffic on `pairs` disjoint machine pairs;
    /// returns everything observable: per-client completions, memory
    /// images, cache counters, opcount delta, and the engine's `last`.
    #[allow(clippy::type_complexity)]
    fn run_pairs(
        shards: usize,
        lookahead: Option<Lookahead>,
    ) -> (Vec<Vec<SimTime>>, Vec<Vec<u8>>, Vec<((u64, u64), (u64, u64))>, u64, SimTime) {
        let pairs = 6usize;
        let ops = 120u64;
        let mut tb = Testbed::new(ClusterConfig { machines: 2 * pairs, ..Default::default() });
        let mut setups = Vec::new();
        for p in 0..pairs {
            let (a, b) = (2 * p, 2 * p + 1);
            let src = tb.register(a, 1, 1 << 16);
            let dst = tb.register(b, 1, 1 << 16);
            for i in 0..64u64 {
                tb.machine_mut(a).mem.store_u64(
                    src,
                    i * 8,
                    (p as u64 + 1).wrapping_mul(i).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
            }
            let conn = tb.connect(Endpoint::affine(a, 1), Endpoint::affine(b, 1));
            setups.push((src, dst, conn));
        }
        let mut loops: Vec<_> = setups
            .iter()
            .enumerate()
            .map(|(p, &(src, dst, conn))| {
                let mut rng = SimRng::new(100 + p as u64);
                ClosedLoop::new(4, ops, move |tb: &mut Testbed, now: SimTime, i: u64| {
                    let off = rng.gen_range(64) * 8;
                    let wr = match i % 3 {
                        0 => WorkRequest::write(i, Sge::new(src, off, 32), RKey(dst.0 as u64), off),
                        1 => WorkRequest::read(i, Sge::new(src, off, 32), RKey(dst.0 as u64), off),
                        _ => WorkRequest {
                            wr_id: WrId(i),
                            kind: VerbKind::FetchAdd { delta: i },
                            sgl: Sge::new(src, 0, 8).into(),
                            remote: Some((RKey(dst.0 as u64), 1024)),
                            signaled: true,
                        },
                    };
                    tb.post_one_ref(now, conn, &wr).at
                })
            })
            .collect();
        let before = opcount::current();
        let last = {
            let mut pinned: Vec<Pinned<'_>> =
                loops.iter_mut().enumerate().map(|(p, cl)| Pinned::new(2 * p, cl)).collect();
            match lookahead {
                Some(la) => run_clients_windowed(&mut tb, &mut pinned, shards, SimTime::MAX, la),
                None => run_clients_sharded(&mut tb, &mut pinned, shards, SimTime::MAX),
            }
        };
        let ops_delta = opcount::current() - before;
        let comps: Vec<Vec<SimTime>> = loops.iter().map(|cl| cl.completions().to_vec()).collect();
        let mems: Vec<Vec<u8>> = setups
            .iter()
            .enumerate()
            .flat_map(|(p, &(src, dst, _))| {
                [
                    tb.machine(2 * p).mem.read(src, 0, 1 << 16),
                    tb.machine(2 * p + 1).mem.read(dst, 0, 1 << 16),
                ]
            })
            .collect();
        let stats: Vec<_> = (0..2 * pairs)
            .map(|m| (tb.machine(m).rnic.mtt.stats(), tb.machine(m).rnic.qpc.stats()))
            .collect();
        (comps, mems, stats, ops_delta, last)
    }

    #[test]
    fn sharded_matches_serial_byte_for_byte() {
        let serial = run_pairs(1, None);
        for shards in [2, 5] {
            let sharded = run_pairs(shards, None);
            assert_eq!(serial.0, sharded.0, "completions diverged at {shards} shards");
            assert_eq!(serial.1, sharded.1, "memory diverged at {shards} shards");
            assert_eq!(serial.2, sharded.2, "MTT/QPC counters diverged at {shards} shards");
            assert_eq!(serial.3, sharded.3, "opcount diverged at {shards} shards");
            assert_eq!(serial.4, sharded.4, "engine last diverged at {shards} shards");
        }
    }

    #[test]
    fn finite_windows_match_unbounded() {
        let cfg = ClusterConfig::default();
        let la = Lookahead::Finite(cfg.min_link_latency());
        let unbounded = run_pairs(3, Some(Lookahead::Unbounded));
        let finite = run_pairs(3, Some(la));
        assert_eq!(unbounded.0, finite.0);
        assert_eq!(unbounded.1, finite.1);
        assert_eq!(unbounded.2, finite.2);
        assert_eq!(unbounded.3, finite.3);
        assert_eq!(unbounded.4, finite.4);
    }

    #[test]
    fn sharded_oracle_reports_identical_races() {
        // Two independent machine pairs; each pair runs *two* connections
        // (one component) whose writes overlap while in flight, so the
        // dynamic race oracle records real races inside every shard. The
        // oracle state lives in the machines and migrates across the
        // split/absorb cycle — a sharded run must report byte-identical
        // races to a serial one.
        let run = |shards: usize| -> Vec<crate::oracle::Race> {
            let mut tb = Testbed::new(ClusterConfig { machines: 4, ..Default::default() });
            tb.set_checked(true);
            let mut setups = Vec::new();
            for p in 0..2usize {
                let (a, b) = (2 * p, 2 * p + 1);
                let src = tb.register(a, 1, 1 << 16);
                let dst = tb.register(b, 1, 1 << 16);
                let c0 = tb.connect(Endpoint::affine(a, 1), Endpoint::affine(b, 1));
                let c1 = tb.connect(Endpoint::affine(a, 1), Endpoint::affine(b, 1));
                setups.push((src, dst, c0, c1));
            }
            let mut loops: Vec<_> = setups
                .iter()
                .map(|&(src, dst, c0, c1)| {
                    ClosedLoop::new(4, 16, move |tb: &mut Testbed, now: SimTime, i: u64| {
                        // Alternate connections; strided 64-byte writes
                        // overlap their neighbours on the other conn.
                        let conn = if i.is_multiple_of(2) { c0 } else { c1 };
                        let off = (i % 8) * 32;
                        let wr =
                            WorkRequest::write(i, Sge::new(src, off, 64), RKey(dst.0 as u64), off);
                        tb.post_one_ref(now, conn, &wr).at
                    })
                })
                .collect();
            {
                let mut pinned: Vec<Pinned<'_>> =
                    loops.iter_mut().enumerate().map(|(p, cl)| Pinned::new(2 * p, cl)).collect();
                run_clients_sharded(&mut tb, &mut pinned, shards, SimTime::MAX);
            }
            tb.take_races()
        };
        let serial = run(1);
        assert!(!serial.is_empty(), "fixture must observe real dynamic races");
        assert_eq!(serial, run(2), "sharded oracle diverged from serial");
    }

    #[test]
    fn colocated_connections_share_a_shard() {
        let mut tb = Testbed::new(ClusterConfig { machines: 5, ..Default::default() });
        // Chain 0-1-2 is one component; pair 3-4 another.
        tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        tb.connect(Endpoint::affine(1, 0), Endpoint::affine(2, 0));
        tb.connect(Endpoint::affine(3, 1), Endpoint::affine(4, 1));
        let owner = shard_plan(&tb, &[0, 1, 3], 2);
        assert_eq!(owner[0], owner[1]);
        assert_eq!(owner[1], owner[2]);
        assert_eq!(owner[3], owner[4]);
        assert_ne!(owner[0], owner[3], "independent components spread across shards");
    }

    #[test]
    #[should_panic(expected = "resident")]
    fn foreign_post_panics() {
        let mut tb = Testbed::new(ClusterConfig { machines: 4, ..Default::default() });
        let src = tb.register(2, 1, 4096);
        let dst = tb.register(3, 1, 4096);
        // Two components: {0,1} and {2,3}.
        let _near = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        let far = tb.connect(Endpoint::affine(2, 1), Endpoint::affine(3, 1));
        // Clients homed on both components force a real 2-shard split;
        // the machine-0 client then posts on the foreign {2,3} conn.
        struct Misbehaving {
            conn: crate::ConnId,
            src: rnicsim::MrId,
            dst: rnicsim::MrId,
        }
        impl crate::Client for Misbehaving {
            fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
                let wr =
                    WorkRequest::write(0, Sge::new(self.src, 0, 8), RKey(self.dst.0 as u64), 0);
                tb.post_one_ref(now, self.conn, &wr);
                Step::Done
            }
        }
        struct Idle;
        impl crate::Client for Idle {
            fn step(&mut self, _now: SimTime, _tb: &mut Testbed) -> Step {
                Step::Done
            }
        }
        let mut bad = Misbehaving { conn: far, src, dst };
        let mut idle = Idle;
        let mut pinned = vec![Pinned::new(0, &mut bad), Pinned::new(2, &mut idle)];
        run_clients_sharded(&mut tb, &mut pinned, 2, SimTime::MAX);
    }

    #[test]
    fn single_component_falls_back_to_serial() {
        // All clients in one component: the sharded entry point must take
        // the serial path (and still agree with run_clients exactly).
        let build = |tb: &mut Testbed| {
            let src = tb.register(0, 1, 4096);
            let dst = tb.register(1, 1, 4096);
            let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
            (src, dst, conn)
        };
        let mk_loop = |src: rnicsim::MrId, dst: rnicsim::MrId, conn: crate::ConnId| {
            ClosedLoop::new(2, 40, move |tb: &mut Testbed, now: SimTime, i: u64| {
                let off = (i % 64) * 8;
                tb.post_one_ref(
                    now,
                    conn,
                    &WorkRequest::write(i, Sge::new(src, off, 16), RKey(dst.0 as u64), off),
                )
                .at
            })
        };
        let mut tb_a = Testbed::new(ClusterConfig::two_machines());
        let (src, dst, conn) = build(&mut tb_a);
        let mut cl_a = mk_loop(src, dst, conn);
        {
            let mut pinned = vec![Pinned::new(0, &mut cl_a)];
            run_clients_sharded(&mut tb_a, &mut pinned, 8, SimTime::MAX);
        }
        let mut tb_b = Testbed::new(ClusterConfig::two_machines());
        let (src, dst, conn) = build(&mut tb_b);
        let mut cl_b = mk_loop(src, dst, conn);
        {
            let mut clients: Vec<Box<dyn Client + '_>> = vec![Box::new(&mut cl_b)];
            crate::run_clients(&mut tb_b, &mut clients, SimTime::MAX);
        }
        assert_eq!(cl_a.completions(), cl_b.completions());
    }
}
