//! Sharded client runtime: the cluster cut into connection-closed
//! partitions, each run by the serial engine on its own thread.
//!
//! [`run_clients_sharded`] is the parallel counterpart of
//! [`run_clients`](crate::run_clients): each client is [`Pinned`] to its
//! home machine, connections are grouped into *components* (machines
//! reachable from one another through some connection), and whole
//! components are dealt across shards. Each shard takes ownership of its
//! machines' state ([`Testbed::split_shards`]) and runs its clients
//! through [`run_clients`](crate::run_clients) on a worker thread; the
//! machines are absorbed back afterwards.
//!
//! Because the partition closes over every connection, a client can only
//! ever touch machines its own shard owns — shards exchange nothing, and
//! the result is byte-identical to the serial engine (each shard replays
//! exactly the serial interleaving restricted to its clients; clients on
//! different shards share no machine, connection, or memory, so their
//! relative order is unobservable). A verb that does reach a foreign
//! machine panics — see `Testbed::split_shards` — rather than silently
//! corrupting the causal order.

use crate::engine::Client;
use crate::testbed::Testbed;
use simcore::{opcount, SimTime};
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
    let homes: Vec<usize> = clients.iter().map(|p| p.machine).collect();
    let owner = shard_plan(tb, &homes, shards.max(1));
    // Shards that ended up without any client would only spin an idle
    // thread; compact the plan to the shards that actually host work.
    let mut used: Vec<usize> = homes.iter().map(|&h| owner[h]).collect();
    used.sort_unstable();
    used.dedup();
    if shards <= 1 || used.len() <= 1 {
        return crate::run_clients(tb, &mut boxed(clients.iter_mut()), deadline);
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
        grouped[owner[p.machine]].push(p);
    }
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let work: Vec<_> = subs.into_iter().zip(grouped).collect();
    let runs = opcount::par_map(work, cores, |(mut sub, group)| {
        let last = crate::run_clients(&mut sub, &mut boxed(group), deadline);
        (sub, last)
    });
    let last = runs.iter().map(|&(_, last)| last).max().unwrap_or(SimTime::ZERO);
    tb.absorb_shards(runs.into_iter().map(|(sub, _)| sub).collect(), &owner);
    last
}

/// The serial engine's view of pinned clients.
fn boxed<'p, 'a: 'p>(
    pinned: impl IntoIterator<Item = &'p mut Pinned<'a>>,
) -> Vec<Box<dyn Client + 'p>> {
    pinned.into_iter().map(|p| Box::new(&mut *p.client) as Box<dyn Client + 'p>).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::engine::{ClosedLoop, Step};
    use crate::testbed::Endpoint;
    use rnicsim::{RKey, Sge, VerbKind, WorkRequest, WrId};
    use simcore::{opcount, SimRng};

    /// Everything observable about one [`run_pairs`] run.
    struct PairsRun {
        /// Per-client completion times.
        comps: Vec<Vec<SimTime>>,
        /// Source and destination memory images, per pair.
        mems: Vec<Vec<u8>>,
        /// MTT and QPC hit/miss counters, per machine.
        stats: Vec<((u64, u64), (u64, u64))>,
        /// The opcount delta of the run.
        ops: u64,
        /// What the engine returned.
        last: SimTime,
        /// Per client: the wake-up it was left holding, if it yielded one.
        pending: Vec<Option<SimTime>>,
        /// Client that stepped last (meaningful for a one-queue run only).
        stepped_last: usize,
    }

    /// Records where a client's run ended: the order of its last step
    /// among all steps and the wake-up that step asked for.
    struct Probe<'s, C> {
        inner: C,
        steps: &'s AtomicUsize,
        last_step: usize,
        pending: Option<SimTime>,
    }

    impl<C: Client> Client for Probe<'_, C> {
        fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
            self.last_step = self.steps.fetch_add(1, Ordering::Relaxed);
            let step = self.inner.step(now, tb);
            self.pending = match step {
                Step::Yield(t) => Some(t),
                Step::Done => None,
            };
            step
        }
    }

    const PAIRS: usize = 6;

    /// Mixed read/write/FAA traffic on [`PAIRS`] disjoint machine pairs,
    /// one client per pair, run on `shards` shards up to `deadline`.
    fn run_pairs(shards: usize, deadline: SimTime) -> PairsRun {
        let ops = 120u64;
        let mut tb = Testbed::new(ClusterConfig { machines: 2 * PAIRS, ..Default::default() });
        let mut setups = Vec::new();
        for p in 0..PAIRS {
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
        let steps = AtomicUsize::new(0);
        let mut probes: Vec<_> = loops
            .iter_mut()
            .map(|cl| Probe { inner: cl, steps: &steps, last_step: 0, pending: None })
            .collect();
        let before = opcount::current();
        let last = {
            let mut pinned: Vec<Pinned<'_>> =
                probes.iter_mut().enumerate().map(|(p, probe)| Pinned::new(2 * p, probe)).collect();
            run_clients_sharded(&mut tb, &mut pinned, shards, deadline)
        };
        let ops = opcount::current() - before;
        let pending = probes.iter().map(|probe| probe.pending).collect();
        let stepped_last = (0..PAIRS).max_by_key(|&p| probes[p].last_step).expect("clients");
        drop(probes);
        let comps = loops.iter().map(|cl| cl.completions().to_vec()).collect();
        let mems = setups
            .iter()
            .enumerate()
            .flat_map(|(p, &(src, dst, _))| {
                [
                    tb.machine(2 * p).mem.read(src, 0, 1 << 16),
                    tb.machine(2 * p + 1).mem.read(dst, 0, 1 << 16),
                ]
            })
            .collect();
        let stats = (0..2 * PAIRS)
            .map(|m| (tb.machine(m).rnic.mtt.stats(), tb.machine(m).rnic.qpc.stats()))
            .collect();
        PairsRun { comps, mems, stats, ops, last, pending, stepped_last }
    }

    fn assert_same_run(serial: &PairsRun, sharded: &PairsRun, what: &str) {
        assert_eq!(serial.comps, sharded.comps, "completions diverged at {what}");
        assert_eq!(serial.mems, sharded.mems, "memory diverged at {what}");
        assert_eq!(serial.stats, sharded.stats, "MTT/QPC counters diverged at {what}");
        assert_eq!(serial.ops, sharded.ops, "opcount diverged at {what}");
        assert_eq!(serial.last, sharded.last, "engine last diverged at {what}");
        assert_eq!(serial.pending, sharded.pending, "pending wake-ups diverged at {what}");
    }

    #[test]
    fn sharded_matches_serial_byte_for_byte() {
        let serial = run_pairs(1, SimTime::MAX);
        assert!(serial.pending.iter().all(Option::is_none), "every client runs to completion");
        for shards in [2, 5] {
            assert_same_run(&serial, &run_pairs(shards, SimTime::MAX), &format!("{shards} shards"));
        }
    }

    #[test]
    fn sharded_deadline_cut_matches_serial() {
        let full = run_pairs(1, SimTime::MAX);
        let deadline = SimTime::from_ps(full.last.as_ps() / 2);
        let serial = run_pairs(1, deadline);
        assert!(serial.last <= deadline && serial.last > SimTime::ZERO);
        assert!(
            serial.pending.iter().all(|w| w.is_some_and(|t| t > deadline)),
            "the deadline must stop every client mid-run"
        );
        // One queue holds all six clients. The client stepped last left a
        // wake-up no earlier than another client's queued one, so the fast
        // path pushed it and the cut came from a queued pop.
        let cut_by = serial.pending[serial.stepped_last];
        assert!(
            (0..PAIRS).any(|p| p != serial.stepped_last && serial.pending[p] <= cut_by),
            "the serial run must be cut on the queued-pop branch"
        );
        // Six single-client components on five shards: four shards hold a
        // lone client whose queue is empty after its first pop, so every
        // re-step is inline and the cut is the inline branch.
        let mut tb = Testbed::new(ClusterConfig { machines: 2 * PAIRS, ..Default::default() });
        for p in 0..PAIRS {
            tb.connect(Endpoint::affine(2 * p, 1), Endpoint::affine(2 * p + 1, 1));
        }
        let homes: Vec<usize> = (0..PAIRS).map(|p| 2 * p).collect();
        let owner = shard_plan(&tb, &homes, 5);
        let lone = (0..5).filter(|&s| homes.iter().filter(|&&h| owner[h] == s).count() == 1);
        assert_eq!(lone.count(), 4);
        for shards in [1, 2, 5] {
            assert_same_run(&serial, &run_pairs(shards, deadline), &format!("{shards} shards"));
        }
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
