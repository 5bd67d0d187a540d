//! Proof that the steady-state verb hot path does not touch the heap:
//! a counting global allocator wraps the system allocator, and after a
//! warm-up phase (scratch buffers grown, MTT warmed, k-server intervals
//! merged) a burst of posts must perform exactly zero allocations.
//!
//! The count is per thread: the test harness runs tests on parallel
//! threads, and a process-wide counter would see the other tests' heap
//! traffic.

use cluster::{ClusterConfig, Endpoint, Testbed};
use rnicsim::{RKey, Sge, VerbKind, WorkRequest, WrId, INLINE_SGES};
use simcore::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Const-initialised with no
    /// destructor, so touching it from inside the allocator never
    /// allocates or registers anything itself.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only during thread teardown; those allocations
    // belong to no measured section.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_posts_do_not_allocate() {
    let mut tb = Testbed::new(ClusterConfig::two_machines());
    let src = tb.register(0, 1, 1 << 16);
    let dst = tb.register(1, 1, 1 << 16);
    let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
    let rkey = RKey(dst.0 as u64);

    // One template per verb kind, each with a full inline SGL (4 entries
    // for write/read — the guaranteed-inline maximum).
    let sges: Vec<Sge> = (0..INLINE_SGES as u64).map(|i| Sge::new(src, i * 128, 64)).collect();
    let mut templates = vec![
        WorkRequest {
            wr_id: WrId(0),
            kind: VerbKind::Write,
            sgl: sges.as_slice().into(),
            remote: Some((rkey, 0)),
            signaled: true,
        },
        WorkRequest {
            wr_id: WrId(0),
            kind: VerbKind::Read,
            sgl: sges.as_slice().into(),
            remote: Some((rkey, 0)),
            signaled: true,
        },
        WorkRequest {
            wr_id: WrId(0),
            kind: VerbKind::FetchAdd { delta: 1 },
            sgl: Sge::new(src, 0, 8).into(),
            remote: Some((rkey, 4096)),
            signaled: true,
        },
    ];
    for wr in &templates {
        assert!(!wr.sgl.spilled(), "templates must stay inline");
    }

    // Warm up: grow the testbed's scratch buffers, fault in MTT entries,
    // and let the k-server interval lists reach steady state.
    let mut t = SimTime::ZERO;
    let mut id = 0u64;
    for _ in 0..200 {
        for wr in &mut templates {
            wr.wr_id = WrId(id);
            id += 1;
            t = tb.post_one_ref(t, conn, wr).at;
        }
    }

    let before = allocs();
    for _ in 0..100 {
        for wr in &mut templates {
            wr.wr_id = WrId(id);
            id += 1;
            t = tb.post_one_ref(t, conn, wr).at;
        }
    }
    let after = allocs();
    assert_eq!(after - before, 0, "verb hot path allocated {} times", after - before);
}

/// A whole doorbell batch through `Testbed::post` — one MMIO, a mixed
/// train with an unsignaled head, completions returned as a borrowed
/// slice of the testbed's reused CQE buffer — is allocation-free too.
#[test]
fn steady_state_doorbell_batches_do_not_allocate() {
    let mut tb = Testbed::new(ClusterConfig::two_machines());
    let src = tb.register(0, 1, 1 << 16);
    let dst = tb.register(1, 1, 1 << 16);
    let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
    let rkey = RKey(dst.0 as u64);
    let sges: Vec<Sge> = (0..INLINE_SGES as u64).map(|i| Sge::new(src, i * 128, 64)).collect();
    let mut batch = [
        WorkRequest {
            signaled: false,
            ..WorkRequest::write(0, Sge::new(src, 1024, 32), rkey, 1024)
        },
        WorkRequest {
            wr_id: WrId(0),
            kind: VerbKind::Write,
            sgl: sges.as_slice().into(),
            remote: Some((rkey, 0)),
            signaled: true,
        },
        WorkRequest::read(0, Sge::new(src, 2048, 256), rkey, 2048),
        WorkRequest {
            wr_id: WrId(0),
            kind: VerbKind::FetchAdd { delta: 1 },
            sgl: Sge::new(src, 0, 8).into(),
            remote: Some((rkey, 4096)),
            signaled: true,
        },
    ];

    let mut t = SimTime::ZERO;
    let mut id = 0u64;
    let mut post_batches = |tb: &mut Testbed, t: &mut SimTime, n: usize| {
        for _ in 0..n {
            for wr in &mut batch {
                wr.wr_id = WrId(id);
                id += 1;
            }
            let cqes = tb.post(*t, conn, &batch);
            assert_eq!(cqes.len(), 3, "the unsignaled head has no CQE");
            *t = cqes[cqes.len() - 1].at;
        }
    };
    post_batches(&mut tb, &mut t, 200);

    let before = allocs();
    post_batches(&mut tb, &mut t, 100);
    let after = allocs();
    assert_eq!(after - before, 0, "doorbell batch path allocated {} times", after - before);
}

/// Posts from staggered clients reach the NIC out of ready-time order:
/// each round posts the client furthest ahead first, so later posts fill
/// gaps before the timelines' tails, and think time between a client's
/// verbs keeps the calendars fragmented at their interval cap. The
/// resource timelines' first-fit insert and oldest-interval eviction stay
/// off the heap once the calendars have grown to the cap.
#[test]
fn steady_state_out_of_order_posts_do_not_allocate() {
    const CLIENTS: u64 = 4;
    let mut tb = Testbed::new(ClusterConfig::two_machines());
    let src = tb.register(0, 1, 1 << 16);
    let dst = tb.register(1, 1, 1 << 16);
    let rkey = RKey(dst.0 as u64);
    let conns: Vec<_> =
        (0..CLIENTS).map(|_| tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1))).collect();
    let mut wr = WorkRequest::write(0, Sge::new(src, 0, 256), rkey, 0);
    // Client c starts 700 ns behind client c + 1.
    let mut clocks: Vec<SimTime> = (0..CLIENTS).map(|c| SimTime::from_ns(700 * c)).collect();
    let mut id = 0u64;
    let mut rounds = |tb: &mut Testbed, n: usize| {
        for _ in 0..n {
            for c in (0..CLIENTS as usize).rev() {
                wr.wr_id = WrId(id);
                wr.remote = Some((rkey, (id % 64) * 512));
                id += 1;
                let done = tb.post_one_ref(clocks[c], conns[c], &wr).at;
                clocks[c] = done + SimTime::from_ns(150 + 50 * c as u64);
            }
        }
    };
    rounds(&mut tb, 400);

    let before = allocs();
    rounds(&mut tb, 200);
    let after = allocs();
    assert_eq!(after - before, 0, "out-of-order post path allocated {} times", after - before);
}

/// Steady-state *reads* of the sparse pool are allocation-free too: the
/// zero-page fast path, `read_into` into grown scratch, `read_view`,
/// `copy_within`, and `load_u64` must all stay off the heap once buffers
/// have reached capacity — whether the span is materialized, elided, or
/// straddles a chunk seam.
#[test]
fn steady_state_pool_reads_do_not_allocate() {
    let mut pool = cluster::MemoryPool::new();
    let a = pool.register(0, 4 * cluster::CHUNK_BYTES);
    let b = pool.register(0, 4 * cluster::CHUNK_BYTES);
    let seam = cluster::CHUNK_BYTES - 16;
    // Materialize one chunk of `a`, leave the rest (and all of `b`'s
    // far chunks) as holes; park a nonzero pattern across a seam.
    pool.write(a, 0, b"warm nonzero bytes");
    pool.write(a, seam, &[0x5A; 48]);

    // Warm-up: grow the scratch and destination vectors to capacity.
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    pool.read_into(a, seam, 48, &mut out);
    assert!(pool.read_view(a, seam, 48, &mut scratch).is_some());
    pool.copy_within(a, seam, b, seam, 48);

    let before = allocs();
    for i in 0..200u64 {
        // Zero page: untouched chunk served straight from the static page.
        assert_eq!(pool.try_slice(a, 2 * cluster::CHUNK_BYTES, 64).unwrap(), &[0u8; 64]);
        // Materialized in-chunk span.
        assert!(pool.try_slice(a, 0, 18).is_some());
        // Seam-straddling span assembled into reused scratch.
        assert_eq!(pool.read_view(a, seam, 48, &mut scratch).unwrap(), &[0x5A; 48]);
        // Bulk read into a reused destination, alternating hole/resident.
        out.clear();
        pool.read_into(a, (i % 3) * cluster::CHUNK_BYTES, 48, &mut out);
        // Pool-to-pool copy over already-materialized destination chunks.
        pool.copy_within(a, seam, b, seam, 48);
        // Word load from a hole and from resident bytes.
        assert_eq!(pool.load_u64(a, 3 * cluster::CHUNK_BYTES), 0);
        let _ = pool.load_u64(a, 0);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "pool read path allocated {} times", after - before);
}
