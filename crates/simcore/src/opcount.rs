//! Thread-local count of simulated operations, and the parallel map
//! that keeps it exact across threads.
//!
//! The bench harness reports simulated-ops/sec per experiment; the count
//! is maintained here, at the bottom of the crate stack, so the cluster
//! layer can tick it from the verb/RPC hot path without threading a
//! counter through every call signature. The counter is thread-local:
//! [`par_map`] measures each worker's delta and folds it into the
//! spawning thread's counter after the join, which keeps accounting
//! exact under nesting (experiments over points over shards).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    static OPS: Cell<u64> = const { Cell::new(0) };
}

/// Record `n` simulated operations on this thread.
#[inline]
pub fn add(n: u64) {
    OPS.with(|c| c.set(c.get().wrapping_add(n)));
}

/// Total simulated operations recorded on this thread so far. Monotone
/// within a thread; take deltas to attribute ops to a code region.
#[inline]
pub fn current() -> u64 {
    OPS.with(|c| c.get())
}

/// Order-preserving parallel map on up to `workers` scoped threads.
///
/// Workers pull items off a shared cursor, so `items` may be much longer
/// than `workers`. Results come back in input order regardless of
/// scheduling, and every worker's simulated-op delta is added to the
/// calling thread's counter, so totals match a serial run exactly. With
/// one worker (or one item) the map runs on the calling thread. A worker
/// panic is re-raised on the caller with the worker's own payload.
pub fn par_map<T: Send, R: Send>(
    items: Vec<T>,
    workers: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut child_ops = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (f, slots, cursor) = (&f, &slots, &cursor);
                scope.spawn(move || {
                    let before = current();
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = slots[i].lock().expect("poisoned").take().expect("taken once");
                        out.push((i, f(item)));
                    }
                    (out, current() - before)
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok((pairs, ops)) => {
                    child_ops += ops;
                    for (i, r) in pairs {
                        results[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    add(child_ops);
    results.into_iter().map(|r| r.expect("worker finished")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_per_thread_and_monotone() {
        let before = current();
        add(3);
        add(4);
        assert_eq!(current() - before, 7);
        let other = std::thread::spawn(|| {
            let b = current();
            add(11);
            current() - b
        })
        .join()
        .unwrap();
        assert_eq!(other, 11);
        assert_eq!(current() - before, 7, "other thread's ops don't leak here");
    }

    #[test]
    fn par_map_keeps_input_order_and_folds_worker_ops() {
        for workers in [1, 2, 3, 8, 200] {
            let before = current();
            let out = par_map((0..100u64).collect(), workers, |i| {
                add(i);
                i * 2
            });
            assert_eq!(out, (0..100u64).map(|i| i * 2).collect::<Vec<_>>(), "{workers} workers");
            assert_eq!(current() - before, (0..100u64).sum::<u64>(), "{workers} workers");
        }
        assert!(par_map(Vec::<u64>::new(), 4, |i| i).is_empty());
    }

    #[test]
    fn par_map_reraises_the_worker_panic_payload() {
        let caught = std::panic::catch_unwind(|| {
            par_map((0..8u64).collect(), 4, |i| {
                if i == 5 {
                    panic!("item {i} failed");
                }
                i
            })
        });
        let payload = caught.expect_err("the worker panic must propagate");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("item 5 failed"));
    }
}
