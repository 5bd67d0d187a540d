//! Reproducibility: every experiment is a pure function of its seed.

use rdma_memsem::study::{
    run_dlog, run_hashtable, run_shuffle, DlogConfig, HtConfig, HtVariant, ShuffleConfig,
    ShuffleVariant,
};

#[test]
fn hashtable_runs_are_bit_identical() {
    let cfg = HtConfig {
        front_ends: 4,
        keys: 1 << 14,
        ops_per_fe: 400,
        variant: HtVariant::Reorder { theta: 16 },
        ..Default::default()
    };
    let a = run_hashtable(&cfg);
    let b = run_hashtable(&cfg);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.ops, b.ops);
    assert!((a.mops - b.mops).abs() < 1e-12);
    assert!((a.hot_fraction - b.hot_fraction).abs() < 1e-12);
}

#[test]
fn hashtable_seed_changes_the_run() {
    let base = HtConfig {
        front_ends: 4,
        keys: 1 << 14,
        ops_per_fe: 400,
        variant: HtVariant::Reorder { theta: 16 },
        ..Default::default()
    };
    let a = run_hashtable(&base);
    let b = run_hashtable(&HtConfig { seed: 99, ..base });
    assert_ne!(a.makespan, b.makespan, "different seeds should differ");
}

#[test]
fn shuffle_runs_are_bit_identical() {
    let cfg = ShuffleConfig {
        executors: 6,
        entries_per_executor: 1000,
        variant: ShuffleVariant::Sp(16),
        ..Default::default()
    };
    let a = run_shuffle(&cfg);
    let b = run_shuffle(&cfg);
    assert_eq!(a.makespan, b.makespan);
    assert!(a.verified && b.verified);
}

#[test]
fn dlog_runs_are_bit_identical() {
    let cfg = DlogConfig { engines: 5, batch: 8, records_per_engine: 300, ..Default::default() };
    let a = run_dlog(&cfg);
    let b = run_dlog(&cfg);
    assert_eq!(a.makespan, b.makespan);
    assert!(a.verified && b.verified);
}

#[test]
fn rng_streams_are_interleaving_independent() {
    // Splitting the run RNG per client means client 0's stream is the
    // same whether or not client 1 exists: adding front-ends must not
    // change which keys front-end 0 touches.
    use rdma_memsem::gen::{KvSpec, KvStream};
    use rdma_memsem::sim::SimRng;
    let root = SimRng::new(42);
    let spec = KvSpec { keys: 1 << 12, ..Default::default() };
    let zipf = spec.zipf();
    let a: Vec<u64> = {
        let mut s = KvStream::new(spec.clone(), &zipf, root.split(1));
        (0..100).map(|_| s.next_op().key()).collect()
    };
    // "Recreate the world" with more clients; stream 1 is untouched.
    let b: Vec<u64> = {
        let _other = KvStream::new(spec.clone(), &zipf, root.split(2));
        let mut s = KvStream::new(spec, &zipf, root.split(1));
        (0..100).map(|_| s.next_op().key()).collect()
    };
    assert_eq!(a, b);
}
