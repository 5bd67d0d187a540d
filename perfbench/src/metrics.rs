//! Every metric the benchmark prints: name, unit and better direction.
//! Units ending in `-virtual` are read off the simulated clock and are
//! deterministic; every other time is host time. `BENCHMARK.json` lists
//! the same names, checked by the benchmark's tests.

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: [Metric; 5] = [
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("sim_ops_per_s", "verbs/s", "higher"),
    m("peak_heap_mib", "MiB", "lower"),
    m("virt_mops", "MOPS-virtual", "higher"),
];

/// Per-layer metrics, printed by traced runs. A layer a workload does
/// not exercise reads 0 there (see `NOTES.md` for which apply where).
pub const PER_LAYER: [Metric; 51] = [
    m("cluster.testbed.new_ms", "ms", "lower"),
    m("cluster.testbed.register_count", "count", "lower"),
    m("cluster.testbed.register_us_p50", "us", "lower"),
    m("cluster.testbed.register_us_p99", "us", "lower"),
    m("cluster.testbed.connect_count", "count", "lower"),
    m("cluster.testbed.connect_us_p50", "us", "lower"),
    m("cluster.testbed.connect_us_p99", "us", "lower"),
    m("cluster.testbed.teardown_ms", "ms", "lower"),
    m("cluster.testbed.post_calls", "count", "lower"),
    m("cluster.testbed.post_ns_p50", "ns", "lower"),
    m("cluster.testbed.post_ns_p99", "ns", "lower"),
    m("cluster.testbed.post_s", "s", "lower"),
    m("rnicsim.mtt.hits", "count", "higher"),
    m("rnicsim.mtt.misses", "count", "lower"),
    m("rnicsim.mtt.miss_ratio", "ratio", "lower"),
    m("rnicsim.qpc.hits", "count", "higher"),
    m("rnicsim.qpc.misses", "count", "lower"),
    m("cluster.memory.resident_mib", "MiB", "lower"),
    m("cluster.memory.dense_gib", "GiB", "lower"),
    m("cluster.memory.sparse_saving", "x", "higher"),
    m("cluster.engine.steps", "count", "lower"),
    m("cluster.engine.self_s", "s", "lower"),
    m("cluster.engine.self_ns_per_step", "ns", "lower"),
    m("cluster.shard.overhead_s", "s", "lower"),
    m("apps.hashtable.run_s", "s", "lower"),
    m("apps.shuffle.run_s", "s", "lower"),
    m("apps.join.run_s", "s", "lower"),
    m("apps.dlog.run_s", "s", "lower"),
    m("apps.hashtable.fixed_ms", "ms", "lower"),
    m("apps.join.fixed_ms", "ms", "lower"),
    m("apps.hashtable.lock_useful_ratio", "ratio-virtual", "higher"),
    m("workloads.zipf.build_ms", "ms", "lower"),
    m("traffic.apps.build_ms", "ms", "lower"),
    m("traffic.engine.steps", "count", "lower"),
    m("traffic.engine.step_ns_p50", "ns", "lower"),
    m("traffic.engine.step_ns_p99", "ns", "lower"),
    m("simcore.stats.samples", "count", "higher"),
    m("simcore.stats.fold_ms", "ms", "lower"),
    m("txn.service.step_ns_p50", "ns", "lower"),
    m("txn.service.step_ns_p99", "ns", "lower"),
    m("txn.protocol.commits", "count", "higher"),
    m("txn.protocol.aborts", "count", "lower"),
    m("txn.protocol.useful_ratio", "ratio-virtual", "higher"),
    m("txn.protocol.cas_retries", "count", "lower"),
    m("txn.protocol.verbs_per_commit", "verbs", "lower"),
    m("virt_slo_miss_ratio", "ratio-virtual", "lower"),
    m("paper_err_pct", "%-virtual", "lower"),
    m("failed_ratio", "ratio", "lower"),
    m("trace.sim_ops_per_s_untraced", "verbs/s", "higher"),
    m("trace.sim_ops_per_s_traced", "verbs/s", "higher"),
    m("trace.overhead_pct", "%", "lower"),
];

/// Whether `name` is a well-formed metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Which end-to-end metric each layer should move, and on which
/// workload. Printed by traced runs and repeated in `NOTES.md`.
pub const LAYER_MAP: [(&str, &str); 11] = [
    ("cluster.testbed set-up", "setup_s, wall_s on fleet-verbs; no effect on openloop"),
    ("cluster.testbed post", "sim_ops_per_s on fleet-verbs"),
    ("rnicsim.mtt / rnicsim.qpc", "explain post_ns on fleet-verbs; counts pinned"),
    ("cluster.memory", "peak_heap_mib on fleet-verbs"),
    ("cluster.engine", "sim_ops_per_s on openloop and fleet-verbs"),
    ("cluster.shard", "sim_ops_per_s on fleet-verbs"),
    ("apps.*", "wall_s, sim_ops_per_s on apps-closed"),
    ("workloads.zipf", "setup_s, wall_s on apps-closed and openloop"),
    ("traffic.engine", "sim_ops_per_s on openloop"),
    ("simcore.stats", "wall_s on openloop"),
    ("txn.service / txn.protocol", "sim_ops_per_s, virt_slo_miss_ratio on openloop"),
];
