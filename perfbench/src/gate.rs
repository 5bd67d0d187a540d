//! The per-point correctness gate.
//!
//! Every point carries invariants that hold at any seed (verified app
//! results, no failed transactions, fleet sparsity). At the default seed
//! the point's simulated-op count and virtual results must also equal the
//! values recorded in `pins.txt`: a change that only speeds up the
//! simulator leaves all of them identical.

use std::collections::BTreeMap;
use std::fmt::Display;

/// Seed the pinned values were recorded with.
pub const DEFAULT_SEED: u64 = 42;
/// Seed kept out of tuning, for checking later claims; the pins do not
/// apply to it, the invariants do.
pub const HELD_OUT_SEED: u64 = 7;

/// One simulated point of a workload and what the gate checks on it.
#[derive(Clone, Debug, Default)]
pub struct Point {
    /// Stable id, unique within the workload.
    pub id: String,
    /// Simulated throughput of the point (virtual MOPS).
    pub mops: f64,
    /// Simulated operations the point's run call performed.
    pub sim_ops: u64,
    /// Virtual results pinned at the default seed, besides `mops` and `sim_ops`.
    pub pinned: Vec<(&'static str, String)>,
    /// Seed-independent invariants.
    pub invariants: Vec<(&'static str, bool)>,
}

impl Point {
    /// A point named `id`.
    pub fn new(id: impl Into<String>) -> Self {
        Point { id: id.into(), ..Default::default() }
    }

    /// Pin `value` under `key` (compared exactly at the default seed).
    pub fn pin(&mut self, key: &'static str, value: impl Display) {
        self.pinned.push((key, value.to_string()));
    }

    /// Record an invariant.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.invariants.push((name, ok));
    }

    /// Every pinned `(key, value)`, `sim_ops` and `mops` included.
    /// `mops` prints as the shortest string that reads back to the same
    /// `f64`, so equal strings mean bit-identical results.
    pub fn pins(&self) -> Vec<(String, String)> {
        let mut out = vec![
            (format!("{}.sim_ops", self.id), self.sim_ops.to_string()),
            (format!("{}.mops", self.id), self.mops.to_string()),
        ];
        out.extend(self.pinned.iter().map(|(k, v)| (format!("{}.{k}", self.id), v.clone())));
        out
    }
}

/// Recorded values, keyed `<workload>/<point>.<key>`.
#[derive(Clone, Debug, Default)]
pub struct Pins(BTreeMap<String, String>);

impl Pins {
    /// Parse `key value` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(k), Some(v), None) => {
                    if map.insert(k.to_string(), v.to_string()).is_some() {
                        return Err(format!("pins line {}: duplicate key {k}", n + 1));
                    }
                }
                _ => return Err(format!("pins line {}: expected `key value`", n + 1)),
            }
        }
        Ok(Pins(map))
    }

    /// The values recorded with the benchmark.
    pub fn recorded() -> Pins {
        Pins::parse(include_str!("../pins.txt")).expect("pins.txt is well-formed")
    }

    /// Value recorded for `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }
}

/// Why `point` of `workload` fails the gate; empty when it passes.
/// `pins` is `Some` only at the default seed.
pub fn failures(workload: &str, point: &Point, pins: Option<&Pins>) -> Vec<String> {
    let mut out: Vec<String> = point
        .invariants
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| format!("{workload}/{}: invariant {name} failed", point.id))
        .collect();
    if !point.mops.is_finite() || point.mops <= 0.0 {
        out.push(format!("{workload}/{}: no simulated throughput", point.id));
    }
    if let Some(pins) = pins {
        for (key, got) in point.pins() {
            let key = format!("{workload}/{key}");
            match pins.get(&key) {
                Some(want) if want == got => {}
                Some(want) => out.push(format!("{key}: pinned {want}, got {got}")),
                None => out.push(format!("{key}: no pinned value (got {got})")),
            }
        }
    }
    out
}
