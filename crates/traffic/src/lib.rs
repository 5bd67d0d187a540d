//! # traffic — open-loop load generation with tail-latency telemetry
//!
//! The figure reproductions in `bench` are *closed-loop*: a fixed fleet of
//! clients each keeps a bounded number of operations in flight, so offered
//! load adapts to service capacity and queueing never builds. Serving
//! "millions of users" is the opposite regime — arrivals are *open-loop*
//! (users do not slow down because the backend queues), and the quantity
//! of interest is the tail of the latency distribution as offered load
//! approaches capacity.
//!
//! This crate generates that regime over the existing case-study apps:
//!
//! * [`arrivals`] — Poisson and bursty (two-state MMPP) arrival processes
//!   at a configurable offered load, drawn from split deterministic RNG
//!   streams. Arrival timers go through `simcore`'s [`EventQueue`], whose
//!   far level is a hierarchical timing wheel precisely so millions of
//!   pending arrivals stay O(1) per event.
//! * [`engine`] — [`OpenLoopWorker`], a `cluster::Client` that issues one
//!   app operation per arrival *at the arrival time regardless of prior
//!   completions*, records `(completion - arrival)` into a streaming
//!   [`simcore::LatencyHistogram`] plus a windowed [`simcore::LatencySeries`],
//!   and folds per-worker stats in deterministic worker order.
//! * [`apps`] — open-loop drivers for the four case-study apps (hashtable,
//!   shuffle, join-probe, dlog-append), each in a `basic` and an
//!   `optimized` (paper-guideline) variant, drawing keys from the O(1)
//!   [`workloads::ZipfAlias`] sampler. [`apps::build`] makes one alias
//!   table per run and shares it read-only among all workers; each worker
//!   draws with its own RNG split, so sharing moves no draw.
//! * [`sweep`] — offered-load sweeps and the knee finder: the maximum
//!   offered load whose p99 stays within an app-specific SLO.
//!
//! Everything is deterministic: serial, parallel, and
//! `--shards N` runs produce byte-identical histograms (the pods that make
//! up a traffic cluster are connection-disjoint, so they shard exactly).
//!
//! [`EventQueue`]: simcore::EventQueue
//! [`OpenLoopWorker`]: engine::OpenLoopWorker

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod arrivals;
pub mod engine;
pub mod sweep;
pub mod txn;

pub use apps::verb_program;
pub use arrivals::{ArrivalGen, ArrivalProcess};
pub use engine::{run_traffic, AppKind, TrafficConfig, TrafficReport};
pub use sweep::{find_knee, find_knee_with, run_point, sweep, Knee, SweepPoint};
pub use txn::{
    find_txn_knee, run_txn_at, run_txn_point, run_txn_traffic, TxnReport, TxnTrafficConfig,
};
