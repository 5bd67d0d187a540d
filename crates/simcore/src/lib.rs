//! # simcore — deterministic discrete-event simulation primitives
//!
//! Foundation of the RDMA memory-semantics reproduction: a picosecond
//! virtual clock, a total-ordered event queue, queueing-server resource
//! models, an O(1) LRU set for on-chip metadata caches, a splittable
//! deterministic RNG, and measurement helpers.
//!
//! Simulation state is pure computation over integer time — no wall-clock
//! and no shared mutable state — so results are bit-for-bit reproducible.
//! The one use of OS threads is [`opcount::par_map`], which runs
//! independent simulations side by side and merges their results (and op
//! counts) in input order. The higher layers ([`memmodel`](https://docs.rs),
//! `rnicsim`, `cluster`) compose these primitives into hardware models.
//!
//! ## Example
//!
//! ```
//! use simcore::{EventQueue, KServer, SimTime};
//!
//! // Two jobs contending for one service unit.
//! let mut server = KServer::new(1);
//! let mut queue = EventQueue::new();
//! for id in 0..2u32 {
//!     let (_, done) = server.acquire(SimTime::ZERO, SimTime::from_ns(100));
//!     queue.push(done, id);
//! }
//! assert_eq!(queue.pop(), Some((SimTime::from_ns(100), 0)));
//! assert_eq!(queue.pop(), Some((SimTime::from_ns(200), 1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod fnv;
pub mod lru;
pub mod opcount;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod wheel;

pub use events::EventQueue;
pub use fnv::Fnv64;
pub use lru::LruSet;
pub use resource::{BandwidthLink, KServer};
pub use rng::SimRng;
pub use stats::{LatencyHistogram, LatencySeries, Meter, Series, Summary};
pub use time::{mops, ps_per_byte_gbps, ps_per_byte_gbs, service_time_for_mops, SimTime};
pub use wheel::TimingWheel;
