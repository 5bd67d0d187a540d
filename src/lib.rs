//! # rdma-memsem — reproduction of *Thinking More about RDMA Memory Semantics*
//!
//! Facade crate re-exporting the full stack, bottom to top:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | engine | [`sim`] | deterministic discrete-event primitives |
//! | host | [`host`] | memory hierarchy, NUMA, local atomics |
//! | device | [`nic`] | RNIC model: MTT/QPC caches, PCIe, exec units |
//! | cluster | [`net`] | machines, fabric, verbs, client runtime |
//! | guidelines | [`opt`] | vector IO, consolidation, proxy-socket routing, remote locks and sequencers |
//! | workloads | [`gen`] | Zipf/KV/join/shuffle/log generators |
//! | case studies | [`study`] | hashtable, shuffle, join, distributed log |
//!
//! See `README.md` for a guided tour and `DESIGN.md` for the substitution
//! rationale (simulated RNIC in place of the paper's ConnectX-3 testbed).
//!
//! ## Quickstart
//!
//! ```
//! use rdma_memsem::net::{ClusterConfig, Endpoint, Testbed};
//! use rdma_memsem::nic::{RKey, Sge, WorkRequest};
//! use rdma_memsem::sim::SimTime;
//!
//! let mut tb = Testbed::new(ClusterConfig::two_machines());
//! let src = tb.register(0, 1, 4096);
//! let dst = tb.register(1, 1, 4096);
//! let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
//! tb.machine_mut(0).mem.write(src, 0, b"hello, remote memory");
//! let wr = WorkRequest::write(1, Sge::new(src, 0, 20), RKey(dst.0 as u64), 0);
//! let cqe = tb.post_one_ref(SimTime::ZERO, conn, &wr);
//! assert_eq!(tb.machine(1).mem.read(dst, 0, 20), b"hello, remote memory");
//! assert!(cqe.at.as_us() < 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Deterministic discrete-event simulation primitives (`simcore`).
pub mod sim {
    pub use simcore::*;
}

/// Host memory hierarchy and NUMA model (`memmodel`).
pub mod host {
    pub use memmodel::*;
}

/// The RNIC device model (`rnicsim`).
pub mod nic {
    pub use rnicsim::*;
}

/// The simulated cluster and verbs API (`cluster`).
pub mod net {
    pub use cluster::*;
}

/// The paper's optimization guidelines as a library (`remem`).
pub mod opt {
    pub use remem::*;
}

/// Workload generators (`workloads`).
pub mod gen {
    pub use workloads::*;
}

/// The four case-study applications (`apps`).
pub mod study {
    pub use apps::*;
}
