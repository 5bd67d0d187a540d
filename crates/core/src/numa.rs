//! NUMA-aware connection routing: matched sockets and the proxy socket.
//!
//! §II-B4/§III-D: every NIC port is affiliated with one socket, so a
//! remote-memory request can cross QPI (a) on the requester (core or
//! buffer off the port's socket), and (b) on the responder (target region
//! off the port's socket). All-to-all socket connections avoid (b) but
//! need `s × s × 2m` QPs; the paper's **proxy socket** design keeps the
//! QP count at `s × 2m` by connecting only matched sockets and handing
//! mis-matched requests to the local socket that *is* matched, over a
//! shared-memory queue.

use cluster::{ConnId, Endpoint, Testbed};
use simcore::SimTime;
use std::collections::HashMap;

/// How requests from a local socket reach memory on a remote socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NumaMode {
    /// Connect matched sockets only; a request for an unmatched remote
    /// socket goes over the matched connection and pays the responder-side
    /// QPI crossing (paths ②→④ in the paper's Fig 9).
    DirectCross,
    /// Connect matched sockets only; a request for an unmatched remote
    /// socket is forwarded to the local *proxy* socket over a
    /// shared-memory queue and issued fully affine (paths ①→②).
    Proxy,
    /// Connect every local socket to every remote socket (`s×` more QPs);
    /// always affine but pressures the QP-context cache at scale.
    AllToAll,
}

/// One machine's routed connections to every other machine.
pub struct SocketMesh {
    mode: NumaMode,
    sockets: usize,
    conns: HashMap<(usize, usize, usize), ConnId>,
    ipc_hop: SimTime,
}

/// A routing decision: which connection to use and the CPU-side costs to
/// add before issuing and after completion (proxy queue hops).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// Connection to post on.
    pub conn: ConnId,
    /// Latency added before the verb is posted (request hand-off).
    pub pre: SimTime,
    /// Latency added after the CQE (result hand-back).
    pub post: SimTime,
}

/// Default one-way cost of the proxy's shared-memory message queue:
/// enqueue, cache-line transfer to the other socket, dequeue.
pub const DEFAULT_IPC_HOP: SimTime = SimTime::from_ns(60);

impl SocketMesh {
    /// Build the mesh for machine `me`: connections to every other machine
    /// according to `mode`. In matched-only modes this creates `s` QPs per
    /// remote machine; in `AllToAll`, `s²`.
    pub fn build(tb: &mut Testbed, me: usize, mode: NumaMode) -> Self {
        let sockets = tb.cfg.host.sockets;
        let mut conns = HashMap::new();
        for rm in 0..tb.machine_count() {
            if rm == me {
                continue;
            }
            for ls in 0..sockets {
                for rs in 0..sockets {
                    let wanted = match mode {
                        NumaMode::AllToAll => true,
                        NumaMode::DirectCross | NumaMode::Proxy => ls == rs,
                    };
                    if wanted {
                        let conn = tb.connect(Endpoint::affine(me, ls), Endpoint::affine(rm, rs));
                        conns.insert((ls, rm, rs), conn);
                    }
                }
            }
        }
        SocketMesh { mode, sockets, conns, ipc_hop: DEFAULT_IPC_HOP }
    }

    /// Override the proxy queue hop cost.
    pub fn with_ipc_hop(mut self, hop: SimTime) -> Self {
        self.ipc_hop = hop;
        self
    }

    /// The routing mode.
    pub fn mode(&self) -> NumaMode {
        self.mode
    }

    /// Total QPs this mesh created on the local NIC.
    pub fn qp_count(&self) -> usize {
        self.conns.len()
    }

    /// Route a request issued by a thread on `from_socket` targeting
    /// memory on `(remote_machine, remote_socket)`.
    pub fn route(&self, from_socket: usize, remote_machine: usize, remote_socket: usize) -> Route {
        assert!(from_socket < self.sockets && remote_socket < self.sockets);
        match self.mode {
            NumaMode::AllToAll => Route {
                conn: self.conns[&(from_socket, remote_machine, remote_socket)],
                pre: SimTime::ZERO,
                post: SimTime::ZERO,
            },
            NumaMode::DirectCross => Route {
                // Matched connection from our own socket; the responder
                // crossing (if any) is charged by the testbed because the
                // target region's socket differs from the server port's.
                conn: self.conns[&(from_socket, remote_machine, from_socket)],
                pre: SimTime::ZERO,
                post: SimTime::ZERO,
            },
            NumaMode::Proxy => {
                if from_socket == remote_socket {
                    Route {
                        conn: self.conns[&(from_socket, remote_machine, remote_socket)],
                        pre: SimTime::ZERO,
                        post: SimTime::ZERO,
                    }
                } else {
                    // Hand off to the matched local socket; pay the queue
                    // both ways, then run fully affine.
                    Route {
                        conn: self.conns[&(remote_socket, remote_machine, remote_socket)],
                        pre: self.ipc_hop,
                        post: self.ipc_hop,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ClusterConfig;
    use rnicsim::{RKey, Sge, WorkRequest};

    fn testbed(machines: usize) -> Testbed {
        Testbed::new(ClusterConfig { machines, ..Default::default() })
    }

    #[test]
    fn qp_budget_matches_paper_formula() {
        // s×(m−1) connections per machine in matched modes, s²×(m−1) in
        // all-to-all (the paper counts both QP endpoints: ours is per-NIC).
        let mut tb = testbed(8);
        let mesh = SocketMesh::build(&mut tb, 0, NumaMode::Proxy);
        assert_eq!(mesh.qp_count(), 2 * 7);
        let mut tb2 = testbed(8);
        let all = SocketMesh::build(&mut tb2, 0, NumaMode::AllToAll);
        assert_eq!(all.qp_count(), 4 * 7);
    }

    #[test]
    fn matched_requests_route_directly_in_every_mode() {
        for mode in [NumaMode::DirectCross, NumaMode::Proxy, NumaMode::AllToAll] {
            let mut tb = testbed(2);
            let mesh = SocketMesh::build(&mut tb, 0, mode);
            let r = mesh.route(1, 1, 1);
            assert_eq!(r.pre, SimTime::ZERO);
            assert_eq!(r.post, SimTime::ZERO);
        }
    }

    #[test]
    fn proxy_pays_queue_hops_for_unmatched() {
        let mut tb = testbed(2);
        let mesh = SocketMesh::build(&mut tb, 0, NumaMode::Proxy);
        let r = mesh.route(0, 1, 1);
        assert_eq!(r.pre, DEFAULT_IPC_HOP);
        assert_eq!(r.post, DEFAULT_IPC_HOP);
        // And the chosen connection is the fully affine one (socket 1 to
        // socket 1) — identical to what socket 1 itself would use.
        assert_eq!(r.conn, mesh.route(1, 1, 1).conn);
    }

    #[test]
    fn proxy_end_to_end_beats_direct_cross() {
        // Write 64 B to remote socket 1's memory from a thread on socket 0,
        // both ways, and compare total times.
        let run = |mode: NumaMode| {
            let mut tb = testbed(2);
            let mesh = SocketMesh::build(&mut tb, 0, mode);
            let src = tb.register(0, 0, 4096);
            let dst = tb.register(1, 1, 4096); // memory on remote socket 1
            let route = mesh.route(0, 1, 1);
            // Warm, then measure.
            let wr = |id| WorkRequest::write(id, Sge::new(src, 0, 64), RKey(dst.0 as u64), 0);
            let w = tb.post_one_ref(route.pre, route.conn, &wr(0));
            let start = w.at;
            let c = tb.post_one_ref(start + route.pre, route.conn, &wr(1));
            (c.at + route.post) - start
        };
        let direct = run(NumaMode::DirectCross);
        let proxy = run(NumaMode::Proxy);
        assert!(proxy < direct, "proxy {proxy} !< direct {direct}");
    }

    #[test]
    #[should_panic]
    fn unmatched_socket_out_of_range_panics() {
        let mut tb = testbed(2);
        let mesh = SocketMesh::build(&mut tb, 0, NumaMode::Proxy);
        mesh.route(5, 1, 0);
    }
}
