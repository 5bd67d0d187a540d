//! NUMA-aware routing: the proxy socket.
//!
//! §II-B4/§III-D: every NIC port is affiliated with one socket, so a
//! remote-memory request can cross QPI (a) on the requester (core or
//! buffer off the port's socket), and (b) on the responder (target region
//! off the port's socket). All-to-all socket connections avoid (b) but
//! need `s × s × 2m` QPs; the paper's **proxy socket** design keeps the
//! QP count at `s × 2m` by connecting only matched sockets and handing
//! mis-matched requests to the local socket that *is* matched, over a
//! shared-memory queue. [`proxy_route`] is that decision; the hashtable
//! case study and its open-loop traffic driver both route through it.

use simcore::SimTime;

/// Default one-way cost of the proxy's shared-memory message queue:
/// enqueue, cache-line transfer to the other socket, dequeue.
pub const DEFAULT_IPC_HOP: SimTime = SimTime::from_ns(60);

/// Route a request from a thread on local socket `home` to memory on
/// remote socket `target`, over socket-matched connections. Returns
/// `(lane, hop)`: the local socket whose matched connection (and local
/// buffers) carry the request, and the one-way hand-off cost paid both
/// before posting and after the CQE.
///
/// Without `proxy` the request always leaves on the home lane and pays
/// the responder's QPI crossing when `target != home`; with it, a
/// mis-matched request is handed to the `target` socket for
/// [`DEFAULT_IPC_HOP`] each way and issued fully affine.
#[inline]
pub fn proxy_route(home: usize, target: usize, proxy: bool) -> (usize, SimTime) {
    if proxy && target != home {
        (target, DEFAULT_IPC_HOP)
    } else {
        (home, SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterConfig, Endpoint, Testbed};
    use rnicsim::{RKey, Sge, WorkRequest};

    #[test]
    fn matched_requests_route_directly_in_every_mode() {
        for proxy in [false, true] {
            for socket in 0..2 {
                assert_eq!(proxy_route(socket, socket, proxy), (socket, SimTime::ZERO));
            }
        }
    }

    #[test]
    fn proxy_pays_queue_hops_for_unmatched() {
        for home in 0..2 {
            let target = 1 - home;
            // Proxied: handed to the target socket's fully affine lane,
            // paying the queue hop each way.
            assert_eq!(proxy_route(home, target, true), (target, DEFAULT_IPC_HOP));
            // Direct: stays on the home lane and pays no hop.
            assert_eq!(proxy_route(home, target, false), (home, SimTime::ZERO));
        }
    }

    #[test]
    fn proxy_end_to_end_beats_direct_cross() {
        // Write 64 B to remote socket 1's memory from a thread on socket
        // 0, both ways, and compare total times. Direct: the matched
        // socket-0 connection, so the responder crosses QPI to reach the
        // target. Proxy: hand off to socket 1 and use its affine
        // connection, paying the queue hop before and after.
        let run = |lane: usize, hop: SimTime| {
            let mut tb = Testbed::new(ClusterConfig { machines: 2, ..Default::default() });
            let src = tb.register(0, 0, 4096);
            let dst = tb.register(1, 1, 4096); // memory on remote socket 1
            let conn = tb.connect(Endpoint::affine(0, lane), Endpoint::affine(1, lane));
            // Warm, then measure.
            let wr = |id| WorkRequest::write(id, Sge::new(src, 0, 64), RKey(dst.0 as u64), 0);
            let start = tb.post_one_ref(hop, conn, &wr(0)).at;
            let c = tb.post_one_ref(start + hop, conn, &wr(1));
            (c.at + hop) - start
        };
        let direct = run(0, SimTime::ZERO);
        let proxy = run(1, DEFAULT_IPC_HOP);
        assert!(proxy < direct, "proxy {proxy} !< direct {direct}");
    }
}
