//! Cluster-level configuration: topology, NUMA penalties, RPC costs.

use memmodel::HostMemConfig;
use rnicsim::RnicConfig;
use simcore::SimTime;

/// Extra latencies paid when a verb's data path crosses QPI on either end
/// (§II-B4, Table III). Each constant names one crossing:
///
/// * the issuing **core** is not on the socket that owns the NIC port
///   (doorbell MMIO and CQE polling both traverse QPI), or
/// * a **buffer** is not on the socket that owns the involved port
///   (payload DMA traverses QPI).
///
/// Defaults are calibrated so the worst placement (everything on the
/// alternate socket, both ends) costs ≈ +30 % latency on a small RDMA
/// Read and ≈ +50 % on a small Write versus the best placement, matching
/// the spread of the paper's Table III and its "up to ~55 %" claim.
#[derive(Clone, Debug)]
pub struct NumaPenalties {
    /// Doorbell MMIO issued from the alternate socket.
    pub mmio_cross: SimTime,
    /// CQE landing in (and being polled from) the alternate socket.
    pub cqe_cross: SimTime,
    /// Local payload buffer on the alternate socket (gather for writes,
    /// scatter for read responses).
    pub local_buffer_cross: SimTime,
    /// Remote region on the alternate socket: posted DMA write crossing.
    pub remote_write_cross: SimTime,
    /// Remote region on the alternate socket: non-posted DMA read crossing
    /// (RDMA Read payload fetch).
    pub remote_read_cross: SimTime,
    /// The part of a responder-side crossing that stalls the responder
    /// pipeline (placement buffers wait on QPI); throughput-limiting,
    /// unlike the pure-latency components above.
    pub remote_cross_occupancy: SimTime,
}

impl Default for NumaPenalties {
    fn default() -> Self {
        NumaPenalties {
            mmio_cross: SimTime::from_ns(220),
            cqe_cross: SimTime::from_ns(150),
            local_buffer_cross: SimTime::from_ns(70),
            remote_write_cross: SimTime::from_ns(240),
            remote_read_cross: SimTime::from_ns(240),
            remote_cross_occupancy: SimTime::from_ns(80),
        }
    }
}

impl NumaPenalties {
    /// Sum of every penalty that can hit a small Write (worst placement).
    pub fn worst_write(&self) -> SimTime {
        self.mmio_cross + self.cqe_cross + self.local_buffer_cross + self.remote_write_cross
    }

    /// Sum of every penalty that can hit a small Read (worst placement).
    pub fn worst_read(&self) -> SimTime {
        self.mmio_cross + self.cqe_cross + self.local_buffer_cross + self.remote_read_cross
    }
}

/// Two-sided (channel semantics) RPC server costs.
#[derive(Clone, Debug)]
pub struct RpcConfig {
    /// Server threads polling the recv queue per machine.
    pub server_threads: usize,
    /// Mean delay between a request landing and a polling server thread
    /// picking it up.
    pub poll_delay: SimTime,
    /// Fixed request dispatch/unmarshal/reply-construction CPU cost, on
    /// top of the caller-supplied handler cost.
    pub dispatch_cost: SimTime,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            server_threads: 1,
            poll_delay: SimTime::from_ns(400),
            dispatch_cost: SimTime::from_ns(600),
        }
    }
}

/// Full description of the simulated testbed.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of machines (the paper's cluster has 8).
    pub machines: usize,
    /// Host memory/NUMA model shared by all machines.
    pub host: HostMemConfig,
    /// RNIC model shared by all machines.
    pub rnic: RnicConfig,
    /// QPI crossing penalties.
    pub numa: NumaPenalties,
    /// RPC server model.
    pub rpc: RpcConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            machines: 8,
            host: HostMemConfig::default(),
            rnic: RnicConfig::default(),
            numa: NumaPenalties::default(),
            rpc: RpcConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// A smaller/faster testbed for unit tests: 2 machines, defaults
    /// otherwise.
    pub fn two_machines() -> Self {
        ClusterConfig { machines: 2, ..Default::default() }
    }

    /// Socket that owns NIC port `port`. Ports map 1:1 onto sockets
    /// round-robin (dual-port NIC on a dual-socket host: port 0 → socket
    /// 0, port 1 → socket 1).
    pub fn port_socket(&self, port: usize) -> usize {
        port % self.host.sockets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_describe_the_paper_testbed() {
        let c = ClusterConfig::default();
        assert_eq!(c.machines, 8);
        assert_eq!(c.host.sockets, 2);
        assert_eq!(c.rnic.ports, 2);
    }

    #[test]
    fn port_socket_mapping() {
        let c = ClusterConfig::default();
        assert_eq!(c.port_socket(0), 0);
        assert_eq!(c.port_socket(1), 1);
    }

    #[test]
    fn worst_case_penalties_are_sane() {
        let n = NumaPenalties::default();
        // Worst-case write penalty ≈ 680 ns on a 1.17 us base: ~+58 %.
        assert_eq!(n.worst_write(), SimTime::from_ns(680));
        assert_eq!(n.worst_read(), SimTime::from_ns(680));
    }
}
