//! Sequencers: monotonically increasing tickets from a shared counter.
//!
//! §III-E's second atomic case study. The remote sequencer is one RDMA
//! fetch-and-add on an 8-byte counter — no remote CPU, naturally ordered
//! by the NIC's atomic unit (≈2.2–2.5 MOPS ceiling). The RPC sequencer
//! pays a full two-sided round trip plus server CPU per ticket.

use cluster::{ConnId, Testbed};
use rnicsim::{CqeStatus, RKey, Sge, VerbKind, WorkRequest, WrId};
use simcore::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// A ticket from a sequencer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket {
    /// The sequence value handed out (the counter's pre-increment value).
    pub value: u64,
    /// When the caller observed it.
    pub at: SimTime,
}

/// Remote sequencer: FAA on a counter word in remote memory.
#[derive(Clone, Copy, Debug)]
pub struct RemoteSequencer {
    /// Remote region holding the counter.
    pub rkey: RKey,
    /// Byte offset of the 8-byte counter.
    pub offset: u64,
}

impl RemoteSequencer {
    /// Draw the next ticket (increment by 1).
    pub fn next(&self, tb: &mut Testbed, conn: ConnId, now: SimTime, scratch: Sge) -> Ticket {
        self.next_n(tb, conn, now, scratch, 1)
    }

    /// Draw a ticket advancing the counter by `n` — this is how the
    /// distributed log reserves `n` bytes of global log space in one verb.
    pub fn next_n(
        &self,
        tb: &mut Testbed,
        conn: ConnId,
        now: SimTime,
        scratch: Sge,
        n: u64,
    ) -> Ticket {
        let wr = WorkRequest {
            wr_id: WrId(0),
            kind: VerbKind::FetchAdd { delta: n },
            sgl: scratch.into(),
            remote: Some((self.rkey, self.offset)),
            signaled: true,
        };
        let cqe = tb.post_one_ref(now, conn, &wr);
        assert_eq!(cqe.status, CqeStatus::Success, "sequencer word must be valid");
        Ticket { value: cqe.old_value, at: cqe.at }
    }
}

/// RPC (two-sided) sequencer baseline: the counter lives behind a server
/// handler.
#[derive(Clone)]
pub struct RpcSequencer {
    counter: Rc<RefCell<u64>>,
    /// Server handler cost per ticket.
    pub handler_cost: SimTime,
}

impl Default for RpcSequencer {
    fn default() -> Self {
        Self::new()
    }
}

impl RpcSequencer {
    /// Counter starting at zero.
    pub fn new() -> Self {
        RpcSequencer { counter: Rc::new(RefCell::new(0)), handler_cost: SimTime::from_ns(60) }
    }

    /// Draw the next ticket over RPC.
    pub fn next(&self, tb: &mut Testbed, conn: ConnId, now: SimTime) -> Ticket {
        let reply = tb.rpc_call(now, conn, 16, 16, self.handler_cost);
        let mut c = self.counter.borrow_mut();
        let value = *c;
        *c += 1;
        Ticket { value, at: reply }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterConfig, Endpoint};
    use rnicsim::MrId;

    fn setup() -> (Testbed, ConnId, MrId, MrId) {
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let scratch = tb.register(0, 1, 4096);
        let counter = tb.register(1, 1, 4096);
        let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        (tb, conn, scratch, counter)
    }

    #[test]
    fn tickets_are_dense_and_monotonic() {
        let (mut tb, conn, scratch, counter) = setup();
        let seq = RemoteSequencer { rkey: RKey(counter.0 as u64), offset: 0 };
        let mut t = SimTime::ZERO;
        for expect in 0..10u64 {
            let ticket = seq.next(&mut tb, conn, t, Sge::new(scratch, 0, 8));
            assert_eq!(ticket.value, expect);
            assert!(ticket.at > t);
            t = ticket.at;
        }
        assert_eq!(tb.machine(1).mem.load_u64(counter, 0), 10);
    }

    #[test]
    fn next_n_reserves_ranges() {
        let (mut tb, conn, scratch, counter) = setup();
        let seq = RemoteSequencer { rkey: RKey(counter.0 as u64), offset: 128 };
        let a = seq.next_n(&mut tb, conn, SimTime::ZERO, Sge::new(scratch, 0, 8), 100);
        let b = seq.next_n(&mut tb, conn, a.at, Sge::new(scratch, 0, 8), 50);
        assert_eq!(a.value, 0);
        assert_eq!(b.value, 100);
        assert_eq!(tb.machine(1).mem.load_u64(counter, 128), 150);
    }

    #[test]
    fn rpc_sequencer_counts_but_costs_more() {
        let (mut tb, conn, scratch, counter) = setup();
        let remote = RemoteSequencer { rkey: RKey(counter.0 as u64), offset: 0 };
        // Warm the one-sided path.
        let w = remote.next(&mut tb, conn, SimTime::ZERO, Sge::new(scratch, 0, 8));
        let r1 = remote.next(&mut tb, conn, w.at, Sge::new(scratch, 0, 8));
        let remote_cost = r1.at - w.at;

        let rpc = RpcSequencer::new();
        let t0 = r1.at;
        let p1 = rpc.next(&mut tb, conn, t0);
        assert_eq!(p1.value, 0);
        let p2 = rpc.next(&mut tb, conn, p1.at);
        assert_eq!(p2.value, 1);
        let rpc_cost = p2.at - p1.at;
        assert!(rpc_cost > remote_cost, "rpc {rpc_cost} vs remote {remote_cost}");
    }
}
