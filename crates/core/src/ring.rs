//! A one-sided multi-producer ring buffer in remote memory.
//!
//! Generalizes the distributed log's reserve-then-write idiom (§IV-E)
//! into a bounded queue: producers on any machine reserve a slot with one
//! remote fetch-and-add and fill it with one RDMA Write — no consumer CPU
//! on the enqueue path. The consumer lives on the machine that owns the
//! ring memory and pops with plain local accesses, publishing its head
//! position in the ring header so producers can check capacity with an
//! occasional RDMA Read (credit refresh) instead of per-push round trips.
//!
//! Layout (`base` in the remote region):
//!
//! ```text
//! base + 0   tail counter (u64, FAA target)
//! base + 8   head position (u64, consumer-published)
//! base + 64  slot 0: [ seq u64 | len u32 | payload … ]   (slot_bytes)
//! base + 64 + slot_bytes: slot 1 …
//! ```
//!
//! A slot is valid when `seq == ticket + 1` (zero means never written),
//! which makes slot reuse across laps unambiguous.

use cluster::{ConnId, Testbed};
use rnicsim::{CqeStatus, MrId, RKey, Sge, VerbKind, WorkRequest, WrId};
use simcore::SimTime;

/// Header bytes before slot 0.
pub const RING_HEADER: u64 = 64;
/// Per-slot header: sequence (8) + length (4) + padding (4).
pub const SLOT_HEADER: u64 = 16;

/// A bounded MPSC queue in remote memory.
#[derive(Clone, Copy, Debug)]
pub struct RemoteRing {
    /// Region holding the ring.
    pub rkey: RKey,
    /// Offset of the ring header inside the region.
    pub base: u64,
    /// Slot count (capacity).
    pub slots: u64,
    /// Bytes per slot including the slot header.
    pub slot_bytes: u64,
}

/// Producer-side handle: caches the consumer's head for credit checks.
#[derive(Clone, Copy, Debug)]
pub struct RingProducer {
    /// The ring being produced into.
    pub ring: RemoteRing,
    cached_head: u64,
}

/// Why a push did not happen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The ring is full even after refreshing the head (consumer behind).
    Full,
    /// Payload exceeds `slot_bytes - SLOT_HEADER`.
    TooLarge,
}

impl RemoteRing {
    /// Total bytes the ring occupies in its region.
    pub fn footprint(&self) -> u64 {
        RING_HEADER + self.slots * self.slot_bytes
    }

    /// Maximum payload bytes per slot.
    pub fn max_payload(&self) -> u64 {
        self.slot_bytes - SLOT_HEADER
    }

    fn slot_offset(&self, ticket: u64) -> u64 {
        self.base + RING_HEADER + (ticket % self.slots) * self.slot_bytes
    }
}

impl RingProducer {
    /// A producer starting with zero credit knowledge.
    pub fn new(ring: RemoteRing) -> Self {
        RingProducer { ring, cached_head: 0 }
    }

    /// Push `payload`: reserve a ticket (FAA), verify capacity against the
    /// cached — refreshing over RDMA if needed — head, then write the
    /// sealed slot. Returns the ticket and the completion time.
    ///
    /// `staging` needs `slot_bytes` of scratch at `staging_off` plus 8
    /// bytes at `staging_off` for the FAA result (reused).
    pub fn push(
        &mut self,
        tb: &mut Testbed,
        conn: ConnId,
        now: SimTime,
        payload: &[u8],
        staging: MrId,
        staging_off: u64,
    ) -> Result<(u64, SimTime), PushError> {
        if payload.len() as u64 > self.ring.max_payload() {
            return Err(PushError::TooLarge);
        }
        // Reserve.
        let faa = WorkRequest {
            wr_id: WrId(0),
            kind: VerbKind::FetchAdd { delta: 1 },
            sgl: Sge::new(staging, staging_off, 8).into(),
            remote: Some((self.ring.rkey, self.ring.base)),
            signaled: true,
        };
        let cqe = tb.post_one_ref(now, conn, &faa);
        debug_assert_eq!(cqe.status, CqeStatus::Success);
        let ticket = cqe.old_value;
        let mut t = cqe.at;

        // Credit check: the ticket must be within `slots` of the head.
        if ticket >= self.cached_head + self.ring.slots {
            // Refresh the head with one RDMA Read.
            let rd = WorkRequest::read(
                1,
                Sge::new(staging, staging_off, 8),
                self.ring.rkey,
                self.ring.base + 8,
            );
            let c = tb.post_one_ref(t, conn, &rd);
            debug_assert_eq!(c.status, CqeStatus::Success);
            t = c.at;
            let me = tb.client_of(conn).machine;
            self.cached_head = tb.machine(me).mem.load_u64(staging, staging_off);
            if ticket >= self.cached_head + self.ring.slots {
                // Our reservation outran the consumer. A real implementation
                // would retry after backoff; we surface it.
                return Err(PushError::Full);
            }
        }

        // Seal: [seq = ticket + 1 | len | payload] in one write.
        let me = tb.client_of(conn).machine;
        let mut image = Vec::with_capacity(SLOT_HEADER as usize + payload.len());
        image.extend_from_slice(&(ticket + 1).to_le_bytes());
        image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        image.extend_from_slice(&[0u8; 4]);
        image.extend_from_slice(payload);
        tb.machine_mut(me).mem.write(staging, staging_off, &image);
        let build = tb.cfg.host.memcpy_cost(image.len());
        let wr = WorkRequest::write(
            ticket,
            Sge::new(staging, staging_off, image.len() as u64),
            self.ring.rkey,
            self.ring.slot_offset(ticket),
        );
        let c = tb.post_one_ref(t + build, conn, &wr);
        debug_assert_eq!(c.status, CqeStatus::Success);
        Ok((ticket, c.at))
    }
}

/// Consumer-side handle (runs on the machine owning the ring memory).
#[derive(Clone, Copy, Debug)]
pub struct RingConsumer {
    /// The ring being consumed.
    pub ring: RemoteRing,
    /// Region the ring lives in, as a local MR id.
    pub mr: MrId,
    head: u64,
}

impl RingConsumer {
    /// A consumer starting at the beginning of the stream.
    pub fn new(ring: RemoteRing, mr: MrId) -> Self {
        RingConsumer { ring, mr, head: 0 }
    }

    /// Sequence number of the next expected pop.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Pop the next sealed payload if its producer's write has landed.
    /// Returns the payload and the (local) time the pop finished.
    pub fn pop(
        &mut self,
        tb: &mut Testbed,
        machine: usize,
        now: SimTime,
    ) -> Option<(Vec<u8>, SimTime)> {
        let off = self.ring.slot_offset(self.head);
        let seq = tb.machine(machine).mem.load_u64(self.mr, off);
        if seq != self.head + 1 {
            return None; // not yet sealed (or an old lap)
        }
        // The length field sits in the low half of an 8-byte lane; a u64
        // load truncated to 32 bits reads it without a heap allocation.
        let len = tb.machine(machine).mem.load_u64(self.mr, off + 8) as u32 as u64;
        let mut payload = Vec::with_capacity(len as usize);
        tb.machine(machine).mem.read_into(self.mr, off + SLOT_HEADER, len, &mut payload);
        self.head += 1;
        // Publish the new head for producer credit refreshes.
        tb.machine_mut(machine).mem.store_u64(self.mr, self.ring.base + 8, self.head);
        let t = now + tb.cfg.host.memcpy_cost(len as usize) + tb.cfg.host.l1_touch * 2;
        Some((payload, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterConfig, Endpoint};

    fn setup(slots: u64) -> (Testbed, RemoteRing, MrId, MrId, ConnId, ConnId) {
        let mut tb = Testbed::new(ClusterConfig { machines: 3, ..Default::default() });
        let ring_mr = tb.register(2, 1, 1 << 16);
        let s0 = tb.register(0, 1, 4096);
        let _s1 = tb.register(1, 1, 4096);
        let c0 = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(2, 1));
        let c1 = tb.connect(Endpoint::affine(1, 1), Endpoint::affine(2, 1));
        let ring = RemoteRing { rkey: RKey(ring_mr.0 as u64), base: 0, slots, slot_bytes: 64 };
        (tb, ring, ring_mr, s0, c0, c1)
    }

    #[test]
    fn push_pop_round_trips_in_order() {
        let (mut tb, ring, mr, staging, conn, _) = setup(8);
        let mut producer = RingProducer::new(ring);
        let mut consumer = RingConsumer::new(ring, mr);
        let mut t = SimTime::ZERO;
        for i in 0..5u8 {
            let (ticket, done) =
                producer.push(&mut tb, conn, t, &[i; 20], staging, 0).expect("space");
            assert_eq!(ticket, i as u64);
            t = done;
        }
        for i in 0..5u8 {
            let (payload, _) = consumer.pop(&mut tb, 2, t).expect("sealed");
            assert_eq!(payload, vec![i; 20]);
        }
        assert!(consumer.pop(&mut tb, 2, t).is_none(), "ring drained");
    }

    #[test]
    fn wraps_across_laps() {
        let (mut tb, ring, mr, staging, conn, _) = setup(4);
        let mut producer = RingProducer::new(ring);
        let mut consumer = RingConsumer::new(ring, mr);
        let mut t = SimTime::ZERO;
        for round in 0..3u8 {
            for i in 0..4u8 {
                let v = round * 4 + i;
                let (_, done) =
                    producer.push(&mut tb, conn, t, &[v; 8], staging, 0).expect("space");
                t = done;
            }
            for i in 0..4u8 {
                let v = round * 4 + i;
                let (payload, _) = consumer.pop(&mut tb, 2, t).expect("sealed");
                assert_eq!(payload, vec![v; 8]);
            }
        }
    }

    #[test]
    fn full_ring_is_detected() {
        let (mut tb, ring, _mr, staging, conn, _) = setup(4);
        let mut producer = RingProducer::new(ring);
        let mut t = SimTime::ZERO;
        for i in 0..4u8 {
            let (_, done) = producer.push(&mut tb, conn, t, &[i; 8], staging, 0).expect("space");
            t = done;
        }
        // Fifth push: the consumer never moved, head refresh says full.
        assert_eq!(
            producer.push(&mut tb, conn, t, &[9; 8], staging, 0).unwrap_err(),
            PushError::Full
        );
    }

    #[test]
    fn consumer_progress_restores_credit() {
        let (mut tb, ring, mr, staging, conn, _) = setup(4);
        let mut producer = RingProducer::new(ring);
        let mut consumer = RingConsumer::new(ring, mr);
        let mut t = SimTime::ZERO;
        for i in 0..4u8 {
            let (_, done) = producer.push(&mut tb, conn, t, &[i; 8], staging, 0).expect("space");
            t = done;
        }
        consumer.pop(&mut tb, 2, t).expect("one");
        // Now a push succeeds again after refreshing the head.
        let (ticket, _) = producer.push(&mut tb, conn, t, &[9; 8], staging, 0).expect("space");
        assert_eq!(ticket, 4);
    }

    #[test]
    fn two_producers_interleave_without_loss() {
        let (mut tb, ring, mr, s0, c0, c1) = setup(16);
        // MR ids are per-machine: machine 1's staging is its first MR.
        let s1 = rnicsim::MrId(0);
        let mut p0 = RingProducer::new(ring);
        let mut p1 = RingProducer::new(ring);
        let mut consumer = RingConsumer::new(ring, mr);
        let mut t = SimTime::ZERO;
        for i in 0..6u8 {
            let (_, d0) = p0.push(&mut tb, c0, t, &[i; 8], s0, 0).expect("space");
            let (_, d1) = p1.push(&mut tb, c1, t, &[i + 100; 8], s1, 0).expect("space");
            t = d0.max(d1);
        }
        let mut seen = Vec::new();
        while let Some((payload, _)) = consumer.pop(&mut tb, 2, t) {
            seen.push(payload[0]);
        }
        assert_eq!(seen.len(), 12, "every push arrived exactly once");
        // Tickets are FAA-ordered, so the sequence alternates producers in
        // issue order.
        for i in 0..6u8 {
            assert!(seen.contains(&i) && seen.contains(&(i + 100)));
        }
    }

    #[test]
    fn oversized_payloads_rejected() {
        let (mut tb, ring, _mr, staging, conn, _) = setup(4);
        let mut producer = RingProducer::new(ring);
        assert_eq!(
            producer.push(&mut tb, conn, SimTime::ZERO, &[0; 64], staging, 0).unwrap_err(),
            PushError::TooLarge
        );
    }
}
