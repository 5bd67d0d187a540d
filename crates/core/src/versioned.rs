//! Multi-version remote entries: lock-free concurrent writes for cold keys.
//!
//! §IV-B: the disaggregated hashtable handles concurrency on *cold*
//! entries with a multi-version scheme — a writer first draws a version
//! from a remote fetch-and-add, then writes the value into the slot
//! `version % k` of a k-slot ring, tagging the slot with the version. A
//! reader reads the version counter and then the owning slot; a torn read
//! (slot overwritten between the two steps) is detected by the slot tag
//! and retried.
//!
//! Remote layout of one entry (`k` slots of `8 + value_len` bytes):
//!
//! ```text
//! [ counter: u64 ][ slot0: tag u64 | value ][ slot1: tag u64 | value ] ...
//! ```

use crate::sequencer::RemoteSequencer;
use cluster::{ConnId, Testbed};
use rnicsim::{CqeStatus, MrId, RKey, Sge, WorkRequest};
use simcore::SimTime;

/// A k-slot multi-version entry in remote memory.
#[derive(Clone, Copy, Debug)]
pub struct VersionedEntry {
    /// Remote region holding the entry.
    pub rkey: RKey,
    /// Offset of the entry header (the version counter).
    pub base: u64,
    /// Number of value slots.
    pub slots: u64,
    /// Bytes per value.
    pub value_len: u64,
}

/// Result of a versioned write.
#[derive(Clone, Copy, Debug)]
pub struct VersionedWrite {
    /// Version this write owns.
    pub version: u64,
    /// When the value write completed remotely.
    pub at: SimTime,
}

/// Result of a versioned read.
#[derive(Clone, Debug)]
pub struct VersionedRead {
    /// Version observed (the latest committed at read time).
    pub version: u64,
    /// The value bytes.
    pub value: Vec<u8>,
    /// When the read completed.
    pub at: SimTime,
}

impl VersionedEntry {
    /// Total remote bytes one entry occupies.
    pub fn footprint(&self) -> u64 {
        8 + self.slots * (8 + self.value_len)
    }

    fn slot_offset(&self, version: u64) -> u64 {
        self.base + 8 + (version % self.slots) * (8 + self.value_len)
    }

    /// Write `value`: draw a version via remote FAA, then write
    /// `[tag | value]` into the owning slot with one RDMA Write.
    ///
    /// `staging` is a local region with at least `8 + value_len` scratch
    /// bytes at `staging_off` (the tagged value is built there first).
    pub fn write(
        &self,
        tb: &mut Testbed,
        conn: ConnId,
        now: SimTime,
        value: &[u8],
        staging: MrId,
        staging_off: u64,
    ) -> VersionedWrite {
        assert_eq!(value.len() as u64, self.value_len, "value length mismatch");
        let seq = RemoteSequencer { rkey: self.rkey, offset: self.base };
        let ticket = seq.next(tb, conn, now, Sge::new(staging, staging_off, 8));
        // Version drawn: the *next* version is ticket.value + 1 so that an
        // entry with counter 0 reads as "no committed version yet".
        let version = ticket.value + 1;
        let client = tb.client_of(conn);
        let mut buf = Vec::with_capacity(8 + value.len());
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(value);
        tb.machine_mut(client.machine).mem.write(staging, staging_off, &buf);
        let build_cost = tb.cfg.host.memcpy_cost(buf.len());
        let wr = WorkRequest::write(
            version,
            Sge::new(staging, staging_off, buf.len() as u64),
            self.rkey,
            self.slot_offset(version),
        );
        let cqe = tb.post_one_ref(ticket.at + build_cost, conn, &wr);
        assert_eq!(cqe.status, CqeStatus::Success);
        VersionedWrite { version, at: cqe.at }
    }

    /// Read the latest committed value: read the counter, then the owning
    /// slot; retry if the slot tag doesn't match (torn by a concurrent
    /// writer lapping the ring). Returns `None` if no version exists yet.
    pub fn read(
        &self,
        tb: &mut Testbed,
        conn: ConnId,
        now: SimTime,
        staging: MrId,
        staging_off: u64,
    ) -> Option<VersionedRead> {
        let client = tb.client_of(conn);
        let mut t = now;
        loop {
            // Step 1: read the version counter.
            let wr = WorkRequest::read(0, Sge::new(staging, staging_off, 8), self.rkey, self.base);
            let cqe = tb.post_one_ref(t, conn, &wr);
            assert_eq!(cqe.status, CqeStatus::Success);
            let version = tb.machine(client.machine).mem.load_u64(staging, staging_off);
            if version == 0 {
                return None;
            }
            // Step 2: read the owning slot.
            let slot_len = 8 + self.value_len;
            let wr = WorkRequest::read(
                1,
                Sge::new(staging, staging_off, slot_len),
                self.rkey,
                self.slot_offset(version),
            );
            let cqe2 = tb.post_one_ref(cqe.at, conn, &wr);
            assert_eq!(cqe2.status, CqeStatus::Success);
            let tag = tb.machine(client.machine).mem.load_u64(staging, staging_off);
            if tag == version {
                let mut value = Vec::with_capacity(self.value_len as usize);
                tb.machine(client.machine).mem.read_into(
                    staging,
                    staging_off + 8,
                    self.value_len,
                    &mut value,
                );
                return Some(VersionedRead { version, value, at: cqe2.at });
            }
            // Torn: a writer lapped us. Retry from the new counter.
            t = cqe2.at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterConfig, Endpoint};

    fn setup() -> (Testbed, ConnId, MrId, VersionedEntry) {
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let staging = tb.register(0, 1, 4096);
        let backing = tb.register(1, 1, 4096);
        let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        let entry =
            VersionedEntry { rkey: RKey(backing.0 as u64), base: 64, slots: 4, value_len: 16 };
        (tb, conn, staging, entry)
    }

    #[test]
    fn read_before_any_write_is_none() {
        let (mut tb, conn, staging, entry) = setup();
        assert!(entry.read(&mut tb, conn, SimTime::ZERO, staging, 0).is_none());
    }

    #[test]
    fn write_then_read_round_trips() {
        let (mut tb, conn, staging, entry) = setup();
        let w = entry.write(&mut tb, conn, SimTime::ZERO, b"sixteen bytes!!!", staging, 0);
        assert_eq!(w.version, 1);
        let r = entry.read(&mut tb, conn, w.at, staging, 0).expect("committed");
        assert_eq!(r.version, 1);
        assert_eq!(r.value, b"sixteen bytes!!!");
    }

    #[test]
    fn successive_writes_bump_versions_and_rotate_slots() {
        let (mut tb, conn, staging, entry) = setup();
        let mut t = SimTime::ZERO;
        for i in 1..=6u64 {
            let val = format!("v-{i:010}....");
            let w = entry.write(&mut tb, conn, t, val.as_bytes(), staging, 0);
            assert_eq!(w.version, i);
            t = w.at;
        }
        let r = entry.read(&mut tb, conn, t, staging, 0).expect("committed");
        assert_eq!(r.version, 6);
        assert_eq!(r.value, b"v-0000000006....");
        // With 4 slots, versions 3..6 are resident; version 6 lives in
        // slot 6 % 4 = 2.
        let slot2 = entry.base + 8 + 2 * (8 + 16);
        let m = tb.machine(1);
        // Find the backing MR (id 0 on machine 1).
        assert_eq!(m.mem.load_u64(rnicsim::MrId(0), slot2), 6);
    }

    #[test]
    fn footprint_accounts_header_and_slots() {
        let (_tb, _conn, _staging, entry) = setup();
        assert_eq!(entry.footprint(), 8 + 4 * 24);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_value_length_is_rejected() {
        let (mut tb, conn, staging, entry) = setup();
        entry.write(&mut tb, conn, SimTime::ZERO, b"short", staging, 0);
    }
}
