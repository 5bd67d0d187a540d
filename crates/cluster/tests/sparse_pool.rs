//! Differential proof that the sparse lazy-page pool is byte-identical
//! to a dense reference model, plus a shard-migration test pinning that
//! `split_shards`/`absorb_shards` move sparse regions wholesale without
//! materializing untouched pages.

use cluster::{ClosedLoop, ClusterConfig, Endpoint, MemoryPool, Pinned, Testbed, CHUNK_BYTES};
use rnicsim::{MrId, RKey, Sge, WorkRequest};
use simcore::{SimRng, SimTime};

/// The dense reference: exactly the pre-sparse `MemoryPool` semantics —
/// a backed region is one eager zeroed `Vec<u8>`, an unbacked region is
/// `None`, ids are never reused.
#[derive(Default)]
struct DenseModel {
    regions: Vec<Option<(u64, Option<Vec<u8>>)>>,
}

impl DenseModel {
    fn register(&mut self, len: u64, backed: bool) -> MrId {
        let id = MrId(self.regions.len() as u32);
        self.regions.push(Some((len, backed.then(|| vec![0u8; len as usize]))));
        id
    }

    fn deregister(&mut self, mr: MrId) {
        self.regions[mr.0 as usize] = None;
    }

    fn write(&mut self, mr: MrId, off: u64, bytes: &[u8]) {
        if let Some((_, Some(data))) = &mut self.regions[mr.0 as usize] {
            data[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        }
    }

    fn read(&self, mr: MrId, off: u64, len: u64) -> Vec<u8> {
        match &self.regions[mr.0 as usize] {
            Some((_, Some(data))) => data[off as usize..(off + len) as usize].to_vec(),
            Some((_, None)) => vec![0; len as usize],
            None => panic!("read of deregistered MR"),
        }
    }

    fn copy_within(&mut self, src: MrId, src_off: u64, dst: MrId, dst_off: u64, len: u64) {
        let bytes = self.read(src, src_off, len);
        self.write(dst, dst_off, &bytes);
    }

    fn len_of(&self, mr: MrId) -> Option<u64> {
        self.regions[mr.0 as usize].as_ref().map(|(len, _)| *len)
    }

    fn is_backed(&self, mr: MrId) -> bool {
        matches!(&self.regions[mr.0 as usize], Some((_, Some(_))))
    }
}

/// An offset biased toward chunk seams: half the time land within ±16
/// bytes of a seam so spans regularly straddle chunks.
fn biased_offset(rng: &mut SimRng, len: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    if rng.gen_range(2) == 0 && len > CHUNK_BYTES {
        let seam = (1 + rng.gen_range(len / CHUNK_BYTES)) * CHUNK_BYTES;
        seam.saturating_sub(rng.gen_range(16)).min(len - 1)
    } else {
        rng.gen_range(len)
    }
}

#[test]
fn sparse_pool_matches_dense_reference_model() {
    let mut rng = SimRng::new(0x5EED_5EED);
    let mut pool = MemoryPool::new();
    let mut model = DenseModel::default();
    let mut live: Vec<MrId> = Vec::new();

    for step in 0..4000u32 {
        match rng.gen_range(100) {
            // Register (mostly backed; lens span zero to several chunks).
            0..=9 => {
                let len = match rng.gen_range(4) {
                    0 => rng.gen_range(64),
                    1 => rng.gen_range(CHUNK_BYTES),
                    _ => rng.gen_range(4 * CHUNK_BYTES) + 1,
                };
                let backed = rng.gen_range(4) != 0;
                let id =
                    if backed { pool.register(0, len) } else { pool.register_unbacked(0, len) };
                assert_eq!(id, model.register(len, backed), "id allocation must match");
                live.push(id);
            }
            // Deregister a random live region.
            10..=12 if !live.is_empty() => {
                let mr = live.swap_remove(rng.gen_range(live.len() as u64) as usize);
                assert!(pool.deregister(mr));
                model.deregister(mr);
            }
            // Write random bytes (sometimes all zeros — the elision path
            // must stay byte-invisible).
            13..=45 if !live.is_empty() => {
                let mr = live[rng.gen_range(live.len() as u64) as usize];
                let len = model.len_of(mr).expect("live");
                if len == 0 {
                    continue;
                }
                let off = biased_offset(&mut rng, len);
                let n = (rng.gen_range(200) + 1).min(len - off);
                let bytes: Vec<u8> = match rng.gen_range(3) {
                    0 => vec![0; n as usize],
                    _ => (0..n).map(|_| rng.gen_range(256) as u8).collect(),
                };
                pool.write(mr, off, &bytes);
                model.write(mr, off, &bytes);
            }
            // Read and compare, via every read path.
            46..=75 if !live.is_empty() => {
                let mr = live[rng.gen_range(live.len() as u64) as usize];
                let len = model.len_of(mr).expect("live");
                if len == 0 {
                    continue;
                }
                let off = biased_offset(&mut rng, len);
                let n = (rng.gen_range(300) + 1).min(len - off);
                let expect = model.read(mr, off, n);
                assert_eq!(pool.read(mr, off, n), expect, "read diverged at step {step}");
                let mut out = vec![0xAA];
                pool.read_into(mr, off, n, &mut out);
                assert_eq!(&out[1..], expect, "read_into diverged at step {step}");
                if let Some(s) = pool.try_slice(mr, off, n) {
                    assert_eq!(s, expect, "try_slice diverged at step {step}");
                } else {
                    // None is only legal for unbacked regions or
                    // seam-straddling spans.
                    let crosses = (off / CHUNK_BYTES) != ((off + n - 1) / CHUNK_BYTES);
                    assert!(
                        !model.is_backed(mr) || crosses,
                        "try_slice refused an in-chunk backed span at step {step}"
                    );
                }
                let mut scratch = Vec::new();
                match pool.read_view(mr, off, n, &mut scratch) {
                    Some(s) => assert_eq!(s, expect, "read_view diverged at step {step}"),
                    None => assert!(!model.is_backed(mr)),
                }
            }
            // Bulk copy between two distinct regions.
            76..=90 if live.len() >= 2 => {
                let a = live[rng.gen_range(live.len() as u64) as usize];
                let b = live[rng.gen_range(live.len() as u64) as usize];
                if a == b {
                    continue;
                }
                let (la, lb) = (model.len_of(a).unwrap(), model.len_of(b).unwrap());
                if la == 0 || lb == 0 {
                    continue;
                }
                let src_off = biased_offset(&mut rng, la);
                let dst_off = biased_offset(&mut rng, lb);
                let n = (rng.gen_range(3 * CHUNK_BYTES) + 1).min(la - src_off).min(lb - dst_off);
                pool.copy_within(a, src_off, b, dst_off, n);
                model.copy_within(a, src_off, b, dst_off, n);
            }
            // u64 load/store on backed regions.
            _ if !live.is_empty() => {
                let mr = live[rng.gen_range(live.len() as u64) as usize];
                let len = model.len_of(mr).expect("live");
                if len < 8 || !model.is_backed(mr) {
                    continue;
                }
                let off = biased_offset(&mut rng, len - 7);
                let expect = u64::from_le_bytes(model.read(mr, off, 8).try_into().unwrap());
                assert_eq!(pool.load_u64(mr, off), expect, "load_u64 diverged at step {step}");
                let v = rng.gen_range(u64::MAX);
                pool.store_u64(mr, off, v);
                model.write(mr, off, &v.to_le_bytes());
            }
            _ => {}
        }
    }

    // Full final sweep: every live region byte-for-byte.
    for &mr in &live {
        let len = model.len_of(mr).expect("live");
        assert_eq!(pool.read(mr, 0, len), model.read(mr, 0, len), "final image diverged");
    }
    // The sparse pool must actually have stayed sparse: the model holds
    // every byte densely, the pool only what was written.
    assert!(
        pool.resident_bytes() <= pool.dense_bytes(),
        "resident accounting exceeded dense equivalent"
    );
}

/// Sharding must move sparse regions wholesale: registering huge backed
/// regions on every machine and driving real traffic through a 2-shard
/// split/absorb cycle materializes only the chunks the verbs touched —
/// untouched pages survive the migration as holes, byte- and
/// residency-identical to a serial run.
#[test]
fn shard_migration_preserves_sparse_holes() {
    let run = |shards: usize| -> (Vec<u64>, Vec<u64>, Vec<Vec<u8>>) {
        let pairs = 2usize;
        let mut tb = Testbed::new(ClusterConfig { machines: 2 * pairs, ..Default::default() });
        let mut setups = Vec::new();
        for p in 0..pairs {
            let (a, b) = (2 * p, 2 * p + 1);
            // 1 GiB registered per side — dense backing would need 4 GiB
            // for this testbed; sparse backing materializes only the
            // handful of chunks the writes below land in.
            let src = tb.register(a, 1, 1 << 30);
            let dst = tb.register(b, 1, 1 << 30);
            tb.machine_mut(a).mem.write(src, 0, b"nonzero payload seed");
            let conn = tb.connect(Endpoint::affine(a, 1), Endpoint::affine(b, 1));
            setups.push((src, dst, conn));
        }
        let mut loops: Vec<_> = setups
            .iter()
            .map(|&(src, dst, conn)| {
                ClosedLoop::new(2, 40, move |tb: &mut Testbed, now: SimTime, i: u64| {
                    // Writes hop across the region in 3 far-apart spots,
                    // re-reading the seeded source bytes.
                    let dst_off = (i % 3) * (200 << 20);
                    let wr =
                        WorkRequest::write(i, Sge::new(src, 0, 20), RKey(dst.0 as u64), dst_off);
                    tb.post_one_ref(now, conn, &wr).at
                })
            })
            .collect();
        {
            let mut pinned: Vec<Pinned<'_>> =
                loops.iter_mut().enumerate().map(|(p, cl)| Pinned::new(2 * p, cl)).collect();
            cluster::run_clients_sharded(&mut tb, &mut pinned, shards, SimTime::MAX);
        }
        let resident: Vec<u64> =
            (0..2 * pairs).map(|m| tb.machine(m).mem.resident_bytes()).collect();
        let digests: Vec<u64> = setups
            .iter()
            .enumerate()
            .flat_map(|(p, &(src, dst, _))| {
                [
                    tb.machine(2 * p).mem.resident_digest(src),
                    tb.machine(2 * p + 1).mem.resident_digest(dst),
                ]
            })
            .collect();
        let images: Vec<Vec<u8>> = setups
            .iter()
            .enumerate()
            .map(|(p, &(_, dst, _))| tb.machine(2 * p + 1).mem.read(dst, 0, 64))
            .collect();
        (resident, digests, images)
    };

    let serial = run(1);
    let sharded = run(2);
    assert_eq!(serial, sharded, "split/absorb changed bytes or materialization");
    // Each machine holds 1 GiB registered but only the touched chunks:
    // one source chunk on even machines, three destination chunks on odd.
    for (m, &res) in serial.0.iter().enumerate() {
        let expect = if m % 2 == 0 { CHUNK_BYTES } else { 3 * CHUNK_BYTES };
        assert_eq!(res, expect, "machine {m} materialized unexpected pages");
    }
}
