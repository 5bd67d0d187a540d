//! Simulated host memory: registered regions that hold real bytes,
//! stored as *sparse lazily-materialized pages*.
//!
//! Applications in this reproduction move *actual data* — the hashtable
//! stores key-value bytes, the join joins real tuples — so correctness is
//! checkable, while all timing comes from the device models. A backed
//! region is a vector of fixed-size chunk slots ([`CHUNK_BYTES`] = 64
//! KiB); registration allocates only the slot table, never the bytes.
//! An untouched chunk reads as zeros (served from one static zero page,
//! like the kernel's shared zero page); the first write of *non-zero*
//! bytes materializes it. Writing zeros into an unmaterialized chunk is
//! elided — the chunk already reads as zeros, so eliding is
//! byte-identical by definition. This is what makes fleet-scale runs
//! affordable: a 2 GiB registration costs a 256 KiB slot table, and only
//! the chunks that ever hold non-zero data cost real memory.
//!
//! Regions used purely as benchmark targets can still be registered
//! *unbacked*: writes to them are timed but discarded, reads return
//! zeros, and atomics refuse them.
//!
//! MR ids are dense and never reused (deregistration leaves a hole), so
//! the pool is a plain `Vec` indexed by id — region lookup on the verb hot
//! path is a bounds-checked array index, not a hash. The data-effect fast
//! paths ([`try_slice`]/[`try_slice_mut`]) expose a span as one borrowed
//! slice when it lies inside a single chunk (the common case: payloads
//! are far smaller than 64 KiB); a span that crosses a chunk seam returns
//! `None` and callers fall back to the scratch-assembled paths
//! ([`read_view`]/[`read_into`]/[`write`]), which are byte-identical.
//!
//! [`try_slice`]: MemoryPool::try_slice
//! [`try_slice_mut`]: MemoryPool::try_slice_mut
//! [`read_view`]: MemoryPool::read_view

use rnicsim::MrId;
use simcore::Fnv64;

/// Chunk (page) size of sparse backed regions. 64 KiB: big enough that
/// virtually every verb payload fits in one chunk (the slice fast paths
/// stay one `memcpy`), small enough that a sparsely-touched region only
/// materializes a sliver of its registered length.
pub const CHUNK_BYTES: u64 = 64 * 1024;

/// The shared zero page: unmaterialized chunks read from here, so the
/// read fast path is allocation-free even on never-written memory.
static ZERO_CHUNK: [u8; CHUNK_BYTES as usize] = [0; CHUNK_BYTES as usize];

/// Backing store of one region.
enum Backing {
    /// Timed but byteless (huge benchmark targets): writes are
    /// discarded, reads return zeros, atomics are refused.
    Unbacked,
    /// Sparse chunked bytes: `None` slots read as zeros.
    Sparse(Vec<Option<Box<[u8]>>>),
}

/// One registered memory region (MR) on a machine.
pub struct Region {
    /// NUMA socket whose DRAM holds the region.
    pub socket: usize,
    /// Region length in bytes.
    pub len: u64,
    backing: Backing,
}

impl Region {
    /// Whether the region holds real (sparse) bytes.
    pub fn is_backed(&self) -> bool {
        matches!(self.backing, Backing::Sparse(_))
    }

    /// Bytes actually materialized (0 for unbacked or never-written).
    pub fn resident_bytes(&self) -> u64 {
        match &self.backing {
            Backing::Unbacked => 0,
            Backing::Sparse(chunks) => chunks.iter().flatten().map(|c| c.len() as u64).sum(),
        }
    }

    /// Length in bytes of chunk `ci` (the last chunk may be short).
    fn chunk_len(&self, ci: usize) -> usize {
        (self.len - ci as u64 * CHUNK_BYTES).min(CHUNK_BYTES) as usize
    }
}

/// All registered regions of one machine.
#[derive(Default)]
pub struct MemoryPool {
    /// Indexed by `MrId.0`; `None` marks a deregistered id (never reused).
    regions: Vec<Option<Region>>,
    live: usize,
    /// Materialized bytes across all live regions (kept incrementally —
    /// fleet-scale sweeps report this against `dense_bytes`).
    resident: u64,
    /// What dense backing would cost: total registered length of all
    /// live *backed* regions.
    dense: u64,
}

impl MemoryPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a zero-initialized region of `len` bytes on `socket`.
    /// Allocates only the chunk slot table (8 bytes per 64 KiB of
    /// registered length) — bytes materialize on first non-zero write.
    pub fn register(&mut self, socket: usize, len: u64) -> MrId {
        let slots = len.div_ceil(CHUNK_BYTES) as usize;
        let mut chunks = Vec::new();
        chunks.resize_with(slots, || None);
        self.dense += len;
        self.insert(Region { socket, len, backing: Backing::Sparse(chunks) })
    }

    /// Register a region that is timed but holds no bytes (for huge
    /// benchmark targets).
    pub fn register_unbacked(&mut self, socket: usize, len: u64) -> MrId {
        self.insert(Region { socket, len, backing: Backing::Unbacked })
    }

    fn insert(&mut self, region: Region) -> MrId {
        let id = MrId(self.regions.len() as u32);
        self.regions.push(Some(region));
        self.live += 1;
        id
    }

    /// Deregister a region; returns whether it existed.
    pub fn deregister(&mut self, mr: MrId) -> bool {
        match self.regions.get_mut(mr.0 as usize) {
            Some(slot @ Some(_)) => {
                let r = slot.take().expect("matched Some");
                if r.is_backed() {
                    self.dense -= r.len;
                    self.resident -= r.resident_bytes();
                }
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Region metadata, if registered.
    pub fn region(&self, mr: MrId) -> Option<&Region> {
        self.regions.get(mr.0 as usize).and_then(Option::as_ref)
    }

    /// Number of live regions.
    pub fn region_count(&self) -> usize {
        self.live
    }

    /// Bytes actually materialized across all live regions.
    pub fn resident_bytes(&self) -> u64 {
        self.resident
    }

    /// What dense (eager) backing of every live backed region would
    /// cost — the baseline the sparse pool is saving against.
    pub fn dense_bytes(&self) -> u64 {
        self.dense
    }

    /// All live regions in ascending MR-id order (deterministic — the
    /// static checker declares them into a [`verbcheck::VerbProgram`]).
    pub fn iter(&self) -> impl Iterator<Item = (MrId, &Region)> {
        self.regions.iter().enumerate().filter_map(|(i, r)| r.as_ref().map(|r| (MrId(i as u32), r)))
    }

    /// Bounds check a span.
    pub fn check(&self, mr: MrId, offset: u64, len: u64) -> bool {
        match self.region(mr) {
            Some(r) => offset.checked_add(len).is_some_and(|end| end <= r.len),
            None => false,
        }
    }

    fn expect_region(&self, mr: MrId) -> &Region {
        self.region(mr).expect("unknown MR")
    }

    /// Read bytes (zeros if the region is unbacked). Panics if out of
    /// bounds — callers must `check` first; verbs surface bounds errors as
    /// CQE statuses before touching data. Allocates a fresh `Vec`; hot
    /// paths use [`read_into`] / [`read_view`] with a reused scratch.
    ///
    /// [`read_into`]: MemoryPool::read_into
    /// [`read_view`]: MemoryPool::read_view
    pub fn read(&self, mr: MrId, offset: u64, len: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len as usize);
        self.read_into(mr, offset, len, &mut out);
        out
    }

    /// Append `len` bytes starting at `offset` to `out` (zeros if the
    /// region is unbacked or the chunks are unmaterialized) without
    /// allocating beyond `out`'s growth — the verb hot path gathers into
    /// a reused scratch buffer. Same bounds contract as [`read`].
    ///
    /// [`read`]: MemoryPool::read
    pub fn read_into(&self, mr: MrId, offset: u64, len: u64, out: &mut Vec<u8>) {
        let r = self.expect_region(mr);
        assert!(offset.checked_add(len).is_some_and(|e| e <= r.len), "read out of bounds");
        let Backing::Sparse(chunks) = &r.backing else {
            out.resize(out.len() + len as usize, 0);
            return;
        };
        let mut off = offset;
        let mut rem = len as usize;
        while rem > 0 {
            let ci = (off / CHUNK_BYTES) as usize;
            let co = (off % CHUNK_BYTES) as usize;
            let n = rem.min(CHUNK_BYTES as usize - co);
            match &chunks[ci] {
                Some(c) => out.extend_from_slice(&c[co..co + n]),
                None => out.resize(out.len() + n, 0),
            }
            off += n as u64;
            rem -= n;
        }
    }

    /// The span as one borrowed slice: `None` if the region is unbacked
    /// *or* the span crosses a chunk seam — callers fall back to
    /// [`read_into`]/[`read_view`], which treat both cases correctly
    /// (unbacked reads as zeros, seam-crossing spans are assembled).
    /// An unmaterialized chunk serves the shared zero page, so the fast
    /// path stays allocation-free on never-written memory. Panics if out
    /// of bounds (same contract as [`read`]).
    ///
    /// [`read`]: MemoryPool::read
    /// [`read_into`]: MemoryPool::read_into
    /// [`read_view`]: MemoryPool::read_view
    pub fn try_slice(&self, mr: MrId, offset: u64, len: u64) -> Option<&[u8]> {
        let r = self.expect_region(mr);
        assert!(offset.checked_add(len).is_some_and(|e| e <= r.len), "read out of bounds");
        let Backing::Sparse(chunks) = &r.backing else { return None };
        if len == 0 {
            return Some(&[]);
        }
        let ci = (offset / CHUNK_BYTES) as usize;
        if (offset + len - 1) / CHUNK_BYTES != ci as u64 {
            return None; // crosses a chunk seam
        }
        let co = (offset % CHUNK_BYTES) as usize;
        Some(match &chunks[ci] {
            Some(c) => &c[co..co + len as usize],
            None => &ZERO_CHUNK[co..co + len as usize],
        })
    }

    /// The span as one borrowed slice, assembling across chunk seams into
    /// `scratch` when needed; `None` only if the region is unbacked
    /// (reads as zeros). The single-chunk fast path never touches
    /// `scratch`, so steady-state reads are allocation-free.
    pub fn read_view<'a>(
        &'a self,
        mr: MrId,
        offset: u64,
        len: u64,
        scratch: &'a mut Vec<u8>,
    ) -> Option<&'a [u8]> {
        if !self.expect_region(mr).is_backed() {
            // Bounds contract matches try_slice even on the zero path.
            assert!(self.check(mr, offset, len), "read out of bounds");
            return None;
        }
        match self.try_slice(mr, offset, len) {
            Some(s) => Some(s),
            None => {
                scratch.clear();
                self.read_into(mr, offset, len, scratch);
                Some(scratch.as_slice())
            }
        }
    }

    /// The span as one mutable slice, or `None` if the region is unbacked
    /// (writes to unbacked regions are discarded) *or* the span crosses a
    /// chunk seam — callers fall back to [`write`], which scatters across
    /// chunks. Materializes the chunk (a caller holding `&mut [u8]` may
    /// write anything, so zero-write elision cannot apply here — hot
    /// write paths go through [`write`] instead). Panics if out of
    /// bounds.
    ///
    /// [`write`]: MemoryPool::write
    pub fn try_slice_mut(&mut self, mr: MrId, offset: u64, len: u64) -> Option<&mut [u8]> {
        let resident = &mut self.resident;
        let r = self.regions[mr.0 as usize].as_mut().expect("unknown MR");
        assert!(offset.checked_add(len).is_some_and(|e| e <= r.len), "write out of bounds");
        if len == 0 {
            return match &r.backing {
                Backing::Sparse(_) => Some(&mut []),
                Backing::Unbacked => None,
            };
        }
        let ci = (offset / CHUNK_BYTES) as usize;
        if (offset + len - 1) / CHUNK_BYTES != ci as u64 {
            return None; // crosses a chunk seam
        }
        let chunk_len = r.chunk_len(ci);
        let Backing::Sparse(chunks) = &mut r.backing else { return None };
        let chunk = chunks[ci].get_or_insert_with(|| {
            *resident += chunk_len as u64;
            vec![0u8; chunk_len].into_boxed_slice()
        });
        let co = (offset % CHUNK_BYTES) as usize;
        Some(&mut chunk[co..co + len as usize])
    }

    /// Copy `len` bytes between two *distinct* regions of this pool in
    /// one bulk move — the CPU-gather (SP) path uses this instead of
    /// staging through a temporary. An unbacked source copies zeros; an
    /// unbacked destination discards the copy. Panics if out of bounds or
    /// if the regions are the same.
    pub fn copy_within(&mut self, src: MrId, src_off: u64, dst: MrId, dst_off: u64, len: u64) {
        assert_ne!(src, dst, "copy_within needs two distinct regions");
        let (a, b) = (src.0 as usize, dst.0 as usize);
        let (lo, hi) = self.regions.split_at_mut(a.max(b));
        let (src_r, dst_r) =
            if a < b { (lo[a].as_ref(), hi[0].as_mut()) } else { (hi[0].as_ref(), lo[b].as_mut()) };
        let src_r = src_r.expect("unknown source MR");
        let dst_r = dst_r.expect("unknown destination MR");
        assert!(src_off.checked_add(len).is_some_and(|e| e <= src_r.len), "read out of bounds");
        assert!(dst_off.checked_add(len).is_some_and(|e| e <= dst_r.len), "write out of bounds");
        if !dst_r.is_backed() {
            return;
        }
        // Walk sub-spans bounded by both the source and destination chunk
        // seams: each step is one contiguous copy (or a zero-fill / an
        // elided zero write when the source piece reads as zeros).
        let resident = &mut self.resident;
        let mut done = 0u64;
        while done < len {
            let (so, doff) = (src_off + done, dst_off + done);
            let src_rem = CHUNK_BYTES - so % CHUNK_BYTES;
            let dst_rem = CHUNK_BYTES - doff % CHUNK_BYTES;
            let n = (len - done).min(src_rem).min(dst_rem) as usize;
            let piece = match &src_r.backing {
                Backing::Unbacked => None,
                Backing::Sparse(chunks) => chunks[(so / CHUNK_BYTES) as usize]
                    .as_deref()
                    .map(|c| &c[(so % CHUNK_BYTES) as usize..(so % CHUNK_BYTES) as usize + n]),
            };
            *resident += write_piece(dst_r, doff, n, piece);
            done += n as u64;
        }
    }

    /// Write bytes (discarded if the region is unbacked). All-zero spans
    /// landing on unmaterialized chunks are elided — the chunk already
    /// reads as zeros, so the result is byte-identical.
    pub fn write(&mut self, mr: MrId, offset: u64, bytes: &[u8]) {
        let resident = &mut self.resident;
        let r = self.regions[mr.0 as usize].as_mut().expect("unknown MR");
        let len = bytes.len() as u64;
        assert!(offset.checked_add(len).is_some_and(|e| e <= r.len), "write out of bounds");
        if !r.is_backed() {
            return;
        }
        let mut done = 0u64;
        while done < len {
            let off = offset + done;
            let n = ((len - done).min(CHUNK_BYTES - off % CHUNK_BYTES)) as usize;
            let piece = &bytes[done as usize..done as usize + n];
            *resident += write_piece(r, off, n, Some(piece));
            done += n as u64;
        }
    }

    /// Write `len` zero bytes (discarded if unbacked; elided on
    /// unmaterialized chunks) — lets callers propagate "reads as zeros"
    /// without staging an actual zero buffer.
    pub fn write_zeros(&mut self, mr: MrId, offset: u64, len: u64) {
        let resident = &mut self.resident;
        let r = self.regions[mr.0 as usize].as_mut().expect("unknown MR");
        assert!(offset.checked_add(len).is_some_and(|e| e <= r.len), "write out of bounds");
        if !r.is_backed() {
            return;
        }
        let mut done = 0u64;
        while done < len {
            let off = offset + done;
            let n = ((len - done).min(CHUNK_BYTES - off % CHUNK_BYTES)) as usize;
            *resident += write_piece(r, off, n, None);
            done += n as u64;
        }
    }

    /// Load the u64 at `offset` (little endian). Requires a backed region
    /// — atomics on unbacked memory would silently lose state.
    pub fn load_u64(&self, mr: MrId, offset: u64) -> u64 {
        let r = self.expect_region(mr);
        assert!(offset.checked_add(8).is_some_and(|e| e <= r.len), "read out of bounds");
        let Backing::Sparse(chunks) = &r.backing else {
            panic!("atomic access needs a backed region");
        };
        let ci = (offset / CHUNK_BYTES) as usize;
        let co = (offset % CHUNK_BYTES) as usize;
        if co + 8 <= CHUNK_BYTES as usize {
            match &chunks[ci] {
                Some(c) => u64::from_le_bytes(c[co..co + 8].try_into().expect("8 bytes")),
                None => 0,
            }
        } else {
            // Unaligned load straddling a seam (atomics are 8-aligned and
            // never hit this; plain app loads may).
            let mut buf = [0u8; 8];
            for (i, b) in buf.iter_mut().enumerate() {
                let o = offset + i as u64;
                if let Some(c) = &chunks[(o / CHUNK_BYTES) as usize] {
                    *b = c[(o % CHUNK_BYTES) as usize];
                }
            }
            u64::from_le_bytes(buf)
        }
    }

    /// Store the u64 at `offset` (little endian). Requires a backed
    /// region (same contract as [`load_u64`]).
    ///
    /// [`load_u64`]: MemoryPool::load_u64
    pub fn store_u64(&mut self, mr: MrId, offset: u64, value: u64) {
        let resident = &mut self.resident;
        let r = self.regions[mr.0 as usize].as_mut().expect("unknown MR");
        assert!(r.is_backed(), "atomic access needs a backed region");
        assert!(offset.checked_add(8).is_some_and(|e| e <= r.len), "write out of bounds");
        let bytes = value.to_le_bytes();
        let mut done = 0u64;
        while done < 8 {
            let off = offset + done;
            let n = ((8 - done).min(CHUNK_BYTES - off % CHUNK_BYTES)) as usize;
            let piece = &bytes[done as usize..done as usize + n];
            *resident += write_piece(r, off, n, Some(piece));
            done += n as u64;
        }
    }

    /// FNV-1a digest of a region's *materialized* chunks, folded as
    /// `(chunk index, chunk bytes)` in ascending order. Two byte-identical
    /// runs materialize identical chunk sets (materialization is a
    /// deterministic function of the written bytes), so this digest is a
    /// determinism gate for fleet-scale memory without walking the full
    /// registered length. Unbacked regions digest to the FNV basis.
    /// [`Fnv64::bytes`] folds each run of all-zero 64-byte blocks in one
    /// multiply, so on mostly-zero chunks the digest costs a memory scan
    /// of the resident bytes rather than a multiply per byte.
    pub fn resident_digest(&self, mr: MrId) -> u64 {
        let mut h = Fnv64::new();
        if let Backing::Sparse(chunks) = &self.expect_region(mr).backing {
            for (ci, chunk) in chunks.iter().enumerate() {
                if let Some(c) = chunk {
                    h.u64(ci as u64).bytes(c);
                }
            }
        }
        h.finish()
    }
}

/// Write one chunk-bounded piece into a backed region: `piece = None`
/// means "len zeros". Copies into a materialized chunk; materializes on
/// first non-zero write; elides zero writes to unmaterialized chunks.
/// Returns how many bytes were newly materialized. The caller guarantees
/// the piece does not cross a chunk seam and is in bounds.
fn write_piece(r: &mut Region, off: u64, len: usize, piece: Option<&[u8]>) -> u64 {
    let ci = (off / CHUNK_BYTES) as usize;
    let co = (off % CHUNK_BYTES) as usize;
    let chunk_len = r.chunk_len(ci);
    let Backing::Sparse(chunks) = &mut r.backing else {
        unreachable!("write_piece is only called on backed regions");
    };
    match (&mut chunks[ci], piece) {
        (Some(c), Some(p)) => {
            c[co..co + len].copy_from_slice(p);
            0
        }
        (Some(c), None) => {
            c[co..co + len].fill(0);
            0
        }
        (slot @ None, Some(p)) if p.iter().any(|&b| b != 0) => {
            let mut c = vec![0u8; chunk_len].into_boxed_slice();
            c[co..co + len].copy_from_slice(p);
            *slot = Some(c);
            chunk_len as u64
        }
        // Zeros into an unmaterialized chunk: elided (already zeros).
        (None, _) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_read_write_round_trip() {
        let mut m = MemoryPool::new();
        let mr = m.register(0, 128);
        m.write(mr, 10, b"hello");
        assert_eq!(m.read(mr, 10, 5), b"hello");
        assert_eq!(m.read(mr, 0, 4), vec![0; 4]);
    }

    #[test]
    fn read_into_appends_without_clearing() {
        let mut m = MemoryPool::new();
        let mr = m.register(0, 128);
        m.write(mr, 0, b"abc");
        let mut out = b"x".to_vec();
        m.read_into(mr, 0, 3, &mut out);
        assert_eq!(out, b"xabc");
        let unbacked = m.register_unbacked(0, 64);
        m.read_into(unbacked, 0, 2, &mut out);
        assert_eq!(out, b"xabc\0\0");
    }

    #[test]
    fn unbacked_regions_discard_and_zero() {
        let mut m = MemoryPool::new();
        let mr = m.register_unbacked(1, 2 << 30); // 2 GB costs nothing
        m.write(mr, 1 << 30, b"data");
        assert_eq!(m.read(mr, 1 << 30, 4), vec![0; 4]);
        assert!(!m.region(mr).unwrap().is_backed());
        assert_eq!(m.resident_bytes(), 0);
        assert_eq!(m.dense_bytes(), 0, "unbacked regions don't count toward dense cost");
    }

    #[test]
    fn backed_registration_is_lazy() {
        let mut m = MemoryPool::new();
        let mr = m.register(0, 1 << 30); // 1 GiB registered...
        assert_eq!(m.resident_bytes(), 0, "...but nothing materialized");
        assert_eq!(m.dense_bytes(), 1 << 30);
        assert_eq!(m.read(mr, 123 << 20, 16), vec![0; 16], "untouched pages read as zeros");
        assert_eq!(m.resident_bytes(), 0, "reads never materialize");
        m.write(mr, 500 << 20, b"one byte of truth");
        assert_eq!(m.resident_bytes(), CHUNK_BYTES, "first write materializes one chunk");
        assert_eq!(m.read(mr, 500 << 20, 17), b"one byte of truth");
    }

    #[test]
    fn zero_writes_are_elided() {
        let mut m = MemoryPool::new();
        let mr = m.register(0, 4 * CHUNK_BYTES);
        m.write(mr, 0, &[0u8; 4096]);
        assert_eq!(m.resident_bytes(), 0, "all-zero write is elided");
        m.write_zeros(mr, 2 * CHUNK_BYTES, CHUNK_BYTES);
        assert_eq!(m.resident_bytes(), 0);
        // Once a chunk is materialized, zero writes land in it normally.
        m.write(mr, 10, b"xyz");
        assert_eq!(m.resident_bytes(), CHUNK_BYTES);
        m.write(mr, 10, &[0u8; 3]);
        assert_eq!(m.read(mr, 10, 3), vec![0; 3]);
        assert_eq!(m.resident_bytes(), CHUNK_BYTES, "materialization is sticky");
    }

    #[test]
    fn seam_crossing_spans_round_trip() {
        let mut m = MemoryPool::new();
        let mr = m.register(0, 3 * CHUNK_BYTES);
        let seam = CHUNK_BYTES - 3;
        m.write(mr, seam, b"straddle");
        assert_eq!(m.read(mr, seam, 8), b"straddle");
        assert_eq!(m.resident_bytes(), 2 * CHUNK_BYTES, "both sides materialized");
        // Fast path refuses the seam; scratch view assembles it.
        assert!(m.try_slice(mr, seam, 8).is_none());
        let mut scratch = Vec::new();
        assert_eq!(m.read_view(mr, seam, 8, &mut scratch).unwrap(), b"straddle");
        // Within one chunk the fast path serves borrowed bytes.
        assert_eq!(m.try_slice(mr, seam, 3).unwrap(), b"str");
    }

    #[test]
    fn bounds_checking() {
        let mut m = MemoryPool::new();
        let mr = m.register(0, 100);
        assert!(m.check(mr, 0, 100));
        assert!(m.check(mr, 99, 1));
        assert!(!m.check(mr, 99, 2));
        assert!(!m.check(mr, u64::MAX, 2)); // overflow-safe
        assert!(!m.check(MrId(999), 0, 1));
    }

    #[test]
    fn u64_load_store() {
        let mut m = MemoryPool::new();
        let mr = m.register(0, 64);
        m.store_u64(mr, 8, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.load_u64(mr, 8), 0xDEAD_BEEF_CAFE_F00D);
        // Little-endian byte layout.
        assert_eq!(m.read(mr, 8, 1)[0], 0x0D);
        // Loads from untouched memory are zero without materializing.
        let big = m.register(0, 2 * CHUNK_BYTES);
        assert_eq!(m.load_u64(big, CHUNK_BYTES + 8), 0);
        // Straddling a seam works byte for byte.
        m.write(big, CHUNK_BYTES - 4, &0xAABB_CCDD_1122_3344u64.to_le_bytes());
        assert_eq!(m.load_u64(big, CHUNK_BYTES - 4), 0xAABB_CCDD_1122_3344);
        m.store_u64(big, CHUNK_BYTES - 4, 0x0102_0304_0506_0708);
        assert_eq!(m.load_u64(big, CHUNK_BYTES - 4), 0x0102_0304_0506_0708);
    }

    #[test]
    fn deregister_frees_id_space_monotonically() {
        let mut m = MemoryPool::new();
        let a = m.register(0, 8);
        assert!(m.deregister(a));
        assert!(!m.deregister(a));
        let b = m.register(0, 8);
        assert_ne!(a, b, "ids are never reused");
        assert_eq!(m.region_count(), 1);
    }

    #[test]
    fn deregister_returns_resident_and_dense_bytes() {
        let mut m = MemoryPool::new();
        let a = m.register(0, 4 * CHUNK_BYTES);
        m.write(a, 0, b"data");
        m.write(a, 3 * CHUNK_BYTES, b"more");
        assert_eq!(m.resident_bytes(), 2 * CHUNK_BYTES);
        assert_eq!(m.dense_bytes(), 4 * CHUNK_BYTES);
        m.deregister(a);
        assert_eq!(m.resident_bytes(), 0);
        assert_eq!(m.dense_bytes(), 0);
    }

    #[test]
    fn socket_tag_is_kept() {
        let mut m = MemoryPool::new();
        let mr = m.register(1, 8);
        assert_eq!(m.region(mr).unwrap().socket, 1);
    }

    #[test]
    fn iter_skips_holes_in_id_order() {
        let mut m = MemoryPool::new();
        let a = m.register(0, 8);
        let b = m.register(1, 16);
        let c = m.register(0, 32);
        m.deregister(b);
        let ids: Vec<MrId> = m.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, c]);
    }

    #[test]
    fn copy_within_moves_bytes_between_regions() {
        let mut m = MemoryPool::new();
        let a = m.register(0, 64);
        let b = m.register(0, 64);
        m.write(a, 4, b"bulk");
        m.copy_within(a, 4, b, 32, 4);
        assert_eq!(m.read(b, 32, 4), b"bulk");
        // Reverse direction (src id > dst id) works too.
        m.write(b, 0, b"back");
        m.copy_within(b, 0, a, 0, 4);
        assert_eq!(m.read(a, 0, 4), b"back");
        // Unbacked source copies zeros; unbacked destination discards.
        let u = m.register_unbacked(0, 64);
        m.copy_within(u, 0, a, 4, 4);
        assert_eq!(m.read(a, 4, 4), vec![0; 4]);
        m.copy_within(a, 0, u, 0, 4); // no panic, no effect
        assert_eq!(m.read(u, 0, 4), vec![0; 4]);
    }

    #[test]
    fn copy_within_handles_seams_and_elision() {
        let mut m = MemoryPool::new();
        let a = m.register(0, 4 * CHUNK_BYTES);
        let b = m.register(0, 4 * CHUNK_BYTES);
        // Source straddles a seam; destination lands at a different
        // (misaligned) seam, so the walk takes three pieces.
        let pattern: Vec<u8> = (0..96u32).map(|i| (i * 7 + 1) as u8).collect();
        m.write(a, CHUNK_BYTES - 40, &pattern);
        m.copy_within(a, CHUNK_BYTES - 40, b, 2 * CHUNK_BYTES - 13, 96);
        assert_eq!(m.read(b, 2 * CHUNK_BYTES - 13, 96), pattern);
        // Copying from untouched source chunks is elided on untouched
        // destination chunks: no materialization either side.
        let before = m.resident_bytes();
        m.copy_within(a, 3 * CHUNK_BYTES, b, 3 * CHUNK_BYTES, 512);
        assert_eq!(m.resident_bytes(), before, "zero-copy of zeros stays sparse");
    }

    #[test]
    fn slices_expose_ranges_and_unbacked_is_none() {
        let mut m = MemoryPool::new();
        let mr = m.register(0, 64);
        m.try_slice_mut(mr, 8, 4).unwrap().copy_from_slice(b"data");
        assert_eq!(m.try_slice(mr, 8, 4).unwrap(), b"data");
        assert_eq!(m.read(mr, 8, 4), b"data");
        let u = m.register_unbacked(0, 64);
        assert!(m.try_slice(u, 0, 8).is_none());
        assert!(m.try_slice_mut(u, 0, 8).is_none());
    }

    #[test]
    fn try_slice_serves_the_zero_page_without_materializing() {
        let mut m = MemoryPool::new();
        let mr = m.register(0, 2 * CHUNK_BYTES);
        assert_eq!(m.try_slice(mr, 100, 32).unwrap(), &[0u8; 32]);
        assert_eq!(m.resident_bytes(), 0, "zero-page reads don't materialize");
        // try_slice_mut must materialize (the caller may write anything).
        assert_eq!(m.try_slice_mut(mr, 100, 32).unwrap().len(), 32);
        assert_eq!(m.resident_bytes(), CHUNK_BYTES);
    }

    #[test]
    fn resident_digest_tracks_content_and_placement() {
        let mut m = MemoryPool::new();
        let a = m.register(0, 4 * CHUNK_BYTES);
        let empty = m.resident_digest(a);
        m.write(a, CHUNK_BYTES + 5, b"fleet");
        let one = m.resident_digest(a);
        assert_ne!(empty, one);
        // Same bytes in a different chunk digest differently.
        let b = m.register(0, 4 * CHUNK_BYTES);
        m.write(b, 2 * CHUNK_BYTES + 5, b"fleet");
        assert_ne!(m.resident_digest(b), one);
        // And an identical pool digests identically.
        let mut m2 = MemoryPool::new();
        let a2 = m2.register(0, 4 * CHUNK_BYTES);
        m2.write(a2, CHUNK_BYTES + 5, b"fleet");
        assert_eq!(m2.resident_digest(a2), one);
    }

    #[test]
    fn resident_digest_is_the_bytewise_fold_of_materialized_chunks() {
        // Reference model: plain byte-wise FNV-1a.
        fn bytewise(h: u64, bytes: &[u8]) -> u64 {
            bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
        }
        // Neither a multiple of the chunk size nor of 8: the last chunk
        // is short and ends mid-word.
        let len = 5 * CHUNK_BYTES + 4093;
        let mut m = MemoryPool::new();
        let a = m.register(0, len);
        let mut rng = simcore::SimRng::new(0x5eed);
        for _ in 0..200 {
            let n = 1 + rng.gen_range(300);
            let at = rng.gen_range(len - n);
            match rng.gen_range(4) {
                0 => m.write_zeros(a, at, n),
                1 => m.store_u64(a, rng.gen_range(len / 8) * 8, rng.next_u64()),
                _ => {
                    let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
                    m.write(a, at, &bytes);
                }
            }
        }
        m.write(a, len - 3, b"end");
        let Backing::Sparse(chunks) = &m.region(a).expect("registered").backing else {
            unreachable!("registered backed");
        };
        assert!(chunks.last().expect("chunks").is_some(), "the short last chunk is covered");
        let mut want = 0xcbf2_9ce4_8422_2325;
        for (ci, c) in chunks.iter().enumerate() {
            if let Some(c) = c {
                assert_eq!(c[..], m.read(a, ci as u64 * CHUNK_BYTES, c.len() as u64)[..]);
                want = bytewise(bytewise(want, &(ci as u64).to_le_bytes()), c);
            }
        }
        assert_eq!(m.resident_digest(a), want);
    }
}
