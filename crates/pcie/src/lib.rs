//! # dpc-pcie — simulated PCIe interconnect between host and DPU
//!
//! The paper's DPU sits on PCIe 3.0 x16; every host↔DPU interaction is a
//! DMA operation, a doorbell write, or a PCIe atomic. DPC's headline
//! protocol win is *counting*: an 8 KiB write costs 11 DMA operations over
//! virtio-fs but only 4 over nvme-fs (Figures 2 and 4). This crate provides
//!
//! - [`HostRegion`]: a DMA-able host memory region that really holds bytes,
//!   shared between the host-side drivers and the DPU-side target,
//! - [`DmaEngine`]: performs the copies and counts every operation in
//!   [`PcieCounters`], so protocol implementations can assert their DMA
//!   budgets and the benchmarks can charge per-op latency,
//! - [`PcieModel`]: converts operations into virtual-time costs
//!   (setup latency + bytes / link bandwidth),
//! - [`Sleeper`]: how a DPU-side thread sleeps on a word another thread
//!   writes and is woken by the write itself — the event a real device
//!   raises on a doorbell, instead of a core polling an idle register. The
//!   prefetcher sleeps on its job queue the same way.
//!
//! No timing happens here at copy time — the functional copy and the
//! virtual-time charge are separated so tests can exercise the data path
//! with real threads while benchmarks replay costs in `dpc-sim`.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod alloc;
mod sleeper;

pub use sleeper::Sleeper;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpc_fault::Nanos;
use parking_lot::RwLock;

/// Usable bytes/sec of one PCIe 3.0 lane after 128b/130b encoding and
/// protocol overhead.
const GEN3_LANE_BYTES_PER_SEC: f64 = 0.985e9;

/// Timing model for the link. Defaults match the paper's testbed
/// (PCIe 3.0 x16 ≈ 15.75 GB/s; §4.1 reports nvme-fs saturating it at
/// 15.1/14.3 GB/s).
#[derive(Copy, Clone, Debug)]
pub struct PcieModel {
    /// PCIe 3.0 lanes.
    pub lanes: u32,
    /// Fixed cost to set up and complete one DMA operation (descriptor
    /// fetch, TLP round trip, engine scheduling).
    pub dma_setup: Nanos,
    /// Cost of ringing a doorbell (posted MMIO write).
    pub doorbell: Nanos,
    /// Cost of one PCIe atomic (CAS / fetch-add on host memory).
    pub atomic: Nanos,
}

impl Default for PcieModel {
    fn default() -> Self {
        PcieModel {
            lanes: 16,
            dma_setup: Nanos::from_micros(2.0),
            doorbell: Nanos::from_micros(0.4),
            atomic: Nanos::from_micros(0.85),
        }
    }
}

impl PcieModel {
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        GEN3_LANE_BYTES_PER_SEC * self.lanes as f64
    }

    /// Virtual-time cost of one DMA operation moving `bytes`.
    pub fn dma_time(&self, bytes: u64) -> Nanos {
        self.dma_setup + Nanos::for_transfer(bytes, self.bandwidth_bytes_per_sec())
    }

    /// Pure wire time for `bytes`, without per-op setup — used when several
    /// operations are coalesced into one engine transaction.
    pub fn transfer_time(&self, bytes: u64) -> Nanos {
        Nanos::for_transfer(bytes, self.bandwidth_bytes_per_sec())
    }
}

/// Monotonic counters for everything that crossed the link.
#[derive(Default, Debug)]
struct PcieCounters {
    dma_ops: AtomicU64,
    dma_bytes: AtomicU64,
    doorbells: AtomicU64,
    atomics: AtomicU64,
}

/// A point-in-time copy of a [`DmaEngine`]'s counters, used to diff
/// around a request.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct PcieSnapshot {
    pub dma_ops: u64,
    pub dma_bytes: u64,
    pub doorbells: u64,
    pub atomics: u64,
}

impl PcieSnapshot {
    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &PcieSnapshot) -> PcieSnapshot {
        PcieSnapshot {
            dma_ops: self.dma_ops - earlier.dma_ops,
            dma_bytes: self.dma_bytes - earlier.dma_bytes,
            doorbells: self.doorbells - earlier.doorbells,
            atomics: self.atomics - earlier.atomics,
        }
    }
}

impl PcieCounters {
    fn snapshot(&self) -> PcieSnapshot {
        PcieSnapshot {
            dma_ops: self.dma_ops.load(Ordering::Relaxed),
            dma_bytes: self.dma_bytes.load(Ordering::Relaxed),
            doorbells: self.doorbells.load(Ordering::Relaxed),
            atomics: self.atomics.load(Ordering::Relaxed),
        }
    }

    fn record_dma(&self, bytes: u64) {
        self.dma_ops.fetch_add(1, Ordering::Relaxed);
        self.dma_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// An access to a [`HostRegion`] that would fall outside its bounds
/// (including `offset + len` overflowing `usize`). Carried as data so a
/// recovery scan over a corrupt log tail can stop cleanly instead of
/// panicking a thread.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RegionError {
    /// Requested start offset.
    pub offset: usize,
    /// Requested length.
    pub len: usize,
    /// The region's actual size.
    pub region_len: usize,
}

impl core::fmt::Display for RegionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "range {}..{}+{} outside region of {} bytes",
            self.offset, self.offset, self.len, self.region_len
        )
    }
}

impl std::error::Error for RegionError {}

/// Granularity of a PRP-described transfer: a DMA write of `n` bytes
/// produced in place ([`DmaEngine::dma_write_in_place`]) is charged one
/// operation per page.
pub const DMA_PAGE: usize = 4096;

/// A DMA-able region of host memory.
///
/// Cheaply cloneable (shared). The "host side" accesses it directly with
/// [`HostRegion::write_local`] / [`read_local`](HostRegion::read_local)
/// (ordinary CPU loads/stores — free of DMA accounting); the "DPU side"
/// must go through a [`DmaEngine`], which counts operations.
#[derive(Clone)]
pub struct HostRegion {
    inner: Arc<RwLock<Vec<u8>>>,
    /// Fixed at creation: the bytes are never resized.
    len: usize,
}

impl HostRegion {
    pub fn new(len: usize) -> Self {
        HostRegion {
            inner: Arc::new(RwLock::new(vec![0; len])),
            len,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Host-CPU store into the region (no DMA accounting).
    ///
    /// # Panics
    ///
    /// Panics when `offset + src.len()` overflows or lands past the end
    /// of the region. Callers whose offsets come from *trusted* layout
    /// math (queue rings, fixed headers) use this form; anything parsing
    /// offsets out of region *contents* — e.g. the intent-log recovery
    /// scan walking a possibly-corrupt tail — must read through
    /// [`try_read_local`](Self::try_read_local) instead, so corrupt
    /// lengths surface as typed errors rather than panics.
    pub fn write_local(&self, offset: usize, src: &[u8]) {
        self.try_write_local(offset, src)
            .unwrap_or_else(|e| panic!("HostRegion::write_local: {e}"));
    }

    /// Host-CPU load from the region (no DMA accounting).
    ///
    /// # Panics
    ///
    /// Panics when `offset + dst.len()` overflows or lands past the end
    /// of the region — see [`write_local`](Self::write_local) for the
    /// trusted-offset contract and the fallible alternatives.
    pub fn read_local(&self, offset: usize, dst: &mut [u8]) {
        self.try_read_local(offset, dst)
            .unwrap_or_else(|e| panic!("HostRegion::read_local: {e}"));
    }

    /// Fallible host-CPU store: a range that overflows or falls outside
    /// the region returns [`RegionError`] and writes nothing (never a
    /// partial copy).
    fn try_write_local(&self, offset: usize, src: &[u8]) -> Result<(), RegionError> {
        let mut guard = self.inner.write();
        let dst = Self::checked_range(guard.len(), offset, src.len())?;
        guard[dst].copy_from_slice(src);
        Ok(())
    }

    /// Fallible host-CPU load: a range that overflows or falls outside
    /// the region returns [`RegionError`] and leaves `dst` untouched.
    pub fn try_read_local(&self, offset: usize, dst: &mut [u8]) -> Result<(), RegionError> {
        let guard = self.inner.read();
        let src = Self::checked_range(guard.len(), offset, dst.len())?;
        dst.copy_from_slice(&guard[src]);
        Ok(())
    }

    /// Store bytes produced in place: `fill` is lent `[offset, offset +
    /// cap)` under the region's write guard and returns how many bytes
    /// `n` it wrote at the front of it — `fill`'s own writes are the one
    /// copy. Returns `n`. An empty range is lent without the guard: there
    /// is nothing to store, and nothing to wait for. Whoever holds the
    /// guard's other side (a reader copying out) waits out `fill`, so
    /// `fill` must never wait on a lock such a reader holds.
    ///
    /// # Panics
    ///
    /// Like [`write_local`](Self::write_local), when the range is not
    /// inside the region; and when `fill` reports more than `cap` bytes.
    fn write_local_in_place(
        &self,
        offset: usize,
        cap: usize,
        fill: impl FnOnce(&mut [u8]) -> usize,
    ) -> usize {
        let dst = Self::checked_range(self.len, offset, cap)
            .unwrap_or_else(|e| panic!("HostRegion::write_local_in_place: {e}"));
        let n = if cap == 0 {
            fill(&mut [])
        } else {
            fill(&mut self.inner.write()[dst])
        };
        assert!(n <= cap, "filled {n} bytes of a {cap}-byte range");
        n
    }

    /// Host-CPU load of `len` bytes appended to `out`: each byte is
    /// written once, where [`read_local`](Self::read_local) into a `Vec`
    /// needs it sized — zero-filled — first. Reuses `out`'s capacity.
    ///
    /// # Panics
    ///
    /// Like [`read_local`](Self::read_local), when the range is not inside
    /// the region.
    pub fn read_local_extend(&self, offset: usize, len: usize, out: &mut Vec<u8>) {
        let guard = self.inner.read();
        let src = Self::checked_range(guard.len(), offset, len)
            .unwrap_or_else(|e| panic!("HostRegion::read_local_extend: {e}"));
        out.extend_from_slice(&guard[src]);
    }

    fn checked_range(
        region_len: usize,
        offset: usize,
        len: usize,
    ) -> Result<std::ops::Range<usize>, RegionError> {
        let end = offset.checked_add(len).ok_or(RegionError {
            offset,
            len,
            region_len,
        })?;
        if end > region_len {
            return Err(RegionError {
                offset,
                len,
                region_len,
            });
        }
        Ok(offset..end)
    }

    /// Host-CPU read returning a fresh Vec; convenience for tests.
    pub fn read_local_vec(&self, offset: usize, len: usize) -> Vec<u8> {
        let mut v = vec![0; len];
        self.read_local(offset, &mut v);
        v
    }
}

/// The DPU's DMA engine: moves bytes between host regions and DPU-local
/// buffers, counting every DMA operation — one per call, or one per page
/// of an in-place write.
#[derive(Clone, Default)]
pub struct DmaEngine {
    counters: Arc<PcieCounters>,
}

impl DmaEngine {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn snapshot(&self) -> PcieSnapshot {
        self.counters.snapshot()
    }

    /// DPU reads host memory (host → DPU). One DMA operation.
    pub fn dma_read(&self, region: &HostRegion, offset: usize, dst: &mut [u8]) {
        region.read_local(offset, dst);
        self.counters.record_dma(dst.len() as u64);
    }

    /// DPU writes host memory (DPU → host). One DMA operation.
    pub fn dma_write(&self, region: &HostRegion, offset: usize, src: &[u8]) {
        region.write_local(offset, src);
        self.counters.record_dma(src.len() as u64);
    }

    /// DPU writes host memory with bytes produced in place, PRP-style:
    /// `fill` is lent `[offset, offset + cap)` of `region` under its write
    /// guard — an empty range without it — writes straight into it and
    /// returns how many bytes `n` it produced at its front. Charged as the
    /// page-by-page transfer of those bytes: `⌈n / DMA_PAGE⌉` operations
    /// and `n` bytes — none for `n = 0`. Returns `n`.
    pub fn dma_write_in_place(
        &self,
        region: &HostRegion,
        offset: usize,
        cap: usize,
        fill: impl FnOnce(&mut [u8]) -> usize,
    ) -> usize {
        let n = region.write_local_in_place(offset, cap, fill);
        let pages = n.div_ceil(DMA_PAGE) as u64;
        self.counters.dma_ops.fetch_add(pages, Ordering::Relaxed);
        self.counters
            .dma_bytes
            .fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// DPU reads a little-endian u16 from host memory. One DMA operation.
    pub fn dma_read_u16(&self, region: &HostRegion, offset: usize) -> u16 {
        let mut b = [0u8; 2];
        self.dma_read(region, offset, &mut b);
        u16::from_le_bytes(b)
    }

    /// DPU writes a little-endian u16 to host memory. One DMA operation.
    pub fn dma_write_u16(&self, region: &HostRegion, offset: usize, v: u16) {
        self.dma_write(region, offset, &v.to_le_bytes());
    }

    /// PCIe atomic fetch-add on a host-memory u32 (used by the hybrid cache
    /// lock protocol accounting).
    pub fn record_atomic(&self) {
        self.counters.atomics.fetch_add(1, Ordering::Relaxed);
    }

    /// Account one DMA operation over memory this engine does not manage
    /// (e.g. the hybrid cache's host-resident page pool, whose bytes are
    /// accessed through its own lock-protected pointers).
    pub fn record_external_dma(&self, bytes: u64) {
        self.counters.record_dma(bytes);
    }

    /// Doorbell ring (host notifying the DPU, or vice versa).
    pub fn ring_doorbell(&self) {
        self.counters.doorbells.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen3_x16_bandwidth_matches_paper() {
        let m = PcieModel::default();
        let gbps = m.bandwidth_bytes_per_sec() / 1e9;
        // Paper: "PCIe3.0 x16, around 15.7GB/s".
        assert!((15.0..16.5).contains(&gbps), "{gbps}");
    }

    #[test]
    fn dma_time_includes_setup_and_wire() {
        let m = PcieModel::default();
        let t0 = m.dma_time(0);
        assert_eq!(t0, m.dma_setup);
        let t8k = m.dma_time(8192);
        assert!(t8k > t0);
        assert_eq!(t8k - t0, m.transfer_time(8192));
    }

    #[test]
    fn region_local_round_trip() {
        let r = HostRegion::new(64);
        r.write_local(8, &[1, 2, 3, 4]);
        assert_eq!(r.read_local_vec(8, 4), vec![1, 2, 3, 4]);
        assert_eq!(r.read_local_vec(0, 2), vec![0, 0]);
        assert_eq!(r.len(), 64);
    }

    #[test]
    fn read_local_extend_appends_without_disturbing_what_is_there() {
        let r = HostRegion::new(64);
        r.write_local(8, &[1, 2, 3, 4]);
        let mut out = vec![9];
        r.read_local_extend(8, 4, &mut out);
        r.read_local_extend(64, 0, &mut out);
        assert_eq!(out, vec![9, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "HostRegion::read_local_extend")]
    fn read_local_extend_panics_out_of_range() {
        HostRegion::new(8).read_local_extend(6, 4, &mut Vec::new());
    }

    #[test]
    fn dma_ops_are_counted() {
        let r = HostRegion::new(4096);
        let dma = DmaEngine::new();
        let before = dma.snapshot();
        dma.dma_write(&r, 0, &[7; 512]);
        let mut buf = [0u8; 512];
        dma.dma_read(&r, 0, &mut buf);
        assert_eq!(buf, [7; 512]);
        let delta = dma.snapshot().since(&before);
        assert_eq!(delta.dma_ops, 2);
        assert_eq!(delta.dma_bytes, 1024);
    }

    #[test]
    fn an_in_place_write_is_charged_per_page_of_what_it_produced() {
        let r = HostRegion::new(5 * DMA_PAGE);
        let dma = DmaEngine::new();
        for (n, ops) in [
            (0, 0),
            (1, 1),
            (DMA_PAGE, 1),
            (DMA_PAGE + 1, 2),
            (4 * DMA_PAGE, 4),
        ] {
            let before = dma.snapshot();
            let wrote = dma.dma_write_in_place(&r, 64, 4 * DMA_PAGE, |dst| {
                assert_eq!(dst.len(), 4 * DMA_PAGE);
                dst[..n].fill(n as u8 | 1);
                n
            });
            let delta = dma.snapshot().since(&before);
            assert_eq!((wrote, delta.dma_ops, delta.dma_bytes), (n, ops, n as u64));
            assert!(r.read_local_vec(64, n).iter().all(|&b| b == n as u8 | 1));
        }
        // Nothing to lend: the fill still runs, over no bytes.
        assert_eq!(
            dma.dma_write_in_place(&r, 5 * DMA_PAGE, 0, |dst| dst.len()),
            0
        );
    }

    #[test]
    #[should_panic(expected = "HostRegion::write_local_in_place")]
    fn an_in_place_write_outside_the_region_panics_before_the_fill() {
        HostRegion::new(8).write_local_in_place(6, 4, |_| unreachable!());
    }

    #[test]
    #[should_panic(expected = "filled 5 bytes of a 4-byte range")]
    fn a_fill_claiming_more_than_it_was_lent_panics() {
        HostRegion::new(8).write_local_in_place(0, 4, |_| 5);
    }

    #[test]
    fn doorbells_and_atomics_counted_separately() {
        let dma = DmaEngine::new();
        dma.ring_doorbell();
        dma.ring_doorbell();
        dma.record_atomic();
        let s = dma.snapshot();
        assert_eq!(s.doorbells, 2);
        assert_eq!(s.atomics, 1);
        assert_eq!(s.dma_ops, 0);
    }

    #[test]
    fn u16_helpers() {
        let r = HostRegion::new(16);
        let dma = DmaEngine::new();
        dma.dma_write_u16(&r, 4, 0xBEEF);
        assert_eq!(dma.dma_read_u16(&r, 4), 0xBEEF);
        assert_eq!(dma.snapshot().dma_ops, 2);
    }

    #[test]
    fn try_accessors_reject_out_of_range() {
        let r = HostRegion::new(64);
        // In-bounds round trip works.
        assert_eq!(r.try_write_local(60, &[9, 9, 9, 9]), Ok(()));
        let mut buf = [0u8; 4];
        assert_eq!(r.try_read_local(60, &mut buf), Ok(()));
        assert_eq!(buf, [9, 9, 9, 9]);

        // One past the end.
        let err = r.try_write_local(61, &[0; 4]).unwrap_err();
        assert_eq!((err.offset, err.len, err.region_len), (61, 4, 64));
        // Offset itself past the end.
        assert!(r.try_read_local(64, &mut [0u8; 1]).is_err());
        // offset + len overflows usize — must error, not wrap to "fits".
        assert!(r.try_read_local(usize::MAX, &mut [0u8; 2]).is_err());
        assert!(r.try_write_local(usize::MAX - 1, &[0; 4]).is_err());
        // A failed read leaves dst untouched.
        let mut untouched = [7u8; 4];
        assert!(r.try_read_local(62, &mut untouched).is_err());
        assert_eq!(untouched, [7; 4]);
        // Zero-length accesses at the boundary are fine.
        assert_eq!(r.try_read_local(64, &mut []), Ok(()));
        assert_eq!(r.try_write_local(64, &[]), Ok(()));
    }

    #[test]
    #[should_panic(expected = "HostRegion::read_local")]
    fn infallible_read_panics_out_of_range() {
        let r = HostRegion::new(8);
        let mut buf = [0u8; 4];
        r.read_local(6, &mut buf);
    }

    #[test]
    #[should_panic(expected = "HostRegion::write_local")]
    fn infallible_write_panics_out_of_range() {
        let r = HostRegion::new(8);
        r.write_local(6, &[0; 4]);
    }

    #[test]
    fn shared_region_visible_across_clones() {
        let r = HostRegion::new(8);
        let r2 = r.clone();
        r.write_local(0, &[42]);
        assert_eq!(r2.read_local_vec(0, 1), vec![42]);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let r = HostRegion::new(4096);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let r = r.clone();
                s.spawn(move || {
                    let pat = vec![t as u8 + 1; 512];
                    r.write_local(t * 512, &pat);
                });
            }
        });
        for t in 0..8usize {
            assert_eq!(r.read_local_vec(t * 512, 512), vec![t as u8 + 1; 512]);
        }
    }
}
