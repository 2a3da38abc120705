//! The DPU-resident cache control plane.
//!
//! Offloading exactly this logic is the hybrid cache's contribution: the
//! host never spends cycles on replacement, flushing or prefetching — the
//! DPU does, reaching the host-resident meta/data areas with PCIe atomics
//! and DMA transfers (all accounted through the [`DmaEngine`]).
//!
//! - **Flush** (paper's back-end write path): walk the dirty-range
//!   index, read-lock an inode's dirty pages, coalesced into runs of
//!   adjacent pages, pull them to DPU DRAM by DMA, hand the batch of runs
//!   to the [`FlushBackend`] to write to disaggregated storage as one
//!   request, then mark the entries clean and release the locks
//!   ([`flush_extents`](ControlPlane::flush_extents)).
//! - **Replacement**: when the host fails to allocate in a bucket it
//!   notifies the DPU, which evicts the least-recently-touched clean entry.
//! - **Prefetch**: the dispatcher feeds the miss stream into the
//!   [`ReadaheadTable`](crate::ReadaheadTable); planned windows are
//!   queued and *filled here*, on a background thread, by
//!   [`fill_window`](ControlPlane::fill_window) — one vectored backend
//!   read per contiguous window, throttled by cache pressure (this is
//!   what produces the paper's 100× single-thread sequential-read
//!   speed-up in Figure 8, without the demand path ever waiting on a
//!   fill).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use dpc_fault::CrashSwitch;
use dpc_pcie::DmaEngine;

use crate::host::HybridCache;
use crate::layout::{EntryStatus, FLAG_MARKER, FLAG_PREFETCHED, PAGE_SIZE};
use crate::readahead::PrefetchJob;

/// Back-end sink for flushed dirty pages (the disaggregated store).
pub trait FlushBackend {
    /// Write one batch of `ino`'s dirty pages as one request. `runs` are
    /// the batch's coalesced extents in LPN order, each `(lpn, len)`: the
    /// `len` bytes of pages `lpn..`, every page full-size except possibly a
    /// run's last, which may be a file-tail valid prefix. `data` holds the
    /// runs back to back. `false` means the backend refused the batch
    /// whole: every page of it stays dirty and a later pass retries it.
    fn try_flush_batch(&mut self, ino: u64, runs: &[(u64, usize)], data: &[u8]) -> bool;
}

/// An infallible per-page sink: the closure sees the batch page by page.
impl<F: FnMut(u64, u64, &[u8])> FlushBackend for F {
    fn try_flush_batch(&mut self, ino: u64, runs: &[(u64, usize)], data: &[u8]) -> bool {
        let mut at = 0;
        for &(lpn, len) in runs {
            for (k, page) in data[at..at + len].chunks(PAGE_SIZE).enumerate() {
                self(ino, lpn + k as u64, page);
            }
            at += len;
        }
        true
    }
}

/// Bytes one flush batch may hold: the runs of one inode a pass hands the
/// backend as one request, all of them read-locked until it answers. A
/// host writer that meets a page of the batch waits out the rest of it, so
/// the budget is sized from that wait (DESIGN.md §8.1, measured in release
/// on a 2-vCPU x86 box): a batch of 64 scattered 2-page runs into KVFS
/// holds its locks for 85–160 µs at the median, and a writer that meets
/// its first page waits 55–120 µs (p99 ≤ 0.21 ms) — against 2.4 µs for
/// one 2-page run, the unit before batches. 128 pages are what one fsync
/// of 64 scattered 8 KiB writes dirties, so such an fsync is one request.
const FLUSH_BATCH_BYTES: usize = 128 * PAGE_SIZE;

/// In-pass reissues of a refused batch before its pages are left dirty
/// for the next pass.
const FLUSH_RETRIES: u32 = 3;

/// Back-end source for prefetched pages.
pub trait ReadBackend {
    /// Fill `out` with the page and return how many bytes are *valid*
    /// (a file's tail page is valid only up to its logical end; the rest
    /// of `out` must be zeroed padding). `None` when the page does not
    /// exist at all (past EOF) — it is then not inserted.
    fn read_page(&mut self, ino: u64, lpn: u64, out: &mut [u8]) -> Option<usize>;

    /// Vectored fill: read `out.len() / PAGE_SIZE` consecutive pages
    /// starting at `start` into `out`, returning total *valid* bytes
    /// (short at EOF; the rest of the page EOF falls in is zeroed
    /// padding). `out` arrives holding whatever the last fill left in it
    /// and pages wholly past EOF need not be touched — the caller never
    /// looks at them. The default decomposes into per-page reads;
    /// backends with a cheaper multi-page path (one contiguous KVFS
    /// `read`) override it.
    fn read_pages(&mut self, ino: u64, start: u64, out: &mut [u8]) -> usize {
        let mut total = 0;
        for (k, page) in out.chunks_mut(PAGE_SIZE).enumerate() {
            match self.read_page(ino, start + k as u64, page) {
                Some(v) => {
                    total += v;
                    if v < page.len() {
                        break;
                    }
                }
                None => break,
            }
        }
        total
    }
}

impl<F: FnMut(u64, u64, &mut [u8]) -> Option<usize>> ReadBackend for F {
    fn read_page(&mut self, ino: u64, lpn: u64, out: &mut [u8]) -> Option<usize> {
        self(ino, lpn, out)
    }
}

/// Default cap on pages per coalesced extent (256 KiB of data).
pub const DEFAULT_EXTENT_PAGES: usize = 64;

/// The flush batch being assembled, reused across passes: every buffer
/// keeps its high-water length.
#[derive(Default)]
struct Batch {
    /// The runs' bytes back to back: the batch is `buf[..len]`. Window
    /// fills share it. Neither clears it: they size it up when they
    /// outgrow it and overwrite the part they use.
    buf: Vec<u8>,
    len: usize,
    /// Read-locked entry indices, in LPN order.
    locked: Vec<usize>,
    /// `(first LPN, bytes)` of each run, as the backend is handed them.
    runs: Vec<(u64, usize)>,
    /// Pages of each run.
    pages: Vec<usize>,
}

/// Outcome of a single prefetch-insert attempt.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum PrefetchInsert {
    /// A fresh entry was claimed and filled.
    Inserted,
    /// The page is already cached (possibly dirty) — the fill was
    /// discarded, per the no-clobber rule.
    Present,
    /// No free slot in the bucket. Prefetch never evicts to make room.
    NoSlot,
}

/// The DPU control plane attached to one hybrid cache.
pub struct ControlPlane {
    cache: Arc<HybridCache>,
    dma: DmaEngine,
    /// Cap on pages coalesced into one run of a flush batch.
    pub max_extent_pages: usize,
    /// The flush batch (pages pulled to DPU DRAM), and the window fills'
    /// buffer.
    batch: Batch,
    /// Simulated DPU crash switch (DESIGN.md §13.3). Interior flush points
    /// draw it; once tripped every flush entry point returns 0 without
    /// touching the cache — the "DPU is dead" state recovery tests rely on.
    crash: Option<Arc<CrashSwitch>>,
    /// Pages the last [`flush_extents`](Self::flush_extents) pass left
    /// dirty because the backend refused their batch.
    refused: usize,
    /// Pages the last pass skipped because a host writer held them.
    busy: usize,
}

impl ControlPlane {
    pub fn new(cache: Arc<HybridCache>, dma: DmaEngine) -> ControlPlane {
        ControlPlane {
            cache,
            dma,
            max_extent_pages: DEFAULT_EXTENT_PAGES,
            batch: Batch::default(),
            crash: None,
            refused: 0,
            busy: 0,
        }
    }

    pub fn cache(&self) -> &Arc<HybridCache> {
        &self.cache
    }

    /// Attach the simulated DPU crash switch. Flush paths then draw it at
    /// their interior injection point (mid-flush) and go inert once it trips.
    pub fn set_crash_switch(&mut self, crash: Option<Arc<CrashSwitch>>) {
        self.crash = crash;
    }

    fn crash_tripped(&self) -> bool {
        self.crash.as_ref().is_some_and(|c| c.is_tripped())
    }

    /// Batched flush pass: walk the per-ino dirty-range index (no
    /// meta-area scan), read-lock each inode's dirty pages, coalesced into
    /// runs of adjacent LPNs, pull them to DPU DRAM as one buffer and hand
    /// the batch — up to [`FLUSH_BATCH_BYTES`] of one inode's runs — to the
    /// backend as a single [`FlushBackend::try_flush_batch`] call.
    ///
    /// With `ino_filter`, only that inode's pages flush (`Sync` waits only
    /// for its own file's residual). `background` attributes the flushed
    /// pages to the background or foreground counters.
    ///
    /// A run ends at [`max_extent_pages`](Self::max_extent_pages), at a gap
    /// and at a partial (file-tail) page: only valid prefixes are ever
    /// sent, so a coalesced write can never push padding past a file's
    /// logical end. A refused batch is retried [`FLUSH_RETRIES`] times
    /// in-pass, then left dirty *whole*: the dirty index stays the one
    /// record of unflushed bytes, the pages cannot be evicted, the next
    /// pass retries them, and [`refused`](Self::refused) says how many
    /// this pass gave up on. A page a host writer holds is skipped, never
    /// waited for, and [`busy`](Self::busy) says how many were.
    ///
    /// Flushing keeps taking per-entry *read locks* even when the
    /// front-end hit path runs lock-free (DESIGN.md §4.2): an optimistic
    /// flusher that snapshotted a page, wrote it to the backend and then
    /// failed seqlock revalidation would already have published
    /// potentially stale bytes — two concurrent flushers could then race
    /// a host overwrite and leave the backend holding the older version.
    /// The lock pins the bytes for the duration of the backend write.
    /// The front end no longer blocks on these locks (readers validate
    /// versions instead), so the cost stays off the hit path; these
    /// control-plane acquisitions are deliberately *not* counted in the
    /// `read_locks` stat, which proves the hit path alone.
    pub fn flush_extents(
        &mut self,
        backend: &mut dyn FlushBackend,
        ino_filter: Option<u64>,
        background: bool,
    ) -> usize {
        self.refused = 0;
        self.busy = 0;
        if self.crash_tripped() {
            return 0;
        }
        let mut flushed = 0;
        let snapshot = self.cache.dirty_snapshot(ino_filter);
        let mut batch = std::mem::take(&mut self.batch);
        'inodes: for (ino, lpns) in snapshot {
            let mut rest = &lpns[..];
            while !rest.is_empty() {
                rest = self.assemble(ino, rest, &mut batch);
                if batch.locked.is_empty() {
                    continue;
                }
                match self.land(backend, ino, &batch, background) {
                    Some(pages) => flushed += pages,
                    None => break 'inodes,
                }
            }
        }
        self.batch = batch;
        flushed
    }

    /// Read-lock `ino`'s still-dirty pages from the head of `lpns` into
    /// `batch` until its budget is full, coalescing adjacent ones into
    /// runs. Returns the LPNs left for the next batch.
    fn assemble<'l>(&mut self, ino: u64, lpns: &'l [u64], batch: &mut Batch) -> &'l [u64] {
        batch.len = 0;
        batch.locked.clear();
        batch.runs.clear();
        batch.pages.clear();
        let max_pages = self.max_extent_pages.max(1);
        // The LPN that would extend the current run.
        let mut extends = None;
        for (n, &lpn) in lpns.iter().enumerate() {
            if batch.len + PAGE_SIZE > FLUSH_BATCH_BYTES {
                return &lpns[n..];
            }
            let Some(idx) = self.find_entry(ino, lpn) else {
                extends = None;
                continue;
            };
            let e = &self.cache.entries[idx];
            // PCIe atomic: add the read lock.
            self.dma.record_atomic();
            if !e.try_read_lock() {
                // A host writer holds it: never waited for here (the
                // writer may be waiting on this very thread), reported.
                self.busy += 1;
                extends = None;
                continue;
            }
            // Re-validate under the lock — the snapshot is stale by
            // construction.
            if e.status() != EntryStatus::Dirty || e.ino() != ino || e.lpn() != lpn {
                self.dma.record_atomic();
                e.read_unlock();
                extends = None;
                continue;
            }
            let valid = (e.valid() as usize).min(PAGE_SIZE);
            let at = batch.len;
            if batch.buf.len() < at + valid {
                batch.buf.resize(at + valid, 0);
            }
            // SAFETY: read lock held on entry `idx`.
            unsafe {
                self.cache
                    .pages
                    .read(idx, 0, &mut batch.buf[at..at + valid])
            };
            batch.len += valid;
            self.dma.record_external_dma(valid as u64);
            batch.locked.push(idx);
            match (batch.runs.last_mut(), batch.pages.last_mut()) {
                (Some(run), Some(pages)) if extends == Some(lpn) && *pages < max_pages => {
                    run.1 += valid;
                    *pages += 1;
                }
                _ => {
                    batch.runs.push((lpn, valid));
                    batch.pages.push(1);
                }
            }
            // A short page ends its run.
            extends = (valid == PAGE_SIZE).then_some(lpn + 1);
        }
        &[]
    }

    /// Hand the assembled batch to `backend` as one request — reissued
    /// in-pass, then left dirty whole if still refused — and release its
    /// pages: the pages it landed, or `None` when the DPU is dead. A DPU
    /// that died since the last batch (a trip from another thread) offers
    /// this one nothing; one that dies after the backend took it leaves
    /// it dirty.
    fn land(
        &mut self,
        backend: &mut dyn FlushBackend,
        ino: u64,
        batch: &Batch,
        background: bool,
    ) -> Option<usize> {
        let stats = &self.cache.stats;
        let data = &batch.buf[..batch.len];
        let dead = self.crash_tripped();
        let mut tries = 0;
        let mut ok = !dead && backend.try_flush_batch(ino, &batch.runs, data);
        while !dead && !ok && tries < FLUSH_RETRIES {
            tries += 1;
            stats.flush_retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(50 << tries));
            ok = backend.try_flush_batch(ino, &batch.runs, data);
        }
        let pages = batch.locked.len();
        let crashed = dead || ok && self.crash.as_ref().is_some_and(|c| c.check_crash());
        if crashed {
            // Dead before the batch, or after the backend took it: no page
            // of it is marked clean — recovery adopts the dirty pages and
            // flushes them (again: idempotent).
        } else if ok {
            // Counted before any page turns clean: a `stat` that finds a
            // page gone from the dirty index sees the count moved
            // (`HybridCache::flushed`).
            stats.flushes.fetch_add(pages as u64, Ordering::Relaxed);
            // Clean each run with one dirty-shard acquisition, not one per
            // page. The read locks stay held until every status is Clean
            // and the index entries are gone, so no writer can interleave.
            let mut locked = &batch.locked[..];
            for (&(lpn, _), &n) in batch.runs.iter().zip(&batch.pages) {
                let (run, next) = locked.split_at(n);
                for &idx in run {
                    self.cache.entries[idx].set_status(EntryStatus::Clean);
                }
                self.cache.note_clean_run(ino, lpn, n);
                stats.record_extent(n);
                locked = next;
            }
            let cell = if background {
                &stats.bg_flush_pages
            } else {
                &stats.fg_flush_pages
            };
            cell.fetch_add(pages as u64, Ordering::Relaxed);
        } else {
            // Refused whole: every page stays dirty — indexed, unevictable
            // — and the next pass retries it.
            stats
                .flush_failures
                .fetch_add(pages as u64, Ordering::Relaxed);
            self.refused += pages;
        }
        for &idx in &batch.locked {
            // PCIe atomic: release the read lock.
            self.dma.record_atomic();
            self.cache.entries[idx].read_unlock();
        }
        (!crashed).then_some(if ok { pages } else { 0 })
    }

    /// Pages the last [`flush_extents`](Self::flush_extents) pass left
    /// dirty because the backend refused their batch through every retry.
    pub fn refused(&self) -> usize {
        self.refused
    }

    /// Pages the last [`flush_extents`](Self::flush_extents) pass skipped
    /// because a host writer held them: still dirty, neither refused nor
    /// written. A scoped `Sync` that leaves one behind has not made its
    /// inode durable.
    pub fn busy(&self) -> usize {
        self.busy
    }

    /// Locate the cache entry currently holding `<ino, lpn>`, if any.
    fn find_entry(&self, ino: u64, lpn: u64) -> Option<usize> {
        let bucket = self.cache.bucket_of(ino, lpn);
        self.cache.chain(bucket).find(|&idx| {
            let e = &self.cache.entries[idx];
            e.ino() == ino && e.lpn() == lpn && e.status() != EntryStatus::Free
        })
    }

    /// Batched replacement: one command frees slots in many buckets (the
    /// multi-bucket `CacheEvictBatch` wire op — one doorbell, one
    /// round-trip for a whole write burst). Buckets may repeat: each
    /// occurrence asks for one freed slot. On the first bucket with
    /// nothing clean to evict, a single foreground extent-flush pass runs
    /// and the bucket is retried — never one flush per page. Returns the
    /// number of slots freed.
    pub fn evict_batch(&mut self, buckets: &[usize], backend: &mut dyn FlushBackend) -> usize {
        self.cache
            .stats
            .batched_evictions
            .fetch_add(1, Ordering::Relaxed);
        let mut freed = 0usize;
        let mut flushed_once = false;
        for &bucket in buckets {
            if self.evict_one(bucket) {
                freed += 1;
                continue;
            }
            if !flushed_once {
                self.flush_extents(backend, None, false);
                flushed_once = true;
            }
            if self.evict_one(bucket) {
                freed += 1;
            }
        }
        freed
    }

    /// Cache replacement in one bucket: evict the least-recently-touched
    /// clean entry. Returns whether a slot was freed.
    ///
    /// Dirty entries are never evicted directly — the caller should run a
    /// [`flush_extents`](Self::flush_extents) first if this returns `false`.
    pub fn evict_one(&self, bucket: usize) -> bool {
        let _claim = self.cache.bucket_claim[bucket].lock();
        // Choose the clean entry with the oldest touch stamp.
        let mut victim: Option<(usize, u64)> = None;
        for idx in self.cache.chain(bucket) {
            let e = &self.cache.entries[idx];
            if e.status() == EntryStatus::Clean {
                let t = self.cache.touch[idx].load(Ordering::Relaxed);
                if victim.is_none_or(|(_, vt)| t < vt) {
                    victim = Some((idx, t));
                }
            }
        }
        let Some((idx, _)) = victim else {
            return false;
        };
        let e = &self.cache.entries[idx];
        self.dma.record_atomic();
        if !e.try_write_lock() {
            return false;
        }
        let ok = e.status() == EntryStatus::Clean;
        if ok {
            self.cache.note_resident(e.ino(), e.lpn(), false);
            e.set_status(EntryStatus::Free);
            e.ino.store(0, Ordering::Release);
            e.lpn.store(0, Ordering::Release);
            e.flags.store(0, Ordering::Release);
            self.cache.header.free.fetch_add(1, Ordering::Relaxed);
            self.cache.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.dma.record_atomic();
        e.write_unlock();
        ok
    }

    /// Whether any entry (clean or dirty) currently occupies `bucket`.
    /// Lets an eviction caller distinguish "nothing to evict because the
    /// bucket is empty" (benign) from "populated but nothing evictable"
    /// (the host must fall back to write-through).
    pub fn bucket_occupied(&self, bucket: usize) -> bool {
        let _claim = self.cache.bucket_claim[bucket].lock();
        self.cache
            .chain(bucket)
            .any(|idx| self.cache.entries[idx].status() != EntryStatus::Free)
    }

    /// Insert a page fetched from the backend as *clean* (prefetch /
    /// read-miss fill). DMA-writes the page into the host data area.
    /// Returns `false` when the bucket has no free slot and eviction
    /// could not make one; `true` when the page is cached afterwards —
    /// which includes the already-present case, where the fill is
    /// *discarded* (the cached copy is at least as new as the backend's,
    /// and may hold an unflushed write). The whole of `data` is stored,
    /// and all of it is marked valid.
    pub fn insert_clean(&self, ino: u64, lpn: u64, data: &[u8]) -> bool {
        assert!(data.len() <= PAGE_SIZE);
        let mut guard = match self.cache.begin_write(ino, lpn) {
            Ok(g) => g,
            Err(crate::host::WriteError::NeedEviction { bucket }) => {
                if !self.evict_one(bucket) {
                    return false;
                }
                match self.cache.begin_write(ino, lpn) {
                    Ok(g) => g,
                    Err(_) => return false,
                }
            }
        };
        if !guard.claimed_free() {
            // The page is already cached — and the cached copy is at
            // least as new as what the backend returned (a host write may
            // have dirtied it after this fill's backend read). Clobbering
            // it with backend bytes and committing *clean* would silently
            // destroy an unflushed write. Dropping the guard just
            // releases the lock; the entry is untouched.
            return true;
        }
        guard.write(0, data);
        guard.set_valid(data.len());
        self.dma.record_external_dma(data.len() as u64);
        guard.commit_clean();
        self.cache
            .stats
            .prefetch_inserts
            .fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Prefetch insert: like [`insert_clean`](Self::insert_clean), but
    /// only the first `valid` bytes count, it never evicts (readahead
    /// must not force out pages an application put there) and it tags the
    /// entry's readahead flag bits before committing.
    fn insert_prefetched(
        &self,
        ino: u64,
        lpn: u64,
        data: &[u8],
        valid: usize,
        flags: u32,
    ) -> PrefetchInsert {
        debug_assert!(valid <= data.len() && data.len() <= PAGE_SIZE);
        match self.cache.begin_write(ino, lpn) {
            Ok(mut guard) => {
                if !guard.claimed_free() {
                    // Already cached — the cached copy is at least as new
                    // (no-clobber rule); dropping the guard just unlocks.
                    return PrefetchInsert::Present;
                }
                guard.write(0, data);
                guard.set_valid(valid);
                guard.set_flags(flags);
                guard.commit_clean();
                self.cache
                    .stats
                    .prefetch_inserts
                    .fetch_add(1, Ordering::Relaxed);
                PrefetchInsert::Inserted
            }
            Err(crate::host::WriteError::NeedEviction { .. }) => PrefetchInsert::NoSlot,
        }
    }

    /// Free pages a window fill may take right now without pushing the
    /// cache below the `throttle_free` floor. `None` — counted as one
    /// throttled window — when there are none and the fill would be
    /// dropped outright. [`fill_window`](Self::fill_window) asks on entry;
    /// whoever plans windows asks first, so that a window with no chance
    /// is never queued and the prefetcher never woken for it.
    pub fn window_headroom(&self, throttle_free: u64) -> Option<u64> {
        let free = self.cache.header.free();
        if free <= throttle_free {
            self.cache
                .stats
                .ra_throttled
                .fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(free - throttle_free)
    }

    /// Fill one planned readahead window from the backend — the body of
    /// the background prefetcher thread. Returns pages inserted.
    ///
    /// Three rules keep this strictly best-effort:
    ///
    /// - **Cache-pressure throttling**: with `free <= throttle_free` the
    ///   job is dropped outright; otherwise it shrinks to the headroom
    ///   above the watermark. Combined with the no-evict insert, a
    ///   prefetch can never force eviction (let alone of dirty pages).
    /// - **Epoch check**: the inode's content epoch is snapshotted before
    ///   the backend read and re-checked before every insert; any
    ///   concurrent write, flush or invalidate of the inode bumps it and
    ///   aborts the remaining inserts — bytes read before the change
    ///   must not overwrite (or resurrect next to) newer data.
    /// - **No-clobber**: an already-present page is skipped, never
    ///   overwritten ([`insert_prefetched`](Self::insert_prefetched)).
    ///
    /// Sequential windows (`stride == 1`) cost one vectored
    /// [`ReadBackend::read_pages`] call and one DMA; strided windows
    /// fall back to per-page reads.
    pub fn fill_window(
        &mut self,
        job: &PrefetchJob,
        backend: &mut dyn ReadBackend,
        throttle_free: u64,
    ) -> usize {
        let win = &job.window;
        let Some(headroom) = self.window_headroom(throttle_free) else {
            return 0;
        };
        let stats = &self.cache.stats;
        let mut pages = win.pages as u64;
        if pages > headroom {
            // Shrink to what fits above the watermark.
            pages = headroom;
            stats.ra_throttled.fetch_add(1, Ordering::Relaxed);
        }
        let epoch = self.cache.ino_epoch(job.ino);
        let mut inserted = 0usize;
        if win.stride == 1 {
            let want = pages as usize * PAGE_SIZE;
            let mut buf = std::mem::take(&mut self.batch.buf);
            if buf.len() < want {
                buf.resize(want, 0);
            }
            let valid_total = backend.read_pages(job.ino, win.start, &mut buf[..want]);
            // One DMA pushes the whole window into the host data area.
            self.dma.record_external_dma(valid_total as u64);
            for k in 0..pages {
                let off = k as usize * PAGE_SIZE;
                let valid = valid_total.saturating_sub(off).min(PAGE_SIZE);
                if valid == 0 {
                    break; // EOF inside the window
                }
                if self.cache.ino_epoch(job.ino) != epoch {
                    stats.ra_dropped.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                let lpn = win.start + k;
                let mut flags = FLAG_PREFETCHED;
                if win.marker == Some(lpn) {
                    flags |= FLAG_MARKER;
                }
                match self.insert_prefetched(job.ino, lpn, &buf[off..off + PAGE_SIZE], valid, flags)
                {
                    PrefetchInsert::Inserted => inserted += 1,
                    PrefetchInsert::Present => {}
                    PrefetchInsert::NoSlot => break,
                }
            }
            self.batch.buf = buf;
        } else {
            let mut page = [0u8; PAGE_SIZE];
            for k in 0..pages {
                let pos = win.start as i64 + k as i64 * win.stride;
                if pos < 0 {
                    break;
                }
                let lpn = pos as u64;
                if self.cache.ino_epoch(job.ino) != epoch {
                    stats.ra_dropped.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                page.fill(0);
                let Some(valid) = backend.read_page(job.ino, lpn, &mut page) else {
                    break;
                };
                self.dma.record_external_dma(valid as u64);
                match self.insert_prefetched(job.ino, lpn, &page, valid, FLAG_PREFETCHED) {
                    PrefetchInsert::Inserted => inserted += 1,
                    PrefetchInsert::Present => {}
                    PrefetchInsert::NoSlot => break,
                }
            }
        }
        stats.ra_async_fills.fetch_add(1, Ordering::Relaxed);
        inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::CacheConfig;

    fn setup(pages: usize, bucket_entries: usize) -> (Arc<HybridCache>, ControlPlane, DmaEngine) {
        let cache = Arc::new(HybridCache::new(CacheConfig {
            pages,
            bucket_entries,
            mode: 1,
            meta_lockfree: true,
        }));
        let dma = DmaEngine::new();
        let cp = ControlPlane::new(cache.clone(), dma.clone());
        (cache, cp, dma)
    }

    #[test]
    fn flush_writes_dirty_pages_to_backend() {
        let (cache, mut cp, dma) = setup(64, 8);
        for lpn in 0..5u64 {
            let mut g = cache.begin_write(1, lpn).unwrap();
            g.write(0, &[lpn as u8 + 1; PAGE_SIZE]);
            g.commit_dirty();
        }
        let mut sink: Vec<(u64, u64, u8)> = Vec::new();
        let flushed = cp.flush_extents(
            &mut |ino: u64, lpn: u64, page: &[u8]| {
                sink.push((ino, lpn, page[0]));
            },
            None,
            false,
        );
        assert_eq!(flushed, 5);
        sink.sort();
        assert_eq!(
            sink,
            (0..5u64).map(|l| (1, l, l as u8 + 1)).collect::<Vec<_>>()
        );
        assert_eq!(cache.dirty_pages(), 0);
        // Flush cost PCIe atomics (lock+unlock per page) and page DMAs.
        let s = dma.snapshot();
        assert_eq!(s.atomics, 10);
        assert_eq!(s.dma_ops, 5);
        assert_eq!(s.dma_bytes, 5 * PAGE_SIZE as u64);
    }

    #[test]
    fn second_flush_is_empty() {
        let (cache, mut cp, _) = setup(64, 8);
        let mut g = cache.begin_write(1, 1).unwrap();
        g.write(0, &[1; 8]);
        g.commit_dirty();
        assert_eq!(
            cp.flush_extents(&mut |_: u64, _: u64, _: &[u8]| {}, None, false),
            1
        );
        assert_eq!(
            cp.flush_extents(&mut |_: u64, _: u64, _: &[u8]| {}, None, false),
            0
        );
    }

    #[test]
    fn eviction_reclaims_clean_lru() {
        let (cache, mut cp, _) = setup(8, 8); // single bucket
        for lpn in 0..8u64 {
            let mut g = cache.begin_write(1, lpn).unwrap();
            g.write(0, &[9; 8]);
            g.commit_dirty();
        }
        // All dirty: eviction must refuse.
        assert!(!cp.evict_one(0));
        cp.flush_extents(&mut |_: u64, _: u64, _: &[u8]| {}, None, false);
        // Touch pages 1..8 so page lpn=0 is the LRU victim.
        let mut buf = vec![0u8; PAGE_SIZE];
        for lpn in 1..8u64 {
            assert!(cache.lookup_read(1, lpn, &mut buf));
        }
        assert!(cp.evict_one(0));
        assert!(!cache.lookup_read(1, 0, &mut buf), "LRU page evicted");
        assert!(cache.lookup_read(1, 7, &mut buf), "MRU page kept");
        assert_eq!(cache.header().free(), 1);
    }

    #[test]
    fn full_bucket_write_flush_evict_retry() {
        // The paper's protocol: allocation fails -> host notifies DPU ->
        // DPU flushes + evicts -> host retries.
        let (cache, mut cp, _) = setup(8, 8);
        for lpn in 0..8u64 {
            let mut g = cache.begin_write(1, lpn).unwrap();
            g.write(0, &[1; 8]);
            g.commit_dirty();
        }
        let bucket = match cache.begin_write(1, 99) {
            Err(crate::host::WriteError::NeedEviction { bucket }) => bucket,
            other => panic!("{other:?}"),
        };
        cp.flush_extents(&mut |_: u64, _: u64, _: &[u8]| {}, None, false);
        assert!(cp.evict_one(bucket));
        let mut g = cache.begin_write(1, 99).unwrap();
        g.write(0, &[7; 8]);
        g.commit_dirty();
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(cache.lookup_read(1, 99, &mut buf));
    }

    /// Per-page closure backend, usable where a `ReadBackend` is needed.
    struct PageSource<F: FnMut(u64, u64, &mut [u8]) -> Option<usize>>(F);

    impl<F: FnMut(u64, u64, &mut [u8]) -> Option<usize>> ReadBackend for PageSource<F> {
        fn read_page(&mut self, ino: u64, lpn: u64, out: &mut [u8]) -> Option<usize> {
            (self.0)(ino, lpn, out)
        }
    }

    fn job(ino: u64, start: u64, pages: u32, stride: i64, marker: Option<u64>) -> PrefetchJob {
        PrefetchJob {
            ino,
            window: crate::readahead::RaWindow {
                start,
                pages,
                stride,
                marker,
            },
        }
    }

    #[test]
    fn fill_window_inserts_and_flags_marker() {
        let (cache, mut cp, dma) = setup(256, 8);
        let mut backend = PageSource(|ino: u64, lpn: u64, out: &mut [u8]| {
            out.fill((ino * 100 + lpn) as u8);
            Some(out.len())
        });
        let inserted = cp.fill_window(&job(3, 2, 8, 1, Some(6)), &mut backend, 0);
        assert_eq!(inserted, 8);
        assert_eq!(cache.stats().prefetch_inserts, 8);
        assert_eq!(cache.stats().ra_async_fills, 1);
        // One DMA for the whole window, not eight.
        assert_eq!(dma.snapshot().dma_ops, 1);
        // Pages 2..10 are now host hits; the first consumption of each
        // scores a readahead hit, and lpn 6 reports the marker.
        let mut buf = vec![0u8; PAGE_SIZE];
        for lpn in 2..10u64 {
            let hint = cache.lookup_read_hint(3, lpn, &mut buf).expect("hit");
            assert_eq!(buf[0], (300 + lpn) as u8);
            assert_eq!(hint.marker, lpn == 6, "lpn={lpn}");
        }
        assert_eq!(cache.stats().ra_hits, 8);
        // Second reads: still hits, but the flags were consumed.
        let hint = cache.lookup_read_hint(3, 6, &mut buf).unwrap();
        assert!(!hint.marker);
        assert_eq!(cache.stats().ra_hits, 8);
    }

    #[test]
    fn fill_window_stops_at_backend_eof() {
        let (cache, mut cp, _) = setup(256, 8);
        let mut backend = PageSource(|_ino: u64, lpn: u64, out: &mut [u8]| {
            out.fill(1);
            (lpn < 4).then_some(out.len())
        });
        let inserted = cp.fill_window(&job(1, 2, 8, 1, None), &mut backend, 0);
        assert_eq!(inserted, 2); // lpns 2,3 exist; 4 is EOF
        assert_eq!(cache.stats().prefetch_inserts, 2);
    }

    #[test]
    fn fill_window_tail_page_keeps_valid_prefix() {
        let (cache, mut cp, _) = setup(256, 8);
        // 2.5 pages of file: lpn 2 ends after PAGE_SIZE/2 bytes.
        let mut backend = PageSource(|_ino: u64, lpn: u64, out: &mut [u8]| match lpn {
            0..=1 => {
                out.fill(7);
                Some(out.len())
            }
            2 => {
                out[..PAGE_SIZE / 2].fill(7);
                out[PAGE_SIZE / 2..].fill(0);
                Some(PAGE_SIZE / 2)
            }
            _ => None,
        });
        assert_eq!(cp.fill_window(&job(1, 0, 4, 1, None), &mut backend, 0), 3);
        // The tail entry records only the valid prefix, so a later dirty
        // flush of it can never write padding past the logical end.
        let bucket = cache.bucket_of(1, 2);
        let idx = cache
            .chain(bucket)
            .find(|&i| cache.entries[i].ino() == 1 && cache.entries[i].lpn() == 2)
            .unwrap();
        assert_eq!(cache.entries[idx].valid() as usize, PAGE_SIZE / 2);
    }

    #[test]
    fn fill_window_throttles_under_cache_pressure() {
        // One 64-entry bucket: filler writes can never collide out of
        // slots, so free is exactly 4 when the fills run.
        let (cache, mut cp, _) = setup(64, 64);
        // Eat 60 of 64 pages so free = 4.
        for lpn in 0..60u64 {
            let mut g = cache.begin_write(9, lpn).unwrap();
            g.write(0, &[1; 8]);
            g.commit_dirty();
        }
        let mut backend = PageSource(|_: u64, _: u64, out: &mut [u8]| Some(out.len()));
        // Free (4) at/below the watermark (4): dropped outright.
        assert_eq!(cp.fill_window(&job(1, 0, 8, 1, None), &mut backend, 4), 0);
        assert_eq!(cache.stats().prefetch_inserts, 0);
        assert_eq!(cache.stats().ra_throttled, 1);
        // Watermark 2: the window shrinks to the headroom (4 - 2 = 2).
        let inserted = cp.fill_window(&job(1, 0, 8, 1, None), &mut backend, 2);
        assert_eq!(inserted, 2);
        assert_eq!(cache.stats().ra_throttled, 2);
    }

    #[test]
    fn fill_window_never_clobbers_dirty_page() {
        let (cache, mut cp, _) = setup(256, 8);
        // A host write dirties lpn 5 before the fill lands.
        let mut g = cache.begin_write(1, 5).unwrap();
        g.write(0, &[0xDD; PAGE_SIZE]);
        g.commit_dirty();
        let epoch_after_write = cache.ino_epoch(1);
        let mut backend = PageSource(|_: u64, _: u64, out: &mut [u8]| {
            out.fill(0xBB);
            Some(out.len())
        });
        assert_eq!(cache.ino_epoch(1), epoch_after_write);
        let inserted = cp.fill_window(&job(1, 4, 4, 1, None), &mut backend, 0);
        // lpns 4,6,7 inserted; 5 skipped (Present), not overwritten.
        assert_eq!(inserted, 3);
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(cache.lookup_read(1, 5, &mut buf));
        assert_eq!(buf[0], 0xDD, "dirty page survived the async fill");
        assert_eq!(cache.dirty_pages(), 1);
    }

    #[test]
    fn fill_window_aborts_when_ino_epoch_moves() {
        let (cache, mut cp, _) = setup(256, 8);
        let cache2 = cache.clone();
        let mut fired = false;
        // The backend read races a host write: the write lands *after*
        // the backend returned its (now stale) bytes. The epoch bump
        // must abort the remaining inserts.
        let mut backend = PageSource(move |_: u64, lpn: u64, out: &mut [u8]| {
            out.fill(0x11);
            if !fired && lpn == 0 {
                fired = true;
                let mut g = cache2.begin_write(1, 2).unwrap();
                g.write(0, &[0x99; PAGE_SIZE]);
                g.commit_dirty();
            }
            Some(out.len())
        });
        let inserted = cp.fill_window(&job(1, 0, 4, 1, None), &mut backend, 0);
        assert_eq!(inserted, 0, "epoch moved mid-fill: all inserts aborted");
        assert_eq!(cache.stats().ra_dropped, 1);
        // The dirty page is untouched.
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(cache.lookup_read(1, 2, &mut buf));
        assert_eq!(buf[0], 0x99);
    }

    #[test]
    fn fill_window_strided_uses_per_page_reads() {
        let (cache, mut cp, _) = setup(256, 8);
        let mut backend = PageSource(|_: u64, lpn: u64, out: &mut [u8]| {
            out.fill(lpn as u8);
            Some(out.len())
        });
        assert_eq!(cp.fill_window(&job(1, 10, 4, 10, None), &mut backend, 0), 4);
        let mut buf = vec![0u8; PAGE_SIZE];
        for lpn in [10u64, 20, 30, 40] {
            assert!(cache.lookup_read(1, lpn, &mut buf), "lpn={lpn}");
            assert_eq!(buf[0], lpn as u8);
        }
    }

    /// A flush sink recording each batch's runs as whole extents; refuses
    /// the next `fail_next` batch attempts.
    struct ExtentSink {
        fail_next: usize,
        batches: usize,
        extents: Vec<(u64, u64, Vec<u8>)>,
    }

    impl ExtentSink {
        fn new() -> ExtentSink {
            ExtentSink {
                fail_next: 0,
                batches: 0,
                extents: Vec::new(),
            }
        }

        fn refusing() -> ExtentSink {
            ExtentSink {
                fail_next: usize::MAX,
                ..ExtentSink::new()
            }
        }
    }

    impl FlushBackend for ExtentSink {
        fn try_flush_batch(&mut self, ino: u64, runs: &[(u64, usize)], data: &[u8]) -> bool {
            if self.fail_next > 0 {
                self.fail_next -= 1;
                return false;
            }
            self.batches += 1;
            let mut at = 0;
            for &(lpn, len) in runs {
                self.extents.push((ino, lpn, data[at..at + len].to_vec()));
                at += len;
            }
            assert_eq!(at, data.len(), "the runs cover the batch's bytes");
            true
        }
    }

    fn dirty_page(cache: &HybridCache, ino: u64, lpn: u64, fill: u8, valid: usize) {
        let mut g = cache.begin_write(ino, lpn).unwrap();
        g.write(0, &vec![fill; valid]);
        g.set_valid(valid);
        g.commit_dirty();
    }

    #[test]
    fn transient_flush_failure_recovers_in_pass() {
        let (cache, mut cp, _) = setup(64, 8);
        dirty_page(&cache, 1, 1, 5, PAGE_SIZE);
        let mut sink = ExtentSink::new();
        sink.fail_next = 2;
        assert_eq!(cp.flush_extents(&mut sink, None, false), 1);
        let s = cache.stats();
        assert_eq!(s.flush_retries, 2);
        assert_eq!(s.flush_failures, 0);
        assert_eq!(sink.extents.len(), 1);
        assert_eq!(cache.dirty_pages(), 0);
        assert_eq!(cp.refused(), 0);
    }

    #[test]
    fn refused_page_stays_dirty_then_flushes_once_the_backend_recovers() {
        let (cache, mut cp, _) = setup(64, 8);
        dirty_page(&cache, 3, 0, 9, PAGE_SIZE);
        let mut sink = ExtentSink::refusing();
        assert_eq!(cp.flush_extents(&mut sink, None, false), 0);
        assert_eq!(cp.refused(), 1);
        let s = cache.stats();
        assert_eq!((s.flush_failures, s.flushes), (1, 0));
        // Still dirty, in the meta area and in the index.
        assert_eq!(cache.dirty_pages(), 1);
        assert_eq!(cache.dirty_count(), 1);
        assert!(cache.has_dirty_in_range(3, 0, 0));
        // The backend recovers: the next pass flushes it byte-exact.
        sink.fail_next = 0;
        assert_eq!(cp.flush_extents(&mut sink, None, false), 1);
        assert_eq!(cp.refused(), 0);
        assert_eq!(cache.dirty_pages(), 0);
        assert_eq!(cache.dirty_count(), 0);
        assert_eq!(sink.extents, vec![(3, 0, vec![9; PAGE_SIZE])]);
    }

    #[test]
    fn refused_page_is_not_evictable() {
        let (cache, mut cp, _) = setup(8, 8); // single bucket
        dirty_page(&cache, 3, 0, 9, PAGE_SIZE);
        let mut sink = ExtentSink::refusing();
        cp.flush_extents(&mut sink, None, false);
        assert_eq!(cache.dirty_count(), 1);
        // Dirty, so never evicted: the cached copy is the only one.
        assert!(!cp.evict_one(0));
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(cache.lookup_read(3, 0, &mut buf));
        assert_eq!(buf[0], 9);
        // Once flushed it is an ordinary clean page again.
        sink.fail_next = 0;
        assert_eq!(cp.flush_extents(&mut sink, None, false), 1);
        assert!(cp.evict_one(0));
    }

    #[test]
    fn invalidating_a_refused_page_leaves_nothing_to_flush() {
        let (cache, mut cp, _) = setup(64, 8);
        dirty_page(&cache, 4, 2, 8, PAGE_SIZE);
        let mut sink = ExtentSink::refusing();
        cp.flush_extents(&mut sink, None, false);
        assert_eq!(cache.dirty_count(), 1);
        // Truncate/unlink drops it like any dirty page: a later pass must
        // not resurrect the data.
        assert!(cache.invalidate(4, 2));
        assert_eq!(cache.dirty_count(), 0);
        sink.fail_next = 0;
        assert_eq!(cp.flush_extents(&mut sink, None, false), 0);
        assert!(sink.extents.is_empty());
    }

    #[test]
    fn flush_extents_coalesces_adjacent_runs() {
        let (cache, mut cp, dma) = setup(256, 8);
        for lpn in 0..5u64 {
            dirty_page(&cache, 1, lpn, lpn as u8 + 1, PAGE_SIZE);
        }
        for lpn in 8..10u64 {
            dirty_page(&cache, 1, lpn, 0xAA, PAGE_SIZE);
        }
        dirty_page(&cache, 2, 0, 0xBB, PAGE_SIZE);

        let mut sink = ExtentSink::new();
        let flushed = cp.flush_extents(&mut sink, None, false);
        assert_eq!(flushed, 8);
        assert_eq!(cache.dirty_pages(), 0);
        assert_eq!(cache.dirty_count(), 0);

        sink.extents.sort();
        assert_eq!(sink.extents.len(), 3, "three runs");
        assert_eq!(sink.batches, 2, "one backend call per inode");
        assert_eq!(
            (
                sink.extents[0].0,
                sink.extents[0].1,
                sink.extents[0].2.len()
            ),
            (1, 0, 5 * PAGE_SIZE)
        );
        // Page contents land in order within the coalesced buffer.
        for lpn in 0..5usize {
            assert_eq!(sink.extents[0].2[lpn * PAGE_SIZE], lpn as u8 + 1);
        }
        assert_eq!(
            (
                sink.extents[1].0,
                sink.extents[1].1,
                sink.extents[1].2.len()
            ),
            (1, 8, 2 * PAGE_SIZE)
        );
        assert_eq!(
            (
                sink.extents[2].0,
                sink.extents[2].1,
                sink.extents[2].2.len()
            ),
            (2, 0, PAGE_SIZE)
        );

        let s = cache.stats();
        assert_eq!(s.flushes, 8);
        assert_eq!(s.extents_flushed, 3);
        // Histogram: one 1-page, one 2–3-page, one 4–7-page extent.
        assert_eq!(s.extent_pages_hist, [1, 1, 1, 0, 0]);
        assert_eq!(s.fg_flush_pages, 8);
        assert_eq!(s.bg_flush_pages, 0);
        // Per-page lock/unlock atomics and per-page DMA pulls, as in the
        // linear pass.
        let d = dma.snapshot();
        assert_eq!(d.atomics, 16);
        assert_eq!(d.dma_ops, 8);
    }

    #[test]
    fn flush_extents_tail_page_terminates_extent() {
        let (cache, mut cp, _) = setup(256, 8);
        dirty_page(&cache, 1, 0, 3, PAGE_SIZE);
        dirty_page(&cache, 1, 1, 4, 100); // file tail: 100 valid bytes
        dirty_page(&cache, 1, 2, 5, PAGE_SIZE);

        let mut sink = ExtentSink::new();
        assert_eq!(cp.flush_extents(&mut sink, None, true), 3);
        sink.extents.sort();
        // The short page closes its extent; lpn 2 starts a fresh one.
        assert_eq!(sink.extents.len(), 2);
        assert_eq!(sink.extents[0].1, 0);
        assert_eq!(sink.extents[0].2.len(), PAGE_SIZE + 100);
        assert_eq!(sink.extents[0].2[PAGE_SIZE], 4);
        assert_eq!(sink.extents[1].1, 2);
        assert_eq!(sink.extents[1].2.len(), PAGE_SIZE);
        assert_eq!(cache.stats().bg_flush_pages, 3);
    }

    #[test]
    fn flush_extents_respects_max_extent_pages() {
        let (cache, mut cp, _) = setup(256, 8);
        cp.max_extent_pages = 2;
        for lpn in 0..5u64 {
            dirty_page(&cache, 1, lpn, 1, PAGE_SIZE);
        }
        let mut sink = ExtentSink::new();
        assert_eq!(cp.flush_extents(&mut sink, None, false), 5);
        let sizes: Vec<usize> = sink.extents.iter().map(|e| e.2.len() / PAGE_SIZE).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
    }

    #[test]
    fn flush_extents_ino_filter_flushes_only_that_file() {
        let (cache, mut cp, _) = setup(256, 8);
        dirty_page(&cache, 1, 0, 1, PAGE_SIZE);
        dirty_page(&cache, 2, 0, 2, PAGE_SIZE);
        let mut sink = ExtentSink::new();
        assert_eq!(cp.flush_extents(&mut sink, Some(1), false), 1);
        assert_eq!(sink.extents.len(), 1);
        assert_eq!(sink.extents[0].0, 1);
        assert_eq!(cache.dirty_count(), 1, "ino 2 untouched");
        assert!(cache.has_dirty_in_range(2, 0, 0));
    }

    #[test]
    fn refused_extent_flushes_byte_exact_once_the_backend_recovers() {
        let (cache, mut cp, _) = setup(256, 8);
        for lpn in 0..4u64 {
            dirty_page(&cache, 7, lpn, lpn as u8 + 1, PAGE_SIZE);
        }
        let mut sink = ExtentSink::refusing();
        assert_eq!(cp.flush_extents(&mut sink, None, false), 0);
        // The whole extent stays dirty; no page is dropped.
        assert_eq!(cp.refused(), 4);
        assert_eq!(cache.dirty_count(), 4);
        assert_eq!(cache.stats().flush_failures, 4);
        assert_eq!(cache.stats().extents_flushed, 0);
        // Backend recovers: the next pass writes all four as one extent.
        sink.fail_next = 0;
        assert_eq!(cp.flush_extents(&mut sink, None, false), 4);
        assert_eq!(cache.dirty_count(), 0);
        let expect: Vec<u8> = (1..=4u8).flat_map(|b| [b; PAGE_SIZE]).collect();
        assert_eq!(sink.extents, vec![(7, 0, expect)]);
    }

    #[test]
    fn a_page_a_writer_holds_is_skipped_and_reported_busy() {
        let (cache, mut cp, _) = setup(64, 8);
        dirty_page(&cache, 1, 0, 4, PAGE_SIZE);
        dirty_page(&cache, 1, 2, 5, PAGE_SIZE);
        let held = cache.begin_write(1, 0).unwrap();
        let mut sink = ExtentSink::new();
        assert_eq!(cp.flush_extents(&mut sink, Some(1), false), 1);
        // Not written, not refused, and not silent: still dirty, and busy.
        assert_eq!((cp.refused(), cp.busy()), (0, 1));
        assert_eq!(cache.dirty_count(), 1);
        assert_eq!(sink.extents, vec![(1, 2, vec![5; PAGE_SIZE])]);
        drop(held);
        assert_eq!(cp.flush_extents(&mut sink, Some(1), false), 1);
        assert_eq!((cp.refused(), cp.busy(), cache.dirty_count()), (0, 0, 0));
        assert_eq!(sink.extents[1], (1, 0, vec![4; PAGE_SIZE]));
    }

    #[test]
    fn an_inodes_runs_are_one_batch_up_to_the_budget() {
        let (cache, mut cp, dma) = setup(1024, 8);
        // 200 one-page runs of inode 1 (every other page), a 3-page run of
        // inode 2.
        for k in 0..200u64 {
            dirty_page(&cache, 1, 2 * k, k as u8, PAGE_SIZE);
        }
        for lpn in 0..3u64 {
            dirty_page(&cache, 2, lpn, 0xEE, PAGE_SIZE);
        }
        let mut sink = ExtentSink::new();
        assert_eq!(cp.flush_extents(&mut sink, None, false), 203);
        // Inode 1 fills one budget and spills into a second batch; inode 2
        // is a batch of its own.
        let per_batch = FLUSH_BATCH_BYTES / PAGE_SIZE;
        assert_eq!(per_batch, 128);
        assert_eq!(sink.batches, 3);
        assert_eq!(sink.extents.len(), 201, "a run per extent, as before");
        for (k, (ino, lpn, data)) in sink.extents[..200].iter().enumerate() {
            assert_eq!((*ino, *lpn, data.len()), (1, 2 * k as u64, PAGE_SIZE));
            assert!(data.iter().all(|&b| b == k as u8));
        }
        assert_eq!(sink.extents[200], (2, 0, vec![0xEE; 3 * PAGE_SIZE]));
        assert_eq!(cache.stats().extents_flushed, 201);
        assert_eq!(cache.dirty_count(), 0);
        // The link cost is per page, as before: a DMA each, lock + unlock.
        let d = dma.snapshot();
        assert_eq!((d.dma_ops, d.atomics), (203, 2 * 203));
    }

    #[test]
    fn a_refused_batch_stays_dirty_whole_and_the_next_pass_retries_it() {
        let (cache, mut cp, _) = setup(256, 8);
        for lpn in [0u64, 1, 2, 5, 9, 10] {
            dirty_page(&cache, 7, lpn, lpn as u8 + 1, PAGE_SIZE);
        }
        let mut sink = ExtentSink::refusing();
        assert_eq!(cp.flush_extents(&mut sink, None, false), 0);
        let s = cache.stats();
        // One batch, refused four times: three runs, six pages, all dirty.
        assert_eq!((s.flush_retries, s.flush_failures), (3, 6));
        assert_eq!((cp.refused(), cache.dirty_count()), (6, 6));
        assert!(sink.extents.is_empty());
        sink.fail_next = 0;
        assert_eq!(cp.flush_extents(&mut sink, None, false), 6);
        assert_eq!((sink.batches, cp.refused(), cache.dirty_count()), (1, 0, 0));
        let run =
            |lpns: &[u8]| -> Vec<u8> { lpns.iter().flat_map(|&l| [l + 1; PAGE_SIZE]).collect() };
        assert_eq!(
            sink.extents,
            vec![
                (7, 0, run(&[0, 1, 2])),
                (7, 5, run(&[5])),
                (7, 9, run(&[9, 10]))
            ]
        );
    }

    #[test]
    fn a_crash_after_the_backend_took_a_batch_leaves_it_dirty() {
        use dpc_fault::{FaultPlan, FaultSpec};
        let (cache, mut cp, _) = setup(256, 8);
        for lpn in [0u64, 4, 8] {
            dirty_page(&cache, 3, lpn, 6, PAGE_SIZE);
        }
        dirty_page(&cache, 4, 0, 6, PAGE_SIZE);
        let plan = FaultPlan::new(1);
        let site = plan.arm("dpu.crash", FaultSpec::nth(1));
        cp.set_crash_switch(Some(Arc::new(CrashSwitch::armed_by(site))));
        let mut sink = ExtentSink::new();
        // The first draw follows inode 3's batch: taken, never marked clean,
        // and the pass stops there.
        assert_eq!(cp.flush_extents(&mut sink, None, false), 0);
        assert_eq!((sink.batches, sink.extents.len()), (1, 3));
        assert_eq!(cache.dirty_count(), 4);
        assert_eq!(cache.stats().flushes, 0);
        // No read lock outlives the pass: a writer takes every page.
        for lpn in [0u64, 4, 8] {
            drop(cache.begin_write(3, lpn).unwrap());
        }
        // The dead DPU flushes nothing more.
        assert_eq!(cp.flush_extents(&mut sink, None, false), 0);
        assert_eq!(sink.batches, 1);
    }

    #[test]
    fn a_switch_tripped_between_two_batches_leaves_the_second_unwritten() {
        /// Refuses every batch, and trips the switch while it does: a
        /// trip from another thread (`Dpc::trip_crash`) mid-pass.
        struct Tripping {
            crash: Arc<CrashSwitch>,
            offered: Vec<u64>,
        }
        impl FlushBackend for Tripping {
            fn try_flush_batch(&mut self, ino: u64, _: &[(u64, usize)], _: &[u8]) -> bool {
                self.offered.push(ino);
                self.crash.trip();
                false
            }
        }
        let (cache, mut cp, _) = setup(256, 8);
        dirty_page(&cache, 3, 0, 6, PAGE_SIZE);
        dirty_page(&cache, 4, 0, 7, PAGE_SIZE);
        let crash = Arc::new(CrashSwitch::inert());
        cp.set_crash_switch(Some(crash.clone()));
        let mut sink = Tripping {
            crash,
            offered: Vec::new(),
        };
        assert_eq!(cp.flush_extents(&mut sink, None, false), 0);
        // Inode 3's batch, through every retry; inode 4's is never offered.
        assert_eq!(sink.offered, vec![3; 1 + FLUSH_RETRIES as usize]);
        assert_eq!((cp.refused(), cache.dirty_count()), (1, 2));
        // No read lock outlives the pass: a writer takes both pages.
        for ino in [3, 4] {
            drop(cache.begin_write(ino, 0).unwrap());
        }
    }

    #[test]
    fn evict_batch_frees_many_buckets_with_one_flush() {
        let (cache, mut cp, _) = setup(16, 8); // two buckets
                                               // Fill both buckets with dirty pages of ino 0 and 1.
        let mut filled = 0;
        let mut lpn = 0u64;
        while filled < 16 && lpn < 1000 {
            for ino in 0..2u64 {
                if cache
                    .begin_write(ino, lpn)
                    .map(|mut g| {
                        g.write(0, &[1; 8]);
                        g.commit_dirty();
                    })
                    .is_ok()
                {
                    filled += 1;
                }
            }
            lpn += 1;
        }
        assert!(cache.header().free() < 4, "cache mostly full");
        let mut sink = ExtentSink::new();
        let freed = cp.evict_batch(&[0, 0, 1, 1], &mut sink);
        assert_eq!(freed, 4, "one command freed four slots");
        assert_eq!(cache.stats().batched_evictions, 1);
        assert_eq!(cache.stats().evictions, 4);
        assert!(
            !sink.extents.is_empty(),
            "a flush ran to make pages evictable"
        );
    }

    #[test]
    fn concurrent_flusher_and_writers() {
        // Host threads keep writing; a DPU flusher thread keeps flushing.
        // Every flushed page must be internally consistent (untorn).
        let (cache, mut cp, _) = setup(512, 8);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = cache.clone();
                s.spawn(move || {
                    for round in 0..60u64 {
                        for lpn in 0..8u64 {
                            let v = (t * 1000 + round) as u8;
                            loop {
                                match cache.begin_write(t, lpn) {
                                    Ok(mut g) => {
                                        g.write(0, &[v; PAGE_SIZE]);
                                        g.commit_dirty();
                                        break;
                                    }
                                    Err(_) => std::thread::yield_now(),
                                }
                            }
                        }
                    }
                });
            }
            let stop_ref = &stop;
            let flusher = s.spawn(move || {
                let mut total = 0;
                while !stop_ref.load(std::sync::atomic::Ordering::Acquire) {
                    total += cp.flush_extents(
                        &mut |_ino: u64, _lpn: u64, page: &[u8]| {
                            let first = page[0];
                            assert!(page.iter().all(|&b| b == first), "torn flush");
                        },
                        None,
                        false,
                    );
                }
                // Final pass to drain.
                total += cp.flush_extents(&mut |_: u64, _: u64, _: &[u8]| {}, None, false);
                total
            });
            // Writers are the first 4 spawned threads; wait via scope end:
            // signal the flusher once writers are done by joining them via
            // a separate scope is awkward — instead sleep-poll dirty count.
            while cache.stats().writes < 4 * 60 * 8 {
                std::thread::yield_now();
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
            let flushed = flusher.join().unwrap();
            assert!(flushed > 0);
        });
        assert_eq!(cache.dirty_pages(), 0, "final drain leaves nothing dirty");
    }
}
