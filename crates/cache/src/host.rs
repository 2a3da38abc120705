//! The host-resident cache data plane.
//!
//! The paper's design (§3.3): the cache pages and the meta hash table live
//! in host memory; the host reads and writes pages directly (no PCIe
//! crossing on a hit), while every access is concurrency-controlled by the
//! per-entry read/write locks that the DPU also manipulates (with PCIe
//! atomics). The front-end write protocol implemented here is the paper's,
//! verbatim:
//!
//! 1. hash `<inode, lpn>` to a bucket, find or allocate a cache entry,
//! 2. lock the entry atomically (failing that, ask the DPU to run cache
//!    replacement — surfaced as [`WriteError::NeedEviction`]),
//! 3. write the data into the page located by the entry's position,
//! 4. release the write lock and set the dirty status.

use std::cell::UnsafeCell;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};

use crate::layout::{
    bucket_of, CacheConfig, CacheEntry, CacheHeader, EntryStatus, FLAG_MARKER, FLAG_PREFETCHED,
    PAGE_SIZE,
};

/// Shards of the per-ino dirty-range index (keyed by ino, so one file's
/// write burst contends on one shard while the flusher walks another).
pub(crate) const DIRTY_SHARDS: usize = 16;

/// One shard of the dirty-range index: `ino -> sorted dirty LPNs` — and
/// of the resident index, same shape, for every page that holds an entry.
type DirtyShard = HashMap<u64, BTreeSet<u64>>;

/// Odd-version spins an optimistic lookup tolerates per entry before
/// degrading to a legacy read lock. Writers hold the version odd only for
/// the duration of a page memcpy plus a handful of meta stores, so a
/// small budget covers everything short of a writer parked on the entry.
const SEQ_SPIN_CAP: usize = 64;

/// Take an entry lock another thread holds: a short burst of spins for a
/// holder mid-memcpy on another core, then yields. Holders (readers,
/// writers, the flusher) release quickly and never wait on the caller, so
/// this cannot deadlock — but a holder that was preempted, or that shares
/// this core, cannot release until it runs: past the burst, give it the
/// slice instead of burning it.
fn lock_entry(mut try_lock: impl FnMut() -> bool) {
    let mut spins = 0usize;
    while !try_lock() {
        spins += 1;
        if spins > SEQ_SPIN_CAP / 4 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Consecutive torn [`ReadRef::finish`] failures the copy wrapper accepts
/// before serving the read under a read lock instead. Each retry re-runs
/// the whole optimistic lookup, so this bounds pathological write-hot
/// pages without penalising the common case (zero retries).
const FINISH_RETRIES: usize = 8;

/// One cache page, page-aligned so the word loads of the optimistic copy
/// in [`PagePool::read_unsynced`] are naturally-aligned u64s (and so the
/// pool's layout matches the DMA-mapped region the paper describes).
#[repr(align(4096))]
struct PageBuf([u8; PAGE_SIZE]);

/// The page pool backing the data area. Page *i* belongs to entry *i*.
///
/// # Safety contract
///
/// A page may be mutated only while holding entry *i*'s write lock.
/// Synchronised reads ([`read`](Self::read)) require the entry's read or
/// write lock. Optimistic reads ([`read_unsynced`](Self::read_unsynced))
/// take **no** lock: they may race a writer at the byte level, so they
/// copy with loads the compiler can neither elide nor merge (64-byte
/// `asm!` blocks on x86_64, then volatile words and bytes) and their
/// caller must validate the entry's seqlock version afterwards,
/// discarding the snapshot on a mismatch (DESIGN.md §4.2). With those
/// protocols observed, no thread ever *acts on* bytes that raced a
/// writer, which is what justifies the `Sync` impl.
pub(crate) struct PagePool {
    pages: Box<[UnsafeCell<PageBuf>]>,
}

// SAFETY: see the struct-level contract — mutation always holds the
// owning entry's write lock; synchronised reads hold a lock that excludes
// writers; unsynchronised reads are `asm!` or volatile loads,
// seqlock-validated before use, so a racing snapshot is never observed by
// the caller.
unsafe impl Sync for PagePool {}
unsafe impl Send for PagePool {}

impl PagePool {
    fn new(pages: usize) -> PagePool {
        PagePool {
            pages: (0..pages)
                .map(|_| UnsafeCell::new(PageBuf([0u8; PAGE_SIZE])))
                .collect(),
        }
    }

    /// # Safety
    /// Caller must hold entry `i`'s write lock.
    pub(crate) unsafe fn write(&self, i: usize, offset: usize, src: &[u8]) {
        debug_assert!(offset + src.len() <= PAGE_SIZE);
        let dst = self.pages[i].get();
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr(),
                (*dst).0.as_mut_ptr().add(offset),
                src.len(),
            )
        };
    }

    /// # Safety
    /// Caller must hold entry `i`'s read or write lock.
    pub(crate) unsafe fn read(&self, i: usize, offset: usize, dst: &mut [u8]) {
        debug_assert!(offset + dst.len() <= PAGE_SIZE);
        let src = self.pages[i].get();
        unsafe {
            std::ptr::copy_nonoverlapping(
                (*src).0.as_ptr().add(offset),
                dst.as_mut_ptr(),
                dst.len(),
            )
        };
    }

    /// Optimistic (seqlock) copy out of page `i` with **no** lock held.
    ///
    /// A concurrent writer may be mutating the page during the copy, so
    /// the race stays at the machine level: each load observes *some*
    /// stable value rather than inviting the optimiser to assume the
    /// memory is quiescent. On x86_64 the bulk of the range moves in
    /// 64-byte blocks ([`copy_blocks`]); what is left, fewer than 64
    /// bytes (the whole range elsewhere), moves with volatile loads —
    /// bytes up to the source's 8-byte alignment boundary, then aligned
    /// words, then a byte tail.
    ///
    /// # Safety
    /// The caller must validate the owning entry's seqlock version after
    /// the copy ([`CacheEntry::version_validate`]) and discard the bytes
    /// on a mismatch; a snapshot that overlapped a writer must never be
    /// exposed.
    ///
    /// [`CacheEntry::version_validate`]: crate::layout::CacheEntry
    pub(crate) unsafe fn read_unsynced(&self, i: usize, offset: usize, dst: &mut [u8]) {
        debug_assert!(offset + dst.len() <= PAGE_SIZE);
        unsafe {
            let mut src = (self.pages[i].get() as *const u8).add(offset);
            let mut out = dst.as_mut_ptr();
            let mut n = dst.len();
            #[cfg(target_arch = "x86_64")]
            if n >= 64 {
                let blocks = n / 64;
                copy_blocks(src, out, blocks);
                src = src.add(blocks * 64);
                out = out.add(blocks * 64);
                n -= blocks * 64;
            }
            while n > 0 && (src as usize) & 7 != 0 {
                out.write(src.read_volatile());
                src = src.add(1);
                out = out.add(1);
                n -= 1;
            }
            while n >= 8 {
                let w = (src as *const u64).read_volatile();
                (out as *mut u64).write_unaligned(w);
                src = src.add(8);
                out = out.add(8);
                n -= 8;
            }
            while n > 0 {
                out.write(src.read_volatile());
                src = src.add(1);
                out = out.add(1);
                n -= 1;
            }
        }
    }
}

/// Copy `blocks` 64-byte blocks from `src` to `dst`, each as four 16-byte
/// `movdqu` loads and four stores: the bulk of
/// [`PagePool::read_unsynced`]. SSE2 is part of the x86_64 baseline, so
/// there is nothing to detect. The loads are ordinary x86 loads, which
/// TSO keeps ordered before the version re-load in
/// [`CacheEntry::version_validate`], as it does the volatile word loads;
/// and the `asm!` block names neither `nomem` nor `readonly`, so the
/// compiler treats it as touching any memory and moves no load or store
/// across it (DESIGN.md §4.2).
///
/// # Safety
/// `blocks` is at least 1; `src` is readable and `dst` writable for
/// `blocks * 64` bytes, and the two do not overlap. Neither needs any
/// alignment.
///
/// [`CacheEntry::version_validate`]: crate::layout::CacheEntry
#[cfg(target_arch = "x86_64")]
unsafe fn copy_blocks(src: *const u8, dst: *mut u8, blocks: usize) {
    debug_assert!(blocks > 0);
    unsafe {
        std::arch::asm!(
            "2:",
            "movdqu {a}, xmmword ptr [{src}]",
            "movdqu {b}, xmmword ptr [{src} + 16]",
            "movdqu {c}, xmmword ptr [{src} + 32]",
            "movdqu {d}, xmmword ptr [{src} + 48]",
            "movdqu xmmword ptr [{dst}], {a}",
            "movdqu xmmword ptr [{dst} + 16], {b}",
            "movdqu xmmword ptr [{dst} + 32], {c}",
            "movdqu xmmword ptr [{dst} + 48], {d}",
            "add {src}, 64",
            "add {dst}, 64",
            "dec {n}",
            "jnz 2b",
            src = inout(reg) src => _,
            dst = inout(reg) dst => _,
            n = inout(reg) blocks => _,
            a = out(xmm_reg) _,
            b = out(xmm_reg) _,
            c = out(xmm_reg) _,
            d = out(xmm_reg) _,
            options(nostack),
        );
    }
}

/// Data-plane statistics.
#[derive(Copy, Clone, Default, Debug, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub writes: u64,
    pub evictions: u64,
    pub flushes: u64,
    pub prefetch_inserts: u64,
    /// In-pass reissues of a failed backend flush.
    pub flush_retries: u64,
    /// Pages a flush pass left dirty because the backend refused their
    /// extent through every retry (each later pass retries them).
    pub flush_failures: u64,
    /// Coalesced extents written to the backend (each covers ≥ 1 page).
    pub extents_flushed: u64,
    /// Extent-size histogram: pages-per-extent in 1 / 2–3 / 4–7 / 8–15 /
    /// 16+ buckets.
    pub extent_pages_hist: [u64; 5],
    /// Pages flushed by a drain: an instance's teardown, or `Dpc::recover`.
    pub bg_flush_pages: u64,
    /// Pages flushed on the foreground path (Sync / eviction pressure).
    pub fg_flush_pages: u64,
    /// Multi-bucket eviction commands executed on the control plane.
    pub batched_evictions: u64,
    /// Foreground writes that stalled on `NeedEviction` (each such page
    /// costs a host→DPU eviction round-trip).
    pub evict_stalls: u64,
    /// Buffered writes that fell back to write-through because no cache
    /// slot could be freed.
    pub write_throughs: u64,
    /// Demand hits on pages the background prefetcher inserted (each
    /// prefetched page scores at most once).
    pub ra_hits: u64,
    /// Readahead windows filled by the background prefetcher thread.
    pub ra_async_fills: u64,
    /// Prefetch jobs dropped or shrunk by cache-pressure throttling
    /// (free pages below the watermark).
    pub ra_throttled: u64,
    /// Prefetch jobs dropped because the prefetch queue was full or the
    /// stream state went stale (concurrent write/invalidate).
    pub ra_dropped: u64,
    /// Demand-miss fills that covered a multi-page run with one vectored
    /// backend read instead of per-page reads.
    pub demand_vector_fills: u64,
    /// Optimistic meta-plane reads that had to retry: the version word
    /// was odd (writer mid-mutation) or moved between snapshot and
    /// revalidation (torn read discarded).
    pub meta_retries: u64,
    /// Optimistic reads that exhausted their retry budget against a
    /// write-hot entry and fell back to a legacy read lock.
    pub lock_fallbacks: u64,
    /// Read-lock acquisitions on the front-end read-hit path. Zero when
    /// the seqlock plane serves every hit (the acceptance counter-proof);
    /// the control plane's flush read locks are not counted —
    /// those never block readers under the seqlock scheme.
    pub read_locks: u64,
    /// Entries [`HybridCache::invalidate_ino`] visited: the pages its
    /// inodes had resident, never the whole meta area.
    pub invalidate_visits: u64,
    /// Intent-log records appended (uncached writes and truncates). The
    /// cache keeps no log: the six `wal_*` counters are the instance's
    /// log's, filled in by `Dpc::metrics` and zero here.
    pub wal_appends: u64,
    /// Bytes appended to the intent log (headers + payloads).
    pub wal_bytes: u64,
    /// Log-space reclaims: tail advances past retired records.
    pub wal_checkpoints: u64,
    /// Records re-applied by crash recovery.
    pub wal_replayed_records: u64,
    /// Torn/corrupt tail records dropped by the recovery scan.
    pub wal_torn_tail_drops: u64,
    /// Appends refused because the ring was full (back-pressure events).
    pub wal_stalls: u64,
}

#[derive(Default)]
pub(crate) struct StatsCells {
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) writes: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) flushes: AtomicU64,
    pub(crate) prefetch_inserts: AtomicU64,
    pub(crate) flush_retries: AtomicU64,
    pub(crate) flush_failures: AtomicU64,
    pub(crate) extents_flushed: AtomicU64,
    pub(crate) extent_pages_hist: [AtomicU64; 5],
    pub(crate) bg_flush_pages: AtomicU64,
    pub(crate) fg_flush_pages: AtomicU64,
    pub(crate) batched_evictions: AtomicU64,
    pub(crate) evict_stalls: AtomicU64,
    pub(crate) write_throughs: AtomicU64,
    pub(crate) ra_hits: AtomicU64,
    pub(crate) ra_async_fills: AtomicU64,
    pub(crate) ra_throttled: AtomicU64,
    pub(crate) ra_dropped: AtomicU64,
    pub(crate) demand_vector_fills: AtomicU64,
    pub(crate) meta_retries: AtomicU64,
    pub(crate) lock_fallbacks: AtomicU64,
    pub(crate) read_locks: AtomicU64,
    pub(crate) invalidate_visits: AtomicU64,
}

impl StatsCells {
    /// Record one flushed extent of `pages` pages into the size histogram.
    pub(crate) fn record_extent(&self, pages: usize) {
        self.extents_flushed.fetch_add(1, Ordering::Relaxed);
        let bucket = match pages {
            0..=1 => 0,
            2..=3 => 1,
            4..=7 => 2,
            8..=15 => 3,
            _ => 4,
        };
        self.extent_pages_hist[bucket].fetch_add(1, Ordering::Relaxed);
    }
}

/// Outcome of a flag-aware cache hit
/// (see [`HybridCache::lookup_read_hint`]).
#[derive(Copy, Clone, Default, Debug, PartialEq, Eq)]
pub struct ReadHint {
    /// The hit consumed the async-trigger marker page: the caller should
    /// hint the DPU to queue the next readahead window.
    pub marker: bool,
}

/// Failure modes of the front-end write path.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WriteError {
    /// No free entry and none lockable in this bucket — the host must
    /// notify the DPU to perform cache replacement, then retry.
    NeedEviction { bucket: usize },
}

/// The hybrid cache: header + meta area + data area, shared by the host
/// data plane and the DPU control plane.
pub struct HybridCache {
    pub(crate) cfg: CacheConfig,
    pub(crate) header: CacheHeader,
    pub(crate) entries: Box<[CacheEntry]>,
    pub(crate) pages: PagePool,
    /// Per-bucket claim locks serialising allocation/eviction within a
    /// bucket (lookups and overwrites stay lock-free on this level).
    pub(crate) bucket_claim: Box<[Mutex<()>]>,
    /// Logical access clock for the control plane's LRU-ish replacement.
    pub(crate) clock: AtomicU64,
    /// Per-entry last-access stamps (meta the control plane reads).
    pub(crate) touch: Box<[AtomicU64]>,
    pub(crate) stats: StatsCells,
    /// Per-ino dirty-range index: `shard(ino) → ino → sorted dirty LPNs`.
    /// Lets the control plane walk dirty pages as extents instead of
    /// scanning the whole meta area, and the adapter answer range-overlap
    /// queries (O_DIRECT coherence) without a full scan.
    pub(crate) dirty_index: Box<[Mutex<DirtyShard>]>,
    /// Per-ino resident index, sharded like the dirty one: every `<ino,
    /// lpn>` that holds an entry, from the claim of a free entry to its
    /// release. What dropping an inode costs is what it has here, not a
    /// scan of the meta area.
    resident: Box<[Mutex<DirtyShard>]>,
    /// Pages currently marked dirty (mirror of the index's total size).
    pub(crate) dirty_total: AtomicU64,
    /// Per-ino-shard content epochs. Bumped whenever an inode's cached
    /// content moves relative to the backend (a page dirtied, flushed
    /// clean, or invalidated). The background prefetcher snapshots the
    /// epoch before its backend read and re-checks it before inserting:
    /// a change means the bytes it holds may predate newer writes, so the
    /// fill is abandoned rather than risk resurrecting stale data.
    pub(crate) ino_epochs: Box<[AtomicU64]>,
}

impl HybridCache {
    pub fn new(cfg: CacheConfig) -> HybridCache {
        let buckets = cfg.buckets();
        let entries: Box<[CacheEntry]> = (0..cfg.pages)
            .map(|i| {
                // Chain within the bucket: ... -> i+1, last -> MAX.
                let last_in_bucket = (i + 1) % cfg.bucket_entries == 0;
                CacheEntry::new(if last_in_bucket {
                    u32::MAX
                } else {
                    i as u32 + 1
                })
            })
            .collect();
        HybridCache {
            header: CacheHeader {
                pagesize: PAGE_SIZE as u32,
                mode: cfg.mode,
                total: cfg.pages as u32,
                free: AtomicU64::new(cfg.pages as u64),
            },
            entries,
            pages: PagePool::new(cfg.pages),
            bucket_claim: (0..buckets).map(|_| Mutex::new(())).collect(),
            clock: AtomicU64::new(0),
            touch: (0..cfg.pages).map(|_| AtomicU64::new(0)).collect(),
            stats: StatsCells::default(),
            dirty_index: (0..DIRTY_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            resident: (0..DIRTY_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            dirty_total: AtomicU64::new(0),
            ino_epochs: (0..DIRTY_SHARDS).map(|_| AtomicU64::new(0)).collect(),
            cfg,
        }
    }

    /// Current content epoch of `ino`'s shard (see `ino_epochs`).
    pub(crate) fn ino_epoch(&self, ino: u64) -> u64 {
        self.ino_epochs[(ino as usize) % DIRTY_SHARDS].load(Ordering::Acquire)
    }

    pub(crate) fn bump_ino_epoch(&self, ino: u64) {
        self.ino_epochs[(ino as usize) % DIRTY_SHARDS].fetch_add(1, Ordering::Release);
    }

    fn dirty_shard(&self, ino: u64) -> &Mutex<DirtyShard> {
        &self.dirty_index[(ino as usize) % DIRTY_SHARDS]
    }

    /// `<ino, lpn>` took a free entry (`held`) or gave its entry back.
    /// Called with the entry's write lock held, like the claim and the
    /// release themselves.
    pub(crate) fn note_resident(&self, ino: u64, lpn: u64, held: bool) {
        let mut shard = self.resident[(ino as usize) % DIRTY_SHARDS].lock();
        if held {
            shard.entry(ino).or_default().insert(lpn);
        } else if let Some(set) = shard.get_mut(&ino) {
            set.remove(&lpn);
            if set.is_empty() {
                shard.remove(&ino);
            }
        }
    }

    /// Record `<ino, lpn>` as dirty in the range index. Called with the
    /// entry's write lock held (commit path), so it is ordered against the
    /// flusher's [`note_clean`](Self::note_clean) under the read lock.
    pub(crate) fn note_dirty(&self, ino: u64, lpn: u64) {
        self.bump_ino_epoch(ino);
        let mut shard = self.dirty_shard(ino).lock();
        if shard.entry(ino).or_default().insert(lpn) {
            self.dirty_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop `<ino, lpn>` from the range index (flushed clean or
    /// invalidated). Idempotent: concurrent flush passes may race to
    /// clean the same page.
    pub(crate) fn note_clean(&self, ino: u64, lpn: u64) {
        self.bump_ino_epoch(ino);
        let mut shard = self.dirty_shard(ino).lock();
        if let Some(set) = shard.get_mut(&ino) {
            if set.remove(&lpn) {
                self.dirty_total.fetch_sub(1, Ordering::Release);
            }
            if set.is_empty() {
                shard.remove(&ino);
            }
        }
    }

    /// Batched [`note_clean`](Self::note_clean): drop the run of `n`
    /// adjacent LPNs starting at `start` under a single shard acquisition.
    /// The extent flusher's clean-side cost would otherwise be dominated
    /// by taking this mutex once per page of every run. Idempotent per
    /// page, like `note_clean`.
    pub(crate) fn note_clean_run(&self, ino: u64, start: u64, n: usize) {
        self.bump_ino_epoch(ino);
        let mut shard = self.dirty_shard(ino).lock();
        if let Some(set) = shard.get_mut(&ino) {
            let mut removed = 0u64;
            for lpn in start..start + n as u64 {
                if set.remove(&lpn) {
                    removed += 1;
                }
            }
            if removed > 0 {
                self.dirty_total.fetch_sub(removed, Ordering::Release);
            }
            if set.is_empty() {
                shard.remove(&ino);
            }
        }
    }

    /// Pages currently dirty, per the range index (O(1)). Acquire: a
    /// reader that sees a flushed page's removal sees
    /// [`flushed`](Self::flushed) move with it.
    pub fn dirty_count(&self) -> usize {
        self.dirty_total.load(Ordering::Acquire) as usize
    }

    /// Does any dirty page of `ino` fall within `first_lpn..=last_lpn`?
    /// Range query on the index — no meta-area scan.
    pub fn has_dirty_in_range(&self, ino: u64, first_lpn: u64, last_lpn: u64) -> bool {
        let shard = self.dirty_shard(ino).lock();
        shard
            .get(&ino)
            .is_some_and(|set| set.range(first_lpn..=last_lpn).next().is_some())
    }

    /// The byte just past the valid prefix of `ino`'s last dirty page:
    /// how far its buffered writes reach before any flush. `None` with no
    /// page of `ino` dirty, after one atomic load when the cache holds no
    /// dirty page at all. Advisory, like the index: a page flushed clean
    /// meanwhile is not counted.
    pub fn dirty_end(&self, ino: u64) -> Option<u64> {
        if self.dirty_count() == 0 {
            return None;
        }
        let lpn = *self.dirty_shard(ino).lock().get(&ino)?.last()?;
        let idx = self.chain(self.bucket_of(ino, lpn)).find(|&idx| {
            let e = &self.entries[idx];
            e.ino() == ino && e.lpn() == lpn && e.status() == EntryStatus::Dirty
        })?;
        Some(lpn * PAGE_SIZE as u64 + self.entries[idx].valid() as u64)
    }

    /// Pages flushed clean, ever. The flush counts its pages before it
    /// marks any clean, so a reader that finds one gone from
    /// [`dirty_end`](Self::dirty_end) — by its status, the index or the
    /// dirty count — reads this moved (DESIGN.md §4.1).
    pub fn flushed(&self) -> u64 {
        self.stats.flushes.load(Ordering::Acquire)
    }

    /// Snapshot the dirty index: `(ino, sorted dirty LPNs)` pairs, sorted
    /// by ino for deterministic extent walks. With `ino_filter`, only that
    /// inode's pages. The snapshot is advisory — pages may be cleaned or
    /// re-dirtied concurrently; the flush pass revalidates under the entry
    /// lock.
    pub(crate) fn dirty_snapshot(&self, ino_filter: Option<u64>) -> Vec<(u64, Vec<u64>)> {
        let mut out = Vec::new();
        match ino_filter {
            Some(ino) => {
                let shard = self.dirty_shard(ino).lock();
                if let Some(set) = shard.get(&ino) {
                    out.push((ino, set.iter().copied().collect()));
                }
            }
            None => {
                for shard in self.dirty_index.iter() {
                    let shard = shard.lock();
                    for (&ino, set) in shard.iter() {
                        out.push((ino, set.iter().copied().collect()));
                    }
                }
                out.sort_unstable_by_key(|&(ino, _)| ino);
            }
        }
        out
    }

    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    pub fn header(&self) -> &CacheHeader {
        &self.header
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            writes: self.stats.writes.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            flushes: self.stats.flushes.load(Ordering::Relaxed),
            prefetch_inserts: self.stats.prefetch_inserts.load(Ordering::Relaxed),
            flush_retries: self.stats.flush_retries.load(Ordering::Relaxed),
            flush_failures: self.stats.flush_failures.load(Ordering::Relaxed),
            extents_flushed: self.stats.extents_flushed.load(Ordering::Relaxed),
            extent_pages_hist: std::array::from_fn(|i| {
                self.stats.extent_pages_hist[i].load(Ordering::Relaxed)
            }),
            bg_flush_pages: self.stats.bg_flush_pages.load(Ordering::Relaxed),
            fg_flush_pages: self.stats.fg_flush_pages.load(Ordering::Relaxed),
            batched_evictions: self.stats.batched_evictions.load(Ordering::Relaxed),
            evict_stalls: self.stats.evict_stalls.load(Ordering::Relaxed),
            write_throughs: self.stats.write_throughs.load(Ordering::Relaxed),
            ra_hits: self.stats.ra_hits.load(Ordering::Relaxed),
            ra_async_fills: self.stats.ra_async_fills.load(Ordering::Relaxed),
            ra_throttled: self.stats.ra_throttled.load(Ordering::Relaxed),
            ra_dropped: self.stats.ra_dropped.load(Ordering::Relaxed),
            demand_vector_fills: self.stats.demand_vector_fills.load(Ordering::Relaxed),
            meta_retries: self.stats.meta_retries.load(Ordering::Relaxed),
            lock_fallbacks: self.stats.lock_fallbacks.load(Ordering::Relaxed),
            read_locks: self.stats.read_locks.load(Ordering::Relaxed),
            invalidate_visits: self.stats.invalidate_visits.load(Ordering::Relaxed),
            ..CacheStats::default()
        }
    }

    /// Demand-miss fill covered a multi-page run with one vectored read
    /// (adapter-side account).
    pub fn note_vector_fill(&self) {
        self.stats
            .demand_vector_fills
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A planned prefetch window was dropped before filling (queue full
    /// or stream gone stale).
    pub fn note_ra_dropped(&self) {
        self.stats.ra_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Foreground write stalled on `NeedEviction` (adapter-side account).
    pub fn note_evict_stall(&self) {
        self.stats.evict_stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Buffered write fell back to write-through (adapter-side account).
    pub fn note_write_through(&self) {
        self.stats.write_throughs.fetch_add(1, Ordering::Relaxed);
    }

    /// Iterate the entry indices of one bucket's chain.
    pub(crate) fn chain(&self, bucket: usize) -> impl Iterator<Item = usize> + '_ {
        let first = bucket * self.cfg.bucket_entries;
        let mut cur = Some(first);
        std::iter::from_fn(move || {
            let i = cur?;
            let next = self.entries[i].next;
            cur = if next == u32::MAX {
                None
            } else {
                Some(next as usize)
            };
            Some(i)
        })
    }

    pub(crate) fn bucket_of(&self, ino: u64, lpn: u64) -> usize {
        bucket_of(ino, lpn, self.cfg.buckets())
    }

    /// Number of hash buckets (bounds for wire-supplied bucket indices).
    pub fn bucket_count(&self) -> usize {
        self.cfg.buckets()
    }

    fn stamp(&self, idx: usize) {
        let t = self.clock.fetch_add(1, Ordering::Relaxed);
        self.touch[idx].store(t, Ordering::Relaxed);
    }

    /// Front-end read: on a hit, copy the page into `dst`. `dst` must be
    /// exactly one page.
    pub fn lookup_read(&self, ino: u64, lpn: u64, dst: &mut [u8]) -> bool {
        self.lookup_read_hint(ino, lpn, dst).is_some()
    }

    /// [`lookup_read`](Self::lookup_read) that also reports the page's
    /// readahead flags: `Some(hint)` on a hit, `None` on a miss. Consuming
    /// a prefetched page scores a readahead hit (once — the flag word is
    /// swapped to zero); consuming the marker page tells the caller to
    /// hint the DPU so the *next* window is queued before this one runs
    /// dry.
    ///
    /// This is the one-copy convenience wrapper over
    /// [`lookup_read_ref`](Self::lookup_read_ref): optimistic attempts
    /// that keep getting torn by a write-hot entry degrade to a legacy
    /// read-locked copy, so the call always terminates.
    pub fn lookup_read_hint(&self, ino: u64, lpn: u64, dst: &mut [u8]) -> Option<ReadHint> {
        assert_eq!(dst.len(), PAGE_SIZE, "reads are page-granular");
        for _ in 0..FINISH_RETRIES {
            let Some(r) = self.lookup_read_ref(ino, lpn) else {
                // Not resident (or, in lock-based mode, write-locked —
                // the baseline's miss semantics). Do NOT degrade to a
                // waiting lock here: a miss must stay non-blocking.
                self.note_read_miss();
                return None;
            };
            let locked = r.is_locked();
            r.read(0, dst);
            if let Some(hint) = r.finish() {
                return Some(hint);
            }
            debug_assert!(!locked, "locked ReadRef finish cannot fail");
        }
        // Every attempt found the page resident but tore on validation —
        // a write-hot entry. Serve the copy under a read lock.
        if let Some(r) = self.lookup_read_locked(ino, lpn, true) {
            r.read(0, dst);
            return r.finish();
        }
        self.note_read_miss();
        None
    }

    /// Borrow a resident page for reading, without copying it.
    ///
    /// In the lock-free mode this takes **zero** locks: it snapshots the
    /// entry's seqlock version, checks identity (`<ino, lpn>`, non-free
    /// status) under that snapshot and hands out a [`ReadRef`] the caller
    /// reads through; [`ReadRef::finish`] revalidates the version and
    /// tells the caller whether the bytes it saw were stable. An entry
    /// whose version stays odd past a short spin budget (writer parked on
    /// it) degrades to a legacy read lock, counted in `lock_fallbacks`.
    ///
    /// In the lock-based mode (`meta_lockfree: false`) this is the
    /// paper's literal protocol: take the entry's read lock, counted in
    /// `read_locks`; a write-locked entry is treated as a miss.
    ///
    /// Returns `None` when the page is not resident — the caller decides
    /// whether that is a miss ([`note_read_miss`](Self::note_read_miss))
    /// or a retry.
    pub fn lookup_read_ref(&self, ino: u64, lpn: u64) -> Option<ReadRef<'_>> {
        if !self.cfg.meta_lockfree {
            return self.lookup_read_locked(ino, lpn, false);
        }
        let bucket = self.bucket_of(ino, lpn);
        'chain: for idx in self.chain(bucket) {
            let e = &self.entries[idx];
            let mut spins = 0usize;
            loop {
                let v = e.version();
                if v & 1 != 0 {
                    // Writer mid-mutation; back off briefly.
                    self.stats.meta_retries.fetch_add(1, Ordering::Relaxed);
                    spins += 1;
                    if spins > SEQ_SPIN_CAP {
                        return self.lookup_read_locked(ino, lpn, true);
                    }
                    if spins > SEQ_SPIN_CAP / 4 {
                        // The writer is likely preempted, not mid-burst:
                        // on an oversubscribed host, donating the slice
                        // beats burning it (the writer can't finish
                        // while we spin on its core).
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                    continue;
                }
                let matches = e.ino() == ino
                    && e.lpn() == lpn
                    && matches!(e.status(), EntryStatus::Clean | EntryStatus::Dirty);
                if !e.version_validate(v) {
                    // Identity fields were mutating under us; resnapshot.
                    self.stats.meta_retries.fetch_add(1, Ordering::Relaxed);
                    spins += 1;
                    if spins > SEQ_SPIN_CAP {
                        return self.lookup_read_locked(ino, lpn, true);
                    }
                    continue;
                }
                if !matches {
                    continue 'chain;
                }
                return Some(ReadRef {
                    cache: self,
                    idx,
                    seq: v,
                    locked: false,
                });
            }
        }
        None
    }

    /// The legacy read-locked lookup. With `spin_for_lock` (the seqlock
    /// fallback) a write-locked entry is waited out — the caller already
    /// knows optimism lost to a write-hot entry; without it (pure
    /// lock-based mode) a write-locked or reader-saturated entry is
    /// skipped, reproducing the baseline's hit-misclassified-as-miss
    /// behaviour that the seqlock plane eliminates.
    fn lookup_read_locked(&self, ino: u64, lpn: u64, spin_for_lock: bool) -> Option<ReadRef<'_>> {
        let bucket = self.bucket_of(ino, lpn);
        for idx in self.chain(bucket) {
            let e = &self.entries[idx];
            if e.ino() != ino || e.lpn() != lpn {
                continue;
            }
            let st = e.status();
            if st != EntryStatus::Clean && st != EntryStatus::Dirty {
                continue;
            }
            if spin_for_lock {
                lock_entry(|| e.try_read_lock());
            } else if !e.try_read_lock() {
                // Writer active (or MAX_READERS saturation); the baseline
                // protocol treats this resident page as a miss.
                continue;
            }
            // Re-validate under the lock (the entry may have been evicted
            // and reused between the scan and the lock).
            let ok = e.ino() == ino
                && e.lpn() == lpn
                && matches!(e.status(), EntryStatus::Clean | EntryStatus::Dirty);
            if !ok {
                e.read_unlock();
                continue;
            }
            self.stats.read_locks.fetch_add(1, Ordering::Relaxed);
            if spin_for_lock {
                self.stats.lock_fallbacks.fetch_add(1, Ordering::Relaxed);
            }
            return Some(ReadRef {
                cache: self,
                idx,
                seq: 0,
                locked: true,
            });
        }
        None
    }

    /// Account a front-end read miss. [`lookup_read_ref`] leaves the
    /// miss/retry decision to its caller, so the caller owns the counter.
    ///
    /// [`lookup_read_ref`]: Self::lookup_read_ref
    pub fn note_read_miss(&self) {
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Front-end write, steps 1–2 of the paper's protocol: find or claim a
    /// locked entry for `<ino, lpn>`. Write through the returned guard and
    /// finish with [`WriteGuard::commit_dirty`].
    pub fn begin_write(&self, ino: u64, lpn: u64) -> Result<WriteGuard<'_>, WriteError> {
        let bucket = self.bucket_of(ino, lpn);
        // Existing entry for this page? Overwrite in place.
        let (_claim, resident) = self.lock_resident(bucket, ino, lpn);
        if let Some(idx) = resident {
            return Ok(WriteGuard {
                cache: self,
                idx,
                claimed_free: false,
                committed: false,
            });
        }

        // Claim a free entry.
        for idx in self.chain(bucket) {
            let e = &self.entries[idx];
            if e.status() == EntryStatus::Free && e.try_write_lock() {
                if e.status() != EntryStatus::Free {
                    e.write_unlock();
                    continue;
                }
                e.ino.store(ino, Ordering::Release);
                e.lpn.store(lpn, Ordering::Release);
                e.valid.store(0, Ordering::Release);
                e.flags.store(0, Ordering::Release);
                self.header.free.fetch_sub(1, Ordering::Relaxed);
                self.note_resident(ino, lpn, true);
                return Ok(WriteGuard {
                    cache: self,
                    idx,
                    claimed_free: true,
                    committed: false,
                });
            }
        }

        Err(WriteError::NeedEviction { bucket })
    }

    /// Drop a page from the cache (truncate/unlink): write-lock the entry
    /// and mark it free. Returns whether the page was present.
    pub fn invalidate(&self, ino: u64, lpn: u64) -> bool {
        self.bump_ino_epoch(ino);
        self.release(ino, lpn)
    }

    /// Take `bucket`'s claim lock and write-lock the entry holding `<ino,
    /// lpn>` in it, if there is one. A fresh claim in progress counts: it
    /// is still `Free`, but carries its page under its write lock, and a
    /// second claim of the page must wait for it, not take another entry.
    /// A held entry is waited for with the claim lock released: its holder
    /// may be a writer that claims further pages of its own (in ascending
    /// order) before it lets this one go.
    fn lock_resident(
        &self,
        bucket: usize,
        ino: u64,
        lpn: u64,
    ) -> (MutexGuard<'_, ()>, Option<usize>) {
        let mut claim = self.bucket_claim[bucket].lock();
        let held = |idx: &usize| {
            let e = &self.entries[*idx];
            let taken = e.status() != EntryStatus::Free || e.lock.load(Ordering::Acquire) != 0;
            e.ino() == ino && e.lpn() == lpn && taken
        };
        while let Some(idx) = self.chain(bucket).find(held) {
            let e = &self.entries[idx];
            if !e.try_write_lock() {
                drop(claim);
                lock_entry(|| e.lock.load(Ordering::Acquire) == 0);
                claim = self.bucket_claim[bucket].lock();
            } else if e.status() == EntryStatus::Free {
                // The claim in progress rolled back.
                e.write_unlock();
            } else {
                // The claim lock keeps anyone from evicting it now.
                return (claim, Some(idx));
            }
        }
        (claim, None)
    }

    /// Free the entry of `<ino, lpn>`, whatever state it is in.
    fn release(&self, ino: u64, lpn: u64) -> bool {
        let bucket = self.bucket_of(ino, lpn);
        let (_claim, Some(idx)) = self.lock_resident(bucket, ino, lpn) else {
            return false;
        };
        let e = &self.entries[idx];
        if e.status() == EntryStatus::Dirty {
            self.note_clean(ino, lpn);
        }
        e.set_status(EntryStatus::Free);
        e.ino.store(0, Ordering::Release);
        e.lpn.store(0, Ordering::Release);
        e.flags.store(0, Ordering::Release);
        self.header.free.fetch_add(1, Ordering::Relaxed);
        self.note_resident(ino, lpn, false);
        e.write_unlock();
        true
    }

    /// Drop every cached page of one inode (unlink). Returns the number of
    /// pages invalidated. Costs what the inode has resident: an inode
    /// nobody read or wrote visits no entry at all.
    pub fn invalidate_ino(&self, ino: u64) -> usize {
        self.bump_ino_epoch(ino);
        let shard = self.resident[(ino as usize) % DIRTY_SHARDS].lock();
        let pages: Vec<u64> = shard.get(&ino).into_iter().flatten().copied().collect();
        drop(shard);
        let visits = pages.len() as u64;
        self.stats
            .invalidate_visits
            .fetch_add(visits, Ordering::Relaxed);
        pages
            .into_iter()
            .filter(|&lpn| self.release(ino, lpn))
            .count()
    }

    /// Count of entries currently dirty (scan; diagnostic).
    pub fn dirty_pages(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.status() == EntryStatus::Dirty)
            .count()
    }
}

/// A borrowed, epoch-validated view of one resident cache page
/// (DESIGN.md §4.2).
///
/// Obtained from [`HybridCache::lookup_read_ref`]. In the lock-free mode
/// the guard holds **no** lock — it carries the seqlock version snapshot
/// the lookup took. [`read`](ReadRef::read) copies bytes out of the
/// shared pool directly into the caller's destination (the only copy on
/// the hit path — straight into the user buffer for whole- or
/// partial-page reads alike), and [`finish`](ReadRef::finish) revalidates
/// the version: `Some(hint)` means every preceding `read` observed a
/// stable page and the hit is scored; `None` means a writer moved the
/// entry mid-read and the caller must discard the bytes and retry (or
/// fall back to the locked copy path). In the legacy mode the guard holds
/// the entry's read lock and `finish` cannot fail.
pub struct ReadRef<'a> {
    cache: &'a HybridCache,
    idx: usize,
    /// Version snapshot (lock-free mode only).
    seq: u32,
    /// Guard holds a legacy read lock (lock-based mode or fallback).
    locked: bool,
}

impl core::fmt::Debug for ReadRef<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ReadRef")
            .field("page", &self.idx)
            .field("locked", &self.locked)
            .field("seq", &self.seq)
            .finish()
    }
}

impl ReadRef<'_> {
    /// True when this guard pins the entry with a legacy read lock
    /// (lock-based mode, or the write-hot fallback path).
    fn is_locked(&self) -> bool {
        self.locked
    }

    /// Copy `dst.len()` bytes out of the page at `offset` into `dst`.
    ///
    /// May be called any number of times; in the lock-free mode the bytes
    /// are provisional until [`finish`](ReadRef::finish) validates them.
    pub fn read(&self, offset: usize, dst: &mut [u8]) {
        assert!(offset + dst.len() <= PAGE_SIZE, "read exceeds the page");
        if self.locked {
            // SAFETY: the guard holds the entry's read lock.
            unsafe { self.cache.pages.read(self.idx, offset, dst) };
        } else {
            // SAFETY: seqlock-validated in `finish`; the caller contract
            // (discard on None) keeps torn snapshots unobserved.
            unsafe { self.cache.pages.read_unsynced(self.idx, offset, dst) };
        }
    }

    /// Validate and score the read.
    ///
    /// `Some(hint)` — the snapshot was stable: the hit is counted, the
    /// LRU stamp refreshed and the readahead flag word consumed (at most
    /// once across racing readers; the swap arbitrates). `None` (lock-free
    /// mode only) — a writer began or finished on the entry since the
    /// lookup: nothing is scored and the caller must discard the bytes.
    pub fn finish(self) -> Option<ReadHint> {
        let cache = self.cache;
        let idx = self.idx;
        let locked = self.locked;
        let seq = self.seq;
        // Release/validation below subsumes the Drop path.
        std::mem::forget(self);
        let e = &cache.entries[idx];
        let mut flags = 0;
        if locked {
            // Consume the flag word; concurrent readers race on the swap
            // and exactly one of them observes the bits.
            if e.flags.load(Ordering::Relaxed) != 0 {
                flags = e.flags.swap(0, Ordering::AcqRel);
            }
            cache.stamp(idx);
            e.read_unlock();
        } else {
            if !e.version_validate(seq) {
                cache.stats.meta_retries.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            // Lock-free flag consumption: load-then-CAS so losers see 0.
            // The CAS can race an eviction+refill that re-tagged the
            // entry between our validation and the exchange — at worst a
            // readahead flag is consumed on behalf of the wrong stream, a
            // one-hint accounting glitch the hint consumer tolerates.
            let f = e.flags.load(Ordering::Acquire);
            if f != 0
                && e.flags
                    .compare_exchange(f, 0, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                flags = f;
            }
            cache.stamp(idx);
        }
        cache.stats.hits.fetch_add(1, Ordering::Relaxed);
        if flags & FLAG_PREFETCHED != 0 {
            cache.stats.ra_hits.fetch_add(1, Ordering::Relaxed);
        }
        Some(ReadHint {
            marker: flags & FLAG_MARKER != 0,
        })
    }
}

impl Drop for ReadRef<'_> {
    fn drop(&mut self) {
        // Abandoned without `finish` (caller bailed early): release the
        // pin. Nothing is scored.
        if self.locked {
            self.cache.entries[self.idx].read_unlock();
        }
    }
}

/// Exclusive access to one cache page (entry write lock held).
///
/// Completing with [`commit_dirty`](WriteGuard::commit_dirty) performs the
/// paper's step 4 (release the lock *and* set the dirty status); dropping
/// the guard without committing rolls a fresh claim back to free.
pub struct WriteGuard<'a> {
    cache: &'a HybridCache,
    idx: usize,
    claimed_free: bool,
    committed: bool,
}

impl core::fmt::Debug for WriteGuard<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("WriteGuard")
            .field("page", &self.idx)
            .field("claimed_free", &self.claimed_free)
            .finish()
    }
}

impl WriteGuard<'_> {
    /// True when this guard claimed a fresh (free) entry — the page
    /// content is undefined and the writer must fill it (or fetch the old
    /// page for a partial overwrite). False when overwriting an entry
    /// that already held this `<ino, lpn>`.
    pub fn claimed_free(&self) -> bool {
        self.claimed_free
    }

    /// Write into the page at `offset`; the entry's valid length grows to
    /// cover the written range.
    pub fn write(&mut self, offset: usize, src: &[u8]) {
        assert!(offset + src.len() <= PAGE_SIZE, "write exceeds the page");
        // SAFETY: the guard holds the entry's write lock.
        unsafe { self.cache.pages.write(self.idx, offset, src) };
        self.extend_valid(offset + src.len());
    }

    /// Grow the entry's valid length (meaningful page bytes) to at least
    /// `end`. `write` does this automatically; callers use it to mark
    /// ranges that are logically valid without rewriting them.
    fn extend_valid(&mut self, end: usize) {
        assert!(end <= PAGE_SIZE);
        let e = &self.cache.entries[self.idx];
        if e.valid.load(std::sync::atomic::Ordering::Relaxed) < end as u32 {
            e.valid
                .store(end as u32, std::sync::atomic::Ordering::Release);
        }
    }

    /// Shrink the valid length to exactly `end` (truncation support).
    ///
    /// Bytes between `end` and the old valid length are zeroed. Every
    /// fill path leaves the buffer zero past `valid` and readers
    /// ([`ReadRef::read`]) trust that invariant rather than re-checking
    /// `valid` on every copy — a clip that left the clipped bytes in
    /// place would let a later valid extension (truncate-grow, or a
    /// write higher in the page) resurrect them.
    pub fn set_valid(&mut self, end: usize) {
        assert!(end <= PAGE_SIZE);
        let e = &self.cache.entries[self.idx];
        let old = e.valid.load(std::sync::atomic::Ordering::Relaxed) as usize;
        if end < old {
            static ZEROS: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
            // SAFETY: the guard holds the entry's write lock.
            unsafe { self.cache.pages.write(self.idx, end, &ZEROS[..old - end]) };
        }
        e.valid
            .store(end as u32, std::sync::atomic::Ordering::Release);
    }

    /// Tag the entry's readahead flag bits (prefetched / marker). Set by
    /// the background prefetcher before committing its fill clean; the
    /// first demand hit consumes them.
    pub(crate) fn set_flags(&mut self, flags: u32) {
        self.cache.entries[self.idx]
            .flags
            .store(flags, std::sync::atomic::Ordering::Release);
    }

    /// Read back from the page (read-modify-write support).
    pub fn read(&self, offset: usize, dst: &mut [u8]) {
        assert!(offset + dst.len() <= PAGE_SIZE, "read exceeds the page");
        // SAFETY: the guard holds the entry's write lock.
        unsafe { self.cache.pages.read(self.idx, offset, dst) };
    }

    /// Step 4: release the write lock and set the dirty status.
    pub fn commit_dirty(mut self) {
        let e = &self.cache.entries[self.idx];
        // Index while still holding the write lock, so the flusher's
        // clean-side removal (done under the read lock) cannot interleave.
        // Re-dirtying an already-Dirty page skips the index: the write
        // lock pins the status, and Dirty status implies the page is
        // already indexed — the shard mutex + BTree insert would be a
        // no-op on the hottest path (overwriting a not-yet-flushed page).
        let was_dirty = e.status() == EntryStatus::Dirty;
        // A freshly-written page is no longer a prefetched page, and a
        // marker on it would fire a hint for a stream that just changed.
        e.flags.store(0, Ordering::Release);
        e.set_status(EntryStatus::Dirty);
        if !was_dirty {
            self.cache.note_dirty(e.ino(), e.lpn());
        }
        self.cache.stamp(self.idx);
        self.cache.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.committed = true;
        e.write_unlock();
    }

    /// Commit as clean (prefetch inserts and host-side read fills).
    pub fn commit_clean(mut self) {
        let e = &self.cache.entries[self.idx];
        if e.status() == EntryStatus::Dirty {
            self.cache.note_clean(e.ino(), e.lpn());
        }
        e.set_status(EntryStatus::Clean);
        self.cache.stamp(self.idx);
        self.committed = true;
        e.write_unlock();
    }
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        if self.committed {
            return;
        }
        let e = &self.cache.entries[self.idx];
        if self.claimed_free {
            // Roll the claim back.
            self.cache.note_resident(e.ino(), e.lpn(), false);
            e.ino.store(0, Ordering::Release);
            e.lpn.store(0, Ordering::Release);
            e.set_status(EntryStatus::Free);
            self.cache.header.free.fetch_add(1, Ordering::Relaxed);
        }
        e.write_unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> HybridCache {
        HybridCache::new(CacheConfig {
            pages: 64,
            bucket_entries: 8,
            mode: 1,
            meta_lockfree: true,
        })
    }

    fn small_cache_locked() -> HybridCache {
        HybridCache::new(CacheConfig {
            pages: 64,
            bucket_entries: 8,
            mode: 1,
            meta_lockfree: false,
        })
    }

    #[test]
    fn a_page_being_claimed_is_waited_for_not_claimed_twice() {
        let c = std::sync::Arc::new(small_cache());
        let mut first = c.begin_write(1, 5).unwrap();
        assert!(first.claimed_free());
        let c2 = c.clone();
        let second = std::thread::spawn(move || {
            let g = c2.begin_write(1, 5).unwrap();
            let fresh = g.claimed_free();
            g.commit_dirty();
            fresh
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        first.write(0, &[9; PAGE_SIZE]);
        first.commit_dirty();
        assert!(
            !second.join().unwrap(),
            "the second claim took another entry"
        );
        assert_eq!(c.header().free(), 63, "one entry holds the page");
    }

    #[test]
    fn write_then_read_hit() {
        let c = small_cache();
        let mut g = c.begin_write(7, 3).unwrap();
        g.write(0, &[0xAB; PAGE_SIZE]);
        g.commit_dirty();

        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(c.lookup_read(7, 3, &mut buf));
        assert_eq!(buf, vec![0xAB; PAGE_SIZE]);
        let s = c.stats();
        assert_eq!((s.writes, s.hits, s.misses), (1, 1, 0));
        // Single-threaded hit path: no lock traffic, no retries.
        assert_eq!((s.read_locks, s.lock_fallbacks, s.meta_retries), (0, 0, 0));
        assert_eq!(c.header().free(), 63);
        assert_eq!(c.dirty_pages(), 1);
    }

    #[test]
    fn hit_path_takes_zero_locks_across_many_reads() {
        let c = small_cache();
        for lpn in 0..32u64 {
            let mut g = c.begin_write(3, lpn).unwrap();
            g.write(0, &[lpn as u8; PAGE_SIZE]);
            g.commit_dirty();
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        for round in 0..4 {
            for lpn in 0..32u64 {
                assert!(c.lookup_read(3, lpn, &mut buf), "round {round} lpn {lpn}");
                assert_eq!(buf[0], lpn as u8);
            }
        }
        let s = c.stats();
        assert_eq!(s.hits, 128);
        assert_eq!((s.read_locks, s.lock_fallbacks, s.meta_retries), (0, 0, 0));
    }

    #[test]
    fn lock_based_mode_counts_read_locks() {
        let c = small_cache_locked();
        let mut g = c.begin_write(7, 3).unwrap();
        g.write(0, &[0xCD; PAGE_SIZE]);
        g.commit_dirty();
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(c.lookup_read(7, 3, &mut buf));
        let s = c.stats();
        assert_eq!((s.hits, s.read_locks), (1, 1));
        assert_eq!(s.lock_fallbacks, 0, "no optimism to fall back from");
    }

    #[test]
    fn lock_based_mode_misclassifies_writer_active_hit_as_miss() {
        // The baseline behaviour the seqlock plane removes: a resident
        // page whose entry is write-locked reads as a miss.
        let c = small_cache_locked();
        let mut g = c.begin_write(9, 1).unwrap();
        g.write(0, &[1; PAGE_SIZE]);
        g.commit_dirty();

        let held = c.begin_write(9, 1).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(!c.lookup_read(9, 1, &mut buf), "write-locked entry ⇒ miss");
        assert_eq!(c.stats().misses, 1);
        drop(held); // rolls back (overwrite guard, not a fresh claim)
        assert!(c.lookup_read(9, 1, &mut buf));
    }

    #[test]
    fn read_ref_serves_partial_ranges_without_locks() {
        let c = small_cache();
        let mut g = c.begin_write(4, 2).unwrap();
        let mut pat = [0u8; PAGE_SIZE];
        for (i, b) in pat.iter_mut().enumerate() {
            *b = i as u8;
        }
        g.write(0, &pat);
        g.commit_dirty();

        let r = c.lookup_read_ref(4, 2).expect("resident");
        assert!(!r.is_locked());
        assert_eq!(c.entries[r.idx].valid() as usize, PAGE_SIZE);
        let mut mid = [0u8; 100];
        r.read(37, &mut mid);
        assert!(r.finish().is_some());
        assert_eq!(&mid[..], &pat[37..137]);
        let s = c.stats();
        assert_eq!((s.hits, s.read_locks), (1, 0));
    }

    #[test]
    fn torn_read_is_detected_by_finish() {
        let c = small_cache();
        let mut g = c.begin_write(1, 1).unwrap();
        g.write(0, &[0x11; PAGE_SIZE]);
        g.commit_dirty();

        let r = c.lookup_read_ref(1, 1).expect("resident");
        let mut buf = vec![0u8; PAGE_SIZE];
        r.read(0, &mut buf);
        // A writer lands between the optimistic read and its validation.
        let mut g = c.begin_write(1, 1).unwrap();
        g.write(0, &[0x22; PAGE_SIZE]);
        g.commit_dirty();
        assert!(r.finish().is_none(), "moved version must invalidate");
        let s = c.stats();
        assert_eq!(s.hits, 0, "torn read scores nothing");
        assert!(s.meta_retries >= 1);

        // The copy wrapper retries and settles on the new bytes.
        assert!(c.lookup_read(1, 1, &mut buf));
        assert_eq!(buf, vec![0x22; PAGE_SIZE]);
    }

    #[test]
    fn abandoned_read_ref_releases_its_lock() {
        let c = small_cache_locked();
        let mut g = c.begin_write(2, 2).unwrap();
        g.write(0, &[5; PAGE_SIZE]);
        g.commit_dirty();
        {
            let r = c.lookup_read_ref(2, 2).expect("resident");
            assert!(r.is_locked());
            // dropped without finish
        }
        // The read lock must be gone or this overwrite would deadlock.
        let mut g = c.begin_write(2, 2).unwrap();
        g.write(0, &[6; PAGE_SIZE]);
        g.commit_dirty();
    }

    #[test]
    fn miss_on_absent_page() {
        let c = small_cache();
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(!c.lookup_read(1, 1, &mut buf));
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn overwrite_reuses_entry() {
        let c = small_cache();
        let mut g = c.begin_write(7, 3).unwrap();
        g.write(0, &[1; PAGE_SIZE]);
        g.commit_dirty();
        let mut g = c.begin_write(7, 3).unwrap();
        g.write(0, &[2; PAGE_SIZE]);
        g.commit_dirty();
        assert_eq!(c.header().free(), 63, "no second page consumed");
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(c.lookup_read(7, 3, &mut buf));
        assert_eq!(buf[0], 2);
    }

    #[test]
    fn partial_write_preserves_rest_of_page() {
        let c = small_cache();
        let mut g = c.begin_write(1, 1).unwrap();
        g.write(0, &[9; PAGE_SIZE]);
        g.commit_dirty();
        let mut g = c.begin_write(1, 1).unwrap();
        g.write(100, &[7; 8]);
        g.commit_dirty();
        let mut buf = vec![0u8; PAGE_SIZE];
        c.lookup_read(1, 1, &mut buf);
        assert_eq!(buf[99], 9);
        assert_eq!(buf[100..108], [7; 8]);
        assert_eq!(buf[108], 9);
    }

    #[test]
    fn abandoned_claim_rolls_back() {
        let c = small_cache();
        {
            let mut g = c.begin_write(5, 5).unwrap();
            g.write(0, &[1; 16]);
            // dropped without commit
        }
        assert_eq!(c.header().free(), 64);
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(!c.lookup_read(5, 5, &mut buf));
    }

    #[test]
    fn bucket_exhaustion_requests_eviction() {
        let c = HybridCache::new(CacheConfig {
            pages: 8,
            bucket_entries: 8, // one bucket
            mode: 1,
            meta_lockfree: true,
        });
        for lpn in 0..8 {
            let mut g = c.begin_write(1, lpn).unwrap();
            g.write(0, &[lpn as u8; 8]);
            g.commit_dirty();
        }
        match c.begin_write(1, 100) {
            Err(WriteError::NeedEviction { bucket: 0 }) => {}
            other => panic!("expected NeedEviction, got {other:?}"),
        };
    }

    #[test]
    fn invalidate_frees_entry() {
        let c = small_cache();
        let mut g = c.begin_write(2, 9).unwrap();
        g.write(0, &[3; 32]);
        g.commit_dirty();
        assert!(c.invalidate(2, 9));
        assert!(!c.invalidate(2, 9));
        assert_eq!(c.header().free(), 64);
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(!c.lookup_read(2, 9, &mut buf));
    }

    #[test]
    fn concurrent_writers_distinct_pages() {
        let c = std::sync::Arc::new(HybridCache::new(CacheConfig {
            pages: 1024,
            bucket_entries: 8,
            mode: 1,
            meta_lockfree: true,
        }));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = c.clone();
                s.spawn(move || {
                    for lpn in 0..64u64 {
                        let mut g = c.begin_write(t, lpn).unwrap();
                        g.write(0, &[(t * 64 + lpn) as u8; PAGE_SIZE]);
                        g.commit_dirty();
                    }
                });
            }
        });
        let mut buf = vec![0u8; PAGE_SIZE];
        for t in 0..8u64 {
            for lpn in 0..64u64 {
                assert!(c.lookup_read(t, lpn, &mut buf), "t={t} lpn={lpn}");
                assert_eq!(buf[0], (t * 64 + lpn) as u8);
            }
        }
        assert_eq!(c.header().free(), 1024 - 512);
    }

    #[test]
    fn dirty_index_tracks_commits_and_invalidation() {
        let c = small_cache();
        assert_eq!(c.dirty_count(), 0);
        for lpn in [3u64, 4, 5, 9] {
            let mut g = c.begin_write(7, lpn).unwrap();
            g.write(0, &[1; 64]);
            g.commit_dirty();
        }
        assert_eq!(c.dirty_count(), 4);
        assert_eq!(c.dirty_count(), c.dirty_pages(), "index mirrors the scan");
        assert!(c.has_dirty_in_range(7, 3, 5));
        assert!(c.has_dirty_in_range(7, 9, 9));
        assert!(!c.has_dirty_in_range(7, 6, 8));
        assert!(!c.has_dirty_in_range(8, 0, u64::MAX));

        // Re-dirtying the same page must not double count.
        let mut g = c.begin_write(7, 3).unwrap();
        g.write(0, &[2; 64]);
        g.commit_dirty();
        assert_eq!(c.dirty_count(), 4);

        let snap = c.dirty_snapshot(Some(7));
        assert_eq!(snap, vec![(7, vec![3, 4, 5, 9])]);

        assert!(c.invalidate(7, 4));
        assert_eq!(c.dirty_count(), 3);
        assert_eq!(c.invalidate_ino(7), 3);
        assert_eq!(c.dirty_count(), 0);
        assert_eq!(c.dirty_pages(), 0);
    }

    #[test]
    fn dropping_an_inode_visits_what_it_has_resident_and_no_more() {
        let c = small_cache(); // 64 entries
        for lpn in 0..5u64 {
            let mut g = c.begin_write(7, lpn).unwrap();
            g.write(0, &[1; 64]);
            if lpn % 2 == 0 {
                g.commit_dirty();
            } else {
                g.commit_clean();
            }
        }
        // A claim rolled back and a page invalidated are not resident.
        drop(c.begin_write(7, 50).unwrap());
        assert!(c.invalidate(7, 4));
        // An inode nobody read or wrote: no entry is looked at.
        assert_eq!(c.invalidate_ino(8), 0);
        assert_eq!(c.stats().invalidate_visits, 0);
        // One with four pages in: four, of 64.
        assert_eq!(c.invalidate_ino(7), 4);
        assert_eq!(c.stats().invalidate_visits, 4);
        assert_eq!((c.header().free(), c.dirty_count()), (64, 0));
        assert_eq!(c.invalidate_ino(7), 0);
        assert_eq!(c.stats().invalidate_visits, 4);
    }

    #[test]
    fn clean_commit_over_dirty_page_updates_index() {
        let c = small_cache();
        let mut g = c.begin_write(1, 1).unwrap();
        g.write(0, &[1; PAGE_SIZE]);
        g.commit_dirty();
        assert_eq!(c.dirty_count(), 1);
        // A read-fill landing on the (already dirty) page commits clean:
        // the index must drop it or the ratio drifts upward forever.
        let mut g = c.begin_write(1, 1).unwrap();
        g.write(0, &[2; PAGE_SIZE]);
        g.commit_clean();
        assert_eq!(c.dirty_count(), 0);
        assert_eq!(c.dirty_pages(), 0);
    }

    #[test]
    fn dirty_count_follows_commits() {
        let c = small_cache(); // 64 pages
        for lpn in 0..16u64 {
            let mut g = c.begin_write(2, lpn).unwrap();
            g.write(0, &[0xCC; 8]);
            g.commit_dirty();
        }
        assert_eq!(c.dirty_count(), 16);
    }

    #[test]
    fn dirty_end_is_where_the_last_dirty_page_stops() {
        let c = small_cache();
        assert_eq!(c.dirty_end(3), None, "an empty cache");
        for (lpn, len) in [(0, PAGE_SIZE), (2, 1808)] {
            let mut g = c.begin_write(3, lpn).unwrap();
            g.write(0, &vec![0xAB; len]);
            g.commit_dirty();
        }
        // A clean page further out is not a write the backend lacks.
        let mut g = c.begin_write(3, 5).unwrap();
        g.write(0, &[1; 10]);
        g.commit_clean();
        assert_eq!(c.dirty_end(3), Some(2 * PAGE_SIZE as u64 + 1808));
        assert_eq!(c.dirty_end(4), None, "another inode's pages");
        c.invalidate(3, 2);
        assert_eq!(c.dirty_end(3), Some(PAGE_SIZE as u64));
    }

    #[test]
    fn a_readahead_marker_is_consumed_by_exactly_one_racing_reader() {
        // Each round tags one resident page as the marker, then readers
        // released together hit it three ways: the lock-free ref, the
        // public `lookup_read_hint`, and the read-locked lookup that
        // `lookup_read_hint` falls back to. One `marker: true` per round.
        const READERS: usize = 4;
        const ROUNDS: usize = 500;
        let c = small_cache();
        let marked = || {
            let mut g = c.begin_write(3, 9).unwrap();
            g.write(0, &[0x5A; PAGE_SIZE]);
            g.set_flags(FLAG_PREFETCHED | FLAG_MARKER);
            g.commit_clean();
        };
        let start = std::sync::Barrier::new(READERS + 1);
        let done = std::sync::Barrier::new(READERS + 1);
        let markers = std::sync::atomic::AtomicUsize::new(0);
        let seen = std::thread::scope(|s| {
            for reader in 0..READERS {
                let (c, start, done, markers) = (&c, &start, &done, &markers);
                s.spawn(move || {
                    let mut buf = vec![0u8; PAGE_SIZE];
                    for _ in 0..ROUNDS {
                        start.wait();
                        // No reader panics: a dead reader would leave the
                        // others at the barrier. A miss counts no marker.
                        let hint = match reader % 3 {
                            0 => loop {
                                match c.lookup_read_ref(3, 9).map(ReadRef::finish) {
                                    Some(None) => continue,
                                    hint => break hint.flatten(),
                                }
                            },
                            1 => c.lookup_read_hint(3, 9, &mut buf),
                            _ => c.lookup_read_locked(3, 9, true).and_then(ReadRef::finish),
                        };
                        markers.fetch_add(
                            usize::from(hint.is_some_and(|h| h.marker)),
                            Ordering::Relaxed,
                        );
                        done.wait();
                    }
                });
            }
            // Counted here and checked after the readers join: a failed
            // assertion mid-round would leave them at the barrier.
            (0..ROUNDS)
                .map(|_| {
                    marked();
                    start.wait();
                    done.wait();
                    markers.swap(0, Ordering::Relaxed)
                })
                .collect::<Vec<_>>()
        });
        for (round, &n) in seen.iter().enumerate() {
            assert_eq!(n, 1, "round {round}: {n} readers saw the marker");
        }
        let s = c.stats();
        assert_eq!(
            s.ra_hits, ROUNDS as u64,
            "one prefetched hit scored per round"
        );
    }

    #[test]
    fn concurrent_same_page_write_and_read_never_tears() {
        // Readers must see either the old or the new pattern, never a mix.
        let c = std::sync::Arc::new(small_cache());
        let mut g = c.begin_write(1, 1).unwrap();
        g.write(0, &[0u8; PAGE_SIZE]);
        g.commit_dirty();

        let stop = std::sync::atomic::AtomicBool::new(false);
        let stop = &stop;
        std::thread::scope(|s| {
            let cw = c.clone();
            s.spawn(move || {
                for i in 1..200u64 {
                    let mut g = cw.begin_write(1, 1).unwrap();
                    g.write(0, &[i as u8; PAGE_SIZE]);
                    g.commit_dirty();
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
            let cr = c.clone();
            s.spawn(move || {
                let mut buf = vec![0u8; PAGE_SIZE];
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    if cr.lookup_read(1, 1, &mut buf) {
                        let first = buf[0];
                        assert!(
                            buf.iter().all(|&b| b == first),
                            "torn page read: {} vs {}",
                            first,
                            buf.iter().find(|&&b| b != first).unwrap()
                        );
                    }
                }
            });
        });
    }

    /// A page of bytes no shift of a few blocks maps onto itself: a copy
    /// that moves a block to the wrong place, or drops or repeats one,
    /// reads back wrong.
    fn distinct_page(salt: u8) -> Vec<u8> {
        (0..PAGE_SIZE)
            .map(|i| (i as u8) ^ ((i >> 8) as u8).wrapping_mul(37) ^ salt)
            .collect()
    }

    #[test]
    fn block_copy_agrees_with_the_locked_copy_at_every_offset_and_length() {
        let c = small_cache();
        let page = distinct_page(0);
        let mut g = c.begin_write(6, 3).unwrap();
        g.write(0, &page);
        g.commit_dirty();

        let fast = c.lookup_read_ref(6, 3).expect("resident");
        let locked = c.lookup_read_locked(6, 3, true).expect("resident");
        assert!(!fast.is_locked() && locked.is_locked());
        // Sentinels on both sides of the destination catch a store past
        // either end; the destination's own alignment moves with the
        // offset.
        let mut got = vec![0u8; PAGE_SIZE + 64];
        let mut want = vec![0u8; PAGE_SIZE + 64];
        for offset in (0..=127).chain(PAGE_SIZE - 127..PAGE_SIZE) {
            let rest = PAGE_SIZE - offset;
            let at = 16 + offset % 13;
            for len in (0..=rest.min(300)).chain([rest]) {
                got.fill(0xA5);
                want.fill(0xA5);
                fast.read(offset, &mut got[at..at + len]);
                locked.read(offset, &mut want[at..at + len]);
                assert!(got == want, "offset {offset}, length {len}");
                assert_eq!(&got[at..at + len], &page[offset..offset + len]);
            }
        }
        assert!(fast.finish().is_some(), "no writer moved the page");
        assert!(locked.finish().is_some());
    }

    #[test]
    fn unaligned_partial_reads_racing_whole_page_writes_never_pass_finish_torn() {
        // A writer alternates two whole-page fills; readers copy ranges
        // that start off any alignment and cover at least one 64-byte
        // block plus a tail. Whatever `finish` accepts is one fill's
        // bytes, never a mix.
        let fills = [distinct_page(0), distinct_page(0xFF)];
        let c = std::sync::Arc::new(small_cache());
        let mut g = c.begin_write(5, 5).unwrap();
        g.write(0, &fills[0]);
        g.commit_dirty();

        let stop = std::sync::atomic::AtomicBool::new(false);
        let (stop, fills) = (&stop, &fills);
        std::thread::scope(|s| {
            let cw = c.clone();
            s.spawn(move || {
                for i in 1..4000usize {
                    let mut g = cw.begin_write(5, 5).unwrap();
                    g.write(0, &fills[i % 2]);
                    g.commit_dirty();
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
            for reader in 0..2usize {
                let cr = c.clone();
                s.spawn(move || {
                    let mut buf = vec![0u8; PAGE_SIZE];
                    let mut k = reader * 31;
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        k += 1;
                        let offset = 1 + k % 63;
                        let len = 64 * (1 + k % 7) + 1 + k % 63;
                        let Some(r) = cr.lookup_read_ref(5, 5) else {
                            continue;
                        };
                        r.read(offset, &mut buf[..len]);
                        if r.finish().is_none() {
                            continue; // torn, and thrown away
                        }
                        let got = &buf[..len];
                        assert!(
                            fills.iter().any(|f| got == &f[offset..offset + len]),
                            "torn read passed finish at offset {offset}, length {len}"
                        );
                    }
                });
            }
        });
    }

    /// Pin the calling thread — and every thread it spawns from here on —
    /// to one CPU of those it may run on. `false` when the kernel refuses.
    #[cfg(target_os = "linux")]
    fn pin_to_one_core() -> bool {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; 16];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: glibc's wrappers; `mask` is `bytes` long and outlives
        // both calls; pid 0 is the calling thread.
        unsafe {
            if sched_getaffinity(0, bytes, mask.as_mut_ptr()) != 0 {
                return false;
            }
            let Some(word) = mask.iter().position(|w| *w != 0) else {
                return false;
            };
            let bit = mask[word] & mask[word].wrapping_neg();
            mask = [0u64; 16];
            mask[word] = bit;
            sched_setaffinity(0, bytes, mask.as_ptr()) == 0
        }
    }

    /// Nanoseconds the calling thread has spent on a CPU.
    #[cfg(target_os = "linux")]
    fn thread_cpu_ns() -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        stat.split_whitespace().next()?.parse().ok()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_writer_waiting_on_a_held_entry_gives_its_core_to_the_holder() {
        // One core, a reader holding an entry's lock, a writer that wants
        // it. The holder needs 200 turns of the scheduler before it lets
        // go; a writer that spins hands each of them over only when its
        // whole timeslice has burnt (200 × ≥ 0.75 ms of CPU), a writer
        // that yields hands them over at once (≈ a microsecond each).
        if !pin_to_one_core() || thread_cpu_ns().is_none() {
            eprintln!("skipped: cannot pin to one core or read schedstat");
            return;
        }
        type Op = fn(&HybridCache) -> bool;
        let ops: [(&str, Op); 3] = [
            ("begin_write", |c| c.begin_write(7, 0).is_ok()),
            ("invalidate", |c| c.invalidate(7, 0)),
            ("invalidate_ino", |c| c.invalidate_ino(7) == 1),
        ];
        for (name, op) in ops {
            let c = small_cache_locked();
            c.begin_write(7, 0).unwrap().commit_dirty();
            let held = c.lookup_read_ref(7, 0).expect("resident");
            assert!(held.is_locked());
            let waiting = std::sync::atomic::AtomicBool::new(false);
            let burnt = std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    let before = thread_cpu_ns().expect("schedstat");
                    waiting.store(true, Ordering::Release);
                    assert!(op(&c), "{name} after the holder let go");
                    thread_cpu_ns().expect("schedstat") - before
                });
                while !waiting.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                for _ in 0..200 {
                    std::thread::yield_now();
                }
                drop(held);
                writer.join().expect("writer thread")
            });
            assert!(
                burnt < 20_000_000,
                "{name} burnt {burnt} ns of CPU waiting for the entry lock"
            );
        }
    }
}
