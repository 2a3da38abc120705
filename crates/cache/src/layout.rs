//! The hybrid cache's memory layout (paper §3.3, Figure 5).
//!
//! One contiguous host-memory block holds three areas:
//!
//! - **header** — `pagesize`, `mode` (0 read / 1 write), `total` pages,
//!   `free` pages;
//! - **meta area** — an array of cache entries doubling as a hash table:
//!   it is divided into buckets of equal entry count, entries within a
//!   bucket chained by `next`; each entry records `lock`, `status`,
//!   `lpn` and `inode`;
//! - **data area** — one page per entry, entry *i* ↔ page *i*, so locating
//!   an entry locates its page.
//!
//! The `lock` word is the concurrency-control primitive shared between the
//! host data plane and the DPU control plane: the host manipulates it with
//! ordinary CPU atomics (the meta area lives in host DRAM), the DPU with
//! PCIe atomics (accounted through the DMA engine).

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

/// Cache page size ("pagesize specifies the page size, usually 4KB").
pub const PAGE_SIZE: usize = 4096;

/// Entry status codes, exactly the paper's encoding.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum EntryStatus {
    /// The cache entry is free.
    Free = 0,
    /// The corresponding page is clean.
    Clean = 1,
    /// The corresponding page is dirty.
    Dirty = 2,
    /// The page is invalid (being torn down).
    Invalid = 3,
}

impl EntryStatus {
    pub fn from_u32(v: u32) -> EntryStatus {
        match v {
            0 => EntryStatus::Free,
            1 => EntryStatus::Clean,
            2 => EntryStatus::Dirty,
            _ => EntryStatus::Invalid,
        }
    }
}

/// Internal lock encoding: 0 = unlocked, `u32::MAX` = write lock,
/// `u32::MAX - 1` = invalid, anything else = reader count.
pub(crate) const LOCK_WRITE: u32 = u32::MAX;
pub(crate) const LOCK_INVALID: u32 = u32::MAX - 1;
pub(crate) const MAX_READERS: u32 = u32::MAX - 2;

/// Entry flag bits (the `flags` word on [`CacheEntry`]).
///
/// `FLAG_PREFETCHED` marks a page inserted by the background prefetcher
/// and not yet consumed by a demand read — the first hit clears it and
/// scores a readahead hit, so the hit ratio counts distinct pages.
/// `FLAG_MARKER` is the async-trigger page (the analogue of Linux's
/// `PG_readahead`): a demand hit on it tells the adapter to request the
/// *next* window while the stream is still consuming this one.
pub(crate) const FLAG_PREFETCHED: u32 = 1;
pub(crate) const FLAG_MARKER: u32 = 2;

/// One meta-area cache entry.
///
/// `next` is the intra-bucket chain link fixed at initialisation (the
/// bucket's entries form a static list, terminated by `u32::MAX`).
pub struct CacheEntry {
    pub(crate) lock: AtomicU32,
    pub(crate) status: AtomicU32,
    pub(crate) next: u32,
    pub(crate) lpn: AtomicU64,
    pub(crate) ino: AtomicU64,
    /// Meaningful bytes of the page (a tail page of a file is valid only
    /// up to the file's logical end; the flusher must not write padding).
    pub(crate) valid: AtomicU32,
    /// Readahead flag bits ([`FLAG_PREFETCHED`], [`FLAG_MARKER`]). Set
    /// under the entry's write lock; consumed (swapped to zero) by the
    /// first demand reader under a read lock — the atomic swap makes the
    /// consumption exactly-once even among racing readers.
    pub(crate) flags: AtomicU32,
    /// Seqlock version word (DESIGN.md §4.2). Even = stable, odd = a
    /// writer is mutating meta + page. Bumped to odd by
    /// [`CacheEntry::try_write_lock`] and back to even by
    /// [`CacheEntry::write_unlock`], so every writer path — overwrite,
    /// fill, evict, invalidate — inherits the protocol without
    /// call-site changes. Optimistic readers snapshot it, read, and
    /// revalidate; they never touch `lock`.
    pub(crate) seq: AtomicU32,
}

impl CacheEntry {
    pub(crate) fn new(next: u32) -> CacheEntry {
        CacheEntry {
            lock: AtomicU32::new(0),
            status: AtomicU32::new(EntryStatus::Free as u32),
            next,
            lpn: AtomicU64::new(0),
            ino: AtomicU64::new(0),
            valid: AtomicU32::new(0),
            flags: AtomicU32::new(0),
            seq: AtomicU32::new(0),
        }
    }

    pub fn status(&self) -> EntryStatus {
        EntryStatus::from_u32(self.status.load(Ordering::Acquire))
    }

    pub fn ino(&self) -> u64 {
        self.ino.load(Ordering::Acquire)
    }

    pub fn lpn(&self) -> u64 {
        self.lpn.load(Ordering::Acquire)
    }

    /// Meaningful bytes of the page.
    pub fn valid(&self) -> u32 {
        self.valid.load(Ordering::Acquire)
    }

    /// Try to take the write lock (CAS 0 → WRITE).
    ///
    /// On success the seqlock version word is bumped to odd *before* the
    /// caller's first mutation becomes visible: optimistic readers that
    /// load an odd version back off, and any reader overlapping the
    /// mutation sees a version mismatch on revalidation. The CAS on
    /// `lock` still serialises writers against each other (and against
    /// legacy read locks), so the version word itself has exactly one
    /// mutator at a time.
    pub(crate) fn try_write_lock(&self) -> bool {
        if self
            .lock
            .compare_exchange(0, LOCK_WRITE, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        let s = self.seq.load(Ordering::Relaxed);
        debug_assert_eq!(s & 1, 0, "write lock acquired with odd version");
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        // Order the odd store before every subsequent meta/page write.
        fence(Ordering::Release);
        true
    }

    /// Release the write lock, publishing the even version first so a
    /// reader that revalidates after seeing the unlocked word also sees
    /// the version moved.
    pub(crate) fn write_unlock(&self) {
        let s = self.seq.load(Ordering::Relaxed);
        debug_assert_eq!(s & 1, 1, "write_unlock with even version");
        self.seq.store(s.wrapping_add(1), Ordering::Release);
        let prev = self.lock.swap(0, Ordering::Release);
        debug_assert_eq!(prev, LOCK_WRITE, "write_unlock without write lock");
    }

    /// Snapshot the seqlock version word. Even values are stable
    /// snapshots; odd means a writer is mid-mutation.
    pub(crate) fn version(&self) -> u32 {
        self.seq.load(Ordering::Acquire)
    }

    /// Revalidate an optimistic read begun at version `v`: true iff no
    /// writer began (or finished) in between. The acquire fence orders
    /// the caller's data reads before this version re-load.
    pub(crate) fn version_validate(&self, v: u32) -> bool {
        fence(Ordering::Acquire);
        self.seq.load(Ordering::Relaxed) == v
    }

    /// Try to add a reader (fails under a write lock / invalid marker).
    pub(crate) fn try_read_lock(&self) -> bool {
        let mut cur = self.lock.load(Ordering::Relaxed);
        loop {
            if cur == LOCK_WRITE || cur == LOCK_INVALID || cur >= MAX_READERS {
                return false;
            }
            match self.lock.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Drop one reader.
    pub(crate) fn read_unlock(&self) {
        let prev = self.lock.fetch_sub(1, Ordering::Release);
        debug_assert!((1..MAX_READERS).contains(&prev), "read_unlock imbalance");
    }

    pub(crate) fn set_status(&self, s: EntryStatus) {
        self.status.store(s as u32, Ordering::Release);
    }
}

/// The cache header ("stores the overall information of the cache").
pub struct CacheHeader {
    /// Page size; 4 KiB throughout the paper.
    pub pagesize: u32,
    /// 0 = read cache, 1 = write cache.
    pub mode: u32,
    /// Total page count.
    pub total: u32,
    /// Available (free) pages.
    pub(crate) free: AtomicU64,
}

impl CacheHeader {
    pub fn free(&self) -> u64 {
        self.free.load(Ordering::Relaxed)
    }
}

/// Static cache geometry.
#[derive(Copy, Clone, Debug)]
pub struct CacheConfig {
    /// Total number of pages (== number of cache entries).
    pub pages: usize,
    /// Entries per hash bucket (chain length).
    pub bucket_entries: usize,
    /// 0 = read cache, 1 = write cache (header field; informational).
    pub mode: u32,
    /// Serve read hits through the lock-free seqlock meta plane
    /// (DESIGN.md §4.2). When false, readers fall back to the paper's
    /// literal per-entry read-lock protocol — kept as the comparison
    /// baseline for the equivalence proptest.
    pub meta_lockfree: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            pages: 4096, // 16 MiB of cache pages
            bucket_entries: 8,
            mode: 1,
            meta_lockfree: true,
        }
    }
}

impl CacheConfig {
    pub fn buckets(&self) -> usize {
        assert!(
            self.pages.is_multiple_of(self.bucket_entries),
            "pages must divide evenly into buckets"
        );
        self.pages / self.bucket_entries
    }
}

/// Hash `<inode, lpn>` to a bucket index (FNV-1a over both words).
pub(crate) fn bucket_of(ino: u64, lpn: u64, buckets: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in ino.to_le_bytes().into_iter().chain(lpn.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % buckets as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes_match_paper() {
        assert_eq!(EntryStatus::Free as u32, 0);
        assert_eq!(EntryStatus::Clean as u32, 1);
        assert_eq!(EntryStatus::Dirty as u32, 2);
        assert_eq!(EntryStatus::Invalid as u32, 3);
        assert_eq!(EntryStatus::from_u32(2), EntryStatus::Dirty);
    }

    #[test]
    fn write_lock_excludes_everyone() {
        let e = CacheEntry::new(u32::MAX);
        assert!(e.try_write_lock());
        assert_eq!(e.lock.load(Ordering::Acquire), LOCK_WRITE);
        assert!(!e.try_write_lock());
        assert!(!e.try_read_lock());
        e.write_unlock();
        assert_eq!(e.lock.load(Ordering::Acquire), 0);
    }

    #[test]
    fn read_locks_are_shared() {
        let e = CacheEntry::new(u32::MAX);
        assert!(e.try_read_lock());
        assert!(e.try_read_lock());
        assert_eq!(e.lock.load(Ordering::Acquire), 2);
        assert!(!e.try_write_lock());
        e.read_unlock();
        e.read_unlock();
        assert!(e.try_write_lock());
    }

    #[test]
    fn bucket_hash_is_stable_and_bounded() {
        for ino in 0..50u64 {
            for lpn in 0..50u64 {
                let b = bucket_of(ino, lpn, 64);
                assert!(b < 64);
                assert_eq!(b, bucket_of(ino, lpn, 64));
            }
        }
    }

    #[test]
    fn bucket_hash_spreads() {
        // All 2500 (ino, lpn) pairs should not land in a handful of buckets.
        let mut counts = [0usize; 64];
        for ino in 0..50u64 {
            for lpn in 0..50u64 {
                counts[bucket_of(ino, lpn, 64)] += 1;
            }
        }
        let used = counts.iter().filter(|&&c| c > 0).count();
        assert!(used > 56, "only {used}/64 buckets used");
    }

    #[test]
    fn config_geometry() {
        let cfg = CacheConfig {
            pages: 64,
            bucket_entries: 8,
            mode: 0,
            meta_lockfree: true,
        };
        assert_eq!(cfg.buckets(), 8);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn ragged_geometry_rejected() {
        CacheConfig {
            pages: 65,
            bucket_entries: 8,
            mode: 0,
            meta_lockfree: true,
        }
        .buckets();
    }

    #[test]
    fn write_lock_cycle_bumps_version_by_two() {
        let e = CacheEntry::new(u32::MAX);
        let v0 = e.version();
        assert_eq!(v0 & 1, 0);
        assert!(e.try_write_lock());
        assert_eq!(e.version(), v0.wrapping_add(1), "odd while held");
        e.write_unlock();
        assert_eq!(e.version(), v0.wrapping_add(2), "even after release");
        assert!(e.version_validate(v0.wrapping_add(2)));
        assert!(!e.version_validate(v0), "stale snapshot must fail");
    }
}
