//! # dpc-cache — the hybrid file data cache
//!
//! §3.3 of the paper: fully offloading the cache to the DPU wastes PCIe
//! bandwidth on every hit, double-caches against the host page cache, and
//! is capped by the DPU's small DRAM. DPC instead splits the cache:
//!
//! - the **data plane** (cache pages + the meta hash table) stays in host
//!   memory — hits never cross PCIe ([`HybridCache::lookup_read`],
//!   [`HybridCache::begin_write`]);
//! - the **control plane** (replacement, flushing, prefetching, back-end
//!   processing) runs on the DPU ([`ControlPlane`]), reaching the shared
//!   meta area with PCIe atomics and pulling dirty pages by DMA.
//!
//! Consistency extends the paper's protocol with a lock-free read plane
//! (DESIGN.md §4.2): every entry carries a seqlock version word alongside
//! the paper's read/write lock. Writers (host front-end, DPU flush/evict)
//! still serialise on the lock word — taking it bumps the version odd,
//! releasing it bumps it even — while read hits validate the version
//! instead of locking ([`HybridCache::lookup_read_ref`]), so readers
//! never block writers and the hit path takes zero lock traffic. The DPU
//! flushes under read locks so concurrent host writers are excluded; the
//! per-entry lock-based reader protocol survives behind
//! `CacheConfig::meta_lockfree = false` as the comparison baseline.
//!
//! ```
//! use dpc_cache::{CacheConfig, ControlPlane, HybridCache};
//! use dpc_pcie::DmaEngine;
//! use std::sync::Arc;
//!
//! let cache = Arc::new(HybridCache::new(CacheConfig::default()));
//! // Host side: write a page (hash → claim entry → lock → write → dirty).
//! let mut g = cache.begin_write(/*ino*/ 7, /*lpn*/ 0).unwrap();
//! g.write(0, b"hello page");
//! g.commit_dirty();
//!
//! // DPU side: flush dirty pages to the disaggregated store.
//! let mut cp = ControlPlane::new(cache.clone(), DmaEngine::new());
//! let mut sink = Vec::new();
//! cp.flush_extents(
//!     &mut |ino: u64, lpn: u64, page: &[u8]| {
//!         sink.push((ino, lpn, page[..10].to_vec()));
//!     },
//!     /*ino_filter*/ None,
//!     /*background*/ false,
//! );
//! assert_eq!(sink, vec![(7, 0, b"hello page".to_vec())]);
//! ```

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod control;
mod host;
mod layout;
mod meta;
mod readahead;
mod wal;

pub use control::{ControlPlane, FlushBackend, ReadBackend, DEFAULT_EXTENT_PAGES};
pub use host::{CacheStats, HybridCache, ReadHint, ReadRef, WriteError, WriteGuard};
pub use layout::{CacheConfig, CacheEntry, CacheHeader, EntryStatus, PAGE_SIZE};
pub use meta::{
    MetaAttr, MetaCache, MetaConfig, MetaStats, NameLookup, DEFAULT_META_BUDGET, KIND_DIR,
    KIND_FILE,
};
pub use readahead::{
    PrefetchJob, PrefetchQueue, RaConfig, RaWindow, ReadaheadTable, PREFETCH_QUEUE_CAP,
};
pub use wal::{IntentLog, WalError, WalKind, WalRecord, WalScan, WalStats, REC_HEADER, WAL_HEADER};
