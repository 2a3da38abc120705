//! The DPC instance: wiring of Figure 3.
//!
//! `Dpc::new` brings up the whole offloaded stack with real threads:
//! a DMA engine, an nvme-fs fabric (multi-queue), the hybrid cache (host
//! data plane + DPU control plane), KVFS over the disaggregated KV store,
//! optionally a DFS backend with the offloaded client, and the DPU
//! runtime serving it all. `Dpc::fs()` hands out any number of
//! lightweight host-side [`DpcFs`] adapters, all multiplexing over the
//! fabric's queue pairs through one shared
//! [`ChannelPool`](dpc_nvmefs::ChannelPool) — the paper's per-thread
//! queue deployment falls out of the pool's thread-affinity policy
//! rather than a hard one-adapter-per-queue limit.

use std::sync::Arc;

use dpc_cache::{
    CacheConfig, ControlPlane, HybridCache, IntentLog, MetaCache, MetaConfig, PrefetchQueue,
    RaConfig, ReadaheadTable, WalKind, PREFETCH_QUEUE_CAP, WAL_HEADER,
};
use dpc_dfs::{ClientCore, DfsBackend, DfsConfig};
use dpc_fault::{CrashSwitch, FaultPlan};
use dpc_kvfs::Kvfs;
use dpc_kvstore::KvStore;
use dpc_nvmefs::{create_fabric, ChannelPool, PoolStats, QueuePairConfig, RetryPolicy};
use dpc_pcie::{DmaEngine, HostRegion, PcieSnapshot};
use parking_lot::Mutex;

use crate::adapter::{DpcFs, FsyncMode, InodeSizes, IoMode};
use crate::dispatch::Dispatcher;
use crate::runtime::{DpuRuntime, Drain, PrefetcherConfig};

/// DPC deployment configuration.
///
/// There is one write-back policy, not a knob: a dirty page persists at
/// the `fsync` or `close` of its file, when eviction needs its slot, and
/// at the instance's teardown (DESIGN.md §8.4).
#[derive(Clone, Debug)]
pub struct DpcConfig {
    /// nvme-fs queue pairs the shared channel pool multiplexes over
    /// (adapters are unlimited; this sets the concurrency knee).
    pub queues: usize,
    pub queue_depth: u16,
    /// Per-direction transport-buffer capacity (max single I/O size over nvme-fs).
    pub max_io_bytes: usize,
    /// Hybrid-cache pages (4 KiB each).
    pub cache_pages: usize,
    pub cache_bucket_entries: usize,
    /// Serve cache read hits through the lock-free seqlock meta plane
    /// (DESIGN.md §4.2). Off = the paper's literal per-entry read-lock
    /// protocol.
    pub cache_lockfree: bool,
    /// Default I/O mode of handed-out adapters.
    pub io_mode: IoMode,
    /// First readahead window emitted when a stream is detected (pages).
    pub ra_initial_window: u32,
    /// Cap the adaptive window doubles toward (pages).
    pub ra_max_window: u32,
    /// Coalesce adjacent dirty pages into multi-page runs on every flush
    /// path. Off = a run cap of one page on the same flush code: every
    /// dirty page is a run of its own. Either way an inode's runs go to
    /// the store batched, one KV request per batch.
    pub coalesce_flush: bool,
    /// Largest coalesced run, in pages.
    pub flush_extent_pages: usize,
    /// Also stand up a DFS backend and offload its client (Distributed
    /// dispatch). None = standalone-only DPC.
    pub dfs: Option<DfsConfig>,
    /// Link-level retry budget: per-call completion deadlines, CID
    /// reissue and bounded exponential backoff in the channel pool.
    pub retry: RetryPolicy,
    /// Ring capacity of the intent log in bytes (payload + headers). The
    /// log holds what the page pool cannot (DESIGN.md §13.5): the uncached
    /// writes and truncates in flight at once, each retired at its ack. A
    /// payload larger than the whole ring is not logged.
    pub wal_bytes: usize,
    /// What `fsync` waits for: the store ([`FsyncMode::Data`]), or nothing
    /// a DPU reset can take ([`FsyncMode::Log`]).
    pub fsync_mode: FsyncMode,
    /// Lock stripes of the host metadata cache (DESIGN.md §4.7). The cache
    /// itself is not optional and has no size of its own: it may hold one
    /// byte per eight of the data cache ([`DpcConfig::meta_cache_bytes`]).
    pub meta_cache_shards: usize,
    /// Metadata-cache TTL in logical ticks (one tick per local mutation);
    /// `0` = nothing expires by age. The only bound on staleness against
    /// writers this host cannot observe ([`Dpc::with_shared_storage`]).
    pub meta_cache_ttl: u64,
    /// Answer ENOENT from a cached absence (an observed one, or a name
    /// missing from a whole cached listing).
    pub meta_neg_cache: bool,
    /// Seeded fault-injection plan threaded through every layer (nvme-fs
    /// transport, DFS/KV servers, cache flush). None = no faults; all
    /// recovery machinery stays dormant and its counters read zero.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for DpcConfig {
    fn default() -> Self {
        DpcConfig {
            queues: 2,
            queue_depth: 64,
            max_io_bytes: 1 << 20,
            cache_pages: 4096,
            cache_bucket_entries: 8,
            cache_lockfree: true,
            io_mode: IoMode::Buffered,
            ra_initial_window: 4,
            ra_max_window: 64,
            coalesce_flush: true,
            flush_extent_pages: dpc_cache::DEFAULT_EXTENT_PAGES,
            wal_bytes: 4 << 20,
            meta_cache_shards: 16,
            meta_cache_ttl: 0,
            meta_neg_cache: true,
            fsync_mode: FsyncMode::Data,
            dfs: None,
            retry: RetryPolicy::default(),
            faults: None,
        }
    }
}

/// A [`DpcConfig`] value no instance can run with, named by field.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ConfigError {
    pub field: &'static str,
    pub reason: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid DpcConfig::{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

impl DpcConfig {
    /// What the host metadata cache may hold: an eighth of the data
    /// cache's bytes. Derived, not a field: the memory a host gives this
    /// client is one number, `cache_pages`, and at ≈ 85 B per cached file
    /// an eighth covers six files per data page — a tree of more, smaller
    /// files than that does not fit the data cache either. [`MetaCache::set_budget`] moves
    /// it on a live instance.
    pub fn meta_cache_bytes(&self) -> usize {
        self.cache_pages * dpc_cache::PAGE_SIZE / 8
    }

    /// Reject sizing the substrate crates would otherwise panic on (or
    /// silently misbehave with) long after construction.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |field, reason| Err(ConfigError { field, reason });
        if self.queues == 0 {
            return err("queues", "must be at least 1");
        }
        if self.queue_depth < 2 {
            return err("queue_depth", "must be at least 2");
        }
        if self.cache_bucket_entries == 0 {
            return err("cache_bucket_entries", "must be at least 1");
        }
        if self.cache_pages == 0 {
            return err("cache_pages", "must be at least 1");
        }
        if !self.cache_pages.is_multiple_of(self.cache_bucket_entries) {
            return err("cache_pages", "must be a multiple of cache_bucket_entries");
        }
        if self.max_io_bytes < dpc_nvmefs::READ_HEADER_CAP + 4096 {
            return err(
                "max_io_bytes",
                "must be at least READ_HEADER_CAP + 4096 (a reply header and one page)",
            );
        }
        if self.ra_initial_window == 0 {
            return err("ra_initial_window", "must be at least 1");
        }
        if self.ra_max_window < self.ra_initial_window {
            return err("ra_max_window", "must be at least ra_initial_window");
        }
        if self.flush_extent_pages == 0 {
            return err("flush_extent_pages", "must be at least 1");
        }
        if self.wal_bytes < 4096 {
            return err("wal_bytes", "must be at least 4096");
        }
        Ok(())
    }
}

/// [`Dpc::recover`] handed the crashed instance back: something outside it
/// — an adapter from [`Dpc::fs`] — still holds its cache, and could write
/// to pages recovery is about to flush. Drop the holders and call again.
/// The instance's DPU is stopped already.
pub struct RecoverError {
    pub crashed: Box<Dpc>,
    /// Handles on the cache held outside the instance.
    pub holders: usize,
}

impl std::fmt::Debug for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoverError")
            .field("holders", &self.holders)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovery refused: {} handle(s) on the crashed instance's cache are still alive",
            self.holders
        )
    }
}

impl std::error::Error for RecoverError {}

/// The fault-free flush of `cache`'s dirty pages into `kvfs` that teardown
/// and recovery run, at `cfg`'s coalescing policy.
fn drain(cfg: &DpcConfig, cache: &Arc<HybridCache>, kvfs: &Arc<Kvfs>) -> Drain {
    let mut control = ControlPlane::new(cache.clone(), DmaEngine::new());
    control.max_extent_pages = if cfg.coalesce_flush {
        cfg.flush_extent_pages
    } else {
        1
    };
    Drain {
        control,
        kvfs: kvfs.clone(),
    }
}

/// Globally unique DFS client identity: delegations are per-client at
/// the MDS, so two DPC instances must never share an id.
fn next_dfs_client_id() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// A running DPC instance (DPU runtime + shared state).
pub struct Dpc {
    cfg: DpcConfig,
    dma: DmaEngine,
    cache: Arc<HybridCache>,
    kvfs: Arc<Kvfs>,
    dfs_backend: Option<Arc<DfsBackend>>,
    pool: Arc<ChannelPool>,
    runtime: DpuRuntime,
    /// The prefetch queue every dispatcher feeds and the prefetcher
    /// drains, kept for [`Dpc::drain_prefetch`].
    ra_queue: Arc<PrefetchQueue>,
    /// The DPU kill switch: armed by the `dpu.crash` fault site when a
    /// fault plan is present, inert otherwise. Shared by every DPU-side
    /// loop and injection point; latches on first fire.
    crash: Arc<CrashSwitch>,
    /// The intent log: the ops the page pool cannot express. Every
    /// adapter holds the same handle.
    log: Arc<IntentLog>,
    /// Host-side metadata cache shared by every handed-out adapter.
    meta: Arc<MetaCache>,
    /// Per-inode logical sizes shared by every handed-out adapter.
    sizes: Arc<InodeSizes>,
}

impl Dpc {
    /// Bring up an instance; panics with the [`ConfigError`] message on a
    /// config [`DpcConfig::validate`] rejects (see [`Dpc::try_new`]).
    pub fn new(cfg: DpcConfig) -> Dpc {
        Self::fresh(cfg, None, None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Dpc::new`] that hands an invalid config back as an error, before
    /// any thread is spawned.
    pub fn try_new(cfg: DpcConfig) -> Result<Dpc, ConfigError> {
        Self::fresh(cfg, None, None)
    }

    /// Bring up a DPC instance against *shared* disaggregated storage: an
    /// existing KV store (another server's KVFS namespace — or a previous
    /// incarnation of this server, i.e. a diskless reboot) and/or an
    /// existing DFS backend cluster. `kv_store = None` creates a fresh
    /// store; a supplied store must already hold a KVFS root (use a prior
    /// `Dpc` or `Kvfs::new` to format it).
    ///
    /// **What sharing does not give you.** Nothing keeps two live
    /// instances coherent. This instance's host metadata cache (names,
    /// listings, attributes — DESIGN.md §4.7) is coherent with *its own*
    /// mutations only: it patches or invalidates as they return. What
    /// another client creates, removes, renames or grows is seen when the
    /// cached answer expires — `meta_cache_ttl` logical ticks (local
    /// mutations) after it was fetched — and by nothing else; at the
    /// default `meta_cache_ttl = 0` that is never. (And an expired
    /// attribute is only *asked for* again: this instance's DPU-side KVFS
    /// keeps an inode cache with no expiry.) The same goes for the host
    /// page cache and the per-inode logical sizes. Sequential
    /// hand-off is the use this is correct for: populate through one
    /// instance, drop its adapters and then the instance — whose teardown
    /// drains every dirty page, closed or not, at any
    /// [`FsyncMode`] — and reopen. Concurrent writers need a TTL they can
    /// live with, until something (leases) keeps two instances coherent.
    pub fn with_shared_storage(
        cfg: DpcConfig,
        kv_store: Option<Arc<KvStore>>,
        dfs_backend: Option<Arc<DfsBackend>>,
    ) -> Dpc {
        Self::fresh(cfg, kv_store, dfs_backend).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Bring `crashed` back after its DPU died (DESIGN.md §13.4): a DPU
    /// reset, with host memory and the stores intact. Its DPU threads are
    /// stopped and joined first, so nothing dead touches what survives.
    /// Recovery then adopts the crashed instance's hybrid cache, log
    /// region, KV store and DFS backend; flushes the adopted dirty pages —
    /// each an acknowledged buffered write — until they are clean; and
    /// runs, in order, each op the log still holds live (an uncached
    /// write or a truncate that never answered). The returned instance is
    /// clean, its log empty under the next epoch. It runs the crashed
    /// one's config without the fault plan: a plan scripts the failures of
    /// the incarnation it was given to.
    ///
    /// While an adapter of `crashed` is alive — it could still write to
    /// the pages being flushed — nothing is adopted: the instance comes
    /// back in the [`RecoverError`].
    pub fn recover(mut crashed: Dpc) -> Result<Dpc, RecoverError> {
        crashed.trip_crash();
        crashed.runtime.stop();
        let holders = Arc::strong_count(&crashed.cache) - 1;
        if holders > 0 {
            let crashed = Box::new(crashed);
            return Err(RecoverError { crashed, holders });
        }
        let Dpc {
            cfg,
            cache,
            kvfs,
            dfs_backend,
            log,
            ..
        } = crashed;
        // The DPU's own state (KVFS's caches) died with it.
        let store = kvfs.store().clone();
        let kvfs = Arc::new(Kvfs::open(store).expect("a store a KVFS ran on holds its root"));
        let scan = IntentLog::scan(log.region());
        // Every adopted dirty page holds an acknowledged write, and a live
        // record an op that never answered: the op may be ordered after
        // all of them, so the pages go first.
        drain(&cfg, &cache, &kvfs).run();
        // Each op runs whole, and its inode's pages — clean now, and
        // perhaps older than what the op wrote — leave the cache.
        let mut replayed = 0;
        for rec in &scan.records {
            let done = match rec.kind {
                WalKind::Write => kvfs.write(rec.ino, rec.offset, &rec.payload).map(drop),
                WalKind::Truncate => kvfs.truncate(rec.ino, rec.offset),
                WalKind::Retired => continue,
            };
            cache.invalidate_ino(rec.ino);
            replayed += done.is_ok() as u64;
        }
        let cfg = DpcConfig {
            faults: None,
            ..cfg
        };
        let epoch = scan.epoch.wrapping_add(1).max(1);
        let dpc = Self::build(cfg, cache, kvfs, dfs_backend, log.region().clone(), epoch);
        dpc.log.add_torn(scan.torn);
        dpc.log.add_replayed(replayed);
        Ok(dpc)
    }

    /// A new instance: a fresh cache and log, over `kv_store` and
    /// `shared_dfs` when given.
    fn fresh(
        cfg: DpcConfig,
        kv_store: Option<Arc<KvStore>>,
        shared_dfs: Option<Arc<DfsBackend>>,
    ) -> Result<Dpc, ConfigError> {
        cfg.validate()?;
        let cache = Arc::new(HybridCache::new(CacheConfig {
            pages: cfg.cache_pages,
            bucket_entries: cfg.cache_bucket_entries,
            mode: 1,
            meta_lockfree: cfg.cache_lockfree,
        }));
        let kvfs = Arc::new(match kv_store {
            Some(store) => Kvfs::open(store).expect("shared store holds no KVFS root"),
            None => Kvfs::new(Arc::new(KvStore::new())),
        });
        let dfs_backend = shared_dfs.or_else(|| cfg.dfs.map(DfsBackend::new));
        let region = HostRegion::new(WAL_HEADER + cfg.wal_bytes);
        Ok(Self::build(cfg, cache, kvfs, dfs_backend, region, 1))
    }

    /// Start the DPU side over the host side it is handed: the cache, the
    /// stores, and the region the intent log is created in under `epoch`.
    fn build(
        cfg: DpcConfig,
        cache: Arc<HybridCache>,
        kvfs: Arc<Kvfs>,
        dfs_backend: Option<Arc<DfsBackend>>,
        log_region: HostRegion,
        epoch: u32,
    ) -> Dpc {
        let dma = DmaEngine::new();
        if let Some(plan) = &cfg.faults {
            // Server-side faults + client-side recovery for the DFS and
            // KV layers (the transport and flush sites attach below).
            if let Some(b) = &dfs_backend {
                b.set_fault_plan(plan);
            }
            kvfs.store().set_fault_site(Some(plan.site("kv.op")));
        }

        // The DPU kill switch: one shared latch across every service
        // loop, the prefetcher, the log append and the teardown drain.
        // Without a fault plan it is inert and every check is a single
        // relaxed load.
        let crash = Arc::new(match &cfg.faults {
            Some(plan) => CrashSwitch::armed_by(plan.site("dpu.crash")),
            None => CrashSwitch::inert(),
        });

        // The adapter writes its records in host memory before the command
        // leaves: they never cross the link, so the log counts its own
        // bytes (`wal_bytes`) on an engine of its own.
        let log = IntentLog::create(log_region, DmaEngine::new(), Some(crash.clone()), epoch);

        let (channels, targets) = create_fabric(
            cfg.queues,
            QueuePairConfig {
                depth: cfg.queue_depth,
                max_io_bytes: cfg.max_io_bytes,
            },
            &dma,
        );

        let flush_fault = cfg.faults.as_ref().map(|p| p.site("cache.flush"));
        // One readahead table + job queue shared by every service thread
        // (a stream's reads may land on any queue; the state must follow
        // the inode, not the queue).
        let ra_table = Arc::new(ReadaheadTable::new(RaConfig {
            initial_window: cfg.ra_initial_window,
            max_window: cfg.ra_max_window,
            trigger: 2,
        }));
        let ra_queue = Arc::new(PrefetchQueue::new(PREFETCH_QUEUE_CAP));
        // One DFS client for the whole DPU, whichever queue a request
        // arrives on.
        let dfs = dfs_backend.as_ref().map(|b| {
            let client = ClientCore::new(b.clone(), next_dfs_client_id());
            Arc::new(Mutex::new(client))
        });
        let targets_with_dispatch: Vec<_> = targets
            .into_iter()
            .map(|mut t| {
                if let Some(plan) = &cfg.faults {
                    t.set_fault_plan(plan);
                }
                let mut control = ControlPlane::new(cache.clone(), dma.clone());
                control.max_extent_pages = cfg.flush_extent_pages;
                control.set_crash_switch(Some(crash.clone()));
                let mut dispatcher = Dispatcher::new(kvfs.clone(), control, None);
                dispatcher.dfs = dfs.clone();
                dispatcher.set_readahead(ra_table.clone(), ra_queue.clone());
                dispatcher.coalesce = cfg.coalesce_flush;
                dispatcher.flush_fault = flush_fault.clone();
                (t, dispatcher)
            })
            .collect();

        let mut fill = ControlPlane::new(cache.clone(), dma.clone());
        fill.max_extent_pages = cfg.flush_extent_pages;
        fill.set_crash_switch(Some(crash.clone()));
        let prefetcher = PrefetcherConfig {
            control: fill,
            kvfs: kvfs.clone(),
            queue: ra_queue.clone(),
        };

        let drain = drain(&cfg, &cache, &kvfs);
        let runtime = DpuRuntime::spawn(targets_with_dispatch, drain, prefetcher, crash.clone());

        let mut pool = ChannelPool::new(channels);
        pool.set_retry(cfg.retry);

        let meta = MetaConfig {
            shards: cfg.meta_cache_shards,
            attr_ttl: cfg.meta_cache_ttl,
            negative: cfg.meta_neg_cache,
        };
        let meta = Arc::new(MetaCache::with_budget(meta, cfg.meta_cache_bytes()));

        Dpc {
            cfg,
            dma,
            cache,
            kvfs,
            dfs_backend,
            pool: Arc::new(pool),
            runtime,
            ra_queue,
            crash,
            log,
            meta,
            sizes: Arc::new(InodeSizes::new()),
        }
    }

    /// Wait until the background prefetcher has drained every queued
    /// window fill (tests and benchmarks that need deterministic cache
    /// contents).
    pub fn drain_prefetch(&self) {
        while !self.ra_queue.is_idle() {
            std::thread::yield_now();
        }
    }

    /// Pages inserted by the background prefetcher so far.
    pub fn pages_prefetched(&self) -> u64 {
        self.runtime.pages_prefetched()
    }

    /// Hand out a host-side adapter. Adapters are lightweight (an fd
    /// table plus a handle on the shared [`ChannelPool`]); take as many
    /// as you like — every adapter, and every thread within an adapter,
    /// multiplexes over the same `cfg.queues` nvme-fs queue pairs.
    pub fn fs(&self) -> DpcFs {
        DpcFs::new(
            self.cache.clone(),
            self.pool.clone(),
            self.sizes.clone(),
            self.meta.clone(),
            self.log.clone(),
            &self.cfg,
        )
    }

    /// The shared host metadata cache (diagnostics, tests, and
    /// [`MetaCache::set_budget`] to resize it on a live instance).
    pub fn meta_cache(&self) -> &Arc<MetaCache> {
        &self.meta
    }

    /// Number of nvme-fs queue pairs the shared channel pool multiplexes
    /// over (the host-side scaling knee).
    pub fn queue_count(&self) -> usize {
        self.pool.queue_count()
    }

    /// The shared host-side channel multiplexer (diagnostics/tests).
    pub fn channel_pool(&self) -> &Arc<ChannelPool> {
        &self.pool
    }

    /// Snapshot of the channel pool's counters (submissions, deliveries,
    /// queue steals, full-pool stalls).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Direct access to the DPU-side KVFS (diagnostics/tests).
    pub fn kvfs_inner(&self) -> &Arc<Kvfs> {
        &self.kvfs
    }

    pub fn cache(&self) -> &Arc<HybridCache> {
        &self.cache
    }

    pub fn dfs_backend(&self) -> Option<&Arc<DfsBackend>> {
        self.dfs_backend.as_ref()
    }

    pub fn config(&self) -> &DpcConfig {
        &self.cfg
    }

    /// The intent log (diagnostics/tests).
    pub fn intent_log(&self) -> &Arc<IntentLog> {
        &self.log
    }

    /// The KV store under this instance's KVFS.
    pub fn kv_store(&self) -> Arc<KvStore> {
        self.kvfs.store().clone()
    }

    /// Whether the simulated DPU has crashed (the `dpu.crash` latch).
    pub fn crashed(&self) -> bool {
        self.crash.is_tripped()
    }

    /// Kill the DPU now (benchmarks/tests crashing at a chosen point
    /// rather than a seeded one).
    pub fn trip_crash(&self) {
        self.crash.trip();
        // A thread asleep on its doorbell must die too, not serve the
        // next command before it notices.
        self.runtime.wake_all();
    }

    /// Requests the DPU runtime has served.
    pub fn requests_served(&self) -> u64 {
        self.runtime.requests_served()
    }

    /// PCIe traffic counters (DMA ops/bytes, doorbells, atomics).
    pub fn pcie_snapshot(&self) -> PcieSnapshot {
        self.dma.snapshot()
    }

    /// One snapshot of every layer's counters.
    pub fn metrics(&self) -> crate::metrics::MetricsSnapshot {
        let pool = self.pool.stats();
        let log = self.log.stats();
        let cache = dpc_cache::CacheStats {
            wal_appends: log.appends,
            wal_bytes: log.bytes,
            wal_checkpoints: log.checkpoints,
            wal_replayed_records: log.replayed,
            wal_torn_tail_drops: log.torn_drops,
            wal_stalls: log.stalls,
            ..self.cache.stats()
        };
        let kv = self.kvfs.store().stats();
        let dfs = self
            .dfs_backend
            .as_ref()
            .map(|b| b.recovery().snapshot())
            .unwrap_or_default();
        crate::metrics::MetricsSnapshot {
            pcie: self.dma.snapshot(),
            dma: Default::default(),
            cache,
            kvfs_lookups: self.kvfs.lookup_stats(),
            kv,
            meta: self.meta.stats(),
            requests_served: self.runtime.requests_served(),
            svc_parks: self.runtime.svc_parks(),
            doorbell_wakes: pool.doorbell_wakes,
            recovery: crate::metrics::RecoverySnapshot {
                link_retries: pool.retries,
                link_timeouts: pool.timeouts,
                transport_errors: pool.transport_errors,
                stale_completions: pool.stale_completions,
                rejected_sqes: pool.rejected_sqes,
                ds_retries: dfs.ds_retries,
                mds_retries: dfs.mds_retries,
                reconstructions: dfs.reconstructions,
                repairs: dfs.repairs,
                repair_drops: dfs.repair_drops,
                crc_rejects: dfs.crc_rejects,
                kv_retries: kv.retries,
                flush_retries: cache.flush_retries,
                flush_failures: cache.flush_failures,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_configs_are_named_before_anything_is_built() {
        type Case = (fn(&mut DpcConfig), &'static str);
        let cases: [Case; 11] = [
            (|c| c.cache_pages = 0, "cache_pages"),
            (|c| c.cache_pages = 3, "cache_pages"),
            (|c| c.cache_bucket_entries = 0, "cache_bucket_entries"),
            (|c| c.queues = 0, "queues"),
            (|c| c.queue_depth = 0, "queue_depth"),
            (|c| c.queue_depth = 1, "queue_depth"),
            (|c| c.max_io_bytes = 4096, "max_io_bytes"),
            (|c| c.ra_initial_window = 0, "ra_initial_window"),
            (
                |c| c.ra_max_window = c.ra_initial_window - 1,
                "ra_max_window",
            ),
            (|c| c.flush_extent_pages = 0, "flush_extent_pages"),
            (|c| c.wal_bytes = 4095, "wal_bytes"),
        ];
        for (mutate, field) in cases {
            let mut cfg = DpcConfig::default();
            mutate(&mut cfg);
            assert_eq!(cfg.validate().unwrap_err().field, field, "{cfg:?}");
            let e = Dpc::try_new(cfg).err().expect("try_new must refuse");
            assert_eq!(e.field, field);
            assert!(e.to_string().contains(field));
        }
    }

    #[test]
    fn shipped_configs_validate() {
        assert_eq!(DpcConfig::default().validate(), Ok(()));
        let log_tier = DpcConfig {
            fsync_mode: FsyncMode::Log,
            ..DpcConfig::default()
        };
        assert_eq!(log_tier.validate(), Ok(()));
        // What `dpc-e2e` runs every workload at.
        let e2e = DpcConfig {
            queues: 1,
            cache_pages: 4096,
            dfs: Some(DfsConfig::default()),
            ..DpcConfig::default()
        };
        assert_eq!(e2e.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "invalid DpcConfig::cache_pages")]
    fn new_panics_with_the_named_error() {
        let _ = Dpc::new(DpcConfig {
            cache_pages: 0,
            ..DpcConfig::default()
        });
    }
}
