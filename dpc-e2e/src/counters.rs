//! Raw counter snapshots of a running instance, taken from outside
//! through `Dpc::metrics()`, `pool_stats()`, the DFS servers' RPC cells
//! and `/proc`. Per-layer count metrics are deltas of these over the
//! measured rounds.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use dpc_core::Dpc;

use crate::stats::thread_cpu_by_name;

/// Named raw counters, summed by name across rounds and children.
pub type Counters = BTreeMap<&'static str, u64>;

pub fn snapshot(dpc: &Dpc) -> Counters {
    let m = dpc.metrics();
    let pool = dpc.pool_stats();
    let mut c = Counters::new();

    c.insert("pcie.dma_ops", m.pcie.dma_ops);
    c.insert("pcie.dma_bytes", m.pcie.dma_bytes);
    c.insert("pcie.doorbells", m.pcie.doorbells);
    c.insert("pcie.atomics", m.pcie.atomics);
    c.insert(
        "pcie.zc_dma_ops",
        m.dma.classes.iter().map(|k| k.dma_ops).sum(),
    );
    c.insert(
        "pcie.staged_bytes",
        m.dma.classes.iter().map(|k| k.staged_bytes).sum(),
    );
    c.insert(
        "pcie.bounces",
        m.dma.classes.iter().map(|k| k.dma_bounces).sum(),
    );

    c.insert("pool.submitted", pool.submitted);
    c.insert("pool.full_stalls", pool.full_stalls);
    c.insert("pool.retries", pool.retries);
    c.insert("pool.timeouts", pool.timeouts);

    c.insert("cache.hits", m.cache.hits);
    c.insert("cache.misses", m.cache.misses);
    c.insert("cache.evictions", m.cache.evictions);
    c.insert("cache.evict_stalls", m.cache.evict_stalls);
    c.insert("cache.write_throughs", m.cache.write_throughs);
    c.insert("cache.meta_retries", m.cache.meta_retries);
    c.insert("cache.lock_fallbacks", m.cache.lock_fallbacks);
    c.insert("cache.vector_fills", m.cache.demand_vector_fills);
    c.insert(
        "cache.flush_pages",
        m.cache.fg_flush_pages + m.cache.bg_flush_pages,
    );
    c.insert("cache.extents_flushed", m.cache.extents_flushed);
    c.insert("cache.flush_retries", m.cache.flush_retries);
    c.insert("cache.flush_failures", m.cache.flush_failures);
    c.insert("cache.ra_async_fills", m.cache.ra_async_fills);
    c.insert("cache.prefetch_inserts", m.cache.prefetch_inserts);
    c.insert("cache.ra_hits", m.cache.ra_hits);
    c.insert("cache.ra_throttled", m.cache.ra_throttled);
    c.insert("cache.ra_dropped", m.cache.ra_dropped);
    c.insert("cache.wal_appends", m.cache.wal_appends);
    c.insert("cache.wal_bytes", m.cache.wal_bytes);

    c.insert("meta.attr_hits", m.meta.attr_hits);
    c.insert("meta.attr_misses", m.meta.attr_misses);
    c.insert("meta.dentry_hits", m.meta.dentry_hits);
    c.insert("meta.dentry_misses", m.meta.dentry_misses);

    c.insert("runtime.requests", m.requests_served);

    c.insert("kvfs.dentry_hits", m.kvfs_lookups.dentry_hits);
    c.insert("kvfs.dentry_misses", m.kvfs_lookups.dentry_misses);
    c.insert("kvfs.path_hits", m.kvfs_lookups.path_hits);
    c.insert("kvfs.path_misses", m.kvfs_lookups.path_misses);
    c.insert("kvfs.inode_hits", m.kvfs_lookups.inode_hits);
    c.insert("kvfs.inode_misses", m.kvfs_lookups.inode_misses);

    c.insert("kv.gets", m.kv.gets);
    c.insert("kv.puts", m.kv.puts);
    c.insert("kv.deletes", m.kv.deletes);
    c.insert("kv.scans", m.kv.scans);
    c.insert("kv.sub_reads", m.kv.sub_reads);
    c.insert("kv.sub_writes", m.kv.sub_writes);
    c.insert("kv.retries", m.kv.retries);

    let (mut mds, mut ds) = (0u64, 0u64);
    if let Some(b) = dpc.dfs_backend() {
        mds = (0..b.mds_count())
            .map(|i| b.mds(i).rpcs.load(Ordering::Relaxed))
            .sum();
        ds = (0..b.data_server_count())
            .map(|i| b.data_server(i).rpcs.load(Ordering::Relaxed))
            .sum();
    }
    c.insert("dfs.mds_rpcs", mds);
    c.insert("dfs.ds_rpcs", ds);
    c.insert("dfs.reconstructions", m.recovery.reconstructions);

    let (mut svc, mut prefetch, mut flusher) = (0u64, 0u64, 0u64);
    for (name, cpu) in thread_cpu_by_name() {
        if name.starts_with("dpu-svc-") {
            svc += cpu;
        } else if name == "dpu-prefetch" {
            prefetch += cpu;
        } else if name == "dpu-flusher" {
            flusher += cpu;
        }
    }
    c.insert("cpu.svc_ns", svc);
    c.insert("cpu.prefetch_ns", prefetch);
    c.insert("cpu.flusher_ns", flusher);
    c
}

/// `later - earlier`, name by name.
pub fn delta(later: &Counters, earlier: &Counters) -> Counters {
    later
        .iter()
        .map(|(k, v)| (*k, v - earlier.get(k).copied().unwrap_or(0)))
        .collect()
}
