//! Aggregated observability for a running DPC instance.
//!
//! One snapshot gathers every layer's counters — PCIe traffic, hybrid
//! cache behaviour, KVFS lookup caches, backing KV operations, DPU
//! runtime activity — so operators (and the examples) can see where
//! requests went without poking each subsystem.

use dpc_cache::{CacheStats, MetaStats};
use dpc_kvfs::LookupStats;
use dpc_kvstore::KvStats;
use dpc_pcie::PcieSnapshot;

/// Recovery-action counters gathered from every layer. All-zero on a
/// healthy run with faults disabled — the chaos tests assert exactly
/// that, so nothing here may increment on the fault-free fast path.
#[derive(Copy, Clone, Debug, Default)]
pub struct RecoverySnapshot {
    /// nvme-fs link: idempotent commands reissued after a timeout or
    /// transport error.
    pub link_retries: u64,
    /// nvme-fs link: calls whose completion missed its deadline.
    pub link_timeouts: u64,
    /// Transport-error CQEs observed by the channel pool.
    pub transport_errors: u64,
    /// Late completions that arrived after their waiter gave up.
    pub stale_completions: u64,
    /// nvme-fs commands a target refused (`InvalidCommand`, EINVAL at the
    /// caller) because their SQE named a buffer range outside the data
    /// pool.
    pub rejected_sqes: u64,
    /// DFS client: data-server shard RPCs reissued.
    pub ds_retries: u64,
    /// DFS client: MDS RPCs reissued after a transient fault.
    pub mds_retries: u64,
    /// DFS client: degraded reads served by RS-reconstruction.
    pub reconstructions: u64,
    /// DFS client: shards re-written to recovered servers.
    pub repairs: u64,
    /// DFS client: repair-queue entries shed at capacity.
    pub repair_drops: u64,
    /// DFS data servers: stored shards whose CRC failed verification on
    /// read — bit rot treated as a lost shard and fed to reconstruction.
    pub crc_rejects: u64,
    /// KV store operations that waited out a transient fault.
    pub kv_retries: u64,
    /// Cache flush pipeline: in-pass flush reissues.
    pub flush_retries: u64,
    /// Cache flush pipeline: pages a pass left dirty because the backend
    /// refused their extent through every retry.
    pub flush_failures: u64,
}

/// Structurally empty: no DMA is attributed to a class any more (the
/// direct miss fill was the last recorder; last commit with it:
/// `8edc3c6`). These two types are only the shape `dpc-e2e` sums for its
/// `pcie.zc_dma_ops_per_op` / `staged_bytes_per_op` / `bounces_per_op`
/// rows, and go with the benchmark PR that drops those rows.
#[derive(Copy, Clone, Debug, Default)]
pub struct DmaAttribution {
    pub classes: [DmaClassSnapshot; 0],
}

/// Element type of [`DmaAttribution::classes`]; never constructed.
#[derive(Copy, Clone, Debug, Default)]
pub struct DmaClassSnapshot {
    pub dma_ops: u64,
    pub staged_bytes: u64,
    pub dma_bounces: u64,
}

/// Point-in-time view of a whole DPC instance.
#[derive(Copy, Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub pcie: PcieSnapshot,
    /// See [`DmaAttribution`]: empty, kept for `dpc-e2e` only.
    pub dma: DmaAttribution,
    pub cache: CacheStats,
    pub kvfs_lookups: LookupStats,
    pub kv: KvStats,
    /// Host-side metadata cache: what it answered, what it dropped to
    /// stay inside its byte budget, and the bytes it holds now.
    pub meta: MetaStats,
    /// Requests served by the DPU runtime's service threads.
    pub requests_served: u64,
    /// Times a DPU service thread went to sleep on its queue's SQ doorbell
    /// (each sleep lasts until a doorbell, or 10 ms). Does not move while
    /// a closed-loop stream of calls is live.
    pub svc_parks: u64,
    /// Doorbell rings that found the queue's service thread asleep and
    /// woke it — the calls that paid a wake-up.
    pub doorbell_wakes: u64,
    /// Fault-recovery actions across every layer.
    pub recovery: RecoverySnapshot,
}

impl MetricsSnapshot {
    /// Cache hit rate over read lookups, in [0, 1].
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache.hits + self.cache.misses;
        if total == 0 {
            0.0
        } else {
            self.cache.hits as f64 / total as f64
        }
    }

    /// Dentry-cache hit rate on the DPU-side KVFS, in [0, 1].
    pub fn dentry_hit_rate(&self) -> f64 {
        let total = self.kvfs_lookups.dentry_hits + self.kvfs_lookups.dentry_misses;
        if total == 0 {
            0.0
        } else {
            self.kvfs_lookups.dentry_hits as f64 / total as f64
        }
    }

    /// Mean pages per coalesced flush extent (0 when none flushed).
    pub fn pages_per_extent(&self) -> f64 {
        if self.cache.extents_flushed == 0 {
            0.0
        } else {
            (self.cache.bg_flush_pages + self.cache.fg_flush_pages) as f64
                / self.cache.extents_flushed as f64
        }
    }

    /// Average PCIe DMA bytes per served request.
    pub fn pcie_bytes_per_request(&self) -> f64 {
        if self.requests_served == 0 {
            0.0
        } else {
            self.pcie.dma_bytes as f64 / self.requests_served as f64
        }
    }

    /// Host metadata-cache attr hit rate, in [0, 1].
    pub fn meta_attr_hit_rate(&self) -> f64 {
        let total = self.meta.attr_hits + self.meta.attr_misses;
        if total == 0 {
            0.0
        } else {
            self.meta.attr_hits as f64 / total as f64
        }
    }

    /// Fraction of background-prefetched pages that a demand read later
    /// consumed, in [0, 1] (readahead accuracy: inserts the stream never
    /// touched are wasted backend bandwidth).
    pub fn readahead_hit_rate(&self) -> f64 {
        if self.cache.prefetch_inserts == 0 {
            0.0
        } else {
            (self.cache.ra_hits as f64 / self.cache.prefetch_inserts as f64).min(1.0)
        }
    }
}

impl core::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "pcie: {} DMA ops / {} bytes, {} doorbells, {} atomics",
            self.pcie.dma_ops, self.pcie.dma_bytes, self.pcie.doorbells, self.pcie.atomics
        )?;
        writeln!(
            f,
            "hybrid cache: {} writes, {} hits / {} misses ({:.0}% hit), {} flushes, {} evictions, {} prefetched",
            self.cache.writes,
            self.cache.hits,
            self.cache.misses,
            self.cache_hit_rate() * 100.0,
            self.cache.flushes,
            self.cache.evictions,
            self.cache.prefetch_inserts
        )?;
        let c = &self.cache;
        writeln!(
            f,
            "meta plane: {} optimistic retries, {} lock fallbacks, \
             {} read locks on the hit path",
            c.meta_retries, c.lock_fallbacks, c.read_locks
        )?;
        writeln!(
            f,
            "write-back: {} extents ({} pages drained / {} fg), pages-per-extent \
             1:{} 2-3:{} 4-7:{} 8-15:{} 16+:{}, {} batched evictions, \
             {} evict stalls, {} write-throughs",
            c.extents_flushed,
            c.bg_flush_pages,
            c.fg_flush_pages,
            c.extent_pages_hist[0],
            c.extent_pages_hist[1],
            c.extent_pages_hist[2],
            c.extent_pages_hist[3],
            c.extent_pages_hist[4],
            c.batched_evictions,
            c.evict_stalls,
            c.write_throughs
        )?;
        writeln!(
            f,
            "readahead: {} async fills, {} inserts, {} hits ({:.0}% useful), \
             {} throttled, {} dropped, {} demand vector fills",
            c.ra_async_fills,
            c.prefetch_inserts,
            c.ra_hits,
            self.readahead_hit_rate() * 100.0,
            c.ra_throttled,
            c.ra_dropped,
            c.demand_vector_fills
        )?;
        writeln!(
            f,
            "wal: {} appends ({} B), {} checkpoints, {} replayed, \
             {} torn drops, {} stalls",
            c.wal_appends,
            c.wal_bytes,
            c.wal_checkpoints,
            c.wal_replayed_records,
            c.wal_torn_tail_drops,
            c.wal_stalls
        )?;
        let mc = &self.meta;
        writeln!(
            f,
            "meta cache: attr {} hits / {} misses ({:.0}% hit), dentry {} \
             hits / {} misses, {} negative hits, readdir {} hits / {} \
             misses, {} invalidations, {} evictions, {} bytes held",
            mc.attr_hits,
            mc.attr_misses,
            self.meta_attr_hit_rate() * 100.0,
            mc.dentry_hits,
            mc.dentry_misses,
            mc.neg_hits,
            mc.readdir_hits,
            mc.readdir_misses,
            mc.invalidations,
            mc.evictions,
            mc.bytes
        )?;
        writeln!(
            f,
            "kvfs: dentry {:.0}% hit, inode {} hits / {} misses",
            self.dentry_hit_rate() * 100.0,
            self.kvfs_lookups.inode_hits,
            self.kvfs_lookups.inode_misses
        )?;
        writeln!(
            f,
            "kv store: {} gets, {} puts, {} deletes, {} scans, {} / {} sub-reads, \
             {} / {} sub-writes (requests / keys)",
            self.kv.gets,
            self.kv.puts,
            self.kv.deletes,
            self.kv.scans,
            self.kv.sub_reads,
            self.kv.sub_read_keys,
            self.kv.sub_writes,
            self.kv.sub_write_keys
        )?;
        writeln!(
            f,
            "dpu runtime: {} requests served, {} svc parks / {} doorbell wakes",
            self.requests_served, self.svc_parks, self.doorbell_wakes
        )?;
        let r = &self.recovery;
        write!(
            f,
            "recovery: link {} retries / {} timeouts / {} transport errs / \
             {} rejected sqes, dfs {} ds + {} mds retries, {} reconstructions, {} repairs, \
             {} crc rejects, kv {} retries, flush {} retries / {} failures",
            r.link_retries,
            r.link_timeouts,
            r.transport_errors,
            r.rejected_sqes,
            r.ds_retries,
            r.mds_retries,
            r.reconstructions,
            r.repairs,
            r.crc_rejects,
            r.kv_retries,
            r.flush_retries,
            r.flush_failures
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_division() {
        let m = MetricsSnapshot::default();
        assert_eq!(m.cache_hit_rate(), 0.0);
        assert_eq!(m.dentry_hit_rate(), 0.0);
        assert_eq!(m.pcie_bytes_per_request(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let m = MetricsSnapshot {
            cache: CacheStats {
                hits: 75,
                misses: 25,
                ..Default::default()
            },
            pcie: PcieSnapshot {
                dma_bytes: 1000,
                ..Default::default()
            },
            requests_served: 10,
            ..Default::default()
        };
        assert_eq!(m.cache_hit_rate(), 0.75);
        assert_eq!(m.pcie_bytes_per_request(), 100.0);
    }

    #[test]
    fn display_is_multiline_and_complete() {
        let s = MetricsSnapshot::default().to_string();
        for key in [
            "pcie:",
            "hybrid cache:",
            "write-back:",
            "readahead:",
            "wal:",
            "meta cache:",
            "evictions,",
            "kvfs:",
            "kv store:",
            "dpu runtime:",
            "recovery:",
        ] {
            assert!(s.contains(key), "missing {key} in:\n{s}");
        }
        // Sub-reads and sub-writes show as requests / keys.
        let m = MetricsSnapshot {
            kv: KvStats {
                sub_reads: 3,
                sub_read_keys: 48,
                sub_writes: 2,
                sub_write_keys: 124,
                ..Default::default()
            },
            ..Default::default()
        };
        let s = m.to_string();
        assert!(
            s.contains("3 / 48 sub-reads, 2 / 124 sub-writes (requests / keys)"),
            "{s}"
        );
    }

    #[test]
    fn readahead_hit_rate_computes() {
        let m = MetricsSnapshot {
            cache: CacheStats {
                prefetch_inserts: 8,
                ra_hits: 6,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(m.readahead_hit_rate(), 0.75);
        assert_eq!(MetricsSnapshot::default().readahead_hit_rate(), 0.0);
    }
}
