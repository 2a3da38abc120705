//! Hybrid-cache explorer (paper §3.3, Figure 5 and Figure 8).
//!
//! Drives the hybrid cache directly — host data plane on one side, DPU
//! control plane on the other — and narrates the protocol: front-end
//! writes locking meta entries, the DPU flushing under read locks, the
//! eviction handshake when a bucket fills, and the sequential prefetcher
//! turning a miss stream into hits.
//!
//! ```sh
//! cargo run --example cache_explorer
//! ```

use std::sync::Arc;

use dpc::cache::{
    CacheConfig, ControlPlane, HybridCache, PrefetchJob, RaConfig, ReadaheadTable, WriteError,
    PAGE_SIZE,
};
use dpc::pcie::DmaEngine;

fn main() {
    let cache = Arc::new(HybridCache::new(CacheConfig {
        pages: 64,
        bucket_entries: 8,
        mode: 1,
        meta_lockfree: true,
    }));
    let dma = DmaEngine::new();
    let mut dpu = ControlPlane::new(cache.clone(), dma.clone());

    println!("cache: {} pages, {} buckets of 8 entries\n", 64, 64 / 8);

    // --- front-end writes -------------------------------------------------
    println!("== host front-end writes (ino=1, lpn 0..9) ==");
    for lpn in 0..10u64 {
        let mut g = cache.begin_write(1, lpn).unwrap();
        g.write(0, &[lpn as u8; PAGE_SIZE]);
        g.commit_dirty(); // release write lock + set dirty, atomically
    }
    println!(
        "  dirty pages: {}, free pages: {}",
        cache.dirty_pages(),
        cache.header().free()
    );

    // --- reads hit host memory, zero PCIe --------------------------------
    let before = dma.snapshot();
    let mut buf = vec![0u8; PAGE_SIZE];
    for lpn in 0..10u64 {
        assert!(cache.lookup_read(1, lpn, &mut buf));
    }
    let delta = dma.snapshot().since(&before);
    println!(
        "  10 cache-hit reads crossed PCIe with {} DMA ops, {} atomics (the point!)",
        delta.dma_ops, delta.atomics
    );

    // --- DPU flush ---------------------------------------------------------
    println!("\n== DPU control plane: flush pass ==");
    let before = dma.snapshot();
    let mut flushed_to_backend = 0;
    let n = dpu.flush_extents(
        &mut |_ino: u64, _lpn: u64, _page: &[u8]| {
            flushed_to_backend += 1;
        },
        None,
        false,
    );
    let delta = dma.snapshot().since(&before);
    println!(
        "  flushed {n} dirty pages ({} backend writes): {} PCIe atomics (read locks), {} DMA pulls",
        flushed_to_backend, delta.atomics, delta.dma_ops
    );
    println!("  dirty pages now: {}", cache.dirty_pages());

    // --- bucket exhaustion and the eviction handshake ----------------------
    println!("\n== filling one bucket until the host must ask for eviction ==");
    let mut target_lpns = Vec::new();
    let bucket0 = {
        // Find lpns all hashing to one bucket.
        let mut lpns = vec![];
        let mut lpn = 1000u64;
        let b0 = loop {
            let mut g = match cache.begin_write(9, lpn) {
                Ok(g) => g,
                Err(_) => unreachable!(),
            };
            g.write(0, &[1; 8]);
            g.commit_dirty();
            lpns.push(lpn);
            lpn += 1;
            if lpns.len() == 1 {
                break 0;
            }
        };
        target_lpns.extend(lpns);
        b0
    };
    let _ = bucket0;
    // Force a full bucket by writing many pages of one inode.
    let mut filled = 0;
    let mut lpn = 2000u64;
    let full_bucket = loop {
        match cache.begin_write(3, lpn) {
            Ok(mut g) => {
                g.write(0, &[2; 8]);
                g.commit_dirty();
                filled += 1;
                lpn += 1;
            }
            Err(WriteError::NeedEviction { bucket }) => break bucket,
        }
        if filled > 200 {
            panic!("never filled a bucket");
        }
    };
    println!("  after {filled} more writes, bucket {full_bucket} is full -> NeedEviction");
    println!("  host notifies the DPU: flush + evict ...");
    dpu.flush_extents(&mut |_: u64, _: u64, _: &[u8]| {}, None, false);
    assert!(dpu.evict_one(full_bucket));
    let mut g = cache.begin_write(3, lpn).unwrap();
    g.write(0, &[3; 8]);
    g.commit_dirty();
    println!(
        "  retry succeeded; evictions so far: {}",
        cache.stats().evictions
    );

    // --- adaptive readahead -------------------------------------------------
    println!("\n== adaptive readahead (Figure 8's 100x effect) ==");
    let mut backend_reads = 0u32;
    let mut backend = |_ino: u64, lpn: u64, out: &mut [u8]| -> Option<usize> {
        backend_reads += 1;
        out.fill(lpn as u8);
        Some(out.len())
    };
    // A sequential miss stream on ino 5: lpn 0, 1 -> the window planner
    // fires and the (here inline) prefetcher fills the planned window.
    let table = ReadaheadTable::new(RaConfig::default());
    table.on_read(5, 0, 1);
    let window = table.on_read(5, 1, 1).expect("two sequential misses fire");
    let inserted = dpu.fill_window(&PrefetchJob { ino: 5, window }, &mut backend, 0);
    println!("  after two sequential misses the DPU prefetched {inserted} pages");
    let mut hits = 0;
    for lpn in window.start..window.start + inserted as u64 {
        if cache.lookup_read(5, lpn, &mut buf) {
            hits += 1;
        }
    }
    println!("  host then read {hits}/{inserted} of them straight from host memory");

    let s = cache.stats();
    println!(
        "\ntotals: writes={} hits={} misses={} flushes={} evictions={} prefetch={}",
        s.writes, s.hits, s.misses, s.flushes, s.evictions, s.prefetch_inserts
    );
}
