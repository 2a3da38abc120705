//! End-to-end integration: applications → fs-adapter → hybrid cache →
//! nvme-fs → DPU runtime → IO-dispatch → KVFS → disaggregated KV store,
//! with real threads playing the DPU.

use dpc::core::{Dpc, DpcConfig, DpcFs, IoMode};
use dpc::dfs::DfsConfig;
use dpc::fault::{FaultPlan, FaultSpec};
use dpc_testkit::{read_fd, read_file};

#[test]
fn standalone_file_lifecycle() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();

    fs.mkdir("/etc").unwrap();
    fs.mkdir("/etc/app").unwrap();
    let fd = fs.create("/etc/app/server.conf").unwrap();
    fs.write(fd, 0, b"port=8080\nthreads=8\n").unwrap();
    fs.fsync(fd).unwrap();

    let attr = fs.stat("/etc/app/server.conf").unwrap();
    assert_eq!(attr.size, 20);
    assert_eq!(attr.kind, 0);

    let mut buf = vec![0u8; 64];
    let n = fs.read(fd, 0, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"port=8080\nthreads=8\n");

    let entries = fs.readdir("/etc/app").unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].name, "server.conf");

    fs.unlink("/etc/app/server.conf").unwrap();
    assert!(fs.stat("/etc/app/server.conf").is_err());
    fs.rmdir("/etc/app").unwrap();
}

#[test]
fn buffered_writes_hit_the_hybrid_cache() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let fd = fs.create("/cached.bin").unwrap();

    let pcie_before = dpc.pcie_snapshot();
    let data = vec![0x77u8; 64 * 1024];
    fs.write(fd, 0, &data).unwrap();
    // Buffered writes land in host memory; aside from the namespace ops
    // already done, no bulk data crossed PCIe yet.
    let pcie_mid = dpc.pcie_snapshot();
    assert!(
        pcie_mid.dma_bytes - pcie_before.dma_bytes < 16 * 1024,
        "bulk data crossed PCIe on a buffered write"
    );
    assert!(fs.cache().stats().writes >= 16, "16 pages dirtied");

    // Reads are served from the cache — all hits, still no PCIe data.
    assert_eq!(read_fd(&fs, fd), data);
    assert!(fs.cache().stats().hits >= 16);

    // fsync drains the dirty pages to KVFS via DPU pulls.
    fs.fsync(fd).unwrap();
    let pcie_after = dpc.pcie_snapshot();
    assert!(
        pcie_after.dma_bytes - pcie_mid.dma_bytes >= 64 * 1024,
        "flush must pull dirty pages over PCIe"
    );
    assert_eq!(fs.cache().dirty_pages(), 0);

    // The data is now really in KVFS.
    let ino = dpc.kvfs_inner().resolve("/cached.bin").unwrap();
    let mut kv_back = vec![0u8; data.len()];
    assert_eq!(
        dpc.kvfs_inner().read(ino, 0, &mut kv_back).unwrap(),
        data.len()
    );
    assert_eq!(kv_back, data);
}

#[test]
fn direct_io_bypasses_the_cache() {
    let dpc = Dpc::new(DpcConfig {
        io_mode: IoMode::Direct,
        ..DpcConfig::default()
    });
    let fs = dpc.fs();
    let fd = fs.create("/direct.bin").unwrap();

    let data = vec![0x42u8; 8192];
    fs.write(fd, 0, &data).unwrap();
    assert_eq!(
        fs.cache().stats().writes,
        0,
        "direct I/O must not dirty the cache"
    );

    let mut back = vec![0u8; 8192];
    assert_eq!(fs.read(fd, 0, &mut back).unwrap(), 8192);
    assert_eq!(back, data);

    // Direct data goes straight to KVFS (durable without fsync).
    let ino = dpc.kvfs_inner().resolve("/direct.bin").unwrap();
    assert_eq!(dpc.kvfs_inner().get_attr(ino).unwrap().size, 8192);
}

#[test]
fn small_to_big_promotion_through_the_full_stack() {
    let dpc = Dpc::new(DpcConfig {
        io_mode: IoMode::Direct,
        ..DpcConfig::default()
    });
    let fs = dpc.fs();
    let fd = fs.create("/grow.bin").unwrap();

    // Below the 8 KiB boundary: small-file KV.
    fs.write(fd, 0, &vec![1u8; 4000]).unwrap();
    let ino = dpc.kvfs_inner().resolve("/grow.bin").unwrap();
    assert_eq!(
        dpc.kvfs_inner().get_attr(ino).unwrap().format,
        dpc::kvfs::DataFormat::Small
    );

    // Crossing it: promotion to the big-file KV.
    fs.write(fd, 4000, &vec![2u8; 100_000]).unwrap();
    assert_eq!(
        dpc.kvfs_inner().get_attr(ino).unwrap().format,
        dpc::kvfs::DataFormat::Big
    );
    let mut back = vec![0u8; 104_000];
    assert_eq!(fs.read(fd, 0, &mut back).unwrap(), 104_000);
    assert!(back[..4000].iter().all(|&b| b == 1));
    assert!(back[4000..].iter().all(|&b| b == 2));
}

#[test]
fn sequential_reads_trigger_dpu_prefetch() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();

    // Materialise a 1 MiB file in KVFS directly (so reads miss at first).
    let ino = dpc.kvfs_inner().create("/stream.bin", 0o644).unwrap();
    let data: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
    dpc.kvfs_inner().write(ino, 0, &data).unwrap();

    let fd = fs.open("/stream.bin").unwrap();
    let mut page = vec![0u8; 4096];
    // Read sequentially; after a few misses the DPU prefetcher starts
    // filling the host cache ahead of us. Each queued window is drained
    // before the next read, so the counts below are a function of the
    // readahead policy, not of whether the reader outran the prefetcher
    // thread on a busy box.
    for lpn in 0..64u64 {
        let n = fs.read(fd, lpn * 4096, &mut page).unwrap();
        assert_eq!(n, 4096);
        assert_eq!(page[0], ((lpn * 4096) % 251) as u8);
        dpc.drain_prefetch();
    }
    let stats = fs.cache().stats();
    assert!(
        stats.prefetch_inserts > 16,
        "prefetcher inserted only {} pages",
        stats.prefetch_inserts
    );
    assert!(stats.hits > 32, "later reads should hit prefetched pages");
}

#[test]
fn two_adapters_share_one_namespace() {
    let dpc = Dpc::new(DpcConfig {
        queues: 2,
        ..DpcConfig::default()
    });
    let fs1 = dpc.fs();
    let fs2 = dpc.fs();
    assert_eq!(dpc.queue_count(), 2);

    let fd1 = fs1.create("/shared.txt").unwrap();
    fs1.write(fd1, 0, b"written by adapter one").unwrap();
    fs1.fsync(fd1).unwrap();

    let fd2 = fs2.open("/shared.txt").unwrap();
    let mut buf = vec![0u8; 64];
    let n = fs2.read(fd2, 0, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"written by adapter one");

    // Adapters are no longer limited to one per queue pair: a third (and
    // more) multiplexes over the same pool instead of panicking.
    let fs3 = dpc.fs();
    let fd3 = fs3.open("/shared.txt").unwrap();
    let n = fs3.read(fd3, 0, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"written by adapter one");
}

#[test]
fn concurrent_adapters_on_threads() {
    let dpc = std::sync::Arc::new(Dpc::new(DpcConfig {
        queues: 4,
        ..DpcConfig::default()
    }));
    std::thread::scope(|s| {
        for t in 0..4 {
            let dpc = dpc.clone();
            s.spawn(move || {
                let fs = dpc.fs();
                let fd = fs.create(&format!("/t{t}.bin")).unwrap();
                for i in 0..16u64 {
                    fs.write(fd, i * 4096, &vec![t as u8 + 1; 4096]).unwrap();
                }
                fs.fsync(fd).unwrap();
                let mut buf = vec![0u8; 16 * 4096];
                assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), buf.len());
                assert!(buf.iter().all(|&b| b == t as u8 + 1));
            });
        }
    });
    assert!(dpc.requests_served() > 0);
}

#[test]
fn truncate_through_the_stack() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let fd = fs.create("/trunc.bin").unwrap();
    fs.write(fd, 0, &vec![9u8; 20_000]).unwrap();
    fs.fsync(fd).unwrap();
    fs.truncate(fd, 5_000).unwrap();
    assert_eq!(fs.size(fd).unwrap(), 5_000);
    let mut buf = vec![0u8; 20_000];
    assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), 5_000);
    assert!(buf[..5_000].iter().all(|&b| b == 9));
    assert_eq!(fs.stat("/trunc.bin").unwrap().size, 5_000);
}

#[test]
fn rename_and_errors() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    assert_eq!(fs.open("/nope").unwrap_err().errno(), 2 /* ENOENT */);
    fs.create("/a").unwrap();
    assert_eq!(fs.create("/a").unwrap_err().errno(), 17 /* EEXIST */);
    fs.mkdir("/d").unwrap();
    fs.create("/d/x").unwrap();
    assert_eq!(fs.rmdir("/d").unwrap_err().errno(), 39 /* ENOTEMPTY */);
}

#[test]
fn links_through_the_full_stack() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();

    let fd = fs.create("/original").unwrap();
    fs.write(fd, 0, b"linked data").unwrap();
    fs.fsync(fd).unwrap();

    // Hard link: both names resolve to the same inode, nlink = 2.
    fs.link("/original", "/hard").unwrap();
    let a = fs.stat("/original").unwrap();
    let b = fs.stat("/hard").unwrap();
    assert_eq!(a.ino, b.ino);
    assert_eq!(b.nlink, 2);
    // Reading through the alias returns the data.
    let fd2 = fs.open("/hard").unwrap();
    let mut buf = vec![0u8; 16];
    let n = fs.read(fd2, 0, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"linked data");

    // Symlink: stat follows, readlink does not.
    fs.symlink("/soft", "/original").unwrap();
    assert_eq!(fs.stat("/soft").unwrap().ino, a.ino);
    assert_eq!(fs.readlink("/soft").unwrap(), "/original");
    // readdir reports the link kind (2 = symlink).
    let kinds: Vec<(String, u8)> = fs
        .readdir("/")
        .unwrap()
        .into_iter()
        .map(|e| (e.name, e.kind))
        .collect();
    assert!(kinds.contains(&("soft".to_string(), 2)));

    // Unlink one hard name; data survives via the other.
    fs.unlink("/original").unwrap();
    assert_eq!(fs.stat("/hard").unwrap().nlink, 1);
    let fd3 = fs.open("/hard").unwrap();
    let n = fs.read(fd3, 0, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"linked data");
    // readlink on a non-symlink maps to EPERM.
    assert_eq!(fs.readlink("/hard").unwrap_err().errno(), 1);
}

#[test]
fn writev_gathers_scattered_buffers_via_sgl() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let fd = fs.create("/scattered.bin").unwrap();

    // Three scattered application buffers, one writev.
    let header = vec![0x01u8; 100];
    let body = vec![0x02u8; 5000];
    let footer = vec![0x03u8; 37];
    let n = fs.writev(fd, 0, &[&header, &body, &footer]).unwrap();
    assert_eq!(n, 5137);

    let mut back = vec![0u8; 5137];
    assert_eq!(fs.read(fd, 0, &mut back).unwrap(), 5137);
    assert!(back[..100].iter().all(|&b| b == 1));
    assert!(back[100..5100].iter().all(|&b| b == 2));
    assert!(back[5100..].iter().all(|&b| b == 3));

    // writev at an offset interleaves correctly with buffered writes.
    fs.write(fd, 5137, &[0x04u8; 63]).unwrap();
    let n = fs.writev(fd, 5200, &[&footer, &header]).unwrap();
    assert_eq!(n, 137);
    fs.fsync(fd).unwrap();
    let mut all = vec![0u8; 5337];
    assert_eq!(fs.read(fd, 0, &mut all).unwrap(), 5337);
    assert!(all[5137..5200].iter().all(|&b| b == 4));
    assert!(all[5200..5237].iter().all(|&b| b == 3));
    assert!(all[5237..].iter().all(|&b| b == 1));
}

#[test]
fn writev_invalidation_spares_dirty_pages_past_the_gather() {
    // Regression: the post-writev cache invalidation used div_ceil for
    // its last page, reaching one page past the gather. A *dirty* page
    // there was outside the O_DIRECT pre-flush range, so dropping it
    // silently lost an acknowledged buffered write.
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let fd = fs.create("/spare.bin").unwrap();

    // Dirty page 3 (12288..16384) via a buffered write, never flushed.
    let keep = vec![0xAAu8; 2000];
    assert_eq!(fs.write(fd, 13000, &keep).unwrap(), keep.len());

    // Gather ending unaligned inside page 2: pages 0..=2 only.
    let a = vec![0xB1u8; 4096];
    let b = vec![0xB2u8; 4096];
    assert_eq!(fs.writev(fd, 927, &[&a, &b]).unwrap(), 8192);

    fs.fsync(fd).unwrap();
    let mut back = vec![0u8; 2000];
    assert_eq!(fs.read(fd, 13000, &mut back).unwrap(), 2000);
    assert_eq!(back, keep, "dirty page past the gather was dropped");
}

#[test]
fn rename_through_the_stack_replaces_destination() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let fd = fs.create("/new.cfg").unwrap();
    fs.write(fd, 0, b"v2 settings").unwrap();
    fs.fsync(fd).unwrap();
    let old = fs.create("/live.cfg").unwrap();
    fs.write(old, 0, b"v1").unwrap();
    fs.fsync(old).unwrap();

    // The classic atomic config swap.
    fs.rename("/new.cfg", "/live.cfg").unwrap();
    assert!(fs.stat("/new.cfg").is_err());
    let fd2 = fs.open("/live.cfg").unwrap();
    let mut buf = vec![0u8; 16];
    let n = fs.read(fd2, 0, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"v2 settings");
}

#[test]
fn one_adapter_shared_by_threads() {
    // A single DpcFs (one nvme-fs queue pair) used from several threads:
    // the adapter serialises the channel internally.
    let dpc = Dpc::new(DpcConfig::default());
    let fs = std::sync::Arc::new(dpc.fs());
    std::thread::scope(|s| {
        for t in 0..6u64 {
            let fs = fs.clone();
            s.spawn(move || {
                let fd = fs.create(&format!("/shared-{t}.bin")).unwrap();
                for i in 0..8u64 {
                    fs.write(fd, i * 1000, &vec![t as u8 + 1; 1000]).unwrap();
                }
                fs.fsync(fd).unwrap();
                let mut buf = vec![0u8; 8000];
                assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), 8000);
                assert!(buf.iter().all(|&b| b == t as u8 + 1));
            });
        }
    });
    assert_eq!(fs.readdir("/").unwrap().len(), 6);
}

#[test]
fn prefetched_tail_pages_never_inflate_file_size() {
    // Regression: a prefetched tail page is zero-padded to 4K; when the
    // host later dirties it, the flush must write only the meaningful
    // prefix, not the padding (which would inflate the logical size).
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();

    // A file whose tail page is partial (size 10_000: lpn 2 holds 1808B).
    let ino = dpc.kvfs_inner().create("/tail.bin", 0o644).unwrap();
    dpc.kvfs_inner().write(ino, 0, &vec![7u8; 10_000]).unwrap();

    let fd = fs.open("/tail.bin").unwrap();
    // Sequential reads trigger the prefetcher, which caches the tail page.
    let mut page = vec![0u8; 4096];
    for lpn in 0..3u64 {
        fs.read(fd, lpn * 4096, &mut page).unwrap();
    }
    // Dirty the (prefetched) tail page with a small in-place write.
    fs.write(fd, 9_000, &[9u8; 10]).unwrap();
    fs.fsync(fd).unwrap();

    // The size must still be exactly 10_000.
    assert_eq!(fs.stat("/tail.bin").unwrap().size, 10_000);
    assert_eq!(dpc.kvfs_inner().get_attr(ino).unwrap().size, 10_000);
    // And the edit landed without corrupting the neighbourhood.
    let buf = read_file(&fs, "/tail.bin");
    assert_eq!(buf[8_999], 7);
    assert_eq!(&buf[9_000..9_010], &[9u8; 10]);
    assert_eq!(buf[9_010], 7);
}

#[test]
fn read_filled_tail_pages_never_inflate_file_size() {
    // Same regression class as the prefetch case, through the plain
    // read-miss fill path: two reads out of order form no stream.
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let ino = dpc.kvfs_inner().create("/tail2.bin", 0o644).unwrap();
    dpc.kvfs_inner().write(ino, 0, &vec![5u8; 9_500]).unwrap();

    let fd = fs.open("/tail2.bin").unwrap();
    let mut page = vec![0u8; 4096];
    // Random (non-sequential) reads cache pages via the read-fill path.
    fs.read(fd, 8192, &mut page).unwrap(); // tail page, 1308 valid bytes
    fs.read(fd, 0, &mut page).unwrap();
    // Dirty the tail page, then sync.
    fs.write(fd, 9_000, &[6u8; 20]).unwrap();
    fs.fsync(fd).unwrap();
    assert_eq!(fs.stat("/tail2.bin").unwrap().size, 9_500);
    assert_eq!(dpc.kvfs_inner().get_attr(ino).unwrap().size, 9_500);
    let buf = read_file(&fs, "/tail2.bin");
    assert_eq!(buf[8_999], 5);
    assert_eq!(&buf[9_000..9_020], &[6u8; 20]);
    assert_eq!(buf[9_020], 5);
}

/// A demand miss fills free cache slots clean, and only free ones: on a
/// full cache its runs are not even tried, so every resident page and
/// every cache count but the read's own hit / miss accounting stay as
/// they were.
#[test]
fn a_miss_run_fills_free_slots_clean_and_leaves_a_full_cache_alone() {
    const PAGE: usize = 4096;
    const PAGES: usize = 1024; // four times the cache
    let dpc = Dpc::new(DpcConfig {
        cache_pages: 256,
        ..DpcConfig::default()
    });
    let data: Vec<u8> = (0..PAGES * PAGE).map(|i| (i / 7 % 251) as u8).collect();
    let ino = dpc.kvfs_inner().create("/full", 0o644).unwrap();
    dpc.kvfs_inner().write(ino, 0, &data).unwrap();
    let (fs, cache) = (dpc.fs(), dpc.cache().clone());
    let fd = fs.open("/full").unwrap();
    let read = |lpn: usize, pages: usize| {
        let mut buf = vec![0u8; pages * PAGE];
        assert_eq!(
            fs.read(fd, (lpn * PAGE) as u64, &mut buf).unwrap(),
            buf.len()
        );
        assert!(
            buf == data[lpn * PAGE..(lpn + pages) * PAGE],
            "bytes at page {lpn}"
        );
    };

    // Free slots: an 8-page miss lands every page, clean.
    read(0, 8);
    assert_eq!((cache.header().free(), cache.dirty_count()), (248, 0));
    let calls = dpc.pool_stats().submitted;
    read(0, 8);
    assert_eq!(dpc.pool_stats().submitted, calls, "the re-read is all hits");

    // Stream the file: every bucket fills. The windows the stream queued
    // are filled or dropped before anything is counted.
    for lpn in (8..PAGES).step_by(8) {
        read(lpn, 8);
    }
    dpc.drain_prefetch();
    assert_eq!(cache.header().free(), 0, "the stream filled the cache");
    let mut page = vec![0u8; PAGE];
    let resident = |page: &mut [u8]| -> Vec<bool> {
        (0..PAGES as u64)
            .map(|lpn| cache.lookup_read(ino, lpn, page))
            .collect()
    };
    let held = resident(&mut page);
    let stats = cache.stats();

    // A 16-page read over pages the cache lacks: served, filled nowhere.
    let first_miss = held.iter().position(|&r| !r).unwrap();
    let calls = dpc.pool_stats().submitted;
    read(first_miss.min(PAGES - 16), 16);
    assert!(dpc.pool_stats().submitted > calls, "the read crossed");
    let after = cache.stats();
    assert_eq!(
        dpc::cache::CacheStats {
            hits: stats.hits,
            misses: stats.misses,
            demand_vector_fills: stats.demand_vector_fills,
            ..after
        },
        stats
    );
    assert_eq!((cache.header().free(), cache.dirty_count()), (0, 0));
    assert_eq!(resident(&mut page), held, "a resident page moved");
}

#[test]
fn reused_transport_and_reply_buffers_never_leak_stale_bytes() {
    // One queue, one service thread, one command in flight at a time: every
    // read below goes through the same un-cleared reply scratch on the DPU
    // and the same transport buffer. A 128 KiB reply of 0xAB soaks both
    // before each smaller one, which must come back as its own bytes only.
    const K128: usize = 128 * 1024;
    for io_mode in [IoMode::Buffered, IoMode::Direct] {
        let dpc = Dpc::new(DpcConfig {
            io_mode,
            queues: 1,
            ..DpcConfig::default()
        });
        let fs = dpc.fs();
        let kvfs = dpc.kvfs_inner();
        // The data goes in behind the cache's back, so every read misses.
        let big = kvfs.create("/big.bin", 0o644).unwrap();
        kvfs.write(big, 0, &vec![0xAB; K128]).unwrap();
        let tail: Vec<u8> = (0..1000u32).map(|i| (i % 199) as u8 + 1).collect();
        kvfs.write(big, K128 as u64, &tail).unwrap();
        kvfs.write(big, 400_000, b"!").unwrap(); // a hole up to here
        let small = kvfs.create("/small.txt", 0o644).unwrap();
        kvfs.write(small, 0, b"tiny file").unwrap();
        let gone = kvfs.create("/gone.bin", 0o644).unwrap();
        kvfs.write(gone, 0, &[9u8; 5000]).unwrap();

        let (big_fd, small_fd) = (fs.open("/big.bin").unwrap(), fs.open("/small.txt").unwrap());
        let gone_fd = fs.open("/gone.bin").unwrap();
        kvfs.unlink("/gone.bin").unwrap();

        let soak = || {
            let soak_fd = fs.open("/big.bin").unwrap();
            if io_mode == IoMode::Buffered {
                // Drop what the last round cached so the soak crosses too.
                fs.cache().invalidate_ino(big);
            }
            let mut buf = vec![0u8; K128];
            assert_eq!(fs.read(soak_fd, 0, &mut buf).unwrap(), K128);
            assert!(buf.iter().all(|&b| b == 0xAB));
            fs.close(soak_fd).unwrap();
        };
        // `dst` starts as 0x5C: a byte the read did not write shows.
        let read = |fd, offset: u64, len: usize| {
            soak();
            let mut buf = vec![0x5Cu8; len];
            let n = fs.read(fd, offset, &mut buf)?;
            buf.truncate(n);
            Ok::<_, dpc::core::DpcError>(buf)
        };

        // A short tail, then the hole's zeros to the end of the request.
        let got = read(big_fd, K128 as u64, 8192).unwrap();
        assert_eq!(got.len(), 8192, "{io_mode:?}");
        assert_eq!(&got[..1000], &tail[..], "{io_mode:?}");
        assert!(got[1000..].iter().all(|&b| b == 0), "{io_mode:?}");
        // A hole proper, unaligned at both ends.
        let got = read(big_fd, 200_100, 20_000).unwrap();
        assert!(
            got.len() == 20_000 && got.iter().all(|&b| b == 0),
            "{io_mode:?}"
        );
        // The last byte, and a read from past it.
        let got = read(big_fd, 399_990, 4096).unwrap();
        assert_eq!(got, b"\0\0\0\0\0\0\0\0\0\0!", "{io_mode:?}");
        assert_eq!(read(big_fd, 400_001, 4096).unwrap(), b"", "{io_mode:?}");
        // A `Small`-format file, shorter than a page.
        assert_eq!(
            read(small_fd, 0, 4096).unwrap(),
            b"tiny file",
            "{io_mode:?}"
        );
        assert_eq!(read(small_fd, 5, 2).unwrap(), b"fi", "{io_mode:?}");
        // A failing read is an errno — and the next read is still clean.
        assert_eq!(
            read(gone_fd, 0, 4096).unwrap_err().errno(),
            2,
            "{io_mode:?}"
        );
        assert_eq!(read(small_fd, 0, 4).unwrap(), b"tiny", "{io_mode:?}");
        assert_eq!(dpc.metrics().recovery.rejected_sqes, 0);
    }
}

#[test]
fn writev_refuses_rather_than_discard_a_page_the_backend_would_not_take() {
    // Regression: `writev` pre-flushes the dirty pages its gather overlaps
    // and afterwards invalidates them. A page the backend refused is not
    // flushed but parked in the quarantine, and the invalidation dropped
    // the parked copy too — the acknowledged bytes of that page around
    // the gather were gone.
    let plan = FaultPlan::new(1);
    let dpc = Dpc::new(DpcConfig {
        faults: Some(plan.clone()),
        ..DpcConfig::default()
    });
    let fs = dpc.fs();
    let fd = fs.create("/parked.bin").unwrap();
    let old = vec![0xA5u8; 4096];
    assert_eq!(fs.write(fd, 0, &old).unwrap(), 4096);

    let refusing = plan.arm("cache.flush", FaultSpec::always());
    assert_eq!(
        fs.writev(fd, 1000, &[&[0xB6u8; 100]]).unwrap_err().errno(),
        16, /* EBUSY */
    );
    refusing.disarm();

    assert_eq!(fs.writev(fd, 1000, &[&[0xB6u8; 100]]).unwrap(), 100);
    let mut back = vec![0u8; 4096];
    assert_eq!(fs.read(fd, 0, &mut back).unwrap(), 4096);
    assert_eq!(back[..1000], old[..1000]);
    assert_eq!(back[1000..1100], [0xB6u8; 100]);
    assert_eq!(back[1100..], old[1100..], "bytes past the gather were lost");
}

/// What each data path costs in DMAs per crossing, pinned one row per
/// path, so a change that moves a crossing's price shows here (DESIGN.md
/// §12.3 has the arithmetic). A header costs a DMA of its own only when it
/// does not fit its descriptor — none of these requests', and of the
/// replies only `Attr`. So a namespace mutation in a directory the host
/// knows, and an fsync of a clean file, cross in two: the SQE fetch and
/// the CQE.
#[test]
fn link_dma_budget_of_each_data_path() {
    const BLOCK: usize = 8192;
    type Path = fn(&Dpc) -> u64;
    /// DMA operations `op` put on the link.
    fn dmas(dpc: &Dpc, op: impl FnOnce()) -> u64 {
        let before = dpc.pcie_snapshot();
        op();
        dpc.pcie_snapshot().since(&before).dma_ops
    }
    let buffered_write: Path = |dpc| {
        let fs = dpc.fs();
        let fd = fs.create("/w").unwrap();
        dmas(dpc, || {
            assert_eq!(fs.write(fd, 0, &[7u8; BLOCK]).unwrap(), BLOCK);
        })
    };
    let cold_read: Path = |dpc| {
        let ino = dpc.kvfs_inner().create("/r", 0o644).unwrap();
        dpc.kvfs_inner().write(ino, 0, &[5u8; BLOCK]).unwrap();
        let fs = dpc.fs();
        let fd = fs.open("/r").unwrap();
        let mut back = [0u8; BLOCK];
        let n = dmas(dpc, || {
            assert_eq!(fs.read(fd, 0, &mut back).unwrap(), BLOCK);
        });
        assert_eq!(back, [5u8; BLOCK]);
        n
    };
    let gather: Path = |dpc| {
        let fs = dpc.fs();
        let fd = fs.create("/v").unwrap();
        dmas(dpc, || {
            assert_eq!(
                fs.writev(fd, 0, &[&[1u8; 4096], &[2u8; 4096]]).unwrap(),
                BLOCK
            );
        })
    };
    let clean_fsync: Path = |dpc| {
        let fs = dpc.fs();
        let fd = fs.create("/s").unwrap();
        fs.write(fd, 0, &[3u8; BLOCK]).unwrap();
        fs.fsync(fd).unwrap();
        dmas(dpc, || fs.fsync(fd).unwrap())
    };
    /// `/m/f`, created and never looked at: the host knows the names.
    fn meta_file(dpc: &Dpc) -> DpcFs {
        let fs = dpc.fs();
        fs.mkdir("/m").unwrap();
        let fd = fs.create("/m/f").unwrap();
        fs.close(fd).unwrap();
        fs
    }
    /// DMAs of one namespace call on `/m`, whose names the host knows.
    fn in_m(dpc: &Dpc, op: impl FnOnce(&DpcFs)) -> u64 {
        let fs = meta_file(dpc);
        dmas(dpc, || op(&fs))
    }
    let create_close: Path = |dpc| {
        in_m(dpc, |fs| {
            let fd = fs.create("/m/new").unwrap();
            fs.close(fd).unwrap();
        })
    };
    let mkdir: Path = |dpc| in_m(dpc, |fs| fs.mkdir("/m/d").unwrap());
    let symlink: Path = |dpc| in_m(dpc, |fs| fs.symlink("/m/ln", "/m/f").unwrap());
    let link: Path = |dpc| in_m(dpc, |fs| fs.link("/m/f", "/m/hard").unwrap());
    let unlink: Path = |dpc| in_m(dpc, |fs| fs.unlink("/m/f").unwrap());
    let rmdir: Path = |dpc| {
        let fs = meta_file(dpc);
        fs.mkdir("/m/d").unwrap();
        dmas(dpc, || fs.rmdir("/m/d").unwrap())
    };
    let rename_free: Path = |dpc| in_m(dpc, |fs| fs.rename("/m/f", "/m/g").unwrap());
    let rename_over: Path = |dpc| {
        let fs = meta_file(dpc);
        fs.close(fs.create("/m/g").unwrap()).unwrap();
        dmas(dpc, || fs.rename("/m/f", "/m/g").unwrap())
    };
    let rename_long: Path = |dpc| {
        // The request names both leaves under `/m`'s inode: 39 bytes, past
        // the 32 an SQE with a read side holds, inside the 48 of one with
        // none.
        let mut header = Vec::new();
        let req = dpc::nvmefs::FileRequest::Rename {
            parent: 1,
            name: "f".into(),
            new_parent: 1,
            new_name: "a_longer_name".into(),
        };
        assert!((33..=48).contains(&req.encode(&mut header)));
        in_m(dpc, |fs| fs.rename("/m/f", "/m/a_longer_name").unwrap())
    };
    let dfs_create: Path = |dpc| dmas(dpc, || _ = dpc.fs().dfs_create(0, "new").unwrap());
    let cold_stat: Path = |dpc| {
        let fs = meta_file(dpc);
        dmas(dpc, || assert_eq!(fs.stat("/m/f").unwrap().kind, 0))
    };
    let warm_meta: Path = |dpc| {
        let fs = meta_file(dpc);
        let mut listing = Vec::new();
        fs.stat("/m/f").unwrap();
        fs.readdir_into("/m", &mut listing).unwrap();
        dmas(dpc, || {
            assert_eq!(fs.stat("/m/f").unwrap().kind, 0);
            let fd = fs.open("/m/f").unwrap();
            fs.close(fd).unwrap();
            fs.readdir_into("/m", &mut listing).unwrap();
            assert_eq!(fs.stat("/m/ghost").unwrap_err().errno(), 2);
        })
    };
    /// A DFS file holding one block.
    fn dfs_file(dpc: &Dpc) -> u64 {
        let ino = dpc.fs().dfs_create(0, "blk").unwrap();
        dpc.fs().dfs_write_block(ino, 0, &[9u8; BLOCK]).unwrap();
        ino
    }
    let dfs_getattr: Path = |dpc| {
        let ino = dfs_file(dpc);
        dmas(dpc, || {
            assert_eq!(dpc.fs().dfs_getattr(ino).unwrap().size, BLOCK as u64);
        })
    };
    let dfs_read: Path = |dpc| {
        let ino = dfs_file(dpc);
        dmas(dpc, || {
            assert_eq!(dpc.fs().dfs_read_block(ino, 0).unwrap(), [9u8; BLOCK]);
        })
    };
    let dfs_write: Path = |dpc| {
        let ino = dfs_file(dpc);
        dmas(dpc, || {
            assert_eq!(
                dpc.fs().dfs_write_block(ino, 1, &[8u8; BLOCK]).unwrap(),
                BLOCK
            );
        })
    };
    // (path, I/O mode, DMAs)
    let table: [(&str, Path, IoMode, u64); 21] = [
        // Absorbed in host memory: nothing crosses.
        ("buffered write", buffered_write, IoMode::Buffered, 0),
        // SQE (request inside), 2 payload pages, CQE (reply inside).
        ("cold buffered read", cold_read, IoMode::Buffered, 4),
        // SQE + the payload's 2 pages, page-aligned, + CQE: the paper's 4.
        ("direct write", buffered_write, IoMode::Direct, 4),
        // SQE + descriptor list + 2 segments + CQE.
        ("writev", gather, IoMode::Buffered, 5),
        // SQE + CQE: the reply is `Ok`, which the CQE holds (3 while the
        // reply was the whole `Attr`).
        ("fsync, clean file", clean_fsync, IoMode::Buffered, 2),
        // A mutation under a directory the host knows walks nothing, so it
        // declares no read side: its request rides the SQE (48 bytes of
        // room), its reply — `Ino`, `Removed`, `Ok` — the CQE.
        ("create + close", create_close, IoMode::Buffered, 2),
        ("mkdir", mkdir, IoMode::Buffered, 2),
        ("symlink", symlink, IoMode::Buffered, 2),
        ("link", link, IoMode::Buffered, 2),
        ("unlink", unlink, IoMode::Buffered, 2),
        ("rmdir", rmdir, IoMode::Buffered, 2),
        ("rename to a free name", rename_free, IoMode::Buffered, 2),
        ("rename over a file", rename_over, IoMode::Buffered, 2),
        (
            "rename, 33-48 byte request",
            rename_long,
            IoMode::Buffered,
            2,
        ),
        ("DFS create", dfs_create, IoMode::Buffered, 2),
        // The same three for a path the host has names for but no
        // attribute: SQE (path inside), the `Attr` reply, CQE.
        ("cold stat", cold_stat, IoMode::Buffered, 3),
        // What the host meta cache holds — attribute, listing, absence —
        // it answers itself: stat, open + close, readdir, ENOENT.
        ("warm stat, open, readdir", warm_meta, IoMode::Buffered, 0),
        ("DFS getattr", dfs_getattr, IoMode::Buffered, 3),
        // The distributed paths are the staged read and the direct write.
        ("DFS 8 KiB read", dfs_read, IoMode::Buffered, 4),
        ("DFS 8 KiB write", dfs_write, IoMode::Buffered, 4),
        ("DFS 8 KiB write, direct", dfs_write, IoMode::Direct, 4),
    ];
    for (name, path, io_mode, want) in table {
        let dpc = Dpc::new(DpcConfig {
            io_mode,
            dfs: Some(DfsConfig::default()),
            ..DpcConfig::default()
        });
        assert_eq!(path(&dpc), want, "{name}");
    }
}
