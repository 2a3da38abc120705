//! Write-back verification: flush passes racing writers + extent
//! coalescing must be invisible to readers — byte-exact against an
//! in-memory model, with and without seeded flush chaos — the write-back
//! machinery must stay completely off the fast path when idle, and a clean
//! teardown keeps every acknowledged write.
//!
//! Chaos runs use seeds `[1, 7, 42]` by default (`DPC_CHAOS_SEED=<u64>`
//! pins one), faults drawn from per-site deterministic streams. A refused
//! extent write fails *whole*: every page of it stays dirty — in the
//! dirty-range index, unevictable — and a later pass retries it, so no
//! page is ever lost, even across an instance restart. A sync answers for
//! what it made durable: a scoped `fsync` whose pages the backend keeps
//! refusing returns EIO.

use std::collections::HashMap;

use dpc::core::{Dpc, DpcConfig, FsyncMode};
use dpc::fault::{FaultPlan, FaultSpec};
use dpc_testkit::{fill_for, racing_fsync, read_fd, read_file, seeds, splitmix, FileModel};
use proptest::prelude::*;

/// One seeded run: dirty-heavy mixed writes racing a second adapter's
/// scoped `fsync` loop over the same files, with every extent flush at
/// risk of refusal. The files must read back byte-exact live, and — after
/// the instance shuts down (which flushes every page still dirty,
/// fault-free) — from a second instance reopening the same KV store cold.
fn writeback_chaos_run(seed: u64) {
    let plan = FaultPlan::new(seed);
    plan.arm("cache.flush", FaultSpec::probability(0.25));

    let mut files: HashMap<String, FileModel> = HashMap::new();
    let store = {
        let dpc = Dpc::new(DpcConfig {
            cache_pages: 512, // small: eviction pressure races the fsyncs
            faults: Some(plan.clone()),
            ..DpcConfig::default()
        });
        let fs = dpc.fs();
        let mut rng = seed;
        fs.mkdir("/wb").unwrap();
        racing_fsync(&dpc, &["/wb"], || {
            for id in 0..6u64 {
                let path = format!("/wb/f{id}");
                let fd = fs.create(&path).unwrap();
                // Sequential dirty run (coalescable) ...
                let base = fill_for(seed, id, 16_384 + (splitmix(&mut rng) % 65_536) as usize);
                fs.write(fd, 0, &base).unwrap();
                let mut model = FileModel::new(base);
                // ... then scattered overwrites racing the fsync loop.
                for v in 0..8u64 {
                    let off = splitmix(&mut rng) % model.bytes().len() as u64;
                    let len = 1 + (splitmix(&mut rng) as usize) % 9_000;
                    let data = fill_for(seed ^ 0xA5A5, id * 100 + v, len);
                    fs.write(fd, off, &data).unwrap();
                    model.write(off, &data);
                }
                if splitmix(&mut rng).is_multiple_of(2) {
                    fs.fsync(fd).unwrap();
                }
                // Live read-back straight through the racing flushes.
                assert_eq!(
                    read_fd(&fs, fd),
                    model.bytes(),
                    "seed {seed}: {path} diverged live"
                );
                fs.close(fd).unwrap();
                files.insert(path, model);
            }
        });

        // `cache.flush` draws once per batch attempt, and every pass that
        // lands an inode's pages makes one: six files draw at least six
        // times, and the site first fires on draw 6, 2 and 5 of seeds 1, 7
        // and 42 (8–23 draws a run with the fsync loop racing, on one core
        // or two).
        assert!(plan.total_injected() > 0, "seed {seed}: no fault fired");
        let m = dpc.metrics();
        assert!(
            m.recovery.flush_retries + m.recovery.flush_failures > 0,
            "seed {seed}: refused extents left no trace: {:?}",
            m.recovery
        );
        dpc.kvfs_inner().store().clone()
        // Drop: the teardown drain persists every residual dirty page
        // with faults disarmed.
    };

    // Diskless restart: a fresh instance over the same store, no cache,
    // no faults. Every byte must have survived the chaos.
    let dpc = Dpc::with_shared_storage(DpcConfig::default(), Some(store), None);
    let fs = dpc.fs();
    for (path, model) in &files {
        let back = read_file(&fs, path);
        assert_eq!(
            back,
            model.bytes(),
            "seed {seed}: {path} lost pages to chaos"
        );
    }
}

#[test]
fn coalesced_writeback_survives_flush_chaos_racing_fsync() {
    for seed in seeds() {
        writeback_chaos_run(seed);
    }
}

/// Deterministic coalescing shape: with no flush pass racing, a
/// sequential dirty run flushes as one multi-page extent, not N
/// single-page writes.
#[test]
fn sequential_dirty_run_flushes_as_one_extent() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let fd = fs.create("/seq").unwrap();
    let data = fill_for(7, 0, 32 * 4096);
    fs.write(fd, 0, &data).unwrap();
    fs.fsync(fd).unwrap();

    let m = dpc.metrics();
    assert_eq!(m.cache.extents_flushed, 1, "one coalesced extent");
    assert_eq!(m.cache.fg_flush_pages, 32);
    assert_eq!(m.cache.bg_flush_pages, 0);
    assert_eq!(m.cache.extent_pages_hist, [0, 0, 0, 0, 1]); // 16+ bucket
    assert!(m.pages_per_extent() > 1.0);

    assert_eq!(read_fd(&fs, fd), data);
}

/// Eviction pressure takes the batched path: a write burst larger than
/// the cache issues multi-bucket `CacheEvictBatch` commands instead of
/// one `CacheEvict` round-trip per stalled page — and stays byte-exact.
#[test]
fn overcommitted_write_burst_uses_batched_eviction() {
    let dpc = Dpc::new(DpcConfig {
        cache_pages: 128,
        cache_bucket_entries: 4,
        ..DpcConfig::default()
    });
    let fs = dpc.fs();
    let fd = fs.create("/burst").unwrap();
    let data = fill_for(11, 3, 1 << 20); // 256 pages through a 128-page cache
    fs.write(fd, 0, &data).unwrap();
    fs.fsync(fd).unwrap();

    let m = dpc.metrics();
    assert!(m.cache.evict_stalls > 0, "the burst must have stalled");
    assert!(
        m.cache.batched_evictions > 0,
        "stalls must take the batched path: {:?}",
        m.cache
    );
    assert!(
        m.cache.batched_evictions <= m.cache.evict_stalls,
        "batching must not send more commands than stalls"
    );

    assert_eq!(read_fd(&fs, fd), data);
}

/// Fault-free, pressure-free write-back keeps every recovery counter and
/// every foreground-degradation counter at exactly zero: no evict
/// stalls, no write-throughs, no refused flush — the machinery costs the
/// fast path nothing.
#[test]
fn fault_free_writeback_keeps_stall_counters_at_zero() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    for id in 0..4u64 {
        let path = format!("/clean{id}");
        let fd = fs.create(&path).unwrap();
        let data = fill_for(42, id, 100_000);
        fs.write(fd, 0, &data).unwrap();
        fs.fsync(fd).unwrap();
        assert_eq!(read_fd(&fs, fd), data);
        fs.close(fd).unwrap();
    }

    let m = dpc.metrics();
    assert_eq!(m.cache.evict_stalls, 0);
    assert_eq!(m.cache.write_throughs, 0);
    let r = m.recovery;
    assert_eq!(r.flush_retries, 0);
    assert_eq!(r.flush_failures, 0);
    assert_eq!(r.link_retries, 0);
    assert_eq!(r.kv_retries, 0);
    // The dirty pages did go through the coalesced path.
    assert!(m.cache.extents_flushed > 0);
    let hist_total: u64 = m.cache.extent_pages_hist.iter().sum();
    assert_eq!(hist_total, m.cache.extents_flushed);
}

/// A sync answers for what it made durable. A page the backend refuses
/// stays dirty and `fsync` says EIO — the backend's size stays where its
/// bytes end; once the backend takes the page, the next `fsync` is `Ok`
/// and a cold instance reads every byte.
#[test]
fn fsync_reports_a_flush_the_backend_refused() {
    let plan = FaultPlan::new(1);
    let data = fill_for(25, 0, 4096);
    let store = {
        let dpc = Dpc::new(DpcConfig {
            faults: Some(plan.clone()),
            ..DpcConfig::default()
        });
        let fs = dpc.fs();
        let fd = fs.create("/refused").unwrap();
        fs.write(fd, 0, &data).unwrap();

        let refusing = plan.arm("cache.flush", FaultSpec::always());
        assert_eq!(fs.fsync(fd).unwrap_err().errno(), 5 /* EIO */);
        assert_eq!(fs.cache().dirty_count(), 1, "the refused page stays dirty");
        let ino = dpc.kvfs_inner().resolve("/refused").unwrap();
        assert_eq!(dpc.kvfs_inner().get_attr(ino).unwrap().size, 0);
        let r = dpc.metrics().recovery;
        // Four passes, each one extent tried 1 + 3 times.
        assert_eq!((r.flush_failures, r.flush_retries), (4, 12));
        // `close` syncs a modified descriptor, and says so too.
        assert_eq!(fs.close(fd).unwrap_err().errno(), 5);
        refusing.disarm();

        fs.fsync(fd).unwrap();
        assert_eq!(fs.cache().dirty_count(), 0);
        fs.close(fd).unwrap();
        dpc.kvfs_inner().store().clone()
    };

    let dpc = Dpc::with_shared_storage(DpcConfig::default(), Some(store), None);
    let back = read_file(&dpc.fs(), "/refused");
    assert_eq!(back, data, "the bytes never reached the store");
}

/// A scoped `fsync` never answers for a page a writer held through its
/// flush pass: the DPU says EAGAIN rather than wait (the writer may be
/// waiting on the same service thread), and the host asks again until the
/// page lands — here, with the bytes the writer committed meanwhile.
#[test]
fn a_scoped_fsync_waits_out_a_writer_holding_its_page() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let fd = fs.create("/held").unwrap();
    fs.write(fd, 0, &[1u8; 2 * 4096]).unwrap();
    let ino = dpc.kvfs_inner().resolve("/held").unwrap();
    let cache = dpc.cache().clone();
    let (held_tx, held_rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut page = cache.begin_write(ino, 1).unwrap();
            held_tx.send(()).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(20));
            page.write(0, &[2u8; 4096]);
            page.commit_dirty();
        });
        held_rx.recv().unwrap();
        fs.fsync(fd).unwrap();
        // The writer committed before the reply, or the reply could not
        // have been Ok: the page is clean and in the store.
        assert_eq!(fs.cache().dirty_count(), 0);
        let mut back = [0u8; 4096];
        assert_eq!(dpc.kvfs_inner().read(ino, 4096, &mut back).unwrap(), 4096);
        assert_eq!(back, [2u8; 4096], "fsync answered before the page landed");
    });
}

/// `write_fsync_8k` in miniature: 64 scattered 8 KiB overwrites, then one
/// fsync, cost the store one write request: every block they touched and
/// the attribute that carries the mtime.
#[test]
fn a_scoped_fsync_of_scattered_overwrites_is_one_write_request() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let fd = fs.create("/scatter").unwrap();
    fs.write(fd, 0, &fill_for(9, 0, 256 * 8192)).unwrap();
    fs.fsync(fd).unwrap();
    let mut rng = 9u64;
    let mut blocks = std::collections::BTreeSet::new();
    for v in 0..64u64 {
        let block = splitmix(&mut rng) % 256;
        fs.write(fd, block * 8192, &fill_for(9, v + 1, 8192))
            .unwrap();
        blocks.insert(block);
    }
    let store = dpc.kv_store();
    let before = store.stats();
    fs.fsync(fd).unwrap();
    let after = store.stats();
    assert_eq!(after.sub_writes - before.sub_writes, 1, "one write request");
    assert_eq!(
        after.sub_write_keys - before.sub_write_keys,
        blocks.len() as u64 + 1
    );
    assert_eq!(after.puts, before.puts, "the attribute rode the request");
    assert_eq!(fs.cache().dirty_count(), 0);
}

/// What a clean teardown left on `store`: `path` read through a fresh
/// instance reopening it.
fn reopened(store: std::sync::Arc<dpc::kvstore::KvStore>, path: &str) -> Vec<u8> {
    let dpc = Dpc::with_shared_storage(DpcConfig::default(), Some(store), None);
    read_file(&dpc.fs(), path)
}

/// A clean teardown keeps every acknowledged write: at the default config
/// a buffered write that was never closed has sent nothing, and the
/// instance's drop drains it.
#[test]
fn teardown_drains_a_write_that_was_never_closed() {
    let data = fill_for(3, 0, 16_384);
    let store = {
        let dpc = Dpc::new(DpcConfig::default());
        let fs = dpc.fs();
        let fd = fs.create("/open").unwrap();
        fs.write(fd, 0, &data).unwrap();
        assert_eq!(dpc.cache().dirty_count(), 4);
        dpc.kv_store()
    };
    let back = reopened(store, "/open");
    assert_eq!(back.len(), data.len(), "the size landed");
    assert!(back == data, "the bytes landed");
}

/// The same on the log tier, whose `fsync` and `close` send nothing: the
/// drain lands the pages, and the tail page's valid prefix sets the size.
#[test]
fn teardown_drains_a_log_tier_write_that_was_fsynced_and_closed() {
    let data = fill_for(3, 1, 10_000);
    let store = {
        let dpc = Dpc::new(DpcConfig {
            fsync_mode: FsyncMode::Log,
            ..DpcConfig::default()
        });
        let fs = dpc.fs();
        let fd = fs.create("/log").unwrap();
        fs.write(fd, 0, &data).unwrap();
        fs.fsync(fd).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(dpc.cache().dirty_count(), 3);
        dpc.kv_store()
    };
    let back = reopened(store, "/log");
    assert_eq!(back.len(), data.len(), "the size landed");
    assert!(back == data, "the bytes landed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A racing `fsync` loop + extent coalescing under seeded chaos is
    /// byte-exact against an in-memory model for arbitrary write
    /// schedules, live and across a restart.
    #[test]
    fn coalesced_writeback_matches_model_under_chaos(seed in any::<u64>()) {
        let plan = FaultPlan::new(seed);
        plan.arm("cache.flush", FaultSpec::probability(0.3));

        let mut model = FileModel::default();
        let store = {
            let dpc = Dpc::new(DpcConfig {
                cache_pages: 256,
                faults: Some(plan),
                ..DpcConfig::default()
            });
            let fs = dpc.fs();
            let fd = fs.create("/prop").unwrap();
            let live = racing_fsync(&dpc, &["/"], || {
                let mut rng = seed;
                for v in 0..24u64 {
                    let off = splitmix(&mut rng) % 150_000;
                    let len = 1 + (splitmix(&mut rng) as usize) % 20_000;
                    let data = fill_for(seed, v, len);
                    fs.write(fd, off, &data).unwrap();
                    model.write(off, &data);
                    if v % 7 == 6 {
                        fs.fsync(fd).unwrap();
                    }
                }
                read_fd(&fs, fd)
            });
            prop_assert_eq!(live, model.bytes(), "diverged live");
            fs.close(fd).unwrap();
            dpc.kvfs_inner().store().clone()
        };

        let dpc = Dpc::with_shared_storage(DpcConfig::default(), Some(store), None);
        let back = read_file(&dpc.fs(), "/prop");
        prop_assert_eq!(back, model.bytes(), "lost pages across restart");
    }
}
