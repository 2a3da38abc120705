//! The attribute rule (DESIGN.md §9.4): a flush writes each dirty block
//! once, and each batch's one KV request carries its inode's attribute —
//! size, format and mtime — as its last key. No flush site writes an
//! attribute on its own, and a batch the store took has its mtime.
//!
//! Every flush site is checked the same way. The files are big and every
//! extent overwrites a page inside them, so the store's counters split
//! cleanly: a flush batch is one `sub_write` request whose keys are its
//! blocks and its attribute, and nothing is `put`. The mtime is read
//! through a second instance on the same store.

use std::sync::Arc;

use dpc::core::{Dpc, DpcConfig, DpcFs, Fd};
use dpc::fault::{FaultPlan, FaultSpec};
use dpc::kvstore::KvStore;
use dpc_testkit::read_file;

const PAGE: usize = 4096;
const FILES: [&str; 2] = ["/a", "/b"];
/// Pages per file: one past the 64 an eviction scenario dirties, so the
/// write that triggers it overwrites too.
const PAGES: usize = 66;

/// A store holding both files, written and closed by an instance that is
/// gone.
fn populated() -> Arc<KvStore> {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    for path in FILES {
        let fd = fs.create(path).unwrap();
        fs.write(fd, 0, &vec![1u8; PAGES * PAGE]).unwrap();
        fs.close(fd).unwrap();
    }
    dpc.kv_store()
}

/// Each file's mtime as a second instance over `store` reads it.
fn mtimes(store: &Arc<KvStore>) -> [u64; 2] {
    let cold = Dpc::with_shared_storage(DpcConfig::default(), Some(store.clone()), None);
    let fs = cold.fs();
    FILES.map(|path| fs.stat(path).unwrap().mtime_ns)
}

fn assert_moved(before: [u64; 2], after: [u64; 2]) {
    for (path, (b, a)) in FILES.iter().zip(before.iter().zip(&after)) {
        assert!(a > b, "{path}: mtime {b} -> {a}");
    }
}

/// Overwrite pages 0, 2, …, 2(n-1) of `fd`: n one-page extents, no two
/// adjacent, none growing the file.
fn overwrite(fs: &DpcFs, fd: Fd, n: usize) {
    for k in 0..n {
        fs.write(fd, (2 * k * PAGE) as u64, &[2u8; PAGE]).unwrap();
    }
}

/// What `f` cost the store: (write requests, keys they wrote, puts).
fn cost(store: &KvStore, f: impl FnOnce()) -> (u64, u64, u64) {
    let before = store.stats();
    f();
    let after = store.stats();
    (
        after.sub_writes - before.sub_writes,
        after.sub_write_keys - before.sub_write_keys,
        after.puts - before.puts,
    )
}

/// Open both files on a fresh instance over `store` and dirty `n`
/// extents in each.
fn dirty(cfg: DpcConfig, store: &Arc<KvStore>, n: usize) -> (Dpc, DpcFs, [Fd; 2]) {
    let dpc = Dpc::with_shared_storage(cfg, Some(store.clone()), None);
    let fs = dpc.fs();
    let fds = FILES.map(|path| fs.open(path).unwrap());
    for fd in fds {
        overwrite(&fs, fd, n);
    }
    (dpc, fs, fds)
}

#[test]
fn a_scoped_fsync_puts_its_inode_attribute_once() {
    let store = populated();
    let (_dpc, fs, [a, b]) = dirty(DpcConfig::default(), &store, 16);
    let before = mtimes(&store);
    // One batch: the 16 blocks and the attribute.
    assert_eq!(cost(&store, || fs.fsync(a).unwrap()), (1, 17, 0));
    let synced_a = mtimes(&store);
    assert!(synced_a[0] > before[0]);
    assert_eq!(synced_a[1], before[1], "/b is not /a's fsync's business");
    assert_eq!(cost(&store, || fs.fsync(b).unwrap()), (1, 17, 0));
    let synced = mtimes(&store);
    assert_eq!(synced[0], synced_a[0]);
    assert!(synced[1] > synced_a[1]);
}

#[test]
fn an_eviction_flush_puts_each_inode_attribute_once() {
    let store = populated();
    // One bucket of 64 entries: the 32 + 32 dirty overwrites fill it.
    let cfg = DpcConfig {
        cache_pages: 64,
        cache_bucket_entries: 64,
        ..DpcConfig::default()
    };
    let (dpc, fs, [a, _]) = dirty(cfg, &store, PAGES / 2 - 1);
    let before = mtimes(&store);
    let batches = dpc.metrics().cache.batched_evictions;
    // One more page finds the bucket full of dirty pages: one
    // `CacheEvictBatch`, whose one flush pass lands all 64 extents, a
    // batch per inode.
    let evict = || {
        fs.write(a, (64 * PAGE) as u64, &[3u8; PAGE]).unwrap();
    };
    assert_eq!(cost(&store, evict), (2, 66, 0));
    assert_eq!(dpc.metrics().cache.batched_evictions - batches, 1);
    assert_moved(before, mtimes(&store));
}

#[test]
fn the_shutdown_drain_puts_each_inode_attribute_once() {
    let store = populated();
    // Nothing flushes the 16 dirty pages but the drain, in one pass.
    let (dpc, fs, _) = dirty(DpcConfig::default(), &store, 8);
    let before = mtimes(&store);
    assert_eq!(cost(&store, move || drop((fs, dpc))), (2, 18, 0));
    assert_moved(before, mtimes(&store));
}

#[test]
fn recovery_puts_each_inode_attribute_once() {
    let store = populated();
    let (dpc, fs, _) = dirty(DpcConfig::default(), &store, 8);
    dpc.trip_crash();
    drop(fs);
    let before = mtimes(&store);
    // Recovery adopts the 16 dirty pages and flushes them in one pass —
    // before it returns, not at the recovered instance's teardown.
    let mut recovered = None;
    let recover = || recovered = Some(Dpc::recover(dpc).unwrap());
    assert_eq!(cost(&store, recover), (2, 18, 0));
    assert_eq!(recovered.unwrap().cache().dirty_count(), 0);
    assert_moved(before, mtimes(&store));
}

#[test]
fn a_crash_after_a_batch_lands_leaves_its_blocks_and_its_mtime_together() {
    let store = populated();
    let plan = FaultPlan::new(29);
    let cfg = DpcConfig {
        faults: Some(plan.clone()),
        ..DpcConfig::default()
    };
    let (dpc, fs, [a, _]) = dirty(cfg, &store, 8);
    let before = mtimes(&store);
    // The control plane draws `dpu.crash` once per batch it lands: the
    // first draw follows /a's one batch of eight extents, after the store
    // took its blocks and its attribute.
    plan.arm("dpu.crash", FaultSpec::nth(1));
    let mut crashed = None;
    let crash = || {
        let _ = fs.fsync(a); // answered or timed out: the DPU is dead
        assert!(dpc.crashed());
        drop(fs);
        crashed = Some(dpc);
    };
    // /a's one batch, and nothing after the trip.
    assert_eq!(cost(&store, crash), (1, 9, 0));
    let after = mtimes(&store);
    assert!(after[0] > before[0], "/a's mtime landed with its blocks");
    assert_eq!(after[1], before[1], "/b was never offered");

    // Recovery gives the oracle's bytes and size.
    let rdpc = Dpc::recover(crashed.unwrap()).unwrap();
    let mut oracle = vec![1u8; PAGES * PAGE];
    for k in 0..8 {
        oracle[2 * k * PAGE..(2 * k + 1) * PAGE].fill(2);
    }
    assert!(
        read_file(&rdpc.fs(), "/a") == oracle,
        "recovered bytes diverge from the oracle"
    );
}
