//! The logical size (DESIGN.md §4.1): the host owns each open file's
//! size, one cell per inode; `fsync` — and the `close` of a descriptor
//! whose inode was written since its last fsync — flush, and the flush
//! lands the backend on the size the pages make: no other crossing, and
//! the backend's size is never cut or grown to the host's.
//!
//! - two descriptors of one file never cut each other's fsynced data;
//! - a clean `open`+`close` (one crossing cold, none warm, zero for the
//!   close) or a no-op `fsync` (always one) leaves the backend alone;
//! - a non-page-aligned tail still lands byte-exact, in one crossing, and
//!   an `fsync` leaves a backend size it did not write alone;
//! - a write that fails after part of it landed is short, and the size
//!   covers exactly what landed, buffered or direct;
//! - `stat` of an open file reports the host's size, not the backend's;
//! - a reopen sees every closed write while another adapter fsyncs;
//! - at `FsyncMode::Log`, where `close` sends nothing, a reopen on the
//!   same instance sees the closed write's dirty pages, and a `stat`
//!   racing its writes and evictions never caches a size from before them.

use std::sync::Arc;

use dpc::core::{Dpc, DpcConfig, DpcFs, Fd, FsyncMode, IoMode};
use dpc::fault::{FaultPlan, FaultSpec};
use dpc::nvmefs::RetryPolicy;
use dpc_testkit::{cold_read, racing, racing_fsync, read_file};

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

#[test]
fn fsynced_data_survives_the_close_of_a_second_descriptor() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let data = pattern(64 * 1024, 0x5A);

    let a = fs.create("/f").unwrap();
    fs.write(a, 0, &data[..8192]).unwrap();
    fs.fsync(a).unwrap();
    let b = fs.open("/f").unwrap(); // opened at 8 KiB
    fs.write(a, 8192, &data[8192..]).unwrap();
    // `b` sees what `a` wrote: one logical size per inode.
    assert_eq!(fs.size(b).unwrap(), data.len() as u64);
    fs.fsync(b).unwrap();
    fs.fsync(a).unwrap();
    fs.close(a).unwrap();
    fs.close(b).unwrap();

    // Live: a new descriptor reads all 64 KiB back.
    assert_eq!(fs.stat("/f").unwrap().size, data.len() as u64);
    assert_eq!(read_file(&fs, "/f"), data);
    // Cold: so does a second instance over the surviving store.
    assert_eq!(cold_read(&dpc, "/f"), data);
}

#[test]
fn a_truncate_through_one_descriptor_is_what_the_other_syncs() {
    let dpc = Dpc::new(DpcConfig::default());
    let (fs_a, fs_b) = (dpc.fs(), dpc.fs()); // two adapters of one Dpc
    let data = pattern(64 * 1024, 0x33);

    let a = fs_a.create("/t").unwrap();
    fs_a.write(a, 0, &data).unwrap();
    fs_a.fsync(a).unwrap();
    let b = fs_b.open("/t").unwrap(); // opened at 64 KiB
    fs_a.truncate(a, 8192).unwrap();
    assert_eq!(fs_b.size(b).unwrap(), 8192);
    // `b`'s sync must not grow the file back to the size it was opened at.
    fs_b.fsync(b).unwrap();
    fs_b.close(b).unwrap();
    fs_a.close(a).unwrap();

    assert_eq!(fs_a.stat("/t").unwrap().size, 8192);
    assert_eq!(cold_read(&dpc, "/t"), &data[..8192]);
}

#[test]
fn clean_close_and_noop_fsync_leave_the_backend_alone() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    for (path, len) in [("/empty", 0usize), ("/small", 5_000), ("/big", 40_000)] {
        let fd = fs.create(path).unwrap();
        fs.write(fd, 0, &pattern(len, 1)).unwrap();
        fs.close(fd).unwrap();

        // The close flushed, so the size the host had cached is void: a
        // cold open is one crossing, and what it learns serves the next.
        let calls = dpc.pool_stats().submitted;
        let fd = fs.open(path).unwrap();
        let opened = dpc.pool_stats().submitted;
        assert_eq!(opened - calls, 1, "{path}: a cold open is one crossing");
        // Nothing was written through it: the close sends nothing at all.
        fs.close(fd).unwrap();
        assert_eq!(dpc.pool_stats().submitted, opened, "{path}: clean close");

        let kvfs = dpc.kvfs_inner();
        let before = (dpc.metrics().kv, fs.stat(path).unwrap(), kvfs.kv_pairs());
        let fd = fs.open(path).unwrap();
        assert_eq!(dpc.pool_stats().submitted, opened, "{path}: warm");
        fs.fsync(fd).unwrap();
        let synced = dpc.pool_stats().submitted;
        fs.fsync(fd).unwrap();
        // Sizes agree: the fsync is exactly one link crossing.
        assert_eq!(dpc.pool_stats().submitted - synced, 1, "{path}");
        fs.close(fd).unwrap();
        assert!(dpc.pool_stats().submitted > calls);

        let kv = dpc.metrics().kv;
        assert_eq!(
            (kv.puts, kv.deletes, kv.scans),
            (before.0.puts, before.0.deletes, before.0.scans),
            "{path}: a clean close/fsync wrote to the store"
        );
        assert_eq!(
            fs.stat(path).unwrap(),
            before.1,
            "{path}: attr (mtime) moved"
        );
        assert_eq!(kvfs.kv_pairs(), before.2, "{path}");
    }
}

#[test]
fn stat_of_an_open_file_reports_its_unflushed_growth() {
    let dpc = Dpc::new(DpcConfig::default());
    let (fs, other) = (dpc.fs(), dpc.fs()); // two adapters of one Dpc
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &pattern(8192, 1)).unwrap();
    // Nothing is flushed: the backend still says 0, the host says 8 KiB.
    assert_eq!(fs.size(fd).unwrap(), 8192);
    assert_eq!(fs.stat("/f").unwrap().size, 8192);
    fs.write(fd, 8192, &pattern(100, 2)).unwrap();
    for adapter in [&fs, &other] {
        assert_eq!(adapter.stat("/f").unwrap().size, 8292);
    }
    fs.fsync(fd).unwrap();
    assert_eq!(fs.stat("/f").unwrap().size, 8292);
    // A truncate through the descriptor is what `stat` sees, too.
    fs.truncate(fd, 100).unwrap();
    assert_eq!(other.stat("/f").unwrap().size, 100);
    fs.write(fd, 100, &pattern(4000, 3)).unwrap();
    fs.close(fd).unwrap();
    // Closed: the backend's size, which the close's flush landed.
    assert_eq!(fs.stat("/f").unwrap().size, 4100);
    assert_eq!(cold_read(&dpc, "/f").len(), 4100);
}

#[test]
fn unaligned_tail_lands_byte_exact_in_one_crossing() {
    let data = pattern(10_000, 0x77);
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let fd = fs.create("/tail").unwrap();
    fs.write(fd, 0, &data).unwrap();

    // The flush writes the tail page's valid prefix, so the backend lands
    // on 10 000 by itself: one call.
    let calls = dpc.pool_stats().submitted;
    fs.fsync(fd).unwrap();
    assert_eq!(dpc.pool_stats().submitted - calls, 1);
    assert_eq!(cold_read(&dpc, "/tail"), data);

    // Move the backend size behind the host's back: the fsync has nothing
    // to flush, is still one call, and leaves the size it did not write.
    let ino = fs.stat("/tail").unwrap().ino;
    dpc.kvfs_inner().truncate(ino, 20_000).unwrap();
    let calls = dpc.pool_stats().submitted;
    fs.fsync(fd).unwrap();
    assert_eq!(dpc.pool_stats().submitted - calls, 1);
    assert_eq!(dpc.kvfs_inner().get_attr(ino).unwrap().size, 20_000);
    let mut grown = data.clone();
    grown.resize(20_000, 0);
    assert_eq!(cold_read(&dpc, "/tail"), grown);
    fs.close(fd).unwrap();
}

/// A DPC with `/short` created and closed, and a fault plan whose link
/// reissues nothing: the one crossing a test sheds fails, and nothing else.
fn shedding() -> (Dpc, Arc<FaultPlan>) {
    let plan = FaultPlan::new(7);
    let dpc = Dpc::new(DpcConfig {
        faults: Some(plan.clone()),
        retry: RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        },
        ..DpcConfig::default()
    });
    let fs = dpc.fs();
    fs.close(fs.create("/short").unwrap()).unwrap();
    (dpc, plan)
}

/// What a short write of `n` bytes of `data` must leave: the host's size,
/// the store's, and a cold reopen through a second `Dpc` on the store all
/// see exactly those bytes, after an `fsync` that touches no size.
fn landed_exactly(dpc: &Dpc, fs: &DpcFs, fd: Fd, path: &str, data: &[u8], n: usize) {
    assert_eq!(fs.size(fd).unwrap(), n as u64, "host size");
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();
    assert_eq!(fs.stat(path).unwrap().size, n as u64);
    let ino = fs.stat(path).unwrap().ino;
    assert_eq!(dpc.kvfs_inner().get_attr(ino).unwrap().size, n as u64);
    assert!(cold_read(dpc, path) == data[..n], "cold reopen");
}

/// A buffered write longer than the claim window (64 pages, DESIGN.md
/// §4.4) whose second window fails — its partial page's old-bytes fetch
/// is shed — returns the first window's bytes, and the size covers
/// exactly them: Linux's short write, not an error whose landed pages a
/// later flush publishes past the size.
#[test]
fn a_buffered_write_whose_later_window_fails_is_short_and_sized_to_what_landed() {
    const WINDOW: usize = 64 * 4096;
    let data = pattern(WINDOW + 100, 0x4B);
    let (dpc, plan) = shedding();
    let fs = dpc.fs();
    let fd = fs.open("/short").unwrap();
    plan.arm("nvmefs.sqe_error", FaultSpec::nth(1));
    assert_eq!(fs.write(fd, 0, &data).unwrap(), WINDOW);
    assert_eq!(
        plan.total_injected(),
        1,
        "the second window's fetch was shed"
    );
    landed_exactly(&dpc, &fs, fd, "/short", &data, WINDOW);
}

/// A direct write that crosses in pieces, whose second piece the link
/// sheds, returns the first piece's bytes, and the size covers exactly
/// them.
#[test]
fn a_direct_write_whose_later_piece_fails_is_short_and_sized_to_what_landed() {
    let data = pattern(2 << 20, 0x3C); // twice the transport buffer
    let (dpc, plan) = shedding();
    let mut fs = dpc.fs();
    fs.mode = IoMode::Direct;
    let fd = fs.open("/short").unwrap();
    plan.arm("nvmefs.sqe_error", FaultSpec::nth(2));
    let n = fs.write(fd, 0, &data).unwrap();
    assert_eq!(plan.total_injected(), 1, "the second piece was shed");
    assert!(n > 0 && n < data.len(), "one piece of several: {n}");
    landed_exactly(&dpc, &fs, fd, "/short", &data, n);
}

/// Each round reopens the file, checks its size holds every page closed
/// so far, appends a page and closes, while a second adapter loops open,
/// `fsync`, close over it. Three races each lost the last page here: a
/// `stat` served during a flush cached the size the flush replaced; an
/// `open` started its size from one read before another descriptor's last
/// `close`; and an `fsync` took a write still in flight for covered, so
/// the writer's `close` skipped its flush. Stalled KV ops (never refused)
/// hold the windows open.
#[test]
fn a_reopen_sees_every_closed_write_while_another_adapter_fsyncs() {
    const ROUNDS: u64 = 300;
    let plan = FaultPlan::new(7);
    plan.arm("kv.op", FaultSpec::probability(0.5).with_delay(5));
    let dpc = Dpc::new(DpcConfig {
        faults: Some(plan),
        ..DpcConfig::default()
    });
    let fs = dpc.fs();
    fs.close(fs.create("/grow").unwrap()).unwrap();
    racing_fsync(&dpc, &["/"], || {
        for round in 0..ROUNDS {
            let fd = fs.open("/grow").unwrap();
            assert_eq!(fs.size(fd).unwrap(), round * 4096, "reopened stale");
            fs.write(fd, round * 4096, &pattern(4096, round as u8))
                .unwrap();
            fs.close(fd).unwrap();
        }
    });
    assert_eq!(cold_read(&dpc, "/grow").len() as u64, ROUNDS * 4096);
}

/// At the log tier `close` sends nothing: the closed write is dirty pages
/// only, and the backend's size is still 0. `stat` of the closed file, and
/// the reopen's `size`, `stat` and `read`, see the 10 000 bytes, and so
/// does a reopen after another file's writes evicted those pages.
#[test]
fn a_log_tier_reopen_sees_what_was_closed() {
    let data = pattern(10_000, 0x26);
    let dpc = Dpc::new(DpcConfig {
        fsync_mode: FsyncMode::Log,
        cache_pages: 128,
        ..DpcConfig::default()
    });
    let fs = dpc.fs();
    let fd = fs.create("/log").unwrap();
    fs.write(fd, 0, &data).unwrap();
    fs.close(fd).unwrap();
    assert_eq!(fs.stat("/log").unwrap().size, data.len() as u64);

    let reopen = || {
        let fd = fs.open("/log").unwrap();
        assert_eq!(fs.size(fd).unwrap(), data.len() as u64);
        assert_eq!(fs.stat("/log").unwrap().size, data.len() as u64);
        let mut buf = vec![0u8; data.len() + 100];
        assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), data.len());
        assert_eq!(buf[..data.len()], data);
        fs.close(fd).unwrap();
    };
    reopen();
    // Four times the cache in another file: `/log`'s pages are flushed
    // and evicted to make room, and the size cached above stays the file's.
    let other = fs.create("/other").unwrap();
    for lpn in 0..512u64 {
        fs.write(other, lpn * 4096, &pattern(4096, 1)).unwrap();
    }
    let ino = fs.stat("/log").unwrap().ino;
    let mut page = vec![0u8; 4096];
    assert!(
        (0..3).all(|lpn| !dpc.cache().lookup_read(ino, lpn, &mut page)),
        "`/log`'s pages were evicted"
    );
    reopen();
}

/// At the log tier, a closed file's last writes are dirty pages alone, and
/// evictions flush them. Each round reopens the file, checks its size
/// holds every page closed so far, appends a page and closes, then writes
/// twice the cache in another file, so the appended page is flushed and
/// evicted; a second adapter stats the file in a loop all the while. Two
/// races each cached a size from before a write: a `StatAt` that crossed
/// while a write's pages were landing (its claims wait out an eviction
/// crossing), and one that crossed while an eviction flushed the file's
/// pages. Once the pages were flushed, the reopen started from that size.
#[test]
fn a_stat_racing_writes_and_evictions_never_caches_a_size_from_before() {
    const ROUNDS: u64 = 150;
    let dpc = Dpc::new(DpcConfig {
        fsync_mode: FsyncMode::Log,
        cache_pages: 128,
        ..DpcConfig::default()
    });
    let fs = dpc.fs();
    fs.close(fs.create("/grow").unwrap()).unwrap();
    let other = fs.create("/other").unwrap();
    let stat = dpc.fs();
    racing(
        || {
            stat.stat("/grow").unwrap();
        },
        || {
            for round in 0..ROUNDS {
                let fd = fs.open("/grow").unwrap();
                assert_eq!(fs.size(fd).unwrap(), round * 4096, "reopened stale");
                fs.write(fd, round * 4096, &pattern(4096, round as u8))
                    .unwrap();
                fs.close(fd).unwrap();
                let half = (round % 2) * 256;
                for lpn in half..half + 256 {
                    fs.write(other, lpn * 4096, &pattern(4096, lpn as u8))
                        .unwrap();
                }
            }
        },
    );
    fs.close(other).unwrap();
    assert_eq!(read_file(&fs, "/grow").len() as u64, ROUNDS * 4096);
}
