//! Readahead verification: adaptive windows, background fills and the
//! batched vectored miss path must be invisible to readers — cold
//! sequential streams come back byte-exact (plain and under seeded
//! chaos), truncate kills a stream's future, concurrent writers are never
//! clobbered by async fills, and cache pressure throttles prefetch to
//! zero.
//!
//! Reuses the PR 3/4 chaos plumbing: seeds `[1, 7, 42]` by default
//! (`DPC_CHAOS_SEED=<u64>` pins one), faults drawn from per-site
//! deterministic streams.

use dpc::cache::{RaConfig, ReadaheadTable, PAGE_SIZE};
use dpc::core::{Dpc, DpcConfig};
use dpc::fault::{FaultPlan, FaultSpec};
use dpc::kvfs::ROOT_INO;
use dpc_testkit::{fill_for, racing_fsync, read_fd, read_file, seeds, splitmix, FileModel};
use proptest::prelude::*;

/// Write `data` to `path` on a throwaway instance and hand back the KV
/// store, so a second instance can stream it *cold* — readahead only
/// acts on misses, and a warm cache never misses.
fn store_with_file(path: &str, data: &[u8]) -> std::sync::Arc<dpc::kvstore::KvStore> {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let fd = fs.create(path).unwrap();
    fs.write(fd, 0, data).unwrap();
    fs.close(fd).unwrap();
    dpc.kvfs_inner().store().clone()
}

/// Cold sequential stream: byte-exact, the background prefetcher did real
/// work, demand hits consumed its pages — and every single prefetch insert
/// came from the background thread (the metrics proof that the demand path
/// performs zero synchronous window fills).
#[test]
fn cold_sequential_stream_is_byte_exact_and_prefetched() {
    let data = fill_for(3, 0, 256 * PAGE_SIZE + 1234);
    let store = store_with_file("/seq", &data);

    let dpc = Dpc::with_shared_storage(DpcConfig::default(), Some(store), None);
    let fs = dpc.fs();
    let fd = fs.open("/seq").unwrap();
    let mut buf = vec![0u8; 4 * PAGE_SIZE];
    let mut got = Vec::with_capacity(data.len());
    loop {
        let n = fs.read(fd, got.len() as u64, &mut buf).unwrap();
        if n == 0 {
            break;
        }
        got.extend_from_slice(&buf[..n]);
        // Let each queued window land before the next read, so the counts
        // below are a function of the readahead policy, not of whether the
        // reader outran a prefetcher thread the suite's other tests were
        // starving (the reader can finish all 65 reads first, and then
        // nothing was ever inserted).
        dpc.drain_prefetch();
    }
    assert_eq!(got, data, "cold stream diverged");

    let m = dpc.metrics();
    assert!(
        m.cache.prefetch_inserts > 0,
        "a 256-page stream must trigger background fills: {:?}",
        m.cache
    );
    assert!(m.cache.ra_async_fills > 0);
    assert!(
        m.cache.ra_hits > 0,
        "demand reads must consume prefetched pages: {:?}",
        m.cache
    );
    assert!(m.readahead_hit_rate() > 0.5, "readahead mostly useful");
    // Every insert was made by the prefetcher thread, none by a service
    // thread on the demand path.
    assert_eq!(
        m.cache.prefetch_inserts,
        dpc.pages_prefetched(),
        "synchronous window fill on the demand path"
    );
}

/// A buffered read spanning several missing pages goes out as one
/// vectored fill (a contiguous run per nvme-fs command), not one
/// command per page.
#[test]
fn spanning_miss_read_takes_the_vectored_path() {
    let data = fill_for(9, 0, 32 * PAGE_SIZE);
    let store = store_with_file("/vec", &data);

    let dpc = Dpc::with_shared_storage(DpcConfig::default(), Some(store), None);
    let fs = dpc.fs();
    let fd = fs.open("/vec").unwrap();
    let served_before = dpc.requests_served();
    let mut buf = vec![0u8; 8 * PAGE_SIZE];
    assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), buf.len());
    assert_eq!(buf, data[..8 * PAGE_SIZE], "vectored fill diverged");

    let m = dpc.metrics();
    assert_eq!(
        m.cache.demand_vector_fills, 1,
        "8 missing pages = one vectored run: {:?}",
        m.cache
    );
    // The run crossed nvme-fs as ONE spanning request, not eight.
    assert_eq!(
        dpc.requests_served() - served_before,
        1,
        "per-page fetches snuck back in"
    );

    // All 8 pages landed in the cache: re-reading is pure host memory.
    let before = dpc.metrics().cache.hits;
    let mut again = vec![0u8; 8 * PAGE_SIZE];
    assert_eq!(fs.read(fd, 0, &mut again).unwrap(), again.len());
    assert_eq!(again, buf);
    assert_eq!(dpc.metrics().cache.hits - before, 8);
}

/// Truncate mid-stream kills the stream: the planned frontier past the
/// new end is forgotten, in-flight fills abort on the epoch bump, and no
/// prefetched page past the new size ever appears in the cache.
#[test]
fn truncate_mid_stream_leaves_no_pages_past_new_size() {
    let pages = 128usize;
    let data = fill_for(11, 0, pages * PAGE_SIZE);
    let store = store_with_file("/trunc", &data);

    let dpc = Dpc::with_shared_storage(DpcConfig::default(), Some(store), None);
    let fs = dpc.fs();
    let fd = fs.open("/trunc").unwrap();

    // Stream far enough that readahead is running well ahead.
    let mut buf = vec![0u8; 4 * PAGE_SIZE];
    let mut off = 0u64;
    for _ in 0..8 {
        let n = fs.read(fd, off, &mut buf).unwrap();
        assert_eq!(&buf[..n], &data[off as usize..off as usize + n]);
        off += n as u64;
    }

    // Truncate to a boundary well behind the prefetch frontier.
    let keep_pages = 40u64;
    let new_size = keep_pages * PAGE_SIZE as u64;
    fs.truncate(fd, new_size).unwrap();

    // Keep reading (a fresh stream inside the surviving prefix), then
    // let the prefetcher drain whatever it still had queued.
    let mut got = Vec::new();
    let mut off = 0u64;
    loop {
        let n = fs.read(fd, off, &mut buf).unwrap();
        if n == 0 {
            break;
        }
        got.extend_from_slice(&buf[..n]);
        off += n as u64;
    }
    assert_eq!(got, data[..new_size as usize], "post-truncate prefix");
    dpc.drain_prefetch();

    // Not one cached page may exist past the new size. (Probe the cache
    // directly — the adapter would clamp reads and hide them.)
    let ino = dpc.kvfs_inner().lookup(ROOT_INO, "trunc").unwrap();
    let mut page = vec![0u8; PAGE_SIZE];
    for lpn in keep_pages..pages as u64 {
        assert!(
            !dpc.cache().lookup_read(ino, lpn, &mut page),
            "prefetched page {lpn} survived past the truncation point"
        );
    }
}

/// An async window fill racing a concurrent writer must never clobber
/// the writer's dirty pages with older backend bytes: reader streams the
/// whole file cold (prefetcher running ahead) while a writer overlays
/// fixed slices; at the end the overlays must all have survived, both
/// live and across a diskless restart.
#[test]
fn async_fill_never_clobbers_concurrent_writes() {
    let pages = 192usize;
    let base = fill_for(13, 0, pages * PAGE_SIZE);
    let store = store_with_file("/race", &base);

    let overlay = fill_for(13, 99, PAGE_SIZE);
    let overlay_pages: Vec<u64> = (0..24).map(|i| (i * 7 + 3) as u64).collect();

    let mut model = FileModel::new(base);
    for &lpn in &overlay_pages {
        model.write(lpn * PAGE_SIZE as u64, &overlay);
    }

    let store = {
        let dpc = Dpc::with_shared_storage(DpcConfig::default(), Some(store), None);
        let fs = std::sync::Arc::new(dpc.fs());

        let writer = {
            let fs = fs.clone();
            let overlay = overlay.clone();
            let overlay_pages = overlay_pages.clone();
            std::thread::spawn(move || {
                let fd = fs.open("/race").unwrap();
                for &lpn in &overlay_pages {
                    fs.write(fd, lpn * PAGE_SIZE as u64, &overlay).unwrap();
                }
            })
        };
        // Reader streams cold in parallel, dragging the prefetcher
        // across the very pages the writer is dirtying.
        let fd = fs.open("/race").unwrap();
        let mut buf = vec![0u8; 4 * PAGE_SIZE];
        let mut off = 0u64;
        loop {
            let n = fs.read(fd, off, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            off += n as u64;
        }
        writer.join().unwrap();
        dpc.drain_prefetch();

        // Live check: every overlay page reads back as the writer's data
        // — an async fill that clobbered a dirty page loses it here.
        let mut page = vec![0u8; PAGE_SIZE];
        for &lpn in &overlay_pages {
            assert_eq!(
                fs.read(fd, lpn * PAGE_SIZE as u64, &mut page).unwrap(),
                PAGE_SIZE
            );
            assert_eq!(
                page, overlay,
                "async fill clobbered concurrent write of page {lpn}"
            );
        }
        fs.fsync(fd).unwrap();
        dpc.kvfs_inner().store().clone()
    };

    // Restart cold: the overlays survived persistently too.
    let dpc = Dpc::with_shared_storage(DpcConfig::default(), Some(store), None);
    let got = read_file(&dpc.fs(), "/race");
    assert_eq!(got, model.bytes(), "overlay lost across restart");
}

/// Under cache pressure the prefetcher backs off to zero: with the cache
/// filled past its free-page floor (an eighth of it) before the stream,
/// not one page is prefetch-inserted, every job is throttled away, and
/// reads still come back byte-exact.
#[test]
fn cache_pressure_throttles_prefetch_to_zero_inserts() {
    let data = fill_for(17, 0, 96 * PAGE_SIZE);
    let store = store_with_file("/hot", &data);

    let dpc = Dpc::with_shared_storage(
        DpcConfig {
            cache_pages: 128,
            ..DpcConfig::default()
        },
        Some(store),
        None,
    );
    let fs = dpc.fs();
    // Whole-page writes four times the cache, fsynced: every bucket
    // holds clean pages of `/fill` and no slot is free. Writes plan no
    // window, and a demand miss now only ever takes an evicted slot.
    let fill_fd = fs.create("/fill").unwrap();
    let page = vec![0x5Au8; PAGE_SIZE];
    for lpn in 0..512u64 {
        fs.write(fill_fd, lpn * PAGE_SIZE as u64, &page).unwrap();
    }
    fs.fsync(fill_fd).unwrap();
    assert_eq!(dpc.cache().header().free(), 0, "the cache is full");

    let fd = fs.open("/hot").unwrap();
    let mut buf = vec![0u8; PAGE_SIZE];
    let mut got = Vec::with_capacity(data.len());
    loop {
        let n = fs.read(fd, got.len() as u64, &mut buf).unwrap();
        if n == 0 {
            break;
        }
        got.extend_from_slice(&buf[..n]);
    }
    assert_eq!(got, data, "throttled stream diverged");
    dpc.drain_prefetch();

    let m = dpc.metrics();
    assert_eq!(
        m.cache.prefetch_inserts, 0,
        "prefetch inserted pages below the watermark: {:?}",
        m.cache
    );
    assert!(m.cache.ra_throttled > 0, "jobs must have been throttled");
    assert_eq!(dpc.pages_prefetched(), 0);
}

/// The adaptive window shape, end to end on the shared table: doubling
/// from the initial window up to the cap along a marker-chained stream,
/// and a random access resetting the stream back to cold.
#[test]
fn adaptive_window_doubles_to_cap_and_resets() {
    let table = ReadaheadTable::new(RaConfig {
        initial_window: 4,
        max_window: 16,
        trigger: 2,
    });

    table.on_read(1, 0, 1);
    let mut windows = vec![table.on_read(1, 1, 1).expect("trigger fires")];
    // Chase the marker chain: each consumed marker plans the next window.
    for _ in 0..4 {
        let last = *windows.last().unwrap();
        let marker = last.marker.expect("sequential windows carry markers");
        windows.push(table.on_marker(1, marker).expect("marker advances"));
    }
    let sizes: Vec<u32> = windows.iter().map(|w| w.pages).collect();
    assert_eq!(sizes, vec![4, 8, 16, 16, 16], "double then saturate");
    // Windows tile the stream: each starts where the previous ended.
    for pair in windows.windows(2) {
        assert_eq!(pair[1].start, pair[0].start + pair[0].pages as u64);
    }

    // A wild seek drops the stream back to cold — the next window (two
    // sequential accesses later) is the initial size again.
    assert!(table.on_read(1, 10_000, 1).is_none());
    assert!(table.on_read(1, 500, 1).is_none());
    let w = table.on_read(1, 501, 1).expect("re-triggered");
    assert_eq!(w.pages, 4, "window must restart at the initial size");
}

/// Seeded chaos on the KV path and the flush path while a cold stream
/// races the prefetcher: still byte-exact, live and after a restart.
///
/// The chaos must bite on every seed, by construction. A read draws
/// `kv.op` once per request, not once per 8 KiB block, so the stream is
/// 256 pages long and `kv.op` fires at p = 0.2: a run makes ≈ 60–150
/// draws, pinned to one core or not, and the default seeds' first fire
/// is their 6th, 20th and 1st draw (seeds 1, 7, 42). A seed whose first
/// 58 draws all pass has probability 0.8^58 ≈ 2·10⁻⁶.
fn readahead_chaos_run(seed: u64) {
    let plan = FaultPlan::new(seed);
    plan.arm("kv.op", FaultSpec::probability(0.2).with_delay(2));
    plan.arm("cache.flush", FaultSpec::probability(0.2));

    let data = fill_for(seed, 1, 256 * PAGE_SIZE + 321);
    let store = store_with_file("/chaos", &data);

    let (store, model) = {
        let dpc = Dpc::with_shared_storage(
            DpcConfig {
                cache_pages: 256,
                faults: Some(plan.clone()),
                ..DpcConfig::default()
            },
            Some(store),
            None,
        );
        let fs = dpc.fs();
        let fd = fs.open("/chaos").unwrap();
        // Interleave a stream with scattered writes so prefetch, flush
        // and demand I/O all run under fault pressure at once.
        let mut rng = seed;
        let mut model = FileModel::new(data);
        let mut buf = vec![0u8; 4 * PAGE_SIZE];
        let mut off = 0u64;
        loop {
            let n = fs.read(fd, off, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            assert_eq!(
                &buf[..n],
                model.read(off, n),
                "seed {seed}: stream diverged at {off}"
            );
            off += n as u64;
            if splitmix(&mut rng).is_multiple_of(3) {
                let wof = splitmix(&mut rng) % (model.bytes().len() as u64 - 8000);
                let wdata = fill_for(seed ^ 0x5A5A, off, 1 + (splitmix(&mut rng) as usize) % 8000);
                fs.write(fd, wof, &wdata).unwrap();
                model.write(wof, &wdata);
            }
        }
        assert!(plan.total_injected() > 0, "seed {seed}: no fault fired");
        fs.close(fd).unwrap();
        (dpc.kvfs_inner().store().clone(), model)
    };

    // Diskless restart, faults disarmed: the interleaved writes must all
    // have survived the chaos, byte for byte.
    let dpc = Dpc::with_shared_storage(DpcConfig::default(), Some(store), None);
    let got = read_file(&dpc.fs(), "/chaos");
    assert_eq!(got, model.bytes(), "seed {seed}: bytes lost across restart");
}

#[test]
fn readahead_survives_seeded_chaos() {
    for seed in seeds() {
        readahead_chaos_run(seed);
    }
}

/// Stress: more host threads than nvme-fs queues, every thread running
/// its own mixed read/write stream while the shared prefetcher and a
/// scoped `fsync` loop over every file race them all. Each thread's file
/// must stay byte-exact against its private model. (CI runs this in
/// release mode.)
#[test]
fn stress_mixed_streams_threads_over_queues() {
    let threads = 6usize; // > the 2 default queues
    let rounds = if cfg!(debug_assertions) { 2 } else { 6 };

    // Lay the files down on a first instance, then restart cold over the
    // shared store: the stress sweeps must actually miss, so the DPU
    // sees the streams and the prefetcher has real work to race.
    let store = {
        let setup = Dpc::new(DpcConfig::default());
        let fs = setup.fs();
        for t in 0..threads as u64 {
            let fd = fs.create(&format!("/stress{t}")).unwrap();
            fs.write(fd, 0, &fill_for(77, t, 48 * PAGE_SIZE + (t as usize * 913)))
                .unwrap();
            fs.close(fd).unwrap();
        }
        setup.kvfs_inner().store().clone()
    };
    let dpc = std::sync::Arc::new(Dpc::with_shared_storage(
        DpcConfig {
            cache_pages: 1024,
            ..DpcConfig::default()
        },
        Some(store),
        None,
    ));

    racing_fsync(&dpc, &["/"], || {
        let workers: Vec<_> = (0..threads as u64)
            .map(|t| {
                let dpc = dpc.clone();
                std::thread::spawn(move || {
                    let fs = dpc.fs();
                    let path = format!("/stress{t}");
                    let fd = fs.open(&path).unwrap();
                    let mut model =
                        FileModel::new(fill_for(77, t, 48 * PAGE_SIZE + (t as usize * 913)));
                    let mut rng = t ^ 0xDEAD;
                    let mut buf = vec![0u8; 3 * PAGE_SIZE];
                    for round in 0..rounds {
                        // Sequential sweep (drives the prefetcher) ...
                        let mut off = 0usize;
                        while off < model.bytes().len() {
                            let n = fs.read(fd, off as u64, &mut buf).unwrap();
                            assert_eq!(&buf[..n], model.read(off as u64, n), "thread {t} diverged");
                            off += n;
                            // Only a file's first sweep misses, and a 16-read
                            // sweep can finish before a starved prefetcher has
                            // landed one page. One stream waits for its windows,
                            // so that the counts asserted at the end do not hang
                            // on the scheduler; the other five race freely.
                            if t == 0 && round == 0 {
                                dpc.drain_prefetch();
                            }
                        }
                        // ... then scattered overwrites racing everyone else's
                        // prefetch fills and the fsync loop.
                        for _ in 0..8 {
                            let wof = splitmix(&mut rng) % (model.bytes().len() as u64 - 5000);
                            let len = 1 + (splitmix(&mut rng) as usize) % 5000;
                            let data = fill_for(rng, t, len);
                            fs.write(fd, wof, &data).unwrap();
                            model.write(wof, &data);
                        }
                    }
                    fs.fsync(fd).unwrap();
                    // Final pass: everything settled, still byte-exact.
                    assert_eq!(read_fd(&fs, fd), model.bytes(), "thread {t} lost bytes");
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    });

    dpc.drain_prefetch();
    let m = dpc.metrics();
    assert!(m.cache.prefetch_inserts > 0, "streams must have prefetched");
    assert_eq!(
        m.cache.prefetch_inserts,
        dpc.pages_prefetched(),
        "a service thread filled a window synchronously"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary read schedules over a cold file are byte-exact against
    /// the in-memory model — mixing sequential sweeps, strided hops and
    /// random seeks so the window logic sees every pattern class.
    #[test]
    fn any_read_schedule_matches_model(seed in any::<u64>()) {
        let len = 64 * PAGE_SIZE + (seed % 8192) as usize;
        let data = fill_for(seed, 2, len);
        let store = store_with_file("/prop", &data);

        let dpc = Dpc::with_shared_storage(DpcConfig::default(), Some(store), None);
        let fs = dpc.fs();
        let fd = fs.open("/prop").unwrap();
        let mut rng = seed;
        let mut buf = vec![0u8; 6 * PAGE_SIZE];
        for i in 0..60u64 {
            let (off, want) = match i % 3 {
                // Sequential sweep segment.
                0 => ((i / 3 * 3) as usize * 2 * PAGE_SIZE % len, 2 * PAGE_SIZE),
                // Strided hop.
                1 => ((i as usize * 5 * PAGE_SIZE) % len, PAGE_SIZE),
                // Random seek, unaligned length.
                _ => (
                    (splitmix(&mut rng) as usize) % len,
                    1 + (splitmix(&mut rng) as usize) % buf.len(),
                ),
            };
            let n = fs.read(fd, off as u64, &mut buf[..want]).unwrap();
            let expect = (len - off).min(want);
            prop_assert_eq!(n, expect, "seed {} step {}: short read", seed, i);
            prop_assert_eq!(
                &buf[..n],
                &data[off..off + n],
                "seed {} step {}: bytes diverged",
                seed,
                i
            );
        }
    }
}
