//! PR 6: the lock-free cache meta plane (seqlock/CAS epochs).
//!
//! Four angles of attack on the optimistic read protocol:
//!
//! - **Torn-read stress** — writer threads mutate whole pages while
//!   reader threads hammer the same entries through the optimistic path;
//!   every hit must return a byte-uniform page (a torn snapshot that
//!   escaped validation would mix two fill patterns).
//! - **Threads > queues, full stack** — the adapter's zero-copy hit
//!   serving under more host threads than nvme-fs queues, mixed with
//!   writers on the same shared file.
//! - **Equivalence proptest** — the seqlock plane and the paper's
//!   lock-based baseline (`meta_lockfree: false`) must agree *exactly*
//!   (same hits, same misses, same bytes, same flush/evict behaviour)
//!   over arbitrary single-threaded schedules of reads, writes,
//!   truncates, evictions and flushes.
//! - **Seeded chaos** — the PR 3 `FaultPlan` armed at `kv.op` and
//!   `cache.flush` (seeds 1/7/42, or `DPC_CHAOS_SEED`) while a Zipfian
//!   hot-set stream runs; recovery must stay invisible and the hit path
//!   lock-free.
//!
//! Throughout, the counter-proof invariant: the front-end hit path takes
//! a read lock only via the explicit write-hot fallback, so
//! `read_locks == lock_fallbacks` always, and both are zero when no
//! writer contends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use dpc::cache::{CacheConfig, ControlPlane, HybridCache, WriteError, PAGE_SIZE};
use dpc::core::{Dpc, DpcConfig};
use dpc::fault::{FaultPlan, FaultSpec};
use dpc::pcie::DmaEngine;
use dpc_testkit::{read_fd, seeds, HotSetGen, HotSetSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Writer threads rewrite whole pages with uniform fill bytes while
/// readers pound the optimistic path. Any page that validates must be
/// uniform — a mix of two fills is a torn snapshot that escaped the
/// version check.
#[test]
fn write_storm_readers_never_see_torn_pages() {
    const LPNS: u64 = 16;
    const WRITERS: u64 = 2;
    const READERS: u64 = 6;
    const ROUNDS: u64 = 300;

    // bucket_entries = LPNS so seeding cannot hit NeedEviction even if
    // FNV lands every page in one bucket.
    let c = Arc::new(HybridCache::new(CacheConfig {
        pages: 128,
        bucket_entries: 16,
        mode: 1,
        meta_lockfree: true,
    }));
    for lpn in 0..LPNS {
        let mut g = c.begin_write(1, lpn).unwrap();
        g.write(0, &[lpn as u8; PAGE_SIZE]);
        g.commit_dirty();
    }

    let stop = AtomicBool::new(false);
    let stop = &stop;
    let live_writers = AtomicUsize::new(WRITERS as usize);
    let live_writers = &live_writers;
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let c = c.clone();
            s.spawn(move || {
                // Disjoint lpn stripes: writers never contend with each
                // other, only with the optimistic readers.
                for round in 0..ROUNDS {
                    for lpn in (w..LPNS).step_by(WRITERS as usize) {
                        let fill = ((round * LPNS + lpn) % 251) as u8;
                        let mut g = c.begin_write(1, lpn).unwrap();
                        g.write(0, &[fill; PAGE_SIZE]);
                        g.commit_dirty();
                    }
                }
                if live_writers.fetch_sub(1, Ordering::AcqRel) == 1 {
                    stop.store(true, Ordering::Release);
                }
            });
        }
        for r in 0..READERS {
            let c = c.clone();
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xF00D + r);
                let mut buf = vec![0u8; PAGE_SIZE];
                let mut hits = 0u64;
                // On a single-core box a reader may only get scheduled
                // after the writers are done; a minimum-iteration floor
                // (pages stay resident) keeps the hit assertion honest.
                for iter in 0u64.. {
                    if iter >= 2_000 && stop.load(Ordering::Acquire) {
                        break;
                    }
                    let lpn = rng.gen_range(0..LPNS);
                    if c.lookup_read(1, lpn, &mut buf) {
                        hits += 1;
                        let first = buf[0];
                        assert!(
                            buf.iter().all(|&b| b == first),
                            "torn page: lpn {lpn} mixes {} and {}",
                            first,
                            buf.iter().find(|&&b| b != first).unwrap()
                        );
                    }
                }
                assert!(hits > 0, "reader {r} never hit a resident page");
            });
        }
    });

    let stats = c.stats();
    assert!(stats.hits > 0);
    assert_eq!(
        stats.read_locks, stats.lock_fallbacks,
        "hit-path read locks must all come from the explicit fallback"
    );
}

/// The full stack under more host threads than nvme-fs queues: writers
/// rewrite whole pages of a shared file while readers stream it through
/// the adapter's zero-copy hit path. Reads must always observe uniform
/// pages (writes are page-atomic under the entry write lock).
#[test]
fn threads_over_queues_read_ref_hits_stay_consistent() {
    const PAGES: u64 = 16;
    const WRITERS: u64 = 3;
    const READERS: u64 = 5; // 8 threads on 2 queues
    const ROUNDS: u64 = 60;

    let dpc = Arc::new(Dpc::new(DpcConfig {
        queues: 2,
        cache_pages: 256,
        ..DpcConfig::default()
    }));
    let setup = dpc.fs();
    setup.mkdir("/storm").unwrap();
    let fd = setup.create("/storm/shared.bin").unwrap();
    for lpn in 0..PAGES {
        setup
            .write(fd, lpn * PAGE_SIZE as u64, &[lpn as u8 + 1; PAGE_SIZE])
            .unwrap();
    }
    setup.fsync(fd).unwrap();

    let stop = AtomicBool::new(false);
    let stop = &stop;
    let live_writers = AtomicUsize::new(WRITERS as usize);
    let live_writers = &live_writers;
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let dpc = dpc.clone();
            s.spawn(move || {
                let fs = dpc.fs();
                let fd = fs.open("/storm/shared.bin").unwrap();
                for round in 0..ROUNDS {
                    for lpn in (w..PAGES).step_by(WRITERS as usize) {
                        let fill = ((w * 101 + round * 17 + lpn) % 250) as u8 + 1;
                        fs.write(fd, lpn * PAGE_SIZE as u64, &[fill; PAGE_SIZE])
                            .unwrap();
                    }
                    if round % 16 == 0 {
                        fs.fsync(fd).unwrap();
                    }
                }
                if live_writers.fetch_sub(1, Ordering::AcqRel) == 1 {
                    stop.store(true, Ordering::Release);
                }
            });
        }
        for r in 0..READERS {
            let dpc = dpc.clone();
            s.spawn(move || {
                let fs = dpc.fs();
                let fd = fs.open("/storm/shared.bin").unwrap();
                let mut rng = SmallRng::seed_from_u64(0xBEEF + r);
                let mut buf = vec![0u8; PAGE_SIZE];
                // At least one read each, however soon the writers finish:
                // every page is resident, so `hits > 0` cannot hang on the
                // scheduler.
                loop {
                    let lpn = rng.gen_range(0..PAGES);
                    let n = fs.read(fd, lpn * PAGE_SIZE as u64, &mut buf).unwrap();
                    assert_eq!(n, PAGE_SIZE, "whole page resident in the file");
                    let first = buf[0];
                    assert!(first != 0, "page {lpn} read as never-written");
                    assert!(
                        buf.iter().all(|&b| b == first),
                        "torn read through the adapter: page {lpn} mixes {} and {}",
                        first,
                        buf.iter().find(|&&b| b != first).unwrap()
                    );
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
            });
        }
    });

    let m = dpc.metrics();
    assert!(m.cache.hits > 0);
    assert_eq!(
        m.cache.read_locks, m.cache.lock_fallbacks,
        "hit-path read locks must all come from the explicit fallback"
    );
}

/// Single-threaded counter-proof for the acceptance criterion: with no
/// concurrent writer, the hit path performs zero lock acquisitions and
/// zero retries — pure seqlock validation.
#[test]
fn hit_path_takes_zero_locks_single_threaded() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    fs.mkdir("/hot").unwrap();
    let fd = fs.create("/hot/asset.bin").unwrap();
    let content: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    fs.write(fd, 0, &content).unwrap();
    fs.fsync(fd).unwrap();

    let mut buf = vec![0u8; PAGE_SIZE];
    let mut rng = SmallRng::seed_from_u64(42);
    for _ in 0..2000 {
        let lpn = rng.gen_range(0..16u64);
        let off = lpn * PAGE_SIZE as u64;
        let n = fs.read(fd, off, &mut buf).unwrap();
        assert_eq!(n, PAGE_SIZE);
        assert_eq!(buf[0], (off % 251) as u8);
    }

    let c = dpc.metrics().cache;
    assert!(c.hits >= 2000, "warm set must serve from cache");
    assert_eq!(c.read_locks, 0, "zero lock acquisitions on the hit path");
    assert_eq!(c.lock_fallbacks, 0);
    assert_eq!(c.meta_retries, 0, "no writer, no retries");
}

#[derive(Clone, Debug)]
enum Op {
    Write { ino: u64, lpn: u64, fill: u8 },
    Read { ino: u64, lpn: u64 },
    Truncate { ino: u64, from_lpn: u64 },
    Unlink { ino: u64 },
    Evict { bucket: u8 },
    FlushPass,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let ino = 1u64..4;
    let lpn = 0u64..12;
    prop_oneof![
        5 => (ino.clone(), lpn.clone(), any::<u8>())
            .prop_map(|(ino, lpn, fill)| Op::Write { ino, lpn, fill }),
        5 => (ino.clone(), lpn.clone()).prop_map(|(ino, lpn)| Op::Read { ino, lpn }),
        1 => (ino.clone(), lpn.clone()).prop_map(|(ino, from_lpn)| Op::Truncate { ino, from_lpn }),
        1 => ino.clone().prop_map(|ino| Op::Unlink { ino }),
        1 => (0u8..8).prop_map(|bucket| Op::Evict { bucket }),
        1 => Just(Op::FlushPass),
    ]
}

/// One cache per mode, fed the identical schedule. Every observable —
/// hit/miss decisions, returned bytes, eviction and flush outcomes, the
/// free counter — must agree between the seqlock plane and the lock-based
/// baseline, and hits must match the reference model's content.
fn build_mode(meta_lockfree: bool) -> (Arc<HybridCache>, ControlPlane) {
    let cache = Arc::new(HybridCache::new(CacheConfig {
        pages: 64,
        bucket_entries: 8,
        mode: 1,
        meta_lockfree,
    }));
    let cp = ControlPlane::new(cache.clone(), DmaEngine::new());
    (cache, cp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn seqlock_and_lock_based_modes_are_equivalent(
        ops in proptest::collection::vec(arb_op(), 1..150),
    ) {
        let (ca, mut cpa) = build_mode(true);
        let (cb, mut cpb) = build_mode(false);
        let mut model: HashMap<(u64, u64), u8> = HashMap::new();
        let mut bufa = vec![0u8; PAGE_SIZE];
        let mut bufb = vec![0u8; PAGE_SIZE];

        for op in ops {
            match op {
                Op::Write { ino, lpn, fill } => {
                    let ra = ca.begin_write(ino, lpn);
                    let rb = cb.begin_write(ino, lpn);
                    match (ra, rb) {
                        (Ok(mut ga), Ok(mut gb)) => {
                            ga.write(0, &[fill; PAGE_SIZE]);
                            ga.commit_dirty();
                            gb.write(0, &[fill; PAGE_SIZE]);
                            gb.commit_dirty();
                            model.insert((ino, lpn), fill);
                        }
                        (Err(WriteError::NeedEviction { bucket: ba }),
                         Err(WriteError::NeedEviction { bucket: bb })) => {
                            prop_assert_eq!(ba, bb, "same bucket pressure");
                        }
                        (ra, rb) => prop_assert!(false,
                            "write outcomes diverged: {ra:?} vs {rb:?}"),
                    }
                }
                Op::Read { ino, lpn } => {
                    let ha = ca.lookup_read(ino, lpn, &mut bufa);
                    let hb = cb.lookup_read(ino, lpn, &mut bufb);
                    prop_assert_eq!(ha, hb, "hit/miss diverged on ({},{})", ino, lpn);
                    if ha {
                        prop_assert_eq!(&bufa, &bufb, "bytes diverged");
                        let fill = model.get(&(ino, lpn)).copied();
                        prop_assert_eq!(fill, Some(bufa[0]), "stale hit");
                        prop_assert!(bufa.iter().all(|&b| b == bufa[0]));
                    }
                }
                Op::Truncate { ino, from_lpn } => {
                    for lpn in from_lpn..12 {
                        let pa = ca.invalidate(ino, lpn);
                        let pb = cb.invalidate(ino, lpn);
                        prop_assert_eq!(pa, pb, "truncate presence diverged");
                        if pa {
                            model.remove(&(ino, lpn));
                        }
                    }
                }
                Op::Unlink { ino } => {
                    let da = ca.invalidate_ino(ino);
                    let db = cb.invalidate_ino(ino);
                    prop_assert_eq!(da, db, "unlink drop counts diverged");
                    model.retain(|&(i, _), _| i != ino);
                }
                Op::Evict { bucket } => {
                    let ea = cpa.evict_one(bucket as usize);
                    let eb = cpb.evict_one(bucket as usize);
                    prop_assert_eq!(ea, eb, "eviction outcomes diverged");
                    if ea {
                        // Identical LRU stamps ⇒ identical victim; drop
                        // whatever is now gone from both.
                        model.retain(|&(ino, lpn), _| {
                            let ra = ca.lookup_read(ino, lpn, &mut bufa);
                            let rb = cb.lookup_read(ino, lpn, &mut bufb);
                            assert_eq!(ra, rb, "post-evict residency diverged");
                            ra
                        });
                    }
                }
                Op::FlushPass => {
                    let mut sink_a: Vec<(u64, u64, u8)> = Vec::new();
                    let mut sink_b: Vec<(u64, u64, u8)> = Vec::new();
                    let fa = cpa.flush_extents(
                        &mut |ino: u64, lpn: u64, page: &[u8]| {
                            sink_a.push((ino, lpn, page[0]));
                        },
                        None,
                        false,
                    );
                    let fb = cpb.flush_extents(
                        &mut |ino: u64, lpn: u64, page: &[u8]| {
                            sink_b.push((ino, lpn, page[0]));
                        },
                        None,
                        false,
                    );
                    prop_assert_eq!(fa, fb, "flush counts diverged");
                    sink_a.sort_unstable();
                    sink_b.sort_unstable();
                    prop_assert_eq!(sink_a, sink_b, "flushed content diverged");
                }
            }
            prop_assert_eq!(ca.header().free(), cb.header().free(), "free counter diverged");
        }
    }
}

/// The PR 3 chaos harness pointed at the meta plane: `kv.op` latency
/// spikes and `cache.flush` refusals under seeds 1/7/42 (or the one
/// `DPC_CHAOS_SEED` pins) while a Zipfian hot-set stream (95% reads over
/// a small cached file set) runs. Every read must return exactly the
/// model's bytes, fsync must survive flush refusals, and the hit path
/// must stay lock-free modulo the explicit fallback accounting.
#[test]
fn chaos_hot_set_reads_survive_kv_and_flush_faults() {
    for seed in seeds() {
        let plan = FaultPlan::new(seed);
        plan.arm("kv.op", FaultSpec::probability(0.05).with_delay(2));
        plan.arm("cache.flush", FaultSpec::probability(0.25));
        let dpc = Dpc::new(DpcConfig {
            faults: Some(plan),
            ..DpcConfig::default()
        });
        let fs = dpc.fs();
        fs.mkdir("/hot").unwrap();

        const FILES: u64 = 4;
        const FILE_SIZE: u64 = 64 * 1024;
        let mut fds = Vec::new();
        let mut model: Vec<Vec<u8>> = Vec::new();
        for f in 0..FILES {
            let fd = fs.create(&format!("/hot/a{f}.bin")).unwrap();
            let content: Vec<u8> = (0..FILE_SIZE).map(|i| ((i + f) % 251) as u8).collect();
            fs.write(fd, 0, &content).unwrap();
            fs.fsync(fd).unwrap();
            fds.push(fd);
            model.push(content);
        }

        let spec = HotSetSpec::read_hot(FILES, FILE_SIZE);
        let mut gen = HotSetGen::new(spec, seed);
        let mut buf = vec![0u8; PAGE_SIZE];
        for step in 0..1500u64 {
            let op = gen.next_op();
            let (f, off, len) = (op.file as usize, op.offset, op.len);
            if op.is_read {
                let n = fs.read(fds[f], off, &mut buf[..len]).unwrap();
                assert_eq!(n, len, "seed {seed} step {step}");
                assert_eq!(
                    &buf[..len],
                    &model[f][off as usize..off as usize + len],
                    "seed {seed} step {step}: read diverged from model"
                );
            } else {
                let fill = ((seed + step) % 251) as u8;
                fs.write(fds[f], off, &[fill; PAGE_SIZE]).unwrap();
                model[f][off as usize..off as usize + PAGE_SIZE].fill(fill);
                if step % 97 == 0 {
                    fs.fsync(fds[f]).unwrap();
                }
            }
        }
        for (f, fd) in fds.iter().enumerate() {
            fs.fsync(*fd).unwrap();
            assert_eq!(
                read_fd(&fs, *fd),
                model[f],
                "seed {seed}: file {f} final state"
            );
        }

        let c = dpc.metrics().cache;
        assert!(c.hits > 0, "seed {seed}: hot set must serve from cache");
        assert_eq!(
            c.read_locks, c.lock_fallbacks,
            "seed {seed}: hit-path locks must all come from the fallback"
        );
    }
}
