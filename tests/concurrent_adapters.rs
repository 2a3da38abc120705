//! Concurrency stress for the sharded host adapter and the nvme-fs
//! channel pool: more host threads than queue pairs hammer one `Dpc`
//! with mixed metadata + data traffic on shared *and* private files.
//!
//! What this proves, beyond data integrity:
//!
//! - **No lock spans a link round-trip.** With `threads > queues`, a
//!   design that held a per-queue (or global) lock across the blocking
//!   RPC would serialize — and with the old one-adapter-per-queue cap,
//!   8 threads on 2 queues could not run at all. Completion of this test
//!   is the liveness proof.
//! - **CID routing loses nothing.** Every pool submission is delivered
//!   back exactly once: `pool.submitted == pool.completed`, and the DPU
//!   runtime served exactly that many requests
//!   (`requests_served == pool.completed`).

use dpc::core::{Dpc, DpcConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const THREADS: u64 = 8;

#[test]
fn eight_threads_two_queues_mixed_ops() {
    // Twice as many host threads as queues: every queue pair is shared,
    // in flight, by several threads at once.
    let dpc = std::sync::Arc::new(Dpc::new(DpcConfig {
        queues: 2,
        cache_pages: 256, // small: force eviction + write-through traffic
        cache_bucket_entries: 8,
        ..DpcConfig::default()
    }));

    // One shared file, written in disjoint per-thread page slots.
    let setup = dpc.fs();
    setup.mkdir("/shared").unwrap();
    let shared_fd = setup.create("/shared/board.bin").unwrap();
    setup
        .write(shared_fd, 0, &vec![0u8; THREADS as usize * 4096])
        .unwrap();
    setup.fsync(shared_fd).unwrap();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let dpc = dpc.clone();
            s.spawn(move || {
                // Each thread takes its own lightweight adapter — more
                // adapters than queues, all over one pool.
                let fs = dpc.fs();
                let dir = format!("/t{t}");
                fs.mkdir(&dir).unwrap();
                let mut rng = SmallRng::seed_from_u64(0xC0FFEE + t);

                // Private files: name -> reference content.
                let mut model: Vec<(String, Vec<u8>)> = Vec::new();
                let shared = fs.open("/shared/board.bin").unwrap();
                let my_slot = t * 4096;
                let stamp = vec![t as u8 + 1; 4096];

                for round in 0..80u32 {
                    match rng.gen_range(0..100) {
                        // Create + write + read-back a private file.
                        0..=34 => {
                            let name = format!("{dir}/f{round}");
                            let fd = fs.create(&name).unwrap();
                            let len = rng.gen_range(1..16_000);
                            let fill = (round % 251) as u8;
                            fs.write(fd, 0, &vec![fill; len]).unwrap();
                            // fsync before the file may be re-opened: a
                            // fresh fd takes its size from the DPU, which
                            // only learns of buffered writes on flush.
                            fs.fsync(fd).unwrap();
                            model.push((name, vec![fill; len]));
                        }
                        // Full verify of a random private file.
                        35..=59 => {
                            if model.is_empty() {
                                continue;
                            }
                            let (name, want) = &model[rng.gen_range(0..model.len())];
                            let fd = fs.open(name).unwrap();
                            let mut got = vec![0u8; want.len() + 8];
                            let n = fs.read(fd, 0, &mut got).unwrap();
                            assert!(n >= want.len(), "{name}: short read");
                            assert_eq!(&got[..want.len()], &want[..], "{name} bytes");
                        }
                        // Stamp + verify this thread's shared-file slot.
                        60..=79 => {
                            fs.write(shared, my_slot, &stamp).unwrap();
                            let mut got = vec![0u8; 4096];
                            let n = fs.read(shared, my_slot, &mut got).unwrap();
                            assert_eq!(n, 4096);
                            assert_eq!(got, stamp, "thread {t} shared slot");
                        }
                        // stat traffic.
                        80..=89 => {
                            if let Some((name, _)) = model.last() {
                                let attr = fs.stat(name).unwrap();
                                assert!(attr.ino > 0);
                            }
                        }
                        // unlink.
                        _ => {
                            if model.len() > 1 {
                                let (name, _) = model.swap_remove(rng.gen_range(0..model.len()));
                                fs.unlink(&name).unwrap();
                            }
                        }
                    }
                }

                // Final byte-exact verification of every surviving file.
                for (name, want) in &model {
                    let fd = fs.open(name).unwrap();
                    fs.fsync(fd).unwrap();
                    let mut got = vec![0u8; want.len() + 8];
                    let n = fs.read(fd, 0, &mut got).unwrap();
                    assert_eq!(n, want.len(), "{name} final size");
                    assert_eq!(&got[..n], &want[..], "{name} final bytes");
                }
                let listed = fs.readdir(&dir).unwrap();
                assert_eq!(listed.len(), model.len(), "{dir} listing");
            });
        }
    });

    // Every shared slot carries its owner's stamp.
    let check = dpc.fs();
    let fd = check.open("/shared/board.bin").unwrap();
    for t in 0..THREADS {
        let mut got = vec![0u8; 4096];
        assert_eq!(check.read(fd, t * 4096, &mut got).unwrap(), 4096);
        assert!(
            got.iter().all(|&b| b == t as u8 + 1),
            "shared slot {t} intact"
        );
    }

    // Accounting: nothing lost, nothing double-delivered, and the DPU
    // served exactly what the pool submitted.
    let stats = dpc.pool_stats();
    assert_eq!(stats.submitted, stats.completed, "every call delivered");
    assert_eq!(
        dpc.requests_served(),
        stats.completed,
        "DPU served exactly the pool's submissions"
    );
    assert!(stats.submitted > 1_000, "stress actually generated load");
}

#[test]
fn many_threads_single_queue_is_live() {
    // Degenerate case: 8 threads multiplexed over ONE queue pair. Any
    // lock held across a round-trip, or any CID mix-up, deadlocks or
    // corrupts here within a few iterations.
    let dpc = std::sync::Arc::new(Dpc::new(DpcConfig {
        queues: 1,
        ..DpcConfig::default()
    }));
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let dpc = dpc.clone();
            s.spawn(move || {
                let fs = dpc.fs();
                let fd = fs.create(&format!("/q1-{t}.bin")).unwrap();
                let fill = vec![t as u8; 8192];
                for i in 0..24u64 {
                    fs.write(fd, i * 8192, &fill).unwrap();
                }
                let mut got = vec![0u8; 8192];
                for i in 0..24u64 {
                    assert_eq!(fs.read(fd, i * 8192, &mut got).unwrap(), 8192);
                    assert_eq!(got, fill, "thread {t} page {i}");
                }
            });
        }
    });
    let stats = dpc.pool_stats();
    assert_eq!(stats.submitted, stats.completed);
    assert_eq!(dpc.requests_served(), stats.completed);
}

#[test]
fn reads_served_in_place_on_one_queue_stay_byte_exact() {
    // A `Read` is served straight into its transport buffer, under the
    // data pool's write guard: KV shard guards — or the DFS client's
    // mutex, then the data servers' locks — are taken inside it, and the
    // host copies replies out under its read side (DESIGN.md §12.2). Two
    // host threads on ONE queue pair: one streams 128 KiB reads of a file
    // four times the cache, direct and buffered by turns, the other mixes
    // 8 KiB direct KVFS reads with DFS block reads. A lock taken in the wrong order hangs here; a
    // reply landing in the wrong buffer fails a byte check.
    use dpc::core::IoMode;
    use dpc::dfs::DfsConfig;
    const K128: usize = 128 * 1024;
    const STREAM: usize = 4 << 20;
    const MIX: usize = 1 << 20;
    const BLOCKS: u64 = 16;
    let byte = |file: u8, at: usize| (at / 4096) as u8 ^ (at % 251) as u8 ^ file;
    let dpc = std::sync::Arc::new(Dpc::new(DpcConfig {
        queues: 1,
        cache_pages: 256,
        dfs: Some(DfsConfig::default()),
        ..DpcConfig::default()
    }));
    let setup = dpc.fs();
    for (path, file, len) in [("/stream.bin", 1, STREAM), ("/mix.bin", 2, MIX)] {
        let fd = setup.create(path).unwrap();
        let data: Vec<u8> = (0..len).map(|at| byte(file, at)).collect();
        assert_eq!(setup.write(fd, 0, &data).unwrap(), len);
        setup.fsync(fd).unwrap();
        setup.close(fd).unwrap();
    }
    let dfs_file = setup.dfs_create(0, "mix.dfs").unwrap();
    for b in 0..BLOCKS {
        let block = vec![b as u8 + 1; 8192];
        assert_eq!(setup.dfs_write_block(dfs_file, b, &block).unwrap(), 8192);
    }
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut fs = dpc.fs();
            let fd = fs.open("/stream.bin").unwrap();
            let mut got = vec![0u8; K128];
            for pass in 0..4 {
                // Direct: every read one 128 KiB crossing. Buffered: miss
                // runs, with the prefetcher reading the store beside them.
                fs.mode = [IoMode::Direct, IoMode::Buffered][pass % 2];
                for at in (0..STREAM).step_by(K128) {
                    assert_eq!(fs.read(fd, at as u64, &mut got).unwrap(), K128);
                    let bad = (0..K128).find(|&i| got[i] != byte(1, at + i));
                    assert_eq!(bad, None, "pass {pass}, read at {at}");
                }
            }
        });
        s.spawn(|| {
            let mut fs = dpc.fs();
            fs.mode = IoMode::Direct;
            let fd = fs.open("/mix.bin").unwrap();
            let mut got = vec![0u8; 8192];
            for i in 0..600usize {
                if i % 2 == 0 {
                    let at = (i * 7919 * 8192) % MIX;
                    assert_eq!(fs.read(fd, at as u64, &mut got).unwrap(), 8192);
                    let bad = (0..8192).find(|&j| got[j] != byte(2, at + j));
                    assert_eq!(bad, None, "direct read at {at}");
                } else {
                    let b = i as u64 % BLOCKS;
                    let block = fs.dfs_read_block(dfs_file, b).unwrap();
                    assert!(block.len() == 8192 && block.iter().all(|&x| x == b as u8 + 1));
                }
            }
        });
    });
    let stats = dpc.pool_stats();
    assert_eq!(stats.submitted, stats.completed);
    assert_eq!(stats.rejected_sqes, 0);
}
