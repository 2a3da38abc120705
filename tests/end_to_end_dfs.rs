//! End-to-end integration of the distributed path: applications →
//! fs-adapter → nvme-fs (Distributed dispatch bit) → DPU IO-dispatch →
//! offloaded DFS client (metadata view, client-side EC, direct I/O) →
//! MDS cluster + EC-striped data servers.

use std::sync::atomic::Ordering;
use std::sync::mpsc;

use dpc::core::{Dpc, DpcConfig, DpcFs};
use dpc::dfs::DfsConfig;

fn dfs_dpc() -> Dpc {
    Dpc::new(DpcConfig {
        dfs: Some(DfsConfig::default()),
        ..DpcConfig::default()
    })
}

#[test]
fn distributed_create_write_read() {
    let dpc = dfs_dpc();
    let fs = dpc.fs();

    let ino = fs.dfs_create(0, "dataset.bin").unwrap();
    let block: Vec<u8> = (0..8192u32).map(|i| (i % 253) as u8).collect();
    assert_eq!(fs.dfs_write_block(ino, 0, &block).unwrap(), 8192);
    assert_eq!(fs.dfs_write_block(ino, 7, &block).unwrap(), 8192);

    let back = fs.dfs_read_block(ino, 0).unwrap();
    assert_eq!(back, block);
    let back7 = fs.dfs_read_block(ino, 7).unwrap();
    assert_eq!(back7, block);

    assert_eq!(fs.dfs_lookup(0, "dataset.bin").unwrap(), ino);
}

#[test]
fn dfs_shards_land_on_data_servers_with_client_side_ec() {
    let dpc = dfs_dpc();
    let fs = dpc.fs();
    let backend = dpc.dfs_backend().unwrap();

    let ino = fs.dfs_create(0, "striped").unwrap();
    for block in 0..12u64 {
        fs.dfs_write_block(ino, block, &vec![7u8; 8192]).unwrap();
    }
    // The DPC client writes each block whole to its own data server and
    // keeps m = 2 parity cells per stripe of k = 4 blocks, directly on
    // the data servers (no MDS proxying on the data path): 12 blocks are
    // 3 stripes.
    let total: usize = (0..backend.data_server_count())
        .map(|i| backend.data_server(i).cell_count())
        .sum();
    assert_eq!(total, 12 + 3 * 2);
}

#[test]
fn dfs_metadata_view_avoids_forwarding() {
    let dpc = dfs_dpc();
    let fs = dpc.fs();
    let backend = dpc.dfs_backend().unwrap();
    let rpcs = || -> Vec<u64> {
        (0..backend.mds_count())
            .map(|i| backend.mds(i).rpcs.load(Ordering::Relaxed))
            .collect()
    };

    for i in 0..30 {
        // The offloaded client computes each op's home MDS itself: a
        // create is one RPC at the name's home and one (the delegation)
        // at the inode's home, and no other MDS hears of it.
        let name = format!("f{i}");
        let before = rpcs();
        let ino = fs.dfs_create(0, &name).unwrap();
        let (name_home, ino_home) = (
            backend.home_mds_of_name(0, &name),
            backend.home_mds_of_ino(ino),
        );
        for (m, (b, a)) in before.iter().zip(rpcs()).enumerate() {
            let want = (m == name_home) as u64 + (m == ino_home) as u64;
            assert_eq!(
                a - b,
                want,
                "{name}: MDS {m} (name home {name_home}, inode home {ino_home})"
            );
        }
        // A getattr under the delegation the create took is local.
        let before = rpcs();
        fs.dfs_getattr(ino).unwrap();
        assert_eq!(rpcs(), before, "{name}: getattr under delegation");
    }
}

#[test]
fn dfs_degraded_read_through_the_stack() {
    let dpc = dfs_dpc();
    let fs = dpc.fs();
    let backend = dpc.dfs_backend().unwrap();

    let ino = fs.dfs_create(0, "resilient").unwrap();
    let block: Vec<u8> = (0..8192u32).map(|i| (i * 13 % 241) as u8).collect();
    fs.dfs_write_block(ino, 0, &block).unwrap();

    // Fail two data servers (the EC code is 4+2).
    let placement = backend.placement(ino, 0);
    backend.data_server(placement[0]).set_failed(true);
    backend.data_server(placement[2]).set_failed(true);

    let back = fs.dfs_read_block(ino, 0).unwrap();
    assert_eq!(back, block, "client-side reconstruction must recover");
}

#[test]
fn dfs_lazy_metadata_sync() {
    let dpc = dfs_dpc();
    let fs = dpc.fs();
    let backend = dpc.dfs_backend().unwrap();

    let ino = fs.dfs_create(0, "lazy").unwrap();
    for block in 0..3u64 {
        fs.dfs_write_block(ino, block, &vec![1u8; 8192]).unwrap();
    }
    // Size updates are batched on the DPU client; force the flush.
    fs.dfs_sync().unwrap();
    assert_eq!(
        backend.mds_getattr(ino).unwrap().size,
        3 * 8192,
        "metadata flushed after sync"
    );
    // And the offloaded client's cached view agrees.
    assert_eq!(fs.dfs_getattr(ino).unwrap().size, 3 * 8192);
}

#[test]
fn standalone_dpc_rejects_distributed_requests() {
    let dpc = Dpc::new(DpcConfig::default()); // no DFS backend
    let fs = dpc.fs();
    let err = fs.dfs_create(0, "x").unwrap_err();
    assert_eq!(err.errno(), 95 /* EOPNOTSUPP */);
}

#[test]
fn dfs_oversize_and_overflowing_blocks_are_einval_not_a_dead_dpu() {
    // An oversize block used to reach an `assert!` in the offloaded
    // client and kill the `dpu-svc` thread (every later call then timed
    // out); `block * 8192` used to overflow. Both are EINVAL, decided in
    // the adapter before anything is encoded or crosses the link.
    let dpc = dfs_dpc();
    let fs = dpc.fs();
    let ino = fs.dfs_create(0, "bounds").unwrap();
    let crossings = dpc.pool_stats().submitted;
    assert_eq!(
        fs.dfs_write_block(ino, 0, &[0u8; 16384])
            .unwrap_err()
            .errno(),
        22
    );
    for block in [1u64 << 51, u64::MAX] {
        assert_eq!(
            fs.dfs_write_block(ino, block, &[0u8; 8192])
                .unwrap_err()
                .errno(),
            22
        );
        assert_eq!(fs.dfs_read_block(ino, block).unwrap_err().errno(), 22);
    }
    assert_eq!(dpc.pool_stats().submitted, crossings, "nothing crossed");
    // The service thread is alive and serving. The highest block whose
    // end offset still fits a u64 is a valid address.
    let block = vec![9u8; 8192];
    assert_eq!(fs.dfs_write_block(ino, 3, &block).unwrap(), 8192);
    assert_eq!(fs.dfs_read_block(ino, 3).unwrap(), block);
    let last = (1u64 << 51) - 2;
    assert_eq!(fs.dfs_write_block(ino, last, &block).unwrap(), 8192);
    assert_eq!(fs.dfs_read_block(ino, last).unwrap(), block);
}

// ---------------------------------------------------------------------
// One DPU is one DFS client, whichever queue serves the request
// ---------------------------------------------------------------------

/// A job for a [`Lane`]'s thread: runs with that thread's adapter.
type Job = Box<dyn FnOnce(&DpcFs) + Send>;

/// A host thread whose calls all cross on one nvme-fs queue (the pool
/// picks a thread's queue by its thread id), running the jobs it is sent.
struct Lane {
    queue: usize,
    jobs: mpsc::Sender<Job>,
}

impl Lane {
    /// Run `f` on this lane's thread and hand back what it returns.
    fn run<R: Send + 'static>(&self, f: impl FnOnce(&DpcFs) -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        let job: Job = Box::new(move |fs| tx.send(f(fs)).unwrap());
        self.jobs.send(job).unwrap();
        rx.recv().unwrap()
    }
}

/// Run `body` with two host threads of `dpc` whose calls cross on two
/// different queues.
fn on_two_queues(dpc: &Dpc, body: impl FnOnce(&Lane, &Lane)) {
    std::thread::scope(|s| {
        let mut lanes: Vec<Lane> = Vec::new();
        while lanes.len() < 64 && !lanes.iter().any(|l| l.queue != lanes[0].queue) {
            let (queue_tx, queue_rx) = mpsc::channel();
            let (jobs, inbox) = mpsc::channel::<Job>();
            s.spawn(move || {
                queue_tx.send(dpc.channel_pool().preferred_queue()).unwrap();
                let fs = dpc.fs();
                for job in inbox {
                    job(&fs);
                }
            });
            let queue = queue_rx.recv().unwrap();
            lanes.push(Lane { queue, jobs });
        }
        let b = lanes.pop().unwrap();
        let a = lanes.swap_remove(0);
        assert_ne!(a.queue, b.queue, "64 threads, one queue");
        drop(lanes);
        body(&a, &b);
    });
}

/// A DFS instance on the default config's two queues.
fn two_queue_dfs() -> Dpc {
    let dpc = dfs_dpc();
    assert_eq!(dpc.queue_count(), 2);
    dpc
}

fn pattern(seed: u8) -> Vec<u8> {
    (0..8192u32).map(|i| (i as u8).wrapping_mul(seed)).collect()
}

#[test]
fn a_restore_owed_on_one_queue_is_read_on_the_other() {
    let dpc = two_queue_dfs();
    let backend = dpc.dfs_backend().unwrap().clone();
    on_two_queues(&dpc, |a, b| {
        let ino = a.run(|fs| {
            let ino = fs.dfs_create(0, "restore").unwrap();
            fs.dfs_write_block(ino, 0, &pattern(3)).unwrap();
            ino
        });
        // Block 0's server refuses the overwrite: the client rebuilds the
        // old block from the stripe, lands the parity deltas and owes the
        // server a restore of the new bytes.
        let server = backend.data_server(backend.placement(ino, 0)[0]);
        server.set_failed(true);
        a.run(move |fs| fs.dfs_write_block(ino, 0, &pattern(5)).unwrap());
        // Back up, still holding the old block: only the owed restore
        // knows the new one.
        server.restart();
        let back = b.run(move |fs| fs.dfs_read_block(ino, 0).unwrap());
        assert!(back == pattern(5), "read the block the overwrite replaced");
    });
}

#[test]
fn a_getattr_on_one_queue_sees_growth_written_on_the_other() {
    let dpc = two_queue_dfs();
    on_two_queues(&dpc, |a, b| {
        let ino = a.run(|fs| {
            let ino = fs.dfs_create(0, "grow").unwrap();
            for block in 0..3 {
                fs.dfs_write_block(ino, block, &pattern(7)).unwrap();
            }
            ino
        });
        let size = b.run(move |fs| fs.dfs_getattr(ino).unwrap().size);
        assert_eq!(size, 3 * 8192);
    });
}

#[test]
fn a_sync_on_one_queue_settles_sizes_written_on_the_other() {
    let dpc = two_queue_dfs();
    let backend = dpc.dfs_backend().unwrap().clone();
    on_two_queues(&dpc, |a, b| {
        let ino = b.run(|fs| {
            let ino = fs.dfs_create(0, "settle").unwrap();
            for block in 0..3 {
                fs.dfs_write_block(ino, block, &pattern(9)).unwrap();
            }
            ino
        });
        assert_eq!(backend.mds_getattr(ino).unwrap().size, 0, "lazy");
        a.run(|fs| fs.dfs_sync().unwrap());
        assert_eq!(backend.mds_getattr(ino).unwrap().size, 3 * 8192);
    });
}

#[test]
fn getattrs_from_two_queues_never_recall_the_dpus_own_delegation() {
    let dpc = two_queue_dfs();
    let backend = dpc.dfs_backend().unwrap().clone();
    on_two_queues(&dpc, |a, b| {
        let ino = a.run(|fs| fs.dfs_create(0, "shared").unwrap());
        for _ in 0..4 {
            for lane in [a, b] {
                assert_eq!(lane.run(move |fs| fs.dfs_getattr(ino).unwrap().ino), ino);
            }
        }
        assert_eq!(backend.total_recalls(), 0);
    });
}
