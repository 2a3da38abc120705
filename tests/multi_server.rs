//! Multi-server scenarios over shared disaggregated storage:
//!
//! - the *diskless reboot*: an application server (a `Dpc` instance) dies,
//!   losing all host state — caches, fd tables, DPU runtime — and a new
//!   instance remounts the same KV store with everything intact;
//! - *two servers, one DFS*: two DPC instances offload their clients
//!   against one shared backend, with delegation recalls keeping their
//!   cached metadata coherent;
//! - *server faults under shared storage*: a data server crashes and
//!   loses its shards, or turns flaky under a scheduled [`FaultPlan`],
//!   and the offloaded clients absorb it — degraded reads, bounded
//!   retries, background repair.

use std::sync::Arc;

use dpc::core::{Dpc, DpcConfig};
use dpc::dfs::{DfsBackend, DfsConfig};
use dpc::fault::{FaultPlan, FaultSpec};
use dpc::kvstore::KvStore;
use dpc_testkit::read_file;

#[test]
fn diskless_reboot_preserves_the_file_system() {
    // Format the shared store by running a first server lifetime.
    let store = Arc::new(KvStore::new());
    dpc::kvfs::Kvfs::new(store.clone()); // format: write the root

    {
        let server1 = Dpc::with_shared_storage(DpcConfig::default(), Some(store.clone()), None);
        let fs = server1.fs();
        fs.mkdir("/var").unwrap();
        let fd = fs.create("/var/state.db").unwrap();
        fs.write(fd, 0, &vec![0xDB; 50_000]).unwrap();
        fs.close(fd).unwrap(); // flush
    } // server 1 powers off: Dpc dropped, DPU threads joined, caches gone

    // Server 2 boots against the same disaggregated store.
    let server2 = Dpc::with_shared_storage(DpcConfig::default(), Some(store), None);
    let fs = server2.fs();
    assert!(read_file(&fs, "/var/state.db") == [0xDB; 50_000]);

    // And it can keep writing without inode collisions.
    let fd2 = fs.create("/var/new-after-reboot").unwrap();
    fs.write(fd2, 0, b"fresh").unwrap();
    fs.fsync(fd2).unwrap();
    assert_eq!(fs.readdir("/var").unwrap().len(), 2);
}

#[test]
fn two_servers_share_one_dfs_backend() {
    let backend = DfsBackend::new(DfsConfig::default());
    let server_a = Dpc::with_shared_storage(DpcConfig::default(), None, Some(backend.clone()));
    let server_b = Dpc::with_shared_storage(DpcConfig::default(), None, Some(backend.clone()));
    let fs_a = server_a.fs();
    let fs_b = server_b.fs();

    // A creates and writes a shared dataset.
    let ino = fs_a.dfs_create(0, "shared.bin").unwrap();
    let block: Vec<u8> = (0..8192u32).map(|i| (i % 249) as u8).collect();
    fs_a.dfs_write_block(ino, 0, &block).unwrap();
    fs_a.dfs_sync().unwrap();

    // B sees the name and reads the data (shards live on shared servers).
    assert_eq!(fs_b.dfs_lookup(0, "shared.bin").unwrap(), ino);
    assert_eq!(fs_b.dfs_read_block(ino, 0).unwrap(), block);
    assert_eq!(fs_b.dfs_getattr(ino).unwrap().size, 8192);

    // B's getattr took the delegation away from A's offloaded client —
    // the backend recorded a recall.
    assert!(backend.total_recalls() >= 1, "recall on cross-server stat");

    // Both keep writing distinct blocks; the backend stays consistent.
    fs_a.dfs_write_block(ino, 1, &vec![0xAA; 8192]).unwrap();
    fs_b.dfs_write_block(ino, 2, &vec![0xBB; 8192]).unwrap();
    fs_a.dfs_sync().unwrap();
    fs_b.dfs_sync().unwrap();
    assert_eq!(fs_b.dfs_read_block(ino, 1).unwrap(), vec![0xAA; 8192]);
    assert_eq!(fs_a.dfs_read_block(ino, 2).unwrap(), vec![0xBB; 8192]);
}

#[test]
fn data_server_crash_and_restart_heals_through_read_repair() {
    let backend = DfsBackend::new(DfsConfig::default());
    backend.enable_recovery(); // manual injection below, no scheduled plan
    let server = Dpc::with_shared_storage(DpcConfig::default(), None, Some(backend.clone()));
    let fs = server.fs();

    let ino = fs.dfs_create(0, "durable.bin").unwrap();
    let blocks: Vec<Vec<u8>> = (0..8u64)
        .map(|b| {
            (0..8192u32)
                .map(|i| ((i as u64 * 31 + b * 7) % 251) as u8)
                .collect()
        })
        .collect();
    for (b, data) in blocks.iter().enumerate() {
        fs.dfs_write_block(ino, b as u64, data).unwrap();
    }
    fs.dfs_sync().unwrap();

    // Crash the data server holding block 1: every cell it stored is
    // lost, and it refuses RPCs until restarted.
    let victim = backend.placement(ino, 0)[1];
    assert!(backend.data_server(victim).cell_count() > 0);
    backend.data_server(victim).crash();
    assert_eq!(backend.data_server(victim).cell_count(), 0);

    // Every block still reads byte-exact through parity reconstruction.
    for (b, data) in blocks.iter().enumerate() {
        assert_eq!(&fs.dfs_read_block(ino, b as u64).unwrap(), data);
    }
    assert!(backend.recovery().snapshot().reconstructions > 0);

    // Restart: it answers what it held as lost. Degraded reads now
    // read-repair the stripe, so cells flow back onto the server.
    backend.data_server(victim).restart();
    for (b, data) in blocks.iter().enumerate() {
        assert_eq!(&fs.dfs_read_block(ino, b as u64).unwrap(), data);
    }
    assert!(backend.recovery().snapshot().repairs > 0);
    assert!(
        backend.data_server(victim).cell_count() > 0,
        "stripe healed"
    );
}

#[test]
fn flaky_data_server_is_absorbed_by_scheduled_retries() {
    // Generalized fault API: instead of a hard `set_failed`, schedule a
    // transient outage on one data server — its first four RPCs are
    // refused, then it self-heals.
    let backend = DfsBackend::new(DfsConfig::default());
    let plan = FaultPlan::new(0x0D15_EA5E);
    let cfg = DpcConfig {
        faults: Some(plan.clone()),
        ..DpcConfig::default()
    };
    let server_a = Dpc::with_shared_storage(cfg.clone(), None, Some(backend.clone()));
    let server_b = Dpc::with_shared_storage(cfg, None, Some(backend.clone()));
    let fs_a = server_a.fs();
    let fs_b = server_b.fs();

    plan.arm("ds.2.rpc", FaultSpec::first_n(4));

    let ino = fs_a.dfs_create(0, "flaky.bin").unwrap();
    let block: Vec<u8> = (0..8192u32).map(|i| (i % 239) as u8).collect();
    for b in 0..6u64 {
        fs_a.dfs_write_block(ino, b, &block).unwrap();
    }
    // The refused puts were retried with backoff; whatever still failed
    // was queued for repair and drains on the metadata sync.
    fs_a.dfs_sync().unwrap();
    let r = backend.recovery().snapshot();
    assert!(r.ds_retries > 0, "refused RPCs were reissued: {r:?}");

    // The other server reads everything byte-exact, flaky stripe included.
    assert_eq!(fs_b.dfs_lookup(0, "flaky.bin").unwrap(), ino);
    for b in 0..6u64 {
        assert_eq!(fs_b.dfs_read_block(ino, b).unwrap(), block);
    }
    // The outage is over (FirstN exhausted); the site recorded every hit.
    assert!(plan.site("ds.2.rpc").injected() >= 4);
}

#[test]
fn kvfs_namespaces_are_shared_between_live_servers() {
    // Two live servers over one KV store: names created by one are
    // immediately visible to the other (the namespace lives backend-side).
    let store = Arc::new(KvStore::new());
    dpc::kvfs::Kvfs::new(store.clone());
    let a = Dpc::with_shared_storage(DpcConfig::default(), Some(store.clone()), None);
    let b = Dpc::with_shared_storage(DpcConfig::default(), Some(store), None);
    let fs_a = a.fs();
    let fs_b = b.fs();

    let fd = fs_a.create("/handoff.txt").unwrap();
    fs_a.write(fd, 0, b"from server A").unwrap();
    fs_a.fsync(fd).unwrap();

    let fd_b = fs_b.open("/handoff.txt").unwrap();
    let mut buf = vec![0u8; 32];
    let n = fs_b.read(fd_b, 0, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"from server A");
}

#[test]
fn a_second_live_client_sees_remote_changes_only_when_its_ttl_expires() {
    // The sharing contract (`Dpc::with_shared_storage`, DESIGN.md §4.7): a
    // client's cached metadata is coherent with its *own* mutations; what
    // another live client does is seen when the cached answer is
    // `meta_cache_ttl` local mutations old, and not before.
    let store = Arc::new(KvStore::new());
    dpc::kvfs::Kvfs::new(store.clone());
    let a = Dpc::with_shared_storage(DpcConfig::default(), Some(store.clone()), None);
    let fs_a = a.fs();
    let put = |path: &str, at: u64, data: &[u8]| {
        let fd = fs_a.create(path).or_else(|_| fs_a.open(path)).unwrap();
        fs_a.write(fd, at, data).unwrap();
        fs_a.close(fd).unwrap();
    };
    fs_a.mkdir("/s").unwrap();
    put("/s/f", 0, b"12345");
    put("/s/scratch", 0, b"-");
    put("/b", 0, b"B's own");

    let cfg = DpcConfig {
        meta_cache_ttl: 4,
        ..DpcConfig::default()
    };
    let b = Dpc::with_shared_storage(cfg, Some(store), None);
    let fs_b = b.fs();
    let names = || -> Vec<String> {
        let listing = fs_b.readdir("/s").unwrap();
        listing.into_iter().map(|e| e.name).collect()
    };
    // B learns the directory: two names, no `new`.
    assert_eq!(names(), ["f", "scratch"]);
    assert_eq!(fs_b.stat("/s/new").unwrap_err().errno(), 2);
    assert_eq!(fs_b.stat("/s/f").unwrap().size, 5);

    // A changes all three under it.
    put("/s/new", 0, b"hello");
    put("/s/f", 5, b"678901");
    fs_a.unlink("/s/scratch").unwrap();
    put("/s/scratch", 0, b"again");

    // Before the TTL: B answers from what it holds, without a crossing.
    let calls = b.pool_stats().submitted;
    assert_eq!(names(), ["f", "scratch"]);
    assert_eq!(fs_b.stat("/s/new").unwrap_err().errno(), 2);
    assert_eq!(fs_b.stat("/s/f").unwrap().size, 5);
    assert_eq!(b.pool_stats().submitted, calls, "stale, and local");

    // Five local mutations later (B allocates no inode: two live KVFS
    // instances hand out the same inode numbers, and nothing arbitrates
    // between them) everything B fetched is past its TTL and is asked for
    // again.
    let fd = fs_b.open("/b").unwrap();
    for _ in 0..5 {
        fs_b.truncate(fd, 3).unwrap();
    }
    let asked = b.metrics().meta.attr_misses;
    assert_eq!(names(), ["f", "new", "scratch"]);
    assert_eq!(fs_b.stat("/s/new").unwrap().size, 5);
    // `f`'s attribute is asked for again too — and B's *DPU* answers 5
    // from KVFS's inode cache, which has no expiry at all: it is coherent
    // with its own instance's mutations only. The host TTL bounds the host
    // cache, nothing behind it.
    assert_eq!(fs_b.stat("/s/f").unwrap().size, 5);
    assert!(b.metrics().meta.attr_misses > asked, "the host asked again");

    // At the default TTL of 0 nothing ever expires: a third client stays
    // where it first looked, however much it does itself.
    let c = Dpc::with_shared_storage(DpcConfig::default(), Some(a.kv_store()), None);
    let fs_c = c.fs();
    assert_eq!(fs_c.stat("/s/gone").unwrap_err().errno(), 2);
    put("/s/gone", 0, b"is here");
    let fd = fs_c.open("/b").unwrap();
    for _ in 0..50 {
        fs_c.truncate(fd, 3).unwrap();
    }
    assert_eq!(fs_c.stat("/s/gone").unwrap_err().errno(), 2, "unbounded");
}
