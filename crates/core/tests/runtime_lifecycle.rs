//! DPU-runtime lifecycle: clean startup/shutdown, no lost work, and
//! restartability of the whole instance within one process.

use dpc_core::{Dpc, DpcConfig};

#[test]
fn drop_joins_dpu_threads_and_flushes_nothing_dirty() {
    let store = {
        let dpc = Dpc::new(DpcConfig::default());
        let fs = dpc.fs();
        let fd = fs.create("/x").unwrap();
        fs.write(fd, 0, &vec![1u8; 30_000]).unwrap();
        fs.fsync(fd).unwrap();
        assert!(dpc.kvfs_inner().kv_pairs() >= 5);
        // Dirty a page *without* fsync: the drain that runs once the
        // service threads have joined must land it.
        fs.write(fd, 0, &vec![2u8; 4096]).unwrap();
        assert_eq!(dpc.cache().dirty_count(), 1);
        dpc.kv_store()
    }; // Drop: shutdown flag, join the DPU threads, drain.
    let dpc = Dpc::with_shared_storage(DpcConfig::default(), Some(store), None);
    let fs = dpc.fs();
    let fd = fs.open("/x").unwrap();
    let mut back = vec![0u8; 30_000];
    assert_eq!(fs.read(fd, 0, &mut back).unwrap(), 30_000);
    assert!(
        back[..4096].iter().all(|&b| b == 2),
        "the dirty page landed"
    );
    assert!(back[4096..].iter().all(|&b| b == 1));
}

#[test]
fn many_instances_sequentially() {
    // Start/stop several instances back to back — thread and memory
    // lifecycle must be fully contained per instance.
    for round in 0..5 {
        let dpc = Dpc::new(DpcConfig {
            queues: 2,
            ..DpcConfig::default()
        });
        let fs = dpc.fs();
        let fd = fs.create(&format!("/r{round}")).unwrap();
        fs.write(fd, 0, b"cycle").unwrap();
        fs.fsync(fd).unwrap();
        assert!(dpc.kvfs_inner().resolve(&format!("/r{round}")).is_ok());
    }
}

#[test]
fn requests_served_counts_all_queues() {
    let dpc = Dpc::new(DpcConfig {
        queues: 3,
        ..DpcConfig::default()
    });
    let a = dpc.fs();
    let b = dpc.fs();
    let c = dpc.fs();
    for (i, fs) in [&a, &b, &c].into_iter().enumerate() {
        fs.create(&format!("/q{i}")).unwrap();
    }
    // Each create is >= 1 request (plus parent resolution ops).
    assert!(dpc.requests_served() >= 3);
    assert_eq!(dpc.queue_count(), 3);
    // Every pool submission came back.
    let stats = dpc.pool_stats();
    assert_eq!(stats.submitted, stats.completed);
}

#[test]
fn recover_adopts_the_dirty_pages_and_hands_back_a_drained_log() {
    // Nothing flushes before the crash (no fsync, and a tripped crash
    // switch suppresses the teardown drain) and a buffered write logs
    // nothing: the whole dirty set comes back from the adopted cache, and
    // `recover` returns a clean client.
    let cfg = DpcConfig::default();
    let dpc = Dpc::new(cfg);
    let fs = dpc.fs();
    let fd = fs.create("/dirty").unwrap();
    let data: Vec<u8> = (0..200_000u32).map(|i| (i * 7 % 251) as u8).collect();
    assert_eq!(fs.write(fd, 0, &data).unwrap(), data.len());
    assert_eq!(dpc.metrics().cache.wal_appends, 0);
    dpc.trip_crash();
    drop(fs);

    let rdpc = Dpc::recover(dpc).unwrap();
    let c = rdpc.metrics().cache;
    assert_eq!(c.flushes, 49, "every page of the write, flushed once");
    assert_eq!(c.wal_replayed_records, 0);
    assert_eq!(
        rdpc.cache().dirty_count(),
        0,
        "recovery hands back a clean cache"
    );
    assert!(rdpc.intent_log().is_drained());
    let rfs = rdpc.fs();
    assert_eq!(rfs.stat("/dirty").unwrap().size, data.len() as u64);
    let fd = rfs.open("/dirty").unwrap();
    let mut back = vec![0u8; data.len()];
    assert_eq!(rfs.read(fd, 0, &mut back).unwrap(), data.len());
    assert!(
        back == data,
        "recovered bytes diverge from the acked writes"
    );
    rfs.write(fd, data.len() as u64, b"post").unwrap();
    rfs.fsync(fd).unwrap();
    assert!(rdpc.intent_log().is_drained());
}

#[test]
fn recovery_refuses_while_an_adapter_of_the_crashed_instance_is_alive() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let fd = fs.create("/held").unwrap();
    fs.write(fd, 0, &[1u8; 8192]).unwrap();
    let Err(refused) = Dpc::recover(dpc) else {
        panic!("recovered under a live adapter");
    };
    assert_eq!(refused.holders, 1);
    assert!(refused.to_string().contains("1 handle"), "{refused}");
    // The DPU is gone, the host is not: a write the cache absorbs without
    // a crossing still lands, and recovery keeps it.
    fs.write(fd, 4096, &[2u8; 4096]).unwrap();
    drop(fs);
    let rdpc = Dpc::recover(*refused.crashed).unwrap();
    let rfs = rdpc.fs();
    let fd = rfs.open("/held").unwrap();
    let mut back = vec![0u8; 8192];
    assert_eq!(rfs.read(fd, 0, &mut back).unwrap(), 8192);
    assert!(back[..4096].iter().all(|&b| b == 1));
    assert!(back[4096..].iter().all(|&b| b == 2));
}
