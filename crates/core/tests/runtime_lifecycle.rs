//! DPU-runtime lifecycle: clean startup/shutdown, no lost work, and
//! restartability of the whole instance within one process.

use dpc_core::{Dpc, DpcConfig};

#[test]
fn drop_joins_dpu_threads_and_flushes_nothing_dirty() {
    let kv_pairs;
    {
        let dpc = Dpc::new(DpcConfig {
            background_flush: true,
            ..DpcConfig::default()
        });
        let fs = dpc.fs();
        let fd = fs.create("/x").unwrap();
        fs.write(fd, 0, &vec![1u8; 30_000]).unwrap();
        fs.fsync(fd).unwrap();
        kv_pairs = dpc.kvfs_inner().kv_pairs();
        assert!(kv_pairs > 0);
        // Dirty some pages *without* fsync; the shutdown drain must not
        // panic (its final flush runs after service threads stop).
        fs.write(fd, 0, &vec![2u8; 4096]).unwrap();
    } // Drop: shutdown flag, join service + flusher threads.
      // Reaching here without hangs or panics is the assertion.
    assert!(kv_pairs >= 5);
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
fn recover_replays_live_intents_and_hands_back_a_drained_log() {
    // Nothing flushes before the crash (no fsync, no background flusher):
    // the whole dirty set comes back from the log alone, and `recover`
    // returns a clean client — log drained, ready to admit and reclaim.
    let cfg = DpcConfig {
        wal: true,
        prefetch: false,
        ..DpcConfig::default()
    };
    let dpc = Dpc::new(cfg.clone());
    let fs = dpc.fs();
    let fd = fs.create("/dirty").unwrap();
    let data: Vec<u8> = (0..200_000u32).map(|i| (i * 7 % 251) as u8).collect();
    assert_eq!(fs.write(fd, 0, &data).unwrap(), data.len());
    dpc.trip_crash();
    let (store, region) = (dpc.kv_store(), dpc.wal_region().unwrap());
    drop(fs);
    drop(dpc);

    let rdpc = Dpc::recover(cfg, store, None, region);
    assert!(rdpc.metrics().cache.wal_replayed_records > 0);
    assert!(rdpc.wal().unwrap().is_drained(), "recovery drains the log");
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
    assert!(rdpc.wal().unwrap().is_drained(), "the new epoch reclaims");
}
