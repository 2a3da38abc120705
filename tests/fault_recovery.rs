//! PR 3 chaos harness: seeded fault injection across every layer of the
//! stack, verified against an in-memory model.
//!
//! The [`FaultPlan`] arms sites in the nvme-fs transport (deferred
//! completions, SQE-level transport errors), the DFS servers (refused
//! RPCs, transient MDS faults), the KV store (latency spikes) and the
//! cache flush pipeline (failed write-backs) — all drawn from per-site
//! deterministic streams, so a seed replays the same fault schedule.
//!
//! Recovery must be *invisible*: every read returns exactly what the
//! model says, no operation surfaces an error, and the only trace is the
//! recovery counters. Conversely, with faults disabled those counters
//! must read exactly zero — the recovery machinery stays off the fast
//! path.
//!
//! Seeds: `[1, 7, 42]` by default; set `DPC_CHAOS_SEED=<u64>` to pin one
//! (the CI chaos job fans out over the fixed seeds).

use std::collections::HashMap;

use dpc::core::{Dpc, DpcConfig, IoMode};
use dpc::dfs::{DfsBackend, DfsConfig, DfsError, DpcClient, FsClient, DFS_BLOCK};
use dpc::nvmefs::RetryPolicy;
use dpc::sim::{FaultPlan, FaultSpec};
use proptest::prelude::*;

const CHAOS_SEEDS: [u64; 3] = [1, 7, 42];

fn seeds() -> Vec<u64> {
    match std::env::var("DPC_CHAOS_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("DPC_CHAOS_SEED must be an unsigned integer")],
        Err(_) => CHAOS_SEEDS.to_vec(),
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic full-block payload, unique per (seed, ino, block, version).
fn block_pattern(seed: u64, ino: u64, block: u64, version: u64) -> Vec<u8> {
    let mut s = seed ^ ino.rotate_left(17) ^ block.rotate_left(41) ^ version;
    let mut out = Vec::with_capacity(DFS_BLOCK);
    while out.len() < DFS_BLOCK {
        out.extend_from_slice(&splitmix(&mut s).to_le_bytes());
    }
    out.truncate(DFS_BLOCK);
    out
}

/// Deterministic small-file payload.
fn file_pattern(seed: u64, id: u64, len: usize) -> Vec<u8> {
    let mut s = seed ^ id.rotate_left(29);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        out.extend_from_slice(&splitmix(&mut s).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// One seeded chaos run: a mixed KVFS + DFS workload under probabilistic
/// faults at every site, a hard data-server outage, then full read-back
/// verification against the model. Returns nothing — it asserts.
fn chaos_run(seed: u64) {
    let plan = FaultPlan::new(seed);
    plan.arm("nvmefs.defer", FaultSpec::probability(0.05).with_delay(3));
    plan.arm("nvmefs.sqe_error", FaultSpec::probability(0.04));
    plan.arm("mds.rpc", FaultSpec::probability(0.05));
    plan.arm("ds.0.rpc", FaultSpec::probability(0.25));
    plan.arm("ds.3.rpc", FaultSpec::probability(0.25));
    plan.arm("kv.op", FaultSpec::probability(0.05).with_delay(2));
    plan.arm("cache.flush", FaultSpec::probability(0.25));

    let dpc = Dpc::new(DpcConfig {
        dfs: Some(DfsConfig::default()),
        faults: Some(plan.clone()),
        ..DpcConfig::default()
    });
    let fs = dpc.fs();
    let backend = dpc.dfs_backend().expect("dfs configured").clone();

    // ---- phase 1: mixed workload under probabilistic faults ----------
    let mut rng = seed;
    fs.mkdir("/chaos").unwrap();
    let mut files: HashMap<String, Vec<u8>> = HashMap::new();
    for id in 0..6u64 {
        let path = format!("/chaos/f{id}");
        let len = 1024 + (splitmix(&mut rng) % 60_000) as usize;
        let data = file_pattern(seed, id, len);
        let fd = fs.create(&path).unwrap();
        fs.write(fd, 0, &data).unwrap();
        if splitmix(&mut rng).is_multiple_of(2) {
            fs.fsync(fd).unwrap();
        }
        fs.close(fd).unwrap();
        files.insert(path, data);
    }

    let ino = fs.dfs_create(0, "chaos.bin").unwrap();
    let mut dfs_model: HashMap<u64, Vec<u8>> = HashMap::new();
    for op in 0..32u64 {
        let block = splitmix(&mut rng) % 12;
        let data = block_pattern(seed, ino, block, op);
        fs.dfs_write_block(ino, block, &data).unwrap();
        dfs_model.insert(block, data);
        if op % 8 == 7 {
            fs.dfs_sync().unwrap();
        }
    }

    // ---- phase 2: hard outage on one data server ---------------------
    // Guarantees degraded reads (every stripe spans all six servers), so
    // reconstructions is provably nonzero regardless of the seed.
    backend.data_server(1).set_failed(true);
    for (&block, data) in &dfs_model {
        assert_eq!(
            &fs.dfs_read_block(ino, block).unwrap(),
            data,
            "seed {seed}: block {block} diverged during the outage"
        );
    }
    backend.data_server(1).set_failed(false);

    // ---- phase 3: full verification against the model ----------------
    for (path, data) in &files {
        let fd = fs.open(path).unwrap();
        let mut buf = vec![0u8; data.len()];
        assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), data.len());
        assert_eq!(&buf, data, "seed {seed}: {path} diverged");
        fs.close(fd).unwrap();
    }
    for (&block, data) in &dfs_model {
        assert_eq!(
            &fs.dfs_read_block(ino, block).unwrap(),
            data,
            "seed {seed}: block {block} diverged after recovery"
        );
    }

    // The faults were real (the plan recorded injections) and recovery
    // actually ran (retries at some layer, reconstructions on the reads
    // through the failed server).
    assert!(
        plan.total_injected() > 0,
        "seed {seed}: no fault ever fired"
    );
    let r = dpc.metrics().recovery;
    let retries = r.link_retries + r.ds_retries + r.mds_retries + r.kv_retries + r.flush_retries;
    assert!(retries > 0, "seed {seed}: no recovery retries: {r:?}");
    assert!(
        r.reconstructions > 0,
        "seed {seed}: no degraded read reconstructed: {r:?}"
    );
}

#[test]
fn chaos_seeded_workload_stays_byte_exact() {
    for seed in seeds() {
        chaos_run(seed);
    }
}

#[test]
fn fault_free_run_keeps_every_recovery_counter_at_zero() {
    // Same workload shape, no plan: the recovery machinery must stay
    // completely dormant — the chaos counters are exactly zero.
    let dpc = Dpc::new(DpcConfig {
        dfs: Some(DfsConfig::default()),
        ..DpcConfig::default()
    });
    let fs = dpc.fs();

    fs.mkdir("/quiet").unwrap();
    let data = file_pattern(99, 0, 40_000);
    let fd = fs.create("/quiet/f").unwrap();
    fs.write(fd, 0, &data).unwrap();
    fs.fsync(fd).unwrap();
    let mut buf = vec![0u8; data.len()];
    assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), data.len());
    assert_eq!(buf, data);
    fs.close(fd).unwrap();

    let ino = fs.dfs_create(0, "quiet.bin").unwrap();
    for block in 0..8u64 {
        let data = block_pattern(99, ino, block, 0);
        fs.dfs_write_block(ino, block, &data).unwrap();
        assert_eq!(fs.dfs_read_block(ino, block).unwrap(), data);
    }
    fs.dfs_sync().unwrap();

    let r = dpc.metrics().recovery;
    assert_eq!(r.link_retries, 0);
    assert_eq!(r.link_timeouts, 0);
    assert_eq!(r.transport_errors, 0);
    assert_eq!(r.stale_completions, 0);
    assert_eq!(r.rejected_sqes, 0);
    assert_eq!(r.ds_retries, 0);
    assert_eq!(r.mds_retries, 0);
    assert_eq!(r.reconstructions, 0);
    assert_eq!(r.repairs, 0);
    assert_eq!(r.repair_drops, 0);
    assert_eq!(r.crc_rejects, 0);
    assert_eq!(r.kv_retries, 0);
    assert_eq!(r.flush_retries, 0);
    assert_eq!(r.flush_failures, 0);
}

#[test]
fn one_failed_data_server_stays_byte_exact_end_to_end() {
    // The PR's acceptance scenario: a data server is down for the whole
    // workload. Writes queue its shards for repair, reads reconstruct
    // from parity, nothing surfaces an error, and after the server
    // returns the stripes heal.
    let dpc = Dpc::new(DpcConfig {
        dfs: Some(DfsConfig::default()),
        ..DpcConfig::default()
    });
    let fs = dpc.fs();
    let backend = dpc.dfs_backend().expect("dfs configured").clone();
    backend.enable_recovery();

    let ino = fs.dfs_create(0, "victim.bin").unwrap();
    backend.data_server(0).set_failed(true);

    let blocks: Vec<Vec<u8>> = (0..16u64).map(|b| block_pattern(3, ino, b, 0)).collect();
    for (b, data) in blocks.iter().enumerate() {
        fs.dfs_write_block(ino, b as u64, data).unwrap();
    }
    for (b, data) in blocks.iter().enumerate() {
        assert_eq!(&fs.dfs_read_block(ino, b as u64).unwrap(), data);
    }
    let r = dpc.metrics().recovery;
    assert!(r.ds_retries > 0, "refused RPCs were reissued: {r:?}");
    assert!(r.reconstructions > 0, "degraded reads reconstructed: {r:?}");

    // Server returns; queued repairs drain on metadata syncs and the
    // shards land back on it.
    backend.data_server(0).set_failed(false);
    for _ in 0..8 {
        fs.dfs_sync().unwrap();
    }
    assert!(dpc.metrics().recovery.repairs > 0);
    assert!(backend.data_server(0).shard_count() > 0, "stripe healed");
    for (b, data) in blocks.iter().enumerate() {
        assert_eq!(&fs.dfs_read_block(ino, b as u64).unwrap(), data);
    }
}

#[test]
fn deferred_completion_times_out_and_reissues() {
    // Park the first idempotent command's completion effectively forever:
    // the channel pool's per-call deadline must fire, the CID gets
    // reissued, and the call still succeeds — the caller never notices.
    let plan = FaultPlan::new(9);
    plan.arm("nvmefs.defer", FaultSpec::nth(1).with_delay(1 << 40));
    let dpc = Dpc::new(DpcConfig {
        retry: RetryPolicy {
            deadline_yields: 20_000, // fast deadline: this test wants the timeout
            ..RetryPolicy::default()
        },
        faults: Some(plan),
        ..DpcConfig::default()
    });
    let fs = dpc.fs();

    fs.mkdir("/t").unwrap();
    let fd = fs.create("/t/f").unwrap();
    fs.write(fd, 0, b"hello").unwrap();
    fs.fsync(fd).unwrap();
    // Idempotent traffic: one of these calls eats the deferral.
    assert_eq!(fs.stat("/t/f").unwrap().size, 5);
    let mut buf = [0u8; 5];
    assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), 5);
    assert_eq!(&buf, b"hello");

    let r = dpc.metrics().recovery;
    assert!(r.link_timeouts >= 1, "deadline must have fired: {r:?}");
    assert!(r.link_retries >= 1, "timed-out call must reissue: {r:?}");
}

#[test]
fn a_deferred_request_on_an_idle_queue_still_completes() {
    // Deferral is counted in the target's poll ticks. The stall here
    // outlasts the service thread's yield tier, on a queue nothing else
    // rings: a thread that went to sleep on its doorbell with the request
    // still withheld would tick once per 10 ms park, and the caller would
    // time out and reissue long before tick 2000.
    let plan = FaultPlan::new(13);
    plan.arm("nvmefs.defer", FaultSpec::nth(1).with_delay(2_000));
    let dpc = Dpc::new(DpcConfig {
        queues: 1,
        faults: Some(plan),
        ..DpcConfig::default()
    });
    let fs = dpc.fs();
    fs.stat("/").unwrap();
    let m = dpc.metrics();
    assert_eq!(m.recovery.link_timeouts, 0, "{:?}", m.recovery);
    assert_eq!(m.recovery.link_retries, 0, "{:?}", m.recovery);
    assert_eq!(m.requests_served, 1);
}

#[test]
fn transport_error_cqe_is_retried_transparently() {
    // The third idempotent command is shed with a transport-error CQE;
    // the pool retries it and the caller sees nothing.
    let plan = FaultPlan::new(11);
    plan.arm("nvmefs.sqe_error", FaultSpec::nth(3));
    let dpc = Dpc::new(DpcConfig {
        faults: Some(plan),
        ..DpcConfig::default()
    });
    let fs = dpc.fs();

    fs.mkdir("/e").unwrap();
    let fd = fs.create("/e/f").unwrap();
    fs.write(fd, 0, b"payload").unwrap();
    fs.fsync(fd).unwrap();
    for _ in 0..4 {
        assert_eq!(fs.stat("/e/f").unwrap().size, 7);
    }

    let r = dpc.metrics().recovery;
    assert!(r.transport_errors >= 1, "error CQE must be counted: {r:?}");
    assert!(r.link_retries >= 1, "errored call must reissue: {r:?}");
}

#[test]
fn a_read_the_link_keeps_shedding_is_eio_buffered_or_direct() {
    // Every attempt at the Read gets a transport-error CQE. A cold
    // buffered read (a miss run, staged and waited) and a direct read (one
    // call) wait under one rule: reissue until the attempts run out, then
    // report what the last attempt said — EIO, not a deadline nobody
    // missed — with attempts − 1 reissues counted and no timeout.
    let data = file_pattern(17, 0, 8192);
    let store = {
        let dpc = Dpc::new(DpcConfig::default());
        let fs = dpc.fs();
        let fd = fs.create("/shed").unwrap();
        fs.write(fd, 0, &data).unwrap();
        fs.fsync(fd).unwrap();
        fs.close(fd).unwrap();
        dpc.kv_store()
    };
    let plan = FaultPlan::new(17);
    let cfg = DpcConfig {
        faults: Some(plan.clone()),
        ..DpcConfig::default()
    };
    let dpc = Dpc::with_shared_storage(cfg, Some(store), None);
    let buffered = dpc.fs();
    let mut direct = dpc.fs();
    direct.mode = IoMode::Direct;
    let fds = [
        buffered.open("/shed").unwrap(),
        direct.open("/shed").unwrap(),
    ];
    let shed = plan.arm("nvmefs.sqe_error", FaultSpec::always());

    let attempts = dpc.config().retry.attempts as u64;
    for (fs, fd) in [&buffered, &direct].into_iter().zip(fds) {
        let before = dpc.metrics().recovery;
        let mut buf = vec![0u8; data.len()];
        let err = fs.read(fd, 0, &mut buf).unwrap_err();
        let r = dpc.metrics().recovery;
        assert_eq!(err.errno(), 5, "{:?} read: {r:?}", fs.mode);
        assert_eq!(r.link_retries - before.link_retries, attempts - 1, "{r:?}");
        assert_eq!(r.transport_errors - before.transport_errors, attempts);
        assert_eq!(r.link_timeouts, 0, "{r:?}");
    }
    shed.disarm();
    let mut buf = vec![0u8; data.len()];
    assert_eq!(buffered.read(fds[0], 0, &mut buf).unwrap(), data.len());
    assert_eq!(buf, data);
}

// ---- property: degraded reads equal normal reads --------------------
//
// For every loss pattern of at most m = 2 servers out of n = 6, a block
// written healthy must read back byte-identical through the degraded
// path, and the recovery counters must record the reconstruction.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn degraded_reads_equal_normal_reads_for_every_loss_pattern(data_seed in any::<u64>()) {
        let cfg = DfsConfig::default();
        let n = cfg.data_server_count;
        // Enumerate every 1-server and 2-server loss pattern (the EC code
        // is 4+2, so any such pattern must stay readable).
        for a in 0..n {
            for b in a..n {
                let backend = DfsBackend::new(cfg);
                backend.enable_recovery();
                let mut client = DpcClient::new(backend.clone(), 1);
                let (attr, _) = client.create(0, "p.bin").map_err(|e| format!("{e:?}"))?;
                let ino = attr.ino;
                let mut blocks = Vec::new();
                for block in 0..4u64 {
                    let data = block_pattern(data_seed, ino, block, 0);
                    client
                        .write_block(ino, block, &data)
                        .map_err(|e| format!("{e:?}"))?;
                    blocks.push(data);
                }
                // Normal reads first, then fail the pattern and re-read.
                for (block, data) in blocks.iter().enumerate() {
                    let (got, _) = client
                        .read_block(ino, block as u64)
                        .map_err(|e| format!("{e:?}"))?;
                    prop_assert_eq!(&got, data);
                }
                backend.data_server(a).set_failed(true);
                backend.data_server(b).set_failed(true);
                for (block, data) in blocks.iter().enumerate() {
                    let (got, _) = client
                        .read_block(ino, block as u64)
                        .map_err(|e| format!("{e:?}"))?;
                    prop_assert_eq!(
                        &got,
                        data,
                        "loss pattern {{{}, {}}} block {}",
                        a,
                        b,
                        block
                    );
                }
                // Reconstruction is required exactly when some block had a
                // failed server in a *data* slot (parity-only losses read
                // clean). Placement is hash-based, so compute it.
                let hit_data_slot = (0..blocks.len() as u64).any(|t| {
                    backend.placement(ino, t)[..cfg.ec_k]
                        .iter()
                        .any(|&s| s == a || s == b)
                });
                let recon = backend.recovery().snapshot().reconstructions;
                prop_assert_eq!(
                    recon > 0,
                    hit_data_slot,
                    "loss pattern {{{}, {}}}: reconstructions {} vs data-slot hit {}",
                    a,
                    b,
                    recon,
                    hit_data_slot
                );
            }
        }
    }

    #[test]
    fn mds_transient_faults_never_surface(seed in any::<u64>()) {
        // Pure-metadata churn under a flaky MDS fabric: every op must
        // succeed (retried behind the scenes), names must resolve.
        let plan = FaultPlan::new(seed);
        let backend = DfsBackend::new(DfsConfig::default());
        backend.set_fault_plan(&plan);
        plan.arm("mds.rpc", FaultSpec::probability(0.3));
        let mut client = DpcClient::new(backend.clone(), 7);
        for i in 0..16u32 {
            let name = format!("m{i}");
            let (attr, _) = client.create(0, &name).map_err(|e| format!("{e:?}"))?;
            let (ino, _) = client.lookup(0, &name).map_err(|e| format!("{e:?}"))?;
            prop_assert_eq!(ino, attr.ino);
        }
        prop_assert!(backend.recovery().snapshot().mds_retries > 0);
    }
}

/// A malformed request on the wire must be rejected with a clean errno,
/// not a panic — regression for the de-panicked hot paths.
#[test]
fn malformed_and_hostile_requests_error_cleanly() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let fd = fs.create("/x").unwrap();
    fs.write(fd, 0, b"abc").unwrap();
    // Hostile offset: would overflow `offset + len` — must be EINVAL-ish,
    // not a panic.
    let err = fs.write(fd, u64::MAX - 1, b"zz").unwrap_err();
    assert!(err.errno() > 0);
    // Read far past EOF is a clean zero-length read.
    let mut buf = [0u8; 4];
    assert_eq!(fs.read(fd, 1 << 40, &mut buf).unwrap(), 0);
    // DFS ops on a standalone instance: clean EOPNOTSUPP, no panic.
    assert_eq!(fs.dfs_read_block(7, 0).unwrap_err().errno(), 95);
}

/// `DfsError::Transient` maps to a retryable errno and is part of the
/// public surface the FaultPlan API introduced.
#[test]
fn transient_errors_are_typed_not_panics() {
    let plan = FaultPlan::new(5);
    let backend = DfsBackend::new(DfsConfig::default());
    backend.set_fault_plan(&plan);
    // A permanently-down MDS fabric exhausts the bounded retries and
    // surfaces the typed transient error (never a panic, never a hang).
    plan.arm("mds.rpc", FaultSpec::always());
    let mut client = DpcClient::new(backend, 3);
    let err = client.create(0, "never").unwrap_err();
    assert_eq!(err, DfsError::Transient);
}
