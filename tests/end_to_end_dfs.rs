//! End-to-end integration of the distributed path: applications →
//! fs-adapter → nvme-fs (Distributed dispatch bit) → DPU IO-dispatch →
//! offloaded DFS client (metadata view, client-side EC, direct I/O) →
//! MDS cluster + EC-striped data servers.

use dpc::core::{Dpc, DpcConfig};
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

    for i in 0..30 {
        fs.dfs_create(0, &format!("f{i}")).unwrap();
    }
    // The offloaded client computes the home MDS itself — zero forwards.
    assert_eq!(backend.total_forwards(), 0);
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
    let home = backend.home_mds_of_ino(ino);
    assert_eq!(
        backend.mds_getattr(home, ino).unwrap().size,
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
