//! Failure drill: what DPC's substrate layers do when hardware misbehaves.
//!
//! **Data-server loss** — kill up to `m` of a stripe's servers, block 0's
//! own first, and watch the offloaded client reconstruct the block from
//! the rest of its stripe; one more and the read fails with a typed errno.
//!
//! ```sh
//! cargo run --example failure_drill
//! ```

use std::sync::atomic::Ordering;

use dpc::core::{Dpc, DpcConfig};
use dpc::dfs::DfsConfig;

fn main() {
    println!("== drill: losing data servers under an EC(4+2) stripe ==");
    let dpc = Dpc::new(DpcConfig {
        dfs: Some(DfsConfig::default()),
        ..DpcConfig::default()
    });
    let fs = dpc.fs();
    let backend = dpc.dfs_backend().unwrap();

    let ino = fs.dfs_create(0, "critical.bin").unwrap();
    let block: Vec<u8> = (0..8192u32).map(|i| (i * 31 % 251) as u8).collect();
    for b in 0..4u64 {
        fs.dfs_write_block(ino, b, &block).unwrap();
    }
    println!("  wrote 4 blocks: one stripe, each block whole on its own server + 2 parity cells");

    let placement = backend.placement(ino, 0);
    let rpcs = || -> u64 {
        (0..backend.data_server_count())
            .map(|s| backend.data_server(s).rpcs.load(Ordering::Relaxed))
            .sum()
    };
    let before = rpcs();
    fs.dfs_read_block(ino, 0).unwrap();
    println!(
        "  healthy read of block 0: {} data-server RPC",
        rpcs() - before
    );
    for failures in 1..=3usize {
        // Reset, then fail `failures` servers of block 0's stripe, block
        // 0's own server first.
        for s in 0..backend.data_server_count() {
            backend.data_server(s).set_failed(false);
        }
        for &s in placement.iter().take(failures) {
            backend.data_server(s).set_failed(true);
        }
        let before = rpcs();
        match fs.dfs_read_block(ino, 0) {
            Ok(data) => println!(
                "  {failures} server(s) down -> read OK (reconstructed from the stripe, {} RPCs), {} bytes intact: {}",
                rpcs() - before,
                data.len(),
                data == block
            ),
            Err(e) => println!(
                "  {failures} server(s) down -> read failed (errno {}): beyond m=2 parity, as designed",
                e.errno()
            ),
        }
    }
}
