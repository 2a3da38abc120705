//! Quickstart: bring up a DPC instance and use it like a file system.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! What happens underneath: the writes below are absorbed by the hybrid
//! cache's host-resident data plane; `fsync` makes the DPU control plane
//! pull the dirty pages over (counted) PCIe DMA and persist them through
//! KVFS into the disaggregated KV store. The PCIe counter printout at the
//! end shows the traffic the protocol actually generated.

use dpc::core::{Dpc, DpcConfig};

fn main() {
    // A DPC instance: DPU runtime threads + nvme-fs fabric + hybrid cache.
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();

    // Plain file API, POSIX-style.
    fs.mkdir("/etc").unwrap();
    let fd = fs.create("/etc/app.conf").unwrap();
    fs.write(fd, 0, b"listen=0.0.0.0:8080\nworkers=8\n")
        .unwrap();
    fs.fsync(fd).unwrap();

    let mut buf = vec![0u8; 128];
    let n = fs.read(fd, 0, &mut buf).unwrap();
    println!("read back {n} bytes:");
    println!("{}", String::from_utf8_lossy(&buf[..n]));

    let attr = fs.stat("/etc/app.conf").unwrap();
    println!(
        "stat: ino={} size={} mode={:o}",
        attr.ino, attr.size, attr.mode
    );

    for entry in fs.readdir("/etc").unwrap() {
        println!(
            "dirent: {} (ino {}, {})",
            entry.name,
            entry.ino,
            if entry.kind == 1 { "dir" } else { "file" }
        );
    }

    // What every layer did to serve that:
    println!("\n{}", dpc.metrics());
    println!(
        "kvfs: {} KV pairs back the namespace and data",
        dpc.kvfs_inner().kv_pairs()
    );
}
