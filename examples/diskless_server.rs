//! Diskless application server (the paper's motivation M3).
//!
//! Cloud vendors keep local disks in every application server mostly to
//! store images and configuration — at <20% utilisation. DPC's answer is
//! KVFS: the server keeps *no* local disk; "local" files live in
//! disaggregated storage behind the DPU, and the host CPU never runs a
//! file system.
//!
//! This example plays a container host: it stores layered container
//! images, lists the registry, simulates a container cold-start (read all
//! layers), and prints where the bytes actually went.
//!
//! ```sh
//! cargo run --example diskless_server
//! ```

use dpc::core::{Dpc, DpcConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let mut rng = SmallRng::seed_from_u64(2024);

    // A tiny image registry: images are directories of layer blobs.
    fs.mkdir("/images").unwrap();
    let images = [
        ("web-frontend", 3, 256 * 1024),
        ("api-server", 4, 512 * 1024),
        ("postgres", 5, 1024 * 1024),
    ];

    println!("== pushing images ==");
    for (name, layers, layer_size) in images {
        let dir = format!("/images/{name}");
        fs.mkdir(&dir).unwrap();
        for layer in 0..layers {
            let path = format!("{dir}/layer-{layer:02}.blob");
            let fd = fs.create(&path).unwrap();
            let blob: Vec<u8> = (0..layer_size).map(|_| rng.gen()).collect();
            fs.write(fd, 0, &blob).unwrap();
            fs.close(fd).unwrap();
        }
        println!(
            "  pushed {name}: {layers} layers x {} KiB",
            layer_size / 1024
        );
    }

    println!("\n== registry listing ==");
    for image in fs.readdir("/images").unwrap() {
        let dir = format!("/images/{}", image.name);
        let layers = fs.readdir(&dir).unwrap();
        let total: u64 = layers
            .iter()
            .map(|l| fs.stat(&format!("{dir}/{}", l.name)).unwrap().size)
            .sum();
        println!(
            "  {:<14} {} layers, {:>6} KiB",
            image.name,
            layers.len(),
            total / 1024
        );
    }

    // Cold-start: read every layer of one image (sequential reads — the
    // DPU prefetcher will run ahead of us).
    println!("\n== cold-starting api-server ==");
    let hits_before = fs.cache().stats();
    let mut total = 0usize;
    for layer in fs.readdir("/images/api-server").unwrap() {
        let path = format!("/images/api-server/{}", layer.name);
        let fd = fs.open(&path).unwrap();
        let size = fs.stat(&path).unwrap().size as usize;
        let mut buf = vec![0u8; 64 * 1024];
        let mut off = 0u64;
        while (off as usize) < size {
            let n = fs.read(fd, off, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            off += n as u64;
            total += n;
        }
    }
    let s = fs.cache().stats();
    println!("  read {} KiB of layers", total / 1024);
    println!(
        "  hybrid cache during cold-start: {} hits, {} misses, {} pages prefetched by the DPU",
        s.hits - hits_before.hits,
        s.misses - hits_before.misses,
        s.prefetch_inserts - hits_before.prefetch_inserts
    );

    // Garbage-collect an image.
    println!("\n== removing web-frontend ==");
    for layer in fs.readdir("/images/web-frontend").unwrap() {
        fs.unlink(&format!("/images/web-frontend/{}", layer.name))
            .unwrap();
    }
    fs.rmdir("/images/web-frontend").unwrap();
    println!(
        "  done; {} KV pairs remain in disaggregated storage — zero local disks involved",
        dpc.kvfs_inner().kv_pairs()
    );

    let pcie = dpc.pcie_snapshot();
    println!(
        "\npcie totals: {} DMA ops / {:.1} MiB moved, {} doorbells",
        pcie.dma_ops,
        pcie.dma_bytes as f64 / (1024.0 * 1024.0),
        pcie.doorbells
    );
}
