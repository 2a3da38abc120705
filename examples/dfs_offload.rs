//! The DFS client comparison (paper §4.3, Figure 9) — functional view.
//!
//! Runs the same workload through the optimized fs-client, `ClientCore`,
//! against identical backends, once as the host-side "NFS+opt" client
//! and once as the DPU-side DPC client (the same `ClientCore`: DPC runs
//! it on the DPU), and prints what each one *did*: RPCs, bytes moved,
//! and where the erasure coding ran. The standard NFS-like client is
//! priced from a model only; the timing view of the whole comparison is
//! `cargo run -p dpc-bench --release --bin dpc-experiments -- fig9`.
//!
//! ```sh
//! cargo run --example dfs_offload
//! ```

use dpc::dfs::{ClientCore, DfsBackend, DfsConfig, OpTrace, DFS_BLOCK};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn run_workload(client: &mut ClientCore, ops: usize) -> (OpTrace, u64) {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut total = OpTrace::default();
    let add = |t: OpTrace, total: &mut OpTrace| {
        total.mds_rpcs += t.mds_rpcs;
        total.ds_rpcs += t.ds_rpcs;
        total.ec_bytes += t.ec_bytes;
        total.bytes_out += t.bytes_out;
        total.bytes_in += t.bytes_in;
    };

    // A 64 MiB "big file" workload: create, fill, then 70/30 random R/W.
    let (attr, t) = client.create(0, "bigfile").unwrap();
    add(t, &mut total);
    let blocks = 64u64;
    let data = vec![0xA5u8; DFS_BLOCK];
    for b in 0..blocks {
        add(client.write_block(attr.ino, b, &data).unwrap(), &mut total);
    }
    let mut cache_hits = 0u64;
    for _ in 0..ops {
        let b = rng.gen_range(0..blocks);
        if rng.gen_range(0..100) < 70 {
            let (_, t) = client.read_block(attr.ino, b).unwrap();
            add(t, &mut total);
        } else {
            add(client.write_block(attr.ino, b, &data).unwrap(), &mut total);
        }
        // Metadata check every few ops (stat-heavy applications).
        if rng.gen_range(0..4) == 0 {
            let (_, t) = client.getattr(attr.ino).unwrap();
            if t.meta_cache_hit {
                cache_hits += 1;
            }
            add(t, &mut total);
        }
    }
    add(client.sync_meta().unwrap(), &mut total);
    (total, cache_hits)
}

fn main() {
    const OPS: usize = 2000;
    println!("workload: 64-block fill + {OPS} random 8K ops (70% read) + periodic stat\n");
    println!(
        "{:<16} {:>9} {:>9} {:>11} {:>11} {:>10} {:>9}",
        "client", "mds-rpcs", "ds-rpcs", "bytes-out", "bytes-in", "ec-bytes", "stat-hits"
    );

    for flavour in ["optimized (host)", "dpc (dpu)"] {
        // Fresh, identical backend per client so counters are comparable.
        let backend = DfsBackend::new(DfsConfig::default());
        let mut client = ClientCore::new(backend, 1);
        let (t, stat_hits) = run_workload(&mut client, OPS);
        println!(
            "{:<16} {:>9} {:>9} {:>11} {:>11} {:>10} {:>9}",
            flavour, t.mds_rpcs, t.ds_rpcs, t.bytes_out, t.bytes_in, t.ec_bytes, stat_hits
        );
    }

    println!(
        "\nreading the table:
  - the optimized client and DPC do the same work as each other (metadata
    view -> each op at its home MDS, client-side EC, direct I/O: a read is
    1 data-server RPC, a write 1 swap + m parity deltas; delegated stats):
    identical rows. The difference Figure 9 measures is *where* those
    cycles run: host cores for the optimized client, DPU cores for DPC;
  - the standard NFS-like client, which funnels everything through its
    entry MDS, is priced from a model only. Run
    `cargo run -p dpc-bench --release --bin dpc-experiments -- fig9` to
    see all three in time and CPU."
    );
}
