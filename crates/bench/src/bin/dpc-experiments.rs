//! CLI for running individual experiments:
//!
//! ```sh
//! cargo run -p dpc-bench --release --bin dpc-experiments -- fig7
//! cargo run -p dpc-bench --release --bin dpc-experiments -- all
//! cargo run -p dpc-bench --release --bin dpc-experiments -- list
//! ```

use dpc_bench::Testbed;
use dpc_bench::{ablate, ablate_cache, fig1, fig6, fig7, fig8, fig9, table2, Table};

// Count allocations so the batch-size ablation can report a real
// allocs/op column (the hook is per-binary; see dpc_pcie::alloc).
#[global_allocator]
static ALLOC: dpc_pcie::alloc::CountingAllocator = dpc_pcie::alloc::CountingAllocator;

const EXPERIMENTS: &[(&str, &str)] = &[
    (
        "fig1",
        "motivation: standard vs optimized NFS client (IOPS + CPU)",
    ),
    (
        "fig6",
        "raw host-DPU transmission: nvme-fs vs virtio-fs + bandwidth",
    ),
    ("fig7", "standalone: Ext4 vs KVFS latency/IOPS/CPU sweep"),
    (
        "fig8",
        "hybrid cache contributions: direct vs buffered, prefetch",
    ),
    ("table2", "sequential bandwidth: Ext4 vs KVFS"),
    ("fig9", "DFS: standard / optimized / DPC clients"),
    (
        "ablate",
        "design-choice ablations (queues, DMA cost, cache plane, promotion)",
    ),
    (
        "cache",
        "cache-policy ablation: hit rates under skew, prefetcher on/off",
    ),
];

fn run_one(name: &str, tb: &Testbed) -> Option<Vec<Table>> {
    Some(match name {
        "fig1" => fig1::run(tb).0,
        "fig6" => fig6::run(tb).0,
        "fig7" => fig7::run(tb).0,
        "fig8" => fig8::run(tb),
        "table2" => table2::run(tb).0,
        "fig9" => fig9::run(tb).0,
        "ablate" => ablate::run(tb),
        "cache" => ablate_cache::run(),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tb = Testbed::default();

    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        eprintln!("usage: dpc-experiments <experiment|all|list> [...]");
        eprintln!("experiments:");
        for (name, desc) in EXPERIMENTS {
            eprintln!("  {name:<8} {desc}");
        }
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }

    if args[0] == "list" {
        for (name, desc) in EXPERIMENTS {
            println!("{name:<8} {desc}");
        }
        return;
    }

    let selected: Vec<&str> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|(n, _)| *n).collect()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };

    for name in selected {
        match run_one(name, &tb) {
            Some(tables) => {
                for t in tables {
                    t.print();
                }
            }
            None => {
                eprintln!("unknown experiment '{name}' (try 'list')");
                std::process::exit(2);
            }
        }
    }
}
