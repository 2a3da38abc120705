//! The experiment suite: regenerates every table and figure of the
//! paper's evaluation. Run with:
//!
//! ```sh
//! cargo bench -p dpc-bench --bench experiments
//! ```
//!
//! Each printed table carries the paper's reported values alongside the
//! measured ones; EXPERIMENTS.md records the comparison.

use dpc_bench::Testbed;
use dpc_bench::{ablate, ablate_cache, fig1, fig6, fig7, fig8, fig9, table2};

fn main() {
    let tb = Testbed::default();
    println!("== DPC experiment suite (Table 1 testbed: Xeon 6230R host, 24-core QingTian DPU, PCIe 3.0 x16) ==");

    let (tables, _) = fig1::run(&tb);
    for t in tables {
        t.print();
    }
    let (tables, _) = fig6::run(&tb);
    for t in tables {
        t.print();
    }
    let (tables, _) = fig7::run(&tb);
    for t in tables {
        t.print();
    }
    for t in fig8::run(&tb) {
        t.print();
    }
    let (tables, _) = table2::run(&tb);
    for t in tables {
        t.print();
    }
    let (tables, _) = fig9::run(&tb);
    for t in tables {
        t.print();
    }
    for t in ablate::run(&tb) {
        t.print();
    }
    for t in ablate_cache::run() {
        t.print();
    }
    println!("\nall experiments complete; see EXPERIMENTS.md for the paper-vs-measured record");
}
