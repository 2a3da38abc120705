//! # dpc-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation; each reproduces
//! the experiment's *shape* by driving the functional layer and replaying
//! its structure through the `dpc-sim` closed-queueing model with the
//! Table 1 testbed constants ([`Testbed`], the one place they live).
//! `cargo bench -p dpc-bench --bench experiments` regenerates every
//! table; EXPERIMENTS.md records paper-vs-measured.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod ablate;
pub mod ablate_cache;
mod config;
pub mod fig1;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table;
pub mod table2;

pub use config::{DpuSpec, HostCpu, SoftwareCosts, Testbed};
pub use table::Table;
