//! # dpc-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation; each reproduces
//! the experiment's *shape* by driving the functional layer and replaying
//! its structure through the `dpc-sim` closed-queueing model with the
//! Table 1 testbed constants.
//! `cargo run --release -p dpc-bench --bin dpc-experiments -- all`
//! regenerates every table; EXPERIMENTS.md records paper-vs-measured.
//!
//! Each price has one home (DESIGN.md §14.3). A price two figures charge
//! is a field of [`Testbed`], and a figure reads the field rather than
//! restating its value; a calibration only one figure uses is a `const`
//! in that figure's module. Every modelled nvme-fs command crosses the
//! link through [`link::Link`], so its doorbell, SQE, payload and CQE
//! legs are written once.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod ablate;
pub mod ablate_cache;
mod config;
pub mod fig1;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod link;
pub mod table;
pub mod table2;

pub use config::{DpuSpec, HostCpu, SoftwareCosts, Testbed};
pub use table::Table;
