//! # dpc-workload — deterministic workload generation
//!
//! Seeded generators for the suites and ablations that need a workload
//! shape rather than a fixed schedule: [`FileSetGen`] drives the
//! file-set churn suite with vdbench-style namespace op mixes, [`Zipf`]
//! adds skew for the cache-policy ablations, and [`HotSetGen`] composes
//! it into the read-mostly hot-set stream (Zipfian offsets over a small
//! file set) that drives the lock-free meta-plane chaos suite.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod fileset;
mod hotset;
mod zipf;

pub use fileset::{FileOp, FileSetGen, FileSetMix};
pub use hotset::{HotSetGen, HotSetOp, HotSetSpec};
pub use zipf::Zipf;
