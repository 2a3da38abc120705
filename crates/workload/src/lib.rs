//! # dpc-workload — deterministic fio/vdbench-style workload generation
//!
//! Table 1 lists vdbench 3.28 and fio 3.36 as the paper's load
//! generators. This crate regenerates their workload shapes
//! deterministically (seeded [`IoGen`] streams): random/sequential
//! patterns, read/write/70-30 mixes, the 4 KiB / 8 KiB / 1 MiB block
//! sizes, and the thread sweep every figure scans ([`THREAD_SWEEP`]).
//! [`Zipf`] adds skew for the cache-policy ablations, and [`HotSetGen`]
//! composes it into the read-mostly hot-set stream (Zipfian offsets over
//! a small file set) that drives the lock-free meta-plane chaos suite.

mod fileset;
mod gen;
mod hotset;
mod zipf;

pub use fileset::{FileOp, FileSetGen, FileSetMix};
pub use gen::{IoGen, IoOp, Mix, Pattern, WorkloadSpec, THREAD_SWEEP};
pub use hotset::{HotSetGen, HotSetOp, HotSetSpec};
pub use zipf::Zipf;
