//! # dpc-dfs — the distributed file system substrate and its client
//!
//! The paper's motivation (Fig 1) and headline DFS result (Fig 9) put the
//! optimized fs-client on the DPU. This crate builds it and its backend
//! from scratch:
//!
//! - a **backend** of hash-partitioned metadata servers (each op served
//!   at its home MDS, delegations with recall) and data servers storing
//!   Reed–Solomon stripes whose cell is the 8 KiB block: `k` blocks, each
//!   whole on a server of its own, and `m` parity cells;
//! - the **optimized client**, [`ClientCore`] (metadata view, client-side
//!   EC, direct I/O, lazy metadata batching, delegation-backed attribute
//!   caching). The paper's DPC client is not a type of its own: it is one
//!   `ClientCore` running on the DPU, shared by every queue of a `Dpc`.
//!   The standard NFS-like client the figures compare against is priced
//!   from a model in `dpc-bench`; no functional client runs it.
//!
//! Every operation returns an [`OpTrace`] so the benchmarks can turn the
//! protocol structure into virtual time, and so tests can assert facts
//! like "an 8 KiB write issues one swap and `m` delta RPCs to the data
//! servers and zero MDS RPCs; a healthy read is one".

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod backend;
mod client;

pub use backend::{
    Cell, DataServer, DfsAttr, DfsBackend, DfsConfig, DfsError, DfsRecoverySnapshot,
    DfsRecoveryStats, MetadataServer, Refusal, CELL, DFS_BLOCK,
};
pub use client::{ClientCore, OpTrace};
