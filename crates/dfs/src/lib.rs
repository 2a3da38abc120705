//! # dpc-dfs — the distributed file system substrate and its clients
//!
//! The paper's motivation (Fig 1) and headline DFS result (Fig 9) compare
//! fs-client flavours against the same backend. This crate builds all of
//! it from scratch:
//!
//! - a **backend** of hash-partitioned metadata servers (with entry→home
//!   request forwarding, delegations, and a server-side EC write path)
//!   and data servers storing Reed–Solomon stripes whose cell is the
//!   8 KiB block: `k` blocks, each whole on a server of its own, and `m`
//!   parity cells;
//! - two clients: the **standard client** (NFS-like, everything proxied
//!   via the entry MDS) and the **optimized client**, [`ClientCore`]
//!   (metadata view, client-side EC, direct I/O, lazy metadata batching,
//!   delegation-backed attribute caching). The paper's third flavour, the
//!   DPC client, is not a type of its own: it is one `ClientCore` running
//!   on the DPU, shared by every queue of a `Dpc`.
//!
//! Every operation returns an [`OpTrace`] so the benchmarks can turn the
//! protocol structure into virtual time, and so tests can assert facts
//! like "the optimized client's 8 KiB write issues one swap and `m` delta
//! RPCs to the data servers and zero MDS RPCs; a healthy read is one".

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod backend;
mod client;

pub use backend::{
    Cell, DataServer, DfsAttr, DfsBackend, DfsConfig, DfsError, DfsRecoverySnapshot,
    DfsRecoveryStats, MetadataServer, Refusal, CELL, DFS_BLOCK,
};
pub use client::{ClientCore, FsClient, OpTrace, StandardClient};
