//! # dpc — DPU-accelerated High-Performance File System Client
//!
//! A from-scratch Rust reproduction of *"DPC: DPU-accelerated
//! High-Performance File System Client"* (Zhong et al., ICPP 2024).
//!
//! This facade crate re-exports the product — the crates a DPC instance
//! runs — and nothing else:
//!
//! - [`core`] — DPC itself: the host-side fs-adapter and the DPU runtime
//!   with its IO-dispatch.
//! - [`nvmefs`] — the paper's nvme-fs protocol (bidirectional vendor SQE,
//!   multi-queue, 4-DMA writes) over [`pcie`], the host↔DPU link: host
//!   memory regions, the DMA engine and its timing model.
//! - [`cache`] — the hybrid cache: host-resident data plane, DPU-resident
//!   control plane, per-entry PCIe-atomic locks.
//! - [`kvfs`] — the KV-backed standalone file system (inode / attribute /
//!   small-file / big-file KVs) over [`kvstore`], the disaggregated KV
//!   store substrate.
//! - [`dfs`] — metadata + data servers and the two client types the
//!   evaluation compares: the standard client and the optimized
//!   `ClientCore`, which a DPC instance runs on the DPU (one per
//!   instance), with [`ec`] providing Reed–Solomon erasure coding and
//!   [`codec`] the CRC32C on every cell.
//! - [`fault`] — the seeded fault plan, the DPU crash switch and virtual
//!   time, which every product crate shares.
//!
//! The modelled testbed is not here. The discrete-event engine
//! (`dpc-sim`), the virtio-fs baseline (`dpc-virtiofs`), the workload
//! generators (`dpc-workload`) and the Table 1 constants — the SSD, network
//! and KV prices among them — with every figure (`dpc-bench`) are leaves
//! that no product crate names.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every figure and table.
//!
//! ## Quickstart
//!
//! ```
//! use dpc::core::{Dpc, DpcConfig};
//!
//! // Bring up a DPC instance (DPU runtime + KVFS standalone service).
//! let dpc = Dpc::new(DpcConfig::default());
//! let fs = dpc.fs();
//! fs.mkdir("/etc").unwrap();
//! let fd = fs.create("/etc/app.conf").unwrap();
//! fs.write(fd, 0, b"threads=8\n").unwrap();
//! let mut buf = vec![0u8; 10];
//! fs.read(fd, 0, &mut buf).unwrap();
//! assert_eq!(&buf, b"threads=8\n");
//! ```

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub use dpc_cache as cache;
pub use dpc_codec as codec;
pub use dpc_core as core;
pub use dpc_dfs as dfs;
pub use dpc_ec as ec;
pub use dpc_fault as fault;
pub use dpc_kvfs as kvfs;
pub use dpc_kvstore as kvstore;
pub use dpc_nvmefs as nvmefs;
pub use dpc_pcie as pcie;
