//! # dpc — DPU-accelerated High-Performance File System Client
//!
//! A from-scratch Rust reproduction of *"DPC: DPU-accelerated
//! High-Performance File System Client"* (Zhong et al., ICPP 2024).
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`core`] — DPC itself: the host-side fs-adapter and the DPU runtime
//!   with its IO-dispatch. (The calibrated Table 1 testbed constants of
//!   the figures' virtual-time model live in the `dpc-bench` crate.)
//! - [`nvmefs`] — the paper's nvme-fs protocol (bidirectional vendor SQE,
//!   multi-queue, 4-DMA writes) and [`virtiofs`] — the DPFS/virtio-fs
//!   baseline it replaces (11-DMA writes, single queue).
//! - [`cache`] — the hybrid cache: host-resident data plane, DPU-resident
//!   control plane, per-entry PCIe-atomic locks.
//! - [`kvfs`] — the KV-backed standalone file system (inode / attribute /
//!   small-file / big-file KVs) over [`kvstore`], the disaggregated KV
//!   store substrate.
//! - [`dfs`] — metadata + data servers and the two client types the
//!   evaluation compares: the standard client and the optimized
//!   `ClientCore`, which a DPC instance runs on the DPU (one per
//!   instance), with [`ec`] providing Reed–Solomon erasure coding.
//! - [`ext4sim`] — the local-file-system baseline on [`ssd`].
//! - [`sim`], [`pcie`], [`net`] — the discrete-event engine and hardware
//!   models standing in for the paper's testbed.
//! - [`workload`] — fio/vdbench-style workload generators.
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
//! let fs = dpc.kvfs();
//! fs.mkdir("/etc").unwrap();
//! let fd = fs.create("/etc/app.conf").unwrap();
//! fs.write(fd, 0, b"threads=8\n").unwrap();
//! let mut buf = vec![0u8; 10];
//! fs.read(fd, 0, &mut buf).unwrap();
//! assert_eq!(&buf, b"threads=8\n");
//! ```

pub use dpc_cache as cache;
pub use dpc_codec as codec;
pub use dpc_core as core;
pub use dpc_dfs as dfs;
pub use dpc_ec as ec;
pub use dpc_ext4sim as ext4sim;
pub use dpc_kvfs as kvfs;
pub use dpc_kvstore as kvstore;
pub use dpc_net as net;
pub use dpc_nvmefs as nvmefs;
pub use dpc_pcie as pcie;
pub use dpc_sim as sim;
pub use dpc_ssd as ssd;
pub use dpc_virtiofs as virtiofs;
pub use dpc_workload as workload;
