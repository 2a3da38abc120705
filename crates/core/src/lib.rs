//! # dpc-core — the DPC system (Figure 3 of the paper)
//!
//! This crate assembles the paper's contribution from the substrate
//! crates: the host-side **fs-adapter** ([`DpcFs`]) that serves reads and
//! absorbs writes from the hybrid cache and converts the rest into
//! nvme-fs messages; the DPU-side **IO-dispatch** ([`Dispatcher`]) that
//! routes standalone requests to KVFS and distributed requests to the
//! offloaded DFS client; and the **DPU runtime** ([`DpuRuntime`]) of
//! service and prefetcher threads, which drains the cache when it stops.
//! The calibrated testbed constants of the virtual-time model (Table 1)
//! live in `dpc-bench`, their only user.
//!
//! ```
//! use dpc_core::{Dpc, DpcConfig};
//!
//! let dpc = Dpc::new(DpcConfig::default());
//! let fs = dpc.fs();
//! fs.mkdir("/etc").unwrap();
//! let fd = fs.create("/etc/app.conf").unwrap();
//! fs.write(fd, 0, b"threads=8\n").unwrap();
//! let mut buf = vec![0u8; 10];
//! assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), 10);
//! assert_eq!(&buf, b"threads=8\n");
//! ```

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod adapter;
mod dispatch;
mod dpc;
mod metrics;
mod runtime;

pub use adapter::{DpcError, DpcFs, Fd, FsyncMode, IoMode};
pub use dispatch::Dispatcher;
pub use dpc::{ConfigError, Dpc, DpcConfig, RecoverError};
pub use metrics::{MetricsSnapshot, RecoverySnapshot};
pub use runtime::{DpuRuntime, RuntimeShared};
