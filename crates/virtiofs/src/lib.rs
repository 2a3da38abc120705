//! # dpc-virtiofs — the DPFS/virtio-fs baseline transport
//!
//! DPFS (the state of the art DPC is compared against) offloads the
//! fs-client over the Linux virtio-fs stack: FUSE messages queued through
//! a split virtqueue, drained by a single DPFS-HAL thread on the DPU.
//! This crate implements that baseline faithfully enough to *measure* its
//! two structural problems (paper §2.3 M2):
//!
//! 1. an 8 KiB write crosses the PCIe link in **11 DMA operations**
//!    (avail-idx, ring entry, 3 descriptors, command, 2 data pages,
//!    out-header, used element, used idx) — asserted in tests against the
//!    counting DMA engine;
//! 2. the kernel implementation supports a **single queue**, so one HAL
//!    thread serialises every request — modelled as a 1-server station in
//!    the benchmarks.
//!
//! Layers: [`Virtqueue`]/[`Desc`] (split-ring structures) → FUSE framing
//! ([`FuseInHeader`] etc.) → [`VirtioFsFront`] / [`DpfsHal`] drivers.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod fuse;
mod hal;
mod ring;

pub use fuse::{
    FuseInHeader, FuseIoArgs, FuseOpcode, FuseOutHeader, IN_HEADER_LEN, OUT_HEADER_LEN,
};
pub use hal::{
    create_device, DpfsHal, FuseCompletion, FuseIncoming, QueueFull, VirtioFsConfig, VirtioFsFront,
};
pub use ring::{Desc, UsedElem, Virtqueue, VRING_DESC_F_NEXT, VRING_DESC_F_WRITE};
