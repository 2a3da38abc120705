//! # dpc-nvmefs — the paper's nvme-fs protocol
//!
//! nvme-fs (§3.2) is DPC's replacement for virtio-fs: a file-semantic
//! host↔DPU transport built directly on NVMe queue pairs. Its three wins,
//! all implemented and testable here:
//!
//! 1. **Few DMA operations** — an 8 KiB file write crosses the link in
//!    exactly 4 DMA ops (SQE fetch, two 4 KiB data pages, CQE) versus 11
//!    for virtio-fs: the request header rides the SQE and the reply the
//!    CQE whenever they fit. Asserted in this crate's tests against the
//!    counting [`dpc_pcie::DmaEngine`].
//! 2. **Bidirectional vendor command** — one SQE (opcode `0xA3`) carries a
//!    write buffer (request header + data) *and* a read buffer (response
//!    header + data), with the paper's exact Dword layout ([`Sqe`]).
//! 3. **Multi-queue** — any number of independent queue pairs
//!    ([`create_fabric`]), where the virtio-fs kernel path is limited to a
//!    single queue and a single DPFS-HAL thread.
//!
//! Layers: [`Sqe`]/[`Cqe`] (bit-exact entries) → [`QueuePair`] /
//! [`Initiator`] / [`Target`] (rings over DMA-able host memory) →
//! [`ChannelPool`] / [`FileTarget`] (typed [`FileRequest`] /
//! [`FileResponse`] framing). The pool is the host half: a shared
//! multi-threaded multiplexer over every queue's initiator that stages
//! commands, waits on tickets, matches CQEs by CID into a mailbox per CID,
//! reads each reply where the DMA left it and keeps per-thread queue
//! affinity. The target is the DPU half: it DMAs each command's payload
//! straight into the [`FileIncomingBatch`] slot it is served from.
//! Each end has one way across: the host stages through the pool and reads
//! every reply through its lease; the target fetches through
//! [`FileTarget::poll_many`].

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod driver;
mod filemsg;
mod pool;
mod queue;
mod sqe;

pub use driver::{
    create_fabric, CallError, FileCompletion, FileIncoming, FileIncomingBatch, FileTarget, Sides,
};
pub use filemsg::{
    decode_dirents_into, encode_dirent, DecodeError, FileRequest, FileResponse, WireAttr,
    WireDirent, WireStep, MAX_NAME_LEN, MAX_PATH_LEN,
};
pub use pool::{ChannelPool, PoolStats, RetryPolicy, Ticket};
pub use queue::{
    DoorbellGuard, Initiator, Payload, QueueFull, QueuePair, QueuePairConfig, ReadSide, Reply,
    Target, READ_HEADER_CAP, SGL_LIST_CAP, SGL_MAX_SEGMENTS,
};
pub use sqe::{DispatchType, Sqe, CQE_SIZE, CQE_WIDE_CAP, SQE_SIZE};
