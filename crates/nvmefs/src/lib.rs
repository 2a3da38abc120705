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
//! [`FileChannel`] / [`FileTarget`] (typed [`FileRequest`] /
//! [`FileResponse`] framing) → [`ChannelPool`] (shared multi-threaded
//! multiplexer over all queues: stage commands, wait on tickets, replies
//! matched by CID into a mailbox per CID, per-thread queue affinity).

mod driver;
mod filemsg;
mod pool;
mod queue;
mod sqe;

pub use driver::{
    create_fabric, CallError, FileChannel, FileCompletion, FileIncoming, FileIncomingBatch,
    FileTarget, Payload, RecvError, Sides,
};
pub use filemsg::{
    decode_dirents, decode_dirents_into, dirent_iter, encode_dirent, encode_dirents, DecodeError,
    DirentIter, FileRequest, FileResponse, WireAttr, WireDirent, WireDirentRef, WireStep,
    MAX_NAME_LEN, MAX_PATH_LEN,
};
pub use pool::{ChannelPool, PoolStats, RetryPolicy, Ticket};
pub use queue::{
    Completion, CompletionBatch, DoorbellGuard, Incoming, IncomingBatch, Initiator, QueueFull,
    QueuePair, QueuePairConfig, ReadSide, Target, READ_HEADER_CAP, SGL_LIST_CAP, SGL_MAX_SEGMENTS,
};
pub use sqe::{
    Cqe, CqeStatus, DispatchType, Psdt, Sqe, CQE_INLINE_CAP, CQE_SIZE, OPCODE_NVMEFS, SQE_SIZE,
};
