//! # dpc-kvstore — the disaggregated KV store substrate
//!
//! KVFS (§3.4 of the paper) replaces under-utilised local disks by
//! converting file operations into operations against a disaggregated KV
//! store. The paper deliberately leaves the KV store's design out of
//! scope; this crate supplies a correct stand-in with the exact operation
//! set KVFS requires:
//!
//! - ordered point ops (`get`/`put`/`put_if_absent`/`delete`),
//! - `commit`, the conditional multi-key write: checks that keys hold
//!   given values or are absent, then puts and deletes, all in one
//!   atomic request — each KVFS namespace mutation is one (`put`,
//!   `put_if_absent` and `delete` are one-write commits),
//! - ordered prefix scans (`scan_prefix`) for directory listings keyed by
//!   the parent-inode prefix,
//! - in-place sub-value reads/writes (`read_sub`/`write_sub`) used by the
//!   big-file KV's 8 KiB in-place updates, the multi-get (`read_subs`)
//!   that reads a big-file read's blocks in one request, and the
//!   multi-put (`write_subs`) that writes a flush batch's blocks in one,
//!
//! plus [`KvTimingModel`], the backend/network timing used by the
//! benchmarks (the paper notes KVFS's bandwidth ceiling *is* the KV
//! backend, so this model is what bounds Table 2's numbers).

mod model;
mod store;

pub use model::KvTimingModel;
pub use store::{Check, KvStats, KvStore, Write};
