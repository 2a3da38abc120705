//! # dpc-kvstore — the disaggregated KV store substrate
//!
//! KVFS (§3.4 of the paper) replaces under-utilised local disks by
//! converting file operations into operations against a disaggregated KV
//! store. The paper deliberately leaves the KV store's design out of
//! scope; this crate supplies a correct stand-in with the exact operation
//! set KVFS requires:
//!
//! - ordered point ops (`get`/`put`/`delete`),
//! - `commit`, the conditional multi-key write: checks that keys hold
//!   given values or are absent, then puts and deletes, all in one
//!   atomic request — each KVFS namespace mutation is one (`put` and
//!   `delete` are one-write commits),
//! - ordered prefix scans (`scan_prefix`) for directory listings keyed by
//!   the parent-inode prefix,
//! - in-place sub-value access: the multi-get (`read_subs`) that reads a
//!   big-file read's blocks in one request, and the multi-put
//!   (`write_subs`) that writes a flush batch's blocks in one
//!   (`read_sub`/`write_sub` are their one-key forms).
//!
//! The store's price for the modelled figures, `KvTimingModel`, lives
//! with the other Table 1 models in `dpc-bench`.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod store;

pub use store::{Check, KvStats, KvStore, Write};
