//! # dpc-codec — data-integrity checksums
//!
//! [`crc32c`]: the CRC32C (Castagnoli) guard every
//! DFS shard and every WAL record carries, computed by carry-less-multiply
//! folding or the `crc32` instruction where the CPU has them; and
//! [`crc32c_tier`], which names the tier this CPU runs (DESIGN.md §11.3).
//!
//! §3.3 of the paper lists "compression, DIF, EC" as flush-time compute
//! "as needed". EC lives in `dpc-ec` and runs in the offloaded DFS
//! client; compression and DIF tags on flush are a stated divergence
//! (DESIGN.md §14.4) and are not implemented here.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod crc;

pub use crc::{crc32c, tier as crc32c_tier};
