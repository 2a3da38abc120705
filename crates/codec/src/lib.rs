//! # dpc-codec — data-integrity checksums
//!
//! [`crc32c`] / [`crc32c_update`]: the CRC32C (Castagnoli) guard every
//! DFS shard and every WAL record carries, computed with the `crc32`
//! instruction where the CPU has it (DESIGN.md §11.3).
//!
//! §3.3 of the paper lists "compression, DIF, EC" as flush-time compute
//! "as needed". EC lives in `dpc-ec` and runs in the offloaded DFS
//! client; compression and DIF tags on flush are a stated divergence
//! (DESIGN.md §14.4) and are not implemented here.

mod crc;

pub use crc::{crc32c, update as crc32c_update};
