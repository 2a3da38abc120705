//! # dpc-ec — erasure coding for the DPC client stack
//!
//! The paper offloads client-side erasure-code calculation from the host
//! CPU to the DPU (§2.1 "Client-side EC calculation", §4.3). This crate is
//! that computation: GF(2^8) arithmetic and a systematic Reed–Solomon code
//! built from scratch (no external EC crates).
//!
//! ```
//! use dpc_ec::ReedSolomon;
//!
//! let rs = ReedSolomon::new(4, 2); // 4 data + 2 parity
//! let mut shards = vec![vec![0u8; 8]; 6];
//! shards[0] = b"filedata".to_vec();
//! rs.encode(&mut shards).unwrap();
//!
//! // Lose any two shards...
//! let mut damaged: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
//! damaged[0] = None;
//! damaged[4] = None;
//! rs.reconstruct(&mut damaged).unwrap();
//! assert_eq!(damaged[0].as_deref().unwrap(), b"filedata");
//! ```

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod gf256;
mod matrix;
mod rs;

pub use rs::{EcError, ReedSolomon};
