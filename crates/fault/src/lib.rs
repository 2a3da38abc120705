//! # dpc-fault — seeded faults, the crash switch and virtual time
//!
//! The one crate every product crate names, and it names no `dpc` crate.
//! It holds what the product needs from its test bench and nothing more:
//!
//! - [`FaultPlan`], the registry of named fault sites the transport, the
//!   data servers, the KV store and the cache consult on every pass, and
//!   [`CrashSwitch`], the DPU crash latch (DESIGN.md §13);
//! - [`Nanos`], the virtual-time type the link and device timing models
//!   price in. The discrete-event simulator (`dpc-sim`) runs on it too,
//!   and re-exports it;
//! - [`splitmix64`], the generator each fault site draws from, which the
//!   test model (`dpc-testkit`) re-exports for its seeded schedules.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod fault;
mod time;

pub use fault::{splitmix64, CrashSwitch, FaultMode, FaultPlan, FaultSite, FaultSpec};
pub use time::Nanos;
