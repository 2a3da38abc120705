//! # dpc-sim — discrete-event closed-queueing simulator
//!
//! The timing substrate for the DPC reproduction. Hardware the paper relies
//! on (a Huawei QingTian DPU, PCIe 3.0 x16, an ES3600P NVMe SSD, an RDMA
//! fabric) is modelled as contended *stations*; each concurrent workload
//! thread is a *customer* cycling through a per-operation [`Plan`] of
//! service demands. The engine produces the metrics every experiment
//! reports: latency distributions, throughput (IOPS/bandwidth) and
//! station utilisation ("CPU cores consumed").
//!
//! The functional layer (real SQE encoding, real cache probes, real KV
//! mutations) runs inside [`Flow::plan`]; only *time* is virtual.
//!
//! ```
//! use dpc_sim::{Nanos, Plan, Simulation, StationCfg};
//!
//! let mut sim = Simulation::new();
//! let ssd = sim.add_station(StationCfg::new("ssd", 16));
//! let mut flow = move |_cust: usize, _cycle: u64, _now: Nanos, plan: &mut Plan| {
//!     plan.service(ssd, Nanos::from_micros(88.0)); // one 4K read
//! };
//! let report = sim.run(&mut flow, 32, Nanos::from_millis(1.0), Nanos::from_millis(50.0));
//! assert!(report.total_throughput() > 100_000.0); // 16-way SSD, 88us service
//! ```

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod engine;
mod histogram;
mod station;

pub use engine::{ClassStats, Flow, Leg, Plan, RunReport, Simulation};
pub use histogram::LatencyHistogram;
pub use station::{StationCfg, StationId, StationStats};
// Virtual time lives in `dpc-fault`, beside the product it prices; the
// engine's API speaks it, so it is re-exported here.
pub use dpc_fault::Nanos;
