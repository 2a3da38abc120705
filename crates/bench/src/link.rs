//! The nvme-fs crossing: what one modelled nvme-fs command charges the
//! host↔DPU link. Fig 6 calibrates it against the paper's one-thread
//! 20.6/26.6 µs R/W latencies, and every figure that sends a command
//! over nvme-fs charges these legs and no others.
//!
//! A command is two halves around the DPU's work: [`Link::submit`] rings
//! the doorbell, fetches the SQE and moves the write payload to the DPU;
//! [`Link::complete`] moves the read payload back and posts the CQE. Each
//! transfer holds one DMA engine for its setup and the wire for its bytes
//! (a payload's pages pipeline as one engine transaction).

use dpc_nvmefs::{CQE_SIZE, SQE_SIZE};
use dpc_pcie::PcieModel;
use dpc_sim::{Plan, Simulation, StationCfg, StationId};

/// Parallel DMA engines on the DPU.
pub const DMA_ENGINES: usize = 8;

/// The link's two stations, priced by the testbed's [`PcieModel`].
#[derive(Copy, Clone, Debug)]
pub struct Link {
    /// The DPU's DMA engines.
    pub engines: StationId,
    /// The PCIe wire, shared by every transfer.
    pub wire: StationId,
    pcie: PcieModel,
}

impl Link {
    /// Register the link's stations on `sim`.
    pub fn new(sim: &mut Simulation, pcie: PcieModel) -> Link {
        Link {
            engines: sim.add_station(StationCfg::new("dma-engines", DMA_ENGINES)),
            wire: sim.add_station(StationCfg::new("pcie-wire", 1)),
            pcie,
        }
    }

    /// The host's half: the doorbell, the SQE fetch and the
    /// `write_bytes` the command carries to the DPU.
    pub fn submit(&self, write_bytes: u64, plan: &mut Plan) {
        plan.delay(self.pcie.doorbell);
        self.dma(SQE_SIZE as u64, plan);
        self.dma_payload(write_bytes, plan);
    }

    /// The DPU's half: the `read_bytes` the reply carries to the host,
    /// then the CQE.
    pub fn complete(&self, read_bytes: u64, plan: &mut Plan) {
        self.dma_payload(read_bytes, plan);
        self.dma(CQE_SIZE as u64, plan);
    }

    fn dma_payload(&self, bytes: u64, plan: &mut Plan) {
        if bytes > 0 {
            self.dma(bytes, plan);
        }
    }

    fn dma(&self, bytes: u64, plan: &mut Plan) {
        plan.service(self.engines, self.pcie.dma_setup);
        plan.service(self.wire, self.pcie.transfer_time(bytes));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dpc_sim::{Leg, Nanos};

    /// What one plan charges the link. A payload leg goes to the DPU if
    /// it comes before the plan's first leg at the DPU station, and to
    /// the host after it.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Crossings {
        doorbells: usize,
        sqes: usize,
        cqes: usize,
        to_dpu: Vec<Nanos>,
        to_host: Vec<Nanos>,
    }

    impl Link {
        fn crossings(&self, plan: &Plan, dpu: StationId) -> Crossings {
            let mut seen = Crossings::default();
            let mut dpu_worked = false;
            for leg in &plan.legs {
                match *leg {
                    Leg::Delay(d) if d == self.pcie.doorbell => seen.doorbells += 1,
                    Leg::Delay(_) => {}
                    Leg::Service { station, .. } if station == dpu => dpu_worked = true,
                    Leg::Service { station, demand } if station == self.wire => {
                        if demand == self.pcie.transfer_time(SQE_SIZE as u64) {
                            seen.sqes += 1;
                        } else if demand == self.pcie.transfer_time(CQE_SIZE as u64) {
                            seen.cqes += 1;
                        } else if dpu_worked {
                            seen.to_host.push(demand);
                        } else {
                            seen.to_dpu.push(demand);
                        }
                    }
                    Leg::Service { .. } => {}
                }
            }
            seen
        }

        /// Assert `plan` crosses the link exactly once: one doorbell, one
        /// SQE, one CQE, and one payload leg for each direction that
        /// carries bytes (`write_bytes` to the DPU, `read_bytes` back).
        pub(crate) fn assert_crosses_once(
            &self,
            plan: &Plan,
            dpu: StationId,
            write_bytes: u64,
            read_bytes: u64,
        ) {
            let payload = |bytes: u64| match bytes {
                0 => vec![],
                n => vec![self.pcie.transfer_time(n)],
            };
            let want = Crossings {
                doorbells: 1,
                sqes: 1,
                cqes: 1,
                to_dpu: payload(write_bytes),
                to_host: payload(read_bytes),
            };
            assert_eq!(self.crossings(plan, dpu), want);
        }
    }
}
