//! Multi-server FCFS service stations.
//!
//! A station models a contended resource: host CPU cores, DPU cores, a PCIe
//! DMA engine, an SSD's internal parallelism, a network link, a
//! single-threaded virtio HAL thread. A station has `servers` identical
//! servers and one FIFO queue; a customer occupies a server for its service
//! demand, queueing when all servers are busy.

use std::collections::VecDeque;

use crate::Nanos;

/// Opaque handle to a station registered with a [`crate::Simulation`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct StationId(pub(crate) usize);

/// Static configuration of a station.
#[derive(Clone, Debug)]
pub struct StationCfg {
    pub name: String,
    /// Number of identical servers (e.g. CPU cores). Must be >= 1.
    pub servers: usize,
    /// Service-time inflation applied when the station holds more customers
    /// than servers, modelling scheduling/context-switch overhead:
    /// `service *= 1 + oversub_penalty * excess / servers`.
    ///
    /// The paper observes this effect directly: both nvme-fs and virtio-fs
    /// peak at 32 threads and degrade beyond the DPU's 24 physical cores
    /// (§4.1). Zero disables the effect.
    pub oversub_penalty: f64,
}

impl StationCfg {
    pub fn new(name: impl Into<String>, servers: usize) -> Self {
        assert!(servers >= 1, "a station needs at least one server");
        StationCfg {
            name: name.into(),
            servers,
            oversub_penalty: 0.0,
        }
    }

    pub fn with_oversub_penalty(mut self, penalty: f64) -> Self {
        assert!(penalty >= 0.0);
        self.oversub_penalty = penalty;
        self
    }
}

/// Runtime state of a station inside the engine.
pub(crate) struct Station {
    pub(crate) cfg: StationCfg,
    /// Customers waiting for a server: (customer id, demanded service time).
    pub(crate) queue: VecDeque<(usize, Nanos)>,
    /// Servers currently occupied.
    pub(crate) busy: usize,
    /// Time of the last busy-count change, for busy-time integration.
    pub(crate) last_change: Nanos,
    /// Integral of `busy` over time, in server-nanoseconds.
    pub(crate) busy_integral: u128,
    /// Completed services since the last stats reset.
    pub(crate) ops: u64,
    /// Sum of actual (possibly inflated) service times since reset.
    pub(crate) service_sum: Nanos,
}

impl Station {
    pub(crate) fn new(cfg: StationCfg) -> Self {
        Station {
            cfg,
            queue: VecDeque::new(),
            busy: 0,
            last_change: Nanos::ZERO,
            busy_integral: 0,
            ops: 0,
            service_sum: Nanos::ZERO,
        }
    }

    /// Advance the busy-time integral to `now`.
    pub(crate) fn integrate(&mut self, now: Nanos) {
        let dt = now.saturating_sub(self.last_change);
        self.busy_integral += self.busy as u128 * dt.as_nanos() as u128;
        self.last_change = now;
    }

    /// Inflated service time given the current station population.
    pub(crate) fn effective_service(&self, demand: Nanos) -> Nanos {
        if self.cfg.oversub_penalty == 0.0 {
            return demand;
        }
        let in_system = self.busy + self.queue.len();
        let excess = in_system.saturating_sub(self.cfg.servers);
        if excess == 0 {
            demand
        } else {
            let factor = 1.0 + self.cfg.oversub_penalty * excess as f64 / self.cfg.servers as f64;
            demand.scale(factor)
        }
    }

    pub(crate) fn reset_stats(&mut self, now: Nanos) {
        self.integrate(now);
        self.busy_integral = 0;
        self.last_change = now;
        self.ops = 0;
        self.service_sum = Nanos::ZERO;
    }
}

/// Per-station measurements over the measurement window.
#[derive(Clone, Debug)]
pub struct StationStats {
    pub name: String,
    pub servers: usize,
    /// Average number of busy servers, i.e. "cores consumed".
    pub busy_servers: f64,
    /// `busy_servers / servers`, in `[0, 1]`.
    pub utilization: f64,
    /// Completed services.
    pub ops: u64,
    /// Mean actual service time.
    pub mean_service: Nanos,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_builder() {
        let cfg = StationCfg::new("dpu", 24).with_oversub_penalty(0.1);
        assert_eq!(cfg.servers, 24);
        assert_eq!(cfg.oversub_penalty, 0.1);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        StationCfg::new("bad", 0);
    }

    #[test]
    fn busy_integration() {
        let mut s = Station::new(StationCfg::new("cpu", 2));
        s.busy = 2;
        s.last_change = Nanos(100);
        s.integrate(Nanos(600));
        assert_eq!(s.busy_integral, 1000); // 2 servers * 500ns
    }

    #[test]
    fn oversub_inflates_only_past_capacity() {
        let mut s = Station::new(StationCfg::new("dpu", 4).with_oversub_penalty(0.5));
        s.busy = 3;
        assert_eq!(s.effective_service(Nanos(1000)), Nanos(1000));
        s.busy = 4;
        s.queue.push_back((0, Nanos(1)));
        s.queue.push_back((1, Nanos(1)));
        // excess = 2, factor = 1 + 0.5 * 2/4 = 1.25
        assert_eq!(s.effective_service(Nanos(1000)), Nanos(1250));
    }
}
