//! The closed-loop discrete-event engine.
//!
//! Every experiment in this repository is a *closed queueing network*: `N`
//! workload threads (customers) each repeatedly issue one operation, wait
//! for it to finish, and issue the next — exactly how fio/vdbench drive a
//! file system at a fixed concurrency. An operation is a [`Plan`]: an
//! ordered sequence of service demands at stations (host CPU, PCIe DMA
//! engine, DPU cores, SSD, network, ...) plus pure delays.
//!
//! The caller supplies a [`Flow`] that builds the plan for each cycle. The
//! flow is where the *functional* layer runs — it encodes real SQEs, walks
//! real descriptor tables, probes real cache buckets — and converts the
//! work it just performed into service demands. The engine then plays those
//! demands through the contended stations in virtual time, which is what
//! produces realistic latency-vs-concurrency and saturation behaviour.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::histogram::LatencyHistogram;
use crate::station::{Station, StationCfg, StationId, StationStats};
use crate::Nanos;

/// One step of an operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Leg {
    /// Occupy one server of `station` for `demand` (possibly queueing first).
    Service { station: StationId, demand: Nanos },
    /// Pure delay with no resource contention (e.g. link propagation).
    Delay(Nanos),
}

impl Leg {
    pub fn service(station: StationId, demand: Nanos) -> Leg {
        Leg::Service { station, demand }
    }
}

/// The plan for one operation cycle of one customer.
#[derive(Default, Debug)]
pub struct Plan {
    /// Statistics class this cycle belongs to (e.g. 0 = read, 1 = write).
    /// Classes are created on first use.
    pub class: usize,
    /// Set to exclude this cycle from throughput/latency statistics
    /// (used by background customers such as the cache flusher).
    pub background: bool,
    pub legs: Vec<Leg>,
}

impl Plan {
    /// Reset for reuse without dropping the legs allocation.
    pub fn clear(&mut self) {
        self.class = 0;
        self.background = false;
        self.legs.clear();
    }

    pub fn push(&mut self, leg: Leg) {
        self.legs.push(leg);
    }

    pub fn service(&mut self, station: StationId, demand: Nanos) {
        self.legs.push(Leg::Service { station, demand });
    }

    pub fn delay(&mut self, d: Nanos) {
        self.legs.push(Leg::Delay(d));
    }
}

/// Builds the per-cycle plan. One flow instance serves all customers.
pub trait Flow {
    /// Fill `plan` (already cleared) for this customer's next operation.
    /// `now` is the virtual time at which the operation starts.
    fn plan(&mut self, customer: usize, cycle: u64, now: Nanos, plan: &mut Plan);

    /// Called when the cycle completes. Default: no-op.
    fn on_complete(&mut self, _customer: usize, _cycle: u64, _now: Nanos, _latency: Nanos) {}
}

impl<F> Flow for F
where
    F: FnMut(usize, u64, Nanos, &mut Plan),
{
    fn plan(&mut self, customer: usize, cycle: u64, now: Nanos, plan: &mut Plan) {
        self(customer, cycle, now, plan)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum EventKind {
    /// Customer begins its next cycle.
    CycleStart(usize),
    /// Customer finished its current leg (service completed or delay elapsed).
    LegDone(usize),
}

#[derive(PartialEq, Eq, Debug)]
struct Event {
    time: Nanos,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Customer {
    plan: Plan,
    leg_idx: usize,
    cycle: u64,
    cycle_start: Nanos,
    /// Station the customer is currently queued at or served by.
    at_station: Option<StationId>,
}

/// Per-class measurements over the measurement window.
#[derive(Clone, Debug)]
pub struct ClassStats {
    pub class: usize,
    pub ops: u64,
    /// Completed operations per virtual second.
    pub throughput: f64,
    pub latency: LatencyHistogram,
}

/// The result of a simulation run.
#[derive(Debug)]
pub struct RunReport {
    /// Length of the measurement window.
    pub measured: Nanos,
    pub classes: Vec<ClassStats>,
    pub stations: Vec<StationStats>,
}

impl RunReport {
    /// Total foreground throughput across all classes, ops/sec.
    pub fn total_throughput(&self) -> f64 {
        self.classes.iter().map(|c| c.throughput).sum()
    }

    pub fn class(&self, class: usize) -> Option<&ClassStats> {
        self.classes.iter().find(|c| c.class == class)
    }

    pub fn station(&self, name: &str) -> Option<&StationStats> {
        self.stations.iter().find(|s| s.name == name)
    }

    /// Average busy servers ("cores consumed") at the named station.
    pub fn busy_cores(&self, name: &str) -> f64 {
        self.station(name).map_or(0.0, |s| s.busy_servers)
    }
}

/// A closed-loop discrete-event simulation.
pub struct Simulation {
    stations: Vec<Station>,
    now: Nanos,
    seq: u64,
    events: BinaryHeap<Reverse<Event>>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    pub fn new() -> Self {
        Simulation {
            stations: Vec::new(),
            now: Nanos::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
        }
    }

    /// Register a station; returns its handle.
    pub fn add_station(&mut self, cfg: StationCfg) -> StationId {
        let id = StationId(self.stations.len());
        self.stations.push(Station::new(cfg));
        id
    }

    pub fn now(&self) -> Nanos {
        self.now
    }

    fn schedule(&mut self, time: Nanos, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse(Event {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// Run `customers` closed-loop customers driven by `flow` for
    /// `warmup + measure` of virtual time; statistics cover only cycles that
    /// both start and finish inside the measurement window.
    pub fn run(
        &mut self,
        flow: &mut dyn Flow,
        customers: usize,
        warmup: Nanos,
        measure: Nanos,
    ) -> RunReport {
        assert!(customers > 0, "need at least one customer");
        assert!(
            measure > Nanos::ZERO,
            "measurement window must be non-empty"
        );
        let mut custs: Vec<Customer> = (0..customers)
            .map(|_| Customer {
                plan: Plan::default(),
                leg_idx: 0,
                cycle: 0,
                cycle_start: Nanos::ZERO,
                at_station: None,
            })
            .collect();

        for c in 0..customers {
            self.schedule(Nanos::ZERO, EventKind::CycleStart(c));
        }

        let end = warmup + measure;
        let mut class_hist: Vec<LatencyHistogram> = Vec::new();
        let mut class_ops: Vec<u64> = Vec::new();
        let mut stats_reset = warmup == Nanos::ZERO;
        if stats_reset {
            for s in &mut self.stations {
                s.reset_stats(Nanos::ZERO);
            }
        }

        while let Some(Reverse(ev)) = self.events.pop() {
            if ev.time > end {
                break;
            }
            self.now = ev.time;
            if !stats_reset && self.now >= warmup {
                for s in &mut self.stations {
                    s.reset_stats(self.now);
                }
                stats_reset = true;
            }
            match ev.kind {
                EventKind::CycleStart(c) => {
                    let cust = &mut custs[c];
                    cust.cycle_start = self.now;
                    cust.leg_idx = 0;
                    let mut plan = std::mem::take(&mut cust.plan);
                    plan.clear();
                    flow.plan(c, cust.cycle, self.now, &mut plan);
                    custs[c].plan = plan;
                    self.start_leg(&mut custs, c);
                }
                EventKind::LegDone(c) => {
                    // Release the station server, if any, and pull the next
                    // queued customer into service.
                    if let Some(sid) = custs[c].at_station.take() {
                        self.finish_service(&mut custs, sid);
                    }
                    custs[c].leg_idx += 1;
                    if custs[c].leg_idx >= custs[c].plan.legs.len() {
                        // Cycle complete.
                        let cust = &mut custs[c];
                        let latency = self.now - cust.cycle_start;
                        let counted =
                            stats_reset && cust.cycle_start >= warmup && !cust.plan.background;
                        if counted {
                            let class = cust.plan.class;
                            while class_hist.len() <= class {
                                class_hist.push(LatencyHistogram::new());
                                class_ops.push(0);
                            }
                            class_hist[class].record(latency);
                            class_ops[class] += 1;
                        }
                        let cycle = cust.cycle;
                        cust.cycle += 1;
                        flow.on_complete(c, cycle, self.now, latency);
                        self.schedule(self.now, EventKind::CycleStart(c));
                    } else {
                        self.start_leg(&mut custs, c);
                    }
                }
            }
        }
        self.now = end;

        let measured = measure;
        let classes = class_hist
            .into_iter()
            .zip(class_ops)
            .enumerate()
            .map(|(class, (latency, ops))| ClassStats {
                class,
                ops,
                throughput: ops as f64 / measured.as_secs(),
                latency,
            })
            .collect();

        let now = self.now;
        let stations = self
            .stations
            .iter_mut()
            .map(|s| {
                s.integrate(now);
                // Stats were reset at the start of the measurement window, so
                // the busy integral covers exactly `measured` of virtual time.
                let busy_servers = s.busy_integral as f64 / measured.as_nanos().max(1) as f64;
                StationStats {
                    name: s.cfg.name.clone(),
                    servers: s.cfg.servers,
                    busy_servers,
                    utilization: busy_servers / s.cfg.servers as f64,
                    ops: s.ops,
                    mean_service: if s.ops == 0 {
                        Nanos::ZERO
                    } else {
                        s.service_sum / s.ops
                    },
                }
            })
            .collect();

        RunReport {
            measured,
            classes,
            stations,
        }
    }

    /// Begin the current leg of customer `c`.
    fn start_leg(&mut self, custs: &mut [Customer], c: usize) {
        assert!(
            !custs[c].plan.legs.is_empty(),
            "Flow::plan produced an empty plan; an empty plan would complete \
             in zero virtual time and livelock the engine — add at least a \
             Delay leg (think time) instead"
        );
        let leg = custs[c].plan.legs[custs[c].leg_idx].clone();
        match leg {
            Leg::Delay(d) => {
                custs[c].at_station = None;
                self.schedule(self.now + d, EventKind::LegDone(c));
            }
            Leg::Service { station, demand } => {
                custs[c].at_station = Some(station);
                let st = &mut self.stations[station.0];
                if st.busy < st.cfg.servers {
                    let actual = st.effective_service(demand);
                    st.integrate(self.now);
                    st.busy += 1;
                    st.ops += 1;
                    st.service_sum += actual;
                    self.schedule(self.now + actual, EventKind::LegDone(c));
                } else {
                    st.queue.push_back((c, demand));
                }
            }
        }
    }

    /// A server at `sid` became free; start the next queued customer.
    fn finish_service(&mut self, custs: &mut [Customer], sid: StationId) {
        let st = &mut self.stations[sid.0];
        st.integrate(self.now);
        if let Some((next, demand)) = st.queue.pop_front() {
            // Busy count unchanged: the freed server is immediately reused.
            let actual = st.effective_service(demand);
            st.ops += 1;
            st.service_sum += actual;
            debug_assert_eq!(custs[next].at_station, Some(sid));
            self.schedule(self.now + actual, EventKind::LegDone(next));
        } else {
            st.busy -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(sim: &mut Simulation, name: &str, servers: usize) -> StationId {
        sim.add_station(StationCfg::new(name, servers))
    }

    #[test]
    fn single_customer_fixed_service() {
        let mut sim = Simulation::new();
        let cpu = sid(&mut sim, "cpu", 1);
        let mut flow = move |_c: usize, _cy: u64, _now: Nanos, plan: &mut Plan| {
            plan.service(cpu, Nanos::from_micros(10.0));
        };
        let report = sim.run(&mut flow, 1, Nanos::ZERO, Nanos::from_millis(10.0));
        let c = report.class(0).unwrap();
        // 10ms / 10us = 1000 ops
        assert_eq!(c.ops, 1000);
        assert!((c.throughput - 100_000.0).abs() / 100_000.0 < 0.01);
        assert_eq!(c.latency.mean(), Nanos::from_micros(10.0));
        // Station is 100% utilized.
        assert!((report.station("cpu").unwrap().utilization - 1.0).abs() < 0.01);
    }

    #[test]
    fn two_customers_one_server_double_latency() {
        let mut sim = Simulation::new();
        let cpu = sid(&mut sim, "cpu", 1);
        let mut flow = move |_c: usize, _cy: u64, _now: Nanos, plan: &mut Plan| {
            plan.service(cpu, Nanos::from_micros(10.0));
        };
        let report = sim.run(
            &mut flow,
            2,
            Nanos::from_millis(1.0),
            Nanos::from_millis(10.0),
        );
        let c = report.class(0).unwrap();
        // Throughput still bounded by the single server: 100k ops/s.
        assert!((c.throughput - 100_000.0).abs() / 100_000.0 < 0.02);
        // Each op now waits behind the other customer: ~20us latency.
        assert!((c.latency.mean().as_micros() - 20.0).abs() < 1.0);
    }

    #[test]
    fn two_servers_restore_latency() {
        let mut sim = Simulation::new();
        let cpu = sid(&mut sim, "cpu", 2);
        let mut flow = move |_c: usize, _cy: u64, _now: Nanos, plan: &mut Plan| {
            plan.service(cpu, Nanos::from_micros(10.0));
        };
        let report = sim.run(
            &mut flow,
            2,
            Nanos::from_millis(1.0),
            Nanos::from_millis(10.0),
        );
        let c = report.class(0).unwrap();
        assert!((c.throughput - 200_000.0).abs() / 200_000.0 < 0.02);
        assert!((c.latency.mean().as_micros() - 10.0).abs() < 0.5);
    }

    #[test]
    fn delay_legs_do_not_contend() {
        let mut sim = Simulation::new();
        let mut flow = move |_c: usize, _cy: u64, _now: Nanos, plan: &mut Plan| {
            plan.delay(Nanos::from_micros(5.0));
            plan.delay(Nanos::from_micros(5.0));
        };
        let report = sim.run(&mut flow, 8, Nanos::ZERO, Nanos::from_millis(1.0));
        let c = report.class(0).unwrap();
        // All 8 customers progress independently: 8 * (1ms/10us) = 800 ops.
        assert_eq!(c.ops, 800);
        assert_eq!(c.latency.mean(), Nanos::from_micros(10.0));
    }

    #[test]
    fn classes_separate_stats() {
        let mut sim = Simulation::new();
        let cpu = sid(&mut sim, "cpu", 4);
        let mut flow = move |c: usize, _cy: u64, _now: Nanos, plan: &mut Plan| {
            plan.class = c % 2;
            let us = if c.is_multiple_of(2) { 10.0 } else { 20.0 };
            plan.service(cpu, Nanos::from_micros(us));
        };
        let report = sim.run(&mut flow, 2, Nanos::ZERO, Nanos::from_millis(10.0));
        assert_eq!(
            report.class(0).unwrap().latency.mean(),
            Nanos::from_micros(10.0)
        );
        assert_eq!(
            report.class(1).unwrap().latency.mean(),
            Nanos::from_micros(20.0)
        );
    }

    #[test]
    fn background_cycles_not_counted() {
        let mut sim = Simulation::new();
        let cpu = sid(&mut sim, "cpu", 1);
        let mut flow = move |c: usize, _cy: u64, _now: Nanos, plan: &mut Plan| {
            plan.background = c == 1;
            plan.service(cpu, Nanos::from_micros(10.0));
        };
        let report = sim.run(&mut flow, 2, Nanos::ZERO, Nanos::from_millis(1.0));
        // Only customer 0's cycles counted, but both contend for the CPU.
        let c = report.class(0).unwrap();
        assert!(c.ops < 100); // would be 100 if alone
        assert!(c.ops > 30);
        // Station still saw both.
        assert!(report.station("cpu").unwrap().ops as i64 - 100 < 3);
    }

    #[test]
    fn multi_leg_pipeline_latency_adds() {
        let mut sim = Simulation::new();
        let a = sid(&mut sim, "a", 1);
        let b = sid(&mut sim, "b", 1);
        let mut flow = move |_c: usize, _cy: u64, _now: Nanos, plan: &mut Plan| {
            plan.service(a, Nanos::from_micros(3.0));
            plan.delay(Nanos::from_micros(1.0));
            plan.service(b, Nanos::from_micros(6.0));
        };
        let report = sim.run(&mut flow, 1, Nanos::ZERO, Nanos::from_millis(1.0));
        assert_eq!(
            report.class(0).unwrap().latency.mean(),
            Nanos::from_micros(10.0)
        );
        // b is the bottleneck at 60% utilization... no wait, single customer:
        // utilization of a = 0.3, b = 0.6.
        assert!((report.station("a").unwrap().utilization - 0.3).abs() < 0.01);
        assert!((report.station("b").unwrap().utilization - 0.6).abs() < 0.01);
    }

    #[test]
    fn warmup_excludes_early_cycles() {
        let mut sim = Simulation::new();
        let cpu = sid(&mut sim, "cpu", 1);
        let mut flow = move |_c: usize, _cy: u64, _now: Nanos, plan: &mut Plan| {
            plan.service(cpu, Nanos::from_micros(100.0));
        };
        let report = sim.run(
            &mut flow,
            1,
            Nanos::from_millis(1.0),
            Nanos::from_millis(1.0),
        );
        // Only the measurement window's ~10 ops are counted.
        let ops = report.class(0).unwrap().ops;
        assert!((9..=11).contains(&ops), "ops={ops}");
    }

    #[test]
    fn oversubscription_degrades_past_knee() {
        // Throughput at 2x servers should be lower than at exactly servers
        // when an oversubscription penalty is configured.
        let run = |customers: usize| {
            let mut sim = Simulation::new();
            let dpu = sim.add_station(StationCfg::new("dpu", 8).with_oversub_penalty(0.6));
            let mut flow = move |_c: usize, _cy: u64, _now: Nanos, plan: &mut Plan| {
                plan.service(dpu, Nanos::from_micros(10.0));
            };
            sim.run(
                &mut flow,
                customers,
                Nanos::from_millis(1.0),
                Nanos::from_millis(20.0),
            )
            .total_throughput()
        };
        let at_knee = run(8);
        let oversub = run(32);
        assert!(
            oversub < at_knee * 0.9,
            "expected degradation: knee={at_knee} oversub={oversub}"
        );
    }

    #[test]
    fn fifo_order_is_preserved() {
        // With one server and deterministic arrival order, completions must
        // respect FIFO: customer 0 then 1 then 2, repeating.
        use std::cell::RefCell;
        use std::rc::Rc;
        let order: Rc<RefCell<Vec<usize>>> = Rc::default();
        let mut sim = Simulation::new();
        let cpu = sid(&mut sim, "cpu", 1);

        struct F {
            cpu: StationId,
            order: Rc<RefCell<Vec<usize>>>,
        }
        impl Flow for F {
            fn plan(&mut self, _c: usize, _cy: u64, _now: Nanos, plan: &mut Plan) {
                plan.service(self.cpu, Nanos::from_micros(10.0));
            }
            fn on_complete(&mut self, c: usize, _cy: u64, _now: Nanos, _lat: Nanos) {
                self.order.borrow_mut().push(c);
            }
        }
        let mut flow = F {
            cpu,
            order: order.clone(),
        };
        sim.run(&mut flow, 3, Nanos::ZERO, Nanos::from_micros(95.0));
        let got = order.borrow().clone();
        assert_eq!(got[..6], [0, 1, 2, 0, 1, 2]);
    }
}
