//! The one schema: metric names, units, directions and bounds (the same
//! rows `BENCHMARK.json` lists), how each is computed from what the
//! children printed, and how a run is printed.

use std::collections::BTreeMap;

use dpc_pcie::PcieModel;

use crate::stats::{iqr_over_median, median, quartiles};
use crate::workload::Class;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the client sees. The three per-op counts are reported
/// as `1 + count/op`: `read_hit_8k` crosses the link zero times, and a
/// metric whose median is 0 has no relative bound. The timing bounds are
/// three times the run-to-run spread seen on the shared 2-vCPU box (5-14 %
/// depending on the hour), not what one would want from a quiet machine;
/// the counts repeat exactly per seed and within 0.8 % across seeds, and
/// carry the fine signal.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("op_p50_us", "us", "lower", 0.25),
    e2e("host_cpu_us_per_op", "us", "lower", 0.25),
    e2e("link_dma_ops_per_op", "count", "lower", 0.03),
    e2e("link_bytes_per_op", "B", "lower", 0.03),
    e2e("backend_ops_per_op", "count", "lower", 0.03),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.05),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// `<crate>.<module>.<metric>`. Counts are deltas over the measured
/// rounds; `*_us` probe metrics are filled by the traced run and read 0
/// in an untraced one.
pub const PER_LAYER: [MetricDef; 101] = [
    layer("core.adapter.read_p50_us", "us", "lower"),
    layer("core.adapter.write_p50_us", "us", "lower"),
    layer("core.adapter.fsync_p50_us", "us", "lower"),
    layer("core.adapter.stat_p50_us", "us", "lower"),
    layer("core.adapter.open_close_p50_us", "us", "lower"),
    layer("core.adapter.create_close_p50_us", "us", "lower"),
    layer("core.adapter.unlink_p50_us", "us", "lower"),
    layer("core.adapter.readdir_p50_us", "us", "lower"),
    layer("core.adapter.dfs_read_p50_us", "us", "lower"),
    layer("core.adapter.dfs_write_p50_us", "us", "lower"),
    layer("core.adapter.dfs_getattr_p50_us", "us", "lower"),
    layer("core.adapter.op_p99_us", "us", "lower"),
    layer("core.adapter.self_us_per_op", "us", "lower"),
    layer("cache.host.hit_ratio", "ratio", "higher"),
    layer("cache.host.lookups_per_op", "count", "lower"),
    layer("cache.host.hit_us", "us", "lower"),
    layer("cache.host.absorb_us", "us", "lower"),
    layer("cache.host.evictions_per_op", "count", "lower"),
    layer("cache.host.evict_stalls_per_kop", "count", "lower"),
    layer("cache.host.write_throughs_per_kop", "count", "lower"),
    layer("cache.host.meta_retries_per_kop", "count", "lower"),
    layer("cache.host.lock_fallbacks", "count", "lower"),
    layer("nvmefs.pool.calls_per_op", "count", "lower"),
    layer("nvmefs.pool.doorbells_per_call", "count", "lower"),
    layer("nvmefs.pool.rtt_us", "us", "lower"),
    layer("nvmefs.pool.rtt_8k_us", "us", "lower"),
    layer("nvmefs.pool.rtt_after_idle_us", "us", "lower"),
    layer("nvmefs.pool.full_stalls", "count", "lower"),
    layer("nvmefs.pool.retries", "count", "lower"),
    layer("nvmefs.pool.timeouts", "count", "lower"),
    layer("pcie.dma_ops_per_op", "count", "lower"),
    layer("pcie.dma_bytes_per_op", "B", "lower"),
    layer("pcie.doorbells_per_op", "count", "lower"),
    layer("pcie.atomics_per_op", "count", "lower"),
    layer("pcie.zc_dma_ops_per_op", "count", "higher"),
    layer("pcie.staged_bytes_per_op", "B", "lower"),
    layer("pcie.bounces_per_op", "count", "lower"),
    layer("pcie.dma_8k_us", "us", "lower"),
    layer("pcie.link_model_us_per_op", "us", "lower"),
    layer("core.dispatch.handle_read_us", "us", "lower"),
    layer("core.dispatch.handle_write_us", "us", "lower"),
    layer("core.dispatch.handle_fsync_us_per_page", "us", "lower"),
    layer("core.dispatch.handle_meta_us", "us", "lower"),
    layer("core.dispatch.self_us_per_op", "us", "lower"),
    layer("core.runtime.requests_per_op", "count", "lower"),
    layer("core.runtime.svc_cpu_us_per_op", "us", "lower"),
    layer("core.runtime.prefetch_cpu_us_per_op", "us", "lower"),
    layer("core.runtime.flusher_cpu_us_per_op", "us", "lower"),
    layer("cache.control.fill_us_per_page", "us", "lower"),
    layer("cache.control.flush_us_per_page", "us", "lower"),
    layer("cache.control.vector_fills_per_op", "count", "higher"),
    layer("cache.control.flush_pages_per_fsync", "count", "lower"),
    layer("cache.control.extents_per_fsync", "count", "lower"),
    layer("cache.control.pages_per_extent", "count", "higher"),
    layer("cache.control.flush_retries", "count", "lower"),
    layer("cache.control.flush_failures", "count", "lower"),
    layer("cache.readahead.async_fills_per_op", "count", "higher"),
    layer("cache.readahead.useful_ratio", "ratio", "higher"),
    layer("cache.readahead.throttled_per_kop", "count", "lower"),
    layer("cache.readahead.dropped_per_kop", "count", "lower"),
    layer("cache.readahead.on_read_us", "us", "lower"),
    layer("cache.wal.appends_per_op", "count", "lower"),
    layer("cache.wal.bytes_per_op", "B", "lower"),
    layer("cache.wal.append_us", "us", "lower"),
    layer("cache.meta.attr_hit_ratio", "ratio", "higher"),
    layer("cache.meta.dentry_hit_ratio", "ratio", "higher"),
    layer("cache.meta.get_attr_us", "us", "lower"),
    layer("kvfs.fs.read_8k_us", "us", "lower"),
    layer("kvfs.fs.read_extent_us_per_page", "us", "lower"),
    layer("kvfs.fs.write_extent_us_per_page", "us", "lower"),
    layer("kvfs.fs.stat_us", "us", "lower"),
    layer("kvfs.fs.create_us", "us", "lower"),
    layer("kvfs.fs.unlink_us", "us", "lower"),
    layer("kvfs.fs.readdir_256_us", "us", "lower"),
    layer("kvfs.fs.dentry_hit_ratio", "ratio", "higher"),
    layer("kvfs.fs.path_hit_ratio", "ratio", "higher"),
    layer("kvfs.fs.inode_hit_ratio", "ratio", "higher"),
    layer("kvfs.fs.self_us_per_op", "us", "lower"),
    layer("kvstore.store.gets_per_op", "count", "lower"),
    layer("kvstore.store.puts_per_op", "count", "lower"),
    layer("kvstore.store.deletes_per_op", "count", "lower"),
    layer("kvstore.store.scans_per_op", "count", "lower"),
    layer("kvstore.store.sub_reads_per_op", "count", "lower"),
    layer("kvstore.store.sub_writes_per_op", "count", "lower"),
    layer("kvstore.store.get_us", "us", "lower"),
    layer("kvstore.store.put_us", "us", "lower"),
    layer("kvstore.store.read_sub_8k_us", "us", "lower"),
    layer("kvstore.store.write_sub_8k_us", "us", "lower"),
    layer("kvstore.store.scan_256_us", "us", "lower"),
    layer("kvstore.store.retries", "count", "lower"),
    layer("dfs.client.read_block_us", "us", "lower"),
    layer("dfs.client.write_block_us", "us", "lower"),
    layer("dfs.client.mds_rpcs_per_op", "count", "lower"),
    layer("dfs.client.ds_rpcs_per_op", "count", "lower"),
    layer("dfs.client.reconstructions", "count", "lower"),
    layer("ec.encode_8k_us", "us", "lower"),
    layer("bench.round_drift", "ratio", "lower"),
    layer("bench.round_spread", "ratio", "lower"),
    layer("bench.threads", "count", "lower"),
    layer("trace.overhead_ratio", "ratio", "higher"),
    layer("trace.unattributed_us_per_op", "us", "lower"),
];

/// One round as a child printed it.
#[derive(Clone, Copy)]
pub struct RoundRec {
    pub traced: bool,
    pub ops: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub p50_us: f64,
}

/// Everything one child printed.
#[derive(Default)]
pub struct ChildRec {
    pub rounds: Vec<RoundRec>,
    /// `class name -> (p50 µs, samples)`.
    pub classes: BTreeMap<String, (f64, u64)>,
    pub counters: BTreeMap<String, u64>,
    pub values: BTreeMap<String, f64>,
    /// `dpu-*` thread name -> on-CPU share of the last measured round.
    pub threads: Vec<(String, f64)>,
    pub probes: BTreeMap<String, f64>,
    pub spans: Option<String>,
    pub done: bool,
}

impl ChildRec {
    /// Parse the child line protocol; unknown or malformed lines are
    /// errors (a child that prints garbage did not run correctly).
    pub fn parse(text: &str) -> Result<ChildRec, String> {
        let mut rec = ChildRec::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("bad child line: {line:?}");
            let num = |s: &str| s.parse::<f64>().map_err(|_| bad());
            let int = |s: &str| s.parse::<u64>().map_err(|_| bad());
            match f.as_slice() {
                ["round", kind, ops, wall, cpu, p50] => rec.rounds.push(RoundRec {
                    traced: *kind == "T",
                    ops: int(ops)?,
                    wall_ns: int(wall)?,
                    cpu_ns: int(cpu)?,
                    p50_us: num(p50)?,
                }),
                ["class", name, p50, n] => {
                    rec.classes.insert(name.to_string(), (num(p50)?, int(n)?));
                }
                ["counter", name, v] => {
                    rec.counters.insert(name.to_string(), int(v)?);
                }
                ["value", name, v] => {
                    rec.values.insert(name.to_string(), num(v)?);
                }
                ["thread", name, share] => rec.threads.push((name.to_string(), num(share)?)),
                ["probe", name, v] => {
                    rec.probes.insert(name.to_string(), num(v)?);
                }
                ["spans", path] => rec.spans = Some(path.to_string()),
                ["done"] => rec.done = true,
                [] => {}
                _ => return Err(bad()),
            }
        }
        Ok(rec)
    }

    fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn untraced(&self) -> impl Iterator<Item = &RoundRec> {
        self.rounds.iter().filter(|r| !r.traced)
    }

    /// Time per op of the last rounds over that of the first rounds.
    fn drift(&self) -> f64 {
        let t: Vec<f64> = self
            .untraced()
            .map(|r| r.wall_ns as f64 / r.ops as f64)
            .collect();
        let k = (t.len() / 2).min(2);
        if k == 0 {
            return 1.0;
        }
        let first: f64 = t[..k].iter().sum();
        let last: f64 = t[t.len() - k..].iter().sum();
        last / first
    }
}

/// One run (all its children), reduced to metric values.
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub why_incorrect: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Per-round samples behind each timing metric, for the spread rows.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub threads: Vec<(String, f64)>,
    pub spans: Option<String>,
}

/// Per-layer values by name; setting a name the table lacks is a bug.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn zeroed() -> Layers {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn reduce(
    workload: &str,
    seed: u64,
    traced: bool,
    children: &[ChildRec],
    nproc: usize,
) -> RunReport {
    let mut why = Vec::new();
    let attempted: u64 = children.iter().map(|c| c.value("attempted") as u64).sum();
    let failed: u64 = children.iter().map(|c| c.value("failed") as u64).sum();
    if failed > 0 {
        why.push(format!("{failed} of {attempted} ops failed"));
    }
    if children.iter().any(|c| !c.done) {
        why.push("a child did not finish".to_string());
    }

    let rounds: Vec<RoundRec> = children
        .iter()
        .flat_map(|c| c.untraced().copied())
        .collect();
    let ops_per_s: Vec<f64> = rounds
        .iter()
        .map(|r| r.ops as f64 / (r.wall_ns as f64 / 1e9))
        .collect();
    let p50: Vec<f64> = rounds.iter().map(|r| r.p50_us).collect();
    let cpu: Vec<f64> = rounds
        .iter()
        .map(|r| r.cpu_ns as f64 / 1e3 / r.ops as f64)
        .collect();
    let setup: Vec<f64> = children.iter().map(|c| c.value("setup_s")).collect();
    let rss: Vec<f64> = children.iter().map(|c| c.value("peak_rss_mib")).collect();

    let ops: f64 = children.iter().map(|c| c.value("measured_ops")).sum();
    let fsyncs: f64 = children.iter().map(|c| c.value("measured_fsyncs")).sum();
    let ctr = |name: &str| -> f64 {
        children
            .iter()
            .map(|c| c.counters.get(name).copied().unwrap_or(0))
            .sum::<u64>() as f64
    };
    let per_op = |name: &str| ratio(ctr(name), ops);
    let per_kop = |name: &str| ratio(ctr(name) * 1e3, ops);

    let kv_ops = [
        "gets",
        "puts",
        "deletes",
        "scans",
        "sub_reads",
        "sub_writes",
    ]
    .iter()
    .map(|k| ctr(&format!("kv.{k}")))
    .sum::<f64>();
    let backend = kv_ops + ctr("dfs.mds_rpcs") + ctr("dfs.ds_rpcs");

    let mut e = BTreeMap::new();
    e.insert("ops_per_s", median(&ops_per_s));
    e.insert("op_p50_us", median(&p50));
    e.insert("host_cpu_us_per_op", median(&cpu));
    e.insert("link_dma_ops_per_op", 1.0 + per_op("pcie.dma_ops"));
    e.insert("link_bytes_per_op", 1.0 + per_op("pcie.dma_bytes"));
    e.insert("backend_ops_per_op", 1.0 + ratio(backend, ops));
    e.insert("setup_s", median(&setup));
    e.insert("peak_rss_mib", median(&rss));

    let mut samples = BTreeMap::new();
    samples.insert("ops_per_s", ops_per_s.clone());
    samples.insert("op_p50_us", p50);
    samples.insert("host_cpu_us_per_op", cpu);
    samples.insert("setup_s", setup);
    samples.insert("peak_rss_mib", rss);

    let mut l = Layers::zeroed();
    let child_median =
        |f: &dyn Fn(&ChildRec) -> f64| median(&children.iter().map(f).collect::<Vec<_>>());
    for class in Class::ALL {
        l.set(
            &format!("core.adapter.{}_p50_us", class.name()),
            child_median(&|c| c.classes.get(class.name()).map_or(0.0, |x| x.0)),
        );
    }
    l.set(
        "core.adapter.op_p99_us",
        child_median(&|c| c.value("op_p99_us")),
    );

    let lookups = ctr("cache.hits") + ctr("cache.misses");
    l.set("cache.host.hit_ratio", ratio(ctr("cache.hits"), lookups));
    l.set("cache.host.lookups_per_op", ratio(lookups, ops));
    l.set("cache.host.evictions_per_op", per_op("cache.evictions"));
    l.set(
        "cache.host.evict_stalls_per_kop",
        per_kop("cache.evict_stalls"),
    );
    l.set(
        "cache.host.write_throughs_per_kop",
        per_kop("cache.write_throughs"),
    );
    l.set(
        "cache.host.meta_retries_per_kop",
        per_kop("cache.meta_retries"),
    );
    l.set("cache.host.lock_fallbacks", ctr("cache.lock_fallbacks"));

    l.set("nvmefs.pool.calls_per_op", per_op("pool.submitted"));
    l.set(
        "nvmefs.pool.doorbells_per_call",
        ratio(ctr("pcie.doorbells"), ctr("pool.submitted")),
    );
    l.set("nvmefs.pool.full_stalls", ctr("pool.full_stalls"));
    l.set("nvmefs.pool.retries", ctr("pool.retries"));
    l.set("nvmefs.pool.timeouts", ctr("pool.timeouts"));

    l.set("pcie.dma_ops_per_op", per_op("pcie.dma_ops"));
    l.set("pcie.dma_bytes_per_op", per_op("pcie.dma_bytes"));
    l.set("pcie.doorbells_per_op", per_op("pcie.doorbells"));
    l.set("pcie.atomics_per_op", per_op("pcie.atomics"));
    l.set("pcie.zc_dma_ops_per_op", per_op("pcie.zc_dma_ops"));
    l.set("pcie.staged_bytes_per_op", per_op("pcie.staged_bytes"));
    l.set("pcie.bounces_per_op", per_op("pcie.bounces"));
    let model = PcieModel::default();
    let model_us = ctr("pcie.dma_ops") * model.dma_setup.as_micros()
        + model
            .transfer_time(ctr("pcie.dma_bytes") as u64)
            .as_micros()
        + ctr("pcie.doorbells") * model.doorbell.as_micros()
        + ctr("pcie.atomics") * model.atomic.as_micros();
    l.set("pcie.link_model_us_per_op", ratio(model_us, ops));

    l.set("core.runtime.requests_per_op", per_op("runtime.requests"));
    l.set("core.runtime.svc_cpu_us_per_op", per_op("cpu.svc_ns") / 1e3);
    l.set(
        "core.runtime.prefetch_cpu_us_per_op",
        per_op("cpu.prefetch_ns") / 1e3,
    );
    l.set(
        "core.runtime.flusher_cpu_us_per_op",
        per_op("cpu.flusher_ns") / 1e3,
    );

    l.set(
        "cache.control.vector_fills_per_op",
        per_op("cache.vector_fills"),
    );
    l.set(
        "cache.control.flush_pages_per_fsync",
        ratio(ctr("cache.flush_pages"), fsyncs),
    );
    l.set(
        "cache.control.extents_per_fsync",
        ratio(ctr("cache.extents_flushed"), fsyncs),
    );
    l.set(
        "cache.control.pages_per_extent",
        ratio(ctr("cache.flush_pages"), ctr("cache.extents_flushed")),
    );
    l.set("cache.control.flush_retries", ctr("cache.flush_retries"));
    l.set("cache.control.flush_failures", ctr("cache.flush_failures"));

    l.set(
        "cache.readahead.async_fills_per_op",
        per_op("cache.ra_async_fills"),
    );
    l.set(
        "cache.readahead.useful_ratio",
        ratio(ctr("cache.ra_hits"), ctr("cache.prefetch_inserts")).min(1.0),
    );
    l.set(
        "cache.readahead.throttled_per_kop",
        per_kop("cache.ra_throttled"),
    );
    l.set(
        "cache.readahead.dropped_per_kop",
        per_kop("cache.ra_dropped"),
    );

    l.set("cache.wal.appends_per_op", per_op("cache.wal_appends"));
    l.set("cache.wal.bytes_per_op", per_op("cache.wal_bytes"));
    l.set(
        "cache.meta.attr_hit_ratio",
        ratio(
            ctr("meta.attr_hits"),
            ctr("meta.attr_hits") + ctr("meta.attr_misses"),
        ),
    );
    l.set(
        "cache.meta.dentry_hit_ratio",
        ratio(
            ctr("meta.dentry_hits"),
            ctr("meta.dentry_hits") + ctr("meta.dentry_misses"),
        ),
    );

    for which in ["dentry", "path", "inode"] {
        let (h, m) = (
            ctr(&format!("kvfs.{which}_hits")),
            ctr(&format!("kvfs.{which}_misses")),
        );
        l.set(&format!("kvfs.fs.{which}_hit_ratio"), ratio(h, h + m));
    }
    for which in [
        "gets",
        "puts",
        "deletes",
        "scans",
        "sub_reads",
        "sub_writes",
    ] {
        l.set(
            &format!("kvstore.store.{which}_per_op"),
            per_op(&format!("kv.{which}")),
        );
    }
    l.set("kvstore.store.retries", ctr("kv.retries"));

    l.set("dfs.client.mds_rpcs_per_op", per_op("dfs.mds_rpcs"));
    l.set("dfs.client.ds_rpcs_per_op", per_op("dfs.ds_rpcs"));
    l.set("dfs.client.reconstructions", ctr("dfs.reconstructions"));

    let drift = child_median(&|c| c.drift());
    l.set("bench.round_drift", drift);
    l.set("bench.round_spread", iqr_over_median(&ops_per_s));
    l.set("bench.threads", child_median(&|c| c.value("threads")));

    // The probe phase ran in the first child only.
    let probes = children.first().map(|c| &c.probes);
    for m in &PER_LAYER {
        if let Some(v) = probes.and_then(|p| p.get(m.name)) {
            l.set(m.name, *v);
        }
    }
    if traced {
        let traced_rate: Vec<f64> = children
            .iter()
            .flat_map(|c| c.rounds.iter().filter(|r| r.traced))
            .map(|r| r.ops as f64 / (r.wall_ns as f64 / 1e9))
            .collect();
        l.set(
            "trace.overhead_ratio",
            ratio(median(&traced_rate), median(&ops_per_s)),
        );
        let self_us = child_median(&|c| c.value("adapter_self_us_per_op"));
        l.set("core.adapter.self_us_per_op", self_us);
        // op = adapter self + calls/op x link round trip + DPU handling
        //      + what cannot be reached from outside.
        let mean_us = child_median(&|c| c.value("adapter_mean_us_per_op"));
        let calls = child_median(&|c| c.value("adapter_calls_per_op"));
        let rtt = l.0["nvmefs.pool.rtt_us"];
        // The replay prices one request of this workload's mix at each
        // level; the measured requests per op scale that to one op.
        let replay = |name: &str| probes.and_then(|p| p.get(name)).copied().unwrap_or(0.0);
        let per_op = l.0["core.runtime.requests_per_op"];
        let handle = per_op * replay("replay.handle_us_per_request");
        l.set(
            "core.dispatch.self_us_per_op",
            handle
                - per_op
                    * (replay("replay.below_us_per_request")
                        + replay("replay.control_us_per_request")),
        );
        l.set(
            "kvfs.fs.self_us_per_op",
            per_op * (replay("replay.kvfs_us_per_request") - replay("replay.kv_us_per_request")),
        );
        l.set(
            "trace.unattributed_us_per_op",
            mean_us - self_us - calls * rtt - handle,
        );
    }

    // One generator plus the polling `dpu-*` threads must fit the cores,
    // or the numbers measure the scheduler. A one-core box cannot host
    // the design at all (generator + service thread), so it is not judged.
    let busy = child_median(&|c| c.value("busy_threads"));
    if nproc > 1 && busy > nproc as f64 {
        why.push(format!(
            "{busy} polling threads (generator + busy dpu-*) on {nproc} cores"
        ));
    }
    let mut l = l.0;
    for v in e.values_mut().chain(l.values_mut()) {
        if !v.is_finite() {
            *v = 0.0;
            why.push("a metric was not finite".to_string());
        }
    }

    RunReport {
        workload: workload.to_string(),
        seed,
        traced,
        correct: why.is_empty(),
        attempted: attempted.max(1),
        failed,
        why_incorrect: why,
        end_to_end: e,
        per_layer: l,
        samples,
        threads: children
            .first()
            .map(|c| c.threads.clone())
            .unwrap_or_default(),
        spans: children.first().and_then(|c| c.spans.clone()),
    }
}

impl RunReport {
    /// The human-readable report: every metric by name and unit, the
    /// spread behind each timing, the verdict.
    pub fn print(&self) {
        println!(
            "== dpc-e2e {} seed {} ({}) ==",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" }
        );
        println!("-- end to end");
        for m in &END_TO_END {
            let v = self.end_to_end[m.name];
            match self.samples.get(m.name) {
                Some(s) if s.len() > 1 => {
                    let (q1, _, q3) = quartiles(s);
                    println!(
                        "{:<28} {:>16.4} {:<6} q1 {:.4} q3 {:.4} spread {:.4} n {} (bound {})",
                        m.name,
                        v,
                        m.unit,
                        q1,
                        q3,
                        iqr_over_median(s),
                        s.len(),
                        m.bound
                    );
                    let list: Vec<String> = s.iter().map(|x| format!("{x:.4}")).collect();
                    println!("  samples {}", list.join(" "));
                }
                _ => println!(
                    "{:<28} {:>16.4} {:<6} (bound {})",
                    m.name, v, m.unit, m.bound
                ),
            }
        }
        println!("-- per layer");
        for m in &PER_LAYER {
            println!("{:<44} {:>16.4} {}", m.name, self.per_layer[m.name], m.unit);
        }
        for (name, share) in &self.threads {
            println!(
                "thread {name} on CPU {:.1} % of the last round",
                share * 100.0
            );
        }
        if let Some(path) = &self.spans {
            println!("spans written to {path}");
        }
        println!(
            "attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        for w in &self.why_incorrect {
            println!("INCORRECT: {w}");
        }
    }

    /// The contract's last line: `correct`, `attempted`, `failed`, and the
    /// end-to-end metrics (untraced) or the per-layer metrics (traced).
    pub fn json_line(&self) -> String {
        let (defs, values): (&[MetricDef], &BTreeMap<&'static str, f64>) = if self.traced {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        let metrics: Vec<String> = defs
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, values[m.name], m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(m.better == "higher" || m.better == "lower");
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for w in crate::workload::Workload::ALL {
            assert!(name_ok(w.name()));
            assert!(seen.insert(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert!(!name_ok("bad name") && !name_ok("_x") && !name_ok("µs"));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= setup.bound));
        assert!(setup.bound <= 0.25);
    }

    /// The strings that follow `"key": ` inside the array called `section`.
    fn listed(section: &str, key: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let pat = format!("\"{key}\": \"");
        body.match_indices(&pat)
            .map(|(i, _)| {
                let rest = &body[i + pat.len()..];
                rest[..rest.find('"').expect("string closes")].to_string()
            })
            .collect()
    }

    #[test]
    fn report_and_benchmark_json_agree() {
        let names =
            |defs: &[MetricDef]| defs.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        assert_eq!(listed("end_to_end", "name"), names(&END_TO_END));
        assert_eq!(listed("per_layer", "name"), names(&PER_LAYER));
        let units =
            |defs: &[MetricDef]| defs.iter().map(|m| m.unit.to_string()).collect::<Vec<_>>();
        assert_eq!(listed("end_to_end", "unit"), units(&END_TO_END));
        assert_eq!(listed("per_layer", "unit"), units(&PER_LAYER));
        let better = |defs: &[MetricDef]| {
            defs.iter()
                .map(|m| m.better.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(listed("end_to_end", "better"), better(&END_TO_END));
        assert_eq!(listed("per_layer", "better"), better(&PER_LAYER));
        for m in &END_TO_END {
            let row = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(BENCHMARK_JSON.contains(&row), "BENCHMARK.json lacks {row}");
        }
        let workloads: Vec<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(listed("workloads", "name"), workloads);
        let whys: Vec<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.why().to_string())
            .collect();
        assert_eq!(listed("workloads", "why"), whys);
    }

    fn child(setup: f64, walls: &[u64]) -> ChildRec {
        let mut text = String::new();
        for w in walls {
            text += &format!("round U 1000 {w} {} 1.5\n", w / 2);
        }
        text += "class read 1.5 100\ncounter pcie.dma_ops 3000\ncounter kv.gets 500\n";
        text += &format!("value setup_s {setup}\nvalue peak_rss_mib 100\nvalue threads 3\n");
        text += &format!(
            "value busy_threads 2\nvalue measured_ops {}\n",
            1000 * walls.len()
        );
        text += "value attempted 5000\nvalue failed 0\nthread dpu-svc-0 0.9\ndone\n";
        ChildRec::parse(&text).expect("well-formed child output")
    }

    #[test]
    fn reduce_takes_medians_and_checks_the_verdict() {
        let kids = [
            child(1.0, &[1_000_000, 1_000_000, 1_000_000, 1_000_000]),
            child(3.0, &[2_000_000, 2_000_000, 2_000_000, 2_000_000]),
            child(2.0, &[1_000_000, 1_000_000, 1_000_000, 1_000_000]),
        ];
        let r = reduce("read_hit_8k", 1, false, &kids, 2);
        assert!(r.correct, "{:?}", r.why_incorrect);
        assert_eq!(r.end_to_end["setup_s"], 2.0);
        assert_eq!(r.end_to_end["ops_per_s"], 1e6);
        assert_eq!(r.end_to_end["host_cpu_us_per_op"], 0.5);
        assert_eq!(r.end_to_end["link_dma_ops_per_op"], 1.0 + 9000.0 / 12000.0);
        assert_eq!(r.end_to_end["backend_ops_per_op"], 1.0 + 1500.0 / 12000.0);
        assert_eq!(r.per_layer["bench.round_drift"], 1.0);
        assert_eq!(r.per_layer["core.adapter.read_p50_us"], 1.5);
        assert_eq!(r.attempted, 15000);
        let json = r.json_line();
        assert!(json.starts_with(
            "{\"correct\": true, \"attempted\": 15000, \"failed\": 0, \"metrics\": {\"ops_per_s\""
        ));
        assert_eq!(json.matches("\"value\"").count(), END_TO_END.len());

        // Drift is reported, not judged (selfcheck judges it).
        let drifting = [child(1.0, &[1_000_000, 1_000_000, 1_200_000, 1_200_000])];
        let r = reduce("x", 1, false, &drifting, 2);
        assert!(r.correct);
        assert!((r.per_layer["bench.round_drift"] - 1.2).abs() < 1e-12);
        // Failed ops, more pollers than cores, and a dead child flip it.
        let mut crowded = child(1.0, &[1_000_000, 1_000_000]);
        crowded.values.insert("busy_threads".into(), 3.0);
        assert!(!reduce("x", 1, false, &[crowded], 2).correct);
        let mut bad = child(1.0, &[1_000_000, 1_000_000]);
        bad.values.insert("failed".into(), 1.0);
        assert!(!reduce("x", 1, false, &[bad], 2).correct);
        let mut dead = child(1.0, &[1_000_000, 1_000_000]);
        dead.done = false;
        assert!(!reduce("x", 1, false, &[dead], 2).correct);
        assert!(ChildRec::parse("round U x\n").is_err());
    }
}
