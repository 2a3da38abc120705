//! One child process: set up a world, run fixed-op-count rounds against
//! it from one generator thread, and print raw results for the parent.
//!
//! Line protocol on stdout (one record per line, space-separated):
//! `round <kind> <ops> <wall_ns> <cpu_ns> <p50_us>`, `class <name> <p50_us>
//! <samples>`, `counter <name> <delta>`, `value <name> <f64>`,
//! `thread <name> <cpu_share>`, `probe <metric> <value>`.

use std::io::Write;
use std::time::Instant;

use crate::counters::{self, Counters};
use crate::probe;
use crate::stats::{self, thread_cpu_ns};
use crate::trace::Spans;
use crate::workload::{generate, pin_client, Class, Stream, Workload, World};

/// Op latency is clocked on every 7th op: coprime with every mix period
/// (10, 65), so every position of a cycle is sampled, and two clock
/// reads per seven ops stay under 2 % of the cheapest op.
pub const SAMPLE_EVERY: usize = 7;

/// A `dpu-*` thread on CPU for more than this share of a round counts as
/// a polling thread against the core budget.
const BUSY_SHARE: f64 = 0.5;

pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    pub child: u32,
    /// Measured (untraced) rounds.
    pub rounds: u32,
    /// Traced rounds run after the measured ones (0 = untraced run).
    pub traced_rounds: u32,
    /// Run the per-layer probe phase and write the span file.
    pub probe: bool,
}

struct Round {
    wall_ns: u64,
    cpu_ns: u64,
    failed: u64,
}

/// Untraced round: one wall-clock and one thread-CPU read around the
/// whole round, op latency on every [`SAMPLE_EVERY`]th op.
fn run_round(world: &mut World, stream: &Stream, samples: &mut [Vec<u32>]) -> Round {
    let mut failed = 0u64;
    let mut until_sample = 0usize;
    let cpu0 = thread_cpu_ns();
    let t0 = Instant::now();
    for op in &stream.ops {
        if until_sample == 0 {
            until_sample = SAMPLE_EVERY;
            let s = Instant::now();
            let ok = world.exec(op, stream);
            let ns = s.elapsed().as_nanos().min(u32::MAX as u128) as u32;
            samples[op.class() as usize].push(ns);
            failed += !ok as u64;
        } else {
            failed += !world.exec(op, stream) as u64;
        }
        until_sample -= 1;
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    Round {
        wall_ns,
        cpu_ns: thread_cpu_ns() - cpu0,
        failed,
    }
}

/// Traced round: a span around every op, with the number of link calls
/// the op made (so host-only ops can be told from crossing ones).
fn run_round_traced(world: &mut World, stream: &Stream, spans: &mut Spans) -> Round {
    let mut failed = 0u64;
    let cpu0 = thread_cpu_ns();
    let t0 = Instant::now();
    for op in &stream.ops {
        let calls0 = world.fs.pool().stats().submitted;
        let start = spans.now_ns();
        let ok = world.exec(op, stream);
        let end = spans.now_ns();
        let calls = world.fs.pool().stats().submitted - calls0;
        spans.adapter(op.class(), start, end, calls as u32);
        failed += !ok as u64;
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    Round {
        wall_ns,
        cpu_ns: thread_cpu_ns() - cpu0,
        failed,
    }
}

fn overall_p50_us(samples: &[Vec<u32>]) -> f64 {
    let mut all: Vec<u32> = samples.iter().flatten().copied().collect();
    stats::p50_us(&mut all)
}

pub fn run(args: &ChildArgs) -> Result<(), String> {
    let started = Instant::now();
    let w = args.workload;
    let out = std::io::stdout();
    let mut out = out.lock();
    let mut emit = |line: String| {
        // The parent reads a pipe; a write error means it is gone.
        let _ = writeln!(out, "{line}");
    };

    // A refusal (one core, a restrictive cpuset) means: run unpinned.
    pin_client();
    let mut world = World::build(w, args.seed)?;
    let n = w.ops_per_round();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    let (warm_ops, warm_failed) = world.warm_pass();
    attempted += warm_ops;
    failed += warm_failed;
    let mut stream = Stream::default();
    let mut samples: Vec<Vec<u32>> = Class::ALL.iter().map(|_| Vec::new()).collect();
    // Warm-up round: round index 0 of this child's streams, never measured.
    generate(w, args.seed, args.child, 0, n, &mut stream);
    let warm = run_round(&mut world, &stream, &mut samples);
    attempted += n as u64;
    failed += warm.failed;
    samples.iter_mut().for_each(Vec::clear);
    let setup_s = started.elapsed().as_secs_f64();

    // Measured rounds. Counters are read at round boundaries only.
    let mut class_samples: Vec<Vec<u32>> = Class::ALL.iter().map(|_| Vec::new()).collect();
    let mut measured = Counters::new();
    let mut busy_threads = 1usize; // the generator
    for r in 1..=args.rounds {
        generate(w, args.seed, args.child, r, n, &mut stream);
        let c0 = counters::snapshot(&world.dpc);
        let round = run_round(&mut world, &stream, &mut samples);
        let spent = counters::delta(&counters::snapshot(&world.dpc), &c0);
        attempted += n as u64;
        failed += round.failed;
        emit(format!(
            "round U {n} {} {} {}",
            round.wall_ns,
            round.cpu_ns,
            overall_p50_us(&samples)
        ));
        for (all, s) in class_samples.iter_mut().zip(samples.iter_mut()) {
            all.append(s);
        }
        if r == args.rounds {
            // The core budget is judged on the last round's DPU CPU time.
            for (role, key) in [
                ("dpu-svc", "cpu.svc_ns"),
                ("dpu-prefetch", "cpu.prefetch_ns"),
                ("dpu-flusher", "cpu.flusher_ns"),
            ] {
                let share = spent[key] as f64 / round.wall_ns as f64;
                busy_threads += (share > BUSY_SHARE) as usize;
                emit(format!("thread {role} {share}"));
            }
        }
        for (k, v) in spent {
            *measured.entry(k).or_insert(0) += v;
        }
    }
    emit(format!(
        "value measured_ops {}",
        n as u64 * args.rounds as u64
    ));
    let fsyncs = stream
        .ops
        .iter()
        .filter(|o| o.class() == Class::Fsync)
        .count();
    emit(format!(
        "value measured_fsyncs {}",
        fsyncs as u64 * args.rounds as u64
    ));

    // Traced rounds: same kind of stream, a span around every op.
    let mut spans = Spans::new(started);
    for r in 0..args.traced_rounds {
        generate(
            w,
            args.seed,
            args.child,
            args.rounds + 1 + r,
            n,
            &mut stream,
        );
        spans.begin_round(n);
        let round = run_round_traced(&mut world, &stream, &mut spans);
        attempted += n as u64;
        failed += round.failed;
        let mut lat = spans.round_latencies();
        emit(format!(
            "round T {n} {} {} {}",
            round.wall_ns,
            round.cpu_ns,
            stats::p50_us(&mut lat)
        ));
    }
    if args.traced_rounds > 0 {
        // Per-class numbers of a traced run come from its spans (every op).
        class_samples = spans.class_latencies();
        let (self_us, mean_us, calls) = spans.self_time_per_op();
        emit(format!("value adapter_self_us_per_op {self_us}"));
        emit(format!("value adapter_mean_us_per_op {mean_us}"));
        emit(format!("value adapter_calls_per_op {calls}"));
    }
    let mut all: Vec<u32> = class_samples.iter().flatten().copied().collect();
    emit(format!("value op_p99_us {}", stats::pct_us(&mut all, 0.99)));
    for (class, s) in Class::ALL.iter().zip(class_samples.iter_mut()) {
        emit(format!(
            "class {} {} {}",
            class.name(),
            stats::p50_us(s),
            s.len()
        ));
    }
    for (k, v) in &measured {
        emit(format!("counter {k} {v}"));
    }

    let threads = stats::thread_cpu_by_name().len();
    let (checked, bad) = world.final_check();
    attempted += checked;
    failed += bad;

    if args.probe {
        // Replay the head of the first traced round against each layer.
        generate(w, args.seed, args.child, args.rounds + 1, n, &mut stream);
        stream.ops.truncate(probe::REPLAY_OPS);
        for (metric, value) in probe::run(&world, &stream, &mut spans) {
            emit(format!("probe {metric} {value}"));
        }
        match spans.write_jsonl(w.name(), args.seed) {
            Ok(path) => emit(format!("spans {}", path.display())),
            Err(e) => return Err(format!("writing spans: {e}")),
        }
    }

    emit(format!("value setup_s {setup_s}"));
    emit(format!("value peak_rss_mib {}", stats::peak_rss_mib()));
    emit(format!("value threads {threads}"));
    emit(format!("value busy_threads {busy_threads}"));
    emit(format!("value attempted {attempted}"));
    emit(format!("value failed {failed}"));
    emit("done".to_string());
    Ok(())
}
