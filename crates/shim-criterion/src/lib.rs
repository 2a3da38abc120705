//! Offline shim for the `criterion` crate.
//!
//! The build environment has no crates.io access, so this workspace vendors
//! the slice of the criterion API its benches use: [`Criterion`] with the
//! builder knobs, [`BenchmarkGroup`] (`throughput`, `bench_function`,
//! `finish`), [`Bencher::iter`] / [`Bencher::iter_batched`], and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement is deliberately simple: warm up, calibrate an iteration
//! count so one sample lands near `measurement_time / sample_size`, take
//! `sample_size` samples, and report the median ns/iter (plus derived
//! throughput) on stdout. No plots, no statistical regression testing.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Units for derived throughput reporting.
#[derive(Copy, Clone, Debug)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// Batch sizing hint for [`Bencher::iter_batched`]; the shim measures
/// per-invocation either way, so the variants only document intent.
#[derive(Copy, Clone, Debug)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Benchmark harness configuration and entry point.
#[derive(Clone, Debug)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(500),
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let (cfg, id) = (self.clone(), name.to_string());
        run_one(&cfg, &id, None, f);
        self
    }
}

/// A named group of related benchmarks sharing a throughput setting.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, name);
        run_one(&self.criterion.clone(), &id, self.throughput, f);
        self
    }

    pub fn finish(self) {}
}

/// Passed to each benchmark closure; collects one timing result.
pub struct Bencher {
    cfg: Criterion,
    /// Median nanoseconds per iteration, filled in by `iter*`.
    ns_per_iter: f64,
}

impl Bencher {
    /// Time `routine` over many iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let warm_until = Instant::now() + self.cfg.warm_up_time;
        while Instant::now() < warm_until {
            black_box(routine());
        }

        // Calibrate: double the per-sample iteration count until one
        // sample takes at least its share of the measurement budget.
        let target = self
            .cfg
            .measurement_time
            .div_f64(self.cfg.sample_size as f64);
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= target || iters >= 1 << 30 {
                break;
            }
            iters = if elapsed.is_zero() {
                iters * 8
            } else {
                (iters * 2).max(
                    (target.as_nanos() as u64 / elapsed.as_nanos().max(1) as u64).min(iters * 8),
                )
            };
        }

        let mut samples = Vec::with_capacity(self.cfg.sample_size);
        for _ in 0..self.cfg.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.ns_per_iter = median(&mut samples);
    }

    /// Time `routine` on fresh inputs from `setup`; setup time is excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warm_until = Instant::now() + self.cfg.warm_up_time;
        while Instant::now() < warm_until {
            black_box(routine(setup()));
        }

        let deadline = Instant::now() + self.cfg.measurement_time;
        let mut samples = Vec::new();
        while Instant::now() < deadline {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            samples.push(start.elapsed().as_nanos() as f64);
        }
        if samples.is_empty() {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            samples.push(start.elapsed().as_nanos() as f64);
        }
        self.ns_per_iter = median(&mut samples);
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn run_one<F>(cfg: &Criterion, id: &str, throughput: Option<Throughput>, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        cfg: cfg.clone(),
        ns_per_iter: 0.0,
    };
    f(&mut bencher);
    let ns = bencher.ns_per_iter;
    let rate = match throughput {
        Some(Throughput::Bytes(n)) if ns > 0.0 => {
            format!("  ({:.1} MiB/s)", n as f64 / ns * 1e9 / (1024.0 * 1024.0))
        }
        Some(Throughput::Elements(n)) if ns > 0.0 => {
            format!("  ({:.0} elem/s)", n as f64 / ns * 1e9)
        }
        _ => String::new(),
    };
    println!("{id:<48} time: {}{rate}", fmt_ns(ns));
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Bundle benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Emit a `main` that runs the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_measures_and_reports() {
        let mut c = Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(1));
        let mut g = c.benchmark_group("shim");
        g.throughput(Throughput::Bytes(4096));
        let mut ran = 0u64;
        g.bench_function("spin", |b| {
            b.iter(|| {
                ran += 1;
                black_box(ran)
            })
        });
        g.finish();
        assert!(ran > 0);
    }

    #[test]
    fn iter_batched_runs_setup_per_invocation() {
        let mut c = Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1));
        let mut setups = 0u64;
        c.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    vec![0u8; 64]
                },
                |v| v.iter().map(|&b| b as u64).sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        assert!(setups > 0);
    }
}
