//! Order statistics, the seeded generator, and the `/proc` parsers.

/// SplitMix64: the benchmark's only source of randomness. The same seed
/// gives the same stream on every box.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one (seed, lane, index) triple: streams of
    /// different workloads, children and rounds never overlap.
    pub fn derive(seed: u64, lane: u64, index: u64) -> Rng {
        Rng(mix(mix(seed ^ 0x9E37_79B9_7F4A_7C15)
            ^ mix(lane)
            ^ mix(index).rotate_left(32)))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n`. The modulo bias is below 2^-40 for every `n`
    /// the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// SplitMix64's finaliser, also used as the block-content hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Linear-interpolated percentile of an ascending slice, `p` in `[0, 1]`.
/// Empty input gives 0.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 0.5)
}

/// First quartile, median, third quartile by Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so the
/// spread printed here is the one the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median; 0 when the median is 0.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Median of integer nanosecond samples, in microseconds. Sorts in place.
pub fn p50_us(samples: &mut [u32]) -> f64 {
    pct_us(samples, 0.5)
}

/// Percentile of integer nanosecond samples, in microseconds. Sorts in
/// place.
pub fn pct_us(samples: &mut [u32], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = p.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let (a, b) = (samples[lo] as f64, samples[hi] as f64);
    (a + (b - a) * (rank - lo as f64)) / 1000.0
}

/// On-CPU nanoseconds from a `schedstat` line (`<run_ns> <wait_ns> <slices>`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set in MiB from `/proc/<pid>/status` text (`VmHWM: <n> kB`).
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .as_deref()
        .and_then(parse_schedstat)
        .unwrap_or(0)
}

pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_vm_hwm_mib)
        .unwrap_or(0.0)
}

/// `(thread name, on-CPU ns)` of every live thread of this process,
/// sorted by name so reports repeat.
pub fn thread_cpu_by_name() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let base = entry.path();
        let name = std::fs::read_to_string(base.join("comm")).unwrap_or_default();
        let cpu = std::fs::read_to_string(base.join("schedstat"))
            .ok()
            .as_deref()
            .and_then(parse_schedstat)
            .unwrap_or(0);
        out.push((name.trim().to_string(), cpu));
    }
    out.sort();
    out
}

extern "C" {
    /// glibc's `sched_setaffinity(2)` wrapper; `pid` 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread (and the threads it spawns from now on) to
/// `cpu`. Returns whether the kernel accepted it; callers treat a refusal
/// as "run unpinned".
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= 64 {
        return false;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live, aligned 8-byte CPU set and the size passed
    // is its size; the call reads it and touches no other memory.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.0), 1.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        let mut ns = [3000u32, 1000, 2000];
        assert_eq!(p50_us(&mut ns), 2.0);
        assert_eq!(pct_us(&mut ns, 1.0), 3.0);
        assert_eq!(pct_us(&mut [], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn proc_parsers() {
        assert_eq!(parse_schedstat("123456789 42 7\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
        let status = "Name:\tdpc-e2e\nVmPeak:\t  900 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
        // The live readers work on this box.
        assert!(peak_rss_mib() > 0.0);
        assert!(!thread_cpu_by_name().is_empty());
    }

    #[test]
    fn rng_is_seeded_and_lanes_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::derive(7, 1, 0);
            (0..8).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::derive(7, 1, 0);
            (0..8).map(|_| r.next()).collect()
        };
        assert_eq!(a, b);
        for (seed, lane, index) in [(8, 1, 0), (7, 2, 0), (7, 1, 1)] {
            let mut r = Rng::derive(seed, lane, index);
            let c: Vec<u64> = (0..8).map(|_| r.next()).collect();
            assert_ne!(a, c);
        }
        let mut r = Rng::derive(1, 0, 0);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }
}
