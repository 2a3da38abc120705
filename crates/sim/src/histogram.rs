//! Log-bucketed latency histogram with bounded relative error.
//!
//! Latency distributions in the experiments span 1 µs to tens of
//! milliseconds, so a linear histogram is impractical. [`LatencyHistogram`]
//! uses log2 major buckets each split into 16 linear sub-buckets, giving a
//! worst-case quantile error of ~6% while staying a fixed few KiB in size.

use crate::Nanos;

const SUB_BITS: u32 = 4;
const SUB_COUNT: usize = 1 << SUB_BITS; // 16 sub-buckets per octave
const OCTAVES: usize = 44; // covers up to ~2^44 ns (~4.8 hours)

/// A fixed-size log-bucketed histogram of durations.
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; OCTAVES * SUB_COUNT],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        if value < SUB_COUNT as u64 {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros();
        let shift = octave - SUB_BITS;
        let sub = ((value >> shift) as usize) & (SUB_COUNT - 1);
        let major = (octave - SUB_BITS + 1) as usize;
        (major * SUB_COUNT + sub).min(OCTAVES * SUB_COUNT - 1)
    }

    /// The representative (midpoint) value for a bucket index.
    fn value_of(index: usize) -> u64 {
        if index < SUB_COUNT {
            return index as u64;
        }
        let major = (index / SUB_COUNT) as u32;
        let sub = (index % SUB_COUNT) as u64;
        let shift = major + SUB_BITS - 1 - SUB_BITS;
        let base = 1u64 << (major + SUB_BITS - 1);
        base + (sub << shift) + (1u64 << shift) / 2
    }

    pub fn record(&mut self, value: Nanos) {
        let v = value.as_nanos();
        self.buckets[Self::index_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            Nanos((self.sum / self.count as u128) as u64)
        }
    }

    pub fn min(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            Nanos(self.min)
        }
    }

    pub fn max(&self) -> Nanos {
        Nanos(self.max)
    }

    /// Quantile in `[0, 1]`. Exact at the bucket granularity; interior
    /// buckets report their midpoint, clamped to the observed min/max.
    pub fn quantile(&self, q: f64) -> Nanos {
        if self.count == 0 {
            return Nanos::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Nanos(Self::value_of(i).clamp(self.min, self.max));
            }
        }
        Nanos(self.max)
    }

    pub fn p50(&self) -> Nanos {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> Nanos {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl core::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), Nanos::ZERO);
        assert_eq!(h.p99(), Nanos::ZERO);
    }

    #[test]
    fn single_value() {
        let mut h = LatencyHistogram::new();
        h.record(Nanos(20_600));
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), Nanos(20_600));
        assert_eq!(h.min(), Nanos(20_600));
        assert_eq!(h.max(), Nanos(20_600));
        // quantile is clamped to observed bounds for single values
        assert_eq!(h.p50(), Nanos(20_600));
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(Nanos(v));
        }
        assert_eq!(h.quantile(0.0), Nanos(0));
        assert_eq!(h.max(), Nanos(15));
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = LatencyHistogram::new();
        // Uniform 1..=100_000 ns
        for v in 1..=100_000u64 {
            h.record(Nanos(v));
        }
        for &(q, expect) in &[(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q).as_nanos() as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.07, "q={q} got={got} expect={expect} err={err}");
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(Nanos(100));
        h.record(Nanos(300));
        assert_eq!(h.mean(), Nanos(200));
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Nanos(10));
        b.record(Nanos(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Nanos(10));
        assert_eq!(a.max(), Nanos(1000));
        assert_eq!(a.mean(), Nanos(505));
    }

    #[test]
    fn index_value_round_trip_stays_in_bucket() {
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            255,
            1023,
            20_600,
            1_000_000,
            u32::MAX as u64,
        ] {
            let idx = LatencyHistogram::index_of(v);
            let rep = LatencyHistogram::value_of(idx);
            // The representative must be within one sub-bucket width of v.
            let rel = (rep as f64 - v as f64).abs() / (v.max(1) as f64);
            assert!(rel <= 1.0 / 16.0 + 1e-9, "v={v} idx={idx} rep={rep}");
        }
    }
}
