//! Read-mostly *hot-set* workloads: Zipfian page offsets over a small
//! file set — the "a million users hammering the same assets" shape that
//! makes the cache's read-hit path the whole game. PR 6's lock-free meta
//! plane is evaluated under exactly this stream: nearly every access is
//! a resident-page hit, so meta-plane lock traffic (or its absence) is
//! the dominant cost.
//!
//! [`HotSetGen`] reuses the crate's [`Zipf`] distribution twice — once to
//! pick the file (hot files exist too) and once to pick the page within
//! it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::Zipf;

/// Specification of a read-mostly hot-set stream.
#[derive(Clone, Debug)]
pub struct HotSetSpec {
    /// Number of files in the set.
    pub files: u64,
    /// Size of every file, in bytes (pages are 4 KiB-aligned offsets).
    pub file_size: u64,
    /// I/O size in bytes (offsets are aligned to it).
    pub block_size: usize,
    /// Zipf skew over both the file choice and the in-file offset.
    /// 0.99 is the YCSB default; larger = hotter head.
    pub theta: f64,
    /// Percent of operations that are reads (the rest are same-location
    /// writes, keeping a trickle of meta-plane writers in the stream).
    pub read_pct: u8,
}

impl HotSetSpec {
    /// The PR 6 benchmark shape: 8 files × 1 MiB, 4 KiB accesses,
    /// Zipf(0.99), 95% reads — small enough that the whole set stays
    /// cache-resident after one warm pass.
    pub fn read_hot(files: u64, file_size: u64) -> HotSetSpec {
        HotSetSpec {
            files,
            file_size,
            block_size: 4096,
            theta: 0.99,
            read_pct: 95,
        }
    }

    pub fn blocks_per_file(&self) -> u64 {
        (self.file_size / self.block_size as u64).max(1)
    }
}

/// One generated hot-set operation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct HotSetOp {
    /// Index of the file in the set (0 = hottest).
    pub file: u64,
    pub is_read: bool,
    pub offset: u64,
    pub len: usize,
}

/// Deterministic generator for one thread's hot-set stream.
pub struct HotSetGen {
    spec: HotSetSpec,
    file_dist: Zipf,
    block_dist: Zipf,
    rng: SmallRng,
}

impl HotSetGen {
    pub fn new(spec: HotSetSpec, seed: u64) -> HotSetGen {
        let file_dist = Zipf::new(spec.files, spec.theta);
        let block_dist = Zipf::new(spec.blocks_per_file(), spec.theta);
        HotSetGen {
            spec,
            file_dist,
            block_dist,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    pub fn next_op(&mut self) -> HotSetOp {
        let file = self.file_dist.sample(&mut self.rng);
        let block = self.block_dist.sample(&mut self.rng);
        let is_read = self.rng.gen_range(0u8..100) < self.spec.read_pct;
        HotSetOp {
            file,
            is_read,
            offset: block * self.spec.block_size as u64,
            len: self.spec.block_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> HotSetSpec {
        HotSetSpec::read_hot(8, 1 << 20)
    }

    #[test]
    fn ops_stay_in_bounds_and_aligned() {
        let mut g = HotSetGen::new(spec(), 1);
        for _ in 0..20_000 {
            let op = g.next_op();
            assert!(op.file < 8);
            assert_eq!(op.offset % 4096, 0);
            assert!(op.offset + op.len as u64 <= 1 << 20);
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let ops = |seed| -> Vec<HotSetOp> {
            let mut g = HotSetGen::new(spec(), seed);
            (0..200).map(|_| g.next_op()).collect()
        };
        let (a, b, c) = (ops(7), ops(7), ops(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn read_fraction_and_skew_hold() {
        let mut g = HotSetGen::new(spec(), 3);
        let mut reads = 0usize;
        let mut hottest_file = 0usize;
        const N: usize = 50_000;
        for _ in 0..N {
            let op = g.next_op();
            if op.is_read {
                reads += 1;
            }
            if op.file == 0 {
                hottest_file += 1;
            }
        }
        let pct = reads as f64 / N as f64 * 100.0;
        assert!((92.0..98.0).contains(&pct), "{pct}% reads");
        // Zipf(0.99) over 8 files: the hottest draws well over a third.
        assert!(
            hottest_file as f64 / N as f64 > 0.3,
            "hottest file drew {hottest_file}/{N}"
        );
    }
}
