//! Offline shim for the `rand` crate (0.8-compatible subset).
//!
//! The build environment cannot reach crates.io, so the workspace vendors
//! the slice of the rand API it uses: [`rngs::SmallRng`] (xoshiro256**
//! seeded via splitmix64, like the real one), [`SeedableRng::seed_from_u64`],
//! the [`Rng`] extension trait (`gen`, `gen_range`, `gen_bool`, `fill`),
//! and [`seq::SliceRandom`] (`shuffle`, `choose`). Determinism matters more
//! than statistical perfection here: every consumer seeds explicitly.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

/// Low-level source of randomness.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// A small, fast, deterministic RNG (xoshiro256**).
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            let mut state = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut state);
            }
            // xoshiro must not start from the all-zero state.
            if s == [0, 0, 0, 0] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Types producible by `Rng::gen` (the `Standard` distribution).
pub trait Standard: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u128 {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges usable with `Rng::gen_range`.
pub trait SampleRange<T> {
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end as i128 - start as i128 + 1) as u128;
                (start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + f64::sample_standard(rng) * (self.end - self.start)
    }
}

/// The user-facing extension trait.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_range(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample_standard(self) < p
    }

    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use super::RngCore;

    /// Slice helpers (`shuffle`, `choose`).
    pub trait SliceRandom {
        type Item;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            // Fisher–Yates.
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[(rng.next_u64() % self.len() as u64) as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(1u8..=255);
            assert!(w >= 1);
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..32).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 32 elements left them in order");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }
}
