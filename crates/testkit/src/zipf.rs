//! Zipfian key/offset distribution for skewed workloads.
//!
//! The paper's headline workloads are uniform-random and sequential, but
//! the hybrid cache's replacement policy only matters under skew — the
//! ablation benchmarks use this generator to show hit-rate sensitivity.
//!
//! Implementation: the classic Gray et al. (SIGMOD '94) closed-form
//! inverse-CDF approximation, O(1) per sample after O(1) setup.

use rand::Rng;

/// A Zipf(θ) distribution over `0..n`.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// `theta` in (0, 1): 0.99 is the YCSB default; larger = more skew.
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0);
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact up to a cutoff, then integral approximation (the tail
        // contributes little for the ranges we use).
        let cutoff = n.min(10_000);
        let mut sum = 0.0;
        for i in 1..=cutoff {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > cutoff {
            // ∫ x^-θ dx from cutoff to n.
            let a = 1.0 - theta;
            sum += ((n as f64).powf(a) - (cutoff as f64).powf(a)) / a;
        }
        sum
    }

    /// Draw one value in `0..n` (0 is the hottest).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Theoretical probability of the hottest item: 1 / ζ(n, θ).
    fn p_hottest(z: &Zipf) -> f64 {
        1.0 / z.zetan
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn skew_concentrates_on_head() {
        let z = Zipf::new(10_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut head = 0usize;
        const N: usize = 100_000;
        for _ in 0..N {
            if z.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // Under Zipf(0.99), the top 1% of items draw well over a third of
        // accesses; under uniform they'd draw 1%.
        let frac = head as f64 / N as f64;
        assert!(frac > 0.3, "head fraction {frac}");
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let z = Zipf::new(100, 0.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 1.6, "min={min} max={max}");
    }

    #[test]
    fn hottest_probability_matches_samples() {
        let z = Zipf::new(1000, 0.9);
        let mut rng = SmallRng::seed_from_u64(4);
        const N: usize = 200_000;
        let zeros = (0..N).filter(|_| z.sample(&mut rng) == 0).count();
        let observed = zeros as f64 / N as f64;
        let expect = p_hottest(&z);
        assert!(
            (observed - expect).abs() / expect < 0.2,
            "observed {observed}, expected {expect}"
        );
    }
}
