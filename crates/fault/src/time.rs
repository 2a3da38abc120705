//! Virtual time: what the link and device models charge, and the
//! discrete-event simulator's clock.
//!
//! All simulation timestamps and durations are nanosecond counts wrapped in
//! [`Nanos`]. A single type serves both points and durations; the engine
//! never mixes virtual time with wall-clock time.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// A virtual-time instant or duration, in nanoseconds.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    pub const ZERO: Nanos = Nanos(0);

    /// One microsecond.
    pub const MICRO: Nanos = Nanos(1_000);
    /// One millisecond.
    pub const MILLI: Nanos = Nanos(1_000_000);
    /// One second.
    pub const SEC: Nanos = Nanos(1_000_000_000);

    /// Build from (possibly fractional) microseconds, rounding to nanos.
    #[inline]
    pub fn from_micros(us: f64) -> Nanos {
        debug_assert!(us >= 0.0, "negative duration");
        Nanos((us * 1_000.0).round() as u64)
    }

    #[inline]
    pub fn from_millis(ms: f64) -> Nanos {
        Nanos::from_micros(ms * 1_000.0)
    }

    #[inline]
    pub fn from_secs(s: f64) -> Nanos {
        Nanos::from_micros(s * 1_000_000.0)
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_micros(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    #[inline]
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Scale a duration by a dimensionless factor.
    #[inline]
    pub fn scale(self, factor: f64) -> Nanos {
        debug_assert!(factor >= 0.0, "negative scale factor");
        Nanos((self.0 as f64 * factor).round() as u64)
    }

    /// The time needed to move `bytes` at `bytes_per_sec`.
    #[inline]
    pub fn for_transfer(bytes: u64, bytes_per_sec: f64) -> Nanos {
        debug_assert!(bytes_per_sec > 0.0, "non-positive bandwidth");
        Nanos((bytes as f64 / bytes_per_sec * 1e9).round() as u64)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        Nanos(iter.map(|n| n.0).sum())
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis())
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}us", self.as_micros())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Nanos::from_micros(20.6).as_nanos(), 20_600);
        assert_eq!(Nanos::from_millis(1.5).as_nanos(), 1_500_000);
        assert_eq!(Nanos::from_secs(2.0), Nanos::SEC * 2);
        assert!((Nanos(1_234_567).as_millis() - 1.234567).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos(100);
        let b = Nanos(40);
        assert_eq!(a + b, Nanos(140));
        assert_eq!(a - b, Nanos(60));
        assert_eq!(a * 3, Nanos(300));
        assert_eq!(a / 4, Nanos(25));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 8 KiB over ~15.75 GB/s PCIe 3.0 x16 is about half a microsecond.
        let t = Nanos::for_transfer(8192, 15.75e9);
        assert!(t.as_micros() > 0.4 && t.as_micros() < 0.6, "{t}");
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(Nanos(1000).scale(1.5), Nanos(1500));
        assert_eq!(Nanos(3).scale(0.5), Nanos(2)); // round-half-up
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Nanos(12)), "12ns");
        assert_eq!(format!("{}", Nanos(20_600)), "20.6us");
        assert_eq!(format!("{}", Nanos(1_500_000)), "1.500ms");
        assert_eq!(format!("{}", Nanos(2_000_000_000)), "2.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }
}
