//! Virtual time represented as nanoseconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A virtual instant or duration, in nanoseconds.
///
/// `Nanos` deliberately conflates instants and durations the way `u64`
/// timestamps usually do in storage simulators: the zero point is the start
/// of the simulation, and arithmetic saturates rather than panicking so that
/// defensive subtraction (`end - start`) is always safe.
///
/// # Examples
///
/// ```
/// use nob_sim::Nanos;
///
/// let t = Nanos::from_millis(5) + Nanos::from_micros(250);
/// assert_eq!(t.as_nanos(), 5_250_000);
/// assert!(Nanos::from_secs(1) > t);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero instant (simulation start) / zero duration.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable instant; used as "never".
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a `Nanos` from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a `Nanos` from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us.saturating_mul(1_000))
    }

    /// Creates a `Nanos` from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms.saturating_mul(1_000_000))
    }

    /// Creates a `Nanos` from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s.saturating_mul(1_000_000_000))
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in milliseconds, truncating.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Value in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Value in fractional microseconds (the unit the paper reports).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating addition.
    pub(crate) const fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    pub const fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Returns the later of two instants.
    pub(crate) fn max(self, other: Nanos) -> Nanos {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Checked conversion of a byte count and bandwidth (bytes/second) to a
    /// transfer duration. Returns [`Nanos::ZERO`] for zero bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn for_transfer(bytes: u64, bytes_per_sec: u64) -> Nanos {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        if bytes == 0 {
            return Nanos::ZERO;
        }
        // ns = bytes * 1e9 / bw, computed in u128 to avoid overflow.
        let ns = (bytes as u128 * 1_000_000_000u128) / bytes_per_sec as u128;
        Nanos(ns.min(u64::MAX as u128) as u64)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl From<u64> for Nanos {
    fn from(ns: u64) -> Self {
        Nanos(ns)
    }
}

impl From<Nanos> for u64 {
    fn from(n: Nanos) -> u64 {
        n.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1_000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1_000));
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1_000));
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Nanos::ZERO - Nanos::from_secs(1), Nanos::ZERO);
        assert_eq!(Nanos::MAX + Nanos::from_secs(1), Nanos::MAX);
    }

    #[test]
    fn transfer_duration_is_exact_for_round_numbers() {
        // 1 MiB at 1 MiB/s is exactly one second.
        let mib = 1u64 << 20;
        assert_eq!(Nanos::for_transfer(mib, mib), Nanos::from_secs(1));
        // Zero bytes take zero time regardless of bandwidth.
        assert_eq!(Nanos::for_transfer(0, 1), Nanos::ZERO);
    }

    #[test]
    fn transfer_duration_does_not_overflow_large_inputs() {
        let d = Nanos::for_transfer(u64::MAX, 1);
        assert_eq!(d, Nanos::MAX);
    }

    #[test]
    fn display_picks_human_units() {
        assert_eq!(Nanos::from_nanos(12).to_string(), "12ns");
        assert_eq!(Nanos::from_micros(12).to_string(), "12.000us");
        assert_eq!(Nanos::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Nanos::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn min_max_are_total() {
        let a = Nanos::from_micros(3);
        let b = Nanos::from_micros(7);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(a), a);
    }

    #[test]
    fn sum_of_durations() {
        let total: Nanos = [Nanos::from_micros(1), Nanos::from_micros(2)].into_iter().sum();
        assert_eq!(total, Nanos::from_micros(3));
    }
}
