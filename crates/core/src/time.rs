//! Discrete time and integral work.
//!
//! The paper analyses schedulers in *time steps*: a unit of time on a single
//! processor is a **processor step**. We mirror that exactly: [`Time`] counts
//! ticks since the start of the simulation and [`Work`] counts work units.
//! At speed 1 a processor finishes one work unit per tick, so a job with work
//! `W` occupies `W` processor steps — the identity the analysis relies on.
//!
//! Both are thin wrappers around `u64` with checked/saturating helpers so the
//! simulator can never silently wrap.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A discrete simulation instant (tick index), starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// An integral amount of work (processor steps at unit speed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Work(pub u64);

impl Time {
    /// The origin of simulated time.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "infinite" horizon.
    pub const MAX: Time = Time(u64::MAX);

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// `self + dt`, panicking on overflow in debug builds.
    #[inline]
    pub fn after(self, dt: u64) -> Time {
        Time(self.0 + dt)
    }

    /// Saturating addition, for deadlines derived from `Time::MAX`.
    #[inline]
    pub fn saturating_add(self, dt: u64) -> Time {
        Time(self.0.saturating_add(dt))
    }

    /// Ticks elapsed since `earlier`; zero if `earlier` is in the future.
    #[inline]
    pub fn since(self, earlier: Time) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Interpret this instant as an amount of work at unit speed.
    #[inline]
    pub const fn as_work(self) -> Work {
        Work(self.0)
    }

    /// Lossless conversion for policy (floating point) computations.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl Work {
    /// No work.
    pub const ZERO: Work = Work(0);

    /// Raw unit count.
    #[inline]
    pub const fn units(self) -> u64 {
        self.0
    }

    /// True iff there is no work left.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtract up to `amount`, returning how much was actually removed.
    ///
    /// This is the primitive the engine uses to advance a node: it never
    /// underflows, and the return value lets the caller account for leftover
    /// speed budget within a tick.
    #[inline]
    pub fn deplete(&mut self, amount: u64) -> u64 {
        let taken = self.0.min(amount);
        self.0 -= taken;
        taken
    }

    /// Checked multiplication by a scale factor (used when the engine rescales
    /// an instance for rational speeds).
    #[inline]
    pub fn checked_scale(self, factor: u64) -> Option<Work> {
        self.0.checked_mul(factor).map(Work)
    }

    /// Lossless conversion for policy (floating point) computations.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Interpret as a duration at unit speed.
    #[inline]
    pub const fn as_ticks(self) -> u64 {
        self.0
    }
}

macro_rules! impl_newtype_arith {
    ($t:ident) => {
        impl Add for $t {
            type Output = $t;
            #[inline]
            fn add(self, rhs: $t) -> $t {
                $t(self.0 + rhs.0)
            }
        }
        impl AddAssign for $t {
            #[inline]
            fn add_assign(&mut self, rhs: $t) {
                self.0 += rhs.0;
            }
        }
        impl Sub for $t {
            type Output = $t;
            #[inline]
            fn sub(self, rhs: $t) -> $t {
                $t(self.0 - rhs.0)
            }
        }
        impl SubAssign for $t {
            #[inline]
            fn sub_assign(&mut self, rhs: $t) {
                self.0 -= rhs.0;
            }
        }
        impl Mul<u64> for $t {
            type Output = $t;
            #[inline]
            fn mul(self, rhs: u64) -> $t {
                $t(self.0 * rhs)
            }
        }
        impl Div<u64> for $t {
            type Output = $t;
            #[inline]
            fn div(self, rhs: u64) -> $t {
                $t(self.0 / rhs)
            }
        }
        impl Rem<u64> for $t {
            type Output = $t;
            #[inline]
            fn rem(self, rhs: u64) -> $t {
                $t(self.0 % rhs)
            }
        }
        impl Sum for $t {
            fn sum<I: Iterator<Item = $t>>(iter: I) -> $t {
                $t(iter.map(|v| v.0).sum())
            }
        }
        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
        impl From<u64> for $t {
            #[inline]
            fn from(v: u64) -> $t {
                $t(v)
            }
        }
        impl From<$t> for u64 {
            #[inline]
            fn from(v: $t) -> u64 {
                v.0
            }
        }
    };
}

impl_newtype_arith!(Time);
impl_newtype_arith!(Work);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ordering_and_arithmetic() {
        let a = Time(5);
        let b = a.after(3);
        assert_eq!(b, Time(8));
        assert!(a < b);
        assert_eq!(b.since(a), 3);
        assert_eq!(a.since(b), 0, "since() saturates instead of underflowing");
        assert_eq!(b - a, Time(3));
        assert_eq!(a + Time(1), Time(6));
    }

    #[test]
    fn time_saturating_add_at_max() {
        assert_eq!(Time::MAX.saturating_add(10), Time::MAX);
        assert_eq!(Time(1).saturating_add(2), Time(3));
    }

    #[test]
    fn work_deplete_partial_and_full() {
        let mut w = Work(10);
        assert_eq!(w.deplete(4), 4);
        assert_eq!(w, Work(6));
        assert_eq!(w.deplete(100), 6, "deplete caps at remaining work");
        assert!(w.is_zero());
        assert_eq!(w.deplete(1), 0, "depleting empty work is a no-op");
    }

    #[test]
    fn work_checked_scale_overflow() {
        assert_eq!(Work(2).checked_scale(3), Some(Work(6)));
        assert_eq!(Work(u64::MAX).checked_scale(2), None);
    }

    #[test]
    fn conversions_round_trip() {
        let t = Time(42);
        assert_eq!(t.as_work(), Work(42));
        assert_eq!(Work(42).as_ticks(), 42);
        assert_eq!(u64::from(t), 42);
        assert_eq!(Time::from(42u64), t);
        assert_eq!(t.as_f64(), 42.0);
    }

    #[test]
    fn sums() {
        let total: Work = [Work(1), Work(2), Work(3)].into_iter().sum();
        assert_eq!(total, Work(6));
        let total: Time = [Time(4), Time(5)].into_iter().sum();
        assert_eq!(total, Time(9));
    }

    #[test]
    fn display() {
        assert_eq!(Time(7).to_string(), "7");
        assert_eq!(Work(8).to_string(), "8");
    }
}
