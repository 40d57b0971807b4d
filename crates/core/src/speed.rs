//! Exact rational speed augmentation.
//!
//! Resource-augmentation analysis compares an `s`-speed algorithm against a
//! 1-speed optimal solution. Theorem 1 of the paper puts the interesting
//! threshold at `s = 2 − 1/m`, and Corollary 1 at `s = 2 + ε` — neither of
//! which is an integer. To keep the execution engine exact we represent speed
//! as a reduced fraction `num/den`: the engine multiplies every node's work by
//! `den` and lets each processor complete `num` (scaled) units per tick.

use crate::error::SchedError;
use std::cmp::Ordering;
use std::fmt;

/// A rational processor speed `num/den > 0`, kept in lowest terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Speed {
    num: u32,
    den: u32,
}

impl Speed {
    /// Unit speed (the baseline the optimal solution runs at).
    pub const ONE: Speed = Speed { num: 1, den: 1 };

    /// Create a speed `num/den`, reducing to lowest terms.
    ///
    /// # Errors
    /// Returns [`SchedError::InvalidSpeed`] if either component is zero.
    pub fn new(num: u32, den: u32) -> Result<Speed, SchedError> {
        if num == 0 || den == 0 {
            return Err(SchedError::InvalidSpeed { num, den });
        }
        let g = gcd(num, den);
        Ok(Speed {
            num: num / g,
            den: den / g,
        })
    }

    /// Integer speed `s/1`.
    pub fn integer(s: u32) -> Result<Speed, SchedError> {
        Speed::new(s, 1)
    }

    /// The paper's Theorem 1 threshold `2 − 1/m = (2m − 1)/m`.
    ///
    /// Any semi-non-clairvoyant scheduler needs at least this much
    /// augmentation to be O(1)-competitive on `m` processors.
    pub fn theorem1_threshold(m: u32) -> Result<Speed, SchedError> {
        if m == 0 {
            return Err(SchedError::InvalidSpeed { num: 0, den: 0 });
        }
        Speed::new(2 * m - 1, m)
    }

    /// Numerator of the reduced fraction.
    #[inline]
    pub const fn num(self) -> u32 {
        self.num
    }

    /// Denominator of the reduced fraction.
    #[inline]
    pub const fn den(self) -> u32 {
        self.den
    }

    /// Work units (in the `den`-scaled instance) a processor finishes per tick.
    #[inline]
    pub const fn units_per_tick(self) -> u64 {
        self.num as u64
    }

    /// Factor every node's work must be multiplied by so that integer
    /// progress per tick is exact.
    #[inline]
    pub const fn work_scale(self) -> u64 {
        self.den as u64
    }

    /// The speed as a float, for reporting only.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Exact comparison against another speed (cross-multiplication).
    pub fn cmp_exact(self, other: Speed) -> Ordering {
        let lhs = self.num as u64 * other.den as u64;
        let rhs = other.num as u64 * self.den as u64;
        lhs.cmp(&rhs)
    }
}

impl Default for Speed {
    fn default() -> Self {
        Speed::ONE
    }
}

impl PartialOrd for Speed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Speed {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_exact(*other)
    }
}

impl fmt::Display for Speed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}x", self.num)
        } else {
            write!(f, "{}/{}x", self.num, self.den)
        }
    }
}

/// Greatest common divisor (binary-free Euclid; inputs are nonzero here).
fn gcd(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_to_lowest_terms() {
        let s = Speed::new(4, 6).unwrap();
        assert_eq!((s.num(), s.den()), (2, 3));
        let s = Speed::new(10, 5).unwrap();
        assert_eq!((s.num(), s.den()), (2, 1));
    }

    #[test]
    fn rejects_zero_components() {
        assert!(Speed::new(0, 1).is_err());
        assert!(Speed::new(1, 0).is_err());
        assert!(Speed::theorem1_threshold(0).is_err());
    }

    #[test]
    fn theorem1_threshold_values() {
        // 2 - 1/m for a few m.
        assert_eq!(Speed::theorem1_threshold(1).unwrap(), Speed::ONE);
        let s = Speed::theorem1_threshold(4).unwrap();
        assert_eq!((s.num(), s.den()), (7, 4));
        assert!((s.as_f64() - 1.75).abs() < 1e-12);
        let s = Speed::theorem1_threshold(2).unwrap();
        assert_eq!((s.num(), s.den()), (3, 2));
    }

    #[test]
    fn exact_ordering() {
        let a = Speed::new(3, 2).unwrap(); // 1.5
        let b = Speed::new(7, 4).unwrap(); // 1.75
        assert!(a < b);
        assert_eq!(a.cmp_exact(Speed::new(6, 4).unwrap()), Ordering::Equal);
    }

    #[test]
    fn engine_scaling_contract() {
        // speed 3/2: scale works by 2, process 3 per tick.
        let s = Speed::new(3, 2).unwrap();
        assert_eq!(s.work_scale(), 2);
        assert_eq!(s.units_per_tick(), 3);
        // A 6-unit node becomes 12 scaled units -> 4 ticks at 3/tick,
        // versus 6 ticks at unit speed: exactly 1.5x faster.
        let scaled = 6 * s.work_scale();
        assert_eq!(scaled.div_ceil(s.units_per_tick()), 4);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Speed::ONE.to_string(), "1x");
        assert_eq!(Speed::new(7, 4).unwrap().to_string(), "7/4x");
        assert_eq!(Speed::integer(2).unwrap().to_string(), "2x");
    }

    #[test]
    fn default_is_unit() {
        assert_eq!(Speed::default(), Speed::ONE);
    }
}
