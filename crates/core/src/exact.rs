//! Exact arithmetic for the paper's decisions.
//!
//! Every quantity scheduler S decides on is a ratio of integers. A job's
//! budget times its allotment is `x·n = W − L + L·n` work units, so its
//! density `v = p/(x·n)` is one ([`Density`]); the band condition compares
//! densities against `c·v`, and the allotment, δ-good and δ-fresh rules
//! compare integers against `(1+2δ)·x` and `(1+δ)·x`. The constants `c`,
//! `1+2δ`, `1+δ` and the speed hint are `f64`s, and every finite `f64` is
//! an exact dyadic rational `mant · 2^exp` ([`Dyadic`]). So each rule is a
//! comparison of two products of integers times powers of two, which
//! [`cmp_products`] decides exactly: in `u128` when both products fit, and
//! in 256 bits otherwise (`p < 2^64`, `x·n < 2^81` at
//! [`MAX_PROCESSORS`](crate::MAX_PROCESSORS), a mantissa below `2^53`).
//!
//! Density comparisons run in S's inner loops, so they decide from `f64`
//! approximations whenever the two sides differ by more than a relative
//! `2^-40`, a margin far above their rounding error (see
//! [`Density::lt_scaled`]); only near-ties pay for the integer comparison.
//! Two densities whose terms are all below `2^53` (every job of a realistic
//! instance) are ordered by their approximations alone unless these are
//! equal: each is then the correctly rounded quotient of exact operands,
//! and rounding is monotone.

use std::cmp::Ordering;

/// A finite positive `f64`, read as the dyadic rational `mant · 2^exp` it
/// is exactly, with `mant` odd.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dyadic {
    mant: u64,
    exp: i32,
    value: f64,
}

impl Dyadic {
    /// The exact value of `x`.
    ///
    /// # Panics
    /// If `x` is not finite and positive.
    pub fn new(x: f64) -> Dyadic {
        assert!(
            x.is_finite() && x > 0.0,
            "not a positive finite constant: {x}"
        );
        let bits = x.to_bits();
        let (frac, biased) = (bits & ((1 << 52) - 1), (bits >> 52) as i32);
        let (mant, exp) = if biased == 0 {
            (frac, -1074)
        } else {
            (frac | 1 << 52, biased - 1075)
        };
        let tz = mant.trailing_zeros();
        Dyadic {
            mant: mant >> tz,
            exp: exp + tz as i32,
            value: x,
        }
    }

    /// The odd integer `mant`, below `2^53`.
    #[inline]
    pub fn mant(self) -> u128 {
        self.mant as u128
    }

    /// The power of two `exp`.
    #[inline]
    pub fn exp(self) -> i32 {
        self.exp
    }

    /// The `f64` this was read from.
    #[inline]
    pub fn value(self) -> f64 {
        self.value
    }

    /// `⌊self · n⌋`, saturating at `u128::MAX`.
    pub fn mul_floor(self, n: u128) -> u128 {
        let Some(v) = self.mant().checked_mul(n) else {
            return u128::MAX;
        };
        if self.exp >= 0 {
            shl(v, self.exp).unwrap_or(u128::MAX)
        } else {
            v.checked_shr(self.exp.unsigned_abs()).unwrap_or(0)
        }
    }
}

/// Compare `a·b·2^ea` with `c·d·2^eb`, exactly.
pub fn cmp_products(a: u128, b: u128, ea: i32, c: u128, d: u128, eb: i32) -> Ordering {
    let e = ea.min(eb);
    let narrow = |x: u128, y: u128| x as u64 as u128 * y as u64 as u128;
    let products = if (a | b | c | d) >> 64 == 0 {
        // Two 64-bit factors never overflow 128 bits.
        (Some(narrow(a, b)), Some(narrow(c, d)))
    } else {
        (a.checked_mul(b), c.checked_mul(d))
    };
    if let (Some(x), Some(y)) = products {
        if let (Some(x), Some(y)) = (shl(x, ea - e), shl(y, eb - e)) {
            return x.cmp(&y);
        }
    }
    cmp_wide(product(a, b), ea, product(c, d), eb)
}

/// `x · 2^s` for `s ≥ 0`, if it fits.
#[inline]
fn shl(x: u128, s: i32) -> Option<u128> {
    if x == 0 {
        Some(0)
    } else {
        (s as u32 <= x.leading_zeros()).then(|| x << s)
    }
}

/// A 256-bit unsigned integer as `(high, low)` halves, so tuple order is
/// numeric order.
type U256 = (u128, u128);

/// The full product `a·b`.
fn product(a: u128, b: u128) -> U256 {
    let (a0, a1) = (a as u64 as u128, a >> 64);
    let (b0, b1) = (b as u64 as u128, b >> 64);
    let (mid, mid_carry) = (a0 * b1).overflowing_add(a1 * b0);
    let (lo, lo_carry) = (a0 * b0).overflowing_add(mid << 64);
    let hi = a1 * b1 + (mid >> 64) + ((mid_carry as u128) << 64) + lo_carry as u128;
    (hi, lo)
}

/// Bit length of `x`.
fn bits((hi, lo): U256) -> i32 {
    if hi != 0 {
        256 - hi.leading_zeros() as i32
    } else {
        128 - lo.leading_zeros() as i32
    }
}

/// Compare `x·2^ex` with `y·2^ey`.
fn cmp_wide(x: U256, ex: i32, y: U256, ey: i32) -> Ordering {
    if x == (0, 0) || y == (0, 0) {
        return x.cmp(&y);
    }
    // Equal top bits leave an exponent gap below 256: align and compare.
    let (tx, ty) = (bits(x) + ex, bits(y) + ey);
    if tx != ty {
        return tx.cmp(&ty);
    }
    let up = |(hi, lo): U256, s: i32| -> U256 {
        match s {
            0 => (hi, lo),
            1..=127 => (hi << s | lo >> (128 - s), lo << s),
            _ => (lo << (s - 128), 0),
        }
    };
    let e = ex.min(ey);
    up(x, ex - e).cmp(&up(y, ey - e))
}

/// The least `n` in `1..=max` with `pred(n)`, or `None` if there is none;
/// `pred` must be monotone (false up to the answer, true from it on).
/// Searches outward from the estimate `guess`, so a close float estimate
/// costs two or three exact predicate evaluations.
pub fn least(guess: f64, max: u64, pred: impl Fn(u64) -> bool) -> Option<u64> {
    assert!(max >= 1);
    // `as` saturates, and maps NaN to 0.
    let start = (guess.ceil() as u64).clamp(1, max);
    // Bracket the answer: `lo` fails (or is 0), `hi` holds.
    let (mut lo, mut hi);
    let mut step = 1u64;
    if pred(start) {
        hi = start;
        loop {
            lo = hi.saturating_sub(step);
            if lo == 0 || !pred(lo) {
                break;
            }
            hi = lo;
            step = step.saturating_mul(2);
        }
    } else {
        lo = start;
        loop {
            if lo == max {
                return None;
            }
            hi = lo.saturating_add(step).min(max);
            if pred(hi) {
                break;
            }
            lo = hi;
            step = step.saturating_mul(2);
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// A job's density `v = p/(x·n)`, kept as the integers `p ≥ 1` and
/// `x·n = W − L + L·n ≥ 1` (in work units; a speed hint `s` scales every
/// density by the same `s`, so it cancels from every comparison).
///
/// Ordered exactly: equal ratios compare equal whatever their terms. It
/// keeps the `f64` approximation `fl(fl(p)/fl(x·n))` too, which decides
/// every comparison whose sides it separates by more than a relative
/// `2^-40` (see [`Density::lt_scaled`]), and, when all four terms of an
/// order comparison lie below `2^53`, every one whose approximations
/// differ at all.
#[derive(Clone, Copy)]
#[repr(C, packed(4))]
pub struct Density {
    approx: f64,
    p: u64,
    xn_lo: u64,
    xn_hi: u32,
}

impl Density {
    /// The density `p / xn`.
    ///
    /// # Panics
    /// If `p` or `xn` is zero, or `xn ≥ 2^96`.
    pub fn new(p: u64, xn: u128) -> Density {
        assert!(p >= 1, "a density needs a positive profit");
        assert!(xn >= 1 && xn >> 96 == 0, "x·n out of range: {xn}");
        Density {
            approx: p as f64 / xn as f64,
            p,
            xn_lo: xn as u64,
            xn_hi: (xn >> 64) as u32,
        }
    }

    /// The profit `p`.
    #[inline]
    pub fn profit(self) -> u64 {
        self.p
    }

    /// The processor steps `x·n`.
    #[inline]
    pub fn xn(self) -> u128 {
        (self.xn_hi as u128) << 64 | self.xn_lo as u128
    }

    /// `self < c·other`.
    ///
    /// Decided from the approximations when they are more than a relative
    /// `2^-40` apart. Each approximation is three correctly rounded
    /// operations from its density, so within a factor `(1 ± u)^3` of it
    /// (`u = 2^-53`, and every value here is a normal `f64`: densities lie
    /// in `[2^-96, 2^64]`, and `c·v` rounds to `+∞` only when it exceeds
    /// every density). The product `c·approx` and the margin product add a
    /// rounding each, so the computed sides are within `(1 ± u)^5` of the
    /// true ones, far inside `2^-40`. A miss of the margin on either side
    /// therefore fixes the true order.
    #[inline]
    pub fn lt_scaled(self, other: Density, c: Dyadic) -> bool {
        other.band_top(c).covers(self)
    }

    /// `c·self`, to test many densities against: the filter's bounds are
    /// computed once.
    #[inline]
    pub fn band_top(self, c: Dyadic) -> BandTop {
        let top = c.value * self.approx;
        BandTop {
            below: top * (1.0 - MARGIN),
            above: top * (1.0 + MARGIN),
            v: self,
            c,
        }
    }

    /// `self/c`, to test many densities `k` for `self < c·k`: the filter's
    /// bounds are computed once (one more correctly rounded operation).
    #[inline]
    pub fn band_bottom(self, c: Dyadic) -> BandBottom {
        let bottom = self.approx / c.value;
        let (below, above) = if bottom >= f64::MIN_POSITIVE {
            (bottom * (1.0 - MARGIN), bottom * (1.0 + MARGIN))
        } else {
            // Subnormal: too little precision to filter on.
            (f64::NEG_INFINITY, f64::INFINITY)
        };
        BandBottom {
            below,
            above,
            v: self,
            c,
        }
    }

    /// Is `self` in the band `[anchor, c·anchor)`?
    #[inline]
    pub fn in_band(self, anchor: Density, c: Dyadic) -> bool {
        anchor <= self && self.lt_scaled(anchor, c)
    }
}

/// The filter margin: a relative `2^-40`.
const MARGIN: f64 = 1.0 / (1u64 << 40) as f64;

/// The order of two densities from their approximations, when these are
/// more than a relative `2^-40` apart; `None` when the exact terms must
/// decide (see [`Density::lt_scaled`] for why the margin is safe).
#[inline]
fn settle(a: f64, b: f64) -> Option<Ordering> {
    if a < b * (1.0 - MARGIN) {
        Some(Ordering::Less)
    } else if a > b * (1.0 + MARGIN) {
        Some(Ordering::Greater)
    } else {
        None
    }
}

/// The top `c·v` of the band anchored at `v` (see [`Density::band_top`]).
#[derive(Debug, Clone, Copy)]
pub struct BandTop {
    below: f64,
    above: f64,
    v: Density,
    c: Dyadic,
}

impl BandTop {
    /// `d < c·v`, exactly (see [`Density::lt_scaled`]).
    #[inline]
    pub fn covers(self, d: Density) -> bool {
        if d.approx < self.below {
            return true;
        }
        if d.approx > self.above {
            return false;
        }
        let (p, q, c) = (d.p as u128, self.v.p as u128, self.c);
        cmp_products(p, self.v.xn(), 0, c.mant() * q, d.xn(), c.exp()).is_lt()
    }
}

/// The bottom `v/c` of the bands that reach `v` (see
/// [`Density::band_bottom`]).
#[derive(Debug, Clone, Copy)]
pub struct BandBottom {
    below: f64,
    above: f64,
    v: Density,
    c: Dyadic,
}

impl BandBottom {
    /// `v < c·k`, exactly.
    #[inline]
    pub fn under(self, k: Density) -> bool {
        if k.approx > self.above {
            return true;
        }
        if k.approx < self.below {
            return false;
        }
        let (p, q, c) = (self.v.p as u128, k.p as u128, self.c);
        cmp_products(p, k.xn(), 0, c.mant() * q, self.v.xn(), c.exp()).is_lt()
    }
}

impl Ord for Density {
    /// With every term below `2^53`, each approximation is the correctly
    /// rounded quotient of exact operands, and rounding is monotone: two
    /// distinct approximations are ordered as their densities, and only
    /// equal ones need the integers. Larger terms take the margin filter.
    #[inline]
    fn cmp(&self, other: &Density) -> Ordering {
        let small = (self.p | other.p | self.xn_lo | other.xn_lo) >> 53 == 0
            && (self.xn_hi | other.xn_hi) == 0;
        if small {
            if self.approx != other.approx {
                return if self.approx < other.approx {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
            }
        } else if let Some(order) = settle(self.approx, other.approx) {
            return order;
        }
        if (self.p, self.xn_lo, self.xn_hi) == (other.p, other.xn_lo, other.xn_hi) {
            return Ordering::Equal;
        }
        let (p, q) = (self.p as u128, other.p as u128);
        if (self.xn_hi, other.xn_hi) == (0, 0) {
            // Both products fit in 128 bits.
            return (p * other.xn_lo as u128).cmp(&(q * self.xn_lo as u128));
        }
        cmp_products(p, other.xn(), 0, q, self.xn(), 0)
    }
}

impl PartialOrd for Density {
    #[inline]
    fn partial_cmp(&self, other: &Density) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Density {
    #[inline]
    fn eq(&self, other: &Density) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Density {}

impl std::fmt::Debug for Density {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", { self.p }, self.xn())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyadics_are_exact() {
        assert_eq!((Dyadic::new(1.5).mant(), Dyadic::new(1.5).exp()), (3, -1));
        assert_eq!((Dyadic::new(96.0).mant(), Dyadic::new(96.0).exp()), (3, 5));
        let third = Dyadic::new(1.0 / 3.0);
        assert_eq!(third.mant() as f64 * 2f64.powi(third.exp()), 1.0 / 3.0);
        let tiny = Dyadic::new(f64::MIN_POSITIVE / 4.0);
        assert_eq!((tiny.mant(), tiny.exp()), (1, -1024), "subnormals too");
        // ⌊1.1 · 10⌋ = 11: the f64 1.1 lies just above 11/10.
        assert_eq!(Dyadic::new(1.1).mul_floor(10), 11);
        assert_eq!(
            Dyadic::new(0.9).mul_floor(10),
            9,
            "0.9 lies just above 9/10"
        );
        assert_eq!(Dyadic::new(2.5).mul_floor(3), 7);
        assert_eq!(Dyadic::new(1e300).mul_floor(1), u128::MAX);
    }

    #[test]
    fn products_compare_exactly_beyond_128_bits() {
        let big = u128::MAX >> 1;
        assert_eq!(cmp_products(big, big, 0, big, big, 0), Ordering::Equal);
        assert_eq!(
            cmp_products(big, big, 0, big, big - 1, 0),
            Ordering::Greater
        );
        assert_eq!(cmp_products(big, 2, 0, big, 1, 1), Ordering::Equal);
        assert_eq!(cmp_products(3, 1, -1, 1, 1, 0), Ordering::Greater);
        assert_eq!(
            cmp_products(u128::MAX, u128::MAX, -302, 1, 1, -45),
            Ordering::Less
        );
        assert_eq!(cmp_products(0, big, 900, 1, 1, -900), Ordering::Less);
        assert_eq!(cmp_products(0, 5, 0, 7, 0, 3), Ordering::Equal);
        // 2^255 against itself, written two ways.
        assert_eq!(
            cmp_products(1 << 127, 1 << 127, 1, 1 << 100, 1, 155),
            Ordering::Equal
        );
    }

    #[test]
    fn least_finds_the_threshold_from_any_guess() {
        for answer in [1u64, 2, 7, 1000, u64::MAX - 3] {
            for guess in [f64::NAN, -5.0, 0.0, 1.0, 6.5, 1e3, 1e30, f64::INFINITY] {
                assert_eq!(least(guess, u64::MAX, |n| n >= answer), Some(answer));
            }
        }
        assert_eq!(least(4.0, 10, |n| n > 10), None);
        assert_eq!(least(4.0, 10, |_| true), Some(1));
    }

    #[test]
    fn densities_order_and_band_exactly() {
        let d = |p, xn| Density::new(p, xn);
        assert_eq!(d(1, 2), d(3, 6), "equal ratios are equal");
        assert!(d(1, 3) < d(1, 2));
        assert!(d(u64::MAX, (1 << 95) + 1) < d(u64::MAX, 1 << 95));
        let c = Dyadic::new(2.0);
        assert!(d(3, 2).in_band(d(1, 1), c));
        assert!(!d(2, 1).in_band(d(1, 1), c), "the band's top edge is open");
        assert!(d(1, 1).in_band(d(1, 1), c), "the anchor is in its own band");
        assert!(!d(1, 2).in_band(d(1, 1), c));
        // c = 1.1 read exactly: 11/10 lies below it, so inside the band.
        assert!(d(11, 10).lt_scaled(d(1, 1), Dyadic::new(1.1)));
        assert!(!d(11, 10).lt_scaled(d(1, 1), Dyadic::new(11.0 / 10.0 - 2e-16)));
    }

    /// The fast paths of `cmp` and `lt_scaled` agree with the wide
    /// comparison, on magnitudes from a few bits up to their limits, and
    /// on band edges within a hair of `c·v`.
    #[test]
    fn fast_paths_agree_with_the_wide_comparison() {
        let mut rng = crate::Rng64::seed_from(29);
        let mut draw = |bits: u64| rng.next_u64() >> (64 - bits.clamp(1, 64));
        for _ in 0..50_000 {
            let sizes = [draw(6) + 1, draw(6) + 1, draw(7) + 1, draw(7) + 1];
            let a = Density::new(
                draw(sizes[0]).max(1),
                (draw(sizes[2]) as u128) << draw(5) | 1,
            );
            let b = Density::new(
                draw(sizes[1]).max(1),
                (draw(sizes[3]) as u128) << draw(5) | 1,
            );
            let (p, q) = (a.p as u128, b.p as u128);
            assert_eq!(
                a.cmp(&b),
                cmp_wide(product(p, b.xn()), 0, product(q, a.xn()), 0)
            );
            for c in [1.5, 2.0, 52.70483, 3.0e20, 1.0 + f64::EPSILON] {
                let c = Dyadic::new(c);
                let wide = cmp_wide(product(p, b.xn()), 0, product(c.mant() * q, a.xn()), c.exp);
                assert_eq!(a.lt_scaled(b, c), wide.is_lt(), "{a:?} < {c:?}·{b:?}");
            }
            // `c·b` itself and its nearest neighbours: the filter defers.
            let c = Dyadic::new(2.5);
            assert_eq!(b.band_bottom(c).under(a), b.lt_scaled(a, c));
            let x2 = b.xn() << 13;
            let edge = (q * 5) << 12;
            for p2 in [edge, edge + 1, edge - 1] {
                if p2 >> 64 == 0 && x2 >> 96 == 0 {
                    let e = Density::new(p2 as u64, x2);
                    let wide = cmp_wide(product(p2, b.xn()), 0, product(c.mant() * q, x2), c.exp);
                    assert_eq!(e.lt_scaled(b, c), wide.is_lt(), "{e:?} < 2.5·{b:?}");
                }
            }
        }
        // Near-ties at `2^52` scale, where `cmp` trusts distinct
        // approximations: neighbouring terms whose quotients often round
        // to the same `f64` although the densities differ, and equal
        // densities written with different terms, on both sides of `2^53`.
        let wide = |a: Density, b: Density| {
            cmp_wide(
                product(a.p as u128, b.xn()),
                0,
                product(b.p as u128, a.xn()),
                0,
            )
        };
        let mut same_approx = 0;
        for _ in 0..20_000 {
            let (p, xn) = ((1 << 52) + draw(52), (1 << 52) + draw(52) as u128);
            let a = Density::new(p, xn);
            for b in [
                Density::new(p + 1, xn + 1),
                Density::new(p, xn + 1),
                Density::new(p - 1, xn - 1),
                Density::new(p + 1, xn),
            ] {
                same_approx += (a.approx == b.approx && wide(a, b).is_ne()) as u32;
                assert_eq!(a.cmp(&b), wide(a, b), "{a:?} vs {b:?}");
                assert_eq!(b.cmp(&a), wide(b, a), "{b:?} vs {a:?}");
            }
            let k = draw(12) + 2;
            let (q, yn) = (draw(36) + 1, draw(36) as u128 + 1);
            for scale in [1, k, 1 << 13, k << 13] {
                let twin = Density::new(q * scale, yn * scale as u128);
                assert_eq!(
                    Density::new(q, yn).cmp(&twin),
                    Ordering::Equal,
                    "{q}/{yn}·{scale}"
                );
            }
        }
        assert!(same_approx > 1_000, "only {same_approx} near-ties");
        assert_eq!(Density::new(1, 2).cmp(&Density::new(3, 6)), Ordering::Equal);
    }
}
