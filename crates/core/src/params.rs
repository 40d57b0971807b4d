//! The paper's constants (Tables 1–3) and allotment formulas.
//!
//! Theorem 2 parameterizes scheduler **S** by a constant `ε > 0` and derives:
//!
//! | symbol | definition | role |
//! |--------|------------|------|
//! | `δ`    | any value `< ε/2` | freshness slack |
//! | `c`    | `≥ 1 + 1/(δε)`    | density band width |
//! | `b`    | `√((1+2δ)/(1+ε)) < 1` | capacity head-room factor |
//! | `a`    | `1 + (1+2δ)/(ε−2δ)`   | processor-step inflation (Lemma 3) |
//!
//! Per job the algorithm computes an allotment
//! `n_i = (W_i−L_i)/(D_i/(1+2δ) − L_i)`, a budgeted execution time
//! `x_i = (W_i−L_i)/n_i + L_i` and a density `v_i = p_i/(x_i n_i)`.
//!
//! ### A note on the charging margin
//!
//! Lemma 5 lower-bounds the credit each started job keeps by
//! `(1−b)/b − 1/((c−1)δ)` and the paper identifies `(1−b)/b` with `ε`.
//! That identification only holds up to constants (for `ε = 1, δ = 1/4`,
//! `(1−b)/b ≈ 0.155`). We therefore expose the *exact* margin
//! [`AlgoParams::charge_margin`] and, in [`AlgoParams::from_epsilon`], pick
//! `c` large enough that the exact margin is at least half of `(1−b)/b`,
//! which keeps every downstream bound positive for all `ε ∈ (0, 2]`.

use crate::error::SchedError;
use crate::exact::{cmp_products, least, Dyadic};

/// Validated constants `(ε, δ, c)` with the derived `b` and `a`.
///
/// Construct with [`AlgoParams::new`] for full control or
/// [`AlgoParams::from_epsilon`] for the paper's recommended settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoParams {
    epsilon: f64,
    delta: f64,
    c: f64,
    b: f64,
    a: f64,
}

impl AlgoParams {
    /// Create parameters, validating every constraint from Table 1.
    ///
    /// Requirements: `ε > 0`, `0 < δ < ε/2`, `c ≥ 1 + 1/(δε)`, and the exact
    /// charging margin `(1−b)/b − 1/((c−1)δ)` must be positive.
    pub fn new(epsilon: f64, delta: f64, c: f64) -> Result<AlgoParams, SchedError> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(SchedError::InvalidParams(format!(
                "epsilon must be positive and finite, got {epsilon}"
            )));
        }
        if !delta.is_finite() || delta <= 0.0 || delta >= epsilon / 2.0 {
            return Err(SchedError::InvalidParams(format!(
                "delta must satisfy 0 < delta < epsilon/2 = {}, got {delta}",
                epsilon / 2.0
            )));
        }
        if !c.is_finite() || c < 1.0 + 1.0 / (delta * epsilon) {
            return Err(SchedError::InvalidParams(format!(
                "c must be >= 1 + 1/(delta*epsilon) = {}, got {c}",
                1.0 + 1.0 / (delta * epsilon)
            )));
        }
        let b = ((1.0 + 2.0 * delta) / (1.0 + epsilon)).sqrt();
        debug_assert!(b < 1.0, "delta < epsilon/2 implies b < 1");
        let a = 1.0 + (1.0 + 2.0 * delta) / (epsilon - 2.0 * delta);
        let params = AlgoParams {
            epsilon,
            delta,
            c,
            b,
            a,
        };
        if params.charge_margin() <= 0.0 {
            return Err(SchedError::InvalidParams(format!(
                "charging margin (1-b)/b - 1/((c-1)delta) = {} is not positive; \
                 increase c (need c > {})",
                params.charge_margin(),
                1.0 + b / ((1.0 - b) * delta)
            )));
        }
        Ok(params)
    }

    /// The paper's recommended instantiation for a given `ε`:
    /// `δ = ε/4` and the smallest `c` that (a) satisfies `c ≥ 1 + 1/(δε)`
    /// and (b) leaves half of the `(1−b)/b` credit as charging margin.
    pub fn from_epsilon(epsilon: f64) -> Result<AlgoParams, SchedError> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(SchedError::InvalidParams(format!(
                "epsilon must be positive and finite, got {epsilon}"
            )));
        }
        let delta = epsilon / 4.0;
        let b = ((1.0 + 2.0 * delta) / (1.0 + epsilon)).sqrt();
        let c_paper = 1.0 + 1.0 / (delta * epsilon);
        // Margin (1-b)/b - 1/((c-1)δ) >= (1-b)/(2b)  <=>  c >= 1 + 2b/((1-b)δ).
        let c_margin = 1.0 + 2.0 * b / ((1.0 - b) * delta);
        AlgoParams::new(epsilon, delta, c_paper.max(c_margin))
    }

    /// The deadline-slack constant `ε` of Theorem 2.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The freshness constant `δ < ε/2`.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The density band width `c`.
    #[inline]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// The capacity head-room factor `b = √((1+2δ)/(1+ε)) < 1`.
    #[inline]
    pub fn b(&self) -> f64 {
        self.b
    }

    /// The processor-step inflation `a = 1 + (1+2δ)/(ε−2δ)` (Lemma 3).
    #[inline]
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Exact Lemma 5 credit margin `(1−b)/b − 1/((c−1)δ)`.
    ///
    /// `‖C‖ ≥ charge_margin() · ‖R‖`: completed profit is at least this
    /// fraction of started profit. Guaranteed positive by construction.
    pub fn charge_margin(&self) -> f64 {
        (1.0 - self.b) / self.b - 1.0 / ((self.c - 1.0) * self.delta)
    }

    /// Lemma 9 factor: `‖C^O‖ ≤ opt_vs_started() · ‖R‖` (throughput case).
    pub fn opt_vs_started(&self) -> f64 {
        1.0 + self.a * self.c * (1.0 + 2.0 * self.delta) / (self.delta * self.b * (1.0 - self.b))
    }

    /// The end-to-end competitive ratio of Lemma 10 / Theorem 2
    /// (throughput): `‖C^O‖ ≤ ratio · ‖C‖`. This is the `O(1/ε⁶)` constant.
    pub fn throughput_competitive_ratio(&self) -> f64 {
        self.opt_vs_started() / self.charge_margin()
    }

    /// Lemma 21 factor for the general-profit case (the `2(1+2δ)` variant).
    pub fn profit_opt_vs_started(&self) -> f64 {
        1.0 + self.a * self.c * 2.0 * (1.0 + 2.0 * self.delta)
            / (self.delta * self.b * (1.0 - self.b))
    }

    /// Lemma 22 competitive ratio for general profit functions (Theorem 3).
    pub fn profit_competitive_ratio(&self) -> f64 {
        self.profit_opt_vs_started() / self.charge_margin()
    }

    /// Condition (2)'s capacity `⌊b·m⌋`, exactly: the largest `k` with
    /// `k²·(1+ε) ≤ (1+2δ)·m²`, since `b² = (1+2δ)/(1+ε)`, reading both
    /// factors as the `f64` constants they are. Band loads are integers, so
    /// `load ≤ b·m ⇔ load ≤ ⌊b·m⌋`.
    pub fn band_capacity(&self, m: u32) -> u64 {
        let (g, e) = (
            Dyadic::new(self.good_factor()),
            Dyadic::new(1.0 + self.epsilon),
        );
        let m2 = (m as u128).pow(2);
        let over = |k: u64| {
            cmp_products((k as u128).pow(2), e.mant(), e.exp(), m2, g.mant(), g.exp()).is_gt()
        };
        // `b < 1`, so `k = m + 1` is always over.
        least(self.b * m as f64 + 1.0, m as u64 + 1, over).expect("b ≤ 1") - 1
    }

    /// `δ`-good threshold: a job is δ-good iff `D_i ≥ (1+2δ) x_i`.
    #[inline]
    pub fn good_factor(&self) -> f64 {
        1.0 + 2.0 * self.delta
    }

    /// `δ`-fresh threshold: at time `t`, fresh iff `d_i − t ≥ (1+δ) x_i`.
    #[inline]
    pub fn fresh_factor(&self) -> f64 {
        1.0 + self.delta
    }

    /// Lower bound on any 1-speed schedule's completion time for a DAG job:
    /// `max{L, W/m}` — and the paper's stronger per-job benchmark
    /// `(W−L)/m + L` which any greedy (work-conserving) schedule achieves.
    pub fn brent_time(work: f64, span: f64, m: u32) -> f64 {
        (work - span) / m as f64 + span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(eps: f64) -> AlgoParams {
        AlgoParams::from_epsilon(eps).unwrap()
    }

    #[test]
    fn from_epsilon_satisfies_all_table1_constraints() {
        for eps in [0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0] {
            let p = params(eps);
            assert!(
                p.delta() > 0.0 && p.delta() < eps / 2.0,
                "delta for eps={eps}"
            );
            assert!(
                p.c() >= 1.0 + 1.0 / (p.delta() * eps) - 1e-9,
                "c for eps={eps}"
            );
            assert!(p.b() > 0.0 && p.b() < 1.0, "b in (0,1) for eps={eps}");
            let b_expected = ((1.0 + 2.0 * p.delta()) / (1.0 + eps)).sqrt();
            assert!((p.b() - b_expected).abs() < 1e-12);
            let a_expected = 1.0 + (1.0 + 2.0 * p.delta()) / (eps - 2.0 * p.delta());
            assert!((p.a() - a_expected).abs() < 1e-12);
            assert!(p.charge_margin() > 0.0, "margin positive for eps={eps}");
            assert!(
                p.charge_margin() >= (1.0 - p.b()) / p.b() / 2.0 - 1e-9,
                "margin is at least half of (1-b)/b for eps={eps}"
            );
        }
    }

    #[test]
    fn new_rejects_bad_inputs() {
        assert!(AlgoParams::new(0.0, 0.1, 100.0).is_err());
        assert!(AlgoParams::new(-1.0, 0.1, 100.0).is_err());
        assert!(AlgoParams::new(f64::NAN, 0.1, 100.0).is_err());
        assert!(AlgoParams::new(1.0, 0.5, 100.0).is_err(), "delta = eps/2");
        assert!(AlgoParams::new(1.0, 0.6, 100.0).is_err(), "delta > eps/2");
        assert!(AlgoParams::new(1.0, 0.0, 100.0).is_err(), "delta = 0");
        // c below the paper's floor 1 + 1/(delta*eps) = 5.
        assert!(AlgoParams::new(1.0, 0.25, 4.9).is_err());
        // c at the floor but margin non-positive: eps=1, delta=0.25 gives
        // b ~ .866, (1-b)/b ~ .1547, need 1/((c-1)*.25) < .1547 => c > 26.86.
        assert!(AlgoParams::new(1.0, 0.25, 10.0).is_err());
        assert!(AlgoParams::new(1.0, 0.25, 30.0).is_ok());
        assert!(AlgoParams::from_epsilon(0.0).is_err());
        assert!(AlgoParams::from_epsilon(f64::INFINITY).is_err());
    }

    #[test]
    fn competitive_ratio_grows_as_inverse_poly_of_epsilon() {
        // Theorem 2 gives O(1/eps^6): the ratio must be monotone decreasing
        // in eps and bounded by K/eps^6 for a single constant K over a sweep.
        let mut prev = f64::INFINITY;
        let mut k_max: f64 = 0.0;
        for eps in [0.1, 0.2, 0.4, 0.8, 1.0, 1.6, 2.0] {
            let p = params(eps);
            let ratio = p.throughput_competitive_ratio();
            assert!(ratio.is_finite() && ratio > 1.0);
            assert!(ratio < prev, "ratio should shrink as eps grows");
            prev = ratio;
            k_max = k_max.max(ratio * eps.powi(6));
        }
        // K exists (finite); sanity: the eps=0.1 point dominates.
        assert!(k_max.is_finite());
        let p = params(0.1);
        assert!(p.throughput_competitive_ratio() <= k_max / 0.1f64.powi(6) + 1.0);
    }

    #[test]
    fn profit_ratio_dominates_throughput_ratio() {
        for eps in [0.25, 0.5, 1.0, 2.0] {
            let p = params(eps);
            assert!(
                p.profit_competitive_ratio() > p.throughput_competitive_ratio(),
                "the 2(1+2δ) variant is strictly weaker"
            );
        }
    }

    #[test]
    fn brent_time_is_the_greedy_bound() {
        assert_eq!(AlgoParams::brent_time(100.0, 10.0, 10), 19.0);
        // A chain takes its span, a flat job its work over m.
        assert_eq!(AlgoParams::brent_time(10.0, 10.0, 4), 10.0);
        assert_eq!(AlgoParams::brent_time(64.0, 0.0, 8), 8.0);
    }

    #[test]
    fn band_capacity_is_the_floor_of_b_m() {
        let p = params(1.0);
        // b = √(1.5/2) ≈ 0.866.
        assert_eq!(p.band_capacity(1), 0);
        assert_eq!(p.band_capacity(4), 3);
        assert_eq!(p.band_capacity(8), 6);
        // b·m is irrational here, so the float floor is right too.
        for m in [2u32, 3, 16, 64, 1000, 65_536] {
            assert_eq!(
                p.band_capacity(m),
                (p.b() * m as f64).floor() as u64,
                "m = {m}"
            );
        }
    }

    #[test]
    fn good_and_fresh_factors() {
        let p = params(1.0);
        assert!((p.good_factor() - 1.5).abs() < 1e-12); // 1 + 2*0.25
        assert!((p.fresh_factor() - 1.25).abs() < 1e-12); // 1 + 0.25
    }
}
