//! Piecewise-constant non-increasing profit functions.
//!
//! The general profit problem gives each job an arbitrary non-increasing
//! `p_i(t)` — the profit for completing `t` ticks after arrival. We restrict
//! to *step functions*: finitely many `(bound, value)` segments followed by a
//! constant tail. This loses no generality for the experiments (any
//! non-increasing function can be discretized to steps on a tick grid) and it
//! makes Section 5's deadline search tractable: the scheduler only needs to
//! consider one candidate deadline per step.
//!
//! The throughput special case is a single step: profit `p` for `t ≤ D`,
//! zero after.

use dagsched_core::{Result, SchedError, Time};
use std::sync::Arc;

/// A non-increasing step function `p(t)` over relative completion time.
///
/// Semantics: with segments `[(b₀, v₀), (b₁, v₁), …]` (strictly increasing
/// `bᵢ`, strictly decreasing `vᵢ`) and tail value `v_tail`:
///
/// * `p(t) = v₀` for `t ≤ b₀`,
/// * `p(t) = vᵢ` for `bᵢ₋₁ < t ≤ bᵢ`,
/// * `p(t) = v_tail` for `t > b_last`.
///
/// Profits are integers so experiment totals are exact.
///
/// Segments live behind an `Arc` so cloning — which the engine does once per
/// job **arrival** to build the scheduler's `JobInfo` — is a reference-count
/// bump, not a heap allocation. Profit functions are immutable after
/// construction, so the sharing is unobservable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepProfitFn {
    segments: Arc<[(Time, u64)]>,
    tail: u64,
}

impl StepProfitFn {
    /// The deadline special case: profit `p` iff completed within
    /// `rel_deadline` ticks of arrival.
    pub fn deadline(rel_deadline: Time, profit: u64) -> StepProfitFn {
        StepProfitFn {
            segments: Arc::new([(rel_deadline, profit)]),
            tail: 0,
        }
    }

    /// A general step function.
    ///
    /// # Errors
    /// Segments must be non-empty with strictly increasing bounds and
    /// strictly decreasing values, all above the tail value; bounds must be
    /// positive (a profit window of zero ticks is unfillable).
    pub fn steps(segments: Vec<(Time, u64)>, tail: u64) -> Result<StepProfitFn> {
        if segments.is_empty() {
            return Err(SchedError::InvalidInstance(
                "profit function needs at least one segment".into(),
            ));
        }
        if segments[0].0 == Time::ZERO {
            return Err(SchedError::InvalidInstance(
                "first profit bound must be positive".into(),
            ));
        }
        for w in segments.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(SchedError::InvalidInstance(format!(
                    "profit bounds must strictly increase: {} then {}",
                    w[0].0, w[1].0
                )));
            }
            if w[1].1 >= w[0].1 {
                return Err(SchedError::InvalidInstance(format!(
                    "profit values must strictly decrease: {} then {}",
                    w[0].1, w[1].1
                )));
            }
        }
        let last_val = segments.last().unwrap().1;
        if tail >= last_val {
            return Err(SchedError::InvalidInstance(format!(
                "tail {tail} must be below the last segment value {last_val}"
            )));
        }
        Ok(StepProfitFn {
            segments: segments.into(),
            tail,
        })
    }

    /// Evaluate `p(t)` for a relative completion time `t`.
    pub fn eval(&self, t: Time) -> u64 {
        for &(bound, value) in self.segments.iter() {
            if t <= bound {
                return value;
            }
        }
        self.tail
    }

    /// The maximum obtainable profit, `p(0⁺)`.
    pub fn max_profit(&self) -> u64 {
        self.segments[0].1
    }

    /// The paper's `x*`: the largest `t` with `p(t) = p(0⁺)` — the profit is
    /// flat up to (and including) this point.
    pub fn flat_until(&self) -> Time {
        self.segments[0].0
    }

    /// The value after the last breakpoint (0 for deadline jobs).
    pub fn tail_value(&self) -> u64 {
        self.tail
    }

    /// The step bounds and values, for schedulers that enumerate candidate
    /// deadlines (one candidate per step suffices: within a step, smaller
    /// deadlines only constrain more without paying more).
    pub fn segments(&self) -> &[(Time, u64)] {
        &self.segments
    }

    /// For single-step functions with zero tail (the throughput case), the
    /// relative deadline; `None` for genuinely general functions.
    pub fn as_deadline(&self) -> Option<(Time, u64)> {
        if self.segments.len() == 1 && self.tail == 0 {
            Some(self.segments[0])
        } else {
            None
        }
    }

    /// Latest relative time at which completing still earns more than the
    /// tail: the last bound. After this, running the job can gain at most
    /// `tail` (exactly 0 for deadline jobs) — schedulers use it to expire
    /// work.
    pub fn last_useful_time(&self) -> Time {
        self.segments.last().unwrap().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_function_semantics() {
        let f = StepProfitFn::deadline(Time(10), 100);
        assert_eq!(f.eval(Time(0)), 100);
        assert_eq!(f.eval(Time(10)), 100, "deadline tick is inclusive");
        assert_eq!(f.eval(Time(11)), 0);
        assert_eq!(f.max_profit(), 100);
        assert_eq!(f.flat_until(), Time(10));
        assert_eq!(f.as_deadline(), Some((Time(10), 100)));
        assert_eq!(f.last_useful_time(), Time(10));
        assert_eq!(f.tail_value(), 0);
    }

    #[test]
    fn multi_step_semantics() {
        let f = StepProfitFn::steps(vec![(Time(5), 90), (Time(8), 40), (Time(20), 10)], 2).unwrap();
        assert_eq!(f.eval(Time(1)), 90);
        assert_eq!(f.eval(Time(5)), 90);
        assert_eq!(f.eval(Time(6)), 40);
        assert_eq!(f.eval(Time(8)), 40);
        assert_eq!(f.eval(Time(9)), 10);
        assert_eq!(f.eval(Time(20)), 10);
        assert_eq!(f.eval(Time(21)), 2);
        assert_eq!(f.eval(Time(1_000_000)), 2);
        assert_eq!(f.flat_until(), Time(5));
        assert_eq!(f.as_deadline(), None);
        assert_eq!(f.last_useful_time(), Time(20));
    }

    #[test]
    fn eval_is_non_increasing_everywhere() {
        let f = StepProfitFn::steps(vec![(Time(3), 50), (Time(7), 20)], 0).unwrap();
        let mut prev = u64::MAX;
        for t in 0..20 {
            let v = f.eval(Time(t));
            assert!(v <= prev, "p({t}) = {v} increased from {prev}");
            prev = v;
        }
    }

    #[test]
    fn validation_rejects_malformed_functions() {
        assert!(StepProfitFn::steps(vec![], 0).is_err(), "empty");
        assert!(
            StepProfitFn::steps(vec![(Time(0), 10)], 0).is_err(),
            "zero first bound"
        );
        assert!(
            StepProfitFn::steps(vec![(Time(5), 10), (Time(5), 5)], 0).is_err(),
            "non-increasing bounds"
        );
        assert!(
            StepProfitFn::steps(vec![(Time(5), 10), (Time(9), 10)], 0).is_err(),
            "non-decreasing values"
        );
        assert!(
            StepProfitFn::steps(vec![(Time(5), 10)], 10).is_err(),
            "tail not below last value"
        );
        assert!(StepProfitFn::steps(vec![(Time(5), 10)], 9).is_ok());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_fn() -> impl Strategy<Value = StepProfitFn> {
            // Up to 5 segments with increasing bounds / decreasing values.
            (1usize..=5).prop_flat_map(|k| {
                (
                    proptest::collection::vec(1u64..50, k),
                    proptest::collection::vec(1u64..50, k),
                )
                    .prop_map(move |(dbounds, dvals)| {
                        let mut bound = 0u64;
                        let mut segs = Vec::new();
                        let mut value: u64 = dvals.iter().sum::<u64>() + 1;
                        for i in 0..k {
                            bound += dbounds[i];
                            value -= dvals[i];
                            segs.push((Time(bound), value));
                        }
                        StepProfitFn::steps(segs, 0).expect("constructed valid")
                    })
            })
        }

        proptest! {
            #[test]
            fn non_increasing(f in arb_fn(), t1 in 0u64..200, dt in 0u64..200) {
                prop_assert!(f.eval(Time(t1)) >= f.eval(Time(t1 + dt)));
            }

            #[test]
            fn flat_until_is_flat(f in arb_fn()) {
                let x = f.flat_until();
                for t in 0..=x.ticks().min(100) {
                    prop_assert_eq!(f.eval(Time(t)), f.max_profit());
                }
                prop_assert!(f.eval(Time(x.ticks() + 1)) < f.max_profit());
            }
        }
    }
}
