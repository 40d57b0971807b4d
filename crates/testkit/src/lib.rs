//! A minimal, dependency-free property-testing harness exposing the subset
//! of the `proptest` API this workspace uses.
//!
//! The workspace builds in fully offline environments, so external crates
//! cannot be fetched from a registry. The workspace `Cargo.toml` maps the
//! `proptest` dependency name onto this crate
//! (`proptest = { path = "crates/testkit", package = "dagsched-testkit" }`),
//! which lets every property test keep its idiomatic
//! `use proptest::prelude::*` imports and `proptest!` blocks unchanged.
//!
//! Differences from real proptest, deliberately accepted:
//! - **No shrinking.** A failing case panics with the generated inputs
//!   visible in the assertion message; it is not minimized.
//! - **Deterministic sampling.** Every test draws from a fixed-seed
//!   [`TestRng`], so failures reproduce exactly across runs and machines.
//! - **Sample-based strategies.** A [`Strategy`] is just a deterministic
//!   sampler; combinators (`prop_map`, `prop_flat_map`, tuples,
//!   [`collection::vec`]) compose samplers.

use std::ops::{Range, RangeInclusive};

/// Deterministic generator state for property tests (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// The fixed-seed RNG used by the `proptest!` macro: every run of a
    /// property test visits the same case sequence.
    pub fn deterministic() -> Self {
        TestRng::seed_from(0x9e37_79b9_7f4a_7c15)
    }

    /// Seed explicitly (for harness-internal tests).
    pub fn seed_from(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit value (splitmix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "empty sampling range");
        // Modulo bias is negligible for test-data generation and keeps the
        // sampler branch-free and deterministic.
        self.next_u64() % bound
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Per-test configuration, compatible with `proptest::test_runner::Config`
/// as re-exported through the prelude.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` generated inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A deterministic value sampler. The real proptest `Strategy` builds value
/// *trees* to support shrinking; this shim only needs `generate`.
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Build a dependent strategy from each generated value and sample it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, T, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A strategy that always yields clones of one value, compatible with
/// `proptest::strategy::Just`.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-domain u64 range: every draw is valid.
                    rng.next_u64() as $t
                } else {
                    lo.wrapping_add(rng.below(span) as $t)
                }
            }
        }
    )+};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let x = self.start + rng.unit_f64() * (self.end - self.start);
        // Guard against rounding up to the excluded endpoint.
        if x >= self.end {
            self.start
        } else {
            x
        }
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        lo + rng.unit_f64() * (hi - lo)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        (self.start as f64..self.end as f64).generate(rng) as f32
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);
tuple_strategy!(A, B, C, D, E, F, G, H, I);
tuple_strategy!(A, B, C, D, E, F, G, H, I, J);

/// Collection strategies, compatible with `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive-lower / exclusive-upper bounds on a generated collection's
    /// length, compatible with `proptest::collection::SizeRange`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_excl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_excl: n + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_excl: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                min: *r.start(),
                max_excl: *r.end() + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of values from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with lengths drawn from `size` (a fixed `usize` or a
    /// range), compatible with `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_excl - self.size.min) as u64;
            let len = self.size.min
                + if span <= 1 {
                    0
                } else {
                    rng.below(span) as usize
                };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The common imports, compatible with `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Assert inside a property, compatible with `proptest::prop_assert!`.
/// Failures panic immediately (no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assertion inside a property, compatible with
/// `proptest::prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality assertion inside a property, compatible with
/// `proptest::prop_assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Declare property tests, compatible with the `proptest!` macro:
///
/// ```
/// use dagsched_testkit::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     // In a test module, put `#[test]` here: attributes pass through.
///     fn holds(x in 0u64..100, y in 0.0f64..1.0) {
///         prop_assert!(x < 100 && y < 1.0);
///     }
/// }
/// holds();
/// ```
///
/// Each test evaluates its strategy expressions and body once per case with
/// a fixed-seed [`TestRng`], so runs are fully reproducible.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::deterministic();
            for __case in 0..__cfg.cases {
                let _ = __case;
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                { $body }
            }
        }
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut rng = TestRng::deterministic();
        for _ in 0..10_000 {
            let x = Strategy::generate(&(5u32..17), &mut rng);
            assert!((5..17).contains(&x));
            let y = Strategy::generate(&(3usize..=3), &mut rng);
            assert_eq!(y, 3);
            let z = Strategy::generate(&(-4i32..9), &mut rng);
            assert!((-4..9).contains(&z));
        }
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = TestRng::deterministic();
        for _ in 0..10_000 {
            let x = Strategy::generate(&(0.25f64..2.5), &mut rng);
            assert!((0.25..2.5).contains(&x));
        }
    }

    #[test]
    fn ranges_cover_their_endpoints() {
        let mut rng = TestRng::deterministic();
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[Strategy::generate(&(0usize..4), &mut rng)] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn combinators_compose() {
        let mut rng = TestRng::deterministic();
        let strat = (1usize..=4).prop_flat_map(|k| {
            (
                collection::vec(1u64..10, k),
                collection::vec(0.0f64..1.0, 0..3),
            )
                .prop_map(|(ints, floats)| (ints, floats))
        });
        for _ in 0..1_000 {
            let (ints, floats) = Strategy::generate(&strat, &mut rng);
            assert!((1..=4).contains(&ints.len()));
            assert!(ints.iter().all(|&v| (1..10).contains(&v)));
            assert!(floats.len() < 3);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::deterministic();
        let mut b = TestRng::deterministic();
        let s = (0u64..1000, 0.0f64..1.0, 0u8..5);
        for _ in 0..100 {
            assert_eq!(
                Strategy::generate(&s, &mut a),
                Strategy::generate(&s, &mut b)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_patterns((a, b) in (0u32..10, 10u32..20), v in collection::vec(0u64..5, 2)) {
            prop_assert!(a < 10);
            prop_assert!((10..20).contains(&b));
            prop_assert_eq!(v.len(), 2);
            prop_assert_ne!(b, a);
        }
    }

    proptest! {
        #[test]
        fn macro_without_config(x in 0u64..7) {
            prop_assert!(x < 7);
        }
    }
}
