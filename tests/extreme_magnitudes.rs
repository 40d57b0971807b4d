//! Extreme magnitudes: work near `u64::MAX / work_scale` and machine-group
//! denominators whose lcm overflows `u64`.
//!
//! Every input here is one a user can reach (an instance file, a `--groups`
//! shape, a rational speed). Each must either run or be refused with
//! [`SchedError::InvalidInstance`] — never panic, in debug builds included,
//! where an overflowing multiplication would. The expected verdict is
//! computed independently in `u128`.

use dagsched_core::{JobId, MachineGroups, SchedError, Speed, Time};
use dagsched_dag::gen;
use dagsched_engine::{simulate, simulate_observed, Observers, OnlineScheduler, SimConfig};
use dagsched_sched::{Edf, SchedulerS, SchedulerSProfit};
use dagsched_verify::{EventLog, WorkConservationChecker};
use dagsched_workload::{Instance, JobSpec, StepProfitFn};
use proptest::prelude::*;

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `parts` single-node jobs of total work `total` on `m` processors, or
/// the instance constructor's verdict when the total overflows `u64`.
fn instance(m: u32, total: u128, parts: u64) -> Result<Instance, SchedError> {
    let share = total / u128::from(parts);
    let jobs = (0..parts)
        .map(|i| {
            let work = if i + 1 == parts {
                total - share * u128::from(parts - 1)
            } else {
                share
            };
            JobSpec::new(
                JobId(i as u32),
                Time(i),
                gen::single(u64::try_from(work).expect("each share fits u64")).into_shared(),
                StepProfitFn::deadline(Time(4), 1 + i),
            )
        })
        .collect();
    Instance::new(m, jobs)
}

fn schedulers(m: u32) -> Vec<Box<dyn OnlineScheduler>> {
    vec![
        Box::new(SchedulerS::with_epsilon(m, 1.0)),
        Box::new(SchedulerSProfit::with_epsilon(m, 1.0)),
        Box::new(Edf::new(m)),
    ]
}

/// Run every scheduler on both engine paths, plain and observed; each run
/// must succeed when `fits`, and be refused with `InvalidInstance`
/// otherwise.
fn check_runs(inst: &Instance, cfg: &SimConfig, fits: bool) {
    for fast_forward in [true, false] {
        let cfg = SimConfig {
            fast_forward,
            ..cfg.clone()
        };
        let observed = schedulers(inst.m());
        for (mut plain, mut observed) in schedulers(inst.m()).into_iter().zip(observed) {
            let name = plain.name();
            let (mut work, mut log) = (WorkConservationChecker::new().lenient(), EventLog::new());
            let runs = [
                simulate(inst, plain.as_mut(), &cfg),
                simulate_observed(
                    inst,
                    observed.as_mut(),
                    &cfg,
                    &mut Observers::new(vec![&mut work, &mut log]),
                ),
            ];
            for r in runs {
                if fits {
                    assert!(r.is_ok(), "{name}: {r:?}");
                } else {
                    assert!(
                        matches!(r, Err(SchedError::InvalidInstance(_))),
                        "{name}: {r:?}"
                    );
                }
            }
            assert!(work.violations().is_empty(), "{:?}", work.violations());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Total work within a few units of `u64::MAX / work_scale` at a
    /// rational speed: the run goes ahead exactly when the scaled total
    /// fits `u64`, and an instance whose own total overflows is refused at
    /// construction.
    #[test]
    fn work_near_the_scaled_limit_runs_or_is_refused(
        num in 1u32..=u32::MAX,
        den in denominators(),
        delta in -3i64..=3,
        parts in 1u64..=3,
        m in 1u32..=3,
    ) {
        let speed = Speed::new(num, den).expect("positive");
        let scale = u128::from(speed.work_scale());
        let limit = u128::from(u64::MAX) / scale;
        let total = limit.saturating_add_signed(i128::from(delta)).max(u128::from(parts));
        match instance(m, total, parts) {
            Ok(inst) => check_runs(&inst, &SimConfig::at_speed(speed), total * scale <= u128::from(u64::MAX)),
            Err(e) => {
                prop_assert!(total > u128::from(u64::MAX), "{e}");
                prop_assert!(matches!(e, SchedError::InvalidInstance(_)), "{e}");
            }
        }
    }

    /// Group shapes with large denominators: the parser and `new` accept
    /// exactly the shapes whose work scale (the lcm of the reduced
    /// denominators) and per-group units fit `u64`, and an accepted shape
    /// runs work near its own limit.
    #[test]
    fn group_denominators_overflowing_the_lcm_are_refused(
        groups in proptest::collection::vec((1u32..=2, 1u32..=u32::MAX, denominators()), 1..=4),
        delta in -2i64..=2,
    ) {
        let spec = groups
            .iter()
            .map(|&(count, num, den)| format!("{count}x{num}/{den}"))
            .collect::<Vec<_>>()
            .join(",");
        let speeds: Vec<Speed> = groups
            .iter()
            .map(|&(_, num, den)| Speed::new(num, den).expect("positive"))
            .collect();
        let lcm = speeds.iter().try_fold(1u128, |acc, s| {
            let den = u128::from(s.work_scale());
            let l = acc / gcd(acc, den) * den;
            (l <= u128::from(u64::MAX)).then_some(l)
        });
        let fits = lcm.is_some_and(|l| {
            speeds.iter().all(|s| {
                u128::from(s.units_per_tick()) * (l / u128::from(s.work_scale()))
                    <= u128::from(u64::MAX)
            })
        });
        let parsed = spec.parse::<MachineGroups>();
        let built = MachineGroups::new(groups.iter().zip(&speeds).map(|(&(c, _, _), &s)| (c, s)));
        for r in [&parsed, &built] {
            match r {
                Ok(g) => {
                    prop_assert!(fits, "{spec} accepted with scale {}", g.work_scale());
                    prop_assert_eq!(u128::from(g.work_scale()), lcm.expect("fits"));
                }
                Err(e) => {
                    prop_assert!(!fits, "{spec} refused: {e}");
                    prop_assert!(matches!(e, SchedError::InvalidInstance(_)), "{e}");
                }
            }
        }
        if let Ok(g) = parsed {
            let scale = u128::from(g.work_scale());
            let total = (u128::from(u64::MAX) / scale).saturating_add_signed(i128::from(delta)).max(1);
            let inst = instance(g.total(), total, 1).expect("one job's work fits u64");
            check_runs(&inst, &SimConfig::on_groups(g), total * scale <= u128::from(u64::MAX));
        }
    }
}

/// Denominators that make the lcm overflow: primes just below 2^32 (any
/// three are coprime, and their product exceeds 2^64), mixed with small
/// ones and arbitrary values.
fn denominators() -> impl Strategy<Value = u32> {
    const LARGE_PRIMES: [u32; 4] = [4_294_967_291, 4_294_967_279, 4_294_967_231, 4_294_967_197];
    (0u32..4, 0usize..4, 1u32..=u32::MAX).prop_map(|(kind, i, any)| match kind {
        0 | 1 => LARGE_PRIMES[i],
        2 => 1 + (any % 8),
        _ => any,
    })
}

/// The shapes the proptest samples at random, pinned: three large prime
/// denominators overflow the lcm; two still fit and then run work at the
/// scaled limit, one unit past which the run is refused.
#[test]
fn large_prime_denominators_pin_the_limits() {
    let over = "1x1/4294967291,1x1/4294967279,1x1/4294967231".parse::<MachineGroups>();
    assert!(
        matches!(over, Err(SchedError::InvalidInstance(_))),
        "{over:?}"
    );
    let g: MachineGroups = "1x1/4294967291,1x3/4294967279".parse().expect("lcm fits");
    let scale = u128::from(g.work_scale());
    assert_eq!(scale, 4_294_967_291 * 4_294_967_279);
    let limit = u128::from(u64::MAX) / scale;
    for (total, fits) in [(limit, true), (limit + 1, false)] {
        let inst = instance(2, total, 1).expect("fits u64");
        check_runs(&inst, &SimConfig::on_groups(g.clone()), fits);
    }
}
