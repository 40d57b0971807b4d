//! Differential proptests: the incremental (treap) [`DensityBands`] against
//! the retained pre-optimization sweep, [`reference::ReferenceBands`].
//!
//! The reference is the O(|Q|) sorted-`Vec` implementation the scheduler
//! shipped with; the treap replaces it on the hot path with O(log |Q|)
//! operations. These tests replay random interleaved
//! `insert`/`remove`/`fits`/`band_load`/`dense_load` scripts on both and
//! demand bit-identical answers after every step — with the adversarial
//! density patterns that break naive window code:
//!
//! * **equal-density ties** (duplicated base densities, so candidate order
//!   against existing members matters),
//! * **exact `c·v` band edges** (densities drawn as `base · c^k`, landing
//!   precisely on the exclusive upper boundary of other members' bands).
//!
//! The stretch query [`DensityBands::blocked_stretch`] has no reference
//! twin; it is held to its contract instead: every density of a returned
//! stretch must reject allotment 1 on the reference sweep.

use dagsched_core::JobId;
use dagsched_sched::bands::{reference::ReferenceBands, DensityBands};
use proptest::prelude::*;

/// One scripted operation. `which` selects insert/remove/fits/band_load;
/// the payload indices pick densities and victims deterministically.
#[derive(Debug, Clone, Copy)]
struct Op {
    which: u8,
    dens_idx: u8,
    allot: u32,
    victim: u8,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..4, 0u8..255, 1u32..6, 0u8..255).prop_map(|(which, dens_idx, allot, victim)| Op {
        which,
        dens_idx,
        allot,
        victim,
    })
}

/// A small pool of base densities amplified by exact powers of `c`: indexes
/// resolve to `base[i % n] * c^(i / n % 4)`, so scripts hit both duplicate
/// densities and exact band-edge relations (`d2 == c * d1`).
fn density(pool: &[f64], c: f64, idx: u8) -> f64 {
    let n = pool.len();
    let base = pool[idx as usize % n];
    let k = (idx as usize / n) % 4;
    base * c.powi(k as i32)
}

/// The positive float just above (`step = 1`) or below (`step = -1`) `x`.
fn neighbour(x: f64, step: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(step))
}

/// If `fast` reports a blocked stretch `[lo, d]`, the reference must
/// reject allotment 1 at its ends, at every member density inside it, at
/// every `v/c` and `c·v` breakpoint inside it, and one float to either
/// side of each of those.
fn check_stretch(fast: &DensityBands, slow: &ReferenceBands, c: f64, d: f64) {
    let Some(lo) = fast.blocked_stretch(d) else {
        return;
    };
    prop_assert!(lo <= d, "stretch [{}, {}] is empty", lo, d);
    prop_assert!(!fast.fits(d, 1), "{} fits, yet starts a stretch", d);
    let mut points = vec![lo, d];
    for (_, v, _) in slow.iter() {
        points.extend([v, v / c, c * v]);
    }
    for x in points {
        for y in [neighbour(x, -1), x, neighbour(x, 1)] {
            if lo <= y && y <= d && y > 0.0 {
                prop_assert!(
                    !slow.fits(y, 1),
                    "{} in the stretch [{}, {}] fits allotment 1",
                    y,
                    lo,
                    d
                );
            }
        }
    }
}

fn run_script(pool: &[f64], c: f64, cap: f64, ops: &[Op]) {
    let mut fast = DensityBands::new(c, cap);
    let mut slow = ReferenceBands::new(c, cap);
    let mut live: Vec<JobId> = Vec::new();
    let mut next_id = 0u32;
    for (step, op) in ops.iter().enumerate() {
        let d = density(pool, c, op.dens_idx);
        match op.which {
            0 => {
                // Insert — also when it violates the invariant, so agreement
                // is tested on polluted populations too.
                let id = JobId(next_id);
                next_id += 1;
                fast.insert(id, d, op.allot);
                slow.insert(id, d, op.allot);
                live.push(id);
            }
            1 => {
                if !live.is_empty() {
                    let id = live.swap_remove(op.victim as usize % live.len());
                    prop_assert_eq!(fast.remove(id), slow.remove(id));
                    prop_assert!(!fast.remove(id), "double remove must be false");
                }
            }
            2 => {
                prop_assert_eq!(
                    fast.fits(d, op.allot),
                    slow.fits(d, op.allot),
                    "fits({}, {}) diverged at step {}",
                    d,
                    op.allot,
                    step
                );
                check_stretch(&fast, &slow, c, d);
            }
            _ => {
                prop_assert_eq!(
                    fast.band_load(d, c * d),
                    slow.band_load(d, c * d),
                    "band_load diverged at step {}",
                    step
                );
                prop_assert_eq!(fast.dense_load(d), slow.dense_load(d));
            }
        }
        // Structural agreement after every mutation or query.
        prop_assert_eq!(fast.len(), slow.len());
        prop_assert_eq!(fast.check_invariant(), slow.check_invariant());
        prop_assert!(
            fast.cache_coherent(),
            "stale cached window at step {}",
            step
        );
        let a: Vec<_> = fast.iter().collect();
        let b: Vec<_> = slow.iter().collect();
        prop_assert_eq!(a, b, "membership snapshots diverged at step {}", step);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random interleavings over a log-uniform density pool.
    #[test]
    fn treap_matches_reference_on_random_scripts(
        raw_pool in proptest::collection::vec(0.01f64..100.0, 2..6),
        c in 1.2f64..5.0,
        cap in 2.0f64..20.0,
        ops in proptest::collection::vec(op_strategy(), 1..64),
    ) {
        run_script(&raw_pool, c, cap, &ops);
    }

    /// A pool of a single base density: maximal tie pressure (every job
    /// shares a density or sits exactly `c^k` away).
    #[test]
    fn treap_matches_reference_under_equal_density_ties(
        base in 0.1f64..10.0,
        c in 1.2f64..4.0,
        cap in 2.0f64..12.0,
        ops in proptest::collection::vec(op_strategy(), 1..64),
    ) {
        run_script(&[base], c, cap, &ops);
    }

    /// Greedy build (insert only when `fits`), mirroring how scheduler S
    /// actually uses the structure: both sides must admit the exact same
    /// job sequence.
    #[test]
    fn greedy_admission_sequences_are_identical(
        jobs in proptest::collection::vec((0u8..255, 1u32..6), 0..48),
        c in 1.2f64..4.0,
        cap in 2.0f64..12.0,
    ) {
        let pool = [0.5, 1.0, 7.3];
        let mut fast = DensityBands::new(c, cap);
        let mut slow = ReferenceBands::new(c, cap);
        for (i, &(dens_idx, allot)) in jobs.iter().enumerate() {
            let d = density(&pool, c, dens_idx);
            let ff = fast.fits(d, allot);
            let sf = slow.fits(d, allot);
            prop_assert_eq!(ff, sf, "admission diverged on job {}", i);
            if ff {
                fast.insert(JobId(i as u32), d, allot);
                slow.insert(JobId(i as u32), d, allot);
            }
        }
        prop_assert!(fast.check_invariant());
        prop_assert!(fast.cache_coherent());
        let a: Vec<_> = fast.iter().collect();
        let b: Vec<_> = slow.iter().collect();
        prop_assert_eq!(a, b);
    }

    /// Greedy builds dense enough to fill their bands, queried at every
    /// pool density: the stretches S jumps over on its completion scan.
    #[test]
    fn blocked_stretches_reject_allotment_one_throughout(
        raw_pool in proptest::collection::vec(0.01f64..100.0, 1..5),
        jobs in proptest::collection::vec((0u8..255, 1u32..4), 8..48),
        c in 1.2f64..6.0,
        cap in 1.0f64..10.0,
    ) {
        let mut fast = DensityBands::new(c, cap);
        let mut slow = ReferenceBands::new(c, cap);
        for (i, &(dens_idx, allot)) in jobs.iter().enumerate() {
            let d = density(&raw_pool, c, dens_idx);
            if fast.fits(d, allot) {
                fast.insert(JobId(i as u32), d, allot);
                slow.insert(JobId(i as u32), d, allot);
            }
        }
        for idx in 0..=255u8 {
            let d = density(&raw_pool, c, idx);
            check_stretch(&fast, &slow, c, d);
            check_stretch(&fast, &slow, c, d * 1.01);
            check_stretch(&fast, &slow, c, d / 1.01);
        }
    }
}
