//! Differential proptests: [`DensityBands`] against a brute-force model of
//! its population.
//!
//! The model is a plain `Vec` of `(id, density, allotment)`: `fits` is
//! [`fits_population`] (condition (2) written out), `band_load` a
//! filter-sum, and the invariant a per-anchor check of every member's band.
//! These tests replay random interleaved `insert`/`remove`/`fits`/
//! `band_load` scripts on both and demand identical answers after every
//! step — with the adversarial density patterns that break window code:
//!
//! * **equal-density ties** (duplicated base densities, so candidate order
//!   against existing members matters),
//! * **exact `c·v` band edges** (densities drawn as `base · c^k`, landing
//!   precisely on the exclusive upper boundary of other members' bands).
//!
//! The stretch query [`DensityBands::blocked_stretch`] is held to its
//! contract: every density of a returned stretch must reject allotment 1
//! by [`fits_population`].

use dagsched_core::JobId;
use dagsched_sched::bands::{fits_population, DensityBands};
use proptest::prelude::*;

/// The brute-force population.
#[derive(Debug, Clone, Default)]
struct Model {
    members: Vec<(JobId, f64, u32)>,
}

impl Model {
    fn pairs(&self) -> Vec<(f64, u32)> {
        self.members.iter().map(|&(_, d, a)| (d, a)).collect()
    }

    fn band_load(&self, lo: f64, hi: f64) -> u64 {
        self.members
            .iter()
            .filter(|&&(_, d, _)| d >= lo && d < hi)
            .map(|&(_, _, a)| a as u64)
            .sum()
    }

    fn check_invariant(&self, c: f64, cap: f64) -> bool {
        self.members
            .iter()
            .all(|&(_, v, _)| self.band_load(v, c * v) as f64 <= cap)
    }

    fn remove(&mut self, id: JobId) -> bool {
        let before = self.members.len();
        self.members.retain(|&(j, _, _)| j != id);
        self.members.len() != before
    }

    /// Members ascending by `(density, id)`.
    fn sorted(&self) -> Vec<(JobId, f64, u32)> {
        let mut v = self.members.clone();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v
    }
}

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

/// If `bands` reports a blocked stretch `[lo, d]`, condition (2) must
/// reject allotment 1 at its ends, at every member density inside it, at
/// every `v/c` and `c·v` breakpoint inside it, and one float to either
/// side of each of those.
fn check_stretch(bands: &DensityBands, model: &Model, c: f64, cap: f64, d: f64) {
    let Some(lo) = bands.blocked_stretch(d) else {
        return;
    };
    prop_assert!(lo <= d, "stretch [{}, {}] is empty", lo, d);
    prop_assert!(!bands.fits(d, 1), "{} fits, yet starts a stretch", d);
    let members = model.pairs();
    let mut points = vec![lo, d];
    for &(v, _) in &members {
        points.extend([v, v / c, c * v]);
    }
    for x in points {
        for y in [neighbour(x, -1), x, neighbour(x, 1)] {
            if lo <= y && y <= d && y > 0.0 {
                prop_assert!(
                    !fits_population(&members, y, 1, c, cap),
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
    let mut bands = DensityBands::new(c, cap);
    let mut model = Model::default();
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
                bands.insert(id, d, op.allot);
                model.members.push((id, d, op.allot));
                live.push(id);
            }
            1 => {
                if !live.is_empty() {
                    let id = live.swap_remove(op.victim as usize % live.len());
                    prop_assert_eq!(bands.remove(id), model.remove(id));
                    prop_assert!(!bands.remove(id), "double remove must be false");
                }
            }
            2 => {
                prop_assert_eq!(
                    bands.fits(d, op.allot),
                    fits_population(&model.pairs(), d, op.allot, c, cap),
                    "fits({}, {}) diverged at step {}",
                    d,
                    op.allot,
                    step
                );
                check_stretch(&bands, &model, c, cap, d);
            }
            _ => {
                prop_assert_eq!(
                    bands.band_load(d, c * d),
                    model.band_load(d, c * d),
                    "band_load diverged at step {}",
                    step
                );
            }
        }
        // Structural agreement after every mutation or query.
        prop_assert_eq!(bands.len(), model.members.len());
        prop_assert_eq!(bands.check_invariant(), model.check_invariant(c, cap));
        let a: Vec<_> = bands.iter().collect();
        prop_assert_eq!(
            a,
            model.sorted(),
            "membership snapshots diverged at step {}",
            step
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random interleavings over a log-uniform density pool.
    #[test]
    fn bands_match_model_on_random_scripts(
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
    fn bands_match_model_under_equal_density_ties(
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
        let mut bands = DensityBands::new(c, cap);
        let mut model = Model::default();
        for (i, &(dens_idx, allot)) in jobs.iter().enumerate() {
            let d = density(&pool, c, dens_idx);
            let fits = bands.fits(d, allot);
            prop_assert_eq!(
                fits,
                fits_population(&model.pairs(), d, allot, c, cap),
                "admission diverged on job {}",
                i
            );
            if fits {
                bands.insert(JobId(i as u32), d, allot);
                model.members.push((JobId(i as u32), d, allot));
            }
        }
        prop_assert!(bands.check_invariant());
        prop_assert!(model.check_invariant(c, cap));
        let a: Vec<_> = bands.iter().collect();
        prop_assert_eq!(a, model.sorted());
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
        let mut bands = DensityBands::new(c, cap);
        let mut model = Model::default();
        for (i, &(dens_idx, allot)) in jobs.iter().enumerate() {
            let d = density(&raw_pool, c, dens_idx);
            if bands.fits(d, allot) {
                bands.insert(JobId(i as u32), d, allot);
                model.members.push((JobId(i as u32), d, allot));
            }
        }
        for idx in 0..=255u8 {
            let d = density(&raw_pool, c, idx);
            check_stretch(&bands, &model, c, cap, d);
            check_stretch(&bands, &model, c, cap, d * 1.01);
            check_stretch(&bands, &model, c, cap, d / 1.01);
        }
    }
}
