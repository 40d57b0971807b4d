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
//! Band widths are dyadic rationals `k/8` with small numerators, so every
//! `base · c^k` is an exact [`Density`].
//!
//! The stretch query [`DensityBands::blocked_stretch`] is held to its
//! contract: every density of a returned stretch must reject allotment 1
//! by [`fits_population`].

use dagsched_core::{Density, Dyadic, JobId};
use dagsched_sched::bands::{fits_population, DensityBands};
use proptest::prelude::*;

/// A band width `c = k/8`.
#[derive(Debug, Clone, Copy)]
struct Width(u64);

impl Width {
    fn dyadic(self) -> Dyadic {
        Dyadic::new(self.0 as f64 / 8.0)
    }

    /// `c·v`.
    fn up(self, v: Density) -> Density {
        Density::new(v.profit() * self.0, v.xn() * 8)
    }

    /// `v/c`.
    fn down(self, v: Density) -> Density {
        Density::new(v.profit() * 8, v.xn() * self.0 as u128)
    }
}

/// The brute-force population.
#[derive(Debug, Clone, Default)]
struct Model {
    members: Vec<(JobId, Density, u32)>,
}

impl Model {
    fn pairs(&self) -> Vec<(Density, u32)> {
        self.members.iter().map(|&(_, d, a)| (d, a)).collect()
    }

    fn band_load(&self, v: Density, c: Dyadic) -> u64 {
        self.members
            .iter()
            .filter(|&&(_, d, _)| d.in_band(v, c))
            .map(|&(_, _, a)| a as u64)
            .sum()
    }

    fn check_invariant(&self, c: Dyadic, cap: u64) -> bool {
        self.members
            .iter()
            .all(|&(_, v, _)| self.band_load(v, c) <= cap)
    }

    fn remove(&mut self, id: JobId) -> bool {
        let before = self.members.len();
        self.members.retain(|&(j, _, _)| j != id);
        self.members.len() != before
    }

    /// Members ascending by `(density, id)`.
    fn sorted(&self) -> Vec<(JobId, Density, u32)> {
        let mut v = self.members.clone();
        v.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
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

fn pool_strategy(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((1u64..1000, 1u64..1000), len)
}

/// A small pool of base densities amplified by exact powers of `c`: indexes
/// resolve to `base[i % n] * c^(i / n % 4)`, so scripts hit both duplicate
/// densities and exact band-edge relations (`d2 == c * d1`).
fn density(pool: &[(u64, u64)], c: Width, idx: u8) -> Density {
    let n = pool.len();
    let (p, q) = pool[idx as usize % n];
    (0..(idx as usize / n) % 4).fold(Density::new(p, q as u128), |v, _| c.up(v))
}

/// The density just above (`step = 1`) or below (`step = -1`) `v`.
fn neighbour(v: Density, step: i64) -> Density {
    const SCALE: u64 = 1 << 20;
    Density::new(
        (v.profit() * SCALE).saturating_add_signed(step),
        v.xn() * SCALE as u128,
    )
}

/// If `bands` reports a blocked stretch below `d`, condition (2) must
/// reject allotment 1 at `d`, at every member density inside it, at every
/// `v/c` and `c·v` breakpoint inside it, and just to either side of each.
fn check_stretch(bands: &DensityBands, model: &Model, c: Width, cap: u64, d: Density) {
    let Some(stretch) = bands.blocked_stretch(d) else {
        return;
    };
    prop_assert!(bands.in_stretch(stretch, d), "{:?} misses {:?}", stretch, d);
    prop_assert!(!bands.fits(d, 1), "{:?} fits, yet starts a stretch", d);
    let members = model.pairs();
    let mut points = vec![d];
    for &(v, _) in &members {
        points.extend([v, c.down(v), c.up(v)]);
    }
    for x in points {
        for y in [neighbour(x, -1), x, neighbour(x, 1)] {
            if y <= d && bands.in_stretch(stretch, y) {
                prop_assert!(
                    !fits_population(&members, y, 1, c.dyadic(), cap),
                    "{:?} in the stretch {:?} below {:?} fits allotment 1",
                    y,
                    stretch,
                    d
                );
            }
        }
    }
}

fn run_script(pool: &[(u64, u64)], c: Width, cap: u64, ops: &[Op]) {
    let mut bands = DensityBands::new(c.dyadic(), cap);
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
                    fits_population(&model.pairs(), d, op.allot, c.dyadic(), cap),
                    "fits({:?}, {}) diverged at step {}",
                    d,
                    op.allot,
                    step
                );
                check_stretch(&bands, &model, c, cap, d);
            }
            _ => {
                prop_assert_eq!(
                    bands.band_load(d),
                    model.band_load(d, c.dyadic()),
                    "band_load diverged at step {}",
                    step
                );
            }
        }
        // Structural agreement after every mutation or query.
        prop_assert_eq!(bands.len(), model.members.len());
        prop_assert_eq!(
            bands.check_invariant(),
            model.check_invariant(c.dyadic(), cap)
        );
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

    /// Random interleavings over a random density pool.
    #[test]
    fn bands_match_model_on_random_scripts(
        raw_pool in pool_strategy(2..6),
        c in 10u64..40,
        cap in 2u64..20,
        ops in proptest::collection::vec(op_strategy(), 1..64),
    ) {
        run_script(&raw_pool, Width(c), cap, &ops);
    }

    /// A pool of a single base density: maximal tie pressure (every job
    /// shares a density or sits exactly `c^k` away).
    #[test]
    fn bands_match_model_under_equal_density_ties(
        base in pool_strategy(1..2),
        c in 10u64..32,
        cap in 2u64..12,
        ops in proptest::collection::vec(op_strategy(), 1..64),
    ) {
        run_script(&base, Width(c), cap, &ops);
    }

    /// Greedy build (insert only when `fits`), mirroring how scheduler S
    /// actually uses the structure: both sides must admit the exact same
    /// job sequence.
    #[test]
    fn greedy_admission_sequences_are_identical(
        jobs in proptest::collection::vec((0u8..255, 1u32..6), 0..48),
        c in 10u64..32,
        cap in 2u64..12,
    ) {
        let (pool, c) = ([(1, 2), (1, 1), (73, 10)], Width(c));
        let mut bands = DensityBands::new(c.dyadic(), cap);
        let mut model = Model::default();
        for (i, &(dens_idx, allot)) in jobs.iter().enumerate() {
            let d = density(&pool, c, dens_idx);
            let fits = bands.fits(d, allot);
            prop_assert_eq!(
                fits,
                fits_population(&model.pairs(), d, allot, c.dyadic(), cap),
                "admission diverged on job {}",
                i
            );
            if fits {
                bands.insert(JobId(i as u32), d, allot);
                model.members.push((JobId(i as u32), d, allot));
            }
        }
        prop_assert!(bands.check_invariant());
        prop_assert!(model.check_invariant(c.dyadic(), cap));
        let a: Vec<_> = bands.iter().collect();
        prop_assert_eq!(a, model.sorted());
    }

    /// Greedy builds dense enough to fill their bands, queried at every
    /// pool density: the stretches S jumps over on its completion scan.
    #[test]
    fn blocked_stretches_reject_allotment_one_throughout(
        raw_pool in pool_strategy(1..5),
        jobs in proptest::collection::vec((0u8..255, 1u32..4), 8..48),
        c in 10u64..48,
        cap in 1u64..10,
    ) {
        let c = Width(c);
        let mut bands = DensityBands::new(c.dyadic(), cap);
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
            check_stretch(&bands, &model, c, cap, Density::new(d.profit() * 101, d.xn() * 100));
            check_stretch(&bands, &model, c, cap, Density::new(d.profit() * 100, d.xn() * 101));
        }
    }
}
