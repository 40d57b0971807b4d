//! Boundary and agreement tests for the density-band structure.
//!
//! `DensityBands::check_invariant` and the verify crate's
//! [`band_overload`] re-derive Observation 3 by two independent
//! implementations (incremental sliding window vs. brute-force anchor
//! scan). These tests pin the boundary semantics — membership `[v, c·v)`,
//! capacity `≤ b·m` inclusive — exactly at the edges, and prove the two
//! implementations agree on random insert/remove sequences.

use dagsched_core::{AlgoParams, Density, Dyadic, JobId};
use dagsched_sched::bands::{fits_population, DensityBands, Stretch};
use dagsched_verify::band_overload;
use proptest::prelude::*;

fn d(p: u64, q: u128) -> Density {
    Density::new(p, q)
}

/// The density `x`, for `x` with at most three decimals.
fn dec(x: f64) -> Density {
    d((x * 1000.0).round() as u64, 1000)
}

fn members_of(b: &DensityBands) -> Vec<(Density, u32)> {
    b.iter().map(|(_, d, a)| (d, a)).collect()
}

/// A candidate landing *exactly* at capacity `⌊b·m⌋` is admitted: the
/// paper's condition (2) is `N ≤ b·m`, inclusive.
#[test]
fn candidate_exactly_at_paper_capacity_is_admitted() {
    let params = AlgoParams::from_epsilon(1.0).expect("valid epsilon");
    let (c, m) = (Dyadic::new(params.c()), 4u32);
    let full = params.band_capacity(m); // integral allotments can only hit ⌊b·m⌋
    assert_eq!(full, 3, "⌊0.866 · 4⌋");
    let mut b = DensityBands::new(c, full);
    // Fill one band to exactly ⌊b·m⌋ − 1, then offer a 1-allotment job.
    b.insert(JobId(0), d(1, 1), (full - 1) as u32);
    assert!(
        b.fits(d(1, 1), 1),
        "load exactly ⌊b·m⌋ = {full} must be admitted"
    );
    b.insert(JobId(1), d(1, 1), 1);
    assert!(b.check_invariant());
    assert!(!b.fits(d(1, 1), 1), "one more breaches b·m");
    // The independent checker agrees on both sides of the boundary.
    assert!(band_overload(&[(d(1, 1), full as u32)], c, full).is_none());
    assert_eq!(
        band_overload(&[(d(1, 1), (full + 1) as u32)], c, full),
        Some((d(1, 1), full + 1))
    );
}

/// The band's upper edge is exclusive: a job at density exactly `c·v` is
/// outside `v`'s band for both implementations.
#[test]
fn band_upper_edge_is_exclusive_in_both_implementations() {
    let (c, cap) = (Dyadic::new(2.0), 4);
    let mut b = DensityBands::new(c, cap);
    b.insert(JobId(0), d(1, 1), 4); // band [1, 2) is exactly full
    assert!(b.check_invariant());
    assert!(b.fits(d(2, 1), 4), "density c·v = 2 starts a fresh band");
    assert!(
        !b.fits(d(1999, 1000), 1),
        "just inside the band overflows it"
    );
    assert!(band_overload(&[(d(1, 1), 4), (d(2, 1), 4)], c, cap).is_none());
    assert!(band_overload(&[(d(1, 1), 4), (d(1999, 1000), 1)], c, cap).is_some());
}

/// Candidates at exactly `c·v_j` and `v_j/c`, and a stretch queried at
/// exactly an anchor's density `d`, against condition (2) written out.
///
/// `c = 2`, capacity 3, `Q = {1 (allotment 2), 3/2 (allotment 1)}`: the
/// band `[1, 2)` is full. At `d = 1` both families block: the anchor at
/// exactly `d`, and the own window, whose walk from `d` fills at
/// `v_j = 3/2`, so the stretch is `(3/4, 1]`. At exactly `v_j/c = 3/4`
/// the own window `[3/4, 3/2)` leaves `v_j` out and a candidate fits.
#[test]
fn stretches_and_fits_are_exact_at_band_edges() {
    let c = Dyadic::new(2.0);
    let mut b = DensityBands::new(c, 3);
    b.insert(JobId(0), d(1, 1), 2);
    b.insert(JobId(1), d(3, 2), 1);
    let members = members_of(&b);

    assert_eq!(b.blocked_stretch(d(1, 1)), Some(Stretch::Above(d(3, 2))));
    assert!(!b.in_stretch(Stretch::Above(d(3, 2)), d(3, 4)));
    assert!(b.in_stretch(Stretch::Above(d(3, 2)), d(3 << 20 | 1, 4 << 20)));
    assert!(
        b.fits(d(3, 4), 1),
        "v_j/c = 3/4 exactly: v_j is outside its band"
    );
    assert!(
        !b.fits(d(3 << 20 | 1, 4 << 20), 1),
        "just above v_j/c it is inside"
    );
    assert!(b.fits(d(2, 1), 1), "c·1 = 2 exactly is outside [1, 2)");
    assert!(b.fits(d(3, 1), 3), "c·v_j = 3 exactly starts an empty band");

    // Every edge, and a hair to either side, agrees with the reference;
    // every stretch holds its query point and blocks allotment 1 throughout.
    let mut points = Vec::new();
    for &(v, _) in &members {
        for x in [v, d(v.profit(), v.xn() * 2), d(v.profit() * 2, v.xn())] {
            let (p, q) = (x.profit() << 20, x.xn() << 20);
            points.extend([d(p - 1, q), x, d(p + 1, q)]);
        }
    }
    for &y in &points {
        for allot in 1..=3 {
            assert_eq!(
                b.fits(y, allot),
                fits_population(&members, y, allot, c, 3),
                "fits({y:?}, {allot})"
            );
        }
        if let Some(s) = b.blocked_stretch(y) {
            assert!(b.in_stretch(s, y), "{s:?} misses its query point {y:?}");
            for &z in points.iter().filter(|&&z| z <= y && b.in_stretch(s, z)) {
                assert!(
                    !fits_population(&members, z, 1, c, 3),
                    "{z:?} fits, yet {s:?} below {y:?} holds it"
                );
            }
        }
    }

    // An anchor below `d` bounds the stretch where the own window from `d`
    // never fills, and the lower of the two families wins where both block.
    let mut b = DensityBands::new(c, 3);
    b.insert(JobId(0), d(1, 2), 1);
    b.insert(JobId(1), d(3, 4), 2);
    b.insert(JobId(2), d(1, 1), 1);
    assert_eq!(
        b.blocked_stretch(d(1, 1)),
        Some(Stretch::From(d(3, 4))),
        "only the anchor 3/4 ≤ 1 < 3/2 blocks"
    );
    assert_eq!(b.blocked_stretch(d(3, 4)), Some(Stretch::From(d(1, 2))));
    assert_eq!(
        b.blocked_stretch(d(1, 2)),
        Some(Stretch::Above(d(3, 4))),
        "(3/8, 1/2] reaches below the anchor at exactly 1/2"
    );
    assert!(!b.fits(d(7, 8), 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On random insert/remove sequences, `check_invariant` answers exactly
    /// `band_overload(members).is_none()` after every mutation.
    #[test]
    fn check_invariant_agrees_with_independent_checker(
        ops in proptest::collection::vec((0.01f64..50.0, 1u32..6, 0u32..2), 1..24),
        c in 1.5f64..6.0,
        cap in 3u64..15,
    ) {
        let c = Dyadic::new(c);
        let mut b = DensityBands::new(c, cap);
        for (i, &(v, a, remove_first)) in ops.iter().enumerate() {
            if remove_first == 1 && !b.is_empty() {
                let victim = b.iter().next().map(|(id, _, _)| id).unwrap();
                b.remove(victim);
            }
            // Insert unconditionally — invariant-violating states included,
            // so agreement is tested on both answers.
            b.insert(JobId(i as u32), dec(v), a);
            prop_assert_eq!(
                b.check_invariant(),
                band_overload(&members_of(&b), c, cap).is_none(),
                "disagreement after op {} on {:?}", i, members_of(&b)
            );
        }
    }

    /// `fits` answers exactly "would the independent checker stay clean".
    #[test]
    fn fits_agrees_with_independent_checker(
        jobs in proptest::collection::vec((0.01f64..50.0, 1u32..6), 0..12),
        cand_d in 0.01f64..50.0,
        cand_a in 1u32..6,
    ) {
        let (c, cap) = (Dyadic::new(2.5), 8);
        let mut b = DensityBands::new(c, cap);
        // Greedy build, as scheduler S does.
        for (i, &(v, a)) in jobs.iter().enumerate() {
            if b.fits(dec(v), a) {
                b.insert(JobId(i as u32), dec(v), a);
            }
        }
        let mut with_cand = members_of(&b);
        with_cand.push((dec(cand_d), cand_a));
        prop_assert_eq!(
            b.fits(dec(cand_d), cand_a),
            band_overload(&with_cand, c, cap).is_none()
        );
        // And the standalone population check is the same predicate.
        prop_assert_eq!(
            fits_population(&members_of(&b), dec(cand_d), cand_a, c, cap),
            band_overload(&with_cand, c, cap).is_none()
        );
    }
}
