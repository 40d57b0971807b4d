//! The density-band admission structure (condition (2) / Observation 3).
//!
//! Scheduler S admits a job `J_i` into the running queue `Q` only if, with
//! `J_i` included, **every** density band `[v_j, c·v_j)` anchored at a queued
//! job's density `v_j` requires at most `b·m` processors:
//!
//! > `N(Q ∪ {J_i}, v_j, c·v_j) ≤ b·m` for all `J_j ∈ Q ∪ {J_i}`.
//!
//! Section 5 applies the same rule to each time slot's population.
//! [`DensityBands`] holds one such population: its jobs, sorted by
//! `(density, id)` in a `Vec`, with every query a direct scan. S keeps `Q`
//! in one and walks it for execution; S-profit keeps one per run of slots.
//! Linear scans suit the populations the rule allows: with `b < 1` and
//! `c ≥ 18.8` for `ε ≤ 2`, bands are wide and shallow, so a population
//! holds a handful of jobs (`SchedulerSMetrics::max_q_len` is pinned at 6
//! on the seed-1 `parked-dense` instance).
//!
//! Observation 3 — the bound holds at all times — is exactly the invariant
//! that insertions are only performed after a successful
//! [`DensityBands::fits`] check; [`DensityBands::check_invariant`]
//! re-verifies it from scratch. [`fits_population`] writes condition (2)
//! out over an unsorted population: it is the independent reference the
//! paper transcriptions ([`PaperS`](crate::PaperS),
//! [`PaperSProfit`](crate::PaperSProfit)) and the tests check against.

use dagsched_core::JobId;

/// One member of a population.
#[derive(Debug, Clone, Copy)]
struct Entry {
    density: f64,
    id: JobId,
    allot: u32,
}

impl Entry {
    /// The sort key; densities are finite and non-negative, so the tuple
    /// comparison is a total order.
    fn key(&self) -> (f64, u32) {
        (self.density, self.id.0)
    }
}

/// A population of jobs ordered by density, answering the paper's
/// band-capacity queries.
#[derive(Debug, Clone)]
pub struct DensityBands {
    /// Sorted ascending by `(density, id)`.
    entries: Vec<Entry>,
    /// Band width `c > 1`.
    c: f64,
    /// Capacity `b·m`.
    capacity: f64,
}

/// Relative margin against float rounding in density-interval arithmetic.
/// The band arithmetic rounds `c·v` once per comparison (≈ 1e-16
/// relative), so this covers it many times over. Scheduler S widens its
/// re-check intervals by it, and [`DensityBands::blocked_stretch`] narrows
/// its own-window stretch by it: in both, erring that way only costs
/// probes the full scan would also no-op.
pub(crate) const BAND_SLACK: f64 = 1e-9;

impl DensityBands {
    /// Create a structure with band width `c` and capacity `b·m`.
    pub fn new(c: f64, capacity: f64) -> DensityBands {
        assert!(c > 1.0, "band width c must exceed 1");
        assert!(capacity > 0.0, "capacity must be positive");
        DensityBands {
            entries: Vec::new(),
            c,
            capacity,
        }
    }

    /// Remove every job, keeping allocated storage.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff there are no jobs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total allotment of jobs with density in `[lo, hi)` — the paper's
    /// `N(Q, lo, hi)`.
    pub fn band_load(&self, lo: f64, hi: f64) -> u64 {
        self.entries
            .iter()
            .skip_while(|e| e.density < lo)
            .take_while(|e| e.density < hi)
            .map(|e| e.allot as u64)
            .sum()
    }

    /// Would adding `(density, allot)` keep every band within capacity?
    ///
    /// One sliding-window sweep over the population with the candidate
    /// merged in at its sorted place (after equal-density members): the
    /// window of anchor `i` holds the entries from `i` up to the first one
    /// at or above `c·v_i`. Every anchor of the union is checked, so an
    /// already-over-capacity population rejects any candidate.
    pub fn fits(&self, density: f64, allot: u32) -> bool {
        debug_assert!(density.is_finite() && density >= 0.0);
        let cand = Entry {
            density,
            id: JobId(u32::MAX),
            allot,
        };
        let pos = self.entries.partition_point(|e| e.key() < cand.key());
        let get = |i: usize| match i.cmp(&pos) {
            std::cmp::Ordering::Less => self.entries[i],
            std::cmp::Ordering::Equal => cand,
            std::cmp::Ordering::Greater => self.entries[i - 1],
        };
        let n = self.entries.len() + 1;
        // `window` is the load of the entries `[i, j)`.
        let (mut j, mut window) = (0usize, 0u64);
        for i in 0..n {
            if j <= i {
                // Only a zero-density anchor, whose band `[0, 0)` is
                // empty, leaves the window behind.
                (j, window) = (i, 0);
            } else {
                window -= get(i - 1).allot as u64;
            }
            let hi = self.c * get(i).density;
            while j < n && get(j).density < hi {
                window += get(j).allot as u64;
                j += 1;
            }
            if window as f64 > self.capacity {
                return false;
            }
        }
        true
    }

    /// The lowest density `lo ≤ d` such that an allotment-1 candidate fits
    /// nowhere in `[lo, d]`, found from two window families; `None` if
    /// neither blocks `d` itself.
    ///
    /// * **Anchor window.** A member anchor `v ≤ d < c·v` whose load is
    ///   above `b·m − 1` rejects every candidate in `[v, d]`: its window
    ///   holds them all. The lowest such `v` bounds the stretch.
    /// * **Own window.** Walk the members from `d` upward until their load
    ///   is above `b·m − 1`; call the last one `v_j`. Every `d' ≤ d` with
    ///   `c·d' > v_j` has an own window `[d', c·d')` holding all of them,
    ///   so it is blocked: the stretch reaches down to `v_j/c`, moved
    ///   inward by a relative `1e-9` against float rounding.
    ///
    /// The stretch is sound, not tight: a density it omits may still be
    /// blocked. Both families hold for every allotment, because a larger
    /// allotment only adds load.
    pub fn blocked_stretch(&self, d: f64) -> Option<f64> {
        debug_assert!(d.is_finite() && d >= 0.0);
        let anchor = self
            .entries
            .iter()
            .take_while(|e| e.density <= d)
            .find(|e| {
                let hi = self.c * e.density;
                hi > d && self.full(self.band_load(e.density, hi))
            })
            .map(|e| e.density);
        let own = if self.full(0) {
            // Not even an empty window takes one processor.
            Some(0.0)
        } else {
            // `capacity.floor()` is the least load `full` accepts.
            let need = self.capacity.floor() as u64;
            let mut load = 0u64;
            self.entries
                .iter()
                .skip_while(|e| e.density < d)
                .find(|e| {
                    load += e.allot as u64;
                    load >= need
                })
                .and_then(|e| {
                    let v_j = e.density;
                    // `c·d'` rounds monotonically in `d'`, so checking the
                    // bottom keeps every `d' ∈ [lo, d]` above `v_j`.
                    let lo = v_j / self.c * (1.0 + BAND_SLACK);
                    (lo <= d && self.c * lo > v_j).then_some(lo)
                })
        };
        match (anchor, own) {
            (Some(a), Some(o)) => Some(a.min(o)),
            (a, o) => a.or(o),
        }
    }

    /// Would a window of this load reject an allotment-1 candidate?
    fn full(&self, load: u64) -> bool {
        (load + 1) as f64 > self.capacity
    }

    /// Insert a job. Insertion does not check [`fits`](Self::fits):
    /// Observation 3 is the caller's invariant.
    pub fn insert(&mut self, id: JobId, density: f64, allot: u32) {
        assert!(density.is_finite() && density >= 0.0, "bad density");
        assert!(allot >= 1, "allotment must be at least 1");
        debug_assert!(
            self.entries.iter().all(|e| e.id != id),
            "job {id:?} inserted twice into DensityBands"
        );
        let e = Entry { density, id, allot };
        let at = self.entries.partition_point(|x| x.key() < e.key());
        self.entries.insert(at, e);
    }

    /// Remove a job by id; returns true if it was present.
    pub fn remove(&mut self, id: JobId) -> bool {
        match self.entries.iter().position(|e| e.id == id) {
            Some(at) => {
                self.entries.remove(at);
                true
            }
            None => false,
        }
    }

    /// Re-verify Observation 3 from scratch: every band anchored at a member
    /// density is within capacity.
    pub fn check_invariant(&self) -> bool {
        self.entries
            .iter()
            .all(|e| self.band_load(e.density, self.c * e.density) as f64 <= self.capacity)
    }

    /// Iterate `(id, density, allot)` ascending by `(density, id)`.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (JobId, f64, u32)> + '_ {
        self.entries.iter().map(|e| (e.id, e.density, e.allot))
    }

    /// Iterate `(id, density, allot)` descending by density and, among
    /// equal densities, ascending by id: S-profit's execution order.
    pub(crate) fn iter_ranked(&self) -> impl Iterator<Item = (JobId, f64, u32)> + '_ {
        self.entries
            .chunk_by(|a, b| a.density == b.density)
            .rev()
            .flatten()
            .map(|e| (e.id, e.density, e.allot))
    }
}

/// Condition (2) written out over an arbitrary population: true iff adding
/// `(density, allot)` to `members` keeps
/// `N(members ∪ {cand}, v_j, c·v_j) ≤ capacity` for every anchor in the
/// union. `members` need not be sorted.
pub fn fits_population(
    members: &[(f64, u32)],
    density: f64,
    allot: u32,
    c: f64,
    capacity: f64,
) -> bool {
    let mut all: Vec<(f64, u32)> = Vec::with_capacity(members.len() + 1);
    all.extend_from_slice(members);
    all.push((density, allot));
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    for i in 0..all.len() {
        let anchor = all[i].0;
        let hi = c * anchor;
        let load: u64 = all[i..]
            .iter()
            .take_while(|(d, _)| *d < hi)
            .map(|(_, a)| *a as u64)
            .sum();
        if load as f64 > capacity {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bands(c: f64, cap: f64) -> DensityBands {
        DensityBands::new(c, cap)
    }

    fn members(b: &DensityBands) -> Vec<(f64, u32)> {
        b.iter().map(|(_, d, a)| (d, a)).collect()
    }

    #[test]
    fn empty_structure_accepts_anything_within_capacity() {
        let b = bands(4.0, 10.0);
        assert!(b.is_empty());
        assert!(b.fits(1.0, 10));
        assert!(!b.fits(1.0, 11), "a single job above capacity is rejected");
    }

    #[test]
    fn band_load_sums_the_half_open_window() {
        let mut b = bands(4.0, 100.0);
        b.insert(JobId(0), 1.0, 5);
        b.insert(JobId(1), 2.0, 7);
        b.insert(JobId(2), 10.0, 3);
        assert_eq!(b.band_load(1.0, 4.0), 12, "[1, 4) holds densities 1, 2");
        assert_eq!(b.band_load(2.0, 10.0), 7);
        assert_eq!(b.band_load(2.0, 10.1), 10, "upper bound exclusive");
        assert_eq!(b.band_load(0.5, f64::INFINITY), 15);
        assert_eq!(b.band_load(4.0, 2.0), 0, "an inverted window is empty");
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn fits_detects_band_overflow_at_any_anchor() {
        // c = 2, capacity = 10.
        let mut b = bands(2.0, 10.0);
        b.insert(JobId(0), 1.0, 6);
        // Candidate at density 1.5, allot 5: band [1.0, 2.0) would hold 11.
        assert!(!b.fits(1.5, 5));
        // Allot 4: band holds exactly 10 — allowed (≤).
        assert!(b.fits(1.5, 4));
        // Candidate at density 2.5: bands [1,2)={6}, [2.5,5)={5} both fine.
        assert!(b.fits(2.5, 5));
        // The *candidate's* anchor can be the violated one: members at 3.0
        // (6) plus candidate at 1.6 with c=2 → band [1.6, 3.2) holds both.
        let mut b = bands(2.0, 10.0);
        b.insert(JobId(0), 3.0, 6);
        assert!(!b.fits(1.6, 5));
        assert!(b.fits(1.4, 5), "band [1.4, 2.8) excludes the 3.0 job");
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut b = bands(2.0, 10.0);
        b.insert(JobId(3), 1.0, 4);
        b.insert(JobId(4), 1.5, 4);
        assert!(!b.fits(1.2, 3));
        assert!(b.remove(JobId(4)));
        assert!(b.fits(1.2, 3));
        assert!(!b.remove(JobId(4)), "double remove is a no-op");
        assert!(b.remove(JobId(3)));
        assert!(b.is_empty());
    }

    #[test]
    fn invariant_checker_agrees_with_fits() {
        let mut b = bands(3.0, 8.0);
        for (i, (d, a)) in [(1.0, 3u32), (2.0, 3), (5.0, 2), (9.0, 6)]
            .iter()
            .enumerate()
        {
            assert!(b.fits(*d, *a), "entry {i} should fit");
            b.insert(JobId(i as u32), *d, *a);
            assert!(b.check_invariant(), "invariant after insert {i}");
        }
        // A violating insert breaks the checker (bypassing fits).
        b.insert(JobId(99), 1.5, 4);
        assert!(!b.check_invariant());
    }

    #[test]
    fn duplicate_densities_accumulate() {
        let mut b = bands(2.0, 10.0);
        for i in 0..5 {
            assert!(b.fits(1.0, 2));
            b.insert(JobId(i), 1.0, 2);
        }
        // Sixth job of allot 2 at the same density would hit 12 > 10.
        assert!(!b.fits(1.0, 2));
        assert!(b.fits(2.0, 10), "a disjoint band is unaffected");
        // Note [1,2) has load 10, and [2,4) would have 10: both exactly full.
    }

    #[test]
    fn fits_population_matches_structure() {
        let members = [(1.0, 3u32), (2.5, 4), (6.0, 2)];
        let mut b = bands(2.0, 8.0);
        for (i, (d, a)) in members.iter().enumerate() {
            b.insert(JobId(i as u32), *d, *a);
        }
        for (d, a) in [
            (1.1, 2u32),
            (1.1, 6),
            (3.0, 4),
            (3.0, 5),
            (12.0, 8),
            (12.0, 9),
        ] {
            assert_eq!(
                b.fits(d, a),
                fits_population(&members, d, a, 2.0, 8.0),
                "disagreement at ({d}, {a})"
            );
        }
    }

    #[test]
    fn zero_density_members_sit_in_no_band() {
        // A zero-profit job has density 0: its band `[0, 0)` is empty and
        // no positive anchor's band reaches down to it.
        let mut b = bands(2.0, 4.0);
        b.insert(JobId(0), 0.0, 4);
        b.insert(JobId(1), 0.0, 3);
        b.insert(JobId(2), 1.0, 4);
        assert!(b.check_invariant());
        for (d, a) in [(0.0, 5u32), (0.0, 1), (0.6, 1), (2.0, 4), (1.5, 1)] {
            assert_eq!(
                b.fits(d, a),
                fits_population(&members(&b), d, a, 2.0, 4.0),
                "disagreement at ({d}, {a})"
            );
        }
        assert!(!b.fits(0.6, 1), "band [0.6, 1.2) would hold 5");
    }

    #[test]
    #[should_panic(expected = "band width")]
    fn rejects_c_not_above_one() {
        let _ = DensityBands::new(1.0, 5.0);
    }

    #[test]
    fn agrees_with_reference_on_a_fixed_script() {
        let (c, cap) = (3.0, 9.0);
        let mut b = DensityBands::new(c, cap);
        let script = [
            (0u32, 1.0, 3u32),
            (1, 1.0, 2), // equal-density tie
            (2, 3.0, 2), // exactly c·1.0: outside [1, 3)
            (3, 0.5, 1),
            (4, 1.5, 1),
        ];
        for &(i, d, a) in &script {
            assert_eq!(
                b.fits(d, a),
                fits_population(&members(&b), d, a, c, cap),
                "fits({d}, {a})"
            );
            b.insert(JobId(i), d, a);
        }
        for &(lo, hi, load) in &[(0.5, 1.5, 6), (1.0, 3.0, 6), (1.0, 3.1, 8)] {
            assert_eq!(b.band_load(lo, hi), load, "[{lo}, {hi})");
        }
        b.remove(JobId(1));
        for probe in [0.4f64, 0.5, 1.0, 1.5, 2.9, 3.0, 9.0] {
            assert_eq!(
                b.fits(probe, 4),
                fits_population(&members(&b), probe, 4, c, cap),
                "fits({probe})"
            );
        }
        assert!(b.check_invariant());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_jobs() -> impl Strategy<Value = Vec<(f64, u32)>> {
            proptest::collection::vec((0.01f64..100.0, 1u32..6), 0..12)
        }

        proptest! {
            /// `fits` is exactly "insert would preserve check_invariant".
            #[test]
            fn fits_iff_invariant_preserved(
                jobs in arb_jobs(),
                cand_d in 0.01f64..100.0,
                cand_a in 1u32..6,
                c in 1.5f64..8.0,
                cap in 4.0f64..20.0,
            ) {
                // Build greedily, inserting only what fits (like S does).
                let mut b = DensityBands::new(c, cap);
                for (i, (d, a)) in jobs.iter().enumerate() {
                    if b.fits(*d, *a) {
                        b.insert(JobId(i as u32), *d, *a);
                    }
                }
                prop_assert!(b.check_invariant(), "greedy build holds Obs. 3");
                let fits = b.fits(cand_d, cand_a);
                let mut b2 = b.clone();
                b2.insert(JobId(9999), cand_d, cand_a);
                prop_assert_eq!(fits, b2.check_invariant());
            }

            /// fits_population agrees with the structure for arbitrary
            /// populations.
            #[test]
            fn population_check_agrees(
                jobs in arb_jobs(),
                cand_d in 0.01f64..100.0,
                cand_a in 1u32..6,
            ) {
                let c = 3.0;
                let cap = 9.0;
                let mut b = DensityBands::new(c, cap);
                for (i, (d, a)) in jobs.iter().enumerate() {
                    b.insert(JobId(i as u32), *d, *a);
                }
                prop_assert_eq!(
                    b.fits(cand_d, cand_a),
                    fits_population(&jobs, cand_d, cand_a, c, cap)
                );
            }
        }
    }
}
