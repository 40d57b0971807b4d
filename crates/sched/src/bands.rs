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
//!
//! Every decision here is exact: densities are [`Density`] ratios, `c` is
//! the [`Dyadic`] rational its floating-point value is, and band loads are
//! integers, so the capacity `b·m` enters as the integer `⌊b·m⌋`.

use dagsched_core::{Density, Dyadic, JobId};

/// One member of a population.
#[derive(Debug, Clone, Copy)]
struct Entry {
    density: Density,
    id: JobId,
    allot: u32,
}

impl Entry {
    /// The sort key.
    fn key(&self) -> (Density, JobId) {
        (self.density, self.id)
    }
}

/// A population of jobs ordered by density, answering the paper's
/// band-capacity queries.
#[derive(Debug, Clone)]
pub struct DensityBands {
    /// Sorted ascending by `(density, id)`.
    entries: Vec<Entry>,
    /// Band width `c > 1`.
    c: Dyadic,
    /// Capacity `⌊b·m⌋`.
    capacity: u64,
}

/// The low end of a blocked stretch of densities (see
/// [`DensityBands::blocked_stretch`]); its high end is the queried density.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stretch {
    /// Every density.
    All,
    /// The densities at or above this one.
    From(Density),
    /// The densities `d` with `c·d` above this one.
    Above(Density),
}

impl DensityBands {
    /// Create a structure with band width `c` and capacity `⌊b·m⌋`.
    pub fn new(c: Dyadic, capacity: u64) -> DensityBands {
        let one = Density::new(1, 1);
        assert!(one.lt_scaled(one, c), "band width c must exceed 1");
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

    /// Total allotment of jobs with density in `[v, c·v)` — the paper's
    /// `N(Q, v, c·v)`.
    pub fn band_load(&self, v: Density) -> u64 {
        let top = v.band_top(self.c);
        self.entries
            .iter()
            .skip_while(|e| e.density < v)
            .take_while(|e| top.covers(e.density))
            .map(|e| e.allot as u64)
            .sum()
    }

    /// Would adding `(density, allot)` keep every band within capacity?
    ///
    /// One sliding-window sweep over the population with the candidate
    /// merged in at its sorted place (after equal-density members): the
    /// window of anchor `i` holds the entries from `i` up to the first one
    /// at or above `c·v_i`. Densities are positive, so every window holds
    /// its own anchor. Every anchor of the union is checked, so an
    /// already-over-capacity population rejects any candidate.
    pub fn fits(&self, density: Density, allot: u32) -> bool {
        let cand = Entry {
            density,
            id: JobId(u32::MAX),
            allot,
        };
        let pos = self.entries.partition_point(|e| e.key() < cand.key());
        let get = |i: usize| match i.cmp(&pos) {
            std::cmp::Ordering::Less => &self.entries[i],
            std::cmp::Ordering::Equal => &cand,
            std::cmp::Ordering::Greater => &self.entries[i - 1],
        };
        let n = self.entries.len() + 1;
        // `window` is the load of the entries `[i, j)`.
        let (mut j, mut window) = (0usize, 0u64);
        for i in 0..n {
            if i > 0 {
                window -= get(i - 1).allot as u64;
            }
            let top = get(i).density.band_top(self.c);
            while j < n && top.covers(get(j).density) {
                window += get(j).allot as u64;
                j += 1;
            }
            if window > self.capacity {
                return false;
            }
        }
        true
    }

    /// The widest stretch of densities up to `d` in which an allotment-1
    /// candidate fits nowhere, found from two window families; `None` if
    /// neither blocks `d` itself.
    ///
    /// * **Anchor window.** A member anchor `v ≤ d < c·v` whose load is
    ///   `⌊b·m⌋` or more rejects every candidate in `[v, d]`: its window
    ///   holds them all. The lowest such `v` bounds the stretch.
    /// * **Own window.** Walk the members from `d` upward until their load
    ///   reaches `⌊b·m⌋`; call the last one `v_j`. Every `d' ≤ d` with
    ///   `c·d' > v_j` has an own window `[d', c·d')` holding all of them,
    ///   so it is blocked: the stretch reaches down to, and excludes,
    ///   `v_j/c`.
    ///
    /// The stretch is sound, not tight: a density it omits may still be
    /// blocked. Both families hold for every allotment, because a larger
    /// allotment only adds load.
    pub fn blocked_stretch(&self, d: Density) -> Option<Stretch> {
        if self.full(0) {
            // Not even an empty window takes one processor.
            return Some(Stretch::All);
        }
        let anchor = self
            .entries
            .iter()
            .take_while(|e| e.density <= d)
            .find(|e| d.lt_scaled(e.density, self.c) && self.full(self.band_load(e.density)))
            .map(|e| e.density);
        let mut load = 0u64;
        let own = self
            .entries
            .iter()
            .skip_while(|e| e.density < d)
            .find(|e| {
                load += e.allot as u64;
                self.full(load)
            })
            .map(|e| e.density)
            .filter(|&top| top.lt_scaled(d, self.c));
        match (anchor, own) {
            (Some(a), Some(top)) if !top.lt_scaled(a, self.c) => Some(Stretch::From(a)),
            (_, Some(top)) => Some(Stretch::Above(top)),
            (a, None) => a.map(Stretch::From),
        }
    }

    /// Does `stretch` hold density `v`? (For `v` at most the density the
    /// stretch was queried at.)
    pub fn in_stretch(&self, stretch: Stretch, v: Density) -> bool {
        match stretch {
            Stretch::All => true,
            Stretch::From(lo) => v >= lo,
            Stretch::Above(top) => top.band_bottom(self.c).under(v),
        }
    }

    /// Would a window of this load reject an allotment-1 candidate?
    fn full(&self, load: u64) -> bool {
        load >= self.capacity
    }

    /// Insert a job. Insertion does not check [`fits`](Self::fits):
    /// Observation 3 is the caller's invariant.
    pub fn insert(&mut self, id: JobId, density: Density, allot: u32) {
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
            .all(|e| self.band_load(e.density) <= self.capacity)
    }

    /// Iterate `(id, density, allot)` ascending by `(density, id)`.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (JobId, Density, u32)> + '_ {
        self.entries.iter().map(|e| (e.id, e.density, e.allot))
    }

    /// Iterate `(id, density, allot)` descending by density and, among
    /// equal densities, ascending by id: S-profit's execution order.
    pub(crate) fn iter_ranked(&self) -> impl Iterator<Item = (JobId, Density, u32)> + '_ {
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
    members: &[(Density, u32)],
    density: Density,
    allot: u32,
    c: Dyadic,
    capacity: u64,
) -> bool {
    let mut all: Vec<(Density, u32)> = Vec::with_capacity(members.len() + 1);
    all.extend_from_slice(members);
    all.push((density, allot));
    all.sort_by_key(|&(d, _)| d);
    for i in 0..all.len() {
        let top = all[i].0.band_top(c);
        let load: u64 = all[i..]
            .iter()
            .take_while(|(d, _)| top.covers(*d))
            .map(|(_, a)| *a as u64)
            .sum();
        if load > capacity {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The density `milli / 1000`.
    fn d(milli: u64) -> Density {
        Density::new(milli, 1000)
    }

    fn bands(c: u32, cap: u64) -> DensityBands {
        DensityBands::new(Dyadic::new(c.into()), cap)
    }

    fn members(b: &DensityBands) -> Vec<(Density, u32)> {
        b.iter().map(|(_, d, a)| (d, a)).collect()
    }

    fn fits_ref(b: &DensityBands, v: Density, a: u32) -> bool {
        fits_population(&members(b), v, a, b.c, b.capacity)
    }

    #[test]
    fn empty_structure_accepts_anything_within_capacity() {
        let b = bands(4, 10);
        assert!(b.is_empty());
        assert!(b.fits(d(1000), 10));
        assert!(
            !b.fits(d(1000), 11),
            "a single job above capacity is rejected"
        );
    }

    #[test]
    fn band_load_sums_the_half_open_window() {
        let mut b = bands(4, 100);
        b.insert(JobId(0), d(1000), 5);
        b.insert(JobId(1), d(2000), 7);
        b.insert(JobId(2), d(4000), 3);
        b.insert(JobId(3), d(10000), 3);
        assert_eq!(b.band_load(d(1000)), 12, "[1, 4) holds densities 1, 2");
        assert_eq!(b.band_load(d(2000)), 10, "[2, 8) holds 2 and 4");
        assert_eq!(b.band_load(d(2500)), 3, "[2.5, 10) holds 4 only");
        assert_eq!(b.band_load(d(500)), 5);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn fits_detects_band_overflow_at_any_anchor() {
        // c = 2, capacity = 10.
        let mut b = bands(2, 10);
        b.insert(JobId(0), d(1000), 6);
        // Candidate at density 1.5, allot 5: band [1.0, 2.0) would hold 11.
        assert!(!b.fits(d(1500), 5));
        // Allot 4: band holds exactly 10 — allowed (≤).
        assert!(b.fits(d(1500), 4));
        // Candidate at density 2.5: bands [1,2)={6}, [2.5,5)={5} both fine.
        assert!(b.fits(d(2500), 5));
        // The *candidate's* anchor can be the violated one: members at 3.0
        // (6) plus candidate at 1.6 with c=2 → band [1.6, 3.2) holds both.
        let mut b = bands(2, 10);
        b.insert(JobId(0), d(3000), 6);
        assert!(!b.fits(d(1600), 5));
        assert!(b.fits(d(1400), 5), "band [1.4, 2.8) excludes the 3.0 job");
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut b = bands(2, 10);
        b.insert(JobId(3), d(1000), 4);
        b.insert(JobId(4), d(1500), 4);
        assert!(!b.fits(d(1200), 3));
        assert!(b.remove(JobId(4)));
        assert!(b.fits(d(1200), 3));
        assert!(!b.remove(JobId(4)), "double remove is a no-op");
        assert!(b.remove(JobId(3)));
        assert!(b.is_empty());
    }

    #[test]
    fn invariant_checker_agrees_with_fits() {
        let mut b = bands(3, 8);
        for (i, (v, a)) in [(1000, 3u32), (2000, 3), (5000, 2), (9000, 6)]
            .iter()
            .enumerate()
        {
            assert!(b.fits(d(*v), *a), "entry {i} should fit");
            b.insert(JobId(i as u32), d(*v), *a);
            assert!(b.check_invariant(), "invariant after insert {i}");
        }
        // A violating insert breaks the checker (bypassing fits).
        b.insert(JobId(99), d(1500), 4);
        assert!(!b.check_invariant());
    }

    #[test]
    fn duplicate_densities_accumulate() {
        let mut b = bands(2, 10);
        for i in 0..5 {
            assert!(b.fits(d(1000), 2));
            // Equal ratios in different terms are one density.
            b.insert(JobId(i), Density::new(i as u64 + 1, i as u128 + 1), 2);
        }
        // Sixth job of allot 2 at the same density would hit 12 > 10.
        assert!(!b.fits(d(1000), 2));
        assert!(b.fits(d(2000), 10), "a disjoint band is unaffected");
        // Note [1,2) has load 10, and [2,4) would have 10: both exactly full.
    }

    #[test]
    fn fits_population_matches_structure() {
        let members = [(d(1000), 3u32), (d(2500), 4), (d(6000), 2)];
        let mut b = bands(2, 8);
        for (i, (v, a)) in members.iter().enumerate() {
            b.insert(JobId(i as u32), *v, *a);
        }
        for (v, a) in [
            (1100, 2u32),
            (1100, 6),
            (3000, 4),
            (3000, 5),
            (12000, 8),
            (12000, 9),
        ] {
            assert_eq!(
                b.fits(d(v), a),
                fits_population(&members, d(v), a, Dyadic::new(2.into()), 8),
                "disagreement at ({v}, {a})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "band width")]
    fn rejects_c_not_above_one() {
        let _ = bands(1, 5);
    }

    #[test]
    fn agrees_with_reference_on_a_fixed_script() {
        let mut b = bands(3, 9);
        let script = [
            (0u32, 1000, 3u32),
            (1, 1000, 2), // equal-density tie
            (2, 3000, 2), // exactly c·1.0: outside [1, 3)
            (3, 500, 1),
            (4, 1500, 1),
        ];
        for &(i, v, a) in &script {
            assert_eq!(b.fits(d(v), a), fits_ref(&b, d(v), a), "fits({v}, {a})");
            b.insert(JobId(i), d(v), a);
        }
        for &(v, load) in &[(500, 6), (1000, 6), (1500, 3)] {
            assert_eq!(b.band_load(d(v)), load, "[{v}, {}) thousandths", 3 * v);
        }
        b.remove(JobId(1));
        for probe in [400, 500, 1000, 1500, 2900, 3000, 9000] {
            assert_eq!(
                b.fits(d(probe), 4),
                fits_ref(&b, d(probe), 4),
                "fits({probe})"
            );
        }
        assert!(b.check_invariant());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_jobs() -> impl Strategy<Value = Vec<(u64, u32)>> {
            proptest::collection::vec((10u64..100_000, 1u32..6), 0..12)
        }

        proptest! {
            /// `fits` is exactly "insert would preserve check_invariant".
            #[test]
            fn fits_iff_invariant_preserved(
                jobs in arb_jobs(),
                cand_d in 10u64..100_000,
                cand_a in 1u32..6,
                c in 2u32..9,
                cap in 4u64..20,
            ) {
                // Build greedily, inserting only what fits (like S does).
                let mut b = bands(c, cap);
                for (i, (v, a)) in jobs.iter().enumerate() {
                    if b.fits(d(*v), *a) {
                        b.insert(JobId(i as u32), d(*v), *a);
                    }
                }
                prop_assert!(b.check_invariant(), "greedy build holds Obs. 3");
                let fits = b.fits(d(cand_d), cand_a);
                let mut b2 = b.clone();
                b2.insert(JobId(9999), d(cand_d), cand_a);
                prop_assert_eq!(fits, b2.check_invariant());
            }

            /// fits_population agrees with the structure for arbitrary
            /// populations.
            #[test]
            fn population_check_agrees(
                jobs in arb_jobs(),
                cand_d in 10u64..100_000,
                cand_a in 1u32..6,
            ) {
                let mut b = bands(3, 9);
                for (i, (v, a)) in jobs.iter().enumerate() {
                    b.insert(JobId(i as u32), d(*v), *a);
                }
                prop_assert_eq!(b.fits(d(cand_d), cand_a), fits_ref(&b, d(cand_d), cand_a));
            }
        }
    }
}
