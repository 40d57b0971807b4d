//! The platform layer: machine-size and speed accounting.
//!
//! A [`Platform`] owns what the paper calls the machine — `m` processors
//! organized as [`MachineGroups`] of identical speed — plus the two things
//! that follow directly from it: exact speed arithmetic (per-processor
//! `units` scaled work units per tick at a common lcm `scale`) and per-tick
//! allocation validation (every grant to an alive job, every count ≥ 1, no
//! duplicates, total ≤ `m`). The processed scaled-units counter also lives
//! here, since it is the platform's view of consumed capacity.
//!
//! ## Placement order
//!
//! Allocation entries name *counts*, not processors; the platform fixes
//! which concrete processors an entry consumes by materializing a placement
//! order at construction: `proc_units[p]` / `proc_group[p]` describe the
//! `p`-th processor handed out. Entries consume processors sequentially
//! (a cursor walks the order), so the `i`-th node picked for an entry binds
//! to processor `cursor + i`. Group-aware schedulers get fastest-first
//! order (descending units, ascending group index on ties); aggregate-blind
//! schedulers get declaration order — on a uniform platform the two orders
//! coincide, which is what keeps uniform runs byte-identical regardless of
//! awareness.

use crate::sched_api::Allocation;
use dagsched_core::{JobId, MachineGroups, Result, SchedError, Speed, Time};

/// The simulated machine: size, speed groups, and capacity accounting. See
/// the [module docs](self).
#[derive(Debug, Clone)]
pub struct Platform {
    m: u32,
    speed: Speed,
    groups: MachineGroups,
    scale: u64,
    /// Per-processor scaled units per tick, in placement order.
    proc_units: Vec<u64>,
    /// Owning group index of each processor, aligned with `proc_units`.
    proc_group: Vec<u32>,
    /// `Some(units)` iff every processor runs at the same speed.
    uniform_units: Option<u64>,
    units_processed: u64,
    /// Validation scratch, dense by job index; entries are set and cleared
    /// within one [`validate`](Platform::validate) call, keeping validation
    /// O(|alloc|).
    granted: Vec<bool>,
}

impl Platform {
    /// A uniform machine of `m` processors at `speed`, for an instance of
    /// `n` jobs. The single-group case of
    /// [`with_groups`](Platform::with_groups).
    #[cfg(test)]
    fn new(m: u32, speed: Speed, n: usize) -> Platform {
        let groups = MachineGroups::uniform(m, speed).expect("uniform group is valid for m >= 1");
        Platform::with_groups(groups, false, n)
    }

    /// A machine described by `groups`, for an instance of `n` jobs.
    ///
    /// `fastest_first` selects the placement order: `true` (group-aware
    /// schedulers) orders processors by descending units then ascending
    /// group index; `false` keeps declaration order.
    pub(crate) fn with_groups(groups: MachineGroups, fastest_first: bool, n: usize) -> Platform {
        let m = groups.total();
        let scale = groups.work_scale();
        let mut order: Vec<u32> = (0..groups.len() as u32).collect();
        if fastest_first {
            order.sort_by(|&a, &b| {
                groups
                    .units(b as usize)
                    .cmp(&groups.units(a as usize))
                    .then(a.cmp(&b))
            });
        }
        let mut proc_units = Vec::with_capacity(m as usize);
        let mut proc_group = Vec::with_capacity(m as usize);
        for &g in &order {
            let grp = &groups.groups()[g as usize];
            let u = groups.units(g as usize);
            for _ in 0..grp.count {
                proc_units.push(u);
                proc_group.push(g);
            }
        }
        let uniform_units = groups.uniform_speed().map(|_| groups.units(0));
        // Reporting speed: the uniform speed, or the fastest group's speed
        // on a heterogeneous platform (what `on_start` serializes).
        let speed = groups.uniform_speed().unwrap_or_else(|| {
            let fastest = (0..groups.len())
                .max_by(|&a, &b| {
                    groups.groups()[a]
                        .speed
                        .cmp_exact(groups.groups()[b].speed)
                        .then(b.cmp(&a))
                })
                .expect("groups are non-empty");
            groups.groups()[fastest].speed
        });
        Platform {
            m,
            speed,
            groups,
            scale,
            proc_units,
            proc_group,
            uniform_units,
            units_processed: 0,
            granted: vec![false; n],
        }
    }

    /// Machine size (total processors over all groups).
    #[inline]
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Reporting speed: the uniform speed, or the fastest group's speed on
    /// a heterogeneous platform.
    #[inline]
    pub fn speed(&self) -> Speed {
        self.speed
    }

    /// The machine-group description.
    #[inline]
    pub fn groups(&self) -> &MachineGroups {
        &self.groups
    }

    /// The work scale (lcm of group denominators) all node work is
    /// multiplied by.
    #[inline]
    pub fn work_scale(&self) -> u64 {
        self.scale
    }

    /// Scaled work units one processor completes per tick — the uniform
    /// value, or the fastest processor's on a heterogeneous platform.
    #[inline]
    pub fn units_per_tick(&self) -> u64 {
        self.uniform_units
            .unwrap_or_else(|| *self.proc_units.iter().max().expect("m >= 1"))
    }

    /// `Some(units)` iff every processor runs at the same speed — the
    /// uniform fast path (one hoisted rate per tick).
    #[inline]
    pub fn uniform_units(&self) -> Option<u64> {
        self.uniform_units
    }

    /// Per-processor scaled units per tick, in placement order.
    #[inline]
    pub fn proc_units(&self) -> &[u64] {
        &self.proc_units
    }

    /// Owning group index per processor, in placement order.
    #[inline]
    pub fn proc_group(&self) -> &[u32] {
        &self.proc_group
    }

    /// Scaled work units consumed so far.
    #[inline]
    pub fn scaled_units_processed(&self) -> u64 {
        self.units_processed
    }

    /// Record `u` scaled units of consumed capacity.
    #[inline]
    pub(crate) fn record_units(&mut self, u: u64) {
        self.units_processed += u;
    }

    /// Validate one tick's allocation against the machine and the alive set.
    ///
    /// # Errors
    /// [`SchedError::InvalidAllocation`] on a grant to a dead job, a zero
    /// grant, a duplicated job, or over-subscription past `m` (the message
    /// names the group whose processors ran out).
    pub(crate) fn validate(
        &mut self,
        t: Time,
        alloc: &Allocation,
        is_alive: impl Fn(JobId) -> bool,
    ) -> Result<()> {
        let mut used: u64 = 0;
        let mut bad = None;
        for &(id, k) in alloc {
            if !is_alive(id) {
                bad = Some(format!("tick {t}: job {id} is not alive"));
                break;
            }
            if k == 0 {
                bad = Some(format!("tick {t}: zero processors for {id}"));
                break;
            }
            if self.granted[id.index()] {
                bad = Some(format!("tick {t}: duplicate allocation for {id}"));
                break;
            }
            self.granted[id.index()] = true;
            used += k as u64;
            if used > self.m as u64 {
                let g = self.proc_group[self.m as usize - 1];
                bad = Some(format!(
                    "tick {t}: {used} processors allocated but m = {} \
                     (exhausted at group {g} of {})",
                    self.m, self.groups
                ));
                break;
            }
        }
        for &(id, _) in alloc {
            if id.index() < self.granted.len() {
                self.granted[id.index()] = false;
            }
        }
        match bad {
            Some(msg) => Err(SchedError::InvalidAllocation(msg)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> Platform {
        Platform::new(2, Speed::new(3, 2).unwrap(), 4)
    }

    #[test]
    fn speed_arithmetic_is_exposed_exactly() {
        let p = platform();
        assert_eq!(p.m(), 2);
        assert_eq!(p.work_scale(), 2);
        assert_eq!(p.units_per_tick(), 3);
        assert_eq!(p.uniform_units(), Some(3));
        assert_eq!(p.proc_units(), &[3, 3]);
        assert_eq!(p.proc_group(), &[0, 0]);
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        let mut p = platform();
        let alive = |id: JobId| id.index() < 3;
        assert!(p
            .validate(Time(0), &vec![(JobId(0), 1), (JobId(1), 1)], alive)
            .is_ok());
        // Dead job.
        assert!(p.validate(Time(0), &vec![(JobId(3), 1)], alive).is_err());
        // Zero grant.
        assert!(p.validate(Time(0), &vec![(JobId(0), 0)], alive).is_err());
        // Duplicate.
        assert!(p
            .validate(Time(0), &vec![(JobId(0), 1), (JobId(0), 1)], alive)
            .is_err());
        // Over-subscription.
        assert!(p
            .validate(Time(0), &vec![(JobId(0), 2), (JobId(1), 1)], alive)
            .is_err());
        // The scratch is clean after a failure: a good allocation passes.
        assert!(p.validate(Time(1), &vec![(JobId(0), 2)], alive).is_ok());
        assert!(p.validate(Time(2), &vec![(JobId(0), 2)], alive).is_ok());
    }

    #[test]
    fn heterogeneous_placement_orders() {
        // 2 slow (1x) declared first, then 1 fast (2x).
        let groups: MachineGroups = "2x1,1x2".parse().unwrap();
        let blind = Platform::with_groups(groups.clone(), false, 1);
        assert_eq!(blind.m(), 3);
        assert_eq!(blind.work_scale(), 1);
        assert_eq!(blind.uniform_units(), None);
        assert_eq!(blind.proc_units(), &[1, 1, 2], "declaration order");
        assert_eq!(blind.proc_group(), &[0, 0, 1]);
        let aware = Platform::with_groups(groups, true, 1);
        assert_eq!(aware.proc_units(), &[2, 1, 1], "fastest first");
        assert_eq!(aware.proc_group(), &[1, 0, 0]);
        assert_eq!(aware.units_per_tick(), 2, "fastest processor's units");
        assert_eq!(aware.speed(), Speed::new(2, 1).unwrap());
    }

    #[test]
    fn fastest_first_breaks_unit_ties_by_group_index() {
        // Equal speeds in different groups: placement keeps group order.
        let groups: MachineGroups = "1x2,1x2,1x1".parse().unwrap();
        let p = Platform::with_groups(groups, true, 1);
        assert_eq!(p.proc_group(), &[0, 1, 2]);
    }

    #[test]
    fn lcm_scale_spans_groups() {
        let groups: MachineGroups = "1x3/2,1x5/3".parse().unwrap();
        let p = Platform::with_groups(groups, false, 1);
        assert_eq!(p.work_scale(), 6);
        // 3/2 → 9 units at scale 6; 5/3 → 10 units.
        assert_eq!(p.proc_units(), &[9, 10]);
        assert_eq!(p.speed(), Speed::new(5, 3).unwrap(), "fastest group");
    }
}
