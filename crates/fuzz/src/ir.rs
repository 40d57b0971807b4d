//! Mutable intermediate representation of a workload instance.
//!
//! [`Instance`] and `DagJobSpec` are validated, immutable values — every
//! construction re-checks sortedness, acyclicity and id density. Mutators
//! need the opposite: a representation that tolerates any intermediate
//! state and can always be *repaired* into a valid instance. [`FuzzInstance`]
//! is that representation. Edges are kept forward-only (`from < to` in node
//! index order), which makes every reachable edge set acyclic by
//! construction, and [`FuzzInstance::to_instance`] clamps, sorts and
//! re-labels so that the conversion cannot fail on any sanitizable state.

use dagsched_core::{JobId, MachineGroups, NodeId, Result, SchedError, Speed, Time, Work};
use dagsched_dag::{DagBuilder, DagJobSpec};
use dagsched_engine::{NodePick, SimConfig};
use dagsched_workload::{Instance, JobSpec, StepProfitFn};

/// Upper bounds keeping mutated instances small enough that one fuzz exec
/// stays in the microsecond-to-millisecond range. Values past a bound are
/// clamped, not rejected — mutators never have to check.
pub mod limits {
    /// Maximum machine count.
    pub const MAX_M: u32 = 8;
    /// Maximum number of jobs per instance.
    pub const MAX_JOBS: usize = 24;
    /// Maximum DAG nodes per job.
    pub const MAX_NODES: usize = 24;
    /// Maximum work per node.
    pub const MAX_WORK: u64 = 64;
    /// Maximum arrival time.
    pub const MAX_ARRIVAL: u64 = 400;
    /// Maximum relative deadline.
    pub const MAX_DEADLINE: u64 = 600;
    /// Maximum per-job profit.
    pub const MAX_PROFIT: u64 = 1 << 20;
    /// Maximum *extra* profit steps past the first (general profit
    /// functions; the first step is the deadline/profit pair).
    pub const MAX_PROFIT_STEPS: usize = 4;
    /// Maximum machine groups on the platform axis.
    pub const MAX_GROUPS: usize = 3;
    /// Maximum speed numerator/denominator on the platform axis (keeps the
    /// group lcm scale small).
    pub const MAX_SPEED: u32 = 4;
}

/// One job in mutable form: a general-profit job with a forward-edge DAG.
///
/// The common case is a pure deadline job (`extra_steps` empty, `tail`
/// zero). The profit mutators grow a general step function from it: each
/// `(bound, value)` in `extra_steps` is a later, lower profit step, and a
/// nonzero `tail` keeps the job worth something forever (so it never
/// expires). Sanitization in [`FuzzInstance::to_instance`] repairs any
/// intermediate state into a valid strictly-decreasing step function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzJob {
    /// Arrival time.
    pub arrival: u64,
    /// Relative deadline (the first profit step, at `arrival + deadline`).
    pub deadline: u64,
    /// Profit for completing by the deadline.
    pub profit: u64,
    /// Later profit steps `(relative bound, value)`; repaired to strictly
    /// increasing bounds and strictly decreasing values below `profit`.
    pub extra_steps: Vec<(u64, u64)>,
    /// Profit for completing after the last step (0 = the job expires).
    pub tail: u64,
    /// Node works, indexed by node id.
    pub works: Vec<u64>,
    /// DAG edges; only pairs with `from < to` survive sanitization, so any
    /// edge list denotes an acyclic graph.
    pub edges: Vec<(u32, u32)>,
}

impl FuzzJob {
    /// Total work `W` (after clamping node works to the limits).
    pub fn total_work(&self) -> u64 {
        self.works
            .iter()
            .take(limits::MAX_NODES)
            .map(|&w| w.clamp(1, limits::MAX_WORK))
            .sum()
    }

    /// Span `L`: the longest path in clamped work, computed by a forward DP
    /// (valid because sanitized edges always point forward).
    pub fn span(&self) -> u64 {
        let n = self.works.len().min(limits::MAX_NODES);
        if n == 0 {
            return 1;
        }
        let w = |i: usize| -> u64 { self.works[i].clamp(1, limits::MAX_WORK) };
        let mut height: Vec<u64> = (0..n).map(w).collect();
        let mut edges: Vec<(u32, u32)> = self
            .edges
            .iter()
            .copied()
            .filter(|&(u, v)| (u as usize) < n && (v as usize) < n && u < v)
            .collect();
        edges.sort_unstable();
        for &(u, v) in &edges {
            let via = height[u as usize] + w(v as usize);
            if via > height[v as usize] {
                height[v as usize] = via;
            }
        }
        height.iter().copied().max().unwrap_or(1)
    }

    /// Absolute instant of the *first* profit step `arrival + deadline`
    /// (clamped) — the expiry for pure deadline jobs, and the cliff the
    /// collision mutators aim at for general-profit jobs.
    pub fn expiry(&self) -> u64 {
        self.arrival.min(limits::MAX_ARRIVAL) + self.deadline.clamp(1, limits::MAX_DEADLINE)
    }
}

/// The deterministic [`NodePick`] policies the configuration axis cycles
/// through. [`NodePick::Random`] is deliberately excluded — it runs one
/// tick per step, which would silently disable the differential heads'
/// fast-forward coverage.
pub const PICKS: &[NodePick] = &[
    NodePick::Fifo,
    NodePick::Lifo,
    NodePick::CriticalPathFirst,
    NodePick::AdversarialLowHeight,
];

/// A whole instance in mutable form, plus the engine-configuration axis
/// the candidate is judged under. The axis fields are *not* part of the
/// workload — the codec neither writes nor reads them, so promoted replay
/// fixtures always re-judge under the defaults (carry-over on, FIFO pick,
/// uniform platform, scheduler S) — but they are mutable state the config
/// mutators toggle, which lets the coverage loop explore carry-over,
/// node-pick policies, related-machines group shapes and the
/// general-profit subject without a separate fuzzing harness per
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzInstance {
    /// Machine count.
    pub m: u32,
    /// The jobs, in no particular order (sorted at conversion).
    pub jobs: Vec<FuzzJob>,
    /// Judge with mid-tick carry-over disabled (node-granular progress).
    pub no_carryover: bool,
    /// Index into [`PICKS`]: the node-pick policy the candidate is judged
    /// under (taken modulo the table length).
    pub pick_idx: u8,
    /// The related-machines platform shape as `(count, num, den)` triples;
    /// empty means the legacy uniform platform. Sanitized by
    /// [`FuzzInstance::platform_groups`] — counts are fit to `m`, speeds
    /// clamped to [`limits::MAX_SPEED`].
    pub speed_groups: Vec<(u32, u32, u32)>,
    /// Judge the general-profit scheduler S-profit instead of scheduler S —
    /// a configuration-axis flag selecting the subject, so the differential
    /// heads cover the slot-plan fast path without a separate harness.
    pub sprofit_subject: bool,
}

/// Extract `(works, edges)` from a built DAG, re-labeling nodes into
/// topological order so every edge points forward.
pub fn dag_to_ir(dag: &DagJobSpec) -> (Vec<u64>, Vec<(u32, u32)>) {
    let n = dag.num_nodes();
    let topo = dag.topo_order();
    let mut pos = vec![0u32; n];
    for (rank, &node) in topo.iter().enumerate() {
        pos[node.0 as usize] = rank as u32;
    }
    let mut works = vec![0u64; n];
    for (i, w) in dag.node_works().iter().enumerate() {
        works[pos[i] as usize] = w.units();
    }
    let mut edges = Vec::with_capacity(dag.num_edges());
    for u in 0..n as u32 {
        for &v in dag.successors(NodeId(u)) {
            edges.push((pos[u as usize], pos[v.0 as usize]));
        }
    }
    edges.sort_unstable();
    (works, edges)
}

impl FuzzInstance {
    /// A fresh IR under the default configuration axis (carry-over on,
    /// FIFO pick, uniform platform, scheduler S).
    pub fn new(m: u32, jobs: Vec<FuzzJob>) -> FuzzInstance {
        FuzzInstance {
            m,
            jobs,
            no_carryover: false,
            pick_idx: 0,
            speed_groups: Vec::new(),
            sprofit_subject: false,
        }
    }

    /// The sanitized platform for the current axis state, or `None` for the
    /// legacy uniform platform (empty shape list).
    ///
    /// Repair mirrors [`to_instance`](FuzzInstance::to_instance)'s `m`
    /// clamp so the group total always matches the converted instance:
    /// counts are clamped into the remaining machine budget, speeds into
    /// `1..=MAX_SPEED` on both sides of the fraction, and any leftover
    /// machines become a trailing unit-speed group.
    pub fn platform_groups(&self) -> Option<MachineGroups> {
        if self.speed_groups.is_empty() {
            return None;
        }
        let m = self.m.clamp(1, limits::MAX_M);
        let mut remaining = m;
        let mut pairs: Vec<(u32, Speed)> = Vec::new();
        for &(count, num, den) in self.speed_groups.iter().take(limits::MAX_GROUPS) {
            if remaining == 0 {
                break;
            }
            let count = count.clamp(1, remaining);
            let num = num.clamp(1, limits::MAX_SPEED);
            let den = den.clamp(1, limits::MAX_SPEED);
            pairs.push((count, Speed::new(num, den).expect("clamped positive")));
            remaining -= count;
        }
        if remaining > 0 {
            pairs.push((remaining, Speed::ONE));
        }
        Some(MachineGroups::new(pairs).expect("sanitized groups are valid"))
    }

    /// The [`SimConfig`] this candidate is judged under: the instance's
    /// configuration axis applied over the engine defaults.
    pub fn base_config(&self) -> SimConfig {
        SimConfig {
            carryover: !self.no_carryover,
            pick: PICKS[self.pick_idx as usize % PICKS.len()].clone(),
            groups: self.platform_groups(),
            ..SimConfig::default()
        }
    }

    /// Build the IR from a validated instance. The full general profit
    /// function is preserved: the first segment becomes the
    /// (deadline, profit) pair, later segments become `extra_steps`, and
    /// the tail carries over — so the minimizer's IR round-trip is faithful
    /// on general-profit failures, not just deadline ones.
    pub fn from_instance(inst: &Instance) -> FuzzInstance {
        let jobs = inst
            .jobs()
            .iter()
            .map(|j| {
                let (works, edges) = dag_to_ir(&j.dag);
                let segs = j.profit.segments();
                FuzzJob {
                    arrival: j.arrival.ticks(),
                    deadline: segs[0].0.ticks().max(1),
                    profit: segs[0].1.max(1),
                    extra_steps: segs[1..].iter().map(|&(b, v)| (b.ticks(), v)).collect(),
                    tail: j.profit.tail_value(),
                    works,
                    edges,
                }
            })
            .collect();
        FuzzInstance::new(inst.m(), jobs)
    }

    /// Repair and convert into a validated [`Instance`].
    ///
    /// Sanitization: clamp `m`, truncate the job list, clamp every numeric
    /// field, keep only in-range forward edges (deduplicated), then sort
    /// jobs by arrival and assign dense ids. The only unrepairable state is
    /// an empty job list.
    ///
    /// # Errors
    /// [`SchedError::InvalidInstance`] when there are no jobs.
    pub fn to_instance(&self) -> Result<Instance> {
        if self.jobs.is_empty() {
            return Err(SchedError::InvalidInstance(
                "fuzz instance has no jobs".into(),
            ));
        }
        let m = self.m.clamp(1, limits::MAX_M);
        let mut jobs: Vec<&FuzzJob> = self.jobs.iter().take(limits::MAX_JOBS).collect();
        jobs.sort_by_key(|j| j.arrival.min(limits::MAX_ARRIVAL));
        let specs: Vec<JobSpec> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                let n = j.works.len().clamp(1, limits::MAX_NODES);
                let mut builder = DagBuilder::with_capacity(n, j.edges.len());
                for k in 0..n {
                    let w = j.works.get(k).copied().unwrap_or(1);
                    builder.add_node(Work(w.clamp(1, limits::MAX_WORK)));
                }
                let mut edges: Vec<(u32, u32)> = j
                    .edges
                    .iter()
                    .copied()
                    .filter(|&(u, v)| u < v && (v as usize) < n)
                    .collect();
                edges.sort_unstable();
                edges.dedup();
                for (u, v) in edges {
                    builder
                        .add_edge(NodeId(u), NodeId(v))
                        .expect("forward in-range edges are valid");
                }
                let dag = builder
                    .build()
                    .expect("forward edges cannot form a cycle")
                    .into_shared();
                let deadline = j.deadline.clamp(1, limits::MAX_DEADLINE);
                let top = j.profit.clamp(1, limits::MAX_PROFIT);
                let profit = if j.extra_steps.is_empty() && j.tail == 0 {
                    StepProfitFn::deadline(Time(deadline), top)
                } else {
                    // Repair the extra steps into a strictly-decreasing step
                    // function: each bound is forced past the previous one
                    // (capped at twice the deadline limit so horizons stay
                    // small), each value strictly below the previous, and
                    // steps stop once the value floor of 1 is reached.
                    let mut segs = vec![(Time(deadline), top)];
                    let (mut pb, mut pv) = (deadline, top);
                    for &(b, v) in j.extra_steps.iter().take(limits::MAX_PROFIT_STEPS) {
                        if pv <= 1 {
                            break;
                        }
                        let b = b.clamp(pb + 1, (2 * limits::MAX_DEADLINE).max(pb + 1));
                        let v = v.clamp(1, pv - 1);
                        segs.push((Time(b), v));
                        (pb, pv) = (b, v);
                    }
                    let tail = j.tail.min(pv - 1);
                    StepProfitFn::steps(segs, tail).expect("sanitized steps are valid")
                };
                JobSpec::new(
                    JobId(i as u32),
                    Time(j.arrival.min(limits::MAX_ARRIVAL)),
                    dag,
                    profit,
                )
            })
            .collect();
        Instance::new(m, specs)
    }
}

/// FNV-1a over a byte slice; the fuzzer's cheap deterministic content hash
/// (used to derive per-instance pause schedules and trajectory digests).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_workload::WorkloadGen;

    #[test]
    fn round_trip_preserves_shape() {
        let inst = WorkloadGen::standard(4, 12, 7).generate().unwrap();
        let ir = FuzzInstance::from_instance(&inst);
        let back = ir.to_instance().unwrap();
        assert_eq!(back.m(), inst.m());
        assert_eq!(back.len(), inst.len());
        for (a, b) in inst.jobs().iter().zip(back.jobs()) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.work(), b.work());
            assert_eq!(a.span(), b.span(), "topo relabeling preserves the span");
            assert_eq!(a.dag.num_edges(), b.dag.num_edges());
        }
    }

    #[test]
    fn hostile_states_are_repaired() {
        let fi = FuzzInstance::new(
            999,
            vec![FuzzJob {
                arrival: u64::MAX,
                deadline: 0,
                profit: 0,
                extra_steps: vec![],
                tail: 0,
                works: vec![0, u64::MAX, 3],
                // Backward, self-loop, out-of-range and duplicate edges.
                edges: vec![(2, 1), (1, 1), (0, 40), (0, 2), (0, 2), (1, 2)],
            }],
        );
        let inst = fi.to_instance().expect("repairable");
        assert_eq!(inst.m(), limits::MAX_M);
        let j = &inst.jobs()[0];
        assert_eq!(j.arrival, Time(limits::MAX_ARRIVAL));
        assert_eq!(j.rel_deadline(), Some(Time(1)));
        assert_eq!(j.max_profit(), 1);
        assert_eq!(j.dag.num_nodes(), 3);
        assert_eq!(j.dag.num_edges(), 2, "only 0->2 and 1->2 survive");
    }

    #[test]
    fn empty_job_list_is_the_only_failure() {
        assert!(FuzzInstance::new(2, vec![]).to_instance().is_err());
    }

    /// General profit functions survive the IR round-trip segment for
    /// segment (the minimizer depends on this being faithful).
    #[test]
    fn general_profit_round_trips() {
        use dagsched_dag::gen;
        let profit = StepProfitFn::steps(vec![(Time(10), 9), (Time(30), 4)], 1).unwrap();
        let spec = JobSpec::new(JobId(0), Time(2), gen::single(6).into_shared(), profit);
        let inst = Instance::new(2, vec![spec]).unwrap();
        let ir = FuzzInstance::from_instance(&inst);
        assert_eq!(ir.jobs[0].deadline, 10);
        assert_eq!(ir.jobs[0].profit, 9);
        assert_eq!(ir.jobs[0].extra_steps, vec![(30, 4)]);
        assert_eq!(ir.jobs[0].tail, 1);
        let back = ir.to_instance().unwrap();
        assert_eq!(
            back.jobs()[0].profit.segments(),
            inst.jobs()[0].profit.segments()
        );
        assert_eq!(back.jobs()[0].profit.tail_value(), 1);
    }

    /// Hostile profit steps (non-increasing bounds, non-decreasing values,
    /// oversized tails) are repaired into a valid strictly-decreasing step
    /// function.
    #[test]
    fn hostile_profit_steps_are_repaired() {
        let fi = FuzzInstance::new(
            2,
            vec![FuzzJob {
                arrival: 0,
                deadline: 20,
                profit: 5,
                // Bound before the deadline, value above the top, a
                // duplicate bound, and a tail above everything.
                extra_steps: vec![(3, 99), (3, 99), (u64::MAX, 0)],
                tail: u64::MAX,
                works: vec![2],
                edges: vec![],
            }],
        );
        let inst = fi.to_instance().expect("repairable");
        let p = &inst.jobs()[0].profit;
        let segs = p.segments();
        assert_eq!(segs[0], (Time(20), 5));
        for w in segs.windows(2) {
            assert!(w[0].0 < w[1].0, "bounds strictly increase: {segs:?}");
            assert!(w[0].1 > w[1].1, "values strictly decrease: {segs:?}");
        }
        assert!(p.tail_value() < segs.last().unwrap().1);
    }

    #[test]
    fn span_matches_built_dag() {
        let fi = FuzzJob {
            arrival: 0,
            deadline: 10,
            profit: 1,
            extra_steps: vec![],
            tail: 0,
            works: vec![2, 3, 4, 5],
            edges: vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        };
        // Longest path 2 -> (3|4) -> 5 = 2 + 4 + 5.
        assert_eq!(fi.span(), 11);
        assert_eq!(fi.total_work(), 14);
        let inst = FuzzInstance::new(2, vec![fi]).to_instance().unwrap();
        assert_eq!(inst.jobs()[0].span().units(), 11);
    }

    #[test]
    fn config_axis_maps_onto_the_sim_config() {
        let mut fi = FuzzInstance::new(2, vec![]);
        let cfg = fi.base_config();
        assert!(
            cfg.fast_forward,
            "candidates are judged on the production path"
        );
        assert!(cfg.carryover);
        assert_eq!(cfg.pick, NodePick::Fifo);
        assert_eq!(cfg.groups, None);
        fi.no_carryover = true;
        fi.pick_idx = 2;
        let cfg = fi.base_config();
        assert!(!cfg.carryover);
        assert_eq!(cfg.pick, NodePick::CriticalPathFirst);
        // The pick index wraps around the table.
        fi.pick_idx = PICKS.len() as u8;
        assert_eq!(fi.base_config().pick, NodePick::Fifo);
    }

    #[test]
    fn platform_axis_is_repaired_to_fit_m() {
        let mut fi = FuzzInstance::new(4, vec![]);
        assert_eq!(fi.platform_groups(), None, "empty shape is uniform");
        // Oversized count, oversized speed, leftover machines.
        fi.speed_groups = vec![(99, 200, 0), (1, 2, 1)];
        let g = fi.platform_groups().expect("non-empty shape");
        assert_eq!(g.total(), 4, "group total matches the clamped m");
        assert_eq!(
            g.groups()[0].speed,
            Speed::new(limits::MAX_SPEED, 1).unwrap()
        );
        // First group swallowed the budget; the rest were dropped.
        assert_eq!(g.len(), 1);
        // A partial shape is padded with a unit-speed remainder group.
        fi.speed_groups = vec![(1, 2, 1)];
        let g = fi.platform_groups().expect("non-empty shape");
        assert_eq!(g.total(), 4);
        assert_eq!(g.len(), 2);
        assert_eq!(g.groups()[1].count, 3);
        assert_eq!(g.groups()[1].speed, Speed::ONE);
        // The judged config carries the platform.
        assert_eq!(fi.base_config().groups, fi.platform_groups());
    }
}
