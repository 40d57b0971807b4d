//! Node-pick policies: which ready nodes run when a job is granted
//! processors.
//!
//! The paper's scheduler "arbitrarily picks `n_i` ready nodes" — the
//! analysis must hold for *any* choice, so the engine owns the choice and
//! makes it pluggable:
//!
//! * [`NodePick::Fifo`] / [`NodePick::Lifo`] — readiness order (the neutral
//!   defaults);
//! * [`NodePick::Random`] — seeded uniform choice;
//! * [`NodePick::AdversarialLowHeight`] — a *clairvoyant adversary* that
//!   runs nodes furthest from the critical path first. On the Figure 1 DAG
//!   this executes the whole parallel block before touching the chain,
//!   producing the `(W−L)/m + L` worst case of Theorem 1;
//! * [`NodePick::CriticalPathFirst`] — the clairvoyant *friendly* policy
//!   (longest-path-first list scheduling), used by the offline baselines.
//!
//! Every policy but `Random` is a fixed order over the eligible (ready,
//! unclaimed) nodes, so `k` successive one-node picks within a tick return
//! what one `k`-node pick returns, and the engine picks each allocation
//! entry's nodes once per tick (see [`NodePick::fast_forward_safe`]; the
//! driver's execution phase gives the argument).

use dagsched_core::{NodeId, Rng64};
use dagsched_dag::{DagJobSpec, UnfoldState};
use std::collections::HashMap;
use std::sync::Arc;

/// Strategy for choosing among ready nodes. See module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodePick {
    /// Oldest-ready-first (deterministic, structure-oblivious).
    Fifo,
    /// Newest-ready-first (deterministic, structure-oblivious).
    Lifo,
    /// Uniformly random among ready nodes, from the given seed.
    Random(u64),
    /// Clairvoyant adversary: smallest height (longest-path-to-sink) first,
    /// i.e. postpone the critical path as long as possible.
    AdversarialLowHeight,
    /// Clairvoyant ally: greatest height first (LPF list scheduling).
    CriticalPathFirst,
}

impl NodePick {
    /// Whether repeated picks over an unchanged ready/claim state return the
    /// same nodes without consuming per-call state — the property the
    /// engine's event-driven fast-forward path relies on.
    ///
    /// The same determinism licenses batching: the engine hands out an
    /// entry's nodes for a whole tick from one `k`-node pick, not one
    /// one-node pick per processor.
    ///
    /// [`NodePick::Random`] fails it: the naive path draws from the RNG on
    /// every tick, so skipping ticks would change every subsequent draw,
    /// and its reservoir draws per call are part of the output, so it keeps
    /// one call per handed-out node. Random runs take one tick per step.
    pub fn fast_forward_safe(&self) -> bool {
        !matches!(self, NodePick::Random(_))
    }
}

/// Per-simulation picker state: the RNG for [`NodePick::Random`] and, for
/// the clairvoyant policies, one cached height ordering per DAG spec.
#[derive(Debug)]
pub struct Picker {
    policy: NodePick,
    rng: Rng64,
    /// Height rank per node, computed once per spec for the clairvoyant
    /// policies (instead of re-sorting the ready set on every pick). Keyed
    /// by the spec's `Arc` pointer; the held `Arc` keeps the allocation
    /// alive so the key can never be reused while cached.
    ranks: HashMap<usize, (Arc<DagJobSpec>, Vec<u32>)>,
    /// Number of [`pick_into`](Self::pick_into) calls, for tests that pin
    /// the engine's picker cost per tick.
    #[cfg(test)]
    pub(crate) calls: u64,
}

impl Picker {
    /// Instantiate the policy.
    pub fn new(policy: NodePick) -> Picker {
        let seed = match policy {
            NodePick::Random(s) => s,
            _ => 0,
        };
        Picker {
            policy,
            rng: Rng64::seed_from(seed),
            ranks: HashMap::new(),
            #[cfg(test)]
            calls: 0,
        }
    }

    /// Choose up to `k` distinct ready nodes of `state`, excluding any
    /// [claimed](UnfoldState::is_claimed) by another processor this tick.
    pub fn pick(&mut self, state: &UnfoldState, k: usize) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.pick_into(state, k, &mut out);
        out
    }

    /// Like [`pick`](Self::pick), but writes into a caller-provided buffer
    /// (cleared first) so the engine's hot loop allocates nothing per call.
    pub fn pick_into(&mut self, state: &UnfoldState, k: usize, out: &mut Vec<NodeId>) {
        #[cfg(test)]
        {
            self.calls += 1;
        }
        out.clear();
        if k == 0 {
            return;
        }
        let free = |n: &NodeId| !state.is_claimed(*n);
        match self.policy {
            NodePick::Fifo => {
                // One pass, stops after k: no full ready-set scan.
                out.extend(state.ready_iter().filter(free).take(k));
            }
            NodePick::Lifo => {
                // Newest-first walk: stops after k, like Fifo.
                out.extend(state.ready_iter_rev().filter(free).take(k));
            }
            NodePick::Random(_) => {
                // Reservoir sample of size k over the eligible nodes, then
                // restore a deterministic order (by reservoir fill order).
                for (i, n) in state.ready_iter().filter(free).enumerate() {
                    if i < k {
                        out.push(n);
                    } else {
                        let j = self.rng.gen_range(i as u64 + 1) as usize;
                        if j < k {
                            out[j] = n;
                        }
                    }
                }
            }
            NodePick::AdversarialLowHeight | NodePick::CriticalPathFirst => {
                let rank = self.rank_for(state.spec());
                out.extend(state.ready_iter().filter(free));
                // The precomputed rank is a total order consistent with the
                // policy's (height, id) key, so "k smallest ranks, in rank
                // order" reproduces the old sort-and-truncate exactly —
                // in O(ready + k log k) instead of O(ready log ready).
                if out.len() > k {
                    out.select_nth_unstable_by_key(k - 1, |n| rank[n.index()]);
                    out.truncate(k);
                }
                out.sort_unstable_by_key(|n| rank[n.index()]);
            }
        }
    }

    /// Height ranks for `spec`, computed on first use and cached. Rank i
    /// means i-th in the policy order: ascending height for the adversary,
    /// descending for critical-path-first, ids breaking ties.
    fn rank_for(&mut self, spec: &Arc<DagJobSpec>) -> &[u32] {
        let adversarial = self.policy == NodePick::AdversarialLowHeight;
        let key = Arc::as_ptr(spec) as usize;
        let (_, rank) = self.ranks.entry(key).or_insert_with(|| {
            let n = spec.num_nodes();
            let mut order: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            order.sort_unstable_by_key(|n| {
                let h = spec.height(*n).units();
                let key = if adversarial { h } else { u64::MAX - h };
                (key, n.0)
            });
            let mut rank = vec![0u32; n];
            for (i, node) in order.iter().enumerate() {
                rank[node.index()] = i as u32;
            }
            (spec.clone(), rank)
        });
        rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::Work;
    use dagsched_dag::{gen, DagBuilder};

    /// Fig.1-like: node 0..3 a chain, nodes 4..9 an independent block.
    fn fig1ish() -> UnfoldState {
        UnfoldState::new(gen::fig1(2, 4, 1).into_shared(), 1)
    }

    #[test]
    fn fifo_takes_readiness_order() {
        let st = fig1ish();
        let picked = Picker::new(NodePick::Fifo).pick(&st, 3);
        // Initial ready set: chain head (0) then block nodes (4, 5, ...).
        assert_eq!(picked, vec![NodeId(0), NodeId(4), NodeId(5)]);
    }

    #[test]
    fn lifo_takes_reverse_order() {
        let st = fig1ish();
        let picked = Picker::new(NodePick::Lifo).pick(&st, 2);
        assert_eq!(picked, vec![NodeId(7), NodeId(6)]);
    }

    #[test]
    fn lifo_skips_busy_nodes_at_the_tail() {
        let mut st = fig1ish();
        // Ready order is 0, 4, 5, 6, 7: the newest two are taken.
        st.claim(NodeId(7));
        st.claim(NodeId(6));
        let picked = Picker::new(NodePick::Lifo).pick(&st, 2);
        assert_eq!(picked, vec![NodeId(5), NodeId(4)]);
        // Asking for more than are free returns every free node, newest
        // first.
        st.claim(NodeId(4));
        let picked = Picker::new(NodePick::Lifo).pick(&st, 5);
        assert_eq!(picked, vec![NodeId(5), NodeId(0)]);
    }

    /// The prefix property batching relies on: for every deterministic
    /// policy, `k` one-node picks that each claim their node return
    /// the same nodes, in the same order, as one `k`-node pick.
    #[test]
    fn one_k_pick_equals_k_one_node_picks() {
        let st = fig1ish();
        for policy in [
            NodePick::Fifo,
            NodePick::Lifo,
            NodePick::AdversarialLowHeight,
            NodePick::CriticalPathFirst,
        ] {
            assert!(policy.fast_forward_safe());
            let mut picker = Picker::new(policy.clone());
            for k in 0..=6 {
                let batch = picker.pick(&st, k);
                let mut claimed = st.clone();
                let mut singles = Vec::new();
                for _ in 0..k {
                    if let Some(&n) = picker.pick(&claimed, 1).first() {
                        claimed.claim(n);
                        singles.push(n);
                    }
                }
                assert_eq!(batch, singles, "{policy:?} k={k}");
            }
        }
    }

    #[test]
    fn adversary_avoids_the_chain() {
        let st = fig1ish();
        let picked = Picker::new(NodePick::AdversarialLowHeight).pick(&st, 4);
        // Chain head has height 4; block nodes height 1 — adversary takes
        // blocks first.
        assert!(!picked.contains(&NodeId(0)), "{picked:?}");
        assert_eq!(picked.len(), 4);
    }

    #[test]
    fn critical_path_first_takes_the_chain_head() {
        let st = fig1ish();
        let picked = Picker::new(NodePick::CriticalPathFirst).pick(&st, 1);
        assert_eq!(picked, vec![NodeId(0)]);
    }

    #[test]
    fn busy_nodes_are_excluded() {
        let mut st = fig1ish();
        st.claim(NodeId(0));
        st.claim(NodeId(4));
        let picked = Picker::new(NodePick::Fifo).pick(&st, 2);
        assert_eq!(picked, vec![NodeId(5), NodeId(6)]);
    }

    #[test]
    fn pick_caps_at_available() {
        let mut b = DagBuilder::new();
        b.add_node(Work(1));
        b.add_node(Work(1));
        let st = UnfoldState::new(b.build().unwrap().into_shared(), 1);
        let picked = Picker::new(NodePick::Fifo).pick(&st, 10);
        assert_eq!(picked.len(), 2);
        let picked = Picker::new(NodePick::Fifo).pick(&st, 0);
        assert!(picked.is_empty());
    }

    #[test]
    fn random_is_seed_deterministic_and_distinct() {
        let st = fig1ish();
        let a = Picker::new(NodePick::Random(9)).pick(&st, 3);
        let b = Picker::new(NodePick::Random(9)).pick(&st, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "picked nodes are distinct");
    }
}
