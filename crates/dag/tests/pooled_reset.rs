//! Property test: a pooled-and-reset [`UnfoldState`] is observationally
//! identical to a freshly constructed one.
//!
//! The engine's lifecycle pool recycles `UnfoldState`s from completed and
//! expired jobs via `reset_from`, so the entire byte-invisibility argument
//! for PR 5's pooling layer reduces to this property: no matter how dirty
//! the recycled state is (arbitrary partial unfold of an unrelated DAG,
//! with node claims still held, as a job that expires inside a held
//! fast-forward window leaves it), after `reset_from(spec, scale)` it must
//! be indistinguishable from `UnfoldState::new(spec, scale)` under every
//! observable — no claim survives — and under any interleaving of
//! `advance` / `advance_bulk` / `claim` / `release` the engine can issue.

use dagsched_core::{NodeId, Rng64};
use dagsched_dag::{gen, UnfoldState};
use proptest::prelude::*;

/// Compare every scheduler-visible observable of the two states.
fn assert_observably_equal(pooled: &UnfoldState, fresh: &UnfoldState) {
    assert_eq!(pooled.scale(), fresh.scale());
    assert_eq!(pooled.ready_count(), fresh.ready_count());
    assert_eq!(pooled.completed_nodes(), fresh.completed_nodes());
    assert_eq!(pooled.remaining_total(), fresh.remaining_total());
    assert_eq!(pooled.is_complete(), fresh.is_complete());
    let n = fresh.spec().num_nodes();
    assert_eq!(
        pooled.ready_prefix(n),
        fresh.ready_prefix(n),
        "ready FIFO order diverged"
    );
    for v in 0..n as u32 {
        assert_eq!(pooled.is_ready(NodeId(v)), fresh.is_ready(NodeId(v)));
        assert_eq!(
            pooled.is_claimed(NodeId(v)),
            fresh.is_claimed(NodeId(v)),
            "claim bit of node {v} diverged"
        );
        assert_eq!(
            pooled.node_remaining(NodeId(v)),
            fresh.node_remaining(NodeId(v))
        );
    }
    assert_eq!(pooled.remaining_span(), fresh.remaining_span());
}

/// Drive a state one random step, mixing completing `advance` calls with
/// non-completing `advance_bulk` calls exactly as the fast-forward engine
/// does, and claiming or releasing the stepped node (and, on completion,
/// claiming the ready successors) as the engine's claim pass does. Both
/// states receive the same rng, hence the same interleaving.
fn step(state: &mut UnfoldState, rng: &mut Rng64) {
    let k = state.ready_count();
    debug_assert!(k > 0);
    let pick = state.ready_prefix(k)[rng.gen_range(k as u64) as usize];
    match (state.is_claimed(pick), rng.gen_range(3)) {
        (false, 0) => state.claim(pick),
        (true, 0) => state.release(pick),
        _ => {}
    }
    let rem = state.node_remaining(pick).units();
    if rem >= 2 && rng.gen_range(3) == 0 {
        // Bulk path: must strictly not complete the node.
        state.advance_bulk(pick, 1 + rng.gen_range(rem - 1));
    } else if state.advance(pick, 1 + rng.gen_range(rem + 2)).1 && rng.gen_range(2) == 0 {
        state.claim_ready_successors(pick, |_| {});
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn pooled_reset_is_observationally_fresh(
        seed in 0u64..10_000,
        dirty_n in 1u32..24,
        target_n in 1u32..24,
        dirty_ops in 0usize..40,
        scale in 1u64..4,
    ) {
        let mut rng = Rng64::seed_from(seed);

        // Build a pooled state and dirty it with a partial unfold of an
        // unrelated DAG, as a recycled slot would be after a real run.
        let dirty_spec = gen::random_dag(&mut rng, dirty_n, 0.3, (1, 6)).into_shared();
        let mut pooled = UnfoldState::new(dirty_spec, 1 + seed % 3);
        for _ in 0..dirty_ops {
            if pooled.is_complete() {
                break;
            }
            step(&mut pooled, &mut rng);
        }

        // Reset onto the target spec; build the fresh twin.
        let spec = gen::random_dag(&mut rng, target_n, 0.25, (1, 6)).into_shared();
        let held = (0..dirty_n).filter(|&v| pooled.is_claimed(NodeId(v))).count();
        pooled.reset_from(spec.clone(), scale);
        let mut fresh = UnfoldState::new(spec, scale);
        assert_observably_equal(&pooled, &fresh);
        let n = fresh.spec().num_nodes() as u32;
        prop_assert!(
            (0..n).all(|v| !pooled.is_claimed(NodeId(v))),
            "a claim survived the reset ({held} held before it)"
        );

        // Lockstep-unfold both to completion under one interleaving,
        // checking every observable after every step.
        let mut op_rng_a = Rng64::seed_from(seed ^ 0xD1CE);
        let mut op_rng_b = Rng64::seed_from(seed ^ 0xD1CE);
        while !fresh.is_complete() {
            step(&mut pooled, &mut op_rng_a);
            step(&mut fresh, &mut op_rng_b);
            assert_observably_equal(&pooled, &fresh);
        }
        prop_assert!(pooled.is_complete());
    }
}
