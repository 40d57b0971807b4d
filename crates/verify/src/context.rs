//! Thread-local replay context for strict-mode panics.
//!
//! A `verify-strict` panic used to say only *what* was violated and
//! *when* in simulation time — not *where* in the event stream or *how* to
//! reproduce it, so a CI log line was the start of an investigation, not
//! the end of one. This module threads two pieces of context into
//! `Recorder::flag`'s panic message without
//! touching any checker signature:
//!
//! * the **event index**: how many observer callbacks the
//!   [`InvariantSuite`](crate::InvariantSuite) has processed this run.
//!   This matches the line index of the serialized JSONL stream up to
//!   window coalescing (the reference path's adjacent width-1 windows
//!   collapse into one JSONL line), so the index locates the violating
//!   event in the uploaded stream artifact;
//! * an optional **replay seed**, published by whoever drives the run
//!   (the fuzz loop sets its master seed), rendered as a ready-to-paste
//!   `dagsched fuzz --replay <seed>` command.
//!
//! State is thread-local: parallel test threads each see their own
//! context, and a run that never sets a seed still gets the event index.

use std::cell::Cell;

thread_local! {
    static EVENT_INDEX: Cell<u64> = const { Cell::new(0) };
    static REPLAY_SEED: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Publish the seed that reproduces the current run; it appears in any
/// strict-mode panic on this thread until [`clear`] or the next
/// [`set_replay_seed`].
pub fn set_replay_seed(seed: u64) {
    REPLAY_SEED.with(|c| c.set(Some(seed)));
}

/// Drop the published replay seed and reset the event index.
pub fn clear() {
    REPLAY_SEED.with(|c| c.set(None));
    EVENT_INDEX.with(|c| c.set(0));
}

/// The number of suite-observed events so far on this thread.
pub fn event_index() -> u64 {
    EVENT_INDEX.with(|c| c.get())
}

/// Restart the event counter (fired by the suite's `on_start`).
pub(crate) fn reset_event_index() {
    EVENT_INDEX.with(|c| c.set(0));
}

/// Count one observer callback (fired once per suite event).
pub(crate) fn bump_event_index() {
    EVENT_INDEX.with(|c| c.set(c.get() + 1));
}

/// The context suffix appended to strict-mode panic messages.
pub(crate) fn describe() -> String {
    let idx = EVENT_INDEX.with(|c| c.get());
    match REPLAY_SEED.with(|c| c.get()) {
        Some(seed) => {
            format!(" [stream event #{idx}; replay: dagsched fuzz --replay {seed}]")
        }
        None => format!(" [stream event #{idx}]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_reflects_index_and_seed() {
        clear();
        bump_event_index();
        bump_event_index();
        assert_eq!(event_index(), 2);
        assert_eq!(describe(), " [stream event #2]");
        set_replay_seed(0xBEEF);
        assert_eq!(
            describe(),
            " [stream event #2; replay: dagsched fuzz --replay 48879]"
        );
        clear();
        assert_eq!(describe(), " [stream event #0]");
    }

    #[test]
    fn reset_restarts_the_count() {
        clear();
        bump_event_index();
        reset_event_index();
        assert_eq!(event_index(), 0);
    }
}
