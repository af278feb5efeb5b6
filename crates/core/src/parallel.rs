//! Deterministic fan-out of independent counting rounds over scoped threads.
//!
//! Both `pact_count` and the CDM baseline run a sequence of *independent*
//! outer rounds and aggregate their estimates (Algorithm 3's
//! median-of-rounds).  This module owns the scheduling so both counters share
//! the same guarantees:
//!
//! * **Determinism.**  A round is a pure function of `(formula snapshot,
//!   configuration, round index)` and of whatever the caller hands it from
//!   rounds that finished before the fan-out — `pact_count` runs round 0
//!   alone and passes its boundary to rounds 1.. as their search start.
//!   Every round opens its own term manager over one shared
//!   [`TermSnapshot`](pact_ir::TermSnapshot) of the interned id table,
//!   builds a fresh oracle, and seeds an RNG from `seed ^ round`.  The
//!   merged result is therefore bit-identical for every thread count —
//!   workers only change *which thread* computes a round, never *what* it
//!   computes.
//! * **Sequential-equivalent early exit.**  When a round reports a stop
//!   condition (deadline expired, solver gave up, error), rounds after it in
//!   *round order* are discarded even if a worker computed them
//!   speculatively, exactly matching what the single-threaded loop would
//!   have run.
//!
//! Rounds run against *fresh* managers over the shared snapshot rather than
//! per-worker reused state on purpose: reusing a worker's term manager
//! across rounds would let one round's interned terms shift the `TermId`s
//! the next round allocates, so results could depend on which worker ran
//! which round.  Opening a manager over the snapshot is an `Arc` share, not
//! a deep copy — each round's hash constraints land in a private tail whose
//! ids start right after the frozen table, so identical construction
//! sequences allocate identical ids on every thread — and the re-encode is a
//! small, constant slice of a round's solving time.
//!
//! The determinism claim is qualified by deadlines: *which* round first
//! observes an expired [`CounterConfig::deadline`] depends on wall-clock
//! progress, which varies with thread count and machine load.  Deadline-free
//! runs are exactly reproducible; see [`ParallelConfig`].
//!
//! The types here own all their data; `Send` is what lets them cross the
//! scope boundary, and the workspace-wide `#![forbid(unsafe_code)]` means
//! that property is checked by the compiler, not by convention (see the
//! assertions at the bottom).
//!
//! [`CounterConfig::deadline`]: crate::CounterConfig
//! [`ParallelConfig`]: crate::ParallelConfig

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::thread;

/// What a round handed back to the scheduler.
pub struct RoundOutput<T> {
    /// The round's result, forwarded verbatim to the merge loop.
    pub value: T,
    /// When `true`, no round with a *higher* index is started (or kept, if
    /// one was already running speculatively on another worker).
    pub stop: bool,
}

/// Runs `rounds` round closures on `workers` threads and returns the results
/// in round order.
///
/// The returned vector has one entry per round; `None` marks rounds that
/// were never run (or were discarded) because an earlier round stopped the
/// schedule.  Callers must merge in index order and treat the first `None`
/// as the end of the sequence — entries *after* a stopping round may be
/// `Some` (speculative work) and must be ignored, which the merge loop gets
/// for free by breaking at the stopper.
pub fn run_rounds<T, F>(workers: usize, rounds: u32, round: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(u32) -> RoundOutput<T> + Sync,
{
    let mut out: Vec<Option<T>> = (0..rounds).map(|_| None).collect();
    if workers <= 1 || rounds <= 1 {
        for r in 0..rounds {
            let output = round(r);
            let stop = output.stop;
            out[r as usize] = Some(output.value);
            if stop {
                break;
            }
        }
        return out;
    }

    // Work-stealing by atomic ticket: each worker claims the next unclaimed
    // round index.  `stop_at` is the exclusive upper bound of the schedule;
    // a stopping round at index r lowers it to r + 1.
    let next = AtomicU32::new(0);
    let stop_at = AtomicU32::new(rounds);
    let (sender, receiver) = mpsc::channel::<(u32, T)>();
    thread::scope(|scope| {
        for _ in 0..workers.min(rounds as usize) {
            let sender = sender.clone();
            let next = &next;
            let stop_at = &stop_at;
            let round = &round;
            scope.spawn(move || loop {
                let r = next.fetch_add(1, Ordering::Relaxed);
                if r >= rounds || r >= stop_at.load(Ordering::Relaxed) {
                    break;
                }
                let output = round(r);
                if output.stop {
                    stop_at.fetch_min(r + 1, Ordering::Relaxed);
                }
                let stop = output.stop;
                // The receiver outlives the scope; a send can only fail if
                // the main thread panicked, in which case unwinding is
                // already in progress.
                let _ = sender.send((r, output.value));
                if stop {
                    break;
                }
            });
        }
    });
    drop(sender);
    let final_stop = stop_at.load(Ordering::Relaxed);
    for (r, value) in receiver {
        // Discard speculative rounds scheduled past the final stop point so
        // the merged sequence matches the single-threaded schedule.
        if r < final_stop {
            out[r as usize] = Some(value);
        }
    }
    out
}

// Send audit for the types that cross the scheduler's thread boundary.
// They own all their data (`Vec`s, `String`s, integers) and the workspace
// forbids `unsafe`, so `Send` is derived structurally; these assertions turn
// any future `Rc`/`RefCell`/raw-pointer regression into a compile error at
// the crate that introduced it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<pact_ir::TermManager>();
    assert_send::<pact_solver::IncrementalContext>();
    assert_send::<pact_solver::SolverError>();
    assert_send::<crate::result::CountStats>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(workers: usize, rounds: u32, stop_on: Option<u32>) -> Vec<Option<u32>> {
        run_rounds(workers, rounds, |r| RoundOutput {
            value: r * 10,
            stop: stop_on == Some(r),
        })
    }

    #[test]
    fn all_rounds_run_without_a_stop() {
        for workers in [1, 2, 8] {
            let out = collect(workers, 6, None);
            let values: Vec<u32> = out.into_iter().map(|v| v.unwrap()).collect();
            assert_eq!(values, vec![0, 10, 20, 30, 40, 50], "workers = {workers}");
        }
    }

    #[test]
    fn results_are_identical_across_worker_counts() {
        let baseline = collect(1, 9, Some(4));
        for workers in [2, 3, 8] {
            let out = collect(workers, 9, Some(4));
            // Rounds up to and including the stopper must match the
            // sequential schedule; later rounds must be discarded.
            for r in 0..=4 {
                assert_eq!(out[r], baseline[r], "workers = {workers}, round {r}");
            }
            for (r, slot) in out.iter().enumerate().skip(5) {
                assert!(slot.is_none(), "workers = {workers}, round {r} kept");
            }
        }
    }

    #[test]
    fn single_round_short_circuits() {
        let out = collect(8, 1, None);
        assert_eq!(out, vec![Some(0)]);
    }
}
