//! Progress observation and cooperative cancellation of counting runs.
//!
//! Long counts — thousands of oracle calls across many rounds — need two
//! hooks that the original free-function API could not offer: a way to *see*
//! work as it completes (for progress bars, log streams, service metrics)
//! and a way to *stop* it cleanly (a user abort, a smarter scheduler-level
//! timeout).  Both are cooperative: the engine polls a [`CancellationToken`]
//! at every cell boundary and model discovery, and emits [`ProgressEvent`]s
//! to an optional [`Progress`] observer at the same points.
//!
//! Cancellation is not an error.  A cancelled run reports
//! [`CountOutcome::Timeout`] (or an approximate outcome from the rounds that
//! did finish), with all partial statistics intact — exactly like a deadline
//! expiry, which shares the same code path.
//!
//! Observers are called from whichever thread performs the work.  With
//! [`ParallelConfig::threads`] > 1 events from different rounds interleave in
//! wall-clock order (which varies run to run); the *reported outcome* stays
//! bit-identical regardless, as the round scheduler guarantees.
//!
//! [`CountOutcome::Timeout`]: crate::CountOutcome
//! [`ParallelConfig::threads`]: crate::ParallelConfig

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use pact_solver::InterruptFlag;

/// A cloneable flag that asks a running count to stop at the next safe
/// point.
///
/// Clones share the same flag, so a token handed to
/// [`SessionBuilder::cancellation`] can be cancelled from another thread (or
/// from inside a [`Progress`] observer) while the count runs.
///
/// The token is backed by a [`pact_solver::InterruptFlag`], and the engine
/// installs that flag into every oracle it builds
/// ([`Oracle::set_interrupt`](pact_solver::Oracle::set_interrupt)): besides
/// the engine's own cell-boundary polling, cancellation reaches *inside*
/// in-flight solver calls — the SAT search gives up at its next conflict or
/// restart boundary, and a portfolio oracle's racing workers all stand down.
///
/// [`SessionBuilder::cancellation`]: crate::SessionBuilder::cancellation
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    cancelled: InterruptFlag,
}

impl CancellationToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        CancellationToken::default()
    }

    /// Requests cancellation; every clone of the token observes it.
    ///
    /// Cancellation is *sticky*: the flag stays set (and every new count
    /// started with this token stops immediately) until [`reset`] is
    /// called.  Reusing a [`Session`](crate::Session) after aborting a
    /// count therefore requires a reset first.
    ///
    /// [`reset`]: CancellationToken::reset
    pub fn cancel(&self) {
        self.cancelled.set();
    }

    /// Clears a previous cancellation so the token (and any session holding
    /// it) can be used for further counts.
    pub fn reset(&self) {
        self.cancelled.clear();
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.is_set()
    }

    /// The solver-level interrupt flag sharing this token's atomic, which
    /// the engine installs into every oracle so cancellation aborts
    /// in-flight solver work (not just the next cell boundary).
    pub fn interrupt_flag(&self) -> InterruptFlag {
        self.cancelled.clone()
    }
}

/// One observable step of a counting run.
///
/// The enum is `#[non_exhaustive]`: future engines (portfolio oracles,
/// suite runners) will add event kinds, and observers must ignore unknown
/// ones.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProgressEvent {
    /// A projected model was discovered during a saturating enumeration;
    /// `found` counts models within the current cell.
    Model {
        /// Models found so far in the cell being measured.
        found: u64,
    },
    /// A cell's size was measured (one saturating enumeration finished).
    Cell {
        /// The outer round the cell belongs to (0 for the unhashed formula
        /// and for the exact enumerator).
        round: u32,
        /// Cells measured so far within that round, counting from 1.
        cells_in_round: u64,
    },
    /// An outer round finished.  `estimate` is `None` when the round failed
    /// (empty boundary cell) or ran out of budget; an exact count's round 0
    /// carries the exact count (the exact enumerator emits no `Round`).
    Round {
        /// The round index.
        round: u32,
        /// The round's estimate, if it produced one.
        estimate: Option<f64>,
    },
}

/// An observer of [`ProgressEvent`]s.
///
/// # Thread-safety bounds
///
/// Implementations must be `Send + Sync` — the bound is on the trait, not
/// on call sites, so it is checked where the observer is *written* rather
/// than deep inside the engine.  Two consumers rely on it:
///
/// * with a parallel [`ParallelConfig`](crate::ParallelConfig) the engine
///   calls [`Progress::report`] from several round-worker threads
///   concurrently (`Sync`), and
/// * service front-ends (`pact-service`) move the observer onto a shard
///   thread and forward events over channels to a handle owned by another
///   thread (`Send`).
///
/// Any `Fn(&ProgressEvent) + Send + Sync` closure implements the trait; a
/// non-`Sync` sink (e.g. an `mpsc::Sender` on older toolchains) can be
/// wrapped in a `Mutex` inside the closure.  Events are `Clone + Send`, so
/// forwarding them across threads needs no wrapper at all.
pub trait Progress: Send + Sync {
    /// Called once per event, from the thread doing the work.
    fn report(&self, event: &ProgressEvent);
}

impl<F: Fn(&ProgressEvent) + Send + Sync> Progress for F {
    fn report(&self, event: &ProgressEvent) {
        self(event)
    }
}

/// The run-scoped control block threaded through the round scheduler and the
/// saturating counter: the absolute deadline, the cancellation token, and
/// the progress observer.
///
/// All three are optional; [`RunControl::default`] is a no-op control block
/// (no deadline, never cancelled, no observer), which is what the
/// compatibility wrappers use.
#[derive(Clone, Default)]
pub struct RunControl {
    /// Absolute instant after which the run reports a timeout.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag.
    pub cancel: Option<CancellationToken>,
    /// Progress observer.
    pub progress: Option<Arc<dyn Progress>>,
}

impl fmt::Debug for RunControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunControl")
            .field("deadline", &self.deadline)
            .field("cancelled", &self.cancel.as_ref().map(|c| c.is_cancelled()))
            .field(
                "progress",
                &self.progress.as_ref().map(|_| "Arc<dyn Progress>"),
            )
            .finish()
    }
}

impl RunControl {
    /// A control block that only watches a deadline (the pre-session
    /// behaviour of the engine).
    pub fn with_deadline(deadline: Option<Instant>) -> Self {
        RunControl {
            deadline,
            ..RunControl::default()
        }
    }

    /// Whether the run should stop now: the deadline passed or cancellation
    /// was requested.
    pub fn interrupted(&self) -> bool {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return true;
            }
        }
        self.deadline.map(|d| Instant::now() >= d).unwrap_or(false)
    }

    /// Emits a progress event to the observer, if one is attached.
    pub fn emit(&self, event: ProgressEvent) {
        if let Some(observer) = &self.progress {
            observer.report(&event);
        }
    }

    /// The solver-level interrupt flag the engine hands to every oracle it
    /// builds, so cancellation and the deadline reach in-flight solver
    /// calls: the cancellation token's flag, carrying the deadline, or
    /// `None` when the run has neither.
    pub fn solver_interrupt(&self) -> Option<InterruptFlag> {
        if self.cancel.is_none() && self.deadline.is_none() {
            return None;
        }
        let flag = self
            .cancel
            .as_ref()
            .map_or_else(InterruptFlag::new, CancellationToken::interrupt_flag);
        Some(match self.deadline {
            Some(deadline) => flag.with_deadline(deadline),
            None => flag,
        })
    }
}

// Cross-thread delivery is the whole point of these types: tokens are
// cancelled from supervisor threads, events cross shard/handle boundaries,
// and `RunControl` (carrying an `Arc<dyn Progress>`) is shared by round
// workers.  Pin the auto-traits at compile time so a field change cannot
// silently break them.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CancellationToken>();
    assert_send_sync::<ProgressEvent>();
    assert_send_sync::<RunControl>();
    assert_send_sync::<Arc<dyn Progress>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn token_clones_share_the_flag() {
        let token = CancellationToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn default_control_never_interrupts_and_swallows_events() {
        let ctrl = RunControl::default();
        assert!(!ctrl.interrupted());
        ctrl.emit(ProgressEvent::Model { found: 1 }); // no observer: no-op
    }

    #[test]
    fn control_observes_deadline_cancellation_and_progress() {
        let seen = Arc::new(AtomicU64::new(0));
        let sink = {
            let seen = Arc::clone(&seen);
            move |_event: &ProgressEvent| {
                seen.fetch_add(1, Ordering::Relaxed);
            }
        };
        let token = CancellationToken::new();
        let ctrl = RunControl {
            deadline: None,
            cancel: Some(token.clone()),
            progress: Some(Arc::new(sink)),
        };
        assert!(!ctrl.interrupted());
        ctrl.emit(ProgressEvent::Cell {
            round: 0,
            cells_in_round: 1,
        });
        ctrl.emit(ProgressEvent::Round {
            round: 0,
            estimate: Some(4.0),
        });
        assert_eq!(seen.load(Ordering::Relaxed), 2);
        token.cancel();
        assert!(ctrl.interrupted());

        let expired = RunControl::with_deadline(Some(Instant::now()));
        assert!(expired.interrupted());
    }
}
