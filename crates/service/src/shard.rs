//! Shard worker threads: one persistent `Session` pipeline per shard.
//!
//! Each shard is a std thread parked on the shared [`AdmissionQueue`],
//! serving one ticket at a time: build a single-threaded [`pact::Session`]
//! from the request, count it with the request's cancellation token and a
//! progress forwarder attached, and resolve the ticket's handle with a
//! typed disposition.  Parallelism comes from running several shards, not
//! from within a request — the per-request configuration pins
//! `parallel.threads = 1` (see
//! [`CountRequest::counter_config`](crate::CountRequest::counter_config)).
//!
//! Lifecycle accounting follows the `WorkerPool` discipline from
//! `pact_solver`: the service increments a shared live-thread counter
//! before spawning each shard, and a drop guard decrements it on *any* exit
//! path, so tests can assert zero leaked threads after shutdown.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pact::{CountOutcome, CountReport, CountStats, Session};

use crate::queue::{AdmissionQueue, Ticket};
use crate::request::{Disposition, ServiceError, ServiceReport};
use crate::RequestEvent;

/// Per-shard state the service keeps for observability and abort: the token
/// of the request currently being served (cancelled wholesale by an
/// aborting shutdown) and per-disposition counters (reported through
/// [`ServiceMetrics`](crate::ServiceMetrics) and asserted by the throughput
/// smoke run).
///
/// Every ticket the shard pops resolves into **exactly one** of the four
/// counters: `served` counts only requests that truly finished (a decisive
/// count delivered), while cancellations, deadline expiries and errors land
/// in their own buckets.  An earlier revision bumped `served` at admission,
/// which inflated it with requests that were subsequently cancelled or
/// timed out; the regression test in `tests/service.rs` pins the split.
#[derive(Debug, Default)]
pub(crate) struct ShardState {
    pub(crate) current: Mutex<Option<pact::CancellationToken>>,
    pub(crate) served: AtomicU64,
    pub(crate) cancelled: AtomicU64,
    pub(crate) timed_out: AtomicU64,
    pub(crate) failed: AtomicU64,
}

/// Decrements the live-thread counter on any exit path (normal drain,
/// abort, or panic unwinding through the shard loop).
struct LiveGuard(Arc<AtomicUsize>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// The shard thread body: pop, publish the current token, serve, repeat —
/// until the queue closes and drains.
pub(crate) fn run(
    index: usize,
    queue: Arc<AdmissionQueue>,
    state: Arc<ShardState>,
    live: Arc<AtomicUsize>,
) {
    let _guard = LiveGuard(live);
    while let Some(ticket) = queue.pop(index) {
        let cost = ticket.cost;
        *state.current.lock().expect("shard state poisoned") = Some(ticket.token.clone());
        serve(index, &queue, ticket, &state);
        *state.current.lock().expect("shard state poisoned") = None;
        // Release the running-cost charge only after the ticket resolved,
        // so placement keeps steering new work away from a busy shard.
        queue.finished(index, cost);
    }
}

/// The report a request resolves to when it never (fully) ran: the
/// engine's `Timeout` outcome with empty statistics.
pub(crate) fn cancelled_report() -> CountReport {
    CountReport {
        outcome: CountOutcome::Timeout,
        stats: CountStats::default(),
    }
}

/// Serves one ticket end to end: admission event, session build, count,
/// terminal event + result.  Send failures are ignored throughout — a
/// dropped [`RequestHandle`](crate::RequestHandle) must never disturb the
/// shard.
fn serve(shard: usize, queue: &AdmissionQueue, ticket: Ticket, state: &ShardState) {
    let Ticket {
        id: _,
        request,
        token,
        reply,
        submitted,
        cost,
    } = ticket;
    // One measurement feeds both the reported queue time and the deadline
    // charge below, so the deadline is charged exactly the queue time the
    // report admits — an earlier revision measured twice and silently
    // charged the deadline the extra microseconds between the reads.
    let waited = submitted.elapsed();
    let queue_seconds = waited.as_secs_f64();
    reply.event(RequestEvent::Admitted { shard });

    // A ticket can leave the queue just as an aborting shutdown clears it,
    // or its handle may have cancelled while it queued; either way, stand
    // down without building a session.  Counters are bumped *before* the
    // result send on every path below, so the increment happens-before the
    // delivery a waiter unblocks on: once `wait` returns, the metrics
    // already account for this request's disposition.
    if queue.aborting() || token.is_cancelled() {
        state.cancelled.fetch_add(1, Ordering::Relaxed);
        reply.event(RequestEvent::Cancelled);
        reply.resolve(Ok(ServiceReport {
            report: cancelled_report(),
            shard: Some(shard),
            queue_seconds,
            disposition: Disposition::Cancelled,
            cost_estimate: cost,
        }));
        return;
    }

    // The deadline is end-to-end from submission: time already spent in the
    // queue is charged against it.  A fully consumed budget becomes
    // `Some(Duration::ZERO)`, which the engine maps to an immediate
    // `Timeout` with partial statistics.
    let mut config = request.counter_config();
    if let Some(total) = request.deadline {
        config.deadline = Some(total.saturating_sub(waited));
    }

    let forward = reply.event_sink();
    let built = Session::builder(request.tm)
        .assert_all(&request.formula)
        .project_all(&request.projection)
        .config(config)
        .cancellation(token.clone())
        .on_progress(move |event| forward.send(RequestEvent::Progress(event.clone())))
        .build();

    let outcome = match built {
        Ok(mut session) => session.count(),
        Err(e) => Err(e),
    };
    match outcome {
        Err(e) => {
            state.failed.fetch_add(1, Ordering::Relaxed);
            reply.event(RequestEvent::Failed);
            reply.resolve(Err(ServiceError::Count(e)));
        }
        Ok(report) => {
            // Terminal resolution decides the counter *and* the report's
            // disposition: only a decisive, uncancelled count is "served".
            let (terminal, disposition) = if token.is_cancelled() {
                state.cancelled.fetch_add(1, Ordering::Relaxed);
                (RequestEvent::Cancelled, Disposition::Cancelled)
            } else if report.outcome == CountOutcome::Timeout {
                state.timed_out.fetch_add(1, Ordering::Relaxed);
                (RequestEvent::TimedOut, Disposition::TimedOut)
            } else {
                state.served.fetch_add(1, Ordering::Relaxed);
                (RequestEvent::Finished, Disposition::Completed)
            };
            reply.event(terminal);
            reply.resolve(Ok(ServiceReport {
                report,
                shard: Some(shard),
                queue_seconds,
                disposition,
                cost_estimate: cost,
            }));
        }
    }
}
