//! The long-lived [`CountingService`]: shard threads, admission, shutdown.
//!
//! The service owns a shared [`AdmissionQueue`](crate::queue::AdmissionQueue)
//! and a fixed set of shard threads parked on it.  [`CountingService::submit`]
//! is the only entry point: it validates the request, stamps it with an id
//! and a submission instant, and either admits it (returning a
//! [`RequestHandle`]) or rejects it with a typed error — never blocking the
//! caller.
//!
//! Shutdown comes in two flavours, both of which join every shard thread
//! before returning (the zero-leaked-threads invariant the contract tests
//! probe): [`CountingService::shutdown`] drains the queue first, while
//! [`CountingService::abort`] resolves queued requests as cancelled and
//! interrupts whatever each shard is currently counting.  Dropping the
//! service without calling either behaves like `abort`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use pact::CancellationToken;

use crate::queue::{AdmissionQueue, AdmitError, Notifier, Reply, Ticket};
use crate::request::{CountRequest, Disposition, RequestHandle, ServiceError, ServiceReport};
use crate::shard::{self, ShardState};
use crate::RequestEvent;

/// Sizing of a [`CountingService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of shard threads; `0` picks `min(available cores, 4)`, the
    /// same adaptive cap the bench harness uses for oracle workers.
    pub shards: usize,
    /// Admission-queue capacity: requests beyond this many *waiting* (not
    /// running) are rejected with
    /// [`ServiceError::QueueFull`](crate::ServiceError::QueueFull).
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 0,
            queue_capacity: 64,
        }
    }
}

impl ServiceConfig {
    fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4)
        }
    }
}

/// A point-in-time snapshot of the service's counters.
///
/// Every admitted request eventually lands in exactly one terminal bucket:
/// a `served_per_shard` slot (truly finished with a decisive count),
/// `cancelled`, `timed_out` or `failed`.  Counters are bumped at terminal
/// resolution — never at admission — so a request cancelled or expired
/// mid-flight can never inflate "served".
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceMetrics {
    /// Requests admitted since startup.
    pub submitted: u64,
    /// Requests rejected by admission control (queue full).
    pub rejected: u64,
    /// Requests that truly finished (decisive count delivered), per shard
    /// (index = shard id).
    pub served_per_shard: Vec<u64>,
    /// Requests resolved as cancelled — by their handle, or by an aborting
    /// shutdown (whether queued or in flight).
    pub cancelled: u64,
    /// Requests whose end-to-end deadline expired (queue wait included).
    pub timed_out: u64,
    /// Requests that resolved with a counting error.
    pub failed: u64,
    /// Live requests currently waiting in the admission queue
    /// (cancelled-while-queued tickets awaiting lazy removal are excluded —
    /// they no longer hold capacity either).
    pub queue_depth: usize,
    /// Estimated outstanding cost per shard (index = shard id): the
    /// [`CountRequest::cost_estimate`] sum of the tickets queued on the
    /// shard plus the one it is currently serving.  This is the quantity
    /// placement minimises.
    pub outstanding_cost_per_shard: Vec<u64>,
    /// Tickets each shard stole from another shard's lanes (index = the
    /// *thief*).  Non-zero steals mean the cost estimates misjudged the
    /// actual runtimes and work-stealing rebalanced the difference.
    pub steals_per_shard: Vec<u64>,
}

/// A long-lived counting server: persistent shard threads serving
/// [`CountRequest`]s with admission control, priorities, deadlines and
/// per-request cancellation.
///
/// ```
/// use pact_ir::{TermManager, Sort};
/// use pact_service::{CountingService, CountRequest, ServiceConfig};
///
/// let service = CountingService::new(ServiceConfig {
///     shards: 2,
///     queue_capacity: 16,
/// });
/// let mut tm = TermManager::new();
/// let x = tm.mk_var("x", Sort::BitVec(6));
/// let c = tm.mk_bv_const(12, 6);
/// let f = tm.mk_bv_ult(x, c).unwrap();
/// let mut handle = service
///     .submit(CountRequest::new(tm).assert(f).project(x))
///     .unwrap();
/// let report = handle.wait().unwrap();
/// assert_eq!(
///     report.report.outcome,
///     pact::CountOutcome::Exact(12)
/// );
/// service.shutdown();
/// ```
#[derive(Debug)]
pub struct CountingService {
    queue: Arc<AdmissionQueue>,
    shards: Vec<Arc<ShardState>>,
    threads: Vec<JoinHandle<()>>,
    live: Arc<AtomicUsize>,
    next_id: AtomicU64,
    submitted: AtomicU64,
    rejected: AtomicU64,
    /// Queued requests an aborting shutdown resolved as cancelled before
    /// any shard saw them (the per-shard states count in-flight ones).
    cancelled_in_queue: AtomicU64,
}

impl CountingService {
    /// Starts the service: spawns the shard threads and opens the queue.
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a shard thread.
    pub fn new(config: ServiceConfig) -> Self {
        let shard_count = config.resolved_shards();
        let queue = Arc::new(AdmissionQueue::new(
            config.queue_capacity.max(1),
            shard_count,
        ));
        let live = Arc::new(AtomicUsize::new(0));
        let mut shards = Vec::with_capacity(shard_count);
        let mut threads = Vec::with_capacity(shard_count);
        for index in 0..shard_count {
            let state = Arc::new(ShardState::default());
            shards.push(Arc::clone(&state));
            let queue = Arc::clone(&queue);
            let live_for_shard = Arc::clone(&live);
            live.fetch_add(1, Ordering::Release);
            let handle = std::thread::Builder::new()
                .name(format!("pact-service-shard-{index}"))
                .spawn(move || shard::run(index, queue, state, live_for_shard))
                .expect("failed to spawn service shard thread");
            threads.push(handle);
        }
        CountingService {
            queue,
            shards,
            threads,
            live,
            next_id: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cancelled_in_queue: AtomicU64::new(0),
        }
    }

    /// Number of shard threads the service was started with.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard threads currently alive — the probe behind the
    /// zero-leaked-threads contract: after [`CountingService::shutdown`] or
    /// [`CountingService::abort`] this is `0`.
    pub fn live_shard_threads(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    /// A snapshot of the service counters.
    pub fn metrics(&self) -> ServiceMetrics {
        ServiceMetrics {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            served_per_shard: self
                .shards
                .iter()
                .map(|s| s.served.load(Ordering::Relaxed))
                .collect(),
            cancelled: self.cancelled_in_queue.load(Ordering::Relaxed)
                + self
                    .shards
                    .iter()
                    .map(|s| s.cancelled.load(Ordering::Relaxed))
                    .sum::<u64>(),
            timed_out: self
                .shards
                .iter()
                .map(|s| s.timed_out.load(Ordering::Relaxed))
                .sum(),
            failed: self
                .shards
                .iter()
                .map(|s| s.failed.load(Ordering::Relaxed))
                .sum(),
            queue_depth: self.queue.depth(),
            outstanding_cost_per_shard: self.queue.outstanding_cost(),
            steals_per_shard: self.queue.steals(),
        }
    }

    /// Validates and admits a request, returning its handle — or a typed
    /// rejection.  Never blocks: admission control answers immediately.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Invalid`] when the request fails validation (bad
    /// `(ε, δ)`, empty projection), [`ServiceError::QueueFull`] when the
    /// bounded queue is at capacity, [`ServiceError::ShuttingDown`] after
    /// shutdown began.  In every error case nothing was enqueued.
    pub fn submit(&self, request: CountRequest) -> Result<RequestHandle, ServiceError> {
        self.submit_notified(request, None)
    }

    /// [`CountingService::submit`] with a wake-up hook the shard pings after
    /// delivering the request's result (and, if the notifier asks, each of
    /// its events), so a transport can block instead of polling.
    pub(crate) fn submit_notified(
        &self,
        request: CountRequest,
        notify: Option<Notifier>,
    ) -> Result<RequestHandle, ServiceError> {
        request.validate().map_err(ServiceError::Invalid)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let priority = request.priority;
        let token = CancellationToken::new();
        let (event_tx, event_rx) = channel();
        let (result_tx, result_rx) = channel();
        // `Queued` is emitted before admission so the stream is never empty
        // for an accepted request; on rejection the receiver is dropped
        // with the handle never built, discarding the event.
        let _ = event_tx.send(RequestEvent::Queued);
        let cost = request.cost_estimate();
        let ticket = Ticket {
            id,
            request,
            token: token.clone(),
            reply: Reply::new(event_tx, result_tx, notify),
            submitted: Instant::now(),
            cost,
        };
        match self.queue.push(ticket, priority) {
            Ok(_depth) => {
                self.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(RequestHandle {
                    id,
                    token,
                    events: event_rx,
                    result_rx,
                    done: None,
                })
            }
            Err((AdmitError::Full, _ticket)) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::QueueFull {
                    capacity: self.queue.capacity(),
                })
            }
            Err((AdmitError::Closed, _ticket)) => Err(ServiceError::ShuttingDown),
        }
    }

    /// Graceful shutdown: stops accepting requests, lets the shards finish
    /// everything already queued, then joins every shard thread.
    pub fn shutdown(mut self) {
        self.stop(false);
    }

    /// Aborting shutdown: stops accepting requests, resolves every queued
    /// request as cancelled, interrupts the counts currently running, then
    /// joins every shard thread.  In-flight requests resolve with
    /// [`pact::CountOutcome::Timeout`] partial reports.
    pub fn abort(mut self) {
        self.stop(true);
    }

    fn stop(&mut self, abort: bool) {
        if abort {
            for ticket in self.queue.clear() {
                self.cancelled_in_queue.fetch_add(1, Ordering::Relaxed);
                cancel_pending(ticket);
            }
            for state in &self.shards {
                if let Some(token) = &*state.current.lock().expect("shard state poisoned") {
                    token.cancel();
                }
            }
        } else {
            self.queue.close();
        }
        for handle in std::mem::take(&mut self.threads) {
            // A shard that panicked already resolved nothing further; the
            // service still owes the caller a completed join.
            let _ = handle.join();
        }
    }
}

/// Resolves a never-served ticket as cancelled (aborting shutdown drained
/// it out of the queue).
fn cancel_pending(ticket: Ticket) {
    ticket.token.cancel();
    ticket.reply.event(RequestEvent::Cancelled);
    ticket.reply.resolve(Ok(ServiceReport {
        report: shard::cancelled_report(),
        shard: None,
        queue_seconds: ticket.submitted.elapsed().as_secs_f64(),
        disposition: Disposition::Cancelled,
        cost_estimate: ticket.cost,
    }));
}

impl Drop for CountingService {
    /// Dropping without an explicit shutdown behaves like
    /// [`CountingService::abort`]: no thread outlives the service.
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.stop(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact::CountOutcome;
    use pact_ir::{Sort, TermManager};

    fn small_request(width: u32, bound: u128) -> CountRequest {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(width));
        let c = tm.mk_bv_const(bound, width);
        let f = tm.mk_bv_ult(x, c).unwrap();
        CountRequest::new(tm).assert(f).project(x).seed(11)
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let service = CountingService::new(ServiceConfig {
            shards: 1,
            queue_capacity: 4,
        });
        let mut handle = service.submit(small_request(6, 12)).unwrap();
        let report = handle.wait().unwrap();
        assert_eq!(report.report.outcome, CountOutcome::Exact(12));
        assert_eq!(report.shard, Some(0));
        assert!(report.queue_seconds >= 0.0);
        assert_eq!(report.disposition, Disposition::Completed);
        assert!(report.cost_estimate >= 1);
        // The event stream saw the full lifecycle in order.
        assert_eq!(handle.next_event(), Some(RequestEvent::Queued));
        assert_eq!(
            handle.next_event(),
            Some(RequestEvent::Admitted { shard: 0 })
        );
        let mut saw_terminal = false;
        while let Some(event) = handle.next_event() {
            if saw_terminal {
                panic!("event after terminal: {event:?}");
            }
            saw_terminal = event.is_terminal();
        }
        assert!(saw_terminal);
        let metrics = service.metrics();
        assert_eq!(metrics.submitted, 1);
        assert_eq!(metrics.rejected, 0);
        // Terminal-resolution accounting: the finished request is served,
        // and nothing leaked into the failure buckets.
        assert_eq!(metrics.served_per_shard.iter().sum::<u64>(), 1);
        assert_eq!(metrics.cancelled, 0);
        assert_eq!(metrics.timed_out, 0);
        assert_eq!(metrics.failed, 0);
        service.shutdown();
    }

    #[test]
    fn shards_serve_concurrent_requests_over_one_shared_snapshot() {
        // One interned store, snapshotted once; every request opens its own
        // manager over the shared id table (an `Arc` share, not a deep
        // clone).  All shards must observe the identical frozen terms:
        // bit-identical reports for identical requests, and the same
        // `terms_interned` store size everywhere.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let c = tm.mk_bv_const(12, 6);
        let f = tm.mk_bv_ult(x, c).unwrap();
        let snapshot = tm.snapshot();

        let service = CountingService::new(ServiceConfig {
            shards: 3,
            queue_capacity: 16,
        });
        let mut handles: Vec<_> = (0..6)
            .map(|_| {
                let request = CountRequest::from_snapshot(std::sync::Arc::clone(&snapshot))
                    .assert(f)
                    .project(x)
                    .seed(11);
                service.submit(request).unwrap()
            })
            .collect();
        let reports: Vec<_> = handles.iter_mut().map(|h| h.wait().unwrap()).collect();
        let shards: std::collections::HashSet<_> =
            reports.iter().map(|r| r.shard.unwrap()).collect();
        assert!(!shards.is_empty());
        let first = &reports[0].report;
        assert_eq!(first.outcome, CountOutcome::Exact(12));
        for r in &reports[1..] {
            assert_eq!(r.report.outcome, first.outcome);
            assert_eq!(
                r.report.stats.terms_interned, first.stats.terms_interned,
                "shared-snapshot requests must report the same store size on every shard"
            );
        }
        service.shutdown();
    }

    #[test]
    fn invalid_requests_are_rejected_before_admission() {
        let service = CountingService::new(ServiceConfig {
            shards: 1,
            queue_capacity: 4,
        });
        let err = service
            .submit(small_request(6, 12).epsilon(-2.0))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Invalid(_)));
        assert_eq!(service.metrics().submitted, 0);
        service.shutdown();
    }

    #[test]
    fn shutdown_joins_every_shard_thread() {
        let service = CountingService::new(ServiceConfig {
            shards: 2,
            queue_capacity: 4,
        });
        assert_eq!(service.shards(), 2);
        let mut handles: Vec<_> = (0..3)
            .map(|_| service.submit(small_request(6, 12)).unwrap())
            .collect();
        let live = Arc::clone(&service.live);
        service.shutdown();
        assert_eq!(live.load(Ordering::Acquire), 0);
        // Drain completed everything that was queued.
        for handle in &mut handles {
            assert!(handle.wait().is_ok());
        }
    }

    #[test]
    fn drop_without_shutdown_aborts_and_joins() {
        let live = {
            let service = CountingService::new(ServiceConfig {
                shards: 2,
                queue_capacity: 4,
            });
            Arc::clone(&service.live)
        };
        assert_eq!(live.load(Ordering::Acquire), 0);
    }

    #[test]
    fn submitting_after_shutdown_is_rejected() {
        let service = CountingService::new(ServiceConfig {
            shards: 1,
            queue_capacity: 4,
        });
        service.queue.close();
        let err = service.submit(small_request(6, 12)).unwrap_err();
        assert_eq!(err, ServiceError::ShuttingDown);
        service.shutdown();
    }
}
