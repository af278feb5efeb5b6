//! Contract tests for `pact-service`: the counting-as-a-service front-end.
//!
//! These pin the service's load-bearing guarantees end to end, through the
//! public API only:
//!
//! * admission control rejects (rather than blocks or buffers) once the
//!   bounded queue saturates;
//! * per-request deadlines are end-to-end from submission and map onto the
//!   engine's `Timeout`-with-partial-statistics semantics;
//! * cancellation — mid-round or while queued — resolves cleanly, and
//!   shutdown of any flavour leaves zero live shard threads (the same
//!   live-thread probe discipline as `tests/portfolio.rs`);
//! * scheduling is FIFO within priority, with higher priorities served
//!   first;
//! * a service answer is bit-identical to a direct `Session::count` under
//!   the request's own configuration — the service adds scheduling, not
//!   noise;
//! * metrics count terminal resolutions: `served` covers only requests
//!   that truly finished, with cancellations, deadline expiries and
//!   failures in their own counters (a regression fix — `served` used to
//!   be bumped at admission).

use std::time::Duration;

use pact::{BackendSpec, CountOutcome, Session};
use pact_ir::{Sort, TermId, TermManager};
use pact_service::{
    CountRequest, CountingService, Disposition, Priority, RequestEvent, ServiceConfig, ServiceError,
};

/// A quick saturating instance: `x >= 16` over 8 bits (240 models).
fn quick_problem() -> (TermManager, TermId, TermId) {
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(8));
    let c = tm.mk_bv_const(16, 8);
    let f = tm.mk_bv_ule(c, x).unwrap();
    (tm, f, x)
}

fn quick_request() -> CountRequest {
    let (tm, f, x) = quick_problem();
    CountRequest::new(tm)
        .assert(f)
        .project(x)
        .seed(42)
        .iterations(3)
}

/// A request that runs long enough to be observed mid-flight: a wide
/// saturating instance with far more rounds than any test waits for.
fn long_request() -> CountRequest {
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(12));
    let c = tm.mk_bv_const(2048, 12);
    let f = tm.mk_bv_ule(c, x).unwrap();
    CountRequest::new(tm)
        .assert(f)
        .project(x)
        .seed(1)
        .iterations(2000)
}

#[test]
fn saturated_queue_rejects_with_typed_error_and_nothing_enqueued() {
    let service = CountingService::new(ServiceConfig {
        shards: 1,
        queue_capacity: 2,
    });
    // Occupy the single shard so queued requests stay queued.
    let mut blocker = service.submit(long_request()).unwrap();
    blocker.wait_for_event(|e| matches!(e, RequestEvent::Admitted { .. }));

    // Fill the queue to capacity, then one more: typed rejection.
    let _queued: Vec<_> = (0..2)
        .map(|_| service.submit(quick_request()).unwrap())
        .collect();
    let err = service.submit(quick_request()).unwrap_err();
    assert_eq!(err, ServiceError::QueueFull { capacity: 2 });

    let metrics = service.metrics();
    assert_eq!(metrics.submitted, 3);
    assert_eq!(metrics.rejected, 1);
    assert_eq!(metrics.queue_depth, 2);

    blocker.cancel();
    assert!(blocker.wait().is_ok());
    service.abort();
}

#[test]
fn deadline_maps_onto_timeout_with_partial_stats() {
    let service = CountingService::new(ServiceConfig {
        shards: 1,
        queue_capacity: 8,
    });
    // A zero deadline is fully consumed before the shard even starts: the
    // engine's immediate-timeout path, with partial statistics intact.
    // The shard computes the remaining budget with `saturating_sub`, so a
    // fully-consumed deadline reaches the engine as `Some(Duration::ZERO)`
    // — which must expire *before* the first oracle check starts, not
    // after it.
    let mut handle = service
        .submit(quick_request().deadline(Duration::ZERO))
        .unwrap();
    let report = handle.wait().unwrap();
    assert_eq!(report.report.outcome, CountOutcome::Timeout);
    assert_eq!(
        report.report.stats.oracle_calls, 0,
        "a zero remaining deadline must expire before any oracle check"
    );
    assert!(report.report.stats.wall_seconds >= 0.0);
    let terminal = handle.wait_for_event(RequestEvent::is_terminal).unwrap();
    assert_eq!(terminal, RequestEvent::TimedOut);
    let metrics = service.metrics();
    assert_eq!(metrics.timed_out, 1);
    assert_eq!(metrics.served_per_shard.iter().sum::<u64>(), 0);
    service.shutdown();
}

#[test]
fn deadline_is_end_to_end_so_queue_wait_counts_against_it() {
    let service = CountingService::new(ServiceConfig {
        shards: 1,
        queue_capacity: 8,
    });
    let mut blocker = service.submit(long_request()).unwrap();
    blocker.wait_for_event(|e| matches!(e, RequestEvent::Admitted { .. }));

    // The deadline expires while the request waits behind the blocker.
    let mut starved = service
        .submit(quick_request().deadline(Duration::from_millis(5)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    blocker.cancel();
    assert!(blocker.wait().is_ok());

    let report = starved.wait().unwrap();
    assert_eq!(report.report.outcome, CountOutcome::Timeout);
    assert!(
        report.queue_seconds >= 0.005,
        "spent {}s in the queue",
        report.queue_seconds
    );
    service.shutdown();
}

#[test]
fn cancellation_mid_round_resolves_partial_and_leaves_no_threads() {
    let service = CountingService::new(ServiceConfig {
        shards: 2,
        queue_capacity: 8,
    });
    assert_eq!(service.live_shard_threads(), 2);

    let mut handle = service.submit(long_request()).unwrap();
    // Cancel only once the count is demonstrably mid-flight: a progress
    // event means the engine is inside its rounds.
    handle
        .wait_for_event(|e| matches!(e, RequestEvent::Progress(_)))
        .expect("a running count emits progress");
    handle.cancel();

    let report = handle.wait().unwrap();
    assert_eq!(report.report.outcome, CountOutcome::Timeout);
    // Partial statistics from the interrupted run are reported, not lost.
    assert!(report.report.stats.cells_explored >= 1);
    let terminal = handle.wait_for_event(RequestEvent::is_terminal).unwrap();
    assert_eq!(terminal, RequestEvent::Cancelled);

    // The zero-leaked-threads invariant, via the same live-thread probe
    // discipline as the solver pools.
    let probe = |s: &CountingService| s.live_shard_threads();
    assert_eq!(probe(&service), 2);
    service.shutdown();
    // `shutdown` consumed the service; a fresh one proves drop-abort too.
    let dropped = CountingService::new(ServiceConfig {
        shards: 2,
        queue_capacity: 8,
    });
    assert_eq!(probe(&dropped), 2);
    drop(dropped);
}

#[test]
fn abort_cancels_queued_requests_without_serving_them() {
    let service = CountingService::new(ServiceConfig {
        shards: 1,
        queue_capacity: 8,
    });
    let mut blocker = service.submit(long_request()).unwrap();
    blocker.wait_for_event(|e| matches!(e, RequestEvent::Admitted { .. }));
    let mut queued = service.submit(quick_request()).unwrap();

    service.abort();

    // The in-flight request resolved with a partial report...
    let report = blocker.wait().unwrap();
    assert_eq!(report.report.outcome, CountOutcome::Timeout);
    // ...and the queued one was resolved as cancelled without a shard.
    let report = queued.wait().unwrap();
    assert_eq!(report.shard, None);
    assert_eq!(report.report.outcome, CountOutcome::Timeout);
    let terminal = queued.wait_for_event(RequestEvent::is_terminal).unwrap();
    assert_eq!(terminal, RequestEvent::Cancelled);
}

#[test]
fn scheduling_is_fifo_within_priority_and_urgent_first() {
    let service = CountingService::new(ServiceConfig {
        shards: 1,
        queue_capacity: 8,
    });
    let mut blocker = service.submit(long_request()).unwrap();
    blocker.wait_for_event(|e| matches!(e, RequestEvent::Admitted { .. }));

    // Submission order deliberately inverts priority order.  Every queued
    // request is itself long-running, so at any moment exactly one of them
    // can have been admitted — which makes the service order directly
    // observable: poll for the one admitted request, record it, cancel it,
    // and repeat.
    let mut entries = [
        (
            "batch",
            service
                .submit(long_request().priority(Priority::Batch))
                .unwrap(),
        ),
        ("normal_a", service.submit(long_request()).unwrap()),
        ("normal_b", service.submit(long_request()).unwrap()),
        (
            "urgent",
            service
                .submit(long_request().priority(Priority::Urgent))
                .unwrap(),
        ),
    ];

    blocker.cancel();
    assert!(blocker.wait().is_ok());

    let mut order: Vec<&str> = Vec::new();
    while order.len() < entries.len() {
        let admitted = 'poll: loop {
            for (i, (name, handle)) in entries.iter_mut().enumerate() {
                if order.contains(name) {
                    continue;
                }
                while let Some(event) = handle.try_next_event() {
                    if matches!(event, RequestEvent::Admitted { .. }) {
                        break 'poll i;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let (name, handle) = &mut entries[admitted];
        order.push(name);
        handle.cancel();
        assert!(handle.wait().is_ok());
    }
    assert_eq!(order, vec!["urgent", "normal_a", "normal_b", "batch"]);
    service.shutdown();
}

#[test]
fn concurrent_identical_requests_are_bit_identical_to_direct_sessions() {
    let backends = [
        BackendSpec::Rebuild,
        BackendSpec::Incremental,
        BackendSpec::Cube {
            depth: 2,
            workers: 2,
        },
    ];
    let service = CountingService::new(ServiceConfig {
        shards: 2,
        queue_capacity: 64,
    });

    for backend in backends {
        // The ground truth: a direct session under the request's own
        // configuration (single-threaded rounds, same seed and backend).
        let reference_request = quick_request().backend(backend);
        let config = reference_request.counter_config();
        let (tm, f, x) = quick_problem();
        let mut session = Session::builder(tm)
            .assert(f)
            .project(x)
            .config(config)
            .build()
            .unwrap();
        let reference = session.count().unwrap();

        // Many concurrent copies through the service, racing on 2 shards.
        let mut handles: Vec<_> = (0..8)
            .map(|_| service.submit(quick_request().backend(backend)).unwrap())
            .collect();
        for handle in &mut handles {
            let report = handle.wait().unwrap();
            assert_eq!(report.report.outcome, reference.outcome);
            assert_eq!(
                report.report.stats.oracle_calls,
                reference.stats.oracle_calls
            );
            assert_eq!(
                report.report.stats.cells_explored,
                reference.stats.cells_explored
            );
        }
    }
    service.shutdown();
}

#[test]
fn served_counts_terminal_finishes_not_admissions() {
    // The accounting regression this PR fixes: `served` used to be bumped
    // when a shard *admitted* a ticket, so a request that was subsequently
    // cancelled mid-flight (or expired on its deadline) still counted as
    // served.  Now every ticket resolves into exactly one terminal bucket,
    // and `served` stays at the number of requests that truly finished.
    let service = CountingService::new(ServiceConfig {
        shards: 1,
        queue_capacity: 8,
    });

    // One request that truly finishes.
    let mut finished = service.submit(quick_request()).unwrap();
    assert!(finished.wait().is_ok());

    // One cancelled mid-flight: demonstrably admitted and inside its
    // rounds (a progress event) before the cancel lands.
    let mut cancelled = service.submit(long_request()).unwrap();
    cancelled
        .wait_for_event(|e| matches!(e, RequestEvent::Progress(_)))
        .expect("a running count emits progress");
    cancelled.cancel();
    assert!(cancelled.wait().is_ok());
    let terminal = cancelled.wait_for_event(RequestEvent::is_terminal).unwrap();
    assert_eq!(terminal, RequestEvent::Cancelled);

    // One expired on a zero deadline.
    let mut starved = service
        .submit(quick_request().deadline(Duration::ZERO))
        .unwrap();
    assert!(starved.wait().is_ok());

    // Counters are bumped before the result delivery, so by the time the
    // waits above returned the metrics already hold the final split: three
    // admissions, one of each disposition, and `served` stuck at the one
    // request that actually finished.
    let metrics = service.metrics();
    assert_eq!(metrics.submitted, 3);
    assert_eq!(
        metrics.served_per_shard.iter().sum::<u64>(),
        1,
        "served must count terminal finishes, not admissions: {metrics:?}"
    );
    assert_eq!(metrics.cancelled, 1, "{metrics:?}");
    assert_eq!(metrics.timed_out, 1, "{metrics:?}");
    assert_eq!(metrics.failed, 0, "{metrics:?}");
    service.shutdown();
}

#[test]
fn adaptive_backend_rides_the_service_and_reports_policy_stats() {
    // The adaptive policy oracle is selectable per request like any other
    // backend, and its policy accounting flows into the report the service
    // returns: every oracle call is attributed to exactly one backend slot.
    let service = CountingService::new(ServiceConfig {
        shards: 1,
        queue_capacity: 8,
    });
    let mut handle = service
        .submit(quick_request().backend(BackendSpec::Adaptive))
        .unwrap();
    let report = handle.wait().unwrap();
    assert!(matches!(
        report.report.outcome,
        CountOutcome::Approximate { .. } | CountOutcome::Exact(_)
    ));
    let stats = &report.report.stats;
    assert_eq!(
        stats.policy.unwrap().backend_checks.iter().sum::<u64>(),
        stats.oracle_calls,
        "every oracle call lands in exactly one policy slot: {stats:?}"
    );
    service.shutdown();
}

#[test]
fn dispositions_distinguish_cancelled_from_timed_out_and_completed() {
    let service = CountingService::new(ServiceConfig {
        shards: 1,
        queue_capacity: 8,
    });

    // Completed: a decisive count.
    let mut finished = service.submit(quick_request()).unwrap();
    let report = finished.wait().unwrap();
    assert_eq!(report.disposition, Disposition::Completed);
    assert!(report.cost_estimate >= 1);

    // Timed out: a zero deadline expires before the first oracle check.
    let mut starved = service
        .submit(quick_request().deadline(Duration::ZERO))
        .unwrap();
    let report = starved.wait().unwrap();
    assert_eq!(report.disposition, Disposition::TimedOut);

    // Cancelled mid-flight: distinguishable from the deadline expiry even
    // though both surface the engine's `Timeout`-flavoured outcome.
    let mut cancelled = service.submit(long_request()).unwrap();
    cancelled
        .wait_for_event(|e| matches!(e, RequestEvent::Progress(_)))
        .expect("a running count emits progress");
    cancelled.cancel();
    let report = cancelled.wait().unwrap();
    assert_eq!(report.disposition, Disposition::Cancelled);

    // Cancelled while still queued: the shard that eventually pops the
    // dead ticket stands down and reports the same disposition.
    let mut blocker = service.submit(long_request()).unwrap();
    blocker.wait_for_event(|e| matches!(e, RequestEvent::Admitted { .. }));
    let mut queued = service.submit(quick_request()).unwrap();
    queued.cancel();
    blocker.cancel();
    assert!(blocker.wait().is_ok());
    let report = queued.wait().unwrap();
    assert_eq!(report.disposition, Disposition::Cancelled);
    assert_eq!(report.report.stats.oracle_calls, 0, "it never ran");
    service.shutdown();
}

#[test]
fn cancelled_queued_requests_release_their_admission_slot() {
    // The admission regression this PR fixes: a ticket cancelled while
    // still queued used to keep holding its queue slot (and inflating
    // `queue_depth`) until a shard got around to discarding it.  Live
    // accounting must exclude cancelled tickets immediately.
    let service = CountingService::new(ServiceConfig {
        shards: 1,
        queue_capacity: 2,
    });
    let mut blocker = service.submit(long_request()).unwrap();
    blocker.wait_for_event(|e| matches!(e, RequestEvent::Admitted { .. }));

    // Fill the queue to capacity; the next submission is rejected.
    let mut queued_a = service.submit(quick_request()).unwrap();
    let _queued_b = service.submit(quick_request()).unwrap();
    assert!(matches!(
        service.submit(quick_request()),
        Err(ServiceError::QueueFull { .. })
    ));
    assert_eq!(service.metrics().queue_depth, 2);

    // Cancelling a queued ticket frees its slot at once: the very next
    // submission is admitted without any shard having run in between (the
    // single shard is still occupied by the blocker, so the dead ticket is
    // still physically in the deque — only the *accounting* is live-only).
    queued_a.cancel();
    assert_eq!(
        service.metrics().queue_depth,
        1,
        "queue_depth counts live tickets only"
    );
    let mut replacement = service.submit(quick_request()).unwrap();

    blocker.cancel();
    assert!(blocker.wait().is_ok());
    assert_eq!(queued_a.wait().unwrap().disposition, Disposition::Cancelled);
    assert_eq!(
        replacement.wait().unwrap().disposition,
        Disposition::Completed
    );
    service.shutdown();
}

#[test]
fn a_huge_batch_request_does_not_block_small_urgent_ones() {
    // Size-aware placement: with the big batch request running on one
    // shard, small urgent requests land on (or are stolen by) the other
    // shard and complete while it is still running.
    let service = CountingService::new(ServiceConfig {
        shards: 2,
        queue_capacity: 16,
    });
    let mut big = service
        .submit(long_request().priority(Priority::Batch))
        .unwrap();
    big.wait_for_event(|e| matches!(e, RequestEvent::Admitted { .. }));

    let mut smalls: Vec<_> = (0..6)
        .map(|_| {
            service
                .submit(quick_request().priority(Priority::Urgent))
                .unwrap()
        })
        .collect();
    for small in &mut smalls {
        let report = small.wait().unwrap();
        assert_eq!(report.disposition, Disposition::Completed);
        assert!(report.shard.is_some());
    }
    // All six finished while the big request was still in flight.
    assert!(big.try_result().is_none(), "the batch request still runs");
    let metrics = service.metrics();
    assert_eq!(metrics.served_per_shard.iter().sum::<u64>(), 6);
    // The big request's estimated cost is still charged to its shard.
    assert!(
        metrics.outstanding_cost_per_shard.iter().sum::<u64>() > 0,
        "outstanding cost: {:?}",
        metrics.outstanding_cost_per_shard
    );
    big.cancel();
    assert!(big.wait().is_ok());
    service.shutdown();
}

#[test]
fn an_idle_shard_steals_queued_work_from_a_busy_one() {
    // Occupy both shards with long requests, queue a batch of small ones
    // (placement splits them across both shards' deques by cost), then free
    // only shard A's blocker: A drains its own deque and must then steal
    // the tickets parked behind the still-running blocker on B.
    let service = CountingService::new(ServiceConfig {
        shards: 2,
        queue_capacity: 16,
    });
    let mut blockers: Vec<_> = (0..2)
        .map(|_| service.submit(long_request()).unwrap())
        .collect();
    for blocker in &mut blockers {
        blocker.wait_for_event(|e| matches!(e, RequestEvent::Admitted { .. }));
    }
    let mut smalls: Vec<_> = (0..6)
        .map(|_| service.submit(quick_request()).unwrap())
        .collect();

    // Free exactly one shard; every queued request must still complete.
    blockers[0].cancel();
    assert!(blockers[0].wait().is_ok());
    for small in &mut smalls {
        assert_eq!(small.wait().unwrap().disposition, Disposition::Completed);
    }
    let metrics = service.metrics();
    assert!(
        metrics.steals_per_shard.iter().sum::<u64>() > 0,
        "the free shard must have stolen from the blocked one: {:?}",
        metrics.steals_per_shard
    );
    blockers[1].cancel();
    assert!(blockers[1].wait().is_ok());
    service.shutdown();
}

#[test]
fn a_deep_backlog_is_served_by_more_than_one_shard() {
    // 32 concurrent requests over 2 shards: the acceptance workload shape.
    // All requests are queued up front so both parked shard threads provably
    // pull from the backlog, even on a single hardware core.
    let service = CountingService::new(ServiceConfig {
        shards: 2,
        queue_capacity: 64,
    });
    let mut handles: Vec<_> = (0..32)
        .map(|_| service.submit(quick_request()).unwrap())
        .collect();
    for handle in &mut handles {
        assert!(handle.wait().unwrap().shard.is_some());
    }
    let metrics = service.metrics();
    assert_eq!(metrics.served_per_shard.iter().sum::<u64>(), 32);
    assert!(
        metrics.served_per_shard.iter().filter(|&&n| n > 0).count() >= 2,
        "served per shard: {:?}",
        metrics.served_per_shard
    );
    service.shutdown();
}
