//! Size-aware, priority-laned placement queue shared by the shard threads.
//!
//! `std::sync::mpsc` has no multi-consumer receiver, so the queue is a
//! `Mutex` around per-shard lane sets plus a `Condvar` shards park on.
//! Admission control lives entirely in [`AdmissionQueue::push`]: when the
//! combined *live* depth (cancelled-while-queued tickets are excluded) hits
//! capacity the ticket is handed back to the caller with a typed rejection,
//! so the service can surface
//! [`ServiceError::QueueFull`](crate::ServiceError::QueueFull) without ever
//! blocking the submitter.
//!
//! # Placement and stealing
//!
//! Each shard owns three FIFO lanes (one per [`Priority`]) plus two cost
//! accumulators: the estimated cost of its queued tickets and of the ticket
//! it is currently serving.  `push` places a ticket on the shard with the
//! least estimated outstanding cost (queued + running, lowest index wins
//! ties, so placement is deterministic given the same submission sequence
//! and completion state).  A shard whose own lanes run dry *steals* the
//! next ticket from the most-loaded other shard — front of the victim's
//! highest-priority non-empty lane, so FIFO-within-priority is preserved —
//! which keeps cold shards busy when the cost estimates misjudge actual
//! runtimes.  Placement never affects a request's own pipeline (the serving
//! shard only determines *where* the single-threaded session runs), so
//! bit-identity with direct sessions is untouched.
//!
//! Shutdown comes in two flavours the service maps onto queue operations:
//! *drain* ([`AdmissionQueue::close`]: no new tickets, shards finish what is
//! queued, `pop` returns `None` once empty) and *abort*
//! ([`AdmissionQueue::clear`]: close, hand every pending ticket back for
//! cancellation, and raise a flag shards check before serving anything they
//! already popped).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use pact::CancellationToken;

use crate::request::{CountRequest, Priority, ServiceResult};
use crate::RequestEvent;

/// A crate-private wake-up hook a submitter attaches to a request: the
/// service pings it after sending the request's result and, when `events`
/// is set, after each lifecycle event.  The wire transport uses it to block
/// on one channel instead of polling its pending handles on a timer.
///
/// Every ping follows the send it announces, so a waiter that polls, finds
/// nothing and then blocks cannot miss a delivery: the ping for anything
/// sent after its poll is still queued when it blocks.  A ping with no news
/// (the dropped reply of a rejected submission) costs the waiter one empty
/// poll.
#[derive(Clone)]
pub(crate) struct Notifier {
    ping: Arc<dyn Fn() + Send + Sync>,
    events: bool,
}

impl Notifier {
    /// A hook calling `ping` after the result send and — if `events` —
    /// after every event send.
    pub(crate) fn new(events: bool, ping: impl Fn() + Send + Sync + 'static) -> Self {
        Notifier {
            ping: Arc::new(ping),
            events,
        }
    }
}

impl std::fmt::Debug for Notifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Notifier")
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

/// The sending side of a request's event stream, plus the notifier when
/// the submitter asked to be woken per event.  Cloned into the shard's
/// progress forwarder.
#[derive(Debug, Clone)]
pub(crate) struct EventSink {
    tx: Sender<RequestEvent>,
    notify: Option<Notifier>,
}

impl EventSink {
    /// Sends one event, then pings.  A dropped handle is ignored — it must
    /// never disturb the shard.
    pub(crate) fn send(&self, event: RequestEvent) {
        let _ = self.tx.send(event);
        if let Some(n) = &self.notify {
            (n.ping)();
        }
    }
}

/// The service-side ends of a request's channels.
///
/// Dropping the reply pings the notifier: after [`Reply::resolve`] that
/// announces the result, and if a shard panic unwinds past an unresolved
/// reply it announces the loss, which the handle reports as
/// [`ServiceError::Lost`](crate::ServiceError::Lost).
#[derive(Debug)]
pub(crate) struct Reply {
    events: EventSink,
    /// `None` once taken by [`Reply::resolve`] or the drop, which must
    /// disconnect it before pinging so the waiter sees the loss.
    result: Option<Sender<ServiceResult>>,
    notify: Option<Notifier>,
}

impl Reply {
    pub(crate) fn new(
        events: Sender<RequestEvent>,
        result: Sender<ServiceResult>,
        notify: Option<Notifier>,
    ) -> Self {
        Reply {
            events: EventSink {
                tx: events,
                notify: notify.clone().filter(|n| n.events),
            },
            result: Some(result),
            notify,
        }
    }

    /// Sends one lifecycle event.
    pub(crate) fn event(&self, event: RequestEvent) {
        self.events.send(event);
    }

    /// A clone of the event side, for the progress forwarder.
    pub(crate) fn event_sink(&self) -> EventSink {
        self.events.clone()
    }

    /// Sends the request's result; the drop that follows pings.
    pub(crate) fn resolve(mut self, result: ServiceResult) {
        if let Some(tx) = self.result.take() {
            let _ = tx.send(result);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        drop(self.result.take());
        if let Some(n) = &self.notify {
            (n.ping)();
        }
    }
}

/// An admitted request in flight through the service: the request itself
/// plus the channels and token that tie it back to its [`RequestHandle`]
/// (crate::RequestHandle).
#[derive(Debug)]
pub(crate) struct Ticket {
    /// Mirrors the handle's id; read by the queue-ordering tests (the
    /// shards identify requests by their channels, not by id).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) id: u64,
    pub(crate) request: CountRequest,
    pub(crate) token: CancellationToken,
    pub(crate) reply: Reply,
    pub(crate) submitted: Instant,
    /// Deterministic size estimate stamped at submission
    /// ([`CountRequest::cost_estimate`]); drives placement and the
    /// outstanding-cost metrics.
    pub(crate) cost: u64,
}

/// Why a ticket was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitError {
    /// The queue is at capacity.
    Full,
    /// The queue was closed by shutdown.
    Closed,
}

/// One shard's view of the queue: its three priority lanes plus the cost
/// accounting placement runs on.
#[derive(Debug, Default)]
struct ShardLanes {
    lanes: [VecDeque<Ticket>; 3],
    /// Estimated cost of the tickets queued on this shard.
    queued_cost: u64,
    /// Estimated cost of the ticket the shard is currently serving (zero
    /// between tickets).
    running_cost: u64,
    /// Tickets this shard pulled from another shard's lanes.
    steals: u64,
}

impl ShardLanes {
    /// Cost the shard is expected to work through before going idle.
    fn outstanding(&self) -> u64 {
        self.queued_cost + self.running_cost
    }

    /// Queued tickets whose handle has not already cancelled them.
    /// Cancelled tickets stay in the lanes until popped (lazy removal) but
    /// must not count against admission capacity or `queue_depth`.
    fn live_depth(&self) -> usize {
        self.lanes
            .iter()
            .flatten()
            .filter(|t| !t.token.is_cancelled())
            .count()
    }

    fn has_queued(&self) -> bool {
        self.lanes.iter().any(|l| !l.is_empty())
    }

    fn pop_highest(&mut self) -> Option<Ticket> {
        let ticket = self.lanes.iter_mut().find_map(VecDeque::pop_front)?;
        self.queued_cost = self.queued_cost.saturating_sub(ticket.cost);
        Some(ticket)
    }
}

#[derive(Debug)]
struct QueueState {
    shards: Vec<ShardLanes>,
    open: bool,
}

impl QueueState {
    fn live_depth(&self) -> usize {
        self.shards.iter().map(ShardLanes::live_depth).sum()
    }
}

#[derive(Debug)]
pub(crate) struct AdmissionQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
    abort: AtomicBool,
}

impl AdmissionQueue {
    pub(crate) fn new(capacity: usize, shard_count: usize) -> Self {
        let shards = (0..shard_count.max(1))
            .map(|_| ShardLanes::default())
            .collect();
        AdmissionQueue {
            state: Mutex::new(QueueState { shards, open: true }),
            ready: Condvar::new(),
            capacity,
            abort: AtomicBool::new(false),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current combined depth of *live* queued tickets across all shards;
    /// cancelled-while-queued tickets awaiting lazy removal are excluded.
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().expect("queue poisoned").live_depth()
    }

    /// Per-shard estimated outstanding cost (queued + currently running).
    pub(crate) fn outstanding_cost(&self) -> Vec<u64> {
        let state = self.state.lock().expect("queue poisoned");
        state.shards.iter().map(ShardLanes::outstanding).collect()
    }

    /// Per-shard count of tickets stolen *by* that shard.
    pub(crate) fn steals(&self) -> Vec<u64> {
        let state = self.state.lock().expect("queue poisoned");
        state.shards.iter().map(|s| s.steals).collect()
    }

    /// Whether an aborting shutdown is in progress; shards check this
    /// between popping a ticket and serving it, closing the race where a
    /// ticket leaves the queue just as `clear` runs.
    pub(crate) fn aborting(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Admits a ticket into its priority lane on the least-loaded shard
    /// (by estimated outstanding cost), or hands it back with the reason it
    /// was refused.  Never blocks.  Returns the shard the ticket was placed
    /// on — a *preference*, not a promise: a different shard may steal it.
    // The Err variant deliberately returns the whole ticket so a rejected
    // submission loses nothing; the move is one-time, on a cold path.
    #[allow(clippy::result_large_err)]
    pub(crate) fn push(
        &self,
        ticket: Ticket,
        priority: Priority,
    ) -> Result<usize, (AdmitError, Ticket)> {
        let mut state = self.state.lock().expect("queue poisoned");
        if !state.open {
            return Err((AdmitError::Closed, ticket));
        }
        if state.live_depth() >= self.capacity {
            return Err((AdmitError::Full, ticket));
        }
        // Least estimated outstanding cost wins; ties break to the lowest
        // index, so placement is deterministic for a given queue state.
        let shard = state
            .shards
            .iter()
            .enumerate()
            .min_by_key(|(index, lanes)| (lanes.outstanding(), *index))
            .map(|(index, _)| index)
            .expect("queue has at least one shard");
        state.shards[shard].queued_cost += ticket.cost;
        state.shards[shard].lanes[priority.lane()].push_back(ticket);
        drop(state);
        // Any parked shard may now have work to serve or to steal.
        self.ready.notify_all();
        Ok(shard)
    }

    /// Blocks until a ticket is available for `shard` — its own lanes
    /// first (highest lane first, FIFO within a lane), then a steal from
    /// the most-loaded other shard — or the queue is closed and fully
    /// drained; `None` tells the shard to exit its loop.
    ///
    /// The popped ticket's cost moves to the shard's `running_cost` until
    /// [`AdmissionQueue::finished`] releases it.
    pub(crate) fn pop(&self, shard: usize) -> Option<Ticket> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(ticket) = state.shards[shard].pop_highest() {
                state.shards[shard].running_cost += ticket.cost;
                return Some(ticket);
            }
            // Own lanes dry: steal from the shard with the most queued
            // cost.  Front of the victim's highest-priority lane, so the
            // global priority order and FIFO-within-priority survive the
            // move.
            let victim = state
                .shards
                .iter()
                .enumerate()
                .filter(|(index, lanes)| *index != shard && lanes.has_queued())
                .max_by_key(|(index, lanes)| (lanes.queued_cost, usize::MAX - *index))
                .map(|(index, _)| index);
            if let Some(victim) = victim {
                let ticket = state.shards[victim]
                    .pop_highest()
                    .expect("victim had queued tickets");
                state.shards[shard].running_cost += ticket.cost;
                state.shards[shard].steals += 1;
                return Some(ticket);
            }
            if !state.open {
                return None;
            }
            state = self.ready.wait(state).expect("queue poisoned");
        }
    }

    /// Releases the running-cost charge taken by [`AdmissionQueue::pop`]
    /// once the shard has resolved the ticket.
    pub(crate) fn finished(&self, shard: usize, cost: u64) {
        let mut state = self.state.lock().expect("queue poisoned");
        let lanes = &mut state.shards[shard];
        lanes.running_cost = lanes.running_cost.saturating_sub(cost);
    }

    /// Closes the queue for new admissions; already-queued tickets are
    /// still served (draining shutdown).
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().expect("queue poisoned");
        state.open = false;
        drop(state);
        self.ready.notify_all();
    }

    /// Aborting shutdown: closes the queue, raises the abort flag, and
    /// hands back every pending ticket so the service can resolve each as
    /// cancelled.  Tickets come back in priority order (lane by lane across
    /// shards), matching the order shards would have served them.
    pub(crate) fn clear(&self) -> Vec<Ticket> {
        self.abort.store(true, Ordering::Release);
        let mut state = self.state.lock().expect("queue poisoned");
        state.open = false;
        let mut pending = Vec::new();
        for lane in 0..3 {
            for shard in state.shards.iter_mut() {
                shard.queued_cost = 0;
                pending.extend(std::mem::take(&mut shard.lanes[lane]));
            }
        }
        drop(state);
        self.ready.notify_all();
        pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_ir::{Sort, TermManager};
    use std::sync::mpsc::channel;

    fn ticket(id: u64) -> Ticket {
        ticket_with_cost(id, 1)
    }

    fn ticket_with_cost(id: u64, cost: u64) -> Ticket {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(3));
        let request = CountRequest::new(tm).project(x);
        // The queue tests never send on these channels, so the receivers
        // can be dropped immediately.
        let (events, _) = channel();
        let (result, _) = channel();
        Ticket {
            id,
            request,
            token: CancellationToken::new(),
            reply: Reply::new(events, result, None),
            submitted: Instant::now(),
            cost,
        }
    }

    #[test]
    fn rejects_when_full_and_hands_ticket_back() {
        let q = AdmissionQueue::new(2, 1);
        assert!(q.push(ticket(1), Priority::Normal).is_ok());
        assert!(q.push(ticket(2), Priority::Normal).is_ok());
        let (err, rejected) = q.push(ticket(3), Priority::Normal).unwrap_err();
        assert_eq!(err, AdmitError::Full);
        assert_eq!(rejected.id, 3);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn cancelled_tickets_do_not_hold_capacity() {
        let q = AdmissionQueue::new(2, 1);
        let dead = ticket(1);
        let dead_token = dead.token.clone();
        q.push(dead, Priority::Normal).unwrap();
        q.push(ticket(2), Priority::Normal).unwrap();
        let (err, _) = q.push(ticket(3), Priority::Normal).unwrap_err();
        assert_eq!(err, AdmitError::Full);
        // Cancelling the queued ticket frees its admission slot (and the
        // reported depth) even though the ticket is only lazily removed.
        dead_token.cancel();
        assert_eq!(q.depth(), 1);
        assert!(q.push(ticket(4), Priority::Normal).is_ok());
    }

    #[test]
    fn pops_fifo_within_priority_highest_lane_first() {
        let q = AdmissionQueue::new(8, 1);
        q.push(ticket(1), Priority::Batch).unwrap();
        q.push(ticket(2), Priority::Normal).unwrap();
        q.push(ticket(3), Priority::Normal).unwrap();
        q.push(ticket(4), Priority::Urgent).unwrap();
        let order: Vec<u64> = (0..4).map(|_| q.pop(0).unwrap().id).collect();
        assert_eq!(order, vec![4, 2, 3, 1]);
    }

    #[test]
    fn placement_prefers_the_least_loaded_shard() {
        let q = AdmissionQueue::new(8, 2);
        // Ties break to the lowest index, then cost accumulates.
        assert_eq!(
            q.push(ticket_with_cost(1, 100), Priority::Normal).unwrap(),
            0
        );
        assert_eq!(
            q.push(ticket_with_cost(2, 10), Priority::Normal).unwrap(),
            1
        );
        assert_eq!(
            q.push(ticket_with_cost(3, 10), Priority::Normal).unwrap(),
            1
        );
        assert_eq!(
            q.push(ticket_with_cost(4, 10), Priority::Normal).unwrap(),
            1
        );
        assert_eq!(q.outstanding_cost(), vec![100, 30]);
    }

    #[test]
    fn running_cost_counts_until_finished() {
        let q = AdmissionQueue::new(8, 2);
        q.push(ticket_with_cost(1, 50), Priority::Normal).unwrap();
        let t = q.pop(0).unwrap();
        assert_eq!(t.id, 1);
        // While shard 0 serves the ticket its cost still repels placement.
        assert_eq!(q.outstanding_cost(), vec![50, 0]);
        assert_eq!(
            q.push(ticket_with_cost(2, 10), Priority::Normal).unwrap(),
            1
        );
        q.finished(0, t.cost);
        assert_eq!(q.outstanding_cost(), vec![0, 10]);
    }

    #[test]
    fn a_dry_shard_steals_from_the_most_loaded() {
        let q = AdmissionQueue::new(8, 2);
        assert_eq!(
            q.push(ticket_with_cost(1, 10), Priority::Normal).unwrap(),
            0
        );
        assert_eq!(
            q.push(ticket_with_cost(2, 10), Priority::Normal).unwrap(),
            1
        );
        assert_eq!(
            q.push(ticket_with_cost(3, 10), Priority::Urgent).unwrap(),
            0
        );
        // Shard 1 drains its own lane, then steals shard 0's next ticket —
        // the urgent one, preserving global priority order.
        assert_eq!(q.pop(1).unwrap().id, 2);
        assert_eq!(q.pop(1).unwrap().id, 3);
        assert_eq!(q.steals(), vec![0, 1]);
        assert_eq!(q.pop(0).unwrap().id, 1);
        assert_eq!(q.steals(), vec![0, 1]);
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = AdmissionQueue::new(8, 1);
        q.push(ticket(1), Priority::Normal).unwrap();
        q.close();
        let (err, _) = q.push(ticket(2), Priority::Normal).unwrap_err();
        assert_eq!(err, AdmitError::Closed);
        assert_eq!(q.pop(0).unwrap().id, 1);
        assert!(q.pop(0).is_none());
    }

    #[test]
    fn clear_returns_pending_and_flags_abort() {
        let q = AdmissionQueue::new(8, 1);
        q.push(ticket(1), Priority::Normal).unwrap();
        q.push(ticket(2), Priority::Urgent).unwrap();
        assert!(!q.aborting());
        let pending = q.clear();
        assert!(q.aborting());
        let ids: Vec<u64> = pending.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![2, 1]);
        assert!(q.pop(0).is_none());
    }
}
