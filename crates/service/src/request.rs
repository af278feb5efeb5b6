//! Requests, handles, and the typed errors of the service surface.
//!
//! A [`CountRequest`] is a self-contained counting problem — it owns its
//! [`TermManager`], formula and projection, plus the strategy knobs the
//! service honours (backend spec, `(ε, δ)`, seed, deadline, priority).
//! Submitting one to a [`CountingService`](crate::CountingService) yields a
//! [`RequestHandle`]: the caller-side end of the request, exposing blocking
//! and polling result retrieval, per-request cancellation, and the streamed
//! [`RequestEvent`](crate::RequestEvent) feed.
//!
//! Requests arrive from untrusted payloads, so everything checkable is
//! checked at admission ([`CountRequest::validate`]) and rejected with a
//! typed [`ServiceError`] before any queue slot is consumed.

use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::Duration;

use pact::{
    BackendSpec, CancellationToken, CountError, CountReport, CounterConfig, ParallelConfig,
};
use pact_hash::HashFamily;
use pact_ir::{TermId, TermManager};

/// Scheduling class of a request: shards always serve the highest
/// non-empty class, FIFO within each class.
///
/// Priorities address the mixed-workload shape the service exists for —
/// many short interactive queries interleaved with a few heavy batch
/// counts: submit the heavy ones as [`Priority::Batch`] and they never
/// head-of-line-block the interactive traffic behind them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Served before everything else (operator traffic, health probes).
    Urgent,
    /// The default class for interactive queries.
    #[default]
    Normal,
    /// Heavy background counts; only served when nothing else waits.
    Batch,
}

impl Priority {
    /// Every priority, highest first (the order shards scan the lanes).
    pub const ALL: [Priority; 3] = [Priority::Urgent, Priority::Normal, Priority::Batch];

    /// The lane index of this priority (0 = most urgent).
    pub(crate) fn lane(self) -> usize {
        match self {
            Priority::Urgent => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }
}

/// A self-contained counting problem plus the strategy the service should
/// run it under.
///
/// Built like a [`pact::SessionBuilder`], but owned data only — the request
/// crosses a thread boundary into its serving shard, so it cannot borrow
/// anything (`CountRequest: Send` is asserted in the crate root).
///
/// ```
/// use pact_ir::{TermManager, Sort};
/// use pact_service::CountRequest;
/// use pact::BackendSpec;
///
/// let mut tm = TermManager::new();
/// let x = tm.mk_var("x", Sort::BitVec(8));
/// let c = tm.mk_bv_const(16, 8);
/// let f = tm.mk_bv_ule(c, x).unwrap();
/// let request = CountRequest::new(tm)
///     .assert(f)
///     .project(x)
///     .backend(BackendSpec::Incremental)
///     .seed(42)
///     .iterations(3);
/// assert!(request.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct CountRequest {
    pub(crate) tm: TermManager,
    pub(crate) formula: Vec<TermId>,
    pub(crate) projection: Vec<TermId>,
    pub(crate) backend: BackendSpec,
    pub(crate) epsilon: f64,
    pub(crate) delta: f64,
    pub(crate) family: HashFamily,
    pub(crate) seed: u64,
    pub(crate) iterations: Option<u32>,
    pub(crate) deadline: Option<Duration>,
    pub(crate) priority: Priority,
}

impl CountRequest {
    /// Starts a request over the given term manager, with the engine's
    /// default strategy ([`CounterConfig::default`], incremental backend, no
    /// deadline, [`Priority::Normal`]).
    pub fn new(tm: TermManager) -> Self {
        let defaults = CounterConfig::default();
        CountRequest {
            tm,
            formula: Vec::new(),
            projection: Vec::new(),
            backend: BackendSpec::default(),
            epsilon: defaults.epsilon,
            delta: defaults.delta,
            family: defaults.family,
            seed: defaults.seed,
            iterations: None,
            deadline: None,
            priority: Priority::default(),
        }
    }

    /// Starts a request over a shared snapshot of an interned term store.
    ///
    /// The request's manager opens over the frozen id table as an `Arc`
    /// share, not a deep clone: a submitter fanning one formula out to many
    /// concurrent requests snapshots its manager once and builds each
    /// request with `from_snapshot(Arc::clone(&snap))`.  Every serving
    /// shard then observes the identical interned terms — same ids, same
    /// rendering — while each request's own additions land in a private
    /// tail invisible to its siblings.
    ///
    /// ```
    /// use pact_ir::{TermManager, Sort};
    /// use pact_service::CountRequest;
    ///
    /// let mut tm = TermManager::new();
    /// let x = tm.mk_var("x", Sort::BitVec(8));
    /// let c = tm.mk_bv_const(16, 8);
    /// let f = tm.mk_bv_ule(c, x).unwrap();
    /// let snap = tm.snapshot();
    /// let a = CountRequest::from_snapshot(std::sync::Arc::clone(&snap))
    ///     .assert(f)
    ///     .project(x);
    /// let b = CountRequest::from_snapshot(snap).assert(f).project(x);
    /// assert!(a.validate().is_ok() && b.validate().is_ok());
    /// ```
    pub fn from_snapshot(snapshot: std::sync::Arc<pact_ir::TermSnapshot>) -> Self {
        CountRequest::new(TermManager::from_snapshot(snapshot))
    }

    /// Asserts one boolean term.
    pub fn assert(mut self, t: TermId) -> Self {
        self.formula.push(t);
        self
    }

    /// Asserts every term in the slice.
    pub fn assert_all(mut self, ts: &[TermId]) -> Self {
        self.formula.extend_from_slice(ts);
        self
    }

    /// Adds one variable to the projection set.
    pub fn project(mut self, v: TermId) -> Self {
        self.projection.push(v);
        self
    }

    /// Adds every variable in the slice to the projection set.
    pub fn project_all(mut self, vs: &[TermId]) -> Self {
        self.projection.extend_from_slice(vs);
        self
    }

    /// Selects the oracle backend (parsed from untrusted payloads via
    /// [`BackendSpec`]'s `FromStr`; the service validates nothing further —
    /// worker counts are clamped by the backends themselves).
    pub fn backend(mut self, spec: BackendSpec) -> Self {
        self.backend = spec;
        self
    }

    /// Tolerance `ε` of the `(ε, δ)` guarantee.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Confidence `δ` of the `(ε, δ)` guarantee.
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Hash family used to partition the solution space.
    pub fn family(mut self, family: HashFamily) -> Self {
        self.family = family;
        self
    }

    /// Seed for all randomness (hash-function sampling).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the number of outer iterations computed from `δ`.
    pub fn iterations(mut self, iterations: u32) -> Self {
        self.iterations = Some(iterations);
        self
    }

    /// End-to-end budget, measured from *submission*: time spent waiting in
    /// the admission queue counts against it.  An expired request reports
    /// [`pact::CountOutcome::Timeout`] with whatever partial statistics its
    /// run accumulated — exactly the engine's own deadline semantics.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Scheduling class (see [`Priority`]).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The counter configuration a shard will run this request under.
    ///
    /// Exposed so callers (tests, benchmarks) can reproduce a service run
    /// exactly with a direct [`pact::Session`]: the service pins
    /// single-threaded rounds per shard (`threads: 1` — parallelism comes
    /// from sharding, not from within a request), and the remaining knobs
    /// are copied verbatim, so a direct count with this configuration is
    /// bit-identical to the service's answer.
    pub fn counter_config(&self) -> CounterConfig {
        CounterConfig {
            epsilon: self.epsilon,
            delta: self.delta,
            family: self.family,
            seed: self.seed,
            deadline: self.deadline,
            iterations_override: self.iterations,
            parallel: ParallelConfig { threads: 1 },
            ..CounterConfig::default()
        }
        .with_backend(self.backend)
    }

    /// The deterministic size estimate placement runs on: projection width
    /// (total discrete bits of the projected variables) times the number of
    /// interned terms the request's store holds.
    ///
    /// The estimate is a *scheduling heuristic*, not a runtime promise —
    /// it is computed from the request alone (no clocks, no randomness),
    /// so resubmitting the same request always stamps the same cost, and
    /// the service reports it back verbatim on the
    /// [`ServiceReport::cost_estimate`] field.  Non-discrete projected
    /// sorts (reals, floats) contribute one bit each; the floor of 1
    /// keeps even degenerate requests visible to the accounting.
    pub fn cost_estimate(&self) -> u64 {
        let width: u64 = self
            .projection
            .iter()
            .map(|&v| u64::from(self.tm.sort(v).discrete_bits().unwrap_or(1)))
            .sum();
        width.max(1).saturating_mul(self.tm.len() as u64).max(1)
    }

    /// Admission-time validation: the `(ε, δ)` ranges and the non-empty
    /// projection requirement, checked before the request consumes a queue
    /// slot.
    ///
    /// # Errors
    ///
    /// [`CountError::Config`] for out-of-range parameters,
    /// [`CountError::EmptyProjection`] for a projection-free request.
    pub fn validate(&self) -> Result<(), CountError> {
        self.counter_config().validate()?;
        if self.projection.is_empty() {
            return Err(CountError::EmptyProjection);
        }
        Ok(())
    }
}

/// Why the service could not accept, or could not complete, a request.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// Admission control rejected the request: the bounded queue is at
    /// capacity.  Back off and resubmit; nothing was enqueued.
    QueueFull {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// The service is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The request failed admission-time validation (bad `(ε, δ)`, empty
    /// projection); nothing was enqueued.
    Invalid(CountError),
    /// The counting engine failed at run time (e.g. an unsupported
    /// fragment reached the oracle).
    Count(CountError),
    /// The serving shard disappeared without reporting — only possible if
    /// a shard thread panicked.
    Lost,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            ServiceError::ShuttingDown => f.write_str("service is shutting down"),
            ServiceError::Invalid(e) => write!(f, "invalid request: {e}"),
            ServiceError::Count(e) => write!(f, "count failed: {e}"),
            ServiceError::Lost => f.write_str("serving shard died without reporting"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Invalid(e) | ServiceError::Count(e) => Some(e),
            _ => None,
        }
    }
}

/// How a request reached its terminal state.
///
/// The engine itself reports cancellation and deadline expiry identically
/// (a [`pact::CountOutcome::Timeout`] with partial statistics), because a
/// cancelled run *is* a run whose budget was externally zeroed.  The
/// service knows more: it distinguishes the caller pulling the plug from
/// the clock running out, and stamps that knowledge here so a
/// [`ServiceReport`] is unambiguous without consulting the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Disposition {
    /// The count ran to a decisive outcome (exact, approximate, or UNSAT).
    #[default]
    Completed,
    /// The end-to-end deadline expired (queue wait included); the report
    /// carries partial statistics.
    TimedOut,
    /// The request was cancelled — by its handle or by an aborting
    /// shutdown — whether it was still queued or already running.
    Cancelled,
}

impl std::fmt::Display for Disposition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Disposition::Completed => "completed",
            Disposition::TimedOut => "timed_out",
            Disposition::Cancelled => "cancelled",
        })
    }
}

/// A completed service run: the engine's report plus the service-side
/// accounting the bench harness records (which shard served it, how long it
/// queued, how it terminated, and the placement cost it was stamped with).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// The counting engine's report, bit-identical to a direct
    /// [`pact::Session`] run under [`CountRequest::counter_config`].
    pub report: CountReport,
    /// The shard that served the request, or `None` if it never reached one
    /// (cancelled in the queue by an aborting shutdown).
    pub shard: Option<usize>,
    /// Wall-clock seconds between submission and a shard picking the
    /// request up.
    pub queue_seconds: f64,
    /// How the request terminated: a [`pact::CountOutcome::Timeout`] report
    /// with `disposition == Cancelled` was cancelled, not expired.
    pub disposition: Disposition,
    /// The size estimate placement used ([`CountRequest::cost_estimate`]).
    pub cost_estimate: u64,
}

/// What a request ultimately resolves to.
pub type ServiceResult = Result<ServiceReport, ServiceError>;

/// The caller-side end of a submitted request.
///
/// The handle is `Send` (hand it to whatever task is waiting on the count)
/// but deliberately not `Clone`: exactly one consumer owns result retrieval
/// and the event stream.  Cancellation, by contrast, is shareable — clone
/// [`RequestHandle::cancellation`] into as many places as needed.
///
/// Dropping the handle does **not** cancel the request; call
/// [`RequestHandle::cancel`] for that.
#[derive(Debug)]
pub struct RequestHandle {
    pub(crate) id: u64,
    pub(crate) token: CancellationToken,
    pub(crate) events: Receiver<crate::RequestEvent>,
    pub(crate) result_rx: Receiver<ServiceResult>,
    pub(crate) done: Option<ServiceResult>,
}

impl RequestHandle {
    /// The service-assigned request id (unique per service instance).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cancellation.  If the count is running, it stops at the
    /// next safe point and resolves to a [`pact::CountOutcome::Timeout`]
    /// report with partial statistics and
    /// [`Disposition::Cancelled`](crate::Disposition::Cancelled); if it is
    /// still queued, the serving shard observes the flag and stands down
    /// immediately.  The queued ticket is removed lazily, but it stops
    /// counting against admission capacity (and `metrics().queue_depth`)
    /// the moment this returns — dead tickets never crowd out live
    /// traffic.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// A clone of the request's cancellation token, for cancelling from
    /// other threads (the handle itself is single-owner).
    pub fn cancellation(&self) -> CancellationToken {
        self.token.clone()
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.token.is_cancelled()
    }

    /// Blocks until the request resolves and returns its result.  Further
    /// calls return the cached result.
    pub fn wait(&mut self) -> ServiceResult {
        if self.done.is_none() {
            let result = self.result_rx.recv().unwrap_or(Err(ServiceError::Lost));
            self.done = Some(result);
        }
        self.done.clone().expect("cached above")
    }

    /// Polls for the result without blocking: `None` while the request is
    /// still queued or running.
    pub fn try_result(&mut self) -> Option<ServiceResult> {
        if self.done.is_none() {
            match self.result_rx.try_recv() {
                Ok(result) => self.done = Some(result),
                Err(TryRecvError::Empty) => return None,
                Err(TryRecvError::Disconnected) => self.done = Some(Err(ServiceError::Lost)),
            }
        }
        self.done.clone()
    }

    /// Blocks until the next lifecycle event, or `None` once the stream is
    /// exhausted (the terminal event was consumed and the service dropped
    /// its sender).
    pub fn next_event(&mut self) -> Option<crate::RequestEvent> {
        self.events.recv().ok()
    }

    /// Polls for the next lifecycle event without blocking.
    pub fn try_next_event(&mut self) -> Option<crate::RequestEvent> {
        self.events.try_recv().ok()
    }

    /// Blocks until an event satisfying `pred` arrives; returns it, or
    /// `None` if the stream ended first.  Convenience for tests and
    /// orchestration code waiting for admission or a terminal event.
    pub fn wait_for_event(
        &mut self,
        mut pred: impl FnMut(&crate::RequestEvent) -> bool,
    ) -> Option<crate::RequestEvent> {
        while let Some(event) = self.next_event() {
            if pred(&event) {
                return Some(event);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_ir::Sort;

    fn toy_request() -> CountRequest {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let c = tm.mk_bv_const(3, 4);
        let f = tm.mk_bv_ult(x, c).unwrap();
        CountRequest::new(tm).assert(f).project(x)
    }

    #[test]
    fn requests_validate_like_sessions() {
        assert!(toy_request().validate().is_ok());
        assert_eq!(
            toy_request().epsilon(-1.0).validate(),
            Err(CountError::Config(pact::ConfigError::NonPositiveEpsilon {
                epsilon: -1.0
            }))
        );
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let c = tm.mk_bv_const(3, 4);
        let f = tm.mk_bv_ult(x, c).unwrap();
        let projection_free = CountRequest::new(tm).assert(f);
        assert_eq!(projection_free.validate(), Err(CountError::EmptyProjection));
    }

    #[test]
    fn counter_config_pins_single_threaded_rounds() {
        let config = toy_request()
            .backend(BackendSpec::Incremental)
            .seed(9)
            .iterations(5)
            .deadline(Duration::from_secs(1))
            .counter_config();
        assert_eq!(config.parallel.threads, 1);
        assert_eq!(config.seed, 9);
        assert_eq!(config.iterations_override, Some(5));
        assert_eq!(config.deadline, Some(Duration::from_secs(1)));
        assert_eq!(
            config.oracle_factory.spec(),
            Some(pact::BackendSpec::Incremental)
        );
    }

    #[test]
    fn cost_estimates_are_deterministic_and_size_sensitive() {
        let a = toy_request();
        let b = toy_request();
        // Same request, same stamp — placement input is a pure function.
        assert_eq!(a.cost_estimate(), b.cost_estimate());
        assert!(a.cost_estimate() >= 1);

        // Widening the projection raises the estimate.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let y = tm.mk_var("y", Sort::BitVec(4));
        let c = tm.mk_bv_const(3, 4);
        let f = tm.mk_bv_ult(x, c).unwrap();
        let narrow = CountRequest::new(tm.clone()).assert(f).project(x);
        let wide = CountRequest::new(tm).assert(f).project(x).project(y);
        assert!(wide.cost_estimate() > narrow.cost_estimate());
    }

    #[test]
    fn dispositions_render_their_wire_names() {
        assert_eq!(Disposition::Completed.to_string(), "completed");
        assert_eq!(Disposition::TimedOut.to_string(), "timed_out");
        assert_eq!(Disposition::Cancelled.to_string(), "cancelled");
        assert_eq!(Disposition::default(), Disposition::Completed);
    }

    #[test]
    fn priorities_order_their_lanes() {
        let lanes: Vec<usize> = Priority::ALL.iter().map(|p| p.lane()).collect();
        assert_eq!(lanes, vec![0, 1, 2]);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn service_errors_render_and_chain() {
        let e = ServiceError::QueueFull { capacity: 8 };
        assert!(e.to_string().contains('8'));
        assert!(std::error::Error::source(&e).is_none());
        let e = ServiceError::Invalid(CountError::EmptyProjection);
        assert!(e.to_string().contains("empty projection"));
        assert!(std::error::Error::source(&e).is_some());
        assert_eq!(
            ServiceError::ShuttingDown.to_string(),
            "service is shutting down"
        );
    }
}
