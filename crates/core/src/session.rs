//! The session-based counting API: declare a problem once, count it many
//! ways.
//!
//! A [`Session`] owns the term manager, the asserted formula and the
//! projection set — the *problem* — while every counting method takes (or
//! stores) a [`CounterConfig`] — the *strategy*.  That split is what the
//! free functions could not offer: benchmark harnesses re-count the same
//! instance under four configurations, services re-count with tightened
//! `(ε, δ)` after a cheap first pass, and neither should re-declare (or
//! re-clone) the formula to do it.
//!
//! Sessions are built with [`Session::builder`], which validates the
//! configuration up front ([`CountError::Config`],
//! [`CountError::EmptyProjection`]) instead of deep inside the first count.
//! Every session carries a [`CancellationToken`] (share it across threads to
//! abort cleanly) and an optional [`Progress`] observer that sees models,
//! cells and rounds as they complete.
//!
//! ```
//! use pact_ir::{TermManager, Sort};
//! use pact::{CountOutcome, HashFamily, Session};
//!
//! let mut tm = TermManager::new();
//! let x = tm.mk_var("x", Sort::BitVec(6));
//! let c = tm.mk_bv_const(12, 6);
//! let f = tm.mk_bv_ult(x, c).unwrap();
//!
//! let mut session = Session::builder(tm)
//!     .assert(f)
//!     .project(x)
//!     .epsilon(0.8)
//!     .delta(0.2)
//!     .seed(1)
//!     .build()
//!     .unwrap();
//!
//! // Count, then count again under a different hash family — the problem
//! // is declared exactly once.
//! let first = session.count().unwrap();
//! assert_eq!(first.outcome, CountOutcome::Exact(12));
//! let prime = session.config().clone().with_family(HashFamily::Prime);
//! let second = session.count_with(&prime).unwrap();
//! assert_eq!(second.outcome, CountOutcome::Exact(12));
//! ```

use std::sync::Arc;
use std::time::Duration;

use pact_hash::HashFamily;
use pact_ir::{TermId, TermManager};
use pact_solver::SolverConfig;

use crate::config::{BackendSpec, CounterConfig, OracleFactory, ParallelConfig};
use crate::error::{ConfigError, CountError, CountResult};
use crate::progress::{CancellationToken, Progress, ProgressEvent, RunControl};
use crate::result::CountReport;
use crate::{cdm, counter, enumerate};

/// A declared counting problem: term manager, formula, projection set, and
/// the default strategy ([`CounterConfig`]) plus run hooks.
///
/// Built via [`Session::builder`]; see the crate-level quickstart for the
/// usage pattern.
pub struct Session {
    tm: TermManager,
    formula: Vec<TermId>,
    projection: Vec<TermId>,
    config: CounterConfig,
    cancel: CancellationToken,
    progress: Option<Arc<dyn Progress>>,
}

impl Session {
    /// Starts declaring a problem over the given term manager.
    pub fn builder(tm: TermManager) -> SessionBuilder {
        SessionBuilder {
            tm,
            formula: Vec::new(),
            projection: Vec::new(),
            config: CounterConfig::default(),
            backend_first: None,
            backend_conflict: None,
            cancel: None,
            progress: None,
        }
    }

    /// The session's default counting configuration.
    pub fn config(&self) -> &CounterConfig {
        &self.config
    }

    /// Replaces the default configuration for subsequent counts.
    ///
    /// # Errors
    ///
    /// Returns [`CountError::Config`] (and leaves the old configuration in
    /// place) when the new parameters are invalid.
    pub fn set_config(&mut self, config: CounterConfig) -> CountResult<()> {
        config.validate()?;
        self.config = config;
        Ok(())
    }

    /// The asserted formula (conjunction of assertions).
    pub fn formula(&self) -> &[TermId] {
        &self.formula
    }

    /// The projection set `S`.
    pub fn projection(&self) -> &[TermId] {
        &self.projection
    }

    /// A clone of the session's cancellation token.  Cancel it — from any
    /// thread, or from inside the progress observer — and the running count
    /// stops at the next cell boundary, reporting
    /// [`CountOutcome::Timeout`](crate::CountOutcome::Timeout)-style partial
    /// results.
    ///
    /// Cancellation is sticky: after an abort, call
    /// [`CancellationToken::reset`] on the token before counting with this
    /// session again, otherwise subsequent counts stop immediately.
    pub fn cancellation(&self) -> CancellationToken {
        self.cancel.clone()
    }

    /// Counts with Algorithm 1 (`pact`) under the session's configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CountError::Solver`] when the formula falls outside the
    /// oracle's supported fragment.
    pub fn count(&mut self) -> CountResult<CountReport> {
        let config = self.config.clone();
        self.count_with(&config)
    }

    /// Counts with Algorithm 1 (`pact`) under an explicit configuration,
    /// leaving the session's default untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CountError::Config`] for an invalid override and
    /// [`CountError::Solver`] for unsupported constructs.
    pub fn count_with(&mut self, config: &CounterConfig) -> CountResult<CountReport> {
        let hooks = self.hooks();
        counter::count_pact(
            &mut self.tm,
            &self.formula,
            &self.projection,
            config,
            &hooks,
        )
    }

    /// Counts with the CDM baseline under the session's configuration.
    ///
    /// # Errors
    ///
    /// As for [`Session::count`].
    pub fn count_cdm(&mut self) -> CountResult<CountReport> {
        let config = self.config.clone();
        self.count_cdm_with(&config)
    }

    /// Counts with the CDM baseline under an explicit configuration.
    ///
    /// # Errors
    ///
    /// As for [`Session::count_with`].
    pub fn count_cdm_with(&mut self, config: &CounterConfig) -> CountResult<CountReport> {
        let hooks = self.hooks();
        cdm::count_cdm(
            &mut self.tm,
            &self.formula,
            &self.projection,
            config,
            &hooks,
        )
    }

    /// Counts exactly by enumeration, up to `limit` models, under the
    /// session's configuration.
    ///
    /// # Errors
    ///
    /// As for [`Session::count`].
    pub fn enumerate(&mut self, limit: u64) -> CountResult<CountReport> {
        let config = self.config.clone();
        self.enumerate_with(limit, &config)
    }

    /// Counts exactly by enumeration under an explicit configuration.
    ///
    /// # Errors
    ///
    /// As for [`Session::count_with`].
    pub fn enumerate_with(
        &mut self,
        limit: u64,
        config: &CounterConfig,
    ) -> CountResult<CountReport> {
        let hooks = self.hooks();
        enumerate::count_enumerate(
            &mut self.tm,
            &self.formula,
            &self.projection,
            limit,
            config,
            &hooks,
        )
    }

    /// Dissolves the session, handing the (possibly grown) term manager
    /// back.  The compatibility wrappers use this to restore the caller's
    /// borrowed manager.
    pub fn into_term_manager(self) -> TermManager {
        self.tm
    }

    fn hooks(&self) -> RunControl {
        RunControl {
            deadline: None, // the engine derives it from the config
            cancel: Some(self.cancel.clone()),
            progress: self.progress.clone(),
        }
    }
}

/// Builder for [`Session`]: problem declaration (assertions, projection)
/// plus every strategy knob of [`CounterConfig`] as a named method.
pub struct SessionBuilder {
    tm: TermManager,
    formula: Vec<TermId>,
    projection: Vec<TermId>,
    config: CounterConfig,
    /// First backend selected via [`SessionBuilder::backend`]; later
    /// *different* selections are a conflict.
    backend_first: Option<BackendSpec>,
    /// The first conflicting pair of backend selections, surfaced as
    /// [`ConfigError::ConflictingBackends`] at [`SessionBuilder::build`].
    backend_conflict: Option<(BackendSpec, BackendSpec)>,
    cancel: Option<CancellationToken>,
    progress: Option<Arc<dyn Progress>>,
}

impl SessionBuilder {
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

    /// Replaces the whole configuration (the other strategy methods tweak
    /// individual fields of it).  Deliberately replacing the configuration
    /// also resets any backend selections made so far — the new config's
    /// factory is the fresh starting point.
    pub fn config(mut self, config: CounterConfig) -> Self {
        self.config = config;
        self.backend_first = None;
        self.backend_conflict = None;
        self
    }

    /// Tolerance `ε` of the `(ε, δ)` guarantee.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.config.epsilon = epsilon;
        self
    }

    /// Confidence `δ` of the `(ε, δ)` guarantee.
    pub fn delta(mut self, delta: f64) -> Self {
        self.config.delta = delta;
        self
    }

    /// Hash family used to partition the solution space.
    pub fn family(mut self, family: HashFamily) -> Self {
        self.config.family = family;
        self
    }

    /// Seed for all randomness (hash-function sampling).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Per-count wall-clock budget.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// Resource limits handed to the SMT oracle for every check.
    pub fn solver(mut self, solver: SolverConfig) -> Self {
        self.config.solver = solver;
        self
    }

    /// Worker threads for the outer rounds (`0` = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.parallel = ParallelConfig { threads };
        self
    }

    /// Overrides the number of outer iterations computed from `δ`.
    pub fn iterations(mut self, iterations: u32) -> Self {
        self.config.iterations_override = Some(iterations);
        self
    }

    /// Oracle backend the counts build (per round; see [`OracleFactory`]).
    pub fn oracle_factory(mut self, factory: OracleFactory) -> Self {
        self.config.oracle_factory = factory;
        self
    }

    /// Selects the built-in oracle backend the counts build (see
    /// [`BackendSpec`] for the choices).  The reported count is bit-identical
    /// for every backend; only the work profile changes —
    /// [`BackendSpec::Incremental`] survives `push`/`pop` without rebuilds,
    /// [`BackendSpec::Portfolio`] races diversified workers inside each
    /// `check` (the within-round complement of [`SessionBuilder::threads`]),
    /// and [`BackendSpec::Cube`] partitions hard checks into sub-solves.
    ///
    /// Selecting two *different* backends on the same builder is reported as
    /// [`ConfigError::ConflictingBackends`] by [`SessionBuilder::build`]
    /// (earlier versions silently let the last call win).  Re-selecting the
    /// same spec is fine.
    pub fn backend(mut self, spec: BackendSpec) -> Self {
        match self.backend_first {
            None => self.backend_first = Some(spec),
            Some(first) if first != spec && self.backend_conflict.is_none() => {
                self.backend_conflict = Some((first, spec));
            }
            Some(_) => {}
        }
        self.config = self.config.with_backend(spec);
        self
    }

    /// Attaches a progress observer (see [`Progress`]).
    pub fn progress(mut self, observer: Arc<dyn Progress>) -> Self {
        self.progress = Some(observer);
        self
    }

    /// Attaches a closure as the progress observer.
    pub fn on_progress(self, observer: impl Fn(&ProgressEvent) + Send + Sync + 'static) -> Self {
        self.progress(Arc::new(observer))
    }

    /// Uses an externally created cancellation token (e.g. one shared with
    /// a supervisor thread).  Without this call the session creates its
    /// own, available via [`Session::cancellation`].
    pub fn cancellation(mut self, token: CancellationToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Validates and builds the session.
    ///
    /// # Errors
    ///
    /// Returns [`CountError::Config`] when the configuration is invalid —
    /// including [`ConfigError::ConflictingBackends`] when two different
    /// backends were selected — and [`CountError::EmptyProjection`] when no
    /// projection variable was declared.
    pub fn build(self) -> CountResult<Session> {
        if let Some((first, second)) = self.backend_conflict {
            return Err(CountError::Config(ConfigError::ConflictingBackends {
                first,
                second,
            }));
        }
        self.config.validate()?;
        if self.projection.is_empty() {
            return Err(CountError::EmptyProjection);
        }
        Ok(Session {
            tm: self.tm,
            formula: self.formula,
            projection: self.projection,
            config: self.config,
            cancel: self.cancel.unwrap_or_default(),
            progress: self.progress,
        })
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("assertions", &self.formula.len())
            .field("projection", &self.projection.len())
            .field("config", &self.config)
            .field("cancelled", &self.cancel.is_cancelled())
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("assertions", &self.formula.len())
            .field("projection", &self.projection.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ConfigError;
    use crate::result::CountOutcome;
    use pact_ir::Sort;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn saturating_session(width: u32, iterations: u32) -> Session {
        // x >= 16 over `width` bits: saturates the threshold, so the
        // hashing rounds run.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(width));
        let c = tm.mk_bv_const(16, width);
        let f = tm.mk_bv_ule(c, x).unwrap();
        Session::builder(tm)
            .assert(f)
            .project(x)
            .seed(42)
            .iterations(iterations)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_up_front() {
        let tm = TermManager::new();
        assert_eq!(
            Session::builder(tm).build().unwrap_err(),
            CountError::EmptyProjection
        );

        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let err = Session::builder(tm)
            .project(x)
            .epsilon(-1.0)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CountError::Config(ConfigError::NonPositiveEpsilon { epsilon: -1.0 })
        );
    }

    #[test]
    fn conflicting_backend_selections_are_a_config_error() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let err = Session::builder(tm)
            .project(x)
            .backend(BackendSpec::Portfolio { workers: 2 })
            .backend(BackendSpec::Incremental)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CountError::Config(ConfigError::ConflictingBackends {
                first: BackendSpec::Portfolio { workers: 2 },
                second: BackendSpec::Incremental,
            })
        );
        // The rendered diagnostic names both requests.
        let text = err.to_string();
        assert!(text.contains("portfolio:2"), "{text}");
        assert!(text.contains("incremental"), "{text}");
    }

    #[test]
    fn reselecting_the_same_backend_is_not_a_conflict() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let session = Session::builder(tm)
            .project(x)
            .backend(BackendSpec::Cube {
                depth: 3,
                workers: 2,
            })
            .backend(BackendSpec::Cube {
                depth: 3,
                workers: 2,
            })
            .build()
            .unwrap();
        assert_eq!(
            session.config().oracle_factory.spec(),
            Some(BackendSpec::Cube {
                depth: 3,
                workers: 2
            })
        );
    }

    #[test]
    fn replacing_the_whole_config_resets_backend_tracking() {
        // `.config(...)` is a deliberate wholesale replacement, not a
        // second selection: a backend chosen afterwards wins cleanly.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let session = Session::builder(tm)
            .project(x)
            .backend(BackendSpec::Portfolio { workers: 2 })
            .config(CounterConfig::default())
            .backend(BackendSpec::Incremental)
            .build()
            .unwrap();
        assert_eq!(
            session.config().oracle_factory.spec(),
            Some(BackendSpec::Incremental)
        );
    }

    #[test]
    fn repeated_counts_leave_the_term_store_unchanged() {
        // Preprocessing flattens f(x) and a[x] into result variables on every
        // count (each count builds a fresh oracle); the variables must be
        // reused, not minted anew, or the session's store grows per count.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let f = tm.declare_fun("f", vec![Sort::BitVec(8)], Sort::BitVec(8));
        let a = tm.mk_var(
            "a",
            Sort::Array {
                index: Box::new(Sort::BitVec(8)),
                element: Box::new(Sort::BitVec(8)),
            },
        );
        let fx = tm.mk_apply(f, vec![x]).unwrap();
        let ax = tm.mk_select(a, x).unwrap();
        let c = tm.mk_bv_const(16, 8);
        let g = tm.mk_bv_ule(c, x).unwrap();
        let h = tm.mk_bv_ule(fx, ax).unwrap();
        let mut session = Session::builder(tm)
            .assert(g)
            .assert(h)
            .project(x)
            .seed(42)
            .iterations(3)
            .build()
            .unwrap();
        let first = session.count().unwrap();
        assert!(first.outcome.value().is_some());
        for _ in 0..4 {
            let again = session.count().unwrap();
            assert_eq!(again.stats.terms_interned, first.stats.terms_interned);
        }
    }

    #[test]
    fn one_problem_counts_under_many_configs() {
        let mut session = saturating_session(8, 3);
        let xor = session.count().unwrap();
        let prime = session
            .count_with(&session.config().clone().with_family(HashFamily::Prime))
            .unwrap();
        let exact = session.enumerate(10_000).unwrap();
        assert_eq!(exact.outcome, CountOutcome::Exact(240));
        for report in [&xor, &prime] {
            let estimate = report.outcome.value().expect("a count");
            assert!(estimate > 0.0);
        }
        // The CDM baseline runs on the same declared problem too.
        let cdm = session.count_cdm().unwrap();
        assert!(cdm.outcome.value().is_some());
    }

    #[test]
    fn incremental_backend_counts_without_rebuilds() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let c = tm.mk_bv_const(16, 8);
        let f = tm.mk_bv_ule(c, x).unwrap(); // 240 models: saturates
        let mut session = Session::builder(tm)
            .assert(f)
            .project(x)
            .seed(42)
            .iterations(3)
            .backend(BackendSpec::Incremental)
            .build()
            .unwrap();
        assert_eq!(
            session.config().oracle_factory.spec(),
            Some(BackendSpec::Incremental)
        );
        let report = session.count().unwrap();
        assert!(matches!(report.outcome, CountOutcome::Approximate { .. }));
        // The whole galloping search ran without a single encoder rebuild.
        assert_eq!(report.stats.oracle.rebuilds, 0);
        // Toggling back restores the default backend (which does rebuild).
        let rebuild = session
            .count_with(&session.config().clone().with_backend(BackendSpec::Rebuild))
            .unwrap();
        assert_eq!(rebuild.outcome, report.outcome);
        assert!(rebuild.stats.oracle.rebuilds > 0);
    }

    #[test]
    fn portfolio_backend_counts_bit_identically_and_records_wins() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let c = tm.mk_bv_const(16, 8);
        let f = tm.mk_bv_ule(c, x).unwrap(); // 240 models: saturates
        let mut session = Session::builder(tm)
            .assert(f)
            .project(x)
            .seed(42)
            .iterations(3)
            .backend(BackendSpec::Portfolio { workers: 3 })
            .build()
            .unwrap();
        assert_eq!(
            session.config().oracle_factory.spec(),
            Some(BackendSpec::Portfolio { workers: 3 })
        );
        let report = session.count().unwrap();
        assert!(matches!(report.outcome, CountOutcome::Approximate { .. }));
        // Winner accounting: every check was credited, across 3 workers.
        let portfolio = report.stats.portfolio.unwrap();
        assert_eq!(portfolio.workers, 3);
        let total_wins: u64 = portfolio.wins.iter().sum();
        assert_eq!(total_wins, report.stats.oracle_calls);
        // The deterministic slice matches the single-engine backend's.
        let reference = session
            .count_with(&session.config().clone().with_backend(BackendSpec::Rebuild))
            .unwrap();
        assert_eq!(reference.outcome, report.outcome);
        assert_eq!(reference.stats.oracle_calls, report.stats.oracle_calls);
        assert_eq!(reference.stats.cells_explored, report.stats.cells_explored);
        let reference_portfolio = reference.stats.portfolio.unwrap_or_default();
        assert_eq!(reference_portfolio.workers, 0);
        assert_eq!(reference_portfolio.wins.iter().sum::<u64>(), 0);
    }

    #[test]
    fn cube_backend_counts_bit_identically_and_records_splits() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let c = tm.mk_bv_const(16, 8);
        let f = tm.mk_bv_ule(c, x).unwrap(); // 240 models: saturates
        let mut session = Session::builder(tm)
            .assert(f)
            .project(x)
            .seed(42)
            .iterations(3)
            .backend(BackendSpec::Cube {
                depth: 3,
                workers: 2,
            })
            .build()
            .unwrap();
        assert_eq!(
            session.config().oracle_factory.spec(),
            Some(BackendSpec::Cube {
                depth: 3,
                workers: 2
            })
        );
        let report = session.count().unwrap();
        assert!(matches!(report.outcome, CountOutcome::Approximate { .. }));
        // Cube accounting reached the merged stats: checks were split, and
        // every refutation-by-lookahead is also a solved cube.
        let cube = report.stats.cube.unwrap();
        assert!(cube.splits > 0);
        assert!(cube.cubes_solved >= cube.refuted_by_lookahead);
        // The backend never rebuilds (scout and workers are all
        // activation-literal engines).
        assert_eq!(report.stats.oracle.rebuilds, 0);
        // The deterministic slice matches the single-engine backend's.
        let reference = session
            .count_with(&session.config().clone().with_backend(BackendSpec::Rebuild))
            .unwrap();
        assert_eq!(reference.outcome, report.outcome);
        assert_eq!(reference.stats.oracle_calls, report.stats.oracle_calls);
        assert_eq!(reference.stats.cells_explored, report.stats.cells_explored);
        let reference_cube = reference.stats.cube.unwrap_or_default();
        assert_eq!(reference_cube.splits, 0);
        assert_eq!(reference_cube.cubes_solved, 0);
    }

    #[test]
    fn repeated_counts_are_deterministic() {
        let mut session = saturating_session(8, 5);
        let a = session.count().unwrap();
        let b = session.count().unwrap();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.stats.oracle_calls, b.stats.oracle_calls);
    }

    #[test]
    fn set_config_rejects_bad_parameters_and_keeps_the_old_ones() {
        let mut session = saturating_session(8, 3);
        let good = session.config().clone();
        let bad = CounterConfig {
            delta: 2.0,
            ..good.clone()
        };
        assert!(session.set_config(bad).is_err());
        assert_eq!(session.config(), &good);
    }

    #[test]
    fn pre_cancelled_sessions_report_timeout_immediately() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(10));
        let c = tm.mk_bv_const(16, 10);
        let f = tm.mk_bv_ule(c, x).unwrap();
        let token = CancellationToken::new();
        token.cancel();
        let mut session = Session::builder(tm)
            .assert(f)
            .project(x)
            .cancellation(token)
            .build()
            .unwrap();
        let report = session.count().unwrap();
        assert_eq!(report.outcome, CountOutcome::Timeout);
        // Cancellation is sticky until reset; after a reset the same
        // session counts normally again.
        assert_eq!(session.count().unwrap().outcome, CountOutcome::Timeout);
        session.cancellation().reset();
        let report = session.count().unwrap();
        assert!(matches!(
            report.outcome,
            CountOutcome::Approximate { .. } | CountOutcome::Exact(_)
        ));
    }

    #[test]
    fn progress_observer_sees_models_cells_and_rounds() {
        let models = Arc::new(AtomicU64::new(0));
        let cells = Arc::new(AtomicU64::new(0));
        let rounds = Arc::new(AtomicU64::new(0));
        let (m, c, r) = (Arc::clone(&models), Arc::clone(&cells), Arc::clone(&rounds));

        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let bound = tm.mk_bv_const(16, 8);
        let f = tm.mk_bv_ule(bound, x).unwrap(); // 240 models: saturates
        let mut session = Session::builder(tm)
            .assert(f)
            .project(x)
            .seed(7)
            .iterations(3)
            .on_progress(move |event| match event {
                ProgressEvent::Model { .. } => {
                    m.fetch_add(1, Ordering::Relaxed);
                }
                ProgressEvent::Cell { .. } => {
                    c.fetch_add(1, Ordering::Relaxed);
                }
                ProgressEvent::Round { .. } => {
                    r.fetch_add(1, Ordering::Relaxed);
                }
            })
            .build()
            .unwrap();
        let report = session.count().unwrap();
        // Every measured cell (the unhashed one too) fired an event, and
        // every scheduled round reported in.
        assert_eq!(cells.load(Ordering::Relaxed), report.stats.cells_explored);
        assert_eq!(rounds.load(Ordering::Relaxed), 3);
        assert!(models.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn observer_driven_cancellation_stops_a_long_count() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(12));
        let c = tm.mk_bv_const(2048, 12);
        let f = tm.mk_bv_ule(c, x).unwrap(); // 2048 models: saturates
        let token = CancellationToken::new();
        let trigger = token.clone();
        let mut session = Session::builder(tm)
            .assert(f)
            .project(x)
            .seed(1)
            .iterations(500)
            .cancellation(token)
            .on_progress(move |event| {
                // Abort as soon as the second round completes.
                if let ProgressEvent::Round { round, .. } = event {
                    if *round >= 1 {
                        trigger.cancel();
                    }
                }
            })
            .build()
            .unwrap();
        let report = session.count().unwrap();
        // Far fewer than the 500 requested rounds ran, and the partial work
        // is reported rather than discarded.
        assert!(report.stats.iterations < 500);
        assert!(report.stats.cells_explored >= 1);
        assert!(session.cancellation().is_cancelled());
    }
}
