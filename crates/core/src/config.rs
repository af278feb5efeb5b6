//! Configuration of the counting algorithms.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use pact_hash::HashFamily;
use pact_solver::{
    CubeContext, IncrementalContext, Oracle, PolicyOracle, PortfolioContext, SolverConfig,
};

use crate::error::ConfigError;

/// Declarative selection of a built-in oracle backend — the single value
/// that travels from CLI flags ([`std::str::FromStr`]) through
/// [`CounterConfig::with_backend`] / `SessionBuilder::backend` down to
/// [`OracleFactory::from_spec`].
///
/// Before this type, each backend had its own selector method and the last
/// call silently won; a spec makes the choice a first-class value that can
/// be parsed, compared, stored and — when two different ones are requested
/// for the same run — rejected as [`ConfigError::ConflictingBackends`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendSpec {
    /// `IncrementalContext` in rebuild mode
    /// (`IncrementalContext::rebuilding`): every `pop` that retired encoded
    /// assertions makes the next `check` re-encode the live frames into a
    /// fresh solver.  A debug backend: select it explicitly only to
    /// reproduce the work profile of an oracle that rebuilds on `pop`.
    Rebuild,
    /// `IncrementalContext` in its default mode, whose encoder survives
    /// `pop` (zero rebuilds).  The default backend: it dominates `rebuild`
    /// on every observed signal while staying single-engine and
    /// deterministic.
    #[default]
    Incremental,
    /// The racing-portfolio backend (`PortfolioContext`).
    Portfolio {
        /// Diversified workers racing each `check`.
        workers: usize,
    },
    /// The cube-and-conquer backend (`CubeContext`).
    Cube {
        /// Split depth: up to `2^depth` cubes per hard `check`.
        depth: usize,
        /// Conquering workers.
        workers: usize,
    },
    /// The adaptive policy backend (`PolicyOracle`): starts on the
    /// incremental engine and re-routes each `check` across the other
    /// backends from a sliding window of observed statistics.  Takes no
    /// parameters — depth and worker counts are policy decisions.
    Adaptive,
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendSpec::Rebuild => f.write_str("rebuild"),
            BackendSpec::Incremental => f.write_str("incremental"),
            BackendSpec::Portfolio { workers } => write!(f, "portfolio:{workers}"),
            BackendSpec::Cube { depth, workers } => write!(f, "cube:{depth}:{workers}"),
            BackendSpec::Adaptive => f.write_str("adaptive"),
        }
    }
}

impl std::str::FromStr for BackendSpec {
    type Err = String;

    /// Parses `rebuild`, `incremental`, `portfolio[:workers]`,
    /// `cube[:depth[:workers]]` and `adaptive` (the [`fmt::Display`]
    /// format, with the numeric suffixes optional).  Omitted worker counts
    /// default to 2 and an omitted cube depth to 3, mirroring the benchmark
    /// harness.
    ///
    /// Explicit parameters are validated against the backend's real limits
    /// — `portfolio` workers in `1..=`[`pact_solver::MAX_PORTFOLIO_WORKERS`],
    /// `cube` depth in `1..=`[`pact_solver::MAX_CUBE_DEPTH`] and workers in
    /// `1..=`[`pact_solver::MAX_CUBE_WORKERS`] — and rejected with an error
    /// naming the valid range.  (The constructors clamp too, but a spec
    /// that parses must mean what it says: `cube:0:2` used to parse and
    /// silently run at depth 1.)
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or_default();
        let mut number = |what: &str, default: usize, max: usize| -> Result<usize, String> {
            match parts.next() {
                None => Ok(default),
                Some(n) => {
                    let value = n
                        .parse::<usize>()
                        .map_err(|_| format!("invalid backend parameter {n:?} in {s:?}"))?;
                    if value < 1 || value > max {
                        return Err(format!(
                            "{what} must be in 1..={max} (got {value} in {s:?})"
                        ));
                    }
                    Ok(value)
                }
            }
        };
        let spec = match head {
            "rebuild" => BackendSpec::Rebuild,
            "incremental" => BackendSpec::Incremental,
            "portfolio" => BackendSpec::Portfolio {
                workers: number("portfolio workers", 2, pact_solver::MAX_PORTFOLIO_WORKERS)?,
            },
            "cube" => BackendSpec::Cube {
                depth: number("cube depth", 3, pact_solver::MAX_CUBE_DEPTH)?,
                workers: number("cube workers", 2, pact_solver::MAX_CUBE_WORKERS)?,
            },
            "adaptive" => BackendSpec::Adaptive,
            other => {
                return Err(format!(
                    "unknown backend {other:?} (expected rebuild, incremental, \
                     portfolio[:workers], cube[:depth[:workers]] or adaptive)"
                ))
            }
        };
        if parts.next().is_some() {
            return Err(format!("trailing backend parameters in {s:?}"));
        }
        Ok(spec)
    }
}

/// Builds the SMT oracle a counting run talks to.
///
/// The counting core is generic over the [`Oracle`] trait; this factory is
/// the hook that decides *which* implementation gets built.
///
/// # Thread-safety bounds
///
/// The factory is `Send + Sync`, and custom constructors must be too
/// ([`OracleFactory::new`] requires `Fn(SolverConfig) -> Box<dyn Oracle> +
/// Send + Sync + 'static`).  It is invoked once per scheduled round (and
/// once for CDM's base check) — with a parallel [`ParallelConfig`] that means
/// once per worker-claimed round, on the worker's own thread (`Sync`), and
/// service front-ends (`pact-service`) additionally move whole
/// configurations onto shard threads (`Send`).  The bound is pinned by a
/// compile-time assertion next to this type, so a non-thread-safe variant
/// cannot be added by accident.
///
/// The default factory builds [`IncrementalContext`] in its default mode
/// (rebuild mode is the explicit `rebuild` debug backend); the other
/// built-in backends are selected declaratively through
/// [`OracleFactory::from_spec`] (see [`BackendSpec`] for the choices);
/// tests and alternative backends swap in their own with
/// [`OracleFactory::new`] (see `tests/session.rs` for an instrumented
/// example).
#[derive(Clone)]
pub struct OracleFactory {
    backend: Backend,
}

/// Which constructor an [`OracleFactory`] runs.
#[derive(Clone)]
enum Backend {
    /// A built-in backend.
    Spec(BackendSpec),
    /// A user-supplied constructor closure.
    Custom(Arc<BuildOracleFn>),
}

impl Default for OracleFactory {
    fn default() -> Self {
        OracleFactory::from_spec(BackendSpec::default())
    }
}

/// The constructor closure an [`OracleFactory`] stores.
type BuildOracleFn = dyn Fn(SolverConfig) -> Box<dyn Oracle> + Send + Sync;

impl OracleFactory {
    /// Wraps a constructor closure.  The closure receives the run's
    /// [`SolverConfig`] (resource limits) and returns a fresh oracle.
    pub fn new(build: impl Fn(SolverConfig) -> Box<dyn Oracle> + Send + Sync + 'static) -> Self {
        OracleFactory {
            backend: Backend::Custom(Arc::new(build)),
        }
    }

    /// The factory a [`BackendSpec`] describes — the one mapping from the
    /// declarative spec onto a constructor.
    ///
    /// [`BackendSpec::Incremental`] selects [`IncrementalContext`], whose
    /// encoder survives `pop` (zero rebuilds across the galloping search),
    /// and [`BackendSpec::Rebuild`] the same context in rebuild mode.  [`BackendSpec::Portfolio`] fans every
    /// `check` out to diversified racing workers (clamped to
    /// `1..=`[`pact_solver::MAX_PORTFOLIO_WORKERS`]).  [`BackendSpec::Cube`]
    /// partitions hard checks into up to `2^depth` cubes conquered by
    /// `workers` scoped-thread oracles (`depth` clamped to
    /// `1..=`[`pact_solver::MAX_CUBE_DEPTH`], `workers` to
    /// `1..=`[`pact_solver::MAX_CUBE_WORKERS`]).  [`BackendSpec::Adaptive`]
    /// builds the [`PolicyOracle`], which starts incremental and re-routes
    /// each check from observed statistics.  The reported count is
    /// bit-identical for every choice; only the work profile (rebuilds,
    /// wins, splits, switches — see [`CountStats`](crate::CountStats))
    /// changes.
    pub fn from_spec(spec: BackendSpec) -> Self {
        OracleFactory {
            backend: Backend::Spec(spec),
        }
    }

    /// The spec this factory was built from, or `None` for a custom
    /// constructor closure (which no spec can describe).
    pub fn spec(&self) -> Option<BackendSpec> {
        match self.backend {
            Backend::Spec(spec) => Some(spec),
            Backend::Custom(_) => None,
        }
    }

    /// Builds one oracle with the given resource limits.
    pub fn build(&self, config: SolverConfig) -> Box<dyn Oracle> {
        match &self.backend {
            Backend::Spec(BackendSpec::Rebuild) => Box::new(IncrementalContext::rebuilding(config)),
            Backend::Spec(BackendSpec::Incremental) => {
                Box::new(IncrementalContext::with_config(config))
            }
            Backend::Spec(BackendSpec::Portfolio { workers }) => {
                Box::new(PortfolioContext::with_config(*workers, config))
            }
            Backend::Spec(BackendSpec::Cube { depth, workers }) => {
                Box::new(CubeContext::with_config(*depth, *workers, config))
            }
            Backend::Spec(BackendSpec::Adaptive) => Box::new(PolicyOracle::with_config(config)),
            Backend::Custom(build) => build(config),
        }
    }

    /// Short backend name for reports and benchmark columns.
    pub fn label(&self) -> &'static str {
        match self.backend {
            Backend::Spec(BackendSpec::Rebuild) => "rebuild",
            Backend::Spec(BackendSpec::Incremental) => "incremental",
            Backend::Spec(BackendSpec::Portfolio { .. }) => "portfolio",
            Backend::Spec(BackendSpec::Cube { .. }) => "cube",
            Backend::Spec(BackendSpec::Adaptive) => "adaptive",
            Backend::Custom(_) => "custom",
        }
    }
}

impl fmt::Debug for OracleFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OracleFactory({})", self.label())
    }
}

impl PartialEq for OracleFactory {
    /// The built-in backends compare by spec; custom factories compare by
    /// closure identity.
    fn eq(&self, other: &Self) -> bool {
        match (&self.backend, &other.backend) {
            (Backend::Spec(a), Backend::Spec(b)) => a == b,
            (Backend::Custom(a), Backend::Custom(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

// Factories (and the configs carrying them) cross thread boundaries twice
// over: the round scheduler builds one oracle per worker-claimed round, and
// service shards receive whole `CounterConfig`s from submitter threads.
// Every variant of `Backend` — including `Custom`, whose closure type is
// explicitly `+ Send + Sync` — must preserve that; these assertions turn a
// regression into a compile error at the definition site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BackendSpec>();
    assert_send_sync::<OracleFactory>();
    assert_send_sync::<CounterConfig>();
};

/// Thread scheduling of the independent outer rounds of the counting
/// algorithms.
///
/// The rounds of Algorithm 1 (and of the CDM baseline) are independent: each
/// draws its own hash functions and measures its own cells.  The scheduler
/// fans them out over a scoped thread pool; every round derives its RNG
/// stream from `seed ^ round` and runs against its own clones of the term
/// manager and oracle, so the reported outcome is bit-identical for every
/// thread count (only wall-clock time changes).
///
/// The bit-identical guarantee assumes no deadline fires mid-run: a
/// [`CounterConfig::deadline`] is checked against the wall clock, so *which*
/// round first observes it depends on how fast rounds complete — and that
/// varies with the thread count (and machine load).  Deadline-free runs, and
/// runs that comfortably fit their budget, are exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of worker threads for the outer rounds.  `1` (the default)
    /// runs rounds on the calling thread; `0` uses all available cores.
    pub threads: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig { threads: 1 }
    }
}

impl ParallelConfig {
    /// Uses every core the OS reports.
    pub fn auto() -> Self {
        ParallelConfig { threads: 0 }
    }

    /// The number of workers to actually spawn (resolves `0` to the core
    /// count, with a floor of one).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Configuration shared by [`crate::pact_count`], the CDM baseline and the
/// exact enumerator.
///
/// The defaults mirror the paper's experimental setup (§IV): `ε = 0.8`,
/// `δ = 0.2`, the `H_xor` family, and no resource limits.  Benchmark
/// harnesses typically set [`CounterConfig::deadline`] to emulate the
/// per-instance timeout of the evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterConfig {
    /// Tolerance `ε` of the `(ε, δ)` guarantee.
    pub epsilon: f64,
    /// Confidence `δ` of the `(ε, δ)` guarantee.
    pub delta: f64,
    /// Hash family used to partition the solution space.
    pub family: HashFamily,
    /// Seed for all randomness (hash-function sampling).
    pub seed: u64,
    /// Per-instance wall-clock budget; `None` means unlimited.  It is
    /// polled before every oracle call and, through the solver interrupt,
    /// inside a long SAT search, so a single hard check does not run far
    /// past it.
    pub deadline: Option<Duration>,
    /// Resource limits handed to the SMT oracle for every check.
    pub solver: SolverConfig,
    /// Overrides the number of outer iterations computed from `δ`
    /// (Algorithm 3).  Intended for benchmark harnesses that trade the
    /// theoretical confidence for wall-clock time; `None` keeps the paper's
    /// value.
    pub iterations_override: Option<u32>,
    /// Thread scheduling of the outer rounds (deterministic for every
    /// thread count; see [`ParallelConfig`]).
    pub parallel: ParallelConfig,
    /// Which [`Oracle`] backend the run builds — once per scheduled round and
    /// once more for CDM's base check, so parallel rounds each get their own
    /// oracle.  Defaults to the workspace's [`IncrementalContext`].
    pub oracle_factory: OracleFactory,
}

impl Default for CounterConfig {
    fn default() -> Self {
        CounterConfig {
            epsilon: 0.8,
            delta: 0.2,
            family: HashFamily::Xor,
            seed: 0,
            deadline: None,
            solver: SolverConfig::default(),
            iterations_override: None,
            parallel: ParallelConfig::default(),
            oracle_factory: OracleFactory::default(),
        }
    }
}

impl CounterConfig {
    /// The paper's experimental configuration (`ε = 0.8`, `δ = 0.2`).
    pub fn paper() -> Self {
        CounterConfig::default()
    }

    /// A configuration suitable for quick regression tests and examples:
    /// the same `(ε, δ)` but a single outer iteration and a small conflict
    /// budget, so a count is produced in milliseconds on toy formulas.
    pub fn fast() -> Self {
        CounterConfig {
            iterations_override: Some(3),
            ..CounterConfig::default()
        }
    }

    /// Returns a copy using the given hash family.
    pub fn with_family(mut self, family: HashFamily) -> Self {
        self.family = family;
        self
    }

    /// Returns a copy using the given RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a wall-clock budget.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns a copy running the outer rounds on `threads` workers
    /// (`0` = all cores).  Absent a mid-run deadline expiry, the outcome is
    /// identical for every value; only wall-clock time changes (see
    /// [`ParallelConfig`] for the caveat).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.parallel = ParallelConfig { threads };
        self
    }

    /// Returns a copy building its oracles through `factory` instead of the
    /// default [`IncrementalContext`] backend.
    pub fn with_oracle_factory(mut self, factory: OracleFactory) -> Self {
        self.oracle_factory = factory;
        self
    }

    /// Returns a copy counting through the built-in backend the spec
    /// describes (see [`BackendSpec`]).  Shorthand for
    /// [`CounterConfig::with_oracle_factory`] with
    /// [`OracleFactory::from_spec`].
    pub fn with_backend(mut self, spec: BackendSpec) -> Self {
        self.oracle_factory = OracleFactory::from_spec(spec);
        self
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns the typed [`ConfigError`] variant for the first parameter
    /// outside its valid range (`ε ≤ 0`, or `δ` outside `(0, 1)`).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.epsilon <= 0.0 {
            return Err(ConfigError::NonPositiveEpsilon {
                epsilon: self.epsilon,
            });
        }
        if self.delta <= 0.0 || self.delta >= 1.0 {
            return Err(ConfigError::DeltaOutOfRange { delta: self.delta });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = CounterConfig::default();
        assert_eq!(c.epsilon, 0.8);
        assert_eq!(c.delta, 0.2);
        assert_eq!(c.family, HashFamily::Xor);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let zero_epsilon = CounterConfig {
            epsilon: 0.0,
            ..CounterConfig::default()
        };
        assert!(zero_epsilon.validate().is_err());
        let delta_too_big = CounterConfig {
            delta: 1.0,
            ..CounterConfig::default()
        };
        assert!(delta_too_big.validate().is_err());
        let negative_delta = CounterConfig {
            delta: -0.1,
            ..CounterConfig::default()
        };
        assert!(negative_delta.validate().is_err());
    }

    #[test]
    fn builders_compose() {
        let c = CounterConfig::default()
            .with_family(HashFamily::Prime)
            .with_seed(7)
            .with_deadline(Duration::from_secs(5))
            .with_threads(4);
        assert_eq!(c.family, HashFamily::Prime);
        assert_eq!(c.seed, 7);
        assert_eq!(c.deadline, Some(Duration::from_secs(5)));
        assert_eq!(c.parallel.threads, 4);
    }

    #[test]
    fn validation_errors_carry_the_offending_value() {
        let bad_epsilon = CounterConfig {
            epsilon: -2.0,
            ..CounterConfig::default()
        };
        assert_eq!(
            bad_epsilon.validate(),
            Err(ConfigError::NonPositiveEpsilon { epsilon: -2.0 })
        );
        let bad_delta = CounterConfig {
            delta: 1.5,
            ..CounterConfig::default()
        };
        assert_eq!(
            bad_delta.validate(),
            Err(ConfigError::DeltaOutOfRange { delta: 1.5 })
        );
    }

    #[test]
    fn oracle_factories_compare_by_identity() {
        // Two default configs are equal (both build the incremental
        // backend since the default flip)...
        assert_eq!(CounterConfig::default(), CounterConfig::default());
        assert_eq!(
            CounterConfig::default().oracle_factory.spec(),
            Some(BackendSpec::Incremental)
        );
        // ...as are two rebuild factories (same built-in debug backend),
        // which no longer equal the default...
        let rebuild = || OracleFactory::from_spec(BackendSpec::Rebuild);
        assert_eq!(rebuild(), rebuild());
        assert_ne!(rebuild(), OracleFactory::default());
        assert_eq!(rebuild().spec(), Some(BackendSpec::Rebuild));
        // ...while a custom factory equals its clones but not an unrelated
        // one.
        let custom = OracleFactory::new(|cfg| Box::new(IncrementalContext::with_config(cfg)));
        assert_eq!(custom.clone(), custom);
        assert_ne!(custom, OracleFactory::default());
        assert_ne!(custom, rebuild());
        let mut oracle = custom.build(SolverConfig::default());
        assert_eq!(oracle.stats().checks, 0);
        oracle.push();
        oracle.pop();
    }

    #[test]
    fn backend_specs_parse_display_and_reject_garbage() {
        for (text, spec) in [
            ("rebuild", BackendSpec::Rebuild),
            ("incremental", BackendSpec::Incremental),
            ("portfolio", BackendSpec::Portfolio { workers: 2 }),
            ("portfolio:5", BackendSpec::Portfolio { workers: 5 }),
            (
                "cube",
                BackendSpec::Cube {
                    depth: 3,
                    workers: 2,
                },
            ),
            (
                "cube:4",
                BackendSpec::Cube {
                    depth: 4,
                    workers: 2,
                },
            ),
            (
                "cube:4:6",
                BackendSpec::Cube {
                    depth: 4,
                    workers: 6,
                },
            ),
            ("adaptive", BackendSpec::Adaptive),
        ] {
            assert_eq!(text.parse::<BackendSpec>().unwrap(), spec, "{text}");
        }
        // Display round-trips through FromStr.
        for spec in [
            BackendSpec::Rebuild,
            BackendSpec::Incremental,
            BackendSpec::Portfolio { workers: 3 },
            BackendSpec::Cube {
                depth: 2,
                workers: 4,
            },
            BackendSpec::Adaptive,
        ] {
            assert_eq!(spec.to_string().parse::<BackendSpec>().unwrap(), spec);
        }
        assert!("sideways".parse::<BackendSpec>().is_err());
        assert!("portfolio:banana".parse::<BackendSpec>().is_err());
        assert!("cube:1:2:3".parse::<BackendSpec>().is_err());
        assert!("incremental:1".parse::<BackendSpec>().is_err());
        assert!("adaptive:2".parse::<BackendSpec>().is_err());
        // Zero and out-of-range parameters are rejected at parse time with
        // the valid range in the message (tests/properties.rs pins the
        // full matrix).
        for bad in [
            "portfolio:0",
            "portfolio:9",
            "cube:0:2",
            "cube:3:0",
            "cube:7",
        ] {
            let err = bad.parse::<BackendSpec>().unwrap_err();
            assert!(err.contains("must be in 1..="), "{bad}: {err}");
        }
    }

    #[test]
    fn factories_round_trip_through_specs() {
        for spec in [
            BackendSpec::Rebuild,
            BackendSpec::Incremental,
            BackendSpec::Portfolio { workers: 3 },
            BackendSpec::Cube {
                depth: 3,
                workers: 2,
            },
            BackendSpec::Adaptive,
        ] {
            assert_eq!(OracleFactory::from_spec(spec).spec(), Some(spec));
        }
        // A custom closure has no spec.
        let custom = OracleFactory::new(|cfg| Box::new(IncrementalContext::with_config(cfg)));
        assert_eq!(custom.spec(), None);
        // The default spec builds the default factory.
        assert_eq!(
            OracleFactory::from_spec(BackendSpec::default()),
            OracleFactory::default()
        );
    }

    #[test]
    fn backend_selection_round_trips_through_the_config() {
        let rebuild = CounterConfig::default().with_backend(BackendSpec::Rebuild);
        assert_eq!(rebuild.oracle_factory.spec(), Some(BackendSpec::Rebuild));
        assert_ne!(rebuild.oracle_factory, OracleFactory::default());
        assert_eq!(rebuild.oracle_factory.label(), "rebuild");
        let back = rebuild.with_backend(BackendSpec::Incremental);
        assert_eq!(back.oracle_factory, OracleFactory::default());
        assert_eq!(back.oracle_factory.label(), "incremental");
        assert_eq!(back, CounterConfig::default());
        // The default (incremental) factory builds a working oracle with
        // zero rebuilds across a push/pop cycle.
        let mut oracle = OracleFactory::default().build(SolverConfig::default());
        oracle.push();
        oracle.pop();
        assert_eq!(oracle.stats().rebuilds, 0);
    }

    #[test]
    fn adaptive_selection_round_trips_through_the_config() {
        let adaptive = CounterConfig::default().with_backend(BackendSpec::Adaptive);
        assert_eq!(adaptive.oracle_factory.spec(), Some(BackendSpec::Adaptive));
        assert_eq!(adaptive.oracle_factory.label(), "adaptive");
        // The factory builds a working oracle that reports its routing
        // accounting; a fresh one has made no decisions yet.
        let oracle = OracleFactory::from_spec(BackendSpec::Adaptive).build(SolverConfig::default());
        let policy = oracle.policy().expect("policy accounting");
        assert_eq!(policy.switches, 0);
        assert_eq!(policy.backend_checks, [0; 4]);
        // Fixed-strategy backends report no policy accounting.
        assert!(OracleFactory::default()
            .build(SolverConfig::default())
            .policy()
            .is_none());
    }

    #[test]
    fn portfolio_selection_round_trips_through_the_config() {
        let portfolio =
            CounterConfig::default().with_backend(BackendSpec::Portfolio { workers: 3 });
        assert_eq!(
            portfolio.oracle_factory.spec(),
            Some(BackendSpec::Portfolio { workers: 3 })
        );
        assert_eq!(portfolio.oracle_factory.label(), "portfolio");
        // Portfolio factories compare by worker count.
        let portfolio_of = |workers| OracleFactory::from_spec(BackendSpec::Portfolio { workers });
        assert_eq!(portfolio_of(3), portfolio_of(3));
        assert_ne!(portfolio_of(3), portfolio_of(4));
        assert_ne!(
            portfolio_of(3),
            OracleFactory::from_spec(BackendSpec::Incremental)
        );
        // The factory builds a working racing oracle that reports its
        // winner accounting.
        let mut oracle = portfolio_of(2).build(SolverConfig::default());
        oracle.push();
        oracle.pop();
        let stats = oracle.portfolio().expect("portfolio accounting");
        assert_eq!(stats.workers, 2);
        // The single-engine backends report no portfolio accounting.
        assert!(OracleFactory::default()
            .build(SolverConfig::default())
            .portfolio()
            .is_none());
    }

    #[test]
    fn cube_selection_round_trips_through_the_config() {
        let cube = CounterConfig::default().with_backend(BackendSpec::Cube {
            depth: 3,
            workers: 2,
        });
        assert_eq!(
            cube.oracle_factory.spec(),
            Some(BackendSpec::Cube {
                depth: 3,
                workers: 2
            })
        );
        assert_eq!(cube.oracle_factory.label(), "cube");
        // Cube factories compare by (depth, workers).
        let cube_of =
            |depth, workers| OracleFactory::from_spec(BackendSpec::Cube { depth, workers });
        assert_eq!(cube_of(3, 2), cube_of(3, 2));
        assert_ne!(cube_of(3, 2), cube_of(2, 2));
        assert_ne!(cube_of(3, 2), cube_of(3, 4));
        assert_ne!(
            cube_of(3, 2),
            OracleFactory::from_spec(BackendSpec::Portfolio { workers: 2 })
        );
        // The factory builds a working oracle that reports cube accounting
        // (and no portfolio accounting).
        let mut oracle = cube_of(2, 2).build(SolverConfig::default());
        oracle.push();
        oracle.pop();
        assert_eq!(oracle.cube().expect("cube accounting").splits, 0);
        assert!(oracle.portfolio().is_none());
        // The other backends report no cube accounting.
        assert!(OracleFactory::default()
            .build(SolverConfig::default())
            .cube()
            .is_none());
        assert!(
            OracleFactory::from_spec(BackendSpec::Portfolio { workers: 2 })
                .build(SolverConfig::default())
                .cube()
                .is_none()
        );
    }

    #[test]
    fn parallel_config_resolves_workers() {
        assert_eq!(ParallelConfig::default().effective_threads(), 1);
        assert_eq!(ParallelConfig { threads: 8 }.effective_threads(), 8);
        // `0` asks for every core; the exact count is machine-dependent but
        // never zero.
        assert!(ParallelConfig::auto().effective_threads() >= 1);
    }
}
