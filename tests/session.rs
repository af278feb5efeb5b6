//! Session-level integration tests: the pluggable-oracle contract.
//!
//! The counting core must have no compiled-in dependency on a concrete
//! context constructor: everything it needs goes through the `Oracle`
//! trait and the `OracleFactory` hook.  These tests prove it by running a
//! `Session` against an *instrumented* oracle (a wrapper that counts every
//! trait call before delegating to a rebuild-mode `IncrementalContext`) and
//! checking that
//!
//! 1. the engine really routed its work through the custom backend,
//! 2. the report is identical to the built-in backend's (the wrapper is
//!    semantics-preserving, so any divergence is an engine bug), and
//! 3. under `ParallelConfig { threads: 2 }` the report stays bit-identical
//!    to the single-threaded one even though per-round oracles are built on
//!    worker threads through the same factory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod common;

use common::deterministic_parts;
use pact::{
    BackendSpec, CountError, CountOutcome, CounterConfig, OracleFactory, ProgressEvent, Session,
};
use pact_ir::{BvValue, Sort, TermId, TermManager, Value};
use pact_solver::{IncrementalContext, Oracle, OracleStats, SolverConfig, SolverResult};

/// Cross-thread tally of every trait method the engine invoked, shared by
/// all oracles a factory builds.
#[derive(Default)]
struct OpCounts {
    built: AtomicU64,
    pushes: AtomicU64,
    pops: AtomicU64,
    term_asserts: AtomicU64,
    xor_asserts: AtomicU64,
    tracked: AtomicU64,
    checks: AtomicU64,
    models: AtomicU64,
}

/// A semantics-preserving oracle: counts calls, then delegates to the
/// reference [`IncrementalContext`] in rebuild mode.
struct Instrumented {
    inner: IncrementalContext,
    ops: Arc<OpCounts>,
}

impl Oracle for Instrumented {
    fn push(&mut self) {
        self.ops.pushes.fetch_add(1, Ordering::Relaxed);
        self.inner.push();
    }

    fn pop(&mut self) {
        self.ops.pops.fetch_add(1, Ordering::Relaxed);
        self.inner.pop();
    }

    fn assert_term(&mut self, t: TermId) {
        self.ops.term_asserts.fetch_add(1, Ordering::Relaxed);
        self.inner.assert_term(t);
    }

    fn assert_xor_bits(&mut self, bits: Vec<(TermId, u32)>, rhs: bool) {
        self.ops.xor_asserts.fetch_add(1, Ordering::Relaxed);
        self.inner.assert_xor_bits(bits, rhs);
    }

    fn track_var(&mut self, var: TermId) {
        self.ops.tracked.fetch_add(1, Ordering::Relaxed);
        self.inner.track_var(var);
    }

    fn check(&mut self, tm: &mut TermManager) -> pact_solver::Result<SolverResult> {
        self.ops.checks.fetch_add(1, Ordering::Relaxed);
        self.inner.check(tm)
    }

    fn model_value(&self, tm: &TermManager, var: TermId) -> Option<Value> {
        self.inner.model_value(tm, var)
    }

    fn projected_model(&self, tm: &TermManager, projection: &[TermId]) -> Option<Vec<BvValue>> {
        self.ops.models.fetch_add(1, Ordering::Relaxed);
        self.inner.projected_model(tm, projection)
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }
}

fn instrumented_factory() -> (OracleFactory, Arc<OpCounts>) {
    let ops = Arc::new(OpCounts::default());
    let handle = Arc::clone(&ops);
    let factory = OracleFactory::new(move |config: SolverConfig| {
        handle.built.fetch_add(1, Ordering::Relaxed);
        Box::new(Instrumented {
            inner: IncrementalContext::rebuilding(config),
            ops: Arc::clone(&handle),
        })
    });
    (factory, ops)
}

/// x ≥ 16 over 8 bits: 240 projected models, which saturates the threshold
/// so the hashing rounds (and their per-round oracles) run.
fn saturating_session(config: CounterConfig) -> Session {
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(8));
    let c = tm.mk_bv_const(16, 8);
    let f = tm.mk_bv_ule(c, x).unwrap();
    Session::builder(tm)
        .assert(f)
        .project(x)
        .config(config)
        .build()
        .unwrap()
}

fn base_config() -> CounterConfig {
    CounterConfig {
        iterations_override: Some(5),
        seed: 42,
        ..CounterConfig::default()
    }
}

#[test]
fn unbalanced_pop_panics_identically_across_backends() {
    // The `Oracle` contract: `pop` without a matching `push` is a caller
    // bug and panics — identically for the reference backend, the
    // incremental backend, the two parallel backends, the adaptive policy
    // wrapper, and wrappers that delegate (this file's mock).  Without the
    // documented contract the behaviour silently diverged between
    // implementations.
    let (mock_factory, _ops) = instrumented_factory();
    let factories: Vec<(&str, OracleFactory)> = vec![
        ("context", OracleFactory::from_spec(BackendSpec::Rebuild)),
        (
            "incremental",
            OracleFactory::from_spec(BackendSpec::Incremental),
        ),
        (
            "portfolio",
            OracleFactory::from_spec(BackendSpec::Portfolio { workers: 2 }),
        ),
        (
            "cube",
            OracleFactory::from_spec(BackendSpec::Cube {
                depth: 2,
                workers: 2,
            }),
        ),
        ("adaptive", OracleFactory::from_spec(BackendSpec::Adaptive)),
        ("mock", mock_factory),
    ];
    for (name, factory) in factories {
        // Bare pop on a fresh oracle panics.
        let f = factory.clone();
        let bare = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut oracle = f.build(SolverConfig::default());
            oracle.pop();
        }));
        assert!(bare.is_err(), "{name}: bare pop must panic");

        // A balanced push/pop is fine; the *second* pop panics.
        let f = factory.clone();
        let unbalanced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut oracle = f.build(SolverConfig::default());
            oracle.push();
            oracle.pop();
            oracle.pop();
        }));
        assert!(unbalanced.is_err(), "{name}: unbalanced pop must panic");

        // And the panic message names the missing push, per the contract.
        let f = factory;
        let message = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut oracle = f.build(SolverConfig::default());
            oracle.pop();
        }))
        .unwrap_err();
        let text = message
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| message.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            text.contains("pop without matching push"),
            "{name}: panic message {text:?} must name the missing push"
        );
    }
}

#[test]
fn oracle_accounting_contract_is_uniform_across_backends() {
    // The PR 3 accounting contract, parity-tested across all six oracle
    // impls (reference, incremental, portfolio, cube, adaptive, delegating
    // mock): `checks` counts queries 1:1, `conflicts` is a lifetime total
    // that survives `pop` — including work spent by solvers a rebuild
    // discarded, a portfolio race cancelled, or a cube conquest abandoned
    // — and never decreases.
    let (mock_factory, _ops) = instrumented_factory();
    let factories: Vec<(&str, OracleFactory)> = vec![
        ("context", OracleFactory::from_spec(BackendSpec::Rebuild)),
        (
            "incremental",
            OracleFactory::from_spec(BackendSpec::Incremental),
        ),
        (
            "portfolio",
            OracleFactory::from_spec(BackendSpec::Portfolio { workers: 3 }),
        ),
        (
            "cube",
            OracleFactory::from_spec(BackendSpec::Cube {
                depth: 2,
                workers: 2,
            }),
        ),
        ("adaptive", OracleFactory::from_spec(BackendSpec::Adaptive)),
        ("mock", mock_factory),
    ];
    for (name, factory) in factories {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(10));
        let y = tm.mk_var("y", Sort::BitVec(10));
        let prod = tm.mk_bv_mul(x, y).unwrap();
        let c = tm.mk_bv_const(851, 10);
        let f = tm.mk_eq(prod, c); // conflict-heavy but satisfiable
        let mut oracle = factory.build(SolverConfig::default());
        oracle.assert_term(f);
        assert_eq!(oracle.check(&mut tm).unwrap(), SolverResult::Sat, "{name}");
        let after_first = oracle.stats();
        assert_eq!(after_first.checks, 1, "{name}");

        oracle.push();
        let zero = tm.mk_bv_const(0, 10);
        let g = tm.mk_bv_ult(x, zero).unwrap(); // impossible
        oracle.assert_term(g);
        assert_eq!(
            oracle.check(&mut tm).unwrap(),
            SolverResult::Unsat,
            "{name}"
        );
        let mid = oracle.stats();
        assert_eq!(mid.checks, 2, "{name}");
        assert!(mid.conflicts >= after_first.conflicts, "{name}");

        oracle.pop(); // rebuild mode discards the solver at the next check
        assert_eq!(oracle.check(&mut tm).unwrap(), SolverResult::Sat, "{name}");
        let last = oracle.stats();
        assert_eq!(last.checks, 3, "{name}");
        assert!(
            last.conflicts >= mid.conflicts,
            "{name}: pop lost banked conflicts ({} -> {})",
            mid.conflicts,
            last.conflicts
        );
        // Portfolio accounting: every check credited to exactly one worker,
        // and every other backend reports no portfolio block at all.
        match oracle.portfolio() {
            Some(p) => {
                assert_eq!(p.wins.iter().sum::<u64>(), last.checks, "{name}");
                assert!(p.workers >= 2, "{name}");
            }
            None => assert_ne!(name, "portfolio"),
        }
        // Cube accounting: splits never exceed checks, lookahead
        // refutations are a subset of solved cubes, and every other
        // backend reports no cube block at all.
        match oracle.cube() {
            Some(c) => {
                assert_eq!(name, "cube");
                assert!(c.splits <= last.checks, "{name}");
                assert!(c.cubes_solved >= c.refuted_by_lookahead, "{name}");
            }
            None => assert_ne!(name, "cube"),
        }
        // Policy accounting: every check is attributed to exactly one
        // backend slot (the counts sum back to `checks`), and every
        // non-adaptive backend reports no policy block at all.
        match oracle.policy() {
            Some(p) => {
                assert_eq!(name, "adaptive");
                assert_eq!(p.backend_checks.iter().sum::<u64>(), last.checks, "{name}");
            }
            None => assert_ne!(name, "adaptive"),
        }
    }
}

#[test]
fn custom_oracle_backend_carries_the_whole_count() {
    let (factory, ops) = instrumented_factory();
    let mut session = saturating_session(base_config().with_oracle_factory(factory));
    let report = session.count().unwrap();
    assert!(matches!(report.outcome, CountOutcome::Approximate { .. }));

    // The engine built one oracle per scheduled round, and
    // every query went through the trait.
    assert!(ops.built.load(Ordering::Relaxed) >= 2);
    assert_eq!(
        ops.checks.load(Ordering::Relaxed),
        report.stats.oracle_calls
    );
    assert!(ops.pushes.load(Ordering::Relaxed) >= report.stats.cells_explored);
    assert_eq!(
        ops.pushes.load(Ordering::Relaxed),
        ops.pops.load(Ordering::Relaxed),
        "push/pop discipline must balance"
    );
    assert!(ops.tracked.load(Ordering::Relaxed) > 0);
    // The default family is H_xor, so hash constraints took the native path.
    assert!(ops.xor_asserts.load(Ordering::Relaxed) > 0);
}

#[test]
fn instrumented_backend_matches_the_builtin_backend_bit_for_bit() {
    let mut builtin = saturating_session(base_config());
    let expected = builtin.count().unwrap();

    let (factory, _ops) = instrumented_factory();
    let mut custom = saturating_session(base_config().with_oracle_factory(factory));
    let observed = custom.count().unwrap();

    assert_eq!(
        deterministic_parts(&observed),
        deterministic_parts(&expected)
    );
}

#[test]
fn custom_oracle_reports_are_bit_identical_with_two_threads() {
    let (factory, ops) = instrumented_factory();
    let serial_config = base_config().with_oracle_factory(factory.clone());
    let mut serial = saturating_session(serial_config);
    let baseline = serial.count().unwrap();
    let serial_checks = ops.checks.load(Ordering::Relaxed);
    assert!(serial_checks > 0);

    let parallel_config = base_config().with_oracle_factory(factory).with_threads(2);
    let mut parallel = saturating_session(parallel_config);
    let report = parallel.count().unwrap();

    // Same factory, two worker threads: the deterministic report slice is
    // unchanged, and the parallel run routed its queries through the same
    // shared instrumentation (so per-thread oracles really came from the
    // factory).
    assert_eq!(deterministic_parts(&report), deterministic_parts(&baseline));
    assert!(ops.checks.load(Ordering::Relaxed) >= 2 * serial_checks);
}

#[test]
fn cdm_and_enumerate_also_run_on_the_custom_backend() {
    let (factory, ops) = instrumented_factory();
    let mut session = saturating_session(base_config().with_oracle_factory(factory));

    let exact = session.enumerate(10_000).unwrap();
    assert_eq!(exact.outcome, CountOutcome::Exact(240));
    let after_enum = ops.checks.load(Ordering::Relaxed);
    assert!(after_enum > 0);

    let cdm = session.count_cdm().unwrap();
    assert!(cdm.outcome.value().is_some());
    assert!(ops.checks.load(Ordering::Relaxed) > after_enum);
    // CDM encodes its XOR constraints as terms, not native XOR rows.
    assert!(ops.term_asserts.load(Ordering::Relaxed) > 0);
}

#[test]
fn structured_errors_surface_through_the_session_api() {
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(4));
    let err = Session::builder(tm)
        .project(x)
        .delta(0.0)
        .build()
        .unwrap_err();
    match err {
        CountError::Config(pact::ConfigError::DeltaOutOfRange { delta }) => {
            assert_eq!(delta, 0.0);
        }
        other => panic!("expected a typed config error, got {other:?}"),
    }

    let tm = TermManager::new();
    assert_eq!(
        Session::builder(tm).build().unwrap_err(),
        CountError::EmptyProjection
    );
}

#[test]
fn progress_events_flow_from_parallel_rounds() {
    let events = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&events);
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(8));
    let c = tm.mk_bv_const(16, 8);
    let f = tm.mk_bv_ule(c, x).unwrap();
    let mut session = Session::builder(tm)
        .assert(f)
        .project(x)
        .seed(42)
        .iterations(5)
        .threads(2)
        .on_progress(move |event| {
            if matches!(event, ProgressEvent::Round { .. }) {
                sink.fetch_add(1, Ordering::Relaxed);
            }
        })
        .build()
        .unwrap();
    let report = session.count().unwrap();
    assert!(matches!(report.outcome, CountOutcome::Approximate { .. }));
    // Every scheduled round reported in (speculative rounds may add more;
    // never fewer than the merged iteration count).
    assert!(events.load(Ordering::Relaxed) >= u64::from(report.stats.iterations));
}

/// The cell and round events of one single-threaded count, in order.
fn count_events(bound: u128, at_least: bool) -> (pact::CountReport, Vec<ProgressEvent>) {
    let events = Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(8));
    let c = tm.mk_bv_const(bound, 8);
    let f = if at_least {
        tm.mk_bv_ule(c, x).unwrap()
    } else {
        tm.mk_bv_ult(x, c).unwrap()
    };
    let mut session = Session::builder(tm)
        .assert(f)
        .project(x)
        .seed(7)
        .iterations(3)
        .on_progress(move |event| {
            if !matches!(event, ProgressEvent::Model { .. }) {
                sink.lock().unwrap().push(event.clone());
            }
        })
        .build()
        .unwrap();
    let report = session.count().unwrap();
    let events = events.lock().unwrap().clone();
    (report, events)
}

#[test]
fn every_round_numbers_its_cells_from_one() {
    // An approximate count (x ≥ 16: 240 models), an exact one (x < 12) and
    // an unsatisfiable one (x < 0).
    for (bound, at_least) in [(16, true), (12, false), (0, false)] {
        let (report, events) = count_events(bound, at_least);
        let mut cells: Vec<Vec<u64>> = Vec::new();
        let mut rounds = Vec::new();
        for event in &events {
            match *event {
                ProgressEvent::Cell {
                    round,
                    cells_in_round,
                } => {
                    let round = round as usize;
                    if cells.len() <= round {
                        cells.resize(round + 1, Vec::new());
                    }
                    cells[round].push(cells_in_round);
                }
                ProgressEvent::Round { round, estimate } => rounds.push((round, estimate)),
                _ => {}
            }
        }
        for (round, numbers) in cells.iter().enumerate() {
            let expected: Vec<u64> = (1..=numbers.len() as u64).collect();
            assert_eq!(numbers, &expected, "bound {bound}, round {round}");
        }
        let total: usize = cells.iter().map(Vec::len).sum();
        assert_eq!(total as u64, report.stats.cells_explored, "bound {bound}");
        // Every round that ran reports in once, in order; an exact count
        // ends in round 0, whose estimate is the exact count.
        match report.outcome {
            CountOutcome::Approximate { .. } => {
                let indices: Vec<u32> = rounds.iter().map(|&(round, _)| round).collect();
                assert_eq!(indices, vec![0, 1, 2]);
                let estimates = rounds.iter().filter(|(_, e)| e.is_some()).count();
                assert_eq!(estimates as u32, report.stats.iterations);
            }
            CountOutcome::Exact(n) => {
                assert_eq!(n, 12);
                assert_eq!(rounds, vec![(0, Some(12.0))]);
            }
            CountOutcome::Unsatisfiable => {
                assert_eq!(bound, 0);
                assert_eq!(rounds, vec![(0, Some(0.0))]);
            }
            other => panic!("bound {bound}: unexpected outcome {other:?}"),
        }
    }
}
