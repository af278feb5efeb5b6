//! Backend equivalence: `IncrementalContext` must be observationally
//! identical in its default mode and in rebuild mode.
//!
//! The two backends answer every `check` with the same verdict (both are
//! complete over the supported fragment), so the counting engine issues the
//! same query sequence against either — the `CountReport` must be
//! bit-identical in every deterministic field across seeds, hash families
//! and thread counts.  The only sanctioned difference is the work profile:
//! the incremental backend reports `rebuilds == 0` where the rebuild
//! backend pays one rebuild per check that follows a `pop` retiring encoded
//! assertions.

mod common;

use common::deterministic_parts;
use pact::{
    BackendSpec, CountOutcome, CountReport, CounterConfig, HashFamily, OracleFactory,
    ParallelConfig, Session,
};
use pact_benchgen::{cps_robustness, information_flow, quantitative_verification, GenParams};
use pact_ir::{Rational, Sort, TermId, TermManager};

/// The backend spec the old `incremental(bool)` toggle selected.
fn spec(incremental: bool) -> BackendSpec {
    if incremental {
        BackendSpec::Incremental
    } else {
        BackendSpec::Rebuild
    }
}

/// x ≥ 16 over `width` bits: saturates the threshold so the galloping
/// hashing rounds (and their push/pop cycles) run.
fn saturating_instance(width: u32) -> (TermManager, TermId, TermId) {
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(width));
    let c = tm.mk_bv_const(16, width);
    let f = tm.mk_bv_ule(c, x).unwrap();
    (tm, x, f)
}

fn count_with(width: u32, config: CounterConfig, incremental: bool) -> CountReport {
    let (tm, x, f) = saturating_instance(width);
    let mut session = Session::builder(tm)
        .assert(f)
        .project(x)
        .config(config)
        .backend(spec(incremental))
        .build()
        .unwrap();
    session.count().unwrap()
}

#[test]
fn backends_are_bit_identical_across_seeds_and_families() {
    for family in [HashFamily::Xor, HashFamily::Prime, HashFamily::Shift] {
        for seed in [1u64, 7, 42] {
            let config = CounterConfig {
                iterations_override: Some(3),
                seed,
                family,
                ..CounterConfig::default()
            };
            let rebuild = count_with(8, config.clone(), false);
            let incremental = count_with(8, config, true);
            assert_eq!(
                deterministic_parts(&incremental),
                deterministic_parts(&rebuild),
                "family {family}, seed {seed}"
            );
            assert_eq!(
                incremental.stats.oracle.rebuilds, 0,
                "family {family}, seed {seed}"
            );
        }
    }
}

#[test]
fn backends_are_bit_identical_with_two_threads() {
    let config = CounterConfig {
        iterations_override: Some(5),
        seed: 42,
        ..CounterConfig::default()
    };
    let serial = count_with(8, config.clone(), false);
    for incremental in [false, true] {
        let parallel = count_with(
            8,
            CounterConfig {
                parallel: pact::ParallelConfig { threads: 2 },
                ..config.clone()
            },
            incremental,
        );
        assert_eq!(
            deterministic_parts(&parallel),
            deterministic_parts(&serial),
            "incremental = {incremental}"
        );
        if incremental {
            assert_eq!(parallel.stats.oracle.rebuilds, 0);
        }
    }
}

/// Counts the quickstart's hybrid instance (8-bit b ≥ 32 with a live real
/// constraint 0 < r < 1) under `backend`.
fn hybrid_count(backend: BackendSpec) -> CountReport {
    let mut tm = TermManager::new();
    let b = tm.mk_var("b", Sort::BitVec(8));
    let r = tm.mk_var("r", Sort::Real);
    let c = tm.mk_bv_const(32, 8);
    let f1 = tm.mk_bv_ule(c, b).unwrap();
    let zero = tm.mk_real_const(Rational::ZERO);
    let one = tm.mk_real_const(Rational::ONE);
    let f2 = tm.mk_real_lt(zero, r).unwrap();
    let f3 = tm.mk_real_lt(r, one).unwrap();
    let mut session = Session::builder(tm)
        .assert_all(&[f1, f2, f3])
        .project(b)
        .seed(1)
        .iterations(5)
        .backend(backend)
        .build()
        .unwrap();
    session.count().unwrap()
}

#[test]
fn incremental_backend_survives_a_quickstart_scale_count_without_rebuilds() {
    // The incremental backend must carry a full multi-round count of the
    // hybrid instance with zero rebuilds while reproducing the reference
    // report bit-for-bit — the acceptance criterion of the
    // incremental-encoder milestone.
    let rebuild = hybrid_count(spec(false));
    let incremental = hybrid_count(spec(true));
    assert!(matches!(
        incremental.outcome,
        CountOutcome::Approximate { .. }
    ));
    assert_eq!(
        deterministic_parts(&incremental),
        deterministic_parts(&rebuild)
    );
    assert_eq!(incremental.stats.oracle.rebuilds, 0);
    // The galloping search really did pop frames: the reference backend paid
    // a rebuild for each of them.
    assert!(rebuild.stats.oracle.rebuilds > 0);
    assert!(incremental.stats.oracle_seconds >= 0.0);
}

#[test]
fn every_backend_reports_its_oracle_work_on_a_hybrid_count() {
    // The SAT and simplex work counters reach the report under every
    // backend: one front-end `check` per oracle call, at least one SAT
    // call each, and simplex checks for the live real constraint.
    for backend in [
        BackendSpec::Rebuild,
        BackendSpec::Incremental,
        BackendSpec::Portfolio { workers: 2 },
        BackendSpec::Cube {
            depth: 2,
            workers: 2,
        },
        BackendSpec::Adaptive,
    ] {
        let stats = hybrid_count(backend).stats;
        assert_eq!(stats.oracle.checks, stats.oracle_calls, "{backend:?}");
        assert!(stats.oracle.sat_calls >= stats.oracle_calls, "{backend:?}");
        assert!(stats.oracle.theory_checks > 0, "{backend:?}");
    }
}

#[test]
fn cdm_and_enumeration_agree_across_backends() {
    let run = |incremental: bool| {
        let (tm, x, f) = saturating_instance(8);
        let mut session = Session::builder(tm)
            .assert(f)
            .project(x)
            .seed(2)
            .iterations(3)
            .backend(spec(incremental))
            .build()
            .unwrap();
        let exact = session.enumerate(10_000).unwrap();
        let cdm = session.count_cdm().unwrap();
        (exact, cdm)
    };
    let (exact_r, cdm_r) = run(false);
    let (exact_i, cdm_i) = run(true);
    assert_eq!(exact_i.outcome, CountOutcome::Exact(240));
    assert_eq!(deterministic_parts(&exact_i), deterministic_parts(&exact_r));
    assert_eq!(deterministic_parts(&cdm_i), deterministic_parts(&cdm_r));
    assert_eq!(exact_i.stats.oracle.rebuilds, 0);
    assert_eq!(cdm_i.stats.oracle.rebuilds, 0);
}

#[test]
fn unsatisfiable_and_exact_paths_agree_across_backends() {
    for (bound, expected) in [
        (0u128, CountOutcome::Unsatisfiable),
        (12, CountOutcome::Exact(12)),
    ] {
        let run = |incremental: bool| {
            let mut tm = TermManager::new();
            let x = tm.mk_var("x", Sort::BitVec(6));
            let c = tm.mk_bv_const(bound, 6);
            let f = tm.mk_bv_ult(x, c).unwrap();
            let mut session = Session::builder(tm)
                .assert(f)
                .project(x)
                .seed(3)
                .iterations(3)
                .backend(spec(incremental))
                .build()
                .unwrap();
            session.count().unwrap()
        };
        let rebuild = run(false);
        let incremental = run(true);
        assert_eq!(incremental.outcome, expected);
        assert_eq!(
            deterministic_parts(&incremental),
            deterministic_parts(&rebuild)
        );
    }
}

#[test]
fn rebuild_reference_enumeration_keeps_its_search() {
    // The benchmark's reference count: `enumerate_with` on the rebuild
    // backend with one thread, over a generated instance printed to
    // SMT-LIB and parsed back.  The enumeration never pops, so rebuild
    // mode never re-encodes and its SAT search must match the pinned
    // figures, captured once a blocking clause falsified at its top level
    // became the next check's first conflict.
    // (instance, count, checks, SAT calls, conflicts)
    let pins = [
        (
            cps_robustness(&GenParams {
                scale: 1,
                width: 9,
                seed: 3,
            }),
            438,
            439,
            439,
            232,
        ),
        (
            information_flow(&GenParams {
                scale: 1,
                width: 9,
                seed: 5,
            }),
            512,
            513,
            513,
            255,
        ),
    ];
    for (instance, count, checks, sat_calls, conflicts) in pins {
        let mut tm = TermManager::new();
        let parsed = pact_ir::parser::parse_script(&mut tm, &instance.to_smtlib()).unwrap();
        let mut session = Session::builder(tm)
            .assert_all(&parsed.asserts)
            .project_all(&parsed.projection)
            .build()
            .unwrap();
        let config = CounterConfig {
            oracle_factory: OracleFactory::from_spec(BackendSpec::Rebuild),
            parallel: ParallelConfig { threads: 1 },
            ..CounterConfig::default()
        };
        let report = session.enumerate_with(1 << 16, &config).unwrap();
        let name = &instance.name;
        assert_eq!(report.outcome, CountOutcome::Exact(count), "{name}");
        let oracle = report.stats.oracle;
        assert_eq!(oracle.checks, checks, "{name}");
        assert_eq!(oracle.sat_calls, sat_calls, "{name}");
        assert_eq!(oracle.conflicts, conflicts, "{name}");
        assert_eq!(oracle.rebuilds, 0, "{name}");
    }
}

#[test]
fn incremental_xor_counts_keep_their_search() {
    // The benchmark's timed counts: `pact_xor` (ε 0.8, δ 0.2, 3 outer
    // iterations, one thread) on the default incremental backend, over
    // generated instances of the shapes it times, printed to SMT-LIB and
    // parsed back.  Each count's oracle and SAT work is pinned: a kernel
    // change that claims to keep the search must keep every figure.
    // Captured when a pop stopped re-encoding frames that allocate no SAT
    // variables (XOR rows and blocked models), so these counts keep one
    // solver throughout; the estimates, oracle calls and cells predate
    // that, and the estimates also predate round 0's gallop from two XOR
    // hashes.
    // (instance, hash seed, estimate, oracle calls, cells, SAT calls,
    // conflicts, compactions)
    let pins = [
        (
            cps_robustness(&GenParams {
                scale: 1,
                width: 9,
                seed: 21,
            }),
            0x5844_4952_u64,
            392.0,
            272,
            7,
            272,
            225,
            0,
        ),
        (
            quantitative_verification(&GenParams {
                scale: 2,
                width: 10,
                seed: 22,
            }),
            0x0bad_cafe_u64,
            784.0,
            295,
            7,
            295,
            337,
            0,
        ),
    ];
    for (instance, seed, estimate, oracle_calls, cells, sat_calls, conflicts, compactions) in pins {
        let mut tm = TermManager::new();
        let parsed = pact_ir::parser::parse_script(&mut tm, &instance.to_smtlib()).unwrap();
        let mut session = Session::builder(tm)
            .assert_all(&parsed.asserts)
            .project_all(&parsed.projection)
            .build()
            .unwrap();
        let config = CounterConfig {
            epsilon: 0.8,
            delta: 0.2,
            family: HashFamily::Xor,
            seed,
            iterations_override: Some(3),
            parallel: ParallelConfig { threads: 1 },
            ..CounterConfig::default()
        };
        let report = session.count_with(&config).unwrap();
        let name = &instance.name;
        let stats = &report.stats;
        assert!(
            matches!(report.outcome, CountOutcome::Approximate { .. }),
            "{name}"
        );
        assert_eq!(report.outcome.value(), Some(estimate), "{name}");
        assert_eq!(stats.oracle_calls, oracle_calls, "{name}");
        assert_eq!(stats.cells_explored, cells, "{name}");
        assert_eq!(stats.oracle.sat_calls, sat_calls, "{name}");
        assert_eq!(stats.oracle.conflicts, conflicts, "{name}");
        assert_eq!(stats.oracle.compactions, compactions, "{name}");
        assert_eq!(stats.oracle.rebuilds, 0, "{name}");
    }
}
