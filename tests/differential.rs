//! Differential and ground-truth testing: every oracle backend pinned to
//! every other, and all of them pinned to brute force.
//!
//! Three layers, from cheapest to strongest:
//!
//! 1. **Differential** — proptest-generated instances per Table I logic
//!    (via `benchgen`) counted under the rebuild, incremental, portfolio,
//!    cube and adaptive backends × seeds × `ParallelConfig { threads: 1, 2 }`,
//!    asserting the deterministic report slice is bit-identical
//!    everywhere.  The slice is the established parity contract of
//!    `tests/backends.rs`: outcome (including the floating-point
//!    estimate), `oracle_calls`, `cells_explored`, `iterations` and
//!    `final_hash_count`; wall-clock fields and the sanctioned per-backend
//!    work profile (`rebuilds`, portfolio win counts, conquered-cube
//!    tallies) are excluded.
//! 2. **Ground truth** — brute-force model enumeration over tiny projected
//!    domains (≤ 6 bits, plus one 7-bit saturating instance), asserting
//!    every backend's exact count *equals* the brute-forced count, every
//!    backend's approximate estimate lies inside the `(ε, δ)` bounds, and
//!    enumeration returns *exactly* the brute-forced model set.
//! 3. Both layers ride the same five-backend sweep (the adaptive policy
//!    oracle joined it when it landed), so adding another backend to
//!    [`factories`] extends the whole harness for free.

mod common;

use common::deterministic_parts;
use pact::{BackendSpec, CountOutcome, CountReport, HashFamily, Oracle, OracleFactory, Session};
use pact_benchgen::{generate_for_logic, GenParams, Instance};
use pact_ir::logic::Logic;
use pact_ir::{Sort, TermId, TermManager};
use pact_solver::{SolverConfig, SolverResult};
use proptest::prelude::*;

/// The backends under differential test, labelled for failure messages.
fn factories() -> Vec<(&'static str, OracleFactory)> {
    vec![
        ("rebuild", OracleFactory::from_spec(BackendSpec::Rebuild)),
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
                depth: 3,
                workers: 2,
            }),
        ),
        ("adaptive", OracleFactory::from_spec(BackendSpec::Adaptive)),
    ]
}

fn count_report(
    instance: &Instance,
    factory: OracleFactory,
    seed: u64,
    threads: usize,
) -> CountReport {
    let mut session = Session::builder(instance.tm.clone())
        .assert_all(&instance.asserts)
        .project_all(&instance.projection)
        .seed(seed)
        .iterations(2)
        .threads(threads)
        .oracle_factory(factory)
        .build()
        .expect("generated instances declare a projection");
    session.count().expect("generated instances are supported")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline differential property: for random small instances of a
    /// random Table I logic, all backends × thread counts produce the same
    /// deterministic report slice for the same count seed.
    #[test]
    fn reports_are_bit_identical_across_backends_and_threads(
        case in (0usize..6, 4u32..=5, 0u64..1_000, 0u64..64),
    ) {
        let (logic_idx, width, instance_seed, count_seed) = case;
        let logic = Logic::TABLE_ONE[logic_idx];
        let params = GenParams { scale: 1, width, seed: instance_seed };
        let instance = generate_for_logic(logic, &params);
        let reference = count_report(&instance, OracleFactory::default(), count_seed, 1);
        for (name, factory) in factories() {
            for threads in [1usize, 2] {
                let report = count_report(&instance, factory.clone(), count_seed, threads);
                prop_assert_eq!(
                    deterministic_parts(&report),
                    deterministic_parts(&reference),
                    "{} (logic {}, width {}, instance seed {}, count seed {}, threads {})",
                    name, logic.name(), width, instance_seed, count_seed, threads
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ground truth: brute force over tiny projected domains.
// ---------------------------------------------------------------------------

/// A hand-built tiny instance with its human-verified description.
struct TinyInstance {
    name: &'static str,
    tm: TermManager,
    asserts: Vec<TermId>,
    projection: Vec<TermId>,
}

/// The ≤ 7-projected-bit instances the ground-truth layer sweeps.
fn tiny_instances() -> Vec<TinyInstance> {
    let mut out = Vec::new();

    // 25 models: x ≥ 7 over 5 bits.
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(5));
    let seven = tm.mk_bv_const(7, 5);
    let f = tm.mk_bv_ule(seven, x).unwrap();
    out.push(TinyInstance {
        name: "bv-interval",
        tm,
        asserts: vec![f],
        projection: vec![x],
    });

    // 28 models: x < y over two 3-bit variables (6-bit projection).
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(3));
    let y = tm.mk_var("y", Sort::BitVec(3));
    let f = tm.mk_bv_ult(x, y).unwrap();
    out.push(TinyInstance {
        name: "bv-pair",
        tm,
        asserts: vec![f],
        projection: vec![x, y],
    });

    // 13 models: hybrid — b ≥ 3 over 4 bits with a live real constraint
    // (the continuous part is always extensible, so it never restricts the
    // projected count).
    let mut tm = TermManager::new();
    let b = tm.mk_var("b", Sort::BitVec(4));
    let r = tm.mk_var("r", Sort::Real);
    let three = tm.mk_bv_const(3, 4);
    let f1 = tm.mk_bv_ule(three, b).unwrap();
    let zero = tm.mk_real_const(pact_ir::Rational::ZERO);
    let one = tm.mk_real_const(pact_ir::Rational::ONE);
    let f2 = tm.mk_real_lt(zero, r).unwrap();
    let f3 = tm.mk_real_lt(r, one).unwrap();
    out.push(TinyInstance {
        name: "hybrid",
        tm,
        asserts: vec![f1, f2, f3],
        projection: vec![b],
    });

    // 112 models: x ≥ 16 over 7 bits — above the ε = 0.8 threshold (73),
    // so every backend takes the hashing path and the (ε, δ) bound is
    // exercised for real.
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(7));
    let c = tm.mk_bv_const(16, 7);
    let f = tm.mk_bv_ule(c, x).unwrap();
    out.push(TinyInstance {
        name: "bv-saturating",
        tm,
        asserts: vec![f],
        projection: vec![x],
    });

    out
}

/// Ground truth by definition: enumerate *every* assignment of the
/// projection variables and ask a plain oracle whether it extends to a full
/// model.  No blocking clauses, no hashing, no galloping — a completely
/// independent code path from the counting engine.
fn brute_force_models(instance: &TinyInstance) -> Vec<Vec<u128>> {
    let mut tm = instance.tm.clone();
    let widths: Vec<u32> = instance
        .projection
        .iter()
        .map(|&v| match tm.sort(v) {
            Sort::BitVec(w) => w,
            Sort::Bool => 1,
            other => panic!("unsupported projection sort {other}"),
        })
        .collect();
    let total_bits: u32 = widths.iter().sum();
    assert!(total_bits <= 7, "brute force caps at 7 projected bits");

    // Rebuild mode: every check after a `pop` re-encodes into a fresh
    // solver, so the reference never relies on frame retirement.
    let mut ctx = pact_solver::IncrementalContext::rebuilding(SolverConfig::default());
    for &v in &instance.projection {
        ctx.track_var(v);
    }
    for &f in &instance.asserts {
        ctx.assert_term(f);
    }

    let mut models = Vec::new();
    for assignment in 0u128..(1 << total_bits) {
        // Slice the assignment's bits into per-variable values.
        let mut shift = 0;
        let values: Vec<u128> = widths
            .iter()
            .map(|&w| {
                let value = (assignment >> shift) & ((1 << w) - 1);
                shift += w;
                value
            })
            .collect();
        ctx.push();
        for ((&var, &value), &width) in instance.projection.iter().zip(&values).zip(&widths) {
            let constant = tm.mk_bv_const(value, width);
            let eq = tm.mk_eq(var, constant);
            ctx.assert_term(eq);
        }
        let verdict = ctx.check(&mut tm).expect("tiny instances are supported");
        ctx.pop();
        if verdict == SolverResult::Sat {
            models.push(values);
        }
    }
    models
}

#[test]
fn exact_counts_match_brute_force_on_every_backend() {
    for instance in tiny_instances() {
        let truth = brute_force_models(&instance);
        let epsilon = 0.8;
        for (name, factory) in factories() {
            let mut session = Session::builder(instance.tm.clone())
                .assert_all(&instance.asserts)
                .project_all(&instance.projection)
                .seed(11)
                .iterations(9)
                .epsilon(epsilon)
                .oracle_factory(factory)
                .build()
                .unwrap();
            let report = session.count().unwrap();
            match report.outcome {
                CountOutcome::Exact(n) => {
                    assert_eq!(
                        n as usize,
                        truth.len(),
                        "{}/{name}: exact count diverges from brute force",
                        instance.name
                    );
                }
                CountOutcome::Approximate { estimate, .. } => {
                    // The (ε, δ) contract: the exact count lies inside the
                    // (1 + ε) band around the estimate (deterministic here
                    // because the seed is fixed).
                    let truth = truth.len() as f64;
                    assert!(
                        truth <= estimate * (1.0 + epsilon) && estimate / (1.0 + epsilon) <= truth,
                        "{}/{name}: estimate {estimate} outside (1+ε) of {truth}",
                        instance.name
                    );
                }
                CountOutcome::Unsatisfiable => {
                    assert!(
                        truth.is_empty(),
                        "{}/{name}: reported unsat but brute force found models",
                        instance.name
                    );
                }
                CountOutcome::Timeout => {
                    panic!("{}/{name}: unexpected timeout", instance.name)
                }
            }
        }
    }
}

/// Counts `instance` with `family` on `spec` (seed 11, 9 iterations,
/// ε = 0.8).
fn count_tiny(instance: &TinyInstance, family: HashFamily, spec: BackendSpec) -> CountReport {
    let mut session = Session::builder(instance.tm.clone())
        .assert_all(&instance.asserts)
        .project_all(&instance.projection)
        .family(family)
        .seed(11)
        .iterations(9)
        .epsilon(0.8)
        .backend(spec)
        .build()
        .unwrap();
    session.count().unwrap()
}

#[test]
fn aggressive_compaction_preserves_bit_identical_reports() {
    // Word-level hashes allocate gates in every cell's frame, so on the
    // default backend each pop of such a cell re-encodes the live frames
    // into a fresh solver.  That changes the SAT search trajectory (learnt
    // clauses die with the old solver) but never the counting trajectory:
    // cell sizes are exact bounded enumerations, so the deterministic
    // report slice must match the rebuild backend's bit for bit.  The tiny
    // instances finish each round in one or two cells; a wider instance
    // (496 models over 9 bits, ~6.8× the ε = 0.8 saturation threshold)
    // forces the galloping search through several saturated cells per
    // round, each re-encode replaying a live formula with checks ahead.
    let mut churn_tm = TermManager::new();
    let x = churn_tm.mk_var("x", Sort::BitVec(9));
    let c = churn_tm.mk_bv_const(16, 9);
    let f = churn_tm.mk_bv_ule(c, x).unwrap();
    let churn = TinyInstance {
        name: "bv-churn",
        tm: churn_tm,
        asserts: vec![f],
        projection: vec![x],
    };

    let mut total_compactions = 0;
    for instance in tiny_instances().into_iter().chain([churn]) {
        for family in [HashFamily::Prime, HashFamily::Shift] {
            let reference = count_tiny(&instance, family, BackendSpec::Rebuild);
            let compacted = count_tiny(&instance, family, BackendSpec::Incremental);
            assert_eq!(
                deterministic_parts(&compacted),
                deterministic_parts(&reference),
                "{} ({family:?}): compaction changed the deterministic report slice",
                instance.name
            );
            assert_eq!(
                compacted.stats.oracle.rebuilds, 0,
                "{} ({family:?}): a compaction was miscounted as a rebuild",
                instance.name
            );
            total_compactions += compacted.stats.oracle.compactions;
        }
    }
    // The sweep must actually have exercised the re-encode somewhere, or
    // the equality above proves nothing.
    assert!(
        total_compactions > 0,
        "no instance ever triggered a compaction"
    );
}

#[test]
fn interning_stress_is_bit_identical_and_serves_preprocessing_from_cache() {
    // Satellite of the hash-consing refactor: an instance whose asserts
    // share a deep sub-DAG (a folded spine re-referenced by every layer).
    // Interning must collapse the rebuild of the spine to zero fresh
    // allocations, every backend must produce the bit-identical
    // deterministic report slice, and every backend must serve at least one
    // preprocessing result from its term-id-keyed cache: the galloping
    // search re-asserts structurally identical terms across checks, which
    // hash consing resolves to previously-seen ids.  The count hashes with
    // `pact_prime`, whose hash constraints are such terms; `pact_xor` rows
    // are not terms, and the default backend keeps its solver (and never
    // re-preprocesses) across frames that hold only XOR rows and blocks.
    let build_spine = |tm: &mut TermManager, x: TermId, y: TermId| -> Vec<TermId> {
        let mut spine = tm.mk_bv_xor(x, y).unwrap();
        for i in 0..8u128 {
            let c = tm.mk_bv_const(3 * i + 1, 6);
            let mixed = tm.mk_bv_add(spine, c).unwrap();
            let rotated = tm.mk_bv_xor(mixed, x).unwrap();
            spine = tm.mk_bv_and(rotated, mixed).unwrap();
        }
        let cap = tm.mk_bv_const(61, 6);
        let lo = tm.mk_bv_const(2, 6);
        vec![
            tm.mk_bv_ule(spine, cap).unwrap(),
            tm.mk_bv_ule(lo, x).unwrap(),
        ]
    };
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(6));
    let y = tm.mk_var("y", Sort::BitVec(6));
    let asserts = build_spine(&mut tm, x, y);
    // Hash consing: rebuilding the same spine allocates nothing new and
    // resolves to the same roots.
    let interned = tm.len();
    let rebuilt = build_spine(&mut tm, x, y);
    assert_eq!(rebuilt, asserts, "identical construction, identical ids");
    assert_eq!(tm.len(), interned, "a rebuild must not grow the store");

    let run = |factory: &OracleFactory| {
        let mut session = Session::builder(tm.clone())
            .assert_all(&asserts)
            .project_all(&[x, y])
            .family(HashFamily::Prime)
            .seed(7)
            .iterations(3)
            .epsilon(0.8)
            .oracle_factory(factory.clone())
            .build()
            .unwrap();
        session.count().unwrap()
    };
    let reference = run(&OracleFactory::default());
    for (name, factory) in factories() {
        let report = run(&factory);
        assert_eq!(
            deterministic_parts(&report),
            deterministic_parts(&reference),
            "{name}: interning-stress report diverged"
        );
        assert!(
            report.stats.oracle.preprocess_cache_hits > 0,
            "{name}: expected preprocessing cache hits, got 0"
        );
        // terms_interned stamps the final store size: at least the formula
        // itself, plus whatever preprocessing interned on the main manager
        // (which varies by backend — the cube front-end, say, interns its
        // lookahead decompositions — so only the floor is portable).
        assert!(
            report.stats.terms_interned >= interned as u64,
            "{name}: terms_interned {} below the {} formula terms",
            report.stats.terms_interned,
            interned
        );
    }
}

#[test]
fn enumeration_returns_exactly_the_brute_forced_model_set() {
    for instance in tiny_instances() {
        let mut truth = brute_force_models(&instance);
        truth.sort();
        for (name, factory) in factories() {
            // Drive the oracle directly with the saturating counter's
            // block-and-repeat pattern, collecting the projected models.
            let mut tm = instance.tm.clone();
            let mut oracle = factory.build(SolverConfig::default());
            for &v in &instance.projection {
                oracle.track_var(v);
            }
            for &f in &instance.asserts {
                oracle.assert_term(f);
            }
            let mut found: Vec<Vec<u128>> = Vec::new();
            loop {
                match oracle.check(&mut tm).unwrap() {
                    SolverResult::Sat => {
                        let model = oracle
                            .projected_model(&tm, &instance.projection)
                            .expect("model after SAT");
                        let values: Vec<u128> = model.iter().map(|v| v.as_u128()).collect();
                        assert!(
                            !found.contains(&values),
                            "{}/{name}: model repeated",
                            instance.name
                        );
                        oracle.block_model(&mut tm, &instance.projection, &model);
                        found.push(values);
                    }
                    SolverResult::Unsat => break,
                    SolverResult::Unknown => panic!("{}/{name}: unknown", instance.name),
                }
            }
            found.sort();
            assert_eq!(
                found, truth,
                "{}/{name}: enumerated model set diverges from brute force",
                instance.name
            );
            // The session-level enumerator agrees on the count.
            let mut session = Session::builder(instance.tm.clone())
                .assert_all(&instance.asserts)
                .project_all(&instance.projection)
                .oracle_factory(factory)
                .build()
                .unwrap();
            let report = session.enumerate(10_000).unwrap();
            let expected = if truth.is_empty() {
                CountOutcome::Unsatisfiable
            } else {
                CountOutcome::Exact(truth.len() as u64)
            };
            assert_eq!(report.outcome, expected, "{}/{name}", instance.name);
        }
    }
}
