//! Property-based tests on the workspace's core invariants.
//!
//! These cover the load-bearing equivalences of the reproduction:
//! the bit-blasted oracle must agree with the reference evaluator, hash
//! constraints must partition the space, rational arithmetic must behave like
//! arithmetic, and the exact counting path must match brute force.

use std::collections::HashMap;

use proptest::prelude::*;

use pact::{median, pact_count, relative_error, BackendSpec, CountOutcome, CounterConfig};
use pact_hash::{generate, HashFamily};
use pact_ir::{BvValue, Rational, Sort, TermId, TermManager, Value};
use pact_solver::{IncrementalContext, SolverResult};
use rand::{rngs::StdRng, SeedableRng};

// ---------------------------------------------------------------------------
// Rational arithmetic
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rational_addition_is_commutative_and_associative(
        a in -1000i128..1000, b in 1i128..50, c in -1000i128..1000, d in 1i128..50,
        e in -1000i128..1000, f in 1i128..50,
    ) {
        let x = Rational::new(a, b);
        let y = Rational::new(c, d);
        let z = Rational::new(e, f);
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!((x + y) + z, x + (y + z));
        prop_assert_eq!(x - x, Rational::ZERO);
    }

    #[test]
    fn rational_ordering_is_consistent_with_subtraction(
        a in -1000i128..1000, b in 1i128..50, c in -1000i128..1000, d in 1i128..50,
    ) {
        let x = Rational::new(a, b);
        let y = Rational::new(c, d);
        prop_assert_eq!(x < y, (x - y).is_negative());
        prop_assert_eq!(x == y, (x - y).is_zero());
    }

    #[test]
    fn rational_parse_display_roundtrip(a in -10_000i128..10_000, b in 1i128..1000) {
        let x = Rational::new(a, b);
        prop_assert_eq!(Rational::parse(&x.to_string()), Some(x));
    }
}

// ---------------------------------------------------------------------------
// Bit-vector value semantics
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bv_extract_concat_roundtrip(value in any::<u64>(), split in 1u32..31) {
        let v = BvValue::new(value as u128, 32);
        let hi = v.extract(31, split);
        let lo = v.extract(split - 1, 0);
        prop_assert_eq!(hi.concat(&lo), v);
    }

    #[test]
    fn bv_arithmetic_matches_wrapping_semantics(a in any::<u16>(), b in any::<u16>()) {
        let x = BvValue::new(a as u128, 16);
        let y = BvValue::new(b as u128, 16);
        prop_assert_eq!(x.wrapping_add(&y).as_u128(), a.wrapping_add(b) as u128);
        prop_assert_eq!(x.wrapping_mul(&y).as_u128(), a.wrapping_mul(b) as u128);
        prop_assert_eq!(x.xor(&y).as_u128(), (a ^ b) as u128);
    }
}

// ---------------------------------------------------------------------------
// Oracle vs. reference evaluator
// ---------------------------------------------------------------------------

/// A small random BV formula over one 5-bit variable, built from a seed.
fn build_formula(tm: &mut TermManager, x: TermId, spec: &[(u8, u8)]) -> Vec<TermId> {
    let width = 5;
    let mut asserts = Vec::new();
    for &(op, raw) in spec {
        let value = (raw % 32) as u128;
        let c = tm.mk_bv_const(value, width);
        let t = match op % 5 {
            0 => tm.mk_bv_ule(c, x).unwrap(),
            1 => tm.mk_bv_ult(x, c).unwrap(),
            2 => {
                let masked = tm.mk_bv_and(x, c).unwrap();
                let zero = tm.mk_bv_const(0, width);
                let eq = tm.mk_eq(masked, zero);
                tm.mk_not(eq)
            }
            3 => {
                let sum = tm.mk_bv_add(x, c).unwrap();
                let bound = tm.mk_bv_const(24, width);
                tm.mk_bv_ule(sum, bound).unwrap()
            }
            _ => {
                let eq = tm.mk_eq(x, c);
                tm.mk_not(eq)
            }
        };
        asserts.push(t);
    }
    asserts
}

fn brute_force(tm: &TermManager, asserts: &[TermId], x: TermId) -> u64 {
    (0..32u128)
        .filter(|&v| {
            let mut asg = HashMap::new();
            asg.insert(x, Value::Bv(BvValue::new(v, 5)));
            asserts
                .iter()
                .all(|&f| tm.eval(f, &asg) == Some(Value::Bool(true)))
        })
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exact_counting_matches_brute_force(spec in proptest::collection::vec((0u8..5, any::<u8>()), 1..4)) {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(5));
        let asserts = build_formula(&mut tm, x, &spec);
        let expected = brute_force(&tm, &asserts, x);
        let report = pact_count(&mut tm, &asserts, &[x], &CounterConfig::fast()).unwrap();
        let outcome = report.outcome;
        match outcome {
            CountOutcome::Exact(n) => prop_assert_eq!(n, expected),
            CountOutcome::Unsatisfiable => prop_assert_eq!(expected, 0),
            other => prop_assert!(false, "unexpected outcome {:?}", other),
        }
    }

    #[test]
    fn oracle_models_satisfy_the_reference_evaluator(spec in proptest::collection::vec((0u8..5, any::<u8>()), 1..4)) {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(5));
        let asserts = build_formula(&mut tm, x, &spec);
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        for &a in &asserts {
            ctx.assert_term(a);
        }
        match ctx.check(&mut tm).unwrap() {
            SolverResult::Sat => {
                let v = ctx.model_value(&tm, x).unwrap();
                let mut asg = HashMap::new();
                asg.insert(x, v);
                for &a in &asserts {
                    prop_assert_eq!(tm.eval(a, &asg), Some(Value::Bool(true)));
                }
            }
            SolverResult::Unsat => {
                prop_assert_eq!(brute_force(&tm, &asserts, x), 0);
            }
            SolverResult::Unknown => prop_assert!(false, "unexpected unknown"),
        }
    }
}

// ---------------------------------------------------------------------------
// Hash-consed term store invariants
// ---------------------------------------------------------------------------
//
// The term manager interns terms by `(op, children, sort)`: structural
// identity *is* id identity.  Everything downstream — preprocess caches
// keyed on term ids, bit-identical parallel rounds over shared snapshots —
// leans on the three invariants pinned here.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn building_the_same_term_twice_interns_to_the_same_id(
        spec in proptest::collection::vec((0u8..5, any::<u8>()), 1..6),
    ) {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(5));
        let first = build_formula(&mut tm, x, &spec);
        let size = tm.len();
        let second = build_formula(&mut tm, x, &spec);
        prop_assert_eq!(&first, &second, "identical construction must intern to identical ids");
        prop_assert_eq!(tm.len(), size, "the second build must allocate nothing");
    }

    #[test]
    fn interned_terms_survive_a_print_parse_round_trip(
        spec in proptest::collection::vec((0u8..5, any::<u8>()), 1..6),
    ) {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(5));
        let asserts = build_formula(&mut tm, x, &spec);
        for &t in &asserts {
            let rendered = pact_ir::printer::term_to_smtlib(&tm, t);
            // Re-parsing the rendering resolves to the *existing* interned
            // node — not a structurally equal copy with a fresh id.
            let reparsed = pact_ir::parser::parse_term(&mut tm, &rendered).unwrap();
            prop_assert_eq!(reparsed, t, "round-trip must hit the interned node");
            prop_assert_eq!(
                pact_ir::printer::term_to_smtlib(&tm, reparsed),
                rendered,
                "printing is stable across the round-trip"
            );
        }
    }

    #[test]
    fn snapshot_sharing_across_threads_observes_identical_terms(
        spec in proptest::collection::vec((0u8..5, any::<u8>()), 1..6),
    ) {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(5));
        let asserts = build_formula(&mut tm, x, &spec);
        let rendered: Vec<String> = asserts
            .iter()
            .map(|&t| pact_ir::printer::term_to_smtlib(&tm, t))
            .collect();
        let snapshot = tm.snapshot();
        // Each thread opens its own manager over the shared snapshot,
        // renders the frozen terms, and rebuilds the formula from scratch:
        // both the observations and the fresh allocations must be identical
        // everywhere, or parallel rounds could not be bit-reproducible.
        let observations: Vec<(Vec<String>, Vec<TermId>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let snapshot = std::sync::Arc::clone(&snapshot);
                    let spec = spec.clone();
                    let asserts = &asserts;
                    scope.spawn(move || {
                        let mut local = TermManager::from_snapshot(snapshot);
                        let views: Vec<String> = asserts
                            .iter()
                            .map(|&t| pact_ir::printer::term_to_smtlib(&local, t))
                            .collect();
                        let rebuilt = build_formula(&mut local, x, &spec);
                        (views, rebuilt)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("snapshot reader panicked"))
                .collect()
        });
        for (views, rebuilt) in observations {
            prop_assert_eq!(&views, &rendered, "shared snapshot must render identically");
            prop_assert_eq!(&rebuilt, &asserts, "rebuilds over the snapshot reuse interned ids");
        }
    }
}

// ---------------------------------------------------------------------------
// Accuracy metrics: relative_error and median edge cases
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn relative_error_is_finite_symmetric_and_nonnegative_on_positive_counts(
        a in 1u64..1_000_000_000, b in 1u64..1_000_000_000,
    ) {
        // Fractional counts (estimates are rarely integers).
        let x = a as f64 / 16.0;
        let y = b as f64 / 16.0;
        let e1 = relative_error(x, y).expect("positive counts are in the domain");
        let e2 = relative_error(y, x).expect("positive counts are in the domain");
        prop_assert!(e1.is_finite() && !e1.is_nan());
        prop_assert!(e1 >= 0.0);
        // The metric is symmetric by construction: max(b/s, s/b) − 1.
        prop_assert!((e1 - e2).abs() <= 1e-12 * e1.max(1.0));
        if a == b {
            prop_assert_eq!(e1, 0.0);
        }
    }

    #[test]
    fn relative_error_rejects_zero_and_negative_counts(
        positive in 1u64..1_000_000, negative in 1i64..1_000_000,
    ) {
        let pos = positive as f64;
        let neg = -(negative as f64);
        // Zero on exactly one side: undefined.
        prop_assert_eq!(relative_error(0.0, pos), None);
        prop_assert_eq!(relative_error(pos, 0.0), None);
        // Negative counts: undefined on either side.
        prop_assert_eq!(relative_error(neg, pos), None);
        prop_assert_eq!(relative_error(pos, neg), None);
        prop_assert_eq!(relative_error(neg, neg), None);
        // Two zero counts are a perfect match.
        prop_assert_eq!(relative_error(0.0, 0.0), Some(0.0));
    }

    #[test]
    fn median_returns_a_nan_free_element_at_the_lower_middle(
        raw in proptest::collection::vec(0u32..1_000_000, 1..40),
    ) {
        let values: Vec<f64> = raw.iter().map(|&v| v as f64 / 8.0).collect();
        let m = median(&values).expect("non-empty list has a median");
        prop_assert!(!m.is_nan());
        // The median is always one of the inputs (no averaging for
        // even-length lists: ApproxMC-style lower median)...
        prop_assert!(values.contains(&m));
        // ...specifically the element at index (n-1)/2 of the sorted list,
        // for odd and even lengths alike.
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN inputs"));
        prop_assert_eq!(m, sorted[(sorted.len() - 1) / 2]);
        // Single-element lists are their own median.
        if values.len() == 1 {
            prop_assert_eq!(m, values[0]);
        }
        // At least half the values are >= the median and at least half <=.
        let le = values.iter().filter(|&&v| v <= m).count();
        let ge = values.iter().filter(|&&v| v >= m).count();
        prop_assert!(2 * le >= values.len());
        prop_assert!(2 * ge >= values.len());
    }
}

// ---------------------------------------------------------------------------
// BackendSpec Display/FromStr round-trip
// ---------------------------------------------------------------------------
//
// The service front-end parses backend specs out of untrusted request
// payloads, so the spec grammar is load-bearing: every spec must survive a
// Display → FromStr round-trip bit-identically, and malformed inputs must
// fail with a readable diagnostic rather than a silent default.

/// Decodes an arbitrary `(kind, depth, workers)` triple into a spec,
/// covering every variant including the parameterised forms.  Parameters
/// are expected pre-clamped to the valid ranges — out-of-range values are
/// a parse *error* now, pinned separately below.
fn backend_spec_from(kind: usize, depth: usize, workers: usize) -> BackendSpec {
    match kind % 5 {
        0 => BackendSpec::Rebuild,
        1 => BackendSpec::Incremental,
        2 => BackendSpec::Portfolio { workers },
        3 => BackendSpec::Cube { depth, workers },
        _ => BackendSpec::Adaptive,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn backend_spec_display_fromstr_roundtrip(
        kind in 0usize..5, depth in 1usize..=6, workers in 1usize..=8,
    ) {
        let spec = backend_spec_from(kind, depth, workers);
        let rendered = spec.to_string();
        prop_assert_eq!(rendered.parse::<BackendSpec>(), Ok(spec));
        // Rendering is stable: round-tripping the parse renders identically.
        let reparsed: BackendSpec = rendered.parse().unwrap();
        prop_assert_eq!(reparsed.to_string(), rendered);
    }

    #[test]
    fn backend_spec_rejects_malformed_parameters_readably(
        kind in 0usize..2, n in 0u32..10_000,
    ) {
        // A non-numeric parameter after a valid head is always rejected,
        // and the diagnostic names both the bad parameter and the input.
        // (The vendored proptest shim has no string strategies, so the junk
        // parameter is synthesised from a number; the leading letter makes
        // it unparseable as usize.)
        let junk = format!("w{n}");
        let head = if kind == 0 { "portfolio" } else { "cube" };
        let input = format!("{head}:{junk}");
        let err = input.parse::<BackendSpec>().unwrap_err();
        prop_assert!(err.contains(&junk), "diagnostic {} names the parameter", err);
        prop_assert!(err.contains(&input), "diagnostic {} names the input", err);
    }

    #[test]
    fn backend_spec_rejects_unknown_heads_with_the_menu(n in 0u32..10_000) {
        // Never collides with a real head, whatever the number.
        let junk = format!("warp{n}");
        let err = junk.parse::<BackendSpec>().unwrap_err();
        prop_assert!(err.contains(&junk), "diagnostic {} names the input", err);
        // The error lists every accepted form, so a service client can fix
        // the payload without reading our source.
        for expected in ["rebuild", "incremental", "portfolio", "cube", "adaptive"] {
            prop_assert!(err.contains(expected), "diagnostic {} lists {}", err, expected);
        }
    }

    #[test]
    fn backend_spec_rejects_out_of_range_parameters_with_the_range(
        kind in 0usize..3, excess in 1usize..100,
    ) {
        // A numeric parameter outside the backend's supported range is a
        // parse error naming the valid range — zero workers or a cube
        // depth past `MAX_CUBE_DEPTH` used to parse and then behave as a
        // silent clamp (or a panic) deep in the oracle.
        let input = match kind {
            0 => format!("portfolio:{}", pact_solver::MAX_PORTFOLIO_WORKERS + excess),
            1 => format!("cube:{}", pact_solver::MAX_CUBE_DEPTH + excess),
            _ => format!("cube:3:{}", pact_solver::MAX_CUBE_WORKERS + excess),
        };
        let err = input.parse::<BackendSpec>().unwrap_err();
        prop_assert!(err.contains("must be in 1..="), "diagnostic {} names the range", err);
        prop_assert!(err.contains(&input), "diagnostic {} names the input", err);
    }
}

#[test]
fn backend_spec_parses_shorthand_defaults_and_rejects_trailing_parts() {
    // Omitted counts fall back to the harness defaults...
    assert_eq!(
        "portfolio".parse::<BackendSpec>(),
        Ok(BackendSpec::Portfolio { workers: 2 })
    );
    assert_eq!(
        "cube".parse::<BackendSpec>(),
        Ok(BackendSpec::Cube {
            depth: 3,
            workers: 2
        })
    );
    assert_eq!(
        "cube:4".parse::<BackendSpec>(),
        Ok(BackendSpec::Cube {
            depth: 4,
            workers: 2
        })
    );
    // ...while excess parameters are an error, not silently ignored.
    let err = "rebuild:1".parse::<BackendSpec>().unwrap_err();
    assert!(err.contains("rebuild:1"), "{err}");
    let err = "cube:3:2:9".parse::<BackendSpec>().unwrap_err();
    assert!(err.contains("cube:3:2:9"), "{err}");
    // The adaptive policy backend takes no parameters at all.
    assert_eq!("adaptive".parse::<BackendSpec>(), Ok(BackendSpec::Adaptive));
    let err = "adaptive:2".parse::<BackendSpec>().unwrap_err();
    assert!(err.contains("adaptive:2"), "{err}");
}

#[test]
fn backend_spec_rejects_zero_and_oversized_parameters() {
    // The satellite fix this pins: `cube:0:2`, `cube:3:0` and
    // `portfolio:0` used to parse (and later panic or silently clamp in
    // the backend); now every parameter is validated at the FromStr
    // boundary with a diagnostic naming the valid range.
    for input in [
        "portfolio:0",
        "portfolio:9",
        "cube:0:2",
        "cube:3:0",
        "cube:7",
        "cube:7:2",
        "cube:3:9",
    ] {
        let err = input.parse::<BackendSpec>().unwrap_err();
        assert!(err.contains("must be in 1..="), "{input}: {err}");
        assert!(err.contains(input), "{input}: {err}");
    }
    // The range boundaries themselves are valid.
    assert_eq!(
        "portfolio:8".parse::<BackendSpec>(),
        Ok(BackendSpec::Portfolio { workers: 8 })
    );
    assert_eq!(
        "cube:6:8".parse::<BackendSpec>(),
        Ok(BackendSpec::Cube {
            depth: 6,
            workers: 8
        })
    );
    assert_eq!(
        "cube:1:1".parse::<BackendSpec>(),
        Ok(BackendSpec::Cube {
            depth: 1,
            workers: 1
        })
    );
    assert_eq!(
        "portfolio:1".parse::<BackendSpec>(),
        Ok(BackendSpec::Portfolio { workers: 1 })
    );
}

// ---------------------------------------------------------------------------
// Hash constraints partition the projected space
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn solver_enumeration_agrees_with_hash_evaluation(seed in 0u64..500, family_idx in 0usize..3) {
        let family = HashFamily::ALL[family_idx];
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let mut rng = StdRng::seed_from_u64(seed);
        let ell = if family == HashFamily::Xor { 1 } else { 2 };
        let h = generate(&tm, &[x], ell, family, &mut rng);

        // Expected cell: evaluate the hash on every value.
        let expected: Vec<u128> = (0..16u128)
            .filter(|&v| {
                let values: HashMap<TermId, BvValue> =
                    [(x, BvValue::new(v, 4))].into_iter().collect();
                h.eval(&values)
            })
            .collect();

        // Observed cell: enumerate the models of the asserted constraint.
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        h.assert_into(&mut ctx, &mut tm);
        let mut observed = Vec::new();
        loop {
            match ctx.check(&mut tm).unwrap() {
                SolverResult::Sat => {
                    let v = ctx.model_value(&tm, x).unwrap().as_bv().unwrap();
                    observed.push(v.as_u128());
                    prop_assert!(observed.len() <= 16, "runaway enumeration");
                    let c = tm.mk_bv_value(v);
                    let eq = tm.mk_eq(x, c);
                    let block = tm.mk_not(eq);
                    ctx.assert_term(block);
                }
                SolverResult::Unsat => break,
                SolverResult::Unknown => prop_assert!(false, "unexpected unknown"),
            }
        }
        observed.sort_unstable();
        prop_assert_eq!(observed, expected);
    }
}
