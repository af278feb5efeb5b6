//! Soundness of the constant-aware bit-blaster.
//!
//! The encoder folds gates with a constant input and encodes division by a
//! constant `p ≠ 0` as `a = q·p + r ∧ r <ᵤ p` over fresh `q` and `r`.  Both
//! rewrites must leave every model set unchanged, so each property below
//! enumerates models through an oracle and compares them with an
//! independent evaluation:
//!
//! * random `pact_prime` / `pact_shift` hash constraints over one or two
//!   bit-vectors against [`HashConstraint::eval`], one frame after another
//!   on the same oracle (the division clauses are unguarded and must not
//!   constrain a later frame);
//! * random bit-vector terms with constant operands — products, `bvurem` /
//!   `bvudiv` by `p ∈ {0, 1, 2ʷ−1, random}`, comparisons against constants,
//!   `ite` whose condition the encoder folds, shifts by constants — against
//!   [`TermManager::eval`], with the term's value itself projected so that
//!   a wrong remainder or quotient shows as a wrong model.

use std::collections::HashMap;

use pact::{BackendSpec, Oracle, OracleFactory};
use pact_hash::{generate, HashConstraint, HashFamily};
use pact_ir::{BvValue, Sort, TermId, TermManager, Value};
use pact_solver::{SolverConfig, SolverResult};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The two backends that own an encoder directly; the parallel backends
/// are built from these.
fn backends() -> [(&'static str, BackendSpec); 2] {
    [
        ("rebuild", BackendSpec::Rebuild),
        ("incremental", BackendSpec::Incremental),
    ]
}

/// Enumerates the projected models of the oracle's current assertions with
/// the saturating counter's block-and-repeat loop.
fn enumerate(
    oracle: &mut dyn Oracle,
    tm: &mut TermManager,
    projection: &[TermId],
) -> Vec<Vec<u128>> {
    let mut found = Vec::new();
    loop {
        match oracle.check(tm).expect("bit-vector terms are supported") {
            SolverResult::Sat => {
                let model = oracle
                    .projected_model(tm, projection)
                    .expect("model after SAT");
                let values: Vec<u128> = model.iter().map(BvValue::as_u128).collect();
                assert!(!found.contains(&values), "model {values:?} repeated");
                oracle.block_model(tm, projection, &model);
                found.push(values);
            }
            SolverResult::Unsat => break,
            SolverResult::Unknown => panic!("unknown verdict"),
        }
    }
    found.sort();
    found
}

/// Every assignment of bit-vectors of the given widths, first variable
/// varying fastest.
fn assignments(widths: &[u32]) -> impl Iterator<Item = Vec<u128>> + '_ {
    let total: u32 = widths.iter().sum();
    (0u128..1 << total).map(move |mut packed| {
        widths
            .iter()
            .map(|&w| {
                let value = packed & ((1 << w) - 1);
                packed >>= w;
                value
            })
            .collect()
    })
}

/// The assignments of `vars` on which every hash holds, sorted.
fn hash_models(vars: &[TermId], widths: &[u32], hashes: &[HashConstraint]) -> Vec<Vec<u128>> {
    let mut models: Vec<Vec<u128>> = assignments(widths)
        .filter(|values| {
            let env: HashMap<TermId, BvValue> = vars
                .iter()
                .zip(values.iter().zip(widths))
                .map(|(&v, (&x, &w))| (v, BvValue::new(x, w)))
                .collect();
            hashes.iter().all(|h| h.eval(&env))
        })
        .collect();
    models.sort();
    models
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn word_level_hash_models_match_brute_force(
        w1 in 1u32..=10,
        w2 in 0u32..=10,
        ell in 2u32..=4,
        shift_family in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let family = if shift_family { HashFamily::Shift } else { HashFamily::Prime };
        let mut tm = TermManager::new();
        let mut vars = vec![tm.mk_var("x", Sort::BitVec(w1))];
        let mut widths = vec![w1];
        // A second variable when asked for, keeping brute force ≤ 2¹².
        let w2 = w2.min(12 - w1);
        if w2 > 0 {
            vars.push(tm.mk_var("y", Sort::BitVec(w2)));
            widths.push(w2);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        // Two cells, each narrowed with further hashes until it is small
        // enough to enumerate.
        let cells: Vec<(Vec<HashConstraint>, Vec<Vec<u128>>)> = (0..2)
            .map(|_| {
                let mut hashes = vec![generate(&tm, &vars, ell, family, &mut rng)];
                let mut truth = hash_models(&vars, &widths, &hashes);
                while truth.len() > 64 {
                    hashes.push(generate(&tm, &vars, ell, family, &mut rng));
                    truth = hash_models(&vars, &widths, &hashes);
                }
                (hashes, truth)
            })
            .collect();
        for (name, spec) in backends() {
            let mut oracle = OracleFactory::from_spec(spec).build(SolverConfig::default());
            for &v in &vars {
                oracle.track_var(v);
            }
            for (i, (hashes, truth)) in cells.iter().enumerate() {
                oracle.push();
                for h in hashes {
                    h.assert_into(&mut *oracle, &mut tm);
                }
                let found = enumerate(&mut *oracle, &mut tm, &vars);
                oracle.pop();
                prop_assert_eq!(
                    &found, truth,
                    "{} cell {} ({} over widths {:?}, ℓ = {})", name, i, family, widths, ell
                );
            }
        }
    }
}

/// One step of a random term program; see [`build_term`].
type Step = (u8, u128, bool);

/// A divisor drawn from `{0, 1, 2ʷ−1, random}` by `selector`.
fn divisor(selector: u128, random: u128, w: u32) -> u128 {
    let mask = (1u128 << w) - 1;
    match selector % 4 {
        0 => 0,
        1 => 1,
        2 => mask,
        _ => random & mask,
    }
}

/// A boolean condition on `acc`: a comparison against the constant `c`
/// (unsigned or signed, either side), or one the encoder decides on its
/// own (`acc <ᵤ 0`, `0 ≤ᵤ acc`).
fn condition(tm: &mut TermManager, acc: TermId, c: u128, w: u32, flip: bool) -> TermId {
    let k = tm.mk_bv_const(c & ((1 << w) - 1), w);
    let zero = tm.mk_bv_const(0, w);
    let (a, b) = if flip { (k, acc) } else { (acc, k) };
    match (c >> 64) % 6 {
        0 => tm.mk_bv_ult(a, b),
        1 => tm.mk_bv_ule(a, b),
        2 => tm.mk_bv_slt(a, b),
        3 => tm.mk_bv_sle(a, b),
        4 => tm.mk_bv_ult(acc, zero),
        _ => tm.mk_bv_ule(zero, acc),
    }
    .unwrap()
}

/// Builds a `w`-bit term over `x` by applying each step to an accumulator
/// that starts as `x`: products, constant-divisor division and remainder,
/// shifts by constants, additions, masks, `ite` on a condition with a
/// constant, and (rarely) a product or remainder by `x` itself.
fn build_term(tm: &mut TermManager, x: TermId, w: u32, steps: &[Step]) -> TermId {
    let mask = (1u128 << w) - 1;
    let mut acc = x;
    for &(kind, c, flip) in steps {
        let k = tm.mk_bv_const(c & mask, w);
        acc = match kind {
            0 if flip => tm.mk_bv_mul(k, acc),
            0 => tm.mk_bv_mul(acc, k),
            1 | 2 => {
                let p = tm.mk_bv_const(divisor(c >> 64, c, w), w);
                if kind == 1 {
                    tm.mk_bv_urem(acc, p)
                } else {
                    tm.mk_bv_udiv(acc, p)
                }
            }
            3 => {
                let by = tm.mk_bv_const((c % u128::from(w + 2)) & mask, w);
                match (c >> 64) % 3 {
                    0 => tm.mk_bv_shl(acc, by),
                    1 => tm.mk_bv_lshr(acc, by),
                    _ => tm.mk_bv_ashr(acc, by),
                }
            }
            4 => {
                let cond = condition(tm, acc, c, w, flip);
                let other = tm.mk_bv_const((c >> 32) & mask, w);
                tm.mk_ite(cond, acc, other)
            }
            5 => tm.mk_bv_add(acc, k),
            6 => match (c >> 64) % 3 {
                0 => tm.mk_bv_and(acc, k),
                1 => tm.mk_bv_or(acc, k),
                _ => tm.mk_bv_xor(acc, k),
            },
            _ if flip => tm.mk_bv_urem(acc, x),
            _ => tm.mk_bv_mul(acc, x),
        }
        .unwrap();
    }
    acc
}

/// The value of `t` under `x = value`.
fn eval_at(tm: &TermManager, t: TermId, x: TermId, value: u128, w: u32) -> u128 {
    let env = HashMap::from([(x, Value::Bv(BvValue::new(value, w)))]);
    match tm.eval(t, &env) {
        Some(Value::Bv(v)) => v.as_u128(),
        Some(Value::Bool(b)) => u128::from(b),
        other => panic!("term did not evaluate: {other:?}"),
    }
}

/// Asserts `out = t` for a fresh `out` of `t`'s sort and checks that the
/// enumerated `(x, out)` pairs are exactly `(v, t(v))` for every `v`.
fn check_function(tm: &mut TermManager, x: TermId, t: TermId, w: u32, label: &str) {
    let out = tm.mk_fresh_var("out", tm.sort(t));
    let eq = tm.mk_eq(out, t);
    let expected: Vec<Vec<u128>> = (0..1u128 << w)
        .map(|v| vec![v, eval_at(tm, t, x, v, w)])
        .collect();
    for (name, spec) in backends() {
        let mut oracle = OracleFactory::from_spec(spec).build(SolverConfig::default());
        oracle.track_var(x);
        oracle.track_var(out);
        oracle.push();
        oracle.assert_term(eq);
        let found = enumerate(&mut *oracle, tm, &[x, out]);
        oracle.pop();
        assert_eq!(found, expected, "{name}: {label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn terms_with_constant_operands_match_evaluation(
        w in 1u32..=6,
        steps in proptest::collection::vec((0u8..8, any::<u128>(), any::<bool>()), 1..5),
        last in any::<u128>(),
        flip in any::<bool>(),
    ) {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(w));
        let t = build_term(&mut tm, x, w, &steps);
        check_function(&mut tm, x, t, w, &format!("value of {steps:?} at width {w}"));
        let predicate = condition(&mut tm, t, last, w, flip);
        check_function(&mut tm, x, predicate, w, &format!("predicate on {steps:?} at width {w}"));
    }
}

#[test]
fn constant_divisors_at_the_edges_match_evaluation() {
    // Every width up to 7 with p ∈ {0, 1, 2, 2ʷ⁻¹, 2ʷ−1}, remainder and
    // quotient, so each edge case runs whatever the random draws above.
    for w in 1u32..=7 {
        for p in [0, 1, 2, 1 << (w - 1), (1 << w) - 1] {
            let mut tm = TermManager::new();
            let x = tm.mk_var("x", Sort::BitVec(w));
            let divisor = tm.mk_bv_const(p, w);
            let rem = tm.mk_bv_urem(x, divisor).unwrap();
            let quot = tm.mk_bv_udiv(x, divisor).unwrap();
            check_function(&mut tm, x, rem, w, &format!("x mod {p} at width {w}"));
            check_function(&mut tm, x, quot, w, &format!("x div {p} at width {w}"));
        }
    }
}
