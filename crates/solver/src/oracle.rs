//! The [`Oracle`] trait: the abstract SMT backend of the counting engine.
//!
//! The paper treats the SMT solver as a black-box oracle answering projected
//! satisfiability queries; this trait is that black box as a Rust interface.
//! [`IncrementalContext`] is the workspace's own DPLL(T) implementation of
//! it (in its default mode and in rebuild mode), and the counting crate
//! (`pact`) is generic over the trait, so alternative backends — portfolio
//! oracles, cube-and-conquer splitters, an external solver behind a pipe,
//! instrumented test doubles — plug in without touching the counting
//! algorithms.
//!
//! The trait mirrors the SMT-LIB command subset the counters actually use:
//! an assertion stack (`push`/`pop`/`assert_term`), the native XOR fast path
//! for the `H_xor` hash family, projected model extraction and blocking
//! (`block_model`, one clause over the projection's bits), and cumulative
//! statistics.  Implementations must be [`Send`]: the round scheduler builds
//! one oracle per round and moves it into a worker thread.

use pact_ir::{BvValue, Sort, TermId, TermManager, Value};
use pact_sat::InterruptFlag;

use crate::context::{OracleStats, SolverResult};
use crate::cube::CubeStats;
use crate::error::Result;
use crate::incremental::IncrementalContext;
use crate::policy::PolicyStats;
use crate::portfolio::PortfolioStats;

/// An incremental SMT oracle, as the counting algorithms see it.
///
/// Semantics follow the SMT-LIB assertion-stack model: assertions accumulate
/// in the current frame, `push` opens a frame, `pop` discards the most recent
/// frame, and `check` decides the conjunction of everything asserted.  After
/// a [`SolverResult::Sat`] verdict the model-extraction methods must report a
/// satisfying assignment until the next `check`, `pop`, or assertion.
///
/// # Implementing the trait
///
/// [`IncrementalContext`] is the reference implementation.  Custom oracles typically
/// wrap it (delegating every method) to instrument, cache, or fan out
/// queries; a from-scratch implementation only needs to honour the stack
/// discipline above and the enumeration pattern used by the saturating
/// counter (repeated `check` + [`Oracle::block_model`] of the model just
/// found, within one frame).  `block_model` has a default body that asserts
/// the blocking clause as a term, so a wrapper that does not forward it
/// stays correct and only loses the term-free fast path.
pub trait Oracle: Send {
    /// Pushes a new assertion-stack frame.
    fn push(&mut self);

    /// Pops the most recent frame, discarding its assertions.
    ///
    /// # Panics
    ///
    /// An unbalanced `pop` — one without a matching `push` — is a caller
    /// bug, and the contract is that implementations **panic** on it rather
    /// than silently ignoring the call or corrupting their stack.  The
    /// panic message should mention the missing `push`.  This behaviour is
    /// uniform across backends ([`IncrementalContext`] in either mode, and
    /// any wrapper that delegates to it) and is pinned by the parity test
    /// in `tests/session.rs`.
    fn pop(&mut self);

    /// Asserts a boolean term in the current frame.
    fn assert_term(&mut self, t: TermId);

    /// Asserts a native XOR constraint over individual bits of discrete
    /// variables: `⊕ bit ⊕ ... = rhs` (the `H_xor` fast path).
    ///
    /// Implementations without a native XOR engine may encode the constraint
    /// as an ordinary term.
    fn assert_xor_bits(&mut self, bits: Vec<(TermId, u32)>, rhs: bool);

    /// Declares a variable whose bits must exist in every encoding even if
    /// it never occurs in an assertion (projection variables).
    fn track_var(&mut self, var: TermId);

    /// Checks satisfiability of the current assertion stack.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SolverError`] when the formula falls outside the
    /// backend's supported fragment.
    fn check(&mut self, tm: &mut TermManager) -> Result<SolverResult>;

    /// Value of a variable in the most recent satisfying assignment, or
    /// `None` if the last check was not satisfiable (or the sort is
    /// unsupported).
    fn model_value(&self, tm: &TermManager, var: TermId) -> Option<Value>;

    /// The projected model: the value of each projection variable in the
    /// most recent satisfying assignment, in the order given.
    fn projected_model(&self, tm: &TermManager, projection: &[TermId]) -> Option<Vec<BvValue>>;

    /// Blocks a projected model in the current frame: asserts
    /// `¬(v₁ = c₁ ∧ … ∧ vₙ = cₙ)` for the projection `vᵢ` and the model
    /// values `cᵢ` (in [`Oracle::projected_model`]'s format), so later
    /// checks in the frame never report that projected assignment again.
    ///
    /// The default body builds the blocking term and asserts it
    /// ([`block_model_by_terms`]).  The workspace backends override it: for
    /// boolean and bit-vector projections they queue one clause over the
    /// variables' bit literals, with no term built and no preprocessing.
    fn block_model(&mut self, tm: &mut TermManager, projection: &[TermId], model: &[BvValue]) {
        block_model_by_terms(self, tm, projection, model);
    }

    /// Cumulative statistics over the oracle's lifetime.
    fn stats(&self) -> OracleStats;

    /// Installs a cooperative interrupt: raising the flag asks any in-flight
    /// (and every future) `check` to give up and answer
    /// [`SolverResult::Unknown`] at the next safe point.  This is how a
    /// cancellation token reaches *inside* a long solver call — including
    /// the racing workers of a portfolio oracle — instead of waiting at the
    /// next cell boundary.
    ///
    /// The default implementation ignores the flag (a conforming backend may
    /// be uninterruptible; cancellation then falls back to the engine's
    /// check-boundary polling).
    fn set_interrupt(&mut self, flag: InterruptFlag) {
        let _ = flag;
    }

    /// Winner/cancelled accounting, for backends that race several workers
    /// per `check`.  `None` (the default) for single-engine backends.
    fn portfolio(&self) -> Option<PortfolioStats> {
        None
    }

    /// Split/solved/refuted accounting, for backends that decompose a
    /// `check` into cubes.  `None` (the default) for every other backend.
    fn cube(&self) -> Option<CubeStats> {
        None
    }

    /// Routing accounting, for backends that adaptively re-route checks
    /// across several engines ([`crate::PolicyOracle`]).  `None` (the
    /// default) for every fixed-strategy backend.
    fn policy(&self) -> Option<PolicyStats> {
        None
    }
}

/// Blocks a projected model through [`Oracle::assert_term`]: builds
/// `¬(v₁ = c₁ ∧ … ∧ vₙ = cₙ)` in `tm` and asserts it.  The default body of
/// [`Oracle::block_model`], and the backends' fallback for projections with
/// a bounded-integer variable.
pub fn block_model_by_terms<O: Oracle + ?Sized>(
    oracle: &mut O,
    tm: &mut TermManager,
    projection: &[TermId],
    model: &[BvValue],
) {
    let mut equalities = Vec::with_capacity(projection.len());
    for (&var, value) in projection.iter().zip(model) {
        let equal = match tm.sort(var) {
            Sort::Bool => {
                let target = tm.mk_bool(value.as_u128() == 1);
                tm.mk_eq(var, target)
            }
            Sort::BoundedInt { .. } => {
                let target = tm.mk_int_const(value.as_u128() as i64);
                // Equality requires matching sorts; compare through an
                // integer constant of the variable's own sort via Eq on the
                // bounded-int encoding: build `var <= c ∧ c <= var`.
                let le = tm.mk_int_le(var, target).expect("int comparison");
                let ge = tm.mk_int_le(target, var).expect("int comparison");
                tm.mk_and([le, ge])
            }
            _ => {
                let target = tm.mk_bv_value(*value);
                tm.mk_eq(var, target)
            }
        };
        equalities.push(equal);
    }
    let conj = tm.mk_and(equalities);
    let blocking = tm.mk_not(conj);
    oracle.assert_term(blocking);
}

/// The `(variable, value)` pairs a backend's [`Oracle::block_model`] turns
/// into one clause, or `None` when some variable needs the term fallback
/// (not boolean or bit-vector, or a value of the wrong width).  Boolean
/// values are normalised as [`block_model_by_terms`] reads them, so both
/// paths block the same assignment with the same clause.
pub(crate) fn blocking_pairs(
    tm: &TermManager,
    projection: &[TermId],
    model: &[BvValue],
) -> Option<Vec<(TermId, BvValue)>> {
    projection
        .iter()
        .zip(model)
        .map(|(&var, &value)| match tm.sort(var) {
            Sort::Bool => Some((var, BvValue::new(u128::from(value.as_u128() == 1), 1))),
            Sort::BitVec(w) if w == value.width() => Some((var, value)),
            _ => None,
        })
        .collect()
}

impl Oracle for IncrementalContext {
    fn push(&mut self) {
        IncrementalContext::push(self);
    }

    fn pop(&mut self) {
        IncrementalContext::pop(self);
    }

    fn assert_term(&mut self, t: TermId) {
        IncrementalContext::assert_term(self, t);
    }

    fn assert_xor_bits(&mut self, bits: Vec<(TermId, u32)>, rhs: bool) {
        IncrementalContext::assert_xor_bits(self, bits, rhs);
    }

    fn track_var(&mut self, var: TermId) {
        IncrementalContext::track_var(self, var);
    }

    fn check(&mut self, tm: &mut TermManager) -> Result<SolverResult> {
        IncrementalContext::check(self, tm)
    }

    fn model_value(&self, tm: &TermManager, var: TermId) -> Option<Value> {
        IncrementalContext::model_value(self, tm, var)
    }

    fn projected_model(&self, tm: &TermManager, projection: &[TermId]) -> Option<Vec<BvValue>> {
        IncrementalContext::projected_model(self, tm, projection)
    }

    fn block_model(&mut self, tm: &mut TermManager, projection: &[TermId], model: &[BvValue]) {
        IncrementalContext::block_model(self, tm, projection, model);
    }

    fn stats(&self) -> OracleStats {
        IncrementalContext::stats(self)
    }

    fn set_interrupt(&mut self, flag: InterruptFlag) {
        IncrementalContext::set_interrupt_flags(self, vec![flag]);
    }
}

impl<O: Oracle + ?Sized> Oracle for Box<O> {
    fn push(&mut self) {
        (**self).push();
    }

    fn pop(&mut self) {
        (**self).pop();
    }

    fn assert_term(&mut self, t: TermId) {
        (**self).assert_term(t);
    }

    fn assert_xor_bits(&mut self, bits: Vec<(TermId, u32)>, rhs: bool) {
        (**self).assert_xor_bits(bits, rhs);
    }

    fn track_var(&mut self, var: TermId) {
        (**self).track_var(var);
    }

    fn check(&mut self, tm: &mut TermManager) -> Result<SolverResult> {
        (**self).check(tm)
    }

    fn model_value(&self, tm: &TermManager, var: TermId) -> Option<Value> {
        (**self).model_value(tm, var)
    }

    fn projected_model(&self, tm: &TermManager, projection: &[TermId]) -> Option<Vec<BvValue>> {
        (**self).projected_model(tm, projection)
    }

    // Forwarded explicitly: the counter runs on `Box<dyn Oracle>`, and the
    // default body would silently take the term path.
    fn block_model(&mut self, tm: &mut TermManager, projection: &[TermId], model: &[BvValue]) {
        (**self).block_model(tm, projection, model);
    }

    fn stats(&self) -> OracleStats {
        (**self).stats()
    }

    fn set_interrupt(&mut self, flag: InterruptFlag) {
        (**self).set_interrupt(flag);
    }

    fn portfolio(&self) -> Option<PortfolioStats> {
        (**self).portfolio()
    }

    fn cube(&self) -> Option<CubeStats> {
        (**self).cube()
    }

    fn policy(&self) -> Option<PolicyStats> {
        (**self).policy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverConfig;

    /// Drives the reference implementation purely through the trait object
    /// surface, proving object safety and the stack discipline.
    #[test]
    fn context_works_behind_a_trait_object() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let three = tm.mk_bv_const(3, 4);
        let f = tm.mk_bv_ult(x, three).unwrap();
        let mut oracle: Box<dyn Oracle> =
            Box::new(IncrementalContext::rebuilding(SolverConfig::default()));
        oracle.track_var(x);
        oracle.assert_term(f);
        assert_eq!(oracle.check(&mut tm).unwrap(), SolverResult::Sat);
        let model = oracle.projected_model(&tm, &[x]).unwrap();
        assert!(model[0].as_u128() < 3);

        oracle.push();
        let zero = tm.mk_bv_const(0, 4);
        let g = tm.mk_bv_ult(x, zero).unwrap();
        oracle.assert_term(g);
        assert_eq!(oracle.check(&mut tm).unwrap(), SolverResult::Unsat);
        oracle.pop();
        assert_eq!(oracle.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(oracle.stats().checks, 3);
        assert_eq!(oracle.stats().rebuilds, 1);
    }

    #[test]
    fn xor_assertions_work_through_the_trait() {
        // Both modes must behave identically through the trait surface.
        let backends: Vec<Box<dyn Oracle>> = vec![
            Box::new(IncrementalContext::rebuilding(SolverConfig::default())),
            Box::new(IncrementalContext::new()),
        ];
        for mut oracle in backends {
            let mut tm = TermManager::new();
            let x = tm.mk_var("x", Sort::BitVec(2));
            oracle.track_var(x);
            oracle.assert_xor_bits(vec![(x, 0), (x, 1)], true);
            // Odd parity over 2 bits: {01, 10}.
            let mut found = 0;
            while oracle.check(&mut tm).unwrap() == SolverResult::Sat {
                let v = oracle.model_value(&tm, x).unwrap().as_bv().unwrap();
                assert_eq!(v.as_u128().count_ones(), 1);
                found += 1;
                assert!(found <= 2);
                let c = tm.mk_bv_value(v);
                let eq = tm.mk_eq(x, c);
                let block = tm.mk_not(eq);
                oracle.assert_term(block);
            }
            assert_eq!(found, 2);
        }
    }

    #[test]
    fn incremental_context_works_behind_a_trait_object() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let three = tm.mk_bv_const(3, 4);
        let f = tm.mk_bv_ult(x, three).unwrap();
        let mut oracle: Box<dyn Oracle> = Box::new(IncrementalContext::new());
        oracle.track_var(x);
        oracle.assert_term(f);
        assert_eq!(oracle.check(&mut tm).unwrap(), SolverResult::Sat);
        oracle.push();
        let zero = tm.mk_bv_const(0, 4);
        let g = tm.mk_bv_ult(x, zero).unwrap();
        oracle.assert_term(g);
        assert_eq!(oracle.check(&mut tm).unwrap(), SolverResult::Unsat);
        oracle.pop();
        assert_eq!(oracle.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(oracle.stats().rebuilds, 0);
    }
}
