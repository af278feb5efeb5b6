//! The lazy DPLL(T) loop of the single-engine context.
//!
//! [`IncrementalContext`](crate::IncrementalContext) decides satisfiability
//! by solving the bit-blasted boolean abstraction, extracting the theory
//! atoms the model commits to, checking their conjunction against the
//! simplex core, and refining with a lemma until the verdicts agree.  The
//! assumption set is the live frames' activation literals.
//!
//! Consecutive enumeration models mostly differ only in discrete bits, so
//! they commit to the same theory atoms.  A one-entry [`TheoryMemo`] kept in
//! the encoder remembers the last theory-consistent atom assignment and its
//! simplex witness; a model that commits to exactly that assignment again is
//! answered without building a simplex.

use pact_ir::Rational;
use pact_lra::{Constraint, LraResult, Simplex};
use pact_sat::{Lit, SatResult};

use crate::bitblast::{atom_value_in_model, Encoder, TheoryAtom};
use crate::context::{OracleStats, SolverResult};

/// The last theory-consistent assignment seen by [`solve_with_theory`].
///
/// Keyed by the number of LRA variables plus the participating literals (in
/// atom order, with polarity).  Atom literals are never reused and an atom's
/// constraints never change, so an equal key means an identical simplex
/// problem.  Only `Sat` verdicts are stored, and the empty default key
/// never matches (an empty participating list never reaches the memo).
/// The memo lives in the [`Encoder`], so a compaction or rebuild that
/// replaces the encoder drops it.
#[derive(Debug, Default)]
pub(crate) struct TheoryMemo {
    num_lra_vars: usize,
    participating: Vec<Lit>,
    witness: Vec<Rational>,
    /// Reused buffer for the participating literals of the model at hand;
    /// it swaps with `participating` when a new assignment is stored.
    scratch: Vec<Lit>,
}

impl TheoryMemo {
    /// The stored witness when the key matches the last stored one.
    fn lookup(&self, num_lra_vars: usize, participating: &[Lit]) -> Option<&Vec<Rational>> {
        (self.num_lra_vars == num_lra_vars && self.participating == participating)
            .then_some(&self.witness)
    }
}

/// The literal and constraint a boolean model commits `atom` to, if any.
fn committed<'a>(atom: &'a TheoryAtom, model: &[bool]) -> Option<(Lit, &'a Constraint)> {
    match atom_value_in_model(model, atom.lit)? {
        true => Some((atom.lit, &atom.when_true)),
        false => atom.when_false.as_ref().map(|neg| (!atom.lit, neg)),
    }
}

/// Runs the DPLL(T) loop over an already-encoded formula.
///
/// The conflict budget is *cumulative across theory iterations*: one call
/// spends at most `max_conflicts` conflicts in total, however many SAT calls
/// the refinement loop needs.  (A budget of zero permits propagation-only
/// solving but no search.)  On a satisfiable verdict the simplex witness is
/// left in `real_model_values`.  `stats.theory_checks` counts simplex runs
/// only; a [`TheoryMemo`] hit is not one.
pub(crate) fn solve_with_theory(
    encoder: &mut Encoder,
    assumptions: &[Lit],
    max_conflicts: Option<u64>,
    max_theory_iterations: usize,
    stats: &mut OracleStats,
    real_model_values: &mut Vec<Rational>,
) -> SolverResult {
    let start_conflicts = encoder.sat_stats().conflicts;
    if max_conflicts.is_none() {
        // Clear any budget a previous configuration left behind.
        encoder.sat().set_conflict_budget(None);
    }
    for iteration in 0..max_theory_iterations {
        if let Some(limit) = max_conflicts {
            let spent = encoder.sat_stats().conflicts - start_conflicts;
            let remaining = limit.saturating_sub(spent);
            if iteration > 0 && remaining == 0 {
                // The budget was consumed by earlier refinement iterations;
                // re-arming it per SAT call would multiply the limit by the
                // iteration count.
                return SolverResult::Unknown;
            }
            encoder.sat().set_conflict_budget(Some(remaining));
        }
        stats.sat_calls += 1;
        match encoder.sat().solve(assumptions) {
            SatResult::Unsat => return SolverResult::Unsat,
            SatResult::Unknown => return SolverResult::Unknown,
            SatResult::Sat => {}
        }
        // Collect the theory atoms the boolean model commits to.
        let mut participating = std::mem::take(&mut encoder.theory_memo.scratch);
        participating.clear();
        let model = encoder.sat_model();
        participating.extend(
            encoder
                .atoms()
                .iter()
                .filter_map(|atom| committed(atom, model))
                .map(|(lit, _)| lit),
        );
        let verdict = check_theory(encoder, &mut participating, stats, real_model_values);
        encoder.theory_memo.scratch = participating;
        if let Some(verdict) = verdict {
            return verdict;
        }
    }
    SolverResult::Unknown
}

/// Checks the theory atoms `participating` lists against the simplex core.
/// Answers `Sat` (leaving the witness in `real_model_values`) or `Unsat`
/// when the formula is refuted; `None` after adding a refinement lemma, so
/// the loop solves again.  `participating` may come back holding other
/// literals: it is a reused buffer.
fn check_theory(
    encoder: &mut Encoder,
    participating: &mut Vec<Lit>,
    stats: &mut OracleStats,
    real_model_values: &mut Vec<Rational>,
) -> Option<SolverResult> {
    if participating.is_empty() {
        real_model_values.clear();
        return Some(SolverResult::Sat);
    }
    let num_lra_vars = encoder.num_lra_vars();
    if let Some(witness) = encoder.theory_memo.lookup(num_lra_vars, participating) {
        real_model_values.clone_from(witness);
        return Some(SolverResult::Sat);
    }
    let mut simplex = Simplex::new(num_lra_vars);
    let model = encoder.sat_model();
    for (_, constraint) in encoder
        .atoms()
        .iter()
        .filter_map(|atom| committed(atom, model))
    {
        simplex.add_constraint(constraint.clone());
    }
    stats.theory_checks += 1;
    match simplex.check() {
        LraResult::Sat => {
            *real_model_values = simplex.model();
            let memo = &mut encoder.theory_memo;
            memo.num_lra_vars = num_lra_vars;
            std::mem::swap(&mut memo.participating, participating);
            memo.witness.clone_from(real_model_values);
            Some(SolverResult::Sat)
        }
        LraResult::Unsat => {
            // Refinement lemma: at least one participating atom flips.
            // The lemma is theory-valid, so it is added permanently even
            // under assumptions.
            stats.theory_lemmas += 1;
            for lit in participating.iter_mut() {
                *lit = !*lit;
            }
            (!encoder.sat().add_clause(participating)).then_some(SolverResult::Unsat)
        }
    }
}
