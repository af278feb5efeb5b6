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

use crate::bitblast::{atom_value_in_model, Encoder};
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
}

impl TheoryMemo {
    /// The stored witness when the key matches the last stored one.
    fn lookup(&self, num_lra_vars: usize, participating: &[Lit]) -> Option<&Vec<Rational>> {
        (self.num_lra_vars == num_lra_vars && self.participating == participating)
            .then_some(&self.witness)
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
        // Collect the theory constraints implied by the boolean model.
        let model = encoder.sat_model();
        let mut participating: Vec<Lit> = Vec::new();
        let mut constraints: Vec<&Constraint> = Vec::new();
        for atom in encoder.atoms() {
            match atom_value_in_model(model, atom.lit) {
                Some(true) => {
                    constraints.push(&atom.when_true);
                    participating.push(atom.lit);
                }
                Some(false) => {
                    if let Some(neg) = &atom.when_false {
                        constraints.push(neg);
                        participating.push(!atom.lit);
                    }
                }
                None => {}
            }
        }
        if participating.is_empty() {
            real_model_values.clear();
            return SolverResult::Sat;
        }
        let num_lra_vars = encoder.num_lra_vars();
        if let Some(witness) = encoder.theory_memo.lookup(num_lra_vars, &participating) {
            real_model_values.clone_from(witness);
            return SolverResult::Sat;
        }
        let mut simplex = Simplex::new(num_lra_vars);
        for constraint in constraints {
            simplex.add_constraint(constraint.clone());
        }
        stats.theory_checks += 1;
        match simplex.check() {
            LraResult::Sat => {
                *real_model_values = simplex.model();
                encoder.theory_memo = TheoryMemo {
                    num_lra_vars,
                    participating,
                    witness: real_model_values.clone(),
                };
                return SolverResult::Sat;
            }
            LraResult::Unsat => {
                // Refinement lemma: at least one participating atom flips.
                // The lemma is theory-valid, so it is added permanently even
                // under assumptions.
                stats.theory_lemmas += 1;
                let lemma: Vec<Lit> = participating.iter().map(|&l| !l).collect();
                if !encoder.sat().add_clause(&lemma) {
                    return SolverResult::Unsat;
                }
            }
        }
    }
    SolverResult::Unknown
}
