//! A CDCL SAT solver with native XOR reasoning, built for the `pact`
//! approximate SMT model counter.
//!
//! The solver implements the classic MiniSat architecture — two-watched
//! literal propagation, VSIDS branching, first-UIP clause learning, Luby
//! restarts, phase saving and solving under assumptions — extended with an
//! XOR engine ([`xor::XorEngine`]) that propagates parity constraints
//! natively instead of expanding them to CNF.  Native XOR handling is the
//! mechanism behind the `H_xor` hash family's performance in the paper
//! (§III-E), mirroring what CryptoMiniSat provides to the original tool.
//! A satisfying assignment stays on the trail, so an enumeration loop that
//! blocks each model and solves again under the same assumptions resumes
//! from it instead of re-deciding from the root, and a blocking clause the
//! model falsifies on its last level is that next call's first conflict
//! (see [`Solver::solve`] and [`Solver::add_clause`]).
//!
//! # Example
//!
//! ```
//! use pact_sat::{Solver, SatResult};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var();
//! let y = solver.new_var();
//! let z = solver.new_var();
//! // x ∨ y, ¬x, and parity x ⊕ y ⊕ z = 1
//! solver.add_clause(&[x.positive(), y.positive()]);
//! solver.add_clause(&[!x.positive()]);
//! solver.add_xor(&[x, y, z], true);
//! assert_eq!(solver.solve(&[]), SatResult::Sat);
//! assert!(solver.model_value(y));
//! assert!(!solver.model_value(z));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod heap;
mod lit;
mod solver;
pub mod xor;

pub use lit::{LBool, Lit, Var};
pub use solver::{InterruptFlag, SatOptions, SatResult, SatStats, Solver};

// Send audit: `Solver` instances live inside the per-round oracles the
// counting engine schedules across threads.  The solver owns all its state
// (clause arena, watch lists, trail — plain `Vec`s) and `unsafe` is
// forbidden crate-wide, so `Send` holds structurally; this assertion pins
// that property at the crate boundary.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Solver>();
};
