//! The SMT oracle for the `pact` approximate model counter.
//!
//! This crate stands in for the CVC5 solver the paper builds on: it answers
//! incremental satisfiability queries over hybrid SMT formulas (bit-vectors,
//! booleans, bounded integers, linear real arithmetic, relaxed floating
//! point, arrays and uninterpreted functions) and produces models projected
//! onto discrete variables.
//!
//! Architecture (see `DESIGN.md` for the paper-to-repo mapping):
//!
//! * [`preprocess`] removes arrays and uninterpreted functions by
//!   read-over-write rewriting and Ackermannization.
//! * [`Encoder`](bitblast::Encoder) bit-blasts the discrete structure into
//!   the `pact-sat` CDCL solver (with native XOR rows for hash constraints)
//!   and abstracts real/float atoms into boolean literals.
//! * [`IncrementalContext`] is the single-engine context: it runs the lazy
//!   DPLL(T) loop against the `pact-lra` simplex core and exposes an
//!   SMT-LIB-style assert / push / pop / check / model interface.  `pop`
//!   retires frames under activation literals, so learnt clauses and
//!   branching activities survive the counting loop's push/pop cycles
//!   (`rebuilds` stays 0).  In rebuild mode
//!   ([`IncrementalContext::rebuilding`], the `rebuild` backend) every `pop`
//!   that retired encoded assertions makes the next `check` re-encode the
//!   live frames into a fresh solver.
//! * [`PortfolioContext`] races N diversified workers (contexts in either
//!   mode with distinct polarity, restart and branching-noise settings)
//!   inside every `check`, keeps the first SAT/UNSAT answer and cancels the
//!   losers via [`InterruptFlag`].
//! * [`CubeContext`] is the cube-and-conquer backend: instead of racing
//!   whole solves it *partitions* one hard `check` — a lookahead pass picks
//!   split bits, up to `2^d` cubes are generated (with probe-based
//!   pruning), and the survivors are conquered in parallel; a SAT cube
//!   short-circuits, all-UNSAT over the validated partition means UNSAT.
//! * [`PolicyOracle`] is the adaptive meta-backend: it journals the
//!   assertion stack, wraps the four concrete backends, and re-routes each
//!   `check` from a sliding window of deterministic observations (conflict
//!   trends, split/refutation rates) — escalating to cube or portfolio on
//!   hard streaks and decaying back when checks turn easy again.
//! * [`Oracle`] abstracts that interface into a trait, so the counting
//!   engine (and its tests) can swap in alternative or instrumented
//!   backends; `IncrementalContext` is the reference implementation.
//!
//! # Example
//!
//! ```
//! use pact_ir::{TermManager, Sort, Rational};
//! use pact_solver::{IncrementalContext, SolverResult};
//!
//! // A hybrid constraint: b < 8 (bit-vector) and 0 < r < 1 (real).
//! let mut tm = TermManager::new();
//! let b = tm.mk_var("b", Sort::BitVec(4));
//! let r = tm.mk_var("r", Sort::Real);
//! let eight = tm.mk_bv_const(8, 4);
//! let zero = tm.mk_real_const(Rational::ZERO);
//! let one = tm.mk_real_const(Rational::ONE);
//! let f1 = tm.mk_bv_ult(b, eight).unwrap();
//! let f2 = tm.mk_real_lt(zero, r).unwrap();
//! let f3 = tm.mk_real_lt(r, one).unwrap();
//!
//! let mut ctx = IncrementalContext::new();
//! ctx.assert_term(f1);
//! ctx.assert_term(f2);
//! ctx.assert_term(f3);
//! assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitblast;
mod context;
mod cube;
mod dpllt;
mod error;
mod incremental;
mod model;
mod oracle;
mod policy;
mod pool;
mod portfolio;
pub mod preprocess;

pub use context::{OracleStats, SolverConfig, SolverResult};
pub use cube::{
    cubes_partition, resolve_cube_verdicts, CubeBit, CubeContext, CubeStats, MAX_CUBE_DEPTH,
    MAX_CUBE_WORKERS, PROBE_CONFLICTS,
};
pub use error::{Result, SolverError};
pub use incremental::IncrementalContext;
pub use oracle::{block_model_by_terms, Oracle};
pub use pact_sat::{InterruptFlag, SatOptions};
pub use policy::{
    PolicyOracle, PolicyStats, POLICY_BACKENDS, POLICY_WINDOW, SLOT_CUBE, SLOT_INCREMENTAL,
    SLOT_PORTFOLIO, SLOT_REBUILD,
};
pub use pool::PoolHandle;
pub use portfolio::{
    PortfolioContext, PortfolioStats, WorkerProfile, WorkerReport, MAX_PORTFOLIO_WORKERS,
    WORKER_PROFILES,
};

// Send audit: the counting engine builds one oracle per scheduled round
// and moves it into a worker thread.  The context owns its assertion stack,
// encoder and witness storage outright (no shared-ownership types; `unsafe`
// is forbidden crate-wide), so `Send` holds structurally; this assertion
// pins that property at the crate boundary.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<IncrementalContext>();
    assert_send::<PortfolioContext>();
    assert_send::<CubeContext>();
    assert_send::<PolicyOracle>();
    assert_send::<bitblast::Encoder>();
    assert_send::<SolverError>();
    // `Oracle: Send` is a supertrait bound, so boxed trait objects cross the
    // scheduler's thread boundary too.
    assert_send::<Box<dyn Oracle>>();
};
