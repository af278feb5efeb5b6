//! `pact` — approximate projected model counting for hybrid SMT formulas.
//!
//! This crate is the core contribution of the reproduced paper
//! ("Approximate SMT Counting Beyond Discrete Domains", DAC 2025): given a
//! hybrid SMT formula `F` (mixing bit-vectors, reals, floats, arrays, …) and
//! a projection set `S` of discrete variables, [`pact_count`] estimates
//! `|Sol(F)↓S|` with `(ε, δ)` guarantees using `O(log |S|)` SMT oracle calls
//! per iteration.
//!
//! Also provided, because the paper's evaluation needs them:
//!
//! * [`cdm_count`] — the Chistikov–Dimitrova–Majumdar baseline
//!   (self-composition + hashing), the "CDM" column of Table I;
//! * [`enumerate_count`] — the `enum` exact enumerator used to measure
//!   accuracy in Fig. 2;
//! * [`relative_error`] — the paper's error metric
//!   `e = max(b/s, s/b) − 1`.
//!
//! # Quickstart
//!
//! The primary API is the [`Session`]: declare the problem once (it owns the
//! term manager, the formula and the projection set), then count it as many
//! times — and under as many configurations — as needed.
//!
//! ```
//! use pact_ir::{TermManager, Sort, Rational};
//! use pact::{Session, CountOutcome};
//!
//! // A hybrid formula: 8-bit b, real r, with  b ≥ 32  ∧  0 < r < 1.
//! let mut tm = TermManager::new();
//! let b = tm.mk_var("b", Sort::BitVec(8));
//! let r = tm.mk_var("r", Sort::Real);
//! let c = tm.mk_bv_const(32, 8);
//! let f1 = tm.mk_bv_ule(c, b).unwrap();
//! let zero = tm.mk_real_const(Rational::ZERO);
//! let one = tm.mk_real_const(Rational::ONE);
//! let f2 = tm.mk_real_lt(zero, r).unwrap();
//! let f3 = tm.mk_real_lt(r, one).unwrap();
//!
//! // Count the projected models over {b} (the true count is 224).
//! let mut session = Session::builder(tm)
//!     .assert_all(&[f1, f2, f3])
//!     .project(b)
//!     .seed(1)
//!     .iterations(3)
//!     .build()
//!     .unwrap();
//! let report = session.count().unwrap();
//! assert!(report.outcome.value().unwrap() > 0.0);
//! ```
//!
//! The original free functions remain as thin compatibility wrappers over
//! the session (they borrow a [`TermManager`](pact_ir::TermManager) instead
//! of owning one); sessions additionally offer progress observation
//! ([`Progress`]), cooperative cancellation ([`CancellationToken`]) and
//! pluggable oracle backends ([`OracleFactory`], [`Oracle`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdm;
mod config;
mod constants;
mod counter;
mod enumerate;
mod error;
pub mod parallel;
mod progress;
mod result;
pub mod saturating;
mod session;

pub use cdm::{cdm_count, copies_for_epsilon};
pub use config::{BackendSpec, CounterConfig, OracleFactory, ParallelConfig};
pub use constants::{get_constants, Constants};
pub use counter::pact_count;
pub use enumerate::enumerate_count;
pub use error::{ConfigError, CountError, CountResult};
pub use pact_solver::{
    cubes_partition, CubeStats, InterruptFlag, PolicyStats, PortfolioStats, MAX_CUBE_DEPTH,
    MAX_CUBE_WORKERS, MAX_PORTFOLIO_WORKERS,
};
pub use progress::{CancellationToken, Progress, ProgressEvent, RunControl};
pub use result::{median, relative_error, CountOutcome, CountReport, CountStats};
pub use session::{Session, SessionBuilder};

// Re-export the pieces callers need to drive the counter (and to implement
// custom oracle backends).
pub use pact_hash::HashFamily;
pub use pact_solver::{
    CubeContext, IncrementalContext, Oracle, OracleStats, SolverConfig, SolverError, SolverResult,
};
