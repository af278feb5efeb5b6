//! Hybrid SMT intermediate representation for the `pact` model counter.
//!
//! This crate provides the term language shared by every other crate in the
//! workspace:
//!
//! * [`Sort`] — sorts for booleans, bit-vectors, reals, bounded integers,
//!   floating point (modelled, see `pact-solver`), arrays and uninterpreted
//!   functions.
//! * [`TermManager`] — a hash-consing term factory with light constant
//!   folding.  Terms are referenced by the cheap copyable [`TermId`]
//!   (`NonZeroU32`-backed, so `Option<TermId>` is free) and can be frozen
//!   into an immutable [`TermSnapshot`] shared across threads by `Arc`.
//! * [`parser`] — an SMT-LIB 2 subset parser sufficient for the logics the
//!   paper evaluates (QF_ABV, QF_BVFP, QF_UFBV, QF_BVFPLRA, QF_ABVFP,
//!   QF_ABVFPLRA).
//! * [`printer`] — the matching SMT-LIB 2 printer.
//!
//! # Example
//!
//! ```
//! use pact_ir::{TermManager, Sort};
//!
//! let mut tm = TermManager::new();
//! let x = tm.mk_var("x", Sort::BitVec(8));
//! let c = tm.mk_bv_const(42, 8);
//! let eq = tm.mk_eq(x, c);
//! assert_eq!(tm.sort(eq), Sort::Bool);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fxhash;
mod manager;
pub mod parser;
pub mod printer;
mod rational;
mod sort;
mod term;
mod value;

pub mod logic;

pub use manager::{AppHead, FunDecl, TermManager, TermSnapshot, Value};
pub use rational::Rational;
pub use sort::Sort;
pub use term::{Op, Term, TermId};
pub use value::BvValue;

/// Errors produced while constructing or parsing terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A term was applied to children of the wrong sort.
    SortMismatch {
        /// Human readable description of the offending operation.
        context: String,
    },
    /// The SMT-LIB input could not be parsed.
    Parse {
        /// Line where the error occurred (1-based).
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A feature of full SMT-LIB that this subset parser does not support.
    Unsupported(String),
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::SortMismatch { context } => write!(f, "sort mismatch: {context}"),
            IrError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            IrError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
        }
    }
}

impl std::error::Error for IrError {}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, IrError>;

// Send/Sync audit: the counting engine ships `TermManager`s and
// `Arc<TermSnapshot>`s into worker threads (one per scheduled round, one per
// service request), so these bounds are part of the crate's contract.  All
// term storage is owned (`Vec`s, `String`s, hash maps of plain data) and
// `unsafe` is forbidden crate-wide, so the auto traits hold structurally;
// these assertions make any future `Rc`/`RefCell`/raw-pointer regression a
// compile error here rather than a confusing one in `pact-core`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TermManager>();
    assert_send_sync::<TermSnapshot>();
    assert_send_sync::<Term>();
    assert_send_sync::<Value>();
};
