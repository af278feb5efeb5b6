//! Umbrella crate of the `pact` reproduction workspace.
//!
//! The actual functionality lives in the member crates; this crate exists so
//! that the repository-level `examples/` and `tests/` directories have a
//! package to belong to, and it re-exports the public surface a downstream
//! user typically needs:
//!
//! * [`pact`] — the approximate projected model counter (the paper's
//!   contribution), plus the CDM baseline and the exact enumerator, fronted
//!   by the [`Session`] API;
//! * [`pact_ir`] — the term language and SMT-LIB parser/printer;
//! * [`pact_solver`] — the SMT oracle ([`Oracle`] trait + the
//!   `IncrementalContext` reference implementation);
//! * [`pact_hash`] — the hash families;
//! * [`pact_service`] — the counting-as-a-service batch server
//!   ([`CountingService`]);
//! * [`pact_benchgen`] — the workload generators.
//!
//! See `README.md` for a tour, `DESIGN.md` for the paper-to-code map, and
//! `EXPERIMENTS.md` for how the evaluation is regenerated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pact;
pub use pact_benchgen;
pub use pact_hash;
pub use pact_ir;
pub use pact_service;
pub use pact_solver;

// The session surface, re-exported flat for downstream convenience: most
// users need exactly these names.
pub use pact::{
    CancellationToken, ConfigError, CountError, CountOutcome, CountReport, CountResult,
    CounterConfig, Oracle, OracleFactory, Progress, ProgressEvent, Session, SessionBuilder,
};
pub use pact_service::{CountRequest, CountingService, RequestHandle, ServiceConfig};
