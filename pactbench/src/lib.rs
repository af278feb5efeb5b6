//! The repository benchmark: three seeded workloads over the pact
//! workspace, end-to-end metrics with tracing off, per-layer metrics from a
//! separate traced run.  See `README.md` next to this crate for how to run
//! it, how to read a trace, and why each workload exists.

#![forbid(unsafe_code)]

pub mod direct;
pub mod report;
pub mod trace;
pub mod wire;
pub mod workload;
