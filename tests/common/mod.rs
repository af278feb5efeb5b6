//! Helpers shared by the integration suites.

use pact::{CountOutcome, CountReport};

/// The deterministic slice of a report: the outcome plus the counters that
/// are a pure function of the query sequence — everything except
/// wall-clock times and the backend-specific work profile.
pub fn deterministic_parts(report: &CountReport) -> (CountOutcome, u64, u64, u32, u32) {
    (
        report.outcome.clone(),
        report.stats.oracle_calls,
        report.stats.cells_explored,
        report.stats.iterations,
        report.stats.final_hash_count,
    )
}
