//! Count results, statistics and accuracy metrics.

use std::fmt;

use pact_solver::{CubeStats, Oracle, OracleStats, PolicyStats, PortfolioStats};

/// Statistics collected while counting one instance.
///
/// The run-level fields are the engine's own; everything an oracle
/// accounts for lives in [`CountStats::oracle`] and the three optional
/// backend-specific blocks, summed over every oracle the run built.  One
/// merge path feeds them: the engines fold each finished oracle in, and
/// `+=` folds a finished round into the run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CountStats {
    /// Number of SMT oracle (`check`) calls issued — the paper's cost
    /// measure; always equal to `oracle.checks`.
    pub oracle_calls: u64,
    /// Number of cells whose size was measured with `SaturatingCounter`.
    pub cells_explored: u64,
    /// Number of outer iterations completed (the length of the list `L`).
    pub iterations: u32,
    /// Number of hash constraints in the final cell of the last iteration.
    pub final_hash_count: u32,
    /// Wall-clock seconds spent inside oracle work (cell measurements),
    /// summed over all rounds — with parallel rounds this can exceed
    /// `wall_seconds`, like CPU time.
    pub oracle_seconds: f64,
    /// Wall-clock time spent, in seconds.
    pub wall_seconds: f64,
    /// Distinct terms interned by the run's term store at finish time.
    /// Stamped from the store (not summed per round): hash consing gives
    /// every structurally equal term one id, so this is the size of the
    /// shared id table the snapshots and caches key on.
    pub terms_interned: u64,
    /// The lifetime [`OracleStats`] of every oracle the run built, summed:
    /// SAT calls, conflicts, simplex checks and lemmas, encoder `rebuilds`
    /// (deterministic for a fixed seed and backend), `pool_reuses`,
    /// `compactions` and `preprocess_cache_hits`.
    pub oracle: OracleStats,
    /// Winner/cancelled accounting, when a backend raced workers
    /// ([`Oracle::portfolio`]).  `workers` is the most any oracle raced,
    /// clamped to [`pact_solver::MAX_PORTFOLIO_WORKERS`].
    pub portfolio: Option<PortfolioStats>,
    /// Cube split/solved/refuted accounting, when a backend split checks
    /// into cubes ([`Oracle::cube`]).
    pub cube: Option<CubeStats>,
    /// Routing accounting, when the adaptive policy ran ([`Oracle::policy`]).
    /// `cube_depth_max` is the deepest split any oracle reached.
    pub policy: Option<PolicyStats>,
}

impl CountStats {
    /// Folds a finished oracle's lifetime accounting into these stats: its
    /// [`OracleStats`] (whose `checks` also count as `oracle_calls`) and
    /// whichever backend-specific blocks it reports.
    pub(crate) fn absorb(&mut self, oracle: &dyn Oracle) {
        let stats = oracle.stats();
        self.oracle_calls += stats.checks;
        self.oracle += stats;
        merge(&mut self.portfolio, oracle.portfolio());
        merge(&mut self.cube, oracle.cube());
        merge(&mut self.policy, oracle.policy());
    }
}

impl std::ops::AddAssign<&CountStats> for CountStats {
    /// Folds a finished round into the run totals.  `terms_interned` (a
    /// size, stamped from the finished run's store), `final_hash_count` (the
    /// last round's, not a sum) and `wall_seconds` (stamped at the end) stay
    /// with the callers.
    fn add_assign(&mut self, round: &CountStats) {
        self.oracle_calls += round.oracle_calls;
        self.cells_explored += round.cells_explored;
        self.iterations += round.iterations;
        self.oracle_seconds += round.oracle_seconds;
        self.oracle += round.oracle;
        merge(&mut self.portfolio, round.portfolio);
        merge(&mut self.cube, round.cube);
        merge(&mut self.policy, round.policy);
    }
}

/// `None + Some(x)` is `Some(x)`, merged into a zero value so the
/// operand's own `+=` rules (maxima, clamps) apply to a first report too.
fn merge<T: std::ops::AddAssign + Default>(total: &mut Option<T>, part: Option<T>) {
    if let Some(part) = part {
        *total.get_or_insert_with(T::default) += part;
    }
}

/// The outcome of a counting run.
#[derive(Debug, Clone, PartialEq)]
pub enum CountOutcome {
    /// The projected model count was below `thresh` and is exact.
    Exact(u64),
    /// A hashing-based `(ε, δ)` estimate.
    Approximate {
        /// The estimated projected model count.
        estimate: f64,
        /// Base-2 logarithm of the estimate (stable even for huge counts).
        log2_estimate: f64,
    },
    /// The formula has no models over the projection set.
    Unsatisfiable,
    /// The per-instance budget (deadline or solver limits) was exhausted.
    Timeout,
}

impl CountOutcome {
    /// The numeric estimate, if the run produced one (exact counts are
    /// returned as-is; timeouts yield `None`).
    pub fn value(&self) -> Option<f64> {
        match self {
            CountOutcome::Exact(c) => Some(*c as f64),
            CountOutcome::Approximate { estimate, .. } => Some(*estimate),
            CountOutcome::Unsatisfiable => Some(0.0),
            CountOutcome::Timeout => None,
        }
    }

    /// Returns `true` when the instance finished within its budget.
    pub fn is_solved(&self) -> bool {
        !matches!(self, CountOutcome::Timeout)
    }

    /// The `(outcome, estimate, log2_estimate)` triple of the flat JSON
    /// encodings (bench records and wire results): an exact count `n`
    /// reports `log2(max(n, 1))`, unsat reports `0` / `0`, and a timeout
    /// `-1` / `-1` so both columns stay numeric.
    pub fn record_fields(&self) -> (&'static str, f64, f64) {
        match *self {
            CountOutcome::Exact(n) => ("exact", n as f64, (n as f64).max(1.0).log2()),
            CountOutcome::Approximate {
                estimate,
                log2_estimate,
            } => ("approximate", estimate, log2_estimate),
            CountOutcome::Unsatisfiable => ("unsat", 0.0, 0.0),
            CountOutcome::Timeout => ("timeout", -1.0, -1.0),
        }
    }
}

impl fmt::Display for CountOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountOutcome::Exact(c) => write!(f, "exact {c}"),
            CountOutcome::Approximate { estimate, .. } => write!(f, "≈ {estimate}"),
            CountOutcome::Unsatisfiable => write!(f, "unsat (0 models)"),
            CountOutcome::Timeout => write!(f, "timeout"),
        }
    }
}

/// A finished counting run: the outcome plus its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CountReport {
    /// What the counter concluded.
    pub outcome: CountOutcome,
    /// How much work it took.
    pub stats: CountStats,
}

/// Seals a run's statistics into a report: the rounds ran on their own
/// oracles and already merged their accounting into `stats`; the base
/// oracle's (the run's initial check) is absorbed on top here, and the wall
/// clock is stamped.  Shared by every engine so a stat added to
/// [`CountStats`] is threaded through exactly once.
pub(crate) fn finish_report(
    outcome: CountOutcome,
    mut stats: CountStats,
    base: &dyn Oracle,
    start: std::time::Instant,
) -> CountReport {
    stats.absorb(base);
    stats.wall_seconds = start.elapsed().as_secs_f64();
    CountReport { outcome, stats }
}

/// The observed relative error `e = max(b/s, s/b) − 1` between a baseline
/// (exact) count `b` and an estimate `s` (§IV-B of the paper).
///
/// Returns `None` when either count is zero or negative (the metric is not
/// defined there); two zero counts are a perfect match with error 0.
pub fn relative_error(exact: f64, estimate: f64) -> Option<f64> {
    if exact == 0.0 && estimate == 0.0 {
        return Some(0.0);
    }
    if exact <= 0.0 || estimate <= 0.0 {
        return None;
    }
    Some((exact / estimate).max(estimate / exact) - 1.0)
}

/// The median of a list of estimates (Algorithm 1, line 15).
///
/// Uses the lower median for even-length lists, matching ApproxMC-style
/// implementations.  Returns `None` on an empty list.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN estimates"));
    Some(sorted[(sorted.len() - 1) / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(workers: u32, cube_depth_max: u32) -> CountStats {
        CountStats {
            oracle_calls: 10,
            cells_explored: 2,
            iterations: 1,
            final_hash_count: 4,
            oracle_seconds: 0.5,
            wall_seconds: 0.75,
            terms_interned: 30,
            oracle: OracleStats {
                checks: 10,
                conflicts: 3,
                ..OracleStats::default()
            },
            portfolio: Some(PortfolioStats {
                workers,
                wins: [1; pact_solver::MAX_PORTFOLIO_WORKERS],
                cancelled: 2,
            }),
            cube: None,
            policy: Some(PolicyStats {
                switches: 1,
                backend_checks: [1, 2, 3, 4],
                cube_depth_max,
            }),
        }
    }

    #[test]
    fn count_stats_add_assign_keeps_maxima_and_fills_absent_blocks() {
        let mut total = CountStats::default();
        total += &round(3, 2);
        total += &round(2, 5);
        total += &CountStats {
            cube: Some(CubeStats {
                splits: 4,
                ..CubeStats::default()
            }),
            ..CountStats::default()
        };
        assert_eq!(total.oracle_calls, 20);
        assert_eq!(total.cells_explored, 4);
        assert_eq!(total.iterations, 2);
        assert_eq!(total.oracle_seconds, 1.0);
        assert_eq!(total.oracle.checks, 20);
        assert_eq!(total.oracle.conflicts, 6);
        // The two maxima: portfolio workers and the policy's cube depth.
        let portfolio = total.portfolio.unwrap();
        assert_eq!(portfolio.workers, 3);
        assert_eq!(portfolio.wins, [2; pact_solver::MAX_PORTFOLIO_WORKERS]);
        assert_eq!(portfolio.cancelled, 4);
        let policy = total.policy.unwrap();
        assert_eq!(policy.cube_depth_max, 5);
        assert_eq!(policy.switches, 2);
        assert_eq!(policy.backend_checks, [2, 4, 6, 8]);
        // `None + Some` is the `Some`.
        assert_eq!(total.cube.unwrap().splits, 4);
        // Sizes and stamps stay with the callers.
        assert_eq!(total.terms_interned, 0);
        assert_eq!(total.final_hash_count, 0);
        assert_eq!(total.wall_seconds, 0.0);
    }

    #[test]
    fn relative_error_is_symmetric() {
        assert_eq!(relative_error(100.0, 100.0), Some(0.0));
        let e1 = relative_error(100.0, 80.0).unwrap();
        let e2 = relative_error(80.0, 100.0).unwrap();
        assert!((e1 - e2).abs() < 1e-12);
        assert!((e1 - 0.25).abs() < 1e-12);
        assert_eq!(relative_error(0.0, 0.0), Some(0.0));
        assert_eq!(relative_error(0.0, 5.0), None);
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn outcome_values() {
        assert_eq!(CountOutcome::Exact(7).value(), Some(7.0));
        assert_eq!(CountOutcome::Unsatisfiable.value(), Some(0.0));
        assert_eq!(CountOutcome::Timeout.value(), None);
        assert!(!CountOutcome::Timeout.is_solved());
        let a = CountOutcome::Approximate {
            estimate: 128.0,
            log2_estimate: 7.0,
        };
        assert_eq!(a.value(), Some(128.0));
        assert!(a.is_solved());
    }

    #[test]
    fn outcome_display() {
        assert_eq!(CountOutcome::Exact(3).to_string(), "exact 3");
        assert_eq!(CountOutcome::Timeout.to_string(), "timeout");
    }
}
