//! The `enum` exact baseline (§IV-B): projected counting by enumeration.

use std::time::Instant;

use pact_ir::{TermId, TermManager};

use crate::config::CounterConfig;
use crate::error::{CountError, CountResult};
use crate::progress::{ProgressEvent, RunControl};
use crate::result::{finish_report, CountOutcome, CountReport, CountStats};
use crate::saturating::{saturating_count_ctl, CellCount};
use crate::session::Session;

/// Counts projected models exactly by enumerating and blocking them, up to
/// `limit` models.
///
/// This is the `enum` baseline the paper uses to assess the accuracy of
/// `pact` (Fig. 2): it only terminates on instances with small counts, which
/// is exactly why an approximate counter is needed.  Instances whose count
/// reaches `limit` (or whose budget expires) report
/// [`CountOutcome::Timeout`].
///
/// This is the compatibility form; [`Session::enumerate`] counts the same
/// problem repeatedly without re-declaring it, and reports every discovered
/// model to the session's progress observer.
///
/// # Errors
///
/// Returns [`CountError::Config`] for invalid parameters,
/// [`CountError::EmptyProjection`] for an empty projection set, and
/// [`CountError::Solver`] for unsupported constructs.  Note that the
/// `(ε, δ)` fields are validated for uniformity with the other entry
/// points even though enumeration does not use them — a deliberate
/// tightening over the pre-session API, which skipped validation here.
///
/// # Example
///
/// ```
/// use pact_ir::{TermManager, Sort};
/// use pact::{enumerate_count, CounterConfig, CountOutcome};
///
/// let mut tm = TermManager::new();
/// let x = tm.mk_var("x", Sort::BitVec(8));
/// let c = tm.mk_bv_const(42, 8);
/// let f = tm.mk_bv_ult(x, c).unwrap();
/// let report = enumerate_count(&mut tm, &[f], &[x], 1000, &CounterConfig::fast()).unwrap();
/// assert_eq!(report.outcome, CountOutcome::Exact(42));
/// ```
pub fn enumerate_count(
    tm: &mut TermManager,
    formula: &[TermId],
    projection: &[TermId],
    limit: u64,
    config: &CounterConfig,
) -> CountResult<CountReport> {
    config.validate()?;
    if projection.is_empty() {
        return Err(CountError::EmptyProjection);
    }
    let mut session = Session::builder(std::mem::take(tm))
        .assert_all(formula)
        .project_all(projection)
        .config(config.clone())
        .build()
        .expect("configuration validated above");
    let result = session.enumerate(limit);
    *tm = session.into_term_manager();
    result
}

/// The engine behind [`enumerate_count`] and [`Session::enumerate`].
pub(crate) fn count_enumerate(
    tm: &mut TermManager,
    formula: &[TermId],
    projection: &[TermId],
    limit: u64,
    config: &CounterConfig,
    hooks: &RunControl,
) -> CountResult<CountReport> {
    config.validate()?;
    if projection.is_empty() {
        return Err(CountError::EmptyProjection);
    }
    let start = Instant::now();
    let ctrl = RunControl {
        deadline: config.deadline.map(|d| start + d),
        ..hooks.clone()
    };
    let mut ctx = config.oracle_factory.build(config.solver);
    if let Some(flag) = ctrl.solver_interrupt() {
        ctx.set_interrupt(flag);
    }
    for &v in projection {
        ctx.track_var(v);
    }
    for &f in formula {
        ctx.assert_term(f);
    }
    let mut stats = CountStats::default();
    let oracle_timer = Instant::now();
    let (result, _) = saturating_count_ctl(&mut *ctx, tm, projection, limit, None, &ctrl)?;
    stats.oracle_seconds = oracle_timer.elapsed().as_secs_f64();
    stats.cells_explored = 1;
    stats.terms_interned = tm.len() as u64;
    ctrl.emit(ProgressEvent::Cell {
        round: 0,
        cells_in_round: 1,
    });
    let outcome = match result {
        CellCount::Exact(0) => CountOutcome::Unsatisfiable,
        CellCount::Exact(n) => CountOutcome::Exact(n),
        CellCount::Saturated | CellCount::Unknown => CountOutcome::Timeout,
    };
    Ok(finish_report(outcome, stats, &*ctx, start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_ir::Sort;

    #[test]
    fn exact_enumeration_of_a_small_instance() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let c = tm.mk_bv_const(17, 6);
        let f = tm.mk_bv_ult(x, c).unwrap();
        let report = enumerate_count(&mut tm, &[f], &[x], 1_000, &CounterConfig::fast()).unwrap();
        assert_eq!(report.outcome, CountOutcome::Exact(17));
    }

    #[test]
    fn limit_is_reported_as_timeout() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let c = tm.mk_bv_const(5, 8);
        let f = tm.mk_bv_ule(c, x).unwrap(); // 251 models
        let report = enumerate_count(&mut tm, &[f], &[x], 50, &CounterConfig::fast()).unwrap();
        assert_eq!(report.outcome, CountOutcome::Timeout);
    }

    #[test]
    fn unsat_is_zero() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(5));
        let a = tm.mk_bv_const(3, 5);
        let f1 = tm.mk_bv_ult(x, a).unwrap();
        let f2 = tm.mk_bv_ult(a, x).unwrap();
        let eq = tm.mk_eq(x, a);
        let neq = tm.mk_not(eq);
        let both = tm.mk_and([f1, f2, neq]);
        let report = enumerate_count(&mut tm, &[both], &[x], 100, &CounterConfig::fast()).unwrap();
        assert_eq!(report.outcome, CountOutcome::Unsatisfiable);
    }
}
