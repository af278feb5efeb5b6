//! `SaturatingCounter` (§III-B): bounded projected-model enumeration.

use pact_ir::{BvValue, TermId, TermManager};
use pact_solver::{Oracle, Result, SolverResult};

use crate::progress::{ProgressEvent, RunControl};

/// The size of a cell as measured by the saturating counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellCount {
    /// The cell has exactly this many projected models (strictly below the
    /// threshold).
    Exact(u64),
    /// The cell has at least `thresh` projected models (the paper's `⊤`).
    Saturated,
    /// The oracle gave up (conflict budget or deadline exhausted).
    Unknown,
}

impl CellCount {
    /// Returns `true` for [`CellCount::Saturated`].
    pub fn is_saturated(&self) -> bool {
        matches!(self, CellCount::Saturated)
    }

    /// The exact size, if known.
    pub fn exact(&self) -> Option<u64> {
        match self {
            CellCount::Exact(n) => Some(*n),
            _ => None,
        }
    }
}

/// Enumerates projected models of the formula currently asserted in `ctx`
/// until `thresh` models are found (saturation) or the cell is exhausted,
/// checking the deadline *and* the cancellation token of `ctrl` before every
/// oracle call and emitting a [`ProgressEvent::Model`] for every projected
/// model it finds.
///
/// Every discovered projected model is blocked by asserting the negation of
/// `S = model` ([`Oracle::block_model`]: one clause over the projection's
/// bits on the workspace backends), so the enumeration counts *distinct
/// projected* assignments, exactly as §III-B describes.  Blocking clauses
/// are asserted in the current frame; callers wrap the call in
/// `push`/`pop` when the formula must be reused afterwards.
///
/// `reuse` is for callers that measure nested cells.  With `Some(known)`,
/// `known` are projected models the caller already knows to lie in the cell
/// (the models of a nested, exactly measured cell): they are blocked up
/// front and the count starts at their number, so each one saves the oracle
/// call that would have found it again; and for an [`CellCount::Exact`]
/// cell the second element of the result is the cell's full model set,
/// `known` included.  With `None` no models are kept, so a large exact
/// enumeration holds none of them in memory.  The second element is empty
/// for every other verdict.
///
/// Cancellation and deadline expiry surface as [`CellCount::Unknown`], the
/// same verdict as an oracle give-up, so callers need exactly one "stop now"
/// path.
///
/// # Errors
///
/// Propagates [`pact_solver::SolverError`] for unsupported constructs.
pub fn saturating_count_ctl<O: Oracle + ?Sized>(
    ctx: &mut O,
    tm: &mut TermManager,
    projection: &[TermId],
    thresh: u64,
    reuse: Option<&[Vec<BvValue>]>,
    ctrl: &RunControl,
) -> Result<(CellCount, Vec<Vec<BvValue>>)> {
    let known = reuse.unwrap_or_default();
    for model in known {
        ctx.block_model(tm, projection, model);
    }
    let mut models = known.to_vec();
    let mut count = known.len() as u64;
    loop {
        if ctrl.interrupted() {
            return Ok((CellCount::Unknown, Vec::new()));
        }
        match ctx.check(tm)? {
            SolverResult::Unsat => return Ok((CellCount::Exact(count), models)),
            SolverResult::Unknown => return Ok((CellCount::Unknown, Vec::new())),
            SolverResult::Sat => {
                count += 1;
                ctrl.emit(ProgressEvent::Model { found: count });
                if count >= thresh {
                    return Ok((CellCount::Saturated, Vec::new()));
                }
                let model = ctx
                    .projected_model(tm, projection)
                    .expect("model available after SAT");
                ctx.block_model(tm, projection, &model);
                if reuse.is_some() {
                    models.push(model);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::CancellationToken;
    use pact_ir::Sort;
    use pact_solver::{IncrementalContext, SolverConfig};
    use std::time::Instant;

    fn small_instance(tm: &mut TermManager) -> (TermId, TermId) {
        // x < 6 over 4 bits: exactly 6 projected models.
        let x = tm.mk_var("x", Sort::BitVec(4));
        let six = tm.mk_bv_const(6, 4);
        let f = tm.mk_bv_ult(x, six).unwrap();
        (x, f)
    }

    #[test]
    fn counts_exactly_below_threshold() {
        let mut tm = TermManager::new();
        let (x, f) = small_instance(&mut tm);
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        ctx.assert_term(f);
        let (c, models) = saturating_count_ctl(
            &mut ctx,
            &mut tm,
            &[x],
            100,
            None,
            &RunControl::with_deadline(None),
        )
        .unwrap();
        assert_eq!(c, CellCount::Exact(6));
        // Without `reuse` no models are kept.
        assert!(models.is_empty());
    }

    #[test]
    fn saturates_at_threshold() {
        let mut tm = TermManager::new();
        let (x, f) = small_instance(&mut tm);
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        ctx.assert_term(f);
        let c = saturating_count_ctl(
            &mut ctx,
            &mut tm,
            &[x],
            3,
            None,
            &RunControl::with_deadline(None),
        )
        .unwrap()
        .0;
        assert!(c.is_saturated());
    }

    #[test]
    fn unsat_formula_counts_zero() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let zero = tm.mk_bv_const(0, 4);
        let f = tm.mk_bv_ult(x, zero).unwrap();
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        ctx.assert_term(f);
        let c = saturating_count_ctl(
            &mut ctx,
            &mut tm,
            &[x],
            10,
            None,
            &RunControl::with_deadline(None),
        )
        .unwrap()
        .0;
        assert_eq!(c, CellCount::Exact(0));
    }

    #[test]
    fn projection_ignores_non_projected_variables() {
        // x is projected, y is free 2-bit: projected count is still 6.
        let mut tm = TermManager::new();
        let (x, f) = small_instance(&mut tm);
        let y = tm.mk_var("y", Sort::BitVec(2));
        let c1 = tm.mk_bv_const(3, 2);
        let g = tm.mk_bv_ule(y, c1).unwrap();
        let both = tm.mk_and([f, g]);
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        ctx.assert_term(both);
        let c = saturating_count_ctl(
            &mut ctx,
            &mut tm,
            &[x],
            100,
            None,
            &RunControl::with_deadline(None),
        )
        .unwrap()
        .0;
        assert_eq!(c, CellCount::Exact(6));
    }

    #[test]
    fn hybrid_projection_counts_extensible_assignments_only() {
        // b ∈ [0, 16), r real; constraint: b < 4 ∧ r > 0 ∧ r < 1.
        // The real part is satisfiable independently, so the projected count
        // is the number of b values: 4.
        let mut tm = TermManager::new();
        let b = tm.mk_var("b", Sort::BitVec(4));
        let r = tm.mk_var("r", Sort::Real);
        let four = tm.mk_bv_const(4, 4);
        let f1 = tm.mk_bv_ult(b, four).unwrap();
        let zero = tm.mk_real_const(pact_ir::Rational::ZERO);
        let one = tm.mk_real_const(pact_ir::Rational::ONE);
        let f2 = tm.mk_real_lt(zero, r).unwrap();
        let f3 = tm.mk_real_lt(r, one).unwrap();
        let mut ctx = IncrementalContext::new();
        ctx.track_var(b);
        for f in [f1, f2, f3] {
            ctx.assert_term(f);
        }
        let c = saturating_count_ctl(
            &mut ctx,
            &mut tm,
            &[b],
            100,
            None,
            &RunControl::with_deadline(None),
        )
        .unwrap()
        .0;
        assert_eq!(c, CellCount::Exact(4));
    }

    #[test]
    fn deadline_in_the_past_reports_unknown() {
        let mut tm = TermManager::new();
        let (x, f) = small_instance(&mut tm);
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        ctx.assert_term(f);
        let past = Instant::now();
        let c = saturating_count_ctl(
            &mut ctx,
            &mut tm,
            &[x],
            100,
            None,
            &RunControl::with_deadline(Some(past)),
        )
        .unwrap()
        .0;
        assert_eq!(c, CellCount::Unknown);
    }

    #[test]
    fn cancelled_token_reports_unknown() {
        let mut tm = TermManager::new();
        let (x, f) = small_instance(&mut tm);
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        ctx.assert_term(f);
        let token = CancellationToken::new();
        token.cancel();
        let ctrl = RunControl {
            cancel: Some(token),
            ..RunControl::default()
        };
        let (c, _) = saturating_count_ctl(&mut ctx, &mut tm, &[x], 100, None, &ctrl).unwrap();
        assert_eq!(c, CellCount::Unknown);
    }

    #[test]
    fn multi_variable_projection() {
        // x < 2 and y < 3 projected over {x, y}: 6 combinations.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(3));
        let y = tm.mk_var("y", Sort::BitVec(3));
        let two = tm.mk_bv_const(2, 3);
        let three = tm.mk_bv_const(3, 3);
        let f1 = tm.mk_bv_ult(x, two).unwrap();
        let f2 = tm.mk_bv_ult(y, three).unwrap();
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        ctx.track_var(y);
        ctx.assert_term(f1);
        ctx.assert_term(f2);
        let c = saturating_count_ctl(
            &mut ctx,
            &mut tm,
            &[x, y],
            100,
            None,
            &RunControl::with_deadline(None),
        )
        .unwrap()
        .0;
        assert_eq!(c, CellCount::Exact(6));
    }

    /// Measures `x < 200 ∧ x[0] = 0 ∧ … ∧ x[len-1] = 0` (the prefix of
    /// length `len` of three nested bit constraints) on a fresh oracle,
    /// blocking `known` up front; returns the verdict, the models and the
    /// number of oracle checks it took.
    fn measure_prefix<O: Oracle>(
        mut ctx: O,
        len: u32,
        thresh: u64,
        known: &[Vec<BvValue>],
    ) -> (CellCount, Vec<Vec<BvValue>>, u64) {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let bound = tm.mk_bv_const(200, 8);
        let f = tm.mk_bv_ult(x, bound).unwrap();
        let zero = tm.mk_bv_const(0, 1);
        ctx.track_var(x);
        ctx.assert_term(f);
        ctx.push();
        for bit in 0..len {
            let b = tm.mk_bv_extract(x, bit, bit).unwrap();
            let cleared = tm.mk_eq(b, zero);
            ctx.assert_term(cleared);
        }
        let (count, models) = saturating_count_ctl(
            &mut ctx,
            &mut tm,
            &[x],
            thresh,
            Some(known),
            &RunControl::default(),
        )
        .unwrap();
        ctx.pop();
        (count, models, ctx.stats().checks)
    }

    /// Seeding prefix 1 with the models of the nested prefix 3 (25 models)
    /// gives the unseeded verdict with exactly 25 fewer checks, both when
    /// prefix 1 (100 models) ends exact and when it saturates.
    fn seeded_measurement_saves_the_known_models<O: Oracle>(make: impl Fn() -> O) {
        let (inner, known, _) = measure_prefix(make(), 3, 80, &[]);
        assert_eq!(inner, CellCount::Exact(25));
        assert_eq!(known.len(), 25);
        for (thresh, expected) in [(120, CellCount::Exact(100)), (80, CellCount::Saturated)] {
            let (plain, plain_models, plain_checks) = measure_prefix(make(), 1, thresh, &[]);
            let (seeded, seeded_models, seeded_checks) = measure_prefix(make(), 1, thresh, &known);
            assert_eq!(plain, expected);
            assert_eq!(seeded, plain, "thresh {thresh}");
            assert_eq!(seeded_checks + 25, plain_checks, "thresh {thresh}");
            let mut plain_models = plain_models;
            let mut seeded_models = seeded_models;
            plain_models.sort();
            seeded_models.sort();
            assert_eq!(seeded_models, plain_models, "thresh {thresh}");
        }
    }

    #[test]
    fn known_models_are_reused_on_the_rebuild_backend() {
        seeded_measurement_saves_the_known_models(|| {
            IncrementalContext::rebuilding(SolverConfig::default())
        });
    }

    #[test]
    fn known_models_are_reused_on_the_incremental_backend() {
        seeded_measurement_saves_the_known_models(IncrementalContext::new);
    }
}
