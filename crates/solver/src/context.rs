//! The oracle's shared vocabulary — verdicts, resource limits, statistics,
//! the assertion enum and its encoder, and the preprocessing cache — used by
//! the single-engine [`IncrementalContext`](crate::IncrementalContext) and
//! the parallel front-ends built from it.

use std::collections::HashMap;

use pact_ir::{BvValue, TermId, TermManager};
use pact_sat::Lit;

use crate::bitblast::Encoder;
use crate::error::{Result, SolverError};
use crate::preprocess::{preprocess, Preprocessed};

/// Preprocessing results keyed by the raw asserted term, computed once by
/// the portfolio and cube front-ends so their workers can encode against a
/// shared `&TermManager` without mutating it.
pub(crate) type PreprocessCache = HashMap<TermId, Preprocessed>;

/// Warms `cache` for every pending raw assertion in `to_warm` (entries are
/// `(frame depth, term)`; the depth tag is the caller's, used to retire
/// entries on `pop`).  This is the only `&mut TermManager` work of a
/// parallel backend's check.  On failure the offending entry (and
/// everything after it) stays pending, so a retried check reports the same
/// error, while popping the frame that asserted it retires the entry.
///
/// With hash-consed terms, a structurally identical assertion re-asserted
/// after a `pop` (the galloping search re-blocks the same models across
/// overlapping cells) resolves to the same `TermId` and is served straight
/// from the cache — counted in `hits`.
pub(crate) fn warm_preprocess_cache(
    to_warm: &mut Vec<(usize, TermId)>,
    cache: &mut PreprocessCache,
    tm: &mut TermManager,
    hits: &mut u64,
) -> Result<()> {
    let mut warmed = 0;
    let result = loop {
        let Some(&(_, t)) = to_warm.get(warmed) else {
            break Ok(());
        };
        if cache.contains_key(&t) {
            *hits += 1;
            warmed += 1;
            continue;
        }
        match preprocess(tm, &[t]) {
            Ok(pre) => {
                cache.insert(t, pre);
                warmed += 1;
            }
            Err(error) => break Err(error),
        }
    };
    to_warm.drain(..warmed);
    result
}

/// Decrements a live-worker probe even if the worker panics; the parallel
/// backends' scoped threads enter one so leak tests (and service metrics)
/// can observe that no worker outlives its `check`.
pub(crate) struct LiveGuard(std::sync::Arc<std::sync::atomic::AtomicUsize>);

impl LiveGuard {
    pub(crate) fn enter(probe: std::sync::Arc<std::sync::atomic::AtomicUsize>) -> Self {
        probe.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        LiveGuard(probe)
    }
}

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
    }
}

/// How a `check` may touch the term manager.
///
/// The normal path owns it exclusively: preprocessing interns rewritten
/// terms directly.  The portfolio race path shares it read-only across
/// worker threads and supplies every assertion's preprocessing from a cache
/// warmed up front (interning is the *only* mutation the check pipeline
/// performs, so everything downstream of preprocessing works on `&TermManager`).
pub(crate) enum TmView<'a> {
    /// Exclusive access; preprocessing happens inline.
    Exclusive(&'a mut TermManager),
    /// Shared read-only access with pre-computed preprocessing.
    Shared(&'a TermManager, &'a PreprocessCache),
}

impl TmView<'_> {
    pub(crate) fn tm(&self) -> &TermManager {
        match self {
            TmView::Exclusive(tm) => tm,
            TmView::Shared(tm, _) => tm,
        }
    }

    /// Preprocessing of `t`, served from the caller's term-id-keyed `local`
    /// cache when the identical term was preprocessed before (hash consing
    /// makes structural identity id identity).  Cache hits are counted in
    /// `hits`; misses are computed (Exclusive) or fetched from the shared
    /// warm cache (Shared) and memoized.
    pub(crate) fn preprocess(
        &mut self,
        t: TermId,
        local: &mut PreprocessCache,
        hits: &mut u64,
    ) -> Result<Preprocessed> {
        if let Some(pre) = local.get(&t) {
            *hits += 1;
            return Ok(pre.clone());
        }
        let pre = match self {
            TmView::Exclusive(tm) => preprocess(tm, &[t])?,
            TmView::Shared(_, cache) => cache.get(&t).cloned().ok_or_else(|| {
                SolverError::Internal(
                    "assertion missing from the shared preprocess cache".to_string(),
                )
            })?,
        };
        local.insert(t, pre.clone());
        Ok(pre)
    }
}

/// Verdict of an [`Oracle::check`](crate::Oracle::check) call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverResult {
    /// Satisfiable; a model is available.
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// The per-check resource budget was exhausted.
    Unknown,
}

/// Tunable resource limits of the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Maximum CDCL conflicts per `check` call (`None` = unlimited).
    ///
    /// The budget is cumulative across the lazy theory-refinement
    /// iterations of one `check`: however many SAT calls the refinement loop
    /// needs, they share this many conflicts in total.
    pub max_conflicts: Option<u64>,
    /// Maximum lazy theory-refinement iterations per `check` call.
    pub max_theory_iterations: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_conflicts: None,
            max_theory_iterations: 10_000,
        }
    }
}

/// Cumulative statistics over the lifetime of a context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Number of `check` calls answered.
    pub checks: u64,
    /// Number of SAT-solver invocations (≥ `checks` because of the lazy
    /// theory loop).
    pub sat_calls: u64,
    /// Number of simplex feasibility checks.
    pub theory_checks: u64,
    /// Number of theory-refinement lemmas learnt.
    pub theory_lemmas: u64,
    /// Number of encoder rebuilds: rebuild mode's `pop`s that retired
    /// encoded assertions and so armed a re-encode of the live frames at
    /// the next `check` (counted at the `pop`; a `pop` while one is already
    /// armed adds nothing).  A rebuild
    /// throws away the learnt clauses and branching activities of the
    /// previous encoder, so this is the headline cost the default
    /// (incremental) mode eliminates.
    pub rebuilds: u64,
    /// Number of CDCL conflicts spent across the oracle's lifetime
    /// (including solvers discarded by rebuilds).
    pub conflicts: u64,
    /// Number of work batches served by a persistent worker pool (portfolio
    /// races and cube conquests answered by long-lived threads instead of a
    /// fresh spawn/join cycle).  0 for the single-engine backends.
    pub pool_reuses: u64,
    /// Number of compactions: a default-mode incremental engine re-encoded
    /// its live frames into a fresh solver because a popped frame's terms
    /// had allocated SAT variables (gates, fresh variable bits) that would
    /// otherwise stay in every later check.  Frames of XOR rows and blocked
    /// models never cause one.  Rebuild mode's re-encodes are counted as
    /// `rebuilds` instead.
    pub compactions: u64,
    /// Encoded assertions (terms, XOR rows and blocked models) of retired
    /// frames shed by compactions.
    pub dead_clauses_reclaimed: u64,
    /// Preprocessing results served from a term-id-keyed cache instead of
    /// being recomputed: per-context memoization on re-encodes (rebuilds
    /// and compactions replay the live frames) plus, for the parallel
    /// backends, warm-cache hits when a hash-consed assertion recurs across
    /// checks.
    pub preprocess_cache_hits: u64,
}

impl std::ops::AddAssign for OracleStats {
    /// Sums every field.  The destructuring makes a new field a compile
    /// error here until its merge rule is written down.
    fn add_assign(&mut self, rhs: OracleStats) {
        let OracleStats {
            checks,
            sat_calls,
            theory_checks,
            theory_lemmas,
            rebuilds,
            conflicts,
            pool_reuses,
            compactions,
            dead_clauses_reclaimed,
            preprocess_cache_hits,
        } = rhs;
        self.checks += checks;
        self.sat_calls += sat_calls;
        self.theory_checks += theory_checks;
        self.theory_lemmas += theory_lemmas;
        self.rebuilds += rebuilds;
        self.conflicts += conflicts;
        self.pool_reuses += pool_reuses;
        self.compactions += compactions;
        self.dead_clauses_reclaimed += dead_clauses_reclaimed;
        self.preprocess_cache_hits += preprocess_cache_hits;
    }
}

/// One assertion on a backend's stack, awaiting (or replayed into) the
/// encoder.
#[derive(Debug, Clone)]
pub(crate) enum Assertion {
    Term(TermId),
    /// XOR of the chosen bits (`(variable, bit index)`) equals `rhs`.
    XorBits(Vec<(TermId, u32)>, bool),
    /// A blocked projected model, `¬(v₁ = c₁ ∧ …)` over boolean and
    /// bit-vector variables (see [`crate::Oracle::block_model`]).
    Block(Vec<(TermId, BvValue)>),
}

/// Encodes one assertion into `encoder`, guarded by the activation literal
/// `guard` when given (an assertion inside a frame).  Returns the
/// engine id of a stored native XOR row, so a frame can retire it.
pub(crate) fn encode_assertion(
    encoder: &mut Encoder,
    view: &mut TmView<'_>,
    assertion: &Assertion,
    guard: Option<Lit>,
    cache: &mut PreprocessCache,
    hits: &mut u64,
) -> Result<Option<usize>> {
    match assertion {
        Assertion::Term(t) => {
            let pre = view.preprocess(*t, cache, hits)?;
            let tm = view.tm();
            for &a in pre.assertions.iter().chain(pre.axioms.iter()) {
                if encoder.try_assert_blocking(tm, a, guard)? {
                    continue;
                }
                match guard {
                    None => encoder.assert_term(tm, a)?,
                    Some(g) => {
                        let lit = encoder.encode_bool(tm, a)?;
                        encoder.sat().add_clause(&[!g, lit]);
                    }
                }
            }
            Ok(None)
        }
        Assertion::XorBits(bits, rhs) => {
            let mut lits = encoder.xor_bit_lits(view.tm(), bits)?;
            if let Some(g) = guard {
                // CNF-side selector: while the frame is live, `g` forces
                // the slack off and the row is exactly the constraint;
                // after `pop` asserts `¬g` the free slack absorbs any
                // parity, neutralising the row.
                let slack = encoder.sat().new_var().positive();
                encoder.sat().add_clause(&[!g, !slack]);
                lits.push(slack);
            }
            Ok(encoder.add_xor_over_lits(&lits, *rhs))
        }
        Assertion::Block(pairs) => {
            encoder.assert_blocking_clause(view.tm(), pairs, guard)?;
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IncrementalContext;
    use pact_ir::{Rational, Sort, Value};

    #[test]
    fn oracle_stats_add_assign_sums_every_field() {
        let a = OracleStats {
            checks: 1,
            sat_calls: 2,
            theory_checks: 3,
            theory_lemmas: 4,
            rebuilds: 5,
            conflicts: 6,
            pool_reuses: 7,
            compactions: 8,
            dead_clauses_reclaimed: 9,
            preprocess_cache_hits: 10,
        };
        let b = OracleStats {
            checks: 100,
            sat_calls: 200,
            theory_checks: 300,
            theory_lemmas: 400,
            rebuilds: 500,
            conflicts: 600,
            pool_reuses: 700,
            compactions: 800,
            dead_clauses_reclaimed: 900,
            preprocess_cache_hits: 1000,
        };
        let mut sum = a;
        sum += b;
        assert_eq!(
            sum,
            OracleStats {
                checks: 101,
                sat_calls: 202,
                theory_checks: 303,
                theory_lemmas: 404,
                rebuilds: 505,
                conflicts: 606,
                pool_reuses: 707,
                compactions: 808,
                dead_clauses_reclaimed: 909,
                preprocess_cache_hits: 1010,
            }
        );
    }

    #[test]
    fn pure_bv_sat_and_model() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let c = tm.mk_bv_const(200, 8);
        let f = tm.mk_bv_ult(c, x).unwrap();
        let mut ctx = IncrementalContext::new();
        ctx.assert_term(f);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let v = ctx.model_value(&tm, x).unwrap().as_bv().unwrap();
        assert!(v.as_u128() > 200);
    }

    #[test]
    fn hybrid_bv_lra_interaction() {
        // b < 4 (bit-vector) and r > 0.5 and r < 1.0 (real): satisfiable.
        let mut tm = TermManager::new();
        let b = tm.mk_var("b", Sort::BitVec(4));
        let r = tm.mk_var("r", Sort::Real);
        let four = tm.mk_bv_const(4, 4);
        let f1 = tm.mk_bv_ult(b, four).unwrap();
        let half = tm.mk_real_const(Rational::new(1, 2));
        let one = tm.mk_real_const(Rational::ONE);
        let f2 = tm.mk_real_lt(half, r).unwrap();
        let f3 = tm.mk_real_lt(r, one).unwrap();
        let mut ctx = IncrementalContext::new();
        ctx.assert_term(f1);
        ctx.assert_term(f2);
        ctx.assert_term(f3);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let rv = match ctx.model_value(&tm, r).unwrap() {
            Value::Real(v) => v,
            other => panic!("expected real value, got {other:?}"),
        };
        assert!(rv > Rational::new(1, 2) && rv < Rational::ONE);
    }

    #[test]
    fn theory_conflict_makes_formula_unsat() {
        // p selects between r < 0 and r > 1, but also r = 1/2 is asserted,
        // and p is forced both ways through bv constraints -> unsat overall.
        let mut tm = TermManager::new();
        let r = tm.mk_var("r", Sort::Real);
        let zero = tm.mk_real_const(Rational::ZERO);
        let one = tm.mk_real_const(Rational::ONE);
        let f1 = tm.mk_real_lt(r, zero).unwrap();
        let f2 = tm.mk_real_lt(one, r).unwrap();
        let both = tm.mk_and([f1, f2]);
        let mut ctx = IncrementalContext::new();
        ctx.assert_term(both);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unsat);
    }

    #[test]
    fn disjunction_over_real_atoms_needs_refinement() {
        // (r < 0 ∨ r > 1) ∧ 0 <= r ∧ r <= 2  is satisfiable with r in (1, 2].
        let mut tm = TermManager::new();
        let r = tm.mk_var("r", Sort::Real);
        let zero = tm.mk_real_const(Rational::ZERO);
        let one = tm.mk_real_const(Rational::ONE);
        let two = tm.mk_real_const(Rational::from_int(2));
        let lt0 = tm.mk_real_lt(r, zero).unwrap();
        let gt1 = tm.mk_real_lt(one, r).unwrap();
        let disj = tm.mk_or([lt0, gt1]);
        let ge0 = tm.mk_real_le(zero, r).unwrap();
        let le2 = tm.mk_real_le(r, two).unwrap();
        let mut ctx = IncrementalContext::new();
        ctx.assert_term(disj);
        ctx.assert_term(ge0);
        ctx.assert_term(le2);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let rv = match ctx.model_value(&tm, r).unwrap() {
            Value::Real(v) => v,
            other => panic!("expected real value, got {other:?}"),
        };
        assert!(
            rv > Rational::ONE && rv <= Rational::from_int(2),
            "r = {rv}"
        );
    }

    #[test]
    fn push_pop_restores_satisfiability() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let three = tm.mk_bv_const(3, 4);
        let f = tm.mk_bv_ult(x, three).unwrap();
        let mut ctx = IncrementalContext::rebuilding(SolverConfig::default());
        ctx.assert_term(f);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        ctx.push();
        let zero = tm.mk_bv_const(0, 4);
        let g = tm.mk_bv_ult(x, zero).unwrap(); // impossible
        ctx.assert_term(g);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unsat);
        ctx.pop();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(ctx.stats().rebuilds, 1);
    }

    #[test]
    fn enumeration_with_blocking_within_a_frame() {
        // x < 3 on 4 bits has exactly 3 projected models.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let three = tm.mk_bv_const(3, 4);
        let f = tm.mk_bv_ult(x, three).unwrap();
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        ctx.assert_term(f);
        let mut seen = Vec::new();
        loop {
            match ctx.check(&mut tm).unwrap() {
                SolverResult::Sat => {
                    let v = ctx.model_value(&tm, x).unwrap().as_bv().unwrap();
                    assert!(v.as_u128() < 3);
                    assert!(!seen.contains(&v.as_u128()), "model repeated");
                    seen.push(v.as_u128());
                    let c = tm.mk_bv_value(v);
                    let eq = tm.mk_eq(x, c);
                    let block = tm.mk_not(eq);
                    ctx.assert_term(block);
                }
                SolverResult::Unsat => break,
                SolverResult::Unknown => panic!("unexpected unknown"),
            }
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn xor_bits_assertion_halves_the_space() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(3));
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        ctx.assert_xor_bits(vec![(x, 0), (x, 1), (x, 2)], true);
        let mut count = 0;
        loop {
            match ctx.check(&mut tm).unwrap() {
                SolverResult::Sat => {
                    count += 1;
                    assert!(count <= 4);
                    let v = ctx.model_value(&tm, x).unwrap().as_bv().unwrap();
                    assert_eq!(v.as_u128().count_ones() % 2, 1);
                    let c = tm.mk_bv_value(v);
                    let eq = tm.mk_eq(x, c);
                    let block = tm.mk_not(eq);
                    ctx.assert_term(block);
                }
                SolverResult::Unsat => break,
                SolverResult::Unknown => panic!("unexpected unknown"),
            }
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn arrays_and_uf_are_solved_via_preprocessing() {
        let mut tm = TermManager::new();
        let a = tm.mk_var("a", Sort::array(Sort::BitVec(2), Sort::BitVec(4)));
        let i = tm.mk_var("i", Sort::BitVec(2));
        let j = tm.mk_var("j", Sort::BitVec(2));
        let si = tm.mk_select(a, i).unwrap();
        let sj = tm.mk_select(a, j).unwrap();
        let idx_eq = tm.mk_eq(i, j);
        let val_neq = {
            let eq = tm.mk_eq(si, sj);
            tm.mk_not(eq)
        };
        // i = j but a[i] != a[j] violates congruence: unsat.
        let mut ctx = IncrementalContext::new();
        ctx.assert_term(idx_eq);
        ctx.assert_term(val_neq);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unsat);

        let f = tm.declare_fun("f", vec![Sort::BitVec(4)], Sort::BitVec(4));
        let x = tm.mk_var("x", Sort::BitVec(4));
        let y = tm.mk_var("y", Sort::BitVec(4));
        let fx = tm.mk_apply(f, vec![x]).unwrap();
        let fy = tm.mk_apply(f, vec![y]).unwrap();
        let xeqy = tm.mk_eq(x, y);
        let fneq = {
            let eq = tm.mk_eq(fx, fy);
            tm.mk_not(eq)
        };
        let mut ctx2 = IncrementalContext::new();
        ctx2.assert_term(xeqy);
        ctx2.assert_term(fneq);
        assert_eq!(ctx2.check(&mut tm).unwrap(), SolverResult::Unsat);
    }

    #[test]
    fn unknown_on_tiny_budget() {
        // A multiplication constraint with a 1-conflict budget.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(10));
        let y = tm.mk_var("y", Sort::BitVec(10));
        let prod = tm.mk_bv_mul(x, y).unwrap();
        let c = tm.mk_bv_const(851, 10);
        let f = tm.mk_eq(prod, c);
        let two = tm.mk_bv_const(2, 10);
        let g1 = tm.mk_bv_ult(two, x).unwrap();
        let g2 = tm.mk_bv_ult(two, y).unwrap();
        let mut ctx = IncrementalContext::with_config(SolverConfig {
            max_conflicts: Some(1),
            max_theory_iterations: 10,
        });
        ctx.assert_term(f);
        ctx.assert_term(g1);
        ctx.assert_term(g2);
        let verdict = ctx.check(&mut tm).unwrap();
        assert!(matches!(verdict, SolverResult::Unknown | SolverResult::Sat));
    }

    #[test]
    fn rebuilds_preserve_the_cumulative_conflict_count() {
        // Conflicts spent by an encoder that a rebuild throws away must stay
        // in the stats, otherwise rebuild-heavy runs under-report work.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(10));
        let y = tm.mk_var("y", Sort::BitVec(10));
        let prod = tm.mk_bv_mul(x, y).unwrap();
        let c = tm.mk_bv_const(851, 10);
        let f = tm.mk_eq(prod, c);
        let mut ctx = IncrementalContext::rebuilding(SolverConfig::default());
        ctx.assert_term(f);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let before = ctx.stats().conflicts;
        ctx.push();
        let zero = tm.mk_bv_const(0, 10);
        let g = tm.mk_bv_ult(x, zero).unwrap(); // impossible
        ctx.assert_term(g);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unsat);
        let mid = ctx.stats().conflicts;
        assert!(mid >= before);
        ctx.pop();
        // The rebuild discards the solver; its conflicts are banked.
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(ctx.stats().rebuilds, 1);
        assert!(ctx.stats().conflicts >= mid);
    }

    #[test]
    fn rebuild_replay_serves_preprocessing_from_the_cache() {
        // The first encode of each assertion preprocesses it and memoizes
        // the result under its term id; a pop-forced rebuild replays the
        // surviving assertions from that cache instead of re-running
        // preprocessing — visible in `preprocess_cache_hits`, with the
        // verdict unchanged.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let c = tm.mk_bv_const(200, 8);
        let f = tm.mk_bv_ult(c, x).unwrap();
        let mut ctx = IncrementalContext::rebuilding(SolverConfig::default());
        ctx.assert_term(f);
        ctx.push();
        let d = tm.mk_bv_const(240, 8);
        let g = tm.mk_bv_ult(x, d).unwrap();
        ctx.assert_term(g);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(ctx.stats().preprocess_cache_hits, 0);
        ctx.pop(); // the next check re-encodes `f` into a fresh solver
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let stats = ctx.stats();
        assert_eq!(stats.rebuilds, 1);
        assert!(stats.preprocess_cache_hits >= 1);
    }

    #[test]
    fn conflict_budget_is_cumulative_across_theory_iterations() {
        // Regression: the budget used to be re-armed for every SAT call of
        // the lazy theory loop, so one `check` could spend
        // `max_conflicts × max_theory_iterations` conflicts.  Five
        // independent real disjunctions, each contradicted by an equality,
        // give 2^5 boolean atom combinations that simplex refutes one lemma
        // at a time; as the lemmas pile up the SAT calls start conflicting
        // (64 conflicts over ~100 calls unbudgeted).  The whole `check` must
        // stay within the budget — the old per-call re-arming blew through
        // it more than tenfold on this formula.
        let mut tm = TermManager::new();
        let zero = tm.mk_real_const(Rational::ZERO);
        let one = tm.mk_real_const(Rational::ONE);
        let half = tm.mk_real_const(Rational::new(1, 2));
        let budget = 5;
        let mut ctx = IncrementalContext::with_config(SolverConfig {
            max_conflicts: Some(budget),
            max_theory_iterations: 100,
        });
        for i in 0..5 {
            let r = tm.mk_var(&format!("r{i}"), Sort::Real);
            let lt0 = tm.mk_real_lt(r, zero).unwrap();
            let gt1 = tm.mk_real_lt(one, r).unwrap();
            let disj = tm.mk_or([lt0, gt1]);
            let eq_half = tm.mk_eq(r, half);
            ctx.assert_term(disj);
            ctx.assert_term(eq_half);
        }
        let verdict = ctx.check(&mut tm).unwrap();
        assert_eq!(verdict, SolverResult::Unknown);
        assert!(
            ctx.stats().conflicts <= budget,
            "one check spent {} conflicts against a budget of {budget}",
            ctx.stats().conflicts
        );
        // The same check without a conflict budget spends far more than
        // `budget` conflicts over the same iteration allowance — the
        // difference the old per-call re-arming silently re-introduced.
        let mut free = IncrementalContext::with_config(SolverConfig {
            max_conflicts: None,
            max_theory_iterations: 100,
        });
        for i in 0..5 {
            let r = tm.mk_var(&format!("r{i}"), Sort::Real);
            let lt0 = tm.mk_real_lt(r, zero).unwrap();
            let gt1 = tm.mk_real_lt(one, r).unwrap();
            let disj = tm.mk_or([lt0, gt1]);
            let eq_half = tm.mk_eq(r, half);
            free.assert_term(disj);
            free.assert_term(eq_half);
        }
        free.check(&mut tm).unwrap();
        assert!(free.stats().conflicts > budget);
    }

    #[test]
    fn float_predicates_are_relaxed_to_reals() {
        let mut tm = TermManager::new();
        let u = tm.mk_var("u", Sort::float32());
        let v = tm.mk_var("v", Sort::float32());
        let lt = tm.mk_fp_lt(u, v).unwrap();
        let ge = tm.mk_fp_le(v, u).unwrap();
        let mut ctx = IncrementalContext::new();
        ctx.assert_term(lt);
        ctx.assert_term(ge);
        // u < v and v <= u is unsatisfiable under the real relaxation.
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unsat);
    }
}
