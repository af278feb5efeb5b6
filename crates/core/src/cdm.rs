//! The CDM baseline: approximate counting via formula self-composition
//! (Chistikov, Dimitrova & Majumdar, Acta Informatica 2017).
//!
//! CDM achieves an `(1+ε)` approximation by counting a *self-composition* of
//! the formula: `q` copies of `F` over disjoint variable copies have
//! `|Sol(F)↓S|^q` projected solutions, so estimating that count to within a
//! factor of 2 estimates the original count to within a factor of `2^(1/q)`.
//! The cell emptiness of the composed formula under `m` random XOR
//! constraints is probed with plain satisfiability queries; the largest `m`
//! that still leaves a solution gives the estimate `2^(m/q)`.
//!
//! This reproduces the scalability hurdle the paper identifies (§I, §IV):
//! every oracle query is over a formula `q` times larger, with hash
//! constraints spanning all `q·|S|` projected bits, encoded as ordinary
//! bit-vector terms (the CDM tool has no native XOR engine).
//!
//! Like Algorithm 1 the engine is generic over the [`Oracle`] backend and
//! observes the shared [`RunControl`] (deadline, cancellation, progress).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pact_hash::{generate, projection_bits, HashFamily};
use pact_ir::{TermId, TermManager};
use pact_solver::{Oracle, SolverResult};

use crate::config::CounterConfig;
use crate::counter::{search_boundary, Search, Start};
use crate::error::{CountError, CountResult};
use crate::parallel::{run_rounds, RoundOutput};
use crate::progress::{ProgressEvent, RunControl};
use crate::result::{finish_report as finish, median, CountOutcome, CountReport, CountStats};
use crate::saturating::CellCount;
use crate::session::Session;

/// Number of formula copies needed so that a factor-2 estimate of the
/// composed count gives a `(1+ε)` estimate of the original count.
pub fn copies_for_epsilon(epsilon: f64) -> u32 {
    let per_copy = (1.0 + epsilon).log2();
    (1.0 / per_copy).ceil().max(1.0) as u32
}

/// Counts projected models with the CDM baseline algorithm.
///
/// The configuration's `family` field is ignored — CDM always uses XOR
/// constraints over the copied projection bits, expressed as bit-vector
/// terms.
///
/// This is the compatibility form; [`Session::count_cdm`] counts the same
/// problem repeatedly without re-declaring it.
///
/// # Errors
///
/// Returns [`CountError::Config`] for invalid parameters,
/// [`CountError::EmptyProjection`] for an empty projection set, and
/// [`CountError::Solver`] for unsupported constructs.
pub fn cdm_count(
    tm: &mut TermManager,
    formula: &[TermId],
    projection: &[TermId],
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
    let result = session.count_cdm();
    *tm = session.into_term_manager();
    result
}

/// The engine behind [`cdm_count`] and [`Session::count_cdm`].
pub(crate) fn count_cdm(
    tm: &mut TermManager,
    formula: &[TermId],
    projection: &[TermId],
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
    let q = copies_for_epsilon(config.epsilon);
    let iterations = config
        .iterations_override
        .unwrap_or_else(|| (17.0 * (3.0 / config.delta).log2()).ceil() as u32)
        .max(1);

    // Self-compose the formula: q copies over fresh variables.
    let conjunction = tm.mk_and(formula.iter().copied());
    let mut copies: Vec<TermId> = Vec::with_capacity(q as usize);
    let mut copied_projections: Vec<TermId> = Vec::new();
    for k in 0..q {
        if k == 0 {
            copies.push(conjunction);
            copied_projections.extend_from_slice(projection);
        } else {
            let (copy, map) = tm.clone_with_fresh_vars(conjunction, &format!("cdm{k}"));
            copies.push(copy);
            for &v in projection {
                copied_projections.push(*map.get(&v).unwrap_or(&v));
            }
        }
    }

    let mut ctx = config.oracle_factory.build(config.solver);
    if let Some(flag) = ctrl.solver_interrupt() {
        ctx.set_interrupt(flag);
    }
    for &v in &copied_projections {
        ctx.track_var(v);
    }
    for &c in &copies {
        ctx.assert_term(c);
    }

    let mut stats = CountStats::default();
    let total_bits = projection_bits(tm, &copied_projections).max(1) as usize;

    // Quick unsatisfiability check.
    let oracle_timer = Instant::now();
    ctx.push();
    let base = ctx.check(tm)?;
    ctx.pop();
    stats.oracle_seconds += oracle_timer.elapsed().as_secs_f64();
    stats.terms_interned = tm.len() as u64;
    match base {
        SolverResult::Unsat => return Ok(finish(CountOutcome::Unsatisfiable, stats, &*ctx, start)),
        SolverResult::Unknown => return Ok(finish(CountOutcome::Timeout, stats, &*ctx, start)),
        SolverResult::Sat => {}
    }

    // The outer rounds are independent, exactly like `pact_count`'s: each
    // draws its own prefix-closed XOR list and probes its own cells, so the
    // same scheduler fans them out with the same determinism guarantee
    // (per-round RNG stream `seed ^ round`, per-round term managers opened
    // over one shared snapshot of the composed formula's interned table, and
    // a per-round oracle from the factory).
    let workers = config.parallel.effective_threads();
    let tm_snapshot = tm.snapshot();
    let copied_projections = &copied_projections;
    let copies = &copies;
    let ctrl_ref = &ctrl;
    let outputs = run_rounds(workers, iterations, |round| {
        if ctrl_ref.interrupted() {
            return RoundOutput {
                value: Ok(CdmRound::interrupted()),
                stop: true,
            };
        }
        let mut round_tm = TermManager::from_snapshot(std::sync::Arc::clone(&tm_snapshot));
        let mut round_ctx = config.oracle_factory.build(config.solver);
        if let Some(flag) = ctrl_ref.solver_interrupt() {
            round_ctx.set_interrupt(flag);
        }
        for &v in copied_projections {
            round_ctx.track_var(v);
        }
        for &c in copies {
            round_ctx.assert_term(c);
        }
        let mut rng = StdRng::seed_from_u64(config.seed ^ u64::from(round));
        let value = cdm_round(
            &mut round_tm,
            &mut *round_ctx,
            copied_projections,
            total_bits,
            q,
            ctrl_ref,
            round,
            &mut rng,
        );
        match value {
            Ok(mut outcome) => {
                outcome.stats.absorb(&*round_ctx);
                ctrl_ref.emit(ProgressEvent::Round {
                    round,
                    estimate: outcome.estimate,
                });
                let stop = outcome.timed_out;
                RoundOutput {
                    value: Ok(outcome),
                    stop,
                }
            }
            Err(error) => RoundOutput {
                value: Err(error),
                stop: true,
            },
        }
    });

    // Merge in round order; the first timed-out round ends the sequence but
    // still contributes the work it did.
    let mut estimates = Vec::new();
    for slot in outputs {
        let Some(record) = slot else { break };
        let record = record?;
        stats += &record.stats;
        if let Some(estimate) = record.estimate {
            estimates.push(estimate);
            stats.iterations += 1;
        }
        if record.timed_out {
            break;
        }
    }

    let outcome = match median(&estimates) {
        Some(log2_per_copy) => {
            let estimate = 2f64.powf(log2_per_copy);
            CountOutcome::Approximate {
                estimate,
                log2_estimate: log2_per_copy,
            }
        }
        None => CountOutcome::Timeout,
    };
    stats.terms_interned = tm.len() as u64;
    Ok(finish(outcome, stats, &*ctx, start))
}

/// One scheduled CDM round: its estimate (if it completed), the work it did,
/// and whether it ran out of budget.
struct CdmRound {
    estimate: Option<f64>,
    stats: CountStats,
    timed_out: bool,
}

impl CdmRound {
    /// A round that observed the deadline (or a cancellation request)
    /// before doing any work.
    fn interrupted() -> Self {
        CdmRound {
            estimate: None,
            stats: CountStats::default(),
            timed_out: true,
        }
    }
}

/// One iteration of the CDM loop: draw a prefix-closed XOR list, then find
/// the largest prefix that still leaves the composed formula satisfiable
/// with the counter's galloping + binary search.
#[allow(clippy::too_many_arguments)]
fn cdm_round(
    tm: &mut TermManager,
    ctx: &mut dyn Oracle,
    copied_projections: &[TermId],
    total_bits: usize,
    q: u32,
    ctrl: &RunControl,
    round: u32,
    rng: &mut StdRng,
) -> CountResult<CdmRound> {
    let mut stats = CountStats::default();
    // Draw one XOR constraint per possible level up front (prefix-closed
    // like pact's H[i]).
    let constraints: Vec<TermId> = (0..total_bits)
        .map(|_| {
            let h = generate(tm, copied_projections, 1, HashFamily::Xor, rng);
            h.to_term(tm)
        })
        .collect();
    // The largest non-empty prefix is one below the boundary the counter's
    // search finds: a SAT cell counts as saturated, an UNSAT one as small.
    let search = search_boundary(total_bits, Start::Saturated, |m, _| {
        if ctrl.interrupted() {
            return Ok((CellCount::Unknown, Vec::new()));
        }
        let oracle_timer = Instant::now();
        ctx.push();
        for &c in &constraints[..m] {
            ctx.assert_term(c);
        }
        let verdict = ctx.check(tm)?;
        ctx.pop();
        stats.oracle_seconds += oracle_timer.elapsed().as_secs_f64();
        stats.cells_explored += 1;
        ctrl.emit(ProgressEvent::Cell {
            round,
            cells_in_round: stats.cells_explored,
        });
        let cell = match verdict {
            SolverResult::Sat => CellCount::Saturated,
            SolverResult::Unsat => CellCount::Exact(0),
            SolverResult::Unknown => CellCount::Unknown,
        };
        Ok((cell, Vec::new()))
    })?;
    let (estimate, timed_out) = match search {
        Search::Found(boundary, _) => (Some((boundary - 1) as f64 / f64::from(q)), false),
        // Even all constraints leave a solution; use the full width.
        Search::Failed => (Some(total_bits as f64 / f64::from(q)), false),
        Search::Timeout => (None, true),
    };
    Ok(CdmRound {
        estimate,
        stats,
        timed_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::relative_error;
    use pact_ir::Sort;

    #[test]
    fn copies_match_epsilon() {
        assert_eq!(copies_for_epsilon(1.0), 1);
        assert_eq!(copies_for_epsilon(0.8), 2);
        assert_eq!(copies_for_epsilon(0.41), 3); // log2(1.41) ≈ 0.496
        assert!(copies_for_epsilon(0.1) >= 8);
    }

    #[test]
    fn cdm_counts_an_unsat_formula_as_zero() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let zero = tm.mk_bv_const(0, 4);
        let f = tm.mk_bv_ult(x, zero).unwrap();
        let report = cdm_count(&mut tm, &[f], &[x], &CounterConfig::fast()).unwrap();
        assert_eq!(report.outcome, CountOutcome::Unsatisfiable);
    }

    #[test]
    fn cdm_estimate_has_the_right_order_of_magnitude() {
        // 2^6 = 64 models of a free 6-bit variable constrained trivially.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let c = tm.mk_bv_const(63, 6);
        let f = tm.mk_bv_ule(x, c).unwrap(); // always true: 64 models
        let config = CounterConfig {
            iterations_override: Some(9),
            seed: 2,
            ..CounterConfig::default()
        };
        let report = cdm_count(&mut tm, &[f], &[x], &config).unwrap();
        match report.outcome {
            CountOutcome::Approximate { estimate, .. } => {
                // CDM's guarantee is coarser; accept a factor-4 window.
                let err = relative_error(64.0, estimate).unwrap();
                assert!(err <= 3.0, "estimate {estimate} too far from 64");
            }
            other => panic!("expected approximate count, got {other:?}"),
        }
    }

    #[test]
    fn cdm_outcome_is_identical_for_every_thread_count() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let c = tm.mk_bv_const(63, 6);
        let f = tm.mk_bv_ule(x, c).unwrap(); // 64 models
        let reports: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                let config = CounterConfig {
                    iterations_override: Some(5),
                    seed: 2,
                    ..CounterConfig::default()
                }
                .with_threads(threads);
                cdm_count(&mut tm, &[f], &[x], &config).unwrap()
            })
            .collect();
        for report in &reports[1..] {
            assert_eq!(report.outcome, reports[0].outcome);
            assert_eq!(report.stats.oracle_calls, reports[0].stats.oracle_calls);
            assert_eq!(report.stats.cells_explored, reports[0].stats.cells_explored);
            assert_eq!(report.stats.iterations, reports[0].stats.iterations);
        }
    }

    #[test]
    fn cdm_issues_more_expensive_queries_than_pact() {
        // On the same instance, CDM's composed formula forces at least as
        // many oracle calls with strictly larger encodings; we check the
        // call count as a proxy.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let c = tm.mk_bv_const(20, 6);
        let f = tm.mk_bv_ule(c, x).unwrap(); // 44 models
        let config = CounterConfig {
            iterations_override: Some(2),
            seed: 1,
            ..CounterConfig::default()
        };
        let cdm = cdm_count(&mut tm, &[f], &[x], &config).unwrap();
        assert!(cdm.stats.oracle_calls > 0);
        assert!(cdm.stats.wall_seconds >= 0.0);
    }
}
