//! Algorithm 1: the `pact` approximate projected model counter.
//!
//! The public entry points are [`Session::count`](crate::Session::count) and
//! the compatibility wrapper [`pact_count`]; both drive the engine in this
//! module, which is generic over the [`Oracle`] backend (built through
//! [`CounterConfig::oracle_factory`], once per scheduled round: lines 3-4,
//! the exactness check, are prefix 0 of round 0's boundary search) and
//! threads a [`RunControl`] — deadline, cancellation token, progress
//! observer — through the round scheduler and the saturating counter.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pact_hash::{generate, projection_bits, HashConstraint, HashFamily};
use pact_ir::{BvValue, TermId, TermManager};
use pact_solver::Oracle;

use crate::config::CounterConfig;
use crate::constants::get_constants;
use crate::error::{CountError, CountResult};
use crate::parallel::{run_rounds, RoundOutput};
use crate::progress::{ProgressEvent, RunControl};
use crate::result::{median, CountOutcome, CountReport, CountStats};
use crate::saturating::{saturating_count_ctl, CellCount};
use crate::session::Session;

/// Counts the projected models of `formula` over `projection` with
/// `(ε, δ)` guarantees (Algorithm 1 of the paper).
///
/// `formula` is a conjunction of assertions; `projection` is the set `S` of
/// discrete variables onto which solutions are projected.
///
/// This is the compatibility form of the API: it builds a one-shot
/// [`Session`] around the borrowed term manager and counts once.  New code
/// that counts the same problem repeatedly (or needs progress reporting and
/// cancellation) should build the session directly via [`Session::builder`].
///
/// # Errors
///
/// Returns [`CountError::Config`] for invalid `(ε, δ)` parameters,
/// [`CountError::EmptyProjection`] for an empty projection set, and
/// [`CountError::Solver`] when the formula uses constructs outside the
/// oracle's supported fragment.
///
/// # Example
///
/// ```
/// use pact_ir::{TermManager, Sort};
/// use pact::{pact_count, CounterConfig, CountOutcome};
///
/// // x < 12 over a 6-bit x: 12 projected models, counted exactly because the
/// // count is below the threshold.
/// let mut tm = TermManager::new();
/// let x = tm.mk_var("x", Sort::BitVec(6));
/// let c = tm.mk_bv_const(12, 6);
/// let f = tm.mk_bv_ult(x, c).unwrap();
/// let report = pact_count(&mut tm, &[f], &[x], &CounterConfig::fast()).unwrap();
/// assert_eq!(report.outcome, CountOutcome::Exact(12));
/// ```
pub fn pact_count(
    tm: &mut TermManager,
    formula: &[TermId],
    projection: &[TermId],
    config: &CounterConfig,
) -> CountResult<CountReport> {
    // Validate before taking the term manager so an error leaves the
    // caller's `tm` untouched.
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
    let result = session.count();
    *tm = session.into_term_manager();
    result
}

/// The engine behind [`pact_count`] and [`Session::count`].
///
/// `hooks` carries the cancellation token and progress observer; its
/// deadline field is overwritten with the absolute instant derived from
/// `config.deadline`.
pub(crate) fn count_pact(
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
    let constants = get_constants(config.epsilon, config.delta, config.family);
    let iterations = config
        .iterations_override
        .unwrap_or(constants.iterations)
        .max(1);
    // Maximum number of hash constraints ever needed: enough to cut the
    // projected space down to (expected) single solutions.
    let total_bits = projection_bits(tm, projection).max(1);

    // The outer rounds are independent: each opens its own term manager over
    // one shared snapshot of the interned id table (an `Arc` share, not a
    // deep clone — round-local terms land in a private tail), builds its own
    // oracle (through the factory, on the worker's own thread) and derives
    // an RNG stream from `seed ^ round`, so the scheduler can fan them out
    // across threads without changing the result (see `parallel.rs` for the
    // determinism argument).  Round 0 runs alone first: its search may end at
    // the unhashed formula (lines 3-4), which makes the count exact, and
    // otherwise its boundary is where every later round's search starts (the
    // leapfrog); both are the same for every thread count.
    let workers = config.parallel.effective_threads();
    let tm_snapshot = tm.snapshot();
    let thresh = constants.thresh;
    let ell = constants.ell;
    let ctrl_ref = &ctrl;
    let run_round = |round: u32, start: Option<usize>| {
        if ctrl_ref.interrupted() {
            let value = Ok(RoundRecord {
                outcome: RoundOutcome::Timeout,
                stats: CountStats::default(),
                boundary: None,
            });
            return RoundOutput { value, stop: true };
        }
        let mut round_tm = TermManager::from_snapshot(std::sync::Arc::clone(&tm_snapshot));
        let mut round_ctx = config.oracle_factory.build(config.solver);
        if let Some(flag) = ctrl_ref.solver_interrupt() {
            round_ctx.set_interrupt(flag);
        }
        for &v in projection {
            round_ctx.track_var(v);
        }
        for &f in formula {
            round_ctx.assert_term(f);
        }
        let mut rng = StdRng::seed_from_u64(config.seed ^ u64::from(round));
        let mut round_stats = CountStats::default();
        let result = one_round(
            &mut round_tm,
            &mut *round_ctx,
            projection,
            config,
            thresh,
            ell,
            total_bits,
            ctrl_ref,
            round,
            start,
            &mut rng,
            &mut round_stats,
        );
        round_stats.absorb(&*round_ctx);
        match result {
            Ok((outcome, boundary)) => {
                ctrl_ref.emit(ProgressEvent::Round {
                    round,
                    estimate: match &outcome {
                        RoundOutcome::Estimate(value) => Some(*value),
                        RoundOutcome::Exact(n) => Some(*n as f64),
                        _ => None,
                    },
                });
                let stop = matches!(outcome, RoundOutcome::Exact(_) | RoundOutcome::Timeout);
                RoundOutput {
                    value: Ok(RoundRecord {
                        outcome,
                        stats: round_stats,
                        boundary: boundary.map(|b| b.hashes),
                    }),
                    stop,
                }
            }
            Err(error) => RoundOutput {
                value: Err(error),
                stop: true,
            },
        }
    };
    let first = run_round(0, None);
    let b0 = first.value.as_ref().ok().and_then(|record| record.boundary);
    let mut outputs = vec![Some(first.value)];
    if !first.stop {
        outputs.extend(run_rounds(workers, iterations - 1, |round| {
            run_round(round + 1, b0)
        }));
    }

    // Merge in round order; the first stopping round ends the sequence, and
    // a partially counted (timed-out) round still contributes its stats.
    let mut stats = CountStats::default();
    let mut estimates: Vec<f64> = Vec::new();
    let mut exact = None;
    for slot in outputs {
        let Some(record) = slot else { break };
        let record = record?;
        stats += &record.stats;
        if record.stats.final_hash_count > 0 {
            stats.final_hash_count = record.stats.final_hash_count;
        }
        match record.outcome {
            RoundOutcome::Estimate(value) => {
                estimates.push(value);
                stats.iterations += 1;
            }
            RoundOutcome::Exact(n) => exact = Some(n),
            RoundOutcome::Failed => {}
            RoundOutcome::Timeout => break,
        }
    }

    let outcome = match (exact, median(&estimates)) {
        (Some(0), _) => CountOutcome::Unsatisfiable,
        (Some(n), _) => CountOutcome::Exact(n),
        (None, Some(estimate)) => CountOutcome::Approximate {
            estimate,
            log2_estimate: estimate.log2(),
        },
        (None, None) => CountOutcome::Timeout,
    };
    // A size, not a flow: the rounds intern their constraints into private
    // tails, so the session store's table is the shared one every snapshot
    // serves.
    stats.terms_interned = tm.len() as u64;
    stats.wall_seconds = start.elapsed().as_secs_f64();
    Ok(CountReport { outcome, stats })
}

/// One scheduled round's result: what it concluded plus the work it did
/// (merged into the report even when the round timed out mid-cell).
struct RoundRecord {
    outcome: RoundOutcome,
    stats: CountStats,
    /// The round's boundary (hashes before FixLastHash), if it found one.
    boundary: Option<usize>,
}

#[derive(Debug, PartialEq)]
enum RoundOutcome {
    Estimate(f64),
    /// Round 0 found the unhashed cell small: the count is exact.
    Exact(u64),
    Failed,
    Timeout,
}

/// A projected model, one value per projection variable.
type Model = Vec<BvValue>;

/// A round's boundary: the smallest number of hashes whose cell is small.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Boundary {
    hashes: usize,
    cell: u64,
}

/// Draws a round's hash list (enough hashes to cut the projected space down
/// to expected single solutions, plus one) and the bits one hash cuts.
fn draw_hashes(
    tm: &mut TermManager,
    projection: &[TermId],
    ell: u32,
    family: HashFamily,
    total_bits: u32,
    rng: &mut StdRng,
) -> (Vec<HashConstraint>, f64) {
    // How many cells a single hash of this family splits into.
    let probe_range = generate(tm, projection, ell, family, rng).range();
    let bits_per_hash = (probe_range as f64).log2();
    let max_hashes = ((total_bits as f64 / bits_per_hash).ceil() as usize + 1).max(1);
    let hashes = (0..max_hashes).map(|_| generate(tm, projection, ell, family, rng));
    (hashes.collect(), bits_per_hash)
}

/// One iteration of the main loop (lines 6-14 of Algorithm 1): generate a
/// fresh list of hash functions, find the boundary cell with a galloping
/// search (leapfrogging from `start`, round 0's boundary, when given), refine
/// the last hash for word-level families, and turn the cell size into an
/// estimate (or, from a small unhashed cell, the exact count).  Returns the
/// outcome and the boundary before FixLastHash.
#[allow(clippy::too_many_arguments)]
fn one_round(
    tm: &mut TermManager,
    ctx: &mut dyn Oracle,
    projection: &[TermId],
    config: &CounterConfig,
    thresh: u64,
    ell: u32,
    total_bits: u32,
    ctrl: &RunControl,
    round: u32,
    start: Option<usize>,
    rng: &mut StdRng,
    stats: &mut CountStats,
) -> CountResult<(RoundOutcome, Option<Boundary>)> {
    let (hashes, bits_per_hash) = draw_hashes(tm, projection, ell, config.family, total_bits, rng);

    // Measure |Sol(F ∧ constraints)↓S| with the saturating counter (see
    // `saturating_count_ctl` for `reuse`).
    let mut measure = |ctx: &mut dyn Oracle,
                       tm: &mut TermManager,
                       constraints: &[HashConstraint],
                       reuse: Option<&[Model]>|
     -> CountResult<(CellCount, Vec<Model>)> {
        if ctrl.interrupted() {
            return Ok((CellCount::Unknown, Vec::new()));
        }
        let oracle_timer = Instant::now();
        ctx.push();
        for h in constraints {
            h.assert_into(ctx, tm);
        }
        let result = saturating_count_ctl(ctx, tm, projection, thresh, reuse, ctrl);
        ctx.pop();
        stats.oracle_seconds += oracle_timer.elapsed().as_secs_f64();
        stats.cells_explored += 1;
        ctrl.emit(ProgressEvent::Cell {
            round,
            cells_in_round: stats.cells_explored,
        });
        Ok(result?)
    };

    // Round 0 gallops from the first prefix to cut two bits, or from prefix
    // 0 when the whole projected space is smaller than `thresh`.
    let start = match start {
        Some(b0) => Start::Leapfrog(b0),
        None if round == 0 => Start::Unhashed {
            first: match 1u64.checked_shl(total_bits) {
                Some(space) if space < thresh => 0,
                _ => (2.0 / bits_per_hash).ceil() as usize,
            },
        },
        None => Start::Saturated,
    };
    let found = match search_boundary(hashes.len(), start, |len, known| {
        measure(ctx, tm, &hashes[..len], Some(known))
    })? {
        Search::Found(0, models) => {
            return Ok((RoundOutcome::Exact(models.len() as u64), None));
        }
        Search::Found(hashes, models) => Boundary {
            hashes,
            cell: models.len() as u64,
        },
        Search::Failed => return Ok((RoundOutcome::Failed, None)),
        Search::Timeout => return Ok((RoundOutcome::Timeout, None)),
    };
    let boundary = found.hashes;
    stats.final_hash_count = boundary as u32;

    // Algorithm 2 (FixLastHash): only meaningful for word-level families.
    // A refined last hash is not nested with the boundary cell, so no
    // models are reused here.
    let mut used: Vec<HashConstraint> = hashes[..boundary].to_vec();
    let mut cell = found.cell;
    if config.family != HashFamily::Xor {
        let mut current_ell = ell;
        while current_ell > 1 {
            current_ell /= 2;
            let refined = generate(tm, projection, current_ell, config.family, rng);
            let mut candidate: Vec<HashConstraint> = hashes[..boundary - 1].to_vec();
            candidate.push(refined.clone());
            match measure(ctx, tm, &candidate, None)?.0 {
                CellCount::Exact(n) => {
                    used = candidate;
                    cell = n;
                }
                CellCount::Saturated => break,
                CellCount::Unknown => return Ok((RoundOutcome::Timeout, Some(found))),
            }
        }
    }

    if cell == 0 {
        // An empty boundary cell carries no information; the round fails.
        return Ok((RoundOutcome::Failed, Some(found)));
    }
    // GetCount: cell size times the number of cells the used hashes create.
    let mut partitions = 1.0f64;
    for h in &used {
        partitions *= h.range() as f64;
    }
    Ok((
        RoundOutcome::Estimate(cell as f64 * partitions),
        Some(found),
    ))
}

/// What a boundary search concluded.
pub(crate) enum Search {
    /// The boundary prefix length (0 only from [`Start::Unhashed`]) and its
    /// cell's models.
    Found(usize, Vec<Model>),
    /// Even the full hash list leaves a big cell.
    Failed,
    /// The deadline passed, the run was cancelled or the oracle gave up.
    Timeout,
}

/// Where a boundary search starts.
#[derive(Clone, Copy)]
pub(crate) enum Start {
    /// Round 0, galloping from prefix `first`: prefix 0, the unhashed
    /// formula, is measured first (`first` = 0) or when prefix 1 is small.
    Unhashed { first: usize },
    /// Prefix 0 is known to saturate.
    Saturated,
    /// Prefix 0 is known to saturate; leapfrog from round 0's boundary.
    Leapfrog(usize),
}

/// The bracket a boundary search narrows: `lo` is the largest prefix length
/// known to be saturated (or 0), `hi` the smallest known to be small, with
/// its cell's models.
struct Bracket<F> {
    measure: F,
    lo: usize,
    hi: Option<(usize, Vec<Model>)>,
}

impl<F> Bracket<F>
where
    F: FnMut(usize, &[Model]) -> CountResult<(CellCount, Vec<Model>)>,
{
    /// Measures prefix `len` and narrows the bracket; `false` on a timeout.
    ///
    /// The search only ever measures below `hi`, and the cells are nested
    /// (`Sol(F ∧ H[0..j]) ⊇ Sol(F ∧ H[0..k])` for `j < k`), so every model of
    /// `hi`'s cell lies in the measured one and seeds its count.
    fn probe(&mut self, len: usize) -> CountResult<bool> {
        let known = match &self.hi {
            Some((k, models)) => {
                debug_assert!(len < *k, "probe {len} above the known-small prefix {k}");
                models.as_slice()
            }
            None => &[],
        };
        match (self.measure)(len, known)? {
            (CellCount::Saturated, _) => self.lo = self.lo.max(len),
            (CellCount::Exact(_), models) => self.hi = Some((len, models)),
            (CellCount::Unknown, _) => return Ok(false),
        }
        Ok(true)
    }
}

/// Finds the boundary among prefixes `0..=max_hashes` of a round's hash list
/// with `measure(len, known)`: the smallest prefix length whose cell is small.
///
/// Without a leapfrog it gallops from `first` (`first, 2·first, …`, or
/// `0, 1, 2, 4, …` from 0; 1 for [`Start::Saturated`]) to the first small
/// prefix and binary-searches below it; an unhashed search from `first` ≥ 1
/// that closes at 1 then measures prefix 0 as well.
/// With [`Start::Leapfrog`]`(b₀)` it measures `b₀` first: when that cell is
/// small it measures `b₀ − 1`, and the boundary is `b₀` when that one
/// saturates; otherwise it gallops upward from `b₀` (`+1, +2, +4, …`) or
/// binary-searches below `b₀ − 1`.  Saturation is monotone in the prefix
/// length, so the boundary, and hence the estimate, does not depend on the
/// start; only the number of cells measured does.
pub(crate) fn search_boundary<F>(max_hashes: usize, start: Start, measure: F) -> CountResult<Search>
where
    F: FnMut(usize, &[Model]) -> CountResult<(CellCount, Vec<Model>)>,
{
    let mut bracket = Bracket {
        measure,
        lo: 0,
        hi: None,
    };
    let mut gallop_from = 0;
    let mut step = 1;
    match start {
        Start::Unhashed { first } => step = first,
        Start::Saturated => {}
        Start::Leapfrog(b0) => {
            let b0 = b0.clamp(1, max_hashes);
            if !bracket.probe(b0)? {
                return Ok(Search::Timeout);
            }
            if bracket.hi.is_some() {
                if b0 > 1 && !bracket.probe(b0 - 1)? {
                    return Ok(Search::Timeout);
                }
            } else {
                gallop_from = b0;
            }
        }
    }
    while bracket.hi.is_none() && bracket.lo < max_hashes {
        if !bracket.probe((gallop_from + step).min(max_hashes))? {
            return Ok(Search::Timeout);
        }
        step = (2 * step).max(1);
    }
    // Binary search in (lo, hi): lo is saturated, hi is small.
    while let Some((hi, _)) = &bracket.hi {
        if hi - bracket.lo <= 1 {
            break;
        }
        let mid = bracket.lo + (hi - bracket.lo) / 2;
        if !bracket.probe(mid)? {
            return Ok(Search::Timeout);
        }
    }
    if let (Start::Unhashed { first: 1.. }, Some((1, _))) = (start, &bracket.hi) {
        if !bracket.probe(0)? {
            return Ok(Search::Timeout);
        }
    }
    Ok(match bracket.hi {
        Some((hi, models)) => Search::Found(hi, models),
        None => Search::Failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::relative_error;
    use pact_ir::Sort;

    /// Builds `x < bound` over `width`-bit `x` (projected count = `bound`).
    fn interval_instance(tm: &mut TermManager, width: u32, bound: u128) -> (TermId, TermId) {
        let x = tm.mk_fresh_var("x", Sort::BitVec(width));
        let c = tm.mk_bv_const(bound, width);
        let f = tm.mk_bv_ult(x, c).unwrap();
        (x, f)
    }

    #[test]
    fn small_counts_are_exact() {
        let mut tm = TermManager::new();
        let (x, f) = interval_instance(&mut tm, 8, 50);
        let report = pact_count(&mut tm, &[f], &[x], &CounterConfig::fast()).unwrap();
        assert_eq!(report.outcome, CountOutcome::Exact(50));
        assert!(report.stats.oracle_calls > 0);
    }

    #[test]
    fn unsatisfiable_formulas_count_zero() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let zero = tm.mk_bv_const(0, 6);
        let f = tm.mk_bv_ult(x, zero).unwrap();
        let report = pact_count(&mut tm, &[f], &[x], &CounterConfig::fast()).unwrap();
        assert_eq!(report.outcome, CountOutcome::Unsatisfiable);
    }

    #[test]
    fn xor_estimate_is_within_tolerance_on_a_known_count() {
        // 8-bit x with x >= 32: exactly 224 models, which saturates thresh=73
        // and exercises the hashing path.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let c = tm.mk_bv_const(32, 8);
        let f = tm.mk_bv_ule(c, x).unwrap();
        let config = CounterConfig {
            iterations_override: Some(9),
            seed: 5,
            ..CounterConfig::default()
        };
        let report = pact_count(&mut tm, &[f], &[x], &config).unwrap();
        match report.outcome {
            CountOutcome::Approximate { estimate, .. } => {
                let err = relative_error(224.0, estimate).unwrap();
                assert!(err <= 0.8, "estimate {estimate} has error {err}");
            }
            other => panic!("expected an approximate count, got {other:?}"),
        }
        assert!(report.stats.iterations >= 1);
    }

    #[test]
    fn word_level_families_also_count() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(7));
        let c = tm.mk_bv_const(100, 7);
        let f = tm.mk_bv_ult(x, c).unwrap(); // 100 models
        for family in [HashFamily::Prime, HashFamily::Shift] {
            let config = CounterConfig {
                iterations_override: Some(5),
                family,
                seed: 11,
                ..CounterConfig::default()
            };
            let report = pact_count(&mut tm, &[f], &[x], &config).unwrap();
            match report.outcome {
                CountOutcome::Approximate { estimate, .. } => {
                    let err = relative_error(100.0, estimate).unwrap();
                    assert!(
                        err <= 1.5,
                        "family {family}: estimate {estimate} has error {err}"
                    );
                }
                CountOutcome::Exact(n) => {
                    // FixLastHash can land on an exact count when the cell
                    // is small; accept it when correct.
                    assert_eq!(n, 100);
                }
                other => panic!("family {family}: unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn hybrid_instance_counts_only_extensible_projections() {
        // b (8-bit) arbitrary, r real with b-dependent constraint:
        //   r > 0 ∧ r < 1 ∧ (b < 200)   — continuous part always extensible,
        // so the projected count is 200 (saturates, hashing path).
        let mut tm = TermManager::new();
        let b = tm.mk_var("b", Sort::BitVec(8));
        let r = tm.mk_var("r", Sort::Real);
        let c = tm.mk_bv_const(200, 8);
        let f1 = tm.mk_bv_ult(b, c).unwrap();
        let zero = tm.mk_real_const(pact_ir::Rational::ZERO);
        let one = tm.mk_real_const(pact_ir::Rational::ONE);
        let f2 = tm.mk_real_lt(zero, r).unwrap();
        let f3 = tm.mk_real_lt(r, one).unwrap();
        let config = CounterConfig {
            iterations_override: Some(7),
            seed: 3,
            ..CounterConfig::default()
        };
        let report = pact_count(&mut tm, &[f1, f2, f3], &[b], &config).unwrap();
        match report.outcome {
            CountOutcome::Approximate { estimate, .. } => {
                let err = relative_error(200.0, estimate).unwrap();
                assert!(err <= 0.8, "estimate {estimate} has error {err}");
            }
            other => panic!("expected approximate count, got {other:?}"),
        }
    }

    #[test]
    fn empty_projection_is_rejected() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let c = tm.mk_bv_const(3, 4);
        let f = tm.mk_bv_ult(x, c).unwrap();
        assert_eq!(
            pact_count(&mut tm, &[f], &[], &CounterConfig::fast()),
            Err(CountError::EmptyProjection)
        );
        // The error path must leave the caller's term manager usable.
        let report = pact_count(&mut tm, &[f], &[x], &CounterConfig::fast()).unwrap();
        assert_eq!(report.outcome, CountOutcome::Exact(3));
    }

    #[test]
    fn zero_deadline_times_out_with_partial_stats() {
        let mut tm = TermManager::new();
        let (x, f) = interval_instance(&mut tm, 8, 200);
        let config = CounterConfig {
            deadline: Some(std::time::Duration::from_secs(0)),
            ..CounterConfig::fast()
        };
        let report = pact_count(&mut tm, &[f], &[x], &config).unwrap();
        assert_eq!(report.outcome, CountOutcome::Timeout);
        // Round 0 sees the deadline before its first cell, so nothing was
        // measured; the clock was still read.
        assert_eq!(report.stats.cells_explored, 0);
        assert_eq!(report.stats.oracle_calls, 0);
        assert!(report.stats.wall_seconds >= 0.0);
    }

    #[test]
    fn mid_run_deadline_keeps_partial_stats() {
        // A saturating instance with far more iterations than a short budget
        // allows: whether the deadline lands mid-cell or between rounds, the
        // partial work must show up in the stats.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(12));
        let c = tm.mk_bv_const(2048, 12);
        let f = tm.mk_bv_ule(c, x).unwrap(); // 2048 models: saturates
        let config = CounterConfig {
            deadline: Some(std::time::Duration::from_millis(40)),
            iterations_override: Some(500),
            seed: 1,
            ..CounterConfig::default()
        };
        let report = pact_count(&mut tm, &[f], &[x], &config).unwrap();
        assert!(report.stats.cells_explored >= 1);
        assert!(report.stats.oracle_calls >= 1);
        assert!(report.stats.wall_seconds > 0.0);
    }

    #[test]
    fn estimates_are_deterministic_for_a_seed() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let c = tm.mk_bv_const(16, 8);
        let f = tm.mk_bv_ule(c, x).unwrap(); // 240 models
        let config = CounterConfig {
            iterations_override: Some(3),
            seed: 42,
            ..CounterConfig::default()
        };
        let a = pact_count(&mut tm, &[f], &[x], &config).unwrap();
        let b = pact_count(&mut tm, &[f], &[x], &config).unwrap();
        assert_eq!(a.outcome, b.outcome);
    }

    #[test]
    fn thread_count_is_invisible_in_the_outcome() {
        // The scheduler's contract: same seed ⇒ identical outcome and
        // identical deterministic stats for every thread count.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(8));
        let c = tm.mk_bv_const(16, 8);
        let f = tm.mk_bv_ule(c, x).unwrap(); // 240 models: saturates
        let reports: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                let config = CounterConfig {
                    iterations_override: Some(9),
                    seed: 42,
                    ..CounterConfig::default()
                }
                .with_threads(threads);
                pact_count(&mut tm, &[f], &[x], &config).unwrap()
            })
            .collect();
        for report in &reports[1..] {
            assert_eq!(report.outcome, reports[0].outcome);
            assert_eq!(report.stats.oracle_calls, reports[0].stats.oracle_calls);
            assert_eq!(report.stats.cells_explored, reports[0].stats.cells_explored);
            assert_eq!(report.stats.iterations, reports[0].stats.iterations);
            assert_eq!(
                report.stats.final_hash_count,
                reports[0].stats.final_hash_count
            );
        }
    }

    /// Runs round `round` of a count of `formula` over `x` with the boundary
    /// search starting at `start`; returns the round's outcome, its boundary
    /// and the number of cells it measured.
    fn round_from(
        tm: &TermManager,
        formula: TermId,
        x: TermId,
        config: &CounterConfig,
        round: u32,
        start: Option<usize>,
    ) -> (RoundOutcome, Option<Boundary>, u64) {
        let constants = get_constants(config.epsilon, config.delta, config.family);
        let mut tm = tm.clone();
        let total_bits = projection_bits(&tm, &[x]);
        let mut ctx = config.oracle_factory.build(config.solver);
        ctx.track_var(x);
        ctx.assert_term(formula);
        let mut rng = StdRng::seed_from_u64(config.seed ^ u64::from(round));
        let mut stats = CountStats::default();
        let (outcome, boundary) = one_round(
            &mut tm,
            &mut *ctx,
            &[x],
            config,
            constants.thresh,
            constants.ell,
            total_bits,
            &RunControl::default(),
            round,
            start,
            &mut rng,
            &mut stats,
        )
        .unwrap();
        (outcome, boundary, stats.cells_explored)
    }

    /// Every start in `{None, 1..=max_hashes}` finds the same boundary, the
    /// same boundary cell and the same estimate, in each of `rounds`.
    fn assert_start_independent(
        tm: &TermManager,
        x: TermId,
        f: TermId,
        config: CounterConfig,
        rounds: u32,
    ) {
        let family = config.family;
        let constants = get_constants(config.epsilon, config.delta, family);
        let total_bits = projection_bits(tm, &[x]);
        let mut saw_deep_boundary = false;
        for round in 0..rounds {
            let mut rng = StdRng::seed_from_u64(config.seed ^ u64::from(round));
            let max_hashes = draw_hashes(
                &mut tm.clone(),
                &[x],
                constants.ell,
                family,
                total_bits,
                &mut rng,
            )
            .0
            .len();
            let (outcome, boundary, cells) = round_from(tm, f, x, &config, round, None);
            let boundary = boundary.expect("the instance saturates, so a boundary exists");
            assert!(matches!(outcome, RoundOutcome::Estimate(_)));
            saw_deep_boundary |= boundary.hashes >= 2 && boundary.hashes < max_hashes;
            for start in 1..=max_hashes {
                let (o, b, c) = round_from(tm, f, x, &config, round, Some(start));
                assert_eq!(b, Some(boundary), "{family}, round {round}, start {start}");
                assert_eq!(o, outcome, "{family}, round {round}, start {start}");
                if start == boundary.hashes {
                    // A leapfrog hit never measures more cells than galloping;
                    // under XOR (no FixLastHash) it measures exactly the
                    // start and, above 1, the prefix below it.
                    assert!(c <= cells, "{family}, round {round}: {c} > {cells} cells");
                    if family == HashFamily::Xor {
                        assert_eq!(c, start.min(2) as u64, "round {round}, start {start}");
                    }
                }
            }
        }
        assert!(
            saw_deep_boundary,
            "{family}: no round had a boundary in 2..max_hashes"
        );
    }

    #[test]
    fn boundary_does_not_depend_on_the_search_start_under_xor() {
        // 10-bit x < 700: boundary near 4 of 11 XOR hashes.
        let mut tm = TermManager::new();
        let (x, f) = interval_instance(&mut tm, 10, 700);
        let config = CounterConfig {
            seed: 17,
            ..CounterConfig::default()
        };
        assert_start_independent(&tm, x, f, config, 3);
    }

    #[test]
    fn boundary_does_not_depend_on_the_search_start_under_prime() {
        // 10-bit x < 1000 with ε = 3 (thresh 32): boundary 2 of 4 prime
        // hashes.  The looser ε keeps the cells small; one round keeps the
        // test short, as cells deep under prime hashes are slow to refute.
        let mut tm = TermManager::new();
        let (x, f) = interval_instance(&mut tm, 10, 1000);
        let config = CounterConfig {
            epsilon: 3.0,
            family: HashFamily::Prime,
            seed: 17,
            ..CounterConfig::default()
        };
        assert_start_independent(&tm, x, f, config, 1);
    }

    #[test]
    fn a_small_count_is_exact_from_round_zero() {
        // x < 12 over 7 bits.  Under XOR, round 0 probes 2 hashes, then 1
        // and 0, each seeded with the models of the cell above it: 12 models
        // and one UNSAT check per cell, 15 calls, 3 cells.  A word-level hash
        // cuts two bits alone, so prime probes 1 and 0: 14 calls, 2 cells.
        // Over 6 bits the whole space is below `thresh`, so round 0 measures
        // prefix 0 first: 13 calls, 1 cell.
        for (width, family, calls, cells) in [
            (7, HashFamily::Xor, 15, 3),
            (7, HashFamily::Prime, 14, 2),
            (6, HashFamily::Xor, 13, 1),
            (6, HashFamily::Prime, 13, 1),
        ] {
            let mut tm = TermManager::new();
            let (x, f) = interval_instance(&mut tm, width, 12);
            let config = CounterConfig::fast().with_family(family);
            let report = pact_count(&mut tm, &[f], &[x], &config).unwrap();
            let case = format!("{family}, {width} bits");
            assert_eq!(report.outcome, CountOutcome::Exact(12), "{case}");
            assert_eq!(report.stats.oracle_calls, calls, "{case}");
            assert_eq!(report.stats.cells_explored, cells, "{case}");
            assert_eq!(report.stats.iterations, 0, "{case}");
            assert_eq!(report.stats.final_hash_count, 0, "{case}");
        }
    }

    #[test]
    fn an_unsatisfiable_count_takes_one_check_per_cell() {
        for (width, cells) in [(7, 3), (6, 1)] {
            let mut tm = TermManager::new();
            let (x, f) = interval_instance(&mut tm, width, 0);
            let report = pact_count(&mut tm, &[f], &[x], &CounterConfig::fast()).unwrap();
            assert_eq!(report.outcome, CountOutcome::Unsatisfiable, "{width} bits");
            assert_eq!(report.stats.oracle_calls, cells, "{width} bits");
            assert_eq!(report.stats.cells_explored, cells, "{width} bits");
        }
    }

    /// Runs `search_boundary` over a list of `max_hashes` whose cells are
    /// small from prefix `boundary` on (prefix 0 included when `boundary`
    /// is 0); returns the probes in order and the boundary found.
    fn probes(max_hashes: usize, start: Start, boundary: usize) -> (Vec<usize>, Option<usize>) {
        let mut probed = Vec::new();
        let search = search_boundary(max_hashes, start, |len, _| {
            probed.push(len);
            Ok(if len < boundary {
                (CellCount::Saturated, Vec::new())
            } else {
                (CellCount::Exact(1), vec![Vec::new()])
            })
        })
        .unwrap();
        let found = match search {
            Search::Found(len, _) => Some(len),
            Search::Failed => None,
            Search::Timeout => panic!("no probe timed out"),
        };
        (probed, found)
    }

    #[test]
    fn the_search_probes_in_the_documented_order() {
        // Round 0 over XOR hashes gallops from two bits, over word-level
        // hashes from one, and over a space below `thresh` from prefix 0;
        // CDM's search, with prefix 0 known to saturate, gallops from one.
        let xor = Start::Unhashed { first: 2 };
        assert_eq!(probes(12, xor, 7), (vec![2, 4, 8, 6, 7], Some(7)));
        let word = Start::Unhashed { first: 1 };
        assert_eq!(probes(12, word, 7), (vec![1, 2, 4, 8, 6, 7], Some(7)));
        let small = Start::Unhashed { first: 0 };
        assert_eq!(probes(12, small, 0), (vec![0], Some(0)));
        assert_eq!(probes(12, small, 3), (vec![0, 1, 2, 4, 3], Some(3)));
        assert_eq!(
            probes(12, Start::Saturated, 7),
            (vec![1, 2, 4, 8, 6, 7], Some(7))
        );
        // From `first` ≥ 1, prefix 0 is measured only when the bracket
        // closes at prefix 1.
        assert_eq!(probes(12, xor, 2), (vec![2, 1], Some(2)));
        assert_eq!(probes(12, xor, 1), (vec![2, 1, 0], Some(1)));
        assert_eq!(probes(12, xor, 0), (vec![2, 1, 0], Some(0)));
        assert_eq!(probes(12, word, 1), (vec![1, 0], Some(1)));
        assert_eq!(probes(12, Start::Saturated, 1), (vec![1], Some(1)));
        assert_eq!(probes(12, Start::Leapfrog(1), 1), (vec![1], Some(1)));
        assert_eq!(probes(12, xor, 13), (vec![2, 4, 8, 12], None));
    }
}
