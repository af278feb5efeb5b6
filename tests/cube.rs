//! Cube-backend contract tests: the coverage invariant behind
//! cube-and-conquer, order-independence of the decisive answer, and the
//! no-thread-leak cancellation guarantee.
//!
//! The backend's UNSAT conclusion ("all cubes refuted ⇒ the check is
//! UNSAT") is only sound when the cube set *partitions* the assignment
//! space over its split bits.  `CubeContext` validates that per check with
//! [`pact_solver::cubes_partition`]; this suite pins the validator itself:
//! every probe-pruned split tree the generator can produce must partition,
//! and every single-cube mutation (drop a leaf, flip a literal) must break
//! it.  Verdict resolution is pinned order-independent both as a pure
//! function and through real oracle conquests, and mid-count cancellation
//! is pinned to leave zero live conquest threads (the portfolio-style
//! probe).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pact::{CancellationToken, CountOutcome, OracleFactory, ProgressEvent, Session};
use pact_ir::{Sort, TermId, TermManager};
use pact_solver::{
    cubes_partition, resolve_cube_verdicts, CubeBit, CubeContext, IncrementalContext, SolverConfig,
    SolverResult,
};
use proptest::prelude::*;

/// Builds a probe-pruned split tree the way `CubeContext` generates one:
/// level by level over `keys`, each frontier cube either retired as a leaf
/// (bit of `mask`, standing in for a lookahead refutation) or split
/// further; whatever survives the last level joins the leaves.
fn build_split_tree(keys: &[(TermId, u32)], mask: u32) -> Vec<Vec<CubeBit>> {
    let mut frontier: Vec<Vec<CubeBit>> = vec![Vec::new()];
    let mut leaves: Vec<Vec<CubeBit>> = Vec::new();
    let mut decision = 0u32;
    for &(var, bit) in keys {
        let mut next = Vec::new();
        for cube in frontier {
            for value in [false, true] {
                let mut candidate = cube.clone();
                candidate.push((var, bit, value));
                if mask >> (decision % 32) & 1 == 1 {
                    leaves.push(candidate);
                } else {
                    next.push(candidate);
                }
                decision += 1;
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    leaves.extend(frontier);
    leaves
}

/// Distinct split keys over a couple of bit-vector variables.
fn split_keys(tm: &mut TermManager) -> Vec<(TermId, u32)> {
    let x = tm.mk_var("x", Sort::BitVec(4));
    let y = tm.mk_var("y", Sort::BitVec(4));
    vec![(x, 0), (x, 3), (y, 1), (y, 2)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every split tree the generator can produce partitions the space —
    /// pairwise disjoint and exhaustive — and stays a partition under any
    /// reordering of its cubes; dropping a cube or flipping one literal
    /// always breaks it.
    #[test]
    fn generated_splits_partition_the_space(
        case in (1usize..=4, 0u32..65_536, 0usize..64),
    ) {
        let (depth, mask, pick) = case;
        let mut tm = TermManager::new();
        let keys = split_keys(&mut tm);
        let cubes = build_split_tree(&keys[..depth], mask);
        prop_assert!(!cubes.is_empty());
        prop_assert!(
            cubes_partition(&cubes),
            "split tree (depth {}, mask {:#x}) is not a partition: {:?}",
            depth, mask, cubes
        );
        // Partitioning is a property of the *set*: reversing the cube
        // order changes nothing.
        let reversed: Vec<_> = cubes.iter().rev().cloned().collect();
        prop_assert!(cubes_partition(&reversed));
        // Dropping any one cube leaves a hole.
        if cubes.len() >= 2 {
            let mut holed = cubes.clone();
            holed.remove(pick % holed.len());
            prop_assert!(
                !cubes_partition(&holed),
                "dropping a cube must break exhaustiveness"
            );
            // Flipping the last literal of any one cube makes it overlap
            // its sibling's region.
            let mut overlapped = cubes.clone();
            let target = pick % overlapped.len();
            let last = overlapped[target].len() - 1;
            overlapped[target][last].2 = !overlapped[target][last].2;
            prop_assert!(
                !cubes_partition(&overlapped),
                "flipping a literal must break disjointness"
            );
        }
    }

    /// The decisive answer is a pure, order-independent function of the
    /// per-cube verdicts: any rotation or reversal resolves identically.
    #[test]
    fn verdict_resolution_ignores_cube_order(
        case in (proptest::collection::vec(0u8..3, 1..=8), 0usize..8),
    ) {
        let (raw, rotation) = case;
        let verdicts: Vec<SolverResult> = raw
            .iter()
            .map(|v| match v {
                0 => SolverResult::Sat,
                1 => SolverResult::Unsat,
                _ => SolverResult::Unknown,
            })
            .collect();
        let total = verdicts.len();
        let reference = resolve_cube_verdicts(&verdicts, total);
        let mut rotated = verdicts.clone();
        rotated.rotate_left(rotation % total);
        prop_assert_eq!(resolve_cube_verdicts(&rotated, total), reference);
        let reversed: Vec<_> = verdicts.iter().rev().copied().collect();
        prop_assert_eq!(resolve_cube_verdicts(&reversed, total), reference);
    }
}

#[test]
fn conquering_cubes_in_any_order_gives_the_same_decisive_answer() {
    // Real oracle conquests, not just the pure resolver: sweep a full
    // depth-2 partition over the top bits of `x` in forward and reverse
    // order, for a satisfiable and an unsatisfiable formula, and check the
    // resolved answer matches an unsplit solve.
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(4));
    let six = tm.mk_bv_const(6, 4);
    let ten = tm.mk_bv_const(10, 4);
    let sat_formula = vec![tm.mk_bv_ult(x, six).unwrap()]; // x < 6: SAT
    let unsat_formula = vec![
        tm.mk_bv_ult(x, six).unwrap(),
        tm.mk_bv_ule(ten, x).unwrap(), // ∧ x ≥ 10: UNSAT
    ];
    let cubes: Vec<Vec<CubeBit>> = vec![
        vec![(x, 3, false), (x, 2, false)],
        vec![(x, 3, false), (x, 2, true)],
        vec![(x, 3, true), (x, 2, false)],
        vec![(x, 3, true), (x, 2, true)],
    ];
    assert!(cubes_partition(&cubes));
    for formula in [&sat_formula, &unsat_formula] {
        let mut reference = IncrementalContext::new();
        reference.track_var(x);
        for &f in formula {
            reference.assert_term(f);
        }
        let expected = reference.check(&mut tm).unwrap();
        let mut answers = Vec::new();
        for order in [
            cubes.clone(),
            cubes.iter().rev().cloned().collect::<Vec<_>>(),
        ] {
            let mut oracle = IncrementalContext::rebuilding(SolverConfig::default());
            oracle.track_var(x);
            for &f in formula {
                oracle.assert_term(f);
            }
            let verdicts: Vec<SolverResult> = order
                .iter()
                .map(|cube| {
                    oracle.push();
                    for &(var, bit, value) in cube {
                        oracle.assert_xor_bits(vec![(var, bit)], value);
                    }
                    let verdict = oracle.check(&mut tm).unwrap();
                    oracle.pop();
                    verdict
                })
                .collect();
            answers.push(resolve_cube_verdicts(&verdicts, order.len()));
        }
        assert_eq!(answers[0], answers[1], "cube order changed the answer");
        assert_eq!(answers[0], expected, "cube sweep diverged from a solve");
    }
}

/// A cube factory whose every oracle shares one live-worker probe, so the
/// test can observe conquest threads across all the oracles a count builds
/// (base + one per round, across both scheduler threads).
fn probed_cube(depth: usize, workers: usize) -> (OracleFactory, Arc<AtomicUsize>) {
    let probe = Arc::new(AtomicUsize::new(0));
    let handle = Arc::clone(&probe);
    let factory = OracleFactory::new(move |config: SolverConfig| {
        let mut ctx = CubeContext::with_config(depth, workers, config);
        ctx.set_worker_probe(Arc::clone(&handle));
        Box::new(ctx)
    });
    (factory, probe)
}

/// A saturating instance big enough that a count has work to cancel.
fn saturating_session_builder(width: u32) -> pact::SessionBuilder {
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(width));
    let c = tm.mk_bv_const(16, width);
    let f = tm.mk_bv_ule(c, x).unwrap();
    Session::builder(tm).assert(f).project(x).seed(1)
}

#[test]
fn cancelling_mid_count_terminates_all_cube_workers_and_keeps_partial_results() {
    // Cancel from inside the progress observer while rounds are in flight
    // (two scheduler threads, each splitting checks into conquered cubes).
    // After the count returns: no conquest thread may still be alive — the
    // conquests are scoped, joined before every `check` returns — and the
    // partial work must be reported Timeout-style rather than discarded.
    let (factory, probe) = probed_cube(3, 2);
    let token = CancellationToken::new();
    let trigger = token.clone();
    let cells = Arc::new(AtomicUsize::new(0));
    let cells_seen = Arc::clone(&cells);
    let mut session = saturating_session_builder(12)
        .iterations(500)
        .threads(2)
        .oracle_factory(factory)
        .cancellation(token)
        .on_progress(move |event| {
            if let ProgressEvent::Cell { .. } = event {
                // Abort a few cells in, while checks are still being split.
                if cells_seen.fetch_add(1, Ordering::SeqCst) >= 3 {
                    trigger.cancel();
                }
            }
        })
        .build()
        .unwrap();
    let report = session.count().unwrap();

    assert_eq!(
        probe.load(Ordering::SeqCst),
        0,
        "a cube conquest thread outlived the cancelled count"
    );
    assert!(session.cancellation().is_cancelled());
    // Far fewer than the 500 requested rounds ran; the work done is kept,
    // and the cube accounting of finished checks reached the stats.
    assert!(report.stats.iterations < 500);
    assert!(report.stats.cells_explored >= 1);
    assert!(report.stats.oracle_calls >= 1);
    let cube = report.stats.cube.unwrap();
    assert!(cube.splits >= 1);
    assert!(cube.cubes_solved >= cube.refuted_by_lookahead);
    // A cancelled run is not an error: it reports Timeout (or an estimate
    // from rounds that finished before the token flipped).
    assert!(matches!(
        report.outcome,
        CountOutcome::Timeout | CountOutcome::Approximate { .. }
    ));
}

#[test]
fn pre_cancelled_cube_count_stops_before_spawning_workers() {
    let (factory, probe) = probed_cube(3, 2);
    let token = CancellationToken::new();
    token.cancel();
    let mut session = saturating_session_builder(10)
        .iterations(50)
        .oracle_factory(factory)
        .cancellation(token)
        .build()
        .unwrap();
    let report = session.count().unwrap();
    assert_eq!(report.outcome, CountOutcome::Timeout);
    assert_eq!(probe.load(Ordering::SeqCst), 0);
}
