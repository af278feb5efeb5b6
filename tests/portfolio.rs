//! Portfolio-backend integration: cancellation must terminate every racing
//! worker (no thread leak), and the work of cancelled losers must stay in
//! the merged accounting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pact::{BackendSpec, CancellationToken, CountOutcome, OracleFactory, ProgressEvent, Session};
use pact_ir::{Sort, TermManager};
use pact_solver::{PortfolioContext, SolverConfig};

/// A saturating instance big enough that a count has work to cancel.
fn saturating_session_builder(width: u32) -> pact::SessionBuilder {
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(width));
    let c = tm.mk_bv_const(16, width);
    let f = tm.mk_bv_ule(c, x).unwrap();
    Session::builder(tm).assert(f).project(x).seed(1)
}

/// A portfolio factory whose every oracle shares one live-worker probe, so
/// the test can observe worker threads across all the oracles a count
/// builds (base + one per round, across both scheduler threads).
fn probed_portfolio(workers: usize) -> (OracleFactory, Arc<AtomicUsize>) {
    let probe = Arc::new(AtomicUsize::new(0));
    let handle = Arc::clone(&probe);
    let factory = OracleFactory::new(move |config: SolverConfig| {
        let mut ctx = PortfolioContext::with_config(workers, config);
        ctx.set_worker_probe(Arc::clone(&handle));
        Box::new(ctx)
    });
    (factory, probe)
}

#[test]
fn cancelling_mid_count_terminates_all_workers_and_keeps_partial_results() {
    // Cancel from inside the progress observer while rounds are in flight
    // (two scheduler threads, each racing 3 workers per check).  After the
    // count returns: no worker thread may still be alive — the races are
    // scoped, joined before every `check` returns — and the partial work
    // must be reported Timeout-style rather than discarded or errored.
    let (factory, probe) = probed_portfolio(3);
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
                // Abort a few cells in, while checks are still being issued.
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
        "a portfolio worker thread outlived the cancelled count"
    );
    assert!(session.cancellation().is_cancelled());
    // Far fewer than the 500 requested rounds ran; the work done is kept.
    assert!(report.stats.iterations < 500);
    assert!(report.stats.cells_explored >= 1);
    assert!(report.stats.oracle_calls >= 1);
    // A cancelled run is not an error: it reports Timeout (or an estimate
    // from rounds that finished before the token flipped).
    assert!(matches!(
        report.outcome,
        CountOutcome::Timeout | CountOutcome::Approximate { .. }
    ));
}

#[test]
fn pre_cancelled_portfolio_count_stops_before_spawning_workers() {
    let (factory, probe) = probed_portfolio(3);
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

#[test]
fn loser_conflicts_and_rebuilds_reach_the_count_stats() {
    // A full saturating count on the portfolio backend: the rebuild-style
    // workers lose plenty of races, yet their rebuilds (one per pop that
    // crossed encoded assertions) must show up in the merged CountStats —
    // the accounting contract that keeps before/after measurements honest.
    let mut session = saturating_session_builder(8)
        .iterations(3)
        .backend(BackendSpec::Portfolio { workers: 4 })
        .build()
        .unwrap();
    let report = session.count().unwrap();
    assert!(matches!(report.outcome, CountOutcome::Approximate { .. }));
    let portfolio = report.stats.portfolio.unwrap();
    assert_eq!(portfolio.workers, 4);
    // Slots 1 and 3 of the worker table are rebuild-style: the galloping
    // search popped frames in every round, so rebuilds must be non-zero
    // even though those workers won only some (possibly zero) races.
    assert!(
        report.stats.oracle.rebuilds > 0,
        "losers' rebuilds were dropped from the totals"
    );
    // The `cancelled` side of the winner/cancelled accounting obeys its
    // invariant: at most workers−1 losers per check can be cut short.
    // (A strict `> 0` would be timing-dependent — on enough idle cores
    // every loser of an easy race can finish decisively before observing
    // the stop flag — so only the bound is portable.)
    assert!(portfolio.cancelled <= 3 * report.stats.oracle_calls);
    // Every check was credited to exactly one winner.
    let wins: u64 = portfolio.wins.iter().sum();
    assert_eq!(wins, report.stats.oracle_calls);
    // Diversification is live: at least two distinct worker configurations
    // won races over the run.
    let winners = portfolio.wins.iter().filter(|&&w| w > 0).count();
    assert!(winners >= 2, "wins = {:?}", portfolio.wins);
}
