//! `PortfolioContext`: an oracle that races diversified solver workers.
//!
//! The round scheduler parallelizes *across* rounds, but each oracle `check`
//! is sequential, so one hard cell stalls a whole round.  This backend
//! attacks exactly that tail: every `check` fans out to N workers — each a
//! complete oracle of its own, diversified in context mode (rebuild vs.
//! incremental), branching polarity, restart schedule and
//! initial-activity noise — and the first SAT/UNSAT answer wins while the
//! losers are cancelled through an [`InterruptFlag`] their SAT solvers poll
//! at conflict and restart boundaries.  The structure mirrors DALC's
//! "combine complementary decoders and keep whichever wins": no single
//! configuration dominates every cell, but the portfolio's per-check time is
//! the per-check *minimum* over its members (plus cancellation latency).
//!
//! # Sharing the term manager
//!
//! `Oracle::check` hands over `&mut TermManager`, but N workers must encode
//! concurrently.  The only mutation the check pipeline performs on the term
//! manager is *preprocessing* (array reduction and Ackermannization intern
//! rewritten terms), so the portfolio warms a [`PreprocessCache`] up front —
//! once per raw assertion, on the caller's manager.  The race itself runs on
//! a persistent worker pool: its threads are `'static` and cannot borrow the
//! caller's manager, so each check *transfers ownership* — the manager moves
//! into an `Arc`, clones ride into the jobs together with the worker
//! contexts, and the dispatch rendezvous (every job reports back before
//! `check` returns) guarantees all clones are dead so `Arc::try_unwrap`
//! restores the manager to the caller.  Worker encoders cache literals by
//! `TermId`, which stays sound across checks precisely because every term
//! they ever see lives in the caller's manager.
//!
//! # Determinism
//!
//! All workers are complete over the supported fragment, so every decisive
//! answer agrees; racing only changes *which model* witnesses a SAT verdict.
//! The race stops at the first decisive finisher (it raises the shared
//! interrupt flag), the dispatch rendezvous collects every worker — losers
//! abort at their next conflict, but any worker already past its last flag
//! poll still returns decisively; that rendezvous latency is the race's
//! de-facto grace window — and the lowest-*ranked* decisive finisher
//! supplies the model
//! and is credited the win.  Ranks (and the dispatch head start) rotate as
//! a pure function of the check index, so easy checks — effectively ties —
//! spread their wins across the portfolio instead of crediting whichever
//! thread the OS woke first.  *Which* workers finish decisively is still
//! OS-timing-dependent, so `worker_wins`/`cancelled` tallies and the
//! witnessing model vary run to run; what is reproducible is the verdict
//! (decisive iff any worker decides, and all deciders agree) and therefore
//! the whole deterministic `CountReport` slice, which is
//! model-order-independent — `tests/differential.rs` pins it across
//! backends, seeds and thread counts.

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use pact_ir::{BvValue, TermId, TermManager, Value};
use pact_sat::{InterruptFlag, SatOptions};

use crate::context::{
    warm_preprocess_cache, LiveGuard, OracleStats, PreprocessCache, SolverConfig, SolverResult,
};
use crate::error::Result;
use crate::incremental::IncrementalContext;
use crate::oracle::{block_model_by_terms, blocking_pairs, Oracle};
use crate::pool::{Job, PoolHandle, WorkerPool};

/// What one racing job returns through the pool: the worker's slot, the
/// worker context itself (ownership round-trips through the pool thread) and
/// its verdict.
type RaceReturn = (usize, IncrementalContext, Result<SolverResult>);

/// Hard cap on the number of racing workers (and the length of the
/// fixed-size win-count arrays carried through `CountStats`).
pub const MAX_PORTFOLIO_WORKERS: usize = 8;

/// One worker's diversification recipe: which context mode it runs and how
/// its SAT search is steered away from its siblings'.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Short name used in reports and benchmark artifacts.
    pub label: &'static str,
    /// `true` builds an [`IncrementalContext`] in its default mode, `false`
    /// one in rebuild mode ([`IncrementalContext::rebuilding`]).
    pub incremental: bool,
    /// SAT-level steering (polarity, restart schedule, branching noise).
    pub sat: SatOptions,
}

/// The portfolio's fixed worker table; [`PortfolioContext::with_config`]
/// takes the first `n` entries.  Slots 0 and 1 are the two context modes at
/// reference settings, so even a two-worker portfolio races a rebuild-style
/// against an incremental-style search; later slots add polarity flips,
/// sprint/marathon restart schedules and branching noise.
pub const WORKER_PROFILES: [WorkerProfile; MAX_PORTFOLIO_WORKERS] = [
    WorkerProfile {
        label: "inc-base",
        incremental: true,
        sat: SatOptions {
            default_phase: false,
            restart_base: 100,
            activity_seed: 0,
        },
    },
    WorkerProfile {
        label: "reb-base",
        incremental: false,
        sat: SatOptions {
            default_phase: false,
            restart_base: 100,
            activity_seed: 0,
        },
    },
    WorkerProfile {
        label: "inc-hot",
        incremental: true,
        sat: SatOptions {
            default_phase: true,
            restart_base: 50,
            activity_seed: 0x9e37_79b9_7f4a_7c15,
        },
    },
    WorkerProfile {
        label: "reb-steady",
        incremental: false,
        sat: SatOptions {
            default_phase: true,
            restart_base: 250,
            activity_seed: 0xd1b5_4a32_d192_ed03,
        },
    },
    WorkerProfile {
        label: "inc-sprint",
        incremental: true,
        sat: SatOptions {
            default_phase: false,
            restart_base: 40,
            activity_seed: 0x2545_f491_4f6c_dd1d,
        },
    },
    WorkerProfile {
        label: "inc-flip",
        incremental: true,
        sat: SatOptions {
            default_phase: true,
            restart_base: 100,
            activity_seed: 0x94d0_49bb_1331_11eb,
        },
    },
    WorkerProfile {
        label: "reb-noisy",
        incremental: false,
        sat: SatOptions {
            default_phase: false,
            restart_base: 150,
            activity_seed: 0xbf58_476d_1ce4_e5b9,
        },
    },
    WorkerProfile {
        label: "inc-marathon",
        incremental: true,
        sat: SatOptions {
            default_phase: true,
            restart_base: 400,
            activity_seed: 0x369d_ea0f_31a5_3f85,
        },
    },
];

/// Winner/cancelled accounting of a portfolio oracle, merged into
/// `CountStats` by the counting engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortfolioStats {
    /// Number of workers the portfolio races per check.
    pub workers: u32,
    /// Decisive answers credited per worker slot (only the first `workers`
    /// entries are meaningful).
    pub wins: [u64; MAX_PORTFOLIO_WORKERS],
    /// Worker solves cut short after losing a race (they answered `Unknown`
    /// while a sibling's decisive answer already stood).
    pub cancelled: u64,
}

impl std::ops::AddAssign for PortfolioStats {
    /// Sums the wins and cancellations; `workers` is a high-water mark,
    /// clamped to [`MAX_PORTFOLIO_WORKERS`] because a custom backend can
    /// report any number while `wins` is a fixed-size array that consumers
    /// slice by this field.
    fn add_assign(&mut self, rhs: PortfolioStats) {
        self.workers = self
            .workers
            .max(rhs.workers)
            .min(MAX_PORTFOLIO_WORKERS as u32);
        for (total, wins) in self.wins.iter_mut().zip(rhs.wins) {
            *total += wins;
        }
        self.cancelled += rhs.cancelled;
    }
}

/// One worker's lifetime summary (see
/// [`PortfolioContext::worker_reports`]).
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// The worker's profile label.
    pub label: &'static str,
    /// Decisive answers this worker was credited with.
    pub wins: u64,
    /// The worker oracle's own cumulative statistics — counted in the
    /// portfolio's totals even for races the worker lost.
    pub stats: OracleStats,
}

/// The racing-portfolio oracle (see the module docs for the architecture).
///
/// All assertion-stack operations fan out to every worker immediately;
/// `check` warms the preprocess cache against the caller's term manager and
/// then races the workers on the persistent pool (the dispatch rendezvous
/// completes before `check` returns, so no worker ever holds check-scoped
/// state past its call — cancellation can cut a race short, never leak it).
#[derive(Debug)]
pub struct PortfolioContext {
    profiles: Vec<WorkerProfile>,
    workers: Vec<IncrementalContext>,
    /// The persistent racing threads, created once per oracle.
    pool: WorkerPool<RaceReturn>,
    /// Portfolio-level `check` count (each check is N worker solves).
    checks: u64,
    /// Live frames (the assertion-stack depth).
    depth: usize,
    /// Raw assertions awaiting preprocessing, tagged with the depth they
    /// were asserted at so popped frames retire their pending entries.
    to_warm: Vec<(usize, TermId)>,
    /// Shared with in-flight jobs during a dispatch; uniquely held (and
    /// therefore warmable) between checks thanks to the quiesce rendezvous.
    cache: Arc<PreprocessCache>,
    /// Warm-cache hits observed while preprocessing `to_warm` (hash-consed
    /// re-assertions resolve to already-cached term ids); surfaced through
    /// [`OracleStats::preprocess_cache_hits`].
    warm_hits: u64,
    /// Raised by the first decisive finisher of a race; lowered per check.
    race: InterruptFlag,
    /// External cancellation (the session's token), also watched by every
    /// worker's SAT solver.
    external: Option<InterruptFlag>,
    wins: [u64; MAX_PORTFOLIO_WORKERS],
    cancelled: u64,
    last_winner: Option<usize>,
    /// Optional live-worker-thread probe for leak tests and service metrics.
    probe: Option<Arc<AtomicUsize>>,
}

impl PortfolioContext {
    /// A portfolio of `workers` diversified workers with default resource
    /// limits.  `workers` is clamped to `1..=MAX_PORTFOLIO_WORKERS`.
    pub fn new(workers: usize) -> Self {
        PortfolioContext::with_config(workers, SolverConfig::default())
    }

    /// A portfolio of `workers` diversified workers, every worker sharing
    /// the given resource limits.  `workers` is clamped to
    /// `1..=MAX_PORTFOLIO_WORKERS`.
    pub fn with_config(workers: usize, config: SolverConfig) -> Self {
        let n = workers.clamp(1, MAX_PORTFOLIO_WORKERS);
        let profiles: Vec<WorkerProfile> = WORKER_PROFILES[..n].to_vec();
        let race = InterruptFlag::new();
        let mut ctxs = Vec::with_capacity(n);
        for profile in &profiles {
            let mut worker = IncrementalContext::for_worker(config, profile);
            worker.set_interrupt_flags(vec![race.clone()]);
            ctxs.push(worker);
        }
        PortfolioContext {
            profiles,
            workers: ctxs,
            pool: WorkerPool::new(n, "pact-portfolio"),
            checks: 0,
            depth: 0,
            to_warm: Vec::new(),
            cache: Arc::new(PreprocessCache::new()),
            warm_hits: 0,
            race,
            external: None,
            wins: [0; MAX_PORTFOLIO_WORKERS],
            cancelled: 0,
            last_winner: None,
            probe: None,
        }
    }

    /// Number of racing workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Installs a shared counter that tracks how many worker *jobs* are in
    /// flight at any instant (incremented on job entry, decremented on exit
    /// — panic included).  Because every race's dispatch rendezvous
    /// completes before `check` returns, the probe reads 0 whenever no
    /// check is in flight; the cancellation leak test pins exactly that.
    /// The pool's OS threads persist between checks — their lifecycle is
    /// observable through [`PortfolioContext::pool_handle`].
    pub fn set_worker_probe(&mut self, probe: Arc<AtomicUsize>) {
        self.probe = Some(probe);
    }

    /// Lifecycle counters of the persistent worker pool: total OS threads
    /// ever spawned (constant after construction — the zero-per-check-spawn
    /// contract) and threads currently live (0 after the oracle is
    /// dropped).
    pub fn pool_handle(&self) -> PoolHandle {
        self.pool.handle()
    }

    /// Per-worker lifetime summaries: profile label, win count, and the
    /// worker oracle's own statistics.
    pub fn worker_reports(&self) -> Vec<WorkerReport> {
        self.profiles
            .iter()
            .zip(&self.workers)
            .enumerate()
            .map(|(i, (profile, worker))| WorkerReport {
                label: profile.label,
                wins: self.wins[i],
                stats: worker.stats(),
            })
            .collect()
    }

    /// Winner/cancelled accounting (the `CountStats` feed).
    pub fn portfolio_stats(&self) -> PortfolioStats {
        PortfolioStats {
            workers: self.workers.len() as u32,
            wins: self.wins,
            cancelled: self.cancelled,
        }
    }

    fn install_flags(&mut self) {
        let mut flags = vec![self.race.clone()];
        if let Some(external) = &self.external {
            flags.push(external.clone());
        }
        for worker in &mut self.workers {
            worker.set_interrupt_flags(flags.clone());
        }
    }

    /// Races every worker over the current assertion stack and returns the
    /// canonical decisive answer (see the module docs).
    fn race_check(&mut self, tm: &mut TermManager) -> Result<SolverResult> {
        let n = self.workers.len();
        self.race.clear();
        // Both the dispatch order and the ranking rotate with the check
        // index: on easy checks (effectively ties — whoever starts first
        // finishes first, especially on few cores) the head start itself
        // must rotate, or one slot would collect every win.  The rotation
        // is a pure function of `checks`; the set of decisive finishers it
        // ranks is still timing-dependent (see the module docs), so only
        // the verdict — not the win tally — is reproducible.
        let rotation = ((self.checks - 1) % n as u64) as usize;
        let mut results: Vec<Option<Result<SolverResult>>> = (0..n).map(|_| None).collect();
        // Ownership transfer into the pool: the term manager moves behind an
        // `Arc` for the duration of the dispatch, and the workers themselves
        // ride into the jobs and back out through the results.
        let shared_tm = Arc::new(std::mem::replace(tm, TermManager::new()));
        let mut slots: Vec<(usize, IncrementalContext)> =
            self.workers.drain(..).enumerate().collect();
        slots.rotate_left(rotation);
        let jobs: Vec<Job<RaceReturn>> = slots
            .into_iter()
            .map(|(slot, mut worker)| {
                let tm = Arc::clone(&shared_tm);
                let cache = Arc::clone(&self.cache);
                let race = self.race.clone();
                let probe = self.probe.clone();
                Box::new(move || {
                    let _guard = probe.map(LiveGuard::enter);
                    let result = worker.check_shared(&tm, &cache);
                    if matches!(result, Ok(SolverResult::Sat | SolverResult::Unsat)) {
                        race.set();
                    }
                    (slot, worker, result)
                }) as Job<RaceReturn>
            })
            .collect();
        let raced = self.pool.dispatch(jobs);
        let mut returned: Vec<Option<IncrementalContext>> = (0..n).map(|_| None).collect();
        for (slot, worker, result) in raced {
            returned[slot] = Some(worker);
            results[slot] = Some(result);
        }
        self.workers = returned
            .into_iter()
            .map(|w| w.expect("every dispatched worker returns through the rendezvous"))
            .collect();
        // The rendezvous guarantees every job's `Arc` clone is dead.
        *tm = match Arc::try_unwrap(shared_tm) {
            Ok(owned) => owned,
            Err(_) => unreachable!("pool quiesced before check returns"),
        };
        // Canonical winner: the lowest-ranked decisive finisher.
        for offset in 0..n {
            let i = (rotation + offset) % n;
            if matches!(
                results[i],
                Some(Ok(SolverResult::Sat | SolverResult::Unsat))
            ) {
                self.wins[i] += 1;
                self.last_winner = Some(i);
                // Losers that answered `Unknown` were cut short by the race
                // flag (or exhausted their budget mid-race); either way
                // their solve was discarded.
                self.cancelled += results
                    .iter()
                    .filter(|r| matches!(r, Some(Ok(SolverResult::Unknown))))
                    .count() as u64;
                return results[i].take().expect("winner result present");
            }
        }
        // No decisive answer: surface the lowest-ranked error, else Unknown
        // (every worker gave up — budget exhaustion or cancellation).
        for offset in 0..n {
            let i = (rotation + offset) % n;
            if matches!(results[i], Some(Err(_))) {
                return results[i].take().expect("error result present");
            }
        }
        Ok(SolverResult::Unknown)
    }
}

impl Oracle for PortfolioContext {
    fn push(&mut self) {
        self.depth += 1;
        for worker in &mut self.workers {
            worker.push();
        }
    }

    fn pop(&mut self) {
        assert!(self.depth > 0, "pop without matching push");
        // Pending raw assertions of the dying frame will never be needed —
        // and must not poison later checks if they fail to preprocess.
        self.to_warm.retain(|&(depth, _)| depth < self.depth);
        self.depth -= 1;
        for worker in &mut self.workers {
            worker.pop();
        }
    }

    fn assert_term(&mut self, t: TermId) {
        self.to_warm.push((self.depth, t));
        for worker in &mut self.workers {
            worker.assert_term(t);
        }
    }

    fn assert_xor_bits(&mut self, bits: Vec<(TermId, u32)>, rhs: bool) {
        for worker in &mut self.workers {
            worker.assert_xor_bits(bits.clone(), rhs);
        }
    }

    fn block_model(&mut self, tm: &mut TermManager, projection: &[TermId], model: &[BvValue]) {
        // The direct path needs no preprocessing, so it bypasses the warm
        // cache; the term fallback re-enters through `assert_term`.
        match blocking_pairs(tm, projection, model) {
            Some(pairs) => {
                for worker in &mut self.workers {
                    worker.block_pairs(pairs.clone());
                }
            }
            None => block_model_by_terms(self, tm, projection, model),
        }
    }

    fn track_var(&mut self, var: TermId) {
        for worker in &mut self.workers {
            worker.track_var(var);
        }
    }

    fn check(&mut self, tm: &mut TermManager) -> Result<SolverResult> {
        self.checks += 1;
        // A failed or indecisive check must not leave the previous check's
        // model claimable (the single-engine backends never do).
        self.last_winner = None;
        let cache = Arc::get_mut(&mut self.cache)
            .expect("cache uniquely held between checks (pool quiesced)");
        warm_preprocess_cache(&mut self.to_warm, cache, tm, &mut self.warm_hits)?;
        self.race_check(tm)
    }

    fn model_value(&self, tm: &TermManager, var: TermId) -> Option<Value> {
        let winner = self.last_winner?;
        self.workers[winner].model_value(tm, var)
    }

    fn projected_model(&self, tm: &TermManager, projection: &[TermId]) -> Option<Vec<BvValue>> {
        let winner = self.last_winner?;
        self.workers[winner].projected_model(tm, projection)
    }

    fn stats(&self) -> OracleStats {
        // The work fields sum over every worker, so conflicts and rebuilds
        // spent by cancelled losers stay in the lifetime totals; `checks`
        // counts portfolio-level queries (comparable across backends) and
        // `pool_reuses` the pool's batches.
        let mut stats = OracleStats::default();
        for worker in &self.workers {
            stats += worker.stats();
        }
        stats.checks = self.checks;
        stats.pool_reuses = self.pool.batches();
        stats.preprocess_cache_hits += self.warm_hits;
        stats
    }

    fn set_interrupt(&mut self, flag: InterruptFlag) {
        self.external = Some(flag);
        self.install_flags();
    }

    fn portfolio(&self) -> Option<PortfolioStats> {
        Some(self.portfolio_stats())
    }
}

// The race shares `&TermManager` and `&PreprocessCache` across scoped worker
// threads; these assertions pin the required auto traits at the crate that
// relies on them.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_sync::<TermManager>();
    assert_sync::<PreprocessCache>();
    assert_sync::<InterruptFlag>();
    assert_send::<PortfolioContext>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use pact_ir::Sort;
    use std::sync::atomic::Ordering;

    fn lt(tm: &mut TermManager, x: TermId, bound: u128, width: u32) -> TermId {
        let c = tm.mk_bv_const(bound, width);
        tm.mk_bv_ult(x, c).unwrap()
    }

    #[test]
    fn portfolio_answers_like_a_single_backend() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let f = lt(&mut tm, x, 40, 6);
        let mut ctx = PortfolioContext::new(3);
        ctx.track_var(x);
        ctx.assert_term(f);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let v = ctx.model_value(&tm, x).unwrap().as_bv().unwrap();
        assert!(v.as_u128() < 40);
        ctx.push();
        let g = lt(&mut tm, x, 0, 6); // impossible
        ctx.assert_term(g);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unsat);
        ctx.pop();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(ctx.stats().checks, 3);
    }

    #[test]
    fn enumeration_with_blocking_matches_the_reference() {
        // x < 5 over 4 bits enumerated to exhaustion: the portfolio must
        // find exactly the 5 models whatever worker wins each race.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let f = lt(&mut tm, x, 5, 4);
        let mut ctx = PortfolioContext::new(4);
        ctx.track_var(x);
        ctx.assert_term(f);
        let mut seen = Vec::new();
        while ctx.check(&mut tm).unwrap() == SolverResult::Sat {
            let v = ctx.model_value(&tm, x).unwrap().as_bv().unwrap();
            assert!(v.as_u128() < 5);
            assert!(!seen.contains(&v.as_u128()), "model repeated");
            seen.push(v.as_u128());
            let c = tm.mk_bv_value(v);
            let eq = tm.mk_eq(x, c);
            let block = tm.mk_not(eq);
            ctx.assert_term(block);
        }
        assert_eq!(seen.len(), 5);
        // Every check was credited to exactly one worker.
        let total_wins: u64 = ctx.portfolio_stats().wins.iter().sum();
        assert_eq!(total_wins, ctx.stats().checks);
    }

    #[test]
    fn xor_rows_reach_every_worker() {
        // Odd parity over 3 bits: 4 of 8 values, as for the single backends.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(3));
        let mut ctx = PortfolioContext::new(2);
        ctx.track_var(x);
        ctx.push();
        ctx.assert_xor_bits(vec![(x, 0), (x, 1), (x, 2)], true);
        let mut count = 0;
        while ctx.check(&mut tm).unwrap() == SolverResult::Sat {
            let v = ctx.model_value(&tm, x).unwrap().as_bv().unwrap();
            assert_eq!(v.as_u128().count_ones() % 2, 1);
            count += 1;
            assert!(count <= 4);
            let c = tm.mk_bv_value(v);
            let eq = tm.mk_eq(x, c);
            let block = tm.mk_not(eq);
            ctx.assert_term(block);
        }
        assert_eq!(count, 4);
        // The frame retires the row in every worker.
        ctx.pop();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
    }

    #[test]
    fn worker_profiles_are_distinct_and_reach_the_solvers() {
        // The win-spread probes (CI, tests/portfolio.rs) validate the rank
        // rotation, which would also pass for identical workers; this is
        // the direct check that the diversification itself is live.  The
        // profile table must be pairwise distinct, and each profile's
        // `default_phase` must be observable in its worker's search: a free
        // tracked variable is decided with the saved phase, so its model
        // bits equal the configured polarity.
        for (i, a) in WORKER_PROFILES.iter().enumerate() {
            for (j, b) in WORKER_PROFILES.iter().enumerate().skip(i + 1) {
                // Distinct as whole recipes: slots 0/1 share reference SAT
                // options on purpose (they differ in context mode).
                assert_ne!(a, b, "profiles {i} and {j} are identical");
                assert_ne!(a.label, b.label);
            }
        }
        for profile in &WORKER_PROFILES {
            let mut tm = TermManager::new();
            let x = tm.mk_var("x", Sort::BitVec(4));
            let mut worker = IncrementalContext::for_worker(SolverConfig::default(), profile);
            worker.track_var(x);
            let verdict = worker
                .check_shared(&tm, &PreprocessCache::new())
                .unwrap_or_else(|e| panic!("{}: {e}", profile.label));
            assert_eq!(verdict, SolverResult::Sat, "{}", profile.label);
            let v = worker.model_value(&tm, x).unwrap().as_bv().unwrap();
            let expected = if profile.sat.default_phase { 0b1111 } else { 0 };
            assert_eq!(
                v.as_u128(),
                expected,
                "{}: default_phase did not reach the worker's SAT solver",
                profile.label
            );
        }
    }

    #[test]
    fn rank_rotation_spreads_wins_across_workers() {
        // Easy checks are effectively ties, so the deterministic rotation
        // must credit ≥ 2 distinct workers over a run of checks — the "is
        // diversification live" probe the smoke bench asserts at scale.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(5));
        let f = lt(&mut tm, x, 20, 5);
        let mut ctx = PortfolioContext::new(3);
        ctx.track_var(x);
        ctx.assert_term(f);
        for _ in 0..6 {
            ctx.push();
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
            ctx.pop();
        }
        let winners = ctx
            .portfolio_stats()
            .wins
            .iter()
            .filter(|&&w| w > 0)
            .count();
        assert!(winners >= 2, "wins = {:?}", ctx.portfolio_stats().wins);
    }

    #[test]
    fn loser_work_stays_in_the_lifetime_totals() {
        // The portfolio's conflicts/rebuilds are the *sum* over workers —
        // including everything cancelled losers spent — so the merged totals
        // never under-report work (the PR 3 accounting contract).
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(10));
        let y = tm.mk_var("y", Sort::BitVec(10));
        let prod = tm.mk_bv_mul(x, y).unwrap();
        let c = tm.mk_bv_const(851, 10);
        let f = tm.mk_eq(prod, c);
        let mut ctx = PortfolioContext::new(3);
        ctx.assert_term(f);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        ctx.push();
        let zero = tm.mk_bv_const(0, 10);
        let g = tm.mk_bv_ult(x, zero).unwrap(); // impossible
        ctx.assert_term(g);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unsat);
        ctx.pop();
        let reports = ctx.worker_reports();
        let summed: u64 = reports.iter().map(|r| r.stats.conflicts).sum();
        assert_eq!(ctx.stats().conflicts, summed);
        let rebuilds: u64 = reports.iter().map(|r| r.stats.rebuilds).sum();
        assert_eq!(ctx.stats().rebuilds, rebuilds);
        // The pop crossed encoded assertions, so every rebuild-style worker
        // paid a rebuild — and it must show in the portfolio totals even if
        // that worker never won a race.
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let rebuild_workers = ctx.profiles.iter().filter(|p| !p.incremental).count() as u64;
        assert!(ctx.stats().rebuilds >= rebuild_workers);
    }

    #[test]
    fn external_interrupt_turns_checks_unknown() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let f = lt(&mut tm, x, 40, 6);
        let mut ctx = PortfolioContext::new(2);
        ctx.assert_term(f);
        let flag = InterruptFlag::new();
        Oracle::set_interrupt(&mut ctx, flag.clone());
        flag.set();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unknown);
        assert!(ctx.model_value(&tm, x).is_none());
        flag.clear();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
    }

    #[test]
    fn worker_probe_reads_zero_between_checks() {
        let probe = Arc::new(AtomicUsize::new(0));
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let f = lt(&mut tm, x, 40, 6);
        let mut ctx = PortfolioContext::new(3);
        ctx.set_worker_probe(Arc::clone(&probe));
        ctx.assert_term(f);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(probe.load(Ordering::SeqCst), 0, "worker thread leaked");
    }

    #[test]
    fn pool_threads_are_constant_across_checks_and_drain_on_drop() {
        // The persistent-runtime contract: the OS threads are created once
        // at construction, every check is a batch served by the same pool
        // (pool_reuses counts them), and dropping the oracle joins them.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(5));
        let f = lt(&mut tm, x, 20, 5);
        let mut ctx = PortfolioContext::new(3);
        ctx.track_var(x);
        ctx.assert_term(f);
        let handle = ctx.pool_handle();
        assert_eq!(handle.threads_spawned(), 3);
        for _ in 0..100 {
            ctx.push();
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
            ctx.pop();
        }
        assert_eq!(handle.threads_spawned(), 3, "a check spawned a thread");
        assert_eq!(handle.live_threads(), 3);
        assert_eq!(ctx.stats().pool_reuses, 100);
        drop(ctx);
        assert_eq!(handle.live_threads(), 0, "pool thread outlived its oracle");
    }

    #[test]
    fn cancellation_mid_check_leaves_the_pool_reusable() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let f = lt(&mut tm, x, 40, 6);
        let mut ctx = PortfolioContext::new(2);
        ctx.assert_term(f);
        let handle = ctx.pool_handle();
        let flag = InterruptFlag::new();
        Oracle::set_interrupt(&mut ctx, flag.clone());
        flag.set();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unknown);
        // The cancelled batch quiesced; the same threads answer the retry.
        flag.clear();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(handle.threads_spawned(), 2);
        assert_eq!(ctx.stats().pool_reuses, 2);
    }

    #[test]
    fn popping_an_unchecked_failing_frame_recovers() {
        // An unsupported assertion inside a frame errors the check; popping
        // the frame retires it (in the cache queue too) and the next check
        // answers for the surviving formula.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let f = lt(&mut tm, x, 5, 4);
        let r = tm.mk_var("r", Sort::Real);
        let rr = tm.mk_real_mul(r, r).unwrap(); // non-linear: unsupported
        let one = tm.mk_real_const(pact_ir::Rational::ONE);
        let bad = tm.mk_real_lt(rr, one).unwrap();
        let mut ctx = PortfolioContext::new(2);
        ctx.assert_term(f);
        ctx.push();
        ctx.assert_term(bad);
        assert!(ctx.check(&mut tm).is_err());
        assert!(ctx.check(&mut tm).is_err());
        ctx.pop();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
    }

    #[test]
    #[should_panic(expected = "pop without matching push")]
    fn unbalanced_pop_panics() {
        let mut ctx = PortfolioContext::new(2);
        ctx.pop();
    }
}
