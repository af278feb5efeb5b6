//! `CubeContext`: a cube-and-conquer oracle that splits one hard `check`
//! into many small independent sub-solves.
//!
//! The portfolio backend attacks a hard cell by racing N complete solves of
//! the *same* instance — N× the work for the per-check minimum over its
//! members.  This backend instead *partitions* the work, the classic
//! cube-and-conquer structure: a lookahead pass scores candidate split bits
//! ([`pact_sat::Solver::lookahead_candidates`] over the scout encoder's
//! current activities and occurrences), the check space is divided into up
//! to `2^d` *cubes* — conjunctions of single-bit constraints over projection
//! variables — and the cubes are conquered independently.  A satisfiable
//! cube short-circuits the whole check (siblings are cancelled through an
//! [`InterruptFlag`]); all cubes unsatisfiable means the check is
//! unsatisfiable, which is only sound because the cube set provably
//! partitions the assignment space — [`cubes_partition`] validates exactly
//! that, per check, and the property is pinned by a proptest contract suite
//! (`tests/cube.rs`) rather than assumed.
//!
//! # Lookahead and the dynamic cutoff
//!
//! Splitting is driven by a *scout*: an in-process incremental oracle that
//! mirrors the assertion stack.  Before conquering, every candidate cube is
//! probed on the scout under a small conflict budget ([`PROBE_CONFLICTS`]).
//! A probe that answers UNSAT refutes the cube outright (no conquest needed
//! — counted in [`CubeStats::refuted_by_lookahead`]); a probe that answers
//! SAT ends the whole check immediately (the scout holds the model); only
//! cubes the probe cannot resolve are split further, up to the configured
//! depth.  This is the dynamic cutoff: easy regions of the space never
//! reach the full `2^d` fan-out.
//!
//! # Conquest over a shared term manager
//!
//! Surviving cubes are conquered by long-lived incremental workers on a
//! persistent worker pool, exactly the sharing discipline the portfolio
//! introduced: preprocessing is warmed up front on the caller's
//! `&mut TermManager` (the only mutation of a check), the manager then
//! moves behind an `Arc` for the duration of one dispatch, and the workers
//! run [`check_shared`](crate::IncrementalContext) against a plain
//! `&TermManager` plus the shared [`PreprocessCache`].  Workers pull cubes
//! from a shared queue; each conquest is `push` / assert cube bits /
//! `check` / `pop` on an activation-literal backend, so learnt clauses
//! survive across cubes and checks.  The first SAT finisher raises the
//! check's interrupt flag; the session's [`CancellationToken`] flag (wired
//! through [`Oracle::set_interrupt`]) is watched by the scout and by every
//! worker, so cancellation aborts in-flight cube solves, and the dispatch
//! rendezvous (every job reports back before `check` returns) guarantees no
//! worker holds check-scoped state past its `check`.
//!
//! # Determinism
//!
//! The *verdict* is deterministic: cubes partition the space, every solve
//! is complete under the default (unbudgeted) configuration, so the check
//! is SAT iff some cube is SAT and UNSAT iff every cube is UNSAT — the same
//! answer the single-engine backends give.  *Which* cube witnesses a SAT
//! verdict (and therefore the reported model) depends on OS timing, as does
//! the share of cubes conquered before cancellation — so
//! [`CubeStats::cubes_solved`] varies run to run while
//! [`CubeStats::splits`] and [`CubeStats::refuted_by_lookahead`] (scout
//! work, single-threaded) are reproducible.  The deterministic
//! `CountReport` slice is model-order-independent; `tests/differential.rs`
//! pins it bit-identical across all four backends.
//!
//! [`CancellationToken`]: crate::InterruptFlag

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pact_ir::{BvValue, TermId, TermManager, Value};
use pact_sat::InterruptFlag;

use crate::context::{
    warm_preprocess_cache, LiveGuard, OracleStats, PreprocessCache, SolverConfig, SolverResult,
};
use crate::error::Result;
use crate::incremental::IncrementalContext;
use crate::oracle::{block_model_by_terms, blocking_pairs, Oracle};
use crate::pool::{Job, PoolHandle, WorkerPool};

/// What one conquest job returns through the pool: the worker's slot, the
/// worker context itself (ownership round-trips through the pool thread) and
/// the outcomes of every cube it pulled from the shared queue.
type ConquerReturn = (usize, IncrementalContext, Vec<CubeOutcome>);

/// Hard cap on the split depth (`2^6 = 64` cubes per check).
pub const MAX_CUBE_DEPTH: usize = 6;

/// Hard cap on the number of conquering worker oracles.
pub const MAX_CUBE_WORKERS: usize = 8;

/// Conflict budget of one scout probe (the lookahead's "does this cube
/// solve cheaply?" question).  Deliberately small: a probe is a filter, not
/// a solve.
pub const PROBE_CONFLICTS: u64 = 100;

/// One literal of a cube: bit `bit` of discrete variable `var` is forced to
/// `value`.  A cube is a conjunction of these; the engine asserts each as a
/// single-bit native XOR row (`bit ⊕ ∅ = value`).
pub type CubeBit = (TermId, u32, bool);

/// Cube accounting of a [`CubeContext`], merged into `CountStats` by the
/// counting engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CubeStats {
    /// Checks that generated a cube split (at least one candidate bit was
    /// available; the remainder fell back to a plain solve).
    pub splits: u64,
    /// Cubes decisively answered anywhere — refuted or satisfied by a scout
    /// probe, or conquered to SAT/UNSAT by a worker.  Conquest finishes are
    /// timing-dependent (a sibling cancelled after a SAT short-circuit is
    /// not "solved"), so this field varies run to run like the portfolio's
    /// win counts.
    pub cubes_solved: u64,
    /// Cubes the lookahead probe refuted under [`PROBE_CONFLICTS`]
    /// conflicts, sparing the conquest phase entirely.  Scout-side and
    /// single-threaded, hence deterministic for a fixed seed.
    pub refuted_by_lookahead: u64,
    /// Probes answered from the probe-outcome cache instead of re-running
    /// the scout solve: within a frame the galloping search's repeated
    /// checks (enumerate, block, re-check) regenerate previously refuted
    /// cubes, and UNSAT is monotone under the added blocking assertions, so
    /// the cached refutation stands.  The cache is dropped wholesale on
    /// `pop` (retracting assertions can revive a cube).  Scout-side and
    /// deterministic; cached refutations still count toward
    /// [`CubeStats::refuted_by_lookahead`], so verdicts are unchanged.
    pub probe_cache_hits: u64,
}

impl std::ops::AddAssign for CubeStats {
    /// Sums every field.
    fn add_assign(&mut self, rhs: CubeStats) {
        self.splits += rhs.splits;
        self.cubes_solved += rhs.cubes_solved;
        self.refuted_by_lookahead += rhs.refuted_by_lookahead;
        self.probe_cache_hits += rhs.probe_cache_hits;
    }
}

/// Validates that a cube set partitions the assignment space over its split
/// bits: pairwise disjoint and exhaustive.
///
/// Two cubes are disjoint iff they disagree on some shared `(var, bit)`
/// key.  Exhaustiveness is measure-based: over the universe of all distinct
/// keys `D` appearing in the set, a cube of `k` (non-contradictory,
/// non-duplicate) literals covers `2^(|D|−k)` assignments, and the set is
/// exhaustive iff the covered measures sum to `2^|D|` — together with
/// pairwise disjointness that makes the set a partition.  An empty set
/// partitions nothing and returns `false`; a single empty cube is the
/// trivial partition and returns `true`.
///
/// The conquering oracle asserts this for every generated split (the
/// all-UNSAT ⇒ UNSAT step is only sound on a partition); the proptest
/// contract suite in `tests/cube.rs` exercises it adversarially.
pub fn cubes_partition(cubes: &[Vec<CubeBit>]) -> bool {
    if cubes.is_empty() {
        return false;
    }
    // Collect the key universe and reject internally inconsistent cubes
    // (duplicate or contradictory literals break the measure argument).
    let mut keys: Vec<(TermId, u32)> = Vec::new();
    for cube in cubes {
        let mut seen: Vec<(TermId, u32)> = Vec::new();
        for &(var, bit, _) in cube {
            if seen.contains(&(var, bit)) {
                return false;
            }
            seen.push((var, bit));
            if !keys.contains(&(var, bit)) {
                keys.push((var, bit));
            }
        }
    }
    if keys.len() > 63 {
        return false; // measure would overflow; far beyond MAX_CUBE_DEPTH
    }
    // Pairwise disjoint: some shared key carries opposite values.
    for (i, a) in cubes.iter().enumerate() {
        for b in cubes.iter().skip(i + 1) {
            let disjoint = a
                .iter()
                .any(|&(var, bit, value)| b.contains(&(var, bit, !value)));
            if !disjoint {
                return false;
            }
        }
    }
    // Exhaustive: covered measures sum to the whole space.
    let space = 1u64 << keys.len();
    let covered: u64 = cubes
        .iter()
        .map(|cube| 1u64 << (keys.len() - cube.len()))
        .sum();
    covered == space
}

/// Resolves per-cube decisive verdicts into the check's verdict: SAT if any
/// cube is SAT, UNSAT only if *every* cube of a full partition is UNSAT,
/// Unknown otherwise (a budget ran out or a solve was cancelled).  `total`
/// is the number of cubes in the partition; verdict order is irrelevant by
/// construction, which the contract suite pins by permutation.
pub fn resolve_cube_verdicts(verdicts: &[SolverResult], total: usize) -> SolverResult {
    if verdicts.contains(&SolverResult::Sat) {
        return SolverResult::Sat;
    }
    let refuted = verdicts
        .iter()
        .filter(|&&v| v == SolverResult::Unsat)
        .count();
    if refuted == total {
        SolverResult::Unsat
    } else {
        SolverResult::Unknown
    }
}

/// Where the model of the last SAT verdict lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Winner {
    /// A scout probe answered SAT during cube generation.
    Scout,
    /// This conquering worker answered SAT (its cube frame is still pushed
    /// so the model survives until the next mutating call).
    Worker(usize),
}

/// What one conquest recorded for one cube.
#[derive(Debug)]
struct CubeOutcome {
    cube: usize,
    worker: usize,
    result: Result<SolverResult>,
}

/// The cube-and-conquer oracle (see the module docs for the architecture).
///
/// All assertion-stack operations fan out to the scout and every worker;
/// `check` runs the lookahead on the scout, probes candidate cubes, and
/// conquers the survivors on the persistent pool (the dispatch rendezvous
/// completes before `check` returns, so cancellation can cut a conquest
/// short but never leak check-scoped state).
#[derive(Debug)]
pub struct CubeContext {
    /// Split depth: up to `2^depth` cubes per check.
    depth: usize,
    /// Resource limits for full solves (probes use a tightened copy).
    config: SolverConfig,
    /// The lookahead oracle; also the fallback engine when no split bit is
    /// available and the model source for probe-SAT short circuits.
    scout: IncrementalContext,
    /// The conquering oracles, each mirroring the assertion stack.
    workers: Vec<IncrementalContext>,
    /// The persistent conquest threads, created once per oracle.
    pool: WorkerPool<ConquerReturn>,
    /// Cube-level `check` count (one per trait-level query).
    checks: u64,
    /// Live frames (the assertion-stack depth).
    stack_depth: usize,
    /// Projection/tracked variables — the split-bit candidates.
    tracked: Vec<TermId>,
    /// Raw assertions awaiting preprocessing for the workers' shared cache,
    /// tagged with the frame depth they were asserted at.
    to_warm: Vec<(usize, TermId)>,
    /// Shared with in-flight jobs during a dispatch; uniquely held (and
    /// therefore warmable) between checks thanks to the quiesce rendezvous.
    cache: Arc<PreprocessCache>,
    /// Warm-cache hits observed while preprocessing `to_warm` (hash-consed
    /// re-assertions resolve to already-cached term ids); surfaced through
    /// [`OracleStats::preprocess_cache_hits`].
    warm_hits: u64,
    /// Cubes refuted by a probe since the last `pop`: the probe-outcome
    /// cache.  Only UNSAT outcomes are cached (sound because assertions
    /// within a frame only accumulate); cleared wholesale on `pop`.
    probe_unsat: HashSet<Vec<CubeBit>>,
    /// Raised by the first SAT conquest of a check; lowered per check.
    race: InterruptFlag,
    /// External cancellation (the session's token), watched by the scout
    /// and every worker's SAT solver.
    external: Option<InterruptFlag>,
    stats: CubeStats,
    winner: Option<Winner>,
    /// Workers still holding a pushed cube frame (the SAT finishers of the
    /// last check); settled before the next mutating call.
    dangling: Vec<usize>,
    /// Optional live-worker-thread probe for leak tests and service metrics.
    probe: Option<Arc<AtomicUsize>>,
}

impl CubeContext {
    /// A cube-and-conquer oracle splitting to `depth` (clamped to
    /// `1..=`[`MAX_CUBE_DEPTH`]) and conquering on `workers` oracles
    /// (clamped to `1..=`[`MAX_CUBE_WORKERS`]), with default resource
    /// limits.
    pub fn new(depth: usize, workers: usize) -> Self {
        CubeContext::with_config(depth, workers, SolverConfig::default())
    }

    /// As [`CubeContext::new`] with explicit resource limits (probes use a
    /// copy tightened to [`PROBE_CONFLICTS`]).
    pub fn with_config(depth: usize, workers: usize, config: SolverConfig) -> Self {
        let depth = depth.clamp(1, MAX_CUBE_DEPTH);
        let workers = workers.clamp(1, MAX_CUBE_WORKERS);
        let mut ctx = CubeContext {
            depth,
            config,
            scout: IncrementalContext::with_config(config),
            workers: (0..workers)
                .map(|_| IncrementalContext::with_config(config))
                .collect(),
            pool: WorkerPool::new(workers, "pact-cube"),
            checks: 0,
            stack_depth: 0,
            tracked: Vec::new(),
            to_warm: Vec::new(),
            cache: Arc::new(PreprocessCache::new()),
            warm_hits: 0,
            probe_unsat: HashSet::new(),
            race: InterruptFlag::new(),
            external: None,
            stats: CubeStats::default(),
            winner: None,
            dangling: Vec::new(),
            probe: None,
        };
        // The race flag must reach the workers' SAT solvers from the start:
        // first-SAT sibling cancellation may not depend on the caller ever
        // wiring an external interrupt through `set_interrupt`.
        ctx.install_flags();
        ctx
    }

    /// The configured split depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of conquering workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Re-aims the splitter at a new depth (clamped to
    /// `1..=`[`MAX_CUBE_DEPTH`]), taking effect at the next `check`.  The
    /// adaptive policy uses this to deepen splits on hard streaks without
    /// rebuilding the context.
    pub fn set_depth(&mut self, depth: usize) {
        self.depth = depth.clamp(1, MAX_CUBE_DEPTH);
    }

    /// Cube accounting (the `CountStats` feed).
    pub fn cube_stats(&self) -> CubeStats {
        self.stats
    }

    /// Installs a shared counter tracking how many conquest *jobs* are in
    /// flight at any instant (incremented on entry, decremented on exit —
    /// panic included).  Every conquest's dispatch rendezvous completes
    /// before `check` returns, so the probe reads 0 whenever no check is in
    /// flight; the cancellation leak test in `tests/cube.rs` pins exactly
    /// that.  The pool's OS threads persist between checks — their
    /// lifecycle is observable through [`CubeContext::pool_handle`].
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

    /// Pops any cube frame a SAT finisher left pushed (the model's keeper)
    /// and forgets the winner; every mutating trait call starts here.
    fn settle(&mut self) {
        self.winner = None;
        for slot in std::mem::take(&mut self.dangling) {
            self.workers[slot].pop();
        }
    }

    fn install_flags(&mut self) {
        let mut worker_flags = vec![self.race.clone()];
        let mut scout_flags = Vec::new();
        if let Some(external) = &self.external {
            worker_flags.push(external.clone());
            scout_flags.push(external.clone());
        }
        self.scout.set_interrupt_flags(scout_flags);
        for worker in &mut self.workers {
            worker.set_interrupt_flags(worker_flags.clone());
        }
    }

    /// The lookahead pass: brings the scout's encoding up to date, ranks
    /// its SAT variables, and keeps the top `depth` that are bits of
    /// tracked (projection) variables — those are meaningful in every
    /// worker's encoding and partition the projected space.
    fn split_bits(&mut self, tm: &TermManager) -> Result<Vec<(TermId, u32)>> {
        self.scout.prepare_shared(tm, &self.cache)?;
        let mut bit_of_var: HashMap<pact_sat::Var, (TermId, u32)> = HashMap::new();
        for &v in &self.tracked {
            if let Some(bits) = self.scout.encoder().var_bits(tm, v) {
                for (i, lit) in bits.iter().enumerate() {
                    bit_of_var.insert(lit.var(), (v, i as u32));
                }
            }
        }
        let candidates: Vec<pact_sat::Var> = bit_of_var.keys().copied().collect();
        let ranked = self
            .scout
            .encoder_mut()
            .sat()
            .lookahead_candidates_among(&candidates, self.depth);
        Ok(ranked.into_iter().map(|v| bit_of_var[&v]).collect())
    }

    /// Probes one cube on the scout under a small conflict budget.
    ///
    /// Refutations are memoised in the probe-outcome cache: the galloping
    /// search re-derives the same cube prefixes on every repeated check
    /// within a frame, and a cube refuted under the current assertion set
    /// stays refuted once more assertions pile on, so the cached UNSAT can
    /// be replayed without touching the scout.
    fn probe_cube(&mut self, tm: &mut TermManager, cube: &[CubeBit]) -> Result<SolverResult> {
        if self.probe_unsat.contains(cube) {
            self.stats.probe_cache_hits += 1;
            return Ok(SolverResult::Unsat);
        }
        let budget = self
            .config
            .max_conflicts
            .map_or(PROBE_CONFLICTS, |limit| limit.min(PROBE_CONFLICTS));
        self.scout.set_config(SolverConfig {
            max_conflicts: Some(budget),
            ..self.config
        });
        self.scout.push();
        for &(var, bit, value) in cube {
            self.scout.assert_xor_bits(vec![(var, bit)], value);
        }
        let result = self.scout.check(tm);
        self.scout.pop();
        self.scout.set_config(self.config);
        if matches!(result, Ok(SolverResult::Unsat)) {
            self.probe_unsat.insert(cube.to_vec());
        }
        result
    }

    /// Generates the cube tree over `bits` with probe-based pruning.
    /// Returns `Ok(Err(Sat))`-style short circuits as `Generated::Sat`.
    fn generate_cubes(
        &mut self,
        tm: &mut TermManager,
        bits: &[(TermId, u32)],
    ) -> Result<Generated> {
        let mut frontier: Vec<Vec<CubeBit>> = vec![Vec::new()];
        let mut refuted: Vec<Vec<CubeBit>> = Vec::new();
        for &(var, bit) in bits {
            let mut next = Vec::new();
            for cube in std::mem::take(&mut frontier) {
                for value in [false, true] {
                    let mut candidate = cube.clone();
                    candidate.push((var, bit, value));
                    match self.probe_cube(tm, &candidate)? {
                        SolverResult::Sat => {
                            // Dynamic cutoff, the happy side: the probe
                            // found a model; the whole check is answered
                            // and the scout holds the witness.
                            self.stats.cubes_solved += 1;
                            return Ok(Generated::Sat);
                        }
                        SolverResult::Unsat => {
                            self.stats.cubes_solved += 1;
                            self.stats.refuted_by_lookahead += 1;
                            refuted.push(candidate);
                        }
                        SolverResult::Unknown => next.push(candidate),
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        // The all-UNSAT ⇒ UNSAT step below (and in the conquest) is only
        // sound over a partition; validate rather than assume it.
        let mut all = refuted;
        all.extend(frontier.iter().cloned());
        assert!(
            cubes_partition(&all),
            "generated cube set does not partition the split space"
        );
        Ok(Generated::Frontier(frontier))
    }

    /// Conquers the surviving cubes on the persistent worker pool and
    /// resolves the check's verdict (and winner).
    fn conquer(
        &mut self,
        tm: &mut TermManager,
        frontier: Vec<Vec<CubeBit>>,
    ) -> Result<SolverResult> {
        let threads = self.workers.len().min(frontier.len());
        let total = frontier.len();
        // Ownership transfer into the pool: the term manager and the cube
        // queue move behind `Arc`s for the duration of the dispatch, and
        // the first `threads` workers ride into the jobs and back out
        // through the results.
        let shared_tm = Arc::new(std::mem::replace(tm, TermManager::new()));
        let cubes = Arc::new(frontier);
        let next = Arc::new(AtomicUsize::new(0));
        let tail = self.workers.split_off(threads);
        let moved = std::mem::take(&mut self.workers);
        let jobs: Vec<Job<ConquerReturn>> = moved
            .into_iter()
            .enumerate()
            .map(|(slot, mut worker)| {
                let tm = Arc::clone(&shared_tm);
                let cache = Arc::clone(&self.cache);
                let cubes = Arc::clone(&cubes);
                let next = Arc::clone(&next);
                let race = self.race.clone();
                let probe = self.probe.clone();
                Box::new(move || {
                    let _guard = probe.map(LiveGuard::enter);
                    let mut outcomes = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= cubes.len() || race.is_set() {
                            break;
                        }
                        worker.push();
                        for &(var, bit, value) in &cubes[i] {
                            worker.assert_xor_bits(vec![(var, bit)], value);
                        }
                        let result = worker.check_shared(&tm, &cache);
                        let sat = matches!(result, Ok(SolverResult::Sat));
                        if sat {
                            // Keep the frame pushed: the model must
                            // survive until the next mutating call.
                            race.set();
                        } else {
                            worker.pop();
                        }
                        outcomes.push(CubeOutcome {
                            cube: i,
                            worker: slot,
                            result,
                        });
                        if sat {
                            break;
                        }
                    }
                    (slot, worker, outcomes)
                }) as Job<ConquerReturn>
            })
            .collect();
        let conquered = self.pool.dispatch(jobs);
        let mut returned: Vec<Option<IncrementalContext>> = (0..threads).map(|_| None).collect();
        let mut outcomes: Vec<CubeOutcome> = Vec::new();
        for (slot, worker, mut collected) in conquered {
            returned[slot] = Some(worker);
            outcomes.append(&mut collected);
        }
        self.workers = returned
            .into_iter()
            .map(|w| w.expect("every dispatched worker returns through the rendezvous"))
            .collect();
        self.workers.extend(tail);
        // The rendezvous guarantees every job's `Arc` clone is dead.
        *tm = match Arc::try_unwrap(shared_tm) {
            Ok(owned) => owned,
            Err(_) => unreachable!("pool quiesced before check returns"),
        };

        // Every SAT finisher still holds its cube frame; the lowest cube
        // index is the canonical winner, the rest are settled right away.
        let mut sat_finishers: Vec<(usize, usize)> = outcomes
            .iter()
            .filter(|o| matches!(o.result, Ok(SolverResult::Sat)))
            .map(|o| (o.cube, o.worker))
            .collect();
        sat_finishers.sort_unstable();
        if let Some(&(_, canonical)) = sat_finishers.first() {
            for &(_, worker) in &sat_finishers[1..] {
                self.workers[worker].pop();
            }
            self.stats.cubes_solved += sat_finishers.len() as u64;
            self.stats.cubes_solved += outcomes
                .iter()
                .filter(|o| matches!(o.result, Ok(SolverResult::Unsat)))
                .count() as u64;
            self.winner = Some(Winner::Worker(canonical));
            self.dangling.push(canonical);
            return Ok(SolverResult::Sat);
        }

        // No SAT: surface the lowest-cube-index error, else resolve the
        // decisive verdicts against the full frontier.
        let mut errors: Vec<&CubeOutcome> = outcomes.iter().filter(|o| o.result.is_err()).collect();
        errors.sort_unstable_by_key(|o| o.cube);
        if let Some(o) = errors.first() {
            return Err(o.result.as_ref().expect_err("filtered on errors").clone());
        }
        let verdicts: Vec<SolverResult> = outcomes
            .iter()
            .map(|o| *o.result.as_ref().expect("errors handled above"))
            .collect();
        self.stats.cubes_solved += verdicts
            .iter()
            .filter(|&&v| v == SolverResult::Unsat)
            .count() as u64;
        Ok(resolve_cube_verdicts(&verdicts, total))
    }
}

/// Outcome of the cube-generation pass.
enum Generated {
    /// A probe answered SAT; the scout holds the model.
    Sat,
    /// The unresolved cubes to conquer (possibly empty: every cube was
    /// refuted by the lookahead, so the check is UNSAT).
    Frontier(Vec<Vec<CubeBit>>),
}

impl Oracle for CubeContext {
    fn push(&mut self) {
        self.settle();
        self.stack_depth += 1;
        self.scout.push();
        for worker in &mut self.workers {
            worker.push();
        }
    }

    fn pop(&mut self) {
        assert!(self.stack_depth > 0, "pop without matching push");
        self.settle();
        self.to_warm.retain(|&(depth, _)| depth < self.stack_depth);
        // Retracting assertions can revive a refuted cube, so the
        // probe-outcome cache (sound only while assertions accumulate)
        // is dropped wholesale.
        self.probe_unsat.clear();
        self.stack_depth -= 1;
        self.scout.pop();
        for worker in &mut self.workers {
            worker.pop();
        }
    }

    fn assert_term(&mut self, t: TermId) {
        self.settle();
        self.to_warm.push((self.stack_depth, t));
        self.scout.assert_term(t);
        for worker in &mut self.workers {
            worker.assert_term(t);
        }
    }

    fn assert_xor_bits(&mut self, bits: Vec<(TermId, u32)>, rhs: bool) {
        self.settle();
        self.scout.assert_xor_bits(bits.clone(), rhs);
        for worker in &mut self.workers {
            worker.assert_xor_bits(bits.clone(), rhs);
        }
    }

    fn block_model(&mut self, tm: &mut TermManager, projection: &[TermId], model: &[BvValue]) {
        match blocking_pairs(tm, projection, model) {
            Some(pairs) => {
                self.settle();
                for worker in &mut self.workers {
                    worker.block_pairs(pairs.clone());
                }
                self.scout.block_pairs(pairs);
            }
            None => block_model_by_terms(self, tm, projection, model),
        }
    }

    fn track_var(&mut self, var: TermId) {
        self.settle();
        if !self.tracked.contains(&var) {
            self.tracked.push(var);
        }
        self.scout.track_var(var);
        for worker in &mut self.workers {
            worker.track_var(var);
        }
    }

    fn check(&mut self, tm: &mut TermManager) -> Result<SolverResult> {
        self.settle();
        self.checks += 1;
        self.race.clear();
        if self.external.as_ref().is_some_and(InterruptFlag::is_set) {
            // Cancelled before any work: answer like an interrupted solve.
            return Ok(SolverResult::Unknown);
        }
        let cache = Arc::get_mut(&mut self.cache)
            .expect("cache uniquely held between checks (pool quiesced)");
        warm_preprocess_cache(&mut self.to_warm, cache, tm, &mut self.warm_hits)?;
        let bits = self.split_bits(tm)?;
        if bits.is_empty() {
            // Nothing to split on (no free projection bit): plain solve.
            // The scout's pendings were all encoded by the lookahead's
            // `prepare_shared`, so the shared view never misses the cache.
            let verdict = self.scout.check_shared(tm, &self.cache)?;
            if verdict == SolverResult::Sat {
                self.winner = Some(Winner::Scout);
            }
            return Ok(verdict);
        }
        self.stats.splits += 1;
        match self.generate_cubes(tm, &bits)? {
            Generated::Sat => {
                self.winner = Some(Winner::Scout);
                Ok(SolverResult::Sat)
            }
            Generated::Frontier(frontier) => {
                if frontier.is_empty() {
                    // Every cube of the validated partition was refuted.
                    return Ok(SolverResult::Unsat);
                }
                self.conquer(tm, frontier)
            }
        }
    }

    fn model_value(&self, tm: &TermManager, var: TermId) -> Option<Value> {
        match self.winner? {
            Winner::Scout => self.scout.model_value(tm, var),
            Winner::Worker(slot) => self.workers[slot].model_value(tm, var),
        }
    }

    fn projected_model(&self, tm: &TermManager, projection: &[TermId]) -> Option<Vec<BvValue>> {
        match self.winner? {
            Winner::Scout => self.scout.projected_model(tm, projection),
            Winner::Worker(slot) => self.workers[slot].projected_model(tm, projection),
        }
    }

    fn stats(&self) -> OracleStats {
        // The work fields sum the scout's probes and every worker's
        // conquests, so nothing a cancelled sibling spent is dropped;
        // `checks` counts cube-level queries (comparable across backends)
        // and `pool_reuses` the pool's batches.
        let mut stats = OracleStats::default();
        for ctx in std::iter::once(&self.scout).chain(&self.workers) {
            stats += ctx.stats();
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

    fn cube(&self) -> Option<CubeStats> {
        Some(self.cube_stats())
    }
}

// The conquest shares `&TermManager` and `&PreprocessCache` across scoped
// worker threads; pin the auto traits where they are relied on.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_sync::<TermManager>();
    assert_sync::<PreprocessCache>();
    assert_send::<CubeContext>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use pact_ir::Sort;

    fn lt(tm: &mut TermManager, x: TermId, bound: u128, width: u32) -> TermId {
        let c = tm.mk_bv_const(bound, width);
        tm.mk_bv_ult(x, c).unwrap()
    }

    #[test]
    fn cube_oracle_answers_like_a_single_backend() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let f = lt(&mut tm, x, 40, 6);
        let mut ctx = CubeContext::new(3, 2);
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
        assert!(ctx.cube_stats().splits >= 1);
    }

    #[test]
    fn enumeration_with_blocking_matches_the_reference() {
        // x < 5 over 4 bits enumerated to exhaustion: whatever cube
        // witnesses each SAT, exactly the 5 models must surface.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let f = lt(&mut tm, x, 5, 4);
        let mut ctx = CubeContext::new(2, 2);
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
        // The backend never rebuilds: scout and workers are all
        // activation-literal oracles.
        assert_eq!(ctx.stats().rebuilds, 0);
    }

    #[test]
    fn xor_rows_reach_scout_and_workers() {
        // Odd parity over 3 bits inside a frame: 4 of 8 values; popping the
        // frame must restore all 8 in every engine.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(3));
        let mut ctx = CubeContext::new(2, 2);
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
        ctx.pop();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
    }

    #[test]
    fn lookahead_refutes_cubes_on_an_unsat_side() {
        // x < 4 over 6 bits: the top bits are forced to zero, so cubes that
        // set a split bit the wrong way die in the probe.  Run enough
        // blocked checks that some cube is refuted by lookahead.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let f = lt(&mut tm, x, 4, 6);
        let mut ctx = CubeContext::new(3, 2);
        ctx.track_var(x);
        ctx.assert_term(f);
        let mut models = 0;
        while ctx.check(&mut tm).unwrap() == SolverResult::Sat {
            let v = ctx.model_value(&tm, x).unwrap().as_bv().unwrap();
            models += 1;
            assert!(models <= 4);
            let c = tm.mk_bv_value(v);
            let eq = tm.mk_eq(x, c);
            let block = tm.mk_not(eq);
            ctx.assert_term(block);
        }
        assert_eq!(models, 4);
        let stats = ctx.cube_stats();
        assert!(stats.splits >= 1);
        assert!(stats.cubes_solved >= stats.refuted_by_lookahead);
    }

    #[test]
    fn probe_outcome_cache_replays_refutations_on_repeated_checks() {
        // x < 4 and x > 10 is unsatisfiable, so every probed cube is
        // refuted.  Re-checking the unchanged frame regenerates the same
        // cubes; within a handful of checks the galloping search must start
        // answering probes from the cache — with every verdict still Unsat.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let lo = lt(&mut tm, x, 4, 6);
        let c = tm.mk_bv_const(10, 6);
        let hi = tm.mk_bv_ult(c, x).unwrap();
        let mut ctx = CubeContext::new(3, 2);
        ctx.track_var(x);
        ctx.assert_term(lo);
        ctx.assert_term(hi);
        for _ in 0..8 {
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unsat);
            if ctx.cube_stats().probe_cache_hits > 0 {
                break;
            }
        }
        let stats = ctx.cube_stats();
        assert!(
            stats.probe_cache_hits > 0,
            "repeated checks never hit the probe cache"
        );
        // Cached refutations still count toward the lookahead totals, so
        // downstream accounting is unchanged.
        assert!(stats.refuted_by_lookahead >= stats.probe_cache_hits);
    }

    #[test]
    fn pop_clears_the_probe_cache_so_cubes_can_revive() {
        // Cubes refuted inside a frame may become satisfiable once the
        // frame's assertions are retracted; a stale cache entry would turn
        // the post-pop check falsely Unsat.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let lo = lt(&mut tm, x, 4, 6);
        let mut ctx = CubeContext::new(3, 2);
        ctx.track_var(x);
        ctx.assert_term(lo);
        ctx.push();
        let c = tm.mk_bv_const(10, 6);
        let hi = tm.mk_bv_ult(c, x).unwrap();
        ctx.assert_term(hi);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unsat);
        ctx.pop();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
    }

    #[test]
    fn external_interrupt_turns_checks_unknown() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let f = lt(&mut tm, x, 40, 6);
        let mut ctx = CubeContext::new(2, 2);
        ctx.track_var(x);
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
        // Conflict-heavy enough that probes stay Unknown and the conquest
        // threads actually spawn.
        let x = tm.mk_var("x", Sort::BitVec(10));
        let y = tm.mk_var("y", Sort::BitVec(10));
        let prod = tm.mk_bv_mul(x, y).unwrap();
        let c = tm.mk_bv_const(851, 10);
        let f = tm.mk_eq(prod, c);
        let mut ctx = CubeContext::new(2, 2);
        ctx.set_worker_probe(Arc::clone(&probe));
        ctx.track_var(x);
        ctx.assert_term(f);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(probe.load(Ordering::SeqCst), 0, "worker thread leaked");
    }

    #[test]
    fn pool_threads_are_constant_across_checks_and_drain_on_drop() {
        // The persistent-runtime contract for the conquest pool: threads
        // are created once at construction, conquests are batches served by
        // the same pool, and dropping the oracle joins them.  A conflict
        // budget of 1 makes every lookahead probe exhaust its budget
        // (Unknown), so every check deterministically reaches the conquest
        // dispatch instead of depending on how hard the instance happens to
        // be for the probes.  Pigeonhole (6 values in [0, 5), pairwise
        // distinct) is UNSAT but needs real search to refute, so with budget
        // 1 neither a probe nor a conquest sub-solve can reach a verdict.
        let mut tm = TermManager::new();
        let holes: Vec<TermId> = (0..6)
            .map(|i| tm.mk_var(&format!("p{i}"), Sort::BitVec(3)))
            .collect();
        let five = tm.mk_bv_const(5, 3);
        let config = SolverConfig {
            max_conflicts: Some(1),
            ..SolverConfig::default()
        };
        let mut ctx = CubeContext::with_config(2, 2, config);
        for (i, &p) in holes.iter().enumerate() {
            let bound = tm.mk_bv_ult(p, five).unwrap();
            ctx.assert_term(bound);
            for &q in &holes[i + 1..] {
                let eq = tm.mk_eq(p, q);
                let distinct = tm.mk_not(eq);
                ctx.assert_term(distinct);
            }
        }
        ctx.track_var(holes[0]);
        let handle = ctx.pool_handle();
        assert_eq!(handle.threads_spawned(), 2);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unknown);
        let first = ctx.stats().pool_reuses;
        assert!(first >= 1, "conquest bypassed the pool");
        for _ in 0..10 {
            ctx.push();
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unknown);
            ctx.pop();
        }
        assert!(
            ctx.stats().pool_reuses > first,
            "later conquests bypassed the pool"
        );
        assert_eq!(handle.threads_spawned(), 2, "a check spawned a thread");
        assert_eq!(handle.live_threads(), 2);
        drop(ctx);
        assert_eq!(handle.live_threads(), 0, "pool thread outlived its oracle");
    }

    #[test]
    fn cancellation_mid_check_leaves_the_pool_reusable() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let f = lt(&mut tm, x, 40, 6);
        let mut ctx = CubeContext::new(2, 2);
        ctx.track_var(x);
        ctx.assert_term(f);
        let handle = ctx.pool_handle();
        let flag = InterruptFlag::new();
        Oracle::set_interrupt(&mut ctx, flag.clone());
        flag.set();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unknown);
        flag.clear();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(handle.threads_spawned(), 2);
        assert_eq!(handle.live_threads(), 2);
    }

    #[test]
    fn popping_an_unchecked_failing_frame_recovers() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let f = lt(&mut tm, x, 5, 4);
        let r = tm.mk_var("r", Sort::Real);
        let rr = tm.mk_real_mul(r, r).unwrap(); // non-linear: unsupported
        let one = tm.mk_real_const(pact_ir::Rational::ONE);
        let bad = tm.mk_real_lt(rr, one).unwrap();
        let mut ctx = CubeContext::new(2, 2);
        ctx.track_var(x);
        ctx.assert_term(f);
        ctx.push();
        ctx.assert_term(bad);
        assert!(ctx.check(&mut tm).is_err());
        assert!(ctx.check(&mut tm).is_err());
        ctx.pop();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
    }

    #[test]
    fn partition_validator_accepts_trees_and_rejects_holes() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let y = tm.mk_var("y", Sort::BitVec(4));
        // A full depth-2 split partitions.
        let full: Vec<Vec<CubeBit>> = vec![
            vec![(x, 0, false), (y, 1, false)],
            vec![(x, 0, false), (y, 1, true)],
            vec![(x, 0, true), (y, 1, false)],
            vec![(x, 0, true), (y, 1, true)],
        ];
        assert!(cubes_partition(&full));
        // An uneven tree (one branch split deeper) still partitions.
        let tree: Vec<Vec<CubeBit>> = vec![
            vec![(x, 0, false)],
            vec![(x, 0, true), (y, 1, false)],
            vec![(x, 0, true), (y, 1, true)],
        ];
        assert!(cubes_partition(&tree));
        // Dropping a leaf leaves a hole.
        assert!(!cubes_partition(&tree[..2]));
        // Overlapping cubes are rejected.
        let overlap: Vec<Vec<CubeBit>> =
            vec![vec![(x, 0, false)], vec![(x, 0, false)], vec![(x, 0, true)]];
        assert!(!cubes_partition(&overlap));
        // A contradictory cube is rejected.
        let contradictory: Vec<Vec<CubeBit>> = vec![vec![(x, 0, false), (x, 0, true)]];
        assert!(!cubes_partition(&contradictory));
        // The trivial partition (one empty cube) is accepted; the empty set
        // is not.
        assert!(cubes_partition(&[Vec::new()]));
        assert!(!cubes_partition(&[]));
    }

    #[test]
    fn verdict_resolution_is_order_independent() {
        use SolverResult::{Sat, Unknown, Unsat};
        assert_eq!(resolve_cube_verdicts(&[Unsat, Sat, Unknown], 3), Sat);
        assert_eq!(resolve_cube_verdicts(&[Unknown, Sat, Unsat], 3), Sat);
        assert_eq!(resolve_cube_verdicts(&[Unsat, Unsat, Unsat], 3), Unsat);
        // A missing verdict (cancelled cube) blocks the UNSAT conclusion.
        assert_eq!(resolve_cube_verdicts(&[Unsat, Unsat], 3), Unknown);
        assert_eq!(resolve_cube_verdicts(&[Unknown, Unsat], 2), Unknown);
        assert_eq!(resolve_cube_verdicts(&[], 1), Unknown);
    }

    #[test]
    #[should_panic(expected = "pop without matching push")]
    fn unbalanced_pop_panics() {
        let mut ctx = CubeContext::new(2, 2);
        ctx.pop();
    }
}
