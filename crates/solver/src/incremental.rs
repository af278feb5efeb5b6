//! `IncrementalContext`: the single-engine SMT oracle — an assertion stack
//! with push/pop, `check` and model extraction, in the style of the SMT-LIB
//! command set.
//!
//! The discrete part is bit-blasted eagerly into a CDCL solver with native
//! XOR rows, and real/float atoms are refined lazily against a simplex core
//! (DPLL(T)).  The counting loop is thousands of tiny `push` / assert-hash /
//! `check` / `pop` cycles, so the encoder survives `pop`: every `push`
//! allocates a fresh *activation literal* `a`; frame assertions are encoded
//! guarded (`¬a ∨ clause`), `check` solves under the assumptions of all live
//! activation literals, and `pop` retires a frame by asserting the unit
//! `¬a`.  Retired clauses are permanently satisfied, while the encoder — and
//! everything the CDCL solver learnt — stays.
//!
//! Native XOR rows (the `H_xor` fast path) cannot be guarded clause-wise, so
//! the guard is folded in on the CNF side: each guarded row gets a fresh
//! *slack* bit appended (`⊕ bits ⊕ s = rhs`) together with the clause
//! `¬a ∨ ¬s`.  While the frame is live, `a` forces `s = 0` and the row is
//! exactly the hash constraint; after `pop`, the free slack absorbs any
//! parity and the row is inert.
//!
//! Retired frames leave permanently satisfied clauses behind, so a very
//! long-lived context grows monotonically.  The context bounds that growth
//! with *frame-garbage compaction*: every encoded assertion is journalled by
//! its frame's stable id, `pop` counts the journal entries it retires, and
//! once the retired count crosses a threshold (and outweighs the live
//! journal) the next `check` re-encodes only the live frames into a fresh
//! solver, counted by [`OracleStats::compactions`] /
//! [`OracleStats::dead_clauses_reclaimed`].
//!
//! # Rebuild mode
//!
//! [`IncrementalContext::rebuilding`] builds the same context in *rebuild
//! mode*, the `rebuild` backend: every `pop` that retires encoded assertions
//! arms the compaction for the next `check`, with no threshold and no
//! live/dead ratio test.  That check re-encodes the live frames into a fresh
//! solver and so throws away the learnt clauses and branching activities —
//! the work profile of an oracle that rebuilds its encoder on every `pop`.
//! [`OracleStats::rebuilds`] counts the `pop`s that arm such a re-encode
//! (further `pop`s before the next check add nothing); in the default mode
//! `rebuilds` stays 0.
//!
//! ```
//! use pact_ir::{TermManager, Sort};
//! use pact_solver::{IncrementalContext, SolverConfig, SolverResult};
//!
//! let mut tm = TermManager::new();
//! let x = tm.mk_var("x", Sort::BitVec(4));
//! let three = tm.mk_bv_const(3, 4);
//! let f = tm.mk_bv_ult(x, three).unwrap();
//! let zero = tm.mk_bv_const(0, 4);
//! let g = tm.mk_bv_ult(x, zero).unwrap();
//! for (mut ctx, rebuilds) in [
//!     (IncrementalContext::new(), 0),
//!     (IncrementalContext::rebuilding(SolverConfig::default()), 1),
//! ] {
//!     ctx.assert_term(f);
//!     assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
//!     ctx.push();
//!     ctx.assert_term(g);
//!     assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unsat);
//!     ctx.pop();
//!     assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
//!     assert_eq!(ctx.stats().rebuilds, rebuilds);
//! }
//! ```

use pact_ir::{BvValue, Rational, TermId, TermManager, Value};
use pact_sat::{InterruptFlag, Lit, SatOptions};

use crate::bitblast::Encoder;
use crate::context::{
    encode_assertion, Assertion, OracleStats, PreprocessCache, SolverConfig, SolverResult, TmView,
};
use crate::dpllt::solve_with_theory;
use crate::error::Result;
use crate::model;
use crate::oracle::{block_model_by_terms, blocking_pairs};
use crate::portfolio::WorkerProfile;

/// One live assertion-stack frame.
#[derive(Debug)]
struct Frame {
    /// Stable identity of the frame (pending and journal entries are keyed
    /// by it, so a compaction can re-allocate activation literals without
    /// retagging them).
    id: u64,
    /// The frame's activation literal (assumed by `check`, retired by `pop`).
    activation: Lit,
    /// Engine ids of the XOR rows this frame asserted, retired with it.
    xor_rows: Vec<usize>,
}

/// Default minimum number of retired guarded assertions before a compaction
/// is considered (see [`IncrementalContext::set_compaction_threshold`]).
const DEFAULT_COMPACTION_MIN_DEAD: u64 = 64;

/// The single-engine SMT oracle (see the module docs).
///
/// Assertions made outside any frame are permanent and encoded unguarded.
/// Assertions inside a frame are guarded by the frame's activation literal;
/// `check` assumes every live activation literal and `pop` retires the
/// frame.  Retired frames leave their (permanently satisfied) clauses and
/// neutralised XOR rows in the solver, so frame-garbage compaction
/// re-encodes the live frames into a fresh solver once enough retired
/// clauses accumulate (see [`IncrementalContext::set_compaction_threshold`])
/// — or, in rebuild mode ([`IncrementalContext::rebuilding`]), after every
/// `pop` that retired encoded assertions.
#[derive(Debug)]
pub struct IncrementalContext {
    config: SolverConfig,
    stats: OracleStats,
    /// Variables whose bits must always exist (projection variables).
    tracked_vars: Vec<TermId>,
    encoder: Encoder,
    /// SAT-level diversification the encoder was built with; a compaction's
    /// replacement encoder must search identically, so the options are kept.
    sat_options: SatOptions,
    /// Interrupt flags watched by the solver; re-installed on the fresh
    /// encoder after a compaction so cancellation survives it.
    interrupts: Vec<InterruptFlag>,
    /// Live frames, outermost first.
    frames: Vec<Frame>,
    /// Next value of [`Frame::id`]; never reused.
    next_frame_id: u64,
    /// Assertions awaiting encoding at the next `check`, keyed by the id of
    /// the frame they belong to (`None` for the permanent base level).
    pending: Vec<(Option<u64>, Assertion)>,
    /// Journal of every assertion already in the solver, keyed by frame id:
    /// the replay source for compaction.  `pop` drops a dying frame's
    /// entries and adds them to `dead_entries`.
    encoded: Vec<(Option<u64>, Assertion)>,
    /// Journal entries retired by `pop` since the last compaction.
    dead_entries: u64,
    /// Minimum `dead_entries` before a compaction is considered.
    compaction_min_dead: u64,
    /// Conflicts accumulated by encoders that compaction discarded.
    retired_conflicts: u64,
    /// Rebuild mode: any retired journal entry arms the compaction, and the
    /// `pop` that arms it counts a rebuild.
    rebuild: bool,
    /// Simplex witness (indexed by LRA variable) from the last SAT check.
    real_model_values: Vec<Rational>,
    /// Reused buffer: the live frames' activation literals, which every
    /// `check` solves under.
    assumptions: Vec<Lit>,
    /// Term-id-keyed preprocessing memo; never invalidated (term ids are
    /// immutable for the manager lineage), so compaction journal replays
    /// re-encode from it instead of re-running preprocessing.
    preprocess_cache: PreprocessCache,
}

impl Default for IncrementalContext {
    fn default() -> Self {
        IncrementalContext {
            config: SolverConfig::default(),
            stats: OracleStats::default(),
            tracked_vars: Vec::new(),
            encoder: Encoder::default(),
            sat_options: SatOptions::default(),
            interrupts: Vec::new(),
            frames: Vec::new(),
            next_frame_id: 0,
            pending: Vec::new(),
            encoded: Vec::new(),
            dead_entries: 0,
            compaction_min_dead: DEFAULT_COMPACTION_MIN_DEAD,
            retired_conflicts: 0,
            rebuild: false,
            real_model_values: Vec::new(),
            assumptions: Vec::new(),
            preprocess_cache: PreprocessCache::default(),
        }
    }
}

impl IncrementalContext {
    /// Creates an oracle with default limits.
    pub fn new() -> Self {
        IncrementalContext::default()
    }

    /// Creates an oracle with the given resource limits.
    pub fn with_config(config: SolverConfig) -> Self {
        IncrementalContext {
            config,
            ..IncrementalContext::default()
        }
    }

    /// Creates an oracle in rebuild mode (the `rebuild` backend): every
    /// `pop` that retires encoded assertions makes the next `check`
    /// re-encode the live frames into a fresh solver, and counts one
    /// [`OracleStats::rebuilds`] unless a re-encode was already armed.
    pub fn rebuilding(config: SolverConfig) -> Self {
        IncrementalContext {
            config,
            rebuild: true,
            ..IncrementalContext::default()
        }
    }

    /// Creates a portfolio worker: the profile's context mode and SAT-level
    /// diversification options, with the given resource limits.
    pub(crate) fn for_worker(config: SolverConfig, profile: &WorkerProfile) -> Self {
        IncrementalContext {
            config,
            encoder: Encoder::with_options(profile.sat),
            sat_options: profile.sat,
            rebuild: !profile.incremental,
            ..IncrementalContext::default()
        }
    }

    /// Replaces the interrupt flags watched by the underlying SAT solver;
    /// an empty list removes them.  The flags are retained so a compaction
    /// can re-install them on its fresh encoder.
    pub(crate) fn set_interrupt_flags(&mut self, flags: Vec<InterruptFlag>) {
        self.interrupts = flags.clone();
        self.encoder.sat().set_interrupts(flags);
    }

    /// Cumulative statistics.  `rebuilds` counts rebuild mode's arming
    /// `pop`s and is 0 in the default mode, whose compactions are counted
    /// separately.
    pub fn stats(&self) -> OracleStats {
        let mut stats = self.stats;
        stats.conflicts = self.retired_conflicts + self.encoder.sat_stats().conflicts;
        stats
    }

    /// Sets the minimum number of retired guarded assertions that arms
    /// frame-garbage compaction (default 64).  Compaction triggers at the
    /// start of a `check` once at least `min_dead` journal entries have been
    /// retired by `pop` *and* the dead entries outnumber the live journal —
    /// the re-encode then provably at least halves the clause database.
    /// Rebuild mode ignores the threshold.
    pub fn set_compaction_threshold(&mut self, min_dead: usize) {
        self.compaction_min_dead = min_dead as u64;
    }

    /// Changes the resource limits for subsequent checks.
    pub fn set_config(&mut self, config: SolverConfig) {
        self.config = config;
    }

    /// Pushes a new assertion-stack frame by allocating its activation
    /// literal.
    pub fn push(&mut self) {
        let activation = self.encoder.sat().new_var().positive();
        let id = self.next_frame_id;
        self.next_frame_id += 1;
        self.frames.push(Frame {
            id,
            activation,
            xor_rows: Vec::new(),
        });
    }

    /// Pops the most recent frame by retiring its activation literal: the
    /// unit `¬a` permanently satisfies every clause the frame guarded and
    /// frees the slack bit of every guarded XOR row.  The encoder — and all
    /// learnt clauses — survive.
    ///
    /// # Panics
    ///
    /// Panics if there is no frame to pop (see the [`Oracle`](crate::Oracle)
    /// contract).
    pub fn pop(&mut self) {
        let frame = self.frames.pop().expect("pop without matching push");
        // Un-encoded assertions of the dying frame will never be needed.
        self.pending.retain(|(guard, _)| *guard != Some(frame.id));
        // Already-encoded assertions leave permanently satisfied garbage in
        // the solver: drop them from the replay journal and count them, so
        // compaction knows how much a re-encode would reclaim.
        let before = self.encoded.len();
        self.encoded.retain(|(guard, _)| *guard != Some(frame.id));
        let retired = (before - self.encoded.len()) as u64;
        // Rebuild mode counts the rebuild where the first garbage arms it:
        // one re-encode at the next check serves every pop until then.
        if self.rebuild && retired > 0 && self.dead_entries == 0 {
            self.stats.rebuilds += 1;
        }
        self.dead_entries += retired;
        // `a` only ever occurs negatively in guard clauses, so the unit can
        // never conflict; `add_clause` returning `false` would mean the
        // formula was already unsat at level zero.
        self.encoder.sat().add_clause(&[!frame.activation]);
        // Retire the frame's XOR rows outright: their slack bits already
        // neutralise them logically, but deactivation also stops the engine
        // spending propagation work on them in every later solve.
        for row in frame.xor_rows {
            self.encoder.sat().deactivate_xor(row);
        }
    }

    /// The innermost live frame's id, if any.
    fn current_guard(&self) -> Option<u64> {
        self.frames.last().map(|f| f.id)
    }

    /// Compacts when enough frame garbage has accumulated: at least the
    /// configured minimum, and more dead journal entries than live ones.
    /// In rebuild mode any garbage at all is enough.
    fn maybe_compact(&mut self) {
        let armed = if self.rebuild {
            self.dead_entries > 0
        } else {
            self.dead_entries >= self.compaction_min_dead
                && self.dead_entries >= self.encoded.len() as u64
        };
        if armed {
            self.compact();
        }
    }

    /// Replaces the encoder with a fresh one and queues every live journal
    /// entry for re-encoding, shedding all clauses owned by retired frames.
    /// Learnt clauses are lost too — that is the price of the reclaim, which
    /// is why compaction only fires when garbage dominates (outside rebuild
    /// mode, whose point is to pay that price on every `pop`).
    fn compact(&mut self) {
        // Bank the dying encoder's conflict count so `stats()` stays
        // cumulative across the swap.
        self.retired_conflicts += self.encoder.sat_stats().conflicts;
        self.encoder = Encoder::with_options(self.sat_options);
        self.encoder.sat().set_interrupts(self.interrupts.clone());
        // Live frames get fresh activation literals in the new solver; their
        // XOR rows died with the old engine and will be re-added by replay.
        for frame in &mut self.frames {
            frame.activation = self.encoder.sat().new_var().positive();
            frame.xor_rows.clear();
        }
        // Replay journal first, then whatever was already pending, so the
        // encode order (and thus the encoding) matches assertion order.
        let mut requeued = std::mem::take(&mut self.encoded);
        requeued.append(&mut self.pending);
        self.pending = requeued;
        if !self.rebuild {
            self.stats.compactions += 1;
            self.stats.dead_clauses_reclaimed += self.dead_entries;
        }
        self.dead_entries = 0;
    }

    /// Asserts a boolean term in the current frame.
    pub fn assert_term(&mut self, t: TermId) {
        self.pending
            .push((self.current_guard(), Assertion::Term(t)));
    }

    /// Asserts a native XOR constraint over individual bits of discrete
    /// variables: `⊕ bit ⊕ ... = rhs` (the `H_xor` fast path).
    pub fn assert_xor_bits(&mut self, bits: Vec<(TermId, u32)>, rhs: bool) {
        self.pending
            .push((self.current_guard(), Assertion::XorBits(bits, rhs)));
    }

    /// Blocks a projected model in the current frame (see
    /// [`Oracle::block_model`](crate::Oracle::block_model)): boolean and
    /// bit-vector projections are queued as one guarded clause over their
    /// bits, journalled like any other assertion so compaction replays it;
    /// anything else falls back to
    /// [`block_model_by_terms`](crate::block_model_by_terms).
    pub fn block_model(&mut self, tm: &mut TermManager, projection: &[TermId], model: &[BvValue]) {
        match blocking_pairs(tm, projection, model) {
            Some(pairs) => self.block_pairs(pairs),
            None => block_model_by_terms(self, tm, projection, model),
        }
    }

    /// Queues an already-validated blocked model in the current frame (a
    /// parallel backend's share of [`IncrementalContext::block_model`]).
    pub(crate) fn block_pairs(&mut self, pairs: Vec<(TermId, BvValue)>) {
        self.pending
            .push((self.current_guard(), Assertion::Block(pairs)));
    }

    /// Declares a variable whose bits must exist in every encoding, even if
    /// it never occurs in an assertion (used for projection variables so the
    /// model and the hash constraints range over their full domain).  The
    /// bits are appended at the next `check`; the encoder is kept.
    pub fn track_var(&mut self, var: TermId) {
        if !self.tracked_vars.contains(&var) {
            self.tracked_vars.push(var);
        }
    }

    /// Checks satisfiability of the current assertion stack by solving under
    /// the assumptions of all live activation literals.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SolverError::Unsupported`] when the formula falls
    /// outside the supported fragment.
    pub fn check(&mut self, tm: &mut TermManager) -> Result<SolverResult> {
        self.check_view(TmView::Exclusive(tm))
    }

    /// [`IncrementalContext::check`] against a shared term manager: every
    /// raw assertion must have its preprocessing supplied through `cache`
    /// (the portfolio warms it before dispatching its racing workers).
    pub(crate) fn check_shared(
        &mut self,
        tm: &TermManager,
        cache: &PreprocessCache,
    ) -> Result<SolverResult> {
        self.check_view(TmView::Shared(tm, cache))
    }

    fn check_view(&mut self, mut view: TmView<'_>) -> Result<SolverResult> {
        self.stats.checks += 1;
        self.maybe_compact();
        self.encode_view(&mut view)?;
        self.assumptions.clear();
        self.assumptions
            .extend(self.frames.iter().map(|f| f.activation));
        Ok(solve_with_theory(
            &mut self.encoder,
            &self.assumptions,
            self.config.max_conflicts,
            self.config.max_theory_iterations,
            &mut self.stats,
            &mut self.real_model_values,
        ))
    }

    /// Encodes tracked variables and pending assertions into the solver
    /// without solving.  Shared by `check_view` and the cube front-end's
    /// [`IncrementalContext::prepare`].
    fn encode_view(&mut self, view: &mut TmView<'_>) -> Result<()> {
        for i in 0..self.tracked_vars.len() {
            self.encoder
                .ensure_var_bits(view.tm(), self.tracked_vars[i])?;
        }
        // Encode front-to-back, removing entries only once they are in the
        // solver: an encoding error leaves the failing assertion (and the
        // rest) pending, so a retried `check` reports the same error instead
        // of silently answering for a weakened formula.
        let pending = std::mem::take(&mut self.pending);
        let mut encoded = 0;
        let result = loop {
            let Some((guard, assertion)) = pending.get(encoded) else {
                break Ok(());
            };
            match self.encode_one(view, *guard, assertion) {
                Ok(()) => encoded += 1,
                Err(error) => break Err(error),
            }
        };
        self.pending = pending;
        // Everything that made it into the solver moves to the replay
        // journal, where it stays until its frame is popped (or forever, for
        // base-level assertions).
        self.encoded.extend(self.pending.drain(..encoded));
        result
    }

    /// Brings the encoder up to date (tracked-variable bits, pending
    /// assertions) without running a solve, reading preprocessing from an
    /// already-warmed cache.  The cube-and-conquer front-end calls this
    /// before its lookahead pass — it has just warmed the cache for its
    /// conquest workers, so re-preprocessing here would double the work of
    /// the hottest path.
    pub(crate) fn prepare_shared(
        &mut self,
        tm: &TermManager,
        cache: &PreprocessCache,
    ) -> Result<()> {
        self.encode_view(&mut TmView::Shared(tm, cache))
    }

    /// Read-only access to the encoder (the cube front-end maps projection
    /// bits onto SAT variables through it).
    pub(crate) fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// Mutable access to the encoder's SAT solver (the cube front-end runs
    /// its read-only lookahead through it).
    pub(crate) fn encoder_mut(&mut self) -> &mut Encoder {
        &mut self.encoder
    }

    fn encode_one(
        &mut self,
        view: &mut TmView<'_>,
        guard_id: Option<u64>,
        assertion: &Assertion,
    ) -> Result<()> {
        // Resolve the frame id to its *current* activation literal only now:
        // a compaction between queueing and encoding re-allocates activation
        // literals, and the id indirection is what keeps journal entries
        // valid across that.
        let guard = guard_id.map(|id| {
            self.frames
                .iter()
                .find(|f| f.id == id)
                .expect("pending entry belongs to a live frame")
                .activation
        });
        let row = encode_assertion(
            &mut self.encoder,
            view,
            assertion,
            guard,
            &mut self.preprocess_cache,
            &mut self.stats.preprocess_cache_hits,
        )?;
        if let (Some(row), Some(id)) = (row, guard_id) {
            if let Some(frame) = self.frames.iter_mut().find(|f| f.id == id) {
                frame.xor_rows.push(row);
            }
        }
        Ok(())
    }

    /// Value of a variable in the most recent satisfying assignment.
    ///
    /// Discrete variables come from the SAT model; real and float variables
    /// from the simplex witness (floats are reported as their relaxed real
    /// value).  Returns `None` for unsupported sorts, for variables that were
    /// never encoded, or if the last check was not satisfiable.
    pub fn model_value(&self, tm: &TermManager, var: TermId) -> Option<Value> {
        model::model_value(&self.encoder, &self.real_model_values, tm, var)
    }

    /// The projected model: the value of each projection variable in the
    /// most recent satisfying assignment, in the order given.
    pub fn projected_model(&self, tm: &TermManager, projection: &[TermId]) -> Option<Vec<BvValue>> {
        model::projected_model(&self.encoder, tm, projection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_ir::Sort;

    fn assert_bv_lt(tm: &mut TermManager, x: TermId, bound: u128, width: u32) -> TermId {
        let c = tm.mk_bv_const(bound, width);
        tm.mk_bv_ult(x, c).unwrap()
    }

    #[test]
    fn push_pop_cycles_never_rebuild() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(6));
        let f = assert_bv_lt(&mut tm, x, 40, 6);
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        ctx.assert_term(f);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        // Many frames, each pinning x into a smaller range, popped again.
        for bound in [30u128, 20, 10, 1] {
            ctx.push();
            let g = assert_bv_lt(&mut tm, x, bound, 6);
            ctx.assert_term(g);
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
            let v = ctx.model_value(&tm, x).unwrap().as_bv().unwrap();
            assert!(v.as_u128() < bound);
            ctx.pop();
        }
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(ctx.stats().rebuilds, 0);
        assert!(ctx.stats().checks >= 6);
    }

    #[test]
    fn popped_frames_restore_satisfiability() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let f = assert_bv_lt(&mut tm, x, 3, 4);
        let mut ctx = IncrementalContext::new();
        ctx.assert_term(f);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        ctx.push();
        let g = assert_bv_lt(&mut tm, x, 0, 4); // impossible
        ctx.assert_term(g);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unsat);
        ctx.pop();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(ctx.stats().rebuilds, 0);
    }

    #[test]
    fn guarded_xor_rows_are_neutralised_by_pop() {
        // Odd parity over 3 bits inside a frame: 4 of 8 values.  After the
        // pop, all 8 values must be reachable again.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(3));
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        ctx.push();
        ctx.assert_xor_bits(vec![(x, 0), (x, 1), (x, 2)], true);
        let mut inside = Vec::new();
        loop {
            match ctx.check(&mut tm).unwrap() {
                SolverResult::Sat => {
                    let v = ctx.model_value(&tm, x).unwrap().as_bv().unwrap();
                    assert_eq!(v.as_u128().count_ones() % 2, 1);
                    assert!(!inside.contains(&v.as_u128()));
                    inside.push(v.as_u128());
                    let c = tm.mk_bv_value(v);
                    let eq = tm.mk_eq(x, c);
                    let block = tm.mk_not(eq);
                    ctx.assert_term(block);
                }
                SolverResult::Unsat => break,
                SolverResult::Unknown => panic!("unexpected unknown"),
            }
        }
        assert_eq!(inside.len(), 4);
        ctx.pop();
        // The frame's XOR row and blocking clauses are retired with it.
        let mut outside = Vec::new();
        loop {
            match ctx.check(&mut tm).unwrap() {
                SolverResult::Sat => {
                    let v = ctx.model_value(&tm, x).unwrap().as_bv().unwrap();
                    assert!(!outside.contains(&v.as_u128()));
                    outside.push(v.as_u128());
                    let c = tm.mk_bv_value(v);
                    let eq = tm.mk_eq(x, c);
                    let block = tm.mk_not(eq);
                    ctx.assert_term(block);
                }
                SolverResult::Unsat => break,
                SolverResult::Unknown => panic!("unexpected unknown"),
            }
        }
        assert_eq!(outside.len(), 8);
        assert_eq!(ctx.stats().rebuilds, 0);
    }

    #[test]
    fn nested_frames_retire_independently() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(5));
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        let f = assert_bv_lt(&mut tm, x, 20, 5);
        ctx.assert_term(f);
        ctx.push();
        let g = assert_bv_lt(&mut tm, x, 10, 5);
        ctx.assert_term(g);
        ctx.push();
        let h = assert_bv_lt(&mut tm, x, 2, 5);
        ctx.assert_term(h);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let v = ctx.model_value(&tm, x).unwrap().as_bv().unwrap();
        assert!(v.as_u128() < 2);
        ctx.pop(); // drop x < 2, keep x < 10
                   // Force a value in [2, 10) to prove only the inner frame died.
        ctx.push();
        let two = tm.mk_bv_const(2, 5);
        let ge2 = tm.mk_bv_ule(two, x).unwrap();
        ctx.assert_term(ge2);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let v = ctx.model_value(&tm, x).unwrap().as_bv().unwrap();
        assert!((2..10).contains(&v.as_u128()));
        ctx.pop();
        ctx.pop();
        assert_eq!(ctx.stats().rebuilds, 0);
    }

    #[test]
    fn hybrid_frames_work_under_assumptions() {
        // Base: b < 4 and 0 < r.  Frame: r < 1 and a contradictory r > 2.
        let mut tm = TermManager::new();
        let b = tm.mk_var("b", Sort::BitVec(4));
        let r = tm.mk_var("r", Sort::Real);
        let four = tm.mk_bv_const(4, 4);
        let f1 = tm.mk_bv_ult(b, four).unwrap();
        let zero = tm.mk_real_const(Rational::ZERO);
        let f2 = tm.mk_real_lt(zero, r).unwrap();
        let mut ctx = IncrementalContext::new();
        ctx.track_var(b);
        ctx.assert_term(f1);
        ctx.assert_term(f2);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        ctx.push();
        let one = tm.mk_real_const(Rational::ONE);
        let two = tm.mk_real_const(Rational::from_int(2));
        let lt1 = tm.mk_real_lt(r, one).unwrap();
        let gt2 = tm.mk_real_lt(two, r).unwrap();
        ctx.assert_term(lt1);
        ctx.assert_term(gt2);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unsat);
        ctx.pop();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let rv = match ctx.model_value(&tm, r).unwrap() {
            Value::Real(v) => v,
            other => panic!("expected real value, got {other:?}"),
        };
        assert!(rv > Rational::ZERO);
        assert_eq!(ctx.stats().rebuilds, 0);
    }

    fn real_value(ctx: &IncrementalContext, tm: &TermManager, r: TermId) -> Rational {
        match ctx.model_value(tm, r).unwrap() {
            Value::Real(v) => v,
            other => panic!("expected real value, got {other:?}"),
        }
    }

    #[test]
    fn theory_memo_serves_enumeration_with_correct_witnesses() {
        // b < 4 forces r < 1, b >= 4 forces r > 5: enumerating b's 8 models
        // visits two theory assignments, so most SAT answers are served by
        // the memo, and each witness must match its own assignment.
        let mut tm = TermManager::new();
        let b = tm.mk_var("b", Sort::BitVec(3));
        let r = tm.mk_var("r", Sort::Real);
        let low = assert_bv_lt(&mut tm, b, 4, 3);
        let one = tm.mk_real_const(Rational::ONE);
        let five = tm.mk_real_const(Rational::from_int(5));
        let r_small = tm.mk_real_lt(r, one).unwrap();
        let r_big = tm.mk_real_lt(five, r).unwrap();
        let high = tm.mk_not(low);
        let f1 = tm.mk_implies(low, r_small).unwrap();
        let f2 = tm.mk_implies(high, r_big).unwrap();
        let mut ctx = IncrementalContext::new();
        ctx.track_var(b);
        ctx.assert_term(f1);
        ctx.assert_term(f2);
        ctx.push();
        let mut models = 0;
        while ctx.check(&mut tm).unwrap() == SolverResult::Sat {
            models += 1;
            assert!(models <= 8, "blocked models came back");
            let v = ctx.model_value(&tm, b).unwrap().as_bv().unwrap();
            let rv = real_value(&ctx, &tm, r);
            if v.as_u128() < 4 {
                assert!(rv < Rational::ONE, "b = {v:?} with r = {rv:?}");
            } else {
                assert!(rv > Rational::from_int(5), "b = {v:?} with r = {rv:?}");
            }
            let c = tm.mk_bv_const(v.as_u128(), 3);
            let eq = tm.mk_eq(b, c);
            let block = tm.mk_not(eq);
            ctx.assert_term(block);
        }
        assert_eq!(models, 8);
        // Without the memo every one of the 8 models would run a simplex.
        let stats = ctx.stats();
        assert!(
            stats.theory_checks < models && stats.theory_checks < stats.sat_calls,
            "the memo answered too little: {stats:?}"
        );
    }

    #[test]
    fn theory_memo_misses_when_a_new_atom_is_encoded() {
        let mut tm = TermManager::new();
        let r = tm.mk_var("r", Sort::Real);
        let zero = tm.mk_real_const(Rational::ZERO);
        let f = tm.mk_real_lt(zero, r).unwrap();
        let mut ctx = IncrementalContext::new();
        ctx.assert_term(f);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(ctx.stats().theory_checks, 1, "same assignment: memo hit");
        // A new atom joins the participating set, so the key changes.
        let neg_one = tm.mk_real_const(Rational::from_int(-1));
        let g = tm.mk_real_lt(r, neg_one).unwrap();
        let not_g = tm.mk_not(g);
        ctx.assert_term(not_g);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(ctx.stats().theory_checks, 2);
        assert!(real_value(&ctx, &tm, r) > Rational::ZERO);
    }

    #[test]
    fn compaction_drops_the_theory_memo() {
        let mut tm = TermManager::new();
        let b = tm.mk_var("b", Sort::BitVec(4));
        let r = tm.mk_var("r", Sort::Real);
        let zero = tm.mk_real_const(Rational::ZERO);
        let f = tm.mk_real_lt(zero, r).unwrap();
        let g = assert_bv_lt(&mut tm, b, 8, 4);
        let mut ctx = IncrementalContext::new();
        ctx.set_compaction_threshold(1);
        ctx.track_var(b);
        ctx.assert_term(f);
        ctx.assert_term(g);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        // Two retired entries outnumber nothing but equal the live journal,
        // which arms a compaction for the next check.
        ctx.push();
        let h1 = assert_bv_lt(&mut tm, b, 4, 4);
        let h2 = assert_bv_lt(&mut tm, b, 2, 4);
        ctx.assert_term(h1);
        ctx.assert_term(h2);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(ctx.stats().theory_checks, 1, "same assignment: memo hit");
        ctx.pop();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let stats = ctx.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.theory_checks, 2, "the fresh encoder has no memo");
        assert!(real_value(&ctx, &tm, r) > Rational::ZERO);
    }

    #[test]
    fn tracking_new_vars_never_rebuilds() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let f = assert_bv_lt(&mut tm, x, 5, 4);
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        ctx.assert_term(f);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let y = tm.mk_var("y", Sort::BitVec(4));
        ctx.track_var(y); // appended at the next check, no rebuild
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert!(ctx.projected_model(&tm, &[x, y]).is_some());
        assert_eq!(ctx.stats().rebuilds, 0);
    }

    #[test]
    fn compaction_reclaims_dead_frames_and_preserves_live_ones() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(5));
        let mut ctx = IncrementalContext::new();
        ctx.set_compaction_threshold(1);
        ctx.track_var(x);
        let f = assert_bv_lt(&mut tm, x, 20, 5);
        ctx.assert_term(f);
        // A long-lived guarded frame with both clause- and XOR-garbage
        // neighbours: x < 10 plus odd parity over the low three bits.
        ctx.push();
        let g = assert_bv_lt(&mut tm, x, 10, 5);
        ctx.assert_term(g);
        ctx.assert_xor_bits(vec![(x, 0), (x, 1), (x, 2)], true);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        // Churn short-lived inner frames; each pop retires journal entries
        // and the threshold of 1 arms a compaction for the next check.
        for bound in [9u128, 8, 7, 6, 5] {
            ctx.push();
            let h = assert_bv_lt(&mut tm, x, bound, 5);
            ctx.assert_term(h);
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
            ctx.pop();
        }
        let stats = ctx.stats();
        assert!(stats.compactions > 0, "threshold 1 must trigger compaction");
        assert!(stats.dead_clauses_reclaimed > 0);
        assert_eq!(stats.rebuilds, 0, "compaction is not a rebuild");
        // The live frame survived every re-encode: enumerating must yield
        // exactly the odd-parity values below 10, i.e. {1, 2, 4, 7, 9}.
        let mut found = Vec::new();
        loop {
            match ctx.check(&mut tm).unwrap() {
                SolverResult::Sat => {
                    let v = ctx.model_value(&tm, x).unwrap().as_bv().unwrap();
                    assert!(!found.contains(&v.as_u128()));
                    found.push(v.as_u128());
                    let c = tm.mk_bv_value(v);
                    let eq = tm.mk_eq(x, c);
                    let block = tm.mk_not(eq);
                    ctx.assert_term(block);
                }
                SolverResult::Unsat => break,
                SolverResult::Unknown => panic!("unexpected unknown"),
            }
        }
        found.sort_unstable();
        assert_eq!(found, vec![1, 2, 4, 7, 9]);
        // Popping the live frame still restores the base formula.
        ctx.pop();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(ctx.stats().rebuilds, 0);
    }

    #[test]
    fn compaction_replay_serves_preprocessing_from_the_cache() {
        // A compaction re-encodes the live journal into a fresh solver; the
        // replay must be served from the term-id-keyed preprocessing memo
        // rather than re-running preprocessing, and must not change the
        // verdict.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(5));
        let mut ctx = IncrementalContext::new();
        ctx.set_compaction_threshold(1);
        ctx.track_var(x);
        let f = assert_bv_lt(&mut tm, x, 20, 5);
        ctx.assert_term(f);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(ctx.stats().preprocess_cache_hits, 0);
        ctx.push();
        let g = assert_bv_lt(&mut tm, x, 10, 5);
        ctx.assert_term(g);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        ctx.pop(); // retires `g`; threshold 1 arms a compaction
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let stats = ctx.stats();
        assert!(stats.compactions > 0, "threshold 1 must trigger compaction");
        // The journal replay re-encoded `f` from the cache.
        assert!(stats.preprocess_cache_hits >= 1);
        assert_eq!(stats.rebuilds, 0);
    }

    #[test]
    fn default_threshold_never_compacts_small_workloads() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        for bound in [5u128, 4, 3] {
            ctx.push();
            let g = assert_bv_lt(&mut tm, x, bound, 4);
            ctx.assert_term(g);
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
            ctx.pop();
        }
        let stats = ctx.stats();
        assert_eq!(stats.compactions, 0);
        assert_eq!(stats.dead_clauses_reclaimed, 0);
    }

    #[test]
    fn popping_an_unchecked_frame_discards_its_pending_assertions() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        ctx.push();
        let g = assert_bv_lt(&mut tm, x, 0, 4); // impossible, never checked
        ctx.assert_term(g);
        ctx.pop();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
    }

    #[test]
    fn encoding_errors_keep_the_failing_assertion_pending() {
        // A retried `check` must report the same error, not silently answer
        // for the formula minus the assertion that failed to encode.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let f = assert_bv_lt(&mut tm, x, 5, 4);
        let r = tm.mk_var("r", Sort::Real);
        let rr = tm.mk_real_mul(r, r).unwrap(); // non-linear: unsupported
        let one = tm.mk_real_const(Rational::ONE);
        let bad = tm.mk_real_lt(rr, one).unwrap();
        let mut ctx = IncrementalContext::new();
        ctx.assert_term(f);
        ctx.assert_term(bad);
        assert!(ctx.check(&mut tm).is_err());
        assert!(ctx.check(&mut tm).is_err());
    }

    #[test]
    fn rebuild_mode_rebuilds_once_per_check_after_a_retiring_pop() {
        // Three kinds of pop: one retiring an encoded frame, one retiring a
        // frame that was never checked, and two retiring nested encoded
        // frames before a single check.  Rebuild mode re-encodes exactly
        // before the checks that follow encoded garbage; the default mode
        // keeps its encoder throughout.  A final retiring pop with no check
        // after it still counts, because the pop that arms a rebuild is
        // where it is counted.
        let run = |mut ctx: IncrementalContext| {
            let mut tm = TermManager::new();
            let x = tm.mk_var("x", Sort::BitVec(5));
            ctx.track_var(x);
            let f = assert_bv_lt(&mut tm, x, 20, 5);
            ctx.assert_term(f);
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
            // Encoded frame, popped: the next check rebuilds.
            ctx.push();
            let g = assert_bv_lt(&mut tm, x, 10, 5);
            ctx.assert_term(g);
            ctx.assert_xor_bits(vec![(x, 0), (x, 1)], true);
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
            ctx.pop();
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
            // Never-checked frame, popped: nothing was encoded, no rebuild.
            ctx.push();
            let h = assert_bv_lt(&mut tm, x, 0, 5);
            ctx.assert_term(h);
            ctx.pop();
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
            // Two encoded frames popped back to back: one rebuild.
            ctx.push();
            ctx.assert_term(g);
            ctx.push();
            let k = assert_bv_lt(&mut tm, x, 2, 5);
            ctx.block_model(&mut tm, &[x], &[BvValue::new(0, 5)]);
            ctx.assert_term(k);
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
            assert_eq!(
                ctx.model_value(&tm, x).unwrap().as_bv().unwrap().as_u128(),
                1
            );
            ctx.pop();
            ctx.pop();
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
            let after_checks = ctx.stats();
            ctx.push();
            ctx.assert_term(g);
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
            ctx.pop();
            (after_checks, ctx.stats())
        };
        // Rebuild mode ignores the compaction threshold.
        let mut rebuilding = IncrementalContext::rebuilding(SolverConfig::default());
        rebuilding.set_compaction_threshold(1_000);
        let (rebuilt, dangling) = run(rebuilding);
        assert_eq!(rebuilt.checks, 6);
        assert_eq!(rebuilt.rebuilds, 2);
        assert_eq!(rebuilt.compactions, 0);
        assert_eq!(rebuilt.dead_clauses_reclaimed, 0);
        assert_eq!(dangling.rebuilds, 3);
        assert_eq!(dangling.compactions, 0);
        let (incremental, dangling) = run(IncrementalContext::new());
        assert_eq!(incremental.checks, 6);
        assert_eq!(incremental.rebuilds, 0);
        assert_eq!(incremental.compactions, 0);
        assert_eq!(dangling.rebuilds, 0);
    }

    #[test]
    #[should_panic(expected = "pop without matching push")]
    fn unbalanced_pop_panics() {
        let mut ctx = IncrementalContext::new();
        ctx.pop();
    }
}
