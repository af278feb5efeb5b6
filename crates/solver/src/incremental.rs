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
//! A retired frame's clauses are satisfied and its XOR rows inert, so they
//! cost little.  What does cost is the SAT variables its terms allocated —
//! the gates of a word-level hash, the bits of a fresh variable — which the
//! solver keeps deciding in every later check.  So each frame keeps its own
//! assertions (the base level is frame 0, so the live stack is the replay
//! source) and notes whether encoding one of its terms *grew the encoding*
//! by allocating SAT variables.  Popping such a frame makes the next
//! `check` re-encode the live frames into a fresh solver, counted by
//! [`OracleStats::compactions`] / [`OracleStats::dead_clauses_reclaimed`].
//! Popping any other frame — XOR rows, blocked models, terms whose
//! encoding already existed — never re-encodes.
//!
//! # Rebuild mode
//!
//! [`IncrementalContext::rebuilding`] builds the same context in *rebuild
//! mode*, the `rebuild` backend: every `pop` that retires encoded assertions
//! arms the re-encode for the next `check`, whether or not the frame grew
//! the encoding.  That check re-encodes the live frames into a fresh
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

/// One level of the assertion stack: the permanent base level (frame 0) or
/// a frame opened by `push`.
#[derive(Debug, Default)]
struct Frame {
    /// The frame's activation literal (assumed by `check`, retired by
    /// `pop`); `None` for the base level, whose assertions are unguarded.
    activation: Option<Lit>,
    /// The frame's assertions in assertion order: the replay source of a
    /// re-encode.
    assertions: Vec<Assertion>,
    /// Length of the prefix of `assertions` already in the solver.
    encoded: usize,
    /// Engine ids of the XOR rows this frame asserted, retired with it.
    xor_rows: Vec<usize>,
    /// Encoding one of the frame's term assertions allocated SAT variables,
    /// which outlive the frame.
    grew: bool,
}

/// The single-engine SMT oracle (see the module docs).
///
/// Assertions made outside any frame are permanent and encoded unguarded.
/// Assertions inside a frame are guarded by the frame's activation literal;
/// `check` assumes every live activation literal and `pop` retires the
/// frame.  Retired frames leave their (permanently satisfied) clauses and
/// neutralised XOR rows in the solver; the live frames are re-encoded into
/// a fresh solver after a `pop` of a frame that grew the encoding — or, in
/// rebuild mode ([`IncrementalContext::rebuilding`]), after every `pop`
/// that retired encoded assertions.
#[derive(Debug)]
pub struct IncrementalContext {
    config: SolverConfig,
    stats: OracleStats,
    /// Variables whose bits must always exist (projection variables).
    tracked_vars: Vec<TermId>,
    encoder: Encoder,
    /// SAT-level diversification the encoder was built with; a re-encode's
    /// replacement encoder must search identically, so the options are kept.
    sat_options: SatOptions,
    /// Interrupt flags watched by the solver; re-installed on the fresh
    /// encoder after a re-encode so cancellation survives it.
    interrupts: Vec<InterruptFlag>,
    /// Live frames, the base level first; never empty.  In order, their
    /// assertions are the encode order, and each frame's encoded prefix is
    /// in the solver.
    frames: Vec<Frame>,
    /// Encoded assertions retired by `pop` since the last re-encode.
    dead_entries: u64,
    /// A `pop` armed a re-encode of the live frames at the next `check`.
    reencode: bool,
    /// Conflicts accumulated by encoders that a re-encode discarded.
    retired_conflicts: u64,
    /// Rebuild mode: any `pop` that retires encoded assertions arms the
    /// re-encode, and the `pop` that arms it counts a rebuild.
    rebuild: bool,
    /// Simplex witness (indexed by LRA variable) from the last SAT check.
    real_model_values: Vec<Rational>,
    /// Reused buffer: the live frames' activation literals, which every
    /// `check` solves under.
    assumptions: Vec<Lit>,
    /// Term-id-keyed preprocessing memo; never invalidated (term ids are
    /// immutable for the manager lineage), so a re-encode replays the live
    /// frames from it instead of re-running preprocessing.
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
            frames: vec![Frame::default()],
            dead_entries: 0,
            reencode: false,
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
    /// an empty list removes them.  The flags are retained so a re-encode
    /// can re-install them on its fresh encoder.
    pub(crate) fn set_interrupt_flags(&mut self, flags: Vec<InterruptFlag>) {
        self.interrupts = flags.clone();
        self.encoder.sat().set_interrupts(flags);
    }

    /// Cumulative statistics.  `rebuilds` counts rebuild mode's arming
    /// `pop`s and is 0 in the default mode, whose re-encodes are counted
    /// as `compactions`.
    pub fn stats(&self) -> OracleStats {
        let mut stats = self.stats;
        stats.conflicts = self.retired_conflicts + self.encoder.sat_stats().conflicts;
        stats
    }

    /// Changes the resource limits for subsequent checks.
    pub fn set_config(&mut self, config: SolverConfig) {
        self.config = config;
    }

    /// Pushes a new assertion-stack frame by allocating its activation
    /// literal.
    pub fn push(&mut self) {
        let activation = self.encoder.sat().new_var().positive();
        self.frames.push(Frame {
            activation: Some(activation),
            ..Frame::default()
        });
    }

    /// Pops the most recent frame by retiring its activation literal: the
    /// unit `¬a` permanently satisfies every clause the frame guarded and
    /// frees the slack bit of every guarded XOR row.  The encoder — and all
    /// learnt clauses — survive, unless the frame grew the encoding (or, in
    /// rebuild mode, retired anything encoded): then the next `check`
    /// re-encodes the live frames into a fresh solver.
    ///
    /// # Panics
    ///
    /// Panics if there is no frame to pop (see the [`Oracle`](crate::Oracle)
    /// contract).
    pub fn pop(&mut self) {
        assert!(self.frames.len() > 1, "pop without matching push");
        let frame = self.frames.pop().expect("a frame above the base level");
        let arms = if self.rebuild {
            frame.encoded > 0
        } else {
            frame.grew
        };
        // Rebuild mode counts the rebuild where the first garbage arms it:
        // one re-encode at the next check serves every pop until then.
        if self.rebuild && arms && !self.reencode {
            self.stats.rebuilds += 1;
        }
        self.reencode |= arms;
        self.dead_entries += frame.encoded as u64;
        // `a` only ever occurs negatively in guard clauses, so the unit can
        // never conflict; `add_clause` returning `false` would mean the
        // formula was already unsat at level zero.
        let activation = frame.activation.expect("pushed frames have one");
        self.encoder.sat().add_clause(&[!activation]);
        // Retire the frame's XOR rows outright: their slack bits already
        // neutralise them logically, but deactivation also stops the engine
        // spending propagation work on them in every later solve.
        for row in frame.xor_rows {
            self.encoder.sat().deactivate_xor(row);
        }
    }

    /// Replaces the encoder with a fresh one and marks every live frame
    /// unencoded, shedding all clauses and variables of retired frames.
    /// Learnt clauses are lost too, which is why the default mode re-encodes
    /// only after a frame that left variables behind.
    fn reencode_live_frames(&mut self) {
        // Bank the dying encoder's conflict count so `stats()` stays
        // cumulative across the swap.
        self.retired_conflicts += self.encoder.sat_stats().conflicts;
        self.encoder = Encoder::with_options(self.sat_options);
        self.encoder.sat().set_interrupts(self.interrupts.clone());
        // Live frames get fresh activation literals in the new solver; their
        // XOR rows died with the old engine and are re-added by the replay.
        for frame in &mut self.frames {
            frame.activation = frame
                .activation
                .map(|_| self.encoder.sat().new_var().positive());
            frame.encoded = 0;
            frame.xor_rows.clear();
            frame.grew = false;
        }
        if !self.rebuild {
            self.stats.compactions += 1;
            self.stats.dead_clauses_reclaimed += self.dead_entries;
        }
        self.dead_entries = 0;
        self.reencode = false;
    }

    /// Queues an assertion in the innermost frame.
    fn queue(&mut self, assertion: Assertion) {
        let frame = self.frames.last_mut().expect("the base level is live");
        frame.assertions.push(assertion);
    }

    /// Asserts a boolean term in the current frame.
    pub fn assert_term(&mut self, t: TermId) {
        self.queue(Assertion::Term(t));
    }

    /// Asserts a native XOR constraint over individual bits of discrete
    /// variables: `⊕ bit ⊕ ... = rhs` (the `H_xor` fast path).
    pub fn assert_xor_bits(&mut self, bits: Vec<(TermId, u32)>, rhs: bool) {
        self.queue(Assertion::XorBits(bits, rhs));
    }

    /// Blocks a projected model in the current frame (see
    /// [`Oracle::block_model`](crate::Oracle::block_model)): boolean and
    /// bit-vector projections are queued as one guarded clause over their
    /// bits, kept with the frame like any other assertion so a re-encode
    /// replays it; anything else falls back to
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
        self.queue(Assertion::Block(pairs));
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
        if self.reencode {
            self.reencode_live_frames();
        }
        self.encode_view(&mut view)?;
        self.assumptions.clear();
        self.assumptions
            .extend(self.frames.iter().filter_map(|f| f.activation));
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
        // Encode front to back, counting an assertion as encoded only once
        // it is in the solver: an encoding error leaves the failing
        // assertion (and the rest) pending, so a retried `check` reports the
        // same error instead of silently answering for a weakened formula.
        for frame in &mut self.frames {
            while let Some(assertion) = frame.assertions.get(frame.encoded) {
                let vars = self.encoder.sat().num_vars();
                let row = encode_assertion(
                    &mut self.encoder,
                    view,
                    assertion,
                    frame.activation,
                    &mut self.preprocess_cache,
                    &mut self.stats.preprocess_cache_hits,
                );
                // Only terms count: XOR slack bits and activation literals
                // are not decided once their frame is gone.  A term that
                // failed part-way may have allocated gates too.
                frame.grew |=
                    matches!(assertion, Assertion::Term(_)) && self.encoder.sat().num_vars() > vars;
                frame.xor_rows.extend(row?);
                frame.encoded += 1;
            }
        }
        Ok(())
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
        ctx.track_var(b);
        ctx.assert_term(f);
        ctx.assert_term(g);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        // The frame's comparisons allocate gates, so its pop arms a
        // re-encode for the next check.
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
    fn a_frame_that_grows_the_encoding_arms_exactly_one_reencode() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(5));
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        let f = assert_bv_lt(&mut tm, x, 20, 5);
        ctx.assert_term(f);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        // A new comparison allocates gates; the frame keeps its solver
        // while it lives.
        ctx.push();
        let g = assert_bv_lt(&mut tm, x, 10, 5);
        ctx.assert_term(g);
        ctx.block_model(&mut tm, &[x], &[BvValue::new(0, 5)]);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(ctx.stats().compactions, 0);
        ctx.pop();
        // The pop arms one re-encode, which sheds both of the frame's
        // encoded assertions; the checks after it keep the fresh solver.
        for _ in 0..3 {
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        }
        let stats = ctx.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.dead_clauses_reclaimed, 2);
        assert_eq!(stats.rebuilds, 0, "a compaction is not a rebuild");
        // Two growing frames popped back to back arm one re-encode.
        ctx.push();
        let h = assert_bv_lt(&mut tm, x, 9, 5);
        ctx.assert_term(h);
        ctx.push();
        let k = assert_bv_lt(&mut tm, x, 7, 5);
        ctx.assert_term(k);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        ctx.pop();
        ctx.pop();
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let stats = ctx.stats();
        assert_eq!(stats.compactions, 2);
        assert_eq!(stats.dead_clauses_reclaimed, 4);
    }

    #[test]
    fn frames_that_allocate_no_variables_never_reencode() {
        // XOR rows (their slack bits do not count), blocked models and
        // terms the base level already encoded leave no variable behind.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let f = assert_bv_lt(&mut tm, x, 12, 4);
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        ctx.assert_term(f);
        for bound in [5u128, 4, 3] {
            ctx.push();
            ctx.assert_xor_bits(vec![(x, 0), (x, 1)], true);
            ctx.block_model(&mut tm, &[x], &[BvValue::new(bound, 4)]);
            ctx.assert_term(f);
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
            let v = ctx.model_value(&tm, x).unwrap().as_bv().unwrap();
            assert_eq!(v.as_u128().count_ones() % 2, 1);
            assert_ne!(v.as_u128(), bound);
            ctx.pop();
        }
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let stats = ctx.stats();
        assert_eq!(stats.compactions, 0);
        assert_eq!(stats.dead_clauses_reclaimed, 0);
    }

    #[test]
    fn compaction_reclaims_dead_frames_and_preserves_live_ones() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(5));
        let mut ctx = IncrementalContext::new();
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
        // Churn short-lived inner frames; each one's new comparison
        // allocates gates, so its pop arms a re-encode for the next check.
        for bound in [9u128, 8, 7, 6, 5] {
            ctx.push();
            let h = assert_bv_lt(&mut tm, x, bound, 5);
            ctx.assert_term(h);
            assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
            ctx.pop();
        }
        let stats = ctx.stats();
        assert_eq!(stats.compactions, 4, "the last pop has no check after it");
        assert_eq!(stats.dead_clauses_reclaimed, 4);
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
    fn a_live_outer_frame_survives_an_inner_reencode() {
        // The outer frame's parity row must hold after the inner frame's
        // re-encode, under a fresh activation literal, and still die with
        // its own pop.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(3));
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        // Allocate `x`'s bits first, so the outer frame's first activation
        // literal is not the one a re-encode allocates first.
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        ctx.push();
        ctx.assert_xor_bits(vec![(x, 0), (x, 1), (x, 2)], true);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let outer = ctx.frames[1].activation;
        ctx.push();
        let g = assert_bv_lt(&mut tm, x, 6, 3);
        ctx.assert_term(g);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        ctx.pop();
        let odd = enumerate(&mut ctx, &mut tm, x);
        assert_eq!(ctx.stats().compactions, 1);
        assert_ne!(ctx.frames[1].activation, outer);
        assert_eq!(odd, vec![1, 2, 4, 7]);
        ctx.pop();
        assert_eq!(enumerate(&mut ctx, &mut tm, x), (0..8).collect::<Vec<_>>());
    }

    /// Every value of `x` in a new frame, sorted.
    fn enumerate(ctx: &mut IncrementalContext, tm: &mut TermManager, x: TermId) -> Vec<u128> {
        ctx.push();
        let mut values = Vec::new();
        while ctx.check(tm).unwrap() == SolverResult::Sat {
            let v = ctx.projected_model(tm, &[x]).unwrap();
            values.push(v[0].as_u128());
            ctx.block_model(tm, &[x], &v);
        }
        ctx.pop();
        values.sort_unstable();
        values
    }

    #[test]
    fn compaction_replay_serves_preprocessing_from_the_cache() {
        // A compaction re-encodes the live frames into a fresh solver; the
        // replay must be served from the term-id-keyed preprocessing memo
        // rather than re-running preprocessing, and must not change the
        // verdict.
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(5));
        let mut ctx = IncrementalContext::new();
        ctx.track_var(x);
        let f = assert_bv_lt(&mut tm, x, 20, 5);
        ctx.assert_term(f);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        assert_eq!(ctx.stats().preprocess_cache_hits, 0);
        ctx.push();
        let g = assert_bv_lt(&mut tm, x, 10, 5);
        ctx.assert_term(g);
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        ctx.pop(); // `g` allocated gates, so the pop arms a compaction
        assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
        let stats = ctx.stats();
        assert_eq!(stats.compactions, 1);
        // The replay re-encoded `f` from the cache.
        assert!(stats.preprocess_cache_hits >= 1);
        assert_eq!(stats.rebuilds, 0);
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

    /// Three kinds of pop: one retiring an encoded frame, one retiring a
    /// frame that was never checked, and two retiring nested encoded frames
    /// before a single check; then a retiring pop with no check after it.
    /// Returns the stats after the last check and at the end.
    fn retiring_pops(mut ctx: IncrementalContext) -> (OracleStats, OracleStats) {
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
    }

    #[test]
    fn rebuild_mode_rebuilds_once_per_check_after_a_retiring_pop() {
        // Rebuild mode re-encodes exactly before the checks that follow
        // encoded garbage, and the pop that arms a rebuild is where it is
        // counted, so the final unchecked pop still counts.  Every frame
        // of `retiring_pops` that reaches a check asserts a comparison the
        // fresh solver has no gates for, so the default mode re-encodes
        // before the same two checks, counted as compactions.
        let (rebuilt, dangling) =
            retiring_pops(IncrementalContext::rebuilding(SolverConfig::default()));
        assert_eq!(rebuilt.checks, 6);
        assert_eq!(rebuilt.rebuilds, 2);
        assert_eq!(rebuilt.compactions, 0);
        assert_eq!(rebuilt.dead_clauses_reclaimed, 0);
        assert_eq!(dangling.rebuilds, 3);
        assert_eq!(dangling.compactions, 0);
        let (incremental, dangling) = retiring_pops(IncrementalContext::new());
        assert_eq!(incremental.checks, 6);
        assert_eq!(incremental.rebuilds, 0);
        assert_eq!(incremental.compactions, 2);
        assert_eq!(incremental.dead_clauses_reclaimed, 5);
        assert_eq!(dangling.rebuilds, 0);
        assert_eq!(dangling.compactions, 2);
    }

    #[test]
    #[should_panic(expected = "pop without matching push")]
    fn unbalanced_pop_panics() {
        let mut ctx = IncrementalContext::new();
        ctx.pop();
    }
}
