//! Adaptive per-check backend policy: one oracle that routes every `check`
//! to whichever backend the observed statistics say is winning.
//!
//! [`PolicyOracle`] wraps the concrete backends ([`IncrementalContext`] in
//! either mode, [`PortfolioContext`], [`CubeContext`]) behind the ordinary
//! [`Oracle`] surface.  It starts every count on the incremental
//! engine and re-routes per check from a sliding window of observations:
//!
//! * **Escalate to cube** when the windowed mean of CDCL conflicts per
//!   incremental check crosses [`ESCALATE_CONFLICTS`] — the instance has
//!   stopped being trivial, so splitting pays.
//! * **Grow the cube depth** (within [`MAX_CUBE_DEPTH`]) when a split's
//!   lookahead refutes at least half of the potential frontier — the
//!   refutation rate says deeper splits are cheap and effective.
//! * **Skip splitting entirely** when the last [`PROBE_FAST_CHECKS`] cube
//!   checks probe-solved instantly (no split generated): the region is easy
//!   again, so the policy decays back to the incremental engine.
//! * **Escalate to portfolio** when the conflict trend stalls outright
//!   ([`PORTFOLIO_CONFLICTS`]) or when cube splits stop refuting anything —
//!   diversified racing is the last resort for unstructured hardness.
//! * **Decay back from portfolio** after a fixed lease of
//!   [`PORTFOLIO_LEASE`] checks.  The natural decay signal — the win spread
//!   collapsing onto one worker — is *timing-dependent* (worker wins vary
//!   run to run), so routing on it would break bit-identical reports.  The
//!   deterministic lease is the spread-collapse proxy: when the portfolio
//!   stops being needed the next incremental window simply never escalates
//!   again.
//!
//! # The determinism rule
//!
//! Every routing decision is a **pure function of the deterministic slice
//! of the observed stats stream**: verdicts, incremental conflict deltas
//! (single-engine, hence reproducible), and the cube scout's split/refute
//! deltas (scout-side, single-threaded).  Timing-coupled telemetry —
//! portfolio worker wins, conquest finishes, cancelled counts, wall time —
//! is deliberately *excluded* from the routing inputs.
//!
//! The subtle half of the rule is **model canonicalization**.  A parallel
//! backend's SAT *witness* is timing-dependent (whichever racer or
//! conquest worker wins supplies the model), and the counting loop asserts
//! a blocking clause for exactly that witness — so one leaked
//! nondeterministic model contaminates the entire downstream
//! assertion/check stream, and with it every "deterministic" conflict
//! delta the policy routes on.  The policy therefore never surfaces a
//! parallel slot's model: when the portfolio or cube slot answers SAT, the
//! verdict and witness are re-derived on the (warm, single-engine)
//! incremental slot, which is the model source the caller sees.  UNSAT and
//! `Unknown` answers carry no witness and are passed through as-is.
//! Consequently the same assertion/check stream routes identically on
//! every run, thread count, and machine, and the differential suite pins
//! adaptive reports bit-identical to every other backend.
//!
//! Switching backends mid-count is sound because the policy journals the
//! assertion stack (frames of asserts, XOR rows, and tracked variables) and
//! replays it into a backend the first time that backend is engaged; after
//! that every stack operation fans out to all live backends, so any of them
//! can serve the next check.

use std::collections::VecDeque;

use pact_ir::{BvValue, TermId, TermManager, Value};
use pact_sat::InterruptFlag;

use crate::context::{OracleStats, SolverConfig, SolverResult};
use crate::cube::{CubeContext, CubeStats, MAX_CUBE_DEPTH};
use crate::error::Result;
use crate::incremental::IncrementalContext;
use crate::oracle::Oracle;
use crate::portfolio::{PortfolioContext, PortfolioStats};

/// Number of backend slots the policy routes across (the order of
/// [`PolicyStats::backend_checks`]): rebuild, incremental, portfolio, cube.
pub const POLICY_BACKENDS: usize = 4;

/// Slot index of the rebuild-mode [`IncrementalContext`] backend.  The
/// current rule set never routes to it (the incremental engine dominates it
/// on every signal we observe); the slot exists so the accounting vector
/// lines up with the `BackendSpec` vocabulary and so a future rule can
/// demote to it.
pub const SLOT_REBUILD: usize = 0;
/// Slot index of the [`IncrementalContext`] backend (the starting route).
pub const SLOT_INCREMENTAL: usize = 1;
/// Slot index of the [`PortfolioContext`] backend.
pub const SLOT_PORTFOLIO: usize = 2;
/// Slot index of the [`CubeContext`] backend.
pub const SLOT_CUBE: usize = 3;

/// Sliding-window length (checks) over which routing signals are averaged.
pub const POLICY_WINDOW: usize = 8;
/// Incremental observations required before the policy may escalate.
pub const POLICY_WARMUP: usize = 4;
/// Windowed mean conflicts per incremental check at which the policy
/// escalates to cube splitting.
pub const ESCALATE_CONFLICTS: u64 = 16;
/// Windowed mean conflicts per incremental check at which the policy
/// escalates straight to the portfolio (the trend has stalled hard).
pub const PORTFOLIO_CONFLICTS: u64 = 96;
/// Consecutive cube checks that probe-solve instantly (no split generated)
/// before the policy stops splitting and decays back to incremental.
pub const PROBE_FAST_CHECKS: u32 = 3;
/// Consecutive splitting cube checks whose lookahead refutes nothing before
/// the policy gives up on structure and escalates to the portfolio.
pub const CUBE_HARD_CHECKS: u32 = 2;
/// Checks the portfolio keeps the route after an escalation.  See the
/// module docs for why the decay is a deterministic lease rather than a
/// win-spread trigger.
pub const PORTFOLIO_LEASE: u32 = 6;

/// Cube depth the policy starts splitting at (grown adaptively up to
/// [`MAX_CUBE_DEPTH`]).
pub const POLICY_CUBE_DEPTH: usize = 3;
/// Conquest workers behind the policy's cube slot.
pub const POLICY_CUBE_WORKERS: usize = 2;
/// Racing workers behind the policy's portfolio slot.
pub const POLICY_PORTFOLIO_WORKERS: usize = 3;

/// Routing decisions recorded over a [`PolicyOracle`]'s lifetime (the
/// `CountStats` feed, analogous to [`PortfolioStats`] / [`CubeStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Times the routed backend changed between consecutive checks.
    pub switches: u64,
    /// Checks served by each backend slot, in the order rebuild,
    /// incremental, portfolio, cube (see [`SLOT_REBUILD`] &c.).
    pub backend_checks: [u64; POLICY_BACKENDS],
    /// Deepest cube split the policy reached (0 when the cube slot was
    /// never engaged).
    pub cube_depth_max: u32,
}

impl std::ops::AddAssign for PolicyStats {
    /// Sums the switches and per-slot checks; `cube_depth_max` is a
    /// high-water mark, not a flow.
    fn add_assign(&mut self, rhs: PolicyStats) {
        self.switches += rhs.switches;
        for (total, checks) in self.backend_checks.iter_mut().zip(rhs.backend_checks) {
            *total += checks;
        }
        self.cube_depth_max = self.cube_depth_max.max(rhs.cube_depth_max);
    }
}

/// One journalled assertion-stack operation, replayed into a backend the
/// first time the policy engages it.
#[derive(Clone)]
enum JournalOp {
    AssertTerm(TermId),
    AssertXor(Vec<(TermId, u32)>, bool),
    Track(TermId),
    /// A blocked projected model: the projection and the model's values.
    Block(Vec<TermId>, Vec<BvValue>),
}

/// A live backend slot.  The payloads are boxed: a slot is created once
/// and then only reached through `as_dyn`, so the indirection costs one
/// allocation per engaged backend while keeping the four-slot array
/// pointer-sized per entry.
enum Inner {
    Incremental(Box<IncrementalContext>),
    Portfolio(Box<PortfolioContext>),
    Cube(Box<CubeContext>),
}

impl Inner {
    fn as_dyn(&mut self) -> &mut dyn Oracle {
        match self {
            Inner::Incremental(c) => c.as_mut(),
            Inner::Portfolio(c) => c.as_mut(),
            Inner::Cube(c) => c.as_mut(),
        }
    }

    fn as_dyn_ref(&self) -> &dyn Oracle {
        match self {
            Inner::Incremental(c) => c.as_ref(),
            Inner::Portfolio(c) => c.as_ref(),
            Inner::Cube(c) => c.as_ref(),
        }
    }
}

/// The deterministic slice of one check's observation (see module docs).
struct Obs {
    /// Slot that served the check.
    slot: usize,
    /// CDCL conflicts the check cost (incremental checks only; 0 for the
    /// parallel slots, whose conflict totals are timing-dependent).
    conflicts: u64,
}

/// The policy's current routing mode.
enum Mode {
    /// Routing to the incremental engine, watching the conflict trend.
    Incremental,
    /// Routing to the cube splitter.
    Cube {
        /// Consecutive checks that probe-solved without splitting.
        idle: u32,
        /// Consecutive splitting checks whose lookahead refuted nothing.
        hard: u32,
    },
    /// Routing to the portfolio for the remainder of a fixed lease.
    Portfolio {
        /// Checks left on the lease.
        left: u32,
    },
}

/// An adaptive oracle routing each `check` across the four backend slots.
/// See the module docs for the rule set and determinism contract.
pub struct PolicyOracle {
    config: SolverConfig,
    /// Assertion-stack journal; `journal[0]` is the base frame.
    journal: Vec<Vec<JournalOp>>,
    /// Backend slots, created lazily on first engagement.
    slots: [Option<Inner>; POLICY_BACKENDS],
    /// Slot the next check routes to.
    active: usize,
    /// Slot that served the most recent check (model extraction target).
    last_checked: usize,
    /// Top-level checks answered (the 1:1 `OracleStats::checks` feed).
    checks: u64,
    stats: PolicyStats,
    window: VecDeque<Obs>,
    mode: Mode,
    /// Current cube split depth (grown adaptively).
    cube_depth: usize,
    interrupt: Option<InterruptFlag>,
}

impl PolicyOracle {
    /// An adaptive policy oracle with default resource limits.
    pub fn new() -> Self {
        PolicyOracle::with_config(SolverConfig::default())
    }

    /// An adaptive policy oracle whose backends all share the given
    /// resource limits.
    pub fn with_config(config: SolverConfig) -> Self {
        let mut oracle = PolicyOracle {
            config,
            journal: vec![Vec::new()],
            slots: [None, None, None, None],
            active: SLOT_INCREMENTAL,
            last_checked: SLOT_INCREMENTAL,
            checks: 0,
            stats: PolicyStats::default(),
            window: VecDeque::new(),
            mode: Mode::Incremental,
            cube_depth: POLICY_CUBE_DEPTH,
            interrupt: None,
        };
        // The starting route exists eagerly so a fresh oracle behaves like
        // a fresh incremental context (model queries, interrupt wiring).
        oracle.slots[SLOT_INCREMENTAL] = Some(oracle.new_slot(SLOT_INCREMENTAL));
        oracle
    }

    /// Routing decisions recorded so far.
    pub fn policy_stats(&self) -> PolicyStats {
        self.stats
    }

    /// The cube depth the policy is currently splitting at.
    pub fn cube_depth(&self) -> usize {
        self.cube_depth
    }

    /// A fresh, empty backend for `slot`.
    fn new_slot(&self, slot: usize) -> Inner {
        match slot {
            SLOT_REBUILD => {
                Inner::Incremental(Box::new(IncrementalContext::rebuilding(self.config)))
            }
            SLOT_INCREMENTAL => {
                Inner::Incremental(Box::new(IncrementalContext::with_config(self.config)))
            }
            SLOT_PORTFOLIO => Inner::Portfolio(Box::new(PortfolioContext::with_config(
                POLICY_PORTFOLIO_WORKERS,
                self.config,
            ))),
            _ => Inner::Cube(Box::new(CubeContext::with_config(
                self.cube_depth,
                POLICY_CUBE_WORKERS,
                self.config,
            ))),
        }
    }

    /// Creates the slot if absent, replaying the journalled assertion stack
    /// so the new backend can serve the very next check.
    fn ensure_slot(&mut self, slot: usize, tm: &mut TermManager) {
        if self.slots[slot].is_some() {
            return;
        }
        let mut inner = self.new_slot(slot);
        {
            let oracle = inner.as_dyn();
            if let Some(flag) = &self.interrupt {
                oracle.set_interrupt(flag.clone());
            }
            for (depth, frame) in self.journal.iter().enumerate() {
                if depth > 0 {
                    oracle.push();
                }
                for op in frame {
                    match op {
                        JournalOp::AssertTerm(t) => oracle.assert_term(*t),
                        JournalOp::AssertXor(bits, rhs) => {
                            oracle.assert_xor_bits(bits.clone(), *rhs);
                        }
                        JournalOp::Track(v) => oracle.track_var(*v),
                        JournalOp::Block(projection, model) => {
                            oracle.block_model(tm, projection, model);
                        }
                    }
                }
            }
        }
        self.slots[slot] = Some(inner);
    }

    /// Applies a stack operation to every live backend (the journal keeps
    /// absent slots reconstructible).
    fn fan_out(&mut self, mut f: impl FnMut(&mut dyn Oracle)) {
        for slot in self.slots.iter_mut().flatten() {
            f(slot.as_dyn());
        }
    }

    /// Decides the slot for the next check — a pure function of the
    /// observation window and mode (no clocks, no thread state).
    fn route(&mut self) -> usize {
        if let Mode::Incremental = self.mode {
            let inc: Vec<u64> = self
                .window
                .iter()
                .filter(|o| o.slot == SLOT_INCREMENTAL)
                .map(|o| o.conflicts)
                .collect();
            if inc.len() >= POLICY_WARMUP {
                let mean = inc.iter().sum::<u64>() / inc.len() as u64;
                if mean >= PORTFOLIO_CONFLICTS {
                    self.mode = Mode::Portfolio {
                        left: PORTFOLIO_LEASE,
                    };
                } else if mean >= ESCALATE_CONFLICTS {
                    self.mode = Mode::Cube { idle: 0, hard: 0 };
                }
            }
        }
        match self.mode {
            Mode::Incremental => SLOT_INCREMENTAL,
            Mode::Cube { .. } => SLOT_CUBE,
            Mode::Portfolio { .. } => SLOT_PORTFOLIO,
        }
    }

    /// Folds one check's deterministic observation back into the window and
    /// advances the mode machine.
    fn observe(&mut self, slot: usize, conflicts: u64, splits: u64, refuted: u64) {
        self.window.push_back(Obs { slot, conflicts });
        while self.window.len() > POLICY_WINDOW {
            self.window.pop_front();
        }
        match &mut self.mode {
            Mode::Incremental => {}
            Mode::Cube { idle, hard } => {
                if slot != SLOT_CUBE {
                    return;
                }
                if splits == 0 {
                    // Probe-solved instantly: splitting bought nothing.
                    *hard = 0;
                    *idle += 1;
                    if *idle >= PROBE_FAST_CHECKS {
                        self.mode = Mode::Incremental;
                        self.window.clear();
                    }
                } else {
                    *idle = 0;
                    let frontier = 1u64 << self.cube_depth;
                    if refuted.saturating_mul(2) >= frontier && self.cube_depth < MAX_CUBE_DEPTH {
                        // Refutation dominates: deeper splits are cheap.
                        self.cube_depth += 1;
                        if let Some(Inner::Cube(c)) = &mut self.slots[SLOT_CUBE] {
                            c.set_depth(self.cube_depth);
                        }
                    }
                    if refuted == 0 {
                        *hard += 1;
                        if *hard >= CUBE_HARD_CHECKS {
                            // Splitting finds no structure: race instead.
                            self.mode = Mode::Portfolio {
                                left: PORTFOLIO_LEASE,
                            };
                        }
                    } else {
                        *hard = 0;
                    }
                }
            }
            Mode::Portfolio { left } => {
                if slot != SLOT_PORTFOLIO {
                    return;
                }
                *left -= 1;
                if *left == 0 {
                    self.mode = Mode::Incremental;
                    self.window.clear();
                }
            }
        }
    }
}

impl Default for PolicyOracle {
    fn default() -> Self {
        PolicyOracle::new()
    }
}

impl Oracle for PolicyOracle {
    fn push(&mut self) {
        self.journal.push(Vec::new());
        self.fan_out(|o| o.push());
    }

    fn pop(&mut self) {
        assert!(
            self.journal.len() > 1,
            "pop without matching push (adaptive policy stack is empty)"
        );
        self.journal.pop();
        self.fan_out(|o| o.pop());
    }

    fn assert_term(&mut self, t: TermId) {
        self.journal
            .last_mut()
            .expect("journal always holds the base frame")
            .push(JournalOp::AssertTerm(t));
        self.fan_out(|o| o.assert_term(t));
    }

    fn assert_xor_bits(&mut self, bits: Vec<(TermId, u32)>, rhs: bool) {
        self.journal
            .last_mut()
            .expect("journal always holds the base frame")
            .push(JournalOp::AssertXor(bits.clone(), rhs));
        self.fan_out(|o| o.assert_xor_bits(bits.clone(), rhs));
    }

    fn block_model(&mut self, tm: &mut TermManager, projection: &[TermId], model: &[BvValue]) {
        self.journal
            .last_mut()
            .expect("journal always holds the base frame")
            .push(JournalOp::Block(projection.to_vec(), model.to_vec()));
        self.fan_out(|o| o.block_model(tm, projection, model));
    }

    fn track_var(&mut self, var: TermId) {
        self.journal
            .last_mut()
            .expect("journal always holds the base frame")
            .push(JournalOp::Track(var));
        self.fan_out(|o| o.track_var(var));
    }

    fn check(&mut self, tm: &mut TermManager) -> Result<SolverResult> {
        let slot = self.route();
        self.ensure_slot(slot, tm);
        if slot != self.active {
            self.stats.switches += 1;
            self.active = slot;
        }
        // Deterministic pre-check counters for the delta observation.
        let (pre_conflicts, pre_splits, pre_refuted) = {
            let inner = self.slots[slot].as_ref().expect("slot just ensured");
            match inner {
                Inner::Incremental(c) => (c.stats().conflicts, 0, 0),
                Inner::Cube(c) => {
                    let cs = c.cube_stats();
                    (0, cs.splits, cs.refuted_by_lookahead)
                }
                _ => (0, 0, 0),
            }
        };
        let mut verdict = {
            let inner = self.slots[slot].as_mut().expect("slot just ensured");
            inner.as_dyn().check(tm)?
        };
        self.checks += 1;
        self.stats.backend_checks[slot] += 1;
        self.last_checked = slot;
        // Model canonicalization (see the module docs): a parallel slot's
        // SAT witness is timing-dependent, so the verdict and model are
        // re-derived on the deterministic incremental engine before either
        // escapes to the caller.  The incremental slot always exists (it is
        // the eager starting route) and carries the same assertion stack
        // via the fan-out.  Under a conflict budget the re-check may answer
        // `Unknown`; that (deterministic) answer is surfaced instead of the
        // parallel SAT, because a SAT verdict without a reproducible
        // witness would break the bit-identity contract.
        if slot != SLOT_INCREMENTAL && verdict == SolverResult::Sat {
            let inner = self.slots[SLOT_INCREMENTAL]
                .as_mut()
                .expect("the incremental slot is created eagerly");
            let rederived = inner.as_dyn().check(tm)?;
            debug_assert_ne!(
                rederived,
                SolverResult::Unsat,
                "a parallel SAT cannot be refuted by the incremental re-check"
            );
            verdict = rederived;
            self.last_checked = SLOT_INCREMENTAL;
        }
        let (conflicts, splits, refuted) = {
            let inner = self.slots[slot].as_ref().expect("slot just ensured");
            match inner {
                Inner::Incremental(c) => (c.stats().conflicts - pre_conflicts, 0, 0),
                Inner::Cube(c) => {
                    let cs = c.cube_stats();
                    self.stats.cube_depth_max =
                        self.stats.cube_depth_max.max(self.cube_depth as u32);
                    (
                        0,
                        cs.splits - pre_splits,
                        cs.refuted_by_lookahead - pre_refuted,
                    )
                }
                _ => (0, 0, 0),
            }
        };
        self.observe(slot, conflicts, splits, refuted);
        Ok(verdict)
    }

    fn model_value(&self, tm: &TermManager, var: TermId) -> Option<Value> {
        self.slots[self.last_checked]
            .as_ref()
            .and_then(|inner| inner.as_dyn_ref().model_value(tm, var))
    }

    fn projected_model(&self, tm: &TermManager, projection: &[TermId]) -> Option<Vec<BvValue>> {
        self.slots[self.last_checked]
            .as_ref()
            .and_then(|inner| inner.as_dyn_ref().projected_model(tm, projection))
    }

    fn stats(&self) -> OracleStats {
        // The work fields sum over every engaged slot, so nothing a retired
        // route spent is dropped; `checks` counts policy-level queries 1:1
        // (comparable across backends).
        let mut stats = OracleStats::default();
        for inner in self.slots.iter().flatten() {
            stats += inner.as_dyn_ref().stats();
        }
        stats.checks = self.checks;
        stats
    }

    fn set_interrupt(&mut self, flag: InterruptFlag) {
        self.interrupt = Some(flag.clone());
        self.fan_out(|o| o.set_interrupt(flag.clone()));
    }

    fn portfolio(&self) -> Option<PortfolioStats> {
        match &self.slots[SLOT_PORTFOLIO] {
            Some(Inner::Portfolio(c)) => Some(c.portfolio_stats()),
            _ => None,
        }
    }

    fn cube(&self) -> Option<CubeStats> {
        match &self.slots[SLOT_CUBE] {
            Some(Inner::Cube(c)) => Some(c.cube_stats()),
            _ => None,
        }
    }

    fn policy(&self) -> Option<PolicyStats> {
        Some(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_ir::Sort;

    /// Blocking-loop enumeration through the policy surface: same verdict
    /// stream and model set as any other backend.
    #[test]
    fn policy_oracle_enumerates_like_a_plain_backend() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(3));
        let five = tm.mk_bv_const(5, 3);
        let f = tm.mk_bv_ult(x, five).unwrap();
        let mut oracle = PolicyOracle::new();
        oracle.track_var(x);
        oracle.assert_term(f);
        let mut found = 0u32;
        while oracle.check(&mut tm).unwrap() == SolverResult::Sat {
            let v = oracle.model_value(&tm, x).unwrap().as_bv().unwrap();
            assert!(v.as_u128() < 5);
            found += 1;
            assert!(found <= 5);
            let c = tm.mk_bv_value(v);
            let eq = tm.mk_eq(x, c);
            oracle.assert_term(tm.mk_not(eq));
        }
        assert_eq!(found, 5);
        let stats = oracle.stats();
        assert_eq!(stats.checks, u64::from(found) + 1);
        let policy = oracle.policy_stats();
        assert_eq!(policy.backend_checks.iter().sum::<u64>(), stats.checks);
    }

    /// The journal replay lets a backend engaged mid-stream serve checks
    /// over frames asserted before it existed, blocked models included.
    #[test]
    fn late_engaged_backends_see_the_whole_stack() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let three = tm.mk_bv_const(3, 4);
        let f = tm.mk_bv_ult(x, three).unwrap();
        let mut oracle = PolicyOracle::new();
        oracle.track_var(x);
        oracle.assert_term(f);
        oracle.block_model(&mut tm, &[x], &[BvValue::new(0, 4)]);
        oracle.block_model(&mut tm, &[x], &[BvValue::new(1, 4)]);
        oracle.push();
        let zero = tm.mk_bv_const(0, 4);
        oracle.assert_term(tm.mk_bv_ult(x, zero).unwrap());
        assert_eq!(oracle.check(&mut tm).unwrap(), SolverResult::Unsat);
        // Force-engage the cube slot now and replay the live stack into it.
        oracle.ensure_slot(SLOT_CUBE, &mut tm);
        oracle.pop();
        assert_eq!(oracle.check(&mut tm).unwrap(), SolverResult::Sat);
        let model = oracle.projected_model(&tm, &[x]).unwrap();
        assert_eq!(model[0].as_u128(), 2, "only x = 2 is left unblocked");
    }

    /// Unbalanced `pop` panics with the uniform backend contract message.
    #[test]
    #[should_panic(expected = "pop without matching push")]
    fn unbalanced_pop_panics() {
        let mut oracle = PolicyOracle::new();
        oracle.pop();
    }

    /// A synthetic hard stream (conflict-heavy incremental checks) drives
    /// the mode machine off the incremental route; the decision depends
    /// only on the journalled window, never on timing.
    #[test]
    fn conflict_pressure_escalates_deterministically() {
        let mut oracle = PolicyOracle::new();
        for _ in 0..POLICY_WARMUP {
            oracle.observe(SLOT_INCREMENTAL, ESCALATE_CONFLICTS + 1, 0, 0);
        }
        let slot = oracle.route();
        assert_eq!(slot, SLOT_CUBE);
        // Three instant probe-solves in cube mode decay straight back.
        for _ in 0..PROBE_FAST_CHECKS {
            oracle.observe(SLOT_CUBE, 0, 0, 0);
        }
        assert_eq!(oracle.route(), SLOT_INCREMENTAL);
        assert!(oracle.window.is_empty());
    }

    /// Unstructured hardness (splits that refute nothing) escalates to the
    /// portfolio, which decays after its deterministic lease.
    #[test]
    fn refutation_starved_splits_escalate_to_portfolio() {
        let mut oracle = PolicyOracle::new();
        oracle.mode = Mode::Cube { idle: 0, hard: 0 };
        for _ in 0..CUBE_HARD_CHECKS {
            oracle.observe(SLOT_CUBE, 0, 1, 0);
        }
        assert_eq!(oracle.route(), SLOT_PORTFOLIO);
        for _ in 0..PORTFOLIO_LEASE {
            oracle.observe(SLOT_PORTFOLIO, 0, 0, 0);
        }
        assert_eq!(oracle.route(), SLOT_INCREMENTAL);
    }

    /// High refutation rates grow the split depth, capped at the hard
    /// maximum.
    #[test]
    fn refutation_rate_grows_depth_to_the_cap() {
        let mut oracle = PolicyOracle::new();
        oracle.mode = Mode::Cube { idle: 0, hard: 0 };
        for _ in 0..16 {
            let frontier = 1u64 << oracle.cube_depth;
            oracle.observe(SLOT_CUBE, 0, 1, frontier);
        }
        assert_eq!(oracle.cube_depth, MAX_CUBE_DEPTH);
    }
}
