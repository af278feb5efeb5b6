//! Conflict-driven clause learning SAT solver with native XOR reasoning.
//!
//! Every attached clause lives in one arena (MiniSat's layout; Eén and
//! Sörensson, SAT 2003): a length header followed by the literals, with a
//! clause referred to by the `u32` offset of its header.  A trail literal
//! implied by an XOR row records only the row; conflict analysis rebuilds
//! the row's clause into a scratch buffer when it reads it (see
//! [`XorEngine::explain`]).  Adding a clause, learning one and propagating
//! therefore allocate only when the arena, a watch list or a buffer the
//! solver keeps has to grow.
//!
//! Values are indexed by literal, as in CaDiCaL and Kissat: `values`
//! holds an entry per [`Lit::code`], and a variable's two entries are
//! always complementary or both [`LBool::Undef`], so a literal's value is
//! one load.  Propagation notifies the XOR engine only of variables some
//! row watches.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::heap::VarHeap;
use crate::lit::{LBool, Lit, Var};
use crate::xor::{AddXor, XorEngine};

/// A cloneable flag that asks an in-flight [`Solver::solve`] call to give up
/// at its next safe point (a conflict or a restart boundary), optionally
/// with an absolute deadline after which it counts as raised.
///
/// Clones share the same atomic, so a flag handed to a solver before the
/// solve can be raised from another thread while the search runs — this is
/// what lets a portfolio oracle cancel losing workers, and what lets a
/// cooperative cancellation token reach *inside* a long solver call instead
/// of waiting for it to return.  A deadline lets one long solve stop when
/// the run it belongs to is out of time; the solver reads the clock for it
/// only at a conflict, once every 64 conflicts.  An interrupted solve
/// answers [`SatResult::Unknown`]; the solver stays usable (learnt clauses
/// and activities are kept, the trail is unwound to level zero).
#[derive(Debug, Clone, Default)]
pub struct InterruptFlag {
    raised: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl InterruptFlag {
    /// Creates a fresh, lowered flag without a deadline.
    pub fn new() -> Self {
        InterruptFlag::default()
    }

    /// This flag (sharing its atomic) with `deadline` as well: a solve that
    /// watches it also gives up once the deadline has passed.
    pub fn with_deadline(&self, deadline: Instant) -> Self {
        InterruptFlag {
            raised: Arc::clone(&self.raised),
            deadline: Some(deadline),
        }
    }

    /// Raises the flag; every clone observes it.
    pub fn set(&self) {
        self.raised.store(true, Ordering::Relaxed);
    }

    /// Lowers the flag so the solver (and anything sharing the flag) can be
    /// used again.  The deadline is not affected.
    pub fn clear(&self) {
        self.raised.store(false, Ordering::Relaxed);
    }

    /// Whether the flag is raised (the deadline is not consulted).
    pub fn is_set(&self) -> bool {
        self.raised.load(Ordering::Relaxed)
    }
}

/// Search-diversification knobs of a [`Solver`].
///
/// The defaults reproduce the solver's historical behaviour exactly; a
/// portfolio oracle builds its workers with *distinct* options so they
/// explore the search space in genuinely different orders (the DALC-style
/// "complementary decoders" structure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SatOptions {
    /// Initial saved phase of fresh variables (the polarity a variable is
    /// first decided with).  The default is `false`, the MiniSat convention.
    pub default_phase: bool,
    /// Base interval (in conflicts) of the Luby restart sequence.  Smaller
    /// bases restart aggressively (good for scrambled instances), larger
    /// bases commit to deep searches.
    pub restart_base: u64,
    /// Seed for tiny pseudo-random initial VSIDS activities on fresh
    /// variables, which perturbs the initial branching order.  `0` disables
    /// the noise (all activities start at exactly zero).
    pub activity_seed: u64,
}

impl Default for SatOptions {
    fn default() -> Self {
        SatOptions {
            default_phase: false,
            restart_base: RESTART_BASE,
            activity_seed: 0,
        }
    }
}

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found; read it with [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a verdict was reached.
    Unknown,
}

/// Aggregate search statistics, useful for benchmarking and regression tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently stored.
    pub learnts: u64,
    /// Number of XOR rows stored in the native XOR engine.
    pub xor_rows: u64,
}

/// Offset of a clause's length header in the clause arena.
type ClauseRef = u32;

#[derive(Debug, Clone, Copy)]
struct Watcher {
    clause: ClauseRef,
    blocker: Lit,
}

/// Why a trail literal holds (decisions and assumptions have none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// An attached clause whose first literal is the implied one.
    Clause(ClauseRef),
    /// An XOR row, explained on demand.  A literal fixed at level zero may
    /// keep a row that was retired (and its slot reused) since: analysis
    /// never reads a level-zero reason.
    Xor(u32),
}

/// What propagation found falsified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conflict {
    /// An attached clause.
    Clause(ClauseRef),
    /// An XOR row; with the literal it implied when that literal was
    /// already false.
    Xor(u32, Option<Lit>),
}

/// A solve watching a deadline reads the clock at every conflict whose
/// running total (see [`SatStats::conflicts`]) is a multiple of this.
const DEADLINE_POLL: u64 = 64;

const VAR_DECAY: f64 = 0.95;
const ACTIVITY_LIMIT: f64 = 1e100;
const RESTART_BASE: u64 = 100;

/// An incremental CDCL SAT solver with two-watched-literal propagation,
/// VSIDS branching, first-UIP clause learning, Luby restarts, phase saving,
/// solving under assumptions and a native XOR engine.
///
/// ```
/// use pact_sat::{Solver, SatResult};
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[a.positive(), b.positive()]);
/// s.add_clause(&[!a.positive()]);
/// assert_eq!(s.solve(&[]), SatResult::Sat);
/// assert!(s.model_value(b));
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    /// Every attached clause, back to back: a header whose code is the
    /// clause length, then the literals.
    arena: Vec<Lit>,
    /// Number of clauses in `arena`.
    num_clauses: usize,
    watches: Vec<Vec<Watcher>>,
    /// The value of every literal, indexed by [`Lit::code`]: a variable's
    /// two entries are set together by `enqueue` (complementary) and
    /// cleared together by `cancel_until` (both `Undef`), so reading a
    /// literal's value is one load.
    values: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<Reason>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    xor: XorEngine,
    ok: bool,
    stats: SatStats,
    conflict_budget: Option<u64>,
    model: Vec<bool>,
    opts: SatOptions,
    /// xorshift64 state feeding the initial-activity noise (0 = disabled).
    noise_state: u64,
    /// Cooperative interrupts: `solve` gives up when any flag is raised.
    interrupts: Vec<InterruptFlag>,
    /// The earliest deadline among `interrupts`.
    deadline: Option<Instant>,
    /// Per-variable attached-clause occurrence counts (problem and learnt
    /// clauses), maintained incrementally so the lookahead never re-scans
    /// the clause store.
    occurrences: Vec<u64>,
    /// The assumptions the kept trail was built under.  A `Sat` answer
    /// leaves its full assignment on the trail; the next `solve` with the
    /// same assumptions resumes from it instead of re-deciding from the root.
    trail_assumptions: Vec<Lit>,
    /// A blocking clause `add_clause` found falsified with two or more
    /// literals at the top decision level: attached, and taken by the next
    /// `solve` as its first conflict instead of re-deriving that level.
    /// While it is set its level is the top decision level, so any
    /// `cancel_until` below that level clears it (both watches are then
    /// unassigned) and at most one conflict is ever pending.
    pending_conflict: Option<ClauseRef>,
    /// Reused buffers: the clause `add_clause` simplifies, the clause
    /// `analyze` learns, the XOR clause it reads, and the implications one
    /// XOR propagation step reports.
    added: Vec<Lit>,
    learnt: Vec<Lit>,
    xor_clause: Vec<Lit>,
    xor_implied: Vec<(Lit, u32)>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            arena: Vec::new(),
            num_clauses: 0,
            watches: Vec::new(),
            values: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarHeap::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            xor: XorEngine::new(),
            ok: true,
            stats: SatStats::default(),
            conflict_budget: None,
            model: Vec::new(),
            opts: SatOptions::default(),
            noise_state: 0,
            interrupts: Vec::new(),
            deadline: None,
            occurrences: Vec::new(),
            trail_assumptions: Vec::new(),
            pending_conflict: None,
            added: Vec::new(),
            learnt: Vec::new(),
            xor_clause: Vec::new(),
            xor_implied: Vec::new(),
        }
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Creates an empty solver with the given diversification options.
    pub fn with_options(opts: SatOptions) -> Self {
        Solver {
            opts,
            noise_state: opts.activity_seed,
            ..Solver::default()
        }
    }

    /// Replaces the interrupt flags watched by subsequent `solve` calls
    /// (see [`InterruptFlag`]); an empty list removes them.
    pub fn set_interrupts(&mut self, flags: Vec<InterruptFlag>) {
        self.deadline = flags.iter().filter_map(|f| f.deadline).min();
        self.interrupts = flags;
    }

    fn interrupted(&self) -> bool {
        !self.interrupts.is_empty() && self.interrupts.iter().any(InterruptFlag::is_set)
    }

    /// Whether the conflict just counted ends the solve: a flag is raised,
    /// or this is a clock-reading conflict and the deadline has passed.
    fn interrupted_at_conflict(&self) -> bool {
        self.interrupted()
            || (self.stats.conflicts.is_multiple_of(DEADLINE_POLL)
                && self.deadline.is_some_and(|d| Instant::now() >= d))
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.values.len() / 2
    }

    /// Number of attached problem clauses plus learnt clauses.  Units and
    /// XOR rows are not clauses; a clause simplified away is not counted.
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Search statistics accumulated over all `solve` calls.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    /// Limits the number of conflicts a single `solve` call may use.
    ///
    /// When the budget is exhausted the call returns [`SatResult::Unknown`].
    /// `None` removes the limit.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars() as u32);
        let noise = self.next_activity_noise();
        self.values.push(LBool::Undef);
        self.values.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(noise);
        self.phase.push(self.opts.default_phase);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.occurrences.push(0);
        self.order.insert(v, &self.activity);
        v
    }

    /// Tiny initial activity (well below one `bump_var` increment) from an
    /// xorshift64 stream, so diversified solvers start branching in distinct
    /// orders without overriding anything the search later learns.
    fn next_activity_noise(&mut self) -> f64 {
        if self.noise_state == 0 {
            return 0.0;
        }
        let mut x = self.noise_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.noise_state = x;
        (x >> 11) as f64 / (1u64 << 53) as f64 * 1e-3
    }

    fn value(&self, lit: Lit) -> LBool {
        self.values[lit.code()]
    }

    /// Adds a clause; returns `false` if the formula became trivially
    /// unsatisfiable at level zero.
    ///
    /// The clause may be added while the trail of the last satisfying
    /// assignment is kept (see [`Solver::solve`]).  It is simplified by
    /// level-zero values only, and the trail is unwound only as far as the
    /// watch invariant needs: a clause that is unit at the root goes back to
    /// level zero; one falsified by the trail backtracks to its
    /// second-highest level and asserts its highest literal there; one that
    /// is unit under the trail has its implied literal enqueued at the level
    /// of its highest false literal.
    ///
    /// A clause falsified with two literals at its top level keeps that
    /// level: only the levels above it are unwound, and the clause becomes
    /// the pending conflict the next [`Solver::solve`] analyses first.  A
    /// further clause added while one is pending first unwinds the pending
    /// clause's level, so at most one conflict is ever pending.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        let mut clause = std::mem::take(&mut self.added);
        clause.clear();
        clause.extend_from_slice(lits);
        let ok = self.add_simplified(&mut clause);
        self.added = clause;
        ok
    }

    /// The body of [`Solver::add_clause`] over its reused buffer.
    fn add_simplified(&mut self, clause: &mut Vec<Lit>) -> bool {
        clause.sort_unstable();
        clause.dedup();
        // A literal and its negation differ only in the lowest code bit, so
        // after the sort they sit next to each other.
        if clause.windows(2).any(|w| w[0] == !w[1]) {
            return true; // tautology
        }
        let mut kept = 0;
        for i in 0..clause.len() {
            let l = clause[i];
            match self.level_zero_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}
                LBool::Undef => {
                    clause[kept] = l;
                    kept += 1;
                }
            }
        }
        clause.truncate(kept);
        match clause.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.cancel_until(0);
                self.enqueue(clause[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_above_root(clause);
                true
            }
        }
    }

    /// Value of `lit` if its variable is fixed at decision level zero.
    fn level_zero_value(&self, lit: Lit) -> LBool {
        if self.level[lit.var().index()] == 0 {
            self.value(lit)
        } else {
            LBool::Undef
        }
    }

    /// Attaches a clause of at least two literals, none fixed at level zero,
    /// against whatever trail is currently kept.
    ///
    /// The two watches must not be left where a later backtrack could make
    /// the clause unit without propagation noticing: a false watch is only
    /// allowed next to a true watch assigned no later than it.  Literals are
    /// ordered non-false first, then false by descending level, and the
    /// trail is cut back when the first two do not already satisfy that.
    /// Two false watches on the same level are the exception: the clause
    /// is then a conflict at that level, kept pending for the next `solve`.
    fn attach_above_root(&mut self, clause: &mut [Lit]) {
        if self.pending_conflict.is_some() {
            // Unassigns both watches of the pending clause.
            self.cancel_until(self.decision_level() - 1);
        }
        if self.decision_level() > 0 {
            let rank = |s: &Self, l: Lit| match s.value(l) {
                LBool::False => s.level[l.var().index()],
                _ => u32::MAX,
            };
            clause.sort_by_key(|&l| std::cmp::Reverse(rank(self, l)));
        }
        if self.decision_level() == 0 || self.value(clause[1]) != LBool::False {
            self.attach_clause(clause);
            return;
        }
        let first = self.level[clause[0].var().index()];
        let second = self.level[clause[1].var().index()];
        match self.value(clause[0]) {
            // Both watches false at the same level: the clause is a
            // conflict at that level, analysed by the next `solve`.
            LBool::False if first == second => {
                self.cancel_until(first);
                self.pending_conflict = Some(self.attach_clause(clause));
            }
            // A true first literal assigned no later than the highest false
            // one keeps the clause satisfied on every backtrack.
            LBool::True if first <= second => {
                self.attach_clause(clause);
            }
            // Otherwise the clause is unit at `second`: assert it there.
            _ => {
                self.cancel_until(second);
                let cref = self.attach_clause(clause);
                self.enqueue(clause[0], Some(Reason::Clause(cref)));
            }
        }
    }

    /// Adds a native XOR constraint `vars[0] ^ ... ^ vars[n-1] = rhs`.
    ///
    /// Returns `false` if the formula became trivially unsatisfiable.
    pub fn add_xor(&mut self, vars: &[Var], rhs: bool) -> bool {
        self.add_xor_tracked(vars, rhs).0
    }

    /// Like [`Solver::add_xor`], additionally reporting the engine id of the
    /// stored row (`None` when the row simplified away) so the caller can
    /// retire it later with [`Solver::deactivate_xor`].
    pub fn add_xor_tracked(&mut self, vars: &[Var], rhs: bool) -> (bool, Option<usize>) {
        if !self.ok {
            return (false, None);
        }
        // Rows are simplified against level-zero values only.
        self.cancel_until(0);
        match self.xor.add_row(vars, rhs, &self.values) {
            AddXor::Stored(row) => {
                self.stats.xor_rows = self.xor.len() as u64;
                (true, Some(row as usize))
            }
            AddXor::Trivial => (true, None),
            AddXor::Unit(lit) => {
                if !self.enqueue(lit, None) {
                    self.ok = false;
                    return (false, None);
                }
                self.ok = self.propagate().is_none();
                (self.ok, None)
            }
            AddXor::Unsat => {
                self.ok = false;
                (false, None)
            }
        }
    }

    /// Retires a stored XOR row (see [`XorEngine::deactivate`]): it stops
    /// propagating and conflicting.  The kept trail is unwound to level zero
    /// first, since it may hold literals the row implied.
    pub fn deactivate_xor(&mut self, row: usize) {
        self.cancel_until(0);
        if let Ok(row) = u32::try_from(row) {
            self.xor.deactivate(row);
        }
    }

    /// Appends a clause to the arena and watches its first two literals.
    fn attach_clause(&mut self, lits: &[Lit]) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        for &l in lits {
            self.occurrences[l.var().index()] += 1;
        }
        let cref = ClauseRef::try_from(self.arena.len()).expect("clause arena fits u32 offsets");
        self.watches[(!lits[0]).code()].push(Watcher {
            clause: cref,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).code()].push(Watcher {
            clause: cref,
            blocker: lits[0],
        });
        self.arena.push(Lit::from_code(lits.len()));
        self.arena.extend_from_slice(lits);
        self.num_clauses += 1;
        cref
    }

    /// The literals of the clause at `cref`.
    fn clause_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let start = cref as usize + 1;
        let len = self.arena[cref as usize].code();
        &mut self.arena[start..start + len]
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<Reason>) -> bool {
        match self.value(lit) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => {
                let v = lit.var().index();
                self.values[lit.code()] = LBool::True;
                self.values[(!lit).code()] = LBool::False;
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.phase[v] = lit.is_positive();
                self.trail.push(lit);
                self.stats.propagations += 1;
                true
            }
        }
    }

    /// Propagates all enqueued literals; returns the conflict, if any.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            if let Some(conflict) = self.propagate_clauses(p) {
                return Some(conflict);
            }
            // Most assigned variables are watched by no XOR row.
            if self.xor.watches(p.var()) {
                if let Some(conflict) = self.propagate_xor(p) {
                    return Some(conflict);
                }
            }
        }
        None
    }

    fn propagate_clauses(&mut self, p: Lit) -> Option<Conflict> {
        let mut watchers = std::mem::take(&mut self.watches[p.code()]);
        let false_lit = !p;
        let mut i = 0;
        let mut conflict = None;
        while i < watchers.len() {
            let w = watchers[i];
            if self.value(w.blocker) == LBool::True {
                i += 1;
                continue;
            }
            let cref = w.clause;
            let values = &self.values;
            let value = |l: Lit| values[l.code()];
            let start = cref as usize + 1;
            let len = self.arena[cref as usize].code();
            let lits = &mut self.arena[start..start + len];
            // Ensure the false literal (¬p) is at position 1.
            if lits[0] == false_lit {
                lits.swap(0, 1);
            }
            let first = lits[0];
            if first != w.blocker && value(first) == LBool::True {
                watchers[i] = Watcher {
                    clause: cref,
                    blocker: first,
                };
                i += 1;
                continue;
            }
            // Look for a new literal to watch.
            if let Some(k) = (2..lits.len()).find(|&k| value(lits[k]) != LBool::False) {
                lits.swap(1, k);
                let new_lit = lits[1];
                self.watches[(!new_lit).code()].push(Watcher {
                    clause: cref,
                    blocker: first,
                });
                watchers.swap_remove(i);
                continue;
            }
            // Clause is unit or conflicting.
            watchers[i] = Watcher {
                clause: cref,
                blocker: first,
            };
            i += 1;
            if value(first) == LBool::False {
                conflict = Some(Conflict::Clause(cref));
                self.qhead = self.trail.len();
                break;
            }
            self.enqueue(first, Some(Reason::Clause(cref)));
        }
        // A moved watch never lands on `p`'s own list: its new literal is
        // not false, and `¬p` is.
        debug_assert!(self.watches[p.code()].is_empty());
        self.watches[p.code()] = watchers;
        conflict
    }

    fn propagate_xor(&mut self, p: Lit) -> Option<Conflict> {
        let mut implied = std::mem::take(&mut self.xor_implied);
        implied.clear();
        let falsified = self.xor.on_assign(p.var(), &self.values, &mut implied);
        let mut conflict = falsified.map(|row| Conflict::Xor(row, None));
        for &(lit, row) in &implied {
            if !self.enqueue(lit, Some(Reason::Xor(row))) {
                // The implied literal is already false: the row's reason
                // clause is falsified and acts as the conflict.
                conflict = Some(Conflict::Xor(row, Some(lit)));
                break;
            }
        }
        self.xor_implied = implied;
        conflict
    }

    fn cancel_until(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        // The pending conflict sits on the top level, which this leaves.
        self.pending_conflict = None;
        let bound = self.trail_lim[target_level as usize];
        while self.trail.len() > bound {
            let lit = self.trail.pop().expect("trail not empty");
            let v = lit.var();
            self.values[lit.code()] = LBool::Undef;
            self.values[(!lit).code()] = LBool::Undef;
            self.reason[v.index()] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail_lim.truncate(target_level as usize);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > ACTIVITY_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    /// Makes `xor_clause` the clause of an XOR reason or conflict.
    fn explain_xor(&mut self, row: u32, implied: Option<Lit>) {
        self.xor
            .explain(row, implied, &self.values, &mut self.xor_clause);
    }

    /// Literal `k` of the clause analysis is reading: an arena clause, or
    /// (for `None`) the XOR clause in `xor_clause`.
    fn analyzed_lit(&self, clause: Option<ClauseRef>, k: usize) -> Lit {
        match clause {
            Some(cref) => self.arena[cref as usize + 1 + k],
            None => self.xor_clause[k],
        }
    }

    /// First-UIP conflict analysis.  Leaves the learnt clause (asserting
    /// literal first) in `learnt` and returns the backjump level.
    fn analyze(&mut self, conflict: Conflict) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit::from_code(0)); // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut clause = match conflict {
            Conflict::Clause(cref) => Some(cref),
            Conflict::Xor(row, implied) => {
                self.explain_xor(row, implied);
                None
            }
        };
        let mut trail_idx = self.trail.len();

        loop {
            let len = match clause {
                Some(cref) => self.arena[cref as usize].code(),
                None => self.xor_clause.len(),
            };
            for k in usize::from(p.is_some())..len {
                let q = self.analyzed_lit(clause, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next literal of the current level on the trail.
            loop {
                trail_idx -= 1;
                let lit = self.trail[trail_idx];
                if self.seen[lit.var().index()] {
                    p = Some(lit);
                    break;
                }
            }
            let p_lit = p.expect("UIP literal");
            counter -= 1;
            self.seen[p_lit.var().index()] = false;
            if counter == 0 {
                learnt[0] = !p_lit;
                break;
            }
            clause = match self.reason[p_lit.var().index()].expect("implied literal has a reason") {
                Reason::Clause(cref) => {
                    // The reason clause stores the implied literal first;
                    // make sure of it.
                    let lits = self.clause_mut(cref);
                    if lits[0].var() != p_lit.var() {
                        if let Some(pos) = lits.iter().position(|l| l.var() == p_lit.var()) {
                            lits.swap(0, pos);
                        }
                    }
                    Some(cref)
                }
                // Rebuilt with the implied literal first.
                Reason::Xor(row) => {
                    self.explain_xor(row, Some(p_lit));
                    None
                }
            };
        }

        for &l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }

        // Backjump level: highest level among the non-asserting literals.
        let backjump = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        self.learnt = learnt;
        backjump
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop(&self.activity) {
            if !self.value(v.positive()).is_assigned() {
                return Some(v);
            }
        }
        None
    }

    /// Ranks the variables a cube-and-conquer front-end should split on:
    /// every variable not fixed at decision level zero (the kept trail of
    /// the last model does not count as fixed), ordered by VSIDS
    /// activity (what the search has been fighting over), then by clause
    /// occurrence count (structural weight for variables the search has not
    /// touched yet — a free projection bit occurs in no clause but is still
    /// a perfectly balanced split), then by index for determinism.  Returns
    /// at most `limit` variables.
    ///
    /// This is a read-only lookahead: it never assigns, propagates or
    /// otherwise perturbs the solver, so interleaving it with `solve` calls
    /// cannot change any verdict.
    pub fn lookahead_candidates(&self, limit: usize) -> Vec<Var> {
        let all: Vec<Var> = (0..self.num_vars()).map(|i| Var(i as u32)).collect();
        self.lookahead_candidates_among(&all, limit)
    }

    /// As [`Solver::lookahead_candidates`], ranking only the given
    /// candidate set.  A cube front-end that can only split on projection
    /// bits passes exactly those variables.  Occurrence counts are
    /// maintained incrementally as clauses are attached, so a call costs a
    /// sort of the candidate set — nothing proportional to the clause
    /// store, which grows with every learnt clause over a counting run.
    pub fn lookahead_candidates_among(&self, vars: &[Var], limit: usize) -> Vec<Var> {
        let mut candidates: Vec<Var> = vars
            .iter()
            .copied()
            .filter(|v| {
                v.index() < self.num_vars() && self.level_zero_value(v.positive()) == LBool::Undef
            })
            .collect();
        candidates.sort_by(|a, b| {
            self.activity[b.index()]
                .partial_cmp(&self.activity[a.index()])
                .expect("activities are finite")
                .then(self.occurrences[b.index()].cmp(&self.occurrences[a.index()]))
                .then(a.index().cmp(&b.index()))
        });
        candidates.dedup();
        candidates.truncate(limit);
        candidates
    }

    /// The Luby restart sequence 1, 1, 2, 1, 1, 2, 4, ... (0-indexed).
    fn luby(mut x: u64) -> u64 {
        let mut size = 1u64;
        let mut seq = 0u32;
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) / 2;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    /// Solves the formula under the given assumptions.
    ///
    /// Assumption literals are treated as decisions that are never undone, so
    /// the call answers "is the formula satisfiable with these literals set".
    /// Learnt clauses persist across calls, giving incremental behaviour.
    /// Interrupt flags installed via [`Solver::set_interrupts`] are polled at
    /// every conflict (which covers every restart boundary — restarts fire
    /// right after conflict handling), and their deadline at every 64th
    /// conflict (never on entry, so a call that meets few conflicts never
    /// reads the clock); a raised flag or a passed deadline makes the call
    /// return [`SatResult::Unknown`] with the solver left reusable.
    /// A clause learnt while refuting an assumption contains that
    /// assumption's negation as an ordinary literal, so it is implied by the
    /// formula alone and remains sound for later calls with different
    /// assumptions (this is what lets activation-literal encodings retire a
    /// frame by asserting the unit negation afterwards).
    ///
    /// A `Sat` answer keeps its assignment on the trail.  The next call
    /// resumes from that trail when its assumption list equals the one the
    /// trail was built under, so an enumeration loop (`solve`, block the
    /// model with [`Solver::add_clause`], `solve` again) pays only for what
    /// the new clause changed; any other assumption list starts from the
    /// root.  A blocking clause the kept trail falsifies at its top level is
    /// the call's first conflict (see [`Solver::add_clause`]); it counts
    /// towards the conflict budget, interrupts and restarts like any other.
    ///
    /// # Panics
    ///
    /// Panics if an assumption literal refers to a variable that was never
    /// created (a caller bug; the check is unconditional because the failure
    /// mode — indexing garbage deep inside propagation — is otherwise hard
    /// to trace back to the bad literal).
    pub fn solve(&mut self, assumptions: &[Lit]) -> SatResult {
        for &a in assumptions {
            assert!(
                a.var().index() < self.num_vars(),
                "assumption {a} refers to a variable that does not exist"
            );
        }
        if !self.ok {
            return SatResult::Unsat;
        }
        if self.interrupted() {
            return SatResult::Unknown;
        }
        if assumptions != self.trail_assumptions.as_slice() {
            self.cancel_until(0);
            self.trail_assumptions.clear();
            self.trail_assumptions.extend_from_slice(assumptions);
        }
        let mut pending = self.pending_conflict.take().map(|cref| {
            debug_assert!(self.falsified_at_top_level(cref));
            Conflict::Clause(cref)
        });
        let budget_start = self.stats.conflicts;
        let mut restart_count: u64 = 0;
        let mut conflicts_since_restart: u64 = 0;

        loop {
            let conflict = pending.take().or_else(|| self.propagate());
            if let Some(conflict) = conflict {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let backjump = self.analyze(conflict);
                self.cancel_until(backjump);
                let asserting = self.learnt[0];
                if self.learnt.len() == 1 {
                    if !self.enqueue(asserting, None) {
                        self.ok = false;
                        return SatResult::Unsat;
                    }
                } else {
                    let cref = self.attach_learnt();
                    self.enqueue(asserting, Some(Reason::Clause(cref)));
                }
                self.decay_activities();
                if self.conflict_exhausted(budget_start) || self.interrupted_at_conflict() {
                    self.cancel_until(0);
                    return SatResult::Unknown;
                }
                if conflicts_since_restart >= self.opts.restart_base * Self::luby(restart_count) {
                    restart_count += 1;
                    self.stats.restarts += 1;
                    conflicts_since_restart = 0;
                    let keep = (assumptions.len() as u32).min(self.decision_level());
                    self.cancel_until(keep);
                }
            } else {
                // No conflict: extend the assumption prefix or decide.
                if (self.decision_level() as usize) < assumptions.len() {
                    let next = assumptions[self.decision_level() as usize];
                    match self.value(next) {
                        LBool::True => {
                            // Already implied; open an empty decision level to
                            // keep the prefix aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.cancel_until(0);
                            return SatResult::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(next, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        self.save_model();
                        return SatResult::Sat;
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = v.lit(self.phase[v.index()]);
                        self.enqueue(lit, None);
                    }
                }
            }
        }
    }

    /// Whether every literal of the clause at `cref` is false and at least
    /// two of them sit on the top decision level.
    fn falsified_at_top_level(&self, cref: ClauseRef) -> bool {
        let start = cref as usize + 1;
        let lits = &self.arena[start..start + self.arena[cref as usize].code()];
        let top = lits
            .iter()
            .filter(|l| self.level[l.var().index()] == self.decision_level())
            .count();
        lits.iter().all(|&l| self.value(l) == LBool::False) && top >= 2
    }

    fn conflict_exhausted(&self, budget_start: u64) -> bool {
        match self.conflict_budget {
            Some(limit) => self.stats.conflicts - budget_start >= limit,
            None => false,
        }
    }

    /// Attaches the clause `analyze` left in `learnt`.
    fn attach_learnt(&mut self) -> ClauseRef {
        self.stats.learnts += 1;
        let learnt = std::mem::take(&mut self.learnt);
        let cref = self.attach_clause(&learnt);
        self.learnt = learnt;
        cref
    }

    /// Copies the current assignment into `model`, reusing its buffer: an
    /// enumeration saves one model per check.
    fn save_model(&mut self) {
        self.model.clear();
        self.model
            .extend(self.values.iter().step_by(2).map(|&a| a == LBool::True));
    }

    /// Value of `v` in the most recent satisfying assignment.
    ///
    /// # Panics
    ///
    /// Panics if the last `solve` call did not return [`SatResult::Sat`] or
    /// the variable was created afterwards.
    pub fn model_value(&self, v: Var) -> bool {
        self.model[v.index()]
    }

    /// The most recent satisfying assignment as literal values, one per
    /// variable, or an empty slice if no model is available.
    pub fn model(&self) -> &[bool] {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[v[0].positive()]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(s.model_value(v[0]));
        s.add_clause(&[v[0].negative()]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        // v0 -> v1 -> v2 -> v3, with v0 forced true.
        s.add_clause(&[v[0].negative(), v[1].positive()]);
        s.add_clause(&[v[1].negative(), v[2].positive()]);
        s.add_clause(&[v[2].negative(), v[3].positive()]);
        s.add_clause(&[v[0].positive()]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        for &x in &v {
            assert!(s.model_value(x));
        }
    }

    #[test]
    fn pigeonhole_three_into_two_is_unsat() {
        // 3 pigeons, 2 holes: p_{i,j} = pigeon i in hole j.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3).map(|_| vars(&mut s, 2)).collect();
        for row in &p {
            s.add_clause(&[row[0].positive(), row[1].positive()]);
        }
        for i in 0..3 {
            for k in (i + 1)..3 {
                for (a, b) in p[i].iter().zip(&p[k]) {
                    s.add_clause(&[a.negative(), b.negative()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn solving_under_assumptions_is_incremental() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0].positive(), v[1].positive(), v[2].positive()]);
        assert_eq!(s.solve(&[v[0].negative(), v[1].negative()]), SatResult::Sat);
        assert!(s.model_value(v[2]));
        assert_eq!(
            s.solve(&[v[0].negative(), v[1].negative(), v[2].negative()]),
            SatResult::Unsat
        );
        // The solver is still usable and satisfiable without assumptions.
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn xor_chain_forces_parity() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        let all: Vec<Var> = v.clone();
        assert!(s.add_xor(&all, true));
        assert!(s.add_clause(&[v[0].negative()]));
        assert!(s.add_clause(&[v[1].negative()]));
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(s.model_value(v[2]));
        assert!(!s.model_value(v[0]));
    }

    #[test]
    fn contradictory_xor_rows_are_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        assert!(s.add_xor(&v, true));
        assert!(s.add_xor(&v, false) || !s.ok || s.solve(&[]) == SatResult::Unsat);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn xor_and_clauses_interact() {
        // x0 ^ x1 ^ x2 = 0, x0 = 1, x1 = 1 implies x2 = 0.
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_xor(&v, false);
        s.add_clause(&[v[0].positive()]);
        s.add_clause(&[v[1].positive()]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(!s.model_value(v[2]));
        // Forcing x2 = 1 as an assumption must now fail.
        assert_eq!(s.solve(&[v[2].positive()]), SatResult::Unsat);
    }

    #[test]
    fn conflict_budget_reports_unknown() {
        // A hard instance: pigeonhole 6 into 5 with a budget of 1 conflict.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..6).map(|_| vars(&mut s, 5)).collect();
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&lits);
        }
        for i in 0..6 {
            for k in (i + 1)..6 {
                for (a, b) in p[i].iter().zip(&p[k]) {
                    s.add_clause(&[a.negative(), b.negative()]);
                }
            }
        }
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(&[]), SatResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn enumeration_by_blocking_models() {
        // Three free variables with one XOR constraint: exactly 4 models.
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_xor(&v, true);
        let mut count = 0;
        while s.solve(&[]) == SatResult::Sat {
            count += 1;
            assert!(count <= 4, "more models than expected");
            let blocking: Vec<Lit> = v.iter().map(|&x| x.lit(!s.model_value(x))).collect();
            s.add_clause(&blocking);
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn activation_literal_gates_clauses_and_survives_retirement() {
        // The incremental-oracle pattern: clauses guarded by an activation
        // literal `a` only bite while `a` is assumed, and asserting the unit
        // `¬a` afterwards retires them without touching the rest.
        let mut s = Solver::new();
        let x = s.new_var();
        let a = s.new_var();
        // Guarded constraint: a -> x.
        s.add_clause(&[a.negative(), x.positive()]);
        assert_eq!(s.solve(&[a.positive()]), SatResult::Sat);
        assert!(s.model_value(x));
        // Without the assumption, x is free again.
        assert_eq!(s.solve(&[x.negative()]), SatResult::Sat);
        assert!(!s.model_value(x));
        // Retire the frame: the guarded clause is permanently satisfied.
        assert!(s.add_clause(&[a.negative()]));
        assert_eq!(s.solve(&[x.negative()]), SatResult::Sat);
    }

    #[test]
    fn refuting_an_assumption_keeps_the_solver_usable() {
        // F ∧ a is unsat, so solving under `a` answers Unsat — but the
        // learnt consequence (¬a) must be implied by F alone, leaving the
        // solver satisfiable without the assumption and consistent with the
        // later unit retirement of `a`.
        let mut s = Solver::new();
        let x = s.new_var();
        let a = s.new_var();
        s.add_clause(&[a.negative(), x.positive()]);
        s.add_clause(&[a.negative(), x.negative()]);
        assert_eq!(s.solve(&[a.positive()]), SatResult::Unsat);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(s.add_clause(&[a.negative()]));
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn slack_variable_neutralises_an_xor_row_after_retirement() {
        // A guarded XOR row: x0 ^ x1 ^ slack = 1 with (¬a ∨ ¬slack).  While
        // `a` is assumed the slack is forced off and the row enforces odd
        // parity; after retiring `¬a` the free slack absorbs any parity.
        let mut s = Solver::new();
        let x0 = s.new_var();
        let x1 = s.new_var();
        let slack = s.new_var();
        let a = s.new_var();
        assert!(s.add_xor(&[x0, x1, slack], true));
        assert!(s.add_clause(&[a.negative(), slack.negative()]));
        // Active frame: even parity over (x0, x1) is impossible.
        assert_eq!(
            s.solve(&[a.positive(), x0.positive(), x1.positive()]),
            SatResult::Unsat
        );
        assert_eq!(
            s.solve(&[a.positive(), x0.positive(), x1.negative()]),
            SatResult::Sat
        );
        // Retired frame: every (x0, x1) combination is allowed again.
        assert!(s.add_clause(&[a.negative()]));
        assert_eq!(s.solve(&[x0.positive(), x1.positive()]), SatResult::Sat);
        assert_eq!(s.solve(&[x0.negative(), x1.negative()]), SatResult::Sat);
    }

    #[test]
    fn conflict_budget_applies_under_assumptions() {
        // Pigeonhole 6-into-5 again, but queried under an assumption: the
        // budget must still bound the work and leave the solver reusable.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..6).map(|_| vars(&mut s, 5)).collect();
        let a = s.new_var();
        for row in &p {
            let mut lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            lits.push(a.negative());
            s.add_clause(&lits);
        }
        for i in 0..6 {
            for k in (i + 1)..6 {
                for (x, y) in p[i].iter().zip(&p[k]) {
                    s.add_clause(&[x.negative(), y.negative(), a.negative()]);
                }
            }
        }
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(&[a.positive()]), SatResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(&[a.positive()]), SatResult::Unsat);
        // The guarded instance stays satisfiable once the frame is retired.
        assert!(s.add_clause(&[a.negative()]));
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn unknown_assumption_variables_are_rejected() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause(&[v.positive()]);
        s.solve(&[Var(99).positive()]);
    }

    #[test]
    fn interrupt_flag_stops_a_search_and_leaves_the_solver_usable() {
        // Pigeonhole 6-into-5: an exhaustive search a pre-raised flag must
        // cut short, and that a later solve (flag lowered) still completes.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..6).map(|_| vars(&mut s, 5)).collect();
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&lits);
        }
        for i in 0..6 {
            for k in (i + 1)..6 {
                for (a, b) in p[i].iter().zip(&p[k]) {
                    s.add_clause(&[a.negative(), b.negative()]);
                }
            }
        }
        let flag = InterruptFlag::new();
        s.set_interrupts(vec![flag.clone()]);
        flag.set();
        assert_eq!(s.solve(&[]), SatResult::Unknown);
        flag.clear();
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        // Any raised flag in the set interrupts; clones share the atomic.
        let second = InterruptFlag::new();
        s.set_interrupts(vec![InterruptFlag::new(), second.clone()]);
        second.clone().set();
        assert!(second.is_set());
    }

    #[test]
    fn diversified_options_answer_identically() {
        // Polarity, restart base and activity noise steer the search, never
        // the verdict or the constraint semantics.
        let build = |opts: SatOptions| {
            let mut s = Solver::with_options(opts);
            let v = vars(&mut s, 6);
            s.add_xor(&v[..4], true);
            s.add_clause(&[v[0].negative(), v[4].positive()]);
            s.add_clause(&[v[4].negative(), v[5].positive()]);
            s
        };
        let configs = [
            SatOptions::default(),
            SatOptions {
                default_phase: true,
                restart_base: 40,
                activity_seed: 0x9e37_79b9,
            },
            SatOptions {
                default_phase: false,
                restart_base: 400,
                activity_seed: 7,
            },
        ];
        for opts in configs {
            let mut s = build(opts);
            assert_eq!(s.solve(&[]), SatResult::Sat, "{opts:?}");
            // The model satisfies the parity constraint whatever the phase.
            let parity = (0..4).filter(|&i| s.model_value(Var(i as u32))).count();
            assert_eq!(parity % 2, 1, "{opts:?}");
            assert_eq!(s.solve(&[Var(0).positive()]), SatResult::Sat, "{opts:?}");
        }
    }

    #[test]
    fn default_options_reproduce_the_historical_solver() {
        // `Solver::new()` and `with_options(default)` must walk the same
        // search: same decisions, conflicts and model on a nontrivial
        // instance.
        let build = |mut s: Solver| {
            let p: Vec<Vec<Var>> = (0..5).map(|_| vars(&mut s, 4)).collect();
            for row in &p {
                let lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
                s.add_clause(&lits);
            }
            for i in 0..5 {
                for k in (i + 1)..5 {
                    for (a, b) in p[i].iter().zip(&p[k]) {
                        s.add_clause(&[a.negative(), b.negative()]);
                    }
                }
            }
            s
        };
        let mut a = build(Solver::new());
        let mut b = build(Solver::with_options(SatOptions::default()));
        assert_eq!(a.solve(&[]), b.solve(&[]));
        assert_eq!(a.stats().decisions, b.stats().decisions);
        assert_eq!(a.stats().conflicts, b.stats().conflicts);
        assert_eq!(a.model(), b.model());
    }

    #[test]
    fn two_solvers_built_through_one_closure_both_refute_pigeonhole() {
        // The standalone reproducer of a release-build abort: the same
        // closure fills two fresh solvers, and only then does either solve.
        let build = |mut s: Solver| {
            let p: Vec<Vec<Var>> = (0..5).map(|_| vars(&mut s, 4)).collect();
            for row in &p {
                let lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
                s.add_clause(&lits);
            }
            for i in 0..5 {
                for k in (i + 1)..5 {
                    for (a, b) in p[i].iter().zip(&p[k]) {
                        s.add_clause(&[a.negative(), b.negative()]);
                    }
                }
            }
            s
        };
        let mut a = build(Solver::new());
        let mut b = build(Solver::new());
        assert_eq!(a.solve(&[]), SatResult::Unsat);
        assert_eq!(b.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn lookahead_candidates_rank_by_activity_then_occurrence() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        // v1 occurs in two clauses, v2 in one, v0 is fixed at level zero and
        // v3 is completely free.
        s.add_clause(&[v[0].positive()]);
        s.add_clause(&[v[1].positive(), v[2].positive()]);
        s.add_clause(&[v[1].negative(), v[2].positive(), v[3].positive()]);
        let ranked = s.lookahead_candidates(8);
        // The fixed variable is excluded; with zero activity everywhere the
        // occurrence counts decide, and the free variable ranks last.
        assert!(!ranked.contains(&v[0]));
        assert_eq!(ranked, vec![v[1], v[2], v[3]]);
        // The limit truncates without reordering.
        assert_eq!(s.lookahead_candidates(1), vec![v[1]]);
        // After a conflict-heavy solve, bumped activities dominate; the
        // call itself must not perturb the search state (same verdict,
        // same model, before and after).
        assert_eq!(s.solve(&[]), SatResult::Sat);
        let model_before: Vec<bool> = s.model().to_vec();
        // The kept trail of the model does not count as fixed.
        assert_eq!(s.lookahead_candidates(8).len(), 3);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert_eq!(s.model(), &model_before[..]);
    }

    #[test]
    fn lookahead_candidates_are_deterministic() {
        let build = || {
            let mut s = Solver::new();
            let p: Vec<Vec<Var>> = (0..4).map(|_| vars(&mut s, 3)).collect();
            for row in &p {
                let lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
                s.add_clause(&lits);
            }
            for i in 0..4 {
                for k in (i + 1)..4 {
                    for (a, b) in p[i].iter().zip(&p[k]) {
                        s.add_clause(&[a.negative(), b.negative()]);
                    }
                }
            }
            s.solve(&[]);
            s
        };
        let a = build();
        let b = build();
        assert_eq!(a.lookahead_candidates(6), b.lookahead_candidates(6));
    }

    /// Opens a decision level with `lit` and propagates it.
    fn decide(s: &mut Solver, lit: Lit) {
        s.trail_lim.push(s.trail.len());
        assert!(s.enqueue(lit, None));
        assert!(s.propagate().is_none());
    }

    fn level_of(s: &Solver, v: Var) -> u32 {
        s.level[v.index()]
    }

    #[test]
    fn falsified_clause_backtracks_to_its_second_highest_level_and_asserts() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        decide(&mut s, v[0].positive());
        decide(&mut s, v[1].positive());
        decide(&mut s, v[2].positive());
        assert!(s.add_clause(&[v[0].negative(), v[2].negative()]));
        // Levels 1 and 3 are false: unit at level 1, so ¬v2 is asserted there.
        assert_eq!(s.decision_level(), 1);
        assert_eq!(s.value(v[2].negative()), LBool::True);
        assert_eq!(level_of(&s, v[2]), 1);
        assert!(s.reason[v[2].index()].is_some());
        assert_eq!(s.value(v[1].positive()), LBool::Undef);
    }

    #[test]
    fn falsified_clause_with_two_literals_at_the_top_level_is_the_next_conflict() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        assert!(s.add_clause(&[v[1].negative(), v[2].positive()]));
        decide(&mut s, v[0].positive());
        decide(&mut s, v[1].positive()); // implies v2 at level 2
        assert_eq!(level_of(&s, v[2]), 2);
        assert!(s.add_clause(&[v[0].negative(), v[1].negative(), v[2].negative()]));
        // The clause's level stays on the trail.
        assert_eq!(s.decision_level(), 2);
        assert_eq!(s.value(v[2].positive()), LBool::True);
        // The next solve takes the clause as one conflict before any new
        // decision: with no conflict to spare it stops right after it.
        let before = s.stats();
        let mut probe = s.clone();
        probe.set_conflict_budget(Some(0));
        assert_eq!(probe.solve(&[]), SatResult::Unknown);
        assert_eq!(probe.stats().conflicts, before.conflicts + 1);
        assert_eq!(probe.stats().decisions, before.decisions);
        // Resuming from that conflict respects the new clause.
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert_eq!(s.stats().conflicts, before.conflicts + 1);
        assert!(s.model_value(v[0]));
        assert!(!s.model_value(v[1]));
    }

    #[test]
    fn clause_unit_under_the_trail_is_enqueued_at_its_highest_false_level() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        decide(&mut s, v[0].positive());
        decide(&mut s, v[1].positive());
        decide(&mut s, v[2].positive());
        let d = s.new_var();
        assert!(s.add_clause(&[v[0].negative(), v[1].negative(), d.positive()]));
        assert_eq!(s.decision_level(), 2);
        assert_eq!(s.value(d.positive()), LBool::True);
        assert_eq!(level_of(&s, d), 2);
    }

    #[test]
    fn clause_unit_at_the_root_goes_to_level_zero() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        assert!(s.add_clause(&[v[0].negative()]));
        decide(&mut s, v[1].positive());
        decide(&mut s, v[2].positive());
        // v0 is false at level 0, so the clause is the unit v3.
        assert!(s.add_clause(&[v[0].positive(), v[3].positive()]));
        assert_eq!(s.decision_level(), 0);
        assert_eq!(s.value(v[3].positive()), LBool::True);
        assert_eq!(level_of(&s, v[3]), 0);
    }

    #[test]
    fn clause_satisfied_only_above_its_false_level_is_reasserted_there() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        decide(&mut s, v[0].positive());
        decide(&mut s, v[1].positive());
        // ¬v0 is false at level 1, v1 true at level 2: unit at level 1.
        assert!(s.add_clause(&[v[0].negative(), v[1].positive()]));
        assert_eq!(s.decision_level(), 1);
        assert_eq!(s.value(v[1].positive()), LBool::True);
        assert_eq!(level_of(&s, v[1]), 1);
    }

    #[test]
    fn clause_satisfied_below_its_false_level_keeps_the_trail() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        decide(&mut s, v[0].positive());
        decide(&mut s, v[1].positive());
        assert!(s.add_clause(&[v[0].positive(), v[1].negative()]));
        assert_eq!(s.decision_level(), 2);
    }

    #[test]
    fn kept_trail_resumes_only_under_the_same_assumptions() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        assert!(s.add_clause(&[v[0].positive(), v[1].positive(), v[2].positive()]));
        assert_eq!(s.solve(&[v[0].negative()]), SatResult::Sat);
        assert!(s.decision_level() >= 1, "the model's trail is kept");
        let decisions = s.stats().decisions;
        // Same assumptions, nothing changed: the kept trail is the answer.
        assert_eq!(s.solve(&[v[0].negative()]), SatResult::Sat);
        assert_eq!(s.stats().decisions, decisions);
        // Other assumptions start over from the root.
        assert_eq!(s.solve(&[v[0].positive()]), SatResult::Sat);
        assert!(s.model_value(v[0]));
        assert_eq!(s.trail_assumptions, vec![v[0].positive()]);
        // XOR rows are added and retired at the root.
        let (ok, row) = s.add_xor_tracked(&v, true);
        assert!(ok);
        assert_eq!(s.decision_level(), 0);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        s.deactivate_xor(row.expect("stored row"));
        assert_eq!(s.decision_level(), 0);
    }

    #[test]
    fn num_clauses_counts_attached_clauses_only() {
        let mut s = Solver::new();
        let v = vars(&mut s, 10);
        assert!(s.add_xor(&v[..6], true));
        assert!(s.add_xor(&v[3..], false));
        assert!(s.add_xor(&[v[0], v[4], v[8]], true));
        assert!(s.add_clause(&[v[0].positive(), v[9].positive()]));
        assert_eq!(s.num_clauses(), 1);
        // Units and clauses satisfied at level zero are not attached.
        assert!(s.add_clause(&[v[1].positive()]));
        assert!(s.add_clause(&[v[1].positive(), v[2].positive()]));
        assert_eq!(s.num_clauses(), 1);
        // An XOR-heavy enumeration: every blocked model and every learnt
        // clause is one attached clause, and no XOR implication is.  A
        // blocking clause that level-zero values falsify outright is the
        // empty clause: `add_clause` refutes the formula instead, which can
        // only happen to the last model.
        let mut models = 0;
        let mut refuted = 0;
        let mut xor_implied = 0;
        while s.solve(&[]) == SatResult::Sat {
            models += 1;
            xor_implied += s
                .trail
                .iter()
                .filter(|l| matches!(s.reason[l.var().index()], Some(Reason::Xor(_))))
                .count();
            let blocking: Vec<Lit> = v.iter().map(|&x| x.lit(!s.model_value(x))).collect();
            if !s.add_clause(&blocking) {
                refuted += 1;
            }
        }
        let stats = s.stats();
        assert_eq!(models, 48);
        assert!(refuted <= 1);
        assert!(xor_implied >= 2 * models, "{xor_implied} XOR implications");
        assert_eq!(
            s.num_clauses() as u64,
            1 + (models - refuted) as u64 + stats.learnts
        );
    }

    /// The clause the eager engine stored for a row when it reported an
    /// implication of `implied` (that literal first) or a conflict: the
    /// negated values of the row's variables in row order.
    fn eager_clause(row: &[Var], implied: Option<Lit>, s: &Solver) -> Vec<Lit> {
        let mut clause: Vec<Lit> = implied.into_iter().collect();
        for &v in row {
            if Some(v) != implied.map(Lit::var) {
                clause.push(!v.lit(s.value(v.positive()) == LBool::True));
            }
        }
        clause
    }

    /// Checks a rebuilt XOR clause against the row it came from: entailed
    /// by the row (by brute force over all `n` variables), `first` first
    /// with the value `first_true`, every other literal false, and equal
    /// to the eager clause.
    fn check_xor_clause(
        s: &Solver,
        n: usize,
        (row, rhs): &(Vec<Var>, bool),
        first: Option<(Lit, bool)>,
        eager: &[Lit],
    ) {
        let clause = s.xor_clause.clone();
        assert_eq!(clause, eager, "lazy clause differs from the eager one");
        let others = match first {
            Some((lit, first_true)) => {
                assert_eq!(clause[0], lit);
                assert_eq!(s.value(lit) == LBool::True, first_true);
                &clause[1..]
            }
            None => &clause[..],
        };
        assert!(others.iter().all(|&l| s.value(l) == LBool::False));
        for mask in 0u32..1 << n {
            let value = |v: Var| (mask >> v.index()) & 1 == 1;
            let parity = row.iter().fold(false, |acc, &v| acc ^ value(v));
            if parity == *rhs {
                assert!(
                    clause.iter().any(|&l| value(l.var()) == l.is_positive()),
                    "clause {clause:?} is not entailed by its row"
                );
            }
        }
    }

    #[test]
    fn lazy_xor_clauses_match_the_eager_ones() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % bound as u64) as usize
        };
        let (mut reasons, mut failed, mut falsified) = (0, 0, 0);
        for _ in 0..400 {
            let n = 4 + next(9);
            let mut s = Solver::new();
            let v = vars(&mut s, n);
            let mut rows: Vec<(Vec<Var>, bool)> = Vec::new();
            let mut ids = Vec::new();
            for _ in 0..1 + next(5) {
                // Rows of two or more variables are stored as given: no
                // unit ever folds a later row at level zero.
                let row: Vec<Var> = v.iter().copied().filter(|_| next(2) == 0).collect();
                let rhs = next(2) == 0;
                if row.len() >= 2 {
                    let (ok, id) = s.add_xor_tracked(&row, rhs);
                    assert!(ok);
                    ids.push(id.expect("stored row") as u32);
                    rows.push((row, rhs));
                }
            }
            let row_of = |id: u32| &rows[ids.iter().position(|&r| r == id).expect("known row")];
            // The eager reason of every XOR-implied trail literal, taken
            // right after the propagation that implied it.
            let mut eager: Vec<Option<Vec<Lit>>> = vec![None; n];
            while s.decision_level() < n as u32 {
                let free: Vec<Var> = v
                    .iter()
                    .copied()
                    .filter(|x| s.value(x.positive()) == LBool::Undef)
                    .collect();
                if free.is_empty() {
                    break;
                }
                s.trail_lim.push(s.trail.len());
                s.enqueue(free[next(free.len())].lit(next(2) == 0), None);
                match s.propagate() {
                    Some(Conflict::Xor(id, implied)) => {
                        s.explain_xor(id, implied);
                        let expected = eager_clause(&row_of(id).0, implied, &s);
                        check_xor_clause(&s, n, row_of(id), implied.map(|l| (l, false)), &expected);
                        match implied {
                            Some(_) => failed += 1,
                            None => falsified += 1,
                        }
                        break;
                    }
                    Some(Conflict::Clause(_)) => break,
                    None => {}
                }
                for &lit in &s.trail {
                    if let (Some(Reason::Xor(id)), None) =
                        (s.reason[lit.var().index()], &eager[lit.var().index()])
                    {
                        eager[lit.var().index()] = Some(eager_clause(&row_of(id).0, Some(lit), &s));
                    }
                }
                // Every XOR reason on the trail, rebuilt now, still equals
                // the clause taken when it was implied.
                for k in 0..s.trail.len() {
                    let lit = s.trail[k];
                    if let Some(Reason::Xor(id)) = s.reason[lit.var().index()] {
                        s.explain_xor(id, Some(lit));
                        let expected = eager[lit.var().index()].clone().expect("recorded");
                        check_xor_clause(&s, n, row_of(id), Some((lit, true)), &expected);
                        reasons += 1;
                    }
                }
            }
        }
        assert!(
            reasons > 0 && failed > 0 && falsified > 0,
            "{reasons} {failed} {falsified}"
        );
    }

    /// Checks the literal-indexed values against the trail: a variable's
    /// two entries are complementary exactly when it is on the trail (and
    /// its trail literal is the true one) and both `Undef` otherwise, and
    /// `level_zero_value` is assigned exactly for the trail's level-zero
    /// prefix.
    fn check_values(s: &Solver) {
        let n = s.num_vars();
        assert_eq!(s.values.len(), 2 * n);
        let root = s.trail_lim.first().copied().unwrap_or(s.trail.len());
        let mut on_trail = vec![None; n];
        for (i, &lit) in s.trail.iter().enumerate() {
            assert!(
                on_trail[lit.var().index()].is_none(),
                "{lit} twice on the trail"
            );
            on_trail[lit.var().index()] = Some((i, lit));
        }
        for (v, entry) in on_trail.into_iter().enumerate() {
            let var = Var(v as u32);
            let (pos, neg) = (s.values[2 * v], s.values[2 * v + 1]);
            match entry {
                None => assert_eq!((pos, neg), (LBool::Undef, LBool::Undef), "{var}"),
                Some((_, lit)) => {
                    assert_eq!(s.values[lit.code()], LBool::True, "{var}");
                    assert_eq!(s.values[(!lit).code()], LBool::False, "{var}");
                }
            }
            let fixed = match entry {
                Some((i, lit)) if i < root => LBool::from_bool(lit.is_positive()),
                _ => LBool::Undef,
            };
            assert_eq!(s.level_zero_value(var.positive()), fixed, "{var}");
        }
    }

    #[test]
    fn literal_values_agree_with_the_trail_and_the_model() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % bound as u64) as usize
        };
        let (mut models, mut refuted, mut retired) = (0, 0, 0);
        for _ in 0..60 {
            let n = 6 + next(7);
            let mut s = Solver::new();
            let v = vars(&mut s, n);
            let mut rows = Vec::new();
            let mut assumptions: Vec<Lit> = Vec::new();
            for step in 0..60 {
                // The first steps build the formula; later ones mix
                // assumption changes, new clauses and rows, and retired
                // rows into an enumeration.
                match if step < n { 2 } else { next(8) } {
                    0 => {
                        assumptions = (0..next(3)).map(|_| v[next(n)].lit(next(2) == 0)).collect();
                    }
                    1 => {
                        let row: Vec<Var> = v.iter().copied().filter(|_| next(3) == 0).collect();
                        rows.extend(s.add_xor_tracked(&row, next(2) == 0).1);
                    }
                    2 => {
                        let clause: Vec<Lit> = (0..2 + next(2))
                            .map(|_| v[next(n)].lit(next(2) == 0))
                            .collect();
                        s.add_clause(&clause);
                    }
                    3 if !rows.is_empty() => {
                        s.deactivate_xor(rows.swap_remove(next(rows.len())));
                        retired += 1;
                    }
                    _ => {}
                }
                check_values(&s);
                match s.solve(&assumptions) {
                    SatResult::Sat => {
                        models += 1;
                        check_values(&s);
                        let positive: Vec<bool> =
                            (0..n).map(|i| s.values[2 * i] == LBool::True).collect();
                        assert_eq!(s.model(), &positive[..]);
                        let blocking: Vec<Lit> =
                            v.iter().map(|&x| x.lit(!s.model_value(x))).collect();
                        s.add_clause(&blocking);
                    }
                    SatResult::Unsat => refuted += 1,
                    SatResult::Unknown => unreachable!("no budget and no interrupt"),
                }
                check_values(&s);
            }
        }
        assert!(
            models > 0 && refuted > 0 && retired > 0,
            "{models} {refuted} {retired}"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let v = vars(&mut s, 8);
        for w in v.windows(2) {
            s.add_clause(&[w[0].negative(), w[1].positive()]);
        }
        s.add_clause(&[v[0].positive()]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(s.stats().propagations > 0);
    }
}
