//! Native XOR-constraint reasoning.
//!
//! The paper attributes much of `pact`'s performance with the `H_xor` hash
//! family to CryptoMiniSat's built-in XOR engine.  This module provides the
//! same capability for the workspace's own CDCL solver: XOR rows are stored
//! outside the clause database and propagated with a two-watched-variable
//! scheme, so a parity constraint over `k` variables costs one row instead of
//! `2^(k-1)` CNF clauses.

use crate::lit::{LBool, Lit, Var};

/// Outcome of adding an XOR row at decision level zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddXor {
    /// The row was stored under the given engine id (pass it to
    /// [`XorEngine::deactivate`] to retire the row later).
    Stored(usize),
    /// The row was trivially satisfied; nothing was stored.
    Trivial,
    /// The row reduced to a unit literal that must be enqueued by the caller.
    Unit(Lit),
    /// The row reduced to `false`; the formula is unsatisfiable.
    Unsat,
}

/// A propagation or conflict discovered by the XOR engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XorEvent {
    /// `lit` is implied; the attached clause is an entailed reason clause
    /// (the implied literal first, followed by the negations of the assigned
    /// literals of the row).
    Implied {
        /// The implied literal.
        lit: Lit,
        /// Entailed reason clause, suitable for conflict analysis.
        reason: Vec<Lit>,
    },
    /// The row is falsified; the attached clause is an entailed conflict
    /// clause (every literal in it is currently false).
    Conflict(Vec<Lit>),
}

#[derive(Debug, Clone)]
struct XorRow {
    vars: Vec<Var>,
    rhs: bool,
    /// Positions (into `vars`) of the two watched variables.
    watch: [usize; 2],
    /// Deactivated rows are skipped by propagation (and lazily dropped from
    /// the occurrence lists).  Used by activation-literal frames to retire
    /// their hash constraints on `pop` without touching the rest.
    active: bool,
}

/// The XOR engine: a set of parity rows with two watched variables each.
#[derive(Debug, Clone, Default)]
pub struct XorEngine {
    rows: Vec<XorRow>,
    /// For each variable index, the rows currently watching it.
    occurs: Vec<Vec<usize>>,
    /// Slots of deactivated rows, reused by the next [`XorEngine::add_row`]
    /// so long-lived solvers that churn hash frames don't grow `rows`
    /// without bound.
    free: Vec<usize>,
}

impl XorEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        XorEngine::default()
    }

    /// Number of stored active rows (retired slots awaiting reuse are not
    /// counted).
    pub fn len(&self) -> usize {
        self.rows.len() - self.free.len()
    }

    /// Returns `true` when no active rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn grow_to(&mut self, n: usize) {
        if self.occurs.len() < n {
            self.occurs.resize(n, Vec::new());
        }
    }

    /// Adds the parity constraint `vars[0] ^ vars[1] ^ ... = rhs`.
    ///
    /// Must be called at decision level zero.  Repeated variables cancel in
    /// pairs; variables already assigned at level zero are folded into the
    /// right-hand side.
    pub fn add_row(&mut self, vars: &[Var], rhs: bool, assigns: &[LBool]) -> AddXor {
        let mut rhs = rhs;
        let mut reduced: Vec<Var> = Vec::with_capacity(vars.len());
        let mut sorted = vars.to_vec();
        sorted.sort();
        let mut i = 0;
        while i < sorted.len() {
            // Cancel pairs of identical variables (x ^ x = 0).
            if i + 1 < sorted.len() && sorted[i] == sorted[i + 1] {
                i += 2;
                continue;
            }
            let v = sorted[i];
            match assigns.get(v.index()).copied().unwrap_or(LBool::Undef) {
                LBool::True => rhs = !rhs,
                LBool::False => {}
                LBool::Undef => reduced.push(v),
            }
            i += 1;
        }
        match reduced.len() {
            0 => {
                if rhs {
                    AddXor::Unsat
                } else {
                    AddXor::Trivial
                }
            }
            1 => AddXor::Unit(reduced[0].lit(rhs)),
            _ => {
                let max_var = reduced.iter().map(|v| v.index()).max().unwrap_or(0);
                self.grow_to(max_var + 1);
                let (w0, w1) = (reduced[0], reduced[1]);
                let row = XorRow {
                    vars: reduced,
                    rhs,
                    watch: [0, 1],
                    active: true,
                };
                // Reuse a retired slot when one is free so hash-frame churn
                // doesn't grow the row table without bound.
                let row_idx = match self.free.pop() {
                    Some(slot) => {
                        self.rows[slot] = row;
                        slot
                    }
                    None => {
                        self.rows.push(row);
                        self.rows.len() - 1
                    }
                };
                self.occurs[w0.index()].push(row_idx);
                self.occurs[w1.index()].push(row_idx);
                AddXor::Stored(row_idx)
            }
        }
    }

    /// Retires a stored row: it no longer propagates or conflicts, its
    /// occurrence-list entries are purged eagerly, and its slot is queued
    /// for reuse by the next [`XorEngine::add_row`].  Must be called at
    /// decision level zero (`Solver::deactivate_xor` unwinds the kept trail
    /// first) — assignments already on the trail are unaffected.  Deactivating an already-inactive row or an
    /// unknown id is a no-op.
    pub fn deactivate(&mut self, row: usize) {
        let Some(r) = self.rows.get_mut(row) else {
            return;
        };
        if !r.active {
            return;
        }
        r.active = false;
        // Each row holds exactly two occurrence registrations — one per
        // watched variable — so purging those makes the slot safe to reuse.
        // The `!active` check in `on_assign` stays as defense in depth.
        let watched = [r.vars[r.watch[0]], r.vars[r.watch[1]]];
        r.vars = Vec::new();
        for v in watched {
            if let Some(list) = self.occurs.get_mut(v.index()) {
                list.retain(|&x| x != row);
            }
        }
        self.free.push(row);
    }

    /// Notifies the engine that `var` has just been assigned.
    ///
    /// Returns the implied literals and/or conflict discovered in the rows
    /// watching `var`.  Processing stops at the first conflict.
    pub fn on_assign(&mut self, var: Var, assigns: &[LBool]) -> Vec<XorEvent> {
        let mut events = Vec::new();
        if var.index() >= self.occurs.len() {
            return events;
        }
        let watching = std::mem::take(&mut self.occurs[var.index()]);
        let mut keep = Vec::with_capacity(watching.len());
        let mut aborted = Vec::new();
        for (pos, &row_idx) in watching.iter().enumerate() {
            if matches!(events.last(), Some(XorEvent::Conflict(_))) {
                aborted.extend_from_slice(&watching[pos..]);
                break;
            }
            let row = &mut self.rows[row_idx];
            if !row.active {
                // Lazily drop retired rows from the occurrence lists.
                continue;
            }
            let which = if row.vars[row.watch[0]] == var { 0 } else { 1 };
            // Try to move the watch to an unassigned, unwatched variable.
            let other_watch_pos = row.watch[1 - which];
            let mut replaced = false;
            for (i, &v) in row.vars.iter().enumerate() {
                if i == row.watch[which] || i == other_watch_pos {
                    continue;
                }
                if !assigns[v.index()].is_assigned() {
                    row.watch[which] = i;
                    // Register the new watch; drop the old one for this row.
                    let v_idx = v.index();
                    if self.occurs.len() <= v_idx {
                        self.occurs.resize(v_idx + 1, Vec::new());
                    }
                    self.occurs[v_idx].push(row_idx);
                    replaced = true;
                    break;
                }
            }
            if replaced {
                continue;
            }
            keep.push(row_idx);
            let row = &self.rows[row_idx];
            let other = row.vars[other_watch_pos];
            let other_value = assigns[other.index()];
            // Parity of the assigned variables, excluding `other`.  If any
            // other variable is still unassigned the row can neither
            // propagate nor conflict yet.
            let mut parity = false;
            let mut all_assigned = true;
            for &v in &row.vars {
                if v == other {
                    continue;
                }
                match assigns[v.index()] {
                    LBool::True => parity = !parity,
                    LBool::False => {}
                    LBool::Undef => all_assigned = false,
                }
            }
            if !all_assigned {
                continue;
            }
            if other_value == LBool::Undef {
                let needed = row.rhs ^ parity;
                let lit = other.lit(needed);
                let mut reason = vec![lit];
                for &v in &row.vars {
                    if v == other {
                        continue;
                    }
                    let assigned_true = assigns[v.index()] == LBool::True;
                    reason.push(!v.lit(assigned_true));
                }
                events.push(XorEvent::Implied { lit, reason });
            } else {
                let total = parity ^ (other_value == LBool::True);
                if total != row.rhs {
                    let mut conflict = Vec::with_capacity(row.vars.len());
                    for &v in &row.vars {
                        let assigned_true = assigns[v.index()] == LBool::True;
                        conflict.push(!v.lit(assigned_true));
                    }
                    events.push(XorEvent::Conflict(conflict));
                }
            }
        }
        keep.extend(aborted);
        self.occurs[var.index()] = keep;
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assigns(n: usize) -> Vec<LBool> {
        vec![LBool::Undef; n]
    }

    #[test]
    fn add_row_simplifies() {
        let mut eng = XorEngine::new();
        let a = assigns(4);
        // x0 ^ x0 = 1  is unsatisfiable
        assert_eq!(eng.add_row(&[Var(0), Var(0)], true, &a), AddXor::Unsat);
        // x0 ^ x0 = 0 is trivially true
        assert_eq!(eng.add_row(&[Var(0), Var(0)], false, &a), AddXor::Trivial);
        // x1 = 1 reduces to a unit
        assert_eq!(
            eng.add_row(&[Var(1)], true, &a),
            AddXor::Unit(Var(1).positive())
        );
        assert_eq!(
            eng.add_row(&[Var(1)], false, &a),
            AddXor::Unit(Var(1).negative())
        );
        assert!(eng.is_empty());
    }

    #[test]
    fn add_row_folds_level_zero_assignments() {
        let mut eng = XorEngine::new();
        let mut a = assigns(3);
        a[0] = LBool::True;
        // x0 ^ x1 = 0 with x0 = true reduces to x1 = 1.
        assert_eq!(
            eng.add_row(&[Var(0), Var(1)], false, &a),
            AddXor::Unit(Var(1).positive())
        );
    }

    #[test]
    fn propagates_last_unassigned_variable() {
        let mut eng = XorEngine::new();
        let mut a = assigns(3);
        assert_eq!(
            eng.add_row(&[Var(0), Var(1), Var(2)], true, &a),
            AddXor::Stored(0)
        );
        a[0] = LBool::True;
        assert!(eng.on_assign(Var(0), &a).is_empty());
        a[1] = LBool::True;
        let events = eng.on_assign(Var(1), &a);
        assert_eq!(events.len(), 1);
        match &events[0] {
            XorEvent::Implied { lit, reason } => {
                // 1 ^ 1 ^ x2 = 1  =>  x2 = 1
                assert_eq!(*lit, Var(2).positive());
                assert_eq!(reason[0], *lit);
                assert_eq!(reason.len(), 3);
            }
            other => panic!("expected implication, got {other:?}"),
        }
    }

    #[test]
    fn detects_conflicts() {
        let mut eng = XorEngine::new();
        let mut a = assigns(2);
        assert_eq!(eng.add_row(&[Var(0), Var(1)], true, &a), AddXor::Stored(0));
        a[0] = LBool::True;
        // Assign the second watch directly to the conflicting value.
        a[1] = LBool::True;
        let events = eng.on_assign(Var(1), &a);
        assert_eq!(events.len(), 1);
        match &events[0] {
            XorEvent::Conflict(clause) => {
                assert_eq!(clause.len(), 2);
                assert!(clause.contains(&Var(0).negative()));
                assert!(clause.contains(&Var(1).negative()));
            }
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn deactivated_rows_neither_propagate_nor_conflict() {
        let mut eng = XorEngine::new();
        let mut a = assigns(3);
        let row = match eng.add_row(&[Var(0), Var(1), Var(2)], true, &a) {
            AddXor::Stored(id) => id,
            other => panic!("expected a stored row, got {other:?}"),
        };
        eng.deactivate(row);
        // A sequence that would imply (then falsify) the row is ignored.
        a[0] = LBool::True;
        assert!(eng.on_assign(Var(0), &a).is_empty());
        a[1] = LBool::True;
        assert!(eng.on_assign(Var(1), &a).is_empty());
        a[2] = LBool::False; // 1 ^ 1 ^ 0 = 0 ≠ 1 would be a conflict
        assert!(eng.on_assign(Var(2), &a).is_empty());
        // Deactivation is idempotent and tolerates unknown ids.
        eng.deactivate(row);
        eng.deactivate(99);
    }

    #[test]
    fn retired_slots_are_recycled_without_ghost_propagation() {
        let mut eng = XorEngine::new();
        let mut a = assigns(6);
        let row = match eng.add_row(&[Var(0), Var(1), Var(2)], true, &a) {
            AddXor::Stored(id) => id,
            other => panic!("expected a stored row, got {other:?}"),
        };
        assert_eq!(eng.len(), 1);
        eng.deactivate(row);
        assert_eq!(eng.len(), 0);
        assert!(eng.is_empty());
        // The next row takes over the retired slot...
        let reused = match eng.add_row(&[Var(3), Var(4), Var(5)], false, &a) {
            AddXor::Stored(id) => id,
            other => panic!("expected a stored row, got {other:?}"),
        };
        assert_eq!(reused, row);
        assert_eq!(eng.len(), 1);
        // ...and the old row's variables no longer reach it: assigning all
        // of x0..x2 to what would have falsified the retired row is silent.
        a[0] = LBool::True;
        assert!(eng.on_assign(Var(0), &a).is_empty());
        a[1] = LBool::True;
        assert!(eng.on_assign(Var(1), &a).is_empty());
        a[2] = LBool::False;
        assert!(eng.on_assign(Var(2), &a).is_empty());
        // The recycled slot still propagates for its new variables.
        a[3] = LBool::True;
        assert!(eng.on_assign(Var(3), &a).is_empty());
        a[4] = LBool::False;
        let events = eng.on_assign(Var(4), &a);
        assert_eq!(events.len(), 1);
        match &events[0] {
            // x3 ^ x4 ^ x5 = 0 with x3 = 1, x4 = 0  =>  x5 = 1
            XorEvent::Implied { lit, .. } => assert_eq!(*lit, Var(5).positive()),
            other => panic!("expected implication, got {other:?}"),
        }
    }

    #[test]
    fn watch_moves_to_unassigned_variable() {
        let mut eng = XorEngine::new();
        let mut a = assigns(4);
        assert_eq!(
            eng.add_row(&[Var(0), Var(1), Var(2), Var(3)], false, &a),
            AddXor::Stored(0)
        );
        a[0] = LBool::True;
        assert!(eng.on_assign(Var(0), &a).is_empty());
        a[1] = LBool::False;
        assert!(eng.on_assign(Var(1), &a).is_empty());
        a[2] = LBool::False;
        let events = eng.on_assign(Var(2), &a);
        assert_eq!(events.len(), 1);
        match &events[0] {
            XorEvent::Implied { lit, .. } => assert_eq!(*lit, Var(3).positive()),
            other => panic!("expected implication, got {other:?}"),
        }
    }
}
