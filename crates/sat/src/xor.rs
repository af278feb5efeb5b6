//! Native XOR-constraint reasoning.
//!
//! The paper attributes much of `pact`'s performance with the `H_xor` hash
//! family to CryptoMiniSat's built-in XOR engine.  This module provides the
//! same capability for the workspace's own CDCL solver: XOR rows are stored
//! outside the clause database and propagated with a two-watched-variable
//! scheme, so a parity constraint over `k` variables costs one row instead of
//! `2^(k-1)` CNF clauses.
//!
//! Propagation reports only `(implied literal, row)` pairs and the row it
//! falsified; no clause is built.  The solver rebuilds a row's clause with
//! [`XorEngine::explain`] when conflict analysis reads it, the way
//! CryptoMiniSat builds its XOR reasons lazily (Soos, Gocht and Meel,
//! CAV 2020).  That is sound because a row's other variables keep their
//! values for as long as the literal it implied stays on the trail.
//!
//! Every method that reads the assignment takes the solver's
//! literal-indexed values (one entry per [`Lit::code`]) and reads a
//! variable at its positive literal.  The solver asks
//! [`XorEngine::watches`] first and notifies the engine only of variables
//! some row watches.

use crate::lit::{LBool, Lit, Var};

/// Outcome of adding an XOR row at decision level zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddXor {
    /// The row was stored under the given engine id (pass it to
    /// [`XorEngine::deactivate`] to retire the row later).
    Stored(u32),
    /// The row was trivially satisfied; nothing was stored.
    Trivial,
    /// The row reduced to a unit literal that must be enqueued by the caller.
    Unit(Lit),
    /// The row reduced to `false`; the formula is unsatisfiable.
    Unsat,
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
    occurs: Vec<Vec<u32>>,
    /// Slots of deactivated rows, reused by the next [`XorEngine::add_row`]
    /// so long-lived solvers that churn hash frames don't grow `rows`
    /// without bound.
    free: Vec<u32>,
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
    pub fn add_row(&mut self, vars: &[Var], rhs: bool, values: &[LBool]) -> AddXor {
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
            match values
                .get(v.positive().code())
                .copied()
                .unwrap_or(LBool::Undef)
            {
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
                        self.rows[slot as usize] = row;
                        slot
                    }
                    None => {
                        self.rows.push(row);
                        u32::try_from(self.rows.len() - 1).expect("XOR row ids fit in u32")
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
    /// first) — assignments already on the trail are unaffected.
    /// Deactivating an already-inactive row or an unknown id is a no-op.
    pub fn deactivate(&mut self, row: u32) {
        let Some(r) = self.rows.get_mut(row as usize) else {
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

    /// Whether any row watches `var`: [`XorEngine::on_assign`] has nothing
    /// to do for a variable that none does.
    pub fn watches(&self, var: Var) -> bool {
        self.occurs
            .get(var.index())
            .is_some_and(|rows| !rows.is_empty())
    }

    /// Notifies the engine that `var` has just been assigned.
    ///
    /// Appends an `(implied literal, row)` pair to `implied` for every row
    /// watching `var` that became unit, in occurrence-list order, and
    /// returns the row the assignment falsified, if any; processing stops
    /// at that row.  [`XorEngine::explain`] rebuilds the clause behind
    /// either.  The occurrence list of `var` is compacted in place.
    pub fn on_assign(
        &mut self,
        var: Var,
        values: &[LBool],
        implied: &mut Vec<(Lit, u32)>,
    ) -> Option<u32> {
        let mut watching = std::mem::take(self.occurs.get_mut(var.index())?);
        let mut kept = 0;
        let mut next = 0;
        let mut falsified = None;
        while next < watching.len() {
            let row_idx = watching[next];
            next += 1;
            let row = &mut self.rows[row_idx as usize];
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
                if !values[v.positive().code()].is_assigned() {
                    // Register the new watch; the old one for this row is
                    // dropped by not keeping it below.
                    row.watch[which] = i;
                    self.occurs[v.index()].push(row_idx);
                    replaced = true;
                    break;
                }
            }
            if replaced {
                continue;
            }
            watching[kept] = row_idx;
            kept += 1;
            let other = row.vars[other_watch_pos];
            let other_value = values[other.positive().code()];
            // Parity of the assigned variables, excluding `other`.  If any
            // other variable is still unassigned the row can neither
            // propagate nor conflict yet.
            let mut parity = false;
            let mut all_assigned = true;
            for &v in &row.vars {
                if v == other {
                    continue;
                }
                match values[v.positive().code()] {
                    LBool::True => parity = !parity,
                    LBool::False => {}
                    LBool::Undef => all_assigned = false,
                }
            }
            if !all_assigned {
                continue;
            }
            if other_value == LBool::Undef {
                implied.push((other.lit(row.rhs ^ parity), row_idx));
            } else if parity ^ (other_value == LBool::True) != row.rhs {
                falsified = Some(row_idx);
                break;
            }
        }
        // Rows after a falsified one were not visited: they keep watching.
        let unvisited = watching.len() - next;
        watching.copy_within(next.., kept);
        watching.truncate(kept + unvisited);
        self.occurs[var.index()] = watching;
        falsified
    }

    /// Writes the clause of `row` under the current assignment into `out`.
    ///
    /// With `implied`, the clause is that literal followed by the negated
    /// values of the row's other variables in row order: the reason of an
    /// implication, or the conflict when the implied literal was already
    /// false.  Without it, the clause is the negated values of all the
    /// row's variables in row order: the conflict of a falsified row.
    /// Either clause is entailed by the row.  `row` must not have been
    /// deactivated since it reported the implication or conflict.
    pub fn explain(&self, row: u32, implied: Option<Lit>, values: &[LBool], out: &mut Vec<Lit>) {
        out.clear();
        out.extend(implied);
        let skip = implied.map(Lit::var);
        for &v in &self.rows[row as usize].vars {
            if Some(v) != skip {
                out.push(!v.lit(values[v.positive().code()] == LBool::True));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Literal-indexed values (see [`Lit::code`]) of `n` unassigned
    /// variables.
    fn assigns(n: usize) -> Vec<LBool> {
        vec![LBool::Undef; 2 * n]
    }

    /// Assigns `Var(v)` the value `b` in literal-indexed values.
    fn set(a: &mut [LBool], v: u32, b: bool) {
        let lit = Var(v).lit(b);
        a[lit.code()] = LBool::True;
        a[(!lit).code()] = LBool::False;
    }

    /// Runs `on_assign` for `var`; returns the implications and the
    /// falsified row.
    fn notify(eng: &mut XorEngine, var: Var, a: &[LBool]) -> (Vec<(Lit, u32)>, Option<u32>) {
        let mut implied = Vec::new();
        let falsified = eng.on_assign(var, a, &mut implied);
        (implied, falsified)
    }

    fn silent(eng: &mut XorEngine, var: Var, a: &[LBool]) -> bool {
        notify(eng, var, a) == (Vec::new(), None)
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
        set(&mut a, 0, true);
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
        set(&mut a, 0, true);
        assert!(silent(&mut eng, Var(0), &a));
        set(&mut a, 1, true);
        // 1 ^ 1 ^ x2 = 1  =>  x2 = 1
        let (implied, falsified) = notify(&mut eng, Var(1), &a);
        assert_eq!(implied, vec![(Var(2).positive(), 0)]);
        assert_eq!(falsified, None);
        // The reason: the implied literal, then the other variables'
        // negated values in row order.
        let mut reason = Vec::new();
        eng.explain(0, Some(Var(2).positive()), &a, &mut reason);
        assert_eq!(
            reason,
            vec![Var(2).positive(), Var(0).negative(), Var(1).negative()]
        );
    }

    #[test]
    fn detects_conflicts() {
        let mut eng = XorEngine::new();
        let mut a = assigns(2);
        assert_eq!(eng.add_row(&[Var(0), Var(1)], true, &a), AddXor::Stored(0));
        set(&mut a, 0, true);
        // Assign the second watch directly to the conflicting value.
        set(&mut a, 1, true);
        assert_eq!(notify(&mut eng, Var(1), &a), (Vec::new(), Some(0)));
        let mut conflict = Vec::new();
        eng.explain(0, None, &a, &mut conflict);
        assert_eq!(conflict, vec![Var(0).negative(), Var(1).negative()]);
    }

    #[test]
    fn rows_after_a_falsified_row_keep_their_watch() {
        let mut eng = XorEngine::new();
        let mut a = assigns(3);
        assert_eq!(eng.add_row(&[Var(0), Var(1)], true, &a), AddXor::Stored(0));
        assert_eq!(eng.add_row(&[Var(0), Var(2)], true, &a), AddXor::Stored(1));
        set(&mut a, 1, true);
        set(&mut a, 0, true);
        // Row 0 is falsified first; row 1 is not visited.
        assert_eq!(notify(&mut eng, Var(0), &a), (Vec::new(), Some(0)));
        // Both still watch x0: a second notification reaches row 1 too.
        let (implied, falsified) = notify(&mut eng, Var(0), &a);
        assert_eq!(falsified, Some(0));
        assert!(implied.is_empty());
        set(&mut a, 1, false);
        assert_eq!(
            notify(&mut eng, Var(0), &a),
            (vec![(Var(2).negative(), 1)], None)
        );
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
        set(&mut a, 0, true);
        assert!(silent(&mut eng, Var(0), &a));
        set(&mut a, 1, true);
        assert!(silent(&mut eng, Var(1), &a));
        set(&mut a, 2, false); // 1 ^ 1 ^ 0 = 0 ≠ 1 would be a conflict
        assert!(silent(&mut eng, Var(2), &a));
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
        set(&mut a, 0, true);
        assert!(silent(&mut eng, Var(0), &a));
        set(&mut a, 1, true);
        assert!(silent(&mut eng, Var(1), &a));
        set(&mut a, 2, false);
        assert!(silent(&mut eng, Var(2), &a));
        // The recycled slot still propagates for its new variables.
        set(&mut a, 3, true);
        assert!(silent(&mut eng, Var(3), &a));
        set(&mut a, 4, false);
        // x3 ^ x4 ^ x5 = 0 with x3 = 1, x4 = 0  =>  x5 = 1
        assert_eq!(
            notify(&mut eng, Var(4), &a),
            (vec![(Var(5).positive(), reused)], None)
        );
    }

    #[test]
    fn watch_moves_to_unassigned_variable() {
        let mut eng = XorEngine::new();
        let mut a = assigns(4);
        assert_eq!(
            eng.add_row(&[Var(0), Var(1), Var(2), Var(3)], false, &a),
            AddXor::Stored(0)
        );
        set(&mut a, 0, true);
        assert!(silent(&mut eng, Var(0), &a));
        set(&mut a, 1, false);
        assert!(silent(&mut eng, Var(1), &a));
        set(&mut a, 2, false);
        assert_eq!(
            notify(&mut eng, Var(2), &a),
            (vec![(Var(3).positive(), 0)], None)
        );
    }
}
