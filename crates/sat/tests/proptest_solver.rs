//! Property-based tests: the CDCL solver (with and without native XOR rows)
//! must agree with a brute-force evaluator on random small formulas.

use proptest::prelude::*;

use pact_sat::{SatResult, Solver, Var};

const NUM_VARS: usize = 6;

/// A random instance description: clauses are literal lists (variable index,
/// polarity); XOR rows are variable sets with a parity bit.
#[derive(Debug, Clone)]
struct RandomInstance {
    clauses: Vec<Vec<(usize, bool)>>,
    xors: Vec<(Vec<usize>, bool)>,
}

fn instance_strategy() -> impl Strategy<Value = RandomInstance> {
    let clause = proptest::collection::vec((0..NUM_VARS, any::<bool>()), 1..4);
    let clauses = proptest::collection::vec(clause, 0..12);
    let xor = (proptest::collection::vec(0..NUM_VARS, 1..5), any::<bool>());
    let xors = proptest::collection::vec(xor, 0..4);
    (clauses, xors).prop_map(|(clauses, xors)| RandomInstance { clauses, xors })
}

/// Evaluates the instance under an assignment given as a bit mask.
fn holds(instance: &RandomInstance, mask: u32) -> bool {
    let value = |v: usize| (mask >> v) & 1 == 1;
    for clause in &instance.clauses {
        if !clause.iter().any(|&(v, pos)| value(v) == pos) {
            return false;
        }
    }
    for (vars, rhs) in &instance.xors {
        let parity = vars.iter().fold(false, |acc, &v| acc ^ value(v));
        if parity != *rhs {
            return false;
        }
    }
    true
}

fn brute_force_satisfiable(instance: &RandomInstance) -> bool {
    (0..(1u32 << NUM_VARS)).any(|mask| holds(instance, mask))
}

fn build_solver(instance: &RandomInstance) -> (Solver, Vec<Var>) {
    let mut solver = Solver::new();
    let vars: Vec<Var> = (0..NUM_VARS).map(|_| solver.new_var()).collect();
    for clause in &instance.clauses {
        let lits: Vec<_> = clause.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
        solver.add_clause(&lits);
    }
    for (xvars, rhs) in &instance.xors {
        let xs: Vec<Var> = xvars.iter().map(|&v| vars[v]).collect();
        solver.add_xor(&xs, *rhs);
    }
    (solver, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_verdict_matches_brute_force(instance in instance_strategy()) {
        let expected = brute_force_satisfiable(&instance);
        let (mut solver, vars) = build_solver(&instance);
        match solver.solve(&[]) {
            SatResult::Sat => {
                prop_assert!(expected, "solver found a model for an unsatisfiable instance");
                // The reported model must actually satisfy the instance.
                let mut mask = 0u32;
                for (i, v) in vars.iter().enumerate() {
                    if solver.model_value(*v) {
                        mask |= 1 << i;
                    }
                }
                prop_assert!(holds(&instance, mask), "reported model does not satisfy the formula");
            }
            SatResult::Unsat => prop_assert!(!expected, "solver reported unsat on a satisfiable instance"),
            SatResult::Unknown => prop_assert!(false, "no budget was set, unknown is impossible"),
        }
    }

    #[test]
    fn model_count_by_blocking_matches_brute_force(instance in instance_strategy()) {
        let expected: u32 = (0..(1u32 << NUM_VARS)).filter(|&m| holds(&instance, m)).count() as u32;
        let (mut solver, vars) = build_solver(&instance);
        let mut found = 0u32;
        while solver.solve(&[]) == SatResult::Sat {
            found += 1;
            prop_assert!(found <= 1 << NUM_VARS, "enumeration does not terminate");
            let blocking: Vec<_> = vars
                .iter()
                .map(|&v| v.lit(!solver.model_value(v)))
                .collect();
            solver.add_clause(&blocking);
        }
        prop_assert_eq!(found, expected);
    }

    #[test]
    fn solving_under_assumptions_matches_conditioned_brute_force(
        instance in instance_strategy(),
        assumption_mask in 0u32..(1 << NUM_VARS),
        assumed_vars in proptest::collection::vec(0..NUM_VARS, 0..3),
    ) {
        let (mut solver, vars) = build_solver(&instance);
        let assumptions: Vec<_> = assumed_vars
            .iter()
            .map(|&v| vars[v].lit((assumption_mask >> v) & 1 == 1))
            .collect();
        let expected = (0..(1u32 << NUM_VARS)).any(|mask| {
            holds(&instance, mask)
                && assumed_vars
                    .iter()
                    .all(|&v| (mask >> v) & 1 == (assumption_mask >> v) & 1)
        });
        match solver.solve(&assumptions) {
            SatResult::Sat => prop_assert!(expected),
            SatResult::Unsat => prop_assert!(!expected),
            SatResult::Unknown => prop_assert!(false, "no budget was set, unknown is impossible"),
        }
        // The solver must remain usable after an assumption-based query.
        let unconditioned = solver.solve(&[]);
        prop_assert_eq!(unconditioned == SatResult::Sat, brute_force_satisfiable(&instance));
    }
}

/// A change made between two enumeration steps (see
/// `enumeration_with_interleaved_changes_matches_brute_force`).  Each one
/// follows the blocking clause of the model just found, so it usually
/// meets a blocking clause still pending as the next solve's conflict.
#[derive(Debug, Clone)]
struct Event {
    /// 0 lemma falsified by the last model, 1 unit, 2 arbitrary clause,
    /// 3 permanent XOR row, 4 guarded XOR row, 5 retire the newest guarded
    /// row, 6 replace the assumptions, 7 two lemmas falsified by the last
    /// model, 8 a solve with a conflict budget of 0.
    kind: u8,
    lits: Vec<(usize, bool)>,
    flag: bool,
}

fn event_strategy() -> impl Strategy<Value = Vec<Event>> {
    let lits = proptest::collection::vec((0..NUM_VARS, any::<bool>()), 1..4);
    let event =
        (0u8..9, lits, any::<bool>()).prop_map(|(kind, lits, flag)| Event { kind, lits, flag });
    proptest::collection::vec(event, 0..8)
}

/// A guarded XOR row as the incremental oracle builds it: the row carries a
/// slack bit, `¬act ∨ ¬slack` ties it to an activation literal that is
/// assumed while the row is live, and retiring asserts `¬act` and
/// deactivates the row.
struct Guarded {
    act: Var,
    row: Option<usize>,
    /// Index of the row in the reference instance's `xors`.
    reference: usize,
}

/// The reference formula: the instance's clauses and rows (retired guarded
/// rows are removed), the blocked projections and the assumptions.
struct Reference {
    instance: RandomInstance,
    retired: Vec<usize>,
    projection: u32,
    blocked: Vec<u32>,
    assumed: Vec<(usize, bool)>,
}

impl Reference {
    fn holds(&self, mask: u32) -> bool {
        let live = RandomInstance {
            clauses: self.instance.clauses.clone(),
            xors: self
                .instance
                .xors
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.retired.contains(i))
                .map(|(_, row)| row.clone())
                .collect(),
        };
        holds(&live, mask)
            && self
                .assumed
                .iter()
                .all(|&(v, pos)| ((mask >> v) & 1 == 1) == pos)
    }

    /// Checks the solver's model against the formula of its moment and
    /// against the projections blocked so far, blocks its projection in
    /// the solver and returns the model as a mask.
    fn block(&mut self, solver: &mut Solver, vars: &[Var]) -> u32 {
        let mut mask = 0u32;
        for (i, v) in vars.iter().enumerate() {
            if solver.model_value(*v) {
                mask |= 1 << i;
            }
        }
        assert!(self.holds(mask), "model {mask:#b} violates the formula");
        let projected = mask & self.projection;
        assert!(
            !self.blocked.contains(&projected),
            "projection {projected:#b} returned twice"
        );
        self.blocked.push(projected);
        assert!(
            self.blocked.len() <= 1 << NUM_VARS,
            "enumeration does not terminate"
        );
        let blocking: Vec<_> = (0..NUM_VARS)
            .filter(|&v| (self.projection >> v) & 1 == 1)
            .map(|v| vars[v].lit((mask >> v) & 1 == 0))
            .collect();
        solver.add_clause(&blocking);
        mask
    }

    /// After an `Unsat` answer: every projection the current formula
    /// allows under the current assumptions has been enumerated.
    fn assert_exhausted(&self) {
        for mask in 0..(1u32 << NUM_VARS) {
            if self.holds(mask) {
                let projected = mask & self.projection;
                assert!(
                    self.blocked.contains(&projected),
                    "projection {projected:#b} never enumerated"
                );
            }
        }
    }
}

/// Keeps at most the two lowest set bits of a projection mask.
fn narrowed(mask: u32) -> u32 {
    let low = mask & mask.wrapping_neg();
    let rest = mask & !low;
    low | (rest & rest.wrapping_neg())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Enumerates projected models by blocking clauses while the kept trail
    /// of each model is reused, interleaving lemma clauses, units, XOR rows,
    /// row retirement, assumption changes and solves with no conflict to
    /// spare.  A narrowed projection blocks over at most two variables, so
    /// its blocking clause is often falsified below the model's top level.
    /// Every model must satisfy the formula of its moment, no projection
    /// may come back once blocked, and every `Unsat` answer must come only
    /// once every projection the formula allows was enumerated.
    #[test]
    fn enumeration_with_interleaved_changes_matches_brute_force(
        instance in instance_strategy(),
        projection_mask in 1u32..(1 << NUM_VARS),
        narrow in any::<bool>(),
        assumed in proptest::collection::vec((0..NUM_VARS, any::<bool>()), 0..3),
        events in event_strategy(),
    ) {
        let (mut solver, vars) = build_solver(&instance);
        let projection = if narrow { narrowed(projection_mask) } else { projection_mask };
        let mut reference =
            Reference { instance, retired: Vec::new(), projection, blocked: Vec::new(), assumed };
        let mut guarded: Vec<Guarded> = Vec::new();
        let mut events = events.into_iter();
        let mut last_model = 0u32;
        let assumptions = |reference: &Reference, guarded: &[Guarded]| {
            let mut lits: Vec<_> =
                reference.assumed.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
            lits.extend(guarded.iter().map(|g| g.act.positive()));
            lits
        };
        loop {
            let verdict = solver.solve(&assumptions(&reference, &guarded));
            match verdict {
                SatResult::Sat => last_model = reference.block(&mut solver, &vars),
                SatResult::Unsat => reference.assert_exhausted(),
                SatResult::Unknown => prop_assert!(false, "no budget was set, unknown is impossible"),
            }
            let Some(event) = events.next() else {
                if verdict == SatResult::Unsat {
                    break;
                }
                continue;
            };
            let lits = |pos: &dyn Fn(usize, bool) -> bool| -> Vec<(usize, bool)> {
                event.lits.iter().map(|&(v, p)| (v, pos(v, p))).collect()
            };
            let mut add_clause = |solver: &mut Solver, clause: Vec<(usize, bool)>| {
                let sat_lits: Vec<_> = clause.iter().map(|&(v, p)| vars[v].lit(p)).collect();
                solver.add_clause(&sat_lits);
                reference.instance.clauses.push(clause);
            };
            // Every literal false under the last model.
            let lemma = lits(&|v, _| (last_model >> v) & 1 == 0);
            match event.kind {
                0 => add_clause(&mut solver, lemma),
                1 => add_clause(&mut solver, lits(&|_, p| p)[..1].to_vec()),
                2 => add_clause(&mut solver, lits(&|_, p| p)),
                3 => {
                    let row: Vec<usize> = event.lits.iter().map(|&(v, _)| v).collect();
                    let xs: Vec<Var> = row.iter().map(|&v| vars[v]).collect();
                    solver.add_xor(&xs, event.flag);
                    reference.instance.xors.push((row, event.flag));
                }
                4 => {
                    let row: Vec<usize> = event.lits.iter().map(|&(v, _)| v).collect();
                    let slack = solver.new_var();
                    let act = solver.new_var();
                    let mut xs: Vec<Var> = row.iter().map(|&v| vars[v]).collect();
                    xs.push(slack);
                    let (_, id) = solver.add_xor_tracked(&xs, event.flag);
                    solver.add_clause(&[act.negative(), slack.negative()]);
                    guarded.push(Guarded { act, row: id, reference: reference.instance.xors.len() });
                    reference.instance.xors.push((row, event.flag));
                }
                5 => {
                    if let Some(g) = guarded.pop() {
                        solver.add_clause(&[g.act.negative()]);
                        if let Some(id) = g.row {
                            solver.deactivate_xor(id);
                        }
                        reference.retired.push(g.reference);
                    }
                }
                6 => {
                    let keep = if event.flag { 2 } else { 0 };
                    reference.assumed = event.lits.iter().take(keep).copied().collect();
                }
                7 => {
                    // The second lemma arrives while the first may be pending.
                    let rest = lemma[1..].to_vec();
                    add_clause(&mut solver, lemma);
                    if !rest.is_empty() {
                        add_clause(&mut solver, rest);
                    }
                }
                _ => {
                    // With no conflict to spare, a pending conflict ends the
                    // call as `Unknown`; the solver must stay usable.
                    solver.set_conflict_budget(Some(0));
                    match solver.solve(&assumptions(&reference, &guarded)) {
                        SatResult::Sat => last_model = reference.block(&mut solver, &vars),
                        SatResult::Unsat => reference.assert_exhausted(),
                        SatResult::Unknown => {}
                    }
                    solver.set_conflict_budget(None);
                }
            }
        }
        // The solver ran dry under the final assumptions.
        reference.assert_exhausted();
    }
}
