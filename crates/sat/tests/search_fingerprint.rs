//! Search fingerprint: a fixed, seeded CNF + XOR enumeration whose exact
//! work counters and model sequence are pinned.
//!
//! The run exercises every path the counting engine drives through the
//! kernel: activation-literal frames whose XOR rows carry a slack bit
//! guarded by the frame literal, model enumeration by guarded blocking
//! clauses (each blocked model resumes from the kept trail), an
//! assumption change inside a frame, and frame retirement by a unit clause
//! plus `deactivate_xor`.  A storage or buffer change to the solver must
//! leave watch-visiting order, propagation order and reason-literal order
//! alone, so every figure below stays exactly as it is; a change that
//! alters the search on purpose re-captures them and says so.

use pact_sat::{Lit, SatResult, SatStats, Solver, Var};

/// xorshift64: a deterministic stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bit(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

const VARS: usize = 48;
const PROJECTION: usize = 14;
const BASE_CLAUSES: usize = 175;
const FRAMES: usize = 6;
const MODELS_PER_FRAME: usize = 8;
/// Marks an `Unsat` answer of a frame's assumption-change query.
const UNSAT: u32 = u32::MAX;

/// Runs the fixed enumeration; returns the solver's counters and the
/// sequence of projected models (plus one entry per assumption-change
/// query).
fn run() -> (SatStats, Vec<u32>) {
    let mut rng = Rng(0x5eed_0021_c0de_f00d);
    let mut s = Solver::new();
    let x: Vec<Var> = (0..VARS).map(|_| s.new_var()).collect();
    for _ in 0..BASE_CLAUSES {
        let mut lits: Vec<Lit> = Vec::new();
        while lits.len() < 3 {
            let v = x[rng.below(VARS)];
            if lits.iter().all(|l| l.var() != v) {
                lits.push(v.lit(rng.bit()));
            }
        }
        assert!(s.add_clause(&lits));
    }
    // Two unguarded rows over the non-projected variables, so XOR
    // implications also fire below the frames.
    for _ in 0..2 {
        let vars: Vec<Var> = x[PROJECTION..]
            .iter()
            .copied()
            .filter(|_| rng.bit())
            .collect();
        assert!(s.add_xor(&vars, rng.bit()));
    }

    let mut sequence = Vec::new();
    for frame in 0..FRAMES {
        let act = s.new_var();
        let mut rows = Vec::new();
        for _ in 0..(3 + frame % 3) {
            let slack = s.new_var();
            let mut vars: Vec<Var> = x[..PROJECTION]
                .iter()
                .copied()
                .filter(|_| rng.bit())
                .collect();
            vars.push(slack);
            let (ok, row) = s.add_xor_tracked(&vars, rng.bit());
            assert!(ok);
            rows.extend(row);
            assert!(s.add_clause(&[act.negative(), slack.negative()]));
        }
        let mut found = 0;
        while found < MODELS_PER_FRAME && s.solve(&[act.positive()]) == SatResult::Sat {
            let mut mask = 0u32;
            let mut blocking = vec![act.negative()];
            for (i, &v) in x[..PROJECTION].iter().enumerate() {
                let value = s.model_value(v);
                if value {
                    mask |= 1 << i;
                }
                blocking.push(v.lit(!value));
            }
            sequence.push(mask);
            s.add_clause(&blocking);
            found += 1;
        }
        // An assumption change inside the frame starts over from the root.
        let pin = x[rng.below(PROJECTION)].lit(rng.bit());
        sequence.push(match s.solve(&[act.positive(), pin]) {
            SatResult::Sat => (0..PROJECTION)
                .filter(|&i| s.model_value(x[i]))
                .fold(0, |m, i| m | 1 << i),
            _ => UNSAT,
        });
        // Retire the frame the way `pop` does.
        assert!(s.add_clause(&[act.negative()]));
        for row in rows {
            s.deactivate_xor(row);
        }
    }
    (s.stats(), sequence)
}

/// The model sequence captured when a blocking clause falsified at its top
/// level became the next solve's first conflict (before that it unwound its
/// level, and the sequence began the same eight models).
const PINNED_SEQUENCE: [u32; 54] = [
    13818, 12432, 13488, 13552, 14018, 14276, 14160, 10400, UNSAT, 8616, 10024, 10156, 9387, 14247,
    14004, 13409, 13891, UNSAT, 2209, 13984, 14006, 14261, 14243, 13779, 13520, 13409, UNSAT,
    13816, 13819, 13690, 14171, 14298, 8361, 8616, 8489, 12689, 13489, 13649, 13776, 13523, 14260,
    14007, 13411, 14298, UNSAT, 8320, 9001, 8489, 13632, 14144, 14183, 14288, 13776, 14298,
];

#[test]
fn seeded_enumeration_keeps_its_search() {
    let (stats, sequence) = run();
    assert_eq!(sequence, PINNED_SEQUENCE);
    assert_eq!(stats.conflicts, 495);
    assert_eq!(stats.decisions, 1100);
    assert_eq!(stats.propagations, 9832);
    assert_eq!(stats.restarts, 0);
    assert_eq!(stats.learnts, 495);
    assert_eq!(run(), (stats, sequence), "the run is deterministic");
}
