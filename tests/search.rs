//! Pinned outcomes of the counting search.
//!
//! The boundary search may change how many cells it measures and how many
//! oracle calls each cell costs (leapfrogging from round 0's boundary,
//! reusing the models of a nested exact cell), but never what it concludes:
//! the estimate, the number of successful rounds and the final hash count
//! of every count below were captured before those optimisations and must
//! not move.  The oracle-call counts captured alongside are ceilings.

use pact::{CountOutcome, CountReport, HashFamily, Session};
use pact_benchgen::{cps_robustness, GenParams};
use pact_ir::{Rational, Sort, TermId, TermManager};

/// One pinned count: family, seed, the estimate's bits, `iterations`,
/// `final_hash_count` and the oracle-call ceiling.
type Pin = (HashFamily, u64, u64, u32, u32, u64);

const XOR: HashFamily = HashFamily::Xor;
const PRIME: HashFamily = HashFamily::Prime;
const SHIFT: HashFamily = HashFamily::Shift;

/// Counts with `iterations_override: Some(5)` on one thread and checks every
/// pin; returns the reports for instance-specific checks.
fn check(
    name: &str,
    tm: &TermManager,
    formula: &[TermId],
    projection: &[TermId],
    pins: &[Pin],
) -> Vec<CountReport> {
    pins.iter()
        .map(
            |&(family, seed, bits, iterations, final_hash_count, ceiling)| {
                let mut session = Session::builder(tm.clone())
                    .assert_all(formula)
                    .project_all(projection)
                    .family(family)
                    .seed(seed)
                    .iterations(5)
                    .threads(1)
                    .build()
                    .unwrap();
                let report = session.count().unwrap();
                let case = format!("{name}, {family}, seed {seed}");
                let expected = f64::from_bits(bits);
                assert_eq!(
                    report.outcome,
                    CountOutcome::Approximate {
                        estimate: expected,
                        log2_estimate: expected.log2(),
                    },
                    "{case}"
                );
                assert_eq!(report.stats.iterations, iterations, "{case}");
                assert_eq!(report.stats.final_hash_count, final_hash_count, "{case}");
                assert!(
                    report.stats.oracle_calls <= ceiling,
                    "{case}: {} oracle calls, pinned ceiling {ceiling}",
                    report.stats.oracle_calls
                );
                report
            },
        )
        .collect()
}

/// Asserts some XOR count issued strictly fewer oracle calls than its
/// ceiling.  These XOR boundaries lie deeper than 1, so the probes below a
/// small cell reuse its models and later rounds skip the gallop.
fn assert_xor_calls_dropped(name: &str, reports: &[CountReport], pins: &[Pin]) {
    assert!(
        reports
            .iter()
            .zip(pins)
            .any(|(report, pin)| pin.0 == XOR && report.stats.oracle_calls < pin.5),
        "{name}: no XOR count issued fewer oracle calls than pinned"
    );
}

#[test]
fn interval_counts_match_the_pinned_search() {
    // 10-bit x < 700: 700 projected models.
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(10));
    let k = tm.mk_bv_const(700, 10);
    let f = tm.mk_bv_ult(x, k).unwrap();
    let pins: [Pin; 12] = [
        (XOR, 1, 0x4086000000000000, 5, 4, 1389),
        (XOR, 2, 0x4086000000000000, 5, 4, 1393),
        (XOR, 3, 0x4086000000000000, 5, 4, 1388),
        (XOR, 4, 0x4086000000000000, 5, 4, 1399),
        (PRIME, 1, 0x4086500000000000, 5, 1, 650),
        (PRIME, 2, 0x4086500000000000, 5, 1, 649),
        (PRIME, 3, 0x4086500000000000, 5, 1, 650),
        (PRIME, 4, 0x4085c80000000000, 5, 1, 649),
        (SHIFT, 1, 0x4086000000000000, 5, 1, 665),
        (SHIFT, 2, 0x4087000000000000, 5, 1, 670),
        (SHIFT, 3, 0x4086000000000000, 5, 1, 666),
        (SHIFT, 4, 0x4086000000000000, 5, 1, 668),
    ];
    let reports = check("x < 700", &tm, &[f], &[x], &pins);
    assert_xor_calls_dropped("x < 700", &reports, &pins);
}

#[test]
fn hybrid_counts_match_the_pinned_search() {
    // 8-bit b ≥ 32 with a real side constraint 0 < r < 1: 224 projected
    // models over {b}.
    let mut tm = TermManager::new();
    let b = tm.mk_var("b", Sort::BitVec(8));
    let r = tm.mk_var("r", Sort::Real);
    let c = tm.mk_bv_const(32, 8);
    let f1 = tm.mk_bv_ule(c, b).unwrap();
    let zero = tm.mk_real_const(Rational::ZERO);
    let one = tm.mk_real_const(Rational::ONE);
    let f2 = tm.mk_real_lt(zero, r).unwrap();
    let f3 = tm.mk_real_lt(r, one).unwrap();
    let pins: [Pin; 12] = [
        (XOR, 1, 0x406c000000000000, 5, 2, 723),
        (XOR, 2, 0x406c000000000000, 5, 2, 723),
        (XOR, 3, 0x406c000000000000, 5, 2, 723),
        (XOR, 4, 0x406c000000000000, 5, 2, 723),
        (PRIME, 1, 0x406b000000000000, 5, 1, 735),
        (PRIME, 2, 0x406b000000000000, 5, 1, 712),
        (PRIME, 3, 0x406b000000000000, 5, 1, 734),
        (PRIME, 4, 0x406b000000000000, 5, 1, 712),
        (SHIFT, 1, 0x406b800000000000, 5, 1, 803),
        (SHIFT, 2, 0x406c000000000000, 5, 1, 818),
        (SHIFT, 3, 0x406c000000000000, 5, 1, 806),
        (SHIFT, 4, 0x406c000000000000, 5, 1, 814),
    ];
    let reports = check("hybrid", &tm, &[f1, f2, f3], &[b], &pins);
    assert_xor_calls_dropped("hybrid", &reports, &pins);
}

#[test]
fn cps_counts_match_the_pinned_search() {
    // The CPS robustness generator: an 8-bit attack command under real and
    // floating-point side constraints.
    let instance = cps_robustness(&GenParams {
        scale: 1,
        width: 8,
        seed: 4,
    });
    let pins: [Pin; 12] = [
        (XOR, 1, 0x406b800000000000, 5, 2, 719),
        (XOR, 2, 0x406b800000000000, 5, 2, 719),
        (XOR, 3, 0x406b800000000000, 5, 2, 719),
        (XOR, 4, 0x406b800000000000, 5, 2, 719),
        (PRIME, 1, 0x406aa00000000000, 5, 1, 722),
        (PRIME, 2, 0x406aa00000000000, 5, 1, 724),
        (PRIME, 3, 0x406aa00000000000, 5, 1, 730),
        (PRIME, 4, 0x406a400000000000, 5, 1, 709),
        (SHIFT, 1, 0x406a000000000000, 5, 1, 785),
        (SHIFT, 2, 0x406a000000000000, 5, 1, 791),
        (SHIFT, 3, 0x406a000000000000, 5, 1, 783),
        (SHIFT, 4, 0x406c000000000000, 5, 1, 807),
    ];
    let reports = check(
        "cps_robustness",
        &instance.tm,
        &instance.asserts,
        &instance.projection,
        &pins,
    );
    assert_xor_calls_dropped("cps_robustness", &reports, &pins);
}

#[test]
fn cdm_counts_match_the_pinned_search() {
    // CDM runs the counter's boundary search (a SAT cell counts as
    // saturated, an UNSAT one as small), so its probes, and hence its
    // estimates, oracle calls and cells, are those of its own gallop and
    // bisection, captured before the two were merged.  The interval counts
    // end on a boundary; the CPS count under seed 1 saturates every prefix.
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(10));
    let k = tm.mk_bv_const(700, 10);
    let interval = tm.mk_bv_ult(x, k).unwrap();
    let cps = cps_robustness(&GenParams {
        scale: 1,
        width: 8,
        seed: 4,
    });
    // (name, seed, estimate bits, oracle calls, cells explored)
    let pins: [(&str, u64, u64, u64, u64); 4] = [
        ("x < 700", 1, 0x4086a09e667f3bcd, 37, 36),
        ("x < 700", 2, 0x4086a09e667f3bcd, 37, 36),
        ("cps_robustness", 1, 0x4070000000000000, 32, 31),
        ("cps_robustness", 2, 0x4066a09e667f3bcd, 35, 34),
    ];
    for (name, seed, bits, oracle_calls, cells) in pins {
        let builder = if name == "x < 700" {
            Session::builder(tm.clone()).assert(interval).project(x)
        } else {
            Session::builder(cps.tm.clone())
                .assert_all(&cps.asserts)
                .project_all(&cps.projection)
        };
        let mut session = builder.seed(seed).iterations(5).threads(1).build().unwrap();
        let report = session.count_cdm().unwrap();
        let case = format!("CDM {name}, seed {seed}");
        let expected = f64::from_bits(bits);
        assert_eq!(
            report.outcome,
            CountOutcome::Approximate {
                estimate: expected,
                log2_estimate: expected.log2(),
            },
            "{case}"
        );
        assert_eq!(report.stats.iterations, 5, "{case}");
        assert_eq!(report.stats.oracle_calls, oracle_calls, "{case}");
        assert_eq!(report.stats.cells_explored, cells, "{case}");
    }
}
