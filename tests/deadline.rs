//! Deadlines that reach inside a single oracle call.
//!
//! The counting loops poll the run's deadline before each oracle call, so
//! without more a single long SAT search runs on past it.  The engine
//! therefore hands every oracle an interrupt flag that carries the
//! deadline, and the SAT search reads the clock at every 64th conflict.
//! The timing bounds here mean something only in an optimised build, so
//! the tests are ignored in debug builds; CI runs this suite with
//! `--release`.

use std::time::{Duration, Instant};

use pact::{
    CountOutcome, CounterConfig, HashFamily, IncrementalContext, InterruptFlag, Oracle, RunControl,
    Session, SolverResult,
};
use pact_benchgen::{paper_suite, SuiteParams};
use pact_ir::{Sort, TermManager};

const DEADLINE: Duration = Duration::from_millis(50);

#[test]
#[cfg_attr(debug_assertions, ignore = "timing bound of an optimised build")]
fn a_hard_count_times_out_within_twice_its_deadline() {
    // The `table1 --mini` suite's `cps_robustness_s2_w7`, whose CDM count
    // ran for many seconds past its deadline inside one check.
    let suite = paper_suite(&SuiteParams {
        per_logic: 2,
        min_width: 6,
        max_width: 7,
        max_per_cluster: 1,
        seed: 7,
    });
    let instance = suite
        .iter()
        .find(|i| i.name.starts_with("cps_robustness_s2_w7_"))
        .expect("the mini suite has the instance");
    let mut session = Session::builder(instance.tm.clone())
        .assert_all(&instance.asserts)
        .project_all(&instance.projection)
        .build()
        .unwrap();
    let config = CounterConfig {
        family: HashFamily::Xor,
        seed: 42,
        deadline: Some(DEADLINE),
        iterations_override: Some(3),
        ..CounterConfig::default()
    };
    let start = Instant::now();
    let report = session.count_cdm_with(&config).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(report.outcome, CountOutcome::Timeout);
    assert!(elapsed < 2 * DEADLINE, "timed out after {elapsed:?}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing bound of an optimised build")]
fn an_oracle_stopped_by_its_deadline_answers_a_fresh_check() {
    // Factoring a 47-bit semiprime into two 24-bit primes: this search
    // runs for over a minute without a deadline.
    let (p, q) = (12_567_019u128, 8_608_627u128);
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(48));
    let y = tm.mk_var("y", Sort::BitVec(48));
    let product = tm.mk_bv_mul(x, y).unwrap();
    let n = tm.mk_bv_const(p * q, 48);
    let one = tm.mk_bv_const(1, 48);
    let limit = tm.mk_bv_const(1 << 24, 48);
    let mut ctx = IncrementalContext::new();
    ctx.track_var(x);
    ctx.track_var(y);
    ctx.assert_term(tm.mk_eq(product, n));
    for v in [x, y] {
        ctx.assert_term(tm.mk_bv_ult(one, v).unwrap());
        ctx.assert_term(tm.mk_bv_ult(v, limit).unwrap());
    }
    let ctrl = RunControl::with_deadline(Some(Instant::now() + DEADLINE));
    let start = Instant::now();
    Oracle::set_interrupt(&mut ctx, ctrl.solver_interrupt().expect("a deadline"));
    assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Unknown);
    let elapsed = start.elapsed();
    assert!(elapsed < 2 * DEADLINE, "stopped after {elapsed:?}");
    // Without the deadline, a check that fixes one factor finds the other.
    Oracle::set_interrupt(&mut ctx, InterruptFlag::new());
    let factor = tm.mk_bv_const(p, 48);
    ctx.assert_term(tm.mk_eq(x, factor));
    assert_eq!(ctx.check(&mut tm).unwrap(), SolverResult::Sat);
    let other = ctx.model_value(&tm, y).unwrap().as_bv().unwrap().as_u128();
    assert_eq!(other, q);
}
