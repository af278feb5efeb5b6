//! Term-free blocking: [`Oracle::block_model`] against the term path.
//!
//! The saturating counter blocks every model it enumerates through
//! `Oracle::block_model`.  Every workspace backend overrides it: a boolean
//! or bit-vector projection is queued as one clause over the variables'
//! bit literals, with no term built and no preprocessing.  The term path
//! ([`block_model_by_terms`], also the trait's default body) builds
//! `¬(v₁ = c₁ ∧ …)` and asserts it; the encoder recognises the pattern and
//! emits the very same clause.  So the two paths must agree on every
//! backend: the same verdicts, model sets and `checks`, and on the two
//! single-engine backends, whose search is deterministic, the same models
//! in the same order and the same `conflicts`.
//!
//! The suite also pins the fallback (a bounded-integer projection takes
//! the term path), frame scoping (a block dies with its frame and survives
//! an inner `pop` and a compaction), and, through a logging wrapper, that a
//! count interns no term per enumerated model and measures the unhashed
//! formula only when round 0 needs it.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pact::{
    BackendSpec, CountOutcome, CountReport, CounterConfig, HashFamily, OracleFactory,
    ProgressEvent, Session,
};
use pact_ir::{BvValue, Sort, TermId, TermManager, Value};
use pact_solver::{
    block_model_by_terms, CubeStats, IncrementalContext, InterruptFlag, Oracle, OracleStats,
    PolicyStats, PortfolioStats, SolverConfig, SolverResult,
};

/// Every backend the workspace ships, with small worker counts.
fn backends() -> [(&'static str, BackendSpec); 5] {
    [
        ("rebuild", BackendSpec::Rebuild),
        ("incremental", BackendSpec::Incremental),
        ("portfolio", BackendSpec::Portfolio { workers: 2 }),
        (
            "cube",
            BackendSpec::Cube {
                depth: 2,
                workers: 2,
            },
        ),
        ("adaptive", BackendSpec::Adaptive),
    ]
}

fn build(spec: BackendSpec) -> Box<dyn Oracle> {
    OracleFactory::from_spec(spec).build(SolverConfig::default())
}

/// Delegates everything except `block_model`, so blocking takes the trait's
/// default body.
struct TermsOnly(Box<dyn Oracle>);

impl Oracle for TermsOnly {
    fn push(&mut self) {
        self.0.push();
    }

    fn pop(&mut self) {
        self.0.pop();
    }

    fn assert_term(&mut self, t: TermId) {
        self.0.assert_term(t);
    }

    fn assert_xor_bits(&mut self, bits: Vec<(TermId, u32)>, rhs: bool) {
        self.0.assert_xor_bits(bits, rhs);
    }

    fn track_var(&mut self, var: TermId) {
        self.0.track_var(var);
    }

    fn check(&mut self, tm: &mut TermManager) -> pact_solver::Result<SolverResult> {
        self.0.check(tm)
    }

    fn model_value(&self, tm: &TermManager, var: TermId) -> Option<Value> {
        self.0.model_value(tm, var)
    }

    fn projected_model(&self, tm: &TermManager, projection: &[TermId]) -> Option<Vec<BvValue>> {
        self.0.projected_model(tm, projection)
    }

    fn stats(&self) -> OracleStats {
        self.0.stats()
    }
}

/// What a [`Logged`] oracle saw at one `check`.
#[derive(Clone, Copy, Debug)]
struct Check {
    /// Serial number of the frame the check ran in.
    frame: u64,
    /// XOR rows asserted in that frame: a `pact_xor` cell's hash constraints.
    rows: usize,
    /// Terms in the store the check was handed.
    terms: usize,
}

/// What every oracle of one factory saw.
#[derive(Default)]
struct Log {
    frames: AtomicU64,
    /// Terms asserted inside a pushed frame: in a `pact_xor` count through
    /// [`TermsOnly`], its term-path blocks.
    framed_terms: AtomicU64,
    checks: Mutex<Vec<Check>>,
}

/// Forwards every method, `block_model` included, and logs each check.
struct Logged {
    inner: Box<dyn Oracle>,
    /// The open frames: serial number and XOR rows asserted.
    open: Vec<(u64, usize)>,
    log: Arc<Log>,
}

impl Oracle for Logged {
    fn push(&mut self) {
        let serial = self.log.frames.fetch_add(1, Ordering::Relaxed);
        self.open.push((serial, 0));
        self.inner.push();
    }

    fn pop(&mut self) {
        self.open.pop();
        self.inner.pop();
    }

    fn assert_term(&mut self, t: TermId) {
        if !self.open.is_empty() {
            self.log.framed_terms.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.assert_term(t);
    }

    fn assert_xor_bits(&mut self, bits: Vec<(TermId, u32)>, rhs: bool) {
        if let Some((_, rows)) = self.open.last_mut() {
            *rows += 1;
        }
        self.inner.assert_xor_bits(bits, rhs);
    }

    fn track_var(&mut self, var: TermId) {
        self.inner.track_var(var);
    }

    fn check(&mut self, tm: &mut TermManager) -> pact_solver::Result<SolverResult> {
        let (frame, rows) = *self.open.last().expect("a count checks inside a frame");
        let terms = tm.len();
        let check = Check { frame, rows, terms };
        self.log.checks.lock().unwrap().push(check);
        self.inner.check(tm)
    }

    fn model_value(&self, tm: &TermManager, var: TermId) -> Option<Value> {
        self.inner.model_value(tm, var)
    }

    fn projected_model(&self, tm: &TermManager, projection: &[TermId]) -> Option<Vec<BvValue>> {
        self.inner.projected_model(tm, projection)
    }

    fn block_model(&mut self, tm: &mut TermManager, projection: &[TermId], model: &[BvValue]) {
        self.inner.block_model(tm, projection, model);
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }

    fn set_interrupt(&mut self, flag: InterruptFlag) {
        self.inner.set_interrupt(flag);
    }

    fn portfolio(&self) -> Option<PortfolioStats> {
        self.inner.portfolio()
    }

    fn cube(&self) -> Option<CubeStats> {
        self.inner.cube()
    }

    fn policy(&self) -> Option<PolicyStats> {
        self.inner.policy()
    }
}

/// A factory of `spec` backends inside [`Logged`] (and inside [`TermsOnly`]
/// as well with `terms_only`), and the log its oracles share.
fn logged(spec: BackendSpec, terms_only: bool) -> (OracleFactory, Arc<Log>) {
    let log = Arc::new(Log::default());
    let shared = Arc::clone(&log);
    let factory = OracleFactory::new(move |config: SolverConfig| {
        let logged = Box::new(Logged {
            inner: OracleFactory::from_spec(spec).build(config),
            open: Vec::new(),
            log: Arc::clone(&shared),
        });
        if terms_only {
            Box::new(TermsOnly(logged))
        } else {
            logged
        }
    });
    (factory, log)
}

/// How the enumeration blocks each model.
#[derive(Clone, Copy, Debug)]
enum Path {
    /// `Oracle::block_model` (the backend's override, if it has one).
    Method,
    /// `block_model_by_terms`: build the blocking term and assert it.
    Terms,
}

fn block(
    oracle: &mut dyn Oracle,
    path: Path,
    tm: &mut TermManager,
    projection: &[TermId],
    model: &[BvValue],
) {
    match path {
        Path::Method => oracle.block_model(tm, projection, model),
        Path::Terms => block_model_by_terms(oracle, tm, projection, model),
    }
}

/// The saturating counter's loop: models in the order found, and whether
/// the cell saturated at `thresh` before running out.
fn enumerate(
    oracle: &mut dyn Oracle,
    path: Path,
    tm: &mut TermManager,
    projection: &[TermId],
    thresh: usize,
) -> (Vec<Vec<BvValue>>, bool) {
    let mut models = Vec::new();
    loop {
        match oracle.check(tm).expect("supported fragment") {
            SolverResult::Sat => {
                let model = oracle.projected_model(tm, projection).expect("model");
                assert!(!models.contains(&model), "model {model:?} found twice");
                models.push(model.clone());
                if models.len() >= thresh {
                    return (models, true);
                }
                block(oracle, path, tm, projection, &model);
            }
            SolverResult::Unsat => return (models, false),
            SolverResult::Unknown => panic!("unknown verdict without a budget"),
        }
    }
}

/// One native XOR row: the chosen bits and the parity they must have.
type XorRow = (Vec<(TermId, u32)>, bool);

/// The fixture: `x` (7 bits), `y` (3 bits) and `b` (bool) under
/// `x <ᵤ 100 ∧ (b → y ≠ 0)` — 1500 projected models — measured in cells
/// cut by native XOR rows and one word-level term, as a count does.
struct Fixture {
    tm: TermManager,
    projection: Vec<TermId>,
    base: Vec<TermId>,
    /// Per cell: XOR rows `(bits, rhs)` and extra term assertions.
    cells: Vec<(Vec<XorRow>, Vec<TermId>)>,
}

fn fixture() -> Fixture {
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(7));
    let y = tm.mk_var("y", Sort::BitVec(3));
    let b = tm.mk_var("b", Sort::Bool);
    let hundred = tm.mk_bv_const(100, 7);
    let below = tm.mk_bv_ult(x, hundred).unwrap();
    let zero = tm.mk_bv_const(0, 3);
    let y_zero = tm.mk_eq(y, zero);
    let not_b = tm.mk_not(b);
    let y_nonzero = tm.mk_not(y_zero);
    let implied = tm.mk_or([not_b, y_nonzero]);
    let low = tm.mk_bv_extract(x, 2, 0).unwrap();
    let low_is_y = tm.mk_eq(low, y);
    let row = |bits: &[(TermId, u32)], rhs| (bits.to_vec(), rhs);
    let cells = vec![
        (
            vec![
                row(&[(x, 0), (x, 3), (y, 1)], true),
                row(&[(x, 1), (x, 5), (b, 0)], false),
                row(&[(x, 2), (y, 0), (y, 2)], true),
                row(&[(x, 4), (x, 6)], false),
                row(&[(x, 0), (x, 1), (x, 2), (b, 0)], true),
            ],
            vec![],
        ),
        // Too few rows: saturates.
        (vec![row(&[(x, 6), (y, 2)], false)], vec![]),
        (
            vec![
                row(&[(x, 1), (y, 1)], true),
                row(&[(x, 3), (x, 5), (b, 0)], true),
            ],
            vec![low_is_y],
        ),
        (
            vec![
                row(&[(x, 0), (x, 2), (x, 4), (x, 6)], false),
                row(&[(y, 0), (y, 1), (b, 0)], false),
                row(&[(x, 1), (x, 3)], true),
                row(&[(x, 5), (y, 2)], true),
                row(&[(x, 0), (b, 0)], true),
            ],
            vec![],
        ),
    ];
    Fixture {
        tm,
        projection: vec![x, y, b],
        base: vec![below, implied],
        cells,
    }
}

/// What one run over the fixture observed.
#[derive(Debug, PartialEq)]
struct Run {
    /// Per cell: models in the order found, and whether it saturated.
    cells: Vec<(Vec<Vec<BvValue>>, bool)>,
    stats: OracleStats,
    /// Terms the run interned.
    terms: usize,
}

const THRESH: usize = 73;

fn run(oracle: &mut dyn Oracle, path: Path) -> Run {
    let Fixture {
        mut tm,
        projection,
        base,
        cells,
    } = fixture();
    let before = tm.len();
    for &v in &projection {
        oracle.track_var(v);
    }
    for &f in &base {
        oracle.assert_term(f);
    }
    let mut observed = Vec::new();
    for (rows, terms) in cells {
        oracle.push();
        for (bits, rhs) in rows {
            oracle.assert_xor_bits(bits, rhs);
        }
        for t in terms {
            oracle.assert_term(t);
        }
        observed.push(enumerate(oracle, path, &mut tm, &projection, THRESH));
        oracle.pop();
    }
    Run {
        cells: observed,
        stats: oracle.stats(),
        terms: tm.len() - before,
    }
}

/// Models as a sorted set (a racing backend finds them in any order).
fn model_sets(run: &Run) -> Vec<(Vec<Vec<BvValue>>, bool)> {
    run.cells
        .iter()
        .map(|(models, saturated)| {
            let mut sorted = models.clone();
            sorted.sort();
            (sorted, *saturated)
        })
        .collect()
}

#[test]
fn every_backend_blocks_like_the_term_path() {
    for (name, spec) in backends() {
        let direct = run(build(spec).as_mut(), Path::Method);
        let terms = run(build(spec).as_mut(), Path::Terms);
        assert!(
            direct.cells.iter().any(|c| c.1) && direct.cells.iter().any(|c| !c.1),
            "{name}: the fixture must hold both exact and saturated cells"
        );
        assert_eq!(
            direct.stats.checks, terms.stats.checks,
            "{name}: oracle checks"
        );
        // A saturated cell's first `THRESH` models depend on the search, so
        // only a deterministic search pins them.
        let sizes = |r: &Run| -> Vec<(usize, bool)> {
            r.cells.iter().map(|(m, s)| (m.len(), *s)).collect()
        };
        assert_eq!(sizes(&direct), sizes(&terms), "{name}: cell verdicts");
        for (d, t) in model_sets(&direct).iter().zip(&model_sets(&terms)) {
            if !d.1 {
                assert_eq!(d, t, "{name}: model set of an exact cell");
            }
        }
        assert_eq!(direct.terms, 0, "{name}: block_model interned terms");
        assert!(terms.terms > 0, "{name}: the term path interns terms");
    }
}

#[test]
fn single_engine_backends_search_identically_on_both_paths() {
    for spec in [BackendSpec::Rebuild, BackendSpec::Incremental] {
        let direct = run(build(spec).as_mut(), Path::Method);
        let terms = run(build(spec).as_mut(), Path::Terms);
        assert_eq!(direct.cells, terms.cells, "{spec:?}: models in order");
        assert_eq!(
            direct.stats.conflicts, terms.stats.conflicts,
            "{spec:?}: conflicts"
        );
        assert_eq!(direct.stats.checks, terms.stats.checks, "{spec:?}: checks");
        assert!(direct.stats.conflicts > 0, "{spec:?}: the fixture searches");
    }
}

#[test]
fn the_default_body_is_the_term_path() {
    let wrapped = run(
        &mut TermsOnly(build(BackendSpec::Incremental)),
        Path::Method,
    );
    let direct = run(build(BackendSpec::Incremental).as_mut(), Path::Method);
    assert!(wrapped.terms > 0, "the default body builds terms");
    assert_eq!(direct.terms, 0);
    assert_eq!(wrapped.cells, direct.cells);
    assert_eq!(wrapped.stats.checks, direct.stats.checks);
    assert_eq!(wrapped.stats.conflicts, direct.stats.conflicts);
}

/// `b ∧ n` with `n ∈ [2, 6]` and `(n = 4 → b)`: 9 projected models over
/// `[b, n]`.  The bounded integer sends `block_model` down the term path.
#[test]
fn a_bounded_int_projection_falls_back_to_terms() {
    for (name, spec) in backends() {
        for path in [Path::Method, Path::Terms] {
            let mut tm = TermManager::new();
            let b = tm.mk_var("b", Sort::Bool);
            let n = tm.mk_var("n", Sort::BoundedInt { lo: 2, hi: 6 });
            let four = tm.mk_int_const(4);
            let le = tm.mk_int_le(n, four).unwrap();
            let ge = tm.mk_int_le(four, n).unwrap();
            let is_four = tm.mk_and([le, ge]);
            let not_four = tm.mk_not(is_four);
            let f = tm.mk_or([not_four, b]);
            let mut oracle = build(spec);
            oracle.track_var(b);
            oracle.track_var(n);
            oracle.assert_term(f);
            oracle.push();
            let before = tm.len();
            let (models, saturated) = enumerate(oracle.as_mut(), path, &mut tm, &[b, n], 100);
            oracle.pop();
            assert!(!saturated);
            assert_eq!(models.len(), 9, "{name} {path:?}");
            for m in &models {
                let value = m[1].as_u128();
                assert!((2..=6).contains(&value), "{name} {path:?}: n = {value}");
                assert!(value != 4 || m[0].as_u128() == 1, "{name} {path:?}: {m:?}");
            }
            assert!(
                tm.len() > before,
                "{name} {path:?}: the fallback builds terms"
            );
        }
    }
}

/// The values of `x` enumerated in a fresh frame on top of the stack.
fn values_in_new_frame(oracle: &mut dyn Oracle, tm: &mut TermManager, x: TermId) -> Vec<u128> {
    oracle.push();
    let (models, _) = enumerate(oracle, Path::Method, tm, &[x], 100);
    oracle.pop();
    let mut values: Vec<u128> = models.iter().map(|m| m[0].as_u128()).collect();
    values.sort();
    values
}

/// `x <ᵤ 8` over 4 bits, with blocks in two nested frames: each block is
/// live exactly while its frame is.
#[test]
fn blocks_are_scoped_to_their_frame() {
    for (name, spec) in backends() {
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let eight = tm.mk_bv_const(8, 4);
        let f = tm.mk_bv_ult(x, eight).unwrap();
        let before = tm.len();
        let mut oracle = build(spec);
        oracle.track_var(x);
        oracle.assert_term(f);
        let value = |v| [BvValue::new(v, 4)];
        oracle.push();
        oracle.block_model(&mut tm, &[x], &value(0));
        oracle.block_model(&mut tm, &[x], &value(1));
        oracle.push();
        oracle.block_model(&mut tm, &[x], &value(2));
        let values = values_in_new_frame(oracle.as_mut(), &mut tm, x);
        assert_eq!(values, (3..8).collect::<Vec<_>>(), "{name}");
        oracle.pop();
        let values = values_in_new_frame(oracle.as_mut(), &mut tm, x);
        assert_eq!(values, (2..8).collect::<Vec<_>>(), "{name}");
        oracle.pop();
        let values = values_in_new_frame(oracle.as_mut(), &mut tm, x);
        assert_eq!(values, (0..8).collect::<Vec<_>>(), "{name}");
        assert_eq!(tm.len(), before, "{name}: blocking interned terms");
    }
}

/// Compaction re-encodes the live frames into a fresh solver: base-level
/// blocks and the blocks of a live frame must come back with it.
#[test]
fn blocks_survive_compaction() {
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(4));
    let eight = tm.mk_bv_const(8, 4);
    let f = tm.mk_bv_ult(x, eight).unwrap();
    let mut oracle = IncrementalContext::new();
    oracle.track_var(x);
    oracle.assert_term(f);
    oracle.block_model(&mut tm, &[x], &[BvValue::new(0, 4)]);
    oracle.push();
    oracle.block_model(&mut tm, &[x], &[BvValue::new(1, 4)]);
    for bound in 9..13 {
        // Each cell leaves its blocks behind as frame garbage, inside a
        // frame whose new comparison allocates gates, so popping it
        // re-encodes the live frames.
        oracle.push();
        let c = tm.mk_bv_const(bound, 4);
        let below = tm.mk_bv_ult(x, c).unwrap();
        oracle.assert_term(below);
        let values = values_in_new_frame(&mut oracle, &mut tm, x);
        oracle.pop();
        assert_eq!(values, (2..8).collect::<Vec<_>>());
    }
    assert!(oracle.stats().compactions >= 2, "{:?}", oracle.stats());
    oracle.pop();
    let values = values_in_new_frame(&mut oracle, &mut tm, x);
    assert_eq!(values, (1..8).collect::<Vec<_>>(), "x = 0 stays blocked");
}

/// Counts `x <ᵤ bound` over `width` bits with `pact_xor` in `iterations`
/// rounds from `seed`, returning the report, how many terms the count
/// interned into the session's store and how many models it found.
fn count_below(
    width: u32,
    bound: u128,
    seed: u64,
    iterations: u32,
    factory: OracleFactory,
) -> (CountReport, u64, u64) {
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(width));
    let c = tm.mk_bv_const(bound, width);
    let f = tm.mk_bv_ult(x, c).unwrap();
    let before = tm.len() as u64;
    let config = CounterConfig {
        iterations_override: Some(iterations),
        seed,
        family: HashFamily::Xor,
        ..CounterConfig::default()
    };
    let models = Arc::new(AtomicU64::new(0));
    let found = Arc::clone(&models);
    let mut session = Session::builder(tm)
        .assert(f)
        .project(x)
        .config(config)
        .oracle_factory(factory)
        .on_progress(move |event| {
            if let ProgressEvent::Model { .. } = event {
                found.fetch_add(1, Ordering::Relaxed);
            }
        })
        .build()
        .unwrap();
    let report = session.count().unwrap();
    let grown = report.stats.terms_interned - before;
    (report, grown, models.load(Ordering::Relaxed))
}

/// Every cell is measured in a round's private term tail, over the
/// session's store, so the store a check is handed must not grow with the
/// models a count enumerates.
#[test]
fn a_count_interns_no_term_per_enumerated_model() {
    for spec in [BackendSpec::Rebuild, BackendSpec::Incremental] {
        let count = |bound| {
            let (factory, log) = logged(spec, false);
            let (report, grown, _) = count_below(10, bound, 11, 3, factory);
            let checks = log.checks.lock().unwrap();
            let largest = checks.iter().map(|check| check.terms).max().unwrap();
            (report, grown, largest)
        };
        // Exact counts of 5 and 60 models (round 0 ends at the unhashed
        // cell), then a hashed count whose cells hold far more models in
        // total.
        let (small, small_grown, small_store) = count(5);
        let (exact, exact_grown, exact_store) = count(60);
        let (hashed, hashed_grown, hashed_store) = count(900);
        assert_eq!(exact.stats.oracle_calls, small.stats.oracle_calls + 55);
        assert!(hashed.stats.oracle_calls > exact.stats.oracle_calls + 100);
        assert_eq!(small_grown, exact_grown, "{spec:?}");
        assert_eq!(small_grown, hashed_grown, "{spec:?}");
        assert_eq!(small_store, exact_store, "{spec:?}");
        assert_eq!(small_store, hashed_store, "{spec:?}");
    }
}

/// A whole `pact_xor` count through a wrapper that does not forward
/// `block_model` (so every block takes the term path) answers and searches
/// exactly like the direct path: XOR hashing builds no terms, so nothing
/// else about the formula changes.  Every cell is measured in a round's
/// private term tail, so neither path grows the session's store; the terms
/// asserted inside a frame, the term-path blocks, show that the term path
/// ran.
#[test]
fn a_count_searches_identically_on_both_paths() {
    for spec in [BackendSpec::Rebuild, BackendSpec::Incremental] {
        let (terms_only, log) = logged(spec, true);
        let (direct, direct_grown, direct_models) =
            count_below(10, 900, 11, 3, OracleFactory::from_spec(spec));
        let (terms, terms_grown, terms_models) = count_below(10, 900, 11, 3, terms_only);
        assert_eq!(direct.outcome, terms.outcome, "{spec:?}");
        assert_eq!(direct.stats.oracle_calls, terms.stats.oracle_calls);
        assert_eq!(direct.stats.cells_explored, terms.stats.cells_explored);
        assert_eq!(direct.stats.oracle.checks, terms.stats.oracle.checks);
        assert_eq!(
            direct.stats.oracle.conflicts, terms.stats.oracle.conflicts,
            "{spec:?}"
        );
        assert_eq!(direct_models, terms_models, "{spec:?}");
        assert_eq!(direct_grown, terms_grown, "{spec:?}");
        // Every found model is blocked but a saturating cell's last one; a
        // seeded cell blocks its known models again.
        let blocked = terms_models - terms.stats.cells_explored;
        let term_blocks = log.framed_terms.load(Ordering::Relaxed);
        assert!(
            term_blocks >= blocked,
            "{spec:?}: {term_blocks} term-path blocks for at least {blocked} blocked models"
        );
    }
}

/// A `pact_xor` count of `x <ᵤ bound` over `width` bits (5 rounds from
/// `seed`): its estimate, and the frames it checked with no hash row.
fn unhashed_cells(width: u32, bound: u128, seed: u64) -> (f64, BTreeSet<u64>, u32) {
    let (factory, log) = logged(BackendSpec::Incremental, false);
    let (report, _, _) = count_below(width, bound, seed, 5, factory);
    let checks = log.checks.lock().unwrap();
    assert_eq!(checks.len() as u64, report.stats.oracle_calls);
    let cells: BTreeSet<u64> = checks.iter().map(|check| check.frame).collect();
    assert_eq!(cells.len() as u64, report.stats.cells_explored);
    let unhashed = checks
        .iter()
        .filter(|check| check.rows == 0)
        .map(|check| check.frame)
        .collect();
    let CountOutcome::Approximate { estimate, .. } = report.outcome else {
        panic!("expected an approximate count, got {:?}", report.outcome);
    };
    (estimate, unhashed, report.stats.final_hash_count)
}

/// Round 0 measures the unhashed formula only when its bracket closes at
/// one hash; the later rounds know it saturates.  The estimates are the
/// ones pinned while the unhashed cell was measured apart, first.
#[test]
fn the_unhashed_cell_is_measured_only_when_round_zero_needs_it() {
    // 10-bit x < 900 needs several XOR hashes.
    let (estimate, unhashed, _) = unhashed_cells(10, 900, 21);
    assert_eq!(estimate, 896.0);
    assert!(unhashed.is_empty(), "{unhashed:?}");
    // 8-bit x < 100: one XOR hash leaves a small cell.
    let (estimate, unhashed, final_hashes) = unhashed_cells(8, 100, 3);
    assert_eq!(estimate, 100.0);
    assert_eq!(unhashed.len(), 1, "{unhashed:?}");
    assert_eq!(final_hashes, 1);
}
