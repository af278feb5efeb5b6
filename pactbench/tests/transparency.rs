//! The tracing decorator must not change what a count does, and a seed must
//! pin every input.  Run with `cargo test --release` (the counts are slow
//! in a debug build).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use pact::{
    CountReport, CounterConfig, HashFamily, InterruptFlag, Oracle, OracleFactory, OracleStats,
    ParallelConfig, Session,
};
use pact_benchgen::{cfg_reachability, cps_robustness, GenParams, Instance};
use pact_ir::{BvValue, TermId, TermManager, Value};
use pact_solver::{Result as SolverResultOf, SolverResult};
use pactbench::trace::Recorder;
use pactbench::wire;
use pactbench::workload::{build_items, Workload};

/// A pass-through oracle that only reads the inner oracle's statistics on
/// drop: the thinnest possible observer of an untraced count's
/// `sat.conflicts`, which `CountStats` does not carry.
struct StatsOnly {
    inner: Box<dyn Oracle>,
    sink: Arc<Mutex<Vec<OracleStats>>>,
}

impl Drop for StatsOnly {
    fn drop(&mut self) {
        self.sink.lock().unwrap().push(self.inner.stats());
    }
}

impl Oracle for StatsOnly {
    fn push(&mut self) {
        self.inner.push();
    }
    fn pop(&mut self) {
        self.inner.pop();
    }
    fn assert_term(&mut self, t: TermId) {
        self.inner.assert_term(t);
    }
    fn assert_xor_bits(&mut self, bits: Vec<(TermId, u32)>, rhs: bool) {
        self.inner.assert_xor_bits(bits, rhs);
    }
    fn track_var(&mut self, var: TermId) {
        self.inner.track_var(var);
    }
    fn check(&mut self, tm: &mut TermManager) -> SolverResultOf<SolverResult> {
        self.inner.check(tm)
    }
    fn model_value(&self, tm: &TermManager, var: TermId) -> Option<Value> {
        self.inner.model_value(tm, var)
    }
    fn projected_model(&self, tm: &TermManager, projection: &[TermId]) -> Option<Vec<BvValue>> {
        self.inner.projected_model(tm, projection)
    }
    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }
    fn set_interrupt(&mut self, flag: InterruptFlag) {
        self.inner.set_interrupt(flag);
    }
}

fn session(instance: &Instance) -> Session {
    Session::builder(instance.tm.clone())
        .assert_all(&instance.asserts)
        .project_all(&instance.projection)
        .build()
        .unwrap()
}

fn config(family: HashFamily, factory: OracleFactory) -> CounterConfig {
    CounterConfig {
        family,
        seed: 11,
        iterations_override: Some(3),
        parallel: ParallelConfig { threads: 1 },
        oracle_factory: factory,
        ..CounterConfig::default()
    }
}

fn same_work(a: &CountReport, b: &CountReport) {
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.stats.oracle_calls, b.stats.oracle_calls);
    assert_eq!(a.stats.cells_explored, b.stats.cells_explored);
}

#[test]
fn traced_counts_do_the_same_work_for_every_family() {
    // A pure QF_ABV instance and a hybrid one (the simplex runs).
    let instances = [
        cfg_reachability(&GenParams {
            scale: 1,
            width: 8,
            seed: 3,
        }),
        cps_robustness(&GenParams {
            scale: 1,
            width: 8,
            seed: 3,
        }),
    ];
    for instance in &instances {
        for family in [HashFamily::Xor, HashFamily::Prime, HashFamily::Shift] {
            // Untraced: the default factory, exactly as the benchmark's
            // untraced passes count.
            let plain = session(instance)
                .count_with(&config(family, OracleFactory::default()))
                .unwrap();

            let sink = Arc::new(Mutex::new(Vec::new()));
            let observed = {
                let sink = Arc::clone(&sink);
                OracleFactory::new(move |c| {
                    Box::new(StatsOnly {
                        inner: OracleFactory::default().build(c),
                        sink: Arc::clone(&sink),
                    })
                })
            };
            let untraced = session(instance)
                .count_with(&config(family, observed))
                .unwrap();

            let recorder = Recorder::new(Instant::now());
            let traced_report = session(instance)
                .count_with(&config(family, recorder.factory(0)))
                .unwrap();

            same_work(&plain, &traced_report);
            same_work(&untraced, &traced_report);
            let conflicts = |stats: &[OracleStats]| stats.iter().map(|s| s.conflicts).sum::<u64>();
            let (spans, traced) = recorder.take();
            let traced_stats: Vec<OracleStats> = traced.into_iter().map(|(_, s)| s).collect();
            assert!(!spans.is_empty());
            assert_eq!(conflicts(&sink.lock().unwrap()), conflicts(&traced_stats));
            // Every `check` the engine made is one span.
            let checks: u64 = traced_stats.iter().map(|s| s.checks).sum();
            let check_spans = spans
                .iter()
                .filter(|s| s.call.name().starts_with("solver.check"))
                .count() as u64;
            assert_eq!(checks, check_spans);
            assert_eq!(checks, traced_report.stats.oracle_calls);
        }
    }
}

#[test]
fn a_seed_pins_the_instance_list_and_the_schedule() {
    let names = |seed| -> Vec<(String, String, u64)> {
        build_items(Workload::DirectXor, seed)
            .unwrap()
            .into_iter()
            .map(|i| (i.name, i.script, i.seed))
            .collect()
    };
    let a = names(5);
    assert_eq!(a, names(5));
    let b = names(6);
    assert_eq!(a.len(), b.len());
    assert!(a.iter().zip(&b).all(|(x, y)| x != y));

    let batch: Vec<bool> = (0..30).map(|i| i >= 24).collect();
    let plan = wire::schedule(&batch, 5, 20.0);
    assert_eq!(plan, wire::schedule(&batch, 5, 20.0));
    assert_ne!(plan, wire::schedule(&batch, 6, 20.0));
    assert_eq!(plan.len(), (wire::RATE_PER_S * 20.0) as usize);
    // One request in BATCH_EVERY is a batch item, and the shuffled deck
    // requests every item about equally often.
    let large = plan.iter().filter(|r| batch[r.item]).count();
    assert_eq!(large, plan.len() / wire::BATCH_EVERY);
    let weights = wire::weights(batch.len(), &plan);
    let small = &weights[..24];
    let (lo, hi) = small
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &w| (lo.min(w), hi.max(w)));
    assert!(hi - lo <= 1.0, "uneven schedule: {small:?}");
}
