//! The direct workloads: a closed loop, one client on one thread, calling
//! `Session::count_with` on each item of the list in turn, pass after pass.
//!
//! Untraced, the loop stops at the first operation due after `--seconds`,
//! and the timing metrics are taken over each instance's fastest count.
//! Traced, passes alternate between untraced and traced (so the run
//! measures its own tracing overhead), only whole passes run, and at least
//! one of each kind does.

use std::sync::Arc;
use std::time::Instant;

use pact::{CountReport, OracleStats};

use crate::report::{self, Outcome, TraceRow};
use crate::trace::{Call, Recorder};
use crate::workload::{judge, Check, Item, DELTA};

/// One finished count.
struct Op {
    item: usize,
    pass: usize,
    traced: bool,
    start_ns: u64,
    end_ns: u64,
    check: Check,
    /// Kept on traced runs only, which compare each traced count with its
    /// untraced twin.  Boxed, and absent on untraced runs, so that peak RSS
    /// barely grows with the number of counts the machine's speed allows.
    report: Option<Box<CountReport>>,
}

impl Op {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Runs the closed loop for `seconds` and reports end-to-end metrics, or —
/// when `traced` — per-layer metrics, writing the trace file.
pub fn run(
    workload: &str,
    items: &mut [Item],
    seconds: f64,
    traced: bool,
    setup_s: f64,
    meta: &str,
) -> Outcome {
    let epoch = Instant::now();
    let recorder = Recorder::new(epoch);
    let deadline_ns = (seconds * 1e9) as u64;
    let mut ops: Vec<Op> = Vec::new();
    'passes: for pass in 0.. {
        let pass_traced = traced && pass % 2 == 1;
        if traced && pass >= 2 && recorder.now_ns() >= deadline_ns {
            break;
        }
        for (i, item) in items.iter_mut().enumerate() {
            if !traced && recorder.now_ns() >= deadline_ns {
                break 'passes;
            }
            let mut config = item.counter_config();
            if pass_traced {
                config.oracle_factory = recorder.factory(ops.len() as u32);
            }
            let start_ns = recorder.now_ns();
            let result = item.session.count_with(&config);
            let end_ns = recorder.now_ns();
            let (check, report) = match result {
                Ok(report) => (judge(&report.outcome, item.truth), Some(report)),
                Err(e) => (Check::Failed(format!("error: {e}")), None),
            };
            ops.push(Op {
                item: i,
                pass,
                traced: pass_traced,
                start_ns,
                end_ns,
                check,
                report: report.filter(|_| traced).map(Box::new),
            });
        }
    }

    let mut outcome = Outcome {
        correct: true,
        attempted: ops.len() as u64,
        ..Outcome::default()
    };
    let mut misses = 0u64;
    for (index, op) in ops.iter().enumerate() {
        match &op.check {
            Check::Ok => {}
            Check::Failed(why) | Check::Miss(why) => {
                outcome.failed += 1;
                misses += u64::from(matches!(op.check, Check::Miss(_)));
                println!(
                    "# failed op={index} item={} reason={why}",
                    items[op.item].name
                );
            }
            Check::Wrong(why) => {
                outcome.failed += 1;
                outcome.correct = false;
                println!(
                    "# wrong op={index} item={} reason={why}",
                    items[op.item].name
                );
            }
        }
    }
    // The (ε, δ) guarantee allows a δ share of estimates outside the band.
    if misses as f64 > DELTA * ops.len() as f64 {
        println!(
            "# wrong: {misses} of {} estimates outside the epsilon band",
            ops.len()
        );
        outcome.correct = false;
    }

    if traced {
        per_layer(workload, items, &ops, &recorder, meta, &mut outcome);
    } else {
        // Every pass repeats each instance's count exactly (one hash seed,
        // deterministic), so repeats of one count differ only by how much
        // the rest of the machine slowed it.  An instance's latency is its
        // fastest repeat; the metrics are taken over instances.
        let mut best: Vec<Option<f64>> = vec![None; items.len()];
        for op in &ops {
            let t = op.seconds();
            best[op.item] = Some(best[op.item].map_or(t, |b: f64| b.min(t)));
        }
        let best: Vec<f64> = best.into_iter().flatten().collect();
        let good = ops.iter().filter(|op| op.check == Check::Ok).count();
        let good_share = good as f64 / ops.len().max(1) as f64;
        outcome.set("latency_p50_s", report::median(&best));
        outcome.set("latency_p90_s", report::percentile(&best, 0.9));
        // A pass at those latencies answers `good_share` of its counts
        // correctly.
        outcome.set(
            "goodput_per_s",
            good_share * best.len() as f64 / best.iter().sum::<f64>(),
        );
        outcome.set("setup_s", setup_s);
        outcome.set("peak_rss_mib", report::peak_rss_mib());
    }
    outcome
}

/// Span slots: one per [`Call`] kind, plus unsat checks.
const SLOTS: usize = 9;
const UNSAT: usize = 8;

fn slot(call: Call) -> usize {
    match call {
        Call::Build => 0,
        Call::Frame => 1,
        Call::Assert => 2,
        Call::Xor => 3,
        Call::CheckFirst => 4,
        Call::CheckNext => 5,
        Call::Model => 6,
        Call::Other => 7,
    }
}

/// Totals of one traced pass.
#[derive(Debug, Default, Clone)]
struct PassTotals {
    /// Seconds inside oracle calls, per slot.
    time: [f64; SLOTS],
    /// Count wall time minus the oracle calls inside it.
    core_self_s: f64,
    work: Work,
}

/// Work counts of one pass: deterministic in the hash seeds.
#[derive(Debug, Default, Clone, Copy)]
struct Work {
    calls: [u64; SLOTS],
    compactions: u64,
    dead_reclaimed: u64,
    rebuilds: u64,
    preprocess_cache_hits: u64,
    sat_calls: u64,
    conflicts: u64,
    lra_checks: u64,
    lra_lemmas: u64,
    oracle_calls: u64,
    cells: u64,
    rounds: u64,
    final_hash_count: u64,
    /// The term-store size each report stamps, summed.
    terms_interned: u64,
}

impl Work {
    fn add_oracle(&mut self, s: &OracleStats) {
        self.compactions += s.compactions;
        self.dead_reclaimed += s.dead_clauses_reclaimed;
        self.rebuilds += s.rebuilds;
        self.preprocess_cache_hits += s.preprocess_cache_hits;
        self.sat_calls += s.sat_calls;
        self.conflicts += s.conflicts;
        self.lra_checks += s.theory_checks;
        self.lra_lemmas += s.theory_lemmas;
    }
}

/// Computes the per-layer metrics from the traced passes, checks the trace
/// invariants, and writes the trace file.
fn per_layer(
    workload: &str,
    items: &[Item],
    ops: &[Op],
    recorder: &Arc<Recorder>,
    meta: &str,
    outcome: &mut Outcome,
) {
    let (spans, stats) = recorder.take();
    // Traced pass k (0-based) of the run for every traced op.
    let mut pass_of: Vec<Option<usize>> = vec![None; ops.len()];
    let mut passes: Vec<PassTotals> = Vec::new();
    for (index, op) in ops.iter().enumerate().filter(|(_, op)| op.traced) {
        if index == 0 || ops[index - 1].pass != op.pass {
            passes.push(PassTotals::default());
        }
        pass_of[index] = Some(passes.len() - 1);
    }
    let mut inside = vec![0.0f64; ops.len()];
    let mut check_us: Vec<f64> = Vec::new();
    for span in &spans {
        let op = span.op as usize;
        let totals = &mut passes[pass_of[op].expect("spans come from traced ops")];
        let s = slot(span.call);
        totals.time[s] += span.seconds();
        totals.work.calls[s] += 1;
        if span.unsat {
            totals.time[UNSAT] += span.seconds();
            totals.work.calls[UNSAT] += 1;
        }
        if matches!(span.call, Call::CheckFirst | Call::CheckNext) {
            check_us.push(span.seconds() * 1e6);
        }
        inside[op] += span.seconds();
    }
    for (op, s) in &stats {
        passes[pass_of[*op as usize].expect("stats come from traced ops")]
            .work
            .add_oracle(s);
    }
    for (index, op) in ops.iter().enumerate() {
        let Some(k) = pass_of[index] else { continue };
        // Transparency: the decorator must not change what a count does.
        // Its untraced twin, in the pass before, counted the same item with
        // the same hashes.
        let twin = index
            .checked_sub(items.len())
            .map(|t| &ops[t])
            .filter(|t| t.item == op.item && t.pass + 1 == op.pass);
        let same = |a: &CountReport, b: &CountReport| {
            a.outcome == b.outcome
                && a.stats.oracle_calls == b.stats.oracle_calls
                && a.stats.cells_explored == b.stats.cells_explored
        };
        match (twin.and_then(|t| t.report.as_ref()), &op.report) {
            (Some(a), Some(b)) if same(a, b) => {}
            _ => {
                println!("# wrong: traced op {index} differs from its untraced twin");
                outcome.correct = false;
            }
        }
        let totals = &mut passes[k];
        // Self time of the count: its span minus its children.  Children
        // are sequential calls inside `count_with` on this thread, so a
        // negative value would mean spans overlap or double-count.
        let self_s = op.seconds() - inside[index];
        if self_s < 0.0 {
            println!("# wrong: op {index} has negative core self time {self_s}");
            outcome.correct = false;
        }
        totals.core_self_s += self_s;
        if let Some(report) = &op.report {
            totals.work.oracle_calls += report.stats.oracle_calls;
            totals.work.cells += report.stats.cells_explored;
            totals.work.rounds += u64::from(report.stats.iterations);
            totals.work.final_hash_count += u64::from(report.stats.final_hash_count);
            totals.work.terms_interned += report.stats.terms_interned;
        }
    }
    let traced_ops = pass_of.iter().flatten().count();
    if passes.is_empty() || traced_ops != passes.len() * items.len() {
        println!("# wrong: traced passes are missing or incomplete");
        outcome.correct = false;
    }
    // Every pass counts the same hashes, so the first traced pass's work
    // counts repeat exactly between runs of one seed.
    let first = passes.first().cloned().unwrap_or_default();

    let med =
        |f: &dyn Fn(&PassTotals) -> f64| report::median(&passes.iter().map(f).collect::<Vec<_>>());
    let slots: [(&'static str, &'static str, usize); 8] = [
        (
            "solver.check_first_s",
            "solver.checks_first",
            slot(Call::CheckFirst),
        ),
        (
            "solver.check_next_s",
            "solver.checks_next",
            slot(Call::CheckNext),
        ),
        ("solver.check_unsat_s", "solver.checks_unsat", UNSAT),
        ("solver.build_s", "solver.builds", slot(Call::Build)),
        ("solver.assert_s", "solver.asserts", slot(Call::Assert)),
        ("solver.xor_s", "solver.xors", slot(Call::Xor)),
        ("solver.frame_s", "solver.frames", slot(Call::Frame)),
        ("solver.model_s", "solver.models", slot(Call::Model)),
    ];
    for (time, calls, s) in slots {
        outcome.set(time, med(&|p| p.time[s]));
        outcome.set(calls, first.work.calls[s] as f64);
    }
    outcome.set("solver.check_p50_us", report::percentile(&check_us, 0.5));
    outcome.set("solver.check_p99_us", report::percentile(&check_us, 0.99));
    let w = &first.work;
    for (name, value) in [
        ("solver.compactions", w.compactions),
        ("solver.dead_reclaimed", w.dead_reclaimed),
        ("solver.rebuilds", w.rebuilds),
        ("solver.preprocess_cache_hits", w.preprocess_cache_hits),
        ("sat.calls", w.sat_calls),
        ("sat.conflicts", w.conflicts),
        ("lra.checks", w.lra_checks),
        ("lra.lemmas", w.lra_lemmas),
        ("core.oracle_calls", w.oracle_calls),
        ("core.cells", w.cells),
        ("core.rounds", w.rounds),
        ("hash.final_hash_count", w.final_hash_count),
        ("ir.terms_interned", w.terms_interned),
    ] {
        outcome.set(name, value as f64);
    }
    outcome.set("core.self_s", med(&|p| p.core_self_s));
    for (name, _) in report::PER_LAYER {
        if ["wire.", "service.", "loadgen."]
            .iter()
            .any(|p| name.starts_with(p))
        {
            outcome.set(name, 0.0);
        }
    }

    // Tracing overhead: goodput of the traced passes against the untraced
    // ones of the same run, over whole passes only.
    let goodput = |traced: bool| {
        let mode: Vec<&Op> = ops.iter().filter(|op| op.traced == traced).collect();
        let whole = &mode[..mode.len() - mode.len() % items.len().max(1)];
        let good = whole.iter().filter(|op| op.check == Check::Ok).count();
        good as f64 / whole.iter().map(|op| op.seconds()).sum::<f64>()
    };
    outcome.set("trace.overhead_share", 1.0 - goodput(true) / goodput(false));

    // The trace file: every traced count's root span, and the oracle spans
    // of the first traced pass.
    let mut rows: Vec<TraceRow> = Vec::new();
    for (index, op) in ops.iter().enumerate().filter(|(_, op)| op.traced) {
        rows.push(TraceRow {
            id: index as u64,
            parent: None,
            op: index as u64,
            name: "count",
            start_ns: op.start_ns,
            end_ns: op.end_ns,
        });
    }
    for span in spans.iter().filter(|s| pass_of[s.op as usize] == Some(0)) {
        rows.push(TraceRow {
            id: (ops.len() + rows.len()) as u64,
            parent: Some(u64::from(span.op)),
            op: u64::from(span.op),
            name: span.call.name(),
            start_ns: span.start_ns,
            end_ns: span.end_ns,
        });
    }
    match report::write_trace(workload, meta, &rows) {
        Ok(path) => println!("# trace {} ({} spans)", path.display(), rows.len()),
        Err(e) => {
            println!("# wrong: trace file not written: {e}");
            outcome.correct = false;
        }
    }
}
