//! Tracing of the direct workloads: an [`Oracle`] decorator installed with
//! [`OracleFactory::new`] around the default backend.  It forwards all
//! thirteen trait methods, times each call as a span tagged with the
//! current count's operation id, and reads the inner oracle's
//! [`OracleStats`] when the oracle is dropped.  No library code changes:
//! the spans sit at the boundary between the counting core (`pact`) and
//! the oracle layer (`pact_solver`).

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pact::{CubeStats, InterruptFlag, Oracle, OracleFactory, OracleStats, PortfolioStats};
use pact_ir::{BvValue, TermId, TermManager, Value};
use pact_solver::{PolicyStats, Result as SolverResultOf, SolverResult};

/// The kind of oracle call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// The factory building the oracle.
    Build,
    /// `push` or `pop`.
    Frame,
    /// `assert_term` or `track_var`.
    Assert,
    /// `assert_xor_bits`: a native XOR hash row.
    Xor,
    /// A `check` following construction, `push` or `pop`: the check that
    /// pays for encoding the frame.
    CheckFirst,
    /// A `check` following only new assertions (model enumeration).
    CheckNext,
    /// `model_value` or `projected_model`.
    Model,
    /// `stats`, `set_interrupt`, `portfolio`, `cube` or `policy`.
    Other,
}

impl Call {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Call::Build => "solver.build",
            Call::Frame => "solver.frame",
            Call::Assert => "solver.assert",
            Call::Xor => "solver.xor",
            Call::CheckFirst => "solver.check_first",
            Call::CheckNext => "solver.check_next",
            Call::Model => "solver.model",
            Call::Other => "solver.other",
        }
    }
}

/// One timed oracle call.  Its parent is the `count` span of operation
/// `op`; oracle spans never nest inside each other.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The operation (count) the call belongs to.
    pub op: u32,
    /// What was called.
    pub call: Call,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Whether a check answered unsat.
    pub unsat: bool,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug, Default)]
struct Sink {
    spans: Vec<Span>,
    stats: Vec<(u32, OracleStats)>,
}

/// Collects the spans and final oracle statistics of a run in memory.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    sink: Mutex<Sink>,
}

impl Recorder {
    /// A recorder whose span times count from `epoch`.
    pub fn new(epoch: Instant) -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch,
            sink: Mutex::new(Sink::default()),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A factory that builds the default backend behind the tracing
    /// decorator, tagging every span with `op`.
    pub fn factory(self: &Arc<Self>, op: u32) -> OracleFactory {
        let recorder = Arc::clone(self);
        OracleFactory::new(move |config| {
            let start = recorder.now_ns();
            let traced = Traced::new(OracleFactory::default().build(config), &recorder, op);
            traced.record(Call::Build, start, false);
            Box::new(traced)
        })
    }

    /// Takes every span and every dropped oracle's statistics recorded so
    /// far, leaving the recorder empty.
    pub fn take(&self) -> (Vec<Span>, Vec<(u32, OracleStats)>) {
        let mut sink = self.sink.lock().expect("trace sink poisoned");
        (
            std::mem::take(&mut sink.spans),
            std::mem::take(&mut sink.stats),
        )
    }
}

/// The decorator.  Spans buffer locally and reach the recorder, with the
/// inner oracle's statistics, when the oracle is dropped.
struct Traced {
    inner: Box<dyn Oracle>,
    recorder: Arc<Recorder>,
    op: u32,
    /// No check since construction, `push` or `pop`.
    fresh: bool,
    spans: RefCell<Vec<Span>>,
}

impl Traced {
    fn new(inner: Box<dyn Oracle>, recorder: &Arc<Recorder>, op: u32) -> Traced {
        Traced {
            inner,
            recorder: Arc::clone(recorder),
            op,
            fresh: true,
            spans: RefCell::new(Vec::new()),
        }
    }

    fn record(&self, call: Call, start_ns: u64, unsat: bool) {
        let end_ns = self.recorder.now_ns();
        self.spans.borrow_mut().push(Span {
            op: self.op,
            call,
            start_ns,
            end_ns,
            unsat,
        });
    }

    fn timed<R>(&mut self, call: Call, f: impl FnOnce(&mut dyn Oracle) -> R) -> R {
        let start = self.recorder.now_ns();
        let result = f(&mut *self.inner);
        self.record(call, start, false);
        result
    }

    fn timed_ref<R>(&self, call: Call, f: impl FnOnce(&dyn Oracle) -> R) -> R {
        let start = self.recorder.now_ns();
        let result = f(&*self.inner);
        self.record(call, start, false);
        result
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        let stats = self.inner.stats();
        let spans = std::mem::take(self.spans.get_mut());
        // Never panic in drop: a poisoned sink only loses this oracle's
        // spans, and the run's consistency checks then report it.
        if let Ok(mut sink) = self.recorder.sink.lock() {
            sink.spans.extend(spans);
            sink.stats.push((self.op, stats));
        }
    }
}

impl Oracle for Traced {
    fn push(&mut self) {
        self.fresh = true;
        self.timed(Call::Frame, |o| o.push());
    }

    fn pop(&mut self) {
        self.fresh = true;
        self.timed(Call::Frame, |o| o.pop());
    }

    fn assert_term(&mut self, t: TermId) {
        self.timed(Call::Assert, |o| o.assert_term(t));
    }

    fn assert_xor_bits(&mut self, bits: Vec<(TermId, u32)>, rhs: bool) {
        self.timed(Call::Xor, |o| o.assert_xor_bits(bits, rhs));
    }

    fn track_var(&mut self, var: TermId) {
        self.timed(Call::Assert, |o| o.track_var(var));
    }

    fn check(&mut self, tm: &mut TermManager) -> SolverResultOf<SolverResult> {
        let call = if self.fresh {
            Call::CheckFirst
        } else {
            Call::CheckNext
        };
        self.fresh = false;
        let start = self.recorder.now_ns();
        let result = self.inner.check(tm);
        let unsat = matches!(result, Ok(SolverResult::Unsat));
        self.record(call, start, unsat);
        result
    }

    fn model_value(&self, tm: &TermManager, var: TermId) -> Option<Value> {
        self.timed_ref(Call::Model, |o| o.model_value(tm, var))
    }

    fn projected_model(&self, tm: &TermManager, projection: &[TermId]) -> Option<Vec<BvValue>> {
        self.timed_ref(Call::Model, |o| o.projected_model(tm, projection))
    }

    fn stats(&self) -> OracleStats {
        self.timed_ref(Call::Other, |o| o.stats())
    }

    fn set_interrupt(&mut self, flag: InterruptFlag) {
        self.timed(Call::Other, |o| o.set_interrupt(flag));
    }

    fn portfolio(&self) -> Option<PortfolioStats> {
        self.timed_ref(Call::Other, |o| o.portfolio())
    }

    fn cube(&self) -> Option<CubeStats> {
        self.timed_ref(Call::Other, |o| o.cube())
    }

    fn policy(&self) -> Option<PolicyStats> {
        self.timed_ref(Call::Other, |o| o.policy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact::{CubeContext, IncrementalContext};
    use pact_ir::Sort;
    use pact_solver::{PolicyOracle, PortfolioContext};

    /// The decorator around any backend, outside a factory.
    fn wrap(inner: Box<dyn Oracle>, recorder: &Arc<Recorder>, op: u32) -> Box<dyn Oracle> {
        Box::new(Traced::new(inner, recorder, op))
    }

    #[test]
    fn forwards_optional_accounting() {
        let recorder = Recorder::new(Instant::now());
        let portfolio = wrap(Box::new(PortfolioContext::new(2)), &recorder, 0);
        assert!(portfolio.portfolio().is_some());
        assert!(portfolio.cube().is_none());
        let cube = wrap(Box::new(CubeContext::new(2, 2)), &recorder, 0);
        assert!(cube.cube().is_some());
        assert!(cube.portfolio().is_none());
        let policy = wrap(Box::new(PolicyOracle::new()), &recorder, 0);
        assert!(policy.policy().is_some());
        let plain = wrap(Box::new(IncrementalContext::new()), &recorder, 0);
        assert!(plain.portfolio().is_none() && plain.cube().is_none() && plain.policy().is_none());
    }

    #[test]
    fn forwards_set_interrupt() {
        let recorder = Recorder::new(Instant::now());
        let mut tm = TermManager::new();
        let x = tm.mk_var("x", Sort::BitVec(4));
        let three = tm.mk_bv_const(3, 4);
        let f = tm.mk_bv_ult(x, three).unwrap();
        let mut oracle = wrap(Box::new(IncrementalContext::new()), &recorder, 7);
        oracle.track_var(x);
        oracle.assert_term(f);
        assert_eq!(oracle.check(&mut tm).unwrap(), SolverResult::Sat);
        // A raised flag reaches the inner engine: the next check gives up.
        let flag = InterruptFlag::new();
        flag.set();
        oracle.set_interrupt(flag);
        assert_eq!(oracle.check(&mut tm).unwrap(), SolverResult::Unknown);
        drop(oracle);
        let (spans, stats) = recorder.take();
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let checks: Vec<Call> = spans
            .iter()
            .filter(|s| matches!(s.call, Call::CheckFirst | Call::CheckNext))
            .map(|s| s.call)
            .collect();
        assert_eq!(checks, vec![Call::CheckFirst, Call::CheckNext]);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].1.checks, 2);
    }
}
