//! The three workloads: seeded instance selection, the SMT-LIB round trip,
//! reference counts, the set-up guards and the correctness gate.
//!
//! Every input is derived from the benchmark's `--seed`; the library only
//! ever sees the generated formulas (as parsed SMT-LIB) and the counting
//! configuration.

use std::time::{Duration, Instant};

use pact::{
    get_constants, BackendSpec, CountOutcome, CounterConfig, HashFamily, OracleFactory,
    ParallelConfig, Session,
};
use pact_benchgen::{GenParams, Instance};
use pact_ir::logic::Logic;
use pact_ir::TermManager;

/// Outer iterations per count: the fixed small override `HarnessConfig`
/// uses, so a count takes milliseconds instead of Algorithm 3's 67–90
/// rounds.
pub const ITERATIONS: u32 = 3;
/// The `(ε, δ)` of every count: the engine defaults (the paper's setup).
pub const EPSILON: f64 = 0.8;
/// See [`EPSILON`].
pub const DELTA: f64 = 0.2;
/// Per-count deadline, direct and over the wire.  A deadline does not
/// interrupt a running `check`, so it is only a backstop; the set-up guard
/// asserts it is at least 10× the slowest count.
pub const DEADLINE: Duration = Duration::from_secs(20);
/// Model limit of the reference enumeration.  Every selected instance has
/// far fewer projected models (at most 2^10).
const ENUM_LIMIT: u64 = 1 << 16;
/// No instance may take more than this share of its workload's count time.
const MAX_TIME_SHARE: f64 = 0.25;
/// Hash seeds the warm-up tries per item before set-up gives up on it.
const SEED_TRIES: u32 = 8;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one client: `pact_prime` and `pact_shift` counts.
    DirectWord,
    /// Closed loop, one client: `pact_xor` counts.
    DirectXor,
    /// Open loop over one TCP connection to `serve_listener`.
    ServiceWire,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 3] = [
        Workload::DirectWord,
        Workload::DirectXor,
        Workload::ServiceWire,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order.  `direct-word`
    /// is left out: on a shared host its timings moved by up to 1.5x
    /// between runs of one build (see `README.md`).
    pub const BENCHMARKED: [Workload; 2] = [Workload::DirectXor, Workload::ServiceWire];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DirectWord => "direct-word",
            Workload::DirectXor => "direct-xor",
            Workload::ServiceWire => "service-wire",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Mixed into the seed so two workloads never share an input stream.
    fn salt(self) -> u64 {
        match self {
            Workload::DirectWord => 0x5744_4952,
            Workload::DirectXor => 0x5844_4952,
            Workload::ServiceWire => 0x5749_5245,
        }
    }
}

/// A small seeded generator (SplitMix64): the benchmark's only source of
/// randomness, so a seed pins every input.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one workload and seed.
    pub fn new(workload: Workload, seed: u64) -> Self {
        SplitMix(seed ^ workload.salt().rotate_left(32))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The six `pact_benchgen` generators, one per Table I logic.
const GENERATORS: [fn(&GenParams) -> Instance; 6] = [
    pact_benchgen::cps_robustness,
    pact_benchgen::cfg_reachability,
    pact_benchgen::quantitative_verification,
    pact_benchgen::information_flow,
    pact_benchgen::sensor_log,
    pact_benchgen::hybrid_controller,
];

/// What to generate for one item; the seed supplies the rest.
#[derive(Debug, Clone, Copy)]
struct Spec {
    generator: usize,
    width: u32,
    family: HashFamily,
    batch: bool,
}

/// The fixed shape of each workload's instance list.  Widths are chosen so
/// every count saturates the base cell (more than `thresh` = 73 projected
/// models) while the reference enumeration stays cheap; see `README.md`
/// for the measured per-family count times.
fn specs(workload: Workload) -> Vec<Spec> {
    let grid = |widths: &[u32], families: &[HashFamily], batch: bool| {
        let mut out = Vec::new();
        for generator in 0..GENERATORS.len() {
            for &width in widths {
                for &family in families {
                    out.push(Spec {
                        generator,
                        width,
                        family,
                        batch,
                    });
                }
            }
        }
        out
    };
    match workload {
        Workload::DirectWord => grid(&[7, 8, 9], &[HashFamily::Prime, HashFamily::Shift], false),
        // Two instances per width, and no width 11: the 90th percentile,
        // set by width-11 counts, swung with machine load far more than the
        // median (p90/p50 from 2.0 to 2.5 between runs of one seed).
        Workload::DirectXor => grid(&[8, 8, 9, 9, 10, 10], &[HashFamily::Xor], false),
        Workload::ServiceWire => {
            // Small counts stay well under the ~40 ms the wire holds each
            // response line (see README.md), even on a slowed machine: a
            // count that outlasts its own acknowledgement waits a second
            // time, and the 90th percentile then jumps between the two.
            let mut items = grid(&[7, 7, 8, 8, 9, 9], &[HashFamily::Xor], false);
            items.extend(grid(&[10], &[HashFamily::Prime], true));
            items
        }
    }
}

/// One generated instance, ready to count.
pub struct Item {
    /// The generator's instance name (generator, scale, width, seed).
    pub name: String,
    /// The instance's Table I logic.
    pub logic: Logic,
    /// Projection width in bits.
    pub bits: u32,
    /// Hash family of its counts.
    pub family: HashFamily,
    /// Hash seed of its counts.
    pub seed: u64,
    /// How many hash seeds the warm-up discarded because their count fell
    /// outside the ε band.
    pub redraws: u32,
    /// Sent with `:priority batch` on `service-wire`.
    pub batch: bool,
    /// The instance printed as SMT-LIB: what the service receives, and
    /// what the direct session below was parsed from.
    pub script: String,
    /// The true projected count, from the reference enumerator.
    pub truth: u64,
    /// A session over the parsed script, reused by every direct count.
    pub session: Session,
}

impl Item {
    /// The configuration of every count of this item: the default
    /// (incremental) backend, one thread, the harness iteration override,
    /// the deadline, and the item's hash seed.  Every count of the item
    /// therefore does the same work.
    pub fn counter_config(&self) -> CounterConfig {
        CounterConfig {
            epsilon: EPSILON,
            delta: DELTA,
            family: self.family,
            seed: self.seed,
            deadline: Some(DEADLINE),
            iterations_override: Some(ITERATIONS),
            parallel: ParallelConfig { threads: 1 },
            ..CounterConfig::default()
        }
    }
}

/// The workload's item list for `seed`: generate, print to SMT-LIB, parse
/// back, and obtain each reference count.  This is the timed part of
/// set-up (with starting the service, on `service-wire`).
///
/// # Errors
///
/// A generated script that does not parse, or a reference count that does
/// not finish exactly.
pub fn build_items(workload: Workload, seed: u64) -> Result<Vec<Item>, String> {
    let mut rng = SplitMix::new(workload, seed);
    specs(workload)
        .into_iter()
        .map(|spec| {
            // `cps_robustness` projects `scale` variables; the others one.
            let scale = if spec.generator == 0 {
                1
            } else {
                1 + spec.width % 3
            };
            let params = GenParams {
                scale,
                width: spec.width,
                seed: rng.next_u64(),
            };
            let count_seed = rng.next_u64();
            let instance = GENERATORS[spec.generator](&params);
            let script = instance.to_smtlib();
            let session = parse_session(&script)?;
            let truth = reference_count(&script)?;
            Ok(Item {
                name: instance.name.clone(),
                logic: instance.logic,
                bits: instance.projection_bits(),
                family: spec.family,
                seed: count_seed,
                redraws: 0,
                batch: spec.batch,
                script,
                truth,
                session,
            })
        })
        .collect()
}

/// A counting session over an SMT-LIB script with a `:projection`.
fn parse_session(script: &str) -> Result<Session, String> {
    let mut tm = TermManager::new();
    let parsed = pact_ir::parser::parse_script(&mut tm, script)
        .map_err(|e| format!("generated script does not parse: {e}"))?;
    Session::builder(tm)
        .assert_all(&parsed.asserts)
        .project_all(&parsed.projection)
        .build()
        .map_err(|e| format!("session: {e}"))
}

/// The exact projected count by `Session::enumerate` on the `rebuild`
/// backend — the `enum` enumerator of the paper's Fig. 2, on a session of
/// its own, never the counter under test.
fn reference_count(script: &str) -> Result<u64, String> {
    let mut session = parse_session(script)?;
    let config = CounterConfig {
        oracle_factory: OracleFactory::from_spec(BackendSpec::Rebuild),
        parallel: ParallelConfig { threads: 1 },
        ..CounterConfig::default()
    };
    let report = session
        .enumerate_with(ENUM_LIMIT, &config)
        .map_err(|e| format!("reference enumeration: {e}"))?;
    match report.outcome {
        CountOutcome::Exact(n) if n < ENUM_LIMIT => Ok(n),
        CountOutcome::Unsatisfiable => Ok(0),
        other => Err(format!("reference enumeration did not finish: {other}")),
    }
}

/// Set-up guard: every item's base cell saturates, so hashing runs.
///
/// # Errors
///
/// Names the first item whose true count is at most `thresh`.
pub fn check_saturation(items: &[Item]) -> Result<(), String> {
    for item in items {
        let thresh = get_constants(EPSILON, DELTA, item.family).thresh;
        if item.truth <= thresh {
            return Err(format!(
                "guard: {} has {} projected models, not above thresh {thresh}, so its base cell \
                 does not saturate",
                item.name, item.truth
            ));
        }
    }
    Ok(())
}

/// Counts every item once, untimed: fills caches and brings each session's
/// term store to its steady size, and yields the per-item count times the
/// time guards need.
///
/// It is also the guard that no timed operation fails.  A count is
/// deterministic in its hash seed, so an estimate outside the ε band would
/// miss again in every pass; such an item gets the next hash seed of a
/// seeded sequence, up to [`SEED_TRIES`] seeds, and keeps the first one
/// whose count lands in the band.
///
/// # Errors
///
/// A count that errors, times out or answers wrongly, or an item with no
/// in-band count in [`SEED_TRIES`] hash seeds.
pub fn warm_up(items: &mut [Item]) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(items.len());
    for item in items.iter_mut() {
        loop {
            let config = item.counter_config();
            let start = Instant::now();
            let report = item
                .session
                .count_with(&config)
                .map_err(|e| format!("warm-up count of {}: {e}", item.name))?;
            let elapsed = start.elapsed().as_secs_f64();
            match judge(&report.outcome, item.truth) {
                Check::Ok => {
                    times.push(elapsed);
                    break;
                }
                Check::Miss(_) if item.redraws + 1 < SEED_TRIES => {
                    item.seed = SplitMix(item.seed).next_u64();
                    item.redraws += 1;
                }
                Check::Miss(why) | Check::Failed(why) | Check::Wrong(why) => {
                    return Err(format!(
                        "warm-up count of {} (hash seed {}): {why}",
                        item.name, item.seed
                    ));
                }
            }
        }
    }
    Ok(times)
}

/// Set-up guard on the warm-up times: no item takes more than a quarter of
/// the workload's count time (`weights` = how often each item is counted),
/// and the deadline is at least 10× the slowest count.
///
/// # Errors
///
/// Names the offending item.
pub fn check_times(items: &[Item], times: &[f64], weights: &[f64]) -> Result<(), String> {
    let total: f64 = times.iter().zip(weights).map(|(t, w)| t * w).sum();
    for ((item, &t), &w) in items.iter().zip(times).zip(weights) {
        if t * w > MAX_TIME_SHARE * total {
            return Err(format!(
                "guard: {} takes {:.1}% of the workload's count time (limit {:.0}%)",
                item.name,
                100.0 * t * w / total,
                100.0 * MAX_TIME_SHARE
            ));
        }
        if 10.0 * t > DEADLINE.as_secs_f64() {
            return Err(format!(
                "guard: the {} s deadline is less than 10x {}'s count time {t:.3} s",
                DEADLINE.as_secs(),
                item.name
            ));
        }
    }
    Ok(())
}

/// The verdict on one answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// Exact and equal to the truth, or an estimate inside the ε band.
    Ok,
    /// The operation failed without answering: an error or a timeout.
    Failed(String),
    /// An estimate outside truth·[1/(1+ε), 1+ε]: a failed operation that
    /// the `(ε, δ)` guarantee allows for at most a δ share of counts.
    Miss(String),
    /// A wrong answer: an exact count or an unsat verdict that differs
    /// from the truth.
    Wrong(String),
}

/// Judges one outcome against the reference count.
pub fn judge(outcome: &CountOutcome, truth: u64) -> Check {
    match *outcome {
        CountOutcome::Exact(n) if n == truth => Check::Ok,
        CountOutcome::Exact(n) => Check::Wrong(format!("exact {n}, truth {truth}")),
        CountOutcome::Unsatisfiable if truth == 0 => Check::Ok,
        CountOutcome::Unsatisfiable => Check::Wrong(format!("unsat, truth {truth}")),
        CountOutcome::Approximate { estimate, .. } => judge_estimate(estimate, truth),
        CountOutcome::Timeout => Check::Failed("timeout".to_string()),
    }
}

/// Judges an estimate against the ε band around the truth.
fn judge_estimate(estimate: f64, truth: u64) -> Check {
    let truth_f = truth as f64;
    if estimate >= truth_f / (1.0 + EPSILON) && estimate <= truth_f * (1.0 + EPSILON) {
        Check::Ok
    } else {
        Check::Miss(format!(
            "estimate {estimate} outside truth {truth} x [1/{0}, {0}]",
            1.0 + EPSILON
        ))
    }
}

/// Prints the chosen instance list, so a reader sees what a workload holds.
pub fn print_items(workload: Workload, items: &[Item], warm: &[f64]) {
    for (item, t) in items.iter().zip(warm) {
        println!(
            "# instance workload={} name={} logic={} bits={} family={} batch={} truth={} \
             hash_seed={} seed_redraws={} warm_up_s={t:.4}",
            workload.name(),
            item.name,
            item.logic.name(),
            item.bits,
            family_name(item.family),
            item.batch,
            item.truth,
            item.seed,
            item.redraws
        );
    }
}

/// The wire spelling of a hash family.
pub fn family_name(family: HashFamily) -> &'static str {
    match family {
        HashFamily::Xor => "xor",
        HashFamily::Prime => "prime",
        HashFamily::Shift => "shift",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_the_epsilon_band() {
        let approx = |estimate: f64| CountOutcome::Approximate {
            estimate,
            log2_estimate: estimate.log2(),
        };
        assert_eq!(judge(&approx(100.0), 100), Check::Ok);
        assert_eq!(judge(&approx(179.0), 100), Check::Ok);
        assert!(matches!(judge(&approx(181.0), 100), Check::Miss(_)));
        assert!(matches!(judge(&approx(55.0), 100), Check::Miss(_)));
        assert_eq!(judge(&CountOutcome::Exact(7), 7), Check::Ok);
        assert!(matches!(judge(&CountOutcome::Exact(8), 7), Check::Wrong(_)));
        assert!(matches!(
            judge(&CountOutcome::Unsatisfiable, 7),
            Check::Wrong(_)
        ));
        assert!(matches!(judge(&CountOutcome::Timeout, 7), Check::Failed(_)));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("direct"), None);
    }
}
