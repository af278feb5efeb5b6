//! Shared harness code for regenerating the paper's tables and figures.
//!
//! The binaries in `src/bin/` print the same rows / series the paper reports:
//!
//! * `table1`  — instances counted per logic and configuration (Table I);
//! * `cactus`  — sorted per-instance runtimes per configuration (Fig. 1);
//! * `accuracy` — observed relative error against the exact count (Fig. 2);
//! * `oracle_calls` — oracle calls vs. projection size (Theorem 1).
//!
//! Absolute numbers differ from the paper (the substrate is this workspace's
//! own solver on generated workloads, not CVC5 on SMT-LIB 2023 on a cluster),
//! but the comparisons — which configuration wins, by roughly what factor —
//! are the reproduction target.  See `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use pact::parallel::{run_rounds, RoundOutput};
use pact::{CountOutcome, CountReport, CounterConfig, HashFamily, Session};
use pact_benchgen::Instance;
use pact_ir::logic::Logic;

pub mod cli;
pub mod throughput;

/// One counting configuration of the evaluation: the CDM baseline or `pact`
/// with one of the three hash families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Configuration {
    /// The Chistikov–Dimitrova–Majumdar baseline.
    Cdm,
    /// `pact` with the given hash family.
    Pact(HashFamily),
}

impl Configuration {
    /// All configurations in the order of Table I's columns.
    pub const ALL: [Configuration; 4] = [
        Configuration::Cdm,
        Configuration::Pact(HashFamily::Prime),
        Configuration::Pact(HashFamily::Shift),
        Configuration::Pact(HashFamily::Xor),
    ];

    /// Column label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Configuration::Cdm => "CDM",
            Configuration::Pact(HashFamily::Prime) => "pact_prime",
            Configuration::Pact(HashFamily::Shift) => "pact_shift",
            Configuration::Pact(HashFamily::Xor) => "pact_xor",
        }
    }
}

/// Upper bound on the diversified workers the harness's portfolio backend
/// races per oracle `check` — four covers both backend styles plus a
/// polarity flip and a sprint restart schedule.
pub const MAX_HARNESS_WORKERS: usize = 4;

/// Clamps a detected core count into the harness's worker range:
/// `min(cores, 4)` with a floor of one.  Split out of
/// [`portfolio_workers`] so the clamp itself is unit-testable without
/// depending on the machine the tests run on.
pub fn clamp_harness_workers(cores: usize) -> usize {
    cores.clamp(1, MAX_HARNESS_WORKERS)
}

/// Number of workers the harness's parallel backends (portfolio racers,
/// cube conquerors) use per oracle `check`: `min(available cores, 4)`.
/// The count is adaptive because on single-core CI runners a fixed 4-way
/// race serializes and can lose per-instance deadlines the single engines
/// beat.
pub fn portfolio_workers() -> usize {
    clamp_harness_workers(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    )
}

/// Split depth of the harness's cube backend (up to `2^3 = 8` cubes per
/// hard oracle check, the `CubeContext` default).
pub const CUBE_DEPTH: usize = 3;

/// Which built-in oracle backend a run used (the `OracleFactory` choice):
/// the single-engine context in rebuild mode (debug) or in its default
/// mode, whose encoder survives `pop` (the default backend), the
/// racing portfolio that fans every `check` out to diversified workers, the
/// cube-and-conquer backend that partitions every hard `check` into
/// sub-solves, or the adaptive policy that re-routes each `check` across
/// the others from observed statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// `IncrementalContext` in rebuild mode (the debug backend).
    Rebuild,
    /// The activation-literal `IncrementalContext` backend (zero rebuilds;
    /// the default).
    #[default]
    Incremental,
    /// The racing `PortfolioContext` backend ([`portfolio_workers`]
    /// workers).
    Portfolio,
    /// The cube-and-conquer `CubeContext` backend ([`CUBE_DEPTH`] split
    /// depth, [`portfolio_workers`] conquering workers).
    Cube,
    /// The adaptive `PolicyOracle` backend (per-check routing).
    Adaptive,
}

impl Backend {
    /// Every backend, in artifact emission order.
    pub const ALL: [Backend; 5] = [
        Backend::Rebuild,
        Backend::Incremental,
        Backend::Portfolio,
        Backend::Cube,
        Backend::Adaptive,
    ];

    /// The two single-engine backends (the pre-portfolio `--backend both`).
    pub const SINGLE_ENGINE: [Backend; 2] = [Backend::Rebuild, Backend::Incremental];

    /// Column label used in reports and the JSON artifact.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Rebuild => "rebuild",
            Backend::Incremental => "incremental",
            Backend::Portfolio => "portfolio",
            Backend::Cube => "cube",
            Backend::Adaptive => "adaptive",
        }
    }

    /// The declarative [`pact::BackendSpec`] this harness backend maps onto
    /// — the single place the enum meets the counting engine's backend API,
    /// so every binary sweeping [`Backend::ALL`] builds the oracle its label
    /// claims.
    pub fn spec(&self) -> pact::BackendSpec {
        match self {
            Backend::Rebuild => pact::BackendSpec::Rebuild,
            Backend::Incremental => pact::BackendSpec::Incremental,
            Backend::Portfolio => pact::BackendSpec::Portfolio {
                workers: portfolio_workers(),
            },
            Backend::Cube => pact::BackendSpec::Cube {
                depth: CUBE_DEPTH,
                workers: portfolio_workers(),
            },
            Backend::Adaptive => pact::BackendSpec::Adaptive,
        }
    }

    /// The `OracleFactory` this backend selects (its [`Backend::spec`]
    /// resolved through the engine's one spec-to-factory mapping).
    pub fn oracle_factory(&self) -> pact::OracleFactory {
        pact::OracleFactory::from_spec(self.spec())
    }

    /// The harness backend sweeping a given engine spec's family.  The
    /// harness pins its own parallel parameters ([`portfolio_workers`],
    /// [`CUBE_DEPTH`]), so an explicit `workers`/`depth` carried by the
    /// spec is not representable here — callers that must honor it should
    /// reject parameterized specs instead of mapping them.
    pub fn from_spec(spec: pact::BackendSpec) -> Backend {
        match spec {
            pact::BackendSpec::Rebuild => Backend::Rebuild,
            pact::BackendSpec::Incremental => Backend::Incremental,
            pact::BackendSpec::Portfolio { .. } => Backend::Portfolio,
            pact::BackendSpec::Cube { .. } => Backend::Cube,
            pact::BackendSpec::Adaptive => Backend::Adaptive,
        }
    }
}

/// The result of running one configuration on one instance.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Instance name.
    pub instance: String,
    /// Instance logic (Table I row).
    pub logic: Logic,
    /// Which configuration ran.
    pub configuration: Configuration,
    /// Which oracle backend ran it.
    pub backend: Backend,
    /// The service shard that served the run, for records produced through
    /// `pact-service` (the throughput bench); `None` for direct runs.
    pub shard: Option<usize>,
    /// Wall-clock seconds the request waited in the service admission queue
    /// before a shard picked it up; `0.0` for direct runs.
    pub queue_seconds: f64,
    /// The deterministic size estimate the service's placement layer
    /// stamped on the request (projection width × interned terms); `0` for
    /// direct runs, which never pass through placement.
    pub cost_estimate: u64,
    /// The counting report (outcome + stats).
    pub report: CountReport,
}

impl RunRecord {
    /// Whether the run finished within its budget.
    pub fn solved(&self) -> bool {
        self.report.outcome.is_solved()
    }

    /// Wall-clock seconds the run took.
    pub fn seconds(&self) -> f64 {
        self.report.stats.wall_seconds
    }
}

/// Harness settings: the per-instance budget and the work-reduction knobs
/// that keep the laptop-scale reproduction tractable.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Per-instance wall-clock budget (the paper uses 3600 s on a cluster;
    /// the default here is deliberately small).
    pub timeout: Duration,
    /// Number of outer iterations per count (overrides Algorithm 3's value;
    /// the guarantee weakens accordingly but the runtime becomes tractable).
    pub iterations: u32,
    /// RNG seed shared by all runs.
    pub seed: u64,
    /// Oracle backend every run builds (see [`Backend`]).
    pub backend: Backend,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            timeout: Duration::from_secs(5),
            iterations: 3,
            seed: 42,
            backend: Backend::Incremental,
        }
    }
}

impl HarnessConfig {
    /// Builds the counter configuration for one run.
    pub fn counter_config(&self, family: HashFamily) -> CounterConfig {
        CounterConfig {
            family,
            seed: self.seed,
            deadline: Some(self.timeout),
            iterations_override: Some(self.iterations),
            ..CounterConfig::default()
        }
        .with_oracle_factory(self.backend.oracle_factory())
    }
}

/// Declares one instance as a counting [`Session`] (cloning the instance's
/// term manager so runs stay independent).
///
/// The harness deliberately goes through the session API: one declared
/// problem is counted under all four configurations of the evaluation via
/// [`Session::count_with`] / [`Session::count_cdm_with`].
///
/// # Errors
///
/// Returns [`pact::CountError`] when the instance declares no projection
/// (generated instances always do).
pub fn instance_session(instance: &Instance) -> Result<Session, pact::CountError> {
    Session::builder(instance.tm.clone())
        .assert_all(&instance.asserts)
        .project_all(&instance.projection)
        .build()
}

/// Runs one configuration on one instance.
pub fn run_one(
    instance: &Instance,
    configuration: Configuration,
    harness: &HarnessConfig,
) -> RunRecord {
    let report = instance_session(instance).and_then(|mut session| match configuration {
        Configuration::Cdm => session.count_cdm_with(&harness.counter_config(HashFamily::Xor)),
        Configuration::Pact(family) => session.count_with(&harness.counter_config(family)),
    });
    let report = report.unwrap_or(CountReport {
        outcome: CountOutcome::Timeout,
        stats: pact::CountStats::default(),
    });
    RunRecord {
        instance: instance.name.clone(),
        logic: instance.logic,
        configuration,
        backend: harness.backend,
        shard: None,
        queue_seconds: 0.0,
        cost_estimate: 0,
        report,
    }
}

/// Runs every configuration on every instance of the suite.
pub fn run_suite(instances: &[Instance], harness: &HarnessConfig) -> Vec<RunRecord> {
    run_suite_parallel(instances, harness, 1)
}

/// Runs every configuration on every instance, fanning the independent
/// `(instance, configuration)` runs across `threads` workers (`0` = all
/// cores).
///
/// Each run owns its clones of the instance's term manager and its own
/// oracle, and each carries its own per-instance deadline
/// ([`HarnessConfig::timeout`]), so a stuck instance only occupies one
/// worker.  Records come back in the same deterministic order `run_suite`
/// produces (instance-major, configuration-minor).  The per-record
/// *verdicts* match a sequential run except near the timeout boundary:
/// `wall_seconds` always reflects the actual run, and an instance whose
/// runtime sits close to the deadline can tip either way when workers
/// oversubscribe the cores.  Suite-level parallelism composes with, and is
/// independent of, the round-level parallelism inside a single count
/// ([`CounterConfig::parallel`]).
pub fn run_suite_parallel(
    instances: &[Instance],
    harness: &HarnessConfig,
    threads: usize,
) -> Vec<RunRecord> {
    let pairs: Vec<(&Instance, Configuration)> = instances
        .iter()
        .flat_map(|instance| {
            Configuration::ALL
                .iter()
                .map(move |&configuration| (instance, configuration))
        })
        .collect();
    let workers = pact::ParallelConfig { threads }.effective_threads();
    // The counting engine's round scheduler is exactly the fan-out needed
    // here: runs never stop the schedule, so every ticket is executed.
    let outputs = run_rounds(workers, pairs.len() as u32, |i| {
        let (instance, configuration) = pairs[i as usize];
        RoundOutput {
            value: run_one(instance, configuration, harness),
            stop: false,
        }
    });
    outputs
        .into_iter()
        .map(|slot| slot.expect("no run stops the schedule"))
        .collect()
}

/// Version of the per-record JSON schema emitted by [`records_to_json`].
///
/// Bump this (and the round-trip test pinning the field list) whenever a
/// field is added, removed or re-typed, so downstream consumers of the CI
/// artifact can dispatch on `schema_version` instead of sniffing keys.
pub const RECORD_SCHEMA_VERSION: u32 = 9;

/// The field names of one JSON record, in emission order (the schema that
/// [`RECORD_SCHEMA_VERSION`] versions).
///
/// Schema v3 added the portfolio accounting triple: `portfolio_workers`
/// (how many workers each oracle `check` raced; 0 for single-engine
/// backends), `worker_wins` (a JSON array of per-worker decisive-answer
/// counts, one entry per configured worker — two-plus non-zero entries mean
/// the diversification is live), and `cancelled_solves` (worker solves cut
/// short after losing a race).
///
/// Schema v4 adds the cube accounting triple: `cubes_split` (oracle checks
/// the cube backend divided into cubes; 0 for every other backend),
/// `cubes_solved` (cubes decisively answered — by lookahead probe or
/// conquest), and `cube_refuted_by_lookahead` (cubes the probe killed
/// before any conquest work was spent).
///
/// Schema v5 adds the persistent-runtime pair: `pool_reuses` (batches the
/// parallel backends' long-lived worker pools served instead of spawning
/// fresh threads; 0 for single-engine backends) and `compactions`
/// (re-encodes the default-mode activation-literal oracles performed after
/// popping a frame whose terms allocated SAT variables — their `rebuilds`
/// stays 0).
///
/// Schema v6 adds the service pair: `shard` (which `pact-service` shard
/// served the run; `-1` for direct, non-service runs) and `queue_seconds`
/// (wall-clock time the request waited in the service admission queue;
/// `0.0` for direct runs).  Both come from the `service_throughput` bench.
///
/// Schema v7 adds the hash-consing triple: `terms_interned` (the final size
/// of the interned term store — a size, not a flow), `preprocess_cache_hits`
/// (preprocessing results served from a term-id-keyed cache instead of
/// recomputed) and `probe_cache_hits` (cube lookahead probes answered from
/// the probe-outcome cache; 0 for every other backend).
///
/// Schema v8 adds the adaptive-policy triple: `policy_switches` (backend
/// re-routes the adaptive policy performed; 0 for fixed-strategy backends),
/// `policy_backend_checks` (a JSON array of checks served per backend slot,
/// in the order rebuild, incremental, portfolio, cube — two-plus non-zero
/// entries mean the adaptivity is live) and `cube_depth_max` (the deepest
/// cube split the policy reached; a max, not a flow).
///
/// Schema v9 adds `cost_estimate`: the deterministic size estimate
/// (projection width × interned terms) the service's size-aware placement
/// stamped on the request, `0` for direct runs.  The wire protocol
/// (`pact_service::wire`) mirrors this schema's field names and version on
/// its result objects, and the service throughput summary gains the
/// per-shard steal counters alongside it.
pub const RECORD_SCHEMA_FIELDS: [&str; 31] = [
    "schema_version",
    "instance",
    "logic",
    "configuration",
    "backend",
    "shard",
    "queue_seconds",
    "cost_estimate",
    "outcome",
    "estimate",
    "log2_estimate",
    "oracle_calls",
    "cells_explored",
    "iterations",
    "rebuilds",
    "portfolio_workers",
    "worker_wins",
    "cancelled_solves",
    "cubes_split",
    "cubes_solved",
    "cube_refuted_by_lookahead",
    "pool_reuses",
    "compactions",
    "terms_interned",
    "preprocess_cache_hits",
    "probe_cache_hits",
    "policy_switches",
    "policy_backend_checks",
    "cube_depth_max",
    "oracle_seconds",
    "wall_seconds",
];

/// Renders run records as a JSON array (one object per run), the format the
/// CI smoke-bench job uploads as its artifact.
///
/// Every record carries a `schema_version` field (see
/// [`RECORD_SCHEMA_VERSION`]).
pub fn records_to_json(records: &[RunRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, record) in records.iter().enumerate() {
        let (kind, value, log2) = record.report.outcome.record_fields();
        let stats = &record.report.stats;
        let oracle = &stats.oracle;
        // The flat columns of an absent backend block read as zeros.
        let portfolio = stats.portfolio.unwrap_or_default();
        let cube = stats.cube.unwrap_or_default();
        let policy = stats.policy.unwrap_or_default();
        // Compact (no inner spaces) so the flat line format stays parseable
        // by split-on-", " consumers: one entry per configured worker.
        let wins = portfolio
            .wins
            .iter()
            .take(portfolio.workers as usize)
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        // `shard` is -1 for direct (non-service) runs, so the column stays
        // numeric and split-on-", " parseable.
        let shard = record.shard.map(|s| s as i64).unwrap_or(-1);
        // Compact like `worker_wins`: all four slots, in the fixed rebuild /
        // incremental / portfolio / cube order.
        let policy_checks = policy
            .backend_checks
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            concat!(
                "  {{\"schema_version\": {}, ",
                "\"instance\": \"{}\", \"logic\": \"{}\", \"configuration\": \"{}\", ",
                "\"backend\": \"{}\", \"shard\": {}, \"queue_seconds\": {:.6}, ",
                "\"cost_estimate\": {}, ",
                "\"outcome\": \"{}\", \"estimate\": {}, \"log2_estimate\": {}, ",
                "\"oracle_calls\": {}, \"cells_explored\": {}, \"iterations\": {}, ",
                "\"rebuilds\": {}, \"portfolio_workers\": {}, \"worker_wins\": [{}], ",
                "\"cancelled_solves\": {}, \"cubes_split\": {}, \"cubes_solved\": {}, ",
                "\"cube_refuted_by_lookahead\": {}, \"pool_reuses\": {}, ",
                "\"compactions\": {}, \"terms_interned\": {}, ",
                "\"preprocess_cache_hits\": {}, \"probe_cache_hits\": {}, ",
                "\"policy_switches\": {}, \"policy_backend_checks\": [{}], ",
                "\"cube_depth_max\": {}, ",
                "\"oracle_seconds\": {:.6}, ",
                "\"wall_seconds\": {:.6}}}{}\n"
            ),
            RECORD_SCHEMA_VERSION,
            record.instance,
            record.logic.name(),
            record.configuration.label(),
            record.backend.label(),
            shard,
            record.queue_seconds,
            record.cost_estimate,
            kind,
            value,
            log2,
            stats.oracle_calls,
            stats.cells_explored,
            stats.iterations,
            oracle.rebuilds,
            portfolio.workers,
            wins,
            portfolio.cancelled,
            cube.splits,
            cube.cubes_solved,
            cube.refuted_by_lookahead,
            oracle.pool_reuses,
            oracle.compactions,
            stats.terms_interned,
            oracle.preprocess_cache_hits,
            cube.probe_cache_hits,
            policy.switches,
            policy_checks,
            policy.cube_depth_max,
            stats.oracle_seconds,
            stats.wall_seconds,
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

/// Parses one emitted record line back into its `(key, value)` pairs, with
/// string values unquoted.  This is the test-side half of the schema
/// round-trip: it understands exactly the flat format [`records_to_json`]
/// writes (no nesting, no escapes), which is the point — the schema is
/// pinned, not general.  Deliberately test-only: artifact consumers
/// should use a real JSON parser.
#[cfg(test)]
fn parse_record_line(line: &str) -> Option<Vec<(String, String)>> {
    let line = line.trim().trim_end_matches(',');
    let body = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Vec::new();
    for pair in body.split(", ") {
        let (key, value) = pair.split_once(": ")?;
        let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .unwrap_or(value);
        fields.push((key.to_string(), value.to_string()));
    }
    Some(fields)
}

/// Table I: the number of instances counted per logic and configuration.
pub fn table_one(records: &[RunRecord], instances: &[Instance]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>6} {:>12} {:>12} {:>12} {:>12}\n",
        "Logic", "total", "CDM", "pact_prime", "pact_shift", "pact_xor"
    ));
    let mut totals = [0usize; 4];
    for logic in Logic::TABLE_ONE {
        let total = instances.iter().filter(|i| i.logic == logic).count();
        let mut row = format!("{:<22} {:>6}", logic.name(), total);
        for (k, configuration) in Configuration::ALL.iter().enumerate() {
            let solved = records
                .iter()
                .filter(|r| r.logic == logic && r.configuration == *configuration && r.solved())
                .count();
            totals[k] += solved;
            row.push_str(&format!(" {solved:>12}"));
        }
        out.push_str(&row);
        out.push('\n');
    }
    let total_instances = instances.len();
    out.push_str(&format!(
        "{:<22} {:>6} {:>12} {:>12} {:>12} {:>12}\n",
        "Total", total_instances, totals[0], totals[1], totals[2], totals[3]
    ));
    out
}

/// Fig. 1 (cactus plot): for each configuration, the sorted list of runtimes
/// of the instances it solved.  A point `(i, t)` means "the i-th fastest
/// solved instance took `t` seconds".
pub fn cactus_series(records: &[RunRecord]) -> Vec<(Configuration, Vec<f64>)> {
    Configuration::ALL
        .iter()
        .map(|&configuration| {
            let mut times: Vec<f64> = records
                .iter()
                .filter(|r| r.configuration == configuration && r.solved())
                .map(|r| r.seconds())
                .collect();
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            (configuration, times)
        })
        .collect()
}

/// Renders the cactus series as CSV (one line per point).
pub fn cactus_report(series: &[(Configuration, Vec<f64>)]) -> String {
    let mut out = String::from("configuration,instances_solved,cumulative_seconds\n");
    for (configuration, times) in series {
        let mut cumulative = 0.0;
        for (i, t) in times.iter().enumerate() {
            cumulative += t;
            out.push_str(&format!(
                "{},{},{:.4}\n",
                configuration.label(),
                i + 1,
                cumulative
            ));
        }
        if times.is_empty() {
            out.push_str(&format!("{},0,0.0\n", configuration.label()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact::{CubeStats, PolicyStats, PortfolioStats, MAX_PORTFOLIO_WORKERS};
    use pact_benchgen::{paper_suite, SuiteParams};

    fn tiny_suite() -> Vec<Instance> {
        let params = SuiteParams {
            per_logic: 1,
            min_width: 5,
            max_width: 5,
            max_per_cluster: 5,
            seed: 3,
        };
        paper_suite(&params)
    }

    #[test]
    fn configurations_have_stable_labels() {
        let labels: Vec<&str> = Configuration::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["CDM", "pact_prime", "pact_shift", "pact_xor"]);
    }

    #[test]
    fn harness_runs_a_single_instance_with_every_configuration() {
        let suite = tiny_suite();
        let harness = HarnessConfig {
            timeout: Duration::from_secs(10),
            iterations: 1,
            seed: 1,
            ..HarnessConfig::default()
        };
        // Only exercise the first instance to keep the test fast.
        for configuration in Configuration::ALL {
            let record = run_one(&suite[0], configuration, &harness);
            assert_eq!(record.instance, suite[0].name);
            assert!(record.seconds() >= 0.0);
        }
    }

    #[test]
    fn parallel_suite_runner_matches_sequential_outcomes() {
        let suite: Vec<Instance> = tiny_suite().into_iter().take(2).collect();
        let harness = HarnessConfig {
            timeout: Duration::from_secs(10),
            iterations: 1,
            seed: 1,
            ..HarnessConfig::default()
        };
        let sequential = run_suite(&suite, &harness);
        let parallel = run_suite_parallel(&suite, &harness, 4);
        assert_eq!(sequential.len(), parallel.len());
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.instance, b.instance, "record order must be stable");
            assert_eq!(a.configuration, b.configuration);
            assert_eq!(a.report.outcome, b.report.outcome);
        }
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let suite = tiny_suite();
        let harness = HarnessConfig {
            timeout: Duration::from_secs(10),
            iterations: 1,
            seed: 1,
            ..HarnessConfig::default()
        };
        let records = vec![run_one(
            &suite[0],
            Configuration::Pact(HashFamily::Xor),
            &harness,
        )];
        let json = records_to_json(&records);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"configuration\": \"pact_xor\""));
        assert!(json.contains("\"oracle_calls\""));
        assert_eq!(json.matches("{\"schema_version\"").count(), records.len());
    }

    #[test]
    fn json_records_round_trip_and_pin_the_schema() {
        let suite = tiny_suite();
        let harness = HarnessConfig {
            timeout: Duration::from_secs(10),
            iterations: 1,
            seed: 1,
            ..HarnessConfig::default()
        };
        let mut records = vec![
            run_one(&suite[0], Configuration::Pact(HashFamily::Xor), &harness),
            run_one(&suite[0], Configuration::Cdm, &harness),
        ];
        // Cover both shapes of the v6 service pair: a direct run (shard -1,
        // zero queue wait) and a service-served run — which, as of v9, also
        // carries its placement cost estimate.
        records[1].shard = Some(1);
        records[1].queue_seconds = 0.25;
        records[1].cost_estimate = 384;
        let json = records_to_json(&records);
        let parsed: Vec<Vec<(String, String)>> = json
            .lines()
            .filter(|l| l.trim_start().starts_with('{'))
            .map(|l| parse_record_line(l).expect("well-formed record line"))
            .collect();
        assert_eq!(parsed.len(), records.len());
        for (fields, record) in parsed.iter().zip(&records) {
            let portfolio = record.report.stats.portfolio.unwrap_or_default();
            let cube = record.report.stats.cube.unwrap_or_default();
            // The schema is pinned: exactly these keys, in this order.
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, RECORD_SCHEMA_FIELDS);
            // And the values round-trip.
            let get = |key: &str| {
                fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.as_str())
                    .unwrap()
            };
            assert_eq!(
                get("schema_version").parse::<u32>().unwrap(),
                RECORD_SCHEMA_VERSION
            );
            assert_eq!(get("instance"), record.instance);
            assert_eq!(get("logic"), record.logic.name());
            assert_eq!(get("configuration"), record.configuration.label());
            assert_eq!(get("backend"), record.backend.label());
            // The v6 service pair: -1 / the shard index, and a non-negative
            // queue wait.
            assert_eq!(
                get("shard").parse::<i64>().unwrap(),
                record.shard.map(|s| s as i64).unwrap_or(-1)
            );
            let queued = get("queue_seconds").parse::<f64>().unwrap();
            assert!((queued - record.queue_seconds).abs() < 1e-5);
            assert!(queued >= 0.0);
            // The v9 placement field: 0 for direct runs, the stamped
            // estimate for service runs.
            assert_eq!(
                get("cost_estimate").parse::<u64>().unwrap(),
                record.cost_estimate
            );
            assert_eq!(
                get("oracle_calls").parse::<u64>().unwrap(),
                record.report.stats.oracle_calls
            );
            assert_eq!(
                get("rebuilds").parse::<u64>().unwrap(),
                record.report.stats.oracle.rebuilds
            );
            assert_eq!(
                get("portfolio_workers").parse::<u32>().unwrap(),
                portfolio.workers
            );
            let wins = get("worker_wins");
            assert!(wins.starts_with('[') && wins.ends_with(']'), "{wins}");
            assert_eq!(
                get("cancelled_solves").parse::<u64>().unwrap(),
                portfolio.cancelled
            );
            assert_eq!(get("cubes_split").parse::<u64>().unwrap(), cube.splits);
            assert_eq!(
                get("cubes_solved").parse::<u64>().unwrap(),
                cube.cubes_solved
            );
            assert_eq!(
                get("cube_refuted_by_lookahead").parse::<u64>().unwrap(),
                cube.refuted_by_lookahead
            );
            assert_eq!(
                get("pool_reuses").parse::<u64>().unwrap(),
                record.report.stats.oracle.pool_reuses
            );
            assert_eq!(
                get("compactions").parse::<u64>().unwrap(),
                record.report.stats.oracle.compactions
            );
            // The v7 hash-consing triple: the interned store is never empty
            // for a run that built a formula, and the caches round-trip.
            assert_eq!(
                get("terms_interned").parse::<u64>().unwrap(),
                record.report.stats.terms_interned
            );
            assert!(get("terms_interned").parse::<u64>().unwrap() > 0);
            assert_eq!(
                get("preprocess_cache_hits").parse::<u64>().unwrap(),
                record.report.stats.oracle.preprocess_cache_hits
            );
            assert_eq!(
                get("probe_cache_hits").parse::<u64>().unwrap(),
                cube.probe_cache_hits
            );
            assert!(get("oracle_seconds").parse::<f64>().unwrap() >= 0.0);
            assert_eq!(
                get("iterations").parse::<u32>().unwrap(),
                record.report.stats.iterations
            );
            let wall = get("wall_seconds").parse::<f64>().unwrap();
            assert!((wall - record.report.stats.wall_seconds).abs() < 1e-5);
        }
    }

    /// Hand-built stats with every counter non-zero: a 3-worker portfolio,
    /// cube and policy blocks present.
    fn golden_stats() -> pact::CountStats {
        pact::CountStats {
            oracle_calls: 41,
            cells_explored: 17,
            iterations: 3,
            final_hash_count: 5,
            oracle_seconds: 0.75,
            wall_seconds: 1.5,
            terms_interned: 43,
            oracle: pact::OracleStats {
                checks: 41,
                sat_calls: 79,
                theory_checks: 83,
                theory_lemmas: 89,
                rebuilds: 2,
                conflicts: 97,
                pool_reuses: 31,
                compactions: 37,
                dead_clauses_reclaimed: 101,
                preprocess_cache_hits: 47,
            },
            portfolio: Some(PortfolioStats {
                workers: 3,
                wins: [11, 12, 13, 0, 0, 0, 0, 0],
                cancelled: 7,
            }),
            cube: Some(CubeStats {
                splits: 19,
                cubes_solved: 23,
                refuted_by_lookahead: 29,
                probe_cache_hits: 53,
            }),
            policy: Some(PolicyStats {
                switches: 59,
                backend_checks: [61, 67, 71, 73],
                cube_depth_max: 6,
            }),
        }
    }

    #[test]
    fn records_to_json_renders_a_golden_record() {
        // The bytes are pinned: the flat schema-v9 keys, whatever shape
        // `CountStats` takes in memory.
        let record = RunRecord {
            instance: "golden".to_string(),
            logic: Logic::QfBvfplra,
            configuration: Configuration::Pact(HashFamily::Xor),
            backend: Backend::Adaptive,
            shard: Some(1),
            queue_seconds: 0.25,
            cost_estimate: 384,
            report: CountReport {
                outcome: CountOutcome::Approximate {
                    estimate: 1536.0,
                    log2_estimate: 1536f64.log2(),
                },
                stats: golden_stats(),
            },
        };
        assert_eq!(
            records_to_json(&[record]),
            concat!(
                "[\n",
                "  {\"schema_version\": 9, \"instance\": \"golden\", \"logic\": \"QF_BVFPLRA\", ",
                "\"configuration\": \"pact_xor\", \"backend\": \"adaptive\", \"shard\": 1, ",
                "\"queue_seconds\": 0.250000, \"cost_estimate\": 384, \"outcome\": \"approximate\", ",
                "\"estimate\": 1536, \"log2_estimate\": 10.584962500721156, \"oracle_calls\": 41, ",
                "\"cells_explored\": 17, \"iterations\": 3, \"rebuilds\": 2, ",
                "\"portfolio_workers\": 3, \"worker_wins\": [11,12,13], \"cancelled_solves\": 7, ",
                "\"cubes_split\": 19, \"cubes_solved\": 23, \"cube_refuted_by_lookahead\": 29, ",
                "\"pool_reuses\": 31, \"compactions\": 37, \"terms_interned\": 43, ",
                "\"preprocess_cache_hits\": 47, \"probe_cache_hits\": 53, \"policy_switches\": 59, ",
                "\"policy_backend_checks\": [61,67,71,73], \"cube_depth_max\": 6, ",
                "\"oracle_seconds\": 0.750000, \"wall_seconds\": 1.500000}\n",
                "]\n"
            )
        );
    }

    /// Delegates to the reference [`pact::IncrementalContext`] but claims a 64-worker
    /// portfolio — more than the fixed-size `wins` array can hold.
    struct OversizedPortfolio(pact::IncrementalContext);

    impl pact::Oracle for OversizedPortfolio {
        fn push(&mut self) {
            self.0.push();
        }

        fn pop(&mut self) {
            self.0.pop();
        }

        fn assert_term(&mut self, t: pact_ir::TermId) {
            self.0.assert_term(t);
        }

        fn assert_xor_bits(&mut self, bits: Vec<(pact_ir::TermId, u32)>, rhs: bool) {
            self.0.assert_xor_bits(bits, rhs);
        }

        fn track_var(&mut self, var: pact_ir::TermId) {
            self.0.track_var(var);
        }

        fn check(
            &mut self,
            tm: &mut pact_ir::TermManager,
        ) -> pact_solver::Result<pact::SolverResult> {
            self.0.check(tm)
        }

        fn model_value(
            &self,
            tm: &pact_ir::TermManager,
            var: pact_ir::TermId,
        ) -> Option<pact_ir::Value> {
            self.0.model_value(tm, var)
        }

        fn projected_model(
            &self,
            tm: &pact_ir::TermManager,
            projection: &[pact_ir::TermId],
        ) -> Option<Vec<pact_ir::BvValue>> {
            self.0.projected_model(tm, projection)
        }

        fn stats(&self) -> pact::OracleStats {
            self.0.stats()
        }

        fn portfolio(&self) -> Option<PortfolioStats> {
            Some(PortfolioStats {
                workers: 64,
                ..PortfolioStats::default()
            })
        }
    }

    #[test]
    fn an_oversized_portfolio_report_is_clamped_and_renders() {
        let suite = tiny_suite();
        let factory = pact::OracleFactory::new(|config| {
            Box::new(OversizedPortfolio(pact::IncrementalContext::with_config(
                config,
            )))
        });
        let config = HarnessConfig::default()
            .counter_config(HashFamily::Xor)
            .with_oracle_factory(factory);
        let report = instance_session(&suite[0])
            .and_then(|mut session| session.count_with(&config))
            .unwrap();
        assert_eq!(
            report.stats.portfolio.unwrap().workers,
            MAX_PORTFOLIO_WORKERS as u32
        );
        let record = RunRecord {
            instance: suite[0].name.clone(),
            logic: suite[0].logic,
            configuration: Configuration::Pact(HashFamily::Xor),
            backend: Backend::Rebuild,
            shard: None,
            queue_seconds: 0.0,
            cost_estimate: 0,
            report,
        };
        let json = records_to_json(&[record]);
        assert!(json.contains("\"portfolio_workers\": 8, \"worker_wins\": [0,0,0,0,0,0,0,0]"));
    }

    #[test]
    fn backends_agree_on_outcomes_and_differ_on_rebuilds() {
        // The per-backend smoke-bench rows must be comparable: identical
        // deterministic outcome slices, with the rebuild column separating
        // the backends (that column is what tracks the speedup across PRs).
        let suite = tiny_suite();
        let base = HarnessConfig {
            timeout: Duration::from_secs(10),
            iterations: 1,
            seed: 1,
            ..HarnessConfig::default()
        };
        let configuration = Configuration::Pact(HashFamily::Xor);
        let rebuild = run_one(
            &suite[0],
            configuration,
            &HarnessConfig {
                backend: Backend::Rebuild,
                ..base
            },
        );
        let incremental = run_one(
            &suite[0],
            configuration,
            &HarnessConfig {
                backend: Backend::Incremental,
                ..base
            },
        );
        assert_eq!(rebuild.backend.label(), "rebuild");
        assert_eq!(incremental.backend.label(), "incremental");
        assert_eq!(rebuild.report.outcome, incremental.report.outcome);
        assert_eq!(
            rebuild.report.stats.oracle_calls,
            incremental.report.stats.oracle_calls
        );
        assert_eq!(incremental.report.stats.oracle.rebuilds, 0);
        assert!(incremental.report.stats.oracle_seconds >= 0.0);
        // The JSON artifact distinguishes the rows.
        let json = records_to_json(&[rebuild, incremental]);
        assert!(json.contains("\"backend\": \"rebuild\""));
        assert!(json.contains("\"backend\": \"incremental\""));
        assert!(json.contains("\"rebuilds\": 0"));
    }

    #[test]
    fn portfolio_backend_matches_outcomes_and_spreads_wins() {
        // The smoke-bench acceptance probe at unit scale: the portfolio rows
        // must agree with the reference backend's deterministic outcome
        // slice, and — when the adaptive sizing races at least two workers —
        // the win counts must credit at least two distinct worker
        // configurations (diversification live, not one worker always
        // winning).
        let suite = tiny_suite();
        let base = HarnessConfig {
            timeout: Duration::from_secs(10),
            iterations: 1,
            seed: 1,
            ..HarnessConfig::default()
        };
        let configuration = Configuration::Pact(HashFamily::Xor);
        let rebuild = run_one(
            &suite[0],
            configuration,
            &HarnessConfig {
                backend: Backend::Rebuild,
                ..base
            },
        );
        let portfolio = run_one(
            &suite[0],
            configuration,
            &HarnessConfig {
                backend: Backend::Portfolio,
                ..base
            },
        );
        assert_eq!(portfolio.backend.label(), "portfolio");
        assert_eq!(portfolio.report.outcome, rebuild.report.outcome);
        assert_eq!(
            portfolio.report.stats.oracle_calls,
            rebuild.report.stats.oracle_calls
        );
        assert_eq!(
            portfolio.report.stats.portfolio.unwrap().workers,
            portfolio_workers() as u32
        );
        let winners = portfolio
            .report
            .stats
            .portfolio
            .unwrap()
            .wins
            .iter()
            .filter(|&&w| w > 0)
            .count();
        // On a single-core runner the adaptive clamp races one worker (the
        // ROADMAP deadline fix) and every win lands in slot 0; with two or
        // more the rotation must spread them.
        let expected_spread = portfolio_workers().min(2);
        assert!(
            winners >= expected_spread,
            "wins = {:?}",
            portfolio.report.stats.portfolio.unwrap().wins
        );
        let json = records_to_json(&[portfolio]);
        assert!(json.contains("\"backend\": \"portfolio\""));
        assert!(json.contains(&format!("\"portfolio_workers\": {}", portfolio_workers())));
    }

    #[test]
    fn adaptive_worker_clamp_tracks_min_cores_four() {
        // The ROADMAP open item: min(available cores, 4), floored at one so
        // a failed core probe still builds a working backend.
        assert_eq!(clamp_harness_workers(0), 1);
        assert_eq!(clamp_harness_workers(1), 1);
        assert_eq!(clamp_harness_workers(2), 2);
        assert_eq!(clamp_harness_workers(4), 4);
        assert_eq!(clamp_harness_workers(16), 4);
        assert_eq!(clamp_harness_workers(usize::MAX), MAX_HARNESS_WORKERS);
        // The live probe obeys the clamp whatever machine the tests run on.
        let live = portfolio_workers();
        assert!((1..=MAX_HARNESS_WORKERS).contains(&live));
    }

    #[test]
    fn cube_backend_matches_outcomes_and_splits_cubes() {
        // The cube rows must agree with the reference backend's
        // deterministic outcome slice, and the accounting must show the
        // backend actually split checks into cubes (the CI smoke probe at
        // unit scale).
        let suite = tiny_suite();
        let base = HarnessConfig {
            timeout: Duration::from_secs(10),
            iterations: 1,
            seed: 1,
            ..HarnessConfig::default()
        };
        let configuration = Configuration::Pact(HashFamily::Xor);
        let rebuild = run_one(
            &suite[0],
            configuration,
            &HarnessConfig {
                backend: Backend::Rebuild,
                ..base
            },
        );
        let cube = run_one(
            &suite[0],
            configuration,
            &HarnessConfig {
                backend: Backend::Cube,
                ..base
            },
        );
        assert_eq!(cube.backend.label(), "cube");
        assert_eq!(cube.report.outcome, rebuild.report.outcome);
        assert_eq!(
            cube.report.stats.oracle_calls,
            rebuild.report.stats.oracle_calls
        );
        assert!(
            cube.report.stats.cube.unwrap().splits > 0,
            "the cube backend never split a check"
        );
        assert!(
            cube.report.stats.cube.unwrap().cubes_solved
                >= cube.report.stats.cube.unwrap().refuted_by_lookahead
        );
        assert_eq!(rebuild.report.stats.cube.unwrap_or_default().splits, 0);
        let json = records_to_json(&[cube]);
        assert!(json.contains("\"backend\": \"cube\""));
        assert!(json.contains("\"cubes_split\""));
    }

    #[test]
    fn instance_sessions_count_under_every_configuration() {
        let suite = tiny_suite();
        let mut session = instance_session(&suite[0]).expect("generated instances project");
        let harness = HarnessConfig {
            timeout: Duration::from_secs(10),
            iterations: 1,
            seed: 1,
            ..HarnessConfig::default()
        };
        // One declared problem, four strategies — no re-declaration.
        let cdm = session
            .count_cdm_with(&harness.counter_config(HashFamily::Xor))
            .unwrap();
        assert!(cdm.stats.wall_seconds >= 0.0);
        for family in HashFamily::ALL {
            let report = session.count_with(&harness.counter_config(family)).unwrap();
            assert!(report.stats.oracle_calls > 0, "family {family}");
        }
    }

    #[test]
    fn table_and_cactus_render() {
        let suite = tiny_suite();
        let harness = HarnessConfig {
            timeout: Duration::from_secs(10),
            iterations: 1,
            seed: 1,
            ..HarnessConfig::default()
        };
        // Run only the xor configuration over the suite for speed; the
        // rendering still covers every column (with zero entries).
        let mut records = Vec::new();
        for inst in &suite {
            records.push(run_one(
                inst,
                Configuration::Pact(HashFamily::Xor),
                &harness,
            ));
        }
        let table = table_one(&records, &suite);
        assert!(table.contains("QF_ABV"));
        assert!(table.contains("Total"));
        let series = cactus_series(&records);
        let report = cactus_report(&series);
        assert!(report.starts_with("configuration,"));
        assert!(report.contains("pact_xor"));
    }
}
