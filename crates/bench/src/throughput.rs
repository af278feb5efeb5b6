//! Service throughput measurement: requests/s and latency percentiles for
//! a mixed workload pushed through a [`CountingService`].
//!
//! The ROADMAP's scaling claim ("serves heavy concurrent traffic") is
//! measured here rather than asserted: the workload interleaves many short
//! incremental counts with periodic hard cube-and-conquer counts — the
//! mixed shape the admission queue and priority lanes exist for — and the
//! summary records end-to-end latency (from the first submit attempt, so
//! `QueueFull` backoff counts, through queue wait and count wall time) as
//! p50/p99 alongside aggregate requests/s and per-shard service counts.
//!
//! Results serialize as bench JSON schema v9 (see
//! [`RECORD_SCHEMA_FIELDS`](crate::RECORD_SCHEMA_FIELDS)): the summary
//! object embeds one per-request [`RunRecord`] carrying the v6 `shard` /
//! `queue_seconds` pair, the v7 hash-consing triple and the v9
//! `cost_estimate`, and the summary itself carries the v8
//! terminal-disposition split (`served_per_shard` counts only requests
//! that truly finished; cancellations, deadline expiries and failures
//! land in their own counters) plus the v9 per-shard steal counters from
//! size-aware placement.
//!
//! [`run_shard_matrix`] repeats the same workload across a list of shard
//! counts and emits one summary row per count — the CI scaling smoke
//! (`service_throughput --shards 1,2,4`) is built on it.
//!
//! Each instance's term store is snapshotted once up front and every
//! request over it is built with
//! [`CountRequest::from_snapshot`](pact_service::CountRequest::from_snapshot):
//! submission shares the interned id table across concurrent requests
//! instead of deep-cloning the manager per request, so identical requests
//! report identical `terms_interned` whichever shard serves them.

use std::time::{Duration, Instant};

use pact::{BackendSpec, HashFamily};
use pact_benchgen::Instance;
use pact_service::{CountRequest, CountingService, Priority, ServiceConfig};

use crate::{records_to_json, Backend, Configuration, RunRecord, RECORD_SCHEMA_VERSION};

/// Sizing of one throughput run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThroughputParams {
    /// Service shard threads.
    pub shards: usize,
    /// Total requests pushed through the service.
    pub requests: usize,
    /// Admission-queue capacity (smaller than `requests` exercises
    /// backpressure: saturated submissions retry until admitted).
    pub queue_capacity: usize,
    /// Seed shared by every request (per-request counts stay deterministic).
    pub seed: u64,
    /// Per-request end-to-end deadline.
    pub deadline: Duration,
}

impl Default for ThroughputParams {
    fn default() -> Self {
        ThroughputParams {
            shards: 2,
            requests: 32,
            queue_capacity: 64,
            seed: 42,
            deadline: Duration::from_secs(10),
        }
    }
}

/// Every `HARD_EVERY`-th request is a hard one: more rounds, counted by the
/// cube-and-conquer backend — the head-of-line-blocking shape the priority
/// lanes exist for (hard requests ride the batch lane).
pub const HARD_EVERY: usize = 8;

/// Aggregate result of one throughput run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputSummary {
    /// Requests completed.
    pub requests: usize,
    /// Shard threads the service ran.
    pub shards: usize,
    /// Requests served per shard (index = shard id).  Counts only terminal
    /// *finishes* — a request that was cancelled or expired mid-flight lands
    /// in [`cancelled`](Self::cancelled) / [`timed_out`](Self::timed_out)
    /// instead.
    pub served_per_shard: Vec<u64>,
    /// Admission rejections observed while submitting (each was retried
    /// until admitted, so every request still completed).
    pub rejected: u64,
    /// Requests that resolved as cancelled (in queue or mid-flight).
    pub cancelled: u64,
    /// Requests whose end-to-end deadline expired before a decisive count.
    pub timed_out: u64,
    /// Requests that resolved with an engine error.
    pub failed: u64,
    /// Work-steals performed per shard (index = thief shard id): how often
    /// an idle shard pulled a queued ticket placed on a busier one.  All
    /// zeros on a single-shard run; a mixed-size multi-shard run is
    /// expected to steal (the CI matrix smoke asserts it).
    pub steals_per_shard: Vec<u64>,
    /// Wall-clock seconds from first submission to last completion.
    pub elapsed_seconds: f64,
    /// Completed requests per wall-clock second.
    pub requests_per_sec: f64,
    /// Median end-to-end latency (admission backoff + queue wait + count),
    /// seconds.
    pub p50_seconds: f64,
    /// 99th-percentile end-to-end latency, seconds.
    pub p99_seconds: f64,
}

impl ThroughputSummary {
    /// How many distinct shards served at least one request — the smoke
    /// assertion that sharding is real (`> 1` on a multi-shard run).
    pub fn shards_used(&self) -> usize {
        self.served_per_shard.iter().filter(|&&n| n > 0).count()
    }

    /// Total work-steals across all shards.
    pub fn steals(&self) -> u64 {
        self.steals_per_shard.iter().sum()
    }
}

/// Nearest-rank percentile of an **ascending-sorted** slice (`q` in
/// `0.0..=1.0`).  Returns `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Builds the `k`-th request of the mixed workload over `instance`, whose
/// term store is shared through `snapshot` (an `Arc` of the interned id
/// table — the per-request manager is a share, not a deep clone).
fn workload_request(
    instance: &Instance,
    snapshot: &std::sync::Arc<pact_ir::TermSnapshot>,
    k: usize,
    params: &ThroughputParams,
) -> CountRequest {
    let request = CountRequest::from_snapshot(std::sync::Arc::clone(snapshot))
        .assert_all(&instance.asserts)
        .project_all(&instance.projection)
        .family(HashFamily::Xor)
        .seed(params.seed)
        .deadline(params.deadline);
    if k % HARD_EVERY == HARD_EVERY - 1 {
        request
            .backend(BackendSpec::Cube {
                depth: 2,
                workers: 2,
            })
            .iterations(3)
            .priority(Priority::Batch)
    } else {
        request.backend(BackendSpec::Incremental).iterations(1)
    }
}

/// Runs the mixed workload through a fresh service and returns the summary
/// plus one v6 [`RunRecord`] per request (instances are cycled round-robin).
///
/// Submissions retry on [`QueueFull`](pact_service::ServiceError::QueueFull)
/// — with a queue smaller than the request count this measures throughput
/// *under backpressure*, which is the production shape.
///
/// # Panics
///
/// Panics if `instances` is empty or a request fails for a reason other
/// than admission control (generated instances are always supported).
pub fn run_service_workload(
    instances: &[Instance],
    params: &ThroughputParams,
) -> (ThroughputSummary, Vec<RunRecord>) {
    assert!(!instances.is_empty(), "throughput needs instances");
    // One snapshot per instance, taken before any request exists: every
    // request over the same instance shares the same frozen id table.
    let snapshots: Vec<std::sync::Arc<pact_ir::TermSnapshot>> = instances
        .iter()
        .map(|instance| instance.tm.clone().snapshot())
        .collect();
    let service = CountingService::new(ServiceConfig {
        shards: params.shards,
        queue_capacity: params.queue_capacity,
    });
    let started = Instant::now();
    let mut handles = Vec::with_capacity(params.requests);
    for k in 0..params.requests {
        let instance = &instances[k % instances.len()];
        let snapshot = &snapshots[k % instances.len()];
        let first_attempt = Instant::now();
        let handle = loop {
            match service.submit(workload_request(instance, snapshot, k, params)) {
                Ok(handle) => break handle,
                Err(pact_service::ServiceError::QueueFull { .. }) => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("service rejected workload request: {e}"),
            }
        };
        handles.push((k, first_attempt.elapsed().as_secs_f64(), handle));
    }
    let mut records = Vec::with_capacity(params.requests);
    let mut latencies = Vec::with_capacity(params.requests);
    for (k, backoff_seconds, handle) in &mut handles {
        let instance = &instances[*k % instances.len()];
        let report = handle.wait().expect("workload request completed");
        let backend = if *k % HARD_EVERY == HARD_EVERY - 1 {
            Backend::Cube
        } else {
            Backend::Incremental
        };
        // Latency starts at the first submit attempt: the backoff spent on
        // `QueueFull` rejections is part of what the client waited.
        latencies.push(*backoff_seconds + report.queue_seconds + report.report.stats.wall_seconds);
        records.push(RunRecord {
            instance: instance.name.clone(),
            logic: instance.logic,
            configuration: Configuration::Pact(HashFamily::Xor),
            backend,
            shard: report.shard,
            queue_seconds: report.queue_seconds,
            cost_estimate: report.cost_estimate,
            report: report.report,
        });
    }
    let elapsed = started.elapsed().as_secs_f64();
    let metrics = service.metrics();
    service.shutdown();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let summary = ThroughputSummary {
        requests: records.len(),
        shards: params.shards,
        served_per_shard: metrics.served_per_shard,
        rejected: metrics.rejected,
        cancelled: metrics.cancelled,
        timed_out: metrics.timed_out,
        failed: metrics.failed,
        steals_per_shard: metrics.steals_per_shard,
        elapsed_seconds: elapsed,
        requests_per_sec: records.len() as f64 / elapsed.max(f64::EPSILON),
        p50_seconds: percentile(&latencies, 0.50),
        p99_seconds: percentile(&latencies, 0.99),
    };
    (summary, records)
}

/// Runs the same workload once per entry of `shard_counts` and returns one
/// `(summary, records)` pair per count, in order.  Each run gets a fresh
/// service sized to that shard count; everything else in `params` is
/// shared, so rows are comparable (`service_throughput --shards 1,2,4`
/// emits one JSON line per row).
pub fn run_shard_matrix(
    instances: &[Instance],
    params: &ThroughputParams,
    shard_counts: &[usize],
) -> Vec<(ThroughputSummary, Vec<RunRecord>)> {
    shard_counts
        .iter()
        .map(|&shards| {
            let row_params = ThroughputParams { shards, ..*params };
            run_service_workload(instances, &row_params)
        })
        .collect()
}

/// Renders a throughput summary (plus its per-request records) as the
/// schema-v9 JSON artifact the CI smoke step asserts on.
pub fn summary_to_json(summary: &ThroughputSummary, records: &[RunRecord]) -> String {
    let join = |counts: &[u64]| {
        counts
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",")
    };
    let served = join(&summary.served_per_shard);
    let steals = join(&summary.steals_per_shard);
    format!(
        concat!(
            "{{\"schema_version\": {}, \"kind\": \"service_throughput\", ",
            "\"requests\": {}, \"shards\": {}, \"shards_used\": {}, ",
            "\"served_per_shard\": [{}], \"rejected\": {}, ",
            "\"cancelled\": {}, \"timed_out\": {}, \"failed\": {}, ",
            "\"steals\": {}, \"steals_per_shard\": [{}], ",
            "\"elapsed_seconds\": {:.6}, \"requests_per_sec\": {:.3}, ",
            "\"p50_seconds\": {:.6}, \"p99_seconds\": {:.6}, ",
            "\"records\": {}}}\n"
        ),
        RECORD_SCHEMA_VERSION,
        summary.requests,
        summary.shards,
        summary.shards_used(),
        served,
        summary.rejected,
        summary.cancelled,
        summary.timed_out,
        summary.failed,
        summary.steals(),
        steals,
        summary.elapsed_seconds,
        summary.requests_per_sec,
        summary.p50_seconds,
        summary.p99_seconds,
        records_to_json(records).trim_end(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_benchgen::{paper_suite, SuiteParams};

    fn tiny_suite() -> Vec<Instance> {
        paper_suite(&SuiteParams {
            per_logic: 1,
            min_width: 5,
            max_width: 5,
            max_per_cluster: 5,
            seed: 3,
        })
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.50), 2.0);
        assert_eq!(percentile(&sorted, 0.99), 4.0);
        assert_eq!(percentile(&sorted, 0.25), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 4.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn workload_runs_and_summarizes() {
        let suite = tiny_suite();
        let params = ThroughputParams {
            shards: 2,
            requests: 12,
            queue_capacity: 4, // smaller than requests: exercises retries
            seed: 7,
            deadline: Duration::from_secs(10),
        };
        let (summary, records) = run_service_workload(&suite, &params);
        assert_eq!(summary.requests, 12);
        assert_eq!(records.len(), 12);
        assert_eq!(summary.served_per_shard.iter().sum::<u64>(), 12);
        // Nothing was cancelled or expired, so the disposition split is
        // all-served.
        assert_eq!(summary.cancelled, 0);
        assert_eq!(summary.timed_out, 0);
        assert_eq!(summary.failed, 0);
        assert!(summary.requests_per_sec > 0.0);
        assert!(summary.p50_seconds > 0.0);
        assert!(summary.p99_seconds >= summary.p50_seconds);
        // Steal accounting is per shard and never negative-shaped: one
        // counter per shard thread, whatever its value.
        assert_eq!(summary.steals_per_shard.len(), 2);
        assert_eq!(summary.steals(), summary.steals_per_shard.iter().sum());
        // Every record was served by a real shard and carries the v6 pair
        // plus the v9 placement cost.
        for record in &records {
            assert!(record.shard.is_some());
            assert!(record.queue_seconds >= 0.0);
            assert!(record.cost_estimate >= 1);
        }
        // The mixed workload really mixes: both backends appear.
        assert!(records.iter().any(|r| r.backend == Backend::Cube));
        assert!(records.iter().any(|r| r.backend == Backend::Incremental));
        // Identical requests (same instance, seed, backend) got identical
        // outcomes — the service does not perturb determinism.
        let outcomes: Vec<_> = records
            .iter()
            .enumerate()
            .filter(|(k, r)| k % HARD_EVERY != HARD_EVERY - 1 && r.instance == records[0].instance)
            .map(|(_, r)| r.report.outcome.clone())
            .collect();
        assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
        // Shared-snapshot requests observe the same interned store: every
        // identical request stamps the same `terms_interned`, whichever
        // shard served it.
        let interned: Vec<_> = records
            .iter()
            .enumerate()
            .filter(|(k, r)| k % HARD_EVERY != HARD_EVERY - 1 && r.instance == records[0].instance)
            .map(|(_, r)| r.report.stats.terms_interned)
            .collect();
        assert!(interned[0] > 0, "requests must report the store size");
        assert!(interned.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn summary_json_carries_the_smoke_fields() {
        let suite = tiny_suite();
        let params = ThroughputParams {
            requests: 4,
            ..ThroughputParams::default()
        };
        let (summary, records) = run_service_workload(&suite, &params);
        let json = summary_to_json(&summary, &records);
        assert!(json.starts_with("{\"schema_version\": 9"));
        assert!(json.contains("\"kind\": \"service_throughput\""));
        assert!(json.contains("\"cancelled\": 0"));
        assert!(json.contains("\"timed_out\": 0"));
        assert!(json.contains("\"failed\": 0"));
        assert!(json.contains("\"steals\": "));
        assert!(json.contains("\"steals_per_shard\": ["));
        assert!(json.contains("\"requests_per_sec\""));
        assert!(json.contains("\"p50_seconds\""));
        assert!(json.contains("\"p99_seconds\""));
        assert!(json.contains("\"shards_used\""));
        assert!(json.contains("\"records\": [\n"));
        assert!(json.contains("\"queue_seconds\""));
        assert!(json.contains("\"cost_estimate\""));
    }

    #[test]
    fn shard_matrix_yields_one_row_per_count() {
        let suite = tiny_suite();
        let params = ThroughputParams {
            requests: 6,
            ..ThroughputParams::default()
        };
        let rows = run_shard_matrix(&suite, &params, &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0.shards, 1);
        assert_eq!(rows[1].0.shards, 2);
        for (summary, records) in &rows {
            assert_eq!(summary.requests, 6);
            assert_eq!(records.len(), 6);
            assert_eq!(summary.steals_per_shard.len(), summary.shards);
        }
        // Single-shard runs have nobody to steal from.
        assert_eq!(rows[0].0.steals(), 0);
    }

    #[test]
    fn wire_and_record_schemas_move_together() {
        // The wire protocol mirrors the bench record schema field-for-field;
        // a version skew between the two is a bug, not a feature.
        assert_eq!(
            pact_service::wire::WIRE_SCHEMA_VERSION,
            RECORD_SCHEMA_VERSION
        );
    }
}
