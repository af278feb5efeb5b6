//! Metric names, statistics helpers, the result line, run metadata and the
//! trace-file writer shared by the workloads.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;

/// The end-to-end metrics every untraced run prints, with their units.
/// `failed_share` is not among them: it is `failed / attempted` of the
/// result line itself, and it reads 0 on a healthy run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("goodput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run prints, with their units.  Work
/// and time on the direct workloads are totals over one pass of the
/// instance list (each instance counted once); a layer a workload does not
/// reach reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("solver.check_first_s", "s"),
    ("solver.checks_first", "count"),
    ("solver.check_next_s", "s"),
    ("solver.checks_next", "count"),
    ("solver.check_unsat_s", "s"),
    ("solver.checks_unsat", "count"),
    ("solver.check_p50_us", "us"),
    ("solver.check_p99_us", "us"),
    ("solver.build_s", "s"),
    ("solver.builds", "count"),
    ("solver.assert_s", "s"),
    ("solver.asserts", "count"),
    ("solver.xor_s", "s"),
    ("solver.xors", "count"),
    ("solver.frame_s", "s"),
    ("solver.frames", "count"),
    ("solver.model_s", "s"),
    ("solver.models", "count"),
    ("solver.compactions", "count"),
    ("solver.dead_reclaimed", "count"),
    ("solver.rebuilds", "count"),
    ("solver.preprocess_cache_hits", "count"),
    ("sat.calls", "count"),
    ("sat.conflicts", "count"),
    ("lra.checks", "count"),
    ("lra.lemmas", "count"),
    ("core.self_s", "s"),
    ("core.oracle_calls", "count"),
    ("core.cells", "count"),
    ("core.rounds", "count"),
    ("hash.final_hash_count", "count"),
    ("ir.terms_interned", "count"),
    ("wire.ack_s", "s"),
    ("service.queue_p50_s", "s"),
    ("service.queue_p90_s", "s"),
    ("service.run_p50_s", "s"),
    ("service.shard_busy_share.0", "ratio"),
    ("service.shard_busy_share.1", "ratio"),
    ("service.deliver_s", "s"),
    ("service.steals", "count"),
    ("service.rejected", "count"),
    ("service.timed_out", "count"),
    ("service.oracle_calls", "count"),
    ("loadgen.lag_max_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// A run's verdict and metrics: the benchmark's last output line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every answer was right, and every check of the run held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (error, timeout, wrong or out-of-band count,
    /// rejection, cancellation, latency limit).
    pub failed: u64,
    /// Metric values by name; units come from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The result line: `correct`, `attempted`, `failed` and exactly the
    /// metrics of the run's kind (end-to-end or per-layer), in table order,
    /// with their units.  A missing or non-finite metric is a benchmark
    /// bug: it reads -1 and flips `correct`.
    pub fn to_json(&self, traced: bool) -> String {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut correct = self.correct;
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            let value = match self.metrics.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) if v.is_finite() => v,
                _ => {
                    correct = false;
                    -1.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Linear-interpolation percentile (`q` in 0..=1) of unsorted values; 0
/// for an empty list.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of unsorted values; 0 for an empty list.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them; `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The run metadata line: machine, toolchain, commit, seed and workload
/// parameters, so any result can be traced back to what produced it.
pub fn metadata(workload: &str, seed: u64, seconds: f64, traced: bool, params: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "# meta {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {}, \"nproc\": {nproc}, \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"params\": {{{params}}}}}",
        u8::from(traced),
        env!("PACTBENCH_RUSTC"),
        git_commit()
    )
}

/// The commit of the working directory, when it is a git checkout.
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// One span of the trace file.
pub struct TraceRow<'a> {
    /// Span id, unique within the file.
    pub id: u64,
    /// The parent's id (`None` for a root).
    pub parent: Option<u64>,
    /// The operation the span belongs to.
    pub op: u64,
    /// Span name.
    pub name: &'a str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

/// Writes a trace (tab-separated, one span per line) to
/// `out/trace-<workload>.tsv` inside this crate's directory and returns its
/// path.  Each workload's file is overwritten by its next traced run.
///
/// # Errors
///
/// Any I/O error.
pub fn write_trace(workload: &str, meta: &str, rows: &[TraceRow]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.tsv"));
    let mut text = String::with_capacity(64 * rows.len() + 256);
    let _ = writeln!(text, "{meta}");
    let _ = writeln!(text, "id\tparent\top\tname\tstart_ns\tend_ns");
    for r in rows {
        let parent = r.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{}\t{parent}\t{}\t{}\t{}\t{}",
            r.id, r.op, r.name, r.start_ns, r.end_ns
        );
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    file.write_all(text.as_bytes())?;
    file.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_lists_every_metric_of_its_kind() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        for (name, _) in END_TO_END {
            outcome.set(name, 0.5);
        }
        let line = outcome.to_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"peak_rss_mib\": {\"value\": 0.5, \"unit\": \"MiB\"}"));
        // The traced kind is missing every metric: the line says so.
        assert!(outcome.to_json(true).starts_with("{\"correct\": false"));
    }

    #[test]
    fn benchmark_json_names_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::workload::Workload::ALL {
            let listed = json.contains(&format!("\"name\": \"{}\"", w.name()));
            assert_eq!(listed, crate::workload::Workload::BENCHMARKED.contains(&w));
        }
    }
}
