//! Measures `pact-service` throughput on a mixed benchgen workload:
//! requests/s and p50/p99 end-to-end latency (admission backoff + queue
//! wait + count).
//!
//! Usage:
//!
//! ```text
//! cargo run -p pact-bench --bin service_throughput --release -- \
//!     [--mini] [--shards N[,N...]] [--requests N] [--queue N] [--seed N] \
//!     [--json PATH]
//! ```
//!
//! * `--mini` uses the ~10-instance smoke suite (the CI job's workload).
//! * `--shards N` sets the service shard count (default 2 — the smoke
//!   acceptance shape; the bench asserts nothing, the CI step does).
//!   A comma-separated list (`--shards 1,2,4`) runs the *same* workload
//!   once per count — matrix mode — and `--json` then gets a JSON array
//!   with one summary row per count, for scaling assertions.
//! * `--requests N` sets the workload size (default 32).
//! * `--queue N` sets the admission-queue capacity (default 64; a value
//!   below `--requests` measures throughput under backpressure).
//! * `--json PATH` writes the schema-v9 summary artifact (one line per
//!   shard count).

use pact_bench::cli::ArgError;
use pact_bench::throughput::{run_shard_matrix, summary_to_json, ThroughputParams};
use pact_benchgen::{paper_suite, SuiteParams};

const USAGE: &str = "usage: service_throughput [--mini] [--shards N[,N...]] [--requests N] [--queue N] [--seed N] [--json PATH]";

#[derive(Debug, PartialEq)]
struct Args {
    mini: bool,
    shards: Vec<usize>,
    requests: usize,
    queue: usize,
    seed: u64,
    json: Option<String>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
    let defaults = ThroughputParams::default();
    let mut args = Args {
        mini: false,
        shards: vec![defaults.shards],
        requests: defaults.requests,
        queue: defaults.queue_capacity,
        seed: defaults.seed,
        json: None,
    };
    let mut iter = argv.into_iter();
    while let Some(arg) = iter.next() {
        let mut numeric = |flag: &'static str| -> Result<usize, ArgError> {
            let value = iter.next().ok_or(ArgError::MissingValue { flag })?;
            value.parse().map_err(|_| ArgError::InvalidValue {
                slot: flag,
                got: value,
            })
        };
        match arg.as_str() {
            "--mini" => args.mini = true,
            "--shards" => {
                let value = iter
                    .next()
                    .ok_or(ArgError::MissingValue { flag: "--shards" })?;
                args.shards = value
                    .split(',')
                    .map(|part| {
                        part.trim().parse::<usize>().ok().filter(|&n| n > 0).ok_or(
                            ArgError::InvalidValue {
                                slot: "--shards",
                                got: value.clone(),
                            },
                        )
                    })
                    .collect::<Result<Vec<usize>, ArgError>>()?;
                if args.shards.is_empty() {
                    return Err(ArgError::InvalidValue {
                        slot: "--shards",
                        got: value,
                    });
                }
            }
            "--requests" => args.requests = numeric("--requests")?,
            "--queue" => args.queue = numeric("--queue")?,
            "--seed" => args.seed = numeric("--seed")? as u64,
            "--json" => {
                args.json = Some(
                    iter.next()
                        .ok_or(ArgError::MissingValue { flag: "--json" })?,
                );
            }
            other if other.starts_with("--") => {
                return Err(ArgError::UnknownFlag {
                    flag: other.to_string(),
                });
            }
            other => {
                return Err(ArgError::UnexpectedPositional {
                    got: other.to_string(),
                });
            }
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|error| {
        eprintln!("{error}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });

    let suite_params = if args.mini {
        // The table1 --mini smoke suite: every Table I logic at CI scale.
        SuiteParams {
            per_logic: 2,
            min_width: 6,
            max_width: 7,
            max_per_cluster: 1,
            seed: 7,
        }
    } else {
        SuiteParams {
            per_logic: 4,
            min_width: 9,
            max_width: 13,
            ..SuiteParams::default()
        }
    };
    let suite = paper_suite(&suite_params);
    let params = ThroughputParams {
        requests: args.requests,
        queue_capacity: args.queue,
        seed: args.seed,
        ..ThroughputParams::default()
    };
    eprintln!(
        "pushing {} requests over {} instances through {:?} shard(s) (queue {})...",
        params.requests,
        suite.len(),
        args.shards,
        params.queue_capacity
    );

    let rows = run_shard_matrix(&suite, &params, &args.shards);

    for (summary, _) in &rows {
        println!(
            "service throughput — mixed workload, {} shard(s)",
            summary.shards
        );
        println!("  requests          {:>10}", summary.requests);
        println!(
            "  shards            {:>10}   (used: {}, served per shard: {:?})",
            summary.shards,
            summary.shards_used(),
            summary.served_per_shard
        );
        println!(
            "  steals             {:>9}   (per shard: {:?})",
            summary.steals(),
            summary.steals_per_shard
        );
        println!("  rejected (retried) {:>9}", summary.rejected);
        println!("  elapsed            {:>12.3} s", summary.elapsed_seconds);
        println!("  requests/s         {:>12.2}", summary.requests_per_sec);
        println!("  p50 latency        {:>12.6} s", summary.p50_seconds);
        println!("  p99 latency        {:>12.6} s", summary.p99_seconds);
    }

    if let Some(path) = args.json {
        // One shard count writes the bare summary object (the historical
        // shape); a matrix run wraps one summary per count in an array.
        let out = if rows.len() == 1 {
            summary_to_json(&rows[0].0, &rows[0].1)
        } else {
            let body = rows
                .iter()
                .map(|(summary, records)| summary_to_json(summary, records).trim_end().to_string())
                .collect::<Vec<_>>()
                .join(",\n");
            format!("[\n{body}\n]\n")
        };
        std::fs::write(&path, out).expect("write JSON report");
        eprintln!("wrote {} summary row(s) to {path}", rows.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_match_the_acceptance_shape() {
        let args = parse_args(argv(&[])).unwrap();
        assert!(!args.mini);
        assert_eq!(args.shards, vec![2]);
        assert_eq!(args.requests, 32);
        assert_eq!(args.queue, 64);
        assert_eq!(args.json, None);
    }

    #[test]
    fn shards_accepts_a_single_count_or_a_matrix() {
        let args = parse_args(argv(&["--shards", "3"])).unwrap();
        assert_eq!(args.shards, vec![3]);
        let args = parse_args(argv(&["--shards", "1,2,4"])).unwrap();
        assert_eq!(args.shards, vec![1, 2, 4]);
        let args = parse_args(argv(&["--shards", " 1 , 2 "])).unwrap();
        assert_eq!(args.shards, vec![1, 2]);
        // Zero shards, empty entries and garbage all name the flag.
        for bad in ["0", "1,,2", "1,zero", ""] {
            assert!(matches!(
                parse_args(argv(&["--shards", bad])),
                Err(ArgError::InvalidValue {
                    slot: "--shards",
                    ..
                })
            ));
        }
    }

    #[test]
    fn flags_parse_and_reject_garbage() {
        let args = parse_args(argv(&[
            "--mini",
            "--shards",
            "3",
            "--requests",
            "48",
            "--queue",
            "8",
            "--seed",
            "9",
            "--json",
            "out.json",
        ]))
        .unwrap();
        assert!(args.mini);
        assert_eq!(args.shards, vec![3]);
        assert_eq!(args.requests, 48);
        assert_eq!(args.queue, 8);
        assert_eq!(args.seed, 9);
        assert_eq!(args.json.as_deref(), Some("out.json"));

        assert!(matches!(
            parse_args(argv(&["--shards"])),
            Err(ArgError::MissingValue { flag: "--shards" })
        ));
        assert!(matches!(
            parse_args(argv(&["--shards", "two"])),
            Err(ArgError::InvalidValue { .. })
        ));
        assert!(matches!(
            parse_args(argv(&["--turbo"])),
            Err(ArgError::UnknownFlag { .. })
        ));
        assert!(matches!(
            parse_args(argv(&["32"])),
            Err(ArgError::UnexpectedPositional { .. })
        ));
    }
}
