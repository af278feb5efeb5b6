//! `pactbench` — run one workload, or repeat them all and report spreads.
//!
//! ```text
//! pactbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pactbench spread [--runs <k>] [--seconds <s>] [--trace <0|1>] [--seed <n>] [--workload <name>]...
//! ```
//!
//! The first form prints the run metadata, the instance list, any failed
//! operation with its reason, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and the metrics (end-to-end with
//! `--trace 0`, per-layer with `--trace 1`).  The second runs the first in
//! a fresh process per run, with seeds `n, n+1, …`, and prints each
//! metric's median, quartiles and relative spread per workload; without
//! `--workload` it runs the workloads `BENCHMARK.json` lists.

use std::process::{Command, ExitCode};
use std::time::Instant;

use pactbench::report::{self, END_TO_END, PER_LAYER};
use pactbench::workload::{self, Workload};
use pactbench::{direct, wire};

/// Set-up repeats per run; `setup_s` is their median.
const SETUPS: usize = 5;

const USAGE: &str = "usage: pactbench --workload <direct-word|direct-xor|service-wire> --seed <n> \
                     --seconds <s> --trace <0|1>\n       pactbench spread [--runs <k>] \
                     [--seconds <s>] [--trace <0|1>] [--seed <n>] [--workload <name>]...";

/// Parsed flags of either form.
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse(args: &[String], spread: bool) -> Result<Options, String> {
    let mut options = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: 50.0,
        trace: false,
        runs: 10,
    };
    let (mut seed, mut seconds, mut trace) = (false, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {what} {value:?}");
        match flag.as_str() {
            "--workload" => options
                .workloads
                .push(Workload::parse(value).ok_or_else(|| bad("workload"))?),
            "--seed" => {
                options.seed = value.parse().map_err(|_| bad("seed"))?;
                seed = true;
            }
            "--seconds" => {
                options.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("seconds"))?;
                seconds = true;
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                };
                trace = true;
            }
            "--runs" if spread => {
                options.runs = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&r| r >= 2)
                    .ok_or_else(|| bad("runs (at least 2)"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if spread {
        if options.workloads.is_empty() {
            options.workloads = Workload::BENCHMARKED.to_vec();
        }
    } else if options.workloads.len() != 1 || !seed || !seconds || !trace {
        return Err("--workload, --seed, --seconds and --trace are each required once".into());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spread_mode = args.first().map(String::as_str) == Some("spread");
    let options = match parse(&args[usize::from(spread_mode)..], spread_mode) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("pactbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if spread_mode {
        spread(&options)
    } else {
        run(&options)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pactbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Times `SETUPS` set-ups, keeps the last, and returns it with the median.
fn timed_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let built = build()?;
        times.push(start.elapsed().as_secs_f64());
        // An earlier set-up (a started service included) is dropped here,
        // outside the timed region.
        last = Some(built);
    }
    Ok((last.expect("SETUPS > 0"), report::median(&times)))
}

fn run(o: &Options) -> Result<(), String> {
    let w = o.workloads[0];
    let outcome = match w {
        Workload::DirectWord | Workload::DirectXor => {
            let (mut items, setup_s) = timed_setup(|| workload::build_items(w, o.seed))?;
            workload::check_saturation(&items)?;
            let warm = workload::warm_up(&mut items)?;
            workload::check_times(&items, &warm, &vec![1.0; items.len()])?;
            let params = format!(
                "\"loop\": \"closed\", \"clients\": 1, \"items\": {}, \"iterations\": {}, \
                 \"deadline_s\": {}, \"setups\": {SETUPS}",
                items.len(),
                workload::ITERATIONS,
                workload::DEADLINE.as_secs()
            );
            let meta = report::metadata(w.name(), o.seed, o.seconds, o.trace, &params);
            println!("{meta}");
            workload::print_items(w, &items, &warm);
            direct::run(w.name(), &mut items, o.seconds, o.trace, setup_s, &meta)
        }
        Workload::ServiceWire => {
            let (mut setup, setup_s) = timed_setup(|| wire::setup(o.seed))?;
            workload::check_saturation(&setup.items)?;
            let warm = workload::warm_up(&mut setup.items)?;
            let plan = wire::schedule(&wire::batch_flags(&setup.items), o.seed, o.seconds);
            let weights = wire::weights(setup.items.len(), &plan);
            workload::check_times(&setup.items, &warm, &weights)?;
            let params = format!(
                "\"loop\": \"open\", \"connections\": 1, \"rate_per_s\": {}, \"requests\": {}, \
                 \"batch_every\": {}, \"latency_limit_s\": {}, \"shards\": {}, \
                 \"queue_capacity\": {}, \"iterations\": {}, \"deadline_s\": {}, \"setups\": {SETUPS}",
                wire::RATE_PER_S,
                plan.len(),
                wire::BATCH_EVERY,
                wire::LATENCY_LIMIT_S,
                wire::SHARDS,
                wire::QUEUE_CAPACITY,
                workload::ITERATIONS,
                workload::DEADLINE.as_secs()
            );
            let meta = report::metadata(w.name(), o.seed, o.seconds, o.trace, &params);
            println!("{meta}");
            workload::print_items(w, &setup.items, &warm);
            wire::run(setup, &plan, o.seconds, o.trace, setup_s, &meta)
        }
    };
    println!("{}", outcome.to_json(o.trace));
    Ok(())
}

/// Repeats each workload `runs` times in fresh processes and prints every
/// metric's median, quartiles and spread (Q3 − Q1 over the median) — the
/// figures the bounds in `BENCHMARK.json` are set from.
fn spread(o: &Options) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let table: &[(&str, &str)] = if o.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        report::metadata(
            "spread",
            o.seed,
            o.seconds,
            o.trace,
            &format!("\"runs\": {}", o.runs)
        )
    );
    for &w in &o.workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); table.len()];
        for run in 0..o.runs {
            let seed = o.seed + run as u64;
            let output = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if o.trace { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("running {}: {e}", w.name()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or("");
            if !output.status.success() || !last.starts_with("{\"correct\": true") {
                return Err(format!(
                    "{} seed {seed} failed ({}): {last}\n{}",
                    w.name(),
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            println!("# {} seed {seed}: {last}", w.name());
            for (slot, (name, _)) in values.iter_mut().zip(table) {
                slot.push(metric_value(last, name).ok_or_else(|| format!("{name} missing"))?);
            }
        }
        println!(
            "{:14} {:30} {:>14} {:>14} {:>14} {:>8}",
            "workload", "metric", "q1", "median", "q3", "spread"
        );
        for (vals, (name, unit)) in values.iter().zip(table) {
            let (q1, med, q3) = report::quartiles(vals).expect("runs >= 2");
            let spread = if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            };
            println!(
                "{:14} {:30} {q1:>14.6} {med:>14.6} {q3:>14.6} {spread:>8.4}  {unit}",
                w.name(),
                name
            );
        }
    }
    Ok(())
}

/// The value of one metric in a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}
