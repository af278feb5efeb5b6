//! The `service-wire` workload: an open loop at one fixed offered rate,
//! sending SMT-LIB request scripts over one loopback TCP connection to
//! `pact_service::wire::serve_listener` — the code `pact-serve --listen`
//! runs — inside this process.
//!
//! The generator (this thread) writes request `k` when it is due, at
//! `k / RATE_PER_S` seconds, whether or not earlier ones were answered; a
//! reader thread timestamps every response line.  Latency runs from the
//! due time to reading the result line, so a stall that delays later sends
//! is charged to the requests it delays.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use pact::CountOutcome;
use pact_service::{CountingService, ServiceConfig};

use crate::report::{self, Outcome, TraceRow};
use crate::workload::{
    build_items, family_name, judge, Check, Item, SplitMix, Workload, DEADLINE, DELTA, EPSILON,
    ITERATIONS,
};

/// Shard threads of the service: the machine this was calibrated on has
/// two cores (`nproc` = 2).
pub const SHARDS: usize = 2;
/// Admission capacity; far above the backlog the offered rate builds, so a
/// rejection means the service fell behind.
pub const QUEUE_CAPACITY: usize = 64;
/// The offered rate, calibrated once against 2-shard capacity (see
/// `README.md`) and then frozen.
pub const RATE_PER_S: f64 = 20.0;
/// Every `BATCH_EVERY`-th request is a large `pact_prime` count on the
/// batch lane; the rest are small `pact_xor` counts.
pub const BATCH_EVERY: usize = 20;
/// An answer slower than this, from its due time, counts as failed.
pub const LATENCY_LIMIT_S: f64 = 2.0;
/// How long after its schedule ends the run waits for the last answers
/// before it gives up.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// The timed part of the workload's set-up: the items and a started
/// service with its listening socket.
pub struct Setup {
    /// The request pool: `pact_xor` items and batch `pact_prime` items.
    pub items: Vec<Item>,
    /// The service the connection is served by.
    pub service: CountingService,
    /// The loopback listener `serve_listener` accepts on.
    pub listener: TcpListener,
}

/// Builds the items and starts the service.
///
/// # Errors
///
/// As [`build_items`], or when the loopback socket cannot be bound.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let items = build_items(Workload::ServiceWire, seed)?;
    let service = CountingService::new(ServiceConfig {
        shards: SHARDS,
        queue_capacity: QUEUE_CAPACITY,
    });
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding loopback: {e}"))?;
    Ok(Setup {
        items,
        service,
        listener,
    })
}

/// Which pool items are batch items.
pub fn batch_flags(items: &[Item]) -> Vec<bool> {
    items.iter().map(|i| i.batch).collect()
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Index into the item pool.
    pub item: usize,
    /// When it is due, in seconds from the start of the run.
    pub due_s: f64,
}

/// The seeded request schedule for a run of `seconds`: `RATE_PER_S`
/// requests per second, evenly spaced; one in `BATCH_EVERY` (at a seeded
/// offset) is a batch item, the others are `pact_xor` items.  Each pool is
/// drawn in rounds of a fresh seeded shuffle, so every item is scheduled
/// about equally often.
/// `batch[i]` tells whether pool item `i` is a batch item.
pub fn schedule(batch: &[bool], seed: u64, seconds: f64) -> Vec<Request> {
    let mut rng = SplitMix::new(Workload::ServiceWire, !seed);
    let mut small = Deck::new((0..batch.len()).filter(|&i| !batch[i]).collect());
    let mut large = Deck::new((0..batch.len()).filter(|&i| batch[i]).collect());
    let n = (RATE_PER_S * seconds).round().max(1.0) as usize;
    let offset = rng.below(BATCH_EVERY);
    (0..n)
        .map(|k| {
            let deck = if k % BATCH_EVERY == offset {
                &mut large
            } else {
                &mut small
            };
            Request {
                item: deck.draw(&mut rng),
                due_s: k as f64 / RATE_PER_S,
            }
        })
        .collect()
}

/// A pool of item indices dealt in shuffled rounds.
struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(cards: Vec<usize>) -> Deck {
        let next = cards.len();
        Deck { cards, next }
    }

    fn draw(&mut self, rng: &mut SplitMix) -> usize {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// How often each of `n` items is scheduled: the weights of the
/// time-share guard.
pub fn weights(n: usize, schedule: &[Request]) -> Vec<f64> {
    let mut w = vec![0.0; n];
    for r in schedule {
        w[r.item] += 1.0;
    }
    w
}

/// The request script of one item: the instance's SMT-LIB text plus the
/// counting options, ending in `(check-projected)`.
fn request_text(item: &Item) -> String {
    format!(
        "(reset)\n{}(set-option :epsilon {EPSILON})\n(set-option :delta {DELTA})\n\
         (set-option :family {})\n(set-option :seed {})\n(set-option :iterations {ITERATIONS})\n\
         (set-option :deadline-ms {})\n(set-option :priority {})\n(check-projected)\n",
        item.script,
        family_name(item.family),
        item.seed,
        DEADLINE.as_millis(),
        if item.batch { "batch" } else { "normal" },
    )
}

/// What came back for one request.
#[derive(Debug, Default, Clone)]
struct Response {
    /// When its `accepted` (or error) line was read.
    ack_ns: Option<u64>,
    /// The error line, if admission refused it.
    error: Option<String>,
    /// When its result line was read, and the line.
    result: Option<(u64, String)>,
}

/// Reads response lines until EOF, mapping acknowledgements to requests in
/// submission order and results to requests by id.
fn read_responses(stream: TcpStream, n: usize, epoch: Instant, give_up: Duration) -> Vec<Response> {
    let mut responses = vec![Response::default(); n];
    let mut by_id: Vec<Option<usize>> = Vec::new();
    let mut next = 0usize;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if epoch.elapsed() > give_up {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        let now = epoch.elapsed().as_nanos() as u64;
        let id = field(&line, "id").and_then(|v| v.parse::<usize>().ok());
        match (field(&line, "kind"), id) {
            // The acknowledgement of the next request in submission order.
            (Some("accepted"), Some(id)) if next < n => {
                if by_id.len() <= id {
                    by_id.resize(id + 1, None);
                }
                by_id[id] = Some(next);
                responses[next].ack_ns = Some(now);
                next += 1;
            }
            // A protocol error: admission refused the next request.  The
            // scripts are well formed, so any other protocol error is a
            // benchmark bug and is kept as that request's error too.
            (Some("error"), None) if next < n => {
                responses[next].error = Some(line.trim().to_string());
                if line.contains("admission queue full") || line.contains("shutting down") {
                    responses[next].ack_ns = Some(now);
                    next += 1;
                }
            }
            // A result (or a per-request error) carries the request's id.
            (_, Some(id)) => {
                if let Some(k) = by_id.get(id).copied().flatten() {
                    responses[k].result = Some((now, line.trim().to_string()));
                }
            }
            _ => {}
        }
    }
    responses
}

/// The raw value of `key` in one flat JSON line (quotes stripped).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": ");
    let start = line.find(&pattern)? + pattern.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Runs the open loop over `plan` and reports end-to-end metrics, or —
/// when `traced` — per-layer metrics, writing the trace file.
pub fn run(
    setup: Setup,
    plan: &[Request],
    seconds: f64,
    traced: bool,
    setup_s: f64,
    meta: &str,
) -> Outcome {
    let Setup {
        items,
        service,
        listener,
    } = setup;
    let texts: Vec<String> = plan.iter().map(|r| request_text(&items[r.item])).collect();
    let n = plan.len();
    let mut written_ns = vec![0u64; n];
    let mut lag_max_s = 0.0f64;

    let (responses, server_result) = std::thread::scope(|scope| {
        let server = scope.spawn(|| pact_service::wire::serve_listener(&service, &listener));
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let mut stream = TcpStream::connect(addr).expect("loopback connect");
        stream.set_nodelay(true).expect("TCP_NODELAY on loopback");
        let read_half = stream.try_clone().expect("clone the client socket");
        read_half
            .set_read_timeout(Some(Duration::from_millis(500)))
            .expect("read timeout on loopback");
        let epoch = Instant::now();
        let give_up = Duration::from_secs_f64(seconds) + DRAIN_LIMIT;
        let reader = scope.spawn(move || read_responses(read_half, n, epoch, give_up));
        for (k, request) in plan.iter().enumerate() {
            let due = Duration::from_secs_f64(request.due_s);
            if let Some(wait) = due.checked_sub(epoch.elapsed()) {
                std::thread::sleep(wait);
            }
            let now = epoch.elapsed();
            written_ns[k] = now.as_nanos() as u64;
            lag_max_s = lag_max_s.max((now.saturating_sub(due)).as_secs_f64());
            stream
                .write_all(texts[k].as_bytes())
                .expect("write a request");
        }
        // The listener's next `accept` must return instead of waiting for
        // another client: once this connection ends, `serve_listener`
        // gets `WouldBlock` and returns.
        listener
            .set_nonblocking(true)
            .expect("non-blocking listener");
        stream.write_all(b"(exit)\n").expect("write exit");
        let responses = reader.join().expect("reader thread panicked");
        if responses
            .iter()
            .any(|r| r.result.is_none() && r.error.is_none())
        {
            // Results are missing after the drain limit: the service is
            // stuck and `serve_listener` would never return.
            eprintln!(
                "pactbench: service-wire: answers missing {} s after the schedule ended",
                DRAIN_LIMIT.as_secs()
            );
            std::process::exit(1);
        }
        (responses, server.join().expect("server thread panicked"))
    });
    if let Err(e) = server_result {
        if e.kind() != std::io::ErrorKind::WouldBlock {
            println!("# note: serve_listener ended with {e}");
        }
    }
    let metrics = service.metrics();
    service.shutdown();

    let mut outcome = Outcome {
        correct: true,
        attempted: n as u64,
        ..Outcome::default()
    };
    let mut latencies = Vec::new();
    let mut good = 0usize;
    let mut misses = 0usize;
    let mut last_read_ns = 0u64;
    let mut ack_s = Vec::new();
    let mut queue_s = Vec::new();
    let mut run_s = Vec::new();
    let mut deliver_s = Vec::new();
    let mut busy = [0.0f64; SHARDS];
    let mut oracle_calls = 0u64;
    let mut rows: Vec<TraceRow> = Vec::new();
    for (k, (request, response)) in plan.iter().zip(&responses).enumerate() {
        let item = &items[request.item];
        let due_ns = (request.due_s * 1e9) as u64;
        if let (Some(error), Some(_)) = (&response.error, &response.result) {
            println!("# wrong: request {k} drew a protocol error: {error}");
            outcome.correct = false;
        }
        let failure = if let (Some(error), None) = (&response.error, &response.result) {
            Some(format!("rejected: {error}"))
        } else if let Some((read_ns, line)) = &response.result {
            last_read_ns = last_read_ns.max(*read_ns);
            let latency = (read_ns - due_ns) as f64 * 1e-9;
            latencies.push(latency);
            let get = |key| field(line, key).unwrap_or("");
            let num = |key| get(key).parse::<f64>().unwrap_or(f64::NAN);
            let (q, r) = (num("queue_seconds"), num("wall_seconds"));
            let ack_ns = response.ack_ns.unwrap_or(*read_ns);
            let w = written_ns[k];
            let run_end_ns = w + ((q + r) * 1e9) as u64;
            ack_s.push((ack_ns - w) as f64 * 1e-9);
            queue_s.push(q);
            run_s.push(r);
            // Delivery: the part of the request's span no child covers.
            // Submission follows the write, so the run ends no earlier than
            // `w + q + r`; the result is read after the run ends and after
            // the ack.  A negative value would mean the spans double-count.
            let deliver = *read_ns as f64 * 1e-9 - (ack_ns.max(run_end_ns)) as f64 * 1e-9;
            if deliver < 0.0 {
                println!("# wrong: request {k} has negative delivery time {deliver}");
                outcome.correct = false;
            }
            deliver_s.push(deliver);
            if let Ok(shard) = get("shard").parse::<usize>() {
                if shard < SHARDS {
                    busy[shard] += r;
                }
            }
            oracle_calls += get("oracle_calls").parse::<u64>().unwrap_or(0);
            if traced {
                let id = rows.len() as u64;
                let spans = [
                    ("request", due_ns, *read_ns),
                    ("loadgen.lag", due_ns, w),
                    ("wire.ack", w, ack_ns),
                    ("service.queue", w, w + (q * 1e9) as u64),
                    ("service.run", w + (q * 1e9) as u64, run_end_ns),
                    ("service.deliver", ack_ns.max(run_end_ns), *read_ns),
                ];
                for (j, (name, start_ns, end_ns)) in spans.into_iter().enumerate() {
                    rows.push(TraceRow {
                        id: id + j as u64,
                        parent: (j > 0).then_some(id),
                        op: k as u64,
                        name,
                        start_ns,
                        end_ns,
                    });
                }
            }
            let verdict = match get("outcome") {
                "exact" => judge(&CountOutcome::Exact(num("estimate") as u64), item.truth),
                "unsat" => judge(&CountOutcome::Unsatisfiable, item.truth),
                "approximate" => judge(
                    &CountOutcome::Approximate {
                        estimate: num("estimate"),
                        log2_estimate: num("log2_estimate"),
                    },
                    item.truth,
                ),
                "timeout" => judge(&CountOutcome::Timeout, item.truth),
                _ => Check::Failed(format!("no count in {line}")),
            };
            match verdict {
                Check::Wrong(why) => {
                    outcome.correct = false;
                    Some(format!("wrong: {why}"))
                }
                Check::Miss(why) => {
                    misses += 1;
                    Some(why)
                }
                Check::Failed(why) => Some(why),
                Check::Ok if get("disposition") != "completed" => {
                    Some(format!("disposition {}", get("disposition")))
                }
                Check::Ok if latency > LATENCY_LIMIT_S => Some(format!(
                    "latency {latency:.3}s over the {LATENCY_LIMIT_S}s limit"
                )),
                Check::Ok => None,
            }
        } else {
            Some("no answer".to_string())
        };
        match failure {
            None => good += 1,
            Some(why) => {
                outcome.failed += 1;
                println!("# failed request={k} item={} reason={why}", item.name);
            }
        }
    }
    if misses as f64 > DELTA * n as f64 {
        println!("# wrong: {misses} of {n} estimates outside the epsilon band");
        outcome.correct = false;
    }
    let span_s = last_read_ns as f64 * 1e-9;

    if traced {
        for (name, _) in report::PER_LAYER {
            let direct_only = ["solver.", "sat.", "lra.", "core.", "hash.", "ir."];
            if direct_only.iter().any(|p| name.starts_with(p)) {
                outcome.set(name, 0.0);
            }
        }
        outcome.set("wire.ack_s", report::median(&ack_s));
        outcome.set("service.queue_p50_s", report::median(&queue_s));
        outcome.set("service.queue_p90_s", report::percentile(&queue_s, 0.9));
        outcome.set("service.run_p50_s", report::median(&run_s));
        outcome.set("service.shard_busy_share.0", busy[0] / span_s);
        outcome.set("service.shard_busy_share.1", busy[1] / span_s);
        outcome.set("service.deliver_s", report::median(&deliver_s));
        outcome.set(
            "service.steals",
            metrics.steals_per_shard.iter().sum::<u64>() as f64,
        );
        outcome.set("service.rejected", metrics.rejected as f64);
        outcome.set("service.timed_out", metrics.timed_out as f64);
        outcome.set("service.oracle_calls", oracle_calls as f64);
        outcome.set("loadgen.lag_max_s", lag_max_s);
        // The untraced run records the same timestamps (it needs them for
        // latency); tracing adds only the span rows written after the run.
        outcome.set("trace.overhead_share", 0.0);
        match report::write_trace(Workload::ServiceWire.name(), meta, &rows) {
            Ok(path) => println!("# trace {} ({} spans)", path.display(), rows.len()),
            Err(e) => {
                println!("# wrong: trace file not written: {e}");
                outcome.correct = false;
            }
        }
    } else {
        outcome.set("latency_p50_s", report::median(&latencies));
        outcome.set("latency_p90_s", report::percentile(&latencies, 0.9));
        outcome.set("goodput_per_s", good as f64 / span_s);
        outcome.set("setup_s", setup_s);
        outcome.set("peak_rss_mib", report::peak_rss_mib());
    }
    println!(
        "# service-wire: requests={n} good={good} lag_max_s={lag_max_s:.4} rejected={} steals={:?}",
        metrics.rejected, metrics.steals_per_shard
    );
    outcome
}
