//! Contract tests for the `pact-service` wire protocol: SMT-LIB 2 text in,
//! line-delimited JSON out.
//!
//! These pin the protocol's load-bearing guarantees end to end:
//!
//! * a wire count is **bit-identical** to a direct single-threaded
//!   [`Session::count`] under the request's own configuration — proved for
//!   fixed scripts and property-tested over random thresholds and seeds;
//! * the JSON numbers round-trip: what the wire says is exactly what the
//!   engine computed (estimate, oracle calls, iterations);
//! * malformed input answers a positioned error (line *and* column) and
//!   never kills the connection — subsequent commands still work;
//! * both transports behave identically: `serve_connection` over an
//!   in-memory reader/writer pair (pipe mode) and over a real TCP socket
//!   (`--listen` mode);
//! * requests are multiplexed by id on one connection — a cheap count
//!   submitted after an expensive one answers first — and `(cancel N)`
//!   resolves the expensive one with a `"cancelled"` disposition;
//! * one flush is one write of whole lines, and delivery is woken by
//!   results, not by a timer, and loses no wake-up:
//!   an idle TCP client still reads its answer, and a waiting script run
//!   gives the same lines as polling.

use std::io::{self, BufRead, BufReader, Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

use proptest::prelude::*;

use pact::Session;
use pact_ir::{Sort, TermManager};
use pact_service::wire::{serve_connection, serve_listener, WireConnection, WIRE_SCHEMA_VERSION};
use pact_service::{CountRequest, CountingService, RequestEvent, ServiceConfig};

fn service(shards: usize) -> CountingService {
    CountingService::new(ServiceConfig {
        shards,
        queue_capacity: 16,
    })
}

/// Pulls one field's raw text out of a flat wire JSON line.
fn field<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    let pattern = format!("\"{key}\": ");
    let start = line.find(&pattern)? + pattern.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

fn numeric(line: &str, key: &str) -> f64 {
    field(line, key)
        .unwrap_or_else(|| panic!("line carries {key:?}: {line}"))
        .parse()
        .unwrap_or_else(|_| panic!("{key:?} is numeric in: {line}"))
}

/// The direct ground truth for `x >= threshold` over 8 bits, under the
/// same configuration a wire count with these options uses.
fn direct_reference(threshold: u64, seed: u64, iterations: u32) -> pact::CountReport {
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(8));
    let c = tm.mk_bv_const(u128::from(threshold), 8);
    let f = tm.mk_bv_ule(c, x).unwrap();
    let request = CountRequest::new(tm.clone())
        .assert(f)
        .project(x)
        .seed(seed)
        .iterations(iterations);
    let config = request.counter_config();
    let mut session = Session::builder(tm)
        .assert(f)
        .project(x)
        .config(config)
        .build()
        .unwrap();
    session.count().unwrap()
}

fn count_script(threshold: u64, seed: u64, iterations: u32) -> String {
    format!(
        "(set-logic QF_BV)\n\
         (declare-const x (_ BitVec 8))\n\
         (assert (bvule #x{threshold:02x} x))\n\
         (set-option :seed {seed})\n\
         (set-option :iterations {iterations})\n\
         (count x)\n"
    )
}

/// Asserts one wire result line against the direct reference report.
fn assert_matches_reference(line: &str, reference: &pact::CountReport) {
    let (outcome, estimate) = match reference.outcome {
        pact::CountOutcome::Exact(n) => ("exact", n as f64),
        pact::CountOutcome::Approximate { estimate, .. } => ("approximate", estimate),
        pact::CountOutcome::Unsatisfiable => ("unsat", 0.0),
        pact::CountOutcome::Timeout => ("timeout", -1.0),
    };
    assert_eq!(
        field(line, "outcome"),
        Some(format!("\"{outcome}\"")).as_deref()
    );
    assert_eq!(
        numeric(line, "estimate"),
        estimate,
        "wire vs direct: {line}"
    );
    assert_eq!(
        numeric(line, "oracle_calls") as u64,
        reference.stats.oracle_calls
    );
    assert_eq!(
        numeric(line, "iterations") as u64,
        u64::from(reference.stats.iterations)
    );
    assert_eq!(field(line, "disposition"), Some("\"completed\""));
}

#[test]
fn wire_counts_are_bit_identical_to_direct_sessions() {
    let svc = service(2);
    let mut conn = WireConnection::new(&svc);
    let out = conn.run_script(&count_script(0x10, 42, 3));
    let result = out
        .iter()
        .find(|l| l.contains("\"kind\": \"count\""))
        .expect("count resolved");
    assert!(result.contains(&format!("\"schema_version\": {WIRE_SCHEMA_VERSION}")));
    assert_matches_reference(result, &direct_reference(0x10, 42, 3));
    svc.shutdown();
}

proptest! {
    // Each case runs two real counts (wire + direct); keep the budget small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn wire_round_trip_matches_direct_for_random_instances(
        threshold in 1u64..=250,
        seed in 0u64..1_000,
    ) {
        let svc = service(1);
        let mut conn = WireConnection::new(&svc);
        let out = conn.run_script(&count_script(threshold, seed, 1));
        let result = out
            .iter()
            .find(|l| l.contains("\"kind\": \"count\""))
            .expect("count resolved");
        let reference = direct_reference(threshold, seed, 1);
        // Round trip: the numbers parsed back out of the JSON are exactly
        // the engine's. An exact outcome must also equal the closed form.
        assert_matches_reference(result, &reference);
        if let pact::CountOutcome::Exact(n) = reference.outcome {
            prop_assert_eq!(n, 256 - threshold);
        }
        svc.shutdown();
    }
}

#[test]
fn malformed_input_answers_positioned_errors_and_the_connection_survives() {
    let svc = service(1);
    let mut conn = WireConnection::new(&svc);
    let mut out = Vec::new();

    // Every entry is one line of garbage; the expected line number is its
    // position in the feed, and every error must carry line and column.
    let cases: &[(&str, &str)] = &[
        ("(frobnicate x)", "unknown command"),
        ("(count nosuchvar)", "unknown variable"),
        ("(set-option :epsilon)", ":key and a value"),
        ("(set-option :epsilon many)", "epsilon"),
        ("(set-option :backend warp)", "backend"),
        ("(cancel 99)", "no pending request"),
        ("(check-projected x)", "no arguments"),
        ("stray-atom", "parenthesised command"),
        ("(count)", "no projection"),
    ];
    for (k, (input, expect)) in cases.iter().enumerate() {
        let before = out.len();
        conn.feed(&format!("{input}\n"), &mut out);
        assert_eq!(out.len(), before + 1, "{input:?} answers exactly one error");
        let error = &out[before];
        assert!(error.contains("\"kind\": \"error\""), "{input:?}: {error}");
        assert!(
            error.contains(&format!("\"line\": {}", k + 1)),
            "{input:?} names line {}: {error}",
            k + 1
        );
        assert!(error.contains("\"column\": "), "{input:?}: {error}");
        assert!(
            error.contains(expect),
            "{input:?} explains itself with {expect:?}: {error}"
        );
    }

    // A declaration error from the inner parser is positioned too.
    let before = out.len();
    conn.feed("(declare-const y (_ BitVec banana))\n", &mut out);
    assert_eq!(out.len(), before + 1);
    assert!(out[before].contains("\"kind\": \"error\""));
    assert!(out[before].contains(&format!("\"line\": {}", cases.len() + 1)));

    // The connection survived all of it: a well-formed count still answers,
    // bit-identical to the direct session.
    let mut tail = conn.run_script(&count_script(0x20, 7, 2));
    let result = tail
        .drain(..)
        .find(|l| l.contains("\"kind\": \"count\""))
        .expect("count resolved after the error barrage");
    assert_matches_reference(&result, &direct_reference(0x20, 7, 2));
    assert!(!conn.exited());
    svc.shutdown();
}

#[test]
fn pipe_transport_answers_bit_identically() {
    // serve_connection over an in-memory reader/writer pair — exactly
    // `pact-serve < script.smt2`.
    let svc = service(2);
    let script = format!("{}(exit)\n", count_script(0x30, 11, 2));
    let mut output = Vec::new();
    serve_connection(&svc, Cursor::new(script.into_bytes()), &mut output).unwrap();
    svc.shutdown();

    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.iter().any(|l| l.contains("\"kind\": \"accepted\"")),
        "acknowledgement first: {text}"
    );
    let result = lines
        .iter()
        .find(|l| l.contains("\"kind\": \"count\""))
        .expect("count resolved before EOF shutdown");
    assert_matches_reference(result, &direct_reference(0x30, 11, 2));
}

#[test]
fn tcp_transport_answers_bit_identically() {
    // The same session over a real socket — exactly `pact-serve --listen`.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let svc = service(2);
        let _ = serve_listener(&svc, &listener);
    });

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("{}(exit)\n", count_script(0x40, 5, 2)).as_bytes())
        .unwrap();
    stream.flush().unwrap();

    let mut result = None;
    for line in BufReader::new(stream.try_clone().unwrap()).lines() {
        let line = line.unwrap();
        if line.contains("\"kind\": \"count\"") {
            result = Some(line);
            break;
        }
    }
    drop(stream);
    let result = result.expect("count resolved over TCP");
    assert_matches_reference(&result, &direct_reference(0x40, 5, 2));
}

#[test]
fn requests_multiplex_by_id_and_cancel_resolves_with_disposition() {
    let svc = service(2);
    let mut conn = WireConnection::new(&svc);
    let mut out = Vec::new();

    // Request 0: expensive (thousands of iterations over 12 bits).
    conn.feed(
        "(declare-const x (_ BitVec 12))\n\
         (assert (bvule #x800 x))\n\
         (set-option :seed 1)\n\
         (set-option :iterations 2000)\n\
         (count x)\n",
        &mut out,
    );
    // Request 1: cheap, same formula, one iteration.
    conn.feed("(set-option :iterations 1)\n(count x)\n", &mut out);
    assert_eq!(
        out.iter()
            .filter(|l| l.contains("\"kind\": \"accepted\""))
            .count(),
        2,
        "both counts acknowledged immediately: {out:?}"
    );

    // The cheap count answers while the expensive one is still running:
    // multiplexing by id, out of submission order.
    loop {
        conn.poll(&mut out);
        if out
            .iter()
            .any(|l| l.contains("\"kind\": \"count\"") && l.contains("\"id\": 1"))
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        !conn.idle(),
        "the expensive request (id 0) is still in flight"
    );
    assert!(!out
        .iter()
        .any(|l| l.contains("\"kind\": \"count\"") && l.contains("\"id\": 0")));

    // Cancel the expensive one; it resolves with the cancelled disposition
    // (partial statistics, not silence).
    conn.feed("(cancel 0)\n", &mut out);
    conn.finish(&mut out);
    let cancelled = out
        .iter()
        .find(|l| l.contains("\"kind\": \"count\"") && l.contains("\"id\": 0"))
        .expect("cancelled request still reports");
    // The disposition distinguishes cancellation from completion even when
    // the interrupted engine still had partial rounds to report (the
    // outcome may be "timeout" or a partial "approximate" median).
    assert_eq!(field(cancelled, "disposition"), Some("\"cancelled\""));
    assert!(field(cancelled, "outcome").is_some());
    svc.shutdown();
}

#[test]
fn accepted_acks_carry_the_placement_cost_estimate() {
    let svc = service(1);
    let mut conn = WireConnection::new(&svc);
    let out = conn.run_script(&count_script(0x10, 3, 1));
    let ack = out
        .iter()
        .find(|l| l.contains("\"kind\": \"accepted\""))
        .expect("count acknowledged");
    let ack_cost = numeric(ack, "cost_estimate") as u64;
    assert!(ack_cost >= 1);
    // The result line repeats the same cost the placement used.
    let result = out
        .iter()
        .find(|l| l.contains("\"kind\": \"count\""))
        .unwrap();
    assert_eq!(numeric(result, "cost_estimate") as u64, ack_cost);
    svc.shutdown();
}

/// Runs `body` on its own thread and fails the test if it has not returned
/// within `limit`, so a lost wake-up fails instead of hanging the suite.
fn watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = channel();
    std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Ok(()) => {}
        Err(RecvTimeoutError::Timeout) => {
            panic!("no progress within {limit:?}: a wake-up was lost")
        }
        Err(RecvTimeoutError::Disconnected) => panic!("test body panicked"),
    }
}

/// Blanks the timing fields, the only part of a line that differs between
/// two runs of the same script.
fn untimed(line: &str) -> String {
    let mut out = line.to_string();
    for key in ["\"queue_seconds\": ", "\"wall_seconds\": "] {
        if let Some(start) = out.find(key).map(|i| i + key.len()) {
            let len = out[start..].find([',', '}']).unwrap_or(0);
            out.replace_range(start..start + len, "_");
        }
    }
    out
}

#[test]
fn an_idle_tcp_client_still_reads_its_answer() {
    watchdog(Duration::from_secs(60), || {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let svc = service(1);
            let _ = serve_listener(&svc, &listener);
        });

        // One count, then silence: no `(exit)`, no EOF.  The only thing
        // that can wake the server is the count resolving.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(count_script(0x50, 9, 1).as_bytes())
            .unwrap();
        let mut lines = BufReader::new(stream.try_clone().unwrap()).lines();
        let ack = lines.next().unwrap().unwrap();
        assert!(ack.contains("\"kind\": \"accepted\""), "{ack}");
        let result = lines.next().unwrap().unwrap();
        assert_matches_reference(&result, &direct_reference(0x50, 9, 1));
        drop(stream);
    });
}

#[test]
fn waiting_for_results_gives_the_lines_polling_gives() {
    watchdog(Duration::from_secs(120), || {
        // Several counts; request 0 streams its events; request 1 is
        // cancelled while it waits behind request 0 on the single shard.
        let script = "(set-logic QF_BV)\n\
             (declare-const x (_ BitVec 12))\n\
             (assert (bvule #x080 x))\n\
             (set-option :seed 3)\n\
             (set-option :iterations 2)\n\
             (set-option :stream-events true)\n\
             (count x)\n\
             (set-option :stream-events false)\n\
             (count x)\n\
             (cancel 1)\n\
             (set-option :seed 4)\n\
             (count x)\n\
             (set-option :seed 5)\n\
             (count x)\n";
        let svc = service(1);

        let mut waiting = WireConnection::new(&svc);
        let waited: Vec<String> = waiting
            .run_script(script)
            .iter()
            .map(|l| untimed(l))
            .collect();

        // The same script drained by polling alone.
        let mut polling = WireConnection::new(&svc);
        let mut polled = Vec::new();
        polling.feed(script, &mut polled);
        while !polling.idle() {
            polling.poll(&mut polled);
            std::thread::sleep(Duration::from_millis(1));
        }
        let polled: Vec<String> = polled.iter().map(|l| untimed(l)).collect();
        assert_eq!(waited, polled);

        // And the lines are the expected ones: four acks, request 0's
        // event stream ending in `finished` before its result, the
        // cancelled request, and two completed counts.
        let kinds: Vec<&str> = waited
            .iter()
            .map(|l| field(l, "kind").expect("every line has a kind"))
            .collect();
        assert_eq!(&kinds[..4], ["\"accepted\""; 4]);
        let events: Vec<&String> = waited
            .iter()
            .filter(|l| l.contains("\"kind\": \"event\""))
            .collect();
        assert!(events.iter().all(|l| l.contains("\"id\": 0")), "{events:?}");
        assert!(events.first().unwrap().contains("\"event\": \"queued\""));
        assert!(events.last().unwrap().contains("\"event\": \"finished\""));
        let results: Vec<&String> = waited
            .iter()
            .filter(|l| l.contains("\"kind\": \"count\""))
            .collect();
        assert_eq!(results.len(), 4);
        let dispositions: Vec<&str> = results
            .iter()
            .map(|l| field(l, "disposition").unwrap())
            .collect();
        assert_eq!(
            dispositions,
            [
                "\"completed\"",
                "\"cancelled\"",
                "\"completed\"",
                "\"completed\""
            ]
        );
        svc.shutdown();
    });
}

/// Input delivered in chunks the test releases one at a time.  Once
/// the sender is gone it signals `drained` and reports EOF, so the
/// test knows every line before that has reached the connection.
struct ChunkReader {
    chunks: Receiver<Vec<u8>>,
    drained: Sender<()>,
}

impl Read for ChunkReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.chunks.recv() {
            Ok(chunk) => {
                assert!(chunk.len() <= buf.len(), "test chunks fit one read");
                buf[..chunk.len()].copy_from_slice(&chunk);
                Ok(chunk.len())
            }
            Err(_) => {
                let _ = self.drained.send(());
                Ok(0)
            }
        }
    }
}

/// Records every `write` and `flush` call; the first `write` announces
/// itself on `entered` and then waits for `gate`.
struct RecordingWriter {
    calls: Vec<Result<String, ()>>,
    entered: Sender<()>,
    gate: Receiver<()>,
}

impl Write for RecordingWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if self.calls.is_empty() {
            let _ = self.entered.send(());
            let _ = self.gate.recv();
        }
        self.calls
            .push(Ok(String::from_utf8_lossy(bytes).into_owned()));
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.calls.push(Err(()));
        Ok(())
    }
}

/// A count that keeps a shard busy until it is cancelled.
fn blocker_request() -> CountRequest {
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(12));
    let c = tm.mk_bv_const(2048, 12);
    let f = tm.mk_bv_ule(c, x).unwrap();
    CountRequest::new(tm)
        .assert(f)
        .project(x)
        .seed(1)
        .iterations(2000)
}

fn probe_request() -> CountRequest {
    let mut tm = TermManager::new();
    let x = tm.mk_var("x", Sort::BitVec(4));
    let c = tm.mk_bv_const(3, 4);
    let f = tm.mk_bv_ult(x, c).unwrap();
    CountRequest::new(tm).assert(f).project(x)
}

const DECLS: &str = "(set-logic QF_BV)\n(declare-const x (_ BitVec 8))\n\
                     (assert (bvule #x10 x))\n(set-option :iterations 1)\n";

#[test]
fn one_flush_is_one_write_of_whole_lines() {
    watchdog(Duration::from_secs(60), || {
        let svc = service(1);
        // Occupy the single shard, so request 0 waits in the queue and
        // cannot resolve before its ack has been written.
        let mut blocker = svc.submit(blocker_request()).unwrap();
        blocker.wait_for_event(|e| matches!(e, RequestEvent::Admitted { .. }));
        let (chunk_tx, chunks) = channel();
        let (drained, reader_done) = channel();
        let (entered, first_write) = channel();
        let (open_gate, gate) = channel();
        let reader = ChunkReader { chunks, drained };
        let mut writer = RecordingWriter {
            calls: Vec::new(),
            entered,
            gate,
        };
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_connection(&svc, reader, &mut writer));
            // Request 0's ack is the first write; hold it there until
            // request 0 has resolved and request 1's line has been read,
            // so the next flush carries request 1's ack *and* request
            // 0's result.
            chunk_tx
                .send(format!("{DECLS}(count x)\n").into_bytes())
                .unwrap();
            first_write.recv().unwrap();
            // Ack 0 is in the held write; only now may request 0 run.
            blocker.cancel();
            // The single shard serves in order: once a probe submitted
            // behind request 0 resolves, request 0 has been delivered.
            let mut probe = svc.submit(probe_request()).unwrap();
            probe.wait().unwrap();
            chunk_tx.send(b"(count x)\n(exit)\n".to_vec()).unwrap();
            drop(chunk_tx);
            reader_done.recv().unwrap();
            open_gate.send(()).unwrap();
            server.join().unwrap().unwrap();
        });

        // Every flush follows exactly one write, and every write ends
        // on a line boundary.
        let mut writes = Vec::new();
        for pair in writer.calls.chunks(2) {
            match pair {
                [Ok(bytes), Err(())] => writes.push(bytes.clone()),
                other => panic!("expected write then flush, got {other:?}"),
            }
        }
        assert!(writes.iter().all(|w| w.ends_with('\n')), "{writes:?}");
        assert!(
            writes
                .iter()
                .any(|w| w.contains("\"kind\": \"accepted\"") && w.contains("\"kind\": \"count\"")),
            "an ack and a result share one write: {writes:?}"
        );

        // The lines are the ones a direct run of the same script gives.
        let lines: Vec<String> = writes.concat().lines().map(untimed).collect();
        let mut direct = WireConnection::new(&svc);
        let expected: Vec<String> = direct
            .run_script(&format!("{DECLS}(count x)\n(count x)\n(exit)\n"))
            .iter()
            .map(|l| untimed(l))
            .collect();
        assert_eq!(lines, expected);
        svc.shutdown();
    });
}
