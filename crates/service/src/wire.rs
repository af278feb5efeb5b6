//! The wire protocol: SMT-LIB 2 text in, line-delimited JSON out.
//!
//! This module is the service's external surface for non-Rust clients: a
//! connection feeds a pragmatic SMT-LIB 2 subset (`declare-const`,
//! `assert`, `set-option`, `count` / `check-projected` — everything the
//! [`pact_ir`] parser already understands plus the counting extensions),
//! and the service answers with one JSON object per line, mirroring the
//! bench record schema's field names so the same downstream tooling parses
//! both.
//!
//! # Protocol shape
//!
//! - Commands are SMT-LIB s-expressions, whitespace/comment separated;
//!   they may span lines (the scanner buffers until the parens balance).
//! - Declarations and options are silent on success.  A `count` answers
//!   immediately with an `accepted` acknowledgement carrying the request
//!   id, then — possibly out of order with later acknowledgements — a
//!   result object with the same id: requests are *multiplexed by id* over
//!   one connection, so a cheap count submitted after an expensive one
//!   returns first.
//! - Protocol errors answer with a JSON `error` object naming the **line
//!   and column** of the offending input, and never kill the connection:
//!   the next command is parsed as if the bad one had not happened.
//! - `(exit)` ends the logical session once every pending result has been
//!   delivered; closing the input stream (EOF) behaves the same.
//!
//! The supported commands:
//!
//! | command | effect |
//! |---|---|
//! | `(set-logic L)`, `(set-info :k v)`, `(declare-const x S)`, `(declare-fun x () S)`, `(assert t)` | delegated to the [`pact_ir`] parser; accumulate into the connection's formula |
//! | `(set-info :projection (x y))` | declares the default projection set |
//! | `(set-option :epsilon 0.8)` etc. | sets a strategy knob for subsequent counts (see [`WireOptions`]) |
//! | `(count)` / `(count x y)` | submits a count over the declared (or listed) projection |
//! | `(check-projected)` | like `(count)` but *requires* a declared `:projection` |
//! | `(cancel N)` | cancels the pending request with id `N` |
//! | `(reset)` | clears declarations, asserts and options (pending requests keep running) |
//! | `(exit)` | ends the session after pending results drain |
//!
//! Determinism: a wire count is submitted as a [`CountRequest`] over a
//! snapshot of the connection's term store, so its answer is bit-identical
//! to a direct single-threaded [`pact::Session`] run under
//! [`CountRequest::counter_config`] — the transport adds framing, not
//! noise.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use pact::{BackendSpec, ProgressEvent};
use pact_hash::HashFamily;
use pact_ir::{IrError, TermId, TermManager};

use crate::queue::Notifier;
use crate::request::{CountRequest, Priority, ServiceReport};
use crate::{CountingService, RequestEvent, RequestHandle};

/// Version stamped on every wire JSON object.  Tracks the bench record
/// schema (`pact_bench::RECORD_SCHEMA_VERSION`) so one downstream parser
/// serves both streams; the bench crate pins the equality in a test.
pub const WIRE_SCHEMA_VERSION: u32 = 9;

/// The per-connection strategy knobs, set by `(set-option :key value)` and
/// applied to every subsequent `count` / `check-projected`.
///
/// `None` fields fall through to the engine defaults
/// ([`pact::CounterConfig::default`]).
#[derive(Debug, Clone, Default)]
pub struct WireOptions {
    /// `(set-option :epsilon 0.8)` — tolerance of the `(ε, δ)` guarantee.
    pub epsilon: Option<f64>,
    /// `(set-option :delta 0.2)` — confidence of the `(ε, δ)` guarantee.
    pub delta: Option<f64>,
    /// `(set-option :backend cube:2:2)` — oracle backend, in
    /// [`BackendSpec`]'s `FromStr` syntax.
    pub backend: Option<BackendSpec>,
    /// `(set-option :family prime)` — hash family (`xor`, `prime`, `shift`).
    pub family: Option<HashFamily>,
    /// `(set-option :seed 42)` — seed for all randomness.
    pub seed: Option<u64>,
    /// `(set-option :iterations 3)` — outer-iteration override.
    pub iterations: Option<u32>,
    /// `(set-option :deadline-ms 5000)` — end-to-end deadline.
    pub deadline: Option<Duration>,
    /// `(set-option :priority urgent)` — scheduling class.
    pub priority: Priority,
    /// `(set-option :stream-events true)` — stream per-request lifecycle
    /// events (`queued`, `admitted`, `progress`, …) as JSON lines.
    pub stream_events: bool,
}

/// What wakes a connection: an input line from the transport's reader
/// thread, the end of its input, or a request that resolved (or streamed an
/// event).  One channel carries all three, so the transport blocks in one
/// place with no timer.
#[derive(Debug)]
enum Wake {
    Line(String),
    Closed(io::Result<()>),
    Resolved,
}

/// A request submitted over the wire and not yet resolved.
#[derive(Debug)]
struct Pending {
    id: u64,
    kind: &'static str,
    handle: RequestHandle,
    stream_events: bool,
}

/// One logical client session: accumulated declarations and asserts, the
/// option set, and the requests in flight.
///
/// The connection is transport-agnostic — [`WireConnection::feed`] consumes
/// raw text (complete or partial commands) and [`WireConnection::poll`]
/// drains finished results; [`serve_connection`] wires both to a
/// reader/writer pair, and tests drive them directly.
#[derive(Debug)]
pub struct WireConnection<'s> {
    service: &'s CountingService,
    tm: TermManager,
    asserts: Vec<TermId>,
    projection: Vec<TermId>,
    options: WireOptions,
    next_id: u64,
    pending: Vec<Pending>,
    buffer: String,
    line: usize,
    column: usize,
    exited: bool,
    /// Cloned into every submission's [`Notifier`] (and the transport's
    /// reader thread); `wakeups` is where [`WireConnection::finish`] and
    /// [`serve_connection`] block.
    wake: Sender<Wake>,
    wakeups: Receiver<Wake>,
}

impl<'s> WireConnection<'s> {
    /// Opens a fresh session against the service.
    pub fn new(service: &'s CountingService) -> Self {
        let (wake, wakeups) = channel();
        WireConnection {
            service,
            tm: TermManager::new(),
            asserts: Vec::new(),
            projection: Vec::new(),
            options: WireOptions::default(),
            next_id: 0,
            pending: Vec::new(),
            buffer: String::new(),
            line: 1,
            column: 1,
            exited: false,
            wake,
            wakeups,
        }
    }

    /// Whether `(exit)` was received; no further input is processed.
    pub fn exited(&self) -> bool {
        self.exited
    }

    /// Whether every submitted request has been resolved and reported.
    pub fn idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// Consumes a chunk of input (any framing: whole scripts, single lines,
    /// partial commands), dispatching every complete command and pushing
    /// response lines (acknowledgements, protocol errors) onto `out`.
    pub fn feed(&mut self, chunk: &str, out: &mut Vec<String>) {
        if self.exited {
            return;
        }
        self.buffer.push_str(chunk);
        loop {
            match scan_item(&self.buffer, self.line, self.column) {
                Scan::Incomplete {
                    consumed,
                    line,
                    column,
                } => {
                    self.buffer.drain(..consumed);
                    self.line = line;
                    self.column = column;
                    break;
                }
                Scan::Command {
                    end,
                    start,
                    line,
                    column,
                    next_line,
                    next_column,
                } => {
                    let text = self.buffer[start..end].to_string();
                    self.buffer.drain(..end);
                    self.line = next_line;
                    self.column = next_column;
                    self.dispatch(&text, line, column, out);
                    if self.exited {
                        self.buffer.clear();
                        break;
                    }
                }
                Scan::Stray {
                    end,
                    token,
                    line,
                    column,
                    next_line,
                    next_column,
                } => {
                    self.buffer.drain(..end);
                    self.line = next_line;
                    self.column = next_column;
                    out.push(protocol_error(
                        line,
                        column,
                        &format!("expected a parenthesised command, found {token:?}"),
                    ));
                }
            }
        }
    }

    /// Drains completed requests (and, when enabled, their streamed
    /// events) into `out` without blocking.  Results appear as soon as
    /// their request resolves, in completion order — not submission order.
    pub fn poll(&mut self, out: &mut Vec<String>) {
        let mut i = 0;
        while i < self.pending.len() {
            let p = &mut self.pending[i];
            if p.stream_events {
                while let Some(event) = p.handle.try_next_event() {
                    out.push(event_to_json(p.id, &event));
                }
            }
            match p.handle.try_result() {
                None => i += 1,
                Some(result) => {
                    if p.stream_events {
                        while let Some(event) = p.handle.try_next_event() {
                            out.push(event_to_json(p.id, &event));
                        }
                    }
                    match result {
                        Ok(report) => out.push(report_to_json(p.id, p.kind, &report)),
                        Err(e) => out.push(request_error(p.id, &e.to_string())),
                    }
                    self.pending.remove(i);
                }
            }
        }
    }

    /// Blocks until every pending request has resolved, draining all
    /// remaining responses into `out`.  The wait is woken by the requests
    /// themselves, not by a timer.
    pub fn finish(&mut self, out: &mut Vec<String>) {
        loop {
            self.poll(out);
            if self.idle() {
                return;
            }
            // The connection holds a sender itself, so the channel never
            // disconnects; every pending request pings when it resolves.
            let _ = self.wakeups.recv();
        }
    }

    /// Convenience for scripts: feed the whole text, wait for every
    /// result, and return all response lines in order.
    pub fn run_script(&mut self, script: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.feed(script, &mut out);
        self.finish(&mut out);
        out
    }

    fn dispatch(&mut self, text: &str, line: usize, column: usize, out: &mut Vec<String>) {
        match head_of(text) {
            "set-logic" | "set-info" | "declare-const" | "declare-fun" | "assert" => {
                match pact_ir::parser::parse_script(&mut self.tm, text) {
                    Ok(script) => {
                        self.asserts.extend(script.asserts);
                        self.projection.extend(script.projection);
                    }
                    Err(e) => {
                        let (l, c, message) = map_ir_error(e, line, column);
                        out.push(protocol_error(l, c, &message));
                    }
                }
            }
            "set-option" => self.set_option(text, line, column, out),
            "count" => self.submit_count(text, line, column, false, out),
            "check-projected" => self.submit_count(text, line, column, true, out),
            "cancel" => self.cancel(text, line, column, out),
            "reset" => {
                self.tm = TermManager::new();
                self.asserts.clear();
                self.projection.clear();
                self.options = WireOptions::default();
            }
            "exit" => self.exited = true,
            // SMT-LIB ritual commands a generic frontend may emit; silently
            // accepted, exactly like the pact_ir parser treats them.
            "check-sat" | "get-model" | "get-value" | "get-info" | "echo" | "push" | "pop" => {}
            other => out.push(protocol_error(
                line,
                column,
                &format!("unknown command {other:?}"),
            )),
        }
    }

    fn set_option(&mut self, text: &str, line: usize, column: usize, out: &mut Vec<String>) {
        let tokens = flat_tokens(text);
        let (key, value) = match (tokens.get(1), tokens.get(2)) {
            (Some(k), Some(v)) if tokens.len() == 3 => (k.as_str(), v.as_str()),
            _ => {
                out.push(protocol_error(
                    line,
                    column,
                    "set-option takes exactly a :key and a value",
                ));
                return;
            }
        };
        let result: Result<(), String> = match key {
            ":epsilon" => parse_into(value, "epsilon", &mut self.options.epsilon),
            ":delta" => parse_into(value, "delta", &mut self.options.delta),
            ":seed" => parse_into(value, "seed", &mut self.options.seed),
            ":iterations" => parse_into(value, "iterations", &mut self.options.iterations),
            ":deadline-ms" => match value.parse::<u64>() {
                Ok(ms) => {
                    self.options.deadline = Some(Duration::from_millis(ms));
                    Ok(())
                }
                Err(_) => Err(format!("invalid deadline-ms value {value:?}")),
            },
            ":backend" => match value.parse::<BackendSpec>() {
                Ok(spec) => {
                    self.options.backend = Some(spec);
                    Ok(())
                }
                Err(e) => Err(e),
            },
            ":family" => match value {
                "xor" => {
                    self.options.family = Some(HashFamily::Xor);
                    Ok(())
                }
                "prime" => {
                    self.options.family = Some(HashFamily::Prime);
                    Ok(())
                }
                "shift" => {
                    self.options.family = Some(HashFamily::Shift);
                    Ok(())
                }
                other => Err(format!(
                    "unknown hash family {other:?} (expected xor, prime or shift)"
                )),
            },
            ":priority" => match value {
                "urgent" => {
                    self.options.priority = Priority::Urgent;
                    Ok(())
                }
                "normal" => {
                    self.options.priority = Priority::Normal;
                    Ok(())
                }
                "batch" => {
                    self.options.priority = Priority::Batch;
                    Ok(())
                }
                other => Err(format!(
                    "unknown priority {other:?} (expected urgent, normal or batch)"
                )),
            },
            ":stream-events" => match value {
                "true" => {
                    self.options.stream_events = true;
                    Ok(())
                }
                "false" => {
                    self.options.stream_events = false;
                    Ok(())
                }
                other => Err(format!("invalid stream-events value {other:?}")),
            },
            other => Err(format!("unknown option {other:?}")),
        };
        if let Err(message) = result {
            out.push(protocol_error(line, column, &message));
        }
    }

    fn submit_count(
        &mut self,
        text: &str,
        line: usize,
        column: usize,
        check_projected: bool,
        out: &mut Vec<String>,
    ) {
        let tokens = flat_tokens(text);
        let names = &tokens[1..];
        if check_projected && !names.is_empty() {
            out.push(protocol_error(
                line,
                column,
                "check-projected takes no arguments (it uses the declared :projection)",
            ));
            return;
        }
        let projection = if names.is_empty() {
            if self.projection.is_empty() {
                out.push(protocol_error(
                    line,
                    column,
                    "no projection: list variables in the command or declare \
                     (set-info :projection (...)) first",
                ));
                return;
            }
            self.projection.clone()
        } else {
            let mut vars = Vec::with_capacity(names.len());
            for name in names {
                match self.tm.find_var(name) {
                    Some(v) => vars.push(v),
                    None => {
                        out.push(protocol_error(
                            line,
                            column,
                            &format!("unknown variable {name:?} in projection"),
                        ));
                        return;
                    }
                }
            }
            vars
        };

        // Submit over a snapshot: every wire request shares this
        // connection's interned id table instead of deep-cloning it, and
        // later declarations extend the connection's manager without
        // disturbing requests already in flight.
        let snapshot = self.tm.snapshot();
        let mut request = CountRequest::from_snapshot(snapshot)
            .assert_all(&self.asserts)
            .project_all(&projection)
            .priority(self.options.priority);
        if let Some(v) = self.options.epsilon {
            request = request.epsilon(v);
        }
        if let Some(v) = self.options.delta {
            request = request.delta(v);
        }
        if let Some(v) = self.options.backend {
            request = request.backend(v);
        }
        if let Some(v) = self.options.family {
            request = request.family(v);
        }
        if let Some(v) = self.options.seed {
            request = request.seed(v);
        }
        if let Some(v) = self.options.iterations {
            request = request.iterations(v);
        }
        if let Some(v) = self.options.deadline {
            request = request.deadline(v);
        }
        let cost = request.cost_estimate();
        let kind = if check_projected {
            "check-projected"
        } else {
            "count"
        };
        let wake = self.wake.clone();
        let notify = Notifier::new(self.options.stream_events, move || {
            let _ = wake.send(Wake::Resolved);
        });
        match self.service.submit_notified(request, Some(notify)) {
            Ok(handle) => {
                let id = self.next_id;
                self.next_id += 1;
                out.push(format!(
                    "{{\"schema_version\": {WIRE_SCHEMA_VERSION}, \"kind\": \"accepted\", \
                     \"id\": {id}, \"for\": \"{kind}\", \"cost_estimate\": {cost}}}"
                ));
                self.pending.push(Pending {
                    id,
                    kind,
                    handle,
                    stream_events: self.options.stream_events,
                });
            }
            // A refused submission (queue full, shutting down, invalid) is
            // a per-command error; the connection survives.
            Err(e) => out.push(protocol_error(line, column, &e.to_string())),
        }
    }

    fn cancel(&mut self, text: &str, line: usize, column: usize, out: &mut Vec<String>) {
        let tokens = flat_tokens(text);
        let id = match tokens.get(1).and_then(|t| t.parse::<u64>().ok()) {
            Some(id) if tokens.len() == 2 => id,
            _ => {
                out.push(protocol_error(
                    line,
                    column,
                    "cancel takes exactly one request id",
                ));
                return;
            }
        };
        match self.pending.iter().find(|p| p.id == id) {
            Some(p) => p.handle.cancel(),
            None => out.push(protocol_error(
                line,
                column,
                &format!("no pending request with id {id}"),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Command scanner
// ---------------------------------------------------------------------------

/// One step of the incremental top-level scanner.
enum Scan {
    /// Nothing complete yet: consume `consumed` bytes (whitespace and
    /// comments), leaving the partial item (if any) buffered; the cursor
    /// after the consumed prefix is at (`line`, `column`).
    Incomplete {
        consumed: usize,
        line: usize,
        column: usize,
    },
    /// A balanced command occupies `start..end`; it begins at
    /// (`line`, `column`) and the cursor after it is at
    /// (`next_line`, `next_column`).
    Command {
        start: usize,
        end: usize,
        line: usize,
        column: usize,
        next_line: usize,
        next_column: usize,
    },
    /// A stray top-level atom (not a command) occupies `..end`.
    Stray {
        end: usize,
        token: String,
        line: usize,
        column: usize,
        next_line: usize,
        next_column: usize,
    },
}

/// Scans the buffer (whose first byte sits at `base_line`:`base_column`,
/// both 1-based) for the next complete top-level item.
fn scan_item(buffer: &str, base_line: usize, base_column: usize) -> Scan {
    let chars: Vec<(usize, char)> = buffer.char_indices().collect();
    let mut line = base_line;
    let mut column = base_column;
    let mut k = 0;

    // Skip whitespace and *terminated* comments.  An unterminated comment
    // stays buffered: its remainder may still arrive.
    loop {
        match chars.get(k) {
            None => {
                return Scan::Incomplete {
                    consumed: buffer.len(),
                    line,
                    column,
                }
            }
            Some(&(i, ';')) => {
                let Some(rel) = buffer[i..].find('\n') else {
                    return Scan::Incomplete {
                        consumed: i,
                        line,
                        column,
                    };
                };
                while chars[k].0 < i + rel {
                    k += 1;
                }
                // Consume the newline itself.
                k += 1;
                line += 1;
                column = 1;
            }
            Some(&(_, c)) if c.is_whitespace() => {
                advance(c, &mut line, &mut column);
                k += 1;
            }
            Some(_) => break,
        }
    }

    let (start, first) = chars[k];
    let start_line = line;
    let start_column = column;

    if first != '(' {
        // A stray atom: everything up to the next boundary.  If the buffer
        // ends first the token may be partial — wait for more input.
        let mut end = buffer.len();
        let mut complete = false;
        let mut next_line = line;
        let mut next_column = column;
        for &(i, c) in &chars[k..] {
            if c.is_whitespace() || c == '(' || c == ';' {
                end = i;
                complete = true;
                break;
            }
            advance(c, &mut next_line, &mut next_column);
        }
        if !complete {
            return Scan::Incomplete {
                consumed: start,
                line: start_line,
                column: start_column,
            };
        }
        return Scan::Stray {
            end,
            token: buffer[start..end].to_string(),
            line: start_line,
            column: start_column,
            next_line,
            next_column,
        };
    }

    // Balance parens, respecting strings, |symbols| and comments.
    let mut depth = 0usize;
    let mut in_string = false;
    let mut in_symbol = false;
    let mut in_comment = false;
    for &(i, c) in &chars[k..] {
        advance(c, &mut line, &mut column);
        if in_comment {
            in_comment = c != '\n';
            continue;
        }
        if in_string {
            in_string = c != '"';
            continue;
        }
        if in_symbol {
            in_symbol = c != '|';
            continue;
        }
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Scan::Command {
                        start,
                        end: i + c.len_utf8(),
                        line: start_line,
                        column: start_column,
                        next_line: line,
                        next_column: column,
                    };
                }
            }
            '"' => in_string = true,
            '|' => in_symbol = true,
            ';' => in_comment = true,
            _ => {}
        }
    }
    Scan::Incomplete {
        consumed: start,
        line: start_line,
        column: start_column,
    }
}

fn advance(c: char, line: &mut usize, column: &mut usize) {
    if c == '\n' {
        *line += 1;
        *column = 1;
    } else {
        *column += 1;
    }
}

/// The command's head symbol (first atom after the opening parens).
fn head_of(text: &str) -> &str {
    text.trim_start_matches(|c: char| c == '(' || c.is_whitespace())
        .split(|c: char| c.is_whitespace() || c == '(' || c == ')')
        .next()
        .unwrap_or("")
}

/// The command's atoms with all parentheses stripped — only valid for
/// commands whose arguments are flat symbols (`set-option`, `count`,
/// `cancel`).
fn flat_tokens(text: &str) -> Vec<String> {
    text.replace(['(', ')'], " ")
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

fn parse_into<T: std::str::FromStr>(
    value: &str,
    what: &str,
    slot: &mut Option<T>,
) -> Result<(), String> {
    match value.parse::<T>() {
        Ok(v) => {
            *slot = Some(v);
            Ok(())
        }
        Err(_) => Err(format!("invalid {what} value {value:?}")),
    }
}

/// Maps an inner [`pact_ir`] parse error (line-relative to the command
/// text) to absolute coordinates.  The ir parser does not track columns, so
/// errors on the command's first line inherit the command's column and
/// later lines report column 1.
fn map_ir_error(e: IrError, line: usize, column: usize) -> (usize, usize, String) {
    match e {
        IrError::Parse {
            line: relative,
            message,
        } => {
            let absolute = line + relative.saturating_sub(1);
            let column = if relative <= 1 { column } else { 1 };
            (absolute, column, message)
        }
        other => (line, column, other.to_string()),
    }
}

// ---------------------------------------------------------------------------
// JSON rendering
// ---------------------------------------------------------------------------

fn escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A protocol-level error tied to a position in the input stream.  The
/// connection survives: subsequent commands are processed normally.
fn protocol_error(line: usize, column: usize, message: &str) -> String {
    format!(
        "{{\"schema_version\": {WIRE_SCHEMA_VERSION}, \"kind\": \"error\", \
         \"line\": {line}, \"column\": {column}, \"message\": \"{}\"}}",
        escape(message)
    )
}

/// A per-request failure (the engine rejected the run after admission).
fn request_error(id: u64, message: &str) -> String {
    format!(
        "{{\"schema_version\": {WIRE_SCHEMA_VERSION}, \"kind\": \"error\", \
         \"id\": {id}, \"message\": \"{}\"}}",
        escape(message)
    )
}

/// Renders a resolved request as one JSON line, mirroring the bench record
/// schema's field names (`outcome`, `estimate`, `log2_estimate`,
/// `oracle_calls`, `shard`, `queue_seconds`, `cost_estimate`, …) so bench
/// artifact consumers parse wire results unchanged.
pub fn report_to_json(id: u64, kind: &str, report: &ServiceReport) -> String {
    let (outcome, estimate, log2) = report.report.outcome.record_fields();
    let stats = &report.report.stats;
    let shard = report.shard.map(|s| s as i64).unwrap_or(-1);
    format!(
        concat!(
            "{{\"schema_version\": {}, \"kind\": \"{}\", \"id\": {}, ",
            "\"disposition\": \"{}\", \"outcome\": \"{}\", \"estimate\": {}, ",
            "\"log2_estimate\": {}, \"oracle_calls\": {}, \"cells_explored\": {}, ",
            "\"iterations\": {}, \"terms_interned\": {}, \"shard\": {}, ",
            "\"queue_seconds\": {:.6}, \"cost_estimate\": {}, \"wall_seconds\": {:.6}}}"
        ),
        WIRE_SCHEMA_VERSION,
        kind,
        id,
        report.disposition,
        outcome,
        estimate,
        log2,
        stats.oracle_calls,
        stats.cells_explored,
        stats.iterations,
        stats.terms_interned,
        shard,
        report.queue_seconds,
        report.cost_estimate,
        stats.wall_seconds,
    )
}

/// Renders one lifecycle event as a JSON line (emitted when the connection
/// set `:stream-events true`).
pub fn event_to_json(id: u64, event: &RequestEvent) -> String {
    let body = match event {
        RequestEvent::Queued => "\"event\": \"queued\"".to_string(),
        RequestEvent::Admitted { shard } => {
            format!("\"event\": \"admitted\", \"shard\": {shard}")
        }
        RequestEvent::Progress(progress) => {
            let detail = match progress {
                ProgressEvent::Model { found } => {
                    format!("\"progress\": \"model\", \"found\": {found}")
                }
                ProgressEvent::Cell {
                    round,
                    cells_in_round,
                } => format!("\"progress\": \"cell\", \"round\": {round}, \"cells_in_round\": {cells_in_round}"),
                ProgressEvent::Round { round, estimate } => {
                    let estimate = estimate
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "null".to_string());
                    format!("\"progress\": \"round\", \"round\": {round}, \"estimate\": {estimate}")
                }
                // `ProgressEvent` is #[non_exhaustive]; unknown kinds still
                // produce a well-formed event line.
                _ => "\"progress\": \"other\"".to_string(),
            };
            format!("\"event\": \"progress\", {detail}")
        }
        RequestEvent::Finished => "\"event\": \"finished\"".to_string(),
        RequestEvent::TimedOut => "\"event\": \"timed_out\"".to_string(),
        RequestEvent::Cancelled => "\"event\": \"cancelled\"".to_string(),
        RequestEvent::Failed => "\"event\": \"failed\"".to_string(),
        // `RequestEvent` is #[non_exhaustive] for external consumers; new
        // in-crate variants should be named above.
        #[allow(unreachable_patterns)]
        _ => "\"event\": \"other\"".to_string(),
    };
    format!(
        "{{\"schema_version\": {WIRE_SCHEMA_VERSION}, \"kind\": \"event\", \"id\": {id}, {body}}}"
    )
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

/// Serves one logical client over a reader/writer pair: stdin/stdout for
/// `pact-serve`'s pipe mode, a [`std::net::TcpStream`] pair for `--listen`.
///
/// A dedicated thread reads lines and hands them over the connection's
/// wake-up channel, which also carries a ping from every request as it
/// resolves (and, with `:stream-events`, as it emits an event).  The loop
/// blocks on that channel with no timeout, so a result is written as soon
/// as it exists — this is what makes out-of-order multiplexing observable:
/// a client that submits two counts and then waits sees the cheaper one
/// answer first.  All response lines ready at a wake-up go out in a single
/// `write_all`, each ending in `\n`.  The loop ends when the input reaches
/// EOF or `(exit)` was processed, and every pending result has been
/// delivered.
///
/// # Errors
///
/// Returns the first I/O error from either side of the connection, or the
/// error from spawning the reader thread.
pub fn serve_connection<R, W>(service: &CountingService, reader: R, mut writer: W) -> io::Result<()>
where
    R: Read + Send + 'static,
    W: Write,
{
    let mut conn = WireConnection::new(service);
    let input = conn.wake.clone();
    std::thread::Builder::new()
        .name("pact-wire-reader".into())
        .spawn(move || {
            let mut reader = BufReader::new(reader);
            let end = loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) => break Ok(()),
                    Ok(_) => {
                        if input.send(Wake::Line(line)).is_err() {
                            return;
                        }
                    }
                    Err(e) => break Err(e),
                }
            };
            let _ = input.send(Wake::Closed(end));
        })?;

    let mut out = Vec::new();
    let mut batch = String::new();
    let mut eof = false;
    loop {
        conn.poll(&mut out);
        if !out.is_empty() {
            for line in out.drain(..) {
                batch.push_str(&line);
                batch.push('\n');
            }
            writer.write_all(batch.as_bytes())?;
            writer.flush()?;
            batch.clear();
        }
        if (eof || conn.exited()) && conn.idle() {
            return Ok(());
        }
        // Block for the next wake-up, then take whatever else is already
        // queued, so one flush answers everything that arrived together.
        let mut next = conn.wakeups.recv().ok();
        while let Some(wake) = next {
            match wake {
                Wake::Line(line) => conn.feed(&line, &mut out),
                Wake::Closed(Ok(())) => eof = true,
                Wake::Closed(Err(e)) => return Err(e),
                Wake::Resolved => {}
            }
            next = conn.wakeups.try_recv().ok();
        }
    }
}

/// Accepts TCP connections and serves each as one logical client,
/// sequentially (`pact-serve --listen`).  Every accepted stream gets
/// `TCP_NODELAY`: a response batch is one write, so Nagle's algorithm has
/// nothing to coalesce and would only hold a result back until the client
/// acknowledges the previous one.  A connection-level I/O error is reported
/// to stderr and the listener moves on; only an `accept` failure ends the
/// loop.
///
/// # Errors
///
/// Returns the first error from [`TcpListener::accept`].
pub fn serve_listener(service: &CountingService, listener: &TcpListener) -> io::Result<()> {
    loop {
        let (stream, peer) = listener.accept()?;
        if let Err(e) = serve_stream(service, &stream) {
            eprintln!("pact-serve: connection {peer}: {e}");
        }
        // Both halves dropped here close the socket and unblock the
        // connection's reader thread on the client side.
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

fn serve_stream(service: &CountingService, stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    serve_connection(service, stream.try_clone()?, stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;

    fn service() -> CountingService {
        CountingService::new(ServiceConfig {
            shards: 1,
            queue_capacity: 8,
        })
    }

    #[test]
    fn report_to_json_renders_a_golden_line() {
        // Every counter non-zero; the bytes are pinned (the wire line
        // carries the run-level counters only).
        let stats = pact::CountStats {
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
            portfolio: Some(pact::PortfolioStats {
                workers: 3,
                wins: [11, 12, 13, 0, 0, 0, 0, 0],
                cancelled: 7,
            }),
            cube: Some(pact::CubeStats {
                splits: 19,
                cubes_solved: 23,
                refuted_by_lookahead: 29,
                probe_cache_hits: 53,
            }),
            policy: Some(pact::PolicyStats {
                switches: 59,
                backend_checks: [61, 67, 71, 73],
                cube_depth_max: 6,
            }),
        };
        let report = ServiceReport {
            report: pact::CountReport {
                outcome: pact::CountOutcome::Exact(37),
                stats,
            },
            shard: Some(1),
            queue_seconds: 0.25,
            disposition: crate::Disposition::Completed,
            cost_estimate: 384,
        };
        assert_eq!(
            report_to_json(7, "count", &report),
            concat!(
                "{\"schema_version\": 9, \"kind\": \"count\", \"id\": 7, ",
                "\"disposition\": \"completed\", \"outcome\": \"exact\", \"estimate\": 37, ",
                "\"log2_estimate\": 5.20945336562895, \"oracle_calls\": 41, ",
                "\"cells_explored\": 17, \"iterations\": 3, \"terms_interned\": 43, ",
                "\"shard\": 1, \"queue_seconds\": 0.250000, \"cost_estimate\": 384, ",
                "\"wall_seconds\": 1.500000}"
            )
        );
    }

    #[test]
    fn scanner_tracks_lines_and_columns() {
        // Command split across lines; a comment and leading blanks before it.
        let input = "; header\n  (assert\n    (bvult x y))\n";
        match scan_item(input, 1, 1) {
            Scan::Command {
                start,
                end,
                line,
                column,
                next_line,
                ..
            } => {
                assert_eq!(&input[start..end], "(assert\n    (bvult x y))");
                assert_eq!((line, column), (2, 3));
                assert_eq!(next_line, 3);
            }
            _ => panic!("expected a complete command"),
        }
    }

    #[test]
    fn scanner_waits_for_balanced_parens() {
        match scan_item("(assert (bvult", 4, 1) {
            Scan::Incomplete {
                consumed,
                line,
                column,
            } => {
                assert_eq!(consumed, 0);
                assert_eq!((line, column), (4, 1));
            }
            _ => panic!("unbalanced command must stay buffered"),
        }
    }

    #[test]
    fn stray_atoms_are_reported_with_position() {
        let mut conn = WireConnection::new_for_scan_tests();
        let mut out = Vec::new();
        conn.feed("  garbage (reset)\n", &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("\"kind\": \"error\""));
        assert!(out[0].contains("\"line\": 1"));
        assert!(out[0].contains("\"column\": 3"));
    }

    #[test]
    fn options_parse_and_reject_with_positions() {
        let svc = service();
        let mut conn = WireConnection::new(&svc);
        let mut out = Vec::new();
        conn.feed(
            "(set-option :epsilon 0.8)\n(set-option :priority urgent)\n",
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(conn.options.epsilon, Some(0.8));
        assert_eq!(conn.options.priority, Priority::Urgent);
        conn.feed("(set-option :epsilon many)\n", &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("\"line\": 3"));
        assert!(out[0].contains("epsilon"));
        svc.shutdown();
    }

    #[test]
    fn json_strings_are_escaped() {
        let line = protocol_error(1, 1, "a \"quoted\"\nthing");
        assert!(line.contains("a \\\"quoted\\\"\\nthing"));
    }

    impl WireConnection<'static> {
        /// A connection with a leaked service, for scanner-only tests.
        fn new_for_scan_tests() -> Self {
            let svc: &'static CountingService = Box::leak(Box::new(service()));
            WireConnection::new(svc)
        }
    }
}
