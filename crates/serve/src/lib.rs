//! # dhpf-serve — a long-running compile daemon with fleet-level cache reuse
//!
//! A build fleet recompiles the same HPF units over and over: a CI farm,
//! an autotuner sweeping distribution parameters, an IDE recompiling on
//! every save. Each cold `dhpf` invocation rebuilds the Omega memo tables
//! from nothing, so the set-algebra work that dominates compile time
//! (satisfiability, projection, gist) is repaid on every run. This crate
//! keeps one process alive instead: a thread-per-connection TCP daemon
//! holding a single sharded [`Context`] whose hash-consing arena and memo
//! tables persist across requests, each table bounded at a capacity (an
//! insert into a full table evicts an entry) so a week of traffic cannot
//! grow it without limit.
//!
//! The serving tier adds four things the batch driver does not have:
//!
//! 1. **Cache reuse** — every request compiles via
//!    [`process_request`](dhpf_core::process_request) on the shared
//!    context and reports `cache_hits_delta`, the hits gained during that
//!    request alone, plus a `warm` flag when the unit was seen before.
//! 2. **Request deduplication** — concurrent identical requests (same
//!    [`dedup_key`](proto::CompileJob::dedup_key)) coalesce: one leader
//!    compiles, followers block on a condvar and fan out the shared
//!    response with `coalesced: true`.
//! 3. **Per-request governance** — each request's `deadline_ms`/`op_fuel`
//!    become a [`RequestGovernor`](dhpf_omega::RequestGovernor) that the
//!    driver arms with that request only, so one client's expired
//!    deadline never trips a neighbour's compilation. `deadline_ms: 0` is
//!    rejected at admission with `E_BUDGET` before any work happens.
//! 4. **Observability** — a [`ServeMetrics`]
//!    registry counts every request, error, coalesce role, degradation,
//!    and governor trip, and samples warm/cold request latencies into
//!    histograms; scrape it with the `metrics` op, the one read-out of
//!    server-wide state (a compile reply says only what that request
//!    did). A structured JSON-lines access log
//!    ([`ServeConfig::access_log`]) records one line per request, and a
//!    slow-request sampler ([`ServeConfig::trace_slow_ms`]) embeds the
//!    span tree of any compilation at or over the threshold.
//!
//! See [`proto`] for the JSON-lines wire format.

#![warn(missing_docs)]

pub mod metrics;
pub mod proto;

use dhpf_core::{CompileResponse, WireError};
use dhpf_obs::json::Obj;
use dhpf_omega::{Context, ErrorCode};
use metrics::ServeMetrics;
use proto::{render_error, render_response, CompileJob, Request, ServeMeta};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Daemon configuration beyond the bind address (see
/// [`Server::bind_with`]).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Memo entries per table; an insert beyond it evicts one.
    pub cache_cap: usize,
    /// Append one structured JSON line per request to this file
    /// (schema: `dhpf_obs::export::validate_access_log`).
    pub access_log: Option<PathBuf>,
    /// Capture a span tree for every compilation and embed it in the
    /// access-log record of any request whose compile time is at or over
    /// this many milliseconds (`Some(0)` traces everything).
    pub trace_slow_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_cap: dhpf_omega::DEFAULT_CACHE_CAP,
            access_log: None,
            trace_slow_ms: None,
        }
    }
}

/// One in-flight compilation that duplicates can latch onto.
struct InFlight {
    slot: Mutex<Option<Arc<CompileResponse>>>,
    done: Condvar,
}

impl InFlight {
    fn new() -> Self {
        InFlight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn publish(&self, resp: Arc<CompileResponse>) {
        *self.slot.lock().unwrap() = Some(resp);
        self.done.notify_all();
    }

    fn wait(&self) -> Arc<CompileResponse> {
        let mut slot = self.slot.lock().unwrap();
        loop {
            if let Some(resp) = slot.as_ref() {
                return Arc::clone(resp);
            }
            slot = self.done.wait(slot).unwrap();
        }
    }
}

/// Shared server state: the persistent compile context plus the dedup and
/// warm-tracking maps around it.
struct State {
    ctx: Context,
    /// Leader election table: dedup key → the compilation to latch onto.
    inflight: Mutex<HashMap<u64, Arc<InFlight>>>,
    /// Units compiled at least once (warm-cache detection).
    completed: Mutex<HashSet<u64>>,
    shutdown: AtomicBool,
    started: Instant,
    metrics: ServeMetrics,
    access_log: Option<Mutex<std::fs::File>>,
    trace_slow_ms: Option<u64>,
}

impl State {
    /// Appends one record to the access log (with per-line flush, so a
    /// tail-reader and the validator always see whole lines). When no log
    /// file is configured, records carrying a slow-sampled trace fall
    /// back to stderr — a slow-request trace is exactly the thing an
    /// operator without an access log still wants to see.
    fn log_access(&self, record: &str, has_slow_trace: bool) {
        match &self.access_log {
            Some(file) => {
                let mut f = file.lock().unwrap();
                let _ = f
                    .write_all(record.as_bytes())
                    .and_then(|()| f.write_all(b"\n"))
                    .and_then(|()| f.flush());
            }
            None if has_slow_trace => eprintln!("{record}"),
            None => {}
        }
    }
}

/// Milliseconds since the Unix epoch (the `ts_ms` access-log field).
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Microseconds of one request's wall time, saturating.
fn elapsed_us(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The compile daemon: owns the listener and the shared [`Context`].
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

/// A handle that can stop a running [`Server::serve`] loop from another
/// thread (used by tests and the `shutdown` op).
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<State>,
    addr: std::net::SocketAddr,
}

impl ShutdownHandle {
    /// Requests shutdown and pokes the acceptor awake.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(2); a throwaway connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Binds the daemon to `addr` (use port 0 for an ephemeral port) with
    /// a fresh context holding at most `cache_cap` memo entries per table.
    pub fn bind(addr: impl ToSocketAddrs, cache_cap: usize) -> std::io::Result<Server> {
        Server::bind_with(
            addr,
            &ServeConfig {
                cache_cap,
                ..ServeConfig::default()
            },
        )
    }

    /// Binds the daemon with full [`ServeConfig`] control: cache
    /// capacity, access log, and slow-trace sampling.
    pub fn bind_with(addr: impl ToSocketAddrs, config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let access_log = match &config.access_log {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };
        Ok(Server {
            listener,
            state: Arc::new(State {
                ctx: Context::with_capacity(config.cache_cap),
                inflight: Mutex::new(HashMap::new()),
                completed: Mutex::new(HashSet::new()),
                shutdown: AtomicBool::new(false),
                started: Instant::now(),
                metrics: ServeMetrics::new(),
                access_log,
                trace_slow_ms: config.trace_slow_ms,
            }),
        })
    }

    /// The bound address (port resolved when binding to port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops the serve loop from another thread.
    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            state: Arc::clone(&self.state),
            addr: self.local_addr()?,
        })
    }

    /// Accepts connections until shutdown, one handler thread per
    /// connection. Returns once the shutdown flag is observed.
    pub fn serve(&self) -> std::io::Result<()> {
        let mut handlers = Vec::new();
        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            let state = Arc::clone(&self.state);
            handlers.push(std::thread::spawn(move || {
                handle_connection(stream, &state)
            }));
            // Reap finished handlers so a long-lived daemon does not
            // accumulate join handles.
            handlers.retain(|h| !h.is_finished());
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Writes `line` and its terminating newline as one `write`. Sent apart,
/// the newline of a line that overflows a buffered writer becomes a TCP
/// segment of its own, which Nagle's algorithm holds back until the peer's
/// delayed ACK of the first — some 40 ms on every large reply.
fn write_line(w: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

fn handle_connection(stream: TcpStream, state: &Arc<State>) {
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let (reply, stop) = dispatch(&line, state);
        if write_line(&mut writer, reply).is_err() {
            break;
        }
        if stop {
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the acceptor (see ShutdownHandle::shutdown).
            if let Ok(addr) = writer.local_addr() {
                let _ = TcpStream::connect(addr);
            }
            break;
        }
    }
}

/// Handles one request line; returns the response line and whether this
/// request asked the server to shut down.
fn dispatch(line: &str, state: &Arc<State>) -> (String, bool) {
    let t0 = Instant::now();
    let parsed = proto::parse_request(line);
    let op = match &parsed {
        Err(_) => "invalid",
        Ok(Request::Ping { .. }) => "ping",
        Ok(Request::Metrics { .. }) => "metrics",
        Ok(Request::Shutdown { .. }) => "shutdown",
        Ok(Request::Compile(_)) => "compile",
    };
    state.metrics.record_request(op);
    match parsed {
        Err((id, err)) => {
            state.metrics.record_error(err.code);
            log_op_access(state, &id, op, err.code.as_str(), t0);
            (render_error(&id, &err), false)
        }
        Ok(Request::Ping { id }) => {
            log_op_access(state, &id, op, "ok", t0);
            (
                Obj::new()
                    .str("id", &id)
                    .bool("ok", true)
                    .bool("pong", true)
                    .finish(),
                false,
            )
        }
        Ok(Request::Metrics { id }) => {
            state
                .metrics
                .update_context_gauges(&state.ctx, state.started);
            let reply = proto::render_metrics_json(&id, &state.metrics.snapshot());
            log_op_access(state, &id, op, "ok", t0);
            (reply, false)
        }
        Ok(Request::Shutdown { id }) => {
            log_op_access(state, &id, op, "ok", t0);
            (
                Obj::new()
                    .str("id", &id)
                    .bool("ok", true)
                    .bool("shutting_down", true)
                    .finish(),
                true,
            )
        }
        Ok(Request::Compile(job)) => (handle_compile(&job, state, t0), false),
    }
}

/// One access-log record for a non-compile op.
fn log_op_access(state: &Arc<State>, id: &str, op: &str, outcome: &str, t0: Instant) {
    if state.access_log.is_none() {
        return;
    }
    let record = Obj::new()
        .u64("ts_ms", now_ms())
        .str("id", id)
        .str("op", op)
        .str("outcome", outcome)
        .u64("duration_us", elapsed_us(t0))
        .finish();
    state.log_access(&record, false);
}

fn handle_compile(job: &CompileJob, state: &Arc<State>, t0: Instant) -> String {
    // Admission control: a zero deadline can never finish; reject it with
    // the same typed code a mid-flight expiry produces, before any set
    // algebra runs or an in-flight slot is claimed.
    if job.deadline_ms == Some(0) {
        let err = WireError {
            code: ErrorCode::Budget,
            message: "deadline expired on arrival (deadline_ms = 0)".to_string(),
        };
        state.metrics.record_error(err.code);
        log_compile_access(state, job, "E_BUDGET", t0, false, false, None);
        return render_error(&job.id, &err);
    }

    let key = job.dedup_key();
    let warm_key = job.warm_key();
    let warm = state.completed.lock().unwrap().contains(&warm_key);

    // Leader election: first arrival for a key inserts the in-flight slot
    // and compiles; everyone else latches onto it.
    let (flight, leader) = {
        let mut inflight = state.inflight.lock().unwrap();
        match inflight.get(&key) {
            Some(f) => (Arc::clone(f), false),
            None => {
                let f = Arc::new(InFlight::new());
                inflight.insert(key, Arc::clone(&f));
                (f, true)
            }
        }
    };

    let (resp, coalesced) = if leader {
        state.metrics.inflight_delta(1);
        let mut req = job.to_request();
        // With slow-trace sampling on, every compilation is traced —
        // which request will be slow is only known afterwards. Tracing is
        // non-perturbing (the program is identical with or without it),
        // and the trace reaches the client only when asked for.
        if state.trace_slow_ms.is_some() {
            req.artifacts.trace = true;
        }
        let resp = Arc::new(dhpf_core::process_request(&state.ctx, &req));
        state.metrics.inflight_delta(-1);
        flight.publish(Arc::clone(&resp));
        // Followers holding the Arc still see the published slot after
        // this removal; new arrivals start a fresh compilation.
        state.inflight.lock().unwrap().remove(&key);
        if resp.error.is_none() {
            state.completed.lock().unwrap().insert(warm_key);
        }
        (resp, false)
    } else {
        (flight.wait(), true)
    };

    state
        .metrics
        .record_compile(&resp, warm, coalesced, elapsed_us(t0));
    if job.want_trace {
        state.metrics.record_trace("requested");
    }
    // Slow-request sampling: the leader (who paid the compile time) logs
    // the span tree; followers shared that compilation, so re-logging the
    // identical trace would only bloat the log.
    let slow = !coalesced && state.trace_slow_ms.is_some_and(|ms| resp.compile_ms >= ms);
    let slow_trace = if slow {
        state.metrics.record_trace("slow");
        resp.trace.as_deref()
    } else {
        None
    };
    let outcome = match &resp.error {
        None => "ok".to_string(),
        Some(e) => e.code.as_str().to_string(),
    };
    log_compile_access(state, job, &outcome, t0, warm, coalesced, slow_trace);

    let meta = ServeMeta {
        warm,
        coalesced,
        trace: job.want_trace,
    };
    render_response(&job.id, &resp, &meta)
}

/// One access-log record for a compile request, optionally carrying the
/// slow-sampled span tree.
fn log_compile_access(
    state: &Arc<State>,
    job: &CompileJob,
    outcome: &str,
    t0: Instant,
    warm: bool,
    coalesced: bool,
    slow_trace: Option<&str>,
) {
    if state.access_log.is_none() && slow_trace.is_none() {
        return;
    }
    let mut record = Obj::new()
        .u64("ts_ms", now_ms())
        .str("id", &job.id)
        .str("op", "compile")
        .str("outcome", outcome)
        .u64("duration_us", elapsed_us(t0))
        .bool("warm", warm)
        .bool("coalesced", coalesced);
    if let Some(trace) = slow_trace {
        record = record.raw("trace", trace);
    }
    state.log_access(&record.finish(), slow_trace.is_some());
}

/// Connects to a running daemon, sends each line of `requests`, and
/// returns the response lines in order (the `--send` client mode and the
/// CI smoke test both use this).
pub fn send_lines(addr: impl ToSocketAddrs, requests: &[String]) -> std::io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut replies = Vec::with_capacity(requests.len());
    for req in requests {
        write_line(&mut writer, req.clone())?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        replies.push(line.trim_end().to_string());
    }
    Ok(replies)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts every byte offered and counts the `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_large_reply_and_its_newline_are_one_write() {
        let reply = "x".repeat(20 * 1024);
        let mut w = CountingWriter::default();
        write_line(&mut w, reply.clone()).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes.len(), reply.len() + 1);
        assert_eq!(w.bytes.last(), Some(&b'\n'));
    }
}
