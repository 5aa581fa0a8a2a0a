//! The TCP daemon: accept loop, pipelined per-connection handling,
//! shared job pool, admission control and graceful drain.
//!
//! Topology: one listener thread accepts connections; each connection
//! gets a reader thread that parses request lines and *enqueues* jobs
//! on the shared [`JobPool`] (so N connections never oversubscribe the
//! machine — the worker budget bounds concurrent flows) plus a writer
//! thread that emits responses **in request order** (each request
//! contributes one single-use result channel to an ordered pipeline).
//! A connection may therefore pipeline requests without waiting: its
//! jobs run concurrently up to the per-connection in-flight cap, and
//! different connections' jobs share the pool width.
//!
//! ## Admission control
//!
//! Load is shed *before* it queues: a job is rejected with a typed
//! `overloaded` error (carrying a `retry_after_ms` hint) when the
//! pool's pending depth reaches [`ServerConfig::max_pending`] or the
//! connection's in-flight count reaches
//! [`ServerConfig::max_inflight_per_conn`]. Request framing is bounded
//! too: a line longer than [`ServerConfig::max_line_bytes`] draws a
//! `bad-request` and closes the connection (the frame boundary is
//! lost), so a buggy client cannot balloon daemon memory through
//! an unbounded `read_line`.
//!
//! ## Graceful drain
//!
//! The `shutdown` op (or [`ServerHandle::shutdown`]) moves the daemon
//! `serving → draining`: new jobs are rejected with `shutting-down`,
//! while `ping`/`stats`/`health` keep answering and queued jobs keep
//! running. A drainer thread waits for the pool to empty, up to
//! [`ServerConfig::drain_deadline_ms`]; past the deadline it cancels
//! the server-wide drain token — every in-flight job observes it at
//! its next batch boundary and returns a typed `cancelled` error — and
//! then closes the listener (`draining → closed`).

use crate::faults::{FaultAction, FaultPlan};
use crate::json::Json;
use crate::pool::JobPool;
use crate::proto::{
    error_line, health_line, metrics_line, parse_request, run_job_with_cancel, stats_line,
    ProtoError, Request,
};
use crate::service::FlowService;
use occ_flow::CancelToken;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Port 0 picks a free port (tests); the default
    /// binds loopback only — this is a build service, not an internet
    /// daemon.
    pub addr: String,
    /// Job-pool worker threads.
    pub workers: usize,
    /// Artifact-cache byte budget (0 = unlimited).
    pub cache_budget: usize,
    /// Shed jobs once this many are pending (queued + running) across
    /// all connections (0 = unlimited).
    pub max_pending: usize,
    /// Shed jobs once one connection has this many in flight
    /// (0 = unlimited).
    pub max_inflight_per_conn: usize,
    /// Longest accepted request line in bytes; longer frames draw a
    /// `bad-request` and close the connection.
    pub max_line_bytes: usize,
    /// How long a drain waits for queued jobs before cancelling the
    /// stragglers.
    pub drain_deadline_ms: u64,
    /// Fault-injection plan (chaos tests / degraded-mode bench); the
    /// default injects nothing.
    pub faults: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:4805".to_owned(), // DATE 2005 ;-)
            workers: 2,
            cache_budget: 0,
            max_pending: 64,
            max_inflight_per_conn: 8,
            max_line_bytes: 64 * 1024,
            drain_deadline_ms: 5_000,
            faults: FaultPlan::none(),
        }
    }
}

// Daemon lifecycle states.
const SERVING: u8 = 0;
const DRAINING: u8 = 1;
const CLOSED: u8 = 2;

/// What the accept loop, every connection and the drainer share.
#[derive(Debug)]
struct Shared {
    service: FlowService,
    pool: JobPool,
    state: AtomicU8,
    /// Cancelled when the drain deadline expires; every job token is a
    /// child of this one.
    drain: CancelToken,
    addr: SocketAddr,
    max_pending: usize,
    max_inflight_per_conn: usize,
    max_line_bytes: usize,
    drain_deadline_ms: u64,
    faults: FaultPlan,
}

/// A running daemon: its bound address plus the shutdown controls.
#[derive(Debug)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Blocks until the accept loop exits on its own — i.e. until a
    /// client sends the `shutdown` op and the drain completes. The
    /// daemon binary's main loop.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Starts a graceful drain (idempotent) and blocks until it
    /// completes: queued jobs finish (or are cancelled at the drain
    /// deadline), then the listener closes.
    pub fn shutdown(&mut self) {
        trigger_drain(&self.shared);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds and spawns the daemon; returns immediately with its handle.
///
/// # Errors
///
/// Propagates the bind failure (address in use, permission).
pub fn serve(config: &ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        service: FlowService::with_faults(config.cache_budget, config.faults.clone()),
        pool: JobPool::new(config.workers),
        state: AtomicU8::new(SERVING),
        drain: CancelToken::new(),
        addr,
        max_pending: config.max_pending,
        max_inflight_per_conn: config.max_inflight_per_conn,
        max_line_bytes: config.max_line_bytes,
        drain_deadline_ms: config.drain_deadline_ms,
        faults: config.faults.clone(),
    });

    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("occ-accept".to_owned())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.state.load(Ordering::SeqCst) == CLOSED {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Replies are small lines; never hold one back waiting
                // for an ACK of the previous one.
                let _ = stream.set_nodelay(true);
                let conn_shared = Arc::clone(&accept_shared);
                // Connection threads are detached: they hold only Arcs
                // and exit on client EOF or close.
                let _ = std::thread::Builder::new()
                    .name("occ-conn".to_owned())
                    .spawn(move || handle_connection(stream, &conn_shared));
            }
            // Pool (and its workers) drop with the last Arc.
        })
        .expect("spawn accept thread");

    Ok(ServerHandle {
        shared,
        accept_thread: Some(accept_thread),
    })
}

/// Moves `serving → draining` (first caller wins) and spawns the
/// drainer that will eventually close the listener.
fn trigger_drain(shared: &Arc<Shared>) {
    if shared
        .state
        .compare_exchange(SERVING, DRAINING, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return; // already draining or closed
    }
    let s = Arc::clone(shared);
    let _ = std::thread::Builder::new()
        .name("occ-drain".to_owned())
        .spawn(move || {
            let poll = Duration::from_millis(2);
            let deadline = Instant::now() + Duration::from_millis(s.drain_deadline_ms);
            while s.pool.pending() > 0 && Instant::now() < deadline {
                std::thread::sleep(poll);
            }
            if s.pool.pending() > 0 {
                // Drain deadline expired: abandon the stragglers. Every
                // in-flight job's token is a child of this one, so each
                // returns a typed `cancelled` error at its next batch
                // boundary. A bounded grace keeps a wedged job from
                // hanging the drain forever.
                s.drain.cancel();
                let grace = Instant::now() + Duration::from_millis(s.drain_deadline_ms.max(100));
                while s.pool.pending() > 0 && Instant::now() < grace {
                    std::thread::sleep(poll);
                }
            }
            s.state.store(CLOSED, Ordering::SeqCst);
            // Poke the listener so accept() observes the state.
            let _ = TcpStream::connect(s.addr);
        });
}

/// One bounded request frame.
enum Frame {
    Line(String),
    /// The line exceeded the cap; the connection must close (its frame
    /// boundary is unknown).
    Oversized,
}

/// Reads one newline-terminated frame without ever buffering more than
/// `max` bytes of it.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    max: usize,
) -> std::io::Result<Option<Frame>> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            // EOF: a trailing unterminated line still parses.
            return Ok(if buf.is_empty() {
                None
            } else {
                Some(Frame::Line(String::from_utf8_lossy(&buf).into_owned()))
            });
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&available[..pos]);
            reader.consume(pos + 1);
            return Ok(Some(if buf.len() > max {
                Frame::Oversized
            } else {
                Frame::Line(String::from_utf8_lossy(&buf).into_owned())
            }));
        }
        let take = available.len();
        buf.extend_from_slice(available);
        reader.consume(take);
        if buf.len() > max {
            return Ok(Some(Frame::Oversized));
        }
    }
}

/// Pushes an already-rendered response into the ordered pipeline.
fn enqueue_ready(pipe: &mpsc::Sender<mpsc::Receiver<String>>, line: String) {
    let (tx, rx) = mpsc::channel();
    let _ = tx.send(line);
    let _ = pipe.send(rx);
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);

    // Ordered response pipeline: the reader pushes one single-use
    // receiver per request; the writer drains them in order, so
    // pipelined requests answer in request order even though their
    // jobs complete in any order.
    let (pipe_tx, pipe_rx) = mpsc::channel::<mpsc::Receiver<String>>();
    let writer_faults = shared.faults.clone();
    let writer = std::thread::Builder::new()
        .name("occ-conn-write".to_owned())
        .spawn(move || write_loop(stream, &pipe_rx, &writer_faults))
        .expect("spawn connection writer");

    // This connection's jobs in flight (queued or running).
    let inflight = Arc::new(AtomicUsize::new(0));

    // (Ok(None) = EOF, Err = transport error; both end the loop.)
    while let Ok(Some(frame)) = read_bounded_line(&mut reader, shared.max_line_bytes) {
        let line = match frame {
            Frame::Line(line) => line,
            Frame::Oversized => {
                if let Some(c) = occ_obs::metrics().request_error("bad-request") {
                    c.inc();
                }
                enqueue_ready(
                    &pipe_tx,
                    error_line(&ProtoError::new(
                        "bad-request",
                        format!(
                            "request line exceeds {} bytes; closing connection",
                            shared.max_line_bytes
                        ),
                    )),
                );
                break; // framing lost
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let received = Instant::now();
        match parse_request(&line) {
            Err(e) => {
                if let Some(c) = occ_obs::metrics().request_error(e.code) {
                    c.inc();
                }
                enqueue_ready(&pipe_tx, error_line(&e));
            }
            Ok(req) => {
                let op = op_label(&req);
                if let Some(c) = occ_obs::metrics().request(op) {
                    c.inc();
                }
                match req {
                    Request::Ping => {
                        enqueue_ready(&pipe_tx, r#"{"ok":true,"op":"ping"}"#.to_owned());
                        observe_latency(op, received);
                    }
                    Request::Stats => {
                        refresh_gauges(shared);
                        enqueue_ready(&pipe_tx, stats_line(&shared.service.cache_stats()));
                        observe_latency(op, received);
                    }
                    Request::Health => {
                        let state = match shared.state.load(Ordering::SeqCst) {
                            SERVING => "serving",
                            DRAINING => "draining",
                            _ => "closed",
                        };
                        enqueue_ready(
                            &pipe_tx,
                            health_line(state, shared.pool.pending(), shared.pool.threads()),
                        );
                        observe_latency(op, received);
                    }
                    Request::Metrics => {
                        refresh_gauges(shared);
                        enqueue_ready(&pipe_tx, metrics_line());
                        observe_latency(op, received);
                    }
                    Request::Shutdown => {
                        trigger_drain(shared);
                        enqueue_ready(&pipe_tx, r#"{"ok":true,"op":"shutdown"}"#.to_owned());
                        observe_latency(op, received);
                        // Earlier pipelined responses (queued jobs
                        // included) still flush in order before the
                        // writer hangs up — then the client observes
                        // EOF.
                        break;
                    }
                    Request::Job { spec, format } => match admit(shared, &inflight) {
                        Err(rejection) => enqueue_ready(&pipe_tx, rejection),
                        Ok(()) => {
                            let (tx, rx) = mpsc::channel::<String>();
                            let _ = pipe_tx.send(rx);
                            let job_shared = Arc::clone(shared);
                            let job_inflight = Arc::clone(&inflight);
                            shared.pool.submit(move || {
                                let line = run_pooled_job(&job_shared, &spec, format);
                                // Latency covers queue wait + run, as a
                                // client experiences it.
                                observe_latency(op, received);
                                job_inflight.fetch_sub(1, Ordering::SeqCst);
                                let _ = tx.send(line);
                            });
                        }
                    },
                }
            }
        }
    }
    // Hang up the pipeline; the writer flushes what is queued, then
    // exits (EOF on the client side).
    drop(pipe_tx);
    let _ = writer.join();
}

/// The registry label for a parsed request — matches [`occ_obs::OPS`].
fn op_label(req: &Request) -> &'static str {
    match req {
        Request::Ping => "ping",
        Request::Stats => "stats",
        Request::Health => "health",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
        Request::Job { spec, .. } => {
            if spec.analyze_only {
                "analyze"
            } else {
                "flow"
            }
        }
    }
}

/// Records one request's wall latency (receipt to response ready) in
/// the per-op histogram.
fn observe_latency(op: &str, received: Instant) {
    if let Some(h) = occ_obs::metrics().latency(op) {
        h.observe(received.elapsed().as_secs_f64());
    }
}

/// Refreshes the registry's gauges (cache footprint, queue depth) from
/// their live sources, so a scrape never reads stale values.
fn refresh_gauges(shared: &Shared) {
    let m = occ_obs::metrics();
    let stats = shared.service.cache_stats();
    m.cache_resident_bytes
        .set(i64::try_from(stats.bytes).unwrap_or(i64::MAX));
    m.cache_entries
        .set(i64::try_from(stats.entries).unwrap_or(i64::MAX));
    m.jobs_pending
        .set(i64::try_from(shared.pool.pending()).unwrap_or(i64::MAX));
}

/// Admission control for one job request. `Ok` reserves an in-flight
/// slot (released by the job closure); `Err` is the rendered rejection.
fn admit(shared: &Shared, inflight: &AtomicUsize) -> Result<(), String> {
    let m = occ_obs::metrics();
    if shared.state.load(Ordering::SeqCst) != SERVING {
        if let Some(c) = m.request_error("shutting-down") {
            c.inc();
        }
        return Err(error_line(&ProtoError::new(
            "shutting-down",
            "server is draining; no new jobs",
        )));
    }
    if shared.max_pending > 0 && shared.pool.pending() >= shared.max_pending {
        m.admission_shed[0].inc(); // reason="queue"
        if let Some(c) = m.request_error("overloaded") {
            c.inc();
        }
        return Err(error_line(&ProtoError::overloaded(
            format!("job queue is full ({} pending)", shared.pool.pending()),
            200,
        )));
    }
    if shared.max_inflight_per_conn > 0
        && inflight.load(Ordering::SeqCst) >= shared.max_inflight_per_conn
    {
        m.admission_shed[1].inc(); // reason="connection"
        if let Some(c) = m.request_error("overloaded") {
            c.inc();
        }
        return Err(error_line(&ProtoError::overloaded(
            format!(
                "connection already has {} jobs in flight",
                shared.max_inflight_per_conn
            ),
            100,
        )));
    }
    inflight.fetch_add(1, Ordering::SeqCst);
    Ok(())
}

/// Runs one job on a pool worker, converting a panic (the job's or an
/// injected one) into a typed `internal` error carrying the panic
/// message — the submitter always gets a response line.
fn run_pooled_job(
    shared: &Shared,
    spec: &crate::service::JobSpec,
    format: crate::proto::ReportFormat,
) -> String {
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(FaultAction::Panic(msg)) = shared.faults.fire("worker.job") {
            panic!("{msg}");
        }
        run_job_with_cancel(&shared.service, spec, format, Some(&shared.drain))
    }));
    match result {
        Ok(line) => line,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&'static str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("<non-string panic payload>");
            error_line(&ProtoError::new("internal", format!("job panicked: {msg}")))
        }
    }
}

/// Drains the ordered pipeline onto the socket. The `tcp.write`
/// injection site can tear or drop the connection per response.
fn write_loop(
    mut stream: TcpStream,
    pipe: &mpsc::Receiver<mpsc::Receiver<String>>,
    faults: &FaultPlan,
) {
    for rx in pipe {
        // The sender is only dropped without sending if the job closure
        // itself died outside its panic guard — answer something typed
        // rather than going silent.
        let mut line = rx.recv().unwrap_or_else(|_| {
            error_line(&ProtoError::new(
                "internal",
                "job worker dropped the result",
            ))
        });
        match faults.fire("tcp.write") {
            Some(FaultAction::DropConn) => {
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Some(FaultAction::TornWrite) => {
                let bytes = line.as_bytes();
                let _ = stream.write_all(&bytes[..bytes.len() / 2]);
                let _ = stream.flush();
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            _ => {}
        }
        // Line and newline in one write: a second small write would sit
        // behind Nagle's algorithm until the client's delayed ACK.
        line.push('\n');
        if stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.flush())
            .is_err()
        {
            return;
        }
    }
}

/// Client helper: sends one request line, reads one response line.
/// What `occ_client` and the tests use; real clients can speak the
/// protocol with nothing but a socket.
///
/// # Errors
///
/// Propagates connect/write/read failures; a closed-without-response
/// connection yields `UnexpectedEof`.
pub fn request(addr: SocketAddr, line: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    let n = reader.read_line(&mut response)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection without a response",
        ));
    }
    while response.ends_with('\n') || response.ends_with('\r') {
        response.pop();
    }
    Ok(response)
}

/// Client-side retry behaviour for [`request_with_retry`]: seeded
/// jittered exponential backoff, honouring the server's
/// `retry_after_ms` hint when an `overloaded` rejection carries one.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (at least 1).
    pub attempts: u32,
    /// Backoff base: attempt `k` waits about `base_ms << k`.
    pub base_ms: u64,
    /// Upper bound on any single backoff wait.
    pub cap_ms: u64,
    /// Jitter seed — same seed, same retry schedule (deterministic
    /// tests).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_ms: 50,
            cap_ms: 2_000,
            seed: 0x0CC,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry number `attempt` (0-based): exponential
    /// backoff capped at `cap_ms`, with the upper half jittered by the
    /// seeded stream.
    fn backoff_ms(&self, attempt: u32, rng: &mut u64) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.cap_ms.max(1));
        let mut x = *rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *rng = x;
        exp / 2 + x % (exp / 2 + 1)
    }
}

/// Whether `response` is a retryable rejection, and the server's
/// retry-after hint if it carried one. Only `overloaded` is retryable:
/// `shutting-down` means the daemon is going away, and every other
/// error is deterministic — retrying cannot change it.
fn retry_hint(response: &str) -> Option<Option<u64>> {
    let v = Json::parse(response).ok()?;
    if v.get("ok").and_then(Json::as_bool) != Some(false) {
        return None;
    }
    let error = v.get("error")?;
    if error.get("code").and_then(Json::as_str) != Some("overloaded") {
        return None;
    }
    Some(error.get("retry_after_ms").and_then(Json::as_u64))
}

/// [`request`] with retries: transport failures and `overloaded`
/// rejections back off (the server's `retry_after_ms` hint wins over
/// the policy's own schedule) and try again, up to
/// [`RetryPolicy::attempts`].
///
/// # Errors
///
/// The last transport error once attempts are exhausted. A response —
/// even a typed protocol error — is returned, not an `Err`; only
/// `overloaded` responses are retried.
pub fn request_with_retry(
    addr: SocketAddr,
    line: &str,
    policy: &RetryPolicy,
) -> std::io::Result<String> {
    let attempts = policy.attempts.max(1);
    let mut rng = policy.seed | 1;
    let mut last_err = None;
    for attempt in 0..attempts {
        match request(addr, line) {
            Ok(response) => match retry_hint(&response) {
                Some(hint) if attempt + 1 < attempts => {
                    let wait = hint.unwrap_or_else(|| policy.backoff_ms(attempt, &mut rng));
                    std::thread::sleep(Duration::from_millis(wait));
                }
                _ => return Ok(response),
            },
            Err(e) => {
                last_err = Some(e);
                if attempt + 1 < attempts {
                    let wait = policy.backoff_ms(attempt, &mut rng);
                    std::thread::sleep(Duration::from_millis(wait));
                }
            }
        }
    }
    Err(last_err.unwrap_or_else(|| std::io::Error::other("retries exhausted")))
}
