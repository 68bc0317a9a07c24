//! The `contango serve` daemon: clock synthesis as a long-running service.
//!
//! The server runs requests through the campaign job pool
//! ([`crate::runner`]): each worker holds one warm [`EngineSession`] for
//! its whole lifetime — evaluator caches and construction arenas persist
//! across requests, and the job runner retargets the session only when a
//! request changes technology or delay model. Requests arrive over TCP as
//! NDJSON frames ([`crate::protocol`]), each carrying a manifest
//! ([`crate::manifest`]); a request's jobs run serially inside one
//! worker's session, which is exactly a single-threaded
//! [`Campaign`](crate::runner::Campaign) — so responses are bit-identical
//! to offline runs for any pool size.
//!
//! ```text
//!            ┌────────────┐   accept    ┌──────────────┐  1 thread/conn
//!  clients ──► TcpListener├────────────►│ reader threads│  decode, compile,
//!            └────────────┘             └──────┬───────┘  answer errors
//!                                              │ push (bounded)
//!                                     ┌────────▼────────┐
//!                                     │ the pool's FIFO │  full → Overloaded
//!                                     └────────┬────────┘
//!                                              │ pop
//!                      ┌───────────────────────┼───────────────────────┐
//!                ┌─────▼─────┐           ┌─────▼─────┐           ┌─────▼─────┐
//!                │ worker 0  │           │ worker 1  │    ...    │ worker N-1│
//!                │ 1 session │           │ 1 session │           │ 1 session │
//!                └─────┬─────┘           └─────┬─────┘           └─────┬─────┘
//!                      └── responses written back per connection ──────┘
//! ```
//!
//! Backpressure: the queue is bounded ([`ServeConfig::queue_capacity`]);
//! when it is full a `run` request is answered immediately with a typed
//! `overloaded` error instead of being buffered without bound — every
//! request gets exactly one response, nothing is silently dropped.
//!
//! Shutdown: a `shutdown` request closes the queue. The acceptor stops
//! taking connections, readers stop accepting new work (`shutting-down`
//! errors), and the pool drains the queue — every job already accepted
//! still runs and answers — before [`Server::run`] returns the summary.

use crate::manifest::Manifest;
use crate::output::{suite_output, ReportKind, TableFormat};
use crate::protocol::{
    read_line, write_line, Request, RequestBody, RequestId, Response, ServerError,
};
use crate::runner::{run_job, run_pool, CampaignResult, JobQueue, MemoryProfile, Refused};
use crate::Job;
use contango_core::construct::ParallelConfig;
use contango_core::session::EngineSession;
use contango_sim::{CacheCounters, CacheStore, StoreError};
use std::fmt;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long blocking reads sleep before re-checking whether the queue
/// closed.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long the nonblocking acceptor sleeps when no connection is pending.
const ACCEPT_INTERVAL: Duration = Duration::from_millis(2);

/// Bounded number of TCP connect attempts the client makes before a
/// refused/reset connection error is surfaced to the caller.
const CONNECT_ATTEMPTS: u32 = 5;

/// Client backoff before the second connect attempt; doubles after every
/// failed retry (20, 40, 80, 160 ms across [`CONNECT_ATTEMPTS`]).
const CONNECT_BACKOFF: Duration = Duration::from_millis(20);

/// How many times a convenience-call round trip is resent on a fresh
/// connection after the transport drops mid-request.
const REQUEST_RETRIES: u32 = 2;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to listen on. Port 0 picks a free port (read it back with
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker-pool width (0 = one worker per available core).
    pub workers: usize,
    /// Bound on queued (accepted but not yet running) requests; a full
    /// queue answers `overloaded`. Capacity 0 rejects every `run` request —
    /// useful to test client backoff.
    pub queue_capacity: usize,
    /// Allow `instance file:PATH` manifest sources to read the server's
    /// filesystem. Off by default: remote clients should not name server
    /// paths (the same gate covers manifest `cache-dir` keys).
    pub allow_file_instances: bool,
    /// Directory of a persistent content-addressed cache store shared by
    /// every worker session across all requests; `None` serves cold.
    pub cache_dir: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            allow_file_instances: false,
            cache_dir: None,
        }
    }
}

/// What the server did over its lifetime, returned by [`Server::run`].
///
/// Every `run` request is accounted exactly once:
/// `completed + rejected` covers all accepted-or-refused run requests, and
/// `errors` counts frames answered with any other typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// `run` requests accepted into the queue (all of them completed —
    /// shutdown drains the queue).
    pub accepted: u64,
    /// `run` requests completed and answered with `status:"ok"`.
    pub completed: u64,
    /// `run` requests refused with an `overloaded` error.
    pub rejected: u64,
    /// Frames answered with any other typed error (malformed, invalid,
    /// manifest, shutting-down).
    pub errors: u64,
    /// Jobs executed across all completed requests.
    pub jobs_run: u64,
}

struct WorkItem {
    id: RequestId,
    jobs: Vec<Job>,
    report: ReportKind,
    format: TableFormat,
    /// Store from the request's own manifest `cache-dir`, when present;
    /// overrides the daemon-level store for this request.
    store: Option<Arc<CacheStore>>,
    conn: Arc<Mutex<TcpStream>>,
}

struct Shared {
    /// The pool's queue; `shutdown` closes it.
    queue: JobQueue<WorkItem>,
    queue_capacity: usize,
    workers: usize,
    allow_file_instances: bool,
    /// Daemon-level persistent store ([`ServeConfig::cache_dir`]), shared
    /// by every worker session across all requests.
    store: Option<Arc<CacheStore>>,
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    jobs_run: AtomicU64,
}

/// Writes one response frame to a connection. Write errors are swallowed:
/// the client is gone, and the request was already accounted.
fn write_response(conn: &Mutex<TcpStream>, response: &Response) {
    let _ = write_line(
        &mut *conn.lock().expect("connection writer lock"),
        response.encode(),
    );
}

/// The `contango serve` daemon. Bind, then [`Server::run`] until a
/// `shutdown` request arrives.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    local_addr: SocketAddr,
}

impl Server {
    /// Binds the listening socket (but accepts nothing until
    /// [`Server::run`]).
    ///
    /// # Errors
    ///
    /// Propagates socket errors (address in use, permission, …).
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            listener,
            config,
            local_addr,
        })
    }

    /// The bound address — useful with port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The resolved worker-pool width.
    pub fn workers(&self) -> usize {
        ParallelConfig::with_threads(self.config.workers).resolved()
    }

    /// Serves until a `shutdown` request arrives, then drains the queue,
    /// joins the pool and reports the lifetime summary.
    ///
    /// # Errors
    ///
    /// Propagates fatal accept-loop I/O errors. Per-connection and
    /// per-request failures never abort the server; they are answered with
    /// typed error frames.
    pub fn run(self) -> io::Result<ServeSummary> {
        let workers = self.workers();
        let store = match &self.config.cache_dir {
            None => None,
            Some(dir) => Some(Arc::new(CacheStore::open(dir).map_err(|e| match e {
                StoreError::Io { path, message } => io::Error::other(format!(
                    "cannot open cache store `{}`: {message}",
                    path.display()
                )),
            })?)),
        };
        let shared = Shared {
            queue: JobQueue::new(self.config.queue_capacity),
            queue_capacity: self.config.queue_capacity,
            workers,
            allow_file_instances: self.config.allow_file_instances,
            store,
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            jobs_run: AtomicU64::new(0),
        };
        let (listener, shared) = (&self.listener, &shared);
        std::thread::scope(|scope| {
            let acceptor = scope.spawn(move || {
                while !shared.queue.is_closed() {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            scope.spawn(move || connection_loop(stream, shared));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_INTERVAL);
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => {
                            // Fatal listener failure: stop the pool too.
                            shared.queue.close();
                            return Err(e);
                        }
                    }
                }
                Ok(())
            });
            // Returns once `shutdown` closed the queue and the pool drained
            // it; readers exit within a poll interval (their reads time out).
            run_pool(workers, &shared.queue, |item, session| {
                run_item(shared, item, session);
            });
            acceptor.join().expect("accept loop")
        })?;
        Ok(ServeSummary {
            accepted: shared.accepted.load(Ordering::SeqCst),
            completed: shared.completed.load(Ordering::SeqCst),
            rejected: shared.rejected.load(Ordering::SeqCst),
            errors: shared.errors.load(Ordering::SeqCst),
            jobs_run: shared.jobs_run.load(Ordering::SeqCst),
        })
    }
}

/// Runs one accepted request's jobs serially in the worker's session
/// (exactly a single-threaded [`Campaign`](crate::runner::Campaign), hence
/// bit-identical to offline runs) and writes the response to the
/// request's connection.
fn run_item(shared: &Shared, item: WorkItem, session: &mut Option<EngineSession>) {
    // A request's own manifest store wins; otherwise the daemon store.
    let store = item.store.as_ref().or(shared.store.as_ref());
    let records = item
        .jobs
        .iter()
        .map(|job| run_job(job, session, store))
        .collect::<Vec<_>>();
    let failed = records.iter().filter(|r| r.outcome.is_err()).count();
    let cache = store.map(|_| {
        let mut total = CacheCounters::default();
        for record in &records {
            total.absorb(record.cache.unwrap_or_default());
        }
        total
    });
    let result = CampaignResult {
        records,
        threads: 1,
        memory: MemoryProfile::capture(
            session
                .as_ref()
                .map_or(0, |s| s.arena_watermark().total_bytes()),
        ),
    };
    let response = Response::RunOk {
        id: item.id,
        jobs: item.jobs.len(),
        failed,
        output: suite_output(&result, item.report, item.format),
        cache,
    };
    write_response(&item.conn, &response);
    shared
        .jobs_run
        .fetch_add(item.jobs.len() as u64, Ordering::SeqCst);
    shared.completed.fetch_add(1, Ordering::SeqCst);
}

/// One connection: reads NDJSON frames until EOF or shutdown, answering
/// `ping`/`shutdown`/errors inline and enqueueing `run` requests. Blank
/// lines are ignored (NDJSON convention); every other frame gets exactly
/// one response, though pipelined `run` responses may arrive out of
/// submission order — match them by id.
fn connection_loop(stream: TcpStream, shared: &Shared) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
        || stream.set_nonblocking(false).is_err()
    {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Mutex::new(write_half));
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => {
                // EOF; a final unterminated frame is still a frame.
                if !line.iter().all(u8::is_ascii_whitespace) {
                    handle_frame(&line, &conn, shared);
                }
                return;
            }
            Ok(_) => {
                if line.ends_with(b"\n") {
                    if !line.iter().all(u8::is_ascii_whitespace) {
                        handle_frame(&line, &conn, shared);
                    }
                    line.clear();
                }
                // No trailing newline means EOF mid-frame; the next read
                // returns Ok(0) and flushes it.
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Keep any partial frame in `line` and retry, unless the
                // server is draining.
                if shared.queue.is_closed() {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Decodes and dispatches one frame, writing the immediate response (for
/// everything except an accepted `run`, which the worker answers).
fn handle_frame(raw: &[u8], conn: &Arc<Mutex<TcpStream>>, shared: &Shared) {
    // Non-UTF-8 bytes survive into the text lossily and then fail JSON
    // decoding with a typed error; nothing on the wire can panic us.
    let text = String::from_utf8_lossy(raw);
    let text = text.trim_end_matches(['\n', '\r']);
    let request = match Request::decode(text) {
        Ok(request) => request,
        Err(failure) => {
            shared.errors.fetch_add(1, Ordering::SeqCst);
            write_response(conn, &Response::error(failure.id, &failure.error));
            return;
        }
    };
    let refuse = |error: ServerError| {
        let counter = if matches!(error, ServerError::Overloaded { .. }) {
            &shared.rejected
        } else {
            &shared.errors
        };
        counter.fetch_add(1, Ordering::SeqCst);
        write_response(conn, &Response::error(Some(request.id.clone()), &error));
    };
    match &request.body {
        RequestBody::Ping => {
            write_response(
                conn,
                &Response::Pong {
                    id: request.id.clone(),
                    workers: shared.workers,
                    queue_capacity: shared.queue_capacity,
                },
            );
        }
        RequestBody::Shutdown => {
            shared.queue.close();
            write_response(
                conn,
                &Response::ShutdownAck {
                    id: request.id.clone(),
                },
            );
        }
        RequestBody::Run {
            manifest,
            report,
            format,
        } => {
            if shared.queue.is_closed() {
                refuse(ServerError::ShuttingDown);
                return;
            }
            let campaign =
                Manifest::parse(manifest).and_then(|m| m.compile_with(shared.allow_file_instances));
            let campaign = match campaign {
                Ok(campaign) => campaign,
                Err(e) => {
                    refuse(ServerError::Manifest(e));
                    return;
                }
            };
            let item = WorkItem {
                id: request.id.clone(),
                jobs: campaign.jobs().to_vec(),
                report: *report,
                format: *format,
                store: campaign.cache().cloned(),
                conn: Arc::clone(conn),
            };
            match shared.queue.push(item) {
                Ok(()) => {
                    shared.accepted.fetch_add(1, Ordering::SeqCst);
                }
                Err(Refused::Full) => refuse(ServerError::Overloaded {
                    capacity: shared.queue_capacity,
                }),
                Err(Refused::Closed) => refuse(ServerError::ShuttingDown),
            }
        }
    }
}

/// A client-side failure talking to the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// A socket failure.
    Io(io::Error),
    /// The server closed the connection before responding.
    Closed,
    /// The server sent a frame that does not decode as a response.
    Protocol(ServerError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Protocol(e) => write!(f, "bad response frame: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Client-side retry counters, surfaced by [`Client::stats`].
///
/// A daemon restart or a dropped connection shows up here instead of as a
/// hard error: the client backs off and reconnects a bounded number of
/// times before giving up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Connect attempts beyond the first, summed over every connection
    /// this client established (initial connect and reconnects alike).
    pub connect_retries: u64,
    /// Convenience-call round trips that were resent on a fresh connection
    /// after the server dropped the transport mid-request.
    pub request_retries: u64,
}

/// Connects with bounded backoff: `ConnectionRefused`/`ConnectionReset`
/// (the daemon is restarting, or its listen backlog overflowed) retries up
/// to [`CONNECT_ATTEMPTS`] times with a doubling delay; any other failure
/// is immediate. `retries` accumulates attempts beyond the first.
fn connect_with_backoff(addrs: &[SocketAddr], retries: &mut u64) -> io::Result<TcpStream> {
    let mut backoff = CONNECT_BACKOFF;
    let mut attempt = 0;
    loop {
        attempt += 1;
        match TcpStream::connect(addrs) {
            Ok(stream) => return Ok(stream),
            Err(e)
                if attempt < CONNECT_ATTEMPTS
                    && matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionRefused | io::ErrorKind::ConnectionReset
                    ) =>
            {
                *retries += 1;
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Did this failure kill the transport (as opposed to the request)? Only
/// these are worth a reconnect-and-resend; a typed protocol error would
/// fail identically on a fresh connection.
fn transport_dropped(error: &ClientError) -> bool {
    match error {
        ClientError::Closed => true,
        ClientError::Io(e) => matches!(
            e.kind(),
            io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::UnexpectedEof
        ),
        ClientError::Protocol(_) => false,
    }
}

/// A blocking NDJSON client for the daemon. One request in flight per call
/// with the convenience methods; use [`Client::send`]/[`Client::recv`]
/// directly to pipeline (responses carry ids for matching).
///
/// The convenience methods ride out transient transport failures: a
/// refused or reset connect backs off and retries a bounded number of
/// times, and a connection dropped mid-request is re-established and the
/// request resent (at most twice) instead of failing
/// the call. [`Client::stats`] reports how often either happened. Raw
/// [`Client::send`]/[`Client::recv`] never retry — a pipelining caller
/// owns its own in-flight accounting.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Resolved once at [`Client::connect`] so reconnects cannot flap
    /// between DNS answers.
    addrs: Vec<SocketAddr>,
    next_id: u64,
    connect_retries: u64,
    request_retries: u64,
}

impl Client {
    /// Connects to a running daemon, retrying with bounded backoff while
    /// the connection is refused or reset (a daemon still binding its
    /// socket, or restarting).
    ///
    /// # Errors
    ///
    /// Propagates connection failures once the retry budget is spent, and
    /// address-resolution failures immediately.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut connect_retries = 0;
        let stream = connect_with_backoff(&addrs, &mut connect_retries)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            addrs,
            next_id: 0,
            connect_retries,
            request_retries: 0,
        })
    }

    /// Retry counters accumulated over this client's lifetime.
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            connect_retries: self.connect_retries,
            request_retries: self.request_retries,
        }
    }

    /// Replaces the transport with a fresh connection to the original
    /// address (with the same bounded connect backoff).
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = connect_with_backoff(&self.addrs, &mut self.connect_retries)?;
        self.writer = stream.try_clone()?;
        self.reader = BufReader::new(stream);
        Ok(())
    }

    /// One request, one response — resent on a fresh connection when the
    /// transport drops mid-flight. The id is fixed before the first send,
    /// so a resend is byte-identical and the response still matches.
    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut resends = 0;
        loop {
            match self.send(request).and_then(|()| self.recv()) {
                Ok(response) => return Ok(response),
                Err(e) if resends < REQUEST_RETRIES && transport_dropped(&e) => {
                    resends += 1;
                    self.request_retries += 1;
                    self.reconnect()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The next auto-assigned request id.
    pub fn fresh_id(&mut self) -> RequestId {
        self.next_id += 1;
        RequestId::Number(self.next_id)
    }

    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        Ok(write_line(&mut self.writer, request.encode())?)
    }

    /// Receives one response frame (blocking).
    ///
    /// # Errors
    ///
    /// [`ClientError::Closed`] on EOF or a torn final frame,
    /// [`ClientError::Protocol`] on an undecodable frame.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let line = read_line(&mut self.reader)?.ok_or(ClientError::Closed)?;
        Response::decode(&line).map_err(ClientError::Protocol)
    }

    /// Runs a manifest on the server and returns the response (either
    /// `RunOk` or a typed `Error` frame), reconnecting and resending if
    /// the transport drops mid-request.
    ///
    /// # Errors
    ///
    /// Transport failures only (after the retry budget is spent);
    /// server-side request failures come back as [`Response::Error`].
    pub fn run_manifest(
        &mut self,
        manifest: &str,
        report: ReportKind,
        format: TableFormat,
    ) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        self.roundtrip(&Request {
            id,
            body: RequestBody::Run {
                manifest: manifest.to_string(),
                report,
                format,
            },
        })
    }

    /// Pings the server.
    ///
    /// # Errors
    ///
    /// Transport failures only (after the retry budget is spent).
    pub fn ping(&mut self) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        self.roundtrip(&Request {
            id,
            body: RequestBody::Ping,
        })
    }

    /// Asks the server to drain and stop.
    ///
    /// # Errors
    ///
    /// Transport failures only (after the retry budget is spent).
    pub fn shutdown(&mut self) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        self.roundtrip(&Request {
            id,
            body: RequestBody::Shutdown,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    /// Starts a server on a free port and returns its address plus the
    /// thread that will yield the summary after shutdown.
    fn start(config: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<ServeSummary>) {
        let server = Server::bind(config).expect("bind");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        (addr, handle)
    }

    const TINY: &str = "instance ti:6\nprofile fast\nmodel elmore\n";

    #[test]
    fn ping_run_and_shutdown_round_trip() {
        let (addr, handle) = start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let mut client = Client::connect(addr).expect("connect");
        let pong = client.ping().expect("ping");
        assert!(
            matches!(
                pong,
                Response::Pong {
                    workers: 2,
                    queue_capacity: 64,
                    ..
                }
            ),
            "{pong:?}"
        );

        let offline = Manifest::parse(TINY)
            .expect("manifest")
            .compile()
            .expect("compile")
            .run();
        let expected = suite_output(&offline, ReportKind::Jsonl, TableFormat::Text);
        let response = client
            .run_manifest(TINY, ReportKind::Jsonl, TableFormat::Text)
            .expect("run");
        match response {
            Response::RunOk {
                jobs,
                failed,
                output,
                ..
            } => {
                assert_eq!(jobs, 1);
                assert_eq!(failed, 0);
                assert_eq!(output, expected, "served output differs from offline");
            }
            other => panic!("unexpected response {other:?}"),
        }

        let ack = client.shutdown().expect("shutdown");
        assert!(matches!(ack, Response::ShutdownAck { .. }), "{ack:?}");
        let summary = handle.join().expect("server thread");
        assert_eq!(summary.accepted, 1);
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.rejected, 0);
    }

    #[test]
    fn zero_capacity_queue_rejects_with_overloaded() {
        let (addr, handle) = start(ServeConfig {
            workers: 1,
            queue_capacity: 0,
            ..ServeConfig::default()
        });
        let mut client = Client::connect(addr).expect("connect");
        let response = client
            .run_manifest(TINY, ReportKind::Table, TableFormat::Text)
            .expect("run");
        match response {
            Response::Error { kind, .. } => assert_eq!(kind, "overloaded"),
            other => panic!("unexpected response {other:?}"),
        }
        client.shutdown().expect("shutdown");
        let summary = handle.join().expect("server thread");
        assert_eq!(summary.rejected, 1);
        assert_eq!(summary.accepted, 0);
    }

    #[test]
    fn bad_frames_get_typed_errors_and_never_kill_the_server() {
        let (addr, handle) = start(ServeConfig::default());
        let mut client = Client::connect(addr).expect("connect");
        // Malformed JSON.
        client.writer.write_all(b"{oops\n").expect("write");
        client.writer.flush().expect("flush");
        let response = client.recv().expect("error response");
        match &response {
            Response::Error { id, kind, .. } => {
                assert_eq!(id.as_ref(), None);
                assert_eq!(kind, "malformed");
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Bad manifest, id echoed.
        let response = client
            .run_manifest("suite nope\n", ReportKind::Table, TableFormat::Text)
            .expect("run");
        match &response {
            Response::Error { id, kind, .. } => {
                assert_eq!(id.as_ref(), Some(&RequestId::Number(1)));
                assert_eq!(kind, "manifest");
            }
            other => panic!("unexpected response {other:?}"),
        }
        // File sources are forbidden by default.
        let response = client
            .run_manifest(
                "instance file:/etc/hostname\n",
                ReportKind::Table,
                TableFormat::Text,
            )
            .expect("run");
        match &response {
            Response::Error { kind, message, .. } => {
                assert_eq!(kind, "manifest");
                assert!(message.contains("not allowed"), "{message}");
            }
            other => panic!("unexpected response {other:?}"),
        }
        // The server is still alive and well.
        assert!(matches!(
            client.ping().expect("ping"),
            Response::Pong { .. }
        ));
        client.shutdown().expect("shutdown");
        let summary = handle.join().expect("server thread");
        assert_eq!(summary.errors, 3);
        assert_eq!(summary.completed, 0);
    }

    #[test]
    fn connect_retries_with_backoff_until_the_server_binds() {
        // Pick a port the kernel considers free, release it, then bind it
        // again only after the client has started knocking.
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        let addr = probe.local_addr().expect("probe addr");
        drop(probe);
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let listener = TcpListener::bind(addr).expect("late bind");
            let _conn = listener.accept().expect("accept");
        });
        let client = Client::connect(addr).expect("connect after retries");
        let stats = client.stats();
        assert!(stats.connect_retries > 0, "{stats:?}");
        assert_eq!(stats.request_retries, 0);
        server.join().expect("late-binding server");
    }

    #[test]
    fn round_trips_resend_on_a_fresh_connection_after_a_drop() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            // First connection: hang up without answering anything.
            let (first, _) = listener.accept().expect("accept first");
            drop(first);
            // Second connection: answer the resent request properly.
            let (mut conn, _) = listener.accept().expect("accept second");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("read request");
            let request = Request::decode(line.trim()).expect("decode request");
            let mut frame = Response::Pong {
                id: request.id,
                workers: 1,
                queue_capacity: 7,
            }
            .encode();
            frame.push('\n');
            conn.write_all(frame.as_bytes()).expect("write response");
        });
        let mut client = Client::connect(addr).expect("connect");
        let pong = client.ping().expect("ping survives the dropped connection");
        assert!(
            matches!(
                pong,
                Response::Pong {
                    workers: 1,
                    queue_capacity: 7,
                    ..
                }
            ),
            "{pong:?}"
        );
        let stats = client.stats();
        assert_eq!(stats.request_retries, 1, "{stats:?}");
        server.join().expect("fake server");
    }

    #[test]
    fn pipelined_requests_are_matched_by_id() {
        let (addr, handle) = start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let mut client = Client::connect(addr).expect("connect");
        let manifests = ["instance ti:5\nprofile fast\nmodel elmore\n", TINY];
        for (i, manifest) in manifests.iter().enumerate() {
            client
                .send(&Request {
                    id: RequestId::Number(i as u64 + 10),
                    body: RequestBody::Run {
                        manifest: (*manifest).to_string(),
                        report: ReportKind::Jsonl,
                        format: TableFormat::Text,
                    },
                })
                .expect("send");
        }
        let mut seen = Vec::new();
        for _ in 0..manifests.len() {
            match client.recv().expect("response") {
                Response::RunOk { id, failed, .. } => {
                    assert_eq!(failed, 0);
                    seen.push(id);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        seen.sort_by_key(|id| match id {
            RequestId::Number(n) => *n,
            RequestId::Text(_) => u64::MAX,
        });
        assert_eq!(seen, vec![RequestId::Number(10), RequestId::Number(11)]);
        client.shutdown().expect("shutdown");
        let summary = handle.join().expect("server thread");
        assert_eq!(summary.accepted, 2);
        assert_eq!(summary.completed, 2);
    }
}
