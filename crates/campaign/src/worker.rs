//! The worker half of the distributed campaign runner.
//!
//! A worker is a process (or, in tests, a thread) that connects to a
//! [`crate::dist`] coordinator, introduces itself with a `hello` frame,
//! receives the campaign manifest in `init`, compiles it to the same job
//! list the coordinator holds, and then runs whatever job indices the
//! coordinator assigns through the campaign job pool ([`crate::runner`]):
//! the dispatch loop pushes assignments into the pool's queue, and each
//! pool worker holds one warm
//! [`EngineSession`](contango_core::session::EngineSession) across jobs.
//!
//! The worker sends no per-job progress to stderr: completed records flow
//! back to the coordinator as `job-done` frames and the coordinator alone
//! renders progress, so multi-process runs never interleave output.
//!
//! [`ChaosConfig`] injects the failure modes the coordinator must survive
//! — abrupt kills, dropped connections, silent stalls — through the same
//! code path for thread-based test workers and real processes.

use crate::manifest::Manifest;
use crate::protocol::{read_line, write_line, CoordFrame, ServerError, WorkerFrame, DIST_PROTOCOL};
use crate::runner::{run_job, run_pool, JobQueue};
use contango_core::construct::ParallelConfig;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// Fault injection for tests, benches and smoke runs. Each mode breaks the
/// worker's *communication* after a trigger point, never its determinism —
/// a chaos-stricken worker computes exactly what a healthy one would, it
/// just stops telling the coordinator about it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Abruptly close the transport right after sending the N-th
    /// `job-done` frame (a crash mid-run; for pipe workers the process
    /// exits through the connection's closer).
    pub kill_after: Option<usize>,
    /// Close the transport upon receiving assignment N+1, dropping it on
    /// the floor (a connection torn mid-dispatch).
    pub drop_after: Option<usize>,
    /// Go completely silent — no heartbeats, no results — after the N-th
    /// `job-done`, while keeping the connection open (a hung process the
    /// coordinator can only detect by heartbeat timeout).
    pub stall_after: Option<usize>,
}

impl ChaosConfig {
    /// Parses a CLI chaos spec: `kill:N`, `drop:N` or `stall:N`.
    pub fn parse(spec: &str) -> Option<ChaosConfig> {
        let (mode, count) = spec.split_once(':')?;
        let n = count.parse::<usize>().ok()?;
        let mut chaos = ChaosConfig::default();
        match mode {
            "kill" => chaos.kill_after = Some(n),
            "drop" => chaos.drop_after = Some(n),
            "stall" => chaos.stall_after = Some(n),
            _ => return None,
        }
        Some(chaos)
    }
}

/// How the worker runs: pool width, identity, liveness cadence, fault
/// injection.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Pool workers, each with one warm session (0 = one per core).
    pub slots: usize,
    /// Display name announced in `hello`.
    pub name: String,
    /// Heartbeat cadence while connected.
    pub heartbeat: Duration,
    /// Cache-store directory used when the manifest itself names none, so
    /// `worker --cache-dir` can share a store across hosts whose manifests
    /// stay cache-less.
    pub cache_dir: Option<String>,
    /// Injected failure mode, if any.
    pub chaos: ChaosConfig,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            slots: 1,
            name: "worker".to_string(),
            heartbeat: Duration::from_millis(500),
            cache_dir: None,
            chaos: ChaosConfig::default(),
        }
    }
}

/// What went wrong on the worker side.
#[derive(Debug)]
pub enum WorkerError {
    /// The transport failed during the handshake.
    Io(io::Error),
    /// The coordinator spoke an invalid or mismatched protocol.
    Protocol(ServerError),
    /// The shipped manifest failed to parse or compile.
    Manifest(crate::manifest::ManifestError),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Io(e) => write!(f, "worker transport error: {e}"),
            WorkerError::Protocol(e) => write!(f, "coordinator protocol error: {e}"),
            WorkerError::Manifest(e) => write!(f, "shipped manifest is invalid: {e}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// What the worker did before disconnecting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Jobs completed (including any whose results chaos suppressed).
    pub jobs_done: usize,
    /// Whether the coordinator drained the worker cleanly (as opposed to
    /// the connection closing or chaos striking).
    pub drained: bool,
}

/// The worker's connection to its coordinator: a byte stream in each
/// direction plus a closer that force-closes both (used by chaos kills and
/// drops to simulate abrupt death even while reads are blocked).
pub struct WorkerConnection {
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
    closer: Box<dyn Fn() + Send + Sync>,
}

impl WorkerConnection {
    /// A connection over arbitrary streams with a no-op closer (enough for
    /// transports that unblock on their own, like a spawned process's
    /// pipes, when chaos is disabled).
    pub fn new(reader: impl Read + Send + 'static, writer: impl Write + Send + 'static) -> Self {
        Self::with_closer(reader, writer, || {})
    }

    /// A connection with an explicit closer. Pipe workers that must be able
    /// to chaos-kill themselves pass `std::process::exit` here.
    pub fn with_closer(
        reader: impl Read + Send + 'static,
        writer: impl Write + Send + 'static,
        closer: impl Fn() + Send + Sync + 'static,
    ) -> Self {
        Self {
            reader: Box::new(reader),
            writer: Box::new(writer),
            closer: Box::new(closer),
        }
    }

    /// A connection over a TCP stream; the closer shuts the socket down in
    /// both directions.
    ///
    /// # Errors
    ///
    /// When the stream cannot be cloned.
    pub fn tcp(stream: TcpStream) -> io::Result<Self> {
        let reader = stream.try_clone()?;
        let shutdown = stream.try_clone()?;
        Ok(Self::with_closer(reader, stream, move || {
            let _ = shutdown.shutdown(std::net::Shutdown::Both);
        }))
    }
}

/// The worker side's shared transmit state: pool workers, the heartbeat
/// thread and the chaos hooks all write through here.
struct Outbox {
    writer: Mutex<Option<Box<dyn Write + Send>>>,
    closer: Box<dyn Fn() + Send + Sync>,
    silenced: AtomicBool,
    done: AtomicUsize,
}

impl Outbox {
    /// Sends one frame, unless the worker has been silenced or the
    /// transport is gone. A write failure drops the writer for good.
    fn send(&self, frame: &WorkerFrame) -> io::Result<()> {
        if self.silenced.load(Ordering::Relaxed) {
            return Ok(());
        }
        let mut guard = self.writer.lock().expect("worker writer lock");
        let Some(writer) = guard.as_mut() else {
            return Ok(());
        };
        let result = write_line(writer.as_mut(), frame.encode());
        if result.is_err() {
            *guard = None;
        }
        result
    }

    /// Abruptly closes the transport (chaos kill / drop).
    fn kill(&self) {
        *self.writer.lock().expect("worker writer lock") = None;
        (self.closer)();
    }
}

/// Runs the worker loop over an established connection until the
/// coordinator drains it, the connection closes, or chaos strikes.
///
/// # Errors
///
/// [`WorkerError::Io`] when the hello cannot be sent,
/// [`WorkerError::Protocol`] when the coordinator sends an invalid frame or
/// a mismatched protocol version, [`WorkerError::Manifest`] when the
/// shipped manifest does not compile. A connection that simply closes is a
/// normal (non-drained) exit, not an error.
pub fn run_worker(
    connection: WorkerConnection,
    config: &WorkerConfig,
) -> Result<WorkerSummary, WorkerError> {
    let slots = ParallelConfig::with_threads(config.slots).resolved().max(1);
    let chaos = config.chaos;
    let outbox = Outbox {
        writer: Mutex::new(Some(connection.writer)),
        closer: connection.closer,
        silenced: AtomicBool::new(false),
        done: AtomicUsize::new(0),
    };
    outbox
        .send(&WorkerFrame::Hello {
            protocol: DIST_PROTOCOL,
            slots,
            name: config.name.clone(),
        })
        .map_err(WorkerError::Io)?;

    let mut reader = BufReader::new(connection.reader);
    let manifest_text = match read_frame(&mut reader)? {
        Some(CoordFrame::Init { protocol, manifest }) => {
            if protocol != DIST_PROTOCOL {
                return Err(WorkerError::Protocol(ServerError::Invalid(format!(
                    "coordinator speaks dist protocol {protocol}, worker speaks {DIST_PROTOCOL}"
                ))));
            }
            manifest
        }
        Some(_) => {
            return Err(WorkerError::Protocol(ServerError::Invalid(
                "first coordinator frame must be `init`".to_string(),
            )))
        }
        None => {
            // Coordinator went away before init: a normal empty exit.
            return Ok(WorkerSummary {
                jobs_done: 0,
                drained: false,
            });
        }
    };
    let mut manifest = Manifest::parse(&manifest_text).map_err(WorkerError::Manifest)?;
    if manifest.cache_dir.is_none() {
        manifest.cache_dir = config.cache_dir.clone();
    }
    let campaign = manifest.compile().map_err(WorkerError::Manifest)?;
    let store = campaign.cache().cloned();
    let jobs = campaign.jobs().to_vec();

    let queue = JobQueue::new(usize::MAX);
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let drained = std::thread::scope(|scope| {
        // Liveness: one heartbeat per interval until the dispatch loop ends
        // (`stop_tx` drops) or the transport dies.
        let outbox = &outbox;
        let heartbeat_interval = config.heartbeat;
        scope.spawn(move || {
            while let Err(mpsc::RecvTimeoutError::Timeout) =
                stop_rx.recv_timeout(heartbeat_interval)
            {
                if outbox.send(&WorkerFrame::Heartbeat).is_err() {
                    break;
                }
            }
        });
        // Dispatch loop: feed assignments to the pool until drain,
        // disconnect, injected connection drop or a protocol error, then
        // close the queue so the pool finishes what it holds and returns.
        let queue = &queue;
        let dispatch = scope.spawn(move || {
            let mut assigns_received = 0usize;
            let outcome = loop {
                match read_frame(&mut reader) {
                    Ok(Some(CoordFrame::Assign { seq, job })) => {
                        assigns_received += 1;
                        if chaos.drop_after.is_some_and(|k| assigns_received > k) {
                            outbox.kill();
                            break Ok(false);
                        }
                        queue
                            .push((seq, job))
                            .expect("only this loop closes the unbounded queue");
                    }
                    Ok(Some(CoordFrame::Drain)) => break Ok(true),
                    Ok(None) => break Ok(false),
                    Ok(Some(CoordFrame::Init { .. })) => {
                        break Err(WorkerError::Protocol(ServerError::Invalid(
                            "coordinator sent a second `init`".to_string(),
                        )))
                    }
                    Err(e) => break Err(e),
                }
            };
            queue.close();
            drop(stop_tx);
            outcome
        });
        run_pool(slots, queue, |(seq, job_index), session| {
            let Some(job) = jobs.get(job_index) else {
                let _ = outbox.send(&WorkerFrame::JobFailed {
                    seq,
                    message: format!("assignment references job {job_index} of {}", jobs.len()),
                });
                return;
            };
            let record = run_job(job, session, store.as_ref());
            let n_done = outbox.done.fetch_add(1, Ordering::Relaxed) + 1;
            if chaos.stall_after.is_some_and(|k| n_done > k) {
                outbox.silenced.store(true, Ordering::Relaxed);
                return;
            }
            let _ = outbox.send(&WorkerFrame::JobDone {
                seq,
                record: Box::new(record),
            });
            if chaos.kill_after.is_some_and(|k| n_done == k) {
                outbox.kill();
            }
        });
        dispatch.join().expect("dispatch loop")
    })?;

    Ok(WorkerSummary {
        jobs_done: outbox.done.load(Ordering::Relaxed),
        drained,
    })
}

/// Reads and decodes one coordinator frame. `Ok(None)` means the
/// connection closed (EOF, a torn tail, or a read error after shutdown) —
/// a normal worker exit, not a protocol violation.
fn read_frame(reader: &mut impl BufRead) -> Result<Option<CoordFrame>, WorkerError> {
    let line = read_line(reader).ok().flatten();
    line.map(|line| CoordFrame::decode(&line))
        .transpose()
        .map_err(WorkerError::Protocol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_specs_parse() {
        assert_eq!(
            ChaosConfig::parse("kill:3"),
            Some(ChaosConfig {
                kill_after: Some(3),
                ..ChaosConfig::default()
            })
        );
        assert_eq!(
            ChaosConfig::parse("drop:0"),
            Some(ChaosConfig {
                drop_after: Some(0),
                ..ChaosConfig::default()
            })
        );
        assert_eq!(
            ChaosConfig::parse("stall:2"),
            Some(ChaosConfig {
                stall_after: Some(2),
                ..ChaosConfig::default()
            })
        );
        for bad in ["", "kill", "kill:", "kill:x", "explode:1"] {
            assert_eq!(ChaosConfig::parse(bad), None, "{bad}");
        }
    }
}
