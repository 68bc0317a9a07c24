//! The coordinator half of the distributed campaign runner.
//!
//! The coordinator owns two things and never delegates them: the **job
//! list** (compiled once from the manifest; assignments address jobs by
//! submission index) and the **canonical-order reduction** (each record
//! lands in a slot indexed by its job's submission position, exactly like
//! the in-process executor in [`crate::runner`]). Workers own only warm
//! sessions and CPU time. Because a job's record depends only on the job,
//! the aggregate reports are byte-identical to a serial in-process run for
//! any worker count, placement, failure pattern, or cache state.
//!
//! Dispatch is longest-job-first ([`crate::job::Job::cost`]), in the
//! order the in-process pool uses; a requeued job goes back to its place
//! in that order. Worker death is detected three ways —
//! closed transport, malformed frame, heartbeat timeout — and the dead
//! worker's in-flight jobs are requeued against a bounded per-job retry
//! budget. A job that exhausts the budget fails the whole run with
//! [`DistError::JobAbandoned`]: the coordinator either reproduces the
//! serial bytes exactly or fails loudly; it never fabricates records.
//!
//! Workers are found two ways, composable: spawned as local child
//! processes speaking the frame protocol over stdin/stdout
//! ([`DistConfig::spawn_command`]), or accepted over TCP
//! ([`DistConfig::listen`], served to `contango worker --connect`).

use crate::job::Job;
use crate::manifest::{Manifest, ManifestError};
use crate::protocol::{read_line, write_line, CoordFrame, WorkerFrame, DIST_PROTOCOL};
use crate::runner::{dispatch_order, CampaignResult, JobRecord, MemoryProfile};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the coordinator runs: where workers come from, and how failure is
/// bounded.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Local worker processes to spawn over pipes (0 = none; combine with
    /// [`DistConfig::listen`] for remote-only pools).
    pub workers: usize,
    /// Program and arguments of the local worker process; it must speak
    /// the worker frame protocol on stdin/stdout (the CLI passes its own
    /// binary with `worker --pipe`). Required when `workers > 0`.
    pub spawn_command: Option<Vec<String>>,
    /// TCP address to accept remote workers on (`worker --connect ADDR`).
    pub listen: Option<String>,
    /// Reassignments each job may consume before the run fails with
    /// [`DistError::JobAbandoned`].
    pub retry_budget: usize,
    /// A worker silent for longer than this is declared dead and its
    /// in-flight jobs are requeued.
    pub heartbeat_timeout: Duration,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            spawn_command: None,
            listen: None,
            retry_budget: 3,
            heartbeat_timeout: Duration::from_secs(5),
        }
    }
}

/// What happened around the campaign: pool churn and recovery work. The
/// campaign's *results* are in the [`CampaignResult`]; this is the
/// infrastructure ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistSummary {
    /// Workers that ever joined the pool.
    pub workers_joined: usize,
    /// Workers that died mid-run (timeout, closed transport, malformed or
    /// inconsistent frames).
    pub workers_lost: usize,
    /// Jobs requeued after a worker failure (each charged against the
    /// retry budget).
    pub requeues: usize,
}

/// Why a distributed run failed. Job-level *flow* errors never raise this
/// — they are deterministic results carried in the records, exactly as in
/// an in-process run.
#[derive(Debug)]
pub enum DistError {
    /// The manifest failed to parse or compile on the coordinator.
    Manifest(ManifestError),
    /// A local worker process could not be spawned.
    Spawn {
        /// The command that failed.
        command: String,
        /// The operating-system error.
        message: String,
    },
    /// The TCP listen address could not be bound.
    Listen {
        /// The rejected address.
        addr: String,
        /// The operating-system error.
        message: String,
    },
    /// The pool is empty with no way to grow: all spawned workers are gone
    /// and no listen address is configured.
    NoWorkers,
    /// A job exhausted its retry budget.
    JobAbandoned {
        /// Benchmark of the abandoned job.
        benchmark: String,
        /// Tool label of the abandoned job.
        tool: String,
        /// Assignments the job consumed.
        attempts: usize,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Manifest(e) => write!(f, "manifest error: {e}"),
            DistError::Spawn { command, message } => {
                write!(f, "cannot spawn worker `{command}`: {message}")
            }
            DistError::Listen { addr, message } => {
                write!(f, "cannot listen on `{addr}`: {message}")
            }
            DistError::NoWorkers => write!(
                f,
                "no workers remain and none can join; campaign incomplete"
            ),
            DistError::JobAbandoned {
                benchmark,
                tool,
                attempts,
            } => write!(
                f,
                "job {benchmark}/{tool} abandoned after {attempts} failed assignments"
            ),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Manifest(e) => Some(e),
            _ => None,
        }
    }
}

/// One worker's coordinator-side state.
struct WorkerState {
    writer: Box<dyn Write + Send>,
    closer: Box<dyn Fn() + Send + Sync>,
    child: Option<Child>,
    name: String,
    slots: usize,
    ready: bool,
    in_flight: HashMap<u64, usize>,
    last_seen: Instant,
}

impl WorkerState {
    /// Force-closes the transport and reaps the child process, if any.
    fn shut_down(&mut self) {
        (self.closer)();
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A pool event, produced by transport threads and consumed by the
/// single-threaded coordinator loop.
enum Event {
    Joined {
        id: usize,
        writer: Box<dyn Write + Send>,
        closer: Box<dyn Fn() + Send + Sync>,
        child: Option<Child>,
    },
    Frame(usize, WorkerFrame),
    Gone(usize),
}

/// Reads worker frames off a transport and forwards them as events until
/// EOF, a read error, or a malformed frame (reported as `Gone` — the
/// coordinator treats a worker that stops speaking the protocol as dead).
fn pump_frames(id: usize, reader: impl Read, events: &Sender<Event>) {
    let mut reader = BufReader::new(reader);
    while let Ok(Some(line)) = read_line(&mut reader) {
        let Ok(frame) = WorkerFrame::decode(&line) else {
            break;
        };
        if events.send(Event::Frame(id, frame)).is_err() {
            return;
        }
    }
    let _ = events.send(Event::Gone(id));
}

/// Runs the manifest's campaign across worker processes and reduces the
/// records in canonical submission order.
///
/// The callback observes each job's record exactly once, from the
/// coordinator thread (completion order; the returned records are always
/// in submission order) — this is the single synchronized progress stream
/// for the whole multi-process run.
///
/// # Errors
///
/// See [`DistError`]. On success every job has exactly one record and the
/// result is byte-identical to `manifest.compile()?.run()`.
pub fn run_manifest<F>(
    manifest: &Manifest,
    config: &DistConfig,
    mut on_record: F,
) -> Result<(CampaignResult, DistSummary), DistError>
where
    F: FnMut(&JobRecord),
{
    // The coordinator compiles the manifest only for the job list (costs,
    // identity, count) — it runs nothing itself, so it skips opening the
    // cache store the workers will share.
    let mut plan = manifest.clone();
    plan.cache_dir = None;
    let jobs = plan.compile().map_err(DistError::Manifest)?.jobs().to_vec();
    if jobs.is_empty() {
        return Ok((
            CampaignResult {
                records: Vec::new(),
                threads: 1,
                memory: MemoryProfile::capture(0),
            },
            DistSummary::default(),
        ));
    }
    if config.workers == 0 && config.listen.is_none() {
        return Err(DistError::NoWorkers);
    }

    let (events_tx, events_rx) = mpsc::channel::<Event>();
    let next_id = Arc::new(AtomicUsize::new(0));

    // Local pipe workers: spawn first so they warm up while the listener
    // comes up. Their `Joined` events are already in the channel when the
    // loop starts.
    let mut spawn_errors: Option<DistError> = None;
    if config.workers > 0 {
        let Some(command) = config.spawn_command.as_ref().filter(|c| !c.is_empty()) else {
            return Err(DistError::Spawn {
                command: String::new(),
                message: "no worker spawn command configured".to_string(),
            });
        };
        for _ in 0..config.workers {
            match spawn_pipe_worker(command, &next_id, &events_tx) {
                Ok(()) => {}
                Err(e) => {
                    spawn_errors = Some(e);
                    break;
                }
            }
        }
    }

    // Remote TCP workers: a polling accept thread that stops when the run
    // finishes (the coordinator owns the stop flag).
    let stop_accepting = Arc::new(AtomicBool::new(false));
    let mut accept_thread = None;
    if spawn_errors.is_none() {
        if let Some(addr) = &config.listen {
            match TcpListener::bind(addr) {
                Err(e) => {
                    spawn_errors = Some(DistError::Listen {
                        addr: addr.clone(),
                        message: e.to_string(),
                    });
                }
                Ok(listener) => {
                    let _ = listener.set_nonblocking(true);
                    let stop = Arc::clone(&stop_accepting);
                    let ids = Arc::clone(&next_id);
                    let events = events_tx.clone();
                    accept_thread = Some(std::thread::spawn(move || {
                        accept_workers(&listener, &stop, &ids, &events)
                    }));
                }
            }
        }
    }

    let order = dispatch_order(&jobs);
    let mut rank = vec![0; jobs.len()];
    for (r, &ji) in order.iter().enumerate() {
        rank[ji] = r;
    }
    let mut coordinator = Coordinator {
        jobs: &jobs,
        config,
        on_record: &mut on_record,
        workers: HashMap::new(),
        pending: order.into_iter().rev().collect(),
        rank,
        attempts: vec![0; jobs.len()],
        done: vec![false; jobs.len()],
        records: (0..jobs.len()).map(|_| None).collect(),
        done_count: 0,
        next_seq: 0,
        summary: DistSummary::default(),
        manifest_text: manifest.to_text(),
    };
    let outcome = match spawn_errors {
        Some(e) => Err(e),
        None => coordinator.run(&events_rx),
    };

    // Wind down whatever remains: drain healthy workers, reap children,
    // stop accepting, and let detached reader threads exit on EOF.
    stop_accepting.store(true, Ordering::Relaxed);
    for (_, state) in coordinator.workers.iter_mut() {
        let _ = write_line(state.writer.as_mut(), CoordFrame::Drain.encode());
    }
    for (_, mut state) in coordinator.workers.drain() {
        if outcome.is_ok() {
            // A drained worker exits on its own; closing our write half
            // unblocks it even if it missed the frame.
            let closer = std::mem::replace(&mut state.closer, Box::new(|| {}));
            drop(state.writer);
            closer();
            if let Some(mut child) = state.child.take() {
                let _ = child.wait();
            }
        } else {
            state.shut_down();
        }
    }
    // Drain stragglers the loop never adopted (late joins, spawn-phase
    // children behind an early error) so no child process outlives us.
    drop(events_tx);
    while let Ok(event) = events_rx.try_recv() {
        if let Event::Joined {
            writer,
            closer,
            child,
            ..
        } = event
        {
            drop(writer);
            closer();
            if let Some(mut child) = child {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
    if let Some(handle) = accept_thread {
        let _ = handle.join();
    }

    let (result, summary) = outcome?;
    Ok((result, summary))
}

fn spawn_pipe_worker(
    command: &[String],
    next_id: &Arc<AtomicUsize>,
    events: &Sender<Event>,
) -> Result<(), DistError> {
    let mut child = Command::new(&command[0])
        .args(&command[1..])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| DistError::Spawn {
            command: command.join(" "),
            message: e.to_string(),
        })?;
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let id = next_id.fetch_add(1, Ordering::Relaxed);
    let _ = events.send(Event::Joined {
        id,
        writer: Box::new(stdin),
        closer: Box::new(|| {}),
        child: Some(child),
    });
    let events = events.clone();
    std::thread::spawn(move || pump_frames(id, stdout, &events));
    Ok(())
}

fn accept_workers(
    listener: &TcpListener,
    stop: &AtomicBool,
    next_id: &Arc<AtomicUsize>,
    events: &Sender<Event>,
) {
    const ACCEPT_INTERVAL: Duration = Duration::from_millis(25);
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let Ok(reader) = stream.try_clone() else {
                    continue;
                };
                let Ok(shutdown) = stream.try_clone() else {
                    continue;
                };
                let id = next_id.fetch_add(1, Ordering::Relaxed);
                if events
                    .send(Event::Joined {
                        id,
                        writer: Box::new(stream),
                        closer: Box::new(move || {
                            let _ = shutdown.shutdown(std::net::Shutdown::Both);
                        }),
                        child: None,
                    })
                    .is_err()
                {
                    return;
                }
                let events = events.clone();
                std::thread::spawn(move || pump_frames(id, reader, &events));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_INTERVAL);
            }
            Err(_) => std::thread::sleep(ACCEPT_INTERVAL),
        }
    }
}

/// The single-threaded coordinator loop and its state.
struct Coordinator<'a> {
    jobs: &'a [Job],
    config: &'a DistConfig,
    on_record: &'a mut dyn FnMut(&JobRecord),
    workers: HashMap<usize, WorkerState>,
    /// Pending job indices in reverse dispatch order, so `pop()` yields
    /// the next job.
    pending: Vec<usize>,
    /// Each job's position in the dispatch order.
    rank: Vec<usize>,
    attempts: Vec<usize>,
    done: Vec<bool>,
    records: Vec<Option<JobRecord>>,
    done_count: usize,
    next_seq: u64,
    summary: DistSummary,
    manifest_text: String,
}

impl Coordinator<'_> {
    fn run(
        &mut self,
        events: &Receiver<Event>,
    ) -> Result<(CampaignResult, DistSummary), DistError> {
        let tick = (self.config.heartbeat_timeout / 4)
            .clamp(Duration::from_millis(10), Duration::from_millis(250));
        while self.done_count < self.jobs.len() {
            match events.recv_timeout(tick) {
                Ok(Event::Joined {
                    id,
                    writer,
                    closer,
                    child,
                }) => {
                    self.summary.workers_joined += 1;
                    self.workers.insert(
                        id,
                        WorkerState {
                            writer,
                            closer,
                            child,
                            name: format!("worker-{id}"),
                            slots: 0,
                            ready: false,
                            in_flight: HashMap::new(),
                            last_seen: Instant::now(),
                        },
                    );
                }
                Ok(Event::Frame(id, frame)) => self.handle_frame(id, frame)?,
                Ok(Event::Gone(id)) => self.remove_worker(id)?,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(DistError::NoWorkers),
            }
            self.cull_stalled()?;
            self.assign_everywhere()?;
            if self.done_count < self.jobs.len()
                && self.workers.is_empty()
                && self.config.listen.is_none()
                && self.summary.workers_joined >= self.config.workers
            {
                // Every spawnable worker has come and gone; nothing can
                // finish the remaining jobs.
                return Err(DistError::NoWorkers);
            }
        }
        let records = self
            .records
            .iter_mut()
            .map(|slot| slot.take().expect("every job completed"))
            .collect();
        Ok((
            CampaignResult {
                records,
                threads: self.summary.workers_joined.max(1),
                memory: MemoryProfile::capture(0),
            },
            self.summary,
        ))
    }

    fn handle_frame(&mut self, id: usize, frame: WorkerFrame) -> Result<(), DistError> {
        let Some(state) = self.workers.get_mut(&id) else {
            return Ok(()); // frame from a worker already removed
        };
        state.last_seen = Instant::now();
        match frame {
            WorkerFrame::Hello {
                protocol,
                slots,
                name,
            } => {
                if protocol != DIST_PROTOCOL || state.ready {
                    return self.remove_worker(id);
                }
                state.slots = slots.max(1);
                state.name = name;
                let init = CoordFrame::Init {
                    protocol: DIST_PROTOCOL,
                    manifest: self.manifest_text.clone(),
                };
                if write_line(state.writer.as_mut(), init.encode()).is_err() {
                    return self.remove_worker(id);
                }
                state.ready = true;
            }
            WorkerFrame::Heartbeat => {}
            WorkerFrame::JobDone { seq, record } => {
                let Some(ji) = state.in_flight.remove(&seq) else {
                    // A completion we never assigned: the worker is off
                    // script, so stop trusting it.
                    return self.remove_worker(id);
                };
                let job = &self.jobs[ji];
                if record.benchmark != job.benchmark
                    || record.tool != job.tool
                    || record.sinks != job.instance.sink_count()
                {
                    // The worker compiled a different job list (version or
                    // manifest skew). Requeue rather than poison the
                    // reduction with a record for the wrong job.
                    self.requeue(ji, true)?;
                    return self.remove_worker(id);
                }
                if !self.done[ji] {
                    self.done[ji] = true;
                    self.done_count += 1;
                    (self.on_record)(&record);
                    self.records[ji] = Some(*record);
                }
            }
            WorkerFrame::JobFailed { seq, .. } => {
                let Some(ji) = state.in_flight.remove(&seq) else {
                    return self.remove_worker(id);
                };
                self.requeue(ji, true)?;
            }
        }
        Ok(())
    }

    /// Declares workers dead when their heartbeat deadline passes.
    fn cull_stalled(&mut self) -> Result<(), DistError> {
        let now = Instant::now();
        let stalled: Vec<usize> = self
            .workers
            .iter()
            .filter(|(_, w)| now.duration_since(w.last_seen) > self.config.heartbeat_timeout)
            .map(|(&id, _)| id)
            .collect();
        for id in stalled {
            self.remove_worker(id)?;
        }
        Ok(())
    }

    /// Removes a worker from the pool, closing its transport and requeuing
    /// its in-flight jobs against the retry budget.
    fn remove_worker(&mut self, id: usize) -> Result<(), DistError> {
        let Some(mut state) = self.workers.remove(&id) else {
            return Ok(());
        };
        self.summary.workers_lost += 1;
        state.shut_down();
        let mut in_flight: Vec<usize> = state.in_flight.into_values().collect();
        in_flight.sort_unstable();
        for ji in in_flight {
            self.requeue(ji, true)?;
        }
        Ok(())
    }

    /// Puts a job back on the queue. `charge` counts the lost assignment
    /// against the job's retry budget — true for failures after dispatch,
    /// false when the assignment never reached the worker.
    fn requeue(&mut self, ji: usize, charge: bool) -> Result<(), DistError> {
        if self.done[ji] {
            return Ok(());
        }
        if charge {
            self.attempts[ji] += 1;
            if self.attempts[ji] > self.config.retry_budget {
                let job = &self.jobs[ji];
                return Err(DistError::JobAbandoned {
                    benchmark: job.benchmark.clone(),
                    tool: job.tool.clone(),
                    attempts: self.attempts[ji],
                });
            }
            self.summary.requeues += 1;
        }
        let rank = &self.rank;
        let at = self.pending.partition_point(|&i| rank[i] > rank[ji]);
        self.pending.insert(at, ji);
        Ok(())
    }

    /// Fills every ready worker's free slots from the pending queue.
    fn assign_everywhere(&mut self) -> Result<(), DistError> {
        let mut ids: Vec<usize> = self.workers.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            self.try_assign(id)?;
        }
        Ok(())
    }

    fn try_assign(&mut self, id: usize) -> Result<(), DistError> {
        loop {
            {
                let Some(state) = self.workers.get(&id) else {
                    return Ok(());
                };
                if !state.ready || state.in_flight.len() >= state.slots {
                    return Ok(());
                }
            }
            let Some(ji) = self.pending.pop() else {
                return Ok(());
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            let frame = CoordFrame::Assign { seq, job: ji };
            let state = self.workers.get_mut(&id).expect("checked above");
            if write_line(state.writer.as_mut(), frame.encode()).is_ok() {
                state.in_flight.insert(seq, ji);
            } else {
                // The worker died before receiving the assignment: the job
                // was never attempted, so requeue without charging it.
                self.requeue(ji, false)?;
                return self.remove_worker(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_manifests_need_no_workers() {
        let manifest = Manifest::parse("instance ti:6\n").expect("parses");
        // No sources compiled to zero jobs is impossible (NoSources), so
        // exercise the no-worker guard instead: jobs exist but the config
        // offers no way to run them.
        let err = run_manifest(&manifest, &DistConfig::default(), |_| {}).unwrap_err();
        assert!(matches!(err, DistError::NoWorkers), "{err}");
    }

    #[test]
    fn spawn_failures_surface_the_command() {
        let manifest = Manifest::parse("instance ti:6\n").expect("parses");
        let config = DistConfig {
            workers: 1,
            spawn_command: Some(vec!["/nonexistent/contango-worker".to_string()]),
            ..DistConfig::default()
        };
        let err = run_manifest(&manifest, &config, |_| {}).unwrap_err();
        assert!(matches!(err, DistError::Spawn { .. }), "{err}");
    }
}
