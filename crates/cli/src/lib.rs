//! Command-line interface for the Contango clock-network synthesis flow.
//!
//! The binary `contango-cts` wraps the library crates into a small tool:
//!
//! * `generate` — write ISPD'09-style or TI-style benchmark instance files;
//! * `run` — synthesize a clock tree for an instance and report the paper's
//!   metrics (CLR, skew, capacitance, evaluator runs, runtime);
//! * `evaluate` — re-evaluate a previously written solution;
//! * `compare` — run Contango and the baseline flows side by side (the
//!   four whole flows shard across `--threads` campaign workers);
//! * `suite` — run a whole experiment (instances × baselines × analysis
//!   axes) through the sharded campaign executor and print the aggregate
//!   suite report, per-job JSONL or the Pareto frontier;
//! * `spice-deck` — emit a transient SPICE deck for external validation;
//! * `serve` — run the synthesis daemon (warm engine sessions behind an
//!   NDJSON TCP protocol, [`contango_campaign::serve`]);
//! * `worker` — run one distributed-campaign worker process
//!   ([`contango_campaign::worker`]), spawned over pipes by
//!   `suite --workers N` or connected to a coordinator over TCP;
//! * `query` — talk to a running daemon: submit a manifest file, ping, or
//!   shut it down.
//!
//! All I/O goes through [`execute`], which returns the report text, so the
//! whole tool is unit-testable without spawning processes. `run` streams
//! per-stage progress to stderr through a [`FlowObserver`]
//! ([`StderrProgress`]) while the flow runs.
//!
//! Experiment descriptions have one grammar, the [`Manifest`]: on `run`,
//! `compare` and `suite`, `--KEY VALUE` means exactly the manifest line
//! `KEY VALUE` ([`args::Settings`]), `suite --manifest FILE` reads the same
//! lines from a file, and the daemon accepts the same text over the wire.
//! Jobs are built only by [`Manifest::job_for`] and [`Manifest::compile`],
//! and campaigns render through
//! [`contango_campaign::output::suite_output`], so every spelling of one
//! description gives byte-identical output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;

use args::{ArgError, Command, QueryAction, Settings};
use contango_benchmarks::error::ParseError;
use contango_benchmarks::format::{parse_instance, write_instance};
use contango_benchmarks::generator::{ispd09_suite, make_instance, ti_instance};
use contango_benchmarks::report::stage_table;
use contango_benchmarks::solution::{parse_solution, write_solution};
use contango_campaign::dist::{self, DistConfig, DistError};
use contango_campaign::output::{render_table, suite_output};
use contango_campaign::worker::{run_worker, WorkerConnection, WorkerError};
use contango_campaign::{
    CampaignResult, ChaosConfig, Client, ClientError, DispatchMode, JobRecord, Manifest,
    ManifestError, ReportKind, Response, ServeConfig, Server, TableFormat, WorkerConfig,
};
use contango_core::error::CoreError;
use contango_core::flow::{ContangoFlow, FlowResult, StageSnapshot};
use contango_core::instance::ClockNetInstance;
use contango_core::lower::to_netlist;
use contango_core::opt::PassOutcome;
use contango_core::pipeline::{FlowObserver, Pass};
use contango_sim::spice::{write_deck, DeckOptions};
use contango_sim::{CacheStore, Evaluator, StoreError};
use contango_tech::Technology;
use std::fmt;
use std::fs;
use std::io;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;

pub use args::{parse_args, USAGE};

/// Any failure of a CLI command.
///
/// Argument-vector problems are reported separately, as [`ArgError`]
/// from [`parse_args`], because the binary distinguishes usage errors
/// (exit code 2) from runtime errors (exit code 1); a settings flag the
/// manifest parser rejects is [`CliError::Usage`], also exit code 2.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// A file could not be read, written, created or opened.
    Io {
        /// What was being attempted: `"read"`, `"write"`, `"create"` or
        /// `"open"`.
        action: &'static str,
        /// The path involved.
        path: String,
        /// The operating-system error message.
        message: String,
    },
    /// An input file failed to parse.
    Parse {
        /// The path of the offending file.
        path: String,
        /// The underlying parse failure.
        source: ParseError,
    },
    /// The synthesis flow failed.
    Flow(CoreError),
    /// A solution file does not match its instance.
    SinkMismatch {
        /// Sinks driven by the solution.
        solution: usize,
        /// Sinks in the instance.
        instance: usize,
    },
    /// Some suite jobs failed. The campaign never aborts on a per-job
    /// failure, so the aggregate report (which lists the failures) was
    /// still produced and is carried here for the binary to print — but
    /// scripted callers must see a failing exit status.
    SuiteFailures {
        /// Number of failed jobs.
        failed: usize,
        /// Total jobs in the campaign.
        total: usize,
        /// The report text that would have been printed on success.
        output: String,
    },
    /// A settings flag the manifest parser rejects. Flag values are
    /// checked when the command runs, after any manifest file's lines.
    Usage(ArgError),
    /// A manifest failed to parse or compile.
    Manifest {
        /// The manifest file, when one was given.
        path: Option<String>,
        /// The underlying manifest problem.
        source: ManifestError,
    },
    /// The distributed campaign failed at the infrastructure level:
    /// workers could not be spawned or awaited, the pool died out, or a
    /// job exhausted its retry budget. (Job-level flow errors are
    /// [`CliError::SuiteFailures`], exactly as in-process.)
    Dist {
        /// The rendered coordinator or worker failure.
        message: String,
    },
    /// Talking to the daemon failed at the transport level.
    Connection {
        /// The daemon address.
        addr: String,
        /// What went wrong.
        message: String,
    },
    /// The daemon refused a request with a typed error response.
    Server {
        /// Machine-readable error kind (e.g. `overloaded`, `manifest`).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Io {
                action,
                path,
                message,
            } => write!(f, "cannot {action} `{path}`: {message}"),
            CliError::Parse { path, source } => write!(f, "{path}: {source}"),
            CliError::Flow(e) => e.fmt(f),
            CliError::SinkMismatch { solution, instance } => write!(
                f,
                "solution drives {solution} sinks but the instance has {instance}"
            ),
            CliError::SuiteFailures { failed, total, .. } => {
                write!(f, "{failed} of {total} suite jobs failed")
            }
            CliError::Usage(e) => e.fmt(f),
            CliError::Manifest { path, source } => match path {
                Some(path) => write!(f, "{path}: {source}"),
                None => source.fmt(f),
            },
            CliError::Dist { message } => write!(f, "distributed campaign failed: {message}"),
            CliError::Connection { addr, message } => {
                write!(f, "cannot reach server at `{addr}`: {message}")
            }
            CliError::Server { kind, message } => {
                write!(f, "server refused the request ({kind}): {message}")
            }
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Parse { source, .. } => Some(source),
            CliError::Flow(e) => Some(e),
            CliError::Usage(e) => Some(e),
            CliError::Manifest { source, .. } => Some(source),
            CliError::Io { .. }
            | CliError::SinkMismatch { .. }
            | CliError::SuiteFailures { .. }
            | CliError::Dist { .. }
            | CliError::Connection { .. }
            | CliError::Server { .. } => None,
        }
    }
}

impl From<CoreError> for CliError {
    fn from(e: CoreError) -> Self {
        CliError::Flow(e)
    }
}

/// A [`FlowObserver`] that streams per-stage progress lines to stderr, so
/// long runs show liveness without polluting the report on stdout.
#[derive(Debug, Default)]
pub struct StderrProgress {
    /// Label printed in front of every line (e.g. the flow being run).
    pub label: String,
}

impl StderrProgress {
    /// Creates a progress observer with the given line label.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
        }
    }
}

impl FlowObserver for StderrProgress {
    fn on_pass_start(&mut self, pass: &dyn Pass, index: usize, total: usize) {
        eprintln!(
            "[{label}] {i}/{total} {acronym}: {name}...",
            label = self.label,
            i = index + 1,
            acronym = pass.acronym(),
            name = pass.name(),
        );
    }

    fn on_pass_end(&mut self, pass: &dyn Pass, snapshot: &StageSnapshot, outcome: &PassOutcome) {
        eprintln!(
            "[{label}] {acronym} done: clr {clr:.1} ps, skew {skew:.1} ps ({rounds} rounds)",
            label = self.label,
            acronym = pass.acronym(),
            clr = snapshot.clr,
            skew = snapshot.skew,
            rounds = outcome.rounds,
        );
    }
}

/// Runs one parsed command and returns the text to print on stdout.
///
/// # Errors
///
/// Returns a [`CliError`] for I/O failures, malformed input files and flow
/// errors.
pub fn execute(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Generate {
            suite,
            ti_sinks,
            out,
        } => generate(*suite, *ti_sinks, out),
        Command::Run {
            input,
            solution_out,
            settings,
            format,
        } => run(input, solution_out.as_deref(), settings, *format),
        Command::Evaluate { instance, solution } => evaluate(instance, solution),
        Command::Suite {
            settings,
            report,
            format,
        } => suite(settings, *report, *format),
        Command::Compare { settings, format } => compare(settings, *format),
        Command::SpiceDeck {
            instance,
            solution,
            low_corner,
            out,
        } => spice_deck(instance, solution, *low_corner, out),
        Command::Serve {
            addr,
            workers,
            queue_capacity,
            allow_file_instances,
            cache_dir,
        } => serve(
            addr,
            *workers,
            *queue_capacity,
            *allow_file_instances,
            cache_dir.as_deref(),
        ),
        Command::Worker {
            connect,
            pipe: _,
            threads,
            cache_dir,
            name,
            chaos,
        } => worker(
            connect.as_deref(),
            *threads,
            cache_dir.as_deref(),
            name.as_deref(),
            *chaos,
        ),
        Command::Query {
            addr,
            action,
            report,
            format,
        } => query(addr, action, *report, *format),
    }
}

/// Opens the persistent cache store at `dir`, creating the directory if
/// needed.
fn open_store(dir: &str) -> Result<Arc<CacheStore>, CliError> {
    match CacheStore::open(dir) {
        Ok(store) => Ok(Arc::new(store)),
        Err(StoreError::Io { path, message }) => Err(CliError::Io {
            action: "open",
            path: path.display().to_string(),
            message,
        }),
    }
}

fn io_error(action: &'static str, path: impl Into<String>) -> impl FnOnce(io::Error) -> CliError {
    let path = path.into();
    move |e| CliError::Io {
        action,
        path,
        message: e.to_string(),
    }
}

fn read(path: &str) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(io_error("read", path))
}

fn write(path: &str, contents: &str) -> Result<(), CliError> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(io_error("create", parent.display().to_string()))?;
        }
    }
    fs::write(path, contents).map_err(io_error("write", path))
}

/// The line a manifest parse error points at.
fn error_line(error: &ManifestError) -> Option<usize> {
    match error {
        ManifestError::MissingValue { line, .. }
        | ManifestError::UnknownKey { line, .. }
        | ManifestError::DuplicateKey { line, .. }
        | ManifestError::InvalidValue { line, .. }
        | ManifestError::UnknownStage { line, .. }
        | ManifestError::UnknownSuite { line, .. }
        | ManifestError::VariationRequired { line, .. }
        | ManifestError::EmptyStages { line }
        | ManifestError::SkipInitial { line } => Some(*line),
        _ => None,
    }
}

impl Settings {
    /// The manifest these settings describe: the lines of the manifest
    /// file, if any, followed by the line each flag stands for, parsed by
    /// [`Manifest::parse`] as one text.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] naming the flag as typed when a flag's line is
    /// at fault, [`CliError::Manifest`] with the file's own line number
    /// when a file line is, and [`CliError::Io`] when the file cannot be
    /// read.
    pub fn manifest(&self) -> Result<Manifest, CliError> {
        let mut text = match &self.file {
            Some(path) => read(path)?,
            None => String::new(),
        };
        let file_lines = text.lines().count();
        if !text.is_empty() && !text.ends_with('\n') {
            text.push('\n');
        }
        for (_, line) in &self.lines {
            text.push_str(line);
            text.push('\n');
        }
        Manifest::parse(&text).map_err(|source| {
            let flag = error_line(&source)
                .and_then(|line| line.checked_sub(file_lines + 1))
                .and_then(|index| self.lines.get(index));
            match flag {
                Some((flag, _)) => CliError::Usage(ArgError::setting(flag, source)),
                None => CliError::Manifest {
                    path: self.file.clone(),
                    source,
                },
            }
        })
    }
}

fn generate(suite: bool, ti_sinks: Option<usize>, out: &str) -> Result<String, CliError> {
    if suite {
        fs::create_dir_all(out).map_err(io_error("create", out))?;
        let mut lines = Vec::new();
        for spec in ispd09_suite() {
            let instance = make_instance(&spec);
            let path = format!("{out}/{}.cns", spec.name);
            write(&path, &write_instance(&instance))?;
            lines.push(format!(
                "{}: {} sinks -> {path}",
                spec.name,
                instance.sink_count()
            ));
        }
        Ok(lines.join("\n") + "\n")
    } else {
        let sinks = ti_sinks.expect("argument parser guarantees one source");
        let instance = ti_instance(sinks, 45);
        write(out, &write_instance(&instance))?;
        Ok(format!("{}: {sinks} sinks -> {out}\n", instance.name))
    }
}

fn load_instance(path: &str) -> Result<ClockNetInstance, CliError> {
    parse_instance(&read(path)?).map_err(|source| CliError::Parse {
        path: path.to_string(),
        source,
    })
}

fn load_solution(path: &str, tech: &Technology) -> Result<contango_core::ClockTree, CliError> {
    parse_solution(&read(path)?, tech).map_err(|source| CliError::Parse {
        path: path.to_string(),
        source,
    })
}

fn summary_block(instance: &ClockNetInstance, result: &FlowResult) -> String {
    format!(
        "benchmark {}\nsinks {}\nclr_ps {:.3}\nskew_ps {:.3}\nmax_latency_ps {:.3}\n\
         capacitance_ff {:.1}\ncapacitance_pct {:.2}\nwirelength_um {:.1}\nbuffers {}\n\
         spice_runs {}\nruntime_s {:.2}\n",
        instance.name,
        instance.sink_count(),
        result.clr(),
        result.skew(),
        result.report.max_latency(),
        result.report.total_cap,
        100.0 * result.cap_fraction(instance),
        result.tree.wirelength(),
        result.tree.buffer_count(),
        result.spice_runs,
        result.runtime_s,
    )
}

/// Runs the one Contango job the settings imply for the input, streaming
/// per-stage progress to stderr. Construction fans out over
/// `construct-threads` workers (serial by default); the result is
/// bit-identical for every count.
fn run(
    input: &str,
    solution_out: Option<&str>,
    settings: &Settings,
    format: TableFormat,
) -> Result<String, CliError> {
    let manifest = settings.manifest()?;
    let instance = load_instance(input)?;
    let job = manifest.job_for(&instance);
    let pipeline = job.pipeline();
    let flow = ContangoFlow::new(job.tech, job.config);
    let mut progress = StderrProgress::new(instance.name.clone());
    let mut session = flow.session();
    if let Some(dir) = &manifest.cache_dir {
        // Same result without the store, but stage/solve/construction
        // results are served from (and written back to) it.
        session.attach_cache(open_store(dir)?);
    }
    let result = flow.run_in(&mut session, &pipeline, &instance, &mut progress)?;
    let mut out = summary_block(&instance, &result);
    out.push('\n');
    out.push_str(&render_table(&stage_table(&instance.name, &result), format));
    if let Some(path) = solution_out {
        write(path, &write_solution(&result.tree))?;
        out.push_str(&format!("\nsolution written to {path}\n"));
    }
    Ok(out)
}

fn evaluate(instance_path: &str, solution_path: &str) -> Result<String, CliError> {
    let instance = load_instance(instance_path)?;
    let tech = Technology::ispd09();
    let tree = load_solution(solution_path, &tech)?;
    if tree.sink_count() != instance.sink_count() {
        return Err(CliError::SinkMismatch {
            solution: tree.sink_count(),
            instance: instance.sink_count(),
        });
    }
    let netlist = to_netlist(&tree, &tech, &instance.source_spec, 100.0)?;
    let report = Evaluator::new(tech.clone()).evaluate(&netlist);
    Ok(format!(
        "benchmark {}\nclr_ps {:.3}\nskew_ps {:.3}\nmax_latency_ps {:.3}\nworst_slew_ps {:.3}\n\
         slew_violation {}\ncapacitance_ff {:.1}\ncapacitance_pct {:.2}\nbuffers {}\n",
        instance.name,
        report.clr(),
        report.skew(),
        report.max_latency(),
        report.worst_slew(),
        report.has_slew_violation(),
        report.total_cap,
        100.0 * report.total_cap / instance.cap_limit,
        tree.buffer_count(),
    ))
}

/// Per-job stderr progress line used by the campaign-backed commands.
fn campaign_progress(label: &str, total: usize) -> impl FnMut(&JobRecord) + Send + '_ {
    let mut done = 0usize;
    move |record: &JobRecord| {
        done += 1;
        match &record.outcome {
            Ok(metrics) => eprintln!(
                "[{label}] {done}/{total} {bench}/{tool}: clr {clr:.1} ps, skew {skew:.1} ps \
                 ({runs} runs)",
                bench = record.benchmark,
                tool = record.tool,
                clr = metrics.summary.clr,
                skew = metrics.summary.skew,
                runs = metrics.summary.spice_runs,
            ),
            Err(error) => eprintln!(
                "[{label}] {done}/{total} {bench}/{tool}: FAILED: {error}",
                bench = record.benchmark,
                tool = record.tool,
            ),
        }
    }
}

/// Runs Contango and every baseline on one instance: the manifest lines
/// `instance file:INPUT` and `baselines all` after the flow settings.
fn compare(settings: &Settings, format: TableFormat) -> Result<String, CliError> {
    let campaign = settings
        .manifest()?
        .compile()
        .map_err(|source| CliError::Manifest { path: None, source })?;
    // The four whole flows run concurrently under `threads`; the
    // campaign's fixed-order reduction keeps the rows in submission order.
    let total = campaign.len();
    let result = campaign.run_streaming(campaign_progress("compare", total));
    if let Some((_, error)) = result.failures().first() {
        return Err(CliError::Flow((*error).clone()));
    }
    Ok(render_table(&result.comparison_table(), format))
}

/// Runs the experiment the settings describe — in process, or through the
/// distributed coordinator when `workers` or `dispatch` is set — and
/// renders the requested report.
fn suite(settings: &Settings, report: ReportKind, format: TableFormat) -> Result<String, CliError> {
    let manifest = settings.manifest()?;
    let path = settings.file.as_deref();
    let label = path.unwrap_or("suite");
    let result = if manifest.workers.is_some() || manifest.dispatch != DispatchMode::Local {
        suite_distributed(&manifest, path, label)?
    } else {
        let campaign = manifest.compile().map_err(|source| CliError::Manifest {
            path: path.map(str::to_string),
            source,
        })?;
        let total = campaign.len();
        campaign.run_streaming(campaign_progress(label, total))
    };
    // The hit/miss profile goes to stderr so the aggregate tables on
    // stdout stay byte-identical between cold and warm runs of the same
    // suite (JSONL carries it as a per-job `cache` field instead). Memory
    // telemetry is advisory and allocation-history dependent (and only
    // the coordinator's own under dist), so it stays off stdout too.
    if result.records.iter().any(|r| r.cache.is_some()) {
        eprint!("{}", result.cache_table().to_text());
    }
    eprintln!("[{label}] memory: {}", result.memory.display_line());
    let output = suite_output(&result, report, format);
    // The campaign reports failures per job and never aborts, but the
    // process exit status must still tell scripts something failed; the
    // binary prints `output` either way.
    let failed = result.failures().len();
    if failed > 0 {
        return Err(CliError::SuiteFailures {
            failed,
            total: result.records.len(),
            output,
        });
    }
    Ok(output)
}

/// Runs a suite through the distributed coordinator
/// ([`contango_campaign::dist`]): local pipe workers are re-executions of
/// this very binary as `worker --pipe`; `dispatch tcp:ADDR` listens for
/// `worker --connect` processes instead. The result is byte-identical to
/// the in-process path for any worker count or failure pattern.
fn suite_distributed(
    manifest: &Manifest,
    path: Option<&str>,
    label: &str,
) -> Result<CampaignResult, CliError> {
    let manifest_error = |source| CliError::Manifest {
        path: path.map(str::to_string),
        source,
    };
    let mut config = DistConfig::default();
    match &manifest.dispatch {
        DispatchMode::Local => {
            let exe = std::env::current_exe()
                .map_err(io_error("locate", "the current executable"))?
                .to_string_lossy()
                .into_owned();
            config.workers = manifest.workers.unwrap_or(1);
            config.spawn_command = Some(vec![
                exe,
                "worker".to_string(),
                "--pipe".to_string(),
                "--name".to_string(),
                "local".to_string(),
            ]);
        }
        DispatchMode::Tcp(addr) => {
            config.listen = Some(addr.clone());
        }
    }
    // Count the jobs upfront for the progress stream (the coordinator
    // compiles the same plan itself; job construction is deterministic).
    let mut plan = manifest.clone();
    plan.cache_dir = None;
    let total = plan.compile().map_err(manifest_error)?.len();
    let (result, summary) = dist::run_manifest(manifest, &config, campaign_progress(label, total))
        .map_err(|e| match e {
            DistError::Manifest(source) => manifest_error(source),
            other => CliError::Dist {
                message: other.to_string(),
            },
        })?;
    eprintln!(
        "[{label}] pool: {joined} workers joined, {lost} lost, {requeues} jobs requeued",
        joined = summary.workers_joined,
        lost = summary.workers_lost,
        requeues = summary.requeues,
    );
    Ok(result)
}

/// Runs one worker process until its coordinator drains it or the
/// connection closes. Everything user-visible goes to stderr: a pipe
/// worker's stdout IS the frame channel, and even over TCP the summary is
/// operational logging, not report output.
fn worker(
    connect: Option<&str>,
    threads: usize,
    cache_dir: Option<&str>,
    name: Option<&str>,
    chaos: ChaosConfig,
) -> Result<String, CliError> {
    let config = WorkerConfig {
        slots: threads,
        name: name.map_or_else(|| format!("worker-{}", std::process::id()), str::to_string),
        cache_dir: cache_dir.map(str::to_string),
        chaos,
        ..WorkerConfig::default()
    };
    let connection = match connect {
        Some(addr) => {
            let tcp_error = |e: io::Error| CliError::Connection {
                addr: addr.to_string(),
                message: e.to_string(),
            };
            let stream = TcpStream::connect(addr).map_err(tcp_error)?;
            WorkerConnection::tcp(stream).map_err(tcp_error)?
        }
        // Spawned over pipes: chaos kills must take the whole process
        // down, because exiting is the only way to abruptly close a pipe
        // transport from inside it.
        None => WorkerConnection::with_closer(io::stdin(), io::stdout(), || std::process::exit(0)),
    };
    let summary = run_worker(connection, &config).map_err(|e| match e {
        WorkerError::Manifest(source) => CliError::Manifest { path: None, source },
        other => CliError::Dist {
            message: other.to_string(),
        },
    })?;
    eprintln!(
        "[{name}] {jobs} jobs done, {how}",
        name = config.name,
        jobs = summary.jobs_done,
        how = if summary.drained {
            "drained cleanly"
        } else {
            "connection closed"
        },
    );
    Ok(String::new())
}

fn serve(
    addr: &str,
    workers: usize,
    queue_capacity: usize,
    allow_file_instances: bool,
    cache_dir: Option<&str>,
) -> Result<String, CliError> {
    let server = Server::bind(ServeConfig {
        addr: addr.to_string(),
        workers,
        queue_capacity,
        allow_file_instances,
        cache_dir: cache_dir.map(str::to_string),
    })
    .map_err(|e| CliError::Connection {
        addr: addr.to_string(),
        message: e.to_string(),
    })?;
    // The bound address goes to stderr immediately (port 0 picks a free
    // port), so scripts can scrape it before the first request arrives.
    eprintln!(
        "contango serve: listening on {addr} ({workers} workers, queue {queue})",
        addr = server.local_addr(),
        workers = server.workers(),
        queue = queue_capacity,
    );
    let summary = server.run().map_err(|e| CliError::Connection {
        addr: addr.to_string(),
        message: e.to_string(),
    })?;
    Ok(format!(
        "served {accepted} runs ({jobs} jobs), {rejected} rejected, {errors} errors\n",
        accepted = summary.completed,
        jobs = summary.jobs_run,
        rejected = summary.rejected,
        errors = summary.errors,
    ))
}

fn connection_error(addr: &str) -> impl Fn(ClientError) -> CliError + '_ {
    move |e| CliError::Connection {
        addr: addr.to_string(),
        message: e.to_string(),
    }
}

/// Maps a daemon response to CLI output, treating typed error frames and
/// failed suite jobs exactly like their offline `suite` counterparts.
fn query_response(response: Response) -> Result<String, CliError> {
    match response {
        Response::RunOk {
            jobs,
            failed,
            output,
            ..
        } => {
            if failed > 0 {
                Err(CliError::SuiteFailures {
                    failed,
                    total: jobs,
                    output,
                })
            } else {
                Ok(output)
            }
        }
        Response::Pong {
            workers,
            queue_capacity,
            ..
        } => Ok(format!(
            "pong: {workers} workers, queue capacity {queue_capacity}\n"
        )),
        Response::ShutdownAck { .. } => {
            Ok("shutdown acknowledged; server is draining\n".to_string())
        }
        Response::Error { kind, message, .. } => Err(CliError::Server { kind, message }),
    }
}

fn query(
    addr: &str,
    action: &QueryAction,
    report: ReportKind,
    format: TableFormat,
) -> Result<String, CliError> {
    let mut client = Client::connect(addr).map_err(|e| CliError::Connection {
        addr: addr.to_string(),
        message: e.to_string(),
    })?;
    let response = match action {
        QueryAction::Run { manifest } => {
            let text = read(manifest)?;
            client
                .run_manifest(&text, report, format)
                .map_err(connection_error(addr))?
        }
        QueryAction::Ping => client.ping().map_err(connection_error(addr))?,
        QueryAction::Shutdown => client.shutdown().map_err(connection_error(addr))?,
    };
    query_response(response)
}

fn spice_deck(
    instance_path: &str,
    solution_path: &str,
    low_corner: bool,
    out: &str,
) -> Result<String, CliError> {
    let instance = load_instance(instance_path)?;
    let tech = Technology::ispd09();
    let tree = load_solution(solution_path, &tech)?;
    let netlist = to_netlist(&tree, &tech, &instance.source_spec, 100.0)?;
    let options = if low_corner {
        DeckOptions::low(&tech)
    } else {
        DeckOptions::nominal(&tech)
    };
    let deck = write_deck(&netlist, &tech, &options);
    write(out, &deck)?;
    Ok(format!(
        "deck for {} ({} stages, {:.1} V) written to {out}\n",
        instance.name,
        netlist.len(),
        options.vdd
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use contango_baselines::BaselineKind;
    use contango_campaign::manifest::KEYS;
    use std::path::PathBuf;

    /// A scratch directory under the target dir, unique per test.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("contango-cli-{name}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn small_instance_file(dir: &Path) -> String {
        let mut spec = ispd09_suite()[6].clone();
        spec.sinks = 10;
        spec.obstacles = 0;
        let instance = make_instance(&spec);
        let path = dir.join("small.cns");
        fs::write(&path, write_instance(&instance)).expect("write instance");
        path.to_string_lossy().into_owned()
    }

    fn command(list: &[&str]) -> Command {
        let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        parse_args(&args).expect("parses")
    }

    /// The manifest a synthesis command's settings describe.
    fn manifest_of(list: &[&str]) -> Result<Manifest, CliError> {
        match command(list) {
            Command::Run { settings, .. }
            | Command::Compare { settings, .. }
            | Command::Suite { settings, .. } => settings.manifest(),
            other => panic!("unexpected command {other:?}"),
        }
    }

    /// A valid and an invalid sample value for every manifest key. A key
    /// added to the manifest without samples here fails the table test.
    const SAMPLES: &[(&str, &str, &str)] = &[
        ("technology", "ti45", "ti7"),
        ("profile", "scalability", "slow"),
        ("topology", "fishbone", "ring"),
        ("model", "elmore", "two-pole"),
        ("large-inverters", "false", "maybe"),
        ("stages", "twsn,TBSZ", "TBSZ,MESH"),
        ("skip", "BWSN", "INITIAL"),
        ("construct-threads", "0", "many"),
        ("cache-dir", "store#1", ""),
        ("threads", "4", "-1"),
        ("suite", "ispd09", "ispd10"),
        ("instance", "stress:500:7:ring", "socket:9"),
        ("baselines", "dme-no-tuning,wiresizing-only", "ntu2009"),
        ("corners", "slow,low-vdd", "typical"),
        ("variation", "0.1,0.2,0.3,0.04,1", "0.1,0.2"),
        ("samples", "3", "0"),
        ("seed", "0xBEEF", "-3"),
        ("workers", "2", "0"),
        ("dispatch", "tcp:127.0.0.1:7979", "carrier-pigeon"),
    ];

    #[test]
    fn every_manifest_key_as_a_flag_is_its_manifest_line() {
        for key in KEYS {
            let &(_, valid, invalid) = SAMPLES
                .iter()
                .find(|(sampled, ..)| sampled == key)
                .unwrap_or_else(|| panic!("no sample values for manifest key `{key}`"));
            let flag = format!("--{key}");
            // `samples` and `seed` need a model to sample, so every key
            // but `variation` itself is given one.
            let (context, prefix): (&[&str], &str) = if *key == "variation" {
                (&[], "")
            } else {
                (&["--variation", "typical-45nm"], "variation typical-45nm\n")
            };
            let mut list = vec!["suite"];
            list.extend(context);
            list.extend([flag.as_str(), valid]);
            assert_eq!(
                manifest_of(&list).expect("valid sample"),
                Manifest::parse(&format!("{prefix}{key} {valid}\n")).expect("valid line"),
                "{key}"
            );
            let err = manifest_of(&["suite", &flag, invalid]).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{key}: {err:?}");
            assert!(
                err.to_string().contains(&format!("`{flag}`")),
                "{key}: {err}"
            );
        }
    }

    #[test]
    fn value_errors_name_the_flag_not_a_line() {
        let err = manifest_of(&["compare", "--input", "a", "--threads", "many"]).unwrap_err();
        assert_eq!(err.to_string(), "invalid value `many` for `--threads`");
        // Where the old flag parser disagreed, the manifest rule wins: an
        // empty value is a missing one.
        let err = manifest_of(&["run", "--input", "a", "--skip", ""]).unwrap_err();
        assert_eq!(err.to_string(), "`--skip`: key `skip` has no value");
        let err = manifest_of(&["suite", "--threads", "2", "--threads", "4"]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "`--threads`: key `threads` is given more than once"
        );
        let err = manifest_of(&["suite", "--fast", "--profile", "default"]).unwrap_err();
        assert!(err.to_string().starts_with("`--profile`:"), "{err}");
        let err = manifest_of(&["suite", "--seed", "7"]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "`--seed`: `seed` needs a `variation` model to sample"
        );
    }

    #[test]
    fn shorthands_stand_for_their_manifest_lines() {
        let manifest =
            manifest_of(&["run", "--input", "a", "--fast", "--large-inverters"]).expect("parses");
        assert_eq!(
            manifest,
            Manifest::parse("profile fast\ntechnology ti45\nlarge-inverters true\n")
                .expect("parses")
        );
        assert!(manifest.flow_config().use_large_inverters);
    }

    #[test]
    fn stage_flags_select_the_pipeline_in_the_listed_order() {
        let instance = make_instance(&ispd09_suite()[6]);
        let pipeline = |list: &[&str]| {
            let mut full = vec!["run", "--input", "a", "--fast"];
            full.extend(list);
            let manifest = manifest_of(&full).expect("parses");
            let pipeline = manifest.job_for(&instance).pipeline();
            pipeline.acronyms().join(",")
        };
        assert_eq!(pipeline(&[]), "INITIAL,TBSZ,TWSZ,TWSN,BWSN");
        assert_eq!(pipeline(&["--stages", "TWSN,TWSZ"]), "INITIAL,TWSN,TWSZ");
        assert_eq!(pipeline(&["--skip", "TWSN,BWSN"]), "INITIAL,TBSZ,TWSZ");
        // Listing INITIAL explicitly neither duplicates nor moves it.
        assert_eq!(pipeline(&["--stages", "BWSN,INITIAL"]), "INITIAL,BWSN");
    }

    #[test]
    fn manifest_file_lines_come_before_flag_lines() {
        let dir = scratch("append");
        let file = dir.join("exp.manifest");
        let path = file.to_string_lossy().into_owned();
        fs::write(&file, "# two workers\ninstance ti:6\nworkers 2\n").expect("write manifest");
        // Flags add the keys the file leaves out, and their sources come
        // after the file's.
        assert_eq!(
            manifest_of(&[
                "suite",
                "--manifest",
                &path,
                "--instance",
                "ti:9",
                "--dispatch",
                "tcp:127.0.0.1:7979",
            ])
            .expect("parses"),
            Manifest::parse(
                "instance ti:6\nworkers 2\ninstance ti:9\ndispatch tcp:127.0.0.1:7979\n"
            )
            .expect("parses")
        );
        // A key set in both places is the manifest's duplicate-key error,
        // reported against the flag and as a usage error.
        let err = manifest_of(&["suite", "--manifest", &path, "--workers", "3"]).unwrap_err();
        assert!(
            matches!(
                &err,
                CliError::Usage(ArgError::Setting {
                    flag,
                    source: ManifestError::DuplicateKey { .. },
                }) if flag == "--workers"
            ),
            "{err:?}"
        );
        // An error in the file keeps the file's path and line number, with
        // or without a final newline.
        for text in [
            "instance ti:6\nthreads many\n",
            "instance ti:6\nthreads many",
        ] {
            fs::write(&file, text).expect("write manifest");
            let err = manifest_of(&["suite", "--manifest", &path, "--fast"]).unwrap_err();
            assert_eq!(
                err,
                CliError::Manifest {
                    path: Some(path.clone()),
                    source: ManifestError::InvalidValue {
                        line: 2,
                        key: "threads".to_string(),
                        value: "many".to_string(),
                    },
                }
            );
        }
        fs::write(&file, "instance ti:6").expect("write manifest");
        let err = manifest_of(&["suite", "--manifest", &path, "--topology", "ring"]).unwrap_err();
        assert_eq!(err.to_string(), "invalid value `ring` for `--topology`");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn help_prints_usage() {
        let out = execute(&Command::Help).expect("help");
        assert!(out.contains("contango-cts"));
        assert!(out.contains("spice-deck"));
        assert!(out.contains("--KEY VALUE"));
        assert!(out.contains("suite [--manifest <file>]"));
        assert!(out.contains("--baselines"));
        assert!(out.contains("serve"));
        assert!(out.contains("query --addr"));
    }

    #[test]
    fn generate_run_evaluate_and_deck_round_trip() {
        let dir = scratch("roundtrip");
        let instance_path = small_instance_file(&dir);
        let solution_path = dir.join("small.tree").to_string_lossy().into_owned();

        // run
        let run_out = execute(&command(&[
            "run",
            "--input",
            &instance_path,
            "--solution-out",
            &solution_path,
            "--fast",
        ]))
        .expect("run succeeds");
        assert!(run_out.contains("clr_ps"));
        assert!(run_out.contains("INITIAL"));
        assert!(Path::new(&solution_path).exists());

        // evaluate
        let eval_out = execute(&Command::Evaluate {
            instance: instance_path.clone(),
            solution: solution_path.clone(),
        })
        .expect("evaluate succeeds");
        assert!(eval_out.contains("skew_ps"));
        assert!(eval_out.contains("slew_violation false"));

        // spice deck
        let deck_path = dir.join("deck.sp").to_string_lossy().into_owned();
        let deck_out = execute(&Command::SpiceDeck {
            instance: instance_path.clone(),
            solution: solution_path.clone(),
            low_corner: true,
            out: deck_path.clone(),
        })
        .expect("deck succeeds");
        assert!(deck_out.contains("deck for"));
        let deck = fs::read_to_string(&deck_path).expect("deck written");
        assert!(deck.contains(".measure"));
        assert!(deck.trim_end().ends_with(".end"));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_with_stage_selection_reports_only_those_stages() {
        let dir = scratch("stage-selection");
        let instance_path = small_instance_file(&dir);
        let out = execute(&command(&[
            "run",
            "--input",
            &instance_path,
            "--fast",
            "--stages",
            "TWSZ",
        ]))
        .expect("run succeeds");
        assert!(out.contains("INITIAL"));
        assert!(out.contains("TWSZ"));
        assert!(!out.contains("TBSZ"));
        assert!(!out.contains("BWSN"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_writes_a_ti_instance() {
        let dir = scratch("generate-ti");
        let out_path = dir.join("ti200.cns").to_string_lossy().into_owned();
        let out = execute(&Command::Generate {
            suite: false,
            ti_sinks: Some(200),
            out: out_path.clone(),
        })
        .expect("generate succeeds");
        assert!(out.contains("200 sinks"));
        let parsed = parse_instance(&fs::read_to_string(&out_path).expect("file written"))
            .expect("valid instance");
        assert_eq!(parsed.sink_count(), 200);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_writes_the_suite_as_cns_files() {
        let dir = scratch("generate-suite");
        let out_dir = dir.to_string_lossy().into_owned();
        execute(&Command::Generate {
            suite: true,
            ti_sinks: None,
            out: out_dir.clone(),
        })
        .expect("generate succeeds");
        for spec in ispd09_suite() {
            let path = format!("{out_dir}/{}.cns", spec.name);
            let text = fs::read_to_string(&path).expect("file written");
            assert_eq!(
                parse_instance(&text).expect("valid instance"),
                make_instance(&spec),
                "{path}"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_reports_contango_and_every_baseline() {
        let dir = scratch("compare");
        let instance_path = small_instance_file(&dir);
        let out = execute(&command(&[
            "compare",
            "--input",
            &instance_path,
            "--fast",
            "--threads",
            "2",
            "--format",
            "csv",
        ]))
        .expect("compare succeeds");
        assert!(out.contains("contango"));
        for kind in BaselineKind::all() {
            assert!(out.contains(kind.label()), "missing {}", kind.label());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_corner_reports_are_byte_identical_across_threads() {
        let dir = scratch("pareto-cli");
        let file = dir.join("axes.manifest");
        fs::write(
            &file,
            "instance ti:6\nprofile fast\nmodel elmore\nskip BWSN\nbaselines dme-no-tuning\n\
             corners slow,low-vdd\nvariation typical-45nm\nsamples 2\nseed 7\n",
        )
        .expect("write manifest");
        let path = file.to_string_lossy().into_owned();
        let run = |threads: &str, report: &str| {
            execute(&command(&[
                "suite",
                "--manifest",
                &path,
                "--threads",
                threads,
                "--report",
                report,
            ]))
            .expect("suite runs")
        };
        for report in ["table", "jsonl", "pareto", "frontier-jsonl"] {
            assert_eq!(run("1", report), run("2", report), "report {report}");
        }
        let table = run("1", "table");
        assert!(table.contains("skew@slow (ps)"), "table: {table}");
        assert!(table.contains("skew@low-vdd (ps)"), "table: {table}");
        assert!(table.contains("MC worst skew (ps)"), "table: {table}");
        let frontier = run("1", "frontier-jsonl");
        assert!(frontier.contains("\"worst_skew_ps\":"), "jsonl: {frontier}");
        assert!(frontier.ends_with('\n'), "jsonl: {frontier}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_files_are_reported() {
        for list in [
            &["run", "--input", "/nonexistent/bench.cts"][..],
            &["compare", "--input", "/nonexistent/bench.cts"],
            &["suite", "--manifest", "/nonexistent/exp.manifest"],
        ] {
            let err = execute(&command(list)).unwrap_err();
            assert!(err.to_string().contains("cannot read"), "{list:?}: {err}");
        }
        let err = execute(&Command::Evaluate {
            instance: "/nonexistent/bench.cts".to_string(),
            solution: "/nonexistent/sol.tree".to_string(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }
}
