//! Command-line argument parsing.
//!
//! The parser is hand-rolled (no external dependency) and purely
//! functional: it turns an argument vector into a [`Command`] value or a
//! typed [`ArgError`], so it can be unit-tested without touching the
//! filesystem or spawning processes.
//!
//! The synthesis commands (`run`, `compare`, `suite`) have no value
//! grammar of their own. Each `--KEY VALUE` whose KEY is a manifest key
//! ([`KEYS`]) is kept, in argv order, as the manifest line `KEY VALUE` in
//! the command's [`Settings`], and [`Manifest::parse`] is the one parser
//! of those values ([`Settings::manifest`]).
//!
//! [`Manifest::parse`]: contango_campaign::Manifest::parse

use contango_campaign::manifest::KEYS;
use contango_campaign::{ChaosConfig, ManifestError, ReportKind, TableFormat};
use std::fmt;

/// A problem with the argument vector.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
    /// The first argument names no known command.
    UnknownCommand(String),
    /// A required flag is absent.
    MissingFlag(&'static str),
    /// A flag that expects a value appeared last.
    MissingValue(String),
    /// A value flag was given more than once (e.g. `--input a --input
    /// b`); flags are not repeatable, and silently picking one of the
    /// values would hide the conflict.
    DuplicateFlag(String),
    /// An argument was neither a known flag nor a flag value.
    Unrecognized(String),
    /// A `--flag` the command does not define, with a did-you-mean
    /// suggestion when a known flag is a near miss (e.g. `--thread` for
    /// `--threads`).
    UnknownFlag {
        /// The offending flag as typed.
        flag: String,
        /// The closest known flag, when one is close enough to suggest.
        suggestion: Option<String>,
    },
    /// `query` needs exactly one of `--manifest`, `--ping`, `--shutdown`.
    QueryActionConflict,
    /// A flag's value is not one of its accepted values.
    InvalidValue {
        /// The flag as typed.
        flag: String,
        /// The rejected value.
        value: String,
    },
    /// `generate` needs exactly one of `--suite` and `--ti`.
    GenerateSourceConflict,
    /// `worker` needs exactly one of `--connect` and `--pipe`.
    WorkerTransportConflict,
    /// The manifest parser rejects the line a settings flag stands for,
    /// for a reason other than its value: an unknown stage, a key that an
    /// earlier flag or the manifest file already sets, ...
    Setting {
        /// The flag as typed.
        flag: String,
        /// The manifest parser's error for the flag's line.
        source: ManifestError,
    },
}

impl ArgError {
    /// The error for a settings flag whose manifest line `source` rejects:
    /// [`ArgError::InvalidValue`] for a bad value, [`ArgError::Setting`]
    /// otherwise.
    pub(crate) fn setting(flag: &str, source: ManifestError) -> Self {
        match source {
            ManifestError::InvalidValue { value, .. } => ArgError::InvalidValue {
                flag: flag.to_string(),
                value,
            },
            source => ArgError::Setting {
                flag: flag.to_string(),
                source,
            },
        }
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownCommand(cmd) => write!(f, "unknown command `{cmd}`\n\n{USAGE}"),
            ArgError::MissingFlag(flag) => write!(f, "missing required flag `{flag}`"),
            ArgError::MissingValue(flag) => write!(f, "flag `{flag}` expects a value"),
            ArgError::DuplicateFlag(flag) => {
                write!(f, "flag `{flag}` is given more than once")
            }
            ArgError::Unrecognized(arg) => write!(f, "unrecognized argument `{arg}`"),
            ArgError::UnknownFlag { flag, suggestion } => {
                write!(f, "unrecognized flag `{flag}`")?;
                if let Some(known) = suggestion {
                    write!(f, " (did you mean `{known}`?)")?;
                }
                Ok(())
            }
            ArgError::QueryActionConflict => {
                write!(
                    f,
                    "query needs exactly one of --manifest <file>, --ping or --shutdown"
                )
            }
            ArgError::InvalidValue { flag, value } => {
                write!(f, "invalid value `{value}` for `{flag}`")
            }
            ArgError::GenerateSourceConflict => {
                write!(f, "generate needs exactly one of --suite or --ti <sinks>")
            }
            ArgError::WorkerTransportConflict => {
                write!(
                    f,
                    "worker needs exactly one of --connect HOST:PORT or --pipe"
                )
            }
            ArgError::Setting { flag, source } => {
                // The manifest error's `line N: ` counts lines the flags
                // were spelled into, not lines anyone wrote: keep only the
                // reason, and name the flag instead.
                let text = source.to_string();
                let reason = text.split_once(": ").map_or(text.as_str(), |(_, r)| r);
                write!(f, "`{flag}`: {reason}")
            }
        }
    }
}

impl std::error::Error for ArgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArgError::Setting { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The experiment a synthesis command describes, as manifest lines: the
/// lines of `suite --manifest FILE`, if given, followed by the line each
/// settings flag stands for, in argv order. [`Settings::manifest`] parses
/// them as one manifest, so a key that both the file and a flag set is a
/// duplicate key.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Settings {
    /// The manifest file whose lines come first.
    pub file: Option<String>,
    /// Each settings flag as typed, with the manifest line it stands for.
    pub lines: Vec<(String, String)>,
}

/// The bare shorthands: flags given without a value that stand for whole
/// manifest lines.
const SHORTHANDS: &[(&str, &[&str])] = &[
    ("--fast", &["profile fast"]),
    (
        "--large-inverters",
        &["technology ti45", "large-inverters true"],
    ),
];

/// One fully parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage information.
    Help,
    /// Generate benchmark instance files.
    Generate {
        /// Emit the seven ISPD'09-style instances.
        suite: bool,
        /// Emit one TI-style instance with this many sinks.
        ti_sinks: Option<usize>,
        /// Output directory (suite) or file (single instance).
        out: String,
    },
    /// Run the Contango flow on an instance file.
    Run {
        /// Path of the instance file.
        input: String,
        /// Optional path to write the synthesized tree to.
        solution_out: Option<String>,
        /// The flow keys and `cache-dir`.
        settings: Settings,
        /// Report format.
        format: TableFormat,
    },
    /// Re-evaluate a previously written solution against its instance.
    Evaluate {
        /// Path of the instance file.
        instance: String,
        /// Path of the solution file.
        solution: String,
    },
    /// Run a whole experiment through the sharded campaign executor (or
    /// the distributed coordinator).
    Suite {
        /// Every manifest key, after the lines of `--manifest FILE`.
        settings: Settings,
        /// What to print: aggregate tables, per-job JSONL or a frontier.
        report: ReportKind,
        /// Layout of the tables.
        format: TableFormat,
    },
    /// Run Contango and every baseline on an instance and compare.
    Compare {
        /// The flow keys, `threads` and `cache-dir`, then the lines
        /// `--input FILE` stands for: `instance file:FILE` and
        /// `baselines all`.
        settings: Settings,
        /// Report format.
        format: TableFormat,
    },
    /// Emit a SPICE deck for a previously written solution.
    SpiceDeck {
        /// Path of the instance file.
        instance: String,
        /// Path of the solution file.
        solution: String,
        /// Emit the low-supply corner instead of the nominal corner.
        low_corner: bool,
        /// Output path of the deck.
        out: String,
    },
    /// Run the synthesis daemon until a `shutdown` request arrives.
    Serve {
        /// Address to listen on (port 0 picks a free port, printed to
        /// stderr).
        addr: String,
        /// Worker-pool width (0 = one per core).
        workers: usize,
        /// Bound on queued requests before `overloaded` rejections.
        queue_capacity: usize,
        /// Allow `instance file:PATH` manifest sources to read the
        /// server's filesystem.
        allow_file_instances: bool,
        /// Directory of the persistent cache store shared by the whole
        /// worker pool; `None` keeps the daemon memory-only.
        cache_dir: Option<String>,
    },
    /// Run one distributed-campaign worker process: connect to a
    /// coordinator (or speak over stdin/stdout when spawned by one) and
    /// run assigned jobs on warm engine sessions.
    Worker {
        /// Coordinator address to connect to over TCP.
        connect: Option<String>,
        /// Speak the coordinator protocol over stdin/stdout instead —
        /// how `suite --workers N` spawns its local workers.
        pipe: bool,
        /// Runner threads, each holding one warm engine session (0 = one
        /// per core).
        threads: usize,
        /// Persistent cache store to open when the shipped manifest does
        /// not name one itself.
        cache_dir: Option<String>,
        /// Worker name reported to the coordinator (defaults to the
        /// process id).
        name: Option<String>,
        /// Fault-injection spec (`kill:N`, `drop:N`, `stall:N`) for
        /// tests and benchmarks; disabled by default.
        chaos: ChaosConfig,
    },
    /// Send one request to a running daemon.
    Query {
        /// Address of the daemon.
        addr: String,
        /// What to ask for.
        action: QueryAction,
        /// Report to request with `--manifest`.
        report: ReportKind,
        /// Table format to request with `--manifest`.
        format: TableFormat,
    },
}

/// What a `query` invocation asks the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryAction {
    /// Submit the manifest file at this path as a `run` request.
    Run {
        /// Path of the manifest file.
        manifest: String,
    },
    /// Liveness/status probe.
    Ping,
    /// Ask the daemon to drain and stop.
    Shutdown,
}

/// Usage text printed by `help` and on argument errors.
pub const USAGE: &str = "\
contango-cts — Contango clock-network synthesis

USAGE:
  contango-cts generate (--suite | --ti <sinks>) --out <path>
  contango-cts run --input <file> [--solution-out <file>]
                   [--format text|markdown|csv] [--KEY VALUE ...]
  contango-cts evaluate --instance <file> --solution <file>
  contango-cts compare --input <file> [--format text|markdown|csv] [--KEY VALUE ...]
  contango-cts suite [--manifest <file>] [--report table|jsonl|pareto|frontier-jsonl]
                   [--format text|markdown|csv] [--KEY VALUE ...]
  contango-cts spice-deck --instance <file> --solution <file> [--low-corner] --out <file>
  contango-cts serve [--addr HOST:PORT] [--workers N] [--queue-capacity N]
                   [--allow-file-instances] [--cache-dir DIR]
  contango-cts worker (--connect HOST:PORT | --pipe) [--threads N]
                   [--cache-dir DIR] [--name NAME]
  contango-cts query --addr HOST:PORT (--manifest <file> | --ping | --shutdown)
                   [--report table|jsonl|pareto|frontier-jsonl]
                   [--format text|markdown|csv]
  contango-cts help

  run, compare and suite take any manifest key as --KEY VALUE, which means
  exactly the manifest line `KEY VALUE` (docs/manifest.md lists every key
  and value). run takes the keys that configure one flow (technology,
  profile, topology, model, large-inverters, stages, skip,
  construct-threads) plus cache-dir; compare also takes threads; suite
  takes every key, including the repeatable sources (--suite ispd09,
  --instance ti:SINKS) and --baselines, --corners, --variation,
  --samples, --seed, --workers and --dispatch. --fast is short for
  --profile fast, and a bare --large-inverters for --technology ti45
  --large-inverters true. suite --manifest FILE reads the file's lines
  first and the flags' lines after them, so a key set in both places is a
  duplicate key.

  compare runs Contango and every baseline on the input (the manifest
  lines `instance file:INPUT` and `baselines all`). suite runs a whole
  experiment through the sharded campaign executor: --threads N runs N
  whole flows concurrently (0 = one per core). A failing job never aborts
  the suite — it is reported in the output per job — but the exit status
  is nonzero when any job failed. Every report (table, jsonl, pareto,
  frontier-jsonl) is byte-identical for every thread count, worker count
  and cache state.

  --cache-dir DIR opens (or creates) a persistent content-addressed cache
  store in DIR and reuses transient solves across runs and across
  concurrent workers. Output is byte-identical with or without the store
  — a warm cache only makes the same reports faster. The per-job profile
  of solve lookups goes to stderr (suite) or the JSONL `cache` field,
  never into the aggregate tables.

  suite --workers N runs the suite through the distributed coordinator:
  N worker processes are spawned over pipes (--dispatch local, the
  default) or awaited over TCP (--dispatch tcp:HOST:PORT, where workers
  started with `worker --connect` check in). Dead workers are detected
  by heartbeat and their jobs requeued; aggregate output stays
  byte-identical to a serial in-process run for any worker count or
  failure pattern.

  serve starts the synthesis daemon: a pool of warm engine sessions behind
  a newline-delimited-JSON TCP protocol with bounded-queue backpressure.
  query talks to a running daemon: --manifest submits a manifest file and
  prints the response output (byte-identical to the offline suite run),
  --ping probes it, --shutdown drains and stops it.
";

/// Parses an argument vector (excluding the program name).
///
/// # Errors
///
/// Returns an [`ArgError`] describing the first problem found. Settings
/// values are checked later, by [`Settings::manifest`].
pub fn parse_args(args: &[String]) -> Result<Command, ArgError> {
    let mut it = args.iter().map(String::as_str);
    let command = it.next().unwrap_or("help");
    let rest: Vec<&str> = it.collect();
    match command {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => parse_generate(&rest),
        "run" => parse_run(&rest),
        "evaluate" => parse_evaluate(&rest),
        "compare" => parse_compare(&rest),
        "suite" => parse_suite(&rest),
        "spice-deck" => parse_spice_deck(&rest),
        "serve" => parse_serve(&rest),
        "worker" => parse_worker(&rest),
        "query" => parse_query(&rest),
        other => Err(ArgError::UnknownCommand(other.to_string())),
    }
}

/// The leading manifest [`KEYS`] up to and including `last` (the list runs
/// from the narrowest scope to the widest).
fn keys_through(last: &str) -> &'static [&'static str] {
    let end = KEYS
        .iter()
        .position(|&key| key == last)
        .expect("a manifest key");
    &KEYS[..=end]
}

/// The manifest line `KEY VALUE` a flag stands for. A value with a line
/// break is refused, so one flag can never become two lines.
fn setting(flag: &str, key: &str, value: &str) -> Result<(String, String), ArgError> {
    if value.contains(['\n', '\r']) {
        return Err(ArgError::InvalidValue {
            flag: flag.to_string(),
            value: value.to_string(),
        });
    }
    Ok((flag.to_string(), format!("{key} {value}")))
}

/// Levenshtein edit distance, used for did-you-mean flag suggestions.
/// Flag names are short, so the quadratic two-row DP is plenty.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut row = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            row[j + 1] = substitute.min(prev[j + 1] + 1).min(row[j] + 1);
        }
        std::mem::swap(&mut prev, &mut row);
    }
    prev[b.len()]
}

/// The closest known flag, when it is close enough to plausibly be what
/// the user meant (at most two edits away).
fn closest_flag(flag: &str, known: &[String]) -> Option<String> {
    known
        .iter()
        .map(|k| (edit_distance(flag, k), k))
        .min()
        .filter(|&(distance, _)| distance <= 2)
        .map(|(_, k)| k.clone())
}

/// A tiny flag/value scanner shared by the per-command parsers. It records
/// every flag name a parser asks about, so [`Scanner::finish`] can suggest
/// the nearest flag the command accepts for a near-miss.
struct Scanner<'a> {
    args: &'a [&'a str],
    used: Vec<bool>,
    known: Vec<String>,
}

impl<'a> Scanner<'a> {
    fn new(args: &'a [&'a str]) -> Self {
        Self {
            args,
            used: vec![false; args.len()],
            known: Vec::new(),
        }
    }

    fn learn(&mut self, name: &str) {
        if !self.known.iter().any(|known| known == name) {
            self.known.push(name.to_string());
        }
    }

    /// Returns `true` when the boolean flag is present.
    fn flag(&mut self, name: &'static str) -> bool {
        self.learn(name);
        for (i, &a) in self.args.iter().enumerate() {
            if !self.used[i] && a == name {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    /// Returns the value following `name`, if present. A second unconsumed
    /// occurrence of the flag is a [`ArgError::DuplicateFlag`] — repeating
    /// a value flag is a conflict, not a precedence rule.
    fn value(&mut self, name: &'static str) -> Result<Option<String>, ArgError> {
        self.learn(name);
        let mut found: Option<usize> = None;
        let mut i = 0;
        while i < self.args.len() {
            if !self.used[i] && self.args[i] == name {
                if found.is_some() {
                    return Err(ArgError::DuplicateFlag(name.to_string()));
                }
                if i + 1 >= self.args.len() {
                    return Err(ArgError::MissingValue(name.to_string()));
                }
                found = Some(i);
                // Step over the flag's value so a value that happens to
                // equal the flag (e.g. `--label --label`) is not misread
                // as a repeat.
                i += 2;
            } else {
                i += 1;
            }
        }
        match found {
            Some(i) => {
                self.used[i] = true;
                self.used[i + 1] = true;
                Ok(Some(self.args[i + 1].to_string()))
            }
            None => Ok(None),
        }
    }

    /// Like [`Scanner::value`] but the flag is mandatory.
    fn required(&mut self, name: &'static str) -> Result<String, ArgError> {
        self.value(name)?.ok_or(ArgError::MissingFlag(name))
    }

    /// The value of a label flag (`--report`, `--format`) read by `parse`,
    /// or the default when the flag is absent.
    fn label<T: Default>(
        &mut self,
        name: &'static str,
        parse: fn(&str) -> Option<T>,
    ) -> Result<T, ArgError> {
        match self.value(name)? {
            None => Ok(T::default()),
            Some(value) => parse(&value).ok_or(ArgError::InvalidValue {
                flag: name.to_string(),
                value,
            }),
        }
    }

    /// Consumes every settings flag left, in argv order, as the manifest
    /// lines it stands for: `--KEY VALUE` for a KEY in `keys` is the line
    /// `KEY VALUE`, and a bare shorthand is its [`SHORTHANDS`] lines. The
    /// value is the next argument unless that is a flag itself. Values are
    /// not parsed here (only line breaks are refused): repeats and bad
    /// values are the manifest parser's to find.
    fn settings(&mut self, keys: &[&str]) -> Result<Vec<(String, String)>, ArgError> {
        for key in keys {
            self.learn(&format!("--{key}"));
        }
        for (flag, _) in SHORTHANDS {
            self.learn(flag);
        }
        let mut lines = Vec::new();
        for i in 0..self.args.len() {
            let flag = self.args[i];
            let key = flag.strip_prefix("--").filter(|key| keys.contains(key));
            let shorthand = SHORTHANDS.iter().find(|(name, _)| *name == flag);
            if self.used[i] || (key.is_none() && shorthand.is_none()) {
                continue;
            }
            self.used[i] = true;
            let value = self
                .args
                .get(i + 1)
                .filter(|value| !value.starts_with("--") && !self.used[i + 1]);
            match (key, value, shorthand) {
                (Some(key), Some(value), _) => {
                    lines.push(setting(flag, key, value)?);
                    self.used[i + 1] = true;
                }
                (_, _, Some((_, expansion))) => {
                    lines.extend(expansion.iter().map(|l| (flag.to_string(), l.to_string())));
                }
                _ => return Err(ArgError::MissingValue(flag.to_string())),
            }
        }
        Ok(lines)
    }

    /// Errors on any argument that was not consumed: an unknown `--flag`
    /// names itself (with a did-you-mean suggestion for near misses), any
    /// other stray argument is reported verbatim.
    fn finish(&self) -> Result<(), ArgError> {
        let unused = (0..self.args.len()).find(|&i| !self.used[i]);
        match unused.map(|i| self.args[i]) {
            Some(arg) if arg.starts_with("--") => Err(ArgError::UnknownFlag {
                flag: arg.to_string(),
                suggestion: closest_flag(arg, &self.known),
            }),
            Some(arg) => Err(ArgError::Unrecognized(arg.to_string())),
            None => Ok(()),
        }
    }
}

fn parse_generate(args: &[&str]) -> Result<Command, ArgError> {
    let mut scan = Scanner::new(args);
    let suite = scan.flag("--suite");
    let ti_sinks = scan
        .value("--ti")?
        .map(|v| {
            v.parse::<usize>().map_err(|_| ArgError::InvalidValue {
                flag: "--ti".to_string(),
                value: v.clone(),
            })
        })
        .transpose()?;
    let out = scan.required("--out")?;
    scan.finish()?;
    if suite == ti_sinks.is_some() {
        return Err(ArgError::GenerateSourceConflict);
    }
    Ok(Command::Generate {
        suite,
        ti_sinks,
        out,
    })
}

fn parse_run(args: &[&str]) -> Result<Command, ArgError> {
    let mut scan = Scanner::new(args);
    let input = scan.required("--input")?;
    let solution_out = scan.value("--solution-out")?;
    let format = scan.label("--format", TableFormat::from_label)?;
    let lines = scan.settings(keys_through("cache-dir"))?;
    scan.finish()?;
    Ok(Command::Run {
        input,
        solution_out,
        settings: Settings { file: None, lines },
        format,
    })
}

fn parse_evaluate(args: &[&str]) -> Result<Command, ArgError> {
    let mut scan = Scanner::new(args);
    let instance = scan.required("--instance")?;
    let solution = scan.required("--solution")?;
    scan.finish()?;
    Ok(Command::Evaluate { instance, solution })
}

fn parse_compare(args: &[&str]) -> Result<Command, ArgError> {
    let mut scan = Scanner::new(args);
    let input = scan.required("--input")?;
    let format = scan.label("--format", TableFormat::from_label)?;
    let mut lines = scan.settings(keys_through("threads"))?;
    scan.finish()?;
    lines.push(setting("--input", "instance", &format!("file:{input}"))?);
    lines.push(setting("--input", "baselines", "all")?);
    Ok(Command::Compare {
        settings: Settings { file: None, lines },
        format,
    })
}

fn parse_suite(args: &[&str]) -> Result<Command, ArgError> {
    let mut scan = Scanner::new(args);
    let file = scan.value("--manifest")?;
    let report = scan.label("--report", ReportKind::from_label)?;
    let format = scan.label("--format", TableFormat::from_label)?;
    let lines = scan.settings(KEYS)?;
    scan.finish()?;
    Ok(Command::Suite {
        settings: Settings { file, lines },
        report,
        format,
    })
}

fn parse_worker(args: &[&str]) -> Result<Command, ArgError> {
    let mut scan = Scanner::new(args);
    let connect = scan.value("--connect")?;
    let pipe = scan.flag("--pipe");
    let threads = parse_usize("--threads", scan.value("--threads")?, 1)?;
    let cache_dir = scan.value("--cache-dir")?;
    let name = scan.value("--name")?;
    let chaos = match scan.value("--chaos")? {
        None => ChaosConfig::default(),
        Some(spec) => ChaosConfig::parse(&spec).ok_or(ArgError::InvalidValue {
            flag: "--chaos".to_string(),
            value: spec,
        })?,
    };
    scan.finish()?;
    if connect.is_some() == pipe {
        return Err(ArgError::WorkerTransportConflict);
    }
    Ok(Command::Worker {
        connect,
        pipe,
        threads,
        cache_dir,
        name,
        chaos,
    })
}

fn parse_usize(
    flag: &'static str,
    value: Option<String>,
    default: usize,
) -> Result<usize, ArgError> {
    match value {
        None => Ok(default),
        Some(v) => v.parse::<usize>().map_err(|_| ArgError::InvalidValue {
            flag: flag.to_string(),
            value: v.clone(),
        }),
    }
}

fn parse_serve(args: &[&str]) -> Result<Command, ArgError> {
    let mut scan = Scanner::new(args);
    let addr = scan
        .value("--addr")?
        .unwrap_or_else(|| "127.0.0.1:0".to_string());
    let workers = parse_usize("--workers", scan.value("--workers")?, 0)?;
    let queue_capacity = parse_usize("--queue-capacity", scan.value("--queue-capacity")?, 64)?;
    let allow_file_instances = scan.flag("--allow-file-instances");
    let cache_dir = scan.value("--cache-dir")?;
    scan.finish()?;
    Ok(Command::Serve {
        addr,
        workers,
        queue_capacity,
        allow_file_instances,
        cache_dir,
    })
}

fn parse_query(args: &[&str]) -> Result<Command, ArgError> {
    let mut scan = Scanner::new(args);
    let addr = scan.required("--addr")?;
    let manifest = scan.value("--manifest")?;
    let ping = scan.flag("--ping");
    let shutdown = scan.flag("--shutdown");
    let report = scan.label("--report", ReportKind::from_label)?;
    let format = scan.label("--format", TableFormat::from_label)?;
    scan.finish()?;
    let action = match (manifest, ping, shutdown) {
        (Some(manifest), false, false) => QueryAction::Run { manifest },
        (None, true, false) => QueryAction::Ping,
        (None, false, true) => QueryAction::Shutdown,
        _ => return Err(ArgError::QueryActionConflict),
    };
    Ok(Command::Query {
        addr,
        action,
        report,
        format,
    })
}

fn parse_spice_deck(args: &[&str]) -> Result<Command, ArgError> {
    let mut scan = Scanner::new(args);
    let instance = scan.required("--instance")?;
    let solution = scan.required("--solution")?;
    let low_corner = scan.flag("--low-corner");
    let out = scan.required("--out")?;
    scan.finish()?;
    Ok(Command::SpiceDeck {
        instance,
        solution,
        low_corner,
        out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn lines(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|&(flag, line)| (flag.to_string(), line.to_string()))
            .collect()
    }

    /// The settings of a parsed synthesis command.
    fn settings_of(list: &[&str]) -> Settings {
        match parse_args(&args(list)).expect("parses") {
            Command::Run { settings, .. }
            | Command::Compare { settings, .. }
            | Command::Suite { settings, .. } => settings,
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn help_is_the_default() {
        assert_eq!(parse_args(&[]).expect("parses"), Command::Help);
        assert_eq!(
            parse_args(&args(&["--help"])).expect("parses"),
            Command::Help
        );
    }

    #[test]
    fn settings_flags_become_manifest_lines_in_argv_order() {
        let cmd = parse_args(&args(&[
            "run",
            "--input",
            "bench.txt",
            "--solution-out",
            "sol.tree",
            "--fast",
            "--topology",
            "h-tree",
            "--format",
            "md",
            "--model",
            "elmore",
        ]))
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Run {
                input: "bench.txt".to_string(),
                solution_out: Some("sol.tree".to_string()),
                settings: Settings {
                    file: None,
                    lines: lines(&[
                        ("--fast", "profile fast"),
                        ("--topology", "topology h-tree"),
                        ("--model", "model elmore"),
                    ]),
                },
                format: TableFormat::Markdown,
            }
        );
        // Source keys repeat, and their order is the report's row order.
        let cmd = parse_args(&args(&[
            "suite",
            "--instance",
            "ti:60",
            "--threads",
            "4",
            "--report",
            "jsonl",
            "--instance",
            "ti:90:7",
            "--large-inverters",
            "--baselines",
            "all",
        ]))
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Suite {
                settings: Settings {
                    file: None,
                    lines: lines(&[
                        ("--instance", "instance ti:60"),
                        ("--threads", "threads 4"),
                        ("--instance", "instance ti:90:7"),
                        ("--large-inverters", "technology ti45"),
                        ("--large-inverters", "large-inverters true"),
                        ("--baselines", "baselines all"),
                    ]),
                },
                report: ReportKind::Jsonl,
                format: TableFormat::Text,
            }
        );
    }

    #[test]
    fn a_shorthand_is_only_taken_bare() {
        // `--large-inverters VALUE` is the manifest key; only the bare flag
        // is the shorthand.
        assert_eq!(
            settings_of(&["run", "--input", "a", "--large-inverters", "false"]).lines,
            lines(&[("--large-inverters", "large-inverters false")])
        );
        assert_eq!(
            settings_of(&["run", "--input", "a", "--large-inverters", "--fast"]).lines,
            lines(&[
                ("--large-inverters", "technology ti45"),
                ("--large-inverters", "large-inverters true"),
                ("--fast", "profile fast"),
            ])
        );
        // `--fast` is no key, so it never takes a value.
        let err = parse_args(&args(&["run", "--input", "a", "--fast", "yes"])).unwrap_err();
        assert_eq!(err, ArgError::Unrecognized("yes".to_string()));
    }

    #[test]
    fn compare_input_stands_for_a_file_source_and_every_baseline() {
        assert_eq!(
            settings_of(&["compare", "--input", "b.cts", "--threads", "2"]).lines,
            lines(&[
                ("--threads", "threads 2"),
                ("--input", "instance file:b.cts"),
                ("--input", "baselines all"),
            ])
        );
    }

    #[test]
    fn each_command_takes_its_scope_of_keys() {
        let accepts = |command: &[&str], flag: &str| {
            let mut list = command.to_vec();
            list.extend([flag, "1"]);
            parse_args(&args(&list)).is_ok()
        };
        let run = ["run", "--input", "a.cns"];
        let compare = ["compare", "--input", "a.cns"];
        for key in KEYS {
            assert!(accepts(&["suite"], &format!("--{key}")), "suite --{key}");
        }
        for flag in [
            "--technology",
            "--stages",
            "--construct-threads",
            "--cache-dir",
        ] {
            assert!(accepts(&run, flag) && accepts(&compare, flag), "{flag}");
        }
        assert!(!accepts(&run, "--threads") && accepts(&compare, "--threads"));
        for flag in [
            "--suite",
            "--instance",
            "--baselines",
            "--corners",
            "--variation",
            "--samples",
            "--seed",
            "--workers",
            "--dispatch",
        ] {
            assert!(!accepts(&run, flag) && !accepts(&compare, flag), "{flag}");
        }
    }

    #[test]
    fn a_flag_value_never_spans_two_manifest_lines() {
        let value = "store\nthreads 8";
        let err = parse_args(&args(&["suite", "--cache-dir", value])).unwrap_err();
        assert_eq!(
            err,
            ArgError::InvalidValue {
                flag: "--cache-dir".to_string(),
                value: value.to_string()
            }
        );
        let err = parse_args(&args(&["compare", "--input", "a.cts\r\nworkers 2"])).unwrap_err();
        assert!(matches!(err, ArgError::InvalidValue { ref flag, .. } if flag == "--input"));
    }

    #[test]
    fn generate_requires_exactly_one_source() {
        let err = parse_args(&args(&["generate", "--out", "d"])).unwrap_err();
        assert_eq!(err, ArgError::GenerateSourceConflict);
        assert!(parse_args(&args(&["generate", "--suite", "--ti", "100", "--out", "d"])).is_err());
        let cmd = parse_args(&args(&["generate", "--ti", "500", "--out", "ti.txt"])).expect("ok");
        assert_eq!(
            cmd,
            Command::Generate {
                suite: false,
                ti_sinks: Some(500),
                out: "ti.txt".to_string()
            }
        );
    }

    #[test]
    fn missing_and_unknown_flags_are_reported() {
        let err = parse_args(&args(&["run"])).unwrap_err();
        assert_eq!(err, ArgError::MissingFlag("--input"));
        assert!(err.to_string().contains("--input"));
        let err = parse_args(&args(&["run", "--input", "x", "--bogus"])).unwrap_err();
        assert_eq!(
            err,
            ArgError::UnknownFlag {
                flag: "--bogus".to_string(),
                suggestion: None
            }
        );
        let err = parse_args(&args(&["frobnicate"])).unwrap_err();
        assert_eq!(err, ArgError::UnknownCommand("frobnicate".to_string()));
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn evaluate_and_spice_deck_parse() {
        let cmd = parse_args(&args(&[
            "evaluate",
            "--instance",
            "i.txt",
            "--solution",
            "s.tree",
        ]))
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Evaluate {
                instance: "i.txt".to_string(),
                solution: "s.tree".to_string()
            }
        );
        let cmd = parse_args(&args(&[
            "spice-deck",
            "--instance",
            "i.txt",
            "--solution",
            "s.tree",
            "--low-corner",
            "--out",
            "deck.sp",
        ]))
        .expect("parses");
        match cmd {
            Command::SpiceDeck {
                low_corner, out, ..
            } => {
                assert!(low_corner);
                assert_eq!(out, "deck.sp");
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn duplicate_value_flags_are_rejected_with_a_clear_error() {
        let err =
            parse_args(&args(&["run", "--input", "a", "--input", "b", "--fast"])).unwrap_err();
        assert_eq!(err, ArgError::DuplicateFlag("--input".to_string()));
        assert!(err.to_string().contains("more than once"));
        let err = parse_args(&args(&[
            "compare", "--input", "a", "--format", "csv", "--format", "text",
        ]))
        .unwrap_err();
        assert_eq!(err, ArgError::DuplicateFlag("--format".to_string()));
        // A repeated settings flag is two manifest lines; the manifest
        // parser rejects the repeat (see the lib tests).
        assert_eq!(
            settings_of(&["suite", "--threads", "2", "--threads", "4"]).lines,
            lines(&[("--threads", "threads 2"), ("--threads", "threads 4")])
        );
    }

    #[test]
    fn a_value_equal_to_its_flag_is_not_a_duplicate() {
        // `--solution-out` takes the literal value `--solution-out`:
        // pathological, but it must parse as a value, not as a repeat.
        let cmd = parse_args(&args(&[
            "run",
            "--input",
            "a.cns",
            "--solution-out",
            "--solution-out",
        ]))
        .expect("parses");
        match cmd {
            Command::Run { solution_out, .. } => {
                assert_eq!(solution_out.as_deref(), Some("--solution-out"));
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn report_and_format_labels_are_validated() {
        let err = parse_args(&args(&["suite", "--report", "xml"])).unwrap_err();
        assert_eq!(
            err,
            ArgError::InvalidValue {
                flag: "--report".to_string(),
                value: "xml".to_string()
            }
        );
        let err = parse_args(&args(&["run", "--input", "a", "--format", "latex"])).unwrap_err();
        assert_eq!(
            err,
            ArgError::InvalidValue {
                flag: "--format".to_string(),
                value: "latex".to_string()
            }
        );
    }

    #[test]
    fn flag_value_pairs_cannot_dangle() {
        let err = parse_args(&args(&["run", "--input"])).unwrap_err();
        assert_eq!(err, ArgError::MissingValue("--input".to_string()));
        assert!(err.to_string().contains("expects a value"));
        // A settings flag's value is never another flag.
        for list in [
            &["suite", "--threads"][..],
            &["suite", "--threads", "--fast"],
        ] {
            let err = parse_args(&args(list)).unwrap_err();
            assert_eq!(err, ArgError::MissingValue("--threads".to_string()));
        }
    }

    #[test]
    fn near_miss_flags_get_a_did_you_mean_suggestion() {
        let err = parse_args(&args(&["compare", "--input", "a", "--thread", "4"])).unwrap_err();
        assert_eq!(
            err,
            ArgError::UnknownFlag {
                flag: "--thread".to_string(),
                suggestion: Some("--threads".to_string()),
            }
        );
        assert!(
            err.to_string().contains("did you mean `--threads`?"),
            "{err}"
        );
        let err = parse_args(&args(&["suite", "--basslines", "all"])).unwrap_err();
        assert_eq!(
            err,
            ArgError::UnknownFlag {
                flag: "--basslines".to_string(),
                suggestion: Some("--baselines".to_string()),
            }
        );
        // Gibberish gets no suggestion, and positional junk is still
        // reported as an unrecognized argument, not a flag.
        let err = parse_args(&args(&["run", "--input", "a.cns", "--zzzzzz"])).unwrap_err();
        assert_eq!(
            err,
            ArgError::UnknownFlag {
                flag: "--zzzzzz".to_string(),
                suggestion: None,
            }
        );
        assert!(!err.to_string().contains("did you mean"));
        let err = parse_args(&args(&["run", "--input", "a.cns", "stray"])).unwrap_err();
        assert_eq!(err, ArgError::Unrecognized("stray".to_string()));
    }

    #[test]
    fn edit_distance_is_symmetric_and_exact() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("--thread", "--threads"), 1);
        assert_eq!(edit_distance("--threads", "--thread"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn suite_takes_a_manifest_file_and_flags_together() {
        let cmd = parse_args(&args(&[
            "suite",
            "--manifest",
            "exp.manifest",
            "--workers",
            "3",
            "--report",
            "jsonl",
            "--format",
            "csv",
            "--fast",
        ]))
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Suite {
                settings: Settings {
                    file: Some("exp.manifest".to_string()),
                    lines: lines(&[("--workers", "workers 3"), ("--fast", "profile fast")]),
                },
                report: ReportKind::Jsonl,
                format: TableFormat::Csv,
            }
        );
    }

    #[test]
    fn suggestions_are_scoped_to_the_subcommand_flag_set() {
        let err = parse_args(&args(&["suite", "--manifest", "m", "--workes", "2"])).unwrap_err();
        assert_eq!(
            err,
            ArgError::UnknownFlag {
                flag: "--workes".to_string(),
                suggestion: Some("--workers".to_string()),
            }
        );
        // The classic --workers/--threads confusion: `suite` accepts
        // both, so a near miss of either suggests the right one...
        let err = parse_args(&args(&["suite", "--suite", "ispd09", "--worker", "2"])).unwrap_err();
        assert_eq!(
            err,
            ArgError::UnknownFlag {
                flag: "--worker".to_string(),
                suggestion: Some("--workers".to_string()),
            }
        );
        // ...but `run` accepts neither --workers nor anything close to
        // it, so the same typo there gets no cross-command suggestion.
        let err = parse_args(&args(&["run", "--input", "a.cns", "--workers", "2"])).unwrap_err();
        assert_eq!(
            err,
            ArgError::UnknownFlag {
                flag: "--workers".to_string(),
                suggestion: None,
            }
        );
    }

    #[test]
    fn worker_parses_and_requires_exactly_one_transport() {
        let cmd = parse_args(&args(&["worker", "--connect", "127.0.0.1:4781"])).expect("parses");
        assert_eq!(
            cmd,
            Command::Worker {
                connect: Some("127.0.0.1:4781".to_string()),
                pipe: false,
                threads: 1,
                cache_dir: None,
                name: None,
                chaos: ChaosConfig::default(),
            }
        );
        let cmd = parse_args(&args(&[
            "worker",
            "--pipe",
            "--threads",
            "2",
            "--cache-dir",
            "/tmp/store",
            "--name",
            "w0",
            "--chaos",
            "kill:3",
        ]))
        .expect("parses");
        match cmd {
            Command::Worker {
                connect,
                pipe,
                threads,
                cache_dir,
                name,
                chaos,
            } => {
                assert_eq!(connect, None);
                assert!(pipe);
                assert_eq!(threads, 2);
                assert_eq!(cache_dir.as_deref(), Some("/tmp/store"));
                assert_eq!(name.as_deref(), Some("w0"));
                assert_eq!(chaos.kill_after, Some(3));
            }
            other => panic!("unexpected command {other:?}"),
        }
        for bad in [
            &["worker"][..],
            &["worker", "--connect", "h:1", "--pipe"][..],
        ] {
            let err = parse_args(&args(bad)).unwrap_err();
            assert_eq!(err, ArgError::WorkerTransportConflict, "{bad:?}");
        }
        let err = parse_args(&args(&["worker", "--pipe", "--chaos", "explode:9"])).unwrap_err();
        assert_eq!(
            err,
            ArgError::InvalidValue {
                flag: "--chaos".to_string(),
                value: "explode:9".to_string()
            }
        );
    }

    #[test]
    fn serve_parses_with_defaults_and_overrides() {
        let cmd = parse_args(&args(&["serve"])).expect("parses");
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "127.0.0.1:0".to_string(),
                workers: 0,
                queue_capacity: 64,
                allow_file_instances: false,
                cache_dir: None,
            }
        );
        let cmd = parse_args(&args(&[
            "serve",
            "--addr",
            "0.0.0.0:4780",
            "--workers",
            "2",
            "--queue-capacity",
            "8",
            "--allow-file-instances",
            "--cache-dir",
            "/tmp/ctg-cache",
        ]))
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "0.0.0.0:4780".to_string(),
                workers: 2,
                queue_capacity: 8,
                allow_file_instances: true,
                cache_dir: Some("/tmp/ctg-cache".to_string()),
            }
        );
        let err = parse_args(&args(&["serve", "--workers", "lots"])).unwrap_err();
        assert_eq!(
            err,
            ArgError::InvalidValue {
                flag: "--workers".to_string(),
                value: "lots".to_string()
            }
        );
    }

    #[test]
    fn query_requires_exactly_one_action() {
        let cmd = parse_args(&args(&[
            "query",
            "--addr",
            "127.0.0.1:4780",
            "--manifest",
            "m.txt",
            "--report",
            "jsonl",
        ]))
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Query {
                addr: "127.0.0.1:4780".to_string(),
                action: QueryAction::Run {
                    manifest: "m.txt".to_string()
                },
                report: ReportKind::Jsonl,
                format: TableFormat::Text,
            }
        );
        let cmd = parse_args(&args(&["query", "--addr", "h:1", "--ping"])).expect("parses");
        assert!(matches!(
            cmd,
            Command::Query {
                action: QueryAction::Ping,
                ..
            }
        ));
        let cmd = parse_args(&args(&["query", "--addr", "h:1", "--shutdown"])).expect("parses");
        assert!(matches!(
            cmd,
            Command::Query {
                action: QueryAction::Shutdown,
                ..
            }
        ));
        for extra in [
            &["query", "--addr", "h:1"][..],
            &["query", "--addr", "h:1", "--ping", "--shutdown"][..],
            &["query", "--addr", "h:1", "--manifest", "m", "--ping"][..],
        ] {
            let err = parse_args(&args(extra)).unwrap_err();
            assert_eq!(err, ArgError::QueryActionConflict, "{extra:?}");
        }
        let err = parse_args(&args(&["query", "--ping"])).unwrap_err();
        assert_eq!(err, ArgError::MissingFlag("--addr"));
    }
}
