//! Declarative campaign manifests: an experiment as a checked-in file.
//!
//! A manifest describes a whole experiment — which instances, which
//! technology, which pipeline stages, which baselines, how many workers —
//! as plain `key value` lines instead of flag soup:
//!
//! ```text
//! # Full ISPD'09 battery, fast profile, two baselines, four workers.
//! suite ispd09
//! profile fast
//! baselines wiresizing-only,dme-no-tuning
//! threads 4
//! ```
//!
//! The same description drives every front-end: the CLI's synthesis
//! commands pass each `--KEY VALUE` flag through as the line `KEY VALUE`
//! (after the lines of `--manifest FILE`, if given), `contango serve`
//! accepts manifest text in `run` requests ([`crate::protocol`]), and
//! library code calls
//! [`Manifest::compile`] to obtain the equivalent [`Campaign`] directly.
//! One `Manifest -> Campaign` path means the daemon, the CLI and offline
//! scripts can never drift apart — serve responses are bit-identical to
//! offline suite output by construction.
//!
//! The parser is hand-rolled (the vendored `serde` is a no-op stand-in) and
//! returns a typed [`ManifestError`] with the offending line number for
//! every problem. See `docs/manifest.md` in the repository for the format
//! reference.

use crate::job::{CornerKind, Job, VariationSpec};
use crate::runner::Campaign;
use contango_baselines::BaselineKind;
use contango_benchmarks::generator::StressLayout;
use contango_core::construct::ParallelConfig;
use contango_core::flow::{FlowConfig, FlowStage};
use contango_core::instance::ClockNetInstance;
use contango_core::topology::TopologyKind;
use contango_sim::{DelayModel, VariationModel};
use contango_tech::Technology;
use std::fmt;
use std::fmt::Write as _;

/// Default seed for `instance ti:N` sources, matching the CLI's
/// `generate --ti N` instances.
const DEFAULT_TI_SEED: u64 = 45;

/// Default seed for `instance stress:N` sources.
const DEFAULT_STRESS_SEED: u64 = 45;

/// Default Monte-Carlo sample count when a manifest declares a `variation`
/// model without a `samples` key.
pub const DEFAULT_SAMPLES: usize = 8;

/// Default Monte-Carlo seed when a manifest declares a `variation` model
/// without a `seed` key.
pub const DEFAULT_VARIATION_SEED: u64 = 0xC0FFEE;

/// Every manifest key, narrowest scope first: the keys that configure one
/// Contango flow, then `cache-dir` and `threads`, then the keys only a
/// whole campaign reads (sources, baselines, analysis axes, distribution).
/// A front-end that runs less than a campaign accepts a prefix of the list.
pub const KEYS: &[&str] = &[
    "technology",
    "profile",
    "topology",
    "model",
    "large-inverters",
    "stages",
    "skip",
    "construct-threads",
    "cache-dir",
    "threads",
    "suite",
    "instance",
    "baselines",
    "corners",
    "variation",
    "samples",
    "seed",
    "workers",
    "dispatch",
];

/// Where a manifest's instances come from, in declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceSource {
    /// A named built-in suite (`suite ispd09`): the seven ISPD'09-style
    /// instances.
    Suite(String),
    /// A generated TI-style instance (`instance ti:SINKS` or
    /// `instance ti:SINKS:SEED`).
    Ti {
        /// Sink count.
        sinks: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A generated extreme-scale stress instance
    /// (`instance stress:SINKS[:SEED][:LAYOUT]`; layouts `uniform`,
    /// `clustered`, `ring`). Generated in memory, so it is available to
    /// the serve daemon like `ti:` sources.
    Stress {
        /// Sink count.
        sinks: usize,
        /// Generator seed.
        seed: u64,
        /// Sink placement shape.
        layout: StressLayout,
    },
    /// An instance file on disk (`instance file:PATH`). Rejected by the
    /// serve daemon unless file access is explicitly enabled.
    File(String),
}

/// Effort profile naming one of the canonical [`FlowConfig`] presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Profile {
    /// [`FlowConfig::default`]: full round budgets.
    #[default]
    Default,
    /// [`FlowConfig::fast`]: reduced rounds, coarser segmentation.
    Fast,
    /// [`FlowConfig::scalability`]: the TI scalability-study configuration.
    Scalability,
}

/// Technology the jobs run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TechnologyKind {
    /// [`Technology::ispd09`].
    #[default]
    Ispd09,
    /// [`Technology::ti45`].
    Ti45,
}

/// How a distributed campaign finds its worker processes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Spawn local worker processes over stdin/stdout pipes (the default).
    #[default]
    Local,
    /// Listen on the given address and serve whatever workers connect
    /// (`dispatch tcp:HOST:PORT`; start them with `worker --connect`).
    Tcp(String),
}

/// A parsed, validated campaign manifest. See the [module docs](self) for
/// the format and [`Manifest::compile`] for the `Manifest -> Campaign`
/// path.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Instance sources, in declaration order.
    pub sources: Vec<InstanceSource>,
    /// Technology the flows run under.
    pub technology: TechnologyKind,
    /// Flow-configuration preset.
    pub profile: Profile,
    /// Initial topology.
    pub topology: TopologyKind,
    /// Delay model driving the optimization loops.
    pub model: DelayModel,
    /// Drive the tree with groups of large inverters.
    pub large_inverters: bool,
    /// Run only these optimization stages, in order (INITIAL always runs);
    /// `None` keeps all five of the paper's passes.
    pub stages: Option<Vec<String>>,
    /// Stages dropped from the pipeline.
    pub skip: Vec<String>,
    /// Baselines run next to Contango on every instance, under the
    /// manifest's technology and delay model with their own fast-profile
    /// budgets and stages.
    pub baselines: Vec<BaselineKind>,
    /// Campaign worker-pool width (0 = one per core). Offline execution
    /// only; the serve daemon's pool width is fixed by the server.
    pub threads: usize,
    /// Construction-engine thread fan-out *inside* each job
    /// (`construct-threads N`; 0 = auto-detect, construction stays serial
    /// when the key is absent). Campaign `threads` shard whole flows, so
    /// the two knobs multiply — keep one of them at 1. Results are
    /// bit-identical for every value.
    pub construct_threads: Option<usize>,
    /// Directory of the persistent content-addressed cache store shared by
    /// the campaign's workers (`cache-dir PATH`); `None` runs cold. Gated
    /// like `file:` sources: the serve daemon rejects it unless filesystem
    /// access is explicitly enabled.
    pub cache_dir: Option<String>,
    /// Number of distributed worker **processes** (`workers N`, N >= 1).
    /// `None` runs the campaign in process; `Some(n)` hands the job list to
    /// the [`crate::dist`] coordinator. Reports are byte-identical either
    /// way.
    pub workers: Option<usize>,
    /// How the coordinator finds its workers when `workers` is set
    /// (`dispatch local` or `dispatch tcp:HOST:PORT`).
    pub dispatch: DispatchMode,
    /// Process/voltage corners every finished tree is re-evaluated at
    /// (`corners slow,low-vdd` or `corners all`), in declaration order.
    /// Empty = nominal-only; reports stay byte-identical to corner-less
    /// manifests.
    pub corners: Vec<CornerKind>,
    /// Monte-Carlo variation model sampled on every finished tree
    /// (`variation typical-45nm`, `variation none`, or five comma-separated
    /// sigmas `wire-res,wire-cap,buffer-res,vdd,spatial-correlation`).
    pub variation: Option<VariationModel>,
    /// Monte-Carlo samples per job (`samples N`, N >= 1); only meaningful —
    /// and only accepted — together with `variation`.
    pub samples: usize,
    /// Seed of the deterministic Monte-Carlo sampler (`seed N` or
    /// `seed 0xHEX`); only accepted together with `variation`.
    pub seed: u64,
}

impl Default for Manifest {
    fn default() -> Self {
        Self {
            sources: Vec::new(),
            technology: TechnologyKind::Ispd09,
            profile: Profile::Default,
            topology: TopologyKind::Dme,
            model: DelayModel::Transient,
            large_inverters: false,
            stages: None,
            skip: Vec::new(),
            baselines: Vec::new(),
            threads: 1,
            construct_threads: None,
            cache_dir: None,
            workers: None,
            dispatch: DispatchMode::Local,
            corners: Vec::new(),
            variation: None,
            samples: DEFAULT_SAMPLES,
            seed: DEFAULT_VARIATION_SEED,
        }
    }
}

/// A problem with a manifest: parse-time (with the offending line) or
/// compile-time.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestError {
    /// A line is not `key value` (no value after the key).
    MissingValue {
        /// 1-based line number.
        line: usize,
        /// The key.
        key: String,
    },
    /// A key the grammar does not define.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The unknown key.
        key: String,
    },
    /// A single-valued key appeared twice.
    DuplicateKey {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The repeated key.
        key: String,
    },
    /// A value outside a key's accepted set.
    InvalidValue {
        /// 1-based line number.
        line: usize,
        /// The key.
        key: String,
        /// The rejected value.
        value: String,
    },
    /// `stages`/`skip` named something that is not a flow stage.
    UnknownStage {
        /// 1-based line number.
        line: usize,
        /// The unknown stage.
        stage: String,
    },
    /// `stages` named no stage at all.
    EmptyStages {
        /// 1-based line number.
        line: usize,
    },
    /// `skip` tried to drop the construction stage.
    SkipInitial {
        /// 1-based line number.
        line: usize,
    },
    /// `suite` named an unknown suite.
    UnknownSuite {
        /// 1-based line number.
        line: usize,
        /// The unknown suite name.
        suite: String,
    },
    /// The manifest declares no instance source.
    NoSources,
    /// A `file:` source in a context that forbids filesystem access (the
    /// serve daemon, unless explicitly enabled).
    FileSourceForbidden {
        /// The rejected path.
        path: String,
    },
    /// A `cache-dir` key in a context that forbids filesystem access (the
    /// serve daemon, unless explicitly enabled — use the daemon's own
    /// `--cache-dir` instead).
    CacheDirForbidden {
        /// The rejected directory.
        path: String,
    },
    /// A `file:` source could not be read.
    Io {
        /// The path.
        path: String,
        /// The operating-system error message.
        message: String,
    },
    /// A `file:` source did not parse as an instance.
    Parse {
        /// The path.
        path: String,
        /// The instance-format error message.
        message: String,
    },
    /// `samples` or `seed` without a `variation` model to sample.
    VariationRequired {
        /// 1-based line number of the orphaned key.
        line: usize,
        /// The orphaned key (`samples` or `seed`).
        key: String,
    },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::MissingValue { line, key } => {
                write!(f, "line {line}: key `{key}` has no value")
            }
            ManifestError::UnknownKey { line, key } => {
                write!(f, "line {line}: unknown manifest key `{key}`")
            }
            ManifestError::DuplicateKey { line, key } => {
                write!(f, "line {line}: key `{key}` is given more than once")
            }
            ManifestError::InvalidValue { line, key, value } => {
                write!(f, "line {line}: invalid value `{value}` for `{key}`")
            }
            ManifestError::UnknownStage { line, stage } => write!(
                f,
                "line {line}: unknown stage `{stage}` (expected one of INITIAL, TBSZ, TWSZ, \
                 TWSN, BWSN)"
            ),
            ManifestError::EmptyStages { line } => {
                write!(f, "line {line}: `stages` needs at least one stage")
            }
            ManifestError::SkipInitial { line } => {
                write!(
                    f,
                    "line {line}: the INITIAL construction stage cannot be skipped"
                )
            }
            ManifestError::UnknownSuite { line, suite } => {
                write!(
                    f,
                    "line {line}: unknown suite `{suite}` (expected `ispd09`)"
                )
            }
            ManifestError::NoSources => {
                write!(f, "manifest declares no `suite` or `instance` source")
            }
            ManifestError::FileSourceForbidden { path } => {
                write!(f, "file instance source `{path}` is not allowed here")
            }
            ManifestError::CacheDirForbidden { path } => {
                write!(f, "manifest cache directory `{path}` is not allowed here")
            }
            ManifestError::Io { path, message } => {
                write!(f, "cannot read instance file `{path}`: {message}")
            }
            ManifestError::Parse { path, message } => {
                write!(f, "instance file `{path}`: {message}")
            }
            ManifestError::VariationRequired { line, key } => {
                write!(
                    f,
                    "line {line}: `{key}` needs a `variation` model to sample"
                )
            }
        }
    }
}

impl std::error::Error for ManifestError {}

/// Parses a comma-separated stage list against the canonical acronyms.
fn parse_stages(line: usize, value: &str) -> Result<Vec<String>, ManifestError> {
    let mut stages = Vec::new();
    for raw in value.split(',') {
        let token = raw.trim();
        if token.is_empty() {
            continue;
        }
        let acronym = token.to_ascii_uppercase();
        if FlowStage::from_acronym(&acronym).is_none() {
            return Err(ManifestError::UnknownStage {
                line,
                stage: token.to_string(),
            });
        }
        stages.push(acronym);
    }
    Ok(stages)
}

/// Parses the `baselines` value: `all`, `none`, or comma-separated labels.
fn parse_baselines(line: usize, value: &str) -> Result<Vec<BaselineKind>, ManifestError> {
    match value {
        "all" => return Ok(BaselineKind::all().to_vec()),
        "none" => return Ok(Vec::new()),
        _ => {}
    }
    let mut kinds = Vec::new();
    for raw in value.split(',') {
        let token = raw.trim();
        if token.is_empty() {
            continue;
        }
        let kind = BaselineKind::all()
            .into_iter()
            .find(|k| k.label() == token)
            .ok_or(ManifestError::InvalidValue {
                line,
                key: "baselines".to_string(),
                value: token.to_string(),
            })?;
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    Ok(kinds)
}

/// Parses an `instance` source: `ti:SINKS[:SEED]`,
/// `stress:SINKS[:SEED][:LAYOUT]` or `file:PATH`.
fn parse_source(line: usize, value: &str) -> Result<InstanceSource, ManifestError> {
    let invalid = || ManifestError::InvalidValue {
        line,
        key: "instance".to_string(),
        value: value.to_string(),
    };
    if let Some(spec) = value.strip_prefix("stress:") {
        let mut parts = spec.split(':');
        let sinks = parts
            .next()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .ok_or_else(invalid)?;
        let mut seed = DEFAULT_STRESS_SEED;
        let mut layout = StressLayout::default();
        let mut seen_layout = false;
        for (index, token) in parts.enumerate() {
            // The optional seed comes before the optional layout; a
            // numeric first token is the seed, anything else is a layout.
            if index == 0 {
                if let Some(parsed) = parse_u64(token) {
                    seed = parsed;
                    continue;
                }
            }
            if seen_layout {
                return Err(invalid());
            }
            layout = StressLayout::from_label(token).ok_or_else(invalid)?;
            seen_layout = true;
        }
        return Ok(InstanceSource::Stress {
            sinks,
            seed,
            layout,
        });
    }
    if let Some(spec) = value.strip_prefix("ti:") {
        let mut parts = spec.splitn(2, ':');
        let sinks = parts
            .next()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .ok_or_else(invalid)?;
        let seed = match parts.next() {
            None => DEFAULT_TI_SEED,
            Some(s) => parse_u64(s).ok_or_else(invalid)?,
        };
        Ok(InstanceSource::Ti { sinks, seed })
    } else if let Some(path) = value.strip_prefix("file:") {
        if path.is_empty() {
            return Err(invalid());
        }
        Ok(InstanceSource::File(path.to_string()))
    } else {
        Err(invalid())
    }
}

/// Parses the `corners` value: `all`, `none`, or comma-separated
/// [`CornerKind::label`]s (order kept, duplicates dropped).
fn parse_corners(line: usize, value: &str) -> Result<Vec<CornerKind>, ManifestError> {
    match value {
        "all" => return Ok(CornerKind::all().to_vec()),
        "none" => return Ok(Vec::new()),
        _ => {}
    }
    let mut corners = Vec::new();
    for raw in value.split(',') {
        let token = raw.trim();
        if token.is_empty() {
            continue;
        }
        let corner = CornerKind::from_label(token).ok_or(ManifestError::InvalidValue {
            line,
            key: "corners".to_string(),
            value: token.to_string(),
        })?;
        if !corners.contains(&corner) {
            corners.push(corner);
        }
    }
    Ok(corners)
}

/// Parses the `variation` value: `none`, the `typical-45nm` preset, or five
/// comma-separated sigmas
/// `wire-res,wire-cap,buffer-res,vdd,spatial-correlation` (all
/// non-negative and finite; the correlation at most 1).
fn parse_variation(line: usize, value: &str) -> Result<Option<VariationModel>, ManifestError> {
    let invalid = || ManifestError::InvalidValue {
        line,
        key: "variation".to_string(),
        value: value.to_string(),
    };
    match value {
        "none" => return Ok(None),
        "typical-45nm" => return Ok(Some(VariationModel::typical_45nm())),
        _ => {}
    }
    let parts: Vec<&str> = value.split(',').collect();
    if parts.len() != 5 {
        return Err(invalid());
    }
    let mut sigmas = [0.0f64; 5];
    for (slot, raw) in sigmas.iter_mut().zip(&parts) {
        *slot = raw
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(invalid)?;
    }
    if sigmas[4] > 1.0 {
        return Err(invalid());
    }
    Ok(Some(VariationModel {
        wire_res_sigma: sigmas[0],
        wire_cap_sigma: sigmas[1],
        buffer_res_sigma: sigmas[2],
        vdd_sigma: sigmas[3],
        spatial_correlation: sigmas[4],
    }))
}

/// Parses a decimal or `0x`-prefixed hexadecimal `u64`.
fn parse_u64(value: &str) -> Option<u64> {
    match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse::<u64>().ok(),
    }
}

fn parse_bool(line: usize, key: &str, value: &str) -> Result<bool, ManifestError> {
    match value {
        "true" | "on" | "yes" => Ok(true),
        "false" | "off" | "no" => Ok(false),
        _ => Err(ManifestError::InvalidValue {
            line,
            key: key.to_string(),
            value: value.to_string(),
        }),
    }
}

impl Manifest {
    /// Parses manifest text: one `key value` pair per line, blank lines and
    /// full-line `#` comments ignored (a `#` inside a value is part of it).
    /// `suite` and `instance` may repeat (sources accumulate in order);
    /// every other key is single-valued.
    ///
    /// # Errors
    ///
    /// Returns a [`ManifestError`] naming the first offending line.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let mut manifest = Manifest::default();
        let mut samples_line = None;
        let mut seed_line = None;
        let mut seen: Vec<&str> = Vec::new();
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let content = raw.trim();
            if content.is_empty() || content.starts_with('#') {
                continue;
            }
            let (key, value) = match content.split_once(char::is_whitespace) {
                Some((key, value)) => (key, value.trim()),
                None => {
                    return Err(ManifestError::MissingValue {
                        line,
                        key: content.to_string(),
                    })
                }
            };
            if !KEYS.contains(&key) {
                return Err(ManifestError::UnknownKey {
                    line,
                    key: key.to_string(),
                });
            }
            if !matches!(key, "suite" | "instance") {
                if seen.contains(&key) {
                    return Err(ManifestError::DuplicateKey {
                        line,
                        key: key.to_string(),
                    });
                }
                seen.push(key);
            }
            let invalid = |key: &str| ManifestError::InvalidValue {
                line,
                key: key.to_string(),
                value: value.to_string(),
            };
            match key {
                "suite" => {
                    if value != "ispd09" {
                        return Err(ManifestError::UnknownSuite {
                            line,
                            suite: value.to_string(),
                        });
                    }
                    manifest
                        .sources
                        .push(InstanceSource::Suite(value.to_string()));
                }
                "instance" => manifest.sources.push(parse_source(line, value)?),
                "technology" => {
                    manifest.technology = match value {
                        "ispd09" => TechnologyKind::Ispd09,
                        "ti45" => TechnologyKind::Ti45,
                        _ => return Err(invalid("technology")),
                    };
                }
                "profile" => {
                    manifest.profile = match value {
                        "default" => Profile::Default,
                        "fast" => Profile::Fast,
                        "scalability" => Profile::Scalability,
                        _ => return Err(invalid("profile")),
                    };
                }
                "topology" => {
                    manifest.topology = match value {
                        "dme" => TopologyKind::Dme,
                        "greedy-matching" => TopologyKind::GreedyMatching,
                        "h-tree" => TopologyKind::HTree,
                        "fishbone" => TopologyKind::Fishbone,
                        _ => return Err(invalid("topology")),
                    };
                }
                "model" => {
                    manifest.model = match value {
                        "elmore" => DelayModel::Elmore,
                        "two-pole" => DelayModel::TwoPole,
                        "transient" => DelayModel::Transient,
                        _ => return Err(invalid("model")),
                    };
                }
                "large-inverters" => {
                    manifest.large_inverters = parse_bool(line, "large-inverters", value)?;
                }
                "stages" => {
                    let stages = parse_stages(line, value)?;
                    if stages.is_empty() {
                        return Err(ManifestError::EmptyStages { line });
                    }
                    manifest.stages = Some(stages);
                }
                "skip" => {
                    let stages = parse_stages(line, value)?;
                    if stages.iter().any(|s| s == "INITIAL") {
                        return Err(ManifestError::SkipInitial { line });
                    }
                    manifest.skip = stages;
                }
                "baselines" => {
                    manifest.baselines = parse_baselines(line, value)?;
                }
                "threads" => {
                    manifest.threads = value.parse::<usize>().map_err(|_| invalid("threads"))?;
                }
                "construct-threads" => {
                    manifest.construct_threads = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| invalid("construct-threads"))?,
                    );
                }
                "cache-dir" => {
                    manifest.cache_dir = Some(value.to_string());
                }
                "workers" => {
                    let workers = value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| invalid("workers"))?;
                    manifest.workers = Some(workers);
                }
                "corners" => {
                    manifest.corners = parse_corners(line, value)?;
                }
                "variation" => {
                    manifest.variation = parse_variation(line, value)?;
                }
                "samples" => {
                    samples_line = Some(line);
                    manifest.samples = value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| invalid("samples"))?;
                }
                "seed" => {
                    seed_line = Some(line);
                    manifest.seed = parse_u64(value).ok_or_else(|| invalid("seed"))?;
                }
                "dispatch" => {
                    manifest.dispatch = if value == "local" {
                        DispatchMode::Local
                    } else if let Some(addr) = value.strip_prefix("tcp:") {
                        if addr.is_empty() {
                            return Err(invalid("dispatch"));
                        }
                        DispatchMode::Tcp(addr.to_string())
                    } else {
                        return Err(invalid("dispatch"));
                    };
                }
                _ => unreachable!("every key in KEYS has an arm"),
            }
        }
        if manifest.variation.is_none() {
            // `samples`/`seed` configure the Monte-Carlo sampler; without a
            // model they would silently do nothing, so reject them with the
            // orphaned line.
            let orphan = samples_line
                .map(|line| (line, "samples"))
                .into_iter()
                .chain(seed_line.map(|line| (line, "seed")))
                .min();
            if let Some((line, key)) = orphan {
                return Err(ManifestError::VariationRequired {
                    line,
                    key: key.to_string(),
                });
            }
        }
        Ok(manifest)
    }

    /// Renders the manifest in canonical form: sources first, then every
    /// non-default key, one per line. `parse(to_text(m)) == m` for every
    /// valid manifest.
    pub fn to_text(&self) -> String {
        let defaults = Manifest::default();
        let mut out = String::new();
        for source in &self.sources {
            match source {
                InstanceSource::Suite(name) => {
                    let _ = writeln!(out, "suite {name}");
                }
                InstanceSource::Ti { sinks, seed } => {
                    if *seed == DEFAULT_TI_SEED {
                        let _ = writeln!(out, "instance ti:{sinks}");
                    } else {
                        let _ = writeln!(out, "instance ti:{sinks}:{seed}");
                    }
                }
                InstanceSource::Stress {
                    sinks,
                    seed,
                    layout,
                } => {
                    let mut spec = format!("stress:{sinks}");
                    if *seed != DEFAULT_STRESS_SEED {
                        let _ = write!(spec, ":{seed}");
                    }
                    if *layout != StressLayout::default() {
                        let _ = write!(spec, ":{}", layout.label());
                    }
                    let _ = writeln!(out, "instance {spec}");
                }
                InstanceSource::File(path) => {
                    let _ = writeln!(out, "instance file:{path}");
                }
            }
        }
        if self.technology != defaults.technology {
            let _ = writeln!(out, "technology ti45");
        }
        if self.profile != defaults.profile {
            let profile = match self.profile {
                Profile::Default => "default",
                Profile::Fast => "fast",
                Profile::Scalability => "scalability",
            };
            let _ = writeln!(out, "profile {profile}");
        }
        if self.topology != defaults.topology {
            let topology = match self.topology {
                TopologyKind::Dme => "dme",
                TopologyKind::GreedyMatching => "greedy-matching",
                TopologyKind::HTree => "h-tree",
                TopologyKind::Fishbone => "fishbone",
            };
            let _ = writeln!(out, "topology {topology}");
        }
        if self.model != defaults.model {
            let model = match self.model {
                DelayModel::Elmore => "elmore",
                DelayModel::TwoPole => "two-pole",
                DelayModel::Transient => "transient",
            };
            let _ = writeln!(out, "model {model}");
        }
        if self.large_inverters {
            let _ = writeln!(out, "large-inverters true");
        }
        if !self.corners.is_empty() {
            let labels: Vec<&str> = self.corners.iter().map(|c| c.label()).collect();
            let _ = writeln!(out, "corners {}", labels.join(","));
        }
        if let Some(model) = &self.variation {
            if *model == VariationModel::typical_45nm() {
                let _ = writeln!(out, "variation typical-45nm");
            } else {
                let _ = writeln!(
                    out,
                    "variation {},{},{},{},{}",
                    model.wire_res_sigma,
                    model.wire_cap_sigma,
                    model.buffer_res_sigma,
                    model.vdd_sigma,
                    model.spatial_correlation
                );
            }
            if self.samples != defaults.samples {
                let _ = writeln!(out, "samples {}", self.samples);
            }
            if self.seed != defaults.seed {
                let _ = writeln!(out, "seed {}", self.seed);
            }
        }
        if let Some(stages) = &self.stages {
            let _ = writeln!(out, "stages {}", stages.join(","));
        }
        if !self.skip.is_empty() {
            let _ = writeln!(out, "skip {}", self.skip.join(","));
        }
        if !self.baselines.is_empty() {
            let labels: Vec<&str> = self.baselines.iter().map(BaselineKind::label).collect();
            let _ = writeln!(out, "baselines {}", labels.join(","));
        }
        if self.threads != defaults.threads {
            let _ = writeln!(out, "threads {}", self.threads);
        }
        if let Some(construct_threads) = self.construct_threads {
            let _ = writeln!(out, "construct-threads {construct_threads}");
        }
        if let Some(dir) = &self.cache_dir {
            let _ = writeln!(out, "cache-dir {dir}");
        }
        if let Some(workers) = self.workers {
            let _ = writeln!(out, "workers {workers}");
        }
        if let DispatchMode::Tcp(addr) = &self.dispatch {
            let _ = writeln!(out, "dispatch tcp:{addr}");
        }
        out
    }

    /// The technology the manifest's flows run under.
    pub fn technology(&self) -> Technology {
        match self.technology {
            TechnologyKind::Ispd09 => Technology::ispd09(),
            TechnologyKind::Ti45 => Technology::ti45(),
        }
    }

    /// The flow configuration the manifest describes. Construction stays
    /// serial unless `construct-threads` is set: under the campaign
    /// executor, `threads` shards whole flows, so N workers use N cores
    /// instead of oversubscribing them with a nested construction fan-out
    /// (results are bit-identical either way). Extreme-scale manifests —
    /// one huge instance instead of many small ones — set
    /// `construct-threads` to spend the cores *inside* the single job.
    pub fn flow_config(&self) -> FlowConfig {
        let mut config = match self.profile {
            Profile::Default => FlowConfig::default(),
            Profile::Fast => FlowConfig::fast(),
            Profile::Scalability => FlowConfig::scalability(),
        };
        config.use_large_inverters = self.large_inverters;
        config.topology = self.topology;
        config.model = self.model;
        config.parallel = match self.construct_threads {
            None => ParallelConfig::serial(),
            Some(threads) => ParallelConfig::with_threads(threads),
        };
        config
    }

    /// The Contango job the manifest implies for one instance — the single
    /// job-construction path shared by [`Manifest::compile`], the CLI `run`
    /// and `suite` subcommands, and serve requests.
    pub fn job_for(&self, instance: &ClockNetInstance) -> Job {
        Job::contango(&self.technology(), self.flow_config(), instance)
            .with_stages(self.stages.clone())
            .with_skip(self.skip.clone())
            .with_corners(self.corners.clone())
            .with_variation(self.variation_spec())
    }

    /// The Monte-Carlo variation axis the manifest implies, if any —
    /// applied to Contango and baseline jobs alike so the whole matrix is
    /// analyzed under the same sample population.
    pub fn variation_spec(&self) -> Option<VariationSpec> {
        self.variation.map(|model| VariationSpec {
            model,
            samples: self.samples,
            seed: self.seed,
        })
    }

    /// Resolves the manifest's sources into instances, in declaration
    /// order. `allow_files` gates `file:` sources (the serve daemon passes
    /// `false` unless file access is explicitly enabled).
    ///
    /// # Errors
    ///
    /// [`ManifestError::NoSources`] for an instance-less manifest,
    /// [`ManifestError::FileSourceForbidden`]/[`ManifestError::Io`]/
    /// [`ManifestError::Parse`] for `file:` sources.
    pub fn instances(&self, allow_files: bool) -> Result<Vec<ClockNetInstance>, ManifestError> {
        if self.sources.is_empty() {
            return Err(ManifestError::NoSources);
        }
        let mut instances = Vec::new();
        for source in &self.sources {
            match source {
                InstanceSource::Suite(_) => {
                    for spec in contango_benchmarks::generator::ispd09_suite() {
                        instances.push(contango_benchmarks::generator::make_instance(&spec));
                    }
                }
                InstanceSource::Ti { sinks, seed } => {
                    instances.push(contango_benchmarks::generator::ti_instance(*sinks, *seed));
                }
                InstanceSource::Stress {
                    sinks,
                    seed,
                    layout,
                } => {
                    instances.push(contango_benchmarks::generator::stress_instance(
                        *sinks, *seed, *layout,
                    ));
                }
                InstanceSource::File(path) => {
                    if !allow_files {
                        return Err(ManifestError::FileSourceForbidden { path: path.clone() });
                    }
                    let text = std::fs::read_to_string(path).map_err(|e| ManifestError::Io {
                        path: path.clone(),
                        message: e.to_string(),
                    })?;
                    instances.push(contango_benchmarks::format::parse_instance(&text).map_err(
                        |e| ManifestError::Parse {
                            path: path.clone(),
                            message: e.to_string(),
                        },
                    )?);
                }
            }
        }
        Ok(instances)
    }

    /// Compiles the manifest into the equivalent [`Campaign`]: for every
    /// instance, the Contango job ([`Manifest::job_for`]) followed by one
    /// job per baseline. A baseline job ([`Job::baseline`]) runs under the
    /// manifest's technology, delay model, corners and variation, with its
    /// own fast-profile budgets and stages. `allow_files` gates `file:`
    /// sources and the `cache-dir` key alike.
    ///
    /// # Errors
    ///
    /// See [`Manifest::instances`]; additionally
    /// [`ManifestError::CacheDirForbidden`] for a `cache-dir` key under
    /// `allow_files == false` and [`ManifestError::Io`] when the store
    /// cannot be opened.
    pub fn compile_with(&self, allow_files: bool) -> Result<Campaign, ManifestError> {
        let tech = self.technology();
        let mut campaign = Campaign::new().threads(self.threads);
        if let Some(dir) = &self.cache_dir {
            if !allow_files {
                return Err(ManifestError::CacheDirForbidden { path: dir.clone() });
            }
            let store = contango_sim::CacheStore::open(dir).map_err(|e| match e {
                contango_sim::StoreError::Io { path, message } => ManifestError::Io {
                    path: path.display().to_string(),
                    message,
                },
            })?;
            campaign = campaign.with_cache(std::sync::Arc::new(store));
        }
        for instance in self.instances(allow_files)? {
            campaign = campaign.push(self.job_for(&instance));
            for &kind in &self.baselines {
                let mut job = Job::baseline(kind, &tech, &instance)
                    .with_corners(self.corners.clone())
                    .with_variation(self.variation_spec());
                job.config.model = self.model;
                campaign = campaign.push(job);
            }
        }
        Ok(campaign)
    }

    /// [`Manifest::compile_with`] with file sources allowed — the offline
    /// (CLI, library) path.
    ///
    /// # Errors
    ///
    /// See [`Manifest::instances`].
    pub fn compile(&self) -> Result<Campaign, ManifestError> {
        self.compile_with(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_manifest_parses() {
        let text = "\
# experiment: ablation over the battery
# (the suite adds seven instances)
suite ispd09
instance ti:120
instance ti:80:0xbeef
profile fast
technology ti45
topology h-tree
model two-pole
large-inverters on
stages TBSZ,twsz
skip bwsn
baselines wiresizing-only,dme-no-tuning
threads 4
";
        let m = Manifest::parse(text).expect("parses");
        assert_eq!(
            m.sources,
            vec![
                InstanceSource::Suite("ispd09".to_string()),
                InstanceSource::Ti {
                    sinks: 120,
                    seed: DEFAULT_TI_SEED
                },
                InstanceSource::Ti {
                    sinks: 80,
                    seed: 0xbeef
                },
            ]
        );
        assert_eq!(m.profile, Profile::Fast);
        assert_eq!(m.technology, TechnologyKind::Ti45);
        assert_eq!(m.topology, TopologyKind::HTree);
        assert_eq!(m.model, DelayModel::TwoPole);
        assert!(m.large_inverters);
        assert_eq!(m.stages, Some(vec!["TBSZ".to_string(), "TWSZ".to_string()]));
        assert_eq!(m.skip, vec!["BWSN".to_string()]);
        assert_eq!(
            m.baselines,
            vec![BaselineKind::WiresizingOnly, BaselineKind::DmeNoTuning]
        );
        assert_eq!(m.threads, 4);
    }

    #[test]
    fn canonical_text_round_trips() {
        let text = "\
suite ispd09
instance ti:80:48879
instance file:runs/bench#1.cts
technology ti45
profile fast
topology h-tree
model two-pole
large-inverters true
stages TBSZ,TWSZ
skip BWSN
baselines wiresizing-only,dme-no-tuning
threads 4
cache-dir /tmp/contango-cache#2
workers 3
dispatch tcp:127.0.0.1:7979
";
        let m = Manifest::parse(text).expect("parses");
        // A `#` inside a value is part of the value, not a comment.
        assert_eq!(
            m.sources[2],
            InstanceSource::File("runs/bench#1.cts".to_string())
        );
        assert_eq!(m.cache_dir.as_deref(), Some("/tmp/contango-cache#2"));
        assert_eq!(m.workers, Some(3));
        assert_eq!(m.dispatch, DispatchMode::Tcp("127.0.0.1:7979".to_string()));
        assert_eq!(m.to_text(), text);
        assert_eq!(Manifest::parse(&m.to_text()).expect("reparses"), m);
        // A default-heavy manifest renders only its sources.
        let m = Manifest::parse("instance ti:50\n").expect("parses");
        assert_eq!(m.to_text(), "instance ti:50\n");
    }

    #[test]
    fn errors_carry_the_offending_line() {
        let err = Manifest::parse("suite ispd09\nwat 3\n").unwrap_err();
        assert_eq!(
            err,
            ManifestError::UnknownKey {
                line: 2,
                key: "wat".to_string()
            }
        );
        let err = Manifest::parse("threads\n").unwrap_err();
        assert_eq!(
            err,
            ManifestError::MissingValue {
                line: 1,
                key: "threads".to_string()
            }
        );
        let err = Manifest::parse("profile fast\nprofile default\n").unwrap_err();
        assert_eq!(
            err,
            ManifestError::DuplicateKey {
                line: 2,
                key: "profile".to_string()
            }
        );
        let err = Manifest::parse("suite ispd10\n").unwrap_err();
        assert!(matches!(err, ManifestError::UnknownSuite { line: 1, .. }));
        let err = Manifest::parse("stages TBSZ,MESH\n").unwrap_err();
        assert!(matches!(
            err,
            ManifestError::UnknownStage { line: 1, ref stage } if stage == "MESH"
        ));
        let err = Manifest::parse("skip INITIAL\n").unwrap_err();
        assert_eq!(err, ManifestError::SkipInitial { line: 1 });
        let err = Manifest::parse("stages ,\n").unwrap_err();
        assert_eq!(err, ManifestError::EmptyStages { line: 1 });
        let err = Manifest::parse("instance ti:0\n").unwrap_err();
        assert!(matches!(err, ManifestError::InvalidValue { line: 1, .. }));
        let err = Manifest::parse("baselines ntu2009\n").unwrap_err();
        assert!(matches!(err, ManifestError::InvalidValue { line: 1, .. }));
        for err in [
            Manifest::parse("instance socket:9\n").unwrap_err(),
            Manifest::parse("instance file:\n").unwrap_err(),
            Manifest::parse("threads many\n").unwrap_err(),
            Manifest::parse("large-inverters maybe\n").unwrap_err(),
            Manifest::parse("workers 0\n").unwrap_err(),
            Manifest::parse("workers two\n").unwrap_err(),
            Manifest::parse("dispatch tcp:\n").unwrap_err(),
            Manifest::parse("dispatch carrier-pigeon\n").unwrap_err(),
        ] {
            assert!(matches!(err, ManifestError::InvalidValue { .. }), "{err}");
        }
    }

    #[test]
    fn variation_and_corner_keys_round_trip_canonically() {
        let text = "\
instance ti:50
corners nominal,slow,low-vdd
variation typical-45nm
samples 12
seed 99
";
        let m = Manifest::parse(text).expect("parses");
        assert_eq!(
            m.corners,
            vec![CornerKind::Nominal, CornerKind::Slow, CornerKind::LowVdd]
        );
        assert_eq!(m.variation, Some(VariationModel::typical_45nm()));
        assert_eq!(m.samples, 12);
        assert_eq!(m.seed, 99);
        assert_eq!(m.to_text(), text);
        assert_eq!(Manifest::parse(&m.to_text()).expect("reparses"), m);

        // An explicit sigma list renders back as the same five floats, and
        // a hex seed canonicalizes to decimal.
        let m = Manifest::parse(
            "instance ti:50\ncorners all\nvariation 0.1,0.05,0,0.025,0.75\nseed 0xbeef\n",
        )
        .expect("parses");
        assert_eq!(m.corners, CornerKind::all().to_vec());
        assert_eq!(
            m.variation,
            Some(VariationModel {
                wire_res_sigma: 0.1,
                wire_cap_sigma: 0.05,
                buffer_res_sigma: 0.0,
                vdd_sigma: 0.025,
                spatial_correlation: 0.75,
            })
        );
        assert_eq!(
            m.to_text(),
            "instance ti:50\ncorners nominal,slow,fast,low-vdd\n\
             variation 0.1,0.05,0,0.025,0.75\nseed 48879\n"
        );
        assert_eq!(Manifest::parse(&m.to_text()).expect("reparses"), m);

        // `corners none` and `variation none` are the defaults and render
        // away; default samples/seed render away too.
        let m = Manifest::parse("instance ti:50\ncorners none\nvariation none\n").expect("parses");
        assert_eq!(m, Manifest::parse("instance ti:50\n").expect("parses"));
        assert_eq!(m.to_text(), "instance ti:50\n");
        let m = Manifest::parse(&format!(
            "instance ti:50\nvariation typical-45nm\nsamples {DEFAULT_SAMPLES}\n\
             seed {DEFAULT_VARIATION_SEED}\n"
        ))
        .expect("parses");
        assert_eq!(m.to_text(), "instance ti:50\nvariation typical-45nm\n");
    }

    #[test]
    fn variation_keys_reject_malformed_values_with_line_numbers() {
        let err = Manifest::parse("instance ti:6\ncorners nominal,typical\n").unwrap_err();
        assert_eq!(
            err,
            ManifestError::InvalidValue {
                line: 2,
                key: "corners".to_string(),
                value: "typical".to_string(),
            }
        );
        for text in [
            "variation 65nm\n",
            "variation 0.1,0.1\n",              // wrong arity
            "variation 0.1,0.1,0.1,0.1,1.5\n",  // correlation above 1
            "variation -0.1,0.1,0.1,0.1,0.5\n", // negative sigma
            "variation 0.1,0.1,nan,0.1,0.5\n",  // non-finite sigma
            "variation typical-45nm\nsamples 0\n",
            "variation typical-45nm\nsamples few\n",
            "variation typical-45nm\nseed -3\n",
        ] {
            let err = Manifest::parse(text).unwrap_err();
            assert!(matches!(err, ManifestError::InvalidValue { .. }), "{text}");
        }
        // `samples`/`seed` without a model are orphaned, and the error
        // names the first orphan's line.
        let err = Manifest::parse("instance ti:6\nsamples 4\n").unwrap_err();
        assert_eq!(
            err,
            ManifestError::VariationRequired {
                line: 2,
                key: "samples".to_string(),
            }
        );
        let err = Manifest::parse("instance ti:6\nseed 3\nsamples 4\n").unwrap_err();
        assert_eq!(
            err,
            ManifestError::VariationRequired {
                line: 2,
                key: "seed".to_string(),
            }
        );
        let err = Manifest::parse("instance ti:6\nvariation none\nsamples 4\n").unwrap_err();
        assert!(matches!(err, ManifestError::VariationRequired { .. }));
        // Every new key is single-valued.
        for text in [
            "corners all\ncorners none\n",
            "variation none\nvariation typical-45nm\n",
            "variation typical-45nm\nsamples 2\nsamples 3\n",
            "variation typical-45nm\nseed 1\nseed 2\n",
        ] {
            let err = Manifest::parse(text).unwrap_err();
            assert!(matches!(err, ManifestError::DuplicateKey { .. }), "{text}");
        }
    }

    #[test]
    fn variation_and_corners_flow_into_every_job_of_the_matrix() {
        let m = Manifest::parse(
            "instance ti:6\nprofile fast\nbaselines dme-no-tuning\n\
             corners slow\nvariation typical-45nm\nsamples 3\nseed 5\n",
        )
        .expect("parses");
        let campaign = m.compile().expect("compiles");
        assert_eq!(campaign.jobs().len(), 2);
        for job in campaign.jobs() {
            assert_eq!(job.corners, vec![CornerKind::Slow]);
            assert_eq!(
                job.variation,
                Some(VariationSpec {
                    model: VariationModel::typical_45nm(),
                    samples: 3,
                    seed: 5,
                })
            );
        }
    }

    #[test]
    fn stress_sources_parse_and_round_trip_canonically() {
        let m = Manifest::parse(
            "instance stress:1000\ninstance stress:2000:7\ninstance stress:3000:ring\n\
             instance stress:4000:9:uniform\n",
        )
        .expect("parses");
        assert_eq!(
            m.sources,
            vec![
                InstanceSource::Stress {
                    sinks: 1000,
                    seed: DEFAULT_STRESS_SEED,
                    layout: StressLayout::Clustered,
                },
                InstanceSource::Stress {
                    sinks: 2000,
                    seed: 7,
                    layout: StressLayout::Clustered,
                },
                InstanceSource::Stress {
                    sinks: 3000,
                    seed: DEFAULT_STRESS_SEED,
                    layout: StressLayout::RingOfClusters,
                },
                InstanceSource::Stress {
                    sinks: 4000,
                    seed: 9,
                    layout: StressLayout::Uniform,
                },
            ]
        );
        assert_eq!(Manifest::parse(&m.to_text()).expect("reparses"), m);
        // Defaults render away; non-defaults render in seed-then-layout
        // order.
        assert_eq!(
            m.to_text(),
            "instance stress:1000\ninstance stress:2000:7\ninstance stress:3000:ring\n\
             instance stress:4000:9:uniform\n"
        );
        // Stress sources are generated, so they need no file access (the
        // serve daemon can run them).
        let m = Manifest::parse("instance stress:50\n").expect("parses");
        let instances = m.instances(false).expect("generates");
        assert_eq!(instances[0].sink_count(), 50);
        assert!(instances[0].name.starts_with("stress_clustered"));
        // Malformed specs are rejected with the line.
        for text in [
            "instance stress:0\n",
            "instance stress:\n",
            "instance stress:100:spiral\n",
            "instance stress:100:7:ring:extra\n",
            "instance stress:100:ring:uniform\n",
        ] {
            let err = Manifest::parse(text).unwrap_err();
            assert!(
                matches!(err, ManifestError::InvalidValue { line: 1, .. }),
                "{text}"
            );
        }
    }

    #[test]
    fn construct_threads_key_drives_the_flow_fanout() {
        // Absent: construction stays serial under the campaign executor.
        let m = Manifest::parse("instance ti:6\n").expect("parses");
        assert_eq!(m.construct_threads, None);
        assert_eq!(m.flow_config().parallel, ParallelConfig::serial());
        // Present: the flow spends its own threads inside construction.
        let m = Manifest::parse("instance stress:100\nconstruct-threads 4\n").expect("parses");
        assert_eq!(m.construct_threads, Some(4));
        assert_eq!(m.flow_config().parallel, ParallelConfig::with_threads(4));
        assert_eq!(m.to_text(), "instance stress:100\nconstruct-threads 4\n");
        assert_eq!(Manifest::parse(&m.to_text()).expect("reparses"), m);
        // `construct-threads 0` is auto-detect and round-trips explicitly.
        let m = Manifest::parse("instance ti:6\nconstruct-threads 0\n").expect("parses");
        assert_eq!(m.flow_config().parallel, ParallelConfig::auto());
        assert_eq!(m.to_text(), "instance ti:6\nconstruct-threads 0\n");
        // Malformed and duplicate keys are rejected.
        assert!(matches!(
            Manifest::parse("construct-threads many\n").unwrap_err(),
            ManifestError::InvalidValue { .. }
        ));
        assert!(matches!(
            Manifest::parse("construct-threads 1\nconstruct-threads 2\n").unwrap_err(),
            ManifestError::DuplicateKey { .. }
        ));
    }

    #[test]
    fn dispatch_defaults_to_local_worker_spawning() {
        let m = Manifest::parse("instance ti:6\nworkers 2\n").expect("parses");
        assert_eq!(m.workers, Some(2));
        assert_eq!(m.dispatch, DispatchMode::Local);
        // `dispatch local` parses but is the default, so it renders away.
        let m = Manifest::parse("instance ti:6\ndispatch local\n").expect("parses");
        assert_eq!(m.to_text(), "instance ti:6\n");
    }

    #[test]
    fn compile_builds_the_contango_plus_baselines_matrix() {
        let m = Manifest::parse(
            "instance ti:6\ninstance ti:9\nprofile fast\nbaselines dme-no-tuning\nthreads 2\n",
        )
        .expect("parses");
        let campaign = m.compile().expect("compiles");
        let tools: Vec<&str> = campaign.jobs().iter().map(|j| j.tool.as_str()).collect();
        assert_eq!(
            tools,
            ["contango", "dme-no-tuning", "contango", "dme-no-tuning"]
        );
        assert_eq!(campaign.jobs()[0].instance.sink_count(), 6);
        assert_eq!(campaign.jobs()[2].instance.sink_count(), 9);
        // Construction inside campaign jobs stays serial.
        assert_eq!(campaign.jobs()[0].config.parallel, ParallelConfig::serial());
    }

    #[test]
    fn sourceless_manifests_and_forbidden_files_are_rejected() {
        let m = Manifest::parse("profile fast\n").expect("parses");
        assert_eq!(m.compile().unwrap_err(), ManifestError::NoSources);
        let m = Manifest::parse("instance file:/tmp/x.cts\n").expect("parses");
        assert_eq!(
            m.compile_with(false).unwrap_err(),
            ManifestError::FileSourceForbidden {
                path: "/tmp/x.cts".to_string()
            }
        );
        let m = Manifest::parse("instance file:/nonexistent/x.cts\n").expect("parses");
        assert!(matches!(m.compile().unwrap_err(), ManifestError::Io { .. }));
        // The cache directory is filesystem access too, and gated the same
        // way as `file:` sources.
        let m = Manifest::parse("instance ti:6\ncache-dir /tmp/c\n").expect("parses");
        assert_eq!(
            m.compile_with(false).unwrap_err(),
            ManifestError::CacheDirForbidden {
                path: "/tmp/c".to_string()
            }
        );
        let err = Manifest::parse("cache-dir a\ncache-dir b\n").unwrap_err();
        assert_eq!(
            err,
            ManifestError::DuplicateKey {
                line: 2,
                key: "cache-dir".to_string()
            }
        );
    }

    #[test]
    fn stage_selection_flows_into_the_jobs() {
        let m = Manifest::parse("instance ti:6\nstages TWSN,TWSZ\nskip TWSZ\n").expect("parses");
        let campaign = m.compile().expect("compiles");
        assert_eq!(
            campaign.jobs()[0].pipeline().acronyms(),
            ["INITIAL", "TWSN"]
        );
    }
}
