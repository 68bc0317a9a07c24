//! The `contango serve` wire protocol: one JSON object per line.
//!
//! Requests and responses travel as newline-delimited JSON (NDJSON) over a
//! plain TCP stream — the same framing as the campaign JSONL reports, so
//! the hand-rolled [`crate::jsonl`] encoder and [`crate::json`] decoder
//! cover both. Every frame is self-describing and carries the request
//! [`RequestId`] so responses can be matched even when a connection
//! pipelines many requests and the pool completes them out of order.
//!
//! Requests:
//!
//! ```text
//! {"id":1,"kind":"run","manifest":"suite ispd09\n...","report":"table","format":"text"}
//! {"id":2,"kind":"ping"}
//! {"id":3,"kind":"shutdown"}
//! ```
//!
//! Responses (`status` discriminates):
//!
//! ```text
//! {"id":1,"status":"ok","jobs":28,"failed":0,"output":"..."}
//! {"id":2,"status":"pong","workers":4,"queue_capacity":64}
//! {"id":3,"status":"shutting-down"}
//! {"id":1,"status":"error","kind":"overloaded","message":"..."}
//! ```
//!
//! Decoding is total: any line — malformed JSON, wrong types, unknown
//! kinds — yields a typed [`ServerError`], never a panic, and the server
//! answers it with a `status:"error"` frame ([`Response::Error`]) echoing
//! the request id whenever one could be salvaged from the frame.
//!
//! The distributed campaign runner ([`crate::dist`]) speaks a second frame
//! family over the same NDJSON framing, discriminated by a `frame` key.
//! Worker → coordinator ([`WorkerFrame`]):
//!
//! ```text
//! {"frame":"hello","protocol":2,"slots":2,"name":"w0"}
//! {"frame":"job-done","seq":12,"record":{"benchmark":"r1","tool":"contango",...}}
//! {"frame":"job-failed","seq":12,"message":"assignment references job 99 of 28"}
//! {"frame":"heartbeat"}
//! ```
//!
//! Coordinator → worker ([`CoordFrame`]):
//!
//! ```text
//! {"frame":"init","protocol":2,"manifest":"suite ispd09\n..."}
//! {"frame":"assign","seq":12,"job":3}
//! {"frame":"drain"}
//! ```
//!
//! `job-done` carries the report JSONL record of [`crate::jsonl`] plus the
//! fields reports leave out: wall-clock `runtime_s` after `spice_runs`,
//! and per stage `max_latency_ps`, `total_cap`, `wirelength_um` and
//! `slew_violation`. All floats are encoded with Rust's
//! shortest-round-trip `Display` and parsed back with `str::parse::<f64>`,
//! and integers decode exactly, so a record survives the wire
//! bit-identically and the coordinator's aggregate reports match a serial
//! in-process run byte for byte. Job-level flow errors cross as their
//! rendered message and are reconstructed as [`CoreError::Remote`], whose
//! `Display` is the message verbatim — failure tables and JSONL stay
//! byte-identical too.
//!
//! Every dist peer and the serve client frame their streams the same way:
//! one frame per `\n`-terminated line, blank lines skipped, and a final
//! line without its `\n` is a torn frame that ends the stream.

use crate::json::{JsonError, JsonValue};
use crate::jsonl::{escape_into, record_into};
use crate::manifest::ManifestError;
use crate::output::{ReportKind, TableFormat};
use crate::runner::{CornerMetrics, JobMetrics, JobRecord, VariationMetrics};
use contango_benchmarks::report::RunSummary;
use contango_core::error::CoreError;
use contango_core::flow::StageSnapshot;
use contango_sim::{CacheCounters, VariationModel};
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// A client-chosen request correlator, echoed verbatim in the response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestId {
    /// A non-negative integer id.
    Number(u64),
    /// A string id.
    Text(String),
}

impl RequestId {
    fn encode_into(&self, out: &mut String) {
        match self {
            RequestId::Number(n) => {
                let _ = write!(out, "{n}");
            }
            RequestId::Text(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
        }
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestId::Number(n) => write!(f, "{n}"),
            RequestId::Text(s) => write!(f, "{s}"),
        }
    }
}

/// What a request asks the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Compile the manifest text and run the resulting campaign.
    Run {
        /// Manifest text ([`crate::manifest`] format).
        manifest: String,
        /// Which report to render into the response `output`.
        report: ReportKind,
        /// Table layout for [`ReportKind::Table`].
        format: TableFormat,
    },
    /// Liveness/status probe.
    Ping,
    /// Drain in-flight and queued jobs, then stop the server.
    Shutdown,
}

/// One decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The client's correlator, echoed in the response.
    pub id: RequestId,
    /// The requested action.
    pub body: RequestBody,
}

/// A typed request failure, as reported to clients in a
/// [`Response::Error`] frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The frame is not valid JSON.
    Malformed(JsonError),
    /// The frame is valid JSON but not a valid request.
    Invalid(String),
    /// The request manifest failed to parse or compile.
    Manifest(ManifestError),
    /// The request queue is full; retry later.
    Overloaded {
        /// The queue capacity that was exceeded.
        capacity: usize,
    },
    /// The server is draining and accepts no new work.
    ShuttingDown,
}

impl ServerError {
    /// The machine-readable error discriminator carried in the `kind`
    /// field of a [`Response::Error`] frame.
    pub fn kind(&self) -> &'static str {
        match self {
            ServerError::Malformed(_) => "malformed",
            ServerError::Invalid(_) => "invalid-request",
            ServerError::Manifest(_) => "manifest",
            ServerError::Overloaded { .. } => "overloaded",
            ServerError::ShuttingDown => "shutting-down",
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Malformed(e) => write!(f, "malformed request frame: {e}"),
            ServerError::Invalid(message) => write!(f, "invalid request: {message}"),
            ServerError::Manifest(e) => write!(f, "manifest error: {e}"),
            ServerError::Overloaded { capacity } => {
                write!(f, "request queue is full ({capacity} pending); retry later")
            }
            ServerError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServerError {}

/// A request decode failure: the error, plus the request id when one could
/// still be salvaged from the frame (so the error response can echo it).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// The salvaged request id, if the frame carried a readable one.
    pub id: Option<RequestId>,
    /// What was wrong with the frame.
    pub error: ServerError,
}

/// Reads the next NDJSON frame line, skipping lines of ASCII whitespace.
/// The bytes are decoded lossily, so a frame that is not UTF-8 reaches its
/// decoder and fails there as malformed. `Ok(None)` means the stream
/// ended: EOF, or a final frame without its `\n`, which is dropped.
pub(crate) fn read_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 || line.last() != Some(&b'\n') {
            return Ok(None);
        }
        if !line.iter().all(u8::is_ascii_whitespace) {
            return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
        }
    }
}

/// Writes one encoded frame as a line and flushes it.
pub(crate) fn write_line(writer: &mut (impl Write + ?Sized), mut frame: String) -> io::Result<()> {
    frame.push('\n');
    writer.write_all(frame.as_bytes())?;
    writer.flush()
}

/// Reads an `id` field as a [`RequestId`].
fn decode_id(value: &JsonValue) -> Result<RequestId, ServerError> {
    match value {
        JsonValue::String(s) => Ok(RequestId::Text(s.clone())),
        _ => value.as_u64().map(RequestId::Number).ok_or_else(|| {
            ServerError::Invalid("`id` must be a non-negative integer or a string".to_string())
        }),
    }
}

fn require_str<'a>(frame: &'a JsonValue, key: &str, kind: &str) -> Result<&'a str, ServerError> {
    frame
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ServerError::Invalid(format!("`{kind}` request needs a string `{key}`")))
}

impl Request {
    /// Decodes one request frame.
    ///
    /// # Errors
    ///
    /// Returns a [`RequestError`] carrying the salvaged id (when the frame
    /// had a readable one) and the typed [`ServerError`] to report.
    pub fn decode(line: &str) -> Result<Request, RequestError> {
        let no_id = |error: ServerError| RequestError { id: None, error };
        let frame = JsonValue::parse(line).map_err(|e| no_id(ServerError::Malformed(e)))?;
        if !matches!(frame, JsonValue::Object(_)) {
            return Err(no_id(ServerError::Invalid(
                "request frame must be a JSON object".to_string(),
            )));
        }
        let id = frame
            .get("id")
            .ok_or_else(|| no_id(ServerError::Invalid("request needs an `id`".to_string())))
            .and_then(|v| decode_id(v).map_err(no_id))?;
        let with_id = |error: ServerError| RequestError {
            id: Some(id.clone()),
            error,
        };
        let kind = frame
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| {
                with_id(ServerError::Invalid(
                    "request needs a string `kind`".to_string(),
                ))
            })?;
        let body = match kind {
            "run" => {
                let manifest = require_str(&frame, "manifest", "run").map_err(&with_id)?;
                let report = match frame.get("report") {
                    None => ReportKind::default(),
                    Some(v) => v.as_str().and_then(ReportKind::from_label).ok_or_else(|| {
                        with_id(ServerError::Invalid(
                            "`report` must be \"table\", \"jsonl\", \"pareto\" or \
                             \"frontier-jsonl\""
                                .to_string(),
                        ))
                    })?,
                };
                let format = match frame.get("format") {
                    None => TableFormat::default(),
                    Some(v) => v
                        .as_str()
                        .and_then(TableFormat::from_label)
                        .ok_or_else(|| {
                            with_id(ServerError::Invalid(
                                "`format` must be \"text\", \"markdown\" or \"csv\"".to_string(),
                            ))
                        })?,
                };
                RequestBody::Run {
                    manifest: manifest.to_string(),
                    report,
                    format,
                }
            }
            "ping" => RequestBody::Ping,
            "shutdown" => RequestBody::Shutdown,
            other => {
                return Err(with_id(ServerError::Invalid(format!(
                    "unknown request kind `{other}`"
                ))))
            }
        };
        Ok(Request { id, body })
    }

    /// Encodes the request as one NDJSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"id\":");
        self.id.encode_into(&mut out);
        match &self.body {
            RequestBody::Run {
                manifest,
                report,
                format,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"run\",\"report\":\"{}\",\"format\":\"{}\",\"manifest\":\"",
                    report.label(),
                    format.label()
                );
                escape_into(&mut out, manifest);
                out.push('"');
            }
            RequestBody::Ping => out.push_str(",\"kind\":\"ping\""),
            RequestBody::Shutdown => out.push_str(",\"kind\":\"shutdown\""),
        }
        out.push('}');
        out
    }
}

/// One response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A `run` request completed (individual jobs may still have failed —
    /// `failed` counts them, and the failure detail is in `output`).
    RunOk {
        /// Echo of the request id.
        id: RequestId,
        /// Number of jobs the compiled campaign ran.
        jobs: usize,
        /// Number of jobs that failed.
        failed: usize,
        /// The rendered report ([`crate::output::suite_output`]), rendered
        /// identically to the offline CLI `suite` output.
        output: String,
        /// Aggregated deterministic cache profile of the request's jobs,
        /// when the daemon ran them against a persistent store. Carried
        /// separately so `output` stays byte-identical to offline runs.
        cache: Option<CacheCounters>,
    },
    /// Answer to a `ping`.
    Pong {
        /// Echo of the request id.
        id: RequestId,
        /// Worker-pool width.
        workers: usize,
        /// Request-queue capacity.
        queue_capacity: usize,
    },
    /// Acknowledgement that the server is draining and will stop.
    ShutdownAck {
        /// Echo of the request id.
        id: RequestId,
    },
    /// A request failed before running.
    Error {
        /// Echo of the request id, when the frame carried a readable one.
        id: Option<RequestId>,
        /// Machine-readable discriminator ([`ServerError::kind`]).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The error response for a failed request.
    pub fn error(id: Option<RequestId>, error: &ServerError) -> Response {
        Response::Error {
            id,
            kind: error.kind().to_string(),
            message: error.to_string(),
        }
    }

    /// The request id the response echoes, if any.
    pub fn id(&self) -> Option<&RequestId> {
        match self {
            Response::RunOk { id, .. }
            | Response::Pong { id, .. }
            | Response::ShutdownAck { id } => Some(id),
            Response::Error { id, .. } => id.as_ref(),
        }
    }

    /// Encodes the response as one NDJSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        match self {
            Response::RunOk {
                id,
                jobs,
                failed,
                output,
                cache,
            } => {
                out.push_str("{\"id\":");
                id.encode_into(&mut out);
                let _ = write!(
                    out,
                    ",\"status\":\"ok\",\"jobs\":{jobs},\"failed\":{failed}"
                );
                if let Some(c) = cache {
                    let _ = write!(
                        out,
                        ",\"cache\":{{\"mem_hits\":{},\"disk_hits\":{},\"misses\":{},\
                         \"evictions\":{}}}",
                        c.mem_hits, c.disk_hits, c.misses, c.evictions
                    );
                }
                out.push_str(",\"output\":\"");
                escape_into(&mut out, output);
                out.push('"');
            }
            Response::Pong {
                id,
                workers,
                queue_capacity,
            } => {
                out.push_str("{\"id\":");
                id.encode_into(&mut out);
                let _ = write!(
                    out,
                    ",\"status\":\"pong\",\"workers\":{workers},\"queue_capacity\":{queue_capacity}"
                );
            }
            Response::ShutdownAck { id } => {
                out.push_str("{\"id\":");
                id.encode_into(&mut out);
                out.push_str(",\"status\":\"shutting-down\"");
            }
            Response::Error { id, kind, message } => {
                out.push_str("{\"id\":");
                match id {
                    Some(id) => id.encode_into(&mut out),
                    None => out.push_str("null"),
                }
                out.push_str(",\"status\":\"error\",\"kind\":\"");
                escape_into(&mut out, kind);
                out.push_str("\",\"message\":\"");
                escape_into(&mut out, message);
                out.push('"');
            }
        }
        out.push('}');
        out
    }

    /// Decodes one response frame (the client half).
    ///
    /// # Errors
    ///
    /// [`ServerError::Malformed`]/[`ServerError::Invalid`] when the line is
    /// not a valid response frame.
    pub fn decode(line: &str) -> Result<Response, ServerError> {
        let frame = JsonValue::parse(line).map_err(ServerError::Malformed)?;
        let invalid = |message: &str| ServerError::Invalid(message.to_string());
        let id = match frame.get("id") {
            None => return Err(invalid("response needs an `id`")),
            Some(JsonValue::Null) => None,
            Some(v) => Some(decode_id(v)?),
        };
        let status = frame
            .get("status")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| invalid("response needs a string `status`"))?;
        let need_id = |id: Option<RequestId>| {
            id.ok_or_else(|| invalid("response `id` must not be null here"))
        };
        let need_count = |key: &str| {
            frame
                .get(key)
                .and_then(JsonValue::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| ServerError::Invalid(format!("response needs a numeric `{key}`")))
        };
        let cache = decode_cache_field(&frame)?;
        match status {
            "ok" => Ok(Response::RunOk {
                id: need_id(id)?,
                jobs: need_count("jobs")?,
                failed: need_count("failed")?,
                output: require_str(&frame, "output", "ok")?.to_string(),
                cache,
            }),
            "pong" => Ok(Response::Pong {
                id: need_id(id)?,
                workers: need_count("workers")?,
                queue_capacity: need_count("queue_capacity")?,
            }),
            "shutting-down" => Ok(Response::ShutdownAck { id: need_id(id)? }),
            "error" => Ok(Response::Error {
                id,
                kind: require_str(&frame, "kind", "error")?.to_string(),
                message: require_str(&frame, "message", "error")?.to_string(),
            }),
            other => Err(ServerError::Invalid(format!(
                "unknown response status `{other}`"
            ))),
        }
    }
}

/// Reads an optional `cache` object as [`CacheCounters`]. Shared between
/// [`Response::decode`] and the distributed job-record codec.
fn decode_cache_field(frame: &JsonValue) -> Result<Option<CacheCounters>, ServerError> {
    match frame.get("cache") {
        None | Some(JsonValue::Null) => Ok(None),
        Some(obj) => {
            let field = |key: &str| {
                obj.get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| ServerError::Invalid(format!("`cache` needs a numeric `{key}`")))
            };
            Ok(Some(CacheCounters {
                mem_hits: field("mem_hits")?,
                disk_hits: field("disk_hits")?,
                misses: field("misses")?,
                evictions: field("evictions")?,
            }))
        }
    }
}

/// Version of the distributed-campaign frame protocol. Workers announce it
/// in `hello`, the coordinator in `init`; either side drops a mismatched
/// peer instead of guessing.
pub const DIST_PROTOCOL: u64 = 2;

fn require_u64(frame: &JsonValue, key: &str, kind: &str) -> Result<u64, ServerError> {
    frame.get(key).and_then(JsonValue::as_u64).ok_or_else(|| {
        ServerError::Invalid(format!(
            "`{kind}` frame needs a non-negative integer `{key}`"
        ))
    })
}

fn require_f64(obj: &JsonValue, key: &str, kind: &str) -> Result<f64, ServerError> {
    obj.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| ServerError::Invalid(format!("`{kind}` needs a numeric `{key}`")))
}

/// Decodes the wire form of a [`JobRecord`] ([`record_into`]). Flow errors
/// come back as [`CoreError::Remote`] carrying the original rendered
/// message.
fn decode_record(obj: &JsonValue) -> Result<JobRecord, ServerError> {
    if !matches!(obj, JsonValue::Object(_)) {
        return Err(ServerError::Invalid(
            "`record` must be a JSON object".to_string(),
        ));
    }
    let benchmark = require_str(obj, "benchmark", "record")?.to_string();
    let tool = require_str(obj, "tool", "record")?.to_string();
    let sinks = require_u64(obj, "sinks", "record")? as usize;
    let outcome = match require_str(obj, "status", "record")? {
        "ok" => {
            let summary = RunSummary {
                benchmark: benchmark.clone(),
                tool: tool.clone(),
                clr: require_f64(obj, "clr_ps", "record")?,
                skew: require_f64(obj, "skew_ps", "record")?,
                max_latency: require_f64(obj, "max_latency_ps", "record")?,
                cap_pct: require_f64(obj, "cap_pct", "record")?,
                wirelength: require_f64(obj, "wirelength_um", "record")?,
                buffers: require_u64(obj, "buffers", "record")? as usize,
                spice_runs: require_u64(obj, "spice_runs", "record")? as usize,
                runtime_s: require_f64(obj, "runtime_s", "record")?,
            };
            let stages = obj
                .get("stages")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| {
                    ServerError::Invalid("`record` needs a `stages` array".to_string())
                })?;
            let mut snapshots = Vec::with_capacity(stages.len());
            for snap in stages {
                snapshots.push(StageSnapshot {
                    stage: require_str(snap, "stage", "stage")?.to_string(),
                    clr: require_f64(snap, "clr_ps", "stage")?,
                    skew: require_f64(snap, "skew_ps", "stage")?,
                    max_latency: require_f64(snap, "max_latency_ps", "stage")?,
                    total_cap: require_f64(snap, "total_cap", "stage")?,
                    wirelength: require_f64(snap, "wirelength_um", "stage")?,
                    slew_violation: snap
                        .get("slew_violation")
                        .and_then(JsonValue::as_bool)
                        .ok_or_else(|| {
                            ServerError::Invalid(
                                "`stage` needs a boolean `slew_violation`".to_string(),
                            )
                        })?,
                });
            }
            Ok(JobMetrics {
                summary,
                snapshots,
                corners: decode_corners_field(obj)?,
                variation: decode_variation_field(obj)?,
            })
        }
        "error" => Err(CoreError::Remote {
            message: require_str(obj, "error", "record")?.to_string(),
        }),
        other => {
            return Err(ServerError::Invalid(format!(
                "unknown record status `{other}`"
            )))
        }
    };
    Ok(JobRecord {
        benchmark,
        tool,
        sinks,
        outcome,
        cache: decode_cache_field(obj)?,
    })
}

/// Reads the optional `corners` array of a record (absent = corner-less
/// job; the encoder omits the key when the list is empty).
fn decode_corners_field(obj: &JsonValue) -> Result<Vec<CornerMetrics>, ServerError> {
    let Some(corners) = obj.get("corners") else {
        return Ok(Vec::new());
    };
    let corners = corners.as_array().ok_or_else(|| {
        ServerError::Invalid("`corners` must be an array of corner objects".to_string())
    })?;
    corners
        .iter()
        .map(|c| {
            Ok(CornerMetrics {
                corner: require_str(c, "corner", "corner")?.to_string(),
                clr: require_f64(c, "clr", "corner")?,
                skew: require_f64(c, "skew", "corner")?,
                max_latency: require_f64(c, "max_latency", "corner")?,
            })
        })
        .collect()
}

/// Decodes a [`VariationModel`] object — the model's real wire codec (its
/// serde derive was a no-op against the vendored stub); the matching
/// encoder is [`crate::jsonl::variation_model_into`].
pub(crate) fn decode_variation_model(obj: &JsonValue) -> Result<VariationModel, ServerError> {
    Ok(VariationModel {
        wire_res_sigma: require_f64(obj, "wire_res_sigma", "model")?,
        wire_cap_sigma: require_f64(obj, "wire_cap_sigma", "model")?,
        buffer_res_sigma: require_f64(obj, "buffer_res_sigma", "model")?,
        vdd_sigma: require_f64(obj, "vdd_sigma", "model")?,
        spatial_correlation: require_f64(obj, "spatial_correlation", "model")?,
    })
}

/// Reads the optional `variation` block of a record.
fn decode_variation_field(obj: &JsonValue) -> Result<Option<VariationMetrics>, ServerError> {
    let Some(variation) = obj.get("variation") else {
        return Ok(None);
    };
    let model = variation
        .get("model")
        .filter(|v| matches!(v, JsonValue::Object(_)))
        .ok_or_else(|| ServerError::Invalid("`variation` needs a `model` object".to_string()))?;
    let skews = variation
        .get("skews")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| ServerError::Invalid("`variation` needs a `skews` array".to_string()))?
        .iter()
        .map(|v| {
            v.as_f64().ok_or_else(|| {
                ServerError::Invalid("`skews` must contain only numbers".to_string())
            })
        })
        .collect::<Result<Vec<f64>, ServerError>>()?;
    Ok(Some(VariationMetrics {
        samples: require_u64(variation, "samples", "variation")? as usize,
        seed: require_u64(variation, "seed", "variation")?,
        model: decode_variation_model(model)?,
        skews,
        worst_skew: require_f64(variation, "worst_skew", "variation")?,
        mean_skew: require_f64(variation, "mean_skew", "variation")?,
    }))
}

/// Reads the `frame` discriminator of a dist frame.
fn frame_kind(frame: &JsonValue) -> Result<&str, ServerError> {
    if !matches!(frame, JsonValue::Object(_)) {
        return Err(ServerError::Invalid(
            "frame must be a JSON object".to_string(),
        ));
    }
    frame
        .get("frame")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ServerError::Invalid("frame needs a string `frame` kind".to_string()))
}

/// A frame a distributed-campaign worker sends to its coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerFrame {
    /// First frame on a connection: the worker introduces itself and
    /// declares how many jobs it can hold in flight.
    Hello {
        /// The worker's [`DIST_PROTOCOL`] version.
        protocol: u64,
        /// In-flight job capacity (one warm session per slot).
        slots: usize,
        /// Display name for logs and stats.
        name: String,
    },
    /// An assignment completed. Job-level **flow** errors are still
    /// `job-done` — the record's outcome carries them, because they are
    /// deterministic results that must reduce byte-identically. Only
    /// infrastructure failures use [`WorkerFrame::JobFailed`].
    JobDone {
        /// The assignment's [`CoordFrame::Assign`] sequence number.
        seq: u64,
        /// The full-fidelity job record (boxed: a record with corner and
        /// variation metrics dwarfs every other frame variant).
        record: Box<JobRecord>,
    },
    /// The worker could not run an assignment at all (job index out of
    /// range, no init received); the coordinator requeues the job against
    /// its retry budget.
    JobFailed {
        /// The assignment's sequence number.
        seq: u64,
        /// Human-readable reason.
        message: String,
    },
    /// Liveness signal, sent on an interval while connected.
    Heartbeat,
}

impl WorkerFrame {
    /// Encodes the frame as one NDJSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        match self {
            WorkerFrame::Hello {
                protocol,
                slots,
                name,
            } => {
                let _ = write!(
                    out,
                    "{{\"frame\":\"hello\",\"protocol\":{protocol},\"slots\":{slots},\"name\":\""
                );
                escape_into(&mut out, name);
                out.push_str("\"}");
            }
            WorkerFrame::JobDone { seq, record } => {
                let _ = write!(out, "{{\"frame\":\"job-done\",\"seq\":{seq},\"record\":");
                record_into(&mut out, record, true);
                out.push('}');
            }
            WorkerFrame::JobFailed { seq, message } => {
                let _ = write!(
                    out,
                    "{{\"frame\":\"job-failed\",\"seq\":{seq},\"message\":\""
                );
                escape_into(&mut out, message);
                out.push_str("\"}");
            }
            WorkerFrame::Heartbeat => out.push_str("{\"frame\":\"heartbeat\"}"),
        }
        out
    }

    /// Decodes one worker frame.
    ///
    /// # Errors
    ///
    /// [`ServerError::Malformed`]/[`ServerError::Invalid`] when the line is
    /// not a valid worker frame. Decoding is total — no input panics.
    pub fn decode(line: &str) -> Result<WorkerFrame, ServerError> {
        let frame = JsonValue::parse(line).map_err(ServerError::Malformed)?;
        match frame_kind(&frame)? {
            "hello" => Ok(WorkerFrame::Hello {
                protocol: require_u64(&frame, "protocol", "hello")?,
                slots: require_u64(&frame, "slots", "hello")? as usize,
                name: require_str(&frame, "name", "hello")?.to_string(),
            }),
            "job-done" => Ok(WorkerFrame::JobDone {
                seq: require_u64(&frame, "seq", "job-done")?,
                record: Box::new(decode_record(frame.get("record").ok_or_else(|| {
                    ServerError::Invalid("`job-done` frame needs a `record`".to_string())
                })?)?),
            }),
            "job-failed" => Ok(WorkerFrame::JobFailed {
                seq: require_u64(&frame, "seq", "job-failed")?,
                message: require_str(&frame, "message", "job-failed")?.to_string(),
            }),
            "heartbeat" => Ok(WorkerFrame::Heartbeat),
            other => Err(ServerError::Invalid(format!(
                "unknown worker frame `{other}`"
            ))),
        }
    }
}

/// A frame the distributed-campaign coordinator sends to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordFrame {
    /// First frame after a worker's hello: the manifest whose compiled job
    /// list both sides share. Assignments address jobs by index into it.
    Init {
        /// The coordinator's [`DIST_PROTOCOL`] version.
        protocol: u64,
        /// Manifest text ([`crate::manifest`] format).
        manifest: String,
    },
    /// Run one job of the shared job list.
    Assign {
        /// Coordinator-unique assignment sequence number, echoed in the
        /// worker's `job-done`/`job-failed`.
        seq: u64,
        /// Index into the compiled job list.
        job: usize,
    },
    /// No more work — finish in-flight jobs and disconnect.
    Drain,
}

impl CoordFrame {
    /// Encodes the frame as one NDJSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        match self {
            CoordFrame::Init { protocol, manifest } => {
                let _ = write!(
                    out,
                    "{{\"frame\":\"init\",\"protocol\":{protocol},\"manifest\":\""
                );
                escape_into(&mut out, manifest);
                out.push_str("\"}");
            }
            CoordFrame::Assign { seq, job } => {
                let _ = write!(out, "{{\"frame\":\"assign\",\"seq\":{seq},\"job\":{job}}}");
            }
            CoordFrame::Drain => out.push_str("{\"frame\":\"drain\"}"),
        }
        out
    }

    /// Decodes one coordinator frame.
    ///
    /// # Errors
    ///
    /// [`ServerError::Malformed`]/[`ServerError::Invalid`] when the line is
    /// not a valid coordinator frame. Decoding is total — no input panics.
    pub fn decode(line: &str) -> Result<CoordFrame, ServerError> {
        let frame = JsonValue::parse(line).map_err(ServerError::Malformed)?;
        match frame_kind(&frame)? {
            "init" => Ok(CoordFrame::Init {
                protocol: require_u64(&frame, "protocol", "init")?,
                manifest: require_str(&frame, "manifest", "init")?.to_string(),
            }),
            "assign" => Ok(CoordFrame::Assign {
                seq: require_u64(&frame, "seq", "assign")?,
                job: require_u64(&frame, "job", "assign")? as usize,
            }),
            "drain" => Ok(CoordFrame::Drain),
            other => Err(ServerError::Invalid(format!(
                "unknown coordinator frame `{other}`"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request {
                id: RequestId::Number(7),
                body: RequestBody::Run {
                    manifest: "suite ispd09\nprofile fast\n".to_string(),
                    report: ReportKind::Jsonl,
                    format: TableFormat::Csv,
                },
            },
            Request {
                id: RequestId::Text("probe-1".to_string()),
                body: RequestBody::Ping,
            },
            Request {
                id: RequestId::Number(0),
                body: RequestBody::Shutdown,
            },
        ];
        for request in requests {
            let line = request.encode();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Request::decode(&line).expect("decodes"), request);
        }
    }

    #[test]
    fn run_defaults_apply_when_report_and_format_are_absent() {
        let request =
            Request::decode(r#"{"id":1,"kind":"run","manifest":"suite ispd09"}"#).expect("decodes");
        assert_eq!(
            request.body,
            RequestBody::Run {
                manifest: "suite ispd09".to_string(),
                report: ReportKind::Table,
                format: TableFormat::Text,
            }
        );
    }

    #[test]
    fn bad_requests_salvage_the_id_when_possible() {
        // Malformed JSON: no id to salvage.
        let err = Request::decode("{\"id\":3,").unwrap_err();
        assert_eq!(err.id, None);
        assert!(matches!(err.error, ServerError::Malformed(_)));
        // Valid JSON, bad kind: id salvaged.
        let err = Request::decode(r#"{"id":3,"kind":"explode"}"#).unwrap_err();
        assert_eq!(err.id, Some(RequestId::Number(3)));
        assert!(matches!(err.error, ServerError::Invalid(_)));
        // Run without manifest: id salvaged.
        let err = Request::decode(r#"{"id":"a","kind":"run"}"#).unwrap_err();
        assert_eq!(err.id, Some(RequestId::Text("a".to_string())));
        // Fractional / negative ids are rejected.
        for line in [r#"{"id":1.5,"kind":"ping"}"#, r#"{"id":-1,"kind":"ping"}"#] {
            let err = Request::decode(line).unwrap_err();
            assert_eq!(err.id, None);
            assert!(matches!(err.error, ServerError::Invalid(_)));
        }
        // Non-object frames.
        let err = Request::decode("[1,2,3]").unwrap_err();
        assert!(matches!(err.error, ServerError::Invalid(_)));
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::RunOk {
                id: RequestId::Number(7),
                jobs: 28,
                failed: 2,
                output: "a\tb\n\"quoted\"\n".to_string(),
                cache: None,
            },
            Response::RunOk {
                id: RequestId::Number(8),
                jobs: 3,
                failed: 0,
                output: "ok\n".to_string(),
                cache: Some(CacheCounters {
                    mem_hits: 40,
                    disk_hits: 12,
                    misses: 3,
                    evictions: 1,
                }),
            },
            Response::Pong {
                id: RequestId::Text("probe".to_string()),
                workers: 4,
                queue_capacity: 64,
            },
            Response::ShutdownAck {
                id: RequestId::Number(9),
            },
            Response::error(None, &ServerError::Overloaded { capacity: 8 }),
            Response::error(
                Some(RequestId::Number(3)),
                &ServerError::Invalid("nope".to_string()),
            ),
        ];
        for response in responses {
            let line = response.encode();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Response::decode(&line).expect("decodes"), response);
        }
    }

    fn sample_ok_record() -> JobRecord {
        JobRecord {
            benchmark: "r1".to_string(),
            tool: "contango".to_string(),
            sinks: 267,
            outcome: Ok(JobMetrics {
                summary: RunSummary {
                    benchmark: "r1".to_string(),
                    tool: "contango".to_string(),
                    clr: 0.1 + 0.2, // deliberately not representable exactly
                    skew: -0.0,
                    max_latency: 1234.5678901234567,
                    cap_pct: 87.3,
                    wirelength: 1.0e-12,
                    buffers: 41,
                    spice_runs: 902,
                    runtime_s: 0.037218812,
                },
                snapshots: vec![
                    StageSnapshot {
                        stage: "INITIAL".to_string(),
                        clr: 42.0,
                        skew: 17.25,
                        max_latency: 900.0,
                        total_cap: 8.5e3,
                        wirelength: 120_000.5,
                        slew_violation: false,
                    },
                    StageSnapshot {
                        stage: "TBSZ".to_string(),
                        clr: 12.000000000000002,
                        skew: 3.3,
                        max_latency: 880.0,
                        total_cap: 9.0e3,
                        wirelength: 119_000.0,
                        slew_violation: true,
                    },
                ],
                corners: vec![
                    CornerMetrics {
                        corner: "slow".to_string(),
                        clr: 13.7,
                        skew: 4.125,
                        max_latency: 910.0000000000001,
                    },
                    CornerMetrics {
                        corner: "low-vdd".to_string(),
                        clr: 15.0,
                        skew: 5.5,
                        max_latency: 1024.0,
                    },
                ],
                variation: Some(VariationMetrics {
                    samples: 3,
                    seed: 0xC0FFEE,
                    model: VariationModel::typical_45nm(),
                    skews: vec![3.1000000000000005, 2.9, 0.1 + 0.2],
                    worst_skew: 3.1000000000000005,
                    mean_skew: 2.1000000000000005,
                }),
            }),
            cache: Some(CacheCounters {
                mem_hits: 11,
                disk_hits: 4,
                misses: 2,
                evictions: 0,
            }),
        }
    }

    #[test]
    fn worker_frames_round_trip() {
        let failed = JobRecord {
            benchmark: "r2\"quoted\"".to_string(),
            tool: "weak-buffering".to_string(),
            sinks: 598,
            outcome: Err(CoreError::Remote {
                message: "pass TBSZ: no composite configuration fits".to_string(),
            }),
            cache: None,
        };
        let frames = [
            WorkerFrame::Hello {
                protocol: DIST_PROTOCOL,
                slots: 2,
                name: "worker-0\nline".to_string(),
            },
            WorkerFrame::JobDone {
                seq: 12,
                record: Box::new(sample_ok_record()),
            },
            WorkerFrame::JobDone {
                seq: 13,
                record: Box::new(failed),
            },
            WorkerFrame::JobFailed {
                seq: 14,
                message: "assignment references job 99 of 28".to_string(),
            },
            WorkerFrame::Heartbeat,
        ];
        for frame in frames {
            let line = frame.encode();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(WorkerFrame::decode(&line).expect("decodes"), frame);
        }
    }

    #[test]
    fn job_records_cross_the_wire_bit_identically() {
        // A structured flow error crosses as its rendered message and must
        // render identically on the coordinator side.
        let original = CoreError::Pass {
            pass: "TBSZ".to_string(),
            source: Box::new(CoreError::BufferBudget {
                budget_ff: 900.0,
                budget_pct: 90.0,
            }),
        };
        let record = JobRecord {
            benchmark: "r3".to_string(),
            tool: "contango".to_string(),
            sinks: 862,
            outcome: Err(original.clone()),
            cache: None,
        };
        let line = WorkerFrame::JobDone {
            seq: 1,
            record: Box::new(record),
        }
        .encode();
        let WorkerFrame::JobDone { record, .. } = WorkerFrame::decode(&line).expect("decodes")
        else {
            panic!("wrong frame");
        };
        let remote = record.outcome.expect_err("error outcome survives");
        assert_eq!(remote.to_string(), original.to_string());

        // Floats survive encode -> decode -> re-encode byte-identically.
        let first = WorkerFrame::JobDone {
            seq: 2,
            record: Box::new(sample_ok_record()),
        }
        .encode();
        let reencoded = WorkerFrame::decode(&first).expect("decodes").encode();
        assert_eq!(first, reencoded);
    }

    #[test]
    fn integers_above_2_pow_53_cross_the_wire_exactly() {
        for big in [(1_u64 << 53) + 1, u64::MAX] {
            let mut record = sample_ok_record();
            if let Ok(metrics) = &mut record.outcome {
                metrics.variation.as_mut().expect("sample samples").seed = big;
            }
            let done = WorkerFrame::JobDone {
                seq: big,
                record: Box::new(record),
            };
            assert_eq!(WorkerFrame::decode(&done.encode()).expect("decodes"), done);
            let request = Request {
                id: RequestId::Number(big),
                body: RequestBody::Ping,
            };
            assert_eq!(
                Request::decode(&request.encode()).expect("decodes"),
                request
            );
            let response = Response::Pong {
                id: RequestId::Number(big),
                workers: 1,
                queue_capacity: 1,
            };
            assert_eq!(
                Response::decode(&response.encode()).expect("decodes"),
                response
            );
        }
    }

    #[test]
    fn coord_frames_round_trip() {
        let frames = [
            CoordFrame::Init {
                protocol: DIST_PROTOCOL,
                manifest: "suite ispd09\nprofile fast\n".to_string(),
            },
            CoordFrame::Assign { seq: 7, job: 3 },
            CoordFrame::Drain,
        ];
        for frame in frames {
            let line = frame.encode();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(CoordFrame::decode(&line).expect("decodes"), frame);
        }
    }

    #[test]
    fn dist_frames_reject_garbage_with_typed_errors() {
        for line in [
            "",
            "{\"frame\":\"hello\"",
            "[1,2]",
            r#"{"frame":"explode"}"#,
            r#"{"frame":"hello","protocol":-1,"slots":2,"name":"w"}"#,
            r#"{"frame":"job-done","seq":1}"#,
            r#"{"frame":"job-done","seq":1,"record":{"benchmark":"b","tool":"t","sinks":1,"status":"what"}}"#,
            r#"{"frame":"job-done","seq":1,"record":{"benchmark":"b","tool":"t","sinks":1,"status":"ok"}}"#,
            r#"{"frame":"job-done","seq":1,"record":{"benchmark":"b","tool":"t","sinks":1,"status":"ok","clr_ps":1,"skew_ps":1,"max_latency_ps":1,"cap_pct":1,"wirelength_um":1,"buffers":1,"spice_runs":1,"runtime_s":1,"stages":[],"corners":7}}"#,
            r#"{"frame":"job-done","seq":1,"record":{"benchmark":"b","tool":"t","sinks":1,"status":"ok","clr_ps":1,"skew_ps":1,"max_latency_ps":1,"cap_pct":1,"wirelength_um":1,"buffers":1,"spice_runs":1,"runtime_s":1,"stages":[],"variation":{"samples":1}}}"#,
            r#"{"frame":"job-done","seq":1,"record":{"benchmark":"b","tool":"t","sinks":1,"status":"ok","clr_ps":1,"skew_ps":1,"max_latency_ps":1,"cap_pct":1,"wirelength_um":1,"buffers":1,"spice_runs":1,"stages":[]}}"#,
        ] {
            assert!(WorkerFrame::decode(line).is_err(), "{line}");
        }
        for line in ["", r#"{"frame":"assign","seq":1}"#, r#"{"frame":7}"#] {
            assert!(CoordFrame::decode(line).is_err(), "{line}");
        }
    }

    #[test]
    fn error_kinds_are_stable() {
        assert_eq!(
            ServerError::Malformed(JsonError {
                offset: 0,
                kind: crate::json::JsonErrorKind::UnexpectedEof
            })
            .kind(),
            "malformed"
        );
        assert_eq!(
            ServerError::Invalid(String::new()).kind(),
            "invalid-request"
        );
        assert_eq!(
            ServerError::Manifest(ManifestError::NoSources).kind(),
            "manifest"
        );
        assert_eq!(ServerError::Overloaded { capacity: 1 }.kind(), "overloaded");
        assert_eq!(ServerError::ShuttingDown.kind(), "shutting-down");
    }
}
