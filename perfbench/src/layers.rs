//! Per-layer instrumentation built only from the library's public API:
//! timing wrappers around the five pipeline passes, a [`FlowObserver`] for
//! the end-of-pass evaluations, a construction replay through the public
//! sub-step functions, a transient-solver replay over a finished netlist,
//! and codec timings on a workload's own manifests and frames.

use contango_campaign::output::suite_output;
use contango_campaign::{
    CampaignResult, Job, Manifest, ReportKind, Request, RequestBody, RequestId, Response,
    TableFormat,
};
use contango_core::buffering::{default_candidates, split_long_edges};
use contango_core::construct::{
    build_topology_with, choose_buffers_with, construct_initial, ConstructArena, ConstructConfig,
};
use contango_core::error::CoreError;
use contango_core::flow::StageSnapshot;
use contango_core::obstacles::repair_obstacle_violations;
use contango_core::pipeline::{
    BottomLevelPass, BufferSizingPass, InitialConstruction, WireSizingPass, WireSnakingPass,
};
use contango_core::polarity::correct_polarity;
use contango_core::{ClockTree, FlowObserver, Pass, PassCtx, PassOutcome, Pipeline};
use contango_sim::{Netlist, TransientSolver};
use contango_tech::Technology;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Accumulated cost of one pass acronym.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassCost {
    /// Wall time inside `Pass::run`, s.
    pub seconds: f64,
    /// Evaluator runs ("SPICE runs") the pass made.
    pub evals: u64,
    /// Transition solves that ran the stage solver.
    pub solves: u64,
    /// Accepted rounds reported by the pass.
    pub rounds: u64,
}

/// What the timing wrappers and the observer record across flows.
#[derive(Debug, Default)]
pub struct PassLog {
    /// Per-acronym cost, summed over every flow run with this log.
    pub passes: BTreeMap<String, PassCost>,
    /// End-of-pass evaluation plus snapshot, s.
    pub snapshot_s: f64,
    /// When the last pass body returned.
    last_pass_end: Option<Instant>,
    /// When the last end-of-pass snapshot was delivered.
    pub last_snapshot: Option<Instant>,
}

/// A pass wrapped in a timer that also reads the evaluator's counters
/// before and after the pass.
struct Timed<P> {
    inner: P,
    log: Rc<RefCell<PassLog>>,
}

impl<P: Pass> Pass for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn acronym(&self) -> &str {
        self.inner.acronym()
    }

    fn run(&self, tree: &mut ClockTree, ctx: &mut PassCtx<'_>) -> Result<PassOutcome, CoreError> {
        let runs = ctx.opt.evaluator.runs();
        let solves = ctx.opt.evaluator.stats().solve_misses;
        let started = Instant::now();
        let outcome = self.inner.run(tree, ctx);
        let ended = Instant::now();
        let mut log = self.log.borrow_mut();
        log.last_pass_end = Some(ended);
        let cost = log.passes.entry(self.acronym().to_string()).or_default();
        cost.seconds += (ended - started).as_secs_f64();
        cost.evals += (ctx.opt.evaluator.runs() - runs) as u64;
        cost.solves += ctx.opt.evaluator.stats().solve_misses - solves;
        if let Ok(outcome) = &outcome {
            cost.rounds += outcome.rounds as u64;
        }
        outcome
    }
}

/// Observer that closes each pass's snapshot interval.
pub struct SnapshotClock {
    /// The log shared with the pass wrappers.
    pub log: Rc<RefCell<PassLog>>,
}

impl FlowObserver for SnapshotClock {
    fn on_pass_end(&mut self, _pass: &dyn Pass, _snapshot: &StageSnapshot, _outcome: &PassOutcome) {
        let now = Instant::now();
        let mut log = self.log.borrow_mut();
        if let Some(end) = log.last_pass_end {
            log.snapshot_s += (now - end).as_secs_f64();
        }
        log.last_snapshot = Some(now);
    }
}

/// The job's pipeline with every pass rebuilt from the job's flow config
/// and wrapped in a timer.
pub fn timed_pipeline(job: &Job, log: &Rc<RefCell<PassLog>>) -> Pipeline {
    let config = &job.config;
    let mut pipeline = Pipeline::new();
    for acronym in job.pipeline().acronyms() {
        let log = Rc::clone(log);
        pipeline = match acronym {
            "INITIAL" => pipeline.with_pass(Timed {
                inner: InitialConstruction::from_config(config),
                log,
            }),
            "TBSZ" => pipeline.with_pass(Timed {
                inner: BufferSizingPass::from_config(config),
                log,
            }),
            "TWSZ" => pipeline.with_pass(Timed {
                inner: WireSizingPass::from_config(config),
                log,
            }),
            "TWSN" => pipeline.with_pass(Timed {
                inner: WireSnakingPass::from_config(config),
                log,
            }),
            "BWSN" => pipeline.with_pass(Timed {
                inner: BottomLevelPass::from_config(config),
                log,
            }),
            other => panic!("the benchmark's jobs only use the paper's passes, not `{other}`"),
        };
    }
    pipeline
}

/// Sub-step times of one construction replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConstructCost {
    pub topology_s: f64,
    pub repair_s: f64,
    pub split_s: f64,
    pub buffering_s: f64,
    pub polarity_s: f64,
    /// Nodes of the finished INITIAL tree.
    pub nodes: usize,
    /// Construction arena watermark after the replay, bytes.
    pub arena_bytes: u64,
}

impl ConstructCost {
    /// Sums times and node counts; keeps the larger arena watermark.
    pub fn absorb(&mut self, other: &ConstructCost) {
        self.topology_s += other.topology_s;
        self.repair_s += other.repair_s;
        self.split_s += other.split_s;
        self.buffering_s += other.buffering_s;
        self.polarity_s += other.polarity_s;
        self.nodes += other.nodes;
        self.arena_bytes = self.arena_bytes.max(other.arena_bytes);
    }
}

/// Replays `construct_initial` for the job step by step through the public
/// sub-step functions, timing each, and checks the replayed tree equals
/// the engine's. Returns the cost and whether the trees match.
pub fn replay_construction(job: &Job) -> Result<(ConstructCost, bool), CoreError> {
    let config = &job.config;
    let (tech, instance) = (&job.tech, &job.instance);
    let mut arena = ConstructArena::new();
    let mut cost = ConstructCost::default();
    let timed = |slot: &mut f64, started: Instant| *slot += started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut tree =
        build_topology_with(config.topology, instance, tech, config.parallel, &mut arena);
    timed(&mut cost.topology_s, started);
    let candidates = default_candidates(tech, config.use_large_inverters);
    let strongest = candidates
        .iter()
        .map(|c| c.output_res())
        .fold(f64::INFINITY, f64::min);
    let started = Instant::now();
    repair_obstacle_violations(&mut tree, instance, tech, strongest);
    timed(&mut cost.repair_s, started);
    let started = Instant::now();
    split_long_edges(&mut tree, config.max_edge_len);
    timed(&mut cost.split_s, started);
    let started = Instant::now();
    let buffering = choose_buffers_with(
        &mut tree,
        tech,
        &candidates,
        instance.cap_limit,
        config.power_reserve,
        &instance.obstacles,
        config.parallel,
        &mut arena,
    )?;
    timed(&mut cost.buffering_s, started);
    let started = Instant::now();
    correct_polarity(&mut tree, buffering.composite);
    timed(&mut cost.polarity_s, started);
    cost.nodes = tree.len();
    cost.arena_bytes = arena.watermark().total_bytes();

    let engine_config = ConstructConfig {
        topology: config.topology,
        use_large_inverters: config.use_large_inverters,
        max_edge_len: config.max_edge_len,
        power_reserve: config.power_reserve,
        parallel: config.parallel,
    };
    let (engine, _) =
        construct_initial(instance, tech, &engine_config, &mut ConstructArena::new())?;
    Ok((cost, engine == tree))
}

/// Totals of one transient replay over a netlist.
#[derive(Debug, Default, Clone, Copy)]
pub struct TransientCost {
    pub solves: u64,
    pub steps: u64,
    pub node_steps: u64,
    pub seconds: f64,
}

impl TransientCost {
    /// Adds another replay's totals.
    pub fn absorb(&mut self, other: &TransientCost) {
        self.solves += other.solves;
        self.steps += other.steps;
        self.node_steps += other.node_steps;
        self.seconds += other.seconds;
    }
}

/// Solves every stage of `netlist` once with the transient solver, driven
/// like the evaluator drives it for a step input (no input-slew term).
pub fn replay_transient(netlist: &Netlist, tech: &Technology) -> TransientCost {
    let mut cost = TransientCost::default();
    let started = Instant::now();
    for stage in &netlist.stages {
        let driver = stage.driver.spec();
        let ramp = (2.0
            * contango_tech::units::rc_ps(driver.output_res, driver.output_cap.max(1.0)))
        .max(2.0);
        let solver = TransientSolver::new(
            &stage.tree,
            driver.output_res,
            tech.nominal_corner.vdd,
            ramp,
        );
        let result = black_box(solver.solve());
        cost.solves += 1;
        cost.steps += result.steps as u64;
        cost.node_steps += (result.steps * stage.tree.len()) as u64;
    }
    cost.seconds = started.elapsed().as_secs_f64();
    cost
}

/// Mean microseconds per call of `f`, over at least three calls and until
/// `budget` is spent.
fn mean_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || started.elapsed() < budget {
        f();
        calls += 1;
    }
    started.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

/// Codec timings on a workload's own manifests and results.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecCost {
    pub compile_us: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub render_us: f64,
}

/// Times `Manifest::parse` + `compile_with` (the daemon path) on each
/// manifest, the report render of each result, and the request/response
/// frame codecs carrying them. `pairs` holds (manifest text, result).
///
/// # Errors
///
/// A manifest that does not compile, or a frame that does not decode.
pub fn codec_timings(
    pairs: &[(String, &CampaignResult)],
    budget: Duration,
) -> Result<CodecCost, String> {
    let n = pairs.len().max(1) as f64;
    let mut cost = CodecCost::default();
    for (i, (text, result)) in pairs.iter().enumerate() {
        Manifest::parse(text)
            .and_then(|m| m.compile_with(false))
            .map_err(|e| format!("manifest `{}`: {e}", text.trim()))?;
        cost.compile_us += mean_us(budget, || {
            black_box(
                Manifest::parse(text)
                    .and_then(|m| m.compile_with(false))
                    .is_ok(),
            );
        }) / n;
        let output = suite_output(result, ReportKind::Table, TableFormat::Text);
        cost.render_us += mean_us(budget, || {
            black_box(suite_output(result, ReportKind::Table, TableFormat::Text).len());
        }) / n;
        let request = Request {
            id: RequestId::Number(i as u64 + 1),
            body: RequestBody::Run {
                manifest: text.clone(),
                report: ReportKind::Table,
                format: TableFormat::Text,
            },
        };
        let response = Response::RunOk {
            id: RequestId::Number(i as u64 + 1),
            jobs: result.records.len(),
            failed: result.failures().len(),
            output,
            cache: None,
        };
        cost.encode_us += mean_us(budget, || {
            black_box(request.encode().len() + response.encode().len());
        }) / n;
        let (request_line, response_line) = (request.encode(), response.encode());
        if Request::decode(&request_line).ok().as_ref() != Some(&request)
            || Response::decode(&response_line).ok().as_ref() != Some(&response)
        {
            return Err("a frame does not survive an encode/decode round trip".into());
        }
        cost.decode_us += mean_us(budget, || {
            black_box(
                Request::decode(&request_line).is_ok() && Response::decode(&response_line).is_ok(),
            );
        }) / n;
    }
    Ok(cost)
}
