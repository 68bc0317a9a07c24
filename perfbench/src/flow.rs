//! The `ispd09-flow` workload: the paper's five-stage flow on the
//! ISPD'09-style suite, default profile, transient model.
//!
//! The workload is a list of *replicas*: seven-instance job sets derived
//! from the workload seed. A run makes one campaign pass per replica in
//! turn until `--seconds` are spent, and always returns to replica 0 once,
//! so every run checks that a repetition reproduces a pass's quality bit
//! for bit. `wall_s` is the median pass time.

use crate::layers::{
    codec_timings, replay_construction, replay_transient, timed_pipeline, ConstructCost, PassLog,
    SnapshotClock, TransientCost,
};
use crate::{
    derive_seed, geomean, median, peak_rss_mb, percentile, tail_quantile, Options, Outcome, TAIL,
};
use contango_benchmarks::generator::{ispd09_suite, make_instance};
use contango_campaign::{Campaign, CampaignResult, Job, Manifest};
use contango_core::lower::to_netlist;
use contango_core::{ClockNetInstance, EngineSession, SlackAnalysis};
use contango_geom::Point;
use contango_sim::{CacheStats, XorShift};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Job sets per run. With a single set of seven jobs, skew, CLR and the
/// tail latency spread by 0.2–0.3 over five seeds; the instances' own
/// differences then outweigh the code's.
const REPLICAS: u64 = 4;

/// Traced pass pairs per run, at the least.
const MIN_PAIRS: usize = 2;

/// Set-ups timed together as one `setup_s` sample. A warm set-up takes
/// about a millisecond, too short to time steadily on its own on a shared
/// host.
const SETUP_BATCH: u32 = 32;

/// The manifest every replica's jobs come from.
const MANIFEST: &str = "suite ispd09\nthreads 1\n";

/// One seed-derived job set.
type Replica = Vec<Job>;

/// Generates every replica's instances and builds the jobs. Replica 0 of
/// seed 0 is exactly `contango-cts suite --suite ispd09`; every other
/// replica re-places the sinks.
fn setup(seed: u64) -> Result<Vec<Replica>, String> {
    let manifest = Manifest::parse(MANIFEST).map_err(|e| e.to_string())?;
    Ok((0..REPLICAS)
        .map(|replica| {
            ispd09_suite()
                .into_iter()
                .map(|spec| {
                    let mut instance = make_instance(&spec);
                    if seed != 0 || replica != 0 {
                        replace_sinks(&mut instance, derive_seed(seed, replica, spec.seed));
                    }
                    manifest.job_for(&instance)
                })
                .collect()
        })
        .collect())
}

/// Runs [`SETUP_BATCH`] set-ups back to back and returns the last one's
/// replicas with the mean seconds per set-up.
fn timed_setup(seed: u64) -> Result<(Vec<Replica>, f64), String> {
    let started = Instant::now();
    for _ in 1..SETUP_BATCH {
        black_box(setup(seed)?);
    }
    let replicas = setup(seed)?;
    let seconds = started.elapsed().as_secs_f64() / f64::from(SETUP_BATCH);
    Ok((replicas, seconds))
}

/// How far a re-placed sink may move, as a share of the die width (the
/// generator's register clusters span ±8%).
const SINK_REACH: f64 = 0.02;

/// Re-places every sink of a baseline instance within [`SINK_REACH`] of
/// its pin and rescales its capacitance by 0.8–1.2, keeping die, source,
/// budget and macros. A fresh ISPD'09-style floorplan per seed changes the
/// suite's flow time by up to 1.8x and its skew by 2x (one macro layout
/// can leave INITIAL with a slew violation that freezes every later pass);
/// re-placement keeps the instances new for every seed while the workload
/// stays the same suite.
fn replace_sinks(instance: &mut ClockNetInstance, seed: u64) {
    let mut rng = XorShift::new(seed);
    let reach = SINK_REACH * instance.die.width();
    let die = instance.die;
    for sink in &mut instance.sinks {
        let mut step = || (2.0 * rng.next_unit() - 1.0) * reach;
        let moved = Point::new(
            (sink.location.x + step()).clamp(die.lo.x + 1.0, die.hi.x - 1.0),
            (sink.location.y + step()).clamp(die.lo.y + 1.0, die.hi.y - 1.0),
        );
        if !instance.obstacles.contains_point_strict(moved) {
            sink.location = moved;
        }
        sink.cap *= 0.8 + 0.4 * rng.next_unit();
    }
}

/// One campaign pass over `jobs` at `threads 1`: the result, the pass wall
/// time, and each job's latency (completion to completion, the first from
/// the pass start).
fn campaign_pass(jobs: &[Job]) -> (CampaignResult, f64, Vec<f64>) {
    let campaign = Campaign::new().threads(1).extend(jobs.iter().cloned());
    let mut latencies = Vec::with_capacity(jobs.len());
    let started = Instant::now();
    let mut last = started;
    let result = campaign.run_streaming(|_| {
        let now = Instant::now();
        latencies.push((now - last).as_secs_f64());
        last = now;
    });
    (result, started.elapsed().as_secs_f64(), latencies)
}

/// The quality values a repetition must reproduce bit for bit: per job,
/// skew, CLR, wirelength and the evaluator-run count (or the error text).
type Fingerprint = Vec<Result<[u64; 4], String>>;

fn fingerprint(result: &CampaignResult) -> Fingerprint {
    result
        .records
        .iter()
        .map(|r| match &r.outcome {
            Ok(m) => Ok([
                m.summary.skew.to_bits(),
                m.summary.clr.to_bits(),
                m.summary.wirelength.to_bits(),
                m.summary.spice_runs as u64,
            ]),
            Err(e) => Err(e.to_string()),
        })
        .collect()
}

/// Checks every record of a pass (a job error is a failed operation) and,
/// from the job set's second pass on, that the pass reproduces the first's
/// quality.
fn check_pass(outcome: &mut Outcome, result: &CampaignResult, first: &mut Option<Fingerprint>) {
    for record in &result.records {
        outcome.check(record.outcome.is_ok(), || {
            format!(
                "{} failed: {:?}",
                record.benchmark,
                record.outcome.as_ref().err()
            )
        });
    }
    let print = fingerprint(result);
    match first {
        None => *first = Some(print),
        Some(seen) => outcome.check(*seen == print, || {
            "quality differs between repetitions of the job set".to_string()
        }),
    }
}

/// Replays construction for every job and checks it against the engine.
fn check_construction(outcome: &mut Outcome, jobs: &[Job]) -> ConstructCost {
    let mut total = ConstructCost::default();
    for job in jobs {
        match replay_construction(job) {
            Ok((cost, same)) => {
                outcome.check(same, || {
                    format!(
                        "{}: construction replay differs from construct_initial",
                        job.benchmark
                    )
                });
                total.absorb(&cost);
            }
            Err(e) => outcome.check(false, || format!("{}: replay failed: {e}", job.benchmark)),
        }
    }
    total
}

/// Runs the workload and returns its metrics.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let (replicas, setup_s) = timed_setup(options.seed)?;
    if options.trace {
        traced(options, &replicas[0])
    } else {
        untraced(options, &replicas, setup_s)
    }
}

/// Whether a run that has made `done` passes since `started` makes
/// another: always below `min` (at least 1), else while one more pass of
/// the mean length so far (set-up samples included) ends within `seconds`.
fn another_pass(started: Instant, done: usize, min: usize, seconds: f64) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    done < min || elapsed + elapsed / done as f64 <= seconds
}

/// The end-to-end run: passes cycle through the replicas, at least until
/// replica 0 ran twice. Latency and quality come from each replica's first
/// pass, so every job counts once. After each pass one more set-up batch
/// is timed, so `setup_s` samples the host's slow and fast spells as the
/// passes do.
fn untraced(options: &Options, replicas: &[Replica], setup_s: f64) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setup_times = vec![setup_s];
    let (mut pass_times, mut latencies) = (Vec::new(), Vec::new());
    let (mut skews, mut clrs) = (Vec::new(), Vec::new());
    let mut jobs_done = 0;
    let mut firsts = vec![None; replicas.len()];
    let started = Instant::now();
    while another_pass(
        started,
        pass_times.len(),
        replicas.len() + 1,
        options.seconds,
    ) {
        let k = pass_times.len() % replicas.len();
        let (result, wall, lat) = campaign_pass(&replicas[k]);
        pass_times.push(wall);
        jobs_done += result.records.len();
        if firsts[k].is_none() {
            latencies.extend(lat);
            for s in result.summaries() {
                skews.push(s.skew);
                clrs.push(s.clr);
            }
        }
        check_pass(&mut outcome, &result, &mut firsts[k]);
        setup_times.push(timed_setup(options.seed)?.1);
    }
    outcome.set("peak_rss_mb", peak_rss_mb());
    for replica in replicas {
        check_construction(&mut outcome, replica);
    }
    let busy: f64 = pass_times.iter().sum();
    let q = tail_quantile(TAIL, latencies.len());
    outcome.set("setup_s", median(&setup_times));
    outcome.set("wall_s", median(&pass_times));
    outcome.set("latency_p50_ms", 1e3 * median(&latencies));
    outcome.set("latency_p95_ms", 1e3 * percentile(&latencies, q));
    outcome.set("throughput_rps", jobs_done as f64 / busy);
    outcome.set("skew_ps", geomean(&skews));
    outcome.set("clr_ps", geomean(&clrs));
    Ok(outcome)
}

/// Per-layer costs of traced passes over the job set.
#[derive(Default)]
struct Traced {
    wall_s: f64,
    finish_s: f64,
    slack_s: f64,
    lower_s: f64,
    eval_runs: u64,
    stats: CacheStats,
    transient: TransientCost,
}

impl Traced {
    fn absorb(&mut self, other: &Traced) {
        self.wall_s += other.wall_s;
        self.finish_s += other.finish_s;
        self.slack_s += other.slack_s;
        self.lower_s += other.lower_s;
        self.eval_runs += other.eval_runs;
        add_stats(&mut self.stats, CacheStats::default(), other.stats);
        self.transient.absorb(&other.transient);
    }
}

/// Adds the counter growth from `before` to `after` into `total`.
fn add_stats(total: &mut CacheStats, before: CacheStats, after: CacheStats) {
    total.stage_hits += after.stage_hits - before.stage_hits;
    total.stage_misses += after.stage_misses - before.stage_misses;
    total.solve_hits += after.solve_hits - before.solve_hits;
    total.solve_misses += after.solve_misses - before.solve_misses;
    total.evictions += after.evictions - before.evictions;
}

/// Runs `jobs` like a `threads 1` campaign — longest-first, one session —
/// but through timed passes and the snapshot observer, then replays slack,
/// lowering and the transient solver on every finished tree outside the
/// timed pass. Checks each job's quality against the untraced `reference`.
fn traced_pass(
    outcome: &mut Outcome,
    jobs: &[Job],
    reference: &CampaignResult,
    log: &Rc<RefCell<PassLog>>,
) -> Traced {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(jobs[i].cost()));
    let mut traced = Traced::default();
    let mut session: Option<EngineSession> = None;
    let mut results = Vec::with_capacity(jobs.len());
    let started = Instant::now();
    for &i in &order {
        let job = &jobs[i];
        let session =
            session.get_or_insert_with(|| EngineSession::new(job.tech.clone(), job.config.model));
        session.retarget(&job.tech, job.config.model);
        let (runs, stats) = (session.evaluator().runs(), session.evaluator().stats());
        let pipeline = timed_pipeline(job, log);
        let mut clock = SnapshotClock {
            log: Rc::clone(log),
        };
        let result = session.run(&job.config, &pipeline, &job.instance, &mut clock);
        let returned = Instant::now();
        if let Some(snapshot) = log.borrow().last_snapshot {
            traced.finish_s += (returned - snapshot).as_secs_f64();
        }
        traced.eval_runs += (session.evaluator().runs() - runs) as u64;
        add_stats(&mut traced.stats, stats, session.evaluator().stats());
        results.push((i, result));
    }
    traced.wall_s = started.elapsed().as_secs_f64();

    for (i, result) in results {
        let job = &jobs[i];
        let result = match result {
            Ok(result) => result,
            Err(e) => {
                outcome.check(false, || {
                    format!("{}: traced run failed: {e}", job.benchmark)
                });
                continue;
            }
        };
        let same = reference.records[i].outcome.as_ref().is_ok_and(|m| {
            m.summary.skew.to_bits() == result.skew().to_bits()
                && m.summary.clr.to_bits() == result.clr().to_bits()
                && m.summary.spice_runs == result.spice_runs
        });
        outcome.check(same, || {
            format!(
                "{}: traced quality differs from the untraced run",
                job.benchmark
            )
        });
        let started = Instant::now();
        black_box(SlackAnalysis::compute(&result.tree, &result.report));
        traced.slack_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let netlist = to_netlist(
            &result.tree,
            &job.tech,
            &job.instance.source_spec,
            job.config.segment_um,
        );
        traced.lower_s += started.elapsed().as_secs_f64();
        if let Ok(netlist) = netlist {
            traced
                .transient
                .absorb(&replay_transient(&netlist, &job.tech));
        }
    }
    traced
}

/// Each pass's acronym and its metric names: seconds, evaluator runs,
/// solves and accepted rounds.
const PASS_METRICS: [(&str, [&str; 4]); 5] = [
    (
        "INITIAL",
        [
            "pass.INITIAL.s",
            "pass.INITIAL.evals",
            "pass.INITIAL.solves",
            "pass.INITIAL.rounds",
        ],
    ),
    (
        "TBSZ",
        [
            "pass.TBSZ.s",
            "pass.TBSZ.evals",
            "pass.TBSZ.solves",
            "pass.TBSZ.rounds",
        ],
    ),
    (
        "TWSZ",
        [
            "pass.TWSZ.s",
            "pass.TWSZ.evals",
            "pass.TWSZ.solves",
            "pass.TWSZ.rounds",
        ],
    ),
    (
        "TWSN",
        [
            "pass.TWSN.s",
            "pass.TWSN.evals",
            "pass.TWSN.solves",
            "pass.TWSN.rounds",
        ],
    ),
    (
        "BWSN",
        [
            "pass.BWSN.s",
            "pass.BWSN.evals",
            "pass.BWSN.solves",
            "pass.BWSN.rounds",
        ],
    ),
];

/// The traced run, on replica 0: one untraced campaign pass (the overhead
/// baseline and quality reference) then one traced pass of the same jobs,
/// repeated while another pair fits in `--seconds`. Per-layer figures are
/// means per pass; the shares are of the untraced pass time, the time
/// `wall_s` is made from, so campaign overhead the layers miss shows as
/// uncovered.
fn traced(options: &Options, jobs: &[Job]) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let log = Rc::new(RefCell::new(PassLog::default()));
    let mut total = Traced::default();
    let (mut untraced_wall, mut slew_violations) = (0.0, 0usize);
    let (mut first, mut reference) = (None, None);
    let started = Instant::now();
    let mut passes = 0;
    while another_pass(started, passes, MIN_PAIRS, options.seconds) {
        let (result, wall, _) = campaign_pass(jobs);
        check_pass(&mut outcome, &result, &mut first);
        untraced_wall += wall;
        slew_violations += result
            .records
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .filter(|m| m.snapshots.last().is_some_and(|s| s.slew_violation))
            .count();
        total.absorb(&traced_pass(&mut outcome, jobs, &result, &log));
        reference.get_or_insert(result);
        passes += 1;
    }
    let n = passes as f64;
    let construct = check_construction(&mut outcome, jobs);
    let reference = reference.expect("the loop makes at least one pass");
    let codec = codec_timings(
        &[(MANIFEST.to_string(), &reference)],
        Duration::from_millis(20),
    )?;

    let log = log.borrow();
    let mut attributed = log.snapshot_s + total.finish_s;
    let mut opt_passes = 0.0;
    for (acronym, [seconds, evals, solves, rounds]) in PASS_METRICS {
        let cost = log.passes.get(acronym).copied().unwrap_or_default();
        attributed += cost.seconds;
        if acronym != "INITIAL" {
            opt_passes += cost.seconds;
        }
        outcome.set(seconds, cost.seconds / n);
        outcome.set(evals, cost.evals as f64 / n);
        outcome.set(solves, cost.solves as f64 / n);
        outcome.set(rounds, cost.rounds as f64 / n);
    }
    outcome.set("pipeline.snapshot_s", log.snapshot_s / n);
    outcome.set("flow.finish_s", total.finish_s / n);
    outcome.set("construct.topology_s", construct.topology_s);
    outcome.set("construct.repair_s", construct.repair_s);
    outcome.set("construct.split_s", construct.split_s);
    outcome.set("construct.buffering_s", construct.buffering_s);
    outcome.set("construct.polarity_s", construct.polarity_s);
    outcome.set("construct.nodes", construct.nodes as f64);
    outcome.set(
        "construct.arena_mb",
        construct.arena_bytes as f64 / (1024.0 * 1024.0),
    );
    outcome.set("slack.s", total.slack_s / n);
    outcome.set("lower.to_netlist_s", total.lower_s / n);
    let s = total.stats;
    outcome.set("eval.runs", total.eval_runs as f64 / n);
    outcome.set("eval.stage_lowerings", s.stage_misses as f64 / n);
    outcome.set(
        "eval.stage_hit_ratio",
        s.stage_hits as f64 / (s.stage_hits + s.stage_misses) as f64,
    );
    outcome.set(
        "eval.solve_hit_ratio",
        s.solve_hits as f64 / (s.solve_hits + s.solve_misses) as f64,
    );
    outcome.set("eval.evictions", s.evictions as f64 / n);
    outcome.set("transient.solves", s.solve_misses as f64 / n);
    let t = total.transient;
    outcome.set(
        "transient.steps_per_solve",
        t.steps as f64 / t.solves as f64,
    );
    outcome.set(
        "transient.node_steps_per_s",
        t.node_steps as f64 / t.seconds,
    );
    outcome.set("manifest.compile_us", codec.compile_us);
    outcome.set("protocol.encode_us", codec.encode_us);
    outcome.set("protocol.decode_us", codec.decode_us);
    outcome.set("output.render_us", codec.render_us);
    outcome.set("slew_violations", slew_violations as f64 / n);
    // The end-to-end run's latency samples: one per job of every replica.
    let samples = REPLICAS as usize * jobs.len();
    outcome.set("latency.samples", samples as f64);
    outcome.set("latency.tail_pct", 100.0 * tail_quantile(TAIL, samples));
    outcome.set("trace.untraced_wall_s", untraced_wall / n);
    outcome.set("trace.traced_wall_s", total.wall_s / n);
    outcome.set(
        "trace.overhead_pct",
        100.0 * (total.wall_s - untraced_wall) / untraced_wall,
    );
    outcome.set("trace.coverage_pct", 100.0 * attributed / untraced_wall);
    outcome.set("trace.opt_passes_pct", 100.0 * opt_passes / untraced_wall);
    outcome.set("trace.slack_pct", 100.0 * total.slack_s / untraced_wall);
    Ok(outcome)
}
