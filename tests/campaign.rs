//! Integration tests for the sharded campaign executor.
//!
//! The executor's contract is determinism: for the same job matrix the
//! records, the aggregate tables and the JSONL document are bit-identical
//! for every worker count — and identical to a serial reference loop that
//! runs each job through a fresh `ContangoFlow` (no session reuse). A
//! failing job is reported per-job and never aborts the others. One
//! ignored test holds the executor's speed-up floor at 4 threads.

use contango::campaign::{Campaign, CampaignResult, Job, JobRecord};
use contango::prelude::*;
use contango::sim::SourceSpec;
use proptest::prelude::*;
use std::io::Write;
use std::time::Instant;

fn instance(name: &str, sinks: usize, pitch: f64, cap_limit: f64) -> ClockNetInstance {
    let die = pitch * (sinks as f64 + 1.5);
    let mut b = ClockNetInstance::builder(name)
        .die(0.0, 0.0, die, die)
        .source(Point::new(0.0, die / 2.0))
        .cap_limit(cap_limit);
    for i in 0..sinks {
        b = b.sink(
            Point::new(
                pitch * (i as f64 + 0.8),
                pitch * (((i * 7) % sinks) as f64 + 0.6),
            ),
            9.0 + ((i * 3) % 5) as f64,
        );
    }
    b.build().expect("valid instance")
}

/// The job matrix every test uses: three instances of different sizes,
/// each as a full Contango run, a wire-stage ablation and an untuned
/// baseline (distinct costs, so longest-first scheduling has real work to
/// do).
fn job_matrix() -> Vec<Job> {
    let tech = Technology::ispd09();
    let mut jobs = Vec::new();
    for (name, sinks) in [("alpha", 5), ("beta", 8), ("gamma", 11)] {
        let inst = instance(name, sinks, 420.0, 400_000.0);
        jobs.push(Job::contango(&tech, FlowConfig::fast(), &inst));
        jobs.push(
            Job::contango(&tech, FlowConfig::fast(), &inst)
                .with_tool("no-wire-opt")
                .with_skip(vec!["TWSN".to_string(), "BWSN".to_string()]),
        );
        jobs.push(Job::baseline(
            contango::baselines::BaselineKind::DmeNoTuning,
            &tech,
            &inst,
        ));
    }
    jobs
}

/// Zeroes the wall-clock field so records can be compared bitwise.
fn mask_runtime(mut result: CampaignResult) -> CampaignResult {
    for record in &mut result.records {
        if let Ok(metrics) = &mut record.outcome {
            metrics.summary.runtime_s = 0.0;
        }
    }
    result.threads = 0;
    result
}

/// The serial reference: each job through a fresh flow, no shared session.
fn reference_records(jobs: &[Job]) -> Vec<JobRecord> {
    jobs.iter()
        .map(|job| {
            let flow = ContangoFlow::new(job.tech.clone(), job.config);
            let outcome = flow
                .run_pipeline(&job.pipeline(), &job.instance, &mut NoopObserver)
                .map(|result| contango::campaign::JobMetrics {
                    summary: contango::benchmarks::report::RunSummary::from_result(
                        &job.benchmark,
                        &job.tool,
                        &job.instance,
                        &result,
                    ),
                    snapshots: result.snapshots,
                    corners: Vec::new(),
                    variation: None,
                });
            let mut record = JobRecord {
                benchmark: job.benchmark.clone(),
                tool: job.tool.clone(),
                sinks: job.instance.sink_count(),
                outcome,
                cache: None,
            };
            if let Ok(metrics) = &mut record.outcome {
                metrics.summary.runtime_s = 0.0;
            }
            record
        })
        .collect()
}

fn sorted_lines(jsonl: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = jsonl.lines().collect();
    lines.sort_unstable();
    lines
}

#[test]
fn campaign_is_bit_identical_to_the_serial_reference_for_every_thread_count() {
    let jobs = job_matrix();
    let reference = reference_records(&jobs);
    for threads in [1, 2, 8] {
        let result = mask_runtime(Campaign::new().threads(threads).extend(jobs.clone()).run());
        assert_eq!(
            result.records, reference,
            "threads={threads}: records diverge from the serial reference"
        );
    }
}

#[test]
fn streaming_sees_every_record_exactly_once() {
    let jobs = job_matrix();
    let mut seen: Vec<(String, String)> = Vec::new();
    let result = Campaign::new()
        .threads(2)
        .extend(jobs.clone())
        .run_streaming(|record| seen.push((record.benchmark.clone(), record.tool.clone())));
    assert_eq!(seen.len(), jobs.len());
    // Completion order is nondeterministic; as a set it matches the jobs.
    let mut expected: Vec<(String, String)> = jobs
        .iter()
        .map(|j| (j.benchmark.clone(), j.tool.clone()))
        .collect();
    seen.sort();
    expected.sort();
    assert_eq!(seen, expected);
    assert_eq!(result.records.len(), jobs.len());
}

#[test]
fn one_failing_job_is_reported_without_aborting_the_others() {
    let tech = Technology::ispd09();
    // 10 fF cannot fit any buffering configuration: the INITIAL pass fails.
    let doomed = instance("doomed", 6, 420.0, 10.0);
    let jobs = vec![
        Job::contango(
            &tech,
            FlowConfig::fast(),
            &instance("ok-1", 5, 420.0, 400_000.0),
        ),
        Job::contango(&tech, FlowConfig::fast(), &doomed),
        Job::contango(
            &tech,
            FlowConfig::fast(),
            &instance("ok-2", 7, 420.0, 400_000.0),
        ),
    ];
    let result = Campaign::new().threads(2).extend(jobs).run();
    assert_eq!(result.records.len(), 3);
    assert!(result.records[0].outcome.is_ok());
    assert!(result.records[2].outcome.is_ok());
    match &result.records[1].outcome {
        Err(CoreError::Pass { pass, source }) => {
            assert_eq!(pass, "INITIAL");
            assert!(matches!(**source, CoreError::BufferBudget { .. }));
        }
        other => panic!("expected a per-job INITIAL failure, got {other:?}"),
    }
    let failures = result.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].0.benchmark, "doomed");
    // The failure is visible in the JSONL stream, and the good jobs too.
    let jsonl = result.to_jsonl();
    assert_eq!(jsonl.lines().count(), 3);
    assert!(jsonl.contains("\"status\":\"error\""));
    assert!(jsonl.contains("no composite configuration fits"));
    assert_eq!(jsonl.matches("\"status\":\"ok\"").count(), 2);
    // Aggregates cover exactly the successful jobs.
    assert_eq!(result.summaries().len(), 2);
}

/// A manifest's baseline jobs run under its delay model. Under `model
/// elmore`, each baseline record equals, tool label aside, the Contango
/// record of the same manifest narrowed to the baseline's stages.
#[test]
fn baseline_jobs_run_under_the_manifests_model() {
    let records = |extra: &str| {
        let text = format!("instance ti:6\nprofile fast\nmodel elmore\n{extra}");
        let manifest = Manifest::parse(&text).expect("valid manifest");
        mask_runtime(manifest.compile().expect("manifest compiles").run()).records
    };
    let with_baselines = records("baselines dme-no-tuning,wiresizing-only\n");
    for (tool, stages) in [("dme-no-tuning", "INITIAL"), ("wiresizing-only", "TWSZ")] {
        let baseline = with_baselines
            .iter()
            .find(|r| r.tool == tool)
            .expect("a record per baseline");
        let mut contango = records(&format!("stages {stages}\n")).remove(0);
        contango.tool = tool.to_string();
        if let Ok(metrics) = &mut contango.outcome {
            metrics.summary.tool = tool.to_string();
        }
        assert_eq!(*baseline, contango, "{tool}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Shuffled job submission at any worker count yields bit-identical
    /// aggregate reports, and JSONL contents identical modulo line order
    /// (canonical sort), versus the serial loop over the unshuffled jobs.
    #[test]
    fn shuffled_submission_preserves_aggregates_and_jsonl(
        keys in prop::collection::vec(0usize..1 << 60, 9),
    ) {
        let jobs = job_matrix();
        prop_assert_eq!(jobs.len(), keys.len());
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let shuffled: Vec<Job> = order.iter().map(|&i| jobs[i].clone()).collect();

        let reference = Campaign::new().threads(1).extend(jobs).run();
        for threads in [1usize, 2, 8] {
            let result = Campaign::new()
                .threads(threads)
                .extend(shuffled.clone())
                .run();
            prop_assert_eq!(
                result.suite_table(),
                reference.suite_table(),
                "suite table diverged (threads={})", threads
            );
            prop_assert_eq!(
                result.stage_aggregate_table(),
                reference.stage_aggregate_table(),
                "stage aggregate diverged (threads={})", threads
            );
            prop_assert_eq!(
                result.run_count_table(),
                reference.run_count_table(),
                "run counts diverged (threads={})", threads
            );
            let result_jsonl = result.to_jsonl();
            let reference_jsonl = reference.to_jsonl();
            prop_assert_eq!(
                sorted_lines(&result_jsonl),
                sorted_lines(&reference_jsonl),
                "canonically sorted JSONL diverged (threads={})", threads
            );
        }
    }
}

/// The session-reuse half of the determinism story, exercised directly:
/// one warm `EngineSession` across different instances and configurations
/// reproduces cold one-shot runs bit for bit (including evaluator-run
/// counts), so worker warmth can never leak into campaign results.
#[test]
fn warm_sessions_never_change_results() {
    let tech = Technology::ispd09();
    let flow = ContangoFlow::new(tech.clone(), FlowConfig::fast());
    let mut session = flow.session();
    let _ = SourceSpec::ispd09(); // prelude smoke: sim types stay reachable
    for (name, sinks) in [("s1", 6), ("s2", 9), ("s1", 6)] {
        let inst = instance(name, sinks, 430.0, 350_000.0);
        let warm = flow
            .run_in(&mut session, &flow.pipeline(), &inst, &mut NoopObserver)
            .expect("warm run succeeds");
        let cold = flow.run(&inst).expect("cold run succeeds");
        assert_eq!(warm.snapshots, cold.snapshots);
        assert_eq!(warm.report, cold.report);
        assert_eq!(warm.spice_runs, cold.spice_runs);
        assert_eq!(warm.polarity, cold.polarity);
        assert_eq!(
            warm.tree.wirelength().to_bits(),
            cold.tree.wirelength().to_bits()
        );
    }
}

/// An eight-job TI-style scalability suite runs at least 1.5x faster on 4
/// campaign threads than on one. The sizes differ, so longest-job-first
/// dispatch has balancing to do. The floor is asserted only on hosts with
/// at least 4 cores; smaller hosts print the measured ratio instead.
#[test]
#[ignore = "timing floor; run in release with --ignored"]
fn four_campaign_threads_are_at_least_1_5x_faster_than_one() {
    let tech = Technology::ti45();
    let jobs: Vec<Job> = (40..=110)
        .step_by(10)
        .map(|n| {
            let inst = contango::benchmarks::ti_instance(n, 0xC0FFEE + n as u64);
            Job::contango(&tech, FlowConfig::scalability(), &inst)
        })
        .collect();
    let run = |threads: usize| Campaign::new().threads(threads).extend(jobs.clone()).run();
    let serial = run(1);
    assert!(serial.records.iter().all(|r| r.outcome.is_ok()));
    assert_eq!(mask_runtime(serial), mask_runtime(run(4)));

    let mean_s = |threads: usize| {
        let start = Instant::now();
        for _ in 0..2 {
            run(threads);
        }
        start.elapsed().as_secs_f64() / 2.0
    };
    let speedup = mean_s(1) / mean_s(4);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Written past the test harness's capture so the note shows in CI logs.
    let _ = writeln!(
        std::io::stderr(),
        "campaign suite at 4 threads: {speedup:.2}x \
         (floor 1.5x, asserted only on 4+ cores; host has {cores})"
    );
    assert!(
        cores < 4 || speedup >= 1.5,
        "campaign speedup at 4 threads regressed below the 1.5x floor: {speedup:.2}"
    );
}
