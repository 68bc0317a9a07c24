//! Integration tests for the deterministic Pareto-frontier explorer.
//!
//! The frontier's contract mirrors the campaign executor's: for the same
//! job set the rendered frontier (table and JSONL) is byte-identical for
//! every thread count, submission order, worker count and cache state.
//! The reduction itself is checked as a property: no frontier point
//! dominates another, and every dropped point is dominated by some
//! frontier point.

use contango::campaign::dist::{self, DistConfig};
use contango::campaign::output::suite_output;
use contango::campaign::worker::{run_worker, WorkerConfig, WorkerConnection};
use contango::prelude::*;
use contango::sim::CacheStore;
use proptest::prelude::*;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn instance(name: &str, sinks: usize) -> ClockNetInstance {
    let pitch = 420.0;
    let die = pitch * (sinks as f64 + 1.5);
    let mut b = ClockNetInstance::builder(name)
        .die(0.0, 0.0, die, die)
        .source(Point::new(0.0, die / 2.0))
        .cap_limit(400_000.0);
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

/// A small variation-aware sweep: one instance fanned out over two
/// capacitance budgets and a stage ablation, every variant evaluated at
/// the slow corner with two Monte-Carlo samples. Eight jobs, cheap under
/// the fast profile, with enough metric spread to dominate some points.
fn sweep_matrix() -> Vec<Job> {
    let tech = Technology::ispd09();
    let base = Job::contango(&tech, FlowConfig::fast(), &instance("pareto", 5))
        .with_corners(vec![CornerKind::Slow])
        .with_variation(Some(VariationSpec {
            model: VariationModel::typical_45nm(),
            samples: 2,
            seed: 7,
        }));
    let axes = SweepAxes {
        cap_scales: vec![1.0, 0.8],
        skip_sets: vec![Vec::new(), vec!["BWSN".to_string()]],
        large_inverters: vec![false, true],
    };
    sweep_jobs(&base, &axes)
}

fn run_with_threads(jobs: &[Job], threads: usize) -> CampaignResult {
    let mut campaign = Campaign::new().threads(threads);
    for job in jobs {
        campaign = campaign.push(job.clone());
    }
    campaign.run()
}

fn frontier_bytes(result: &CampaignResult) -> (String, String) {
    (
        suite_output(result, ReportKind::Pareto, TableFormat::Text),
        suite_output(result, ReportKind::FrontierJsonl, TableFormat::Text),
    )
}

/// The rendered frontier is byte-identical at 1, 2 and 8 executor
/// threads — the Pareto reduction inherits the campaign's canonical
/// ordering, not the completion order.
#[test]
fn frontier_is_byte_identical_across_thread_counts() {
    let jobs = sweep_matrix();
    let reference = frontier_bytes(&run_with_threads(&jobs, 1));
    let frontier = Frontier::of_result(&run_with_threads(&jobs, 1));
    assert!(
        !frontier.points.is_empty(),
        "the sweep must land points on the frontier"
    );
    assert!(
        frontier.dominated > 0,
        "the sweep must also produce dominated variants: {frontier:?}"
    );
    for threads in [2_usize, 8] {
        assert_eq!(
            frontier_bytes(&run_with_threads(&jobs, threads)),
            reference,
            "frontier diverged at {threads} threads"
        );
    }
}

/// Warm-vs-cold cache: serving every solve from the persistent store must
/// not move a single frontier byte.
#[test]
fn frontier_is_byte_identical_between_cold_and_warm_cache() {
    let jobs = sweep_matrix();
    let dir = std::env::temp_dir().join(format!("contango-pareto-cache-{}", std::process::id()));
    let store = Arc::new(CacheStore::open(&dir).expect("open store"));
    let uncached = frontier_bytes(&run_with_threads(&jobs, 2));
    let run_cached = || {
        let mut campaign = Campaign::new().threads(2).with_cache(store.clone());
        for job in &jobs {
            campaign = campaign.push(job.clone());
        }
        frontier_bytes(&campaign.run())
    };
    let cold = run_cached();
    let warm = run_cached();
    assert_eq!(cold, uncached, "cold cache changed the frontier bytes");
    assert_eq!(warm, uncached, "warm cache changed the frontier bytes");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Submission order is irrelevant: any permutation of the job list
    /// produces the same frontier bytes (the frontier sorts by
    /// (benchmark, tool), never by arrival).
    #[test]
    fn frontier_ignores_submission_order(seed in 0..1_000_usize) {
        let mut jobs = sweep_matrix();
        let reference = frontier_bytes(&run_with_threads(&jobs, 2));
        // Deterministic Fisher-Yates on the test's own seed.
        let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
        for i in (1..jobs.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            jobs.swap(i, state % (i + 1));
        }
        prop_assert_eq!(frontier_bytes(&run_with_threads(&jobs, 2)), reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reduction invariants, on synthetic point sets drawn from a
    /// small metric grid (to force ties and domination): frontier points
    /// never dominate each other, every dropped point is dominated by a
    /// surviving one, and a shuffled copy of the set renders the same
    /// JSONL bytes.
    #[test]
    fn frontier_invariants_hold_for_arbitrary_point_sets(
        metrics in prop::collection::vec((0..3usize, 0..4_usize, 0..4_usize, 0..4_usize), 1..24),
        shuffle_seed in 0..1_000_usize,
    ) {
        let points: Vec<ParetoPoint> = metrics
            .iter()
            .enumerate()
            .map(|(i, &(bench, skew, cap, wl))| ParetoPoint {
                benchmark: format!("b{bench}"),
                tool: format!("t{i}"),
                skew: skew as f64,
                cap_pct: cap as f64,
                wirelength: wl as f64,
            })
            .collect();
        let frontier = Frontier::of(&points);
        prop_assert_eq!(frontier.points.len() + frontier.dominated, points.len());
        for a in &frontier.points {
            for b in &frontier.points {
                prop_assert!(!a.dominates(b), "frontier point {a:?} dominates {b:?}");
            }
        }
        for p in &points {
            if !frontier.points.contains(p) {
                prop_assert!(
                    frontier.points.iter().any(|f| f.dominates(p)),
                    "dropped point {p:?} is not dominated by any frontier point"
                );
            }
        }
        let mut shuffled = points.clone();
        let mut state = shuffle_seed.wrapping_mul(2_654_435_761).wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, state % (i + 1));
        }
        prop_assert_eq!(Frontier::of(&shuffled).to_jsonl(), frontier.to_jsonl());
    }
}

/// Picks a free TCP port by binding port 0 and releasing it.
fn free_addr() -> String {
    let probe = TcpListener::bind("127.0.0.1:0").expect("probe port");
    let addr = probe.local_addr().expect("probe addr");
    drop(probe);
    addr.to_string()
}

fn connect_retry(addr: &str, over: &AtomicBool) -> Option<TcpStream> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if over.load(Ordering::Relaxed) {
            return None;
        }
        match TcpStream::connect(addr) {
            Ok(stream) => return Some(stream),
            Err(e) if Instant::now() >= deadline => panic!("connect {addr}: {e}"),
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// A two-worker distributed run of a multi-corner Monte-Carlo manifest
/// reproduces the serial frontier bytes: corner and variation blocks
/// survive the wire protocol bit for bit, so the Pareto reduction cannot
/// tell the difference.
#[test]
fn two_worker_distributed_run_reproduces_the_serial_frontier() {
    let manifest = Manifest::parse(
        "instance ti:6\ninstance ti:9:7\nprofile fast\nmodel elmore\nskip BWSN\n\
         corners nominal,slow\nvariation typical-45nm\nsamples 2\nseed 7\n",
    )
    .expect("parse manifest");
    let serial = manifest.compile().expect("compile manifest").run();
    let expected = frontier_bytes(&serial);

    let addr = free_addr();
    let config = DistConfig {
        listen: Some(addr.clone()),
        heartbeat_timeout: Duration::from_secs(5),
        ..DistConfig::default()
    };
    let over = AtomicBool::new(false);
    let (result, summary) = thread::scope(|scope| {
        let coordinator = scope.spawn(|| dist::run_manifest(&manifest, &config, |_| {}));
        for index in 0..2 {
            let addr = addr.clone();
            let over = &over;
            scope.spawn(move || {
                let Some(stream) = connect_retry(&addr, over) else {
                    return;
                };
                let connection = WorkerConnection::tcp(stream).expect("clone tcp stream");
                let config = WorkerConfig {
                    slots: 1,
                    name: format!("w{index}"),
                    heartbeat: Duration::from_millis(50),
                    ..WorkerConfig::default()
                };
                let _ = run_worker(connection, &config);
            });
        }
        let outcome = coordinator.join().expect("coordinator thread");
        over.store(true, Ordering::Relaxed);
        outcome.expect("distributed run")
    });
    assert!(summary.workers_joined >= 1);
    assert_eq!(
        frontier_bytes(&result),
        expected,
        "distributed frontier diverged from serial"
    );
}
