//! The deterministic campaign executor, the one job pool and the results.
//!
//! Scheduling model: `dispatch_order` sorts jobs **longest-first** by
//! [`Job::cost`] (ties keep submission order) into one bounded, closable
//! FIFO (`JobQueue`), and `run_pool` runs `N` workers over it with the
//! calling thread as worker 0. Each worker owns one [`EngineSession`] for
//! its whole lifetime, retargeted per job, so evaluator caches and
//! construction arenas stay warm across jobs. The serve daemon
//! ([`crate::serve`]) and the dist worker ([`crate::worker`]) run their
//! items through the same pool, and the dist coordinator ([`crate::dist`])
//! takes its order from `dispatch_order`.
//!
//! Reduction model: each job's record lands in a slot indexed by its
//! submission position, and [`CampaignResult::records`] is that fixed
//! order — *not* completion order. Because a job's result depends only on
//! the job (session warmth changes wall-clock, never reports), every
//! record, aggregate table and JSONL document is bit-identical for any
//! worker count, and identical to a serial loop over the same jobs.

use crate::job::{CornerKind, Job, VariationSpec};
use crate::jsonl::record_line;
use contango_benchmarks::report::{
    aggregate_stages, comparison_table, format_ps, run_count_table, stage_aggregate_table,
    suite_table, RunSummary, Table,
};
use contango_core::construct::ParallelConfig;
use contango_core::error::CoreError;
use contango_core::flow::StageSnapshot;
use contango_core::pipeline::NoopObserver;
use contango_core::session::EngineSession;
use contango_sim::{
    monte_carlo_samples, scaled_netlist, scaled_technology, CacheCounters, CacheStore, Evaluator,
    Netlist, VariationModel,
};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// A campaign: a job matrix plus a worker-pool width, built fluently and
/// executed with [`Campaign::run`] or [`Campaign::run_streaming`].
#[derive(Debug, Default)]
pub struct Campaign {
    jobs: Vec<Job>,
    threads: usize,
    cache: Option<Arc<CacheStore>>,
}

impl Campaign {
    /// Creates an empty, single-threaded campaign.
    pub fn new() -> Self {
        Self {
            jobs: Vec::new(),
            threads: 1,
            cache: None,
        }
    }

    /// Attaches a shared persistent [`CacheStore`]: every worker's
    /// [`EngineSession`] reads transient solves through it and writes fresh
    /// ones back. Records gain deterministic [`JobRecord::cache`] counters
    /// of solve lookups; reports and tables are bit-identical with or
    /// without a store.
    #[must_use]
    pub fn with_cache(mut self, store: Arc<CacheStore>) -> Self {
        self.cache = Some(store);
        self
    }

    /// The attached persistent store, if any.
    pub fn cache(&self) -> Option<&Arc<CacheStore>> {
        self.cache.as_ref()
    }

    /// Sets the worker-pool width (0 = one worker per available core).
    /// Results are bit-identical for every value.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Appends one job.
    #[must_use]
    pub fn push(mut self, job: Job) -> Self {
        self.jobs.push(job);
        self
    }

    /// Appends many jobs.
    #[must_use]
    pub fn extend(mut self, jobs: impl IntoIterator<Item = Job>) -> Self {
        self.jobs.extend(jobs);
        self
    }

    /// The jobs submitted so far, in submission order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs submitted so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the campaign has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs every job and collects the records in submission order.
    pub fn run(self) -> CampaignResult {
        self.run_streaming(|_| {})
    }

    /// Runs every job, invoking `on_record` as each job completes (in
    /// completion order — nondeterministic across workers; the collected
    /// [`CampaignResult::records`] are always in submission order). The
    /// callback is serialized behind a lock, so it may write to a shared
    /// stream (a JSONL file, stderr progress) without interleaving.
    pub fn run_streaming<F>(self, on_record: F) -> CampaignResult
    where
        F: FnMut(&JobRecord) + Send,
    {
        let n = self.jobs.len();
        let workers = ParallelConfig::with_threads(self.threads)
            .resolved()
            .min(n.max(1));
        let queue = JobQueue::new(n);
        for ji in dispatch_order(&self.jobs) {
            queue.push(ji).expect("the queue holds every job");
        }
        queue.close();
        let sink = Mutex::new((on_record, vec![None; n]));
        let peak_arena = run_pool(workers, &queue, |ji, session| {
            let record = run_job(&self.jobs[ji], session, self.cache.as_ref());
            let (on_record, slots) = &mut *sink.lock().expect("record sink lock");
            on_record(&record);
            slots[ji] = Some(record);
        });
        let (_, slots) = sink.into_inner().expect("record sink lock");
        CampaignResult {
            records: slots
                .into_iter()
                .map(|r| r.expect("every job ran"))
                .collect(),
            threads: workers,
            memory: MemoryProfile::capture(peak_arena),
        }
    }
}

/// The longest-first dispatch order: job indices by descending
/// [`Job::cost`], ties in submission order. Each cost is computed once —
/// `Job::cost` builds the job's pipeline.
pub(crate) fn dispatch_order(jobs: &[Job]) -> Vec<usize> {
    let costs: Vec<u64> = jobs.iter().map(Job::cost).collect();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    order
}

/// Why [`JobQueue::push`] refused an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refused {
    /// The queue already holds its capacity.
    Full,
    /// The queue was closed.
    Closed,
}

/// The pool's bounded, closable FIFO. Closing refuses further pushes, but
/// the items already queued still pop.
pub(crate) struct JobQueue<T> {
    /// The queued items and whether the queue is closed.
    state: Mutex<(VecDeque<T>, bool)>,
    ready: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Appends an item, unless the queue is full or closed.
    pub(crate) fn push(&self, item: T) -> Result<(), Refused> {
        let (items, closed) = &mut *self.state.lock().expect("job queue lock");
        if *closed {
            return Err(Refused::Closed);
        }
        if items.len() >= self.capacity {
            return Err(Refused::Full);
        }
        items.push_back(item);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item arrives, or returns `None` once the queue is
    /// closed and drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let state = self.state.lock().expect("job queue lock");
        let mut state = self
            .ready
            .wait_while(state, |(items, closed)| items.is_empty() && !*closed)
            .expect("job queue lock");
        state.0.pop_front()
    }

    /// Refuses every later push and wakes every waiting worker.
    pub(crate) fn close(&self) {
        self.state.lock().expect("job queue lock").1 = true;
        self.ready.notify_all();
    }

    /// Whether the queue has been closed.
    pub(crate) fn is_closed(&self) -> bool {
        self.state.lock().expect("job queue lock").1
    }
}

/// Runs `workers` workers over `queue` until it is closed and drained: the
/// calling thread is worker 0, the rest are scoped threads. Each worker
/// owns one [`EngineSession`] for its lifetime and lends it to `work` with
/// every item. Returns the largest arena watermark among the sessions.
pub(crate) fn run_pool<T: Send>(
    workers: usize,
    queue: &JobQueue<T>,
    work: impl Fn(T, &mut Option<EngineSession>) + Sync,
) -> u64 {
    let worker = || {
        let mut session: Option<EngineSession> = None;
        while let Some(item) = queue.pop() {
            work(item, &mut session);
        }
        session.map_or(0, |s| s.arena_watermark().total_bytes())
    };
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        let caller = worker();
        others
            .into_iter()
            .map(|h| h.join().expect("pool worker"))
            .fold(caller, u64::max)
    })
}

/// Runs one job inside the worker's session, creating or retargeting the
/// session as needed. Every pool item ends here: a campaign job, each job
/// of a served request, and each job a dist worker is assigned.
pub(crate) fn run_job(
    job: &Job,
    session: &mut Option<EngineSession>,
    store: Option<&Arc<CacheStore>>,
) -> JobRecord {
    let sess = match session {
        Some(sess) => {
            sess.retarget(&job.tech, job.config.model);
            sess
        }
        None => session.insert(EngineSession::new(job.tech.clone(), job.config.model)),
    };
    // Keep the session pointed at the caller's store (serve workers run
    // items with and without per-request stores through one session).
    let attached = sess.cache();
    match (store, attached) {
        (Some(want), Some(have)) if Arc::ptr_eq(want, &have) => {}
        (Some(want), _) => sess.attach_cache(Arc::clone(want)),
        (None, Some(_)) => sess.detach_cache(),
        (None, None) => {}
    }
    sess.begin_job_profile();
    let outcome = sess
        .run(
            &job.config,
            &job.pipeline(),
            &job.instance,
            &mut NoopObserver,
        )
        .map(|result| JobMetrics {
            summary: RunSummary::from_result(&job.benchmark, &job.tool, &job.instance, &result),
            corners: evaluate_corners(job, &result.netlist),
            variation: job
                .variation
                .map(|spec| evaluate_variation(job, &result.netlist, spec)),
            snapshots: result.snapshots,
        });
    let cache = store.map(|_| sess.take_job_profile());
    JobRecord {
        benchmark: job.benchmark.clone(),
        tool: job.tool.clone(),
        sinks: job.instance.sink_count(),
        outcome,
        cache,
    }
}

/// Re-evaluates the finished network at each of the job's discrete
/// corners. Deterministic: each corner gets a fresh evaluator over a fixed
/// scaling of the netlist and technology, so the metrics are independent
/// of session warmth, worker count and cache state.
fn evaluate_corners(job: &Job, netlist: &Netlist) -> Vec<CornerMetrics> {
    job.corners
        .iter()
        .map(|&corner| {
            let (res_f, cap_f, vdd_f) = corner.factors();
            let evaluator =
                Evaluator::with_model(scaled_technology(&job.tech, vdd_f), job.config.model);
            let report = evaluator.evaluate(&scaled_netlist(netlist, res_f, cap_f));
            CornerMetrics {
                corner: corner.label().to_string(),
                clr: report.clr(),
                skew: report.skew(),
                max_latency: report.max_latency(),
            }
        })
        .collect()
}

/// Draws the job's Monte-Carlo samples of the finished network. Seeded and
/// self-contained, so the same spec reproduces the same skew population on
/// any worker.
fn evaluate_variation(job: &Job, netlist: &Netlist, spec: VariationSpec) -> VariationMetrics {
    let evaluator = Evaluator::with_model(job.tech.clone(), job.config.model);
    let drawn = monte_carlo_samples(&evaluator, netlist, &spec.model, spec.samples, spec.seed);
    let skews: Vec<f64> = drawn.iter().map(|s| s.skew).collect();
    let worst_skew = skews.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mean_skew = skews.iter().sum::<f64>() / skews.len() as f64;
    VariationMetrics {
        samples: spec.samples,
        seed: spec.seed,
        model: spec.model,
        skews,
        worst_skew,
        mean_skew,
    }
}

/// Metrics of the finished network re-evaluated at one discrete corner.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerMetrics {
    /// The corner's label (see [`CornerKind::label`]).
    pub corner: String,
    /// Clock Latency Range at the corner, ps.
    pub clr: f64,
    /// Nominal-corner skew at the corner, ps.
    pub skew: f64,
    /// Maximum sink latency at the corner, ps.
    pub max_latency: f64,
}

/// Per-job Monte-Carlo variation metrics: the raw per-sample skews (in
/// draw order) plus the reductions campaign reports consume.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationMetrics {
    /// Number of samples drawn.
    pub samples: usize,
    /// The sampler seed.
    pub seed: u64,
    /// The variation model sampled.
    pub model: VariationModel,
    /// Per-sample nominal-corner skew, ps, in draw order.
    pub skews: Vec<f64>,
    /// Worst (maximum) sample skew, ps.
    pub worst_skew: f64,
    /// Mean sample skew, ps.
    pub mean_skew: f64,
}

/// The deterministic metrics of one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics {
    /// The Table-IV-style summary row (CLR, skew, capacitance, runs;
    /// `runtime_s` is wall-clock and excluded from JSONL).
    pub summary: RunSummary,
    /// Per-stage snapshots (Table III rows).
    pub snapshots: Vec<StageSnapshot>,
    /// Corner re-evaluations, in the job's corner order (empty unless the
    /// job requested corners).
    pub corners: Vec<CornerMetrics>,
    /// Monte-Carlo variation metrics (`None` unless the job requested
    /// variation sampling).
    pub variation: Option<VariationMetrics>,
}

impl JobMetrics {
    /// The worst-case skew across the nominal evaluation, every corner and
    /// every Monte-Carlo sample — the robustness objective Pareto
    /// reductions minimize.
    pub fn worst_case_skew(&self) -> f64 {
        let mut worst = self.summary.skew;
        for corner in &self.corners {
            worst = worst.max(corner.skew);
        }
        if let Some(variation) = &self.variation {
            worst = worst.max(variation.worst_skew);
        }
        worst
    }
}

/// One job's result: its identity plus either the metrics or the per-job
/// error. A failed job never aborts the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Benchmark name.
    pub benchmark: String,
    /// Flow/tool label.
    pub tool: String,
    /// Sink count of the job's instance.
    pub sinks: usize,
    /// The metrics, or the flow error that failed this job.
    pub outcome: Result<JobMetrics, CoreError>,
    /// Deterministic cache profile of this job against the store's
    /// open-time snapshot (`None` when the campaign ran without a store).
    /// The job runs on an evaluator whose caches were emptied for it, and
    /// only snapshot answers count as disk hits, so the profile is
    /// independent of worker count and dispatch order.
    pub cache: Option<CacheCounters>,
}

/// Peak-memory profile of one campaign execution. Advisory telemetry: the
/// numbers depend on allocation history (`Vec` growth doubling, session
/// reuse across jobs, worker count), so they are **excluded** from
/// [`CampaignResult`] equality and from the deterministic JSONL stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryProfile {
    /// Largest engine-arena watermark observed across all workers'
    /// sessions, in bytes (capacity actually retained, summed over the
    /// construction scratch columns).
    pub peak_arena_bytes: u64,
    /// Process-wide peak resident set (`VmHWM`) at collection time, when
    /// the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
}

impl MemoryProfile {
    /// Snapshots the process peak RSS next to the given arena watermark.
    pub fn capture(peak_arena_bytes: u64) -> Self {
        Self {
            peak_arena_bytes,
            peak_rss_bytes: contango_core::mem::peak_rss_bytes(),
        }
    }

    /// One-line human rendering, e.g. `arena 12.4 MiB, peak RSS 85.1 MiB`.
    pub fn display_line(&self) -> String {
        let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
        match self.peak_rss_bytes {
            Some(rss) => format!(
                "arena {:.1} MiB, peak RSS {:.1} MiB",
                mib(self.peak_arena_bytes),
                mib(rss)
            ),
            None => format!("arena {:.1} MiB", mib(self.peak_arena_bytes)),
        }
    }
}

/// Every job's record in submission order, plus aggregate-report builders.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Per-job records, in **submission** order (the fixed reduction
    /// order), regardless of scheduling.
    pub records: Vec<JobRecord>,
    /// The resolved worker count that executed the campaign.
    pub threads: usize,
    /// Peak-memory telemetry for this execution. Allocation-history
    /// dependent — not part of equality, tables or JSONL.
    pub memory: MemoryProfile,
}

/// Equality covers the deterministic payload only: `records` and
/// `threads`. [`CampaignResult::memory`] varies with allocation history
/// and worker scheduling, so including it would break the guarantee that
/// campaigns are bit-identical across worker counts.
impl PartialEq for CampaignResult {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records && self.threads == other.threads
    }
}

impl CampaignResult {
    /// Summary rows of the successful jobs, in submission order.
    pub fn summaries(&self) -> Vec<RunSummary> {
        self.records
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|m| m.summary.clone())
            .collect()
    }

    /// The failed jobs and their errors, in submission order.
    pub fn failures(&self) -> Vec<(&JobRecord, &CoreError)> {
        self.records
            .iter()
            .filter_map(|r| r.outcome.as_ref().err().map(|e| (r, e)))
            .collect()
    }

    /// Table-IV-style comparison table over the successful jobs, in
    /// submission order (includes wall-clock runtime; use
    /// [`CampaignResult::suite_table`] for thread-count-invariant output).
    pub fn comparison_table(&self) -> Table {
        comparison_table(&self.summaries())
    }

    /// Canonically sorted per-(benchmark, tool) suite summary without
    /// wall-clock columns: bit-identical for every thread count.
    ///
    /// When any job carried corner or variation axes the table gains one
    /// skew column per corner (in [`CornerKind::all`] order) and a
    /// worst-Monte-Carlo-skew column; axis-less campaigns render the
    /// historical table byte for byte.
    pub fn suite_table(&self) -> Table {
        let corner_labels = self.corner_labels();
        let has_variation = self
            .records
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .any(|m| m.variation.is_some());
        if corner_labels.is_empty() && !has_variation {
            return suite_table(&self.summaries());
        }

        let mut ok: Vec<&JobMetrics> = self
            .records
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .collect();
        ok.sort_by(|a, b| {
            (&a.summary.benchmark, &a.summary.tool).cmp(&(&b.summary.benchmark, &b.summary.tool))
        });
        let mut headers: Vec<String> = [
            "benchmark",
            "tool",
            "CLR (ps)",
            "skew (ps)",
            "cap (%)",
            "buffers",
            "SPICE runs",
        ]
        .into_iter()
        .map(str::to_string)
        .collect();
        for label in &corner_labels {
            headers.push(format!("skew@{label} (ps)"));
        }
        if has_variation {
            headers.push("MC worst skew (ps)".to_string());
        }
        let mut table = Table::new(headers);
        for m in ok {
            let r = &m.summary;
            let mut row = vec![
                r.benchmark.clone(),
                r.tool.clone(),
                format_ps(r.clr),
                format_ps(r.skew),
                format!("{:.2}", r.cap_pct),
                r.buffers.to_string(),
                r.spice_runs.to_string(),
            ];
            for label in &corner_labels {
                row.push(
                    m.corners
                        .iter()
                        .find(|c| &c.corner == label)
                        .map_or_else(|| "-".to_string(), |c| format_ps(c.skew)),
                );
            }
            if has_variation {
                row.push(
                    m.variation
                        .as_ref()
                        .map_or_else(|| "-".to_string(), |v| format_ps(v.worst_skew)),
                );
            }
            table.push_row(row);
        }
        table
    }

    /// The corner labels present in any successful record, in the
    /// canonical [`CornerKind::all`] order.
    fn corner_labels(&self) -> Vec<String> {
        CornerKind::all()
            .into_iter()
            .map(|c| c.label().to_string())
            .filter(|label| {
                self.records
                    .iter()
                    .filter_map(|r| r.outcome.as_ref().ok())
                    .any(|m| m.corners.iter().any(|c| &c.corner == label))
            })
            .collect()
    }

    /// Canonically reduced per-(tool, stage) CLR/skew means (aggregated
    /// Table III): bit-identical for every thread count.
    pub fn stage_aggregate_table(&self) -> Table {
        let runs: Vec<(&str, &str, &[StageSnapshot])> = self
            .records
            .iter()
            .filter_map(|r| {
                r.outcome.as_ref().ok().map(|m| {
                    (
                        r.tool.as_str(),
                        r.benchmark.as_str(),
                        m.snapshots.as_slice(),
                    )
                })
            })
            .collect();
        stage_aggregate_table(&aggregate_stages(runs))
    }

    /// Canonically sorted evaluator-run-count table (Table-V style).
    pub fn run_count_table(&self) -> Table {
        run_count_table(&self.summaries())
    }

    /// Canonically sorted per-job cache-profile table, plus a totals row.
    /// Deterministic for every thread count (the profiles are snapshot
    /// based); empty when the campaign ran without a persistent store.
    pub fn cache_table(&self) -> Table {
        let mut table = Table::new([
            "benchmark",
            "tool",
            "mem hits",
            "disk hits",
            "misses",
            "evictions",
        ]);
        let mut profiled: Vec<(&JobRecord, CacheCounters)> = self
            .records
            .iter()
            .filter_map(|r| r.cache.map(|c| (r, c)))
            .collect();
        profiled.sort_by(|(a, _), (b, _)| (&a.benchmark, &a.tool).cmp(&(&b.benchmark, &b.tool)));
        let mut total = CacheCounters::default();
        for (record, counters) in &profiled {
            total.absorb(*counters);
            table.push_row([
                record.benchmark.clone(),
                record.tool.clone(),
                counters.mem_hits.to_string(),
                counters.disk_hits.to_string(),
                counters.misses.to_string(),
                counters.evictions.to_string(),
            ]);
        }
        if !profiled.is_empty() {
            table.push_row([
                "TOTAL".to_string(),
                String::new(),
                total.mem_hits.to_string(),
                total.disk_hits.to_string(),
                total.misses.to_string(),
                total.evictions.to_string(),
            ]);
        }
        table
    }

    /// The whole campaign as JSON Lines, one record per job in submission
    /// order. Records carry only deterministic fields (no wall-clock), so
    /// two JSONL documents from the same job matrix are identical whatever
    /// the thread count.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            out.push_str(&record_line(record));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Manifest;

    #[test]
    fn dispatch_order_is_longest_first_with_submission_tiebreak() {
        let manifest = Manifest::parse(
            "instance ti:6\ninstance ti:30\ninstance ti:9\nbaselines dme-no-tuning\n",
        )
        .expect("parses");
        let jobs = manifest.compile().expect("compiles").jobs().to_vec();
        let order = dispatch_order(&jobs);
        // Strictly non-increasing cost; equal costs keep submission order.
        let mut last: Option<(u64, usize)> = None;
        for &ji in &order {
            let cost = jobs[ji].cost();
            if let Some((prev_cost, prev_ji)) = last {
                assert!(cost <= prev_cost);
                if cost == prev_cost {
                    assert!(ji > prev_ji);
                }
            }
            last = Some((cost, ji));
        }
        assert_eq!(order.len(), jobs.len());
    }

    #[test]
    fn zero_capacity_queues_refuse_every_push() {
        let queue = JobQueue::new(0);
        assert_eq!(queue.push(1), Err(Refused::Full));
        assert!(!queue.is_closed());
    }

    #[test]
    fn queues_are_fifo_and_drain_after_close() {
        let queue = JobQueue::new(3);
        for i in 0..3 {
            queue.push(i).expect("room for three");
        }
        assert_eq!(queue.push(3), Err(Refused::Full));
        assert_eq!(queue.pop(), Some(0));
        queue.close();
        assert!(queue.is_closed());
        assert_eq!(queue.push(4), Err(Refused::Closed));
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), None);
    }
}
