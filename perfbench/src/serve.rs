//! The `serve-warm` workload: an in-process `contango serve` daemon with
//! two workers and a daemon-wide cache store, warmed during setup, under a
//! closed-loop client that round-robins 22 small manifests.
//!
//! Setup warms the store with an offline campaign per manifest (which also
//! renders the reference output every response must equal byte for byte),
//! then binds the daemon on the warm store and sends one round of requests
//! so every worker session is warm before timing starts.

use crate::layers::codec_timings;
use crate::{
    derive_seed, geomean, median, peak_rss_mb, percentile, tail_quantile, Options, Outcome, TAIL,
};
use contango_campaign::output::suite_output;
use contango_campaign::{
    Campaign, CampaignResult, Client, Manifest, ReportKind, Response, ServeConfig, ServeSummary,
    Server, TableFormat,
};
use contango_sim::{CacheCounters, CacheStore};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Manifests in the round-robin. With 22 the mean skew and CLR vary little
/// with the seed, and the warm store's entry count lies midway between two
/// doublings of its hash tables for every seed. At 16 it lay on either
/// side of one, and peak RSS read 20.5 or 31.7 MiB by seed.
const MANIFESTS: u64 = 22;

/// Sinks per manifest instance. At 200 sinks a warm request takes ~8 ms
/// or ~15 ms depending on host spells that last seconds, so a run's median
/// can land anywhere between. Runs at 60 sinks, interleaved with 200-sink
/// runs whose medians jumped between 9 and 16 ms, stayed within 10% of
/// one another.
const SINKS: usize = 60;

/// Daemon workers. One closed-loop client drives them: one request in
/// flight keeps one core free, while with two clients both cores of the
/// 2-core host stay busy and per-request latency swings by up to 50%
/// between runs with whatever else the host runs.
const WORKERS: usize = 2;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// A running daemon plus everything a request is checked against.
struct Daemon {
    addr: std::net::SocketAddr,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
    store_dir: PathBuf,
    manifests: Vec<String>,
    references: Vec<String>,
    results: Vec<CampaignResult>,
}

impl Daemon {
    /// Stops the daemon, removes its store and returns its summary.
    fn stop(self) -> Result<ServeSummary, String> {
        let stopped = Client::connect(self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let summary = self
            .handle
            .join()
            .map_err(|_| "serve thread panicked".to_string());
        let _ = std::fs::remove_dir_all(&self.store_dir);
        stopped?;
        summary?.map_err(|e| e.to_string())
    }
}

/// The manifests: `ti:60:S` with serve seeds 1–22 under seed 0, re-derived
/// otherwise.
fn manifests(seed: u64) -> Vec<String> {
    (0..MANIFESTS)
        .map(|i| {
            format!(
                "instance ti:{SINKS}:{}\nprofile fast\n",
                derive_seed(seed, 0, i + 1)
            )
        })
        .collect()
}

/// Warms a fresh store offline, binds the daemon on it and warms every
/// worker session with one round of requests.
fn setup(outcome: &mut Outcome, seed: u64, attempt: usize) -> Result<Daemon, String> {
    let store_dir =
        PathBuf::from(".perfbench_tmp").join(format!("serve-{}-{attempt}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    std::fs::create_dir_all(&store_dir).map_err(|e| e.to_string())?;
    let store = Arc::new(CacheStore::open(&store_dir).map_err(|e| e.to_string())?);
    let manifests = manifests(seed);
    let mut references = Vec::with_capacity(manifests.len());
    let mut results = Vec::with_capacity(manifests.len());
    for text in &manifests {
        let campaign: Campaign = Manifest::parse(text)
            .and_then(|m| m.compile())
            .map_err(|e| e.to_string())?;
        let result = campaign.with_cache(Arc::clone(&store)).run();
        outcome.check(result.failures().is_empty(), || {
            format!("offline run of `{}` failed", text.trim())
        });
        references.push(suite_output(&result, ReportKind::Table, TableFormat::Text));
        results.push(result);
    }
    drop(store);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        queue_capacity: 64,
        allow_file_instances: false,
        cache_dir: Some(store_dir.display().to_string()),
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let daemon = Daemon {
        addr,
        handle,
        store_dir,
        manifests,
        references,
        results,
    };
    let warm = closed_loop(&daemon, Duration::ZERO);
    match warm {
        Ok(round) => {
            for failure in round.failures {
                outcome.check(false, || failure);
            }
            Ok(daemon)
        }
        Err(e) => {
            let _ = daemon.stop();
            Err(e)
        }
    }
}

/// What a closed loop observed.
#[derive(Default)]
struct Round {
    latencies: Vec<f64>,
    failures: Vec<String>,
    cache: CacheCounters,
    elapsed_s: f64,
}

/// Runs the closed-loop client for at least `duration` and at least one
/// pass over the manifests: it sends them in turn, each after the previous
/// answer, and checks every answer against the offline reference.
fn closed_loop(daemon: &Daemon, duration: Duration) -> Result<Round, String> {
    let mut client = Client::connect(daemon.addr).map_err(|e| e.to_string())?;
    let mut round = Round::default();
    let started = Instant::now();
    let mut sent = 0;
    while sent < daemon.manifests.len() || started.elapsed() < duration {
        let m = sent % daemon.manifests.len();
        let t = Instant::now();
        let response = client
            .run_manifest(&daemon.manifests[m], ReportKind::Table, TableFormat::Text)
            .map_err(|e| e.to_string())?;
        round.latencies.push(t.elapsed().as_secs_f64());
        match response {
            Response::RunOk {
                failed,
                output,
                cache,
                ..
            } => {
                if failed != 0 || output != daemon.references[m] {
                    round.failures.push(format!(
                        "manifest {m}: {failed} failed jobs, or output differs from offline suite_output"
                    ));
                }
                round.cache.absorb(cache.unwrap_or_default());
            }
            other => round.failures.push(format!("manifest {m}: {other:?}")),
        }
        sent += 1;
    }
    round.elapsed_s = started.elapsed().as_secs_f64();
    Ok(round)
}

/// Runs the serve workload and returns its metrics.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let started = Instant::now();
    let daemon = setup(&mut outcome, options.seed, 0)?;
    let mut setup_times = vec![started.elapsed().as_secs_f64()];
    let round = closed_loop(&daemon, Duration::from_secs_f64(options.seconds));
    // Read before the repeat setups below, whose freed daemons would
    // otherwise raise the high-water mark.
    let peak_rss = peak_rss_mb();
    let codec = options
        .trace
        .then(|| {
            let pairs: Vec<(String, &CampaignResult)> = daemon
                .manifests
                .iter()
                .cloned()
                .zip(daemon.results.iter())
                .collect();
            codec_timings(&pairs, Duration::from_millis(20))
        })
        .transpose();
    let (skews, clrs): (Vec<f64>, Vec<f64>) = daemon
        .results
        .iter()
        .flat_map(|r| r.summaries())
        .map(|s| (s.skew, s.clr))
        .unzip();
    let summary = daemon.stop()?;
    let (round, codec) = (round?, codec?);
    for attempt in 1..if options.trace { 1 } else { SETUPS } {
        let started = Instant::now();
        let daemon = setup(&mut outcome, options.seed, attempt)?;
        setup_times.push(started.elapsed().as_secs_f64());
        daemon.stop()?;
    }
    let _ = std::fs::remove_dir(".perfbench_tmp");
    let n = round.latencies.len() as f64;
    outcome.attempted += (round.latencies.len() - round.failures.len()) as u64;
    for failure in &round.failures {
        outcome.check(false, || failure.clone());
    }
    outcome.check(summary.rejected == 0, || {
        format!("{} requests refused as overloaded", summary.rejected)
    });

    let throughput = n / round.elapsed_s;
    if let Some(codec) = codec {
        outcome.set("store.mem_hits", round.cache.mem_hits as f64 / n);
        outcome.set("store.disk_hits", round.cache.disk_hits as f64 / n);
        outcome.set("store.misses", round.cache.misses as f64 / n);
        outcome.set("manifest.compile_us", codec.compile_us);
        outcome.set("protocol.encode_us", codec.encode_us);
        outcome.set("protocol.decode_us", codec.decode_us);
        outcome.set("output.render_us", codec.render_us);
        outcome.set("serve.accepted", summary.accepted as f64);
        outcome.set("serve.completed", summary.completed as f64);
        outcome.set("serve.rejected", summary.rejected as f64);
        outcome.set("latency.samples", n);
        outcome.set(
            "latency.tail_pct",
            100.0 * tail_quantile(TAIL, round.latencies.len()),
        );
        let q = tail_quantile(0.99, round.latencies.len());
        outcome.set("latency.p99_ms", 1e3 * percentile(&round.latencies, q));
    } else {
        let q = tail_quantile(TAIL, round.latencies.len());
        outcome.set("setup_s", median(&setup_times));
        outcome.set("wall_s", MANIFESTS as f64 / throughput);
        outcome.set("latency_p50_ms", 1e3 * median(&round.latencies));
        outcome.set("latency_p95_ms", 1e3 * percentile(&round.latencies, q));
        outcome.set("throughput_rps", throughput);
        outcome.set("skew_ps", geomean(&skews));
        outcome.set("clr_ps", geomean(&clrs));
        outcome.set("peak_rss_mb", peak_rss);
    }
    Ok(outcome)
}
