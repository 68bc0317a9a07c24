//! Integration tests for the persistent content-addressed cache store:
//! corruption robustness (truncated, bit-flipped and concurrently written
//! segment files must degrade to cold misses, never panic and never
//! return wrong payloads), and the sharing contract (one store serving
//! campaign workers and the serve daemon produces byte-identical reports
//! to cache-less runs at every pool size).

use contango::campaign::output::suite_output;
use contango::prelude::*;
use contango::sim::{CacheStore, HitTier, StoreKey, NS_CONSTRUCT, NS_SOLVE, NS_STAGE};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

/// A fresh scratch directory per call (proptest cases mutate segment
/// files, so they must never share a directory).
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("contango-store-{tag}-{}-{seq}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Materializes proptest-chosen entries as (key, payload) pairs with
/// duplicate keys dropped (the store is content-addressed: equal keys mean
/// equal payloads, so colliding fuzz keys would assert the wrong thing).
fn unique_entries(raw: &[(usize, usize, usize, Vec<usize>)]) -> Vec<(StoreKey, Vec<u8>)> {
    let mut entries: Vec<(StoreKey, Vec<u8>)> = Vec::new();
    for (ns, lo, hi, payload) in raw {
        // Spread the fuzz-chosen seeds over the whole 64-bit key space.
        let mix = |seed: usize| (seed as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let key = StoreKey::new(
            [NS_STAGE, NS_SOLVE, NS_CONSTRUCT][ns % 3],
            mix(*lo),
            mix(*hi),
        );
        if entries.iter().all(|(k, _)| *k != key) {
            let payload: Vec<u8> = payload.iter().map(|&b| b as u8).collect();
            entries.push((key, payload));
        }
    }
    entries
}

fn populate(dir: &Path, entries: &[(StoreKey, Vec<u8>)]) {
    let store = CacheStore::open(dir).expect("open store");
    for (key, payload) in entries {
        store.put(*key, payload).expect("put entry");
    }
}

/// The segment files of a store directory, in deterministic name order.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .expect("list store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "seg"))
        .collect();
    segments.sort();
    segments
}

/// Every lookup against a (possibly damaged) reopened store must return
/// either a cold miss or exactly the payload that was written — a wrong
/// payload is the one unacceptable outcome.
fn assert_never_wrong(dir: &Path, entries: &[(StoreKey, Vec<u8>)]) {
    let store = CacheStore::open(dir).expect("reopen survives damage");
    for (key, payload) in entries {
        if let Some((got, _)) = store.get(*key) {
            assert_eq!(&got, payload, "damaged store returned a wrong payload");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Round trip: everything written is read back intact, both from the
    /// writing store instance and from a fresh open of the directory.
    #[test]
    fn entries_round_trip_through_reopen(
        raw in prop::collection::vec(
            (0..3_usize, 0..1_000_000_007_usize, 0..1_000_000_007_usize, prop::collection::vec(0..256_usize, 0..80)),
            1..20,
        )
    ) {
        let dir = scratch("roundtrip");
        let entries = unique_entries(&raw);
        let store = CacheStore::open(&dir).expect("open store");
        for (key, payload) in &entries {
            store.put(*key, payload).expect("put entry");
            let (got, _) = store.get(*key).expect("written entry is readable");
            prop_assert_eq!(&got, payload);
        }
        let reopened = CacheStore::open(&dir).expect("reopen store");
        prop_assert_eq!(reopened.snapshot_len(), entries.len());
        prop_assert_eq!(reopened.corrupt_segments(), 0);
        for (key, payload) in &entries {
            let (got, tier) = reopened.get(*key).expect("entry survives reopen");
            prop_assert_eq!(tier, HitTier::Snapshot);
            prop_assert_eq!(&got, payload);
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A truncated segment file (torn write, killed process) degrades the
    /// lost tail to cold misses: reopening never panics, never errors and
    /// never serves a wrong payload.
    #[test]
    fn truncated_segments_degrade_to_cold_misses(
        raw in prop::collection::vec(
            (0..3_usize, 0..1_000_000_007_usize, 0..1_000_000_007_usize, prop::collection::vec(0..256_usize, 0..40)),
            1..10,
        ),
        cut_seed in 0..10_000_usize,
    ) {
        let dir = scratch("truncate");
        let entries = unique_entries(&raw);
        populate(&dir, &entries);
        let segment = &segments(&dir)[0];
        let bytes = fs::read(segment).expect("read segment");
        let cut = cut_seed % (bytes.len() + 1);
        fs::write(segment, &bytes[..cut]).expect("truncate segment");
        assert_never_wrong(&dir, &entries);
        fs::remove_dir_all(&dir).ok();
    }

    /// A flipped byte anywhere in a segment file — magic, key, length,
    /// checksum or payload — is caught by the record checksum (or the
    /// file-level scan) and degrades to a cold miss, never a wrong result.
    #[test]
    fn bit_flipped_segments_never_return_wrong_payloads(
        raw in prop::collection::vec(
            (0..3_usize, 0..1_000_000_007_usize, 0..1_000_000_007_usize, prop::collection::vec(0..256_usize, 0..40)),
            1..10,
        ),
        position_seed in 0..10_000_usize,
        flip in 1..256_usize,
    ) {
        let dir = scratch("bitflip");
        let entries = unique_entries(&raw);
        populate(&dir, &entries);
        let segment = &segments(&dir)[0];
        let mut bytes = fs::read(segment).expect("read segment");
        let position = position_seed % bytes.len();
        bytes[position] ^= flip as u8;
        fs::write(segment, &bytes).expect("write damaged segment");
        assert_never_wrong(&dir, &entries);
        fs::remove_dir_all(&dir).ok();
    }
}

/// Concurrent writers on one directory — the campaign/daemon sharing model,
/// where every store instance appends to its own uniquely named segment
/// file — interleave without corruption: a fresh open sees every entry,
/// byte-exact, including keys several writers raced to insert.
#[test]
fn concurrent_writers_share_a_directory_without_corruption() {
    let dir = scratch("concurrent");
    let payload_for = |key: u64| -> Vec<u8> { key.to_le_bytes().repeat(3).to_vec() };
    let workers: Vec<_> = (0..4_u64)
        .map(|worker| {
            let dir = dir.clone();
            thread::spawn(move || {
                let store = CacheStore::open(&dir).expect("open shared dir");
                for i in 0..50_u64 {
                    // Even keys are contended by every worker (identical
                    // payloads, as content addressing guarantees); odd
                    // keys are private per worker.
                    let key = if i % 2 == 0 {
                        i
                    } else {
                        1000 * (worker + 1) + i
                    };
                    store
                        .put(StoreKey::new(NS_STAGE, key, !key), &payload_for(key))
                        .expect("concurrent put");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("writer thread");
    }
    let store = CacheStore::open(&dir).expect("reopen after racing writers");
    assert_eq!(store.corrupt_segments(), 0);
    // 25 shared even keys + 4 workers × 25 private odd keys.
    assert_eq!(store.snapshot_len(), 25 + 4 * 25);
    for worker in 0..4_u64 {
        for i in 0..50_u64 {
            let key = if i % 2 == 0 {
                i
            } else {
                1000 * (worker + 1) + i
            };
            let (got, _) = store
                .get(StoreKey::new(NS_STAGE, key, !key))
                .expect("entry present after join");
            assert_eq!(got, payload_for(key));
        }
    }
    fs::remove_dir_all(&dir).ok();
}

/// Two small TI-style instances, fast profile — the same shape as the
/// serve tests, small enough to run a campaign repeatedly.
const MANIFEST: &str = "\
instance ti:6
instance ti:9:7
profile fast
model elmore
skip BWSN
threads 2
";

/// An offline campaign run of [`MANIFEST`], optionally against a store.
fn offline(threads: usize, cache_dir: Option<&Path>) -> CampaignResult {
    let mut manifest = Manifest::parse(MANIFEST).expect("parse manifest");
    manifest.threads = threads;
    manifest.cache_dir = cache_dir.map(|p| p.to_string_lossy().into_owned());
    manifest.compile().expect("compile manifest").run()
}

fn table(result: &CampaignResult) -> String {
    suite_output(result, ReportKind::Table, TableFormat::Text)
}

/// JSONL output with the per-job `cache` objects removed: those profiles
/// are *supposed* to differ between cold and warm runs (misses become disk
/// hits); everything else must stay byte-identical.
fn jsonl_without_cache(result: &CampaignResult) -> String {
    let jsonl = suite_output(result, ReportKind::Jsonl, TableFormat::Text);
    let mut out = String::new();
    let mut rest = jsonl.as_str();
    while let Some(start) = rest.find(",\"cache\":{") {
        let end = start + rest[start..].find('}').expect("cache object closes") + 1;
        out.push_str(&rest[..start]);
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

fn total_disk_hits(result: &CampaignResult) -> u64 {
    result
        .records
        .iter()
        .filter_map(|r| r.cache.as_ref())
        .map(|c| c.disk_hits)
        .sum()
}

/// The tentpole invariant: runs against a store — cold or warm, at any
/// worker count — produce reports byte-identical to cache-less runs, and
/// a warm store actually serves from disk.
#[test]
fn warm_and_cold_reports_are_byte_identical_across_thread_counts() {
    let dir = scratch("campaign");
    let reference = offline(1, None);
    let expected_table = table(&reference);
    let expected_jsonl = jsonl_without_cache(&reference);
    assert!(
        reference.records.iter().all(|r| r.cache.is_none()),
        "cache-less runs must not report cache profiles"
    );

    // Cold run populates the store; reports already match.
    let cold = offline(2, Some(&dir));
    assert_eq!(table(&cold), expected_table);
    assert_eq!(jsonl_without_cache(&cold), expected_jsonl);
    assert_eq!(total_disk_hits(&cold), 0, "an empty store cannot hit");

    // Warm runs at every worker count serve from disk and stay identical.
    for threads in [1_usize, 2, 8] {
        let warm = offline(threads, Some(&dir));
        assert_eq!(
            table(&warm),
            expected_table,
            "warm run at {threads} threads diverged"
        );
        assert_eq!(jsonl_without_cache(&warm), expected_jsonl);
        assert!(
            total_disk_hits(&warm) > 0,
            "warm run at {threads} threads never hit the store"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

/// The per-job cache profiles themselves are deterministic: classification
/// is by open-time snapshot membership, so two warm runs at different
/// worker counts report identical counters job for job.
#[test]
fn cache_profiles_are_deterministic_across_worker_counts() {
    let dir = scratch("profiles");
    offline(2, Some(&dir));
    let profile = |result: &CampaignResult| -> Vec<(String, String, u64, u64, u64)> {
        result
            .records
            .iter()
            .map(|r| {
                let c = r.cache.expect("store-backed run carries a profile");
                (
                    r.benchmark.clone(),
                    r.tool.clone(),
                    c.mem_hits,
                    c.disk_hits,
                    c.misses,
                )
            })
            .collect()
    };
    let warm1 = profile(&offline(1, Some(&dir)));
    for threads in [2_usize, 8] {
        assert_eq!(
            profile(&offline(threads, Some(&dir))),
            warm1,
            "cache profile depends on worker count {threads}"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

/// The per-job profile counts the job's own lookups on an evaluator
/// whose caches were emptied for it, with store answers added since the
/// store opened counted as misses. Against an empty store, its counters on
/// ispd09f11 (default profile, Elmore model) equal what a cold session
/// without a store observes, evictions included: every key that aged out
/// of memory and came back from the store is one the store-less session
/// solved again.
#[test]
fn job_profile_mirrors_a_cold_evaluator_exactly() {
    let instance = contango::benchmarks::make_instance(&contango::benchmarks::ispd09_suite()[0]);
    let flow = ContangoFlow::new(
        Technology::ispd09(),
        FlowConfig {
            model: DelayModel::Elmore,
            ..FlowConfig::default()
        },
    );
    let run = |session: &mut EngineSession| {
        flow.run_in(session, &flow.pipeline(), &instance, &mut NoopObserver)
            .expect("flow runs");
    };

    let dir = scratch("mirror");
    let mut profiled = flow.session();
    profiled.attach_cache(std::sync::Arc::new(
        CacheStore::open(&dir).expect("open store"),
    ));
    profiled.evaluator().begin_job_profile();
    run(&mut profiled);
    let profile = profiled.evaluator().take_job_profile();

    let mut plain = flow.session();
    run(&mut plain);
    let observed = plain.evaluator().stats();

    assert_eq!(profile.disk_hits, 0, "{profile:?}");
    assert_eq!(
        profile.mem_hits,
        observed.stage_hits + observed.solve_hits,
        "{profile:?} against {observed:?}"
    );
    assert_eq!(
        profile.misses,
        observed.stage_misses + observed.solve_misses,
        "{profile:?} against {observed:?}"
    );
    assert_eq!(
        profile.evictions, observed.evictions,
        "{profile:?} against {observed:?}"
    );
    assert!(profile.evictions > 0, "nothing aged out: {profile:?}");
    fs::remove_dir_all(&dir).ok();
}

/// One store directory serving the daemon's whole worker pool and a
/// concurrent offline campaign at once: nobody corrupts anybody, and every
/// report stays byte-identical to the cache-less reference.
#[test]
fn one_store_serves_daemon_pools_and_concurrent_campaigns() {
    let dir = scratch("daemon");
    let expected_table = table(&offline(1, None));

    // Daemon pools of 1, 2 and 8 workers over the same store directory.
    for workers in [1_usize, 2, 8] {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_capacity: 64,
            allow_file_instances: false,
            cache_dir: Some(dir.to_string_lossy().into_owned()),
        })
        .expect("bind serve port");
        let addr = server.local_addr();
        let daemon = thread::spawn(move || server.run());

        // While the daemon run is in flight, an offline campaign shares
        // the same directory through its own store instance.
        let offline_dir = dir.clone();
        let racer = thread::spawn(move || table(&offline(2, Some(&offline_dir))));

        let mut client = Client::connect(addr).expect("connect");
        match client
            .run_manifest(MANIFEST, ReportKind::Table, TableFormat::Text)
            .expect("run manifest")
        {
            Response::RunOk { failed, output, .. } => {
                assert_eq!(failed, 0);
                assert_eq!(
                    output, expected_table,
                    "daemon with {workers} workers diverged from the cache-less run"
                );
            }
            other => panic!("expected run-ok, got {other:?}"),
        }
        assert_eq!(racer.join().expect("offline racer"), expected_table);
        assert!(matches!(
            client.shutdown().expect("shutdown"),
            Response::ShutdownAck { .. }
        ));
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    }

    // After all that shared traffic the directory is still a clean,
    // fully warm store.
    let store = CacheStore::open(&dir).expect("reopen shared store");
    assert_eq!(store.corrupt_segments(), 0);
    assert!(store.snapshot_len() > 0);
    let warm = offline(2, Some(&dir));
    assert_eq!(table(&warm), expected_table);
    assert!(total_disk_hits(&warm) > 0);
    fs::remove_dir_all(&dir).ok();
}
