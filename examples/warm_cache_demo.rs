//! Demonstrate the persistent content-addressed cache store: run a small
//! benchmark suite cold (empty store), rerun it warm (every transient
//! solve served from disk, so no job solves anything), and show that the
//! aggregate report is byte-identical while the wall clock drops.
//!
//! Run with `cargo run --release --example warm_cache_demo`.

use contango::campaign::output::suite_output;
use contango::prelude::*;
use contango::sim::{CacheCounters, CacheStore};
use std::sync::Arc;
use std::time::Instant;

const MANIFEST: &str = "\
instance ti:24
instance ti:32:7
instance ti:40:9
profile fast
threads 2
";

fn run(store: Option<Arc<CacheStore>>) -> (CampaignResult, f64) {
    let manifest = Manifest::parse(MANIFEST).expect("manifest parses");
    let mut campaign = manifest.compile().expect("manifest compiles");
    if let Some(store) = store {
        campaign = campaign.with_cache(store);
    }
    let start = Instant::now();
    let result = campaign.run();
    (result, start.elapsed().as_secs_f64())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("contango-warm-demo-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    println!("cache store: {}\n", dir.display());

    // Cold: the store is empty, so every job computes its results and
    // persists them as it goes.
    let (cold, cold_s) = run(Some(Arc::new(CacheStore::open(&dir)?)));
    // Warm: a fresh store instance over the same directory now snapshots
    // everything the cold run wrote.
    let (warm, warm_s) = run(Some(Arc::new(CacheStore::open(&dir)?)));

    let profile = |result: &CampaignResult| {
        let mut total = CacheCounters::default();
        for record in &result.records {
            total.absorb(record.cache.unwrap_or_default());
        }
        total
    };
    let cold_profile = profile(&cold);
    let warm_profile = profile(&warm);
    println!(
        "cold run: {cold_s:.2}s  ({} lookups, {} misses, {} disk hits)",
        cold_profile.lookups(),
        cold_profile.misses,
        cold_profile.disk_hits
    );
    println!(
        "warm run: {warm_s:.2}s  ({} lookups, {} misses, {} disk hits)",
        warm_profile.lookups(),
        warm_profile.misses,
        warm_profile.disk_hits
    );
    println!("speedup: {:.1}x", cold_s / warm_s);

    // The invariant the whole subsystem is built around: the store changes
    // how fast the report is produced, never a byte of its content.
    let cold_table = suite_output(&cold, ReportKind::Table, TableFormat::Text);
    let warm_table = suite_output(&warm, ReportKind::Table, TableFormat::Text);
    assert_eq!(cold_table, warm_table, "warm report must be byte-identical");
    assert!(warm_profile.disk_hits > 0, "warm run must hit the store");
    println!("\ncold and warm aggregate reports are byte-identical:\n");
    println!("{warm_table}");

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
