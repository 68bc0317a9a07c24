//! Process-level tests of the distributed CLI: a real coordinator process
//! spawning real pipe workers (`suite --workers N`) and serving real TCP
//! workers (`--dispatch tcp:...` + `worker --connect`), byte-compared to a
//! plain serial `suite` run — with fault injection on one worker. One
//! ignored test holds the pipe pool's speed-up floor at 4 workers.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_contango-cts");

/// Two TI-style instances, fast profile, one stage ablated: four quick
/// jobs (two tools per instance) so a pool has something to share.
const MANIFEST: &str = "\
instance ti:6
instance ti:9:7
profile fast
model elmore
skip BWSN
baselines dme-no-tuning
threads 2
";

/// Four TI-style instances crossed with one baseline: eight jobs, each
/// run at one thread.
const FLOOR_MANIFEST: &str = "\
instance ti:6
instance ti:9:7
instance ti:12:3
instance ti:16:5
profile fast
model elmore
skip BWSN
baselines dme-no-tuning
threads 1
";

/// Writes `manifest` to a unique temp path and returns it.
fn manifest_file(tag: &str, manifest: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "contango-dist-{}-{tag}.manifest",
        std::process::id()
    ));
    let mut file = std::fs::File::create(&path).expect("create manifest file");
    file.write_all(manifest.as_bytes()).expect("write manifest");
    path
}

/// Runs the CLI with the given arguments and returns its stdout; stderr is
/// surfaced on failure.
fn run_cli(args: &[&str]) -> String {
    let output = Command::new(BIN)
        .args(args)
        .output()
        .expect("run contango-cts");
    assert!(
        output.status.success(),
        "contango-cts {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// Picks a free TCP port by binding port 0 and releasing it.
fn free_addr() -> String {
    let probe = TcpListener::bind("127.0.0.1:0").expect("probe port");
    let addr = probe.local_addr().expect("probe addr");
    drop(probe);
    addr.to_string()
}

/// Spawns a `worker --connect` process once the coordinator is accepting.
fn spawn_tcp_worker(addr: &str, name: &str, chaos: Option<&str>) -> Child {
    let mut command = Command::new(BIN);
    command
        .args(["worker", "--connect", addr, "--name", name])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(spec) = chaos {
        command.args(["--chaos", spec]);
    }
    command.spawn().expect("spawn worker process")
}

/// The local-spawn path: `suite --manifest M --workers 2` forks two pipe
/// workers and must print exactly the serial run's bytes.
#[test]
fn local_pipe_workers_reproduce_the_serial_suite_bytes() {
    let manifest = manifest_file("pipes", MANIFEST);
    let path = manifest.to_str().expect("utf-8 temp path");
    let serial = run_cli(&["suite", "--manifest", path]);
    let distributed = run_cli(&["suite", "--manifest", path, "--workers", "2"]);
    assert_eq!(distributed, serial, "pipe-worker pool diverged from serial");
    let _ = std::fs::remove_file(&manifest);
}

/// The TCP path under fire: three remote workers, one rigged to crash
/// after its first job, still reduce to the serial bytes with every job
/// accounted for.
#[test]
fn tcp_workers_with_a_mid_run_crash_reproduce_the_serial_suite_bytes() {
    let manifest = manifest_file("tcp", MANIFEST);
    let path = manifest.to_str().expect("utf-8 temp path");
    let serial = run_cli(&["suite", "--manifest", path]);

    let addr = free_addr();
    let dispatch = format!("tcp:{addr}");
    let coordinator = Command::new(BIN)
        .args(["suite", "--manifest", path, "--dispatch", &dispatch])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn coordinator");

    // Wait for the coordinator to bind before pointing workers at it. The
    // probe connection registers as a worker that joins and dies silently,
    // which the coordinator must shrug off.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match TcpStream::connect(&addr) {
            Ok(_) => break,
            Err(e) if Instant::now() >= deadline => panic!("coordinator never bound: {e}"),
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }

    let workers = [
        spawn_tcp_worker(&addr, "crasher", Some("kill:1")),
        spawn_tcp_worker(&addr, "steady-a", None),
        spawn_tcp_worker(&addr, "steady-b", None),
    ];

    let output = coordinator.wait_with_output().expect("coordinator output");
    assert!(
        output.status.success(),
        "coordinator failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let distributed = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert_eq!(
        distributed, serial,
        "TCP pool with a crash diverged from serial"
    );

    for mut worker in workers {
        let _ = worker.wait();
    }
    let _ = std::fs::remove_file(&manifest);
}

/// A pool of 4 pipe workers runs an eight-job manifest at least 1.5x
/// faster than a serial `suite`, with the same bytes. The floor is
/// asserted only on hosts with at least 4 cores; smaller hosts print the
/// measured ratio instead.
#[test]
#[ignore = "timing floor; run in release with --ignored"]
fn four_pipe_workers_are_at_least_1_5x_faster_than_serial() {
    let manifest = manifest_file("floor", FLOOR_MANIFEST);
    let path = manifest.to_str().expect("utf-8 temp path");
    let timed = |args: &[&str]| {
        let start = Instant::now();
        let stdout = run_cli(args);
        (stdout, start.elapsed().as_secs_f64())
    };
    let (serial, serial_s) = timed(&["suite", "--manifest", path]);
    let (pooled, pooled_s) = timed(&["suite", "--manifest", path, "--workers", "4"]);
    let _ = std::fs::remove_file(&manifest);
    assert_eq!(pooled, serial, "pipe-worker pool diverged from serial");

    let speedup = serial_s / pooled_s;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Written past the test harness's capture so the note shows in CI logs.
    let _ = writeln!(
        std::io::stderr(),
        "pipe pool at 4 workers: {speedup:.2}x \
         (floor 1.5x, asserted only on 4+ cores; host has {cores})"
    );
    assert!(
        cores < 4 || speedup >= 1.5,
        "pipe pool speedup at 4 workers regressed below the 1.5x floor: {speedup:.2}"
    );
}
