//! Integration tests for the `contango serve` daemon: fuzzing the NDJSON
//! decoder and the wire protocol (nothing a client sends may panic the
//! server or go unanswered), determinism (served responses are
//! bit-identical across pool sizes and to offline campaign runs), and the
//! request ledger under concurrent load.

use contango::campaign::json::JsonValue;
use contango::campaign::output::suite_output;
use contango::prelude::*;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::thread;
use std::time::Duration;

/// Two small TI-style instances, fast profile, one stage ablated — enough
/// to exercise job fan-out and stage selection while staying quick.
const MANIFEST: &str = "\
instance ti:6
instance ti:9:7
profile fast
model elmore
skip BWSN
threads 2
";

fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: 64,
        allow_file_instances: false,
        cache_dir: None,
    }
}

/// Binds a daemon, runs it on a background thread and returns its address
/// (the thread is detached; the test process reaps it at exit).
fn spawn_server(workers: usize) -> SocketAddr {
    let server = Server::bind(serve_config(workers)).expect("bind serve port");
    let addr = server.local_addr();
    thread::spawn(move || server.run());
    addr
}

/// One shared daemon for the fuzz cases, so each case only opens a
/// connection instead of a whole worker pool.
fn fuzz_server() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| spawn_server(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The hand-rolled JSON decoder is total: arbitrary byte soup decodes
    /// to a value or a typed error, never a panic — and the same holds one
    /// layer up for request frames.
    #[test]
    fn json_and_request_decoding_are_total(
        bytes in prop::collection::vec(0..256_usize, 0..160)
    ) {
        let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(value) = JsonValue::parse(&text) {
            // Whatever parsed must be walkable without panicking either.
            let _ = value.get("id");
            let _ = (value.as_str(), value.as_f64(), value.as_u64());
            let _ = value.as_array().map(<[JsonValue]>::len);
        }
        let _ = Request::decode(&text);
        let _ = Response::decode(&text);
        let _ = WorkerFrame::decode(&text);
        let _ = CoordFrame::decode(&text);
    }

    /// Every malformed, truncated or garbage frame sent over the wire gets
    /// exactly one decodable, typed error response — and the daemon
    /// survives to answer the next frame.
    #[test]
    fn malformed_frames_get_typed_error_responses(
        frames in prop::collection::vec(prop::collection::vec(0..256_usize, 1..60), 1..5)
    ) {
        let addr = fuzz_server();
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut writer = stream.try_clone().expect("clone stream");
        let mut reader = BufReader::new(stream);
        let mut sent = 0usize;
        for frame in &frames {
            // A raw newline would split one fuzz frame into several; bend
            // it to an inert byte. Frames the server ignores as blank
            // (NDJSON convention) are skipped with the same predicate the
            // server uses.
            let bytes: Vec<u8> = frame
                .iter()
                .map(|&b| match b as u8 {
                    b'\n' => b'\x0e',
                    other => other,
                })
                .collect();
            if bytes.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            writer.write_all(&bytes).expect("send frame");
            writer.write_all(b"\n").expect("send newline");
            sent += 1;
        }
        writer.flush().expect("flush");
        for _ in 0..sent {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read response");
            let response = Response::decode(line.trim_end()).expect("decodable response");
            match response {
                Response::Error { kind, message, .. } => {
                    prop_assert!(!kind.is_empty());
                    prop_assert!(!message.is_empty());
                }
                other => prop_assert!(false, "garbage got a success response: {other:?}"),
            }
        }
        // The daemon is still alive and sane after the garbage.
        let mut client = Client::connect(addr).expect("reconnect");
        prop_assert!(matches!(client.ping(), Ok(Response::Pong { .. })));
    }
}

/// A frame trickling in across writes spaced 120 ms apart is still
/// reassembled into one request (the reader must keep a partial frame
/// across reads).
#[test]
fn slow_partial_frames_are_reassembled() {
    let addr = fuzz_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let frame = Request {
        id: RequestId::Number(7),
        body: RequestBody::Ping,
    }
    .encode()
        + "\n";
    let bytes = frame.as_bytes();
    let mid = bytes.len() / 2;
    stream.write_all(&bytes[..mid]).expect("first half");
    stream.flush().expect("flush");
    // Long enough that the server's first read returns the first half
    // alone.
    thread::sleep(Duration::from_millis(120));
    stream.write_all(&bytes[mid..]).expect("second half");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    let response = Response::decode(line.trim_end()).expect("decodable response");
    assert!(
        matches!(&response, Response::Pong { id, .. } if *id == RequestId::Number(7)),
        "expected pong for id 7, got {response:?}"
    );
}

/// Byte-interleaved traffic on two connections stays isolated: each
/// connection's split frame reassembles independently and gets its own
/// response.
#[test]
fn interleaved_connections_get_matched_responses() {
    let addr = fuzz_server();
    let mut streams = Vec::new();
    for id in [31_u64, 32] {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let frame = Request {
            id: RequestId::Number(id),
            body: RequestBody::Ping,
        }
        .encode()
            + "\n";
        streams.push((stream, frame, id));
    }
    // First halves on both connections, then second halves, so the frames
    // are interleaved on the wire.
    for (stream, frame, _) in &mut streams {
        let bytes = frame.as_bytes();
        stream.write_all(&bytes[..bytes.len() / 2]).expect("half");
        stream.flush().expect("flush");
    }
    for (stream, frame, _) in &mut streams {
        let bytes = frame.as_bytes();
        stream.write_all(&bytes[bytes.len() / 2..]).expect("rest");
        stream.flush().expect("flush");
    }
    for (stream, _, id) in streams {
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        let response = Response::decode(line.trim_end()).expect("decodable response");
        assert!(
            matches!(&response, Response::Pong { id: got, .. } if *got == RequestId::Number(id)),
            "expected pong for id {id}, got {response:?}"
        );
    }
}

/// Every distributed-campaign frame survives an encode/decode round trip,
/// and every torn prefix of its encoding decodes to a typed error — never
/// a panic, never a bogus frame (the coordinator treats a torn frame as
/// worker death, so the decoder must flag it reliably).
#[test]
fn dist_frames_round_trip_and_reject_every_torn_prefix() {
    let worker_frames = [
        WorkerFrame::Hello {
            protocol: contango::campaign::protocol::DIST_PROTOCOL,
            slots: 3,
            name: "torn \"w\"\n1".to_string(),
        },
        WorkerFrame::JobDone {
            seq: 41,
            record: Box::new(JobRecord {
                benchmark: "ti-6".to_string(),
                tool: "contango".to_string(),
                sinks: 6,
                outcome: Err(CoreError::Remote {
                    message: "line1\nline2 \"quoted\"".to_string(),
                }),
                cache: None,
            }),
        },
        WorkerFrame::JobFailed {
            seq: 42,
            message: "no init\treceived".to_string(),
        },
        WorkerFrame::Heartbeat,
    ];
    for frame in &worker_frames {
        let line = frame.encode();
        assert_eq!(&WorkerFrame::decode(&line).expect("round trip"), frame);
        for cut in 0..line.len() {
            assert!(
                WorkerFrame::decode(&line[..cut]).is_err(),
                "torn prefix decoded as a frame: {:?}",
                &line[..cut]
            );
        }
    }
    let coord_frames = [
        CoordFrame::Init {
            protocol: contango::campaign::protocol::DIST_PROTOCOL,
            manifest: "instance ti:6\nprofile fast\n".to_string(),
        },
        CoordFrame::Assign { seq: 7, job: 2 },
        CoordFrame::Drain,
    ];
    for frame in &coord_frames {
        let line = frame.encode();
        assert_eq!(&CoordFrame::decode(&line).expect("round trip"), frame);
        for cut in 0..line.len() {
            assert!(
                CoordFrame::decode(&line[..cut]).is_err(),
                "torn prefix decoded as a frame: {:?}",
                &line[..cut]
            );
        }
    }
}

/// Served responses are bit-identical across pool sizes 1/2/8 and to
/// offline campaign runs at any thread count — the acceptance criterion of
/// clock-synthesis-as-a-service.
#[test]
fn responses_bit_identical_across_pool_sizes_and_offline() {
    // Offline references at two thread counts (already proven identical by
    // the campaign tests; re-checked here because the daemon claims the
    // same equivalence).
    let offline = |threads: usize| {
        let mut manifest = Manifest::parse(MANIFEST).expect("parse manifest");
        manifest.threads = threads;
        manifest.compile().expect("compile manifest").run()
    };
    let reference = offline(1);
    let expected_table = suite_output(&reference, ReportKind::Table, TableFormat::Text);
    let expected_jsonl = suite_output(&reference, ReportKind::Jsonl, TableFormat::Text);
    assert_eq!(
        suite_output(&offline(2), ReportKind::Table, TableFormat::Text),
        expected_table,
        "offline runs must agree across thread counts"
    );

    for workers in [1_usize, 2, 8] {
        let server = Server::bind(serve_config(workers)).expect("bind serve port");
        let addr = server.local_addr();
        let daemon = thread::spawn(move || server.run());
        let mut client = Client::connect(addr).expect("connect");
        for (kind, expected) in [
            (ReportKind::Table, &expected_table),
            (ReportKind::Jsonl, &expected_jsonl),
        ] {
            match client
                .run_manifest(MANIFEST, kind, TableFormat::Text)
                .expect("run manifest")
            {
                Response::RunOk {
                    jobs,
                    failed,
                    output,
                    ..
                } => {
                    assert_eq!(jobs, 2);
                    assert_eq!(failed, 0);
                    assert_eq!(
                        &output, expected,
                        "pool size {workers} diverged from the offline run"
                    );
                }
                other => panic!("expected run-ok, got {other:?}"),
            }
        }
        assert!(matches!(
            client.shutdown().expect("shutdown"),
            Response::ShutdownAck { .. }
        ));
        let summary = daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
        // Nothing accepted may go unanswered: shutdown drains the queue.
        assert_eq!(summary.accepted, summary.completed);
        assert_eq!(summary.accepted, 2);
        assert_eq!(summary.jobs_run, 4);
    }
}

/// Shutdown drains the queue: four `run` requests pipelined ahead of a
/// `shutdown` on one connection to a one-worker daemon all complete, though
/// most of them are still queued when `shutdown` closes the queue.
#[test]
fn shutdown_drains_pipelined_requests_still_queued() {
    let server = Server::bind(serve_config(1)).expect("bind serve port");
    let addr = server.local_addr();
    let daemon = thread::spawn(move || server.run());
    let stream = TcpStream::connect(addr).expect("connect");
    // A dropped request would leave its response unwritten: fail, not hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut frames = String::new();
    for id in 1..=4 {
        let run = Request {
            id: RequestId::Number(id),
            body: RequestBody::Run {
                manifest: MANIFEST.to_string(),
                report: ReportKind::Jsonl,
                format: TableFormat::Text,
            },
        };
        frames += &(run.encode() + "\n");
    }
    let shutdown = Request {
        id: RequestId::Number(5),
        body: RequestBody::Shutdown,
    };
    frames += &(shutdown.encode() + "\n");
    writer.write_all(frames.as_bytes()).expect("send frames");
    writer.flush().expect("flush");

    let mut reader = BufReader::new(stream);
    let mut completed = Vec::new();
    for _ in 0..5 {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("response before the timeout");
        match Response::decode(line.trim_end()).expect("decodable response") {
            Response::RunOk { id, failed: 0, .. } => completed.push(id),
            Response::ShutdownAck { .. } => {}
            other => panic!("unexpected response {other:?}"),
        }
    }
    // One worker pops the FIFO in submission order.
    let ids: Vec<RequestId> = (1..=4).map(RequestId::Number).collect();
    assert_eq!(completed, ids);
    let summary = daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
    assert_eq!((summary.accepted, summary.completed), (4, 4));
}

/// Concurrent clients against a small queue: every refusal is a typed
/// `overloaded` frame that the client retries, and the daemon's ledger
/// accounts for every request. Whether any refusal happens depends on
/// timing, so none is required.
#[test]
fn ledger_balances_under_concurrent_load_with_retried_refusals() {
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 25;
    const LOAD_MANIFEST: &str = "instance ti:6\nprofile fast\nmodel elmore\nstages INITIAL\n";
    let server = Server::bind(ServeConfig {
        queue_capacity: 2,
        ..serve_config(2)
    })
    .expect("bind serve port");
    let addr = server.local_addr();
    let daemon = thread::spawn(move || server.run());

    // Each client sends its requests one at a time and returns how many
    // refusals it retried.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut refusals = 0u64;
                for _ in 0..REQUESTS {
                    loop {
                        match client
                            .run_manifest(LOAD_MANIFEST, ReportKind::Table, TableFormat::Text)
                            .expect("run manifest")
                        {
                            Response::RunOk { failed: 0, .. } => break,
                            Response::Error { kind, .. } if kind == "overloaded" => {
                                refusals += 1;
                                thread::sleep(Duration::from_millis(2));
                            }
                            other => panic!("unexpected response under load: {other:?}"),
                        }
                    }
                }
                refusals
            })
        })
        .collect();
    let refusals: u64 = clients
        .into_iter()
        .map(|client| client.join().expect("client thread"))
        .sum();

    Client::connect(addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    let summary = daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
    let sent = (CLIENTS * REQUESTS) as u64;
    assert_eq!((summary.accepted, summary.completed), (sent, sent));
    assert_eq!(summary.rejected, refusals);
    assert_eq!(summary.jobs_run, sent);
}
