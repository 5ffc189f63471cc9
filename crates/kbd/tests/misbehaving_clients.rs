//! The event-driven backend against clients that do everything wrong:
//! dribble requests one byte at a time, send torn frames, oversized
//! frames and meta-features no index can hold, and stop reading their
//! responses entirely. The server must
//! stay correct, stay bounded in memory, and — the busy-spin canary —
//! stay *idle*: a stalled connection must not inflate the per-loop
//! `epoll_wait` counter.

use smartml_classifiers::{Algorithm, ParamConfig};
use smartml_data::synth::gaussian_blobs;
use smartml_kb::{AlgorithmRun, KnowledgeBase, QueryOptions};
use smartml_kbd::{
    BatchQuery, DurableOptions, EventServer, EventServerOptions, LoopStats, Request, Response,
    ShardedKb, MAX_FRAME_BYTES,
};
use smartml_metafeatures::{extract, MetaFeatures};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smartml-kbd-mb-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mf(seed: u64) -> MetaFeatures {
    let d = gaussian_blobs("mb", 40 + (seed % 11) as usize, 3, 2, 0.8, seed);
    extract(&d, &d.all_rows())
}

struct Fixture {
    addr: String,
    stats: Arc<Vec<LoopStats>>,
    handle: std::thread::JoinHandle<()>,
    dir: PathBuf,
}

fn seed_run(i: u64) -> AlgorithmRun {
    AlgorithmRun {
        algorithm: [Algorithm::RandomForest, Algorithm::Svm, Algorithm::Knn][i as usize % 3],
        config: ParamConfig::default(),
        accuracy: 0.6 + (i % 30) as f64 / 100.0,
    }
}

fn spawn(tag: &str, seed_entries: u64) -> Fixture {
    let dir = temp_dir(tag);
    let server = EventServer::bind(EventServerOptions {
        dir: dir.clone(),
        n_loops: 2,
        durable: DurableOptions { fsync_writes: false, ..Default::default() },
        ..EventServerOptions::default()
    })
    .expect("event server binds");
    let addr = server.local_addr().expect("addr").to_string();
    let stats = server.loop_stats();
    let handle = std::thread::spawn(move || server.run().expect("event serve loop"));
    if seed_entries > 0 {
        let client = smartml_kbd::KbClient::connect(addr.clone());
        for i in 0..seed_entries {
            client.record_run(&format!("ds-{i}"), &mf(i), seed_run(i)).expect("seed");
        }
    }
    Fixture { addr, stats, handle, dir }
}

fn total_wakeups(stats: &[LoopStats]) -> u64 {
    stats.iter().map(|s| s.wakeups.load(Ordering::Relaxed)).sum()
}

fn shutdown(fixture: Fixture) {
    let client = smartml_kbd::KbClient::connect(fixture.addr.clone());
    client.shutdown().expect("shutdown");
    fixture.handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&fixture.dir);
}

/// A request dribbled one byte at a time still parses once its newline
/// lands — partial frames buffer across reads — and a frame torn by a
/// mid-line disconnect is dropped without a response or a crash.
#[test]
fn dribbled_bytes_and_torn_frames() {
    let fixture = spawn("dribble", 0);

    // Byte-at-a-time ping: dozens of 1-byte reads, one response.
    let stream = TcpStream::connect(&fixture.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for byte in b"{\"op\":\"ping\"}\n" {
        writer.write_all(&[*byte]).expect("dribble byte");
        writer.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut response = String::new();
    reader.read_line(&mut response).expect("response");
    assert_eq!(response.trim(), "{\"status\":\"pong\"}");

    // Torn frame: half a request, then a hard disconnect. No response is
    // owed; the server must just clean the connection up.
    let mut torn = TcpStream::connect(&fixture.addr).expect("connect torn");
    torn.write_all(b"{\"op\":\"pi").expect("half frame");
    drop(torn);
    std::thread::sleep(Duration::from_millis(50));

    // Dribbling again on the first connection still works: state was
    // per-connection, not poisoned globally.
    writeln!(writer, "{{\"op\":\"ping\"}}").expect("second ping");
    let mut response = String::new();
    reader.read_line(&mut response).expect("second response");
    assert_eq!(response.trim(), "{\"status\":\"pong\"}");

    shutdown(fixture);
}

/// A frame above [`MAX_FRAME_BYTES`] gets exactly one protocol error —
/// not an allocation proportional to whatever the client keeps sending —
/// and the connection is closed.
#[test]
fn oversized_frame_is_rejected_with_one_error() {
    let fixture = spawn("oversized", 0);
    let stream = TcpStream::connect(&fixture.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // Well past the cap of newline-free junk, from a separate thread:
    // once the server rejects the frame it stops reading, so the tail of
    // this torrent blocks in kernel buffers (and errors out when the
    // server closes) — the main thread meanwhile reads the error.
    let junk_writer = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 * 1024];
        let mut sent = 0usize;
        while sent <= MAX_FRAME_BYTES + 4 * 1024 * 1024 {
            if writer.write_all(&chunk).is_err() {
                break; // server closed mid-torrent: expected
            }
            sent += chunk.len();
        }
    });
    let mut response = String::new();
    reader.read_line(&mut response).expect("error response");
    let parsed: serde_json::Value = serde_json::from_str(&response).expect("error json");
    assert_eq!(parsed["status"], "error");
    assert!(
        parsed["message"].as_str().unwrap_or("").contains("byte limit"),
        "unexpected message: {response}"
    );
    // The server drains-and-discards the rest of the torrent (so the
    // error line above survived — closing with unread input queued would
    // have RST it away), which means the junk writer runs to completion
    // instead of deadlocking on a stalled socket.
    junk_writer.join().expect("junk writer");

    // No further responses: the poisoned stream is never re-parsed.
    drop(reader);

    // And the server is still healthy for the next client.
    let client = smartml_kbd::KbClient::connect(fixture.addr.clone());
    client.ping().expect("ping after oversized frame");
    shutdown(fixture);
}

/// The never-draining reader: a client pipelines big batched queries and
/// refuses to read any responses. Backpressure must engage (bounded
/// buffers, reads paused), the loop must go *quiet* instead of spinning
/// on the unwritable socket, and once the client finally drains, every
/// response must arrive intact.
#[test]
fn slow_reader_backpressure_without_busy_spin() {
    let fixture = spawn("backpressure", 24);

    let query_options = QueryOptions { n_neighbors: 10, top_n: 8, ..QueryOptions::default() };
    let batch = Request::RecommendBatch {
        queries: (0..150u64)
            .map(|i| BatchQuery {
                meta_features: mf(1000 + i),
                landmarkers: None,
                options: Some(query_options.clone()),
            })
            .collect(),
    };
    let line = serde_json::to_string(&batch).expect("encode batch");

    const BURSTS: usize = 12;
    let stream = TcpStream::connect(&fixture.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let writer_thread = std::thread::spawn(move || {
        // Blocking writes: once the server pauses reading, these stall
        // on the kernel buffers — exactly the backpressure under test.
        for _ in 0..BURSTS {
            writer.write_all(line.as_bytes()).expect("burst line");
            writer.write_all(b"\n").expect("burst newline");
        }
        writer.flush().expect("flush");
    });

    // Let the pipeline jam: server responses fill its write buffer past
    // the high-water mark, reads pause, the client's writes stall.
    std::thread::sleep(Duration::from_millis(400));

    // The canary: with everything stalled, the loops must be asleep.
    let before = total_wakeups(&fixture.stats);
    std::thread::sleep(Duration::from_millis(300));
    let idle_wakeups = total_wakeups(&fixture.stats) - before;
    assert!(
        idle_wakeups < 20,
        "event loops busy-spun while stalled: {idle_wakeups} wakeups in 300ms"
    );

    // Now drain: every burst must come back complete and parseable.
    let mut reader = BufReader::new(stream);
    for burst in 0..BURSTS {
        let mut response = String::new();
        reader.read_line(&mut response).expect("drain response");
        assert!(response.ends_with('\n'), "truncated response for burst {burst}");
        let parsed: serde_json::Value = serde_json::from_str(&response).expect("response json");
        assert_eq!(parsed["status"], "recommendations", "burst {burst}: {response}");
        assert_eq!(
            parsed["recommendations"].as_array().map(Vec::len),
            Some(150),
            "burst {burst} lost answers"
        );
    }
    writer_thread.join().expect("writer thread");

    // Clean teardown: close our half; the server must notice and the
    // next client must be unaffected.
    drop(reader);
    let client = smartml_kbd::KbClient::connect(fixture.addr.clone());
    client.ping().expect("ping after backpressure client");
    shutdown(fixture);
}

/// An idle open connection costs (almost) nothing: no timers firing per
/// tick, no spurious readiness.
#[test]
fn idle_connection_does_not_wake_the_loops() {
    let fixture = spawn("idle", 0);
    let stream = TcpStream::connect(&fixture.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream.try_clone().expect("clone2"));
    writeln!(writer, "{{\"op\":\"ping\"}}").expect("ping");
    let mut response = String::new();
    reader.read_line(&mut response).expect("pong");

    let before = total_wakeups(&fixture.stats);
    std::thread::sleep(Duration::from_millis(300));
    let idle_wakeups = total_wakeups(&fixture.stats) - before;
    assert!(idle_wakeups < 10, "idle connection woke the loops {idle_wakeups} times in 300ms");

    drop((reader, writer, stream));
    shutdown(fixture);
}

/// Reads still work while a read is "slow": a client that sends a valid
/// request, then trickles unrelated bytes, must get its answer without
/// the trickle being misparsed.
#[test]
fn interleaved_trickle_and_requests_stay_framed() {
    let fixture = spawn("trickle", 6);
    let stream = TcpStream::connect(&fixture.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    let request = serde_json::to_string(&Request::Recommend {
        meta_features: mf(2000),
        landmarkers: None,
        options: Some(QueryOptions::default()),
    })
    .expect("encode");
    // Full request + the first half of a second one in a single write.
    let half = &request[..request.len() / 2];
    writer.write_all(format!("{request}\n{half}").as_bytes()).expect("one and a half");
    let mut response = String::new();
    reader.read_line(&mut response).expect("first answer");
    let parsed: serde_json::Value = serde_json::from_str(&response).expect("json");
    assert_eq!(parsed["status"], "recommendation");

    // Finish the second frame; it must parse as its own request.
    writer
        .write_all(format!("{}\n", &request[request.len() / 2..]).as_bytes())
        .expect("second half");
    let mut response2 = String::new();
    reader.read_line(&mut response2).expect("second answer");
    assert_eq!(response, response2, "the reassembled frame must answer identically");

    shutdown(fixture);
}

/// The poison pill: well-formed requests whose meta-features no index
/// can hold — an overflowing `1e999`, a vector of three — used to be
/// acknowledged, fsynced, and to kill the event loop on the next read
/// (and again after every restart). Each gets an error line, the same
/// connection keeps being served, and nothing invalid reaches the WAL.
#[test]
fn invalid_meta_features_get_an_error_line_and_never_reach_the_wal() {
    const SEEDED: u64 = 6;
    let fixture = spawn("poison", SEEDED);
    let stream = TcpStream::connect(&fixture.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut ask = |line: &str| -> Response {
        writeln!(writer, "{line}").expect("request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("response");
        serde_json::from_str(&response).expect("response json")
    };

    let enc = |r: &Request| serde_json::to_string(r).expect("encode request");
    let record = |meta_features: MetaFeatures| {
        enc(&Request::RecordRun { dataset_id: "pill".into(), meta_features, run: seed_run(0) })
    };
    let recommend =
        |meta_features| enc(&Request::Recommend { meta_features, landmarkers: None, options: None });
    // `1e999` parses to +inf; no encoder writes it, so it is spliced in.
    let mut marked = mf(7);
    marked.values[3] = 12345.678;
    let overflow = |line: String| line.replace("12345.678", "1e999");
    let short = MetaFeatures { values: vec![0.5, 1.5, 2.5] };
    let batch = enc(&Request::RecommendBatch {
        queries: [mf(8), short.clone()]
            .into_iter()
            .map(|meta_features| BatchQuery { meta_features, landmarkers: None, options: None })
            .collect(),
    });
    // Landmarker accuracies join the same distance on the same terms.
    let marks = smartml_metafeatures::Landmarkers { decision_stump: 12345.678, nearest_centroid: 0.5 };
    let set_marks = enc(&Request::SetLandmarkers { dataset_id: "ds-1".into(), landmarkers: marks });
    let with_marks =
        enc(&Request::Recommend { meta_features: mf(8), landmarkers: Some(marks), options: None });
    for bad in [
        overflow(record(marked.clone())),
        record(short.clone()),
        overflow(recommend(marked)),
        recommend(short),
        batch,
        overflow(set_marks),
        overflow(with_marks),
    ] {
        match ask(&bad) {
            Response::Error { message } => {
                assert!(message.starts_with("bad request: "), "{message}");
                assert!(message.contains("finite") || message.contains("got 3"), "{message}");
            }
            other => panic!("{bad} was answered with {other:?}"),
        }
    }

    // Same connection, same loop: a good RECORD and a correct RECOMMEND.
    let mut expected = KnowledgeBase::new();
    for i in 0..SEEDED {
        expected.record_run(&format!("ds-{i}"), &mf(i), seed_run(i));
    }
    expected.record_run("good", &mf(9), seed_run(9));
    let good = Request::RecordRun { dataset_id: "good".into(), meta_features: mf(9), run: seed_run(9) };
    assert!(matches!(ask(&enc(&good)), Response::Recorded { datasets: 7, runs: 7 }));
    match ask(&recommend(mf(10))) {
        Response::Recommendation { recommendation } => {
            assert_eq!(recommendation, expected.recommend(&mf(10), &QueryOptions::default()));
        }
        other => panic!("RECOMMEND after the bad requests was answered with {other:?}"),
    }

    // The reopened directory holds exactly the good records.
    smartml_kbd::KbClient::connect(fixture.addr.clone()).shutdown().expect("shutdown");
    fixture.handle.join().expect("server thread");
    let reopened = ShardedKb::open_with(&fixture.dir, DurableOptions::default(), 2)
        .expect("nothing invalid was logged");
    assert_eq!(
        serde_json::to_string(&reopened.to_monolithic()).expect("kb encodes"),
        serde_json::to_string(&expected).expect("kb encodes"),
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&fixture.dir);
}
