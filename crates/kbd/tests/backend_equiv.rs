//! `smartmld` answers what the in-memory knowledge base determines: given
//! a request script, every response line of the epoll server must be
//! **byte identical** to one encoded from a `Response` built from a
//! `KnowledgeBase` fed the same writes — writes, reads, landmarkers,
//! batches and protocol errors alike; STATS and SNAPSHOT on the fields the
//! model determines. Pipelining, batching and a caught-up replica must not
//! change any answer either.

use smartml_classifiers::{Algorithm, ParamConfig};
use smartml_data::synth::gaussian_blobs;
use smartml_kb::{
    check_carried, check_landmarkers, check_meta_features, AlgorithmRun, KnowledgeBase,
    QueryOptions,
};
use smartml_kbd::{
    BatchQuery, DurableOptions, EventServer, EventServerOptions, KbClient, KbStats,
    ReplicaHandle, ReplicaOptions, ReplicaTailer, Request, Response, ServeRole, ShardedKb,
};
use smartml_metafeatures::{extract, Landmarkers, MetaFeatures};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smartml-kbd-eq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mf(seed: u64) -> MetaFeatures {
    let d = gaussian_blobs("eq", 40 + (seed % 17) as usize, 3, 2, 0.85, seed);
    extract(&d, &d.all_rows())
}

fn run(i: u64) -> AlgorithmRun {
    let algorithm =
        [Algorithm::RandomForest, Algorithm::Svm, Algorithm::Knn, Algorithm::NaiveBayes]
            [i as usize % 4];
    AlgorithmRun {
        algorithm,
        config: ParamConfig::default(),
        accuracy: 0.5 + (i % 45) as f64 / 100.0,
    }
}

fn landmarkers(seed: u64) -> Landmarkers {
    Landmarkers {
        decision_stump: 0.35 + (seed % 6) as f64 / 10.0,
        nearest_centroid: 0.5 + (seed % 4) as f64 / 10.0,
    }
}

/// The request script the server and the model replay: every verb except
/// `metrics` (whose counters are process-global and timing-dependent),
/// plus malformed lines whose errors must also match.
fn script() -> Vec<String> {
    let mut lines = Vec::new();
    let enc = |r: &Request| serde_json::to_string(r).expect("encode request");
    lines.push(enc(&Request::Ping));
    for i in 0..10u64 {
        lines.push(enc(&Request::RecordRun {
            dataset_id: format!("ds-{}", i % 7), // revisits overwrite meta-features
            meta_features: mf(i),
            run: run(i),
        }));
    }
    for i in [1u64, 4] {
        lines.push(enc(&Request::SetLandmarkers {
            dataset_id: format!("ds-{i}"),
            landmarkers: landmarkers(i),
        }));
    }
    let option_sets = [
        QueryOptions::default(),
        QueryOptions { n_neighbors: 3, top_n: 2, ..QueryOptions::default() },
        QueryOptions { use_landmarkers: true, ..QueryOptions::default() },
        QueryOptions { performance_weight: 2.0, n_neighbors: 50, ..QueryOptions::default() },
    ];
    for (i, options) in option_sets.iter().enumerate() {
        lines.push(enc(&Request::Recommend {
            meta_features: mf(100 + i as u64),
            landmarkers: options.use_landmarkers.then(|| landmarkers(9)),
            options: Some(options.clone()),
        }));
    }
    lines.push(enc(&Request::RecommendBatch {
        queries: (0..4u64)
            .map(|i| BatchQuery {
                meta_features: mf(200 + i),
                landmarkers: (i % 2 == 0).then(|| landmarkers(i)),
                options: Some(option_sets[i as usize % option_sets.len()].clone()),
            })
            .collect(),
    }));
    lines.push(enc(&Request::Stats));
    lines.push(enc(&Request::Snapshot));
    lines.push(enc(&Request::Stats));
    // Post-compaction state must still answer identically.
    lines.push(enc(&Request::Recommend {
        meta_features: mf(300),
        landmarkers: None,
        options: None,
    }));
    lines.push("{\"op\":\"recommend\",\"meta_features\":\"not a vector\"}".to_string());
    lines.push("plainly not json".to_string());
    // Well-formed, but carrying meta-features no index can hold: refused
    // at dispatch, and the store does not move.
    let short = MetaFeatures { values: vec![0.5, 1.5, 2.5] };
    lines.push(enc(&Request::RecordRun {
        dataset_id: "pill".into(),
        meta_features: short.clone(),
        run: run(0),
    }));
    let mut marked = mf(301);
    marked.values[3] = 12345.678;
    let overflowing =
        enc(&Request::Recommend { meta_features: marked, landmarkers: None, options: None });
    lines.push(overflowing.replace("12345.678", "1e999"));
    lines.push(enc(&Request::RecommendBatch {
        queries: vec![BatchQuery { meta_features: short, landmarkers: None, options: None }],
    }));
    lines.push(enc(&Request::Stats));
    lines.push(enc(&Request::Recommend {
        meta_features: mf(302),
        landmarkers: None,
        options: None,
    }));
    lines.push(enc(&Request::Ping));
    lines
}

struct Backend {
    addr: String,
    handle: std::thread::JoinHandle<()>,
    dir: PathBuf,
}

fn spawn_epoll(tag: &str, n_loops: usize) -> Backend {
    let dir = temp_dir(tag);
    let server = EventServer::bind(EventServerOptions {
        dir: dir.clone(),
        n_loops,
        durable: DurableOptions { fsync_writes: false, ..Default::default() },
        ..EventServerOptions::default()
    })
    .expect("event server binds");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("event serve loop"));
    Backend { addr, handle, dir }
}

fn shutdown(backend: Backend) {
    let stream = TcpStream::connect(&backend.addr).expect("connect for shutdown");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{{\"op\":\"shutdown\"}}").expect("send shutdown");
    let mut line = String::new();
    let _ = reader.read_line(&mut line);
    backend.handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&backend.dir);
}

/// Sends every script line sequentially on one connection, one
/// round-trip at a time, returning the exact response lines.
fn play_sequential(addr: &str, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    lines
        .iter()
        .map(|line| {
            writeln!(writer, "{line}").expect("send");
            let mut response = String::new();
            reader.read_line(&mut response).expect("response");
            assert!(response.ends_with('\n'), "truncated response for {line}");
            response
        })
        .collect()
}

/// Sends every script line in one burst (pipelining), then reads all
/// the responses back.
fn play_pipelined(addr: &str, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let burst: String = lines.iter().map(|l| format!("{l}\n")).collect();
    writer.write_all(burst.as_bytes()).expect("send burst");
    lines
        .iter()
        .map(|line| {
            let mut response = String::new();
            reader.read_line(&mut response).expect("response");
            assert!(response.ends_with('\n'), "truncated response for {line}");
            response
        })
        .collect()
}

/// The in-memory model of a freshly opened store: the KB every write
/// is applied to, and the count of writes applied.
#[derive(Default)]
struct Model {
    kb: KnowledgeBase,
    applied: u64,
}

impl Model {
    /// The response `line` must get, built the way the server builds it
    /// but from the in-memory KB. `served` is the server's own answer:
    /// STATS and SNAPSHOT take from it only the WAL fields the model
    /// cannot know (segment counts and numbers).
    fn answer(&mut self, line: &str, served: &str) -> Response {
        let request: Request = match serde_json::from_str(line.trim()) {
            Ok(r) => r,
            Err(e) => return Response::Error { message: format!("bad request: {e}") },
        };
        let carried = match &request {
            Request::Recommend { meta_features, landmarkers, .. } => {
                check_carried(&meta_features.values, *landmarkers)
            }
            Request::RecommendBatch { queries } => queries
                .iter()
                .try_for_each(|q| check_carried(&q.meta_features.values, q.landmarkers)),
            Request::RecordRun { meta_features, .. } => check_meta_features(&meta_features.values),
            Request::SetLandmarkers { landmarkers, .. } => check_landmarkers(*landmarkers),
            _ => Ok(()),
        };
        if let Err(why) = carried {
            return Response::Error { message: format!("bad request: {why}") };
        }
        let served: Response = serde_json::from_str(served).expect("server answers JSON");
        match request {
            Request::Ping => Response::Pong,
            Request::RecordRun { dataset_id, meta_features, run } => {
                self.kb.record_run(&dataset_id, &meta_features, run);
                self.applied += 1;
                Response::Recorded { datasets: self.kb.len(), runs: self.kb.n_runs() }
            }
            Request::SetLandmarkers { dataset_id, landmarkers } => {
                self.kb.set_landmarkers(&dataset_id, landmarkers);
                self.applied += 1;
                Response::Recorded { datasets: self.kb.len(), runs: self.kb.n_runs() }
            }
            Request::Recommend { meta_features, landmarkers, options } => {
                let options = options.unwrap_or_default();
                Response::Recommendation {
                    recommendation: self.kb.recommend_extended(&meta_features, landmarkers, &options),
                }
            }
            Request::RecommendBatch { queries } => Response::Recommendations {
                recommendations: queries
                    .into_iter()
                    .map(|q| {
                        let options = q.options.unwrap_or_default();
                        self.kb.recommend_extended(&q.meta_features, q.landmarkers, &options)
                    })
                    .collect(),
            },
            Request::Stats => {
                let Response::Stats { stats } = served else {
                    panic!("STATS answered {served:?}");
                };
                Response::Stats {
                    stats: KbStats {
                        datasets: self.kb.len(),
                        runs: self.kb.n_runs(),
                        snapshot_seq: None,
                        recovered_records: 0,
                        recovered_torn_tail: false,
                        applied_seq: self.applied,
                        ..stats
                    },
                }
            }
            Request::Snapshot => match served {
                Response::Snapshotted { snapshot_seq } if snapshot_seq >= 1 => served,
                other => panic!("SNAPSHOT answered {other:?}"),
            },
            other => panic!("the script sends no {other:?}"),
        }
    }
}

#[test]
fn epoll_server_answers_byte_identically_to_the_in_memory_model() {
    let lines = script();
    let epoll = spawn_epoll("epoll", 3);
    let served = play_sequential(&epoll.addr, &lines);

    let mut model = Model::default();
    for (i, (line, got)) in lines.iter().zip(&served).enumerate() {
        let want = serde_json::to_string(&model.answer(line, got)).expect("encode response");
        assert_eq!(
            format!("{want}\n"),
            *got,
            "response {i} diverged from the in-memory model for request: {line}"
        );
    }

    shutdown(epoll);
}

#[test]
fn pipelined_epoll_responses_match_the_sequential_oracle() {
    // Read-only script on a pre-seeded store: replaying writes twice
    // (once per play) would double-apply them.
    let epoll = spawn_epoll("pipeline", 2);
    {
        let client = smartml_kbd::KbClient::connect(epoll.addr.clone());
        for i in 0..8u64 {
            client.record_run(&format!("ds-{i}"), &mf(i), run(i)).expect("seed");
        }
    }
    let enc = |r: &Request| serde_json::to_string(r).expect("encode request");
    let mut lines = vec![enc(&Request::Ping)];
    for i in 0..12u64 {
        lines.push(enc(&Request::Recommend {
            meta_features: mf(400 + i),
            landmarkers: None,
            options: Some(QueryOptions { n_neighbors: 5, ..QueryOptions::default() }),
        }));
    }
    lines.push(enc(&Request::Stats));

    let sequential = play_sequential(&epoll.addr, &lines);
    let pipelined = play_pipelined(&epoll.addr, &lines);
    assert_eq!(sequential, pipelined, "pipelining must not change any response");
    shutdown(epoll);
}

#[test]
fn one_batch_answers_exactly_like_the_recommend_sequence() {
    let epoll = spawn_epoll("batch", 2);
    {
        let client = smartml_kbd::KbClient::connect(epoll.addr.clone());
        for i in 0..9u64 {
            client.record_run(&format!("ds-{i}"), &mf(i), run(i)).expect("seed");
        }
        client.set_landmarkers("ds-2", landmarkers(2)).expect("landmarkers");
    }
    let queries: Vec<BatchQuery> = (0..6u64)
        .map(|i| BatchQuery {
            meta_features: mf(500 + i),
            landmarkers: (i % 3 == 0).then(|| landmarkers(i)),
            options: Some(QueryOptions {
                n_neighbors: 4 + i as usize,
                use_landmarkers: i % 3 == 0,
                ..QueryOptions::default()
            }),
        })
        .collect();
    let enc = |r: &Request| serde_json::to_string(r).expect("encode request");

    let batch_line = enc(&Request::RecommendBatch { queries: queries.clone() });
    let singles: Vec<String> = queries
        .iter()
        .map(|q| {
            enc(&Request::Recommend {
                meta_features: q.meta_features.clone(),
                landmarkers: q.landmarkers.clone(),
                options: q.options.clone(),
            })
        })
        .collect();

    let batch_resp = play_sequential(&epoll.addr, std::slice::from_ref(&batch_line));
    let single_resps = play_sequential(&epoll.addr, &singles);

    let batch: serde_json::Value = serde_json::from_str(&batch_resp[0]).expect("batch json");
    assert_eq!(batch["status"], "recommendations");
    let answers = batch["recommendations"].as_array().expect("answers array");
    assert_eq!(answers.len(), queries.len());
    for (i, single) in single_resps.iter().enumerate() {
        let single: serde_json::Value = serde_json::from_str(single).expect("single json");
        assert_eq!(single["status"], "recommendation");
        assert_eq!(
            answers[i], single["recommendation"],
            "batch answer {i} != sequential recommend answer"
        );
    }

    // The typed client agrees end to end.
    let client = smartml_kbd::KbClient::connect(epoll.addr.clone());
    let via_client = client.recommend_batch(queries.clone()).expect("client batch");
    assert_eq!(via_client.len(), queries.len());
    for (i, rec) in via_client.iter().enumerate() {
        let as_json = serde_json::to_value(rec);
        assert_eq!(as_json, answers[i], "client batch answer {i} diverged");
    }
    shutdown(epoll);
}

/// A read replica: its own store tailed by a [`ReplicaTailer`], served
/// read-only by the epoll backend.
struct Replica {
    backend: Backend,
    store: Arc<ShardedKb>,
    tailer: ReplicaHandle,
}

fn spawn_replica(tag: &str, primary_addr: &str) -> Replica {
    let dir = temp_dir(tag);
    let durable = DurableOptions { fsync_writes: false, ..Default::default() };
    let store =
        Arc::new(ShardedKb::open_with(&dir, durable.clone(), 2).expect("replica store opens"));
    let tailer = ReplicaTailer::spawn(
        ReplicaOptions {
            primary: primary_addr.to_string(),
            poll_interval: Duration::from_millis(5),
            durable: durable.clone(),
            ..ReplicaOptions::default()
        },
        Arc::clone(&store),
    );
    let server = EventServer::bind_with_store(
        EventServerOptions {
            dir: dir.clone(),
            n_loops: 2,
            durable,
            role: ServeRole::Replica { primary: primary_addr.to_string() },
            ..EventServerOptions::default()
        },
        Arc::clone(&store),
    )
    .expect("replica server binds");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("replica serve loop"));
    Replica { backend: Backend { addr, handle, dir }, store, tailer }
}

fn wait_for_catch_up(store: &ShardedKb, target: u64) {
    let start = Instant::now();
    while store.applied_seq() != target {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "replica stalled at applied_seq {} of {target}",
            store.applied_seq()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Every read-only verb: the script a replica must answer exactly like
/// its primary. No writes — those are the redirect test's business.
fn read_only_script() -> Vec<String> {
    let enc = |r: &Request| serde_json::to_string(r).expect("encode request");
    let mut lines = vec![enc(&Request::Ping)];
    let option_sets = [
        QueryOptions::default(),
        QueryOptions { n_neighbors: 3, top_n: 2, ..QueryOptions::default() },
        QueryOptions { use_landmarkers: true, ..QueryOptions::default() },
        QueryOptions { performance_weight: 2.0, n_neighbors: 50, ..QueryOptions::default() },
    ];
    for (i, options) in option_sets.iter().enumerate() {
        lines.push(enc(&Request::Recommend {
            meta_features: mf(700 + i as u64),
            landmarkers: options.use_landmarkers.then(|| landmarkers(3)),
            options: Some(options.clone()),
        }));
    }
    lines.push(enc(&Request::RecommendBatch {
        queries: (0..4u64)
            .map(|i| BatchQuery {
                meta_features: mf(800 + i),
                landmarkers: (i % 2 == 0).then(|| landmarkers(i)),
                options: Some(option_sets[i as usize % option_sets.len()].clone()),
            })
            .collect(),
    }));
    lines.push(enc(&Request::Stats));
    lines
}

#[test]
fn a_caught_up_replica_answers_reads_byte_identically_to_the_primary() {
    let primary = spawn_epoll("repl-primary", 2);
    let client = KbClient::connect(primary.addr.clone());
    for i in 0..12u64 {
        client.record_run(&format!("ds-{}", i % 7), &mf(i), run(i)).expect("seed");
    }
    client.set_landmarkers("ds-2", landmarkers(2)).expect("landmarkers");
    let target = client.stats().expect("stats").applied_seq;

    let replica = spawn_replica("repl-replica", &primary.addr);
    wait_for_catch_up(&replica.store, target);

    let lines = read_only_script();
    let on_primary = play_sequential(&primary.addr, &lines);
    let on_replica = play_sequential(&replica.backend.addr, &lines);
    for (i, (want, got)) in on_primary.iter().zip(&on_replica).enumerate() {
        assert_eq!(
            want, got,
            "response {i} diverged between primary and caught-up replica for: {}",
            lines[i]
        );
    }

    // Writes are not served — they answer a typed redirect to the primary.
    let write = serde_json::to_string(&Request::Snapshot).expect("encode");
    let redirect = play_sequential(&replica.backend.addr, std::slice::from_ref(&write));
    assert!(
        redirect[0].contains("not_primary") && redirect[0].contains(&primary.addr),
        "a write to the replica must redirect to the primary: {}",
        redirect[0]
    );

    replica.tailer.stop();
    shutdown(replica.backend);
    shutdown(primary);
}

/// Satellite of the chaos suite: with ~30% of replication pulls,
/// chunk applies, and snapshot installs panicking via injected faults,
/// the tailer still converges and the caught-up replica still answers
/// byte-identically. Runs only with `--features fault-injection`.
#[cfg(feature = "fault-injection")]
#[test]
fn a_replica_catching_up_under_injected_faults_still_matches_the_primary() {
    use smartml_runtime::faults::fail;

    let primary = spawn_epoll("fault-primary", 2);
    let client = KbClient::connect(primary.addr.clone());
    for i in 0..10u64 {
        client.record_run(&format!("ds-{}", i % 5), &mf(i), run(i)).expect("seed");
    }
    let rule = |site: &str| fail::SiteRule {
        site: site.to_string(),
        panic_rate: 0.3,
        hang_rate: 0.0,
        hang_for: Duration::ZERO,
    };
    fail::arm(fail::FaultPlan {
        seed: 0xD15_EA5E,
        rules: vec![
            rule("replica.pull"),
            rule("replica.apply_chunk"),
            rule("replica.install_snapshot"),
        ],
    });
    let replica = spawn_replica("fault-replica", &primary.addr);
    // Keep writing while the tailer fights through the fault storm, so
    // catch-up spans live tailing and segment rotations, not one chunk.
    for i in 10..30u64 {
        client.record_run(&format!("ds-{}", i % 5), &mf(i), run(i)).expect("write");
    }
    let target = client.stats().expect("stats").applied_seq;
    wait_for_catch_up(&replica.store, target);
    fail::disarm();
    assert!(
        fail::injected_panics() > 0,
        "the fault plan must actually have fired for this test to mean anything"
    );

    let lines = read_only_script();
    let on_primary = play_sequential(&primary.addr, &lines);
    let on_replica = play_sequential(&replica.backend.addr, &lines);
    for (i, (want, got)) in on_primary.iter().zip(&on_replica).enumerate() {
        assert_eq!(
            want, got,
            "response {i} diverged after faulted catch-up for: {}",
            lines[i]
        );
    }

    replica.tailer.stop();
    shutdown(replica.backend);
    shutdown(primary);
}
