//! End-to-end: the SmartML pipeline running against the durable and
//! remote knowledge-base backends. The engine must behave exactly as it
//! does in-memory — same phases, same report — while the experience it
//! accumulates survives process restarts (WAL) or lives behind a socket
//! (`smartmld`).

use smartml::{Budget, KnowledgeBase, RunReport, SmartML, SmartMlOptions};
use smartml_data::synth::gaussian_blobs;
use smartml_kb::KbBackend;
use smartml_kbd::{DurableOptions, EventServer, EventServerOptions, KbClient, ShardedKb};
use smartml_preprocess::Op;
use std::path::{Path, PathBuf};

fn quick_options() -> SmartMlOptions {
    SmartMlOptions {
        budget: Budget::Trials(6),
        top_n_algorithms: 2,
        cv_folds: 2,
        preprocessing: vec![Op::Zv],
        ..Default::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smartml-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Opens a `wal:DIR` knowledge base the way `smartml-cli --kb wal:DIR`
/// does: the served store, in process, at one shard.
fn open_wal(dir: &Path) -> ShardedKb {
    ShardedKb::open_with(dir, DurableOptions::default(), 1).expect("open durable KB")
}

/// Starts `smartmld` on an ephemeral port; returns its address.
fn spawn_server(dir: &Path, durable: DurableOptions) -> (String, std::thread::JoinHandle<()>) {
    let server = EventServer::bind(EventServerOptions {
        dir: dir.to_path_buf(),
        n_loops: 2,
        durable,
        ..EventServerOptions::default()
    })
    .expect("server binds");
    let addr = server.local_addr().expect("bound address").to_string();
    (addr, std::thread::spawn(move || server.run().expect("serve loop")))
}

/// A report as verify.sh compares them: phase timings zeroed, the
/// timeline dropped, and the backend's description read as in-memory.
fn normalised(mut report: RunReport, describe: &str) -> String {
    for phase in &mut report.phases {
        phase.secs = 0.0;
        phase.detail = phase.detail.replace(describe, "in-memory");
    }
    report.timeline = None;
    serde_json::to_string(&report).expect("report encodes")
}

#[test]
fn pipeline_over_wal_backend_survives_reopen() {
    let dir = temp_dir("wal");

    // First process lifetime: run on a durable KB, then drop it.
    let mut engine = SmartML::with_backend(open_wal(&dir), quick_options());
    let d1 = gaussian_blobs("wal-first", 150, 3, 2, 0.8, 11);
    let outcome = engine.run(&d1).expect("first run");
    assert!(outcome.report.best.validation_accuracy > 0.6);
    let kb = engine.into_kb();
    assert_eq!(kb.len(), 1);
    let runs_after_first = kb.n_runs();
    assert!(runs_after_first >= 2);
    drop(kb);

    // Second lifetime: the WAL replays and the next run sees neighbours.
    let kb = open_wal(&dir);
    assert_eq!(kb.len(), 1, "experience must survive reopen");
    assert_eq!(kb.n_runs(), runs_after_first);
    let mut engine = SmartML::with_backend(kb, quick_options());
    let d2 = gaussian_blobs("wal-second", 150, 3, 2, 0.8, 12);
    let outcome = engine.run(&d2).expect("second run");
    assert!(
        !outcome.report.kb_neighbors.is_empty(),
        "warm KB must surface neighbours"
    );
    let kb = engine.into_kb();
    assert_eq!(kb.len(), 2);
    assert_eq!(kb.kb_describe(), format!("wal:{}", dir.display()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipeline_over_wal_backend_reports_exactly_what_in_memory_does() {
    let dir = temp_dir("wal-vs-memory");
    let datasets = [
        gaussian_blobs("pin-first", 150, 3, 2, 0.8, 41),
        gaussian_blobs("pin-second", 150, 3, 2, 0.8, 42),
    ];
    let mut in_memory = SmartML::with_backend(KnowledgeBase::new(), quick_options());
    let mut durable = SmartML::with_backend(open_wal(&dir), quick_options());
    let describe = durable.kb().kb_describe();
    for d in &datasets {
        let want = in_memory.run(d).expect("in-memory run").report;
        let got = durable.run(d).expect("wal run").report;
        assert_eq!(
            normalised(got, &describe),
            normalised(want, "in-memory"),
            "{}: the wal: backend changed the report",
            d.name
        );
    }

    // What the runs wrote is what the directory holds after a reopen.
    drop(durable);
    let expected = serde_json::to_string(&in_memory.into_kb()).expect("kb encodes");
    let reopened = open_wal(&dir).to_monolithic();
    assert_eq!(serde_json::to_string(&reopened).expect("kb encodes"), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipeline_over_remote_backend_grows_server_kb() {
    let dir = temp_dir("remote");
    let durable = DurableOptions { fsync_writes: false, ..Default::default() };
    let (addr, handle) = spawn_server(&dir, durable);

    let client = KbClient::connect(addr.clone());
    let mut engine = SmartML::with_backend(client, quick_options());
    let d = gaussian_blobs("remote-run", 150, 3, 2, 0.8, 21);
    let outcome = engine.run(&d).expect("run over tcp");
    assert!(outcome.report.best.validation_accuracy > 0.6);

    // The server-side KB grew by this run's records.
    let control = KbClient::connect(addr);
    let stats = control.stats().expect("stats");
    assert_eq!(stats.datasets, 1);
    assert_eq!(stats.runs, 2, "one run per nominated algorithm");

    control.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_verb_reports_request_and_wal_activity() {
    let dir = temp_dir("metrics");
    // fsync on: the WAL fsync counter must move with each write.
    let (addr, handle) = spawn_server(&dir, DurableOptions::default());

    let client = KbClient::connect(addr);
    client.ping().expect("ping");
    client.ping().expect("ping");
    let d = gaussian_blobs("metrics-run", 60, 3, 2, 0.8, 31);
    let mf = smartml_metafeatures::extract(&d, &d.all_rows());
    client
        .record_run(
            "metrics-run",
            &mf,
            smartml_kb::AlgorithmRun {
                algorithm: smartml_classifiers::Algorithm::Knn,
                config: smartml_classifiers::ParamConfig::default(),
                accuracy: 0.9,
            },
        )
        .expect("record");

    let before = client.metrics().expect("metrics verb answers");
    // Counters are process-global, so other tests in this binary may have
    // contributed — assert floors and deltas, not absolutes.
    assert!(before.requests >= 3, "ping+ping+record seen: {before:?}");
    let op = |m: &smartml_kbd::ServerMetrics, name: &str| {
        m.ops.iter().find(|(n, _)| n == name).map(|(_, c)| *c).unwrap_or(0)
    };
    assert!(op(&before, "ping") >= 2);
    assert!(op(&before, "record_run") >= 1);
    assert!(before.wal_fsyncs >= 1, "fsync-on write must fsync: {before:?}");
    assert!(before.bytes_in > 0 && before.bytes_out > 0);

    // The metrics request itself is counted by the next reading.
    let after = client.metrics().expect("second metrics read");
    assert!(after.requests > before.requests);
    assert!(op(&after, "metrics") > op(&before, "metrics").saturating_sub(1));

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
