//! End-to-end crash-recovery: a `smartmld` server fed over TCP, killed,
//! its WAL tail torn mid-frame, then restarted — the recovered KB must
//! match an in-memory KB built from the surviving (complete) records,
//! and recommendations served after restart must be identical to it.

use smartml_classifiers::{Algorithm, ParamConfig};
use smartml_data::synth::gaussian_blobs;
use smartml_kb::{AlgorithmRun, KnowledgeBase, QueryOptions};
use smartml_kbd::{DurableOptions, EventServer, EventServerOptions, KbClient};
use smartml_metafeatures::{extract, MetaFeatures};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smartml-kbd-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mf(seed: u64) -> MetaFeatures {
    let d = gaussian_blobs("it", 50 + seed as usize, 3, 2, 0.9, seed);
    extract(&d, &d.all_rows())
}

fn observation(i: u64) -> (String, MetaFeatures, AlgorithmRun) {
    let algorithm = [Algorithm::RandomForest, Algorithm::Svm, Algorithm::Knn][i as usize % 3];
    (
        format!("ds-{i}"),
        mf(i),
        AlgorithmRun {
            algorithm,
            config: ParamConfig::default(),
            accuracy: 0.55 + (i as f64 % 10.0) / 25.0,
        },
    )
}

fn spawn_server(dir: &Path) -> (KbClient, std::thread::JoinHandle<()>) {
    let server = EventServer::bind(EventServerOptions {
        dir: dir.to_path_buf(),
        n_loops: 2,
        durable: DurableOptions { fsync_writes: false, ..Default::default() },
        ..EventServerOptions::default()
    })
    .expect("server binds");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    (KbClient::connect(addr), handle)
}

#[test]
fn restart_after_torn_tail_matches_in_memory_reference() {
    let dir = temp_dir("recovery");
    const N: u64 = 12;

    // Feed the server over TCP, then shut it down cleanly.
    let (client, handle) = spawn_server(&dir);
    for i in 0..N {
        let (id, mf, run) = observation(i);
        client.record_run(&id, &mf, run).expect("record over tcp");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.datasets, N as usize);
    assert_eq!(stats.runs, N as usize);
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");

    // Tear the WAL: chop bytes off the newest segment, mid-frame. The
    // final record becomes a torn tail; every earlier frame is intact.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("wal dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    let tail_segment = segments.last().expect("at least one WAL segment");
    let len = std::fs::metadata(tail_segment).expect("segment metadata").len();
    assert!(len > 8, "segment too small to tear");
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(tail_segment)
        .expect("open segment");
    file.set_len(len - 7).expect("tear tail");
    drop(file);

    // The reference: an in-memory KB holding every record but the torn one.
    let mut reference = KnowledgeBase::new();
    for i in 0..N - 1 {
        let (id, mf, run) = observation(i);
        reference.record_run(&id, &mf, run);
    }

    // Restart on the same directory; recovery must drop exactly the torn
    // record and answer queries identically to the reference.
    let (client, handle) = spawn_server(&dir);
    let stats = client.stats().expect("stats after restart");
    assert_eq!(stats.datasets, (N - 1) as usize, "torn record dropped");
    assert_eq!(stats.runs, (N - 1) as usize);
    assert!(stats.recovered_torn_tail, "recovery must report the truncation");

    let query = mf(100);
    let options = QueryOptions::default();
    let served = client.recommend(&query, None, &options).expect("recommend");
    let expected = reference.recommend_extended(&query, None, &options);
    assert_eq!(served, expected, "served recommendation != in-memory reference");

    // Re-record the torn observation and one more; the KB keeps growing.
    let (id, mf_lost, run) = observation(N - 1);
    client.record_run(&id, &mf_lost, run).expect("re-record");
    let (id, mf_new, run) = observation(N);
    client.record_run(&id, &mf_new, run).expect("record new");
    let stats = client.stats().expect("stats after growth");
    assert_eq!(stats.datasets, (N + 1) as usize);

    client.shutdown().expect("second shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_over_tcp_compacts_and_preserves_answers() {
    let dir = temp_dir("snapshot");
    let (client, handle) = spawn_server(&dir);
    for i in 0..6 {
        let (id, mf, run) = observation(i);
        client.record_run(&id, &mf, run).expect("record");
    }
    let query = mf(50);
    let options = QueryOptions::default();
    let before = client.recommend(&query, None, &options).expect("recommend");

    let seq = client.snapshot().expect("snapshot");
    assert!(seq >= 1);
    let after = client.recommend(&query, None, &options).expect("recommend after snapshot");
    assert_eq!(before, after);
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");

    // Reopen: state must come back from the snapshot alone.
    let (client, handle) = spawn_server(&dir);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.datasets, 6);
    assert_eq!(stats.snapshot_seq, Some(seq));
    let reopened = client.recommend(&query, None, &options).expect("recommend reopened");
    assert_eq!(reopened, before);
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
