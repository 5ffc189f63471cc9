//! Concurrent writers (`record_run`) against concurrent readers
//! (`recommend`) on one [`ShardedKb`]. Readers must always see a
//! consistent prefix of the writes — never a half-applied record, never
//! z-scores from a different feature table than the entries they score —
//! and the final state must be coherent, in memory and after recovery.

use smartml_classifiers::{Algorithm, ParamConfig};
use smartml_data::synth::gaussian_blobs;
use smartml_kb::{AlgorithmRun, KnowledgeBase, QueryOptions};
use smartml_kbd::{DurableOptions, ShardedKb};
use smartml_metafeatures::{extract, MetaFeatures};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn mf(seed: u64) -> MetaFeatures {
    let d = gaussian_blobs("cc", 40 + (seed % 13) as usize, 3, 2, 0.8, seed);
    extract(&d, &d.all_rows())
}

fn observation(writer: usize, i: usize) -> (String, MetaFeatures, AlgorithmRun) {
    let seed = (writer * 1000 + i) as u64;
    let algorithm =
        [Algorithm::RandomForest, Algorithm::Svm, Algorithm::Knn, Algorithm::NaiveBayes][i % 4];
    (
        format!("w{writer}-d{i}"),
        mf(seed),
        AlgorithmRun {
            algorithm,
            config: ParamConfig::default(),
            accuracy: 0.5 + (seed % 40) as f64 / 100.0,
        },
    )
}

#[test]
fn writers_and_readers_interleave_without_tearing() {
    const WRITERS: usize = 3;
    const RECORDS_PER_WRITER: usize = 25;
    const READERS: usize = 4;

    let dir = std::env::temp_dir().join(format!("smartml-kbd-cc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = DurableOptions { fsync_writes: false, ..Default::default() };
    let store = Arc::new(ShardedKb::open_with(&dir, durable, 4).unwrap());
    // Seed one entry so readers always have something to score.
    store.record_run("seed", &mf(999), observation(9, 0).2).unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let options = QueryOptions { n_neighbors: 8, ..QueryOptions::default() };

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for i in 0..RECORDS_PER_WRITER {
                    let (id, mf, run) = observation(w, i);
                    store.record_run(&id, &mf, run).expect("record_run");
                }
            });
        }
        for r in 0..READERS {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            let options = options.clone();
            scope.spawn(move || {
                let query = mf(5000 + r as u64);
                let mut last_len = 0usize;
                let mut last_applied = 0u64;
                let mut queries = 0usize;
                while !done.load(Ordering::Acquire) || queries == 0 {
                    let applied_before = store.applied_seq();
                    let len_before = store.len();
                    let rec = store.recommend(&query, None, &options);
                    let len_after = store.len();
                    queries += 1;

                    // A consistent prefix: every neighbour is a dataset
                    // some writer fully recorded, and the neighbour count
                    // is bounded by the KB size bracketing the query.
                    assert!(rec.neighbors.len() <= options.n_neighbors);
                    assert!(rec.neighbors.len() <= len_after);
                    for (id, distance) in &rec.neighbors {
                        assert!(
                            id == "seed" || id.starts_with('w'),
                            "unknown neighbour {id:?}"
                        );
                        assert!(distance.is_finite() && *distance >= 0.0);
                    }
                    assert!(!rec.algorithms.is_empty(), "seeded KB must nominate");
                    for a in &rec.algorithms {
                        assert!(a.score.is_finite());
                    }

                    // Size and the applied write count only move forward.
                    assert!(len_after >= len_before);
                    assert!(len_after >= last_len);
                    assert!(store.applied_seq() >= applied_before);
                    assert!(applied_before >= last_applied);
                    last_len = len_after;
                    last_applied = applied_before;
                }
            });
        }
        // The writer threads finish first (scope ordering is not
        // guaranteed, so track completion explicitly).
        scope.spawn({
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            move || {
                let target = 1 + WRITERS * RECORDS_PER_WRITER;
                while store.len() < target {
                    std::thread::yield_now();
                }
                done.store(true, Ordering::Release);
            }
        });
    });

    // Coherent final state: every write applied exactly once.
    assert_eq!(store.len(), 1 + WRITERS * RECORDS_PER_WRITER);
    assert_eq!(store.n_runs(), 1 + WRITERS * RECORDS_PER_WRITER);

    // The cached z-score path now agrees with the in-memory KB rebuilt
    // from the same entries.
    let query = mf(7777);
    let cached = store.recommend(&query, None, &options);
    let direct = store.to_monolithic().recommend_extended(&query, None, &options);
    assert_eq!(cached, direct);

    // Recovery replays the concurrent history exactly, in WAL order.
    let json = |kb: &KnowledgeBase| serde_json::to_string(kb).unwrap();
    let expected = json(&store.to_monolithic());
    drop(store);
    let reopened = ShardedKb::open_with(&dir, DurableOptions::default(), 4).unwrap();
    assert_eq!(reopened.len(), 1 + WRITERS * RECORDS_PER_WRITER);
    assert_eq!(reopened.n_runs(), 1 + WRITERS * RECORDS_PER_WRITER);
    assert_eq!(json(&reopened.to_monolithic()), expected);
    let _ = std::fs::remove_dir_all(&dir);
}
