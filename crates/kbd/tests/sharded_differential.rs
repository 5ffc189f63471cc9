//! `ShardedKb` against the monolithic `KnowledgeBase`, differentially:
//! whatever history of writes, overwrites, replication resets and
//! reopens the two share, every recommendation must agree to the last
//! bit — neighbours, distances, scores and warm starts alike.

use proptest::prelude::*;
use smartml_classifiers::{Algorithm, ParamConfig, ParamValue};
use smartml_kb::{AlgorithmRun, KnowledgeBase, QueryOptions, Recommendation};
use smartml_kbd::{DurableOptions, ShardedKb};
use smartml_metafeatures::{Landmarkers, MetaFeatures, N_META_FEATURES};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const ALGORITHMS: [Algorithm; 4] =
    [Algorithm::Knn, Algorithm::Lda, Algorithm::RandomForest, Algorithm::Svm];

/// Meta-features from a small pool, so histories collide: the same id
/// recorded again with identical or changed features, different ids with
/// duplicate features (ties broken by sequence), queries that sit exactly
/// on an entry. Two columns are constant across the pool.
fn pooled(pick: usize) -> MetaFeatures {
    let values = (0..N_META_FEATURES)
        .map(|j| match j {
            5 => 2.5,
            19 => 0.0,
            _ => ((pick * 37 + j * 11) % 29) as f64 * 10f64.powi(j as i32 % 6 - 2) - 3.0,
        })
        .collect();
    MetaFeatures { values }
}

fn marks(pick: usize) -> Landmarkers {
    Landmarkers {
        decision_stump: 0.3 + (pick % 5) as f64 / 10.0,
        nearest_centroid: 0.4 + (pick % 3) as f64 / 5.0,
    }
}

#[derive(Debug, Clone)]
enum Neighbours {
    One,
    Five,
    All,
    AllAndThree,
    Max,
}

#[derive(Debug, Clone)]
enum Op {
    /// RECORD for dataset `id` (of 8) with pooled features `pick`.
    Record { id: usize, pick: usize, run: usize },
    /// SET_LANDMARKERS; ids 8 and 9 are never recorded.
    SetLandmarkers { id: usize, pick: usize },
    /// A replica's snapshot install: the twin KB with its first entry
    /// moved to the end, as a diverged primary would have it.
    InstallSnapshot,
    ResetForResync,
    Reopen,
    Recommend {
        pick: usize,
        marks: Option<usize>,
        use_landmarkers: bool,
        neighbours: Neighbours,
        top_n: usize,
        performance_weight: f64,
    },
}

fn recommend() -> impl Strategy<Value = Op> {
    let neighbours = prop_oneof![
        Just(Neighbours::One),
        Just(Neighbours::Five),
        Just(Neighbours::All),
        Just(Neighbours::AllAndThree),
        Just(Neighbours::Max),
    ];
    let top_n = prop_oneof![Just(1usize), Just(3usize), Just(usize::MAX)];
    let shape = (neighbours, top_n, prop_oneof![Just(0.0), Just(1.0), Just(2.0)]);
    (0..12usize, 0..6usize, any::<bool>(), any::<bool>(), shape).prop_map(
        |(pick, marks, has_marks, use_landmarkers, (neighbours, top_n, performance_weight))| {
            Op::Recommend {
                pick,
                marks: has_marks.then_some(marks),
                use_landmarkers,
                neighbours,
                top_n,
                performance_weight,
            }
        },
    )
}

fn op() -> impl Strategy<Value = Op> {
    let record =
        || (0..8usize, 0..10usize, 0..40usize).prop_map(|(id, pick, run)| Op::Record { id, pick, run });
    let rare = (0..10usize, 0..6usize).prop_map(|(id, pick)| match id {
        0 => Op::InstallSnapshot,
        1 => Op::ResetForResync,
        2 | 3 => Op::Reopen,
        _ => Op::SetLandmarkers { id, pick },
    });
    prop_oneof![record(), record(), recommend(), recommend(), rare]
}

fn run_of(run: usize) -> AlgorithmRun {
    AlgorithmRun {
        algorithm: ALGORITHMS[run % 4],
        config: ParamConfig::default().with("k", ParamValue::Int(run as i64)),
        accuracy: 0.5 + run as f64 / 100.0,
    }
}

/// A recommendation with every float as its bit pattern.
type Bits = (Vec<(String, u64)>, Vec<(Algorithm, u64, Vec<ParamConfig>)>);

fn bits(r: &Recommendation) -> Bits {
    (
        r.neighbors.iter().map(|(id, d)| (id.clone(), d.to_bits())).collect(),
        r.algorithms
            .iter()
            .map(|a| (a.algorithm, a.score.to_bits(), a.warm_starts.clone()))
            .collect(),
    )
}

fn options() -> DurableOptions {
    DurableOptions { fsync_writes: false, ..DurableOptions::default() }
}

/// Applies `ops` to a `ShardedKb` of `n_shards` and to the in-memory
/// twin, checking every RECOMMEND and, at the end, the stores themselves.
fn check_history(n_shards: usize, ops: &[Op]) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "smartml-kbd-diff-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut sharded = ShardedKb::open_with(&dir, options(), n_shards).expect("store opens");
    let mut mono = KnowledgeBase::new();
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Record { id, pick, run } => {
                let (id, features) = (format!("d{id}"), pooled(*pick));
                mono.record_run(&id, &features, run_of(*run));
                sharded.record_run(&id, &features, run_of(*run)).expect("record");
            }
            Op::SetLandmarkers { id, pick } => {
                mono.set_landmarkers(&format!("d{id}"), marks(*pick));
                sharded.set_landmarkers(&format!("d{id}"), marks(*pick)).expect("landmarkers");
            }
            Op::InstallSnapshot => {
                let mut entries = mono.into_entries();
                if !entries.is_empty() {
                    entries.rotate_left(1);
                }
                mono = KnowledgeBase::from_entries(entries);
                let shipped = serde_json::to_string(&mono).expect("kb encodes");
                sharded
                    .install_snapshot(sharded.active_segment() + 1, &shipped, step as u64)
                    .expect("snapshot installs");
            }
            Op::ResetForResync => {
                mono = KnowledgeBase::new();
                sharded.reset_for_resync().expect("reset");
            }
            Op::Reopen => {
                drop(sharded);
                sharded = ShardedKb::open_with(&dir, options(), n_shards).expect("store reopens");
            }
            Op::Recommend { pick, marks: m, use_landmarkers, neighbours, top_n, performance_weight } => {
                let n_neighbors = match neighbours {
                    Neighbours::One => 1,
                    Neighbours::Five => 5,
                    Neighbours::All => mono.len(),
                    Neighbours::AllAndThree => mono.len() + 3,
                    Neighbours::Max => usize::MAX,
                };
                let opts = QueryOptions {
                    top_n: *top_n,
                    n_neighbors,
                    performance_weight: *performance_weight,
                    use_landmarkers: *use_landmarkers,
                };
                let (query, marks) = (pooled(*pick), m.map(marks));
                let want = mono.recommend_extended(&query, marks, &opts);
                let got = sharded.recommend(&query, marks, &opts);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "shards={n_shards} step={step} {opts:?} marks={marks:?} in {ops:?}"
                );
            }
        }
        assert_eq!(sharded.len(), mono.len(), "shards={n_shards} step={step} in {ops:?}");
    }
    assert_eq!(
        serde_json::to_string(&sharded.to_monolithic()).expect("kb encodes"),
        serde_json::to_string(&mono).expect("kb encodes"),
        "shards={n_shards} {ops:?}"
    );
    drop(sharded);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #[test]
    fn sharded_recommendations_equal_the_monolithic_kb_bit_for_bit(
        n_shards in prop_oneof![Just(1usize), Just(3usize), Just(8usize)],
        ops in prop::collection::vec(op(), 1..48),
    ) {
        check_history(n_shards, &ops);
    }
}

/// The hand-written case that predates the generated ones: twenty
/// RECORDs over twelve ids (revisits overwrite), one SET_LANDMARKERS,
/// then queries under four option sets, with and without landmarkers.
#[test]
fn fixed_history_with_revisits_and_landmarkers() {
    let mut ops: Vec<Op> =
        (0..20).map(|i| Op::Record { id: i % 8, pick: i % 10, run: i }).collect();
    ops.push(Op::SetLandmarkers { id: 3, pick: 4 });
    for q in 0..6 {
        for (use_landmarkers, neighbours, top_n, performance_weight) in [
            (false, Neighbours::Five, 3, 1.0),
            (false, Neighbours::One, 1, 1.0),
            (true, Neighbours::Five, 3, 1.0),
            (false, Neighbours::AllAndThree, 3, 0.0),
        ] {
            ops.push(Op::Recommend {
                pick: 6 + q,
                marks: (q % 2 == 0).then_some(q),
                use_landmarkers,
                neighbours,
                top_n,
                performance_weight,
            });
        }
    }
    for n_shards in [1, 3, 8] {
        check_history(n_shards, &ops);
    }
}
