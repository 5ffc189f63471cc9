//! Allocation pin for `ShardedKb::recommend` over a 10⁴-record store: a
//! steady read allocates for its reply and nothing that grows with the
//! store, and the first read after a write rebuilds the z-scores into
//! the buffer the cache already owns.
//!
//! A counting `#[global_allocator]` needs a test binary of its own, and
//! the counts are per thread, so the one test below measures undisturbed
//! — which also makes it the place to read the process-wide
//! `kbd.zcache.rebuilds` and `kbd.zindex.rows_finished` counters.

use smartml_classifiers::{Algorithm, ParamConfig};
use smartml_kb::{AlgorithmRun, QueryOptions};
use smartml_kbd::{DurableOptions, ShardedKb};
use smartml_metafeatures::{Landmarkers, MetaFeatures, N_META_FEATURES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` and without a destructor: touching it never allocates.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn allocated(bytes: usize) {
    if MEASURING.get() {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        LARGEST.set(LARGEST.get().max(bytes));
    }
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping around it touches only
// const-initialised thread-locals and so never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        allocated(new_size);
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, and the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation count and largest single allocation of `f`.
fn measure<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    ALLOCATIONS.set(0);
    LARGEST.set(0);
    MEASURING.set(true);
    let out = f();
    MEASURING.set(false);
    (ALLOCATIONS.get(), LARGEST.get(), out)
}

const RECORDS: usize = 10_000;
/// Allocations a reply may take: neighbour ids, warm starts, the vote.
const REPLY: usize = 64;
/// No single allocation of a read comes near a per-record array
/// (`RECORDS` × 8 B and up).
const SMALL: usize = 4096;

fn features(i: usize) -> MetaFeatures {
    let mut x = i as f64 * 0.618_033_988_749_894_9 + 0.1;
    let values = (0..N_META_FEATURES)
        .map(|_| {
            x = (x * 997.0 + 0.271_828_182_845_904_5).fract();
            x * 40.0 - 20.0
        })
        .collect();
    MetaFeatures { values }
}

fn run(i: usize) -> AlgorithmRun {
    AlgorithmRun {
        algorithm: [Algorithm::Knn, Algorithm::Svm, Algorithm::RandomForest][i % 3],
        config: ParamConfig::default(),
        accuracy: 0.5 + (i % 40) as f64 / 100.0,
    }
}

fn counter(name: &str) -> u64 {
    let counters = smartml_obs::snapshot().counters;
    counters.iter().find(|(n, _)| n == name).map_or(0, |(_, n)| *n)
}

fn rebuilds() -> u64 {
    counter("kbd.zcache.rebuilds")
}

fn rows_finished() -> u64 {
    counter("kbd.zindex.rows_finished")
}

#[test]
fn reads_allocate_for_the_reply_not_for_the_store() {
    let dir = std::env::temp_dir().join(format!("smartml-kbd-zalloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = DurableOptions { fsync_writes: false, ..DurableOptions::default() };
    let store = ShardedKb::open_with(&dir, options, 4).expect("store opens");
    for i in 0..RECORDS {
        store.record_run(&format!("d{i}"), &features(i), run(i)).expect("seed record");
    }
    smartml_obs::enable_metrics();
    let opts = QueryOptions::default();
    let query = features(RECORDS + 1);

    // The first read builds the z-scores: one buffer, sized to the store.
    let (_, largest, first) = measure(|| store.recommend(&query, None, &opts));
    assert!(largest >= RECORDS * N_META_FEATURES * 8, "largest allocation {largest} B");
    assert_eq!(rebuilds(), 1);

    let finished = rows_finished();
    let (allocations, largest, steady) = measure(|| store.recommend(&query, None, &opts));
    let finished = rows_finished() - finished;
    assert_eq!(steady, first);
    // The scan's bound prunes: few rows are carried to a full distance.
    assert!(finished < (RECORDS / 10) as u64, "a steady read finished {finished} rows");
    assert!(allocations < REPLY, "{allocations} allocations in a steady read");
    assert!(largest < SMALL, "a steady read allocated {largest} B at once");
    // Landmarkers are read per row, straight from the entries.
    let marks = Landmarkers { decision_stump: 0.6, nearest_centroid: 0.7 };
    let extended = QueryOptions { use_landmarkers: true, ..QueryOptions::default() };
    let finished = rows_finished();
    let (allocations, largest, _) = measure(|| store.recommend(&query, Some(marks), &extended));
    assert!(allocations < REPLY && largest < SMALL, "{allocations} allocations, {largest} B");
    // With landmarkers in the distance every row is finished.
    assert_eq!(rows_finished() - finished, RECORDS as u64);
    assert_eq!(rebuilds(), 1, "reads do not rebuild");

    // A new dataset invalidates the z-scores. The first such rebuild may
    // outgrow the buffer and move it; from then on capacity lasts, and a
    // rebuild allocates nothing at all beyond the read it serves.
    store.record_run("grown", &features(RECORDS + 2), run(0)).expect("record");
    let (allocations, _, _) = measure(|| store.recommend(&query, None, &opts));
    assert!(allocations < REPLY, "{allocations} allocations in a read that rebuilt");
    store.record_run("new", &features(RECORDS + 3), run(1)).expect("record");
    let (allocations, largest, after) = measure(|| store.recommend(&features(RECORDS + 3), None, &opts));
    assert_eq!(after.neighbors[0], ("new".to_string(), 0.0));
    assert!(allocations < REPLY, "{allocations} allocations in a read that rebuilt");
    assert!(largest < SMALL, "a rebuild within capacity allocated {largest} B at once");
    assert_eq!(rebuilds(), 3);

    // The pipeline's phase 5 for one more dataset — a RECORD per tuned
    // algorithm with the same meta-features, then SET_LANDMARKERS, a read
    // after each — is due one rebuild, not four.
    for i in 0..3 {
        store.record_run("tuned", &features(RECORDS + 4), run(i)).expect("record");
        store.recommend(&query, None, &opts);
    }
    store.set_landmarkers("tuned", marks).expect("landmarkers");
    store.recommend(&query, None, &opts);
    assert_eq!(rebuilds(), 4);

    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
