//! The meta-learning lifecycle over the durable, WAL-backed knowledge
//! base: bootstrap experience into a write-ahead log, "crash" by
//! dropping the handle, recover in a new session, run the pipeline
//! against the durable store, and compact it into a snapshot — the
//! paper's "SmartML gets smarter by getting more experience" loop, made
//! restart-proof.
//!
//! ```text
//! cargo run --release -p smartml-examples --bin kb_lifecycle
//! ```

use smartml::bootstrap::{bootstrap_dataset, BootstrapProfile};
use smartml::{Budget, KnowledgeBase, SmartML, SmartMlOptions};
use smartml_data::synth::{gaussian_blobs, xor_parity};
use smartml_kb::QueryOptions;
use smartml_kbd::{DurableOptions, ShardedKb};
use smartml_metafeatures::extract;

fn main() {
    let kb_dir = std::env::temp_dir().join("smartml-lifecycle-kb");
    let _ = std::fs::remove_dir_all(&kb_dir);

    // Session 1: bootstrap from a handful of past tasks, then stream the
    // experience into the write-ahead log record by record.
    let mut bootstrapped = KnowledgeBase::new();
    let profile = BootstrapProfile { configs_per_algorithm: 2, ..BootstrapProfile::fast() };
    for seed in 0..4u64 {
        let blobs = gaussian_blobs(&format!("past-blobs-{seed}"), 200, 4, 2, 0.8, seed);
        bootstrap_dataset(&mut bootstrapped, &blobs, &profile);
        let xor = xor_parity(&format!("past-xor-{seed}"), 300, 2, 10, 0.02, seed);
        bootstrap_dataset(&mut bootstrapped, &xor, &profile);
    }
    // One shard: the store `smartmld` serves, opened in process.
    let open = || ShardedKb::open_with(&kb_dir, DurableOptions::default(), 1);
    let durable = open().expect("WAL dir opens");
    for entry in bootstrapped.entries() {
        for run in &entry.runs {
            durable
                .record_run(&entry.dataset_id, &entry.meta_features, run.clone())
                .expect("WAL append");
        }
    }
    println!(
        "session 1: bootstrapped {} datasets / {} runs into wal:{} (active segment {})\n",
        durable.len(),
        durable.n_runs(),
        kb_dir.display(),
        durable.active_segment()
    );
    // "Crash": no save() call — the WAL already has every record.
    drop(durable);

    // Session 2: a fresh process recovers the log and asks for advice.
    let durable = open().expect("WAL recovers");
    let recovery = durable.recovery().clone();
    println!(
        "session 2: recovered {} records from {} segments (snapshot: {:?})",
        recovery.records_replayed, recovery.segments_replayed, recovery.snapshot_seq
    );
    let new_task = xor_parity("new-task", 320, 2, 12, 0.02, 77);
    let meta = extract(&new_task, &new_task.all_rows());
    let recommendation = durable.recommend(&meta, None, &QueryOptions::default());
    println!("KB advice for '{}' (xor-like):", new_task.name);
    for rec in &recommendation.algorithms {
        println!(
            "  {:<14} score {:.3}  ({} warm-start configs)",
            rec.algorithm.paper_name(),
            rec.score,
            rec.warm_starts.len()
        );
    }

    // Run the full pipeline against the durable backend; every KB update
    // the run makes is WAL-logged before it is applied.
    let options = SmartMlOptions::default().with_budget(Budget::Trials(15)).with_seed(3);
    let mut engine = SmartML::with_backend(durable, options);
    let before = engine.kb().n_runs();
    let outcome = engine.run(&new_task).expect("pipeline runs");
    println!(
        "\nwinner: {} at {:.1}% validation accuracy",
        outcome.report.best.algorithm.paper_name(),
        outcome.report.best.validation_accuracy * 100.0
    );
    let durable = engine.into_kb();
    println!("KB grew {} -> {} runs; compacting.", before, durable.n_runs());

    // Compact: fold the log into a snapshot; old segments are deleted and
    // the next open replays nothing.
    let covered = durable.snapshot().expect("snapshot");
    drop(durable);
    let durable = open().expect("reopen from snapshot");
    println!(
        "session 3: snapshot at segment {covered}; reopened with {} records replayed, {} datasets / {} runs",
        durable.recovery().records_replayed,
        durable.len(),
        durable.n_runs()
    );
    std::fs::remove_dir_all(&kb_dir).ok();
}
