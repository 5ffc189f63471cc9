//! Cross-thread-count determinism: a SmartML run must produce a
//! byte-identical report JSON for any `n_threads` at a fixed seed — the
//! pool only changes wall-clock time, never results.

use smartml::{Budget, SmartML, SmartMlOptions};
use smartml_data::synth::gaussian_blobs;

/// Runs the full pipeline at the given width and returns the report JSON
/// with wall-clock timings zeroed (the only legitimately nondeterministic
/// field).
fn report_json(n_threads: usize) -> String {
    let data = gaussian_blobs("det", 200, 5, 3, 1.0, 7);
    let options = SmartMlOptions::default()
        .with_budget(Budget::Trials(12))
        .with_ensembling(true)
        .with_interpretability(true)
        .with_seed(7)
        .with_n_threads(n_threads);
    let mut engine = SmartML::new(options);
    let mut report = engine.run(&data).expect("pipeline runs").report;
    for phase in &mut report.phases {
        phase.secs = 0.0;
    }
    serde_json::to_string_pretty(&report).expect("report serialises")
}

/// 3 and 5 divide neither the three nominations nor the folds, so which
/// inner calls find a free slot depends on timing — the report must not.
#[test]
fn report_is_identical_for_any_thread_count() {
    let serial = report_json(1);
    for threads in [2, 3, 5, 8] {
        let parallel = report_json(threads);
        assert_eq!(
            serial, parallel,
            "report diverged between n_threads=1 and n_threads={threads}"
        );
    }
}
