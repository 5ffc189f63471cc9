//! Observability must be a pure observer: enabling span tracing cannot
//! change model selection, at any pool width. A traced run additionally
//! has to produce a span stream covering the phase → algorithm → trial
//! hierarchy and a timeline attribution in the report.
//!
//! Note on assertions: the obs flags and span ring are process-global, so
//! a traced run executing concurrently with other tests in this binary
//! may pick up *their* spans too. Assertions on the trace therefore check
//! presence and structure, never exact counts; the strict ±1% phase-sum
//! validation runs in `scripts/verify.sh` against a dedicated single-run
//! CLI invocation. The metrics registry is process-global too; the one
//! test that compares exact counter values switches it on only for itself,
//! and every test here takes [`obs_gate`] so no other run adds to them.

use smartml::{Budget, OptimizerChoice, RunOutcome, SmartML, SmartMlOptions};
use smartml_data::synth::gaussian_blobs;
use smartml_preprocess::Op;
use std::sync::{Mutex, MutexGuard};

fn obs_gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn run(n_threads: usize, trace: bool) -> RunOutcome {
    run_with(n_threads, trace, OptimizerChoice::Smac)
}

fn run_with(n_threads: usize, trace: bool, optimizer: OptimizerChoice) -> RunOutcome {
    let data = gaussian_blobs("obs-det", 180, 5, 3, 1.0, 13);
    let mut options = SmartMlOptions::default()
        .with_budget(Budget::Trials(6))
        .with_seed(13)
        .with_n_threads(n_threads)
        .with_optimizer(optimizer)
        .with_trace(trace);
    options.top_n_algorithms = 2;
    options.cv_folds = 2;
    options.preprocessing = vec![Op::Zv];
    let mut engine = SmartML::new(options);
    engine.run(&data).expect("pipeline runs")
}

/// Report JSON with everything wall-clock-dependent removed: phase
/// timings zeroed and the timeline dropped (it only exists when traced).
fn canonical_json(outcome: &RunOutcome) -> String {
    let mut report = outcome.report.clone();
    for phase in &mut report.phases {
        phase.secs = 0.0;
    }
    report.timeline = None;
    serde_json::to_string_pretty(&report).expect("report serialises")
}

#[test]
fn tracing_does_not_change_selection_at_any_width() {
    let _obs = obs_gate();
    let baseline = canonical_json(&run(1, false));
    for threads in [1usize, 2, 3, 5, 8] {
        for trace in [false, true] {
            let outcome = run(threads, trace);
            assert_eq!(
                baseline,
                canonical_json(&outcome),
                "selection diverged at n_threads={threads} trace={trace}"
            );
        }
    }
}

#[test]
fn traced_run_yields_span_hierarchy_and_timeline() {
    let _obs = obs_gate();
    // Untraced: no trace, no timeline — and nothing half-initialised.
    let plain = run(2, false);
    assert!(plain.trace.is_none(), "untraced run must not carry a trace");
    assert!(plain.report.timeline.is_none(), "untraced report must not carry a timeline");

    let traced = run(2, true);
    let trace = traced.trace.as_ref().expect("traced run returns its span stream");
    let has = |name: &str| trace.spans.iter().any(|s| s.name == name);
    for name in ["run", "phase2.preprocess", "phase3.select", "phase4.tune_all", "phase4.tune", "smac.trial", "smac.fold"] {
        assert!(has(name), "span {name:?} missing from trace");
    }
    // Exports are well-formed JSON even under serde_json's strict parser.
    let chrome: serde_json::Value =
        serde_json::from_str(&trace.to_chrome_trace()).expect("chrome trace parses");
    assert!(chrome.as_array().is_some_and(|a| !a.is_empty()));
    for line in trace.to_jsonl().lines() {
        let _: serde_json::Value = serde_json::from_str(line).expect("jsonl line parses");
    }

    let tl = traced.report.timeline.as_ref().expect("traced report carries a timeline");
    assert!(tl.total_secs > 0.0);
    assert!(
        tl.phases.iter().any(|(name, _)| name == "phase4.tune_all"),
        "timeline must attribute the tuning phase: {:?}",
        tl.phases
    );
    assert!(!tl.algorithms.is_empty(), "timeline must attribute per-algorithm time");
    for algo in &tl.algorithms {
        assert!(algo.tune_secs >= 0.0 && algo.trials > 0, "algo {algo:?} saw no trials");
    }
    // The rendered report surfaces the attribution in both formats.
    assert!(traced.report.render().contains("Where the time went"));
    assert!(traced.report.render_markdown().contains("### Where the time went"));
}

/// The `classifiers.svm.*` counters a run leaves behind, by name.
fn svm_counters(n_threads: usize, optimizer: OptimizerChoice) -> Vec<(String, u64)> {
    smartml_obs::reset_metrics();
    run_with(n_threads, false, optimizer);
    let mut counters = smartml_obs::snapshot().counters;
    counters.retain(|(name, _)| name.starts_with("classifiers.svm."));
    counters
}

#[test]
fn svm_filter_counters_repeat_exactly_at_any_width() {
    let _obs = obs_gate();
    smartml_obs::enable_metrics();
    // What a solve counts is a pure function of its kernel matrix, so a run
    // repeats its totals whenever it repeats its set of solves. Random
    // search evaluates every fold of every configuration, at any width.
    let reference = svm_counters(1, OptimizerChoice::Random);
    let count = |name: &str| {
        let full = format!("classifiers.svm.{name}");
        reference.iter().find(|(n, _)| *n == full).unwrap_or_else(|| panic!("{full} not registered")).1
    };
    assert!(count("kkt_checks") > 0, "the cold-start portfolio tunes an SVM: {reference:?}");
    assert!(count("exact_sums") < count("kkt_checks"), "the filter decided nothing: {reference:?}");
    for name in ["skipped_steps", "resyncs", "filter_off"] {
        count(name);
    }
    for threads in [1usize, 2, 8] {
        assert_eq!(reference, svm_counters(threads, OptimizerChoice::Random), "n_threads={threads}");
    }
    // SMAC's race evaluates folds ahead on threads that are free and then
    // discards the ones its serial replay never reaches (`smac.fold.wasted`);
    // their solves happened and are counted, so its totals repeat only
    // where nothing is speculated: on one thread.
    assert_eq!(svm_counters(1, OptimizerChoice::Smac), svm_counters(1, OptimizerChoice::Smac));
    smartml_obs::disable_metrics();
}
