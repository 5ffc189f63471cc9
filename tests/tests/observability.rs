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
//! CLI invocation.

use smartml::{Budget, RunOutcome, SmartML, SmartMlOptions};
use smartml_data::synth::gaussian_blobs;
use smartml_preprocess::Op;

fn run(n_threads: usize, trace: bool) -> RunOutcome {
    let data = gaussian_blobs("obs-det", 180, 5, 3, 1.0, 13);
    let mut options = SmartMlOptions::default()
        .with_budget(Budget::Trials(6))
        .with_seed(13)
        .with_n_threads(n_threads)
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
