//! Full-pipeline fault containment: with the `fault-injection` feature
//! on, `SmartML::run` is bombarded with seed-driven panics and hangs in
//! the trial path and must still return a model within its budget, with
//! the report's failure ledger accounting for every injected fault —
//! and the whole run must stay deterministic for any worker-pool width.
#![cfg(feature = "fault-injection")]

use smartml::{Budget, RunReport, SmartML, SmartMlOptions};
use smartml_data::synth::gaussian_blobs;
use smartml_data::Dataset;
use smartml_runtime::faults::fail::{self, FaultPlan, SiteRule};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The fail-point plan and its counters are process-global; tests that
/// arm them must not overlap.
static ARMED: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    ARMED.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn data() -> Dataset {
    gaussian_blobs("fault-e2e", 80, 3, 2, 0.9, 11)
}

fn options(n_threads: usize) -> SmartMlOptions {
    SmartMlOptions {
        budget: Budget::Trials(12),
        top_n_algorithms: 2,
        cv_folds: 2,
        seed: 5,
        n_threads,
        trial_timeout: Some(Duration::from_secs(2)),
        ..Default::default()
    }
}

fn fold_rule(panic_rate: f64, hang_rate: f64) -> SiteRule {
    SiteRule {
        site: "smac::fold".into(),
        panic_rate,
        hang_rate,
        hang_for: Duration::from_secs(60),
    }
}

/// Everything the failure section claims, in a pool-width-independent
/// canonical form (no timings).
fn fingerprint(report: &RunReport) -> String {
    let mut out = format!(
        "best={:?}/{}@{:.6}",
        report.best.algorithm,
        report.best.config.summary(),
        report.best.validation_accuracy
    );
    for section in &report.failures.algorithms {
        out.push_str(&format!(
            ";{:?}:ok={},nf={},p={},to={},f={},tripped={},extra={}",
            section.algorithm,
            section.counts.ok,
            section.counts.non_finite,
            section.counts.panicked,
            section.counts.timed_out,
            section.counts.failed,
            section.tripped,
            section.reallocated_trials,
        ));
    }
    out
}

/// The headline guarantee: at a combined 30% injected failure rate the
/// run completes, hands back a usable model, and the per-algorithm
/// ledger matches the injection counters exactly (serial pool, so each
/// injected fault ends exactly one trial).
#[test]
fn pipeline_survives_30_percent_fault_rate_with_exact_ledger() {
    let _guard = lock();
    let data = data();
    fail::arm(FaultPlan { seed: 41, rules: vec![fold_rule(0.2, 0.1)] });
    let started = Instant::now();
    let outcome = SmartML::new(options(1)).run(&data).expect("run must survive the faults");
    let elapsed = started.elapsed();
    let (panics, hangs) = (fail::injected_panics(), fail::injected_hangs());
    fail::disarm();

    assert!(elapsed < Duration::from_secs(120), "containment must not eat the budget: {elapsed:?}");
    let predictions = outcome.model.predict(&data, &data.all_rows());
    assert_eq!(predictions.len(), data.n_rows(), "the model must be usable");

    let report = &outcome.report;
    assert!(panics + hangs > 0, "the plan must actually fire at these rates");
    assert!(!report.failures.is_clean(), "injected faults must show up in the report");
    let ledger_panics: usize =
        report.failures.algorithms.iter().map(|a| a.counts.panicked).sum();
    let ledger_timeouts: usize =
        report.failures.algorithms.iter().map(|a| a.counts.timed_out).sum();
    assert_eq!(ledger_panics, panics, "every injected panic must be accounted for");
    assert!(
        ledger_timeouts >= hangs,
        "every injected hang must surface as a timed-out trial ({ledger_timeouts} < {hangs})"
    );
    // The rendered report carries the section too.
    assert!(report.render().contains("Failures (contained)"));
}

/// Kill-the-trial smoke: every fold evaluation hangs far beyond the
/// watchdog. Each trial must be cut at the timeout, breakers must trip,
/// and the run must still return a model from the guarded refit path.
#[test]
fn hanging_fits_time_out_and_the_run_still_returns_a_model() {
    let _guard = lock();
    let data = data();
    fail::arm(FaultPlan { seed: 7, rules: vec![fold_rule(0.0, 1.0)] });
    let started = Instant::now();
    let mut opts = options(1);
    opts.trial_timeout = Some(Duration::from_millis(500));
    opts.breaker_threshold = 2;
    let outcome = SmartML::new(opts).run(&data).expect("hangs must never kill the run");
    let elapsed = started.elapsed();
    fail::disarm();

    assert!(
        elapsed < Duration::from_secs(60),
        "watchdogs must cut hanging trials, took {elapsed:?}"
    );
    let report = &outcome.report;
    assert!(
        report.failures.algorithms.iter().all(|a| a.tripped),
        "all-hanging tuning must trip every breaker"
    );
    assert!(
        report.failures.algorithms.iter().all(|a| a.counts.timed_out >= 2),
        "each algorithm must record its timed-out trials"
    );
    let predictions = outcome.model.predict(&data, &data.all_rows());
    assert_eq!(predictions.len(), data.n_rows());
}

/// Tripped-breaker budget reallocation must be deterministic across
/// worker-pool widths: the failure ledger, tripped flags, reallocated
/// trial counts and the winning model are identical for 1, 2, 3, 5 and 8
/// threads under the same fault plan.
#[test]
fn breaker_reallocation_is_deterministic_across_pool_widths() {
    let _guard = lock();
    let data = data();
    let run_width = |n_threads: usize| {
        // Plan seed 1 at a 35% panic rate trips one algorithm's breaker
        // while the other survives and inherits the freed trials — the
        // reallocation path is actually exercised, not vacuously green.
        fail::arm(FaultPlan { seed: 1, rules: vec![fold_rule(0.35, 0.0)] });
        let mut opts = options(n_threads);
        opts.breaker_threshold = 2;
        let outcome = SmartML::new(opts).run(&data).expect("run survives");
        fail::disarm();
        let tripped = outcome.report.failures.algorithms.iter().filter(|a| a.tripped).count();
        let reallocated: usize =
            outcome.report.failures.algorithms.iter().map(|a| a.reallocated_trials).sum();
        assert_eq!(tripped, 1, "exactly one breaker must trip under this plan");
        assert!(reallocated > 0, "the survivor must inherit the freed trials");
        fingerprint(&outcome.report)
    };
    let serial = run_width(1);
    for width in [2, 3, 5, 8] {
        assert_eq!(serial, run_width(width), "{width}-thread report diverged from serial");
    }
}
