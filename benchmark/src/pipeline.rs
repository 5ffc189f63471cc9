//! The two in-process pipeline workloads: CSV text in memory →
//! `parse_csv` → `SmartML::with_kb(bootstrapped KB)` → `report.render()`.
//!
//! `table4_warm` is the paper's headline use (tuning dominates);
//! `rows1e5_ingest` is one large upload with cheap tuning (parsing
//! dominates). Budgets are trial counts, so a pass is the same work every
//! time and speed is what varies.

use smartml::{
    divide_budget, permutation_importance, Budget, KnowledgeBase, RunOutcome, RunReport, SmartML,
    SmartMlOptions,
};
use smartml_classifiers::TrainedModel;
use smartml_data::io::parse_csv;
use smartml_data::Dataset;
use std::time::Instant;

use crate::harness::{mean, repeat_setup, timed, Ledger, RunArgs, WIDTH};
use crate::inputs::{self, derive, JobInput};
use crate::probes;
use crate::spans::Recorder;

pub struct Spec {
    pub trials: usize,
    /// The job list for a seed; a smoke run gets a small one.
    pub jobs: fn(u64, bool) -> Vec<JobInput>,
    /// The SmartML seed: fixed with the datasets, or drawn from `--seed`.
    pub smartml_seed: fn(u64) -> u64,
}

/// The SmartML seed of the workloads whose datasets are fixed.
pub const FIXED_SMARTML_SEED: u64 = 7;

pub const TABLE4_WARM: Spec = Spec {
    trials: 30,
    jobs: |seed, smoke| {
        let mut jobs = inputs::table4_jobs(seed);
        jobs.truncate(if smoke { 2 } else { jobs.len() });
        jobs
    },
    smartml_seed: |_| FIXED_SMARTML_SEED,
};
pub const ROWS1E5_INGEST: Spec = Spec {
    trials: 9,
    jobs: |seed, smoke| {
        vec![inputs::rows1e5_job(
            seed,
            if smoke { 5_000 } else { 100_000 },
        )]
    },
    smartml_seed: |seed| derive(seed, 6),
};

struct Inputs {
    jobs: Vec<JobInput>,
    kb: KnowledgeBase,
}

fn set_up(spec: &Spec, args: &RunArgs) -> Inputs {
    Inputs {
        jobs: (spec.jobs)(args.seed, args.smoke),
        kb: inputs::bootstrapped_kb(args.smoke),
    }
}

fn options(spec: &Spec, seed: u64, n_threads: usize, trace: bool) -> SmartMlOptions {
    SmartMlOptions {
        budget: Budget::Trials(spec.trials),
        ensembling: true,
        interpretability: true,
        seed: (spec.smartml_seed)(seed),
        n_threads,
        ..SmartMlOptions::default()
    }
    .with_trace(trace)
}

/// A report as JSON with everything that legitimately differs between two
/// runs of the same job removed: wall-clock phase timings and the
/// timeline a traced run attaches.
pub fn canonical(report: &RunReport) -> String {
    let mut r = report.clone();
    for phase in &mut r.phases {
        phase.secs = 0.0;
    }
    r.timeline = None;
    serde_json::to_string(&r).expect("report encodes")
}

struct JobDone {
    secs: f64,
    data: Dataset,
    outcome: RunOutcome,
}

/// One job, CSV bytes to rendered report, with a span around each public
/// call. Every job gets its own copy of the KB so that pass k sees the KB
/// pass 1 saw.
fn run_job(
    input: &JobInput,
    kb: &KnowledgeBase,
    opts: &SmartMlOptions,
    rec: &mut Recorder,
    job: u32,
) -> JobDone {
    let started = Instant::now();
    let job_span = rec.enter(&format!("job {}", input.name), "harness", job);
    let s = rec.enter("data.parse_csv", "data", job);
    let data = parse_csv(&input.name, &input.csv, None).expect("generated CSV parses");
    rec.exit(s);
    let mut engine = SmartML::with_kb(kb.clone(), opts.clone());
    let s = rec.enter("core.run", "core", job);
    let outcome = engine.run(&data).expect("generated dataset runs");
    rec.exit(s);
    if let Some(trace) = &outcome.trace {
        rec.import_run(s, trace);
    }
    let s = rec.enter("core.report_render", "core", job);
    let rendered = outcome.report.render();
    rec.exit(s);
    std::hint::black_box(rendered);
    rec.exit(job_span);
    JobDone {
        secs: started.elapsed().as_secs_f64(),
        data,
        outcome,
    }
}

struct Pass {
    wall_s: f64,
    jobs: Vec<JobDone>,
}

fn run_pass(inputs: &Inputs, opts: &SmartMlOptions, rec: &mut Recorder, label: &str) -> Pass {
    let root = rec.enter(label, "harness", 0);
    let (wall_s, jobs) = timed(|| {
        inputs
            .jobs
            .iter()
            .enumerate()
            .map(|(i, input)| run_job(input, &inputs.kb, opts, rec, i as u32 + 1))
            .collect()
    });
    rec.exit(root);
    Pass { wall_s, jobs }
}

/// The checks every job of every pass must pass; each counts as one
/// attempted operation.
fn check_job(ledger: &mut Ledger, spec: &Spec, done: &JobDone, reference: &str, what: &str) {
    let report = &done.outcome.report;
    let name = &report.dataset;
    ledger.check(canonical(report) == reference, || {
        format!("{what}: report for '{name}' differs from the width-1 traced run")
    });
    let algorithms: Vec<_> = report.tuning.iter().map(|t| t.algorithm).collect();
    let granted = divide_budget(Budget::Trials(spec.trials), &algorithms);
    let spent = report
        .tuning
        .iter()
        .zip(&granted)
        .all(|(t, (_, share))| Some(t.trials) == share.trials());
    ledger.check(spent, || {
        format!("{what}: '{name}' did not spend exactly its trial budget")
    });
    ledger.check(report.failures.is_clean(), || {
        format!("{what}: '{name}' has a non-empty failures ledger")
    });
    let counts = done.data.class_counts();
    let majority = *counts.iter().max().expect("classes") as f64 / done.data.n_rows() as f64;
    ledger.check(report.best.validation_accuracy >= majority, || {
        format!(
            "{what}: '{name}' validates at {:.4}, below the majority-class rate {majority:.4}",
            report.best.validation_accuracy
        )
    });
}

pub fn run(args: &RunArgs, spec: &Spec, ledger: &mut Ledger, rec: &mut Recorder) {
    // Set-up, repeated while that is cheap: the KB bootstrap alone takes
    // about six seconds.
    let (setups, inputs) = repeat_setup(args.setup_reps(3), 6.0, |_| set_up(spec, args), drop);
    ledger.note(
        "csv_bytes",
        inputs.jobs.iter().map(|j| j.csv.len()).sum::<usize>(),
    );
    ledger.note("kb_datasets", inputs.kb.len());

    // Reference and warm-up in one: width 1, traced. Its reports, timings
    // zeroed, are what every later pass must reproduce.
    let mut off = Recorder::new(false, rec.epoch(), 0);
    let serial = run_pass(
        &inputs,
        &options(spec, args.seed, 1, true),
        &mut off,
        "reference pass",
    );
    let reference: Vec<String> = serial
        .jobs
        .iter()
        .map(|j| canonical(&j.outcome.report))
        .collect();
    for (done, reference) in serial.jobs.iter().zip(&reference) {
        check_job(ledger, spec, done, reference, "reference pass");
    }
    let accuracies: Vec<f64> = serial
        .jobs
        .iter()
        .map(|j| j.outcome.report.best.validation_accuracy)
        .collect();
    let quality = mean(&accuracies);

    if args.trace {
        trace_run(args, spec, ledger, rec, &inputs, &serial, &reference);
        return;
    }

    // Timed passes: width 2, untraced.
    let opts = options(spec, args.seed, WIDTH, false);
    let (mut walls, mut latencies) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while args.keep_measuring(started, walls.len()) {
        let pass = run_pass(&inputs, &opts, &mut off, "timed pass");
        for (done, reference) in pass.jobs.iter().zip(&reference) {
            check_job(ledger, spec, done, reference, "timed pass");
            latencies.push(done.secs * 1e3);
        }
        walls.push(pass.wall_s);
    }
    ledger.put_end_to_end(&setups, &walls, &latencies, quality, serial.jobs.len());
}

/// The traced run: the same jobs once more at width 2 with harness spans
/// and the program's own timeline, an untraced twin to price the tracing,
/// and the stand-alone layer probes.
fn trace_run(
    args: &RunArgs,
    spec: &Spec,
    ledger: &mut Ledger,
    rec: &mut Recorder,
    inputs: &Inputs,
    serial: &Pass,
    reference: &[String],
) {
    let traced = run_pass(
        inputs,
        &options(spec, args.seed, WIDTH, true),
        rec,
        "traced pass",
    );
    for (done, reference) in traced.jobs.iter().zip(reference) {
        check_job(ledger, spec, done, reference, "traced pass");
    }
    let mut off = Recorder::new(false, rec.epoch(), 0);
    let plain = run_pass(
        inputs,
        &options(spec, args.seed, WIDTH, false),
        &mut off,
        "untraced pass",
    );
    for (done, reference) in plain.jobs.iter().zip(reference) {
        check_job(ledger, spec, done, reference, "untraced pass");
    }

    // data and core, from the harness spans.
    let (parse_s, _) = rec.total("data.parse_csv");
    let csv_mb = inputs.jobs.iter().map(|j| j.csv.len()).sum::<usize>() as f64 / 1e6;
    ledger.put("data.parse_csv_s", "s", parse_s, traced.jobs.len());
    ledger.put(
        "data.parse_csv_mb_per_s",
        "MB/s",
        csv_mb / parse_s,
        traced.jobs.len(),
    );
    ledger.put(
        "core.report_render_s",
        "s",
        rec.total("core.report_render").0,
        traced.jobs.len(),
    );

    // core and smac, from the program's timeline.
    let mut phase = [0.0f64; 4];
    let (mut other, mut trials_s, mut folds_s, mut surrogate_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut trials, mut folds, mut recorded, mut dropped) = (0u64, 0u64, 0usize, 0u64);
    for done in &traced.jobs {
        let timeline = done
            .outcome
            .report
            .timeline
            .as_ref()
            .expect("traced run has a timeline");
        for (name, secs) in &timeline.phases {
            match name.as_str() {
                "phase2.preprocess" => phase[0] += secs,
                "phase3.select" => phase[1] += secs,
                "phase4.tune_all" => phase[2] += secs,
                "phase5.output" => phase[3] += secs,
                _ => {}
            }
        }
        other += timeline.other_secs;
        for algo in &timeline.algorithms {
            trials_s += algo.trial_secs;
            folds_s += algo.fold_secs;
            surrogate_s += algo.surrogate_secs;
            trials += algo.trials;
            folds += algo.folds;
        }
        let stats = done
            .outcome
            .trace
            .as_ref()
            .expect("traced run has a trace")
            .stats();
        recorded += stats.recorded;
        dropped += stats.dropped;
    }
    let n = traced.jobs.len();
    ledger.put("core.phase2_preprocess_s", "s", phase[0], n);
    ledger.put("core.phase3_select_s", "s", phase[1], n);
    ledger.put("core.phase4_tune_s", "s", phase[2], n);
    ledger.put("core.phase5_output_s", "s", phase[3], n);
    ledger.put("core.other_s", "s", other, n);
    ledger.put("smac.trials_s", "s", trials_s, trials as usize);
    ledger.put("smac.folds_s", "s", folds_s, folds as usize);
    ledger.put("smac.surrogate_s", "s", surrogate_s, n);
    ledger.put("smac.trials_count", "count", trials as f64, n);
    ledger.put("smac.folds_count", "count", folds as f64, n);
    ledger.put("obs.spans_recorded", "count", recorded as f64, n);
    ledger.put("obs.spans_dropped", "count", dropped as f64, n);
    ledger.put(
        "obs.trace_overhead_ratio",
        "ratio",
        traced.wall_s / plain.wall_s,
        1,
    );

    // Ensemble vote and permutation importance of each winner, repeated
    // from outside on the traced pass's own models (the program has no
    // span around either).
    let (mut ensemble_s, mut interpret_s) = (0.0, 0.0);
    for done in &traced.jobs {
        let o = &done.outcome;
        if let Some(ensemble) = &o.ensemble {
            ensemble_s += timed(|| ensemble.predict(&o.preprocessed, &o.valid_rows)).0;
        }
        interpret_s += timed(|| {
            permutation_importance(o.model.as_ref(), &o.preprocessed, &o.valid_rows, 3, 1)
        })
        .0;
    }
    ledger.put("core.ensemble_s", "s", ensemble_s, n);
    ledger.put("core.interpret_s", "s", interpret_s, n);

    // runtime: the same traced jobs at width 1 against width 2. Refused,
    // not faked, on a one-core host.
    ledger.put("runtime.serial_suite_wall_s", "s", serial.wall_s, 1);
    if smartml_runtime::available_parallelism() >= WIDTH {
        let efficiency = serial.wall_s / (WIDTH as f64 * traced.wall_s);
        ledger.put("runtime.parallel_efficiency_w2", "ratio", efficiency, 1);
    }

    let datasets: Vec<&Dataset> = traced.jobs.iter().map(|j| &j.data).collect();
    probes::dataset_layers(ledger, &datasets);
    ledger.put("harness.traced_wall_s", "s", traced.wall_s, 1);
}
