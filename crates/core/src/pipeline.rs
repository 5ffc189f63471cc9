//! The SmartML pipeline: the five phases of paper Figure 1.

use crate::budget::{apportion_secs, apportion_trials, divide_budget};
use crate::ensemble::WeightedEnsemble;
use crate::interpret::permutation_importance_with;
use crate::options::{Budget, OptimizerChoice, SmartMlOptions};
use crate::report::{
    AlgorithmFailures, AlgorithmTuning, BestModel, EnsembleReport, FailureReport, PhaseTrace,
    RunReport, TimeAttribution,
};
use smartml_classifiers::{Algorithm, ParamConfig, TrainedModel};
use smartml_data::{accuracy, degenerate_metric_count, train_valid_split, Dataset};
use smartml_kb::{AlgorithmRun, KbBackend, KbError, KnowledgeBase, QueryOptions, Recommendation};
use smartml_metafeatures::{extract, landmarkers};
use smartml_preprocess::{pipeline_from_ops, MutualInfoSelect, PreprocessError, Transform};
use smartml_obs::{record_interval, span, Timeline, Trace};
use smartml_runtime::faults::{run_trial, GuardOutcome, TrialToken};
use smartml_runtime::{Deadline, Pool};
use smartml_smac::{
    Asha, ClassifierObjective, GridSearch, Hyperband, OptOptions, Optimizer, RandomSearch, Smac,
    SuccessiveHalving, Tpe,
};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Errors from a SmartML run.
#[derive(Debug)]
pub enum SmartMlError {
    /// Preprocessing failed (e.g. PCA on all-categorical data).
    Preprocess(PreprocessError),
    /// No algorithm produced a usable model.
    NoModel,
    /// The dataset is unusable (too small / single class).
    BadDataset(String),
    /// The run options are malformed (rejected before any work starts).
    BadOptions(String),
    /// The knowledge-base backend failed (durable store or remote server).
    Kb(KbError),
}

impl std::fmt::Display for SmartMlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmartMlError::Preprocess(e) => write!(f, "preprocessing failed: {e}"),
            SmartMlError::NoModel => write!(f, "no algorithm produced a usable model"),
            SmartMlError::BadDataset(msg) => write!(f, "bad dataset: {msg}"),
            SmartMlError::BadOptions(msg) => write!(f, "bad options: {msg}"),
            SmartMlError::Kb(e) => write!(f, "knowledge base failed: {e}"),
        }
    }
}

impl std::error::Error for SmartMlError {}

impl From<PreprocessError> for SmartMlError {
    fn from(e: PreprocessError) -> Self {
        SmartMlError::Preprocess(e)
    }
}

impl From<KbError> for SmartMlError {
    fn from(e: KbError) -> Self {
        SmartMlError::Kb(e)
    }
}

/// Result of [`SmartML::run`]: the report plus live models for prediction.
pub struct RunOutcome {
    /// The structured report (Figure-3 content).
    pub report: RunReport,
    /// The winning model, fitted on the training split of the preprocessed
    /// dataset (shared with `ensemble` when there is one). Predict with the
    /// dataset stored in `preprocessed`.
    pub model: Arc<dyn TrainedModel>,
    /// The ensemble, when ensembling was enabled.
    pub ensemble: Option<WeightedEnsemble>,
    /// The preprocessed dataset the models operate on.
    pub preprocessed: Dataset,
    /// Validation rows (indices into `preprocessed`).
    pub valid_rows: Vec<usize>,
    /// Training rows (indices into `preprocessed`).
    pub train_rows: Vec<usize>,
    /// The raw span trace of the run, when tracing was enabled — the CLI
    /// exports it as a Chrome-trace file (`--trace-out`). `None` when
    /// `options.trace` was off.
    pub trace: Option<Trace>,
}

/// Serialises traced runs: the span ring is process-global, so two
/// concurrent traced runs would interleave their spans and corrupt both
/// timelines. Holding this mutex for the duration of a traced run makes
/// `SmartML::run` re-entrant from any number of threads (the job
/// service runs many pipelines at once): untraced runs never touch it,
/// traced runs queue behind each other and each gets a private ring.
static TRACE_GATE: Mutex<()> = Mutex::new(());

/// Scopes global span recording to one `SmartML::run`: enables tracing on
/// construction (when requested) and guarantees it is switched off again
/// on every exit path, including errors — otherwise an early `NoModel`
/// return would leave the process recording spans forever.
struct TracingSession {
    active: bool,
    /// Held while tracing so concurrent traced runs serialise instead of
    /// mixing spans in the shared ring.
    _gate: Option<MutexGuard<'static, ()>>,
}

impl TracingSession {
    fn start(trace: bool, ring_capacity: Option<usize>) -> TracingSession {
        let gate = trace.then(|| {
            // A run that panicked mid-trace poisons the gate; the lock
            // itself is still a valid exclusion token.
            TRACE_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        });
        if trace {
            // Discard anything left in the ring by an earlier run that
            // errored out before draining.
            let _ = smartml_obs::drain_trace();
            smartml_obs::enable_tracing(ring_capacity);
        }
        TracingSession { active: trace, _gate: gate }
    }

    /// Drains the recorded spans on the success path (tracing stays off
    /// afterwards via `Drop`).
    fn finish(&self) -> Option<Trace> {
        self.active.then(smartml_obs::drain_trace)
    }
}

impl Drop for TracingSession {
    fn drop(&mut self) {
        if self.active {
            smartml_obs::disable_tracing();
        }
    }
}

/// The SmartML engine: a knowledge base plus run options.
///
/// Generic over where the knowledge base lives: the default `B` is the
/// in-process [`KnowledgeBase`], but any [`KbBackend`] works — a
/// WAL-backed durable store or a remote `smartmld` client plug in via
/// [`SmartML::with_backend`] without changing the pipeline.
pub struct SmartML<B: KbBackend = KnowledgeBase> {
    kb: B,
    options: SmartMlOptions,
}

impl SmartML<KnowledgeBase> {
    /// Engine with an empty knowledge base (cold start).
    pub fn new(options: SmartMlOptions) -> Self {
        SmartML { kb: KnowledgeBase::new(), options }
    }

    /// Engine with an existing (e.g. bootstrapped) knowledge base.
    pub fn with_kb(kb: KnowledgeBase, options: SmartMlOptions) -> Self {
        SmartML { kb, options }
    }
}

impl<B: KbBackend> SmartML<B> {
    /// Engine over any knowledge-base backend (durable store, remote
    /// `smartmld`, shared in-process index).
    pub fn with_backend(kb: B, options: SmartMlOptions) -> Self {
        SmartML { kb, options }
    }

    /// Borrow the knowledge base (it grows with every run).
    pub fn kb(&self) -> &B {
        &self.kb
    }

    /// Take the knowledge base out (e.g. to persist it).
    pub fn into_kb(self) -> B {
        self.kb
    }

    /// Borrow the options.
    pub fn options(&self) -> &SmartMlOptions {
        &self.options
    }

    /// Runs the full pipeline on a dataset.
    pub fn run(&mut self, data: &Dataset) -> Result<RunOutcome, SmartMlError> {
        let opts = self.options.clone();
        opts.validate().map_err(SmartMlError::BadOptions)?;
        let tracing = TracingSession::start(opts.trace, opts.resolved_trace_ring_capacity());
        let run_start = Instant::now();
        let mut phases: Vec<PhaseTrace> = Vec::new();
        let mut kb_warnings: Vec<String> = Vec::new();
        let degenerate_metrics_before = degenerate_metric_count();

        if data.n_rows() < 20 {
            return Err(SmartMlError::BadDataset(format!(
                "need at least 20 rows, got {}",
                data.n_rows()
            )));
        }
        if data.n_classes() < 2 {
            return Err(SmartMlError::BadDataset("need at least 2 classes".into()));
        }

        // ------ Phase 2: dataset preprocessing -------------------------
        let t = Instant::now();
        let (train_rows, valid_rows) = train_valid_split(data, opts.valid_fraction, opts.seed);
        let pipeline = pipeline_from_ops(&opts.preprocessing);
        let fitted = pipeline.fit(data, &train_rows)?;
        let mut preprocessed = fitted.apply(data);
        if let Some(k) = opts.feature_selection {
            let selector = MutualInfoSelect::new(k);
            let fitted_sel = selector.fit(&preprocessed, &train_rows)?;
            preprocessed = fitted_sel.apply(&preprocessed);
        }
        // Shared from here on: Phase 4 tunes several algorithms
        // concurrently against the same dataset, so it lives in an `Arc`
        // instead of being cloned per objective (unwrapped again before
        // the outcome is returned).
        let preprocessed = Arc::new(preprocessed);
        let meta_features = extract(&preprocessed, &train_rows);
        let query_landmarkers = opts
            .use_landmarkers
            .then(|| landmarkers(&preprocessed, &train_rows));
        record_interval("phase2.preprocess", String::new(), t, t.elapsed());
        phases.push(PhaseTrace {
            phase: "Dataset Preprocessing".into(),
            secs: t.elapsed().as_secs_f64(),
            detail: format!(
                "ops=[{}] selection={:?} split={}train/{}valid, 25 meta-features",
                opts.preprocessing
                    .iter()
                    .map(|o| o.paper_name())
                    .collect::<Vec<_>>()
                    .join(","),
                opts.feature_selection,
                train_rows.len(),
                valid_rows.len()
            ),
        });

        // ------ Phase 3: algorithm selection ----------------------------
        let t = Instant::now();
        // A dead KB backend degrades the run to the cold-start portfolio
        // (recorded as a warning) instead of aborting it: selection
        // quality suffers, the user still gets a model.
        let recommendation = match self.kb.kb_recommend(
            &meta_features,
            query_landmarkers.clone(),
            &QueryOptions {
                top_n: opts.top_n_algorithms,
                n_neighbors: opts.n_neighbors,
                performance_weight: 1.0,
                use_landmarkers: opts.use_landmarkers,
            },
        ) {
            Ok(r) => r,
            Err(e) => {
                kb_warnings.push(format!(
                    "KB recommendation unavailable ({e}); continuing with the cold-start portfolio"
                ));
                Recommendation { algorithms: Vec::new(), neighbors: Vec::new() }
            }
        };
        // Cold start (empty KB): fall back to a diverse default portfolio.
        let nominations: Vec<(Algorithm, f64, Vec<ParamConfig>)> =
            if recommendation.algorithms.is_empty() {
                default_portfolio(opts.top_n_algorithms)
                    .into_iter()
                    .map(|a| (a, 0.0, Vec::new()))
                    .collect()
            } else {
                recommendation
                    .algorithms
                    .iter()
                    .map(|r| (r.algorithm, r.score, r.warm_starts.clone()))
                    .collect()
            };
        record_interval("phase3.select", String::new(), t, t.elapsed());
        phases.push(PhaseTrace {
            phase: "Algorithm Selection".into(),
            secs: t.elapsed().as_secs_f64(),
            detail: format!(
                "KB({}, {} datasets) nominated [{}]",
                self.kb.kb_describe(),
                self.kb.kb_len(),
                nominations
                    .iter()
                    .map(|(a, _, _)| a.paper_name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        });

        // ------ Phase 4: hyper-parameter tuning -------------------------
        let t = Instant::now();
        let algorithms: Vec<Algorithm> = nominations.iter().map(|(a, _, _)| *a).collect();
        let shares = divide_budget(opts.budget, &algorithms);
        let pool = Pool::new(opts.n_threads);
        let tasks: Vec<(Algorithm, f64, Vec<ParamConfig>, Budget)> = nominations
            .iter()
            .zip(&shares)
            .map(|((a, s, w), (_, share))| (*a, *s, w.clone(), *share))
            .collect();
        // Serial runs slice a time budget per algorithm; concurrent runs
        // give every algorithm the whole window under one absolute
        // deadline (per-algorithm slices would depend on finish order).
        let shared_deadline = match (pool.n_threads() > 1, opts.budget) {
            (true, Budget::Time(total)) => Deadline::after(total),
            _ => Deadline::none(),
        };
        // One thread budget for the whole run: the algorithm-level maps
        // below and the fold/surrogate-level maps inside each optimiser
        // draw on the same `n_threads` slots, so a core an early finisher
        // frees goes to the straggler's folds. Only speed depends on it.
        // Round 1: every algorithm tunes on its initial proportional
        // share. Optimisers stop early when the circuit breaker trips
        // (`breaker_threshold` consecutive faulted trials).
        let mut round1 = pool.map_indexed(tasks, |_, (algorithm, score, warm_starts, share)| {
            let objective = ClassifierObjective::new_shared(
                algorithm,
                Arc::clone(&preprocessed),
                &train_rows,
                opts.cv_folds,
                opts.seed,
            );
            let (max_trials, wall_clock) = match share {
                Budget::Trials(n) => (n, None),
                Budget::Time(_) if shared_deadline.is_some() => (usize::MAX, None),
                Budget::Time(d) => (usize::MAX, Some(d)),
            };
            let _tune_span = span!("phase4.tune", algo = algorithm.paper_name());
            let result = make_optimizer(&opts).optimize(
                &algorithm.param_space(),
                &objective,
                &OptOptions {
                    max_trials,
                    wall_clock,
                    seed: opts.seed ^ (algorithm as u64) << 8,
                    initial_configs: warm_starts.clone(),
                    pool: pool.clone(),
                    deadline: shared_deadline,
                    trial_timeout: opts.trial_timeout,
                    breaker_threshold: opts.breaker_threshold,
                    trace_tag: algorithm.paper_name().to_string(),
                },
            );
            (algorithm, score, warm_starts, share, result)
        });

        // Circuit-breaker reallocation: budget a tripped algorithm left
        // unused flows to the survivors by the same #params rule as the
        // initial split. Trial budgets reapportion by largest remainder
        // (nothing lost to rounding); serial time budgets move the unused
        // seconds; under a shared concurrent deadline there is nothing to
        // move — every survivor already owns the whole wall-clock window.
        let tripped_count = round1.iter().filter(|r| r.4.tripped).count();
        let survivors: Vec<Algorithm> =
            round1.iter().filter(|r| !r.4.tripped).map(|r| r.0).collect();
        let mut extra_trials: Vec<usize> = vec![0; round1.len()];
        let mut extra_secs: Vec<f64> = vec![0.0; round1.len()];
        if tripped_count > 0 && !survivors.is_empty() {
            match opts.budget {
                Budget::Trials(_) => {
                    let freed: usize = round1
                        .iter()
                        .filter(|r| r.4.tripped)
                        .map(|r| r.3.trials().unwrap_or(0).saturating_sub(r.4.history.len()))
                        .sum();
                    for (algorithm, extra) in apportion_trials(freed, &survivors) {
                        if let Some(i) = round1.iter().position(|r| r.0 == algorithm) {
                            extra_trials[i] = extra;
                        }
                    }
                }
                Budget::Time(_) if shared_deadline.is_some() => {}
                Budget::Time(_) => {
                    let freed: f64 = round1
                        .iter()
                        .filter(|r| r.4.tripped)
                        .map(|r| {
                            let share = r.3.duration().map_or(0.0, |d| d.as_secs_f64());
                            let used = r.4.history.last().map_or(0.0, |t| t.elapsed_secs);
                            (share - used).max(0.0)
                        })
                        .sum();
                    for (algorithm, extra) in apportion_secs(freed, &survivors) {
                        if let Some(i) = round1.iter().position(|r| r.0 == algorithm) {
                            extra_secs[i] = extra;
                        }
                    }
                }
            }
        }

        // Round 2: survivors spend the reallocated budget on a salted
        // deterministic seed stream, warm-started from their round-1 best.
        let round2_tasks: Vec<(usize, Algorithm, usize, f64, ParamConfig)> = round1
            .iter()
            .enumerate()
            .filter(|(i, r)| !r.4.tripped && (extra_trials[*i] > 0 || extra_secs[*i] > 0.05))
            .map(|(i, r)| (i, r.0, extra_trials[i], extra_secs[i], r.4.best_config.clone()))
            .collect();
        let round2 = pool.map_indexed(round2_tasks, |_, (idx, algorithm, trials, secs, warm)| {
            let objective = ClassifierObjective::new_shared(
                algorithm,
                Arc::clone(&preprocessed),
                &train_rows,
                opts.cv_folds,
                opts.seed,
            );
            let (max_trials, wall_clock) = if trials > 0 {
                (trials, None)
            } else {
                (usize::MAX, Some(Duration::from_secs_f64(secs)))
            };
            let _tune_span = span!("phase4.tune", algo = algorithm.paper_name());
            let result = make_optimizer(&opts).optimize(
                &algorithm.param_space(),
                &objective,
                &OptOptions {
                    max_trials,
                    wall_clock,
                    seed: opts.seed ^ (algorithm as u64) << 8 ^ 0x9E37_79B9_7F4A_7C15,
                    initial_configs: vec![warm],
                    pool: pool.clone(),
                    deadline: shared_deadline,
                    trial_timeout: opts.trial_timeout,
                    breaker_threshold: opts.breaker_threshold,
                    trace_tag: algorithm.paper_name().to_string(),
                },
            );
            (idx, result)
        });
        for (idx, r2) in round2 {
            let r1 = &mut round1[idx].4;
            if r2.history.iter().any(|t| t.is_success()) && r2.best_score > r1.best_score {
                r1.best_score = r2.best_score;
                r1.best_config = r2.best_config;
            }
            r1.failures.merge(&r2.failures);
            r1.history.extend(r2.history);
            r1.tripped = r1.tripped || r2.tripped;
        }

        // Refit each algorithm's best configuration on the full training
        // split and measure held-out validation accuracy. The refit runs
        // under the same guard as a trial: a panicking or overrunning
        // refit loses its finalist slot instead of taking down the run.
        let outcomes =
            pool.map_indexed(round1, |i, (algorithm, score, warm_starts, _share, mut result)| {
                let clf = algorithm.build(&result.best_config);
                let token = TrialToken::bounded(opts.trial_timeout, Deadline::none());
                let fit = run_trial(&token, || clf.fit(&preprocessed, &train_rows));
                let finalist = match fit {
                    GuardOutcome::Completed(Ok(model)) => {
                        let acc = accuracy(
                            &preprocessed.labels_for(&valid_rows),
                            &model.predict(&preprocessed, &valid_rows),
                        );
                        Some((algorithm, result.best_config.clone(), Arc::<dyn TrainedModel>::from(model), acc))
                    }
                    GuardOutcome::Completed(Err(_)) => None,
                    GuardOutcome::Panicked { .. } => {
                        result.failures.panicked += 1;
                        None
                    }
                    GuardOutcome::TimedOut { .. } => {
                        result.failures.timed_out += 1;
                        None
                    }
                };
                let valid_acc = finalist.as_ref().map_or(0.0, |f| f.3);
                let tune = AlgorithmTuning {
                    algorithm,
                    selection_score: score,
                    trials: result.history.len(),
                    best_cv_accuracy: result.best_score,
                    best_config: result.best_config,
                    validation_accuracy: valid_acc,
                    n_warm_starts: warm_starts.len(),
                };
                let faults = AlgorithmFailures {
                    algorithm,
                    counts: result.failures,
                    tripped: result.tripped,
                    reallocated_trials: extra_trials[i],
                    reallocated_secs: extra_secs[i],
                };
                (tune, finalist, faults)
            });
        let mut tuning: Vec<AlgorithmTuning> = Vec::with_capacity(outcomes.len());
        let mut finalists: Vec<(Algorithm, ParamConfig, Arc<dyn TrainedModel>, f64)> = Vec::new();
        let mut algorithm_failures: Vec<AlgorithmFailures> = Vec::with_capacity(outcomes.len());
        for (tune, finalist, faults) in outcomes {
            tuning.push(tune);
            finalists.extend(finalist);
            algorithm_failures.push(faults);
        }
        record_interval("phase4.tune_all", String::new(), t, t.elapsed());
        phases.push(PhaseTrace {
            phase: "Hyper-parameter Tuning".into(),
            secs: t.elapsed().as_secs_f64(),
            detail: format!(
                "budget {:?} divided by #params -> {} trials total{}",
                opts.budget,
                tuning.iter().map(|t| t.trials).sum::<usize>(),
                if tripped_count > 0 {
                    format!(", {tripped_count} breaker(s) tripped")
                } else {
                    String::new()
                }
            ),
        });

        // ------ Phase 5: output + KB update ------------------------------
        let t = Instant::now();
        if finalists.is_empty() {
            return Err(SmartMlError::NoModel);
        }
        let best_idx = finalists
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .3.partial_cmp(&b.1 .3).unwrap())
            .map(|(i, _)| i)
            .expect("finalists nonempty");
        let best = BestModel {
            algorithm: finalists[best_idx].0,
            config: finalists[best_idx].1.clone(),
            validation_accuracy: finalists[best_idx].3,
        };

        // Ensemble (optional): all finalists weighted by validation accuracy.
        let mut ensemble_report = None;
        let mut ensemble_model = None;
        if opts.ensembling && finalists.len() >= 2 {
            let member_info: Vec<(Algorithm, f64)> =
                finalists.iter().map(|(a, _, _, acc)| (*a, *acc)).collect();
            let members = finalists.iter().map(|(_, _, m, acc)| (Arc::clone(m), *acc)).collect();
            let ens = WeightedEnsemble::new(members, preprocessed.n_classes());
            let ens_acc = accuracy(
                &preprocessed.labels_for(&valid_rows),
                &ens.predict(&preprocessed, &valid_rows),
            );
            let weights = ens.weights();
            ensemble_report = Some(EnsembleReport {
                members: member_info
                    .iter()
                    .zip(&weights)
                    .map(|((a, _), &w)| (*a, w))
                    .collect(),
                validation_accuracy: ens_acc,
            });
            ensemble_model = Some(ens);
        }

        let model = finalists.swap_remove(best_idx).2;

        // Interpretability (optional).
        let importance = if opts.interpretability {
            Some(permutation_importance_with(
                model.as_ref(),
                &preprocessed,
                &valid_rows,
                3,
                opts.seed,
                &pool,
            ))
        } else {
            None
        };

        // Continuous KB update (Figure 1's "Update" arrow). A failing
        // backend costs the KB this run's observations — worth a warning,
        // never the run itself.
        if opts.update_kb {
            'update: {
                for tune in &tuning {
                    if let Err(e) = self.kb.kb_record_run(
                        &data.name,
                        &meta_features,
                        AlgorithmRun {
                            algorithm: tune.algorithm,
                            config: tune.best_config.clone(),
                            accuracy: tune.validation_accuracy,
                        },
                    ) {
                        kb_warnings.push(format!(
                            "KB update failed ({e}); this run's results were not recorded"
                        ));
                        break 'update;
                    }
                }
                if let Some(marks) = query_landmarkers {
                    if let Err(e) = self.kb.kb_set_landmarkers(&data.name, marks) {
                        kb_warnings
                            .push(format!("KB landmarker update failed ({e})"));
                    }
                }
            }
        }
        kb_warnings.extend(self.kb.kb_health_warnings());
        record_interval("phase5.output", String::new(), t, t.elapsed());
        phases.push(PhaseTrace {
            phase: "Output & KB Update".into(),
            secs: t.elapsed().as_secs_f64(),
            detail: format!(
                "winner {} @ {:.4}; KB now {} datasets / {} runs",
                best.algorithm.paper_name(),
                best.validation_accuracy,
                self.kb.kb_len(),
                self.kb.kb_n_runs()
            ),
        });

        let metric_warnings = {
            let coerced = degenerate_metric_count().saturating_sub(degenerate_metrics_before);
            if coerced > 0 {
                vec![format!(
                    "{coerced} degenerate metric evaluation(s) (empty fold or no supported \
                     class) coerced to 0.0"
                )]
            } else {
                Vec::new()
            }
        };
        let failures = FailureReport {
            algorithms: algorithm_failures,
            kb_warnings,
            metric_warnings,
        };

        // Close the trace: record the root span covering the whole run,
        // drain the ring, and aggregate the phase/algorithm timeline.
        record_interval("run", String::new(), run_start, run_start.elapsed());
        let trace = tracing.finish();
        let timeline = trace
            .as_ref()
            .map(|t| TimeAttribution::from_timeline(&Timeline::from_trace(t), pool.n_threads()));

        // Every objective (and its Arc clone) is gone by now; only the
        // clone fallback runs if a caller-side reference still lives.
        let preprocessed = Arc::try_unwrap(preprocessed).unwrap_or_else(|arc| (*arc).clone());
        let report = RunReport {
            dataset: data.name.clone(),
            n_rows: preprocessed.n_rows(),
            n_features: preprocessed.n_features(),
            n_classes: preprocessed.n_classes(),
            phases,
            meta_features,
            kb_neighbors: recommendation.neighbors,
            tuning,
            best,
            ensemble: ensemble_report,
            importance,
            failures,
            timeline,
        };
        Ok(RunOutcome {
            report,
            model,
            ensemble: ensemble_model,
            preprocessed,
            valid_rows,
            train_rows,
            trace,
        })
    }
}

/// Cold-start portfolio: a family-diverse subset in fixed priority order,
/// used when the knowledge base has nothing to say.
/// Builds the Phase-4 optimiser selected in the run options. Boxed fresh
/// at each use site: optimisers are stateless between calls, and the
/// trait object keeps the tuning loop generic over all seven choices.
fn make_optimizer(opts: &SmartMlOptions) -> Box<dyn Optimizer> {
    match opts.optimizer {
        OptimizerChoice::Smac => Box::new(Smac::default()),
        OptimizerChoice::Grid => Box::new(GridSearch),
        OptimizerChoice::Random => Box::new(RandomSearch),
        OptimizerChoice::Tpe => Box::new(Tpe::default()),
        OptimizerChoice::Halving => Box::new(SuccessiveHalving::new(opts.halving_eta)),
        OptimizerChoice::Hyperband => Box::new(Hyperband::new(opts.halving_eta)),
        OptimizerChoice::Asha => Box::new(Asha::new(opts.halving_eta)),
    }
}

pub fn default_portfolio(n: usize) -> Vec<Algorithm> {
    const PRIORITY: [Algorithm; 15] = [
        Algorithm::RandomForest,
        Algorithm::Svm,
        Algorithm::NaiveBayes,
        Algorithm::Knn,
        Algorithm::J48,
        Algorithm::Lda,
        Algorithm::DeepBoost,
        Algorithm::NeuralNet,
        Algorithm::Rpart,
        Algorithm::C50,
        Algorithm::Bagging,
        Algorithm::Plsda,
        Algorithm::Rda,
        Algorithm::Lmt,
        Algorithm::Part,
    ];
    PRIORITY.iter().copied().take(n.clamp(1, 15)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartml_data::synth::gaussian_blobs;
    use smartml_preprocess::Op;

    fn quick_options() -> SmartMlOptions {
        SmartMlOptions {
            budget: Budget::Trials(8),
            top_n_algorithms: 2,
            cv_folds: 2,
            preprocessing: vec![Op::Zv],
            ..Default::default()
        }
    }

    #[test]
    fn cold_start_run_completes() {
        let d = gaussian_blobs("cold", 150, 3, 2, 0.8, 1);
        let mut engine = SmartML::new(quick_options());
        let outcome = engine.run(&d).unwrap();
        assert!(outcome.report.best.validation_accuracy > 0.7);
        assert_eq!(outcome.report.phases.len(), 4);
        assert_eq!(outcome.report.tuning.len(), 2);
        // KB was updated.
        assert_eq!(engine.kb().len(), 1);
        assert_eq!(engine.kb().n_runs(), 2);
    }

    #[test]
    fn model_predicts_on_validation_rows() {
        let d = gaussian_blobs("pred", 160, 3, 2, 0.6, 2);
        let mut engine = SmartML::new(quick_options());
        let outcome = engine.run(&d).unwrap();
        let preds = outcome.model.predict(&outcome.preprocessed, &outcome.valid_rows);
        assert_eq!(preds.len(), outcome.valid_rows.len());
        let acc = accuracy(&outcome.preprocessed.labels_for(&outcome.valid_rows), &preds);
        assert!((acc - outcome.report.best.validation_accuracy).abs() < 1e-9);
    }

    #[test]
    fn warm_kb_changes_selection() {
        let d1 = gaussian_blobs("first", 150, 4, 2, 0.8, 3);
        let mut engine = SmartML::new(quick_options());
        engine.run(&d1).unwrap();
        // Second run on a similar dataset: KB has neighbours now.
        let d2 = gaussian_blobs("second", 150, 4, 2, 0.8, 4);
        let outcome = engine.run(&d2).unwrap();
        assert!(!outcome.report.kb_neighbors.is_empty());
    }

    #[test]
    fn ensembling_produces_report_and_model() {
        let d = gaussian_blobs("ens", 180, 3, 3, 1.0, 5);
        let mut engine = SmartML::new(quick_options().with_ensembling(true));
        let outcome = engine.run(&d).unwrap();
        let ens = outcome.report.ensemble.expect("ensemble requested");
        assert_eq!(ens.members.len(), 2);
        assert!(outcome.ensemble.is_some());
        assert!(ens.validation_accuracy > 0.5);
    }

    #[test]
    fn interpretability_lists_all_features() {
        let d = gaussian_blobs("imp", 150, 4, 2, 0.8, 6);
        let mut engine = SmartML::new(quick_options().with_interpretability(true));
        let outcome = engine.run(&d).unwrap();
        let imp = outcome.report.importance.expect("importance requested");
        assert_eq!(imp.len(), outcome.report.n_features);
    }

    #[test]
    fn n_threads_does_not_change_the_outcome() {
        let d = gaussian_blobs("par", 160, 4, 2, 0.9, 9);
        let run = |threads: usize| {
            let mut opts = quick_options().with_interpretability(true);
            opts.n_threads = threads;
            SmartML::new(opts).run(&d).unwrap().report
        };
        let serial = run(1);
        let par = run(4);
        assert_eq!(serial.best.algorithm, par.best.algorithm);
        assert_eq!(serial.best.validation_accuracy, par.best.validation_accuracy);
        assert_eq!(serial.tuning.len(), par.tuning.len());
        for (a, b) in serial.tuning.iter().zip(&par.tuning) {
            assert_eq!(a.trials, b.trials);
            assert_eq!(a.best_cv_accuracy, b.best_cv_accuracy);
            assert_eq!(a.best_config, b.best_config);
            assert_eq!(a.validation_accuracy, b.validation_accuracy);
        }
        let imp = |r: &RunReport| {
            r.importance
                .as_ref()
                .unwrap()
                .iter()
                .map(|f| (f.feature.clone(), f.importance))
                .collect::<Vec<_>>()
        };
        assert_eq!(imp(&serial), imp(&par));
    }

    #[test]
    fn rejects_tiny_or_single_class_data() {
        let tiny = gaussian_blobs("tiny", 10, 2, 2, 0.5, 7);
        let mut engine = SmartML::new(quick_options());
        assert!(matches!(engine.run(&tiny), Err(SmartMlError::BadDataset(_))));
    }

    #[test]
    fn update_kb_false_keeps_kb_frozen() {
        let d = gaussian_blobs("frozen", 140, 3, 2, 0.8, 8);
        let mut opts = quick_options();
        opts.update_kb = false;
        let mut engine = SmartML::new(opts);
        engine.run(&d).unwrap();
        assert!(engine.kb().is_empty());
    }

    #[test]
    fn default_portfolio_is_diverse_and_bounded() {
        assert_eq!(default_portfolio(3).len(), 3);
        assert_eq!(default_portfolio(100).len(), 15);
        assert_eq!(default_portfolio(0).len(), 1);
        let p = default_portfolio(15);
        let mut sorted = p.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 15, "portfolio must cover all algorithms");
    }
}
