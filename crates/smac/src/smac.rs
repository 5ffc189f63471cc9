//! The SMAC optimisation loop: surrogate → expected improvement →
//! intensification racing.

use crate::objective::Objective;
use crate::outcome::{FailureCounts, TrialOutcome};
use crate::surrogate::RandomForestSurrogate;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use smartml_classifiers::{ParamConfig, ParamSpace};
use smartml_obs::{record_span, span, Counter};
use smartml_runtime::faults::TrialToken;
use smartml_runtime::{Deadline, Pool};
use std::time::{Duration, Instant};

static TRIAL_OK: Counter = Counter::new("smac.trial.ok");
static TRIAL_NON_FINITE: Counter = Counter::new("smac.trial.non_finite");
static TRIAL_PANICKED: Counter = Counter::new("smac.trial.panicked");
static TRIAL_TIMED_OUT: Counter = Counter::new("smac.trial.timed_out");
static TRIAL_INFEASIBLE: Counter = Counter::new("smac.trial.infeasible");
static BREAKER_TRIPS: Counter = Counter::new("smac.breaker.trips");
static SURROGATE_REFITS: Counter = Counter::new("smac.surrogate.refits");
/// Speculatively evaluated folds the serial discard rule would have skipped.
static FOLDS_WASTED: Counter = Counter::new("smac.fold.wasted");

/// One evaluated configuration in the optimisation history.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trial {
    /// The configuration.
    pub config: ParamConfig,
    /// Mean score over the folds evaluated so far (higher = better).
    pub score: f64,
    /// How many folds this configuration was evaluated on.
    pub folds_evaluated: usize,
    /// Seconds since the optimisation started when this trial finished.
    pub elapsed_secs: f64,
    /// How the trial ended. `None` only on records serialized before the
    /// taxonomy existed; every new trial carries `Some`.
    #[serde(default)]
    pub outcome: Option<TrialOutcome>,
}

impl Trial {
    /// True when the trial produced a usable (finite, non-faulted) score —
    /// the quarantine test: only successful trials may train the
    /// surrogate. Legacy records without an outcome fall back to score
    /// finiteness.
    pub fn is_success(&self) -> bool {
        match &self.outcome {
            Some(outcome) => outcome.is_ok(),
            None => self.score.is_finite(),
        }
    }
}

/// Result of an optimisation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptResult {
    /// Best configuration found.
    pub best_config: ParamConfig,
    /// Its mean score.
    pub best_score: f64,
    /// All evaluated trials, in evaluation order (the anytime curve).
    pub history: Vec<Trial>,
    /// Per-category trial counts for this optimisation.
    #[serde(default)]
    pub failures: FailureCounts,
    /// True when the consecutive-fault circuit breaker stopped the loop
    /// before its budget ran out.
    #[serde(default)]
    pub tripped: bool,
}

impl OptResult {
    /// The best score seen at or before `t` seconds — anytime-performance
    /// queries for the warm-start ablation.
    pub fn best_before(&self, t: f64) -> Option<f64> {
        self.history
            .iter()
            .filter(|trial| trial.elapsed_secs <= t)
            .map(|trial| trial.score)
            .fold(None, |acc, s| Some(acc.map_or(s, |a: f64| a.max(s))))
    }
}

/// Shared optimiser options.
#[derive(Debug, Clone)]
pub struct OptOptions {
    /// Maximum configurations to evaluate.
    pub max_trials: usize,
    /// Wall-clock budget; `None` = trials-only budget.
    pub wall_clock: Option<Duration>,
    /// RNG seed.
    pub seed: u64,
    /// Warm-start configurations evaluated first (the SmartML KB hook:
    /// "configurations of the nominated best performing algorithms are used
    /// to initialize the hyper-parameter tuning process").
    pub initial_configs: Vec<ParamConfig>,
    /// Thread budget for fold evaluation, surrogate fitting and candidate
    /// scoring — shared with whoever else holds a clone of it. Results
    /// are identical for any width and any contention; `Pool::serial()`
    /// (the default) keeps everything on the calling thread.
    pub pool: Pool,
    /// Absolute wall-clock cutoff, for optimisations racing each other
    /// under one shared budget (SmartML Phase 4 runs one optimiser per
    /// nominated algorithm concurrently). Checked alongside `wall_clock`;
    /// `Deadline::none()` disables it.
    pub deadline: Deadline,
    /// Per-trial watchdog timeout: a trial (all folds of one
    /// configuration) overrunning this is classified
    /// [`TrialOutcome::TimedOut`] and discarded. `None` disables the
    /// watchdog.
    pub trial_timeout: Option<Duration>,
    /// Circuit breaker: after this many *consecutive* faulted trials
    /// (panicked / timed out / non-finite — plain infeasibility does not
    /// count) the loop stops and [`OptResult::tripped`] is set. `0`
    /// disables the breaker.
    pub breaker_threshold: usize,
    /// Label attached to this optimisation's trace spans as `algo=<tag>`
    /// (typically the algorithm name). Only read when tracing is enabled;
    /// empty = unlabelled.
    pub trace_tag: String,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            max_trials: 50,
            wall_clock: None,
            seed: 0,
            initial_configs: Vec::new(),
            pool: Pool::serial(),
            deadline: Deadline::none(),
            trial_timeout: None,
            breaker_threshold: 0,
            trace_tag: String::new(),
        }
    }
}

/// A hyperparameter optimiser over a [`ParamSpace`].
pub trait Optimizer {
    /// Human-readable optimiser name.
    fn name(&self) -> &'static str;

    /// Runs the optimisation.
    fn optimize(&self, space: &ParamSpace, objective: &dyn Objective, options: &OptOptions)
        -> OptResult;
}

/// The SMAC optimiser.
pub struct Smac {
    /// Trees in the surrogate forest.
    pub n_surrogate_trees: usize,
    /// Random candidates scored by EI per iteration.
    pub n_random_candidates: usize,
    /// Local-search neighbours of the incumbent scored by EI per iteration.
    pub n_local_candidates: usize,
    /// Fraction of iterations that evaluate a pure-random configuration
    /// (SMAC's random interleaving, keeps the search ergodic).
    pub random_interleave: f64,
}

impl Default for Smac {
    fn default() -> Self {
        Smac {
            n_surrogate_trees: 20,
            n_random_candidates: 24,
            n_local_candidates: 12,
            random_interleave: 0.25,
        }
    }
}

/// Internal racing state for one configuration.
struct Raced {
    config: ParamConfig,
    encoded: Vec<f64>,
    fold_scores: Vec<f64>,
    failed: bool,
    /// The classified failure, when `failed` (first failing fold).
    failure: Option<TrialOutcome>,
}

impl Raced {
    fn mean(&self) -> f64 {
        if self.failed || self.fold_scores.is_empty() {
            f64::NEG_INFINITY
        } else {
            self.fold_scores.iter().sum::<f64>() / self.fold_scores.len() as f64
        }
    }
}

impl Optimizer for Smac {
    fn name(&self) -> &'static str {
        "SMAC"
    }

    fn optimize(
        &self,
        space: &ParamSpace,
        objective: &dyn Objective,
        options: &OptOptions,
    ) -> OptResult {
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(options.seed);
        let n_folds = objective.n_folds();
        let pool = &options.pool;
        let out_of_budget = |trials: usize| {
            trials >= options.max_trials
                || options.wall_clock.is_some_and(|b| start.elapsed() >= b)
                || options.deadline.expired()
        };

        let mut history: Vec<Trial> = Vec::new();
        let mut incumbent: Option<Raced> = None;
        let mut failures = FailureCounts::default();
        let mut consecutive_faults = 0usize;
        let mut tripped = false;

        // Initial design: warm starts (KB), then the space default, then one
        // random configuration.
        let mut initial: Vec<ParamConfig> =
            options.initial_configs.iter().map(|c| space.repair(c)).collect();
        initial.push(space.default_config());
        initial.push(space.sample(&mut rng));
        initial.dedup();

        let arena = RaceArena {
            objective,
            space,
            n_folds,
            start,
            pool,
            trial_timeout: options.trial_timeout,
            deadline: options.deadline,
            tag: &options.trace_tag,
        };
        // Shared breaker bookkeeping after each race; returns true when
        // the consecutive-fault breaker trips. The outcome taxonomy feeds
        // both the per-optimisation ledger and the process metrics.
        let account = |challenger: &Raced,
                           failures: &mut FailureCounts,
                           consecutive_faults: &mut usize| {
            let outcome = challenger
                .failure
                .clone()
                .unwrap_or(TrialOutcome::Ok(challenger.mean()));
            failures.record(&outcome);
            match &outcome {
                TrialOutcome::Ok(_) => TRIAL_OK.inc(),
                TrialOutcome::NonFinite => TRIAL_NON_FINITE.inc(),
                TrialOutcome::Panicked { .. } => TRIAL_PANICKED.inc(),
                TrialOutcome::TimedOut { .. } => TRIAL_TIMED_OUT.inc(),
                TrialOutcome::Failed(_) => TRIAL_INFEASIBLE.inc(),
            }
            if outcome.is_fault() {
                *consecutive_faults += 1;
            } else {
                *consecutive_faults = 0;
            }
            let trip =
                options.breaker_threshold > 0 && *consecutive_faults >= options.breaker_threshold;
            if trip {
                BREAKER_TRIPS.inc();
            }
            trip
        };

        let mut trials = 0usize;
        for config in initial {
            if out_of_budget(trials) || tripped {
                break;
            }
            let challenger = race(&arena, config, incumbent.as_ref(), &mut history);
            trials += 1;
            tripped = account(&challenger, &mut failures, &mut consecutive_faults);
            if challenger_wins(&challenger, incumbent.as_ref()) {
                incumbent = Some(challenger);
            }
        }

        // Main loop.
        while !out_of_budget(trials) && !tripped {
            // Quarantine: only successful trials may seed the surrogate.
            let n_usable = history.iter().filter(|t| t.is_success()).count();
            let candidate = if rand::Rng::gen_bool(&mut rng, self.random_interleave)
                || n_usable < 2
            {
                space.sample(&mut rng)
            } else {
                self.propose(
                    space,
                    &history,
                    incumbent.as_ref(),
                    &mut rng,
                    options.seed,
                    pool,
                    &options.trace_tag,
                )
            };
            let challenger = race(&arena, candidate, incumbent.as_ref(), &mut history);
            trials += 1;
            tripped = account(&challenger, &mut failures, &mut consecutive_faults);
            if challenger_wins(&challenger, incumbent.as_ref()) {
                incumbent = Some(challenger);
            }
        }

        let incumbent = incumbent.unwrap_or_else(|| Raced {
            config: space.default_config(),
            encoded: space.encode(&space.default_config()),
            fold_scores: vec![],
            failed: true,
            failure: None,
        });
        OptResult {
            best_score: incumbent.mean().max(0.0),
            best_config: incumbent.config,
            history,
            failures,
            tripped,
        }
    }
}

impl Smac {
    /// EI-maximising proposal: fit the surrogate on history, score random
    /// candidates plus local perturbations of the incumbent.
    #[allow(clippy::too_many_arguments)]
    fn propose(
        &self,
        space: &ParamSpace,
        history: &[Trial],
        incumbent: Option<&Raced>,
        rng: &mut StdRng,
        seed: u64,
        pool: &Pool,
        tag: &str,
    ) -> ParamConfig {
        // Quarantine: faulted and non-finite trials never reach the
        // surrogate — a panicked fit says nothing about the response
        // surface, and a NaN score would poison every split decision.
        let usable: Vec<&Trial> = history.iter().filter(|t| t.is_success()).collect();
        let xs: Vec<Vec<f64>> = usable.iter().map(|t| space.encode(&t.config)).collect();
        let ys: Vec<f64> = usable.iter().map(|t| t.score).collect();
        let best = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        SURROGATE_REFITS.inc();
        let forest = {
            let _s = span!("smac.surrogate.fit", algo = tag, n = xs.len());
            RandomForestSurrogate::fit_with(
                &xs,
                &ys,
                self.n_surrogate_trees,
                seed ^ history.len() as u64,
                pool,
            )
        };
        // Candidate generation stays serial: it consumes the shared loop
        // RNG, whose draw order must not depend on scheduling.
        let mut candidates: Vec<ParamConfig> =
            (0..self.n_random_candidates).map(|_| space.sample(rng)).collect();
        if let Some(inc) = incumbent {
            for _ in 0..self.n_local_candidates {
                candidates.push(space.neighbor(&inc.config, 0.4, rng));
            }
        }
        // EI scoring is pure per candidate; the order-preserving map keeps
        // the argmax tie-break identical to the serial scan.
        pool.map_indexed(candidates, |_, c| {
            let ei = forest.expected_improvement(&space.encode(&c), best, 0.01);
            (c, ei)
        })
        .into_iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .map(|(c, _)| c)
        .expect("candidate list is never empty")
    }
}

/// The loop-invariant context every intensification race shares.
struct RaceArena<'a> {
    objective: &'a dyn Objective,
    space: &'a ParamSpace,
    n_folds: usize,
    start: Instant,
    pool: &'a Pool,
    trial_timeout: Option<Duration>,
    deadline: Deadline,
    /// `algo=` label for this optimisation's trace spans.
    tag: &'a str,
}

/// Intensification race: evaluate the challenger fold-by-fold, dropping it
/// as soon as its running mean falls clearly below the incumbent's mean on
/// the same number of folds.
///
/// Whenever the pool can lend helpers, the next folds are evaluated
/// **speculatively**, one per thread, and the serial discard rule is then
/// replayed over the scores in fold order. The kept prefix — and therefore
/// the `Trial` record — is bit-identical to the serial path, so it does
/// not matter that timing decides which races speculate; folds the replay
/// discards were wasted speculation, traded for wall-clock (traced as
/// `smac.fold.wasted`, and memoised by the objective for later revisits).
/// With no helper to be had the next fold is raced serially.
fn race(
    arena: &RaceArena<'_>,
    config: ParamConfig,
    incumbent: Option<&Raced>,
    history: &mut Vec<Trial>,
) -> Raced {
    let n_folds = arena.n_folds;
    let _trial_span = span!("smac.trial", algo = arena.tag, trial = history.len());
    let mut raced = Raced {
        encoded: arena.space.encode(&config),
        config,
        fold_scores: Vec::with_capacity(n_folds),
        failed: false,
        failure: None,
    };
    // One token covers every fold of this trial: the watchdog timeout
    // bounds the whole configuration evaluation, and a shared run
    // deadline caps it further. Folds run guarded, so a panicking or
    // hanging fit is contained here and classified, never unwound.
    let token = TrialToken::bounded(arena.trial_timeout, arena.deadline);
    let evaluate = |fold: usize| {
        let s = span!("smac.fold", algo = arena.tag, fold = fold);
        let outcome = arena.objective.evaluate_fold_guarded(&raced.config, fold, &token);
        (outcome, s.close())
    };
    // The serial race, reading speculated results where there are any.
    let mut speculated = Vec::new().into_iter();
    for fold in 0..n_folds {
        if speculated.len() == 0 && !helpers_denied() {
            // One fold per thread that can be had, asked again when those
            // are read: a slot may have come free since, and a fold is not
            // started that the ones before it could still make pointless.
            let ahead = arena.pool.try_map_prefix(n_folds - fold, |k| evaluate(fold + k));
            speculated = ahead.unwrap_or_default().into_iter();
        }
        let (outcome, fold_span) = speculated.next().unwrap_or_else(|| evaluate(fold));
        if let Some(span) = fold_span {
            record_span(span);
        }
        match outcome {
            TrialOutcome::Ok(score) => raced.fold_scores.push(score),
            failure => {
                raced.failed = true;
                raced.failure = Some(failure);
                break;
            }
        }
        if discard_early(&raced, incumbent, n_folds, fold) {
            break;
        }
    }
    // Folds speculated past the one the serial race stops at.
    for (_, fold_span) in speculated {
        FOLDS_WASTED.inc();
        if let Some(mut span) = fold_span {
            span.name = "smac.fold.wasted";
            record_span(span);
        }
    }
    history.push(Trial {
        config: raced.config.clone(),
        score: if raced.failed { 0.0 } else { raced.mean() },
        folds_evaluated: raced.fold_scores.len(),
        elapsed_secs: arena.start.elapsed().as_secs_f64(),
        outcome: Some(match &raced.failure {
            Some(failure) => failure.clone(),
            None => TrialOutcome::Ok(raced.mean()),
        }),
    });
    raced
}

/// Test seam: a race asks here before it asks the pool, so a test can deny
/// it its helpers the way a busy pool would.
#[cfg(test)]
fn helpers_denied() -> bool {
    tests::DENY_HELPERS
        .with(|coin| coin.borrow_mut().as_mut().is_some_and(|coin| rand::Rng::gen_bool(coin, 0.5)))
}

#[cfg(not(test))]
fn helpers_denied() -> bool {
    false
}

/// The early-discard rule: after `fold`, is the challenger's optimistic
/// bound already clearly below the incumbent's mean? One shared function so
/// the serial race and the speculative replay stop at exactly the same
/// fold.
fn discard_early(raced: &Raced, incumbent: Option<&Raced>, n_folds: usize, fold: usize) -> bool {
    let Some(inc) = incumbent else { return false };
    if fold + 1 >= n_folds {
        return false;
    }
    let mean_so_far = raced.mean();
    let optimistic = mean_so_far
        + (n_folds - fold - 1) as f64 / n_folds as f64 * 0.5 * (1.0 - mean_so_far).max(0.0);
    optimistic < inc.mean() - 0.02
}

fn challenger_wins(challenger: &Raced, incumbent: Option<&Raced>) -> bool {
    match incumbent {
        None => !challenger.failed,
        Some(inc) => {
            // Only a fully-evaluated challenger can displace the incumbent.
            !challenger.failed
                && challenger.fold_scores.len() >= inc.fold_scores.len()
                && challenger.mean() > inc.mean()
        }
    }
}

// Keep encoded vectors in the struct for surrogate reuse; silence dead-code
// until the trajectory-analysis ablation consumes them.
impl Raced {
    #[allow(dead_code)]
    fn encoded(&self) -> &[f64] {
        &self.encoded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::StaticObjective;
    use smartml_classifiers::{ParamSpec, ParamValue};

    fn space_1d() -> ParamSpace {
        ParamSpace::new(vec![ParamSpec::Real { name: "x".into(), lo: 0.0, hi: 1.0, log: false }])
    }

    /// Smooth unimodal objective with optimum at x = 0.7.
    fn peak_objective() -> StaticObjective<impl Fn(&ParamConfig, usize) -> f64 + Send> {
        StaticObjective {
            folds: 3,
            f: |c: &ParamConfig, fold| {
                let x = c.f64_or("x", 0.0);
                let noise = (fold as f64 - 1.0) * 0.005;
                1.0 - (x - 0.7) * (x - 0.7) + noise
            },
        }
    }

    #[test]
    fn smac_finds_the_peak() {
        let result = Smac::default().optimize(
            &space_1d(),
            &peak_objective(),
            &OptOptions { max_trials: 60, ..Default::default() },
        );
        let x = result.best_config.f64_or("x", 0.0);
        assert!((x - 0.7).abs() < 0.12, "best x = {x}");
        assert!(result.best_score > 0.97);
    }

    #[test]
    fn respects_trial_budget() {
        let result = Smac::default().optimize(
            &space_1d(),
            &peak_objective(),
            &OptOptions { max_trials: 10, ..Default::default() },
        );
        assert!(result.history.len() <= 10);
    }

    #[test]
    fn warm_start_is_evaluated_first() {
        let warm = ParamConfig::default().with("x", ParamValue::Real(0.69));
        let result = Smac::default().optimize(
            &space_1d(),
            &peak_objective(),
            &OptOptions { max_trials: 5, initial_configs: vec![warm.clone()], ..Default::default() },
        );
        assert_eq!(result.history[0].config, warm);
        // Warm start at the optimum: best score is immediately excellent.
        assert!(result.history[0].score > 0.99);
    }

    #[test]
    fn warm_start_speeds_up_early_performance() {
        let cold = Smac::default().optimize(
            &space_1d(),
            &peak_objective(),
            &OptOptions { max_trials: 3, seed: 5, ..Default::default() },
        );
        let warm = Smac::default().optimize(
            &space_1d(),
            &peak_objective(),
            &OptOptions {
                max_trials: 3,
                seed: 5,
                initial_configs: vec![ParamConfig::default().with("x", ParamValue::Real(0.7))],
                ..Default::default()
            },
        );
        assert!(warm.best_score >= cold.best_score);
    }

    #[test]
    fn failed_configs_do_not_become_incumbent() {
        let obj = StaticObjective {
            folds: 2,
            f: |_: &ParamConfig, _| 0.5,
        };
        // All configs succeed here; check an all-failure objective separately.
        let result = Smac::default().optimize(
            &space_1d(),
            &obj,
            &OptOptions { max_trials: 4, ..Default::default() },
        );
        assert!(result.best_score > 0.0);
    }

    #[test]
    fn anytime_curve_is_queryable() {
        let result = Smac::default().optimize(
            &space_1d(),
            &peak_objective(),
            &OptOptions { max_trials: 20, ..Default::default() },
        );
        let early = result.best_before(1e9).unwrap();
        assert!(early > 0.0);
        assert!(result.best_before(-1.0).is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let opts = OptOptions { max_trials: 15, seed: 42, ..Default::default() };
        let a = Smac::default().optimize(&space_1d(), &peak_objective(), &opts);
        let b = Smac::default().optimize(&space_1d(), &peak_objective(), &opts);
        assert_eq!(a.best_config, b.best_config);
        assert_eq!(a.history.len(), b.history.len());
    }

    #[test]
    fn wall_clock_budget_stops_the_loop() {
        use std::time::Duration;
        // An objective that sleeps 5ms per fold: a 60ms budget must stop the
        // loop far short of the trial cap. Bounds are loose — CI schedulers
        // stretch sleeps — the point is termination, not a tight cutoff.
        let obj = StaticObjective {
            folds: 2,
            f: |c: &ParamConfig, _| {
                std::thread::sleep(Duration::from_millis(5));
                c.f64_or("x", 0.0)
            },
        };
        let start = std::time::Instant::now();
        let result = Smac::default().optimize(
            &space_1d(),
            &obj,
            &OptOptions {
                max_trials: 10_000,
                wall_clock: Some(Duration::from_millis(60)),
                ..Default::default()
            },
        );
        assert!(start.elapsed() < Duration::from_secs(30));
        assert!(result.history.len() < 1_000, "{} trials", result.history.len());
    }

    #[test]
    fn shared_deadline_stops_the_loop() {
        use std::time::Duration;
        let obj = StaticObjective {
            folds: 2,
            f: |c: &ParamConfig, _| {
                std::thread::sleep(Duration::from_millis(5));
                c.f64_or("x", 0.0)
            },
        };
        let result = Smac::default().optimize(
            &space_1d(),
            &obj,
            &OptOptions {
                max_trials: 10_000,
                deadline: smartml_runtime::Deadline::after(Duration::from_millis(60)),
                ..Default::default()
            },
        );
        assert!(result.history.len() < 1_000, "{} trials", result.history.len());
    }

    #[test]
    fn pool_width_does_not_change_the_result() {
        // The whole point of the speculative race + order-preserving maps:
        // identical history (configs, scores, folds evaluated) for any
        // pool width.
        let run = |threads: usize| {
            Smac::default().optimize(
                &space_1d(),
                &peak_objective(),
                &OptOptions {
                    max_trials: 25,
                    seed: 3,
                    pool: Pool::new(threads),
                    ..Default::default()
                },
            )
        };
        let serial = run(1);
        for threads in [2, 8] {
            let par = run(threads);
            assert_eq!(serial.best_config, par.best_config);
            assert_eq!(serial.best_score, par.best_score);
            assert_eq!(serial.history.len(), par.history.len());
            for (a, b) in serial.history.iter().zip(&par.history) {
                assert_eq!(a.config, b.config);
                assert_eq!(a.score, b.score);
                assert_eq!(a.folds_evaluated, b.folds_evaluated);
            }
        }
    }

    thread_local! {
        /// While set, a coin tossed on the racing thread each time a race
        /// is about to ask the pool for helpers; heads denies them (see
        /// `helpers_denied`).
        pub(super) static DENY_HELPERS: std::cell::RefCell<Option<StdRng>> =
            const { std::cell::RefCell::new(None) };
    }

    #[test]
    fn which_races_get_helpers_never_changes_the_result() {
        // Under the shared budget, timing decides fold by fold whether the
        // rest of a race is speculated or raced serially. Force that choice
        // from a seeded coin and compare everything but the clock with the
        // serial run — on a clean objective and on one where ~30 % of the
        // `(config, fold)` evaluations panic.
        fn canonical(mut result: OptResult) -> String {
            for trial in &mut result.history {
                trial.elapsed_secs = 0.0;
            }
            serde_json::to_string(&result).unwrap()
        }
        for faulty in [false, true] {
            let objective = StaticObjective {
                folds: 3,
                f: move |c: &ParamConfig, fold| {
                    let x = c.f64_or("x", 0.0);
                    if faulty && smartml_runtime::task_seed(x.to_bits(), fold as u64) % 10 < 3 {
                        panic!("injected fault at x={x} fold={fold}");
                    }
                    1.0 - (x - 0.7) * (x - 0.7) + (fold as f64 - 1.0) * 0.005
                },
            };
            let run = |pool: Pool| {
                canonical(Smac::default().optimize(
                    &space_1d(),
                    &objective,
                    &OptOptions { max_trials: 40, seed: 3, pool, ..Default::default() },
                ))
            };
            let serial = run(Pool::serial());
            assert_eq!(faulty, serial.contains("Panicked"), "the faulty run must meet its faults");
            assert_eq!(serial, run(Pool::new(4)), "every race speculated, faulty={faulty}");
            for coin_seed in 0..4u64 {
                DENY_HELPERS.set(Some(StdRng::seed_from_u64(coin_seed)));
                let mixed = run(Pool::new(4));
                DENY_HELPERS.set(None);
                assert_eq!(serial, mixed, "coin {coin_seed}, faulty={faulty}");
            }
        }
    }

    #[test]
    fn partially_failing_objective_still_finds_feasible_optimum() {
        // Configurations with x < 0.5 fail; the optimum of the feasible
        // region is at x = 1.0.
        let obj = StaticObjective {
            folds: 2,
            f: |c: &ParamConfig, _| c.f64_or("x", 0.0),
        };
        struct Gated<O>(O);
        impl<O: crate::Objective> crate::Objective for Gated<O> {
            fn n_folds(&self) -> usize {
                self.0.n_folds()
            }
            fn evaluate_fold(&self, c: &ParamConfig, fold: usize) -> Result<f64, String> {
                if c.f64_or("x", 0.0) < 0.5 {
                    Err("infeasible region".into())
                } else {
                    self.0.evaluate_fold(c, fold)
                }
            }
        }
        let result = Smac::default().optimize(
            &space_1d(),
            &Gated(obj),
            &OptOptions { max_trials: 40, ..Default::default() },
        );
        let x = result.best_config.f64_or("x", 0.0);
        assert!(x >= 0.5, "incumbent in the infeasible region: {x}");
        assert!(result.best_score > 0.8, "best {}", result.best_score);
    }

    #[test]
    fn all_failing_objective_degrades_gracefully() {
        struct AlwaysFails;
        impl crate::Objective for AlwaysFails {
            fn n_folds(&self) -> usize {
                2
            }
            fn evaluate_fold(&self, _: &ParamConfig, _: usize) -> Result<f64, String> {
                Err("nope".into())
            }
        }
        let result = Smac::default().optimize(
            &space_1d(),
            &AlwaysFails,
            &OptOptions { max_trials: 6, ..Default::default() },
        );
        // No usable incumbent: default config, zero score, history recorded.
        assert_eq!(result.best_score, 0.0);
        assert!(!result.history.is_empty());
    }

    #[test]
    fn panicking_objective_is_contained_and_classified() {
        // Configurations with x > 0.5 blow up inside the fit; the loop
        // must survive, classify them as Panicked, and still optimise
        // the surviving half of the space.
        let obj = StaticObjective {
            folds: 2,
            f: |c: &ParamConfig, _| {
                let x = c.f64_or("x", 0.0);
                if x > 0.5 {
                    panic!("exploding fit at x={x}");
                }
                x
            },
        };
        let result = Smac::default().optimize(
            &space_1d(),
            &obj,
            &OptOptions { max_trials: 30, seed: 2, ..Default::default() },
        );
        assert!(result.failures.panicked > 0, "no panic was ever recorded");
        assert!(result.failures.ok > 0, "no trial succeeded");
        assert!(
            result.best_config.f64_or("x", 0.0) <= 0.5,
            "incumbent from the panicking region"
        );
        let panicked = result
            .history
            .iter()
            .filter(|t| matches!(t.outcome, Some(TrialOutcome::Panicked { .. })))
            .count();
        assert_eq!(panicked, result.failures.panicked, "history and tally disagree");
    }

    #[test]
    fn non_finite_scores_are_quarantined() {
        let obj = StaticObjective {
            folds: 2,
            f: |c: &ParamConfig, _| {
                let x = c.f64_or("x", 0.0);
                if x < 0.3 {
                    f64::NAN
                } else {
                    x
                }
            },
        };
        let result = Smac::default().optimize(
            &space_1d(),
            &obj,
            &OptOptions { max_trials: 30, seed: 4, ..Default::default() },
        );
        assert!(result.best_score.is_finite());
        assert!(result.best_config.f64_or("x", 0.0) >= 0.3);
        // Every NaN trial is tallied as NonFinite, never as Ok.
        for t in &result.history {
            assert!(t.score.is_finite(), "NaN leaked into a trial score");
            if let Some(TrialOutcome::Ok(s)) = &t.outcome {
                assert!(s.is_finite());
            }
        }
        assert!(result.failures.non_finite > 0);
    }

    #[test]
    fn trial_timeout_classifies_hanging_fits() {
        use std::time::Duration;
        // Fits at x > 0.5 hang far longer than the watchdog allows.
        let obj = StaticObjective {
            folds: 2,
            f: |c: &ParamConfig, _| {
                let x = c.f64_or("x", 0.0);
                if x > 0.5 {
                    std::thread::sleep(Duration::from_millis(200));
                }
                x
            },
        };
        let start = std::time::Instant::now();
        let result = Smac::default().optimize(
            &space_1d(),
            &obj,
            &OptOptions {
                max_trials: 12,
                seed: 1,
                trial_timeout: Some(Duration::from_millis(25)),
                ..Default::default()
            },
        );
        assert!(result.failures.timed_out > 0, "no trial was ever timed out");
        assert!(result.best_config.f64_or("x", 1.0) <= 0.5);
        // 12 trials × ≤2 folds × ~200ms sleeps would be ~5s unguarded;
        // the timeout classification must not wait the sleeps out fully
        // but the run must still terminate promptly overall.
        assert!(start.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn breaker_trips_after_consecutive_faults() {
        // Everything panics: with threshold 3 the loop must stop after
        // exactly 3 trials instead of burning the whole budget.
        let obj = StaticObjective {
            folds: 2,
            f: |_: &ParamConfig, _| panic!("always broken"),
        };
        let result = Smac::default().optimize(
            &space_1d(),
            &obj,
            &OptOptions { max_trials: 50, breaker_threshold: 3, ..Default::default() },
        );
        assert!(result.tripped, "breaker never tripped");
        assert_eq!(result.history.len(), 3);
        assert_eq!(result.failures.panicked, 3);
    }

    #[test]
    fn infeasible_configs_do_not_trip_the_breaker() {
        // `Err` from the objective is plain infeasibility — the breaker
        // must ignore it and let the loop run its budget.
        struct Infeasible;
        impl crate::Objective for Infeasible {
            fn n_folds(&self) -> usize {
                2
            }
            fn evaluate_fold(&self, _: &ParamConfig, _: usize) -> Result<f64, String> {
                Err("infeasible".into())
            }
        }
        let result = Smac::default().optimize(
            &space_1d(),
            &Infeasible,
            &OptOptions { max_trials: 8, breaker_threshold: 2, ..Default::default() },
        );
        assert!(!result.tripped);
        assert_eq!(result.failures.failed, 8);
    }

    #[test]
    fn legacy_trial_records_deserialize_without_outcome() {
        // Records serialized before the taxonomy existed must still load.
        let json = r#"{"config":{"values":{}},"score":0.5,"folds_evaluated":2,"elapsed_secs":0.1}"#;
        let trial: Trial = serde_json::from_str(json).unwrap();
        assert!(trial.outcome.is_none());
        assert!(trial.is_success(), "finite legacy score counts as success");
    }

    #[test]
    fn fault_outcomes_do_not_change_winner_when_quarantined_region_is_losing() {
        // Clean run vs a run where only the low-scoring half of the space
        // faults: the quarantine keeps the surrogate consistent enough
        // that the winner region is unchanged.
        let clean = StaticObjective {
            folds: 2,
            f: |c: &ParamConfig, _| c.f64_or("x", 0.0),
        };
        let faulty = StaticObjective {
            folds: 2,
            f: |c: &ParamConfig, _| {
                let x = c.f64_or("x", 0.0);
                if x < 0.2 {
                    panic!("low region faults");
                }
                x
            },
        };
        let opts = OptOptions { max_trials: 30, seed: 9, ..Default::default() };
        let a = Smac::default().optimize(&space_1d(), &clean, &opts);
        let b = Smac::default().optimize(&space_1d(), &faulty, &opts);
        assert!(a.best_config.f64_or("x", 0.0) > 0.7);
        assert!(b.best_config.f64_or("x", 0.0) > 0.7);
        assert!((a.best_score - b.best_score).abs() < 0.1);
    }

    #[test]
    fn racing_saves_fold_evaluations() {
        // Configurations far from the peak should be raced out early once a
        // good incumbent exists.
        let result = Smac::default().optimize(
            &space_1d(),
            &peak_objective(),
            &OptOptions { max_trials: 40, ..Default::default() },
        );
        let partial = result.history.iter().filter(|t| t.folds_evaluated < 3).count();
        assert!(partial > 0, "no challenger was ever discarded early");
    }
}
