//! Random search — the Google-Vizier-style baseline of paper Table 1.

use crate::objective::Objective;
use crate::outcome::FailureCounts;
use crate::smac::{OptOptions, OptResult, Optimizer, Trial};
use rand::rngs::StdRng;
use rand::SeedableRng;
use smartml_classifiers::ParamSpace;
use smartml_runtime::faults::TrialToken;
use std::time::Instant;

/// Uniform random search over the parameter space. Evaluates every
/// configuration on all folds (no racing).
#[derive(Default)]
pub struct RandomSearch;

impl Optimizer for RandomSearch {
    fn name(&self) -> &'static str {
        "RandomSearch"
    }

    fn optimize(
        &self,
        space: &ParamSpace,
        objective: &dyn Objective,
        options: &OptOptions,
    ) -> OptResult {
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(options.seed);
        let mut history: Vec<Trial> = Vec::new();
        let mut failures = FailureCounts::default();
        let mut best: Option<(f64, usize)> = None;
        let mut queue: Vec<_> = options.initial_configs.iter().map(|c| space.repair(c)).collect();
        for t in 0..options.max_trials {
            if options.wall_clock.is_some_and(|b| start.elapsed() >= b) {
                break;
            }
            let config = if t < queue.len() { queue[t].clone() } else { space.sample(&mut rng) };
            let token = TrialToken::bounded(options.trial_timeout, options.deadline);
            let outcome = objective.evaluate_full_outcome(&config, &options.pool, &token);
            failures.record(&outcome);
            let (score, folds) = match outcome.score() {
                Some(s) => (s, objective.n_folds()),
                None => (0.0, 0),
            };
            let usable = outcome.is_ok();
            history.push(Trial {
                config,
                score,
                folds_evaluated: folds,
                elapsed_secs: start.elapsed().as_secs_f64(),
                outcome: Some(outcome),
            });
            if usable && best.is_none_or(|(b, _)| score > b) {
                best = Some((score, history.len() - 1));
            }
        }
        queue.clear();
        match best {
            Some((score, idx)) => OptResult {
                best_config: history[idx].config.clone(),
                best_score: score,
                history,
                failures,
                tripped: false,
            },
            None => OptResult {
                best_config: space.default_config(),
                best_score: 0.0,
                history,
                failures,
                tripped: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::StaticObjective;
    use smartml_classifiers::{ParamConfig, ParamSpec};

    fn space_1d() -> ParamSpace {
        ParamSpace::new(vec![ParamSpec::Real { name: "x".into(), lo: 0.0, hi: 1.0, log: false }])
    }

    #[test]
    fn finds_decent_point_with_enough_trials() {
        let obj = StaticObjective {
            folds: 1,
            f: |c: &ParamConfig, _| 1.0 - (c.f64_or("x", 0.0) - 0.3).abs(),
        };
        let result = RandomSearch.optimize(
            &space_1d(),
            &obj,
            &OptOptions { max_trials: 100, ..Default::default() },
        );
        assert!(result.best_score > 0.9);
        assert_eq!(result.history.len(), 100);
    }

    #[test]
    fn initial_configs_evaluated_first() {
        let warm = ParamConfig::default().with("x", smartml_classifiers::ParamValue::Real(0.25));
        let obj = StaticObjective { folds: 1, f: |c: &ParamConfig, _| c.f64_or("x", 0.0) };
        let result = RandomSearch.optimize(
            &space_1d(),
            &obj,
            &OptOptions { max_trials: 3, initial_configs: vec![warm.clone()], ..Default::default() },
        );
        assert_eq!(result.history[0].config, warm);
    }

    #[test]
    fn deterministic_given_seed() {
        let obj = StaticObjective { folds: 1, f: |c: &ParamConfig, _| c.f64_or("x", 0.0) };
        let opts = OptOptions { max_trials: 10, seed: 9, ..Default::default() };
        let a = RandomSearch.optimize(&space_1d(), &obj, &opts);
        let b = RandomSearch.optimize(&space_1d(), &obj, &opts);
        assert_eq!(a.best_config, b.best_config);
    }
}
