//! Grid search — the other half of Google Vizier's "grid or random search"
//! (paper Table 1). Builds a Cartesian grid with a per-dimension resolution
//! chosen so the grid size does not exceed the trial budget, then evaluates
//! cells in a centre-out order (coarse coverage first).

use crate::objective::Objective;
use crate::outcome::FailureCounts;
use crate::smac::{OptOptions, OptResult, Optimizer, Trial};
use smartml_classifiers::{ParamConfig, ParamSpace, ParamSpec, ParamValue};
use smartml_runtime::faults::TrialToken;
use std::time::Instant;

/// Deterministic grid search over a [`ParamSpace`].
#[derive(Default)]
pub struct GridSearch;

impl GridSearch {
    /// Grid levels for one dimension at the given resolution.
    fn levels(spec: &ParamSpec, resolution: usize) -> Vec<ParamValue> {
        match spec {
            ParamSpec::Cat { choices, .. } => {
                choices.iter().map(|c| ParamValue::Cat(c.clone())).collect()
            }
            ParamSpec::Real { lo, hi, log, .. } => {
                let r = resolution.max(2);
                (0..r)
                    .map(|i| {
                        let t = i as f64 / (r - 1) as f64;
                        let v = if *log {
                            (lo.ln() + t * (hi.ln() - lo.ln())).exp()
                        } else {
                            lo + t * (hi - lo)
                        };
                        ParamValue::Real(v)
                    })
                    .collect()
            }
            ParamSpec::Int { lo, hi, log, .. } => {
                let span = (hi - lo) as usize + 1;
                let r = resolution.max(2).min(span);
                let mut vals: Vec<i64> = (0..r)
                    .map(|i| {
                        let t = i as f64 / (r - 1) as f64;
                        if *log && *lo >= 1 {
                            ((*lo as f64).ln() + t * ((*hi as f64).ln() - (*lo as f64).ln()))
                                .exp()
                                .round() as i64
                        } else {
                            (*lo as f64 + t * (*hi - *lo) as f64).round() as i64
                        }
                    })
                    .map(|v| v.clamp(*lo, *hi))
                    .collect();
                vals.dedup();
                vals.into_iter().map(ParamValue::Int).collect()
            }
        }
    }

    /// Largest per-dimension resolution whose full grid fits in `budget`.
    fn pick_resolution(space: &ParamSpace, budget: usize) -> usize {
        let mut resolution = 2usize;
        loop {
            let next = resolution + 1;
            let size: f64 = space
                .params
                .iter()
                .map(|p| Self::levels(p, next).len() as f64)
                .product();
            if size > budget as f64 || next > 16 {
                return resolution;
            }
            resolution = next;
        }
    }
}

impl Optimizer for GridSearch {
    fn name(&self) -> &'static str {
        "GridSearch"
    }

    fn optimize(
        &self,
        space: &ParamSpace,
        objective: &dyn Objective,
        options: &OptOptions,
    ) -> OptResult {
        let start = Instant::now();
        let mut history: Vec<Trial> = Vec::new();
        let mut failures = FailureCounts::default();
        if space.params.is_empty() {
            let config = ParamConfig::default();
            let token = TrialToken::bounded(options.trial_timeout, options.deadline);
            let outcome = objective.evaluate_full_outcome(&config, &options.pool, &token);
            failures.record(&outcome);
            let score = outcome.score().unwrap_or(0.0);
            return OptResult {
                best_config: config.clone(),
                best_score: score,
                history: vec![Trial {
                    config,
                    score,
                    folds_evaluated: objective.n_folds(),
                    elapsed_secs: start.elapsed().as_secs_f64(),
                    outcome: Some(outcome),
                }],
                failures,
                tripped: false,
            };
        }
        let resolution = Self::pick_resolution(space, options.max_trials.max(4));
        let levels: Vec<Vec<ParamValue>> =
            space.params.iter().map(|p| Self::levels(p, resolution)).collect();
        // Enumerate cells by mixed-radix counting; order by distance from the
        // grid centre so early-stopped runs still cover the middle.
        let total: usize = levels.iter().map(Vec::len).product();
        let mut cells: Vec<(usize, Vec<usize>)> = Vec::with_capacity(total);
        let mut idx = vec![0usize; levels.len()];
        loop {
            let centre_dist: usize = idx
                .iter()
                .zip(&levels)
                .map(|(&i, lv)| {
                    let c = (lv.len() - 1) / 2;
                    i.abs_diff(c)
                })
                .sum();
            cells.push((centre_dist, idx.clone()));
            // Increment mixed-radix counter.
            let mut dim = 0;
            loop {
                if dim == levels.len() {
                    break;
                }
                idx[dim] += 1;
                if idx[dim] < levels[dim].len() {
                    break;
                }
                idx[dim] = 0;
                dim += 1;
            }
            if dim == levels.len() {
                break;
            }
        }
        cells.sort_by_key(|(d, i)| (*d, i.clone()));

        let mut best: Option<(f64, usize)> = None;
        for (_, cell) in cells.into_iter().take(options.max_trials) {
            if options.wall_clock.is_some_and(|b| start.elapsed() >= b) {
                break;
            }
            let mut config = ParamConfig::default();
            for ((spec, lv), &i) in space.params.iter().zip(&levels).zip(&cell) {
                config.values.insert(spec.name().to_string(), lv[i].clone());
            }
            let token = TrialToken::bounded(options.trial_timeout, options.deadline);
            let outcome = objective.evaluate_full_outcome(&config, &options.pool, &token);
            failures.record(&outcome);
            let score = outcome.score().unwrap_or(0.0);
            let usable = outcome.is_ok();
            history.push(Trial {
                config,
                score,
                folds_evaluated: objective.n_folds(),
                elapsed_secs: start.elapsed().as_secs_f64(),
                outcome: Some(outcome),
            });
            if usable && best.is_none_or(|(b, _)| score > b) {
                best = Some((score, history.len() - 1));
            }
        }
        match best {
            Some((score, i)) => OptResult {
                best_config: history[i].config.clone(),
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

    fn space_2d() -> ParamSpace {
        ParamSpace::new(vec![
            ParamSpec::Real { name: "x".into(), lo: 0.0, hi: 1.0, log: false },
            ParamSpec::Cat { name: "mode".into(), choices: vec!["a".into(), "b".into()] },
        ])
    }

    #[test]
    fn grid_covers_both_categories() {
        let obj = StaticObjective {
            folds: 1,
            f: |c: &ParamConfig, _| {
                let bonus = if c.str_or("mode", "a") == "b" { 0.5 } else { 0.0 };
                bonus + 0.5 * (1.0 - (c.f64_or("x", 0.0) - 0.5).abs())
            },
        };
        let result = GridSearch.optimize(
            &space_2d(),
            &obj,
            &OptOptions { max_trials: 20, ..Default::default() },
        );
        assert_eq!(result.best_config.str_or("mode", "a"), "b");
        let seen_a = result.history.iter().any(|t| t.config.str_or("mode", "") == "a");
        let seen_b = result.history.iter().any(|t| t.config.str_or("mode", "") == "b");
        assert!(seen_a && seen_b);
    }

    #[test]
    fn respects_budget() {
        let obj = StaticObjective { folds: 1, f: |_: &ParamConfig, _| 0.5 };
        let result = GridSearch.optimize(
            &space_2d(),
            &obj,
            &OptOptions { max_trials: 7, ..Default::default() },
        );
        assert!(result.history.len() <= 7);
    }

    #[test]
    fn centre_first_ordering() {
        let obj = StaticObjective {
            folds: 1,
            f: |c: &ParamConfig, _| 1.0 - (c.f64_or("x", 0.0) - 0.5).abs(),
        };
        let space =
            ParamSpace::new(vec![ParamSpec::Real { name: "x".into(), lo: 0.0, hi: 1.0, log: false }]);
        let result = GridSearch.optimize(&space, &obj, &OptOptions { max_trials: 3, ..Default::default() });
        // The first evaluated cell is the grid centre.
        let first_x = result.history[0].config.f64_or("x", -1.0);
        assert!((first_x - 0.5).abs() < 0.35, "first cell x = {first_x}");
    }

    #[test]
    fn integer_grids_dedupe() {
        let space =
            ParamSpace::new(vec![ParamSpec::Int { name: "k".into(), lo: 1, hi: 3, log: false }]);
        let obj = StaticObjective { folds: 1, f: |c: &ParamConfig, _| c.i64_or("k", 0) as f64 };
        let result =
            GridSearch.optimize(&space, &obj, &OptOptions { max_trials: 50, ..Default::default() });
        assert!(result.history.len() <= 3);
        assert_eq!(result.best_config.i64_or("k", 0), 3);
    }

    #[test]
    fn deterministic() {
        let obj = StaticObjective { folds: 1, f: |c: &ParamConfig, _| c.f64_or("x", 0.0) };
        let opts = OptOptions { max_trials: 9, ..Default::default() };
        let a = GridSearch.optimize(&space_2d(), &obj, &opts);
        let b = GridSearch.optimize(&space_2d(), &obj, &opts);
        assert_eq!(a.best_config, b.best_config);
        assert_eq!(a.history.len(), b.history.len());
    }

    #[test]
    fn empty_space_returns_default() {
        let space = ParamSpace::new(vec![]);
        let obj = StaticObjective { folds: 1, f: |_: &ParamConfig, _| 0.7 };
        let result =
            GridSearch.optimize(&space, &obj, &OptOptions { max_trials: 5, ..Default::default() });
        assert_eq!(result.best_score, 0.7);
        assert_eq!(result.history.len(), 1);
    }
}
