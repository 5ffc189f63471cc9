//! TPE — tree-structured Parzen estimator (Bergstra et al. 2011).
//! Auto-Weka tunes with "SMAC and TPE" (paper Table 1); the Auto-Weka
//! simulation baseline can therefore use either optimiser.

use crate::objective::Objective;
use crate::outcome::FailureCounts;
use crate::smac::{OptOptions, OptResult, Optimizer, Trial};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartml_classifiers::{ParamConfig, ParamSpace, ParamSpec, ParamValue};
use smartml_runtime::faults::TrialToken;
use std::time::Instant;

/// The TPE optimiser: models P(x | good) and P(x | bad) with per-dimension
/// Parzen estimators and proposes the candidate maximising the density
/// ratio l(x)/g(x).
pub struct Tpe {
    /// Quantile separating "good" from "bad" observations.
    pub gamma: f64,
    /// Candidates sampled from l(x) per iteration.
    pub n_candidates: usize,
    /// Random start-up evaluations before the model kicks in.
    pub n_startup: f64,
    /// Fraction of iterations that evaluate a pure-random configuration —
    /// keeps the search ergodic on needle-in-haystack objectives.
    pub random_interleave: f64,
}

impl Default for Tpe {
    fn default() -> Self {
        Tpe { gamma: 0.25, n_candidates: 24, n_startup: 5.0, random_interleave: 0.15 }
    }
}

impl Optimizer for Tpe {
    fn name(&self) -> &'static str {
        "TPE"
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
        let warm: Vec<ParamConfig> =
            options.initial_configs.iter().map(|c| space.repair(c)).collect();
        for t in 0..options.max_trials {
            if options.wall_clock.is_some_and(|b| start.elapsed() >= b) {
                break;
            }
            let config = if t < warm.len() {
                warm[t].clone()
            } else if (history.len() as f64) < self.n_startup
                || rng.gen_bool(self.random_interleave)
            {
                space.sample(&mut rng)
            } else {
                self.propose(space, &history, &mut rng)
            };
            let token = TrialToken::bounded(options.trial_timeout, options.deadline);
            let outcome = objective.evaluate_full_outcome(&config, &options.pool, &token);
            failures.record(&outcome);
            let score = outcome.score().unwrap_or(0.0);
            history.push(Trial {
                config,
                score,
                folds_evaluated: objective.n_folds(),
                elapsed_secs: start.elapsed().as_secs_f64(),
                outcome: Some(outcome),
            });
        }
        let best = history
            .iter()
            .filter(|t| t.is_success())
            .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
            .cloned();
        match best {
            Some(t) => OptResult {
                best_config: t.config,
                best_score: t.score,
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

impl Tpe {
    fn propose(&self, space: &ParamSpace, history: &[Trial], rng: &mut StdRng) -> ParamConfig {
        // Split observations into good (top γ) and bad.
        let mut order: Vec<usize> = (0..history.len()).collect();
        order.sort_by(|&a, &b| history[b].score.partial_cmp(&history[a].score).unwrap());
        let n_good = ((history.len() as f64 * self.gamma).ceil() as usize).clamp(1, history.len());
        let good: Vec<&Trial> = order[..n_good].iter().map(|&i| &history[i]).collect();
        let bad: Vec<&Trial> = order[n_good..].iter().map(|&i| &history[i]).collect();
        // Sample candidates from the good-density, score by l/g.
        let mut best: Option<(ParamConfig, f64)> = None;
        for _ in 0..self.n_candidates {
            let candidate = self.sample_from(space, &good, rng);
            let l = self.density(space, &candidate, &good);
            let g = self.density(space, &candidate, &bad).max(1e-12);
            let ratio = l / g;
            if best.as_ref().is_none_or(|(_, b)| ratio > *b) {
                best = Some((candidate, ratio));
            }
        }
        best.map(|(c, _)| c).unwrap_or_else(|| space.sample(rng))
    }

    /// Draws a candidate: per dimension, pick a random good observation and
    /// perturb it (Parzen kernel sample); fall back to the prior when the
    /// good set lacks the parameter.
    fn sample_from(&self, space: &ParamSpace, good: &[&Trial], rng: &mut StdRng) -> ParamConfig {
        let mut config = ParamConfig::default();
        for spec in &space.params {
            let anchor = good[rng.gen_range(0..good.len())].config.get(spec.name()).cloned();
            let value = match anchor {
                Some(v) => spec.neighbor(&v, rng),
                None => spec.sample(rng),
            };
            config.values.insert(spec.name().to_string(), value);
        }
        space.repair(&config)
    }

    /// Parzen density of `config` under a trial set: product over dimensions
    /// of kernel densities (Gaussian for numeric with bandwidth 20% of the
    /// range, frequency-smoothed for categorical).
    fn density(&self, space: &ParamSpace, config: &ParamConfig, trials: &[&Trial]) -> f64 {
        if trials.is_empty() {
            return 1e-12;
        }
        let mut log_density = 0.0;
        for spec in &space.params {
            let Some(value) = config.get(spec.name()) else { continue };
            let x = spec.encode(value);
            match spec {
                ParamSpec::Cat { choices, .. } => {
                    let mut count = 1.0; // Laplace smoothing
                    for t in trials {
                        if let Some(ParamValue::Cat(c)) = t.config.get(spec.name()) {
                            if c == value.as_str() {
                                count += 1.0;
                            }
                        }
                    }
                    log_density += (count / (trials.len() as f64 + choices.len() as f64)).ln();
                }
                _ => {
                    let bw = 0.2;
                    let mut density = 0.0;
                    for t in trials {
                        if let Some(v) = t.config.get(spec.name()) {
                            let mu = spec.encode(v);
                            let z = (x - mu) / bw;
                            density += (-0.5 * z * z).exp();
                        }
                    }
                    log_density += (density / trials.len() as f64 + 1e-12).ln();
                }
            }
        }
        log_density.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::StaticObjective;

    fn space_1d() -> ParamSpace {
        ParamSpace::new(vec![ParamSpec::Real { name: "x".into(), lo: 0.0, hi: 1.0, log: false }])
    }

    #[test]
    fn tpe_concentrates_near_the_peak() {
        let obj = StaticObjective {
            folds: 1,
            f: |c: &ParamConfig, _| 1.0 - (c.f64_or("x", 0.0) - 0.4).powi(2) * 4.0,
        };
        let result = Tpe::default().optimize(
            &space_1d(),
            &obj,
            &OptOptions { max_trials: 60, ..Default::default() },
        );
        let x = result.best_config.f64_or("x", 0.0);
        assert!((x - 0.4).abs() < 0.15, "best x = {x}");
    }

    #[test]
    fn tpe_beats_pure_chance_on_average() {
        // Over several seeds, TPE's best should at least match random
        // search's on a narrow-peak objective with equal budgets.
        let make_obj = || StaticObjective {
            folds: 1,
            f: |c: &ParamConfig, _| (-((c.f64_or("x", 0.0) - 0.85) / 0.2).powi(2)).exp(),
        };
        let mut tpe_total = 0.0;
        let mut rs_total = 0.0;
        for seed in 0..5 {
            let opts = OptOptions { max_trials: 40, seed, ..Default::default() };
            tpe_total += Tpe::default().optimize(&space_1d(), &make_obj(), &opts).best_score;
            rs_total += crate::RandomSearch.optimize(&space_1d(), &make_obj(), &opts).best_score;
        }
        assert!(
            tpe_total >= rs_total * 0.95,
            "TPE total {tpe_total} well below random {rs_total}"
        );
    }

    #[test]
    fn categorical_dimensions_supported() {
        let space = ParamSpace::new(vec![
            ParamSpec::Cat { name: "mode".into(), choices: vec!["a".into(), "b".into()] },
            ParamSpec::Real { name: "x".into(), lo: 0.0, hi: 1.0, log: false },
        ]);
        let obj = StaticObjective {
            folds: 1,
            f: |c: &ParamConfig, _| {
                let bonus = if c.str_or("mode", "a") == "b" { 0.5 } else { 0.0 };
                bonus + c.f64_or("x", 0.0) * 0.5
            },
        };
        let result = Tpe::default().optimize(
            &space,
            &obj,
            &OptOptions { max_trials: 50, ..Default::default() },
        );
        assert_eq!(result.best_config.str_or("mode", "a"), "b");
    }

    #[test]
    fn warm_starts_run_first() {
        let warm = ParamConfig::default().with("x", ParamValue::Real(0.123));
        let obj = StaticObjective { folds: 1, f: |c: &ParamConfig, _| c.f64_or("x", 0.0) };
        let result = Tpe::default().optimize(
            &space_1d(),
            &obj,
            &OptOptions { max_trials: 3, initial_configs: vec![warm.clone()], ..Default::default() },
        );
        assert_eq!(result.history[0].config, warm);
    }
}
