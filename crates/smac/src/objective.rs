//! Optimisation objectives: what a configuration's score means.

use crate::outcome::TrialOutcome;
use smartml_classifiers::{Algorithm, ParamConfig};
use smartml_data::{accuracy, stratified_kfold, Dataset};
use smartml_obs::Counter;
use smartml_runtime::faults::{fail, run_trial, TrialToken};
use smartml_runtime::{task_seed, Pool};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

static FOLD_CACHE_HITS: Counter = Counter::new("smac.fold.cache_hits");
static FOLD_COMPUTED: Counter = Counter::new("smac.fold.computed");

/// A maximisation objective evaluable fold-by-fold (for racing).
///
/// `Send + Sync` so a worker pool can evaluate independent folds of the
/// same objective concurrently.
///
/// Implementors provide the raw [`evaluate_fold`](Objective::evaluate_fold);
/// optimisers call the guarded wrappers, which contain panics, classify
/// timeouts via the trial's [`TrialToken`], and quarantine non-finite
/// scores into the [`TrialOutcome`] taxonomy.
pub trait Objective: Send + Sync {
    /// Number of independent folds a full evaluation consists of.
    fn n_folds(&self) -> usize;

    /// Scores `config` on one fold; higher is better. `Err` marks an
    /// infeasible configuration (treated as the worst possible score).
    /// May panic or overrun — callers go through the guarded wrappers.
    fn evaluate_fold(&self, config: &ParamConfig, fold: usize) -> Result<f64, String>;

    /// Fault-contained fold evaluation: runs
    /// [`evaluate_fold`](Objective::evaluate_fold) under the guard and
    /// classifies the result. Panics are caught here — they never unwind
    /// into the optimiser loop or a pool worker.
    fn evaluate_fold_guarded(
        &self,
        config: &ParamConfig,
        fold: usize,
        token: &TrialToken,
    ) -> TrialOutcome {
        TrialOutcome::from_guard(run_trial(token, || self.evaluate_fold(config, fold)))
    }

    /// Mean score over all folds (convenience for non-racing callers).
    fn evaluate_full(&self, config: &ParamConfig) -> Result<f64, String> {
        self.evaluate_full_with(config, &Pool::serial())
    }

    /// [`evaluate_full`](Objective::evaluate_full) with folds evaluated on
    /// `pool`. Fold scores are independent, so the mean — and the error
    /// reported (first failing fold in fold order) — is identical for any
    /// pool width. Folds run guarded: a panicking fit surfaces as an
    /// `Err` describing the panic, never as an unwind.
    fn evaluate_full_with(&self, config: &ParamConfig, pool: &Pool) -> Result<f64, String> {
        match self.evaluate_full_outcome(config, pool, &TrialToken::unbounded()) {
            TrialOutcome::Ok(score) => Ok(score),
            other => Err(other.failure_reason()),
        }
    }

    /// Full guarded evaluation under a trial token, classified into the
    /// taxonomy: the mean score on success, otherwise the first non-ok
    /// fold outcome in fold order (identical for any pool width).
    fn evaluate_full_outcome(
        &self,
        config: &ParamConfig,
        pool: &Pool,
        token: &TrialToken,
    ) -> TrialOutcome {
        let n = self.n_folds();
        let results = pool.map_range(n, |fold| self.evaluate_fold_guarded(config, fold, token));
        let mut total = 0.0;
        for outcome in results {
            match outcome {
                TrialOutcome::Ok(score) => total += score,
                other => return other,
            }
        }
        TrialOutcome::Ok(total / n as f64)
    }
}

/// One entry of the fold memo table: either a finished result or a marker
/// that another thread is computing it right now.
enum Slot {
    /// Computation in flight; wait on the flag+condvar, then re-read.
    InFlight(Arc<(Mutex<bool>, Condvar)>),
    /// Finished result.
    Done(Result<f64, String>),
}

/// The production objective: cross-validated accuracy of one algorithm on a
/// dataset's training rows.
///
/// The k folds are stratified and fixed at construction so every
/// configuration is compared on identical splits. Fold evaluations are
/// memoised — intensification re-visits incumbent folds frequently — with a
/// per-key in-flight guard so concurrent callers compute each
/// `(config, fold)` pair exactly once: the first caller inserts an
/// [`Slot::InFlight`] marker and computes, later callers block on its
/// condvar until the result lands.
pub struct ClassifierObjective {
    algorithm: Algorithm,
    data: Arc<Dataset>,
    folds: Vec<(Vec<usize>, Vec<usize>)>,
    cache: Mutex<HashMap<(String, usize), Slot>>,
    #[cfg(test)]
    computed: std::sync::atomic::AtomicUsize,
}

impl ClassifierObjective {
    /// Builds a k-fold objective over `rows` of `data`.
    pub fn new(algorithm: Algorithm, data: &Dataset, rows: &[usize], k: usize, seed: u64) -> Self {
        Self::new_shared(algorithm, Arc::new(data.clone()), rows, k, seed)
    }

    /// [`new`](ClassifierObjective::new) without the dataset copy: several
    /// objectives tuned concurrently (one per nominated algorithm) share
    /// one `Arc<Dataset>`.
    pub fn new_shared(
        algorithm: Algorithm,
        data: Arc<Dataset>,
        rows: &[usize],
        k: usize,
        seed: u64,
    ) -> Self {
        let fold_sets = stratified_kfold(&data, rows, k.max(2), seed);
        // Row-membership mask of the current fold, cleared after each use.
        let mut in_valid = vec![false; data.n_rows()];
        let folds = fold_sets
            .into_iter()
            .map(|valid| {
                for &r in &valid {
                    in_valid[r] = true;
                }
                let train: Vec<usize> = rows.iter().copied().filter(|&r| !in_valid[r]).collect();
                for &r in &valid {
                    in_valid[r] = false;
                }
                (train, valid)
            })
            .collect();
        ClassifierObjective {
            algorithm,
            data,
            folds,
            cache: Mutex::new(HashMap::new()),
            #[cfg(test)]
            computed: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// The algorithm being tuned.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Number of memoised `(config, fold)` entries.
    #[cfg(test)]
    fn cache_len(&self) -> usize {
        self.cache.lock().unwrap().len()
    }
}

/// Unwinding-safe completion for a single-flight cache entry: constructed
/// after the `InFlight` marker is inserted; on drop — **including a drop
/// during a panic unwind** — it settles the slot and wakes every waiter.
/// Without it, a panicking fit would leave the marker in place and every
/// thread waiting on that `(config, fold)` pair would block forever.
///
/// A result is memoised; a panic is not — the slot is emptied and the next
/// caller (a woken waiter included) evaluates, and panics, for itself.
/// Memoising it would turn every later evaluation's `Panicked` into a
/// `Failed` read from the memo, and whether a fold was evaluated earlier
/// can depend on scheduling: a speculated fold that the race then
/// discarded.
struct SlotCompletion<'a> {
    cache: &'a Mutex<HashMap<(String, usize), Slot>>,
    key: (String, usize),
    result: Option<Result<f64, String>>,
}

impl Drop for SlotCompletion<'_> {
    fn drop(&mut self) {
        // `lock()` may see a poisoned mutex if another panic hit inside
        // the critical section; waking waiters still matters more, so
        // recover the guard rather than double-panicking during unwind.
        let mut cache = match self.cache.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let prev = match self.result.take() {
            Some(result) => cache.insert(self.key.clone(), Slot::Done(result)),
            None => cache.remove(&self.key),
        };
        drop(cache);
        if let Some(Slot::InFlight(w)) = prev {
            let (flag, cvar) = &*w;
            if let Ok(mut done) = flag.lock() {
                *done = true;
            }
            cvar.notify_all();
        }
    }
}

/// FNV-1a over a config summary: the stable per-configuration seed the
/// `smac::fold` fail-point draws from.
fn config_seed(summary: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in summary.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Objective for ClassifierObjective {
    fn n_folds(&self) -> usize {
        self.folds.len()
    }

    fn evaluate_fold(&self, config: &ParamConfig, fold: usize) -> Result<f64, String> {
        let key = (config.summary(), fold);
        loop {
            let waiter = {
                let mut cache = self.cache.lock().unwrap();
                match cache.get(&key) {
                    Some(Slot::Done(hit)) => {
                        FOLD_CACHE_HITS.inc();
                        return hit.clone();
                    }
                    Some(Slot::InFlight(w)) => Arc::clone(w),
                    None => {
                        cache.insert(
                            key.clone(),
                            Slot::InFlight(Arc::new((Mutex::new(false), Condvar::new()))),
                        );
                        break;
                    }
                }
            };
            let (flag, cvar) = &*waiter;
            let mut done = flag.lock().unwrap();
            while !*done {
                done = cvar.wait(done).unwrap();
            }
            // Re-read the table: the slot is `Done` now, or empty again if
            // the computing thread panicked.
        }
        // From here on the completion guard owns the slot: whatever
        // happens — normal return, error, or a panic in the fit — it
        // settles the slot and wakes the waiters.
        let mut completion = SlotCompletion { cache: &self.cache, key, result: None };
        FOLD_COMPUTED.inc();
        let (train, valid) = &self.folds[fold];
        #[cfg(test)]
        self.computed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        fail::trigger("smac::fold", task_seed(config_seed(&completion.key.0), fold as u64));
        let result = (|| {
            let clf = self.algorithm.build(config);
            let model = clf.fit(&self.data, train).map_err(|e| e.to_string())?;
            let pred = model.predict(&self.data, valid);
            Ok(accuracy(&self.data.labels_for(valid), &pred))
        })();
        completion.result = Some(result.clone());
        drop(completion);
        result
    }
}

/// A synthetic objective over an explicit function — used by the optimiser
/// test-suites and the micro-benchmarks, where classifier training would
/// drown the signal.
pub struct StaticObjective<F: Fn(&ParamConfig, usize) -> f64 + Send + Sync> {
    /// Number of folds reported.
    pub folds: usize,
    /// The scoring function `(config, fold) -> score`.
    pub f: F,
}

impl<F: Fn(&ParamConfig, usize) -> f64 + Send + Sync> Objective for StaticObjective<F> {
    fn n_folds(&self) -> usize {
        self.folds
    }

    fn evaluate_fold(&self, config: &ParamConfig, fold: usize) -> Result<f64, String> {
        Ok((self.f)(config, fold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartml_data::synth::gaussian_blobs;

    #[test]
    fn classifier_objective_scores_real_configs() {
        let d = gaussian_blobs("b", 150, 3, 2, 0.8, 1);
        let rows = d.all_rows();
        let obj = ClassifierObjective::new(Algorithm::Knn, &d, &rows, 3, 7);
        assert_eq!(obj.n_folds(), 3);
        let config = Algorithm::Knn.param_space().default_config();
        let s0 = obj.evaluate_fold(&config, 0).unwrap();
        assert!((0.0..=1.0).contains(&s0));
        let full = obj.evaluate_full(&config).unwrap();
        assert!(full > 0.8, "knn on separable blobs scored {full}");
    }

    #[test]
    fn fold_results_are_memoised() {
        let d = gaussian_blobs("b", 120, 2, 2, 1.0, 2);
        let rows = d.all_rows();
        let obj = ClassifierObjective::new(Algorithm::Rpart, &d, &rows, 2, 3);
        let config = Algorithm::Rpart.param_space().default_config();
        let a = obj.evaluate_fold(&config, 0).unwrap();
        let b = obj.evaluate_fold(&config, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(obj.cache_len(), 1);
    }

    #[test]
    fn parallel_full_evaluation_matches_serial() {
        let d = gaussian_blobs("b", 160, 3, 3, 1.0, 4);
        let rows = d.all_rows();
        let config = Algorithm::Knn.param_space().default_config();
        let serial = ClassifierObjective::new(Algorithm::Knn, &d, &rows, 4, 7)
            .evaluate_full_with(&config, &Pool::serial())
            .unwrap();
        for threads in [2, 8] {
            let obj = ClassifierObjective::new(Algorithm::Knn, &d, &rows, 4, 7);
            let par = obj.evaluate_full_with(&config, &Pool::new(threads)).unwrap();
            assert_eq!(serial, par, "pool width {threads} changed the score");
            assert_eq!(obj.cache_len(), 4);
        }
    }

    #[test]
    fn concurrent_callers_compute_each_fold_once() {
        use std::sync::atomic::Ordering;
        let d = gaussian_blobs("b", 120, 2, 2, 1.0, 5);
        let rows = d.all_rows();
        let obj = ClassifierObjective::new(Algorithm::Rpart, &d, &rows, 2, 3);
        let config = Algorithm::Rpart.param_space().default_config();
        let mut scores = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| obj.evaluate_fold(&config, 0).unwrap()))
                .collect();
            scores.extend(handles.into_iter().map(|h| h.join().unwrap()));
        });
        scores.dedup();
        assert_eq!(scores.len(), 1, "all callers saw one memoised value");
        // The check-then-compute race is closed: the in-flight guard made
        // exactly one thread run the fold, everyone else waited on it.
        assert_eq!(obj.computed.load(Ordering::Relaxed), 1);
        assert_eq!(obj.cache_len(), 1);
    }

    #[test]
    fn guarded_fold_contains_panics() {
        let obj = StaticObjective {
            folds: 2,
            f: |_: &ParamConfig, _| -> f64 { panic!("fit exploded") },
        };
        let token = TrialToken::unbounded();
        let outcome = obj.evaluate_fold_guarded(&ParamConfig::default(), 0, &token);
        match outcome {
            TrialOutcome::Panicked { site } => assert!(site.contains("fit exploded")),
            other => panic!("unexpected {other:?}"),
        }
        // And through the full-evaluation path it degrades to an Err.
        let err = obj.evaluate_full(&ParamConfig::default()).unwrap_err();
        assert!(err.contains("panicked"), "got: {err}");
    }

    #[test]
    fn guarded_fold_quarantines_non_finite_scores() {
        let obj = StaticObjective { folds: 1, f: |_: &ParamConfig, _| f64::NAN };
        let token = TrialToken::unbounded();
        assert_eq!(
            obj.evaluate_fold_guarded(&ParamConfig::default(), 0, &token),
            TrialOutcome::NonFinite
        );
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn panicked_fold_does_not_deadlock_waiters() {
        use std::time::Duration;
        // Arm the `smac::fold` fail point so the computing thread panics
        // between the InFlight insert and the Done insert — the exact
        // window that used to strand every waiter forever. All eight
        // concurrent callers must return (with the panic), not hang.
        let d = gaussian_blobs("b", 120, 2, 2, 1.0, 5);
        let rows = d.all_rows();
        let obj = std::sync::Arc::new(ClassifierObjective::new(
            Algorithm::Rpart, &d, &rows, 2, 3,
        ));
        let config = Algorithm::Rpart.param_space().default_config();
        fail::arm(fail::FaultPlan {
            seed: 0,
            rules: vec![fail::SiteRule::always_panic("smac::fold")],
        });
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..8 {
            let obj = std::sync::Arc::clone(&obj);
            let config = config.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let token = TrialToken::unbounded();
                let out = obj.evaluate_fold_guarded(&config, 0, &token);
                tx.send(out).unwrap();
            });
        }
        drop(tx);
        let mut outcomes = Vec::new();
        for _ in 0..8 {
            // A deadlocked cache shows up as a recv timeout, not a hang.
            outcomes.push(
                rx.recv_timeout(Duration::from_secs(30))
                    .expect("a waiter deadlocked on the poisoned fold cache"),
            );
        }
        // A panic is not memoised: every caller — the one that computed
        // first, the waiters it woke, and one that comes later — evaluates
        // for itself and is classified `Panicked`, never `Failed` off a
        // remembered error. So it cannot matter whether some earlier
        // (speculated, then discarded) evaluation got there first.
        outcomes.push(obj.evaluate_fold_guarded(&config, 0, &TrialToken::unbounded()));
        fail::disarm();
        for out in outcomes {
            assert!(matches!(out, TrialOutcome::Panicked { .. }), "unexpected outcome {out:?}");
        }
        assert_eq!(obj.cache_len(), 0);
    }

    #[test]
    fn static_objective_wraps_function() {
        let obj = StaticObjective { folds: 2, f: |c: &ParamConfig, fold| c.f64_or("x", 0.0) + fold as f64 };
        let config = ParamConfig::default().with("x", smartml_classifiers::ParamValue::Real(1.0));
        assert_eq!(obj.evaluate_fold(&config, 1).unwrap(), 2.0);
        assert_eq!(obj.evaluate_full(&config).unwrap(), 1.5);
    }
}
