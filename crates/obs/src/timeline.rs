//! Per-run timeline: aggregates a drained [`Trace`](crate::Trace) into the
//! phase → algorithm → trial → fold hierarchy the pipeline emits.
//!
//! The aggregation keys on span *names* (and the `algo=` argument), not on
//! parent links, so it stays correct when spans are recorded from pool
//! worker threads whose parent stacks do not see the spawning span.

use crate::trace::{SpanRecord, Trace};

/// Wall-clock attribution for one algorithm's tuning work.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoTimeline {
    pub name: String,
    /// Wall-clock of the algorithm's `phase4.tune` span(s) — the outer
    /// per-algorithm budget slice, including surrogate time.
    pub tune_secs: f64,
    pub trials: u64,
    /// Summed `smac.trial` span time (may exceed `tune_secs` when folds run
    /// speculatively in parallel).
    pub trial_secs: f64,
    pub folds: u64,
    pub fold_secs: f64,
    /// `smac.fold.wasted` spans: folds evaluated speculatively that the
    /// serial discard rule would have skipped. Not part of `folds`, which
    /// therefore repeats exactly whatever the scheduling.
    pub wasted_folds: u64,
    pub wasted_fold_secs: f64,
    pub surrogate_fits: u64,
    pub surrogate_secs: f64,
    /// `smac.rung` spans — multi-fidelity rung evaluations (synchronous
    /// halving emits one per rung barrier, ASHA one per rung job).
    pub rungs: u64,
    pub rung_secs: f64,
}

/// Phase-level and per-algorithm wall-clock attribution for one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    /// Duration of the root `run` span, seconds.
    pub total_secs: f64,
    /// `(phase span name, seconds)` in start order.
    pub phases: Vec<(String, f64)>,
    /// `total_secs` minus the phase spans — time between phases (setup,
    /// report assembly) not covered by a phase span.
    pub other_secs: f64,
    /// Per-algorithm attribution, busiest first.
    pub algorithms: Vec<AlgoTimeline>,
    /// Spans lost to ring-buffer overwrite while recording.
    pub dropped_spans: u64,
}

fn secs(span: &SpanRecord) -> f64 {
    span.dur_us as f64 / 1e6
}

/// Extract `key=value` from a span's formatted args.
fn arg<'a>(span: &'a SpanRecord, key: &str) -> Option<&'a str> {
    span.args.split(' ').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == key).then_some(v)
    })
}

impl Timeline {
    /// Aggregate a drained trace. Spans whose names are outside the known
    /// taxonomy contribute nothing (they still appear in the raw exports).
    pub fn from_trace(trace: &Trace) -> Timeline {
        let mut tl = Timeline {
            dropped_spans: trace.dropped,
            ..Timeline::default()
        };
        let mut algos: Vec<AlgoTimeline> = Vec::new();
        fn algo_slot(algos: &mut Vec<AlgoTimeline>, name: &str) -> usize {
            if let Some(i) = algos.iter().position(|a| a.name == name) {
                i
            } else {
                algos.push(AlgoTimeline {
                    name: name.to_string(),
                    tune_secs: 0.0,
                    trials: 0,
                    trial_secs: 0.0,
                    folds: 0,
                    fold_secs: 0.0,
                    wasted_folds: 0,
                    wasted_fold_secs: 0.0,
                    surrogate_fits: 0,
                    surrogate_secs: 0.0,
                    rungs: 0,
                    rung_secs: 0.0,
                });
                algos.len() - 1
            }
        }

        for span in &trace.spans {
            match span.name {
                "run" => tl.total_secs += secs(span),
                name if name.starts_with("phase") => {
                    if name == "phase4.tune" {
                        if let Some(a) = arg(span, "algo") {
                            let i = algo_slot(&mut algos, a);
                            algos[i].tune_secs += secs(span);
                        }
                    } else {
                        tl.phases.push((name.to_string(), secs(span)));
                    }
                }
                "smac.trial" => {
                    if let Some(a) = arg(span, "algo") {
                        let i = algo_slot(&mut algos, a);
                        algos[i].trials += 1;
                        algos[i].trial_secs += secs(span);
                    }
                }
                "smac.fold" => {
                    if let Some(a) = arg(span, "algo") {
                        let i = algo_slot(&mut algos, a);
                        algos[i].folds += 1;
                        algos[i].fold_secs += secs(span);
                    }
                }
                "smac.fold.wasted" => {
                    if let Some(a) = arg(span, "algo") {
                        let i = algo_slot(&mut algos, a);
                        algos[i].wasted_folds += 1;
                        algos[i].wasted_fold_secs += secs(span);
                    }
                }
                "smac.surrogate.fit" => {
                    if let Some(a) = arg(span, "algo") {
                        let i = algo_slot(&mut algos, a);
                        algos[i].surrogate_fits += 1;
                        algos[i].surrogate_secs += secs(span);
                    }
                }
                "smac.rung" => {
                    if let Some(a) = arg(span, "algo") {
                        let i = algo_slot(&mut algos, a);
                        algos[i].rungs += 1;
                        algos[i].rung_secs += secs(span);
                    }
                }
                _ => {}
            }
        }

        tl.other_secs = (tl.total_secs - tl.phases.iter().map(|(_, s)| s).sum::<f64>()).max(0.0);
        algos.sort_by(|a, b| {
            b.tune_secs
                .partial_cmp(&a.tune_secs)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        tl.algorithms = algos;
        tl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, args: &str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id: start_us + 1,
            parent: 0,
            name,
            args: args.to_string(),
            tid: 1,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn aggregates_phases_algorithms_trials_folds() {
        let trace = Trace {
            spans: vec![
                span("run", "", 0, 10_000_000),
                span("phase2.preprocess", "", 0, 1_000_000),
                span("phase3.select", "", 1_000_000, 500_000),
                span("phase4.tune_all", "", 1_500_000, 8_000_000),
                span("phase4.tune", "algo=RandomForest", 1_500_000, 5_000_000),
                span("phase4.tune", "algo=KNN", 1_500_000, 3_000_000),
                span("smac.trial", "algo=RandomForest trial=0", 1_600_000, 400_000),
                span("smac.trial", "algo=RandomForest trial=1", 2_000_000, 600_000),
                span("smac.fold", "algo=RandomForest fold=0", 1_600_000, 200_000),
                span("smac.fold.wasted", "algo=RandomForest fold=2", 1_600_000, 150_000),
                span("smac.surrogate.fit", "algo=RandomForest", 2_700_000, 50_000),
                span("smac.rung", "algo=KNN rung=0 cohort=8 fidelity=1", 1_700_000, 300_000),
                span("smac.rung", "algo=KNN rung=1 cohort=4 fidelity=2", 2_100_000, 250_000),
                span("phase5.output", "", 9_500_000, 400_000),
                span("clf.fit", "algo=RandomForest", 1_650_000, 100_000),
            ],
            dropped: 2,
        };
        let tl = Timeline::from_trace(&trace);
        assert!((tl.total_secs - 10.0).abs() < 1e-9);
        assert_eq!(tl.phases.len(), 4);
        assert_eq!(tl.phases[0].0, "phase2.preprocess");
        // other = 10 - (1 + 0.5 + 8 + 0.4) = 0.1
        assert!((tl.other_secs - 0.1).abs() < 1e-9);
        assert_eq!(tl.algorithms.len(), 2);
        let rf = &tl.algorithms[0];
        assert_eq!(rf.name, "RandomForest");
        assert!((rf.tune_secs - 5.0).abs() < 1e-9);
        assert_eq!(rf.trials, 2);
        assert!((rf.trial_secs - 1.0).abs() < 1e-9);
        assert_eq!(rf.folds, 1);
        assert_eq!(rf.wasted_folds, 1);
        assert!((rf.wasted_fold_secs - 0.15).abs() < 1e-9);
        assert_eq!(rf.surrogate_fits, 1);
        assert_eq!(rf.rungs, 0);
        let knn = &tl.algorithms[1];
        assert_eq!(knn.rungs, 2);
        assert!((knn.rung_secs - 0.55).abs() < 1e-9);
        assert_eq!(tl.dropped_spans, 2);
    }

    #[test]
    fn phase_sum_matches_total_when_no_gaps() {
        let trace = Trace {
            spans: vec![
                span("run", "", 0, 2_000_000),
                span("phase2.preprocess", "", 0, 2_000_000),
            ],
            dropped: 0,
        };
        let tl = Timeline::from_trace(&trace);
        assert!((tl.other_secs - 0.0).abs() < 1e-9);
    }
}
