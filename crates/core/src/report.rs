//! Run reports — the structured output of a SmartML run (what the paper's
//! Figure 3 result screen displays).

use crate::interpret::FeatureImportance;
use serde::{Deserialize, Serialize};
use smartml_classifiers::{Algorithm, ParamConfig};
use smartml_metafeatures::MetaFeatures;
use smartml_smac::FailureCounts;

/// Timing + detail for one pipeline phase (Figure 1 trace).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseTrace {
    /// Phase name as in Figure 1.
    pub phase: String,
    /// Wall-clock seconds spent.
    pub secs: f64,
    /// Human-readable summary of what happened.
    pub detail: String,
}

/// Tuning summary for one nominated algorithm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlgorithmTuning {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// KB nomination score.
    pub selection_score: f64,
    /// Trials the tuner evaluated.
    pub trials: usize,
    /// Best inner cross-validation accuracy.
    pub best_cv_accuracy: f64,
    /// The best configuration found.
    pub best_config: ParamConfig,
    /// Accuracy of the refit model on the held-out validation split.
    pub validation_accuracy: f64,
    /// Warm-start configurations the KB provided.
    pub n_warm_starts: usize,
}

/// The recommended model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BestModel {
    /// Winning algorithm.
    pub algorithm: Algorithm,
    /// Winning configuration.
    pub config: ParamConfig,
    /// Validation accuracy.
    pub validation_accuracy: f64,
}

/// Ensemble summary (when ensembling was requested).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnsembleReport {
    /// Member algorithms with their normalised weights.
    pub members: Vec<(Algorithm, f64)>,
    /// Ensemble validation accuracy.
    pub validation_accuracy: f64,
}

/// Fault accounting for one tuned algorithm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlgorithmFailures {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Trial counts per outcome kind (ok / non-finite / panicked /
    /// timed-out / infeasible).
    pub counts: FailureCounts,
    /// True when the circuit breaker tripped (K consecutive faults) and
    /// tuning stopped early.
    pub tripped: bool,
    /// Extra trials this algorithm received from tripped peers.
    #[serde(default)]
    pub reallocated_trials: usize,
    /// Extra wall-clock seconds this algorithm received from tripped peers.
    #[serde(default)]
    pub reallocated_secs: f64,
}

/// The `failures` section of a run report: what went wrong, what was
/// contained, and where freed budget went.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FailureReport {
    /// Per-algorithm fault accounting, same order as `tuning`.
    #[serde(default)]
    pub algorithms: Vec<AlgorithmFailures>,
    /// Knowledge-base degradations (backend down, retries exhausted, …);
    /// the run continued on the in-memory fallback.
    #[serde(default)]
    pub kb_warnings: Vec<String>,
    /// Metric degradations (empty validation fold, single-class
    /// predictions) that were coerced to defined values.
    #[serde(default)]
    pub metric_warnings: Vec<String>,
}

impl FailureReport {
    /// True when nothing failed anywhere — the section can be omitted
    /// from rendered output.
    pub fn is_clean(&self) -> bool {
        self.kb_warnings.is_empty()
            && self.metric_warnings.is_empty()
            && self
                .algorithms
                .iter()
                .all(|a| !a.tripped && a.counts.total_failures() == 0)
    }

    /// Total faulted trials (panics + timeouts + non-finite) across all
    /// algorithms — what the fault-injection harness reconciles against
    /// its injection counters.
    pub fn total_faults(&self) -> usize {
        self.algorithms
            .iter()
            .map(|a| a.counts.panicked + a.counts.timed_out + a.counts.non_finite)
            .sum()
    }
}

/// Wall-clock attribution for one algorithm's tuning work, derived from
/// the span trace (the serialisable mirror of `smartml_obs::AlgoTimeline`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlgoTime {
    /// Algorithm paper name (matches `Algorithm::paper_name`).
    pub algorithm: String,
    /// Wall-clock of the algorithm's `phase4.tune` span(s).
    pub tune_secs: f64,
    /// Trials the optimiser ran.
    pub trials: u64,
    /// Summed `smac.trial` span time — may exceed `tune_secs` when folds
    /// run speculatively in parallel.
    pub trial_secs: f64,
    /// Cross-validation folds evaluated (cache misses only).
    pub folds: u64,
    /// Summed `smac.fold` span time.
    pub fold_secs: f64,
    /// Surrogate model refits.
    pub surrogate_fits: u64,
    /// Summed surrogate fit time.
    pub surrogate_secs: f64,
    /// Multi-fidelity rung evaluations (`smac.rung` spans) — 0 for
    /// non-rung optimisers. Absent in reports from older versions.
    #[serde(default)]
    pub rungs: u64,
    /// Summed rung evaluation time.
    #[serde(default)]
    pub rung_secs: f64,
}

/// "Where the time went": per-phase and per-algorithm wall-clock
/// attribution, aggregated from the structured span trace when the run
/// was started with tracing enabled ([`SmartMlOptions::trace`]).
///
/// Invariant: `phases` + `other_secs` sums to `total_secs` (the root
/// `run` span) within measurement noise; per-algorithm numbers overlap
/// under concurrency and are reported separately, not summed.
///
/// [`SmartMlOptions::trace`]: crate::options::SmartMlOptions::trace
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeAttribution {
    /// Duration of the root `run` span, seconds.
    pub total_secs: f64,
    /// `(phase span name, seconds)` in start order.
    pub phases: Vec<(String, f64)>,
    /// Time inside `run` not covered by any phase span.
    pub other_secs: f64,
    /// Per-algorithm attribution, busiest first.
    pub algorithms: Vec<AlgoTime>,
    /// Spans lost to ring-buffer overwrite while recording (0 = the
    /// attribution is complete).
    pub dropped_spans: u64,
    /// The run's thread budget (`n_threads`, resolved). Absent (0) in
    /// reports from older versions.
    #[serde(default)]
    pub n_threads: usize,
    /// Speculatively evaluated folds the serial race would have skipped
    /// (`smac.fold.wasted` spans), and the thread-seconds they took.
    #[serde(default)]
    pub wasted_folds: u64,
    #[serde(default)]
    pub wasted_fold_secs: f64,
}

impl TimeAttribution {
    /// Converts the obs-crate aggregate (which stays serde-free) into the
    /// report's serialisable form.
    pub fn from_timeline(tl: &smartml_obs::Timeline, n_threads: usize) -> TimeAttribution {
        TimeAttribution {
            n_threads,
            wasted_folds: tl.algorithms.iter().map(|a| a.wasted_folds).sum(),
            wasted_fold_secs: tl.algorithms.iter().map(|a| a.wasted_fold_secs).sum(),
            total_secs: tl.total_secs,
            phases: tl.phases.clone(),
            other_secs: tl.other_secs,
            algorithms: tl
                .algorithms
                .iter()
                .map(|a| AlgoTime {
                    algorithm: a.name.clone(),
                    tune_secs: a.tune_secs,
                    trials: a.trials,
                    trial_secs: a.trial_secs,
                    folds: a.folds,
                    fold_secs: a.fold_secs,
                    surrogate_fits: a.surrogate_fits,
                    surrogate_secs: a.surrogate_secs,
                    rungs: a.rungs,
                    rung_secs: a.rung_secs,
                })
                .collect(),
            dropped_spans: tl.dropped_spans,
        }
    }

    /// Thread-seconds phase 4 spent evaluating folds, speculated folds
    /// that were thrown away included.
    pub fn fold_thread_secs(&self) -> f64 {
        self.algorithms.iter().map(|a| a.fold_secs).sum::<f64>() + self.wasted_fold_secs
    }

    /// Share of the thread budget that phase 4 spent evaluating folds:
    /// fold thread-seconds / (phase-4 wall-clock × `n_threads`). `None`
    /// when the trace has no phase-4 span or predates the field.
    pub fn phase4_utilisation(&self) -> Option<f64> {
        let (_, wall) = self.phases.iter().find(|(name, _)| name == "phase4.tune_all")?;
        let capacity = wall * self.n_threads as f64;
        (capacity > 0.0).then(|| self.fold_thread_secs() / capacity)
    }

    /// The utilisation line of "Where the time went".
    fn utilisation_line(&self) -> Option<String> {
        self.phase4_utilisation().map(|u| {
            format!(
                "phase-4 utilisation {u:.2} of {} threads ({:.3} fold thread-seconds; \
                 {} speculative folds wasted, {:.3}s)",
                self.n_threads,
                self.fold_thread_secs(),
                self.wasted_folds,
                self.wasted_fold_secs
            )
        })
    }
}

/// Escapes characters that would break out of a Markdown table cell:
/// `|` becomes `\|` and embedded newlines become spaces. Algorithm and
/// parameter names flow into `render_markdown` cells verbatim, so any
/// future name containing a pipe must not silently add table columns.
pub fn md_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '|' => out.push_str("\\|"),
            '\n' | '\r' => out.push(' '),
            _ => out.push(c),
        }
    }
    out
}

/// Full report of one SmartML run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Dataset name.
    pub dataset: String,
    /// Rows / features / classes after preprocessing.
    pub n_rows: usize,
    /// Feature count after preprocessing.
    pub n_features: usize,
    /// Class count.
    pub n_classes: usize,
    /// Phase-by-phase trace (Figure 1).
    pub phases: Vec<PhaseTrace>,
    /// The extracted 25 meta-features.
    pub meta_features: MetaFeatures,
    /// Neighbour datasets the KB consulted: `(id, distance)`.
    pub kb_neighbors: Vec<(String, f64)>,
    /// Per-algorithm tuning results, KB-score order.
    pub tuning: Vec<AlgorithmTuning>,
    /// The recommended model.
    pub best: BestModel,
    /// Ensemble result, when requested.
    pub ensemble: Option<EnsembleReport>,
    /// Permutation feature importance of the winner, when requested.
    pub importance: Option<Vec<FeatureImportance>>,
    /// Fault accounting: contained failures, tripped breakers, budget
    /// reallocation, KB/metric degradations. Empty on a clean run.
    #[serde(default)]
    pub failures: FailureReport,
    /// "Where the time went" — span-derived wall-clock attribution.
    /// `None` unless the run was traced ([`SmartMlOptions::trace`]), so
    /// untraced reports stay byte-identical to pre-observability ones
    /// modulo the literal `null` field.
    ///
    /// [`SmartMlOptions::trace`]: crate::options::SmartMlOptions::trace
    #[serde(default)]
    pub timeline: Option<TimeAttribution>,
}

impl RunReport {
    /// Renders the report as the text analogue of the paper's Figure-3
    /// output screen.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("SmartML results for '{}'\n", self.dataset));
        out.push_str(&format!(
            "  {} rows x {} features, {} classes\n",
            self.n_rows, self.n_features, self.n_classes
        ));
        out.push_str("  Phases:\n");
        for p in &self.phases {
            out.push_str(&format!("    {:<28} {:>8.3}s  {}\n", p.phase, p.secs, p.detail));
        }
        out.push_str("  Tuned algorithms:\n");
        for t in &self.tuning {
            out.push_str(&format!(
                "    {:<14} cv={:.4} valid={:.4} trials={} warm-starts={}\n",
                t.algorithm.paper_name(),
                t.best_cv_accuracy,
                t.validation_accuracy,
                t.trials,
                t.n_warm_starts
            ));
        }
        out.push_str(&format!(
            "  Recommended: {} ({:.2}% validation accuracy)\n    {}\n",
            self.best.algorithm.paper_name(),
            self.best.validation_accuracy * 100.0,
            self.best.config.summary()
        ));
        if let Some(e) = &self.ensemble {
            let members: Vec<String> = e
                .members
                .iter()
                .map(|(a, w)| format!("{}({:.2})", a.paper_name(), w))
                .collect();
            out.push_str(&format!(
                "  Ensemble [{}]: {:.2}% validation accuracy\n",
                members.join(", "),
                e.validation_accuracy * 100.0
            ));
        }
        if let Some(imp) = &self.importance {
            out.push_str("  Feature importance (permutation):\n");
            for fi in imp.iter().take(10) {
                out.push_str(&format!("    {:<20} {:+.4}\n", fi.feature, fi.importance));
            }
        }
        if !self.failures.is_clean() {
            out.push_str("  Failures (contained):\n");
            for af in &self.failures.algorithms {
                if !af.tripped && af.counts.total_failures() == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "    {:<14} panicked={} timed_out={} non_finite={} infeasible={}{}",
                    af.algorithm.paper_name(),
                    af.counts.panicked,
                    af.counts.timed_out,
                    af.counts.non_finite,
                    af.counts.failed,
                    if af.tripped { "  [breaker tripped]" } else { "" },
                ));
                if af.reallocated_trials > 0 {
                    out.push_str(&format!("  (+{} reallocated trials)", af.reallocated_trials));
                }
                if af.reallocated_secs > 0.0 {
                    out.push_str(&format!("  (+{:.2}s reallocated)", af.reallocated_secs));
                }
                out.push('\n');
            }
            for w in &self.failures.kb_warnings {
                out.push_str(&format!("    kb: {w}\n"));
            }
            for w in &self.failures.metric_warnings {
                out.push_str(&format!("    metric: {w}\n"));
            }
        }
        if let Some(tl) = &self.timeline {
            out.push_str("  Where the time went:\n");
            out.push_str(&format!("    total {:>26.3}s\n", tl.total_secs));
            for (phase, secs) in &tl.phases {
                out.push_str(&format!("    {:<28} {:>8.3}s\n", phase, secs));
            }
            out.push_str(&format!("    {:<28} {:>8.3}s\n", "(between phases)", tl.other_secs));
            if let Some(line) = tl.utilisation_line() {
                out.push_str(&format!("    {line}\n"));
            }
            for a in &tl.algorithms {
                let rungs = if a.rungs > 0 {
                    format!(" rungs={} ({:.3}s)", a.rungs, a.rung_secs)
                } else {
                    String::new()
                };
                out.push_str(&format!(
                    "    {:<14} tune={:.3}s trials={} ({:.3}s) folds={} ({:.3}s) surrogate={} ({:.3}s){}\n",
                    a.algorithm,
                    a.tune_secs,
                    a.trials,
                    a.trial_secs,
                    a.folds,
                    a.fold_secs,
                    a.surrogate_fits,
                    a.surrogate_secs,
                    rungs,
                ));
            }
            if tl.dropped_spans > 0 {
                out.push_str(&format!(
                    "    ({} spans dropped — attribution is partial)\n",
                    tl.dropped_spans
                ));
            }
        }
        out
    }
}

impl RunReport {
    /// Renders the report as Markdown — for READMEs, issue reports, and
    /// notebook-style summaries.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## SmartML results — `{}`\n\n", self.dataset));
        out.push_str(&format!(
            "{} rows × {} features, {} classes\n\n",
            self.n_rows, self.n_features, self.n_classes
        ));
        out.push_str("| phase | time (s) | detail |\n|---|---:|---|\n");
        for p in &self.phases {
            out.push_str(&format!(
                "| {} | {:.3} | {} |\n",
                md_escape(&p.phase),
                p.secs,
                md_escape(&p.detail)
            ));
        }
        out.push_str("\n| algorithm | cv acc | valid acc | trials | warm starts |\n");
        out.push_str("|---|---:|---:|---:|---:|\n");
        for t in &self.tuning {
            out.push_str(&format!(
                "| {} | {:.4} | {:.4} | {} | {} |\n",
                md_escape(t.algorithm.paper_name()),
                t.best_cv_accuracy,
                t.validation_accuracy,
                t.trials,
                t.n_warm_starts
            ));
        }
        out.push_str(&format!(
            "\n**Recommended:** `{}` at **{:.2}%** validation accuracy \n`{}`\n",
            self.best.algorithm.paper_name(),
            self.best.validation_accuracy * 100.0,
            self.best.config.summary()
        ));
        if let Some(e) = &self.ensemble {
            let members: Vec<String> = e
                .members
                .iter()
                .map(|(a, w)| format!("{} ({w:.2})", a.paper_name()))
                .collect();
            out.push_str(&format!(
                "\n**Ensemble** [{}]: {:.2}%\n",
                members.join(", "),
                e.validation_accuracy * 100.0
            ));
        }
        if let Some(imp) = &self.importance {
            out.push_str("\n| feature | permutation importance |\n|---|---:|\n");
            for fi in imp.iter().take(10) {
                out.push_str(&format!(
                    "| {} | {:+.4} |\n",
                    md_escape(&fi.feature),
                    fi.importance
                ));
            }
        }
        if !self.failures.is_clean() {
            out.push_str(
                "\n### Failures (contained)\n\n| algorithm | panicked | timed out | non-finite | infeasible | breaker | reallocated |\n|---|---:|---:|---:|---:|---|---|\n",
            );
            for af in &self.failures.algorithms {
                if !af.tripped && af.counts.total_failures() == 0 {
                    continue;
                }
                let realloc = if af.reallocated_trials > 0 {
                    format!("+{} trials", af.reallocated_trials)
                } else if af.reallocated_secs > 0.0 {
                    format!("+{:.2}s", af.reallocated_secs)
                } else {
                    "—".to_string()
                };
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {} |\n",
                    md_escape(af.algorithm.paper_name()),
                    af.counts.panicked,
                    af.counts.timed_out,
                    af.counts.non_finite,
                    af.counts.failed,
                    if af.tripped { "tripped" } else { "—" },
                    realloc,
                ));
            }
            for w in &self.failures.kb_warnings {
                out.push_str(&format!("\n> kb: {w}\n"));
            }
            for w in &self.failures.metric_warnings {
                out.push_str(&format!("\n> metric: {w}\n"));
            }
        }
        if let Some(tl) = &self.timeline {
            out.push_str("\n### Where the time went\n\n");
            out.push_str("| phase | time (s) |\n|---|---:|\n");
            for (phase, secs) in &tl.phases {
                out.push_str(&format!("| {} | {:.3} |\n", md_escape(phase), secs));
            }
            out.push_str(&format!("| (between phases) | {:.3} |\n", tl.other_secs));
            out.push_str(&format!("| **total** | **{:.3}** |\n", tl.total_secs));
            if let Some(line) = tl.utilisation_line() {
                out.push_str(&format!("\n{line}\n"));
            }
            if !tl.algorithms.is_empty() {
                out.push_str(
                    "\n| algorithm | tune (s) | trials | trial (s) | folds | fold (s) | surrogate fits | surrogate (s) | rungs | rung (s) |\n|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n",
                );
                for a in &tl.algorithms {
                    out.push_str(&format!(
                        "| {} | {:.3} | {} | {:.3} | {} | {:.3} | {} | {:.3} | {} | {:.3} |\n",
                        md_escape(&a.algorithm),
                        a.tune_secs,
                        a.trials,
                        a.trial_secs,
                        a.folds,
                        a.fold_secs,
                        a.surrogate_fits,
                        a.surrogate_secs,
                        a.rungs,
                        a.rung_secs,
                    ));
                }
            }
            if tl.dropped_spans > 0 {
                out.push_str(&format!(
                    "\n> {} spans dropped — attribution is partial\n",
                    tl.dropped_spans
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartml_metafeatures::N_META_FEATURES;

    fn dummy_report() -> RunReport {
        RunReport {
            dataset: "toy".into(),
            n_rows: 10,
            n_features: 2,
            n_classes: 2,
            phases: vec![PhaseTrace {
                phase: "Preprocessing".into(),
                secs: 0.01,
                detail: "zv".into(),
            }],
            meta_features: MetaFeatures { values: vec![0.0; N_META_FEATURES] },
            kb_neighbors: vec![("other".into(), 1.5)],
            tuning: vec![],
            best: BestModel {
                algorithm: Algorithm::Knn,
                config: ParamConfig::default(),
                validation_accuracy: 0.91,
            },
            ensemble: None,
            importance: None,
            failures: FailureReport::default(),
            timeline: None,
        }
    }

    #[test]
    fn render_contains_key_facts() {
        let text = dummy_report().render();
        assert!(text.contains("toy"));
        assert!(text.contains("Recommended: KNN"));
        assert!(text.contains("91.00%"));
    }

    #[test]
    fn markdown_render_contains_tables() {
        let md = dummy_report().render_markdown();
        assert!(md.starts_with("## SmartML results"));
        assert!(md.contains("| phase | time (s) | detail |"));
        assert!(md.contains("**Recommended:** `KNN`"));
    }

    #[test]
    fn serde_roundtrip() {
        let report = dummy_report();
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.dataset, "toy");
        assert_eq!(back.best.algorithm, Algorithm::Knn);
    }

    #[test]
    fn legacy_reports_without_failures_still_deserialize() {
        // Pre-fault-containment JSON has no `failures` key.
        let json = serde_json::to_string(&dummy_report()).unwrap();
        let mut value: serde_json::Value = serde_json::from_str(&json).unwrap();
        match &mut value {
            serde_json::Value::Object(pairs) => pairs.retain(|(k, _)| k != "failures"),
            other => panic!("report serialises to an object, got {other:?}"),
        }
        let stripped = serde_json::to_string(&value).unwrap();
        let back: RunReport = serde_json::from_str(&stripped).unwrap();
        assert!(back.failures.is_clean());
    }

    #[test]
    fn failure_section_renders_when_dirty() {
        let mut report = dummy_report();
        report.failures.algorithms.push(AlgorithmFailures {
            algorithm: Algorithm::Svm,
            counts: FailureCounts { ok: 3, panicked: 2, timed_out: 1, ..Default::default() },
            tripped: true,
            reallocated_trials: 0,
            reallocated_secs: 0.0,
        });
        report.failures.algorithms.push(AlgorithmFailures {
            algorithm: Algorithm::Knn,
            counts: FailureCounts { ok: 9, ..Default::default() },
            tripped: false,
            reallocated_trials: 6,
            reallocated_secs: 0.0,
        });
        report.failures.kb_warnings.push("backend down".into());
        assert!(!report.failures.is_clean());
        assert_eq!(report.failures.total_faults(), 3);
        let text = report.render();
        assert!(text.contains("Failures (contained)"));
        assert!(text.contains("[breaker tripped]"));
        assert!(text.contains("kb: backend down"));
        let md = report.render_markdown();
        assert!(md.contains("### Failures (contained)"));
        assert!(md.contains("| SVM | 2 | 1 |"));
        // A clean report omits the section entirely.
        let clean = dummy_report();
        assert!(!clean.render().contains("Failures"));
    }

    #[test]
    fn md_escape_neutralises_table_breakers() {
        assert_eq!(md_escape("plain"), "plain");
        assert_eq!(md_escape("a|b"), "a\\|b");
        assert_eq!(md_escape("||"), "\\|\\|");
        assert_eq!(md_escape("multi\nline\rname"), "multi line name");
        assert_eq!(md_escape(""), "");
        // Idempotence is NOT expected (escaping an escape re-escapes the
        // pipe) — callers escape raw names exactly once.
        assert_eq!(md_escape("a\\|b"), "a\\\\|b");
    }

    #[test]
    fn markdown_cells_escape_pipes_in_names() {
        let mut report = dummy_report();
        report.phases[0].detail = "ops=[zv|pca]".into();
        report.importance = Some(vec![crate::interpret::FeatureImportance {
            feature: "f|0".into(),
            importance: 0.5,
        }]);
        let md = report.render_markdown();
        assert!(md.contains("ops=[zv\\|pca]"));
        assert!(md.contains("| f\\|0 |"));
        assert!(!md.contains("| f|0 |"));
    }

    #[test]
    fn timeline_renders_in_both_formats() {
        let mut report = dummy_report();
        report.timeline = Some(TimeAttribution {
            total_secs: 2.0,
            phases: vec![
                ("phase2.preprocess".into(), 0.25),
                ("phase4.tune_all".into(), 1.5),
            ],
            other_secs: 0.25,
            algorithms: vec![AlgoTime {
                algorithm: "RandomForest".into(),
                tune_secs: 1.4,
                trials: 8,
                trial_secs: 1.2,
                folds: 16,
                fold_secs: 1.0,
                surrogate_fits: 4,
                surrogate_secs: 0.1,
                rungs: 6,
                rung_secs: 0.4,
            }],
            dropped_spans: 0,
            n_threads: 2,
            wasted_folds: 3,
            wasted_fold_secs: 0.2,
        });
        let text = report.render();
        assert!(text.contains("Where the time went"));
        assert!(text.contains("phase4.tune_all"));
        assert!(text.contains("RandomForest"));
        // 1.2 fold thread-seconds over a 1.5 s phase 4 on 2 threads.
        assert!(text.contains("phase-4 utilisation 0.40 of 2 threads"), "{text}");
        assert!(text.contains("3 speculative folds wasted"));
        let md = report.render_markdown();
        assert!(md.contains("phase-4 utilisation 0.40 of 2 threads"));
        assert!(md.contains("### Where the time went"));
        assert!(md.contains("| phase2.preprocess | 0.250 |"));
        assert!(md.contains("| RandomForest | 1.400 | 8 |"));
        // Untraced reports stay silent.
        assert!(!dummy_report().render().contains("Where the time went"));
        assert!(!dummy_report().render_markdown().contains("Where the time went"));
    }

    #[test]
    fn timeline_phase_rows_sum_to_total() {
        // The invariant the acceptance criteria pin: phases + other == total.
        let tl = TimeAttribution {
            total_secs: 3.0,
            phases: vec![("phase2.preprocess".into(), 1.0), ("phase5.output".into(), 1.5)],
            other_secs: 0.5,
            algorithms: vec![],
            dropped_spans: 0,
            n_threads: 1,
            wasted_folds: 0,
            wasted_fold_secs: 0.0,
        };
        assert_eq!(tl.phase4_utilisation(), None, "no phase-4 span, no utilisation");
        let sum: f64 = tl.phases.iter().map(|(_, s)| s).sum::<f64>() + tl.other_secs;
        assert!((sum - tl.total_secs).abs() <= 0.01 * tl.total_secs);
    }
}
