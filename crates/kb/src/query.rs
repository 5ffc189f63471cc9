//! Algorithm selection by weighted nearest-neighbour retrieval.

use crate::store::{KnowledgeBase, KbEntry};
use serde::{Deserialize, Serialize};
use smartml_classifiers::{Algorithm, ParamConfig};
use smartml_metafeatures::{Landmarkers, MetaFeatures, N_META_FEATURES};

/// Query knobs. Serialisable because a remote `smartmld` query carries
/// them over the wire (a request that omits the options object gets
/// [`QueryOptions::default`]; one that sends it must send every knob).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOptions {
    /// How many algorithms to nominate.
    pub top_n: usize,
    /// How many nearest datasets participate in the vote.
    pub n_neighbors: usize,
    /// Weight of the performance-magnitude factor relative to similarity
    /// (the paper's second factor): 0 = similarity only.
    pub performance_weight: f64,
    /// Extend the distance with landmarker accuracies when both the query
    /// and an entry carry them (extended-similarity ablation).
    pub use_landmarkers: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions { top_n: 3, n_neighbors: 5, performance_weight: 1.0, use_landmarkers: false }
    }
}

/// Per-meta-feature z-score statistics over a whole KB.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NormStats {
    /// Per-feature means.
    pub(crate) means: Vec<f64>,
    /// Per-feature standard deviations (constant features pinned to 1).
    pub(crate) stds: Vec<f64>,
}

/// One nominated algorithm with its warm-start configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgorithmRecommendation {
    /// The nominated classifier.
    pub algorithm: Algorithm,
    /// Vote score (similarity × performance mass).
    pub score: f64,
    /// Best stored configurations from the supporting neighbours,
    /// most-similar dataset first — SMAC's initial design.
    pub warm_starts: Vec<ParamConfig>,
}

/// Result of an algorithm-selection query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Nominated algorithms, best first.
    pub algorithms: Vec<AlgorithmRecommendation>,
    /// The neighbour datasets consulted: `(dataset_id, distance)`.
    pub neighbors: Vec<(String, f64)>,
}

impl KnowledgeBase {
    /// Nominates algorithms for a dataset with the given meta-features.
    ///
    /// Implements the paper's two-factor weighted mechanism: each neighbour
    /// dataset votes for its algorithms with weight
    /// `similarity(dataset) × accuracy^performance_weight`, where similarity
    /// is `1 / (1 + distance)` over z-score-normalised meta-features.
    /// An empty KB yields an empty recommendation (caller falls back to all
    /// algorithms).
    pub fn recommend(&self, meta_features: &MetaFeatures, options: &QueryOptions) -> Recommendation {
        self.recommend_extended(meta_features, None, options)
    }

    /// [`KnowledgeBase::recommend`] with an optional landmarker vector for
    /// the query dataset. When `options.use_landmarkers` is set and both
    /// sides carry landmarkers, the two landmarker accuracies join the
    /// distance computation (scaled to comparable magnitude, ×3 since they
    /// are in `[0,1]` while z-scores spread wider).
    pub fn recommend_extended(
        &self,
        meta_features: &MetaFeatures,
        query_landmarkers: Option<Landmarkers>,
        options: &QueryOptions,
    ) -> Recommendation {
        if self.is_empty() {
            return Recommendation { algorithms: Vec::new(), neighbors: Vec::new() };
        }
        let stats = self.normalisation_stats();
        self.recommend_extended_with_stats(meta_features, query_landmarkers, options, &stats)
    }

    /// [`KnowledgeBase::recommend_extended`] with the z-score statistics
    /// supplied by the caller; bit-identical to it as long as `stats`
    /// matches the current entries.
    pub(crate) fn recommend_extended_with_stats(
        &self,
        meta_features: &MetaFeatures,
        query_landmarkers: Option<Landmarkers>,
        options: &QueryOptions,
        stats: &NormStats,
    ) -> Recommendation {
        if self.is_empty() {
            return Recommendation { algorithms: Vec::new(), neighbors: Vec::new() };
        }
        let NormStats { means, stds } = stats;
        let query = normalise(&meta_features.values, means, stds);
        // Rank datasets by distance.
        let mut ranked: Vec<(&KbEntry, f64)> = self
            .entries()
            .iter()
            .map(|e| {
                let z = normalise(&e.meta_features.values, means, stds);
                let dist = entry_distance(&query, &z, e.landmarkers, query_landmarkers, options);
                (e, dist)
            })
            .collect();
        ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        ranked.truncate(options.n_neighbors.max(1));
        vote_ranked(&ranked, options)
    }

    /// Per-meta-feature mean and std over all entries (for z-scoring).
    pub(crate) fn normalisation_stats(&self) -> NormStats {
        let features: Vec<&[f64]> =
            self.entries().iter().map(|e| e.meta_features.values.as_slice()).collect();
        normalisation_stats_over(&features)
    }
}

/// [`KnowledgeBase::normalisation_stats`] over an explicit feature
/// sequence. Float summation follows slice order: the reference a
/// [`crate::ZIndex`] rebuild must match bit for bit.
pub(crate) fn normalisation_stats_over(features: &[&[f64]]) -> NormStats {
    let n = features.len() as f64;
    let mut means = vec![0.0; N_META_FEATURES];
    for values in features {
        for (m, &v) in means.iter_mut().zip(*values) {
            *m += v;
        }
    }
    for m in &mut means {
        *m /= n;
    }
    let mut stds = vec![0.0; N_META_FEATURES];
    for values in features {
        for ((s, &v), &m) in stds.iter_mut().zip(*values).zip(&means) {
            *s += (v - m) * (v - m);
        }
    }
    for s in &mut stds {
        *s = (*s / n).sqrt();
        if *s < 1e-12 {
            *s = 1.0; // constant meta-feature carries no signal
        }
    }
    NormStats { means, stds }
}

/// The z-score of one value: the one place the expression is written,
/// so the monolithic query and [`crate::ZIndex`] cannot round apart.
#[inline]
pub(crate) fn z_score(value: f64, mean: f64, std: f64) -> f64 {
    (value - mean) / std
}

/// Z-scores a feature vector against per-feature `means`/`stds`.
pub(crate) fn normalise(values: &[f64], means: &[f64], stds: &[f64]) -> Vec<f64> {
    values
        .iter()
        .zip(means)
        .zip(stds)
        .map(|((&v, &m), &s)| z_score(v, m, s))
        .collect()
}

/// Distance between a z-scored query and a z-scored entry, optionally
/// extended with landmarker accuracies (the `use_landmarkers` ablation:
/// the two accuracies join the distance scaled ×3, since they live in
/// `[0,1]` while z-scores spread wider).
pub(crate) fn entry_distance(
    query_z: &[f64],
    entry_z: &[f64],
    entry_landmarkers: Option<Landmarkers>,
    query_landmarkers: Option<Landmarkers>,
    options: &QueryOptions,
) -> f64 {
    // Lane-chunked kernel: breaks the serial add dependency chain the
    // naive fold has, which is most of the per-entry query cost.
    let squared = smartml_linalg::kernels::squared_distance(query_z, entry_z);
    finish_distance(squared, entry_landmarkers, query_landmarkers, options)
}

/// [`entry_distance`] from the squared Euclidean distance of the
/// z-scores on: the one finishing step the monolithic query and
/// [`crate::ZIndex`] share, so their distances cannot round apart.
#[inline]
pub(crate) fn finish_distance(
    squared: f64,
    entry_landmarkers: Option<Landmarkers>,
    query_landmarkers: Option<Landmarkers>,
    options: &QueryOptions,
) -> f64 {
    let mut dist = squared.sqrt();
    if options.use_landmarkers {
        if let (Some(q), Some(el)) = (query_landmarkers, entry_landmarkers) {
            let dl = ((q.decision_stump - el.decision_stump).powi(2)
                + (q.nearest_centroid - el.nearest_centroid).powi(2))
            .sqrt();
            dist = (dist * dist + (3.0 * dl) * (3.0 * dl)).sqrt();
        }
    }
    dist
}

/// The paper's two-factor vote over an already-ranked neighbour set
/// (nearest first, already truncated to `n_neighbors`). Factored out of
/// [`KnowledgeBase::recommend_extended`] so a serving index
/// can rank with a [`crate::ZIndex`] and still produce byte-identical
/// recommendations: given the same ranked entries in the same order,
/// every float operation here runs in the same sequence.
pub fn vote_ranked(ranked: &[(&KbEntry, f64)], options: &QueryOptions) -> Recommendation {
    let mut votes: Vec<(Algorithm, f64)> = Vec::new();
    for (entry, dist) in ranked {
        let similarity = 1.0 / (1.0 + dist);
        for run in &entry.runs {
            let magnitude = run.accuracy.max(0.0).powf(options.performance_weight.max(0.0));
            let weight = similarity * magnitude;
            match votes.iter_mut().find(|(a, _)| *a == run.algorithm) {
                Some((_, v)) => *v += weight,
                None => votes.push((run.algorithm, weight)),
            }
        }
    }
    votes.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    votes.truncate(options.top_n.max(1));

    let algorithms = votes
        .into_iter()
        .map(|(algorithm, score)| {
            // Warm starts: best config for this algorithm from each
            // neighbour, nearest neighbour first.
            let warm_starts = ranked
                .iter()
                .filter_map(|(entry, _)| entry.best_run_for(algorithm).map(|r| r.config.clone()))
                .collect();
            AlgorithmRecommendation { algorithm, score, warm_starts }
        })
        .collect();
    Recommendation {
        algorithms,
        neighbors: ranked.iter().map(|(e, d)| (e.dataset_id.clone(), *d)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::AlgorithmRun;
    use smartml_data::synth::{gaussian_blobs, sparse_counts, xor_parity};
    use smartml_metafeatures::extract;

    fn mf_of(d: &smartml_data::Dataset) -> MetaFeatures {
        extract(d, &d.all_rows())
    }

    fn run(alg: Algorithm, acc: f64) -> AlgorithmRun {
        AlgorithmRun { algorithm: alg, config: ParamConfig::default(), accuracy: acc }
    }

    /// KB with two distinct regions: blob-like datasets where LDA wins and
    /// xor-like datasets where RandomForest wins.
    fn regional_kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        for seed in 0..4 {
            let d = gaussian_blobs(&format!("blob{seed}"), 200, 4, 2, 0.8, seed);
            kb.record_runs(
                &d.name.clone(),
                &mf_of(&d),
                [run(Algorithm::Lda, 0.95), run(Algorithm::Knn, 0.9), run(Algorithm::J48, 0.8)],
            );
            let x = xor_parity(&format!("xor{seed}"), 300, 3, 20, 0.02, seed);
            kb.record_runs(
                &x.name.clone(),
                &mf_of(&x),
                [run(Algorithm::RandomForest, 0.85), run(Algorithm::DeepBoost, 0.82), run(Algorithm::Lda, 0.5)],
            );
        }
        kb
    }

    #[test]
    fn empty_kb_recommends_nothing() {
        let kb = KnowledgeBase::new();
        let d = gaussian_blobs("q", 100, 4, 2, 0.8, 9);
        let rec = kb.recommend(&mf_of(&d), &QueryOptions::default());
        assert!(rec.algorithms.is_empty());
        assert!(rec.neighbors.is_empty());
    }

    #[test]
    fn recommends_regional_winner_for_blobs() {
        let kb = regional_kb();
        let q = gaussian_blobs("query", 220, 4, 2, 0.9, 99);
        let rec = kb.recommend(&mf_of(&q), &QueryOptions::default());
        assert_eq!(rec.algorithms[0].algorithm, Algorithm::Lda, "{:?}", rec.algorithms);
    }

    #[test]
    fn recommends_regional_winner_for_xor() {
        let kb = regional_kb();
        let q = xor_parity("query", 320, 3, 22, 0.02, 99);
        let rec = kb.recommend(&mf_of(&q), &QueryOptions::default());
        assert_eq!(rec.algorithms[0].algorithm, Algorithm::RandomForest, "{:?}", rec.algorithms);
    }

    #[test]
    fn nearest_neighbors_are_from_the_right_region() {
        let kb = regional_kb();
        let q = xor_parity("query", 320, 3, 22, 0.02, 123);
        let rec = kb.recommend(&mf_of(&q), &QueryOptions { n_neighbors: 3, ..Default::default() });
        assert_eq!(rec.neighbors.len(), 3);
        for (id, _) in &rec.neighbors {
            assert!(id.starts_with("xor"), "unexpected neighbour {id}");
        }
    }

    #[test]
    fn warm_starts_come_from_neighbors() {
        let mut kb = KnowledgeBase::new();
        let d = gaussian_blobs("src", 150, 4, 2, 0.8, 3);
        let tuned = ParamConfig::default().with("k", smartml_classifiers::ParamValue::Int(17));
        kb.record_run(
            "src",
            &mf_of(&d),
            AlgorithmRun { algorithm: Algorithm::Knn, config: tuned.clone(), accuracy: 0.93 },
        );
        let q = gaussian_blobs("query", 160, 4, 2, 0.8, 4);
        let rec = kb.recommend(&mf_of(&q), &QueryOptions::default());
        assert_eq!(rec.algorithms[0].algorithm, Algorithm::Knn);
        assert_eq!(rec.algorithms[0].warm_starts, vec![tuned]);
    }

    #[test]
    fn top_n_limits_nominations() {
        let kb = regional_kb();
        let q = gaussian_blobs("query", 200, 4, 2, 0.8, 55);
        let rec = kb.recommend(&mf_of(&q), &QueryOptions { top_n: 2, ..Default::default() });
        assert_eq!(rec.algorithms.len(), 2);
        // Scores sorted descending.
        assert!(rec.algorithms[0].score >= rec.algorithms[1].score);
    }

    #[test]
    fn performance_weight_zero_ignores_accuracy_magnitude() {
        // One neighbour has a low-accuracy run of SVM and a high-accuracy
        // run of KNN; with performance_weight = 0 both get equal vote.
        let mut kb = KnowledgeBase::new();
        let d = sparse_counts("s", 100, 30, 3, 20, 1);
        kb.record_runs(
            "s",
            &mf_of(&d),
            [run(Algorithm::Svm, 0.2), run(Algorithm::Knn, 0.9)],
        );
        let rec = kb.recommend(
            &mf_of(&d),
            &QueryOptions { performance_weight: 0.0, top_n: 2, ..Default::default() },
        );
        assert!((rec.algorithms[0].score - rec.algorithms[1].score).abs() < 1e-12);
    }

    #[test]
    fn landmarkers_tighten_similarity_when_present() {
        use smartml_metafeatures::Landmarkers;
        // Two entries with *identical* meta-features but opposite landmark
        // behaviour; the query carries landmarkers matching entry B.
        let mut kb = KnowledgeBase::new();
        let d = gaussian_blobs("base", 100, 4, 2, 1.0, 1);
        let meta = mf_of(&d);
        kb.record_run("entry-a", &meta, run(Algorithm::Lda, 0.9));
        kb.set_landmarkers(
            "entry-a",
            Landmarkers { decision_stump: 0.95, nearest_centroid: 0.95 },
        );
        kb.record_run("entry-b", &meta, run(Algorithm::RandomForest, 0.9));
        kb.set_landmarkers(
            "entry-b",
            Landmarkers { decision_stump: 0.55, nearest_centroid: 0.50 },
        );
        let query_marks = Landmarkers { decision_stump: 0.55, nearest_centroid: 0.52 };
        let extended = kb.recommend_extended(
            &meta,
            Some(query_marks),
            &QueryOptions { top_n: 1, n_neighbors: 1, use_landmarkers: true, ..Default::default() },
        );
        assert_eq!(extended.neighbors[0].0, "entry-b", "{:?}", extended.neighbors);
        assert_eq!(extended.algorithms[0].algorithm, Algorithm::RandomForest);
        // Without landmarkers the two entries are indistinguishable and the
        // first wins on tie order.
        let plain = kb.recommend(
            &meta,
            &QueryOptions { top_n: 1, n_neighbors: 1, ..Default::default() },
        );
        assert_eq!(plain.neighbors[0].0, "entry-a");
    }

    #[test]
    fn missing_landmarkers_fall_back_to_plain_distance() {
        use smartml_metafeatures::Landmarkers;
        let mut kb = KnowledgeBase::new();
        let d = gaussian_blobs("nl", 80, 3, 2, 1.0, 2);
        let meta = mf_of(&d);
        kb.record_run("no-marks", &meta, run(Algorithm::Knn, 0.8));
        let rec = kb.recommend_extended(
            &meta,
            Some(Landmarkers { decision_stump: 0.5, nearest_centroid: 0.5 }),
            &QueryOptions { use_landmarkers: true, ..Default::default() },
        );
        // Entry has no landmarkers: distance is plain (0 for identical meta).
        assert!(rec.neighbors[0].1 < 1e-9, "{:?}", rec.neighbors);
    }

    #[test]
    fn cached_stats_path_matches_recompute_path() {
        let kb = regional_kb();
        let stats = kb.normalisation_stats();
        let q = xor_parity("query", 320, 3, 22, 0.02, 5);
        let mf = mf_of(&q);
        let opts = QueryOptions::default();
        let fresh = kb.recommend_extended(&mf, None, &opts);
        let cached = kb.recommend_extended_with_stats(&mf, None, &opts, &stats);
        assert_eq!(fresh, cached, "stats injection must not change results");
        // JSON round-trip: the recommendation is a wire type for the
        // KB service.
        let json = serde_json::to_string(&fresh).unwrap();
        let back: Recommendation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fresh);
    }

    #[test]
    fn single_very_similar_dataset_outvotes_many_weak_ones() {
        // The paper's motivating case: a near-identical dataset's top-n
        // should beat algorithms that merely appear on several far datasets.
        let mut kb = KnowledgeBase::new();
        let twin = gaussian_blobs("twin", 200, 4, 2, 0.8, 7);
        kb.record_runs(
            "twin",
            &mf_of(&twin),
            [run(Algorithm::Plsda, 0.96), run(Algorithm::Rda, 0.94)],
        );
        for seed in 0..4 {
            let far = sparse_counts(&format!("far{seed}"), 150, 60, 8, 40, seed);
            kb.record_run(&far.name.clone(), &mf_of(&far), run(Algorithm::NaiveBayes, 0.75));
        }
        let q = gaussian_blobs("query", 210, 4, 2, 0.85, 8);
        let rec = kb.recommend(&mf_of(&q), &QueryOptions { top_n: 2, ..Default::default() });
        let picks: Vec<Algorithm> = rec.algorithms.iter().map(|a| a.algorithm).collect();
        assert!(picks.contains(&Algorithm::Plsda), "{picks:?}");
        assert!(picks.contains(&Algorithm::Rda), "{picks:?}");
    }
}
