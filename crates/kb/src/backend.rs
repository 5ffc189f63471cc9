//! Pluggable knowledge-base backends.
//!
//! The pipeline's Phase 3 (algorithm selection) and Phase 5 (KB update)
//! only need four capabilities: recommend, record a run, attach
//! landmarkers, and report size. [`KbBackend`] captures exactly that
//! surface so a SmartML run can be wired to
//!
//! - the in-process [`KnowledgeBase`] (this crate — the default),
//! - a WAL-backed durable store (`smartml-kbd::ShardedKb`), or
//! - a remote `smartmld` server (`smartml-kbd::KbClient`),
//!
//! without the pipeline knowing which. Local backends are infallible and
//! wrap every result in `Ok`; remote backends surface transport and
//! server-side failures as [`KbError::Backend`].
//!
//! Method names carry a `kb_` prefix so they never shadow (or get
//! shadowed by) the inherent `KnowledgeBase` methods of the same spirit.

use crate::query::{QueryOptions, Recommendation};
use crate::store::{AlgorithmRun, KbError, KnowledgeBase};
use smartml_metafeatures::{Landmarkers, MetaFeatures};

/// The knowledge-base operations a SmartML run performs, abstracted over
/// where the KB lives (in memory, on a WAL, behind a socket).
pub trait KbBackend: Send {
    /// Nominates algorithms for the given meta-features (Phase 3).
    fn kb_recommend(
        &self,
        meta_features: &MetaFeatures,
        query_landmarkers: Option<Landmarkers>,
        options: &QueryOptions,
    ) -> Result<Recommendation, KbError>;

    /// Records one `(algorithm, config) → accuracy` observation (Phase 5).
    fn kb_record_run(
        &mut self,
        dataset_id: &str,
        meta_features: &MetaFeatures,
        run: AlgorithmRun,
    ) -> Result<(), KbError>;

    /// Attaches landmarker accuracies to a dataset's entry (Phase 5,
    /// extended-similarity mode).
    fn kb_set_landmarkers(
        &mut self,
        dataset_id: &str,
        landmarkers: Landmarkers,
    ) -> Result<(), KbError>;

    /// Number of datasets the backend knows (best effort for remote
    /// backends: a failed stats call reports 0 rather than aborting the
    /// run — the value only feeds progress traces).
    fn kb_len(&self) -> usize;

    /// Total recorded runs (same best-effort contract as [`Self::kb_len`]).
    fn kb_n_runs(&self) -> usize;

    /// True when no datasets are known.
    fn kb_is_empty(&self) -> bool {
        self.kb_len() == 0
    }

    /// Short human-readable description for run traces and CLI banners.
    fn kb_describe(&self) -> String;

    /// Drains health warnings the backend accumulated (reconnects, retry
    /// storms, degraded modes) so the run report can surface them. Local
    /// backends have nothing to say; remote backends log their backoff
    /// schedules here.
    fn kb_health_warnings(&self) -> Vec<String> {
        Vec::new()
    }
}

impl<T: KbBackend + ?Sized> KbBackend for Box<T> {
    fn kb_recommend(
        &self,
        meta_features: &MetaFeatures,
        query_landmarkers: Option<Landmarkers>,
        options: &QueryOptions,
    ) -> Result<Recommendation, KbError> {
        (**self).kb_recommend(meta_features, query_landmarkers, options)
    }

    fn kb_record_run(
        &mut self,
        dataset_id: &str,
        meta_features: &MetaFeatures,
        run: AlgorithmRun,
    ) -> Result<(), KbError> {
        (**self).kb_record_run(dataset_id, meta_features, run)
    }

    fn kb_set_landmarkers(
        &mut self,
        dataset_id: &str,
        landmarkers: Landmarkers,
    ) -> Result<(), KbError> {
        (**self).kb_set_landmarkers(dataset_id, landmarkers)
    }

    fn kb_len(&self) -> usize {
        (**self).kb_len()
    }

    fn kb_n_runs(&self) -> usize {
        (**self).kb_n_runs()
    }

    fn kb_describe(&self) -> String {
        (**self).kb_describe()
    }

    fn kb_health_warnings(&self) -> Vec<String> {
        (**self).kb_health_warnings()
    }
}

impl KbBackend for KnowledgeBase {
    fn kb_recommend(
        &self,
        meta_features: &MetaFeatures,
        query_landmarkers: Option<Landmarkers>,
        options: &QueryOptions,
    ) -> Result<Recommendation, KbError> {
        Ok(self.recommend_extended(meta_features, query_landmarkers, options))
    }

    fn kb_record_run(
        &mut self,
        dataset_id: &str,
        meta_features: &MetaFeatures,
        run: AlgorithmRun,
    ) -> Result<(), KbError> {
        self.record_run(dataset_id, meta_features, run);
        Ok(())
    }

    fn kb_set_landmarkers(
        &mut self,
        dataset_id: &str,
        landmarkers: Landmarkers,
    ) -> Result<(), KbError> {
        self.set_landmarkers(dataset_id, landmarkers);
        Ok(())
    }

    fn kb_len(&self) -> usize {
        self.len()
    }

    fn kb_n_runs(&self) -> usize {
        self.n_runs()
    }

    fn kb_describe(&self) -> String {
        "in-memory".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartml_classifiers::{Algorithm, ParamConfig};
    use smartml_data::synth::gaussian_blobs;
    use smartml_metafeatures::extract;

    #[test]
    fn knowledge_base_backend_is_infallible_and_consistent() {
        let d = gaussian_blobs("b", 60, 3, 2, 1.0, 1);
        let mf = extract(&d, &d.all_rows());
        let mut kb = KnowledgeBase::new();
        assert!(kb.kb_is_empty());
        kb.kb_record_run(
            "b",
            &mf,
            AlgorithmRun {
                algorithm: Algorithm::Knn,
                config: ParamConfig::default(),
                accuracy: 0.9,
            },
        )
        .unwrap();
        kb.kb_set_landmarkers(
            "b",
            Landmarkers { decision_stump: 0.5, nearest_centroid: 0.6 },
        )
        .unwrap();
        assert_eq!(kb.kb_len(), 1);
        assert_eq!(kb.kb_n_runs(), 1);
        let rec = kb.kb_recommend(&mf, None, &QueryOptions::default()).unwrap();
        assert_eq!(rec, kb.recommend(&mf, &QueryOptions::default()));
        assert_eq!(kb.kb_describe(), "in-memory");
    }
}
