//! The SmartML knowledge base — the meta-learning store at the heart of the
//! paper's contribution.
//!
//! The KB holds, per processed dataset, its 25 meta-features together with
//! the performance and tuned configuration of every classifier run on it.
//! For a new dataset it answers two questions:
//!
//! 1. **Algorithm selection** — which classifiers should be tried, found by
//!    a weighted nearest-neighbour vote over meta-feature space. The paper's
//!    two-factor weighting is implemented exactly: a similarity factor
//!    (Euclidean distance over z-score-normalised meta-features) times a
//!    performance-magnitude factor, so "it may be better to select the top n
//!    performing algorithms on a single very similar dataset than selecting
//!    the first outperforming algorithm of n similar datasets".
//! 2. **Warm starts** — the best stored configurations of the nominated
//!    algorithms, used to initialise SMAC.
//!
//! The KB is continuously updated: every SmartML run calls
//! [`KnowledgeBase::record_run`], so the system "gets smarter by getting
//! more experience" (paper §1). Persistence is JSON on disk.

//! ```
//! use smartml_kb::{AlgorithmRun, KnowledgeBase, QueryOptions};
//! use smartml_classifiers::{Algorithm, ParamConfig};
//! use smartml_metafeatures::extract;
//! use smartml_data::synth::gaussian_blobs;
//!
//! let mut kb = KnowledgeBase::new();
//! let past = gaussian_blobs("past-task", 120, 4, 2, 0.8, 1);
//! let meta = extract(&past, &past.all_rows());
//! kb.record_run("past-task", &meta, AlgorithmRun {
//!     algorithm: Algorithm::Lda,
//!     config: ParamConfig::default(),
//!     accuracy: 0.94,
//! });
//!
//! // A similar new task: the KB nominates LDA with its stored config.
//! let new_task = gaussian_blobs("new-task", 130, 4, 2, 0.8, 2);
//! let query = extract(&new_task, &new_task.all_rows());
//! let rec = kb.recommend(&query, &QueryOptions::default());
//! assert_eq!(rec.algorithms[0].algorithm, Algorithm::Lda);
//! assert_eq!(rec.algorithms[0].warm_starts.len(), 1);
//! ```

mod backend;
mod index;
mod query;
mod store;

pub use backend::KbBackend;
pub use index::{check_carried, check_landmarkers, check_meta_features, FeatureTable, ZIndex};
pub use query::{vote_ranked, AlgorithmRecommendation, QueryOptions, Recommendation};
pub use store::{AlgorithmRun, KbEntry, KbError, KnowledgeBase};
