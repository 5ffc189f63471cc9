//! Knowledge-base storage: entries, runs, persistence.

use serde::{Deserialize, Serialize};
use smartml_classifiers::{Algorithm, ParamConfig};
use smartml_metafeatures::{Landmarkers, MetaFeatures};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One recorded (algorithm, configuration) → performance observation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlgorithmRun {
    /// Which classifier.
    pub algorithm: Algorithm,
    /// The (tuned) configuration that was evaluated.
    pub config: ParamConfig,
    /// Validation accuracy achieved.
    pub accuracy: f64,
}

/// Everything the KB knows about one dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KbEntry {
    /// Dataset identifier (name or hash).
    pub dataset_id: String,
    /// The dataset's 25 meta-features.
    pub meta_features: MetaFeatures,
    /// Optional landmarker accuracies (extended-similarity mode).
    #[serde(default)]
    pub landmarkers: Option<Landmarkers>,
    /// All recorded runs, best first is NOT guaranteed — query sorts.
    pub runs: Vec<AlgorithmRun>,
}

impl KbEntry {
    /// The entry's best run, if any.
    pub fn best_run(&self) -> Option<&AlgorithmRun> {
        self.runs
            .iter()
            .max_by(|a, b| a.accuracy.partial_cmp(&b.accuracy).unwrap())
    }

    /// Best run for a specific algorithm.
    pub fn best_run_for(&self, algorithm: Algorithm) -> Option<&AlgorithmRun> {
        self.runs
            .iter()
            .filter(|r| r.algorithm == algorithm)
            .max_by(|a, b| a.accuracy.partial_cmp(&b.accuracy).unwrap())
    }
}

/// Errors from KB persistence and KB backends.
#[derive(Debug)]
pub enum KbError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Stored data could not be parsed. `path` names the offending file
    /// when the data came from disk (`None` for in-memory strings), so a
    /// user with several KB files knows which one to repair — a missing
    /// file is *not* corruption and loads as an empty KB instead.
    Corrupt {
        /// The file that failed to parse, when known.
        path: Option<PathBuf>,
        /// Parser diagnostics.
        detail: String,
    },
    /// A remote or service-backed knowledge base failed (connection,
    /// protocol, or server-side error).
    Backend(String),
    /// The caller handed over meta-features or landmarkers no store can
    /// index (see [`crate::check_meta_features`]); nothing was logged or
    /// applied.
    Invalid(String),
}

impl std::fmt::Display for KbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KbError::Io(e) => write!(f, "knowledge base I/O error: {e}"),
            KbError::Corrupt { path: Some(p), detail } => {
                write!(f, "knowledge base file `{}` is corrupt: {detail}", p.display())
            }
            KbError::Corrupt { path: None, detail } => {
                write!(f, "knowledge base is corrupt: {detail}")
            }
            KbError::Backend(msg) => write!(f, "knowledge base backend error: {msg}"),
            KbError::Invalid(msg) => write!(f, "invalid knowledge base input: {msg}"),
        }
    }
}

impl std::error::Error for KbError {}

impl From<std::io::Error> for KbError {
    fn from(e: std::io::Error) -> Self {
        KbError::Io(e)
    }
}

/// The knowledge base: a growing collection of [`KbEntry`] values.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KnowledgeBase {
    entries: Vec<KbEntry>,
}

impl KnowledgeBase {
    /// An empty KB.
    pub fn new() -> Self {
        KnowledgeBase::default()
    }

    /// A KB holding exactly `entries`, in that order. Entry order is
    /// load-bearing (normalisation statistics sum in entry order and
    /// nearest-neighbour ties break by position), so callers
    /// reassembling a KB — e.g. a sharded index folding its shards into
    /// a snapshot — must pass entries in original insertion order.
    pub fn from_entries(entries: Vec<KbEntry>) -> Self {
        KnowledgeBase { entries }
    }

    /// Number of datasets known.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no datasets are known.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Borrow all entries.
    pub fn entries(&self) -> &[KbEntry] {
        &self.entries
    }

    /// Consumes the KB, yielding its entries in insertion order.
    pub fn into_entries(self) -> Vec<KbEntry> {
        self.entries
    }

    /// Entry by dataset id.
    pub fn get(&self, dataset_id: &str) -> Option<&KbEntry> {
        self.entries.iter().find(|e| e.dataset_id == dataset_id)
    }

    /// Records a run, creating or extending the dataset's entry — the
    /// continuous-update loop of Figure 1. Meta-features are overwritten
    /// with the latest extraction for an existing id.
    pub fn record_run(
        &mut self,
        dataset_id: &str,
        meta_features: &MetaFeatures,
        run: AlgorithmRun,
    ) {
        match self.entries.iter_mut().find(|e| e.dataset_id == dataset_id) {
            Some(entry) => {
                entry.meta_features = meta_features.clone();
                entry.runs.push(run);
            }
            None => self.entries.push(KbEntry {
                dataset_id: dataset_id.to_string(),
                meta_features: meta_features.clone(),
                landmarkers: None,
                runs: vec![run],
            }),
        }
    }

    /// Records many runs for one dataset at once.
    pub fn record_runs(
        &mut self,
        dataset_id: &str,
        meta_features: &MetaFeatures,
        runs: impl IntoIterator<Item = AlgorithmRun>,
    ) {
        for run in runs {
            self.record_run(dataset_id, meta_features, run);
        }
    }

    /// Attaches landmarker accuracies to a dataset's entry (no-op when the
    /// dataset is unknown). Landmarkers extend the similarity metric when
    /// [`crate::QueryOptions::use_landmarkers`] is set.
    pub fn set_landmarkers(&mut self, dataset_id: &str, landmarkers: Landmarkers) {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.dataset_id == dataset_id) {
            entry.landmarkers = Some(landmarkers);
        }
    }

    /// Merges another knowledge base into this one: runs for known dataset
    /// ids are appended, unknown ids are adopted wholesale. Landmarkers are
    /// taken from `other` when this side has none. Supports building the KB
    /// on several machines and combining the shards.
    pub fn merge(&mut self, other: KnowledgeBase) {
        for entry in other.entries {
            match self.entries.iter_mut().find(|e| e.dataset_id == entry.dataset_id) {
                Some(existing) => {
                    existing.runs.extend(entry.runs);
                    if existing.landmarkers.is_none() {
                        existing.landmarkers = entry.landmarkers;
                    }
                }
                None => self.entries.push(entry),
            }
        }
    }

    /// Total recorded runs across all datasets.
    pub fn n_runs(&self) -> usize {
        self.entries.iter().map(|e| e.runs.len()).sum()
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("KB serialisation cannot fail")
    }

    /// Parses a KB from JSON.
    pub fn from_json(json: &str) -> Result<Self, KbError> {
        serde_json::from_str(json)
            .map_err(|e| KbError::Corrupt { path: None, detail: e.to_string() })
    }

    /// Saves atomically: write the full JSON to a sibling `<name>.tmp`
    /// file, fsync it, then rename over `path` and fsync the directory.
    /// A crash at any point leaves either the old KB or the new one —
    /// never a truncated file. The temporary name *appends* `.tmp`
    /// (rather than replacing the extension) so `kb.json` and `kb.bin`
    /// in the same directory never race on one temp file.
    pub fn save(&self, path: &Path) -> Result<(), KbError> {
        let mut tmp_name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "kb".into());
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_json().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Durable rename: fsync the containing directory so a power loss
        // cannot roll the directory entry back to the old file.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Loads from disk. A *missing* file is the normal first-run state and
    /// yields an empty KB; a file that exists but fails to parse is a real
    /// fault and surfaces as [`KbError::Corrupt`] naming the path, instead
    /// of being silently reinterpreted as "no experience yet".
    pub fn load(path: &Path) -> Result<Self, KbError> {
        match std::fs::read_to_string(path) {
            Ok(json) => serde_json::from_str(&json).map_err(|e| KbError::Corrupt {
                path: Some(path.to_path_buf()),
                detail: e.to_string(),
            }),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(KnowledgeBase::new()),
            Err(e) => Err(KbError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartml_classifiers::ParamValue;
    use smartml_metafeatures::extract;
    use smartml_data::synth::gaussian_blobs;

    fn mf() -> MetaFeatures {
        let d = gaussian_blobs("b", 50, 3, 2, 1.0, 1);
        extract(&d, &d.all_rows())
    }

    fn run(alg: Algorithm, acc: f64) -> AlgorithmRun {
        AlgorithmRun {
            algorithm: alg,
            config: ParamConfig::default().with("k", ParamValue::Int(7)),
            accuracy: acc,
        }
    }

    #[test]
    fn record_creates_and_extends() {
        let mut kb = KnowledgeBase::new();
        assert!(kb.is_empty());
        kb.record_run("d1", &mf(), run(Algorithm::Knn, 0.8));
        kb.record_run("d1", &mf(), run(Algorithm::Svm, 0.9));
        kb.record_run("d2", &mf(), run(Algorithm::J48, 0.7));
        assert_eq!(kb.len(), 2);
        assert_eq!(kb.n_runs(), 3);
        assert_eq!(kb.get("d1").unwrap().runs.len(), 2);
    }

    #[test]
    fn best_run_selection() {
        let mut kb = KnowledgeBase::new();
        kb.record_runs(
            "d",
            &mf(),
            [run(Algorithm::Knn, 0.8), run(Algorithm::Svm, 0.95), run(Algorithm::Knn, 0.85)],
        );
        let entry = kb.get("d").unwrap();
        assert_eq!(entry.best_run().unwrap().algorithm, Algorithm::Svm);
        assert_eq!(entry.best_run_for(Algorithm::Knn).unwrap().accuracy, 0.85);
        assert!(entry.best_run_for(Algorithm::Lda).is_none());
    }

    #[test]
    fn merge_combines_shards() {
        let mut a = KnowledgeBase::new();
        a.record_run("shared", &mf(), run(Algorithm::Knn, 0.8));
        a.record_run("only-a", &mf(), run(Algorithm::Svm, 0.7));
        let mut b = KnowledgeBase::new();
        b.record_run("shared", &mf(), run(Algorithm::Lda, 0.9));
        b.record_run("only-b", &mf(), run(Algorithm::J48, 0.6));
        b.set_landmarkers(
            "shared",
            smartml_metafeatures::Landmarkers { decision_stump: 0.5, nearest_centroid: 0.6 },
        );
        a.merge(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.n_runs(), 4);
        let shared = a.get("shared").unwrap();
        assert_eq!(shared.runs.len(), 2);
        assert!(shared.landmarkers.is_some(), "landmarkers adopted from shard b");
    }

    #[test]
    fn json_roundtrip() {
        let mut kb = KnowledgeBase::new();
        kb.record_run("d1", &mf(), run(Algorithm::DeepBoost, 0.77));
        let back = KnowledgeBase::from_json(&kb.to_json()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.get("d1").unwrap().runs[0].algorithm, Algorithm::DeepBoost);
        assert_eq!(back.get("d1").unwrap().runs[0].config.i64_or("k", 0), 7);
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("smartml-kb-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.json");
        let mut kb = KnowledgeBase::new();
        kb.record_run("d1", &mf(), run(Algorithm::Rpart, 0.66));
        kb.save(&path).unwrap();
        let loaded = KnowledgeBase::load(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_missing_is_empty() {
        let kb = KnowledgeBase::load(Path::new("/nonexistent/kb.json")).unwrap();
        assert!(kb.is_empty());
    }

    #[test]
    fn corrupt_json_rejected() {
        assert!(matches!(
            KnowledgeBase::from_json("{not json"),
            Err(KbError::Corrupt { path: None, .. })
        ));
    }

    #[test]
    fn corrupt_file_error_names_the_path() {
        let dir = std::env::temp_dir().join("smartml-kb-corrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.json");
        std::fs::write(&path, "{definitely not a KB").unwrap();
        match KnowledgeBase::load(&path) {
            Err(KbError::Corrupt { path: Some(p), .. }) => assert_eq!(p, path),
            other => panic!("expected Corrupt with path, got {other:?}"),
        }
        // The rendered message points the user at the file.
        let msg = KnowledgeBase::load(&path).unwrap_err().to_string();
        assert!(msg.contains("broken.json"), "{msg}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_appends_tmp_suffix_instead_of_replacing_extension() {
        let dir = std::env::temp_dir().join("smartml-kb-tmpname-test");
        std::fs::create_dir_all(&dir).unwrap();
        // A sibling file that `with_extension("tmp")` would have clobbered.
        let decoy = dir.join("kb.tmp");
        std::fs::write(&decoy, "precious").unwrap();
        let path = dir.join("kb.json");
        let mut kb = KnowledgeBase::new();
        kb.record_run("d1", &mf(), run(Algorithm::Knn, 0.5));
        kb.save(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&decoy).unwrap(), "precious");
        assert!(!dir.join("kb.json.tmp").exists(), "temp file must not linger");
        assert_eq!(KnowledgeBase::load(&path).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
