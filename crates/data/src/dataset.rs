//! Columnar dataset representation.
//!
//! A [`Dataset`] stores features column-wise — numeric columns as `Vec<f64>`
//! (NaN marks a missing value) and categorical columns as integer codes with
//! a level table (`MISSING_CODE` marks a missing value). Labels are dense
//! class codes `0..n_classes`. Row subsets (train/validation splits, CV
//! folds) are expressed as index slices so splits never copy feature data.

use smartml_linalg::Matrix;

/// Sentinel code for a missing categorical value.
pub const MISSING_CODE: u32 = u32::MAX;

/// A single feature column.
#[derive(Debug, Clone, PartialEq)]
pub enum Feature {
    /// Numeric column; `NaN` encodes a missing value.
    Numeric { name: String, values: Vec<f64> },
    /// Categorical column as dense codes into `levels`;
    /// [`MISSING_CODE`] encodes a missing value.
    Categorical { name: String, codes: Vec<u32>, levels: Vec<String> },
}

impl Feature {
    /// Column name.
    pub fn name(&self) -> &str {
        match self {
            Feature::Numeric { name, .. } | Feature::Categorical { name, .. } => name,
        }
    }

    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Feature::Numeric { values, .. } => values.len(),
            Feature::Categorical { codes, .. } => codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for numeric columns.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Feature::Numeric { .. })
    }

    /// Number of missing entries.
    pub fn missing_count(&self) -> usize {
        match self {
            Feature::Numeric { values, .. } => values.iter().filter(|v| v.is_nan()).count(),
            Feature::Categorical { codes, .. } => {
                codes.iter().filter(|&&c| c == MISSING_CODE).count()
            }
        }
    }
}

/// Errors constructing or validating datasets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// A feature column's length differs from the label column's.
    LengthMismatch { feature: String, expected: usize, got: usize },
    /// A label code is out of range for the declared class list.
    LabelOutOfRange { row: usize, label: u32, n_classes: usize },
    /// The dataset has no rows.
    Empty,
    /// A parse failure with location context (used by the CSV/ARFF readers).
    Parse(String),
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::LengthMismatch { feature, expected, got } => {
                write!(f, "feature '{feature}' has {got} rows, expected {expected}")
            }
            DatasetError::LabelOutOfRange { row, label, n_classes } => {
                write!(f, "row {row}: label {label} out of range for {n_classes} classes")
            }
            DatasetError::Empty => write!(f, "dataset has no rows"),
            DatasetError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// A labelled classification dataset with columnar feature storage.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable dataset name (file stem or generator id).
    pub name: String,
    features: Vec<Feature>,
    labels: Vec<u32>,
    class_names: Vec<String>,
}

impl Dataset {
    /// Builds and validates a dataset.
    pub fn new(
        name: impl Into<String>,
        features: Vec<Feature>,
        labels: Vec<u32>,
        class_names: Vec<String>,
    ) -> Result<Self, DatasetError> {
        if labels.is_empty() {
            return Err(DatasetError::Empty);
        }
        for feat in &features {
            if feat.len() != labels.len() {
                return Err(DatasetError::LengthMismatch {
                    feature: feat.name().to_string(),
                    expected: labels.len(),
                    got: feat.len(),
                });
            }
        }
        let n_classes = class_names.len();
        for (row, &label) in labels.iter().enumerate() {
            if label as usize >= n_classes {
                return Err(DatasetError::LabelOutOfRange { row, label, n_classes });
            }
        }
        Ok(Dataset { name: name.into(), features, labels, class_names })
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Borrow the feature columns.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// Borrow one feature column.
    pub fn feature(&self, idx: usize) -> &Feature {
        &self.features[idx]
    }

    /// Borrow the label column.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Label of one row.
    pub fn label(&self, row: usize) -> u32 {
        self.labels[row]
    }

    /// Borrow the class names.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Per-class instance counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes()];
        for &l in &self.labels {
            counts[l as usize] += 1;
        }
        counts
    }

    /// Per-class counts restricted to a row subset.
    pub fn class_counts_for(&self, rows: &[usize]) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes()];
        for &r in rows {
            counts[self.labels[r] as usize] += 1;
        }
        counts
    }

    /// Total missing cells across all feature columns.
    pub fn missing_cells(&self) -> usize {
        self.features.iter().map(Feature::missing_count).sum()
    }

    /// Indices of numeric feature columns.
    pub fn numeric_feature_indices(&self) -> Vec<usize> {
        self.features
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_numeric())
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of categorical feature columns.
    pub fn categorical_feature_indices(&self) -> Vec<usize> {
        self.features
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.is_numeric())
            .map(|(i, _)| i)
            .collect()
    }

    /// Dense numeric representation of a row subset.
    ///
    /// Numeric columns pass through (missing → column mean over the subset,
    /// 0.0 if entirely missing); categorical columns are one-hot encoded
    /// (missing → all-zero block). Returns the matrix and per-output-column
    /// names. This is what numeric-only classifiers (SVM, LDA, the MLP, …)
    /// consume after preprocessing.
    pub fn to_numeric_matrix(&self, rows: &[usize]) -> (Matrix, Vec<String>) {
        let mut out_cols: Vec<Vec<f64>> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        for feat in &self.features {
            match feat {
                Feature::Numeric { name, values } => {
                    let mut col = Vec::with_capacity(rows.len());
                    let mut sum = 0.0;
                    let mut n = 0usize;
                    for &r in rows {
                        let v = values[r];
                        if !v.is_nan() {
                            sum += v;
                            n += 1;
                        }
                        col.push(v);
                    }
                    let fill = if n > 0 { sum / n as f64 } else { 0.0 };
                    for v in &mut col {
                        if v.is_nan() {
                            *v = fill;
                        }
                    }
                    out_cols.push(col);
                    names.push(name.clone());
                }
                Feature::Categorical { name, codes, levels } => {
                    for (lvl_idx, lvl) in levels.iter().enumerate() {
                        let col: Vec<f64> = rows
                            .iter()
                            .map(|&r| if codes[r] as usize == lvl_idx { 1.0 } else { 0.0 })
                            .collect();
                        out_cols.push(col);
                        names.push(format!("{name}={lvl}"));
                    }
                }
            }
        }
        let n_rows = rows.len();
        let n_cols = out_cols.len();
        let mut m = Matrix::zeros(n_rows, n_cols);
        for (c, col) in out_cols.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                m[(r, c)] = v;
            }
        }
        (m, names)
    }

    /// Labels of a row subset.
    pub fn labels_for(&self, rows: &[usize]) -> Vec<u32> {
        rows.iter().map(|&r| self.labels[r]).collect()
    }

    /// Builds a new dataset containing only `rows` (copies data; splits
    /// normally stay index-based — this is for preprocessing fit boundaries).
    pub fn subset(&self, rows: &[usize]) -> Dataset {
        let features = self
            .features
            .iter()
            .map(|f| match f {
                Feature::Numeric { name, values } => Feature::Numeric {
                    name: name.clone(),
                    values: rows.iter().map(|&r| values[r]).collect(),
                },
                Feature::Categorical { name, codes, levels } => Feature::Categorical {
                    name: name.clone(),
                    codes: rows.iter().map(|&r| codes[r]).collect(),
                    levels: levels.clone(),
                },
            })
            .collect();
        Dataset {
            name: self.name.clone(),
            features,
            labels: rows.iter().map(|&r| self.labels[r]).collect(),
            class_names: self.class_names.clone(),
        }
    }

    /// Replaces the feature columns (used by preprocessing transforms).
    ///
    /// # Panics
    /// Panics if any new column's length differs from the label count.
    pub fn with_features(&self, features: Vec<Feature>) -> Dataset {
        for f in &features {
            assert_eq!(f.len(), self.labels.len(), "column '{}' length mismatch", f.name());
        }
        Dataset {
            name: self.name.clone(),
            features,
            labels: self.labels.clone(),
            class_names: self.class_names.clone(),
        }
    }

    /// Sets cell `rows[i]` of column `idx` to cell `from[i]` of `source`,
    /// for each `i` in order: how a permutation test writes a shuffled copy
    /// of a column within `rows`. The column keeps its length and type.
    ///
    /// # Panics
    /// Panics if `source` is not the same kind of column as column `idx`
    /// or `rows` and `from` differ in length.
    pub fn copy_cells(&mut self, idx: usize, source: &Feature, rows: &[usize], from: &[usize]) {
        assert_eq!(rows.len(), from.len(), "copy_cells: rows and from differ in length");
        match (&mut self.features[idx], source) {
            (Feature::Numeric { values, .. }, Feature::Numeric { values: src, .. }) => {
                for (&dst, &s) in rows.iter().zip(from) {
                    values[dst] = src[s];
                }
            }
            (Feature::Categorical { codes, .. }, Feature::Categorical { codes: src, .. }) => {
                for (&dst, &s) in rows.iter().zip(from) {
                    codes[dst] = src[s];
                }
            }
            _ => panic!("copy_cells: column {idx} and its source are different kinds"),
        }
    }

    /// All row indices, `0..n_rows`.
    pub fn all_rows(&self) -> Vec<usize> {
        (0..self.n_rows()).collect()
    }

    /// A human-readable per-column summary (df.describe-style): name, type,
    /// missing count, and either min/mean/max (numeric) or the level count
    /// and mode (categorical).
    pub fn describe(&self) -> String {
        use smartml_linalg::vecops;
        let mut out = format!(
            "Dataset '{}': {} rows x {} features, {} classes {:?}\n",
            self.name,
            self.n_rows(),
            self.n_features(),
            self.n_classes(),
            self.class_names
        );
        out.push_str(&format!(
            "class counts: {:?}\n",
            self.class_counts()
        ));
        for feat in &self.features {
            match feat {
                Feature::Numeric { name, values } => {
                    let clean: Vec<f64> =
                        values.iter().copied().filter(|v| !v.is_nan()).collect();
                    out.push_str(&format!(
                        "  {:<20} numeric      missing={:<4} min={:<10.4} mean={:<10.4} max={:<10.4} sd={:.4}\n",
                        name,
                        feat.missing_count(),
                        vecops::min(&clean),
                        vecops::mean(&clean),
                        vecops::max(&clean),
                        vecops::std_dev(&clean),
                    ));
                }
                Feature::Categorical { name, codes, levels } => {
                    let mut counts = vec![0usize; levels.len()];
                    for &c in codes {
                        if c != MISSING_CODE {
                            counts[c as usize] += 1;
                        }
                    }
                    let mode = counts
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, &c)| c)
                        .map(|(i, _)| levels[i].as_str())
                        .unwrap_or("-");
                    out.push_str(&format!(
                        "  {:<20} categorical  missing={:<4} levels={:<4} mode={}\n",
                        name,
                        feat.missing_count(),
                        levels.len(),
                        mode,
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            "toy",
            vec![
                Feature::Numeric { name: "x".into(), values: vec![1.0, 2.0, f64::NAN, 4.0] },
                Feature::Categorical {
                    name: "c".into(),
                    codes: vec![0, 1, 0, MISSING_CODE],
                    levels: vec!["a".into(), "b".into()],
                },
            ],
            vec![0, 1, 0, 1],
            vec!["neg".into(), "pos".into()],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_counts() {
        let d = toy();
        assert_eq!(d.n_rows(), 4);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.n_classes(), 2);
        assert_eq!(d.class_counts(), vec![2, 2]);
        assert_eq!(d.missing_cells(), 2);
        assert_eq!(d.numeric_feature_indices(), vec![0]);
        assert_eq!(d.categorical_feature_indices(), vec![1]);
    }

    #[test]
    fn rejects_length_mismatch() {
        let err = Dataset::new(
            "bad",
            vec![Feature::Numeric { name: "x".into(), values: vec![1.0] }],
            vec![0, 1],
            vec!["a".into(), "b".into()],
        )
        .unwrap_err();
        assert!(matches!(err, DatasetError::LengthMismatch { .. }));
    }

    #[test]
    fn rejects_bad_label() {
        let err = Dataset::new(
            "bad",
            vec![],
            vec![0, 5],
            vec!["a".into(), "b".into()],
        )
        .unwrap_err();
        assert!(matches!(err, DatasetError::LabelOutOfRange { row: 1, label: 5, .. }));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            Dataset::new("bad", vec![], vec![], vec![]),
            Err(DatasetError::Empty)
        ));
    }

    #[test]
    fn numeric_matrix_one_hot_and_impute() {
        let d = toy();
        let rows = d.all_rows();
        let (m, names) = d.to_numeric_matrix(&rows);
        assert_eq!(m.shape(), (4, 3)); // 1 numeric + 2 one-hot
        assert_eq!(names, vec!["x", "c=a", "c=b"]);
        // Missing numeric imputed with mean of (1,2,4) = 7/3.
        assert!((m[(2, 0)] - 7.0 / 3.0).abs() < 1e-12);
        // Missing categorical row 3 → all-zero block.
        assert_eq!(m[(3, 1)], 0.0);
        assert_eq!(m[(3, 2)], 0.0);
        // One-hot correctness.
        assert_eq!(m[(0, 1)], 1.0);
        assert_eq!(m[(1, 2)], 1.0);
    }

    #[test]
    fn subset_copies_rows() {
        let d = toy();
        let s = d.subset(&[1, 2]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.labels(), &[1, 0]);
        match s.feature(0) {
            Feature::Numeric { values, .. } => {
                assert_eq!(values[0], 2.0);
                assert!(values[1].is_nan());
            }
            _ => panic!("expected numeric"),
        }
    }

    #[test]
    fn describe_mentions_every_column() {
        let d = toy();
        let text = d.describe();
        assert!(text.contains("'toy'"));
        assert!(text.contains("x") && text.contains("numeric"));
        assert!(text.contains("c") && text.contains("categorical"));
        assert!(text.contains("missing=1"));
    }

    #[test]
    fn class_counts_for_subset() {
        let d = toy();
        assert_eq!(d.class_counts_for(&[0, 1]), vec![1, 1]);
        assert_eq!(d.class_counts_for(&[1, 3]), vec![0, 2]);
    }
}
