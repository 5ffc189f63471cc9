//! Landmarker meta-features: accuracies of two extremely cheap models,
//! evaluated by a 2-fold split of the training rows. Landmarkers capture
//! *how learnable* a dataset is along two axes — axis-aligned separability
//! (decision stump) and centroid separability (nearest centroid) — which the
//! simple statistics of the canonical 25 can miss. Used by the
//! extended-similarity ablation.

use serde::{Deserialize, Serialize};
use smartml_classifiers::common::tree::{DecisionTree, Pruning, SplitCriterion, TreeConfig};
use smartml_data::{accuracy, Dataset, Feature};
use smartml_linalg::{vecops, Matrix};

/// The two landmarker accuracies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Landmarkers {
    /// Accuracy of the best single-feature threshold split.
    pub decision_stump: f64,
    /// Accuracy of nearest-class-centroid classification.
    pub nearest_centroid: f64,
}

/// Computes the landmarkers on `rows` of `data` with a half/half split.
pub fn landmarkers(data: &Dataset, rows: &[usize]) -> Landmarkers {
    let mid = rows.len() / 2;
    if mid == 0 || rows.len() - mid == 0 {
        return Landmarkers { decision_stump: 0.0, nearest_centroid: 0.0 };
    }
    let (train, test) = rows.split_at(mid);
    let (x_train, _) = data.to_numeric_matrix(train);
    let x_test = encode_with_train_fill(data, train, test);
    let y_train = data.labels_for(train);
    let y_test = data.labels_for(test);
    let k = data.n_classes();

    // Decision stump: a depth-1 Gini tree on the shared presorted kernel,
    // replacing the old hand-rolled quantile scan (exact best cut, and one
    // less split-finding implementation to maintain).
    let stump_pred = fit_predict_stump(data, train, test);
    let decision_stump = accuracy(&y_test, &stump_pred);

    // Nearest centroid.
    let centroid_pred = fit_predict_centroid(&x_train, &y_train, &x_test, k);
    let nearest_centroid = accuracy(&y_test, &centroid_pred);

    Landmarkers { decision_stump, nearest_centroid }
}

/// `to_numeric_matrix(test)`, except that a missing numeric cell takes the
/// train half's column mean — the value `to_numeric_matrix(train)` fills
/// the train half with — instead of the test half's own mean.
fn encode_with_train_fill(data: &Dataset, train: &[usize], test: &[usize]) -> Matrix {
    let (mut x, _) = data.to_numeric_matrix(test);
    let mut col = 0;
    for feat in data.features() {
        match feat {
            Feature::Numeric { values, .. } => {
                let (mut sum, mut n) = (0.0, 0usize);
                for v in train.iter().map(|&r| values[r]).filter(|v| !v.is_nan()) {
                    sum += v;
                    n += 1;
                }
                let fill = if n > 0 { sum / n as f64 } else { 0.0 };
                for (i, &r) in test.iter().enumerate() {
                    if values[r].is_nan() {
                        x[(i, col)] = fill;
                    }
                }
                col += 1;
            }
            Feature::Categorical { levels, .. } => col += levels.len(),
        }
    }
    x
}

fn fit_predict_stump(data: &Dataset, train: &[usize], test: &[usize]) -> Vec<u32> {
    let config = TreeConfig {
        criterion: SplitCriterion::Gini,
        max_depth: 1,
        min_split: 2.0,
        min_leaf: 1.0,
        cp: 0.0,
        mtry: None,
        seed: 0,
        pruning: Pruning::None,
        max_bins: 0,
    };
    let stump = DecisionTree::fit(data, train, &config);
    test.iter()
        .map(|&r| vecops::argmax(&stump.row_proba(data, r)).unwrap_or(0) as u32)
        .collect()
}

/// Nearest-centroid predictions: class means of `x_train` kept in one
/// flat `n_classes × d` buffer, each test row read in place.
fn fit_predict_centroid(
    x_train: &Matrix,
    y_train: &[u32],
    x_test: &Matrix,
    n_classes: usize,
) -> Vec<u32> {
    let d = x_train.cols();
    let mut centroids = vec![0.0; n_classes * d];
    let mut counts = vec![0usize; n_classes];
    for r in 0..x_train.rows() {
        let c = y_train[r] as usize;
        counts[c] += 1;
        for (v, &x) in centroids[c * d..(c + 1) * d].iter_mut().zip(x_train.row(r)) {
            *v += x;
        }
    }
    for (c, &count) in counts.iter().enumerate() {
        if count > 0 {
            for v in &mut centroids[c * d..(c + 1) * d] {
                *v /= count as f64;
            }
        }
    }
    (0..x_test.rows())
        .map(|r| {
            let row = &x_test.row(r)[..d];
            let mut best = (0u32, f64::INFINITY);
            for (c, &count) in counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let dist = vecops::euclidean_distance(row, &centroids[c * d..(c + 1) * d]);
                if dist < best.1 {
                    best = (c as u32, dist);
                }
            }
            best.0
        })
        .collect()
}

/// The per-row-`Vec` nearest-centroid predictor [`fit_predict_centroid`]
/// replaced: the oracle it must match bit for bit.
#[cfg(test)]
mod oracle {
    use smartml_linalg::{vecops, Matrix};

    pub(super) fn fit_predict_centroid(
        x_train: &Matrix,
        y_train: &[u32],
        x_test: &Matrix,
        n_classes: usize,
    ) -> Vec<u32> {
        let d = x_train.cols();
        let mut centroids = vec![vec![0.0; d]; n_classes];
        let mut counts = vec![0usize; n_classes];
        for r in 0..x_train.rows() {
            let c = y_train[r] as usize;
            counts[c] += 1;
            for (j, v) in centroids[c].iter_mut().enumerate() {
                *v += x_train[(r, j)];
            }
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            if counts[c] > 0 {
                for v in centroid.iter_mut() {
                    *v /= counts[c] as f64;
                }
            }
        }
        (0..x_test.rows())
            .map(|r| {
                let row: Vec<f64> = (0..d).map(|j| x_test[(r, j)]).collect();
                let mut best = (0u32, f64::INFINITY);
                for (c, centroid) in centroids.iter().enumerate() {
                    if counts[c] == 0 {
                        continue;
                    }
                    let dist = vecops::euclidean_distance(&row, centroid);
                    if dist < best.1 {
                        best = (c as u32, dist);
                    }
                }
                best.0
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smartml_data::synth::{gaussian_blobs, two_spirals};

    #[test]
    fn separable_blobs_score_high() {
        let d = gaussian_blobs("b", 200, 4, 2, 0.3, 1);
        let lm = landmarkers(&d, &d.all_rows());
        assert!(lm.nearest_centroid > 0.9, "centroid {}", lm.nearest_centroid);
        assert!(lm.decision_stump > 0.7, "stump {}", lm.decision_stump);
    }

    #[test]
    fn spirals_defeat_both_landmarkers() {
        let d = two_spirals("s", 300, 0.05, 2);
        let lm = landmarkers(&d, &d.all_rows());
        // Spirals wrap around each other: both simple models stay weak.
        assert!(lm.nearest_centroid < 0.75, "centroid {}", lm.nearest_centroid);
        assert!(lm.decision_stump < 0.75, "stump {}", lm.decision_stump);
    }

    #[test]
    fn degenerate_input_is_safe() {
        let d = gaussian_blobs("b", 4, 2, 2, 0.5, 3);
        let lm = landmarkers(&d, &[0]);
        assert_eq!(lm.decision_stump, 0.0);
        assert_eq!(lm.nearest_centroid, 0.0);
    }

    #[test]
    fn missing_test_cell_takes_the_train_mean() {
        // A constant categorical ahead of the numeric column shifts its
        // output column. Train half: x = 0, 0, 0, 10 (mean 2.5); test half:
        // x = 10, 10, 10, missing. Filled with the test half's own mean (10)
        // the missing row would sit on the class-1 centroid.
        let dataset = |last: f64| {
            let cat = Feature::Categorical {
                name: "c".into(),
                codes: vec![0; 8],
                levels: vec!["p".into(), "q".into()],
            };
            let x = Feature::Numeric {
                name: "x".into(),
                values: vec![0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0, last],
            };
            Dataset::new("m", vec![cat, x], vec![0, 0, 0, 1, 1, 1, 1, 0], vec!["a".into(), "b".into()])
                .unwrap()
        };
        let (with_gap, filled) = (dataset(f64::NAN), dataset(2.5));
        let rows = with_gap.all_rows();
        let got = landmarkers(&with_gap, &rows).nearest_centroid;
        let want = landmarkers(&filled, &rows).nearest_centroid;
        assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
        assert_eq!(got, 1.0);
    }

    proptest! {
        /// Flat centroids and in-place test rows pick the classes the
        /// per-row-`Vec` predictor picked, ties and empty classes included.
        #[test]
        fn centroid_predictions_match_the_per_row_oracle(
            (d, train, test, labels) in (1..6usize, 1..30usize, 0..30usize).prop_flat_map(|(d, n, m)| (
                Just(d),
                prop::collection::vec(-4i32..5, n * d..=n * d),
                prop::collection::vec(-4i32..5, m * d..=m * d),
                prop::collection::vec(0u32..4, n..=n),
            ))
        ) {
            // Small integer grid values: duplicate rows and equidistant
            // centroids are common, and class 4 never has a row.
            let matrix = |cells: &[i32]| {
                let data = cells.iter().map(|&v| v as f64 * 0.5).collect::<Vec<_>>();
                Matrix::from_vec(cells.len() / d, d, data)
            };
            let (x_train, x_test) = (matrix(&train), matrix(&test));
            prop_assert_eq!(
                fit_predict_centroid(&x_train, &labels, &x_test, 5),
                oracle::fit_predict_centroid(&x_train, &labels, &x_test, 5)
            );
        }
    }

    #[test]
    fn scores_are_probabilities() {
        let d = gaussian_blobs("b", 100, 3, 3, 2.0, 4);
        let lm = landmarkers(&d, &d.all_rows());
        assert!((0.0..=1.0).contains(&lm.decision_stump));
        assert!((0.0..=1.0).contains(&lm.nearest_centroid));
    }
}
