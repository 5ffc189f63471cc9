//! Datasets for the bit-identity tests of the dense kernels against their
//! per-row oracles.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartml_data::dataset::MISSING_CODE;
use smartml_data::{Dataset, Feature};

/// What [`mixed`] builds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    pub seed: u64,
    pub rows: usize,
    /// Numeric columns; one more categorical column of three levels when
    /// `categorical`.
    pub numeric: usize,
    pub categorical: bool,
    pub classes: usize,
    /// Leaves the last class out of the training rows (needs `classes > 2`).
    pub empty_class: bool,
}

/// A dataset of `shape` with train and held-out rows: every third row is
/// held out. Numeric columns mix scales from 1e-3 to 1e3, about one cell in
/// ten is missing (training and held-out rows alike), the first column is
/// constant for even seeds, and labels shift the column means.
pub(crate) fn mixed(shape: Shape) -> (Dataset, Vec<usize>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(shape.seed);
    let n = shape.rows;
    let (train, test): (Vec<usize>, Vec<usize>) = (0..n).partition(|i| i % 3 != 2);
    let train_classes = if shape.empty_class && shape.classes > 2 {
        shape.classes - 1
    } else {
        shape.classes
    };
    let mut labels = vec![0u32; n];
    for (pos, &r) in train.iter().enumerate() {
        // The first rows cover every training class.
        labels[r] =
            if pos < train_classes { pos } else { rng.gen_range(0..train_classes) } as u32;
    }
    for &r in &test {
        labels[r] = rng.gen_range(0..shape.classes) as u32;
    }
    let mut features = Vec::new();
    for j in 0..shape.numeric {
        let scale = [1e-3, 1.0, 1e3][rng.gen_range(0..3usize)];
        let constant = j == 0 && shape.seed.is_multiple_of(2);
        let values = labels
            .iter()
            .map(|&y| {
                if rng.gen_bool(0.1) {
                    f64::NAN
                } else if constant {
                    2.5
                } else {
                    scale * (rng.gen_range(-1.0..1.0) + 0.7 * f64::from(y) * ((j % 3) as f64 - 1.0))
                }
            })
            .collect();
        features.push(Feature::Numeric { name: format!("x{j}"), values });
    }
    if shape.categorical {
        let codes = (0..n)
            .map(|_| if rng.gen_bool(0.1) { MISSING_CODE } else { rng.gen_range(0..3u32) })
            .collect();
        features.push(Feature::Categorical {
            name: "cat".into(),
            codes,
            levels: vec!["a".into(), "b".into(), "c".into()],
        });
    }
    let class_names = (0..shape.classes).map(|c| format!("c{c}")).collect();
    (Dataset::new("mixed", features, labels, class_names).unwrap(), train, test)
}

/// Bit patterns of a probability table.
pub(crate) fn bits(p: &[Vec<f64>]) -> Vec<Vec<u64>> {
    p.iter().map(|row| row.iter().map(|v| v.to_bits()).collect()).collect()
}
