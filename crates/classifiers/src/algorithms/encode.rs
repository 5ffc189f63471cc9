//! Dense numeric encoding with train-fitted standardisation, shared by the
//! numeric-only classifiers (SVM, KNN, LDA/RDA, PLSDA, NeuralNet, LMT
//! leaves). The encoder remembers training means/stds so validation rows are
//! standardised with *training* statistics, and the training mean of each
//! numeric column's present cells so a missing cell is filled the same way
//! whatever rows it is encoded with.
//!
//! The layout is [`Dataset::to_numeric_matrix`]'s (numeric columns pass
//! through, categoricals one-hot, a missing code an all-zero block). Fit
//! gathers one output column at a time into a reused vector, as
//! `to_numeric_matrix` does, and takes the column's fill and statistics
//! from it; the training matrix is then just the encoding of the training
//! rows. Encoding goes column by column over short runs of rows, straight
//! from the dataset into the row-major output.

use smartml_data::{Dataset, Feature};
use smartml_linalg::{vecops, Matrix};

/// One-hot + standardisation encoder fitted on training rows.
#[derive(Debug, Clone)]
pub(crate) struct DenseEncoder {
    means: Vec<f64>,
    stds: Vec<f64>,
    /// Per output column: for a numeric feature, the training mean of its
    /// present cells (0.0 when none), the value of a missing cell; unused
    /// for one-hot columns.
    fills: Vec<f64>,
    standardize: bool,
}

/// Where an output column's cells come from.
#[derive(Clone, Copy)]
enum Source<'a> {
    Numeric(&'a [f64]),
    /// One level of a categorical: 1.0 where the code is that level.
    Level(&'a [u32], usize),
}

/// A fitted encoder over one dataset's columns.
pub(crate) struct BoundEncoder<'a> {
    encoder: &'a DenseEncoder,
    sources: Vec<Source<'a>>,
}

/// Rows [`DenseEncoder::encode`] hands to one [`BoundEncoder::encode_into`]
/// call: a run short enough that its column-by-column writes stay in cache.
const ENCODE_RUN: usize = 64;

impl DenseEncoder {
    /// Fits the encoder and returns it with the encoded training matrix.
    pub fn fit(data: &Dataset, rows: &[usize], standardize: bool) -> (DenseEncoder, Matrix) {
        let sources = sources(data);
        let (n, d) = (rows.len(), sources.len());
        let mut enc =
            DenseEncoder { means: vec![0.0; d], stds: vec![1.0; d], fills: vec![0.0; d], standardize };
        let mut col = Vec::with_capacity(n);
        for (c, source) in sources.iter().enumerate() {
            col.clear();
            match *source {
                Source::Numeric(values) => {
                    let mut sum = 0.0;
                    let mut present = 0usize;
                    for &r in rows {
                        let v = values[r];
                        if !v.is_nan() {
                            sum += v;
                            present += 1;
                        }
                        col.push(v);
                    }
                    let fill = if present > 0 { sum / present as f64 } else { 0.0 };
                    if present < n {
                        for v in col.iter_mut().filter(|v| v.is_nan()) {
                            *v = fill;
                        }
                    }
                    enc.fills[c] = fill;
                }
                Source::Level(codes, level) if standardize => {
                    col.extend(rows.iter().map(|&r| one_hot(codes[r], level)));
                }
                Source::Level(..) => continue,
            }
            if standardize {
                enc.means[c] = vecops::mean(&col);
                let s = vecops::std_dev(&col);
                enc.stds[c] = if s > 1e-12 { s } else { 1.0 };
            }
        }
        let x = enc.encode(data, rows);
        (enc, x)
    }

    /// Encodes arbitrary rows with the fitted statistics; a row's encoding
    /// does not depend on the other rows.
    pub fn encode(&self, data: &Dataset, rows: &[usize]) -> Matrix {
        let bound = self.bind(data);
        let d = self.dim();
        let mut m = Matrix::zeros(rows.len(), d);
        let outs = m.as_mut_slice().chunks_mut((ENCODE_RUN * d).max(1));
        for (run, out) in rows.chunks(ENCODE_RUN).zip(outs) {
            bound.encode_into(run, out);
        }
        m
    }

    /// The encoder over `data`'s columns, for encoding rows a few at a time.
    pub fn bind<'a>(&'a self, data: &'a Dataset) -> BoundEncoder<'a> {
        let sources = sources(data);
        // The width can only change if the dataset schema changed between
        // fit and predict, which the pipeline never does.
        assert_eq!(sources.len(), self.dim(), "schema changed between fit and predict");
        BoundEncoder { encoder: self, sources }
    }

    /// Encoded feature dimension.
    pub fn dim(&self) -> usize {
        self.means.len()
    }
}

impl BoundEncoder<'_> {
    /// Writes the encodings of `rows` row-major into `out`
    /// (`rows.len() * dim` cells), one output column at a time.
    pub fn encode_into(&self, rows: &[usize], out: &mut [f64]) {
        let enc = self.encoder;
        let d = self.sources.len();
        debug_assert_eq!(out.len(), rows.len() * d);
        for (c, source) in self.sources.iter().enumerate() {
            let (mu, sd) = (enc.means[c], enc.stds[c]);
            let scale = |v: f64| if enc.standardize { (v - mu) / sd } else { v };
            let cells = out.iter_mut().skip(c).step_by(d).zip(rows);
            match *source {
                Source::Numeric(values) => {
                    let fill = enc.fills[c];
                    for (slot, &r) in cells {
                        let v = values[r];
                        *slot = scale(if v.is_nan() { fill } else { v });
                    }
                }
                Source::Level(codes, level) => {
                    for (slot, &r) in cells {
                        *slot = scale(one_hot(codes[r], level));
                    }
                }
            }
        }
    }
}

/// The output columns: one per numeric feature, one per level of each
/// categorical.
fn sources(data: &Dataset) -> Vec<Source<'_>> {
    let mut sources = Vec::new();
    for feat in data.features() {
        match feat {
            Feature::Numeric { values, .. } => sources.push(Source::Numeric(values)),
            Feature::Categorical { codes, levels, .. } => {
                sources.extend((0..levels.len()).map(|level| Source::Level(codes, level)));
            }
        }
    }
    sources
}

fn one_hot(code: u32, level: usize) -> f64 {
    if code as usize == level {
        1.0
    } else {
        0.0
    }
}

/// The encoder as it was: `to_numeric_matrix`, a strided re-collect per
/// column for the statistics, then a row-wise standardisation pass — with
/// missing cells filled by the training fill (the rows being encoded once
/// filled them with their own mean).
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// `data` with every missing numeric cell set to its fitted fill, so
    /// `to_numeric_matrix` has nothing left to impute.
    fn filled(data: &Dataset, fills: &[f64]) -> Dataset {
        let mut c = 0;
        let features = data
            .features()
            .iter()
            .map(|f| match f {
                Feature::Numeric { name, values } => {
                    let fill = fills[c];
                    c += 1;
                    Feature::Numeric {
                        name: name.clone(),
                        values: values.iter().map(|&v| if v.is_nan() { fill } else { v }).collect(),
                    }
                }
                Feature::Categorical { levels, .. } => {
                    c += levels.len();
                    f.clone()
                }
            })
            .collect();
        data.with_features(features)
    }

    /// Per output column, the training mean of a numeric feature's present
    /// cells; 0.0 for one-hot columns.
    fn fills(data: &Dataset, rows: &[usize]) -> Vec<f64> {
        let mut fills = Vec::new();
        for f in data.features() {
            match f {
                Feature::Numeric { values, .. } => {
                    let (mut sum, mut n) = (0.0, 0usize);
                    for &r in rows {
                        if !values[r].is_nan() {
                            sum += values[r];
                            n += 1;
                        }
                    }
                    fills.push(if n > 0 { sum / n as f64 } else { 0.0 });
                }
                Feature::Categorical { levels, .. } => fills.extend(vec![0.0; levels.len()]),
            }
        }
        fills
    }

    pub(crate) fn fit(data: &Dataset, rows: &[usize], standardize: bool) -> (DenseEncoder, Matrix) {
        let (mut m, _) = data.to_numeric_matrix(rows);
        let d = m.cols();
        let mut means = vec![0.0; d];
        let mut stds = vec![1.0; d];
        if standardize {
            for c in 0..d {
                let col: Vec<f64> = (0..m.rows()).map(|r| m[(r, c)]).collect();
                means[c] = vecops::mean(&col);
                let s = vecops::std_dev(&col);
                stds[c] = if s > 1e-12 { s } else { 1.0 };
            }
            apply(&mut m, &means, &stds);
        }
        (DenseEncoder { means, stds, fills: fills(data, rows), standardize }, m)
    }

    pub(crate) fn encode(enc: &DenseEncoder, data: &Dataset, rows: &[usize]) -> Matrix {
        let (mut m, _) = filled(data, &enc.fills).to_numeric_matrix(rows);
        if enc.standardize {
            apply(&mut m, &enc.means, &enc.stds);
        }
        m
    }

    fn apply(m: &mut Matrix, means: &[f64], stds: &[f64]) {
        for r in 0..m.rows() {
            let row = m.row_mut(r);
            for ((v, &mu), &sd) in row.iter_mut().zip(means).zip(stds) {
                *v = (*v - mu) / sd;
            }
        }
    }

    pub(crate) fn same_stats(a: &DenseEncoder, b: &DenseEncoder) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        bits(&a.means) == bits(&b.means)
            && bits(&a.stds) == bits(&b.stds)
            && bits(&a.fills) == bits(&b.fills)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testdata::{mixed, Shape};
    use proptest::prelude::*;
    use smartml_data::synth::gaussian_blobs;

    proptest! {
        #[test]
        fn fit_and_encode_match_the_oracle(
            (seed, rows, numeric) in (any::<u64>(), 2usize..200, 1usize..=90),
            (categorical, standardize) in (any::<bool>(), any::<bool>()),
        ) {
            let shape = Shape { seed, rows, numeric, categorical, classes: 3, empty_class: false };
            let (data, train, test) = mixed(shape);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let (enc, x) = DenseEncoder::fit(&data, &train, standardize);
            let (oracle_enc, oracle_x) = oracle::fit(&data, &train, standardize);
            prop_assert!(oracle::same_stats(&enc, &oracle_enc), "{shape:?}");
            prop_assert_eq!(bits(&x), bits(&oracle_x), "{shape:?}");
            prop_assert_eq!(
                bits(&enc.encode(&data, &test)),
                bits(&oracle::encode(&enc, &data, &test)),
                "{shape:?}"
            );
        }
    }

    #[test]
    fn train_stats_applied_to_test() {
        let d = gaussian_blobs("b", 100, 3, 2, 1.0, 1);
        let train: Vec<usize> = (0..50).collect();
        let test: Vec<usize> = (50..100).collect();
        let (enc, xtrain) = DenseEncoder::fit(&d, &train, true);
        // Training columns are standardised.
        for c in 0..xtrain.cols() {
            let col: Vec<f64> = (0..xtrain.rows()).map(|r| xtrain[(r, c)]).collect();
            assert!(vecops::mean(&col).abs() < 1e-9);
        }
        // Test columns use train statistics: near-standard but not exact.
        let xtest = enc.encode(&d, &test);
        assert_eq!(xtest.cols(), enc.dim());
        for c in 0..xtest.cols() {
            let col: Vec<f64> = (0..xtest.rows()).map(|r| xtest[(r, c)]).collect();
            assert!(vecops::mean(&col).abs() < 1.0);
        }
    }

    #[test]
    fn no_standardize_passthrough() {
        let d = gaussian_blobs("b", 20, 2, 2, 1.0, 2);
        let rows = d.all_rows();
        let (enc, x) = DenseEncoder::fit(&d, &rows, false);
        let (raw, _) = d.to_numeric_matrix(&rows);
        assert_eq!(x, raw);
        assert_eq!(enc.encode(&d, &rows), raw);
    }

    #[test]
    fn missing_cells_take_the_training_mean_in_any_batch() {
        let d = Dataset::new(
            "m",
            vec![Feature::Numeric { name: "x".into(), values: vec![1.0, 3.0, f64::NAN, 10.0, f64::NAN] }],
            vec![0, 1, 0, 1, 0],
            vec!["a".into(), "b".into()],
        )
        .unwrap();
        let (enc, x) = DenseEncoder::fit(&d, &[0, 1, 2], false);
        assert_eq!(x.as_slice(), &[1.0, 3.0, 2.0]);
        // A one-row batch and a batch whose present mean is 10 both fill 2.
        assert_eq!(enc.encode(&d, &[4]).as_slice(), &[2.0]);
        assert_eq!(enc.encode(&d, &[3, 4]).as_slice(), &[10.0, 2.0]);
    }
}
