//! Input strategies shared by the kernel equivalence suites.

use proptest::prelude::*;
use smartml_linalg::Matrix;

pub const MAX_ABS: f64 = 10.0;

pub fn vec_pair(max_len: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0usize..=max_len).prop_flat_map(|n| {
        (
            prop::collection::vec(-MAX_ABS..MAX_ABS, n..=n),
            prop::collection::vec(-MAX_ABS..MAX_ABS, n..=n),
        )
    })
}

pub fn matrix(rows: std::ops::RangeInclusive<usize>, cols: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-MAX_ABS..MAX_ABS, r * c..=r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}
