//! The dense nearest-dataset index a serving store keeps beside its
//! entries: every dataset's meta-features as one row-major matrix in
//! global insertion order ([`FeatureTable`]) and their z-scores in the
//! same layout ([`ZIndex`]), rebuilt into the buffer it already owns
//! after a write and scanned without allocating per row.
//!
//! ## Bit-identity with the monolithic query
//!
//! [`KnowledgeBase::recommend_extended`](crate::KnowledgeBase) is the
//! reference: `normalisation_stats_over`, `normalise`, a stable sort by
//! distance, [`vote_ranked`](crate::vote_ranked). A [`ZIndex`] must pick
//! the same neighbours at the same distances, to the last bit:
//!
//! - **Means.** The reference sums each feature over the rows in order,
//!   then divides by `n`. [`ZIndex::rebuild`] keeps those sums between
//!   rebuilds: adding the rows appended since is the same left-to-right
//!   summation carried on, so `sum / n` has the same bits. An overwrite
//!   that changed a row's bits — or a cleared table — invalidates them
//!   and costs one re-sum.
//! - **Standard deviations.** One sweep of `(v - m) * (v - m)` with the
//!   new means, as the reference does. Nothing cheaper is exact: every
//!   term depends on the mean, which moved, and a running second moment
//!   (Welford, or `Σv² − n·m²`) rounds differently.
//! - **Z-scores.** One more sweep of the reference's `(v - m) / s`; not
//!   `* (1 / s)`, which rounds twice.
//! - **Selection.** Rows are visited in insertion order, so `(distance,
//!   row)` is a strict total order and the reference's stable sort is
//!   the sort by it. The `k` smallest under a strict total order are one
//!   fixed set, so a bounded heap of the best `k` seen so far, sorted at
//!   the end, is the reference's first `k` — in O(n log k), not
//!   O(n log n), and with `k` clamped to `n` before it sizes anything.

use crate::query::{entry_distance, z_score, QueryOptions};
use smartml_metafeatures::{Landmarkers, N_META_FEATURES as WIDTH};
use std::collections::BinaryHeap;

/// Largest magnitude admitted. With every value inside it, sums, squared
/// deviations and squared z-score differences stay finite for any store
/// that fits in memory, so no distance is ever NaN.
const MAX_MAGNITUDE: f64 = 1e100;

fn admissible(v: f64) -> bool {
    v.is_finite() && v.abs() <= MAX_MAGNITUDE
}

/// The one admission check for meta-features arriving from outside —
/// the wire, a WAL, a snapshot, an in-process caller: exactly
/// [`N_META_FEATURES`](smartml_metafeatures::N_META_FEATURES) values,
/// all finite and within ±1e100. Anything else would either not fit a
/// row of the index or turn every later distance into NaN.
pub fn check_meta_features(values: &[f64]) -> Result<(), String> {
    if values.len() != WIDTH {
        return Err(format!("expected {WIDTH} meta-features, got {}", values.len()));
    }
    match values.iter().position(|&v| !admissible(v)) {
        Some(i) => Err(format!(
            "meta-feature {i} is {}: not a finite value within ±{MAX_MAGNITUDE:e}",
            values[i]
        )),
        None => Ok(()),
    }
}

/// [`check_meta_features`] for landmarker accuracies, which join the
/// same distance when a query asks for them.
pub fn check_landmarkers(marks: Landmarkers) -> Result<(), String> {
    if admissible(marks.decision_stump) && admissible(marks.nearest_centroid) {
        Ok(())
    } else {
        Err(format!("{marks:?} are not finite values within ±{MAX_MAGNITUDE:e}"))
    }
}

/// Both checks over what a query or a stored entry carries.
pub fn check_carried(values: &[f64], marks: Option<Landmarkers>) -> Result<(), String> {
    check_meta_features(values)?;
    marks.map_or(Ok(()), check_landmarkers)
}

/// Current meta-features of every dataset: row `r` is the dataset with
/// global insertion sequence `r`, `N_META_FEATURES` values wide.
#[derive(Debug, Default)]
pub struct FeatureTable {
    rows: Vec<f64>,
    /// Moves when a row is appended or its bits change, and only then.
    version: u64,
    /// `version` as of the last change that was not an append.
    rewritten_at: u64,
}

impl FeatureTable {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len() / WIDTH
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The content version a [`ZIndex`] is keyed on.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Appends a row ([`check_meta_features`] must have passed).
    pub fn push(&mut self, values: &[f64]) {
        assert_eq!(values.len(), WIDTH, "unchecked meta-features reached the index");
        self.rows.extend_from_slice(values);
        self.version += 1;
    }

    /// Overwrites row `row`. Identical bits leave the version alone: the
    /// z-scores are a function of the table's bits and nothing else.
    pub fn set(&mut self, row: usize, values: &[f64]) {
        assert_eq!(values.len(), WIDTH, "unchecked meta-features reached the index");
        let held = &mut self.rows[row * WIDTH..(row + 1) * WIDTH];
        if held.iter().zip(values).any(|(a, b)| a.to_bits() != b.to_bits()) {
            held.copy_from_slice(values);
            self.version += 1;
            self.rewritten_at = self.version;
        }
    }

    /// Drops every row. The version keeps moving, so no [`ZIndex`] built
    /// before can pass for one built after.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.version += 1;
        self.rewritten_at = self.version;
    }
}

/// The z-scores of one [`FeatureTable`] as of one version of it. A
/// `ZIndex` follows a single table for its whole life.
#[derive(Debug, Default)]
pub struct ZIndex {
    version: u64,
    /// Per-feature sums over the table's first `summed` rows, in order.
    sums: [f64; WIDTH],
    summed: usize,
    means: [f64; WIDTH],
    stds: [f64; WIDTH],
    z: Vec<f64>,
}

impl ZIndex {
    /// The [`FeatureTable::version`] this index was last rebuilt for.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Recomputes statistics and z-scores for `table`, reusing this
    /// index's buffer (see the module docs for why each step has the
    /// reference's bits).
    pub fn rebuild(&mut self, table: &FeatureTable) {
        if table.rewritten_at > self.version {
            (self.sums, self.summed) = ([0.0; WIDTH], 0);
        }
        for row in table.rows[self.summed * WIDTH..].chunks_exact(WIDTH) {
            for (s, &v) in self.sums.iter_mut().zip(row) {
                *s += v;
            }
        }
        self.summed = table.len();
        let n = table.len() as f64;
        for (m, &s) in self.means.iter_mut().zip(&self.sums) {
            *m = s / n;
        }
        let mut squares = [0.0; WIDTH];
        for row in table.rows.chunks_exact(WIDTH) {
            for ((s, &v), &m) in squares.iter_mut().zip(row).zip(&self.means) {
                *s += (v - m) * (v - m);
            }
        }
        for (std, &s) in self.stds.iter_mut().zip(&squares) {
            *std = (s / n).sqrt();
            if *std < 1e-12 {
                *std = 1.0; // constant meta-feature carries no signal
            }
        }
        self.z.resize(table.rows.len(), 0.0);
        for (z_row, row) in self.z.chunks_exact_mut(WIDTH).zip(table.rows.chunks_exact(WIDTH)) {
            for (((z, &v), &m), &s) in z_row.iter_mut().zip(row).zip(&self.means).zip(&self.stds) {
                *z = z_score(v, m, s);
            }
        }
        self.version = table.version;
    }

    /// `(row, distance)` of the `options.n_neighbors` rows nearest to
    /// `query` (checked meta-feature values), nearest first, ties by row.
    /// `landmarkers_of` is asked for a row's landmarkers only when the
    /// distance can use them: `use_landmarkers` set and the query
    /// carrying its own.
    pub fn nearest(
        &self,
        query: &[f64],
        query_landmarkers: Option<Landmarkers>,
        options: &QueryOptions,
        landmarkers_of: impl Fn(usize) -> Option<Landmarkers>,
    ) -> Vec<(usize, f64)> {
        assert_eq!(query.len(), WIDTH, "unchecked meta-features reached the index");
        let k = options.n_neighbors.max(1).min(self.z.len() / WIDTH);
        let mut query_z = [0.0; WIDTH];
        for (((z, &v), &m), &s) in query_z.iter_mut().zip(query).zip(&self.means).zip(&self.stds) {
            *z = z_score(v, m, s);
        }
        let extended = options.use_landmarkers && query_landmarkers.is_some();
        // A distance is a square root: never negative, not even -0.0, so
        // its bit pattern orders as its value does (and a NaN, should one
        // ever arise, sorts last where `partial_cmp` would panic).
        let mut best: BinaryHeap<(u64, usize)> = BinaryHeap::with_capacity(k);
        for (row, entry_z) in self.z.chunks_exact(WIDTH).enumerate() {
            let marks = if extended { landmarkers_of(row) } else { None };
            let distance = entry_distance(&query_z, entry_z, marks, query_landmarkers, options);
            let candidate = (distance.to_bits(), row);
            if best.len() < k {
                best.push(candidate);
            } else if let Some(mut worst) = best.peek_mut() {
                if candidate < *worst {
                    *worst = candidate;
                }
            }
        }
        best.into_sorted_vec().into_iter().map(|(bits, row)| (row, f64::from_bits(bits))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{normalisation_stats_over, normalise};
    use proptest::prelude::*;

    /// A row from a small pool, so histories repeat vectors: identical
    /// overwrites, duplicate rows, and two columns constant throughout.
    fn pooled(pick: usize) -> Vec<f64> {
        (0..WIDTH)
            .map(|j| match j {
                3 => 7.25,
                11 => 0.0,
                _ => ((pick * 31 + j * 17) % 23) as f64 * 10f64.powi(j as i32 % 7 - 3) - 1.5,
            })
            .collect()
    }

    #[derive(Debug, Clone)]
    enum Op {
        Push(usize),
        Set(usize, usize),
        Clear,
        Rebuild,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..9usize).prop_map(Op::Push),
            (0..9usize).prop_map(Op::Push),
            (0..64usize, 0..9usize).prop_map(|(row, pick)| Op::Set(row, pick)),
            (0..40usize).prop_map(|n| if n == 0 { Op::Clear } else { Op::Rebuild }),
        ]
    }

    /// The reference's statistics, z-scores and stable-sorted distances
    /// for `rows`, against `index` rebuilt for the same rows.
    fn assert_matches_reference(index: &ZIndex, rows: &[Vec<f64>], context: &str) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let slices: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let stats = normalisation_stats_over(&slices);
        assert_eq!(bits(&index.means), bits(&stats.means), "means, {context}");
        assert_eq!(bits(&index.stds), bits(&stats.stds), "stds, {context}");
        let z: Vec<f64> =
            rows.iter().flat_map(|r| normalise(r, &stats.means, &stats.stds)).collect();
        assert_eq!(bits(&index.z), bits(&z), "z-scores, {context}");

        let query = pooled(4);
        let query_z = normalise(&query, &stats.means, &stats.stds);
        for n_neighbors in [1, 3, rows.len(), rows.len() + 2, usize::MAX] {
            let options = QueryOptions { n_neighbors, ..QueryOptions::default() };
            let mut want: Vec<(usize, f64)> = z
                .chunks_exact(WIDTH)
                .map(|e| entry_distance(&query_z, e, None, None, &options))
                .enumerate()
                .collect();
            want.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            want.truncate(n_neighbors.max(1));
            let got: Vec<(usize, u64)> = index
                .nearest(&query, None, &options, |_| None)
                .iter()
                .map(|&(row, d)| (row, d.to_bits()))
                .collect();
            let want: Vec<(usize, u64)> = want.iter().map(|&(r, d)| (r, d.to_bits())).collect();
            assert_eq!(got, want, "k={n_neighbors}, {context}");
        }
    }

    proptest! {
        /// Whatever mix of appends, overwrites (changed and identical),
        /// clears and intermediate rebuilds came before, a rebuild leaves
        /// the reference's bits — running sums included.
        #[test]
        fn rebuild_and_nearest_match_the_two_pass_reference(
            ops in prop::collection::vec(op(), 1..60)
        ) {
            let mut table = FeatureTable::default();
            let mut rows: Vec<Vec<f64>> = Vec::new();
            let mut index = ZIndex::default();
            for (step, op) in ops.iter().enumerate() {
                let before = table.version();
                match *op {
                    Op::Push(pick) => {
                        table.push(&pooled(pick));
                        rows.push(pooled(pick));
                        prop_assert!(table.version() > before);
                    }
                    Op::Set(row, pick) if !rows.is_empty() => {
                        let row = row % rows.len();
                        table.set(row, &pooled(pick));
                        let changed = rows[row] != pooled(pick);
                        rows[row] = pooled(pick);
                        prop_assert_eq!(table.version() > before, changed);
                    }
                    Op::Set(..) => {}
                    Op::Clear => {
                        table.clear();
                        rows.clear();
                        prop_assert!(table.version() > before);
                    }
                    Op::Rebuild => {
                        index.rebuild(&table);
                        assert_matches_reference(&index, &rows, &format!("step {step} of {ops:?}"));
                    }
                }
            }
            index.rebuild(&table);
            prop_assert_eq!(index.version(), table.version());
            prop_assert_eq!(table.len(), rows.len());
            assert_matches_reference(&index, &rows, &format!("end of {ops:?}"));
            // A fresh index over the same table agrees with the one that
            // carried its sums through the whole history.
            let mut fresh = ZIndex::default();
            fresh.rebuild(&table);
            assert_matches_reference(&fresh, &rows, "fresh index");
        }
    }

    #[test]
    fn landmarkers_are_fetched_only_when_the_distance_uses_them() {
        let mut table = FeatureTable::default();
        for pick in 0..6 {
            table.push(&pooled(pick));
        }
        let mut index = ZIndex::default();
        index.rebuild(&table);
        let marks = Landmarkers { decision_stump: 0.6, nearest_centroid: 0.8 };
        let asked = std::cell::Cell::new(0usize);
        let of = |row: usize| {
            asked.set(asked.get() + 1);
            row.is_multiple_of(2).then_some(Landmarkers { decision_stump: 0.1, nearest_centroid: 0.2 })
        };
        let plain = QueryOptions { n_neighbors: 6, ..QueryOptions::default() };
        let extended = QueryOptions { use_landmarkers: true, ..plain.clone() };
        let unextended = index.nearest(&pooled(2), Some(marks), &plain, of);
        assert_eq!(index.nearest(&pooled(2), None, &extended, of), unextended);
        assert_eq!(asked.get(), 0);
        assert_eq!(unextended[0], (2, 0.0));
        // Row 2 is the query itself, but its landmarkers are far from the
        // query's; the odd rows carry none and keep their plain distance.
        let near = index.nearest(&pooled(2), Some(marks), &extended, of);
        assert_eq!(asked.get(), 6);
        let distance = |of: &[(usize, f64)], row| of.iter().find(|n| n.0 == row).unwrap().1;
        assert!(distance(&near, 2) > 2.0, "{near:?}");
        assert_eq!(distance(&near, 3), distance(&unextended, 3));
    }

    #[test]
    fn admission_check_names_what_is_wrong() {
        assert!(check_meta_features(&pooled(1)).is_ok());
        assert!(check_meta_features(&[0.5, 1.5, 2.5]).unwrap_err().contains("got 3"));
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e101] {
            let mut values = pooled(1);
            values[3] = bad;
            assert!(check_meta_features(&values).unwrap_err().contains("meta-feature 3"));
            let marks = Landmarkers { decision_stump: 0.5, nearest_centroid: bad };
            assert!(check_landmarkers(marks).unwrap_err().contains("Landmarkers"));
        }
        assert!(check_landmarkers(Landmarkers { decision_stump: 0.5, nearest_centroid: 1.0 }).is_ok());
    }
}
