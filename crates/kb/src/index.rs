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
//! - **Pruning.** Once the heap holds `k` rows, a row whose squared
//!   distance is `>=` the worst held row's squared distance `b` cannot
//!   enter it: `sqrt` is monotone, so its distance is `>=` the worst
//!   one's, and its row number is larger, so the `(distance bits, row)`
//!   compare would reject it. The scan hands `b` to
//!   [`squared_distance_within`], which gives up on such a row as soon as
//!   a partial sum reaches `b` (a partial sum of non-negative terms never
//!   exceeds the whole) and otherwise returns the bits
//!   `squared_distance` would. A row that finishes goes through the same
//!   [`finish_distance`] and the same compare as before, so the heap sees
//!   exactly the candidates that could change it. A query whose distance
//!   takes landmarkers in scans with the bound held at +∞: the extended
//!   distance has no proven lower bound in the squared Euclidean part.

use crate::query::{finish_distance, z_score, QueryOptions};
use smartml_linalg::kernels::squared_distance_within;
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
    /// `query` (checked meta-feature values), nearest first, ties by row,
    /// and how many rows the scan finished a distance for (the rest the
    /// bound pruned; see the module docs). `landmarkers_of` is asked for
    /// a row's landmarkers only when the distance can use them:
    /// `use_landmarkers` set and the query carrying its own.
    pub fn nearest(
        &self,
        query: &[f64],
        query_landmarkers: Option<Landmarkers>,
        options: &QueryOptions,
        landmarkers_of: impl Fn(usize) -> Option<Landmarkers>,
    ) -> (Vec<(usize, f64)>, u64) {
        assert_eq!(query.len(), WIDTH, "unchecked meta-features reached the index");
        let k = options.n_neighbors.max(1).min(self.z.len() / WIDTH);
        let mut query_z = [0.0; WIDTH];
        for (((z, &v), &m), &s) in query_z.iter_mut().zip(query).zip(&self.means).zip(&self.stds) {
            *z = z_score(v, m, s);
        }
        let extended = options.use_landmarkers && query_landmarkers.is_some();
        // A distance is a square root: never negative, not even -0.0, so
        // its bit pattern orders as its value does (and a NaN, should one
        // ever arise, sorts last where `partial_cmp` would panic). The
        // third field, the squared distance's bits, never decides the
        // order: `row` already makes every entry distinct.
        let mut best: BinaryHeap<(u64, usize, u64)> = BinaryHeap::with_capacity(k);
        // Rows whose squared distance reaches `bound` cannot enter `best`
        // (see the module docs): the worst held row's squared distance
        // once `best` is full, +∞ before, and +∞ throughout when
        // landmarkers join the distance.
        let mut bound = f64::INFINITY;
        let mut finished = 0u64;
        for (row, entry_z) in self.z.chunks_exact(WIDTH).enumerate() {
            let Some(squared) = squared_distance_within(&query_z, entry_z, bound) else {
                continue;
            };
            finished += 1;
            let marks = if extended { landmarkers_of(row) } else { None };
            let distance = finish_distance(squared, marks, query_landmarkers, options);
            let candidate = (distance.to_bits(), row, squared.to_bits());
            if best.len() < k {
                best.push(candidate);
            } else if let Some(mut worst) = best.peek_mut() {
                if candidate < *worst {
                    *worst = candidate;
                }
            }
            if best.len() == k && !extended {
                bound = best.peek().map_or(bound, |worst| f64::from_bits(worst.2));
            }
        }
        let nearest =
            best.into_sorted_vec().into_iter().map(|(bits, row, _)| (row, f64::from_bits(bits)));
        (nearest.collect(), finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{entry_distance, normalisation_stats_over, normalise};
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

    /// Landmarkers for row `row` of a test table: a small pool, so
    /// extended distances tie too, and every third row carries none.
    fn marks_of(row: usize) -> Option<Landmarkers> {
        (!row.is_multiple_of(3)).then_some(Landmarkers {
            decision_stump: (row % 4) as f64 * 0.25,
            nearest_centroid: (row % 5) as f64 * 0.2,
        })
    }

    const QUERY_MARKS: Landmarkers = Landmarkers { decision_stump: 0.5, nearest_centroid: 0.4 };

    /// The reference's ranking of every row for `query`: distances by
    /// `entry_distance`, stable-sorted, as `(row, distance bits)`.
    fn reference_ranking(
        rows: &[Vec<f64>],
        query: &[f64],
        query_marks: Option<Landmarkers>,
        options: &QueryOptions,
    ) -> Vec<(usize, u64)> {
        let slices: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let stats = normalisation_stats_over(&slices);
        let query_z = normalise(query, &stats.means, &stats.stds);
        let mut ranked: Vec<(usize, f64)> = rows
            .iter()
            .map(|r| normalise(r, &stats.means, &stats.stds))
            .enumerate()
            .map(|(row, z)| (row, entry_distance(&query_z, &z, marks_of(row), query_marks, options)))
            .collect();
        ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        ranked.into_iter().map(|(row, d)| (row, d.to_bits())).collect()
    }

    /// `index.nearest(query)` against the reference's first `k`, plain and
    /// with landmarkers, for `k` in {1, 3, 5, n, n + 3, usize::MAX} and
    /// for every `k` whose `k`-th and `k + 1`-th places tie.
    fn assert_nearest_matches(index: &ZIndex, rows: &[Vec<f64>], query: &[f64], context: &str) {
        let plain = QueryOptions::default();
        let extended = QueryOptions { use_landmarkers: true, ..QueryOptions::default() };
        for (options, query_marks) in [(&plain, None), (&extended, Some(QUERY_MARKS))] {
            let ranking = reference_ranking(rows, query, query_marks, options);
            let n = rows.len();
            let ties = ranking.windows(2).enumerate().filter(|(_, w)| w[0].1 == w[1].1);
            let ks = [1, 3, 5, n, n + 3, usize::MAX].into_iter().chain(ties.map(|(i, _)| i + 1));
            for n_neighbors in ks {
                let options = QueryOptions { n_neighbors, ..options.clone() };
                let got: Vec<(usize, u64)> = index
                    .nearest(query, query_marks, &options, marks_of)
                    .0
                    .iter()
                    .map(|&(row, d)| (row, d.to_bits()))
                    .collect();
                let want = &ranking[..n_neighbors.max(1).min(n)];
                assert_eq!(got, want, "k={n_neighbors}, marks {query_marks:?}, {context}");
            }
        }
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
        assert_nearest_matches(index, rows, &pooled(4), context);
    }

    /// `rows` re-inserted farthest from `query` first, so that nearly
    /// every row tightens the scan's bound, and checked like any table.
    fn assert_far_to_near_matches(rows: &[Vec<f64>], query: &[f64], context: &str) {
        let ranking = reference_ranking(rows, query, None, &QueryOptions::default());
        let far_to_near: Vec<Vec<f64>> =
            ranking.iter().rev().map(|&(row, _)| rows[row].clone()).collect();
        let mut table = FeatureTable::default();
        for row in &far_to_near {
            table.push(row);
        }
        let mut index = ZIndex::default();
        index.rebuild(&table);
        assert_nearest_matches(&index, &far_to_near, query, &format!("far to near, {context}"));
    }

    /// Row `pick` of the pool pulled toward the query `pooled(4)` and
    /// stretched by `1 + step · 2e-4`: rows on a few rays whose squared
    /// distances sit a few parts in 10⁴ apart, inside the margin a
    /// loosened or tightened bound would get wrong.
    fn shell(pick: usize, step: usize) -> Vec<f64> {
        let scale = 1.0 + step as f64 * 2e-4;
        pooled(4).iter().zip(pooled(pick)).map(|(&q, p)| q + (p - q) * scale).collect()
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
            assert_far_to_near_matches(&rows, &pooled(4), &format!("{ops:?}"));
        }

        /// Rows on a few rays from the query, their squared distances a
        /// few parts in 10⁴ apart and many repeated, in generated order
        /// and far to near: a bound read from the wrong held row, or
        /// scaled at all, drops a row that belongs in the answer.
        #[test]
        fn pruned_scan_matches_the_reference_on_near_ties(
            shells in prop::collection::vec((0..9usize, 0..12usize), 1..40)
        ) {
            let rows: Vec<Vec<f64>> = shells.iter().map(|&(pick, step)| shell(pick, step)).collect();
            let mut table = FeatureTable::default();
            for row in &rows {
                table.push(row);
            }
            let mut index = ZIndex::default();
            index.rebuild(&table);
            assert_matches_reference(&index, &rows, &format!("{shells:?}"));
            assert_far_to_near_matches(&rows, &pooled(4), &format!("{shells:?}"));
        }
    }

    #[test]
    fn the_bound_prunes_every_row_that_cannot_enter() {
        // One ray, each row farther out than the one before: nearest first,
        // nothing after the first `k` can enter; farthest first, every row
        // displaces the worst held one and so is finished.
        let n = 200;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| shell(0, 5000 * i)).collect();
        let count = |rows: &[Vec<f64>], options: &QueryOptions, marks| {
            let mut table = FeatureTable::default();
            for row in rows {
                table.push(row);
            }
            let mut index = ZIndex::default();
            index.rebuild(&table);
            index.nearest(&pooled(4), marks, options, marks_of).1
        };
        let plain = QueryOptions::default();
        let far_to_near: Vec<Vec<f64>> = rows.iter().rev().cloned().collect();
        assert_eq!(count(&rows, &plain, None), plain.n_neighbors as u64);
        assert_eq!(count(&far_to_near, &plain, None), n as u64);
        // With landmarkers in the distance nothing is pruned.
        let extended = QueryOptions { use_landmarkers: true, ..plain };
        assert_eq!(count(&rows, &extended, Some(QUERY_MARKS)), n as u64);
        // Without them in the query, the plain bound applies again.
        assert_eq!(count(&rows, &extended, None), extended.n_neighbors as u64);
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
        let unextended = index.nearest(&pooled(2), Some(marks), &plain, of).0;
        assert_eq!(index.nearest(&pooled(2), None, &extended, of).0, unextended);
        assert_eq!(asked.get(), 0);
        assert_eq!(unextended[0], (2, 0.0));
        // Row 2 is the query itself, but its landmarkers are far from the
        // query's; the odd rows carry none and keep their plain distance.
        let near = index.nearest(&pooled(2), Some(marks), &extended, of).0;
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
