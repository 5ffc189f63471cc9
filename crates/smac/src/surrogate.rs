//! The SMAC surrogate: a random-forest regressor over `[0,1]^d`-encoded
//! configurations. "SMAC attempts to draw the relation between the algorithm
//! performance and a given set of hyper-parameters by estimating the
//! predictive mean and variance of their performance along the trees of the
//! random forest model" (paper §2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartml_classifiers::common::split::{
    partition2, radix_sort_ranked, RankedBase, NAN_RANK, SIDE_LEFT, SIDE_RIGHT,
};
use smartml_runtime::{task_seed, Pool};

/// A regression tree node over dense feature vectors.
enum RegNode {
    Leaf { value: f64 },
    Split { feature: usize, threshold: f64, left: Box<RegNode>, right: Box<RegNode> },
}

impl RegNode {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            RegNode::Leaf { value } => *value,
            RegNode::Split { feature, threshold, left, right } => {
                if x[*feature] <= *threshold {
                    left.predict(x)
                } else {
                    right.predict(x)
                }
            }
        }
    }
}

/// Random forest regressor giving per-point predictive mean and variance
/// (variance across trees, SMAC-style).
pub struct RandomForestSurrogate {
    trees: Vec<RegNode>,
}

impl RandomForestSurrogate {
    /// Fits `n_trees` bootstrap regression trees on `(xs, ys)`.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], n_trees: usize, seed: u64) -> Self {
        Self::fit_with(xs, ys, n_trees, seed, &Pool::serial())
    }

    /// [`fit`](RandomForestSurrogate::fit) with trees grown on `pool`.
    ///
    /// Each tree's bootstrap sample and split randomness come from its own
    /// RNG seeded by `task_seed(seed, tree)`, so the forest is identical
    /// for any pool width (including [`fit`]'s serial path).
    pub fn fit_with(xs: &[Vec<f64>], ys: &[f64], n_trees: usize, seed: u64, pool: &Pool) -> Self {
        assert_eq!(xs.len(), ys.len());
        assert!(!xs.is_empty(), "surrogate needs at least one observation");
        let n = xs.len();
        let d = xs[0].len();
        // Rank every feature once; each tree then gathers its bootstrap
        // sample's ranks and radix-sorts candidate features per node
        // (shared machinery with the classifier tree kernel).
        let base = RankedBase::build_columns(
            (0..d).map(|f| xs.iter().map(|x| x[f]).collect()).collect(),
        );
        let trees = pool.map_range(n_trees.max(1), |t| {
            let mut rng = StdRng::seed_from_u64(task_seed(seed, t as u64));
            let sample: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let picks: Vec<u32> = sample.iter().map(|&s| s as u32).collect();
            grow_ranked(ys, &sample, &base, &picks, &mut rng)
        });
        RandomForestSurrogate { trees }
    }

    /// Reference fit using the original per-node `sort_by` tree grower.
    ///
    /// Retained as the equivalence oracle for [`fit`]: both produce bitwise
    /// identical forests (same RNG stream, same FP accumulation order). Used
    /// by tests and the `tree_kernels` benchmark; not part of the public API.
    #[doc(hidden)]
    pub fn fit_oracle(xs: &[Vec<f64>], ys: &[f64], n_trees: usize, seed: u64) -> Self {
        assert_eq!(xs.len(), ys.len());
        assert!(!xs.is_empty(), "surrogate needs at least one observation");
        let n = xs.len();
        let trees = (0..n_trees.max(1))
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(task_seed(seed, t as u64));
                let sample: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                grow_oracle(xs, ys, &sample, 0, &mut rng)
            })
            .collect();
        RandomForestSurrogate { trees }
    }

    /// Predictive `(mean, variance)` at `x`.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        let preds: Vec<f64> = self.trees.iter().map(|t| t.predict(x)).collect();
        let n = preds.len() as f64;
        let mean = preds.iter().sum::<f64>() / n;
        let var = preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n;
        (mean, var)
    }

    /// Expected improvement of `x` over the incumbent score `best`
    /// (maximisation, with exploration jitter `xi`).
    pub fn expected_improvement(&self, x: &[f64], best: f64, xi: f64) -> f64 {
        let (mean, var) = self.predict(x);
        let sigma = var.sqrt();
        let delta = mean - best - xi;
        if sigma < 1e-12 {
            return delta.max(0.0);
        }
        let z = delta / sigma;
        delta * standard_normal_cdf(z) + sigma * standard_normal_pdf(z)
    }
}

/// Per-tree scratch for the rank-radix grower: side mask + partition
/// buffer + dedup'd value buffer + radix pair buffers, reused down the
/// whole recursion.
struct GrowScratch {
    side: Vec<u32>,
    scratch: Vec<u32>,
    vals: Vec<f64>,
    pairs: Vec<u64>,
    pairs_tmp: Vec<u64>,
    radix_cnt: Vec<u32>,
}

/// Grows one regression tree with the shared rank-radix split kernel.
///
/// Semantics are bit-identical to [`grow_oracle`]: the RNG draw sequence,
/// the dedup'd candidate value lists, and every floating-point accumulation
/// run in the same order. The only change is *how* each feature try obtains
/// its sorted distinct values: the oracle sorts node values on every try
/// (`O(m log m)` with comparisons), while this path reads each value's
/// precomputed rank from the forest-shared [`RankedBase`] and radix-sorts
/// `(rank, slot)` pairs — and evaluates `value <= threshold` as an integer
/// rank comparison, since a threshold maps to a fixed cut in rank space.
fn grow_ranked(
    ys: &[f64],
    sample: &[usize],
    base: &RankedBase,
    picks: &[u32],
    rng: &mut StdRng,
) -> RegNode {
    let n = sample.len();
    // Slot space: slot i = bootstrap position i (duplicates get own slots).
    let slot_y: Vec<f64> = sample.iter().map(|&r| ys[r]).collect();
    let slot_rank = base.gather_ranks(picks);
    let mut rows: Vec<u32> = (0..n as u32).collect();
    let mut st = GrowScratch {
        side: vec![0; n],
        scratch: Vec::new(),
        vals: Vec::new(),
        pairs: Vec::new(),
        pairs_tmp: Vec::new(),
        radix_cnt: Vec::new(),
    };
    grow_node(base, &slot_rank, &slot_y, &mut rows, 0, rng, &mut st)
}

/// One node of the rank-radix grower. `rows` is this node's slot slice,
/// always in ascending slot order (stable partitions preserve it), which
/// matches the oracle's row-list order node for node.
fn grow_node(
    base: &RankedBase,
    slot_rank: &[Vec<u32>],
    slot_y: &[f64],
    rows: &mut [u32],
    depth: usize,
    rng: &mut StdRng,
    st: &mut GrowScratch,
) -> RegNode {
    let m = rows.len();
    let mean = rows.iter().map(|&s| slot_y[s as usize]).sum::<f64>() / m as f64;
    if depth >= 10 || m < 4 {
        return RegNode::Leaf { value: mean };
    }
    let sse: f64 = rows
        .iter()
        .map(|&s| {
            let e = slot_y[s as usize] - mean;
            e * e
        })
        .sum();
    if sse < 1e-12 {
        return RegNode::Leaf { value: mean };
    }
    let d = slot_rank.len();
    let n_try = (d / 2).max(1);
    let mut best: Option<(usize, u32, f64, f64)> = None; // (feature, cut rank, threshold, sse)
    for _ in 0..n_try {
        let f = rng.gen_range(0..d);
        let ranks = &slot_rank[f];
        let rank_vals = &base.rank_vals[f];
        st.pairs.clear();
        for &s in rows.iter() {
            let r = ranks[s as usize];
            if r != NAN_RANK {
                st.pairs.push(((r as u64) << 32) | s as u64);
            }
        }
        radix_sort_ranked(&mut st.pairs, &mut st.pairs_tmp, &mut st.radix_cnt, base.n_ranks[f]);
        // Unique node values in ascending order: walk the sorted pairs and
        // emit a value whenever the rank advances — the same list the
        // oracle's collect + sort + dedup produces.
        st.vals.clear();
        let mut prev = NAN_RANK;
        for &p in &st.pairs {
            let r = (p >> 32) as u32;
            if r != prev {
                st.vals.push(rank_vals[r as usize]);
                prev = r;
            }
        }
        if st.vals.len() < 2 {
            continue;
        }
        for _ in 0..4 {
            let i = rng.gen_range(0..st.vals.len() - 1);
            let thr = 0.5 * (st.vals[i] + st.vals[i + 1]);
            // `v <= thr` ⟺ `rank(v) < cut`: one binary search replaces a
            // float gather-and-compare per row.
            let cut = rank_vals.partition_point(|&v| v <= thr) as u32;
            let (mut ls, mut ln, mut rs, mut rn) = (0.0, 0usize, 0.0, 0usize);
            for &s in rows.iter() {
                if ranks[s as usize] < cut {
                    ls += slot_y[s as usize];
                    ln += 1;
                } else {
                    rs += slot_y[s as usize];
                    rn += 1;
                }
            }
            if ln == 0 || rn == 0 {
                continue;
            }
            let (lm, rm) = (ls / ln as f64, rs / rn as f64);
            let split_sse: f64 = rows
                .iter()
                .map(|&s| {
                    let c = if ranks[s as usize] < cut { lm } else { rm };
                    let e = slot_y[s as usize] - c;
                    e * e
                })
                .sum();
            if best.is_none_or(|(_, _, _, s)| split_sse < s) {
                best = Some((f, cut, thr, split_sse));
            }
        }
    }
    let Some((feature, cut, threshold, split_sse)) = best else {
        return RegNode::Leaf { value: mean };
    };
    if split_sse >= sse - 1e-12 {
        return RegNode::Leaf { value: mean };
    }
    let ranks = &slot_rank[feature];
    for &s in rows.iter() {
        st.side[s as usize] =
            if ranks[s as usize] < cut { SIDE_LEFT } else { SIDE_RIGHT };
    }
    let (nl, _) = partition2(rows, &st.side, &mut st.scratch);
    let (left_rows, right_rows) = rows.split_at_mut(nl);
    RegNode::Split {
        feature,
        threshold,
        left: Box::new(grow_node(base, slot_rank, slot_y, left_rows, depth + 1, rng, st)),
        right: Box::new(grow_node(base, slot_rank, slot_y, right_rows, depth + 1, rng, st)),
    }
}

/// The original per-node-sorting grower, kept verbatim as the oracle for
/// [`grow_presorted`].
fn grow_oracle(xs: &[Vec<f64>], ys: &[f64], rows: &[usize], depth: usize, rng: &mut StdRng) -> RegNode {
    let mean = rows.iter().map(|&r| ys[r]).sum::<f64>() / rows.len() as f64;
    if depth >= 10 || rows.len() < 4 {
        return RegNode::Leaf { value: mean };
    }
    let sse: f64 = rows.iter().map(|&r| (ys[r] - mean) * (ys[r] - mean)).sum();
    if sse < 1e-12 {
        return RegNode::Leaf { value: mean };
    }
    let d = xs[0].len();
    // Feature bagging: try ~d/2 random features (at least 1).
    let n_try = (d / 2).max(1);
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
    for _ in 0..n_try {
        let f = rng.gen_range(0..d);
        let mut vals: Vec<f64> = rows.iter().map(|&r| xs[r][f]).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        // A few random cut points per feature (SMAC-style randomised splits).
        for _ in 0..4 {
            let i = rng.gen_range(0..vals.len() - 1);
            let thr = 0.5 * (vals[i] + vals[i + 1]);
            let (mut ls, mut ln, mut rs, mut rn) = (0.0, 0usize, 0.0, 0usize);
            for &r in rows {
                if xs[r][f] <= thr {
                    ls += ys[r];
                    ln += 1;
                } else {
                    rs += ys[r];
                    rn += 1;
                }
            }
            if ln == 0 || rn == 0 {
                continue;
            }
            let (lm, rm) = (ls / ln as f64, rs / rn as f64);
            let split_sse: f64 = rows
                .iter()
                .map(|&r| {
                    let m = if xs[r][f] <= thr { lm } else { rm };
                    (ys[r] - m) * (ys[r] - m)
                })
                .sum();
            if best.is_none_or(|(_, _, s)| split_sse < s) {
                best = Some((f, thr, split_sse));
            }
        }
    }
    let Some((feature, threshold, split_sse)) = best else {
        return RegNode::Leaf { value: mean };
    };
    if split_sse >= sse - 1e-12 {
        return RegNode::Leaf { value: mean };
    }
    let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
        rows.iter().partition(|&&r| xs[r][feature] <= threshold);
    RegNode::Split {
        feature,
        threshold,
        left: Box::new(grow_oracle(xs, ys, &left_rows, depth + 1, rng)),
        right: Box::new(grow_oracle(xs, ys, &right_rows, depth + 1, rng)),
    }
}

/// Standard normal density.
fn standard_normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via the Abramowitz-Stegun erf approximation.
fn standard_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26, |error| < 1.5e-7.
    let sign = x.signum();
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 - (x[0] - 0.5) * (x[0] - 0.5) * 4.0).collect();
        (xs, ys)
    }

    #[test]
    fn fits_quadratic() {
        let (xs, ys) = quadratic_data(100);
        let rf = RandomForestSurrogate::fit(&xs, &ys, 20, 1);
        let (at_peak, _) = rf.predict(&[0.5]);
        let (at_edge, _) = rf.predict(&[0.02]);
        assert!(at_peak > at_edge + 0.3, "peak {at_peak} edge {at_edge}");
    }

    #[test]
    fn variance_higher_far_from_data() {
        // Train only on the left half; the right half must be less certain
        // or at least no more certain on average.
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 100.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 20.0).sin()).collect();
        let rf = RandomForestSurrogate::fit(&xs, &ys, 30, 2);
        let (_, v_in) = rf.predict(&[0.25]);
        let (_, v_out) = rf.predict(&[0.9]);
        assert!(v_out >= v_in * 0.5, "in {v_in} out {v_out}");
    }

    #[test]
    fn single_observation_degenerates_safely() {
        let rf = RandomForestSurrogate::fit(&[vec![0.5]], &[0.7], 10, 3);
        let (m, v) = rf.predict(&[0.1]);
        assert!((m - 0.7).abs() < 1e-12);
        assert!(v.abs() < 1e-24);
    }

    #[test]
    fn ei_positive_where_improvement_plausible() {
        let (xs, ys) = quadratic_data(60);
        let rf = RandomForestSurrogate::fit(&xs, &ys, 20, 4);
        // Incumbent far below the peak: EI near the peak should dominate.
        let ei_peak = rf.expected_improvement(&[0.5], 0.5, 0.0);
        let ei_edge = rf.expected_improvement(&[0.01], 0.5, 0.0);
        assert!(ei_peak > ei_edge, "peak {ei_peak} edge {ei_edge}");
        assert!(ei_peak > 0.0);
    }

    #[test]
    fn parallel_fit_is_identical_to_serial() {
        let (xs, ys) = quadratic_data(80);
        let serial = RandomForestSurrogate::fit_with(&xs, &ys, 16, 9, &Pool::serial());
        let probes: Vec<Vec<f64>> = (0..21).map(|i| vec![i as f64 / 20.0]).collect();
        for threads in [2, 8] {
            let par = RandomForestSurrogate::fit_with(&xs, &ys, 16, 9, &Pool::new(threads));
            for x in &probes {
                assert_eq!(serial.predict(x), par.predict(x), "diverged at {x:?}");
            }
        }
    }

    #[test]
    fn presorted_fit_matches_oracle_exactly() {
        // Multi-feature data with heavy ties so dedup'd value lists (and the
        // RNG draws keyed off their lengths) are actually exercised.
        let xs: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                vec![
                    (i % 7) as f64 / 6.0,
                    (i % 3) as f64 / 2.0,
                    i as f64 / 120.0,
                    ((i * 31) % 11) as f64 / 10.0,
                ]
            })
            .collect();
        let ys: Vec<f64> =
            xs.iter().map(|x| (x[0] - 0.4).abs() + 0.5 * x[2] * x[2] - 0.2 * x[1]).collect();
        for seed in [0u64, 7, 99] {
            let new = RandomForestSurrogate::fit(&xs, &ys, 12, seed);
            let old = RandomForestSurrogate::fit_oracle(&xs, &ys, 12, seed);
            for probe in &xs {
                assert_eq!(new.predict(probe), old.predict(probe), "seed {seed} at {probe:?}");
            }
        }
    }

    #[test]
    fn normal_functions_reference_values() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((standard_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((standard_normal_pdf(0.0) - 0.3989).abs() < 1e-4);
        assert!((erf(1.0) - 0.8427).abs() < 1e-4);
    }
}
