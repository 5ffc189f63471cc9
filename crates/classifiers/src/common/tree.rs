//! A weighted decision-tree learner parameterised enough to back all the
//! tree-family classifiers in Table 3:
//!
//! - split criterion: Gini (CART: rpart, Bagging, RandomForest) or gain
//!   ratio (C4.5: J48, part, c50);
//! - numeric features split on thresholds, categorical features split
//!   multiway (one branch per observed level);
//! - optional per-split feature subsampling (`mtry`, RandomForest);
//! - instance weights (boosting: c50 trials, DeepBoost);
//! - pre-pruning: `max_depth`, `min_split`, `min_leaf`, `cp` (rpart's
//!   complexity threshold on relative impurity decrease);
//! - post-pruning: C4.5 pessimistic error pruning with confidence factor CF.

use crate::common::split::{
    partition2, partition_multi, radix_sort_ranked, BinnedColumns, RankedBase, Seg,
    SortedColumns, SplitState, NAN_RANK, SIDE_DROP, SIDE_LEFT, SIDE_RIGHT,
};
use rand::rngs::StdRng;
use smartml_linalg::kernels;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use smartml_data::dataset::MISSING_CODE;
use smartml_data::{Dataset, Feature};

/// Impurity criterion for split selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitCriterion {
    /// Gini impurity (CART family).
    Gini,
    /// Information gain ratio (C4.5 family).
    GainRatio,
}

/// Post-pruning strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pruning {
    /// No post-pruning (pre-pruning limits still apply).
    None,
    /// C4.5 pessimistic error-based pruning with confidence factor `cf`
    /// (smaller `cf` ⇒ more aggressive pruning; WEKA default 0.25).
    Pessimistic { cf: f64 },
}

/// Tree growth configuration.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Split selection criterion.
    pub criterion: SplitCriterion,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum (weighted) instances required to attempt a split.
    pub min_split: f64,
    /// Minimum (weighted) instances in every child.
    pub min_leaf: f64,
    /// Minimum relative impurity decrease to accept a split (rpart `cp`).
    pub cp: f64,
    /// Features considered per split (`None` = all; `Some(m)` = random m).
    pub mtry: Option<usize>,
    /// Seed for `mtry` subsampling.
    pub seed: u64,
    /// Post-pruning strategy.
    pub pruning: Pruning,
    /// Histogram split finding: quantise each numeric feature into at
    /// most this many bins (clamped to 255) and scan bins instead of
    /// rows. `0` or `1` selects the exact presorted kernel (the
    /// default); `>= 2` opts into the deterministic binned path, whose
    /// trees may differ from the exact ones where quantisation merges
    /// candidate thresholds.
    pub max_bins: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            criterion: SplitCriterion::Gini,
            max_depth: 30,
            min_split: 2.0,
            min_leaf: 1.0,
            cp: 0.0,
            mtry: None,
            seed: 0,
            pruning: Pruning::None,
            max_bins: 0,
        }
    }
}

/// A trained decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
    n_classes: usize,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Weighted class distribution (sums to the leaf's weight).
        counts: Vec<f64>,
    },
    SplitNumeric {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
        /// Class distribution at this node (fallback for missing values,
        /// and the collapse target for pruning).
        counts: Vec<f64>,
    },
    SplitCategorical {
        feature: usize,
        /// Branch per level code; levels unseen in training fall back to
        /// the node distribution.
        branches: Vec<Option<Box<Node>>>,
        counts: Vec<f64>,
    },
}

impl Node {
    fn counts(&self) -> &[f64] {
        match self {
            Node::Leaf { counts }
            | Node::SplitNumeric { counts, .. }
            | Node::SplitCategorical { counts, .. } => counts,
        }
    }
}

/// The presorted/binned tree grower. Works in *slot* space: slot `i` is
/// position `i` of the fit row array, so bootstrap duplicates are
/// distinct slots, and the stable root sort plus stable partitions keep
/// every tie in fit-row order — the same order the naive oracle's
/// per-node stable sorts produce, which is what makes the exact path
/// bit-identical (floating-point accumulations happen in one sequence).
struct Grower<'a> {
    data: &'a Dataset,
    config: &'a TreeConfig,
    n_classes: usize,
    rng: StdRng,
    /// `fit_rows[slot]`: absolute dataset row (duplicates allowed).
    fit_rows: Vec<u32>,
    /// Class label per slot.
    slot_label: Vec<u32>,
    /// Instance weight per slot.
    slot_weight: Vec<f64>,
    /// Reusable scratch (side masks, counters, histograms, seg pool).
    state: SplitState,
}

impl DecisionTree {
    /// Grows a tree on `rows` with uniform instance weights.
    pub fn fit(data: &Dataset, rows: &[usize], config: &TreeConfig) -> DecisionTree {
        let weights = vec![1.0; data.n_rows()];
        DecisionTree::fit_weighted(data, rows, &weights, config)
    }

    /// Grows a tree on `rows` with per-row instance weights (indexed by
    /// absolute row id, like `rows` itself).
    ///
    /// Dispatches on `config.max_bins`: `< 2` runs an exact kernel
    /// (bit-identical to the naive [`oracle`]), `>= 2` quantises the
    /// numeric features for this fit and runs the histogram kernel
    /// (forests share the quantisation via
    /// [`fit_weighted_binned`](DecisionTree::fit_weighted_binned)).
    ///
    /// The exact arm picks between two bit-equivalent kernels: with
    /// feature subsampling (`mtry < n_features`, the forest regime) it
    /// rank-radix-sorts only the candidate features per node; without it,
    /// it presorts every column once and maintains the orders by stable
    /// partition down the tree.
    pub fn fit_weighted(
        data: &Dataset,
        rows: &[usize],
        weights: &[f64],
        config: &TreeConfig,
    ) -> DecisionTree {
        if config.max_bins >= 2 {
            let bins = BinnedColumns::fit(data, rows, config.max_bins);
            return DecisionTree::fit_weighted_binned(data, rows, weights, config, &bins);
        }
        let d = data.n_features().max(1);
        if config.mtry.unwrap_or(d).clamp(1, d) < d {
            let base = RankedBase::build(data, rows);
            let picks: Vec<u32> = (0..rows.len() as u32).collect();
            return DecisionTree::fit_weighted_ranked(data, rows, weights, config, &base, &picks);
        }
        let fit_rows: Vec<u32> = rows.iter().map(|&r| r as u32).collect();
        let sorted = SortedColumns::build(data, &fit_rows);
        DecisionTree::fit_weighted_with_sorted(data, rows, weights, config, sorted)
    }

    /// Exact-path fit with the rank-radix kernel against a prebuilt
    /// [`RankedBase`] (e.g. one shared by every tree of a forest).
    /// `picks[slot]` is the base index resampled into `slot`, and `rows`
    /// must be exactly those picks mapped to absolute dataset rows —
    /// `rows[i] == base_rows[picks[i]]` for the row set the base was
    /// built on. Bit-identical to the [`oracle`] and to the maintained
    /// presorted kernel.
    pub fn fit_weighted_ranked(
        data: &Dataset,
        rows: &[usize],
        weights: &[f64],
        config: &TreeConfig,
        base: &RankedBase,
        picks: &[u32],
    ) -> DecisionTree {
        assert_eq!(weights.len(), data.n_rows(), "one weight per dataset row");
        assert_eq!(rows.len(), picks.len(), "one pick per fit row");
        let fit_rows: Vec<u32> = rows.iter().map(|&r| r as u32).collect();
        let slot_rank = base.gather_ranks(picks);
        let mut grower = Grower::new(data, config, weights, fit_rows);
        let mut row_buf: Vec<u32> = (0..rows.len() as u32).collect();
        let mut root = grower.grow_ranked(&mut row_buf, 0, &slot_rank, base);
        if let Pruning::Pessimistic { cf } = config.pruning {
            prune_pessimistic(&mut root, cf);
        }
        DecisionTree { root, n_classes: data.n_classes() }
    }

    /// Exact-path fit against presorted columns the caller already built
    /// for exactly these `rows` (e.g. derived per bootstrap resample from
    /// a forest-shared [`RankedBase`](crate::common::split::RankedBase)).
    /// Consumes `sorted`: the column orders are destroyed by the in-place
    /// node partitions.
    pub fn fit_weighted_with_sorted(
        data: &Dataset,
        rows: &[usize],
        weights: &[f64],
        config: &TreeConfig,
        mut sorted: SortedColumns,
    ) -> DecisionTree {
        assert_eq!(weights.len(), data.n_rows(), "one weight per dataset row");
        let fit_rows: Vec<u32> = rows.iter().map(|&r| r as u32).collect();
        let root_segs: Vec<Seg> =
            sorted.cols.iter().map(|c| (0u32, c.len() as u32)).collect();
        let mut grower = Grower::new(data, config, weights, fit_rows);
        let mut row_buf: Vec<u32> = (0..rows.len() as u32).collect();
        let mut root = grower.grow_exact(&mut row_buf, root_segs, 0, &mut sorted);
        if let Pruning::Pessimistic { cf } = config.pruning {
            prune_pessimistic(&mut root, cf);
        }
        DecisionTree { root, n_classes: data.n_classes() }
    }

    /// Histogram-path fit against a prebuilt quantisation, so a whole
    /// forest bins its numeric features once. `config.max_bins` is not
    /// consulted; the caller chose the binned path by supplying `bins`.
    pub fn fit_weighted_binned(
        data: &Dataset,
        rows: &[usize],
        weights: &[f64],
        config: &TreeConfig,
        bins: &BinnedColumns,
    ) -> DecisionTree {
        assert_eq!(weights.len(), data.n_rows(), "one weight per dataset row");
        let fit_rows: Vec<u32> = rows.iter().map(|&r| r as u32).collect();
        // Gather each feature's bin codes into slot order once per tree;
        // the per-node histogram fill then walks dense u8 arrays.
        let slot_codes: Vec<Option<Vec<u8>>> = bins
            .cols
            .iter()
            .map(|c| {
                c.as_ref()
                    .map(|col| fit_rows.iter().map(|&r| col.codes[r as usize]).collect())
            })
            .collect();
        let mut grower = Grower::new(data, config, weights, fit_rows);
        let mut row_buf: Vec<u32> = (0..rows.len() as u32).collect();
        let mut root = grower.grow_binned(&mut row_buf, 0, bins, &slot_codes);
        if let Pruning::Pessimistic { cf } = config.pruning {
            prune_pessimistic(&mut root, cf);
        }
        DecisionTree { root, n_classes: data.n_classes() }
    }

    /// Class-probability prediction for `rows`.
    pub fn predict_proba(&self, data: &Dataset, rows: &[usize]) -> Vec<Vec<f64>> {
        rows.iter().map(|&r| self.row_proba(data, r)).collect()
    }

    /// Probability vector for a single absolute row.
    pub fn row_proba(&self, data: &Dataset, row: usize) -> Vec<f64> {
        let counts = descend(&self.root, data, row);
        normalize(counts, self.n_classes)
    }

    /// Number of leaves (model complexity; DeepBoost's penalty uses this).
    pub fn n_leaves(&self) -> usize {
        count_leaves(&self.root)
    }

    /// Tree depth (root-only tree = 0).
    pub fn depth(&self) -> usize {
        node_depth(&self.root)
    }

    /// Feature indices used by at least one split, with split counts —
    /// backs the interpretability output.
    pub fn feature_usage(&self) -> Vec<(usize, usize)> {
        let mut counts = std::collections::BTreeMap::new();
        collect_usage(&self.root, &mut counts);
        counts.into_iter().collect()
    }

    /// Index of the leaf `row` falls into (leaves numbered in-order).
    /// Rows stopped early by a missing value map to the first leaf under
    /// the stopping node.
    pub fn leaf_id(&self, data: &Dataset, row: usize) -> usize {
        let mut next_id = 0usize;
        leaf_id_rec(&self.root, data, row, &mut next_id).unwrap_or(0)
    }

    /// Extracts every root-to-leaf path as a [`Rule`] (PART and C5.0's rules
    /// mode build on this).
    pub fn extract_rules(&self) -> Vec<Rule> {
        let mut rules = Vec::new();
        let mut conditions = Vec::new();
        extract_rules_rec(&self.root, &mut conditions, &mut rules);
        rules
    }
}

/// One atomic condition on a feature.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Numeric feature ≤ threshold.
    NumericLe(usize, f64),
    /// Numeric feature > threshold.
    NumericGt(usize, f64),
    /// Categorical feature equals the level code.
    CatEq(usize, u32),
}

impl Condition {
    /// Evaluates the condition on one row; missing values never match.
    pub fn matches(&self, data: &Dataset, row: usize) -> bool {
        match *self {
            Condition::NumericLe(f, thr) => match data.feature(f) {
                Feature::Numeric { values, .. } => {
                    let v = values[row];
                    !v.is_nan() && v <= thr
                }
                _ => false,
            },
            Condition::NumericGt(f, thr) => match data.feature(f) {
                Feature::Numeric { values, .. } => {
                    let v = values[row];
                    !v.is_nan() && v > thr
                }
                _ => false,
            },
            Condition::CatEq(f, code) => match data.feature(f) {
                Feature::Categorical { codes, .. } => codes[row] == code,
                _ => false,
            },
        }
    }
}

/// A conjunctive classification rule: `IF conditions THEN class distribution`.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Conditions joined by AND; an empty list matches everything.
    pub conditions: Vec<Condition>,
    /// Weighted class distribution of the training rows reaching the leaf.
    pub counts: Vec<f64>,
}

impl Rule {
    /// True when every condition holds for `row`.
    pub fn matches(&self, data: &Dataset, row: usize) -> bool {
        self.conditions.iter().all(|c| c.matches(data, row))
    }

    /// Total (weighted) coverage of the rule's training leaf.
    pub fn coverage(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// The rule's majority class.
    pub fn majority(&self) -> u32 {
        self.counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map_or(0, |(i, _)| i as u32)
    }
}

fn extract_rules_rec(node: &Node, conditions: &mut Vec<Condition>, rules: &mut Vec<Rule>) {
    match node {
        Node::Leaf { counts } => {
            rules.push(Rule { conditions: conditions.clone(), counts: counts.clone() });
        }
        Node::SplitNumeric { feature, threshold, left, right, .. } => {
            conditions.push(Condition::NumericLe(*feature, *threshold));
            extract_rules_rec(left, conditions, rules);
            conditions.pop();
            conditions.push(Condition::NumericGt(*feature, *threshold));
            extract_rules_rec(right, conditions, rules);
            conditions.pop();
        }
        Node::SplitCategorical { feature, branches, .. } => {
            for (code, branch) in branches.iter().enumerate() {
                if let Some(child) = branch {
                    conditions.push(Condition::CatEq(*feature, code as u32));
                    extract_rules_rec(child, conditions, rules);
                    conditions.pop();
                }
            }
        }
    }
}

/// In-order leaf numbering; returns the id of the leaf `row` reaches, or the
/// first leaf under the node where a missing value stopped the descent.
fn leaf_id_rec(node: &Node, data: &Dataset, row: usize, next_id: &mut usize) -> Option<usize> {
    match node {
        Node::Leaf { .. } => {
            let id = *next_id;
            *next_id += 1;
            Some(id)
        }
        Node::SplitNumeric { feature, threshold, left, right, .. } => {
            match data.feature(*feature) {
                Feature::Numeric { values, .. } => {
                    let v = values[row];
                    if v.is_nan() {
                        // Stop here: claim the first leaf of this subtree.
                        let id = *next_id;
                        *next_id += count_leaves(node);
                        Some(id)
                    } else if v <= *threshold {
                        let res = leaf_id_rec(left, data, row, next_id);
                        *next_id += count_leaves(right);
                        res
                    } else {
                        *next_id += count_leaves(left);
                        leaf_id_rec(right, data, row, next_id)
                    }
                }
                _ => {
                    let id = *next_id;
                    *next_id += count_leaves(node);
                    Some(id)
                }
            }
        }
        Node::SplitCategorical { feature, branches, .. } => match data.feature(*feature) {
            Feature::Categorical { codes, .. } => {
                let c = codes[row];
                let entry = *next_id;
                let mut result = None;
                for (code, branch) in branches.iter().enumerate() {
                    if let Some(child) = branch {
                        if c != MISSING_CODE && code as u32 == c && result.is_none() {
                            result = leaf_id_rec(child, data, row, next_id);
                        } else {
                            *next_id += count_leaves(child);
                        }
                    }
                }
                // Unseen level or missing value: use this subtree's first leaf.
                Some(result.unwrap_or(entry))
            }
            _ => None,
        },
    }
}

fn descend<'a>(node: &'a Node, data: &Dataset, row: usize) -> &'a [f64] {
    match node {
        Node::Leaf { counts } => counts,
        Node::SplitNumeric { feature, threshold, left, right, counts } => {
            match data.feature(*feature) {
                Feature::Numeric { values, .. } => {
                    let v = values[row];
                    if v.is_nan() {
                        counts // missing: stop at this node's distribution
                    } else if v <= *threshold {
                        descend(left, data, row)
                    } else {
                        descend(right, data, row)
                    }
                }
                _ => counts,
            }
        }
        Node::SplitCategorical { feature, branches, counts } => match data.feature(*feature) {
            Feature::Categorical { codes, .. } => {
                let c = codes[row];
                if c == MISSING_CODE {
                    return counts;
                }
                match branches.get(c as usize).and_then(|b| b.as_deref()) {
                    Some(child) => descend(child, data, row),
                    None => counts,
                }
            }
            _ => counts,
        },
    }
}

fn normalize(counts: &[f64], k: usize) -> Vec<f64> {
    let total: f64 = counts.iter().sum();
    if total > 1e-300 {
        counts.iter().map(|c| c / total).collect()
    } else {
        vec![1.0 / k as f64; k]
    }
}

fn count_leaves(node: &Node) -> usize {
    match node {
        Node::Leaf { .. } => 1,
        Node::SplitNumeric { left, right, .. } => count_leaves(left) + count_leaves(right),
        Node::SplitCategorical { branches, .. } => branches
            .iter()
            .filter_map(|b| b.as_deref())
            .map(count_leaves)
            .sum::<usize>()
            .max(1),
    }
}

fn node_depth(node: &Node) -> usize {
    match node {
        Node::Leaf { .. } => 0,
        Node::SplitNumeric { left, right, .. } => 1 + node_depth(left).max(node_depth(right)),
        Node::SplitCategorical { branches, .. } => {
            1 + branches
                .iter()
                .filter_map(|b| b.as_deref())
                .map(node_depth)
                .max()
                .unwrap_or(0)
        }
    }
}

fn collect_usage(node: &Node, counts: &mut std::collections::BTreeMap<usize, usize>) {
    match node {
        Node::Leaf { .. } => {}
        Node::SplitNumeric { feature, left, right, .. } => {
            *counts.entry(*feature).or_insert(0) += 1;
            collect_usage(left, counts);
            collect_usage(right, counts);
        }
        Node::SplitCategorical { feature, branches, .. } => {
            *counts.entry(*feature).or_insert(0) += 1;
            for b in branches.iter().filter_map(|b| b.as_deref()) {
                collect_usage(b, counts);
            }
        }
    }
}

/// Candidate split found for a node.
enum BestSplit {
    Numeric { feature: usize, threshold: f64, score: f64 },
    Categorical { feature: usize, score: f64 },
}

impl BestSplit {
    fn score(&self) -> f64 {
        match self {
            BestSplit::Numeric { score, .. } | BestSplit::Categorical { score, .. } => *score,
        }
    }
}

impl<'a> Grower<'a> {
    fn new(
        data: &'a Dataset,
        config: &'a TreeConfig,
        weights: &[f64],
        fit_rows: Vec<u32>,
    ) -> Grower<'a> {
        let slot_label: Vec<u32> = fit_rows.iter().map(|&r| data.label(r as usize)).collect();
        let slot_weight: Vec<f64> = fit_rows.iter().map(|&r| weights[r as usize]).collect();
        let state = SplitState::new(fit_rows.len(), data.n_classes(), data.n_features());
        Grower {
            data,
            config,
            n_classes: data.n_classes(),
            rng: StdRng::seed_from_u64(config.seed),
            fit_rows,
            slot_label,
            slot_weight,
            state,
        }
    }

    /// Exact kernel: `rows` are this node's slots (in fit order), and
    /// `segs[f]` is this node's window into `sorted.cols[f]`. Consumes
    /// `segs` back into the pool on every path.
    fn grow_exact(
        &mut self,
        rows: &mut [u32],
        segs: Vec<Seg>,
        depth: usize,
        sorted: &mut SortedColumns,
    ) -> Node {
        let counts = self.class_counts(rows);
        let weight: f64 = counts.iter().sum();
        let imp = impurity(self.config.criterion, &counts, weight);
        if depth >= self.config.max_depth || weight < self.config.min_split || imp <= 1e-12 {
            self.state.put_segs(segs);
            return Node::Leaf { counts };
        }
        let data = self.data;
        let features = self.candidate_features();
        let mut best: Option<BestSplit> = None;
        for &f in &features {
            let candidate = match data.feature(f) {
                Feature::Numeric { .. } => {
                    let (start, len) = segs[f];
                    let seg = &sorted.cols[f][start as usize..(start + len) as usize];
                    self.best_numeric_presorted(f, seg, &sorted.vals[f], &counts)
                }
                Feature::Categorical { codes, levels, .. } => {
                    self.score_categorical(f, codes, levels.len(), rows, &counts)
                }
            };
            if let Some(c) = candidate {
                if best.as_ref().is_none_or(|b| c.score() > b.score()) {
                    best = Some(c);
                }
            }
        }
        let Some(split) = best else {
            self.state.put_segs(segs);
            return Node::Leaf { counts };
        };
        // rpart-style complexity gate: require relative impurity decrease > cp.
        let rel_gain = split.score() / imp.max(1e-12);
        if self.config.cp > 0.0 && rel_gain < self.config.cp {
            self.state.put_segs(segs);
            return Node::Leaf { counts };
        }
        match split {
            BestSplit::Numeric { feature, threshold, .. } => {
                {
                    let vals = &sorted.vals[feature];
                    for &s in rows.iter() {
                        let v = vals[s as usize];
                        self.state.side[s as usize] = if v.is_nan() {
                            SIDE_DROP
                        } else if v <= threshold {
                            SIDE_LEFT
                        } else {
                            SIDE_RIGHT
                        };
                    }
                }
                let (nl, nr) = partition2(rows, &self.state.side, &mut self.state.scratch);
                if nl == 0 || nr == 0 {
                    self.state.put_segs(segs);
                    return Node::Leaf { counts };
                }
                let mut left_segs = self.state.take_segs();
                let mut right_segs = self.state.take_segs();
                for g in 0..segs.len() {
                    let (gs, gl) = segs[g];
                    if gl == 0 {
                        continue;
                    }
                    let seg = &mut sorted.cols[g][gs as usize..(gs + gl) as usize];
                    let (gnl, gnr) = partition2(seg, &self.state.side, &mut self.state.scratch);
                    left_segs[g] = (gs, gnl as u32);
                    right_segs[g] = (gs + gnl as u32, gnr as u32);
                }
                self.state.put_segs(segs);
                let (left_rows, right_rows) = rows.split_at_mut(nl);
                let left = Box::new(self.grow_exact(left_rows, left_segs, depth + 1, sorted));
                let right = Box::new(self.grow_exact(
                    &mut right_rows[..nr],
                    right_segs,
                    depth + 1,
                    sorted,
                ));
                Node::SplitNumeric { feature, threshold, left, right, counts }
            }
            BestSplit::Categorical { feature, .. } => {
                let (codes, n_levels) = match data.feature(feature) {
                    Feature::Categorical { codes, levels, .. } => (codes, levels.len()),
                    _ => unreachable!(),
                };
                for &s in rows.iter() {
                    // Level codes double as partition sides
                    // (MISSING_CODE == SIDE_DROP).
                    self.state.side[s as usize] = codes[self.fit_rows[s as usize] as usize];
                }
                let kept = partition_multi(
                    rows,
                    &self.state.side,
                    n_levels,
                    &mut self.state.mw_cnt,
                    &mut self.state.mw_off,
                    &mut self.state.scratch,
                );
                // Per-level row counts must survive the per-feature
                // partitions below (which reuse mw_cnt) and the child
                // recursions.
                let row_cnt: Vec<u32> = self.state.mw_cnt.clone();
                debug_assert_eq!(kept, row_cnt.iter().sum::<u32>() as usize);
                let mut child_segs: Vec<Vec<Seg>> =
                    (0..n_levels).map(|_| self.state.take_segs()).collect();
                for g in 0..segs.len() {
                    let (gs, gl) = segs[g];
                    if gl == 0 {
                        continue;
                    }
                    let seg = &mut sorted.cols[g][gs as usize..(gs + gl) as usize];
                    partition_multi(
                        seg,
                        &self.state.side,
                        n_levels,
                        &mut self.state.mw_cnt,
                        &mut self.state.mw_off,
                        &mut self.state.scratch,
                    );
                    let mut running = gs;
                    for (c, cs) in child_segs.iter_mut().enumerate() {
                        let cnt = self.state.mw_cnt[c];
                        cs[g] = (running, cnt);
                        running += cnt;
                    }
                }
                self.state.put_segs(segs);
                let mut branches: Vec<Option<Box<Node>>> = Vec::with_capacity(n_levels);
                let mut pos = 0usize;
                for (c, cs) in child_segs.into_iter().enumerate() {
                    let cnt = row_cnt[c] as usize;
                    if cnt == 0 {
                        self.state.put_segs(cs);
                        branches.push(None);
                    } else {
                        let child_rows = &mut rows[pos..pos + cnt];
                        branches.push(Some(Box::new(
                            self.grow_exact(child_rows, cs, depth + 1, sorted),
                        )));
                    }
                    pos += cnt;
                }
                Node::SplitCategorical { feature, branches, counts }
            }
        }
    }

    /// Rank-radix arm of the exact kernel, used when `mtry < n_features`
    /// (forests): nothing is maintained per column; each *candidate*
    /// numeric feature is ordered per node by a radix sort of packed
    /// `(rank, slot)` pairs gathered from `slot_rank`. The scan then
    /// walks ranks in ascending order and maps them to values through the
    /// base's `rank_vals` table, so it never touches a per-slot value
    /// array. Bit-exact with [`grow_exact`] and the [`oracle`]: stable
    /// partitions keep every node's `rows` in ascending slot order, and a
    /// stable radix over that order reproduces the comparison sort's
    /// `(value, slot)` order exactly.
    fn grow_ranked(
        &mut self,
        rows: &mut [u32],
        depth: usize,
        slot_rank: &[Vec<u32>],
        base: &RankedBase,
    ) -> Node {
        let counts = self.class_counts(rows);
        let weight: f64 = counts.iter().sum();
        let imp = impurity(self.config.criterion, &counts, weight);
        if depth >= self.config.max_depth || weight < self.config.min_split || imp <= 1e-12 {
            return Node::Leaf { counts };
        }
        let data = self.data;
        let features = self.candidate_features();
        let mut best: Option<BestSplit> = None;
        for &f in &features {
            let candidate = match data.feature(f) {
                Feature::Numeric { .. } => {
                    let ranks = &slot_rank[f];
                    let mut pairs = std::mem::take(&mut self.state.pairs);
                    let mut tmp = std::mem::take(&mut self.state.pairs_tmp);
                    pairs.clear();
                    for &s in rows.iter() {
                        let r = ranks[s as usize];
                        if r != NAN_RANK {
                            pairs.push(((r as u64) << 32) | s as u64);
                        }
                    }
                    radix_sort_ranked(
                        &mut pairs,
                        &mut tmp,
                        &mut self.state.radix_cnt,
                        base.n_ranks[f],
                    );
                    let candidate =
                        self.best_numeric_ranked(f, &pairs, &base.rank_vals[f], &counts);
                    self.state.pairs = pairs;
                    self.state.pairs_tmp = tmp;
                    candidate
                }
                Feature::Categorical { codes, levels, .. } => {
                    self.score_categorical(f, codes, levels.len(), rows, &counts)
                }
            };
            if let Some(c) = candidate {
                if best.as_ref().is_none_or(|b| c.score() > b.score()) {
                    best = Some(c);
                }
            }
        }
        let Some(split) = best else {
            return Node::Leaf { counts };
        };
        let rel_gain = split.score() / imp.max(1e-12);
        if self.config.cp > 0.0 && rel_gain < self.config.cp {
            return Node::Leaf { counts };
        }
        match split {
            BestSplit::Numeric { feature, threshold, .. } => {
                // Route by rank: `v <= threshold` holds for every rank up
                // to the cut's lower rank, and for the upper rank too iff
                // its value clears the midpoint (possible when rounding
                // pulls the midpoint onto it) — resolve that once and the
                // per-row test is an integer compare.
                let ranks = &slot_rank[feature];
                let rank_vals = &base.rank_vals[feature];
                let cut = rank_vals.partition_point(|&v| v <= threshold) as u32;
                for &s in rows.iter() {
                    let r = ranks[s as usize];
                    self.state.side[s as usize] = if r == NAN_RANK {
                        SIDE_DROP
                    } else if r < cut {
                        SIDE_LEFT
                    } else {
                        SIDE_RIGHT
                    };
                }
                let (nl, nr) = partition2(rows, &self.state.side, &mut self.state.scratch);
                if nl == 0 || nr == 0 {
                    return Node::Leaf { counts };
                }
                let (left_rows, right_rows) = rows.split_at_mut(nl);
                let left =
                    Box::new(self.grow_ranked(left_rows, depth + 1, slot_rank, base));
                let right = Box::new(self.grow_ranked(
                    &mut right_rows[..nr],
                    depth + 1,
                    slot_rank,
                    base,
                ));
                Node::SplitNumeric { feature, threshold, left, right, counts }
            }
            BestSplit::Categorical { feature, .. } => {
                let (codes, n_levels) = match data.feature(feature) {
                    Feature::Categorical { codes, levels, .. } => (codes, levels.len()),
                    _ => unreachable!(),
                };
                for &s in rows.iter() {
                    self.state.side[s as usize] = codes[self.fit_rows[s as usize] as usize];
                }
                partition_multi(
                    rows,
                    &self.state.side,
                    n_levels,
                    &mut self.state.mw_cnt,
                    &mut self.state.mw_off,
                    &mut self.state.scratch,
                );
                let row_cnt: Vec<u32> = self.state.mw_cnt.clone();
                let mut branches: Vec<Option<Box<Node>>> = Vec::with_capacity(n_levels);
                let mut pos = 0usize;
                for &cnt in &row_cnt {
                    let cnt = cnt as usize;
                    if cnt == 0 {
                        branches.push(None);
                    } else {
                        let child_rows = &mut rows[pos..pos + cnt];
                        branches.push(Some(Box::new(
                            self.grow_ranked(child_rows, depth + 1, slot_rank, base),
                        )));
                    }
                    pos += cnt;
                }
                Node::SplitCategorical { feature, branches, counts }
            }
        }
    }

    /// Histogram kernel: `rows` are this node's slots; numeric features
    /// are scanned through their per-fit bin codes in `slot_codes`.
    fn grow_binned(
        &mut self,
        rows: &mut [u32],
        depth: usize,
        bins: &BinnedColumns,
        slot_codes: &[Option<Vec<u8>>],
    ) -> Node {
        let counts = self.class_counts(rows);
        let weight: f64 = counts.iter().sum();
        let imp = impurity(self.config.criterion, &counts, weight);
        if depth >= self.config.max_depth || weight < self.config.min_split || imp <= 1e-12 {
            return Node::Leaf { counts };
        }
        let data = self.data;
        let features = self.candidate_features();
        let mut best: Option<BestSplit> = None;
        for &f in &features {
            let candidate = match data.feature(f) {
                Feature::Numeric { .. } => {
                    let col = bins.cols[f].as_ref().expect("numeric feature is binned");
                    let codes = slot_codes[f].as_ref().expect("numeric feature is binned");
                    self.best_numeric_binned(f, &col.edges, codes, rows, &counts)
                }
                Feature::Categorical { codes, levels, .. } => {
                    self.score_categorical(f, codes, levels.len(), rows, &counts)
                }
            };
            if let Some(c) = candidate {
                if best.as_ref().is_none_or(|b| c.score() > b.score()) {
                    best = Some(c);
                }
            }
        }
        let Some(split) = best else {
            return Node::Leaf { counts };
        };
        let rel_gain = split.score() / imp.max(1e-12);
        if self.config.cp > 0.0 && rel_gain < self.config.cp {
            return Node::Leaf { counts };
        }
        match split {
            BestSplit::Numeric { feature, threshold, .. } => {
                // Thresholds are actual data values (bin upper edges), so
                // raw-value routing here and at predict time agrees with
                // bin-code routing during the scan.
                let values = match data.feature(feature) {
                    Feature::Numeric { values, .. } => values,
                    _ => unreachable!(),
                };
                for &s in rows.iter() {
                    let v = values[self.fit_rows[s as usize] as usize];
                    self.state.side[s as usize] = if v.is_nan() {
                        SIDE_DROP
                    } else if v <= threshold {
                        SIDE_LEFT
                    } else {
                        SIDE_RIGHT
                    };
                }
                let (nl, nr) = partition2(rows, &self.state.side, &mut self.state.scratch);
                if nl == 0 || nr == 0 {
                    return Node::Leaf { counts };
                }
                let (left_rows, right_rows) = rows.split_at_mut(nl);
                let left = Box::new(self.grow_binned(left_rows, depth + 1, bins, slot_codes));
                let right =
                    Box::new(self.grow_binned(&mut right_rows[..nr], depth + 1, bins, slot_codes));
                Node::SplitNumeric { feature, threshold, left, right, counts }
            }
            BestSplit::Categorical { feature, .. } => {
                let (codes, n_levels) = match data.feature(feature) {
                    Feature::Categorical { codes, levels, .. } => (codes, levels.len()),
                    _ => unreachable!(),
                };
                for &s in rows.iter() {
                    self.state.side[s as usize] = codes[self.fit_rows[s as usize] as usize];
                }
                partition_multi(
                    rows,
                    &self.state.side,
                    n_levels,
                    &mut self.state.mw_cnt,
                    &mut self.state.mw_off,
                    &mut self.state.scratch,
                );
                let row_cnt: Vec<u32> = self.state.mw_cnt.clone();
                let mut branches: Vec<Option<Box<Node>>> = Vec::with_capacity(n_levels);
                let mut pos = 0usize;
                for &cnt in &row_cnt {
                    let cnt = cnt as usize;
                    if cnt == 0 {
                        branches.push(None);
                    } else {
                        let child_rows = &mut rows[pos..pos + cnt];
                        branches.push(Some(Box::new(
                            self.grow_binned(child_rows, depth + 1, bins, slot_codes),
                        )));
                    }
                    pos += cnt;
                }
                Node::SplitCategorical { feature, branches, counts }
            }
        }
    }

    fn candidate_features(&mut self) -> Vec<usize> {
        let d = self.data.n_features();
        match self.config.mtry {
            None => (0..d).collect(),
            Some(m) => {
                let mut idx: Vec<usize> = (0..d).collect();
                idx.shuffle(&mut self.rng);
                idx.truncate(m.clamp(1, d));
                idx
            }
        }
    }

    fn class_counts(&self, rows: &[u32]) -> Vec<f64> {
        let mut counts = vec![0.0; self.n_classes];
        for &s in rows {
            counts[self.slot_label[s as usize] as usize] += self.slot_weight[s as usize];
        }
        counts
    }

    /// Best threshold for a numeric feature from its presorted segment:
    /// the same left-add/right-subtract scan as the oracle's
    /// `best_numeric_split`, minus the per-node sort — `seg` already
    /// lists this node's non-NaN slots in (value, fit-order) order.
    fn best_numeric_presorted(
        &mut self,
        feature: usize,
        seg: &[u32],
        vals: &[f64],
        parent_counts: &[f64],
    ) -> Option<BestSplit> {
        if seg.len() < 2 {
            return None;
        }
        let parent_total: f64 = parent_counts.iter().sum();
        let parent_imp = impurity(self.config.criterion, parent_counts, parent_total);
        self.state.left_counts.fill(0.0);
        let mut left_total = 0.0;
        self.state.right_counts.clear();
        self.state.right_counts.extend_from_slice(parent_counts);
        let mut right_total = parent_total;
        let mut best: Option<(f64, f64)> = None; // (threshold, score)
        for w in 0..seg.len() - 1 {
            let s = seg[w] as usize;
            let wgt = self.slot_weight[s];
            let cls = self.slot_label[s] as usize;
            self.state.left_counts[cls] += wgt;
            left_total += wgt;
            self.state.right_counts[cls] -= wgt;
            right_total -= wgt;
            let v_here = vals[s];
            let v_next = vals[seg[w + 1] as usize];
            if v_next <= v_here {
                continue; // same value: not a valid cut point
            }
            if left_total < self.config.min_leaf || right_total < self.config.min_leaf {
                continue;
            }
            let score = split_score(
                self.config.criterion,
                parent_imp,
                parent_total,
                &[
                    (self.state.left_counts.as_slice(), left_total),
                    (self.state.right_counts.as_slice(), right_total),
                ],
            );
            let threshold = 0.5 * (v_here + v_next);
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((threshold, score));
            }
        }
        best.map(|(threshold, score)| BestSplit::Numeric { feature, threshold, score })
    }

    /// Best threshold for a numeric feature from its radix-sorted
    /// `(rank, slot)` pairs: the oracle's left-add/right-subtract scan,
    /// with value equality read off the ranks (equal rank ⟺ equal value)
    /// and candidate thresholds reconstructed from the rank → value
    /// table, which holds the exact `f64`s the oracle averages.
    fn best_numeric_ranked(
        &mut self,
        feature: usize,
        pairs: &[u64],
        rank_vals: &[f64],
        parent_counts: &[f64],
    ) -> Option<BestSplit> {
        if pairs.len() < 2 {
            return None;
        }
        let parent_total: f64 = parent_counts.iter().sum();
        let parent_imp = impurity(self.config.criterion, parent_counts, parent_total);
        self.state.left_counts.fill(0.0);
        let mut left_total = 0.0;
        self.state.right_counts.clear();
        self.state.right_counts.extend_from_slice(parent_counts);
        let mut right_total = parent_total;
        let mut best: Option<(f64, f64)> = None; // (threshold, score)
        for w in 0..pairs.len() - 1 {
            let s = pairs[w] as u32 as usize;
            let wgt = self.slot_weight[s];
            let cls = self.slot_label[s] as usize;
            self.state.left_counts[cls] += wgt;
            left_total += wgt;
            self.state.right_counts[cls] -= wgt;
            right_total -= wgt;
            let r_here = (pairs[w] >> 32) as u32;
            let r_next = (pairs[w + 1] >> 32) as u32;
            if r_next == r_here {
                continue; // same value: not a valid cut point
            }
            if left_total < self.config.min_leaf || right_total < self.config.min_leaf {
                continue;
            }
            let score = split_score(
                self.config.criterion,
                parent_imp,
                parent_total,
                &[
                    (self.state.left_counts.as_slice(), left_total),
                    (self.state.right_counts.as_slice(), right_total),
                ],
            );
            let threshold =
                0.5 * (rank_vals[r_here as usize] + rank_vals[r_next as usize]);
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((threshold, score));
            }
        }
        best.map(|(threshold, score)| BestSplit::Numeric { feature, threshold, score })
    }

    /// Best threshold for a numeric feature from its histogram: O(rows)
    /// fill plus O(bins) scan. Missing rows stay on the right implicitly,
    /// mirroring the exact kernel's semantics.
    fn best_numeric_binned(
        &mut self,
        feature: usize,
        edges: &[f64],
        slot_codes: &[u8],
        rows: &[u32],
        parent_counts: &[f64],
    ) -> Option<BestSplit> {
        let nb = edges.len();
        if nb < 2 {
            return None;
        }
        let k = self.n_classes;
        // Missing rows are skipped and land in no bin.
        let n_present = crate::common::split::fill_histogram(
            rows,
            slot_codes,
            &self.slot_label,
            &self.slot_weight,
            k,
            &mut self.state.hist,
            &mut self.state.hist_total,
        );
        if n_present < 2 {
            return None;
        }
        let last = (0..nb).rev().find(|&b| self.state.hist_total[b] > 0.0)?;
        let parent_total: f64 = parent_counts.iter().sum();
        let parent_imp = impurity(self.config.criterion, parent_counts, parent_total);
        self.state.left_counts.fill(0.0);
        let mut left_total = 0.0;
        self.state.right_counts.clear();
        self.state.right_counts.extend_from_slice(parent_counts);
        let mut right_total = parent_total;
        let mut best: Option<(f64, f64)> = None;
        for b in 0..last {
            let bt = self.state.hist_total[b];
            if bt == 0.0 {
                continue; // cut equivalent to the previous one
            }
            let bin_row = &self.state.hist[b * k..b * k + k];
            kernels::add_assign(&mut self.state.left_counts, bin_row);
            kernels::sub_assign(&mut self.state.right_counts, bin_row);
            left_total += bt;
            right_total -= bt;
            if left_total < self.config.min_leaf || right_total < self.config.min_leaf {
                continue;
            }
            let score = split_score(
                self.config.criterion,
                parent_imp,
                parent_total,
                &[
                    (self.state.left_counts.as_slice(), left_total),
                    (self.state.right_counts.as_slice(), right_total),
                ],
            );
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((edges[b], score));
            }
        }
        best.map(|(threshold, score)| BestSplit::Numeric { feature, threshold, score })
    }

    /// Scores a multiway categorical split into the flattened
    /// `level × class` scratch (no per-node `Vec<Vec<f64>>`), visiting
    /// levels in the same order as the oracle's `score_categorical_split`
    /// so the scores are bit-identical.
    fn score_categorical(
        &mut self,
        feature: usize,
        codes: &[u32],
        n_levels: usize,
        rows: &[u32],
        parent_counts: &[f64],
    ) -> Option<BestSplit> {
        let k = self.n_classes;
        self.state.cat_counts.clear();
        self.state.cat_counts.resize(n_levels * k, 0.0);
        self.state.cat_totals.clear();
        self.state.cat_totals.resize(n_levels, 0.0);
        for &s in rows {
            let c = codes[self.fit_rows[s as usize] as usize];
            if c == MISSING_CODE {
                continue;
            }
            let wgt = self.slot_weight[s as usize];
            self.state.cat_counts[c as usize * k + self.slot_label[s as usize] as usize] += wgt;
            self.state.cat_totals[c as usize] += wgt;
        }
        let mut n_non_empty = 0usize;
        let mut too_small = false;
        for &t in &self.state.cat_totals {
            if t > 0.0 {
                n_non_empty += 1;
                if t < self.config.min_leaf {
                    too_small = true;
                }
            }
        }
        if n_non_empty < 2 || too_small {
            return None;
        }
        let parent_total: f64 = parent_counts.iter().sum();
        let parent_imp = impurity(self.config.criterion, parent_counts, parent_total);
        let score = split_score_levels(
            self.config.criterion,
            parent_imp,
            parent_total,
            &self.state.cat_counts,
            &self.state.cat_totals,
            k,
        );
        Some(BestSplit::Categorical { feature, score })
    }
}

/// Node impurity under `criterion` (bit-identical to the oracle's
/// method).
fn impurity(criterion: SplitCriterion, counts: &[f64], total: f64) -> f64 {
    if total <= 1e-300 {
        return 0.0;
    }
    match criterion {
        SplitCriterion::Gini => {
            1.0 - counts.iter().map(|c| (c / total) * (c / total)).sum::<f64>()
        }
        SplitCriterion::GainRatio => {
            // Entropy in nats.
            -counts
                .iter()
                .filter(|&&c| c > 0.0)
                .map(|&c| {
                    let p = c / total;
                    p * p.ln()
                })
                .sum::<f64>()
        }
    }
}

/// Impurity decrease (Gini) or gain ratio (C4.5) of a proposed split
/// (bit-identical to the oracle's method).
fn split_score(
    criterion: SplitCriterion,
    parent_imp: f64,
    parent_total: f64,
    children: &[(&[f64], f64)],
) -> f64 {
    let mut weighted_child_imp = 0.0;
    for &(counts, total) in children {
        weighted_child_imp += total / parent_total * impurity(criterion, counts, total);
    }
    let gain = parent_imp - weighted_child_imp;
    match criterion {
        SplitCriterion::Gini => gain,
        SplitCriterion::GainRatio => {
            // Split info: entropy of the child-size distribution.
            let split_info: f64 = -children
                .iter()
                .map(|&(_, t)| {
                    let p = t / parent_total;
                    if p > 0.0 {
                        p * p.ln()
                    } else {
                        0.0
                    }
                })
                .sum::<f64>();
            if split_info <= 1e-12 {
                0.0
            } else {
                gain / split_info
            }
        }
    }
}

/// [`split_score`] over the non-empty levels of a flattened categorical
/// count table, visited in ascending level order (the oracle's
/// `non_empty` order) for bit-identical accumulation.
fn split_score_levels(
    criterion: SplitCriterion,
    parent_imp: f64,
    parent_total: f64,
    flat: &[f64],
    totals: &[f64],
    k: usize,
) -> f64 {
    let mut weighted_child_imp = 0.0;
    for (c, &t) in totals.iter().enumerate() {
        if t > 0.0 {
            weighted_child_imp += t / parent_total * impurity(criterion, &flat[c * k..(c + 1) * k], t);
        }
    }
    let gain = parent_imp - weighted_child_imp;
    match criterion {
        SplitCriterion::Gini => gain,
        SplitCriterion::GainRatio => {
            let split_info: f64 = -totals
                .iter()
                .filter(|&&t| t > 0.0)
                .map(|&t| {
                    let p = t / parent_total;
                    if p > 0.0 {
                        p * p.ln()
                    } else {
                        0.0
                    }
                })
                .sum::<f64>();
            if split_info <= 1e-12 {
                0.0
            } else {
                gain / split_info
            }
        }
    }
}

/// C4.5 pessimistic pruning: collapse a subtree into a leaf when the leaf's
/// pessimistic error estimate does not exceed the subtree's.
fn prune_pessimistic(node: &mut Node, cf: f64) {
    let z = cf_to_z(cf);
    prune_rec(node, z, cf);
}

fn prune_rec(node: &mut Node, z: f64, cf: f64) -> f64 {
    let counts = node.counts().to_vec();
    match node {
        Node::Leaf { .. } => pessimistic_errors(&counts, z, cf),
        Node::SplitNumeric { left, right, .. } => {
            let subtree_err = prune_rec(left, z, cf) + prune_rec(right, z, cf);
            maybe_collapse(node, counts, subtree_err, z, cf)
        }
        Node::SplitCategorical { branches, .. } => {
            let subtree_err: f64 = branches
                .iter_mut()
                .filter_map(|b| b.as_deref_mut())
                .map(|b| prune_rec(b, z, cf))
                .sum();
            maybe_collapse(node, counts, subtree_err, z, cf)
        }
    }
}

fn maybe_collapse(node: &mut Node, counts: Vec<f64>, subtree_err: f64, z: f64, cf: f64) -> f64 {
    let leaf_err = pessimistic_errors(&counts, z, cf);
    if leaf_err <= subtree_err + 0.1 {
        *node = Node::Leaf { counts };
        leaf_err
    } else {
        subtree_err
    }
}

/// Upper-confidence estimate of the error *count* at a node — C4.5's
/// `addErrs`: the exact binomial bound when no errors were observed,
/// otherwise the Wilson upper confidence limit at confidence `cf`
/// (z = Φ⁻¹(1-cf)).
fn pessimistic_errors(counts: &[f64], z: f64, cf: f64) -> f64 {
    let total: f64 = counts.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let majority = counts.iter().copied().fold(0.0, f64::max);
    let errors = total - majority;
    if errors < 1e-9 {
        // Exact binomial upper bound for zero observed errors:
        // the largest p with (1-p)^N >= cf.
        return total * (1.0 - (cf.ln() / total).exp());
    }
    let f = errors / total;
    let z2 = z * z;
    let upper = (f + z2 / (2.0 * total)
        + z * (f / total - f * f / total + z2 / (4.0 * total * total)).sqrt())
        / (1.0 + z2 / total);
    upper * total
}

/// Approximate inverse-normal quantile for (1 - cf); cf = 0.25 → z ≈ 0.674.
fn cf_to_z(cf: f64) -> f64 {
    // Beasley-Springer-Moro-ish rational approximation on the central region.
    let p = 1.0 - cf.clamp(0.001, 0.5);
    let t = (-2.0 * (1.0 - p).ln()).sqrt();
    t - (2.30753 + 0.27061 * t) / (1.0 + 0.99229 * t + 0.04481 * t * t)
}

/// The pre-kernel naive tree builder, retained verbatim as a
/// differential-testing oracle for the presorted kernel: it re-sorts the
/// candidate rows at every node for every numeric feature. Kept `pub`
/// (rather than `#[cfg(test)]`) because the cross-crate equivalence
/// tests and the `tree_kernels` old-vs-new benchmark need it; it is not
/// part of the supported API.
#[doc(hidden)]
pub mod oracle {
    use super::*;

    /// Oracle twin of [`DecisionTree::fit`].
    pub fn fit(data: &Dataset, rows: &[usize], config: &TreeConfig) -> DecisionTree {
        let weights = vec![1.0; data.n_rows()];
        fit_weighted(data, rows, &weights, config)
    }

    /// Oracle twin of [`DecisionTree::fit_weighted`] (always exact;
    /// `config.max_bins` is ignored).
    pub fn fit_weighted(
        data: &Dataset,
        rows: &[usize],
        weights: &[f64],
        config: &TreeConfig,
    ) -> DecisionTree {
        assert_eq!(weights.len(), data.n_rows(), "one weight per dataset row");
        let mut builder = Builder {
            data,
            config,
            weights,
            n_classes: data.n_classes(),
            rng: StdRng::seed_from_u64(config.seed),
        };
        let mut row_buf: Vec<usize> = rows.to_vec();
        let mut root = builder.grow(&mut row_buf, 0);
        if let Pruning::Pessimistic { cf } = config.pruning {
            prune_pessimistic(&mut root, cf);
        }
        DecisionTree { root, n_classes: data.n_classes() }
    }

    struct Builder<'a> {
        data: &'a Dataset,
        config: &'a TreeConfig,
        weights: &'a [f64],
        n_classes: usize,
        rng: StdRng,
    }

    impl<'a> Builder<'a> {
        fn grow(&mut self, rows: &mut [usize], depth: usize) -> Node {
            let counts = self.class_counts(rows);
            let weight: f64 = counts.iter().sum();
            let impurity = self.impurity(&counts, weight);
            if depth >= self.config.max_depth
                || weight < self.config.min_split
                || impurity <= 1e-12
            {
                return Node::Leaf { counts };
            }
            let features = self.candidate_features();
            let mut best: Option<BestSplit> = None;
            for &f in &features {
                let candidate = match self.data.feature(f) {
                    Feature::Numeric { values, .. } => {
                        self.best_numeric_split(f, values, rows, &counts)
                    }
                    Feature::Categorical { codes, levels, .. } => {
                        self.score_categorical_split(f, codes, levels.len(), rows, &counts)
                    }
                };
                if let Some(c) = candidate {
                    if best.as_ref().is_none_or(|b| c.score() > b.score()) {
                        best = Some(c);
                    }
                }
            }
            let Some(split) = best else {
                return Node::Leaf { counts };
            };
            // rpart-style complexity gate: require relative impurity decrease > cp.
            let rel_gain = split.score() / impurity.max(1e-12);
            if self.config.cp > 0.0 && rel_gain < self.config.cp {
                return Node::Leaf { counts };
            }
            match split {
                BestSplit::Numeric { feature, threshold, .. } => {
                    let values = match self.data.feature(feature) {
                        Feature::Numeric { values, .. } => values,
                        _ => unreachable!(),
                    };
                    let (mut left_rows, mut right_rows): (Vec<usize>, Vec<usize>) = rows
                        .iter()
                        .filter(|&&r| !values[r].is_nan())
                        .partition(|&&r| values[r] <= threshold);
                    if left_rows.is_empty() || right_rows.is_empty() {
                        return Node::Leaf { counts };
                    }
                    let left = Box::new(self.grow(&mut left_rows, depth + 1));
                    let right = Box::new(self.grow(&mut right_rows, depth + 1));
                    Node::SplitNumeric { feature, threshold, left, right, counts }
                }
                BestSplit::Categorical { feature, .. } => {
                    let (codes, n_levels) = match self.data.feature(feature) {
                        Feature::Categorical { codes, levels, .. } => (codes, levels.len()),
                        _ => unreachable!(),
                    };
                    let mut level_rows: Vec<Vec<usize>> = vec![Vec::new(); n_levels];
                    for &r in rows.iter() {
                        let c = codes[r];
                        if c != MISSING_CODE {
                            level_rows[c as usize].push(r);
                        }
                    }
                    let branches = level_rows
                        .into_iter()
                        .map(|mut lr| {
                            if lr.is_empty() {
                                None
                            } else {
                                Some(Box::new(self.grow(&mut lr, depth + 1)))
                            }
                        })
                        .collect();
                    Node::SplitCategorical { feature, branches, counts }
                }
            }
        }

        fn candidate_features(&mut self) -> Vec<usize> {
            let d = self.data.n_features();
            match self.config.mtry {
                None => (0..d).collect(),
                Some(m) => {
                    let mut idx: Vec<usize> = (0..d).collect();
                    idx.shuffle(&mut self.rng);
                    idx.truncate(m.clamp(1, d));
                    idx
                }
            }
        }

        fn class_counts(&self, rows: &[usize]) -> Vec<f64> {
            let mut counts = vec![0.0; self.n_classes];
            for &r in rows {
                counts[self.data.label(r) as usize] += self.weights[r];
            }
            counts
        }

        fn impurity(&self, counts: &[f64], total: f64) -> f64 {
            if total <= 1e-300 {
                return 0.0;
            }
            match self.config.criterion {
                SplitCriterion::Gini => {
                    1.0 - counts.iter().map(|c| (c / total) * (c / total)).sum::<f64>()
                }
                SplitCriterion::GainRatio => {
                    // Entropy in nats.
                    -counts
                        .iter()
                        .filter(|&&c| c > 0.0)
                        .map(|&c| {
                            let p = c / total;
                            p * p.ln()
                        })
                        .sum::<f64>()
                }
            }
        }

        /// Best threshold for a numeric feature: scans sorted unique values,
        /// maintaining running class counts. Returns the split score (impurity
        /// decrease, or gain ratio for C4.5).
        fn best_numeric_split(
            &self,
            feature: usize,
            values: &[f64],
            rows: &[usize],
            parent_counts: &[f64],
        ) -> Option<BestSplit> {
            let mut present: Vec<usize> =
                rows.iter().copied().filter(|&r| !values[r].is_nan()).collect();
            if present.len() < 2 {
                return None;
            }
            present.sort_by(|&a, &b| {
                values[a].partial_cmp(&values[b]).unwrap_or(std::cmp::Ordering::Equal)
            });
            let parent_total: f64 = parent_counts.iter().sum();
            let parent_imp = self.impurity(parent_counts, parent_total);
            let mut left_counts = vec![0.0; self.n_classes];
            let mut left_total = 0.0;
            let mut right_counts: Vec<f64> = parent_counts.to_vec();
            let mut right_total = parent_total;
            let mut best: Option<(f64, f64)> = None; // (threshold, score)
            for w in 0..present.len() - 1 {
                let r = present[w];
                let wgt = self.weights[r];
                let cls = self.data.label(r) as usize;
                left_counts[cls] += wgt;
                left_total += wgt;
                right_counts[cls] -= wgt;
                right_total -= wgt;
                let v_here = values[r];
                let v_next = values[present[w + 1]];
                if v_next <= v_here {
                    continue; // same value: not a valid cut point
                }
                if left_total < self.config.min_leaf || right_total < self.config.min_leaf {
                    continue;
                }
                let score = self.split_score(
                    parent_imp,
                    parent_total,
                    &[(&left_counts, left_total), (&right_counts, right_total)],
                );
                let threshold = 0.5 * (v_here + v_next);
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((threshold, score));
                }
            }
            best.map(|(threshold, score)| BestSplit::Numeric { feature, threshold, score })
        }

        /// Scores a multiway categorical split.
        fn score_categorical_split(
            &self,
            feature: usize,
            codes: &[u32],
            n_levels: usize,
            rows: &[usize],
            parent_counts: &[f64],
        ) -> Option<BestSplit> {
            let mut level_counts = vec![vec![0.0; self.n_classes]; n_levels];
            let mut level_totals = vec![0.0; n_levels];
            for &r in rows {
                let c = codes[r];
                if c == MISSING_CODE {
                    continue;
                }
                let wgt = self.weights[r];
                level_counts[c as usize][self.data.label(r) as usize] += wgt;
                level_totals[c as usize] += wgt;
            }
            let non_empty: Vec<(&Vec<f64>, f64)> = level_counts
                .iter()
                .zip(level_totals.iter().copied())
                .filter(|&(_, t)| t > 0.0)
                .collect();
            if non_empty.len() < 2 {
                return None;
            }
            if non_empty.iter().any(|&(_, t)| t < self.config.min_leaf) {
                return None;
            }
            let parent_total: f64 = parent_counts.iter().sum();
            let parent_imp = self.impurity(parent_counts, parent_total);
            let children: Vec<(&[f64], f64)> =
                non_empty.iter().map(|&(c, t)| (c.as_slice(), t)).collect();
            let score = self.split_score(parent_imp, parent_total, &children);
            Some(BestSplit::Categorical { feature, score })
        }

        /// Impurity decrease (Gini) or gain ratio (C4.5) of a proposed split.
        fn split_score(
            &self,
            parent_imp: f64,
            parent_total: f64,
            children: &[(&[f64], f64)],
        ) -> f64 {
            let mut weighted_child_imp = 0.0;
            for &(counts, total) in children {
                weighted_child_imp += total / parent_total * self.impurity(counts, total);
            }
            let gain = parent_imp - weighted_child_imp;
            match self.config.criterion {
                SplitCriterion::Gini => gain,
                SplitCriterion::GainRatio => {
                    // Split info: entropy of the child-size distribution.
                    let split_info: f64 = -children
                        .iter()
                        .map(|&(_, t)| {
                            let p = t / parent_total;
                            if p > 0.0 {
                                p * p.ln()
                            } else {
                                0.0
                            }
                        })
                        .sum::<f64>();
                    if split_info <= 1e-12 {
                        0.0
                    } else {
                        gain / split_info
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartml_data::synth::{categorical_mixture, gaussian_blobs, two_spirals, xor_parity};
    use smartml_data::{accuracy, Dataset};

    fn eval(tree: &DecisionTree, data: &Dataset, rows: &[usize]) -> f64 {
        let proba = tree.predict_proba(data, rows);
        let pred: Vec<u32> = proba
            .iter()
            .map(|p| smartml_linalg::vecops::argmax(p).unwrap() as u32)
            .collect();
        accuracy(&data.labels_for(rows), &pred)
    }

    #[test]
    fn fits_separable_blobs() {
        let d = gaussian_blobs("b", 200, 3, 2, 0.4, 1);
        let (train, test): (Vec<usize>, Vec<usize>) = (0..200).partition(|i| i % 2 == 0);
        let tree = DecisionTree::fit(&d, &train, &TreeConfig::default());
        assert!(eval(&tree, &d, &test) > 0.9);
    }

    #[test]
    fn solves_xor_where_linear_fails() {
        let d = xor_parity("x", 400, 2, 2, 0.0, 1);
        let (train, test): (Vec<usize>, Vec<usize>) = (0..400).partition(|i| i % 2 == 0);
        let tree = DecisionTree::fit(&d, &train, &TreeConfig::default());
        assert!(eval(&tree, &d, &test) > 0.85, "acc {}", eval(&tree, &d, &test));
    }

    #[test]
    fn gain_ratio_also_learns() {
        let d = gaussian_blobs("b", 200, 3, 3, 0.6, 3);
        let (train, test): (Vec<usize>, Vec<usize>) = (0..200).partition(|i| i % 2 == 0);
        let cfg = TreeConfig { criterion: SplitCriterion::GainRatio, ..TreeConfig::default() };
        let tree = DecisionTree::fit(&d, &train, &cfg);
        assert!(eval(&tree, &d, &test) > 0.85);
    }

    #[test]
    fn max_depth_limits_depth() {
        let d = two_spirals("s", 300, 0.1, 4);
        let rows = d.all_rows();
        let cfg = TreeConfig { max_depth: 3, ..TreeConfig::default() };
        let tree = DecisionTree::fit(&d, &rows, &cfg);
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn min_leaf_respected_in_leaf_sizes() {
        let d = gaussian_blobs("b", 100, 2, 2, 2.0, 5);
        let rows = d.all_rows();
        let strict = TreeConfig { min_leaf: 20.0, ..TreeConfig::default() };
        let loose = TreeConfig::default();
        let t_strict = DecisionTree::fit(&d, &rows, &strict);
        let t_loose = DecisionTree::fit(&d, &rows, &loose);
        assert!(t_strict.n_leaves() <= t_loose.n_leaves());
        assert!(t_strict.n_leaves() <= 100 / 20 + 1);
    }

    #[test]
    fn cp_prunes_weak_splits() {
        let d = two_spirals("s", 200, 0.4, 6);
        let rows = d.all_rows();
        let no_cp = DecisionTree::fit(&d, &rows, &TreeConfig::default());
        let high_cp = DecisionTree::fit(&d, &rows, &TreeConfig { cp: 0.3, ..TreeConfig::default() });
        assert!(high_cp.n_leaves() < no_cp.n_leaves());
    }

    #[test]
    fn pessimistic_pruning_shrinks_tree() {
        // Heavy class overlap: the unpruned tree memorises noise and
        // pessimistic pruning collapses those subtrees.
        let d = gaussian_blobs("b", 300, 3, 2, 3.0, 7);
        let rows = d.all_rows();
        let unpruned = DecisionTree::fit(&d, &rows, &TreeConfig::default());
        let pruned = DecisionTree::fit(
            &d,
            &rows,
            &TreeConfig { pruning: Pruning::Pessimistic { cf: 0.1 }, ..TreeConfig::default() },
        );
        assert!(
            pruned.n_leaves() < unpruned.n_leaves(),
            "pruned {} vs unpruned {}",
            pruned.n_leaves(),
            unpruned.n_leaves()
        );
    }

    #[test]
    fn categorical_splits_work() {
        let d = categorical_mixture("c", 300, 3, 0, 3, 4, 8);
        let (train, test): (Vec<usize>, Vec<usize>) = (0..300).partition(|i| i % 2 == 0);
        let tree = DecisionTree::fit(&d, &train, &TreeConfig::default());
        // Class-dependent level odds (0.6 preference) bound Bayes accuracy;
        // the tree should clearly beat the 1/3 chance rate.
        assert!(eval(&tree, &d, &test) > 0.55, "acc {}", eval(&tree, &d, &test));
    }

    #[test]
    fn instance_weights_shift_predictions() {
        // Two overlapping points; weight forces the minority class to win.
        let d = gaussian_blobs("b", 40, 2, 2, 3.0, 9);
        let rows = d.all_rows();
        let mut weights = vec![1.0; d.n_rows()];
        for &r in &rows {
            if d.label(r) == 1 {
                weights[r] = 100.0;
            }
        }
        let cfg = TreeConfig { max_depth: 0, ..TreeConfig::default() }; // root only
        let tree = DecisionTree::fit_weighted(&d, &rows, &weights, &cfg);
        let proba = tree.predict_proba(&d, &[0]);
        assert!(proba[0][1] > 0.9, "{:?}", proba[0]);
    }

    #[test]
    fn mtry_subsampling_changes_trees() {
        let d = gaussian_blobs("b", 150, 10, 2, 1.0, 10);
        let rows = d.all_rows();
        let t1 = DecisionTree::fit(
            &d,
            &rows,
            &TreeConfig { mtry: Some(2), seed: 1, ..TreeConfig::default() },
        );
        let t2 = DecisionTree::fit(
            &d,
            &rows,
            &TreeConfig { mtry: Some(2), seed: 2, ..TreeConfig::default() },
        );
        assert_ne!(t1.feature_usage(), t2.feature_usage());
    }

    #[test]
    fn proba_rows_sum_to_one() {
        let d = gaussian_blobs("b", 100, 3, 4, 1.5, 11);
        let rows = d.all_rows();
        let tree = DecisionTree::fit(&d, &rows, &TreeConfig::default());
        for p in tree.predict_proba(&d, &rows) {
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn feature_usage_reports_informative_feature() {
        let d = xor_parity("x", 300, 1, 5, 0.0, 12);
        let rows = d.all_rows();
        let tree = DecisionTree::fit(&d, &rows, &TreeConfig::default());
        let usage = tree.feature_usage();
        // Feature 0 is the only informative one; it must dominate splits.
        let f0: usize = usage.iter().filter(|(f, _)| *f == 0).map(|(_, c)| c).sum();
        let rest: usize = usage.iter().filter(|(f, _)| *f != 0).map(|(_, c)| c).sum();
        assert!(f0 >= 1);
        assert!(f0 >= rest, "f0 {f0} rest {rest}");
    }

    #[test]
    fn rules_cover_all_training_rows_exclusively() {
        let d = gaussian_blobs("b", 120, 3, 2, 1.0, 13);
        let rows = d.all_rows();
        let tree = DecisionTree::fit(&d, &rows, &TreeConfig::default());
        let rules = tree.extract_rules();
        assert_eq!(rules.len(), tree.n_leaves());
        // Every complete row matches exactly one rule.
        for &r in &rows {
            let matches = rules.iter().filter(|rule| rule.matches(&d, r)).count();
            assert_eq!(matches, 1, "row {r} matched {matches} rules");
        }
        // Total coverage equals the training weight.
        let total: f64 = rules.iter().map(Rule::coverage).sum();
        assert!((total - 120.0).abs() < 1e-9);
    }

    #[test]
    fn rule_majority_consistent_with_counts() {
        let rule = Rule { conditions: vec![], counts: vec![1.0, 5.0, 2.0] };
        assert_eq!(rule.majority(), 1);
        assert_eq!(rule.coverage(), 8.0);
    }

    #[test]
    fn leaf_ids_stable_and_in_range() {
        let d = categorical_mixture("c", 200, 2, 2, 3, 4, 14);
        let rows = d.all_rows();
        let tree = DecisionTree::fit(&d, &rows, &TreeConfig::default());
        let n_leaves = tree.n_leaves();
        for &r in &rows {
            let id1 = tree.leaf_id(&d, r);
            let id2 = tree.leaf_id(&d, r);
            assert_eq!(id1, id2);
            assert!(id1 < n_leaves, "leaf id {id1} out of {n_leaves}");
        }
    }

    #[test]
    fn leaf_ids_distinguish_separated_rows() {
        let d = gaussian_blobs("b", 100, 2, 2, 0.3, 15);
        let rows = d.all_rows();
        let tree = DecisionTree::fit(&d, &rows, &TreeConfig::default());
        // Two rows of different classes in a near-perfect tree get
        // different leaves.
        let r0 = rows.iter().find(|&&r| d.label(r) == 0).copied().unwrap();
        let r1 = rows.iter().find(|&&r| d.label(r) == 1).copied().unwrap();
        assert_ne!(tree.leaf_id(&d, r0), tree.leaf_id(&d, r1));
    }

    #[test]
    fn cf_to_z_reference_points() {
        assert!((cf_to_z(0.25) - 0.674).abs() < 0.02, "{}", cf_to_z(0.25));
        assert!((cf_to_z(0.05) - 1.645).abs() < 0.03, "{}", cf_to_z(0.05));
    }
}
