//! Shared tree-training split kernels.
//!
//! Two complementary strategies back every tree learner in the workspace
//! (CART/C4.5 classifiers, the bootstrap ensembles, DeepBoost, LMT, the
//! SMAC surrogate forest and the landmarking stump):
//!
//! - **Presorted columns** ([`SortedColumns`], [`sorted_slots`]): each
//!   numeric feature's rows are sorted *once per fit* by an
//!   order-preserving `f64 → u64` key, then stably partitioned down the
//!   tree ([`partition2`], [`partition_multi`]) instead of re-sorted at
//!   every node. Per-node cost drops from `O(F·n log n)` to `O(F·n)`
//!   while the split scan itself stays byte-for-byte identical to the
//!   naive kernel: stable root sort + stable partitions reproduce the
//!   per-node stable sort's tie order exactly, so every floating-point
//!   accumulation happens in the same sequence.
//! - **Histogram binning** ([`BinnedColumns`]): numeric features are
//!   quantised into at most [`MAX_BINS`] bins once per forest; per-node
//!   scans then cost `O(bins)` with reusable count buffers. Bin edges are
//!   actual data values, so `v <= edges[b] ⟺ code(v) <= b` and trained
//!   trees predict on raw values with no quantisation drift at the
//!   boundaries. The binned path is deterministic (including across
//!   thread-pool widths) but *not* bit-identical to the exact path; it is
//!   opt-in via `TreeConfig::max_bins`.
//!
//! [`SplitState`] owns every scratch buffer the growers need so the node
//! recursion allocates nothing beyond the `counts` vectors that are moved
//! into the finished tree.

use smartml_data::{Dataset, Feature};
use smartml_obs::Counter;
use smartml_runtime::Pool;

static HIST_BUILDS: Counter = Counter::new("classifiers.split.hist_builds");

/// Row goes to the left child.
pub const SIDE_LEFT: u32 = 0;
/// Row goes to the right child.
pub const SIDE_RIGHT: u32 = 1;
/// Row is dropped from the subtree (missing value in the split feature).
/// Equal to [`MISSING_CODE`] so categorical sides can be raw level codes.
pub const SIDE_DROP: u32 = u32::MAX;

/// Maximum usable histogram bins per feature (code 255 is [`NAN_BIN`]).
pub const MAX_BINS: usize = 255;
/// Bin code reserved for missing values.
pub const NAN_BIN: u8 = u8::MAX;

/// One node's view of a presorted column: `(start, len)` into the
/// feature's sorted slot array.
pub type Seg = (u32, u32);

/// Order-preserving map from finite `f64` to `u64`: `a < b ⟺
/// sort_key(a) < sort_key(b)` and `a == b ⟺ sort_key(a) == sort_key(b)`
/// (`-0.0` is normalised to `+0.0` so numeric ties stay key ties).
/// Callers must exclude NaN.
#[inline]
pub fn sort_key(v: f64) -> u64 {
    let v = if v == 0.0 { 0.0 } else { v };
    let b = v.to_bits();
    if b >> 63 == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

/// Slot indices `0..values.len()`, NaN slots removed, stably sorted
/// ascending by value: ties order ascending by slot, exactly the
/// lexicographic `(key, slot)` order `sort_unstable` on the pairs gives.
pub fn sorted_slots(values: &[f64]) -> Vec<u32> {
    let mut keyed: Vec<(u64, u32)> = values
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_nan())
        .map(|(s, &v)| (sort_key(v), s as u32))
        .collect();
    radix_sort_keyed(&mut keyed);
    keyed.into_iter().map(|(_, s)| s).collect()
}

/// Sorts `(key, slot)` pairs into ascending `(key, slot)` order with a
/// byte-wise LSD radix over the key. The pairs arrive in ascending-slot
/// order (built by an indexed scan), so the stable byte passes alone
/// yield the full lexicographic order — identical to `sort_unstable` on
/// the pairs, without its data-dependent branches. One priming pass
/// histograms all eight key bytes at once, and passes whose byte is
/// constant across the input (common for the sign/exponent bytes of
/// real-world columns) are skipped outright.
fn radix_sort_keyed(keyed: &mut [(u64, u32)]) {
    let m = keyed.len();
    if m <= 64 {
        keyed.sort_unstable();
        return;
    }
    let mut hist = [[0u32; 256]; 8];
    for &(k, _) in keyed.iter() {
        for (b, h) in hist.iter_mut().enumerate() {
            h[((k >> (8 * b)) & 0xFF) as usize] += 1;
        }
    }
    let mut tmp: Vec<(u64, u32)> = vec![(0, 0); m];
    let mut in_src = true;
    for (b, h) in hist.iter_mut().enumerate() {
        if h.iter().any(|&c| c as usize == m) {
            continue; // constant byte: the pass would be the identity
        }
        let mut run = 0u32;
        for c in h.iter_mut() {
            let k = *c;
            *c = run;
            run += k;
        }
        let (src, dst): (&[_], &mut [_]) =
            if in_src { (&*keyed, &mut tmp[..]) } else { (&tmp, &mut *keyed) };
        for &p in src {
            let byte = ((p.0 >> (8 * b)) & 0xFF) as usize;
            dst[h[byte] as usize] = p;
            h[byte] += 1;
        }
        in_src = !in_src;
    }
    if !in_src {
        keyed.copy_from_slice(&tmp);
    }
}

/// Per-fit presorted numeric columns over *slot* space.
///
/// A "slot" is a position in the fit's row array (`fit_rows[slot]` is the
/// absolute dataset row), so bootstrap duplicates occupy distinct slots
/// and carry their weight independently, exactly like the naive kernel's
/// row lists.
pub struct SortedColumns {
    /// `cols[f]`: slots with a non-NaN value for feature `f`, sorted
    /// ascending by value (ties ascending by slot). Empty for
    /// categorical features.
    pub cols: Vec<Vec<u32>>,
    /// `vals[f][slot]`: feature `f`'s value at `slot` (NaN where
    /// missing). Empty for categorical features.
    pub vals: Vec<Vec<f64>>,
}

impl SortedColumns {
    /// Sorts every numeric column of `data` restricted to `fit_rows`
    /// (with multiplicity) once.
    pub fn build(data: &Dataset, fit_rows: &[u32]) -> SortedColumns {
        let d = data.n_features();
        let mut cols = Vec::with_capacity(d);
        let mut vals = Vec::with_capacity(d);
        for f in 0..d {
            match data.feature(f) {
                Feature::Numeric { values, .. } => {
                    let by_slot: Vec<f64> =
                        fit_rows.iter().map(|&r| values[r as usize]).collect();
                    cols.push(sorted_slots(&by_slot));
                    vals.push(by_slot);
                }
                Feature::Categorical { .. } => {
                    cols.push(Vec::new());
                    vals.push(Vec::new());
                }
            }
        }
        SortedColumns { cols, vals }
    }
}

/// Rank of a missing value in a [`RankedBase`] column.
pub const NAN_RANK: u32 = u32::MAX;

/// Per-feature dense value ranks over a *base* row set, shared by every
/// bootstrap resample of that base (the trees of one forest).
///
/// Sorting each feature once here turns per-tree column sorting into a
/// counting sort over the ranks — `O(n + distinct)` per feature per tree
/// with no comparisons — while reproducing exactly the `(value, slot)`
/// ascending order that [`SortedColumns::build`] would produce for the
/// resample.
pub struct RankedBase {
    /// `ranks[f][i]`: ascending dense value-rank of base index `i`
    /// ([`NAN_RANK`] where missing). Empty for categorical features.
    pub ranks: Vec<Vec<u32>>,
    /// `n_ranks[f]`: number of distinct non-NaN values of feature `f`.
    pub n_ranks: Vec<u32>,
    /// `vals[f][i]`: feature `f`'s value at base index `i`.
    pub vals: Vec<Vec<f64>>,
    /// `rank_vals[f][r]`: the value carrying rank `r` — the ascending
    /// distinct non-NaN values of feature `f`. Maps a rank back to the
    /// exact `f64` a value-space kernel would read.
    pub rank_vals: Vec<Vec<f64>>,
}

impl RankedBase {
    /// Ranks every numeric column of `data` restricted to `base_rows`.
    pub fn build(data: &Dataset, base_rows: &[usize]) -> RankedBase {
        let columns = (0..data.n_features())
            .map(|f| match data.feature(f) {
                Feature::Numeric { values, .. } => {
                    base_rows.iter().map(|&r| values[r]).collect()
                }
                Feature::Categorical { .. } => Vec::new(),
            })
            .collect();
        RankedBase::build_columns(columns)
    }

    /// Ranks caller-supplied per-feature value columns (`columns[f][i]`,
    /// all the same length; an empty column marks a non-numeric feature).
    pub fn build_columns(columns: Vec<Vec<f64>>) -> RankedBase {
        let mut ranks = Vec::with_capacity(columns.len());
        let mut n_ranks = Vec::with_capacity(columns.len());
        let mut rank_vals = Vec::with_capacity(columns.len());
        for col in &columns {
            let order = sorted_slots(col);
            let mut r = vec![NAN_RANK; col.len()];
            let mut rv = Vec::new();
            let mut next = 0u32;
            let mut prev = f64::NAN;
            for &i in &order {
                let v = col[i as usize];
                // Not a tie with `prev` (first element included: NaN never
                // equals anything) → new rank.
                if v != prev {
                    next += 1;
                    rv.push(v);
                }
                r[i as usize] = next - 1;
                prev = v;
            }
            ranks.push(r);
            n_ranks.push(next);
            rank_vals.push(rv);
        }
        RankedBase { ranks, n_ranks, vals: columns, rank_vals }
    }

    /// Per-slot ranks for the resample `picks` (each a base index, with
    /// multiplicity): `out[f][slot] = ranks[f][picks[slot]]`. This is the
    /// whole per-tree setup cost of the rank-radix kernel — a plain
    /// gather, no sorting.
    pub fn gather_ranks(&self, picks: &[u32]) -> Vec<Vec<u32>> {
        self.ranks
            .iter()
            .map(|rank| {
                if rank.is_empty() {
                    Vec::new()
                } else {
                    picks.iter().map(|&p| rank[p as usize]).collect()
                }
            })
            .collect()
    }

    /// Presorted columns for the resample `picks` (each a base index, with
    /// multiplicity) — bit-identical to `SortedColumns::build` over the
    /// picked rows, via counting sort: slots are bucketed by base rank in
    /// ascending slot order, so ties order ascending by slot exactly as
    /// the comparison sort would.
    pub fn resample(&self, picks: &[u32]) -> SortedColumns {
        let n = picks.len();
        let mut cols = Vec::with_capacity(self.ranks.len());
        let mut vals = Vec::with_capacity(self.ranks.len());
        let mut off: Vec<u32> = Vec::new();
        for (f, rank) in self.ranks.iter().enumerate() {
            if rank.is_empty() {
                cols.push(Vec::new());
                vals.push(Vec::new());
                continue;
            }
            let base_vals = &self.vals[f];
            let by_slot: Vec<f64> = picks.iter().map(|&p| base_vals[p as usize]).collect();
            off.clear();
            off.resize(self.n_ranks[f] as usize, 0);
            let mut present = 0u32;
            for &p in picks {
                let r = rank[p as usize];
                if r != NAN_RANK {
                    off[r as usize] += 1;
                    present += 1;
                }
            }
            let mut running = 0u32;
            for o in off.iter_mut() {
                let c = *o;
                *o = running;
                running += c;
            }
            let mut col = vec![0u32; present as usize];
            for slot in 0..n as u32 {
                let r = rank[picks[slot as usize] as usize];
                if r != NAN_RANK {
                    col[off[r as usize] as usize] = slot;
                    off[r as usize] += 1;
                }
            }
            cols.push(col);
            vals.push(by_slot);
        }
        SortedColumns { cols, vals }
    }
}

/// Stable two-way partition of `items` by `side[item]`: left slots first
/// (original order), then right slots; [`SIDE_DROP`] slots are removed.
/// Returns `(n_left, n_right)`; only `items[..n_left + n_right]` is
/// meaningful afterwards.
pub fn partition2(items: &mut [u32], side: &[u32], scratch: &mut Vec<u32>) -> (usize, usize) {
    scratch.clear();
    for &s in items.iter() {
        if side[s as usize] == SIDE_LEFT {
            scratch.push(s);
        }
    }
    let nl = scratch.len();
    for &s in items.iter() {
        if side[s as usize] == SIDE_RIGHT {
            scratch.push(s);
        }
    }
    let nr = scratch.len() - nl;
    items[..scratch.len()].copy_from_slice(scratch);
    (nl, nr)
}

/// Stable multiway partition of `items` by level code `side[item]` (codes
/// `0..n_levels`; [`SIDE_DROP`] slots are removed). After the call,
/// `items[..kept]` holds the kept slots grouped by ascending level, each
/// group in original order, and `cnt[level]` its size. Returns `kept`.
pub fn partition_multi(
    items: &mut [u32],
    side: &[u32],
    n_levels: usize,
    cnt: &mut Vec<u32>,
    off: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
) -> usize {
    cnt.clear();
    cnt.resize(n_levels, 0);
    let mut kept = 0usize;
    for &s in items.iter() {
        let c = side[s as usize];
        if c != SIDE_DROP {
            cnt[c as usize] += 1;
            kept += 1;
        }
    }
    off.clear();
    off.reserve(n_levels);
    let mut running = 0u32;
    for &c in cnt.iter() {
        off.push(running);
        running += c;
    }
    scratch.clear();
    scratch.resize(kept, 0);
    for &s in items.iter() {
        let c = side[s as usize];
        if c != SIDE_DROP {
            let o = &mut off[c as usize];
            scratch[*o as usize] = s;
            *o += 1;
        }
    }
    items[..kept].copy_from_slice(scratch);
    kept
}

/// Sorts packed `(rank << 32) | slot` pairs ascending with a
/// least-significant-digit radix over the rank bytes — no comparisons, no
/// branch misses on random data. Each byte pass is stable, so pairs that
/// arrive in ascending-slot order (every tree node's row list, thanks to
/// stable partitions) leave in ascending `(rank, slot)` order: exactly
/// the `(value, slot)` order a comparison sort produces. `max_rank`
/// bounds the ranks present (exclusive), capping the number of passes —
/// two for any base under 65 536 rows. Tiny inputs fall back to
/// `sort_unstable`, whose packed-`u64` order is the same `(rank, slot)`.
pub fn radix_sort_ranked(
    pairs: &mut [u64],
    scratch: &mut Vec<u64>,
    cnt: &mut Vec<u32>,
    max_rank: u32,
) {
    let m = pairs.len();
    let mut span = max_rank.saturating_sub(1);
    if m < 2 || span == 0 {
        return; // zero or one distinct value: already in (rank, slot) order
    }
    if m <= 64 {
        pairs.sort_unstable();
        return;
    }
    scratch.clear();
    scratch.resize(m, 0);
    cnt.clear();
    cnt.resize(256, 0);
    let mut in_pairs = true;
    let mut shift = 32u32;
    loop {
        if in_pairs {
            radix_pass(pairs, scratch, cnt, shift);
        } else {
            radix_pass(scratch, pairs, cnt, shift);
        }
        in_pairs = !in_pairs;
        shift += 8;
        span >>= 8;
        if span == 0 {
            break;
        }
    }
    if !in_pairs {
        pairs.copy_from_slice(scratch);
    }
}

/// One stable counting pass of [`radix_sort_ranked`] on byte
/// `(x >> shift) & 0xFF`.
fn radix_pass(src: &[u64], dst: &mut [u64], cnt: &mut [u32], shift: u32) {
    for c in cnt.iter_mut() {
        *c = 0;
    }
    for &p in src {
        cnt[((p >> shift) & 0xFF) as usize] += 1;
    }
    let mut run = 0u32;
    for c in cnt.iter_mut() {
        let k = *c;
        *c = run;
        run += k;
    }
    for &p in src {
        let b = ((p >> shift) & 0xFF) as usize;
        dst[cnt[b] as usize] = p;
        cnt[b] += 1;
    }
}

/// One quantised numeric column.
pub struct BinnedCol {
    /// Ascending upper bin bounds; each is an actual data value, so
    /// `v <= edges[b] ⟺ code(v) <= b` for every value in the binning
    /// row set (and for any `v` at cut points below the last bin).
    pub edges: Vec<f64>,
    /// Bin code per absolute dataset row ([`NAN_BIN`] for missing).
    pub codes: Vec<u8>,
}

/// Per-forest histogram quantisation of every numeric feature, computed
/// once and shared by all trees of an ensemble.
pub struct BinnedColumns {
    /// One entry per feature; `None` for categorical features.
    pub cols: Vec<Option<BinnedCol>>,
}

impl BinnedColumns {
    /// Quantises each numeric feature of `data` into at most `max_bins`
    /// bins, with edges chosen from the values observed on `rows`.
    pub fn fit(data: &Dataset, rows: &[usize], max_bins: usize) -> BinnedColumns {
        BinnedColumns::fit_with(data, rows, max_bins, &Pool::serial())
    }

    /// [`fit`](BinnedColumns::fit) with per-feature work spread over
    /// `pool`. Each feature is quantised independently, so the result is
    /// identical for every pool width.
    pub fn fit_with(data: &Dataset, rows: &[usize], max_bins: usize, pool: &Pool) -> BinnedColumns {
        let max_bins = max_bins.clamp(2, MAX_BINS);
        let cols = pool.map_range(data.n_features(), |f| match data.feature(f) {
            Feature::Numeric { values, .. } => Some(bin_column(values, rows, max_bins)),
            Feature::Categorical { .. } => None,
        });
        BinnedColumns { cols }
    }
}

/// Quantises one numeric column: edges are `max_bins` quantile-spaced
/// *distinct observed values* (all of them when there are fewer), codes
/// are per-dataset-row bin indices.
fn bin_column(values: &[f64], rows: &[usize], max_bins: usize) -> BinnedCol {
    let mut sorted: Vec<f64> =
        rows.iter().map(|&r| values[r]).filter(|v| !v.is_nan()).collect();
    sorted.sort_unstable_by_key(|&v| sort_key(v));
    sorted.dedup();
    let edges: Vec<f64> = if sorted.len() <= max_bins {
        sorted
    } else {
        let n = sorted.len();
        let mut e: Vec<f64> =
            (0..max_bins).map(|i| sorted[(i + 1) * n / max_bins - 1]).collect();
        e.dedup();
        e
    };
    let codes: Vec<u8> = values
        .iter()
        .map(|&v| {
            if v.is_nan() || edges.is_empty() {
                NAN_BIN
            } else {
                let b = edges.partition_point(|&e| e < v);
                b.min(edges.len() - 1) as u8
            }
        })
        .collect();
    BinnedCol { edges, codes }
}

/// Builds one node's weighted `bin × class` histogram from per-slot bin
/// codes, returning the number of rows with a present (non-missing) value.
///
/// `hist` is resized to `MAX_BINS * k` and `totals` to `MAX_BINS`. A
/// missing row ([`NAN_BIN`]) is skipped; a present row adds its weight to
/// its bin's cell and total, in row order.
pub fn fill_histogram(
    rows: &[u32],
    slot_codes: &[u8],
    slot_labels: &[u32],
    slot_weights: &[f64],
    k: usize,
    hist: &mut Vec<f64>,
    totals: &mut Vec<f64>,
) -> usize {
    HIST_BUILDS.inc();
    hist.clear();
    hist.resize(MAX_BINS * k, 0.0);
    totals.clear();
    totals.resize(MAX_BINS, 0.0);
    let mut n_present = 0usize;
    for &s in rows {
        let s = s as usize;
        let b = slot_codes[s];
        if b == NAN_BIN {
            continue;
        }
        n_present += 1;
        hist[b as usize * k + slot_labels[s] as usize] += slot_weights[s];
        totals[b as usize] += slot_weights[s];
    }
    n_present
}

/// Reusable scratch for the node recursion: side masks, partition
/// buffers, class-count accumulators, flattened categorical counters,
/// histogram buffers and a free-list of per-node segment tables. Nothing
/// here is allocated per node once warm.
pub struct SplitState {
    /// Per-slot side mask for the pending partition.
    pub side: Vec<u32>,
    /// Partition staging buffer.
    pub scratch: Vec<u32>,
    /// Left-child class counts for the numeric scan.
    pub left_counts: Vec<f64>,
    /// Right-child class counts for the numeric scan.
    pub right_counts: Vec<f64>,
    /// Flattened `level × class` weights for categorical scoring.
    pub cat_counts: Vec<f64>,
    /// Per-level total weights for categorical scoring.
    pub cat_totals: Vec<f64>,
    /// Multiway partition per-level counts.
    pub mw_cnt: Vec<u32>,
    /// Multiway partition per-level write offsets.
    pub mw_off: Vec<u32>,
    /// Flattened `bin × class` weights for the histogram scan.
    pub hist: Vec<f64>,
    /// Per-bin total weights for the histogram scan.
    pub hist_total: Vec<f64>,
    /// Packed `(rank << 32) | slot` pairs for the rank-radix kernel.
    pub pairs: Vec<u64>,
    /// Ping-pong buffer for [`radix_sort_ranked`].
    pub pairs_tmp: Vec<u64>,
    /// 256-bucket byte histogram for [`radix_sort_ranked`].
    pub radix_cnt: Vec<u32>,
    seg_pool: Vec<Vec<Seg>>,
    n_features: usize,
}

impl SplitState {
    /// Scratch sized for `n_slots` fit rows, `n_classes` classes and
    /// `n_features` features.
    pub fn new(n_slots: usize, n_classes: usize, n_features: usize) -> SplitState {
        SplitState {
            side: vec![0; n_slots],
            scratch: Vec::with_capacity(n_slots),
            left_counts: vec![0.0; n_classes],
            right_counts: vec![0.0; n_classes],
            cat_counts: Vec::new(),
            cat_totals: Vec::new(),
            mw_cnt: Vec::new(),
            mw_off: Vec::new(),
            hist: Vec::new(),
            hist_total: Vec::new(),
            pairs: Vec::new(),
            pairs_tmp: Vec::new(),
            radix_cnt: Vec::new(),
            seg_pool: Vec::new(),
            n_features,
        }
    }

    /// Borrows a zeroed per-node segment table (one [`Seg`] per feature)
    /// from the pool.
    pub fn take_segs(&mut self) -> Vec<Seg> {
        match self.seg_pool.pop() {
            Some(mut s) => {
                s.clear();
                s.resize(self.n_features, (0, 0));
                s
            }
            None => vec![(0, 0); self.n_features],
        }
    }

    /// Returns a segment table to the pool for reuse.
    pub fn put_segs(&mut self, segs: Vec<Seg>) {
        self.seg_pool.push(segs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_key_orders_like_f64() {
        let vals = [-1e30, -3.5, -0.0, 0.0, 1e-300, 2.0, 7.25, 1e30];
        for w in vals.windows(2) {
            assert!(sort_key(w[0]) <= sort_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(sort_key(-0.0), sort_key(0.0));
        assert!(sort_key(-1.0) < sort_key(-0.5));
        assert!(sort_key(0.5) < sort_key(1.0));
    }

    #[test]
    fn sorted_slots_is_stable_and_skips_nan() {
        let values = [3.0, 1.0, f64::NAN, 1.0, 2.0, 1.0];
        let slots = sorted_slots(&values);
        assert_eq!(slots, vec![1, 3, 5, 4, 0]);
    }

    #[test]
    fn partition2_is_stable_and_drops() {
        let side = [SIDE_LEFT, SIDE_RIGHT, SIDE_DROP, SIDE_LEFT, SIDE_RIGHT];
        let mut items: Vec<u32> = vec![4, 3, 2, 1, 0];
        let mut scratch = Vec::new();
        let (nl, nr) = partition2(&mut items, &side, &mut scratch);
        assert_eq!((nl, nr), (2, 2));
        assert_eq!(&items[..4], &[3, 0, 4, 1]);
    }

    #[test]
    fn partition_multi_groups_by_level_in_order() {
        let side = [1, 0, SIDE_DROP, 2, 0, 1];
        let mut items: Vec<u32> = vec![0, 1, 2, 3, 4, 5];
        let (mut cnt, mut off, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        let kept = partition_multi(&mut items, &side, 3, &mut cnt, &mut off, &mut scratch);
        assert_eq!(kept, 5);
        assert_eq!(&items[..5], &[1, 4, 0, 5, 3]);
        assert_eq!(cnt, vec![2, 2, 1]);
    }

    #[test]
    fn bin_codes_agree_with_edge_thresholds() {
        // The training-time invariant: v <= edges[b] ⟺ code(v) <= b.
        let values: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64 / 9.0).collect();
        let rows: Vec<usize> = (0..100).collect();
        let col = bin_column(&values, &rows, 8);
        assert!(col.edges.len() <= 8);
        for (r, &v) in values.iter().enumerate() {
            for (b, &e) in col.edges.iter().enumerate() {
                assert_eq!(v <= e, (col.codes[r] as usize) <= b, "v={v} b={b} e={e}");
            }
        }
    }

    #[test]
    fn bin_column_few_distinct_values_one_bin_each() {
        let values = [1.0, 2.0, 1.0, f64::NAN, 2.0, 3.0];
        let rows: Vec<usize> = (0..6).collect();
        let col = bin_column(&values, &rows, 255);
        assert_eq!(col.edges, vec![1.0, 2.0, 3.0]);
        assert_eq!(col.codes, vec![0, 1, 0, NAN_BIN, 1, 2]);
    }

    /// The trash-bin build [`fill_histogram`] replaced: every row scatters
    /// into `MAX_BINS + 1` lanes, missing rows into the extra lane at
    /// [`NAN_BIN`], with no branch in the row loop.
    fn fill_histogram_trash_bin(
        rows: &[u32],
        slot_codes: &[u8],
        slot_labels: &[u32],
        slot_weights: &[f64],
        k: usize,
        hist: &mut Vec<f64>,
        totals: &mut Vec<f64>,
    ) -> usize {
        hist.clear();
        hist.resize((MAX_BINS + 1) * k, 0.0);
        totals.clear();
        totals.resize(MAX_BINS + 1, 0.0);
        let mut missing = 0usize;
        for &s in rows {
            let s = s as usize;
            let b = slot_codes[s] as usize;
            let w = slot_weights[s];
            hist[b * k + slot_labels[s] as usize] += w;
            totals[b] += w;
            missing += usize::from(b == NAN_BIN as usize);
        }
        rows.len() - missing
    }

    #[test]
    fn fill_histogram_bit_identical_to_trash_bin_oracle() {
        // Deterministic slot table with ~1/7 missing rows and uneven
        // weights; the branch-skipping build must agree with the trash-bin
        // build bit-for-bit on every real lane and on n_present.
        let n_slots = 613usize;
        let k = 4usize;
        let slot_codes: Vec<u8> = (0..n_slots)
            .map(|s| if s % 7 == 3 { NAN_BIN } else { ((s * 31) % 11) as u8 })
            .collect();
        let slot_labels: Vec<u32> = (0..n_slots).map(|s| ((s * 13) % k) as u32).collect();
        let slot_weights: Vec<f64> = (0..n_slots).map(|s| 0.25 + ((s * 29) % 17) as f64 / 8.0).collect();
        // A node that sees a permuted subset of the slots.
        let rows: Vec<u32> = (0..n_slots as u32).filter(|s| s % 3 != 1).map(|s| (s * 7) % n_slots as u32).collect();
        let (mut hist, mut tot) = (Vec::new(), Vec::new());
        let (mut hist_t, mut tot_t) = (Vec::new(), Vec::new());
        let np = fill_histogram(&rows, &slot_codes, &slot_labels, &slot_weights, k, &mut hist, &mut tot);
        let np_t = fill_histogram_trash_bin(
            &rows, &slot_codes, &slot_labels, &slot_weights, k, &mut hist_t, &mut tot_t,
        );
        assert_eq!(np, np_t);
        assert_eq!((hist.len(), tot.len()), (MAX_BINS * k, MAX_BINS));
        for b in 0..MAX_BINS {
            for c in 0..k {
                let (got, want) = (hist[b * k + c], hist_t[b * k + c]);
                assert_eq!(got.to_bits(), want.to_bits(), "hist bin {b} class {c}");
            }
            assert_eq!(tot[b].to_bits(), tot_t[b].to_bits(), "totals bin {b}");
        }
    }

    #[test]
    fn seg_pool_recycles() {
        let mut st = SplitState::new(4, 2, 3);
        let s1 = st.take_segs();
        assert_eq!(s1.len(), 3);
        st.put_segs(s1);
        let s2 = st.take_segs();
        assert_eq!(s2, vec![(0, 0); 3]);
    }
}
