//! Split gain, leaf weights, and best-split search over histograms.
//!
//! Implements Equations 1 and 2 of the paper: the optimal leaf weight
//! `w* = −G / (H + λ)` and the split gain
//! `Gain = ½ [G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ`,
//! generalized to C-dimensional gradients for multi-class (per-class terms
//! are summed). Instances whose value for the split feature is missing are
//! routed through a learned **default direction**, chosen as whichever side
//! yields the higher gain.

use crate::histogram::NodeHistogram;
use gbdt_data::{BinId, FeatureId};
use serde::{Deserialize, Serialize};

/// Regularization parameters of the gain computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitParams {
    /// λ — L2 regularization on leaf weights.
    pub lambda: f64,
    /// γ — per-leaf complexity penalty.
    pub gamma: f64,
    /// Minimum total hessian on each child.
    pub min_child_weight: f64,
}

impl Default for SplitParams {
    fn default() -> Self {
        SplitParams { lambda: 1.0, gamma: 0.0, min_child_weight: 1e-3 }
    }
}

impl SplitParams {
    /// Extracts the split parameters from a training config.
    pub fn from_config(cfg: &crate::config::TrainConfig) -> Self {
        SplitParams {
            lambda: cfg.lambda,
            gamma: cfg.gamma,
            min_child_weight: cfg.min_child_weight,
        }
    }
}

/// Per-class gradient sums of a tree node (or one side of a split).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Per-class first-order sums G.
    pub grads: Vec<f64>,
    /// Per-class second-order sums H.
    pub hesses: Vec<f64>,
}

impl NodeStats {
    /// Zeroed stats for C classes.
    pub fn zero(n_outputs: usize) -> Self {
        NodeStats { grads: vec![0.0; n_outputs], hesses: vec![0.0; n_outputs] }
    }

    /// Number of classes C.
    pub fn n_outputs(&self) -> usize {
        self.grads.len()
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: &NodeStats) {
        for (a, b) in self.grads.iter_mut().zip(&other.grads) {
            *a += b;
        }
        for (a, b) in self.hesses.iter_mut().zip(&other.hesses) {
            *a += b;
        }
    }

    /// Element-wise difference (`self − other`), e.g. missing = node − present.
    pub fn sub(&self, other: &NodeStats) -> NodeStats {
        NodeStats {
            grads: self.grads.iter().zip(&other.grads).map(|(a, b)| a - b).collect(),
            hesses: self.hesses.iter().zip(&other.hesses).map(|(a, b)| a - b).collect(),
        }
    }

    /// Total hessian across classes (used for `min_child_weight`).
    pub fn total_hess(&self) -> f64 {
        self.hesses.iter().sum()
    }

    /// The structure score `Σ_c G_c² / (H_c + λ)` (twice the negated loss
    /// contribution of Eq. 1).
    pub fn score(&self, lambda: f64) -> f64 {
        self.grads
            .iter()
            .zip(&self.hesses)
            .map(|(&g, &h)| g * g / (h + lambda))
            .sum()
    }

    /// Optimal leaf weights `w*_c = −G_c / (H_c + λ)` (Eq. 1).
    pub fn leaf_weights(&self, lambda: f64) -> Vec<f64> {
        self.grads
            .iter()
            .zip(&self.hesses)
            .map(|(&g, &h)| -g / (h + lambda))
            .collect()
    }

    /// Exact wire encoding (LE f64s after a class-count header).
    pub fn encode_bytes(&self) -> Vec<u8> {
        let c = self.grads.len();
        let mut out = Vec::with_capacity(4 + c * 16);
        out.extend_from_slice(&(c as u32).to_le_bytes());
        for v in self.grads.iter().chain(&self.hesses) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decodes [`Self::encode_bytes`] output.
    pub fn decode_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 4 {
            return None;
        }
        let c = u32::from_le_bytes(bytes[0..4].try_into().ok()?) as usize;
        let payload = &bytes[4..];
        if payload.len() != c * 16 {
            return None;
        }
        let vals: Vec<f64> = payload
            .chunks_exact(8)
            .map(|ch| f64::from_le_bytes(ch.try_into().unwrap()))
            .collect();
        Some(NodeStats { grads: vals[..c].to_vec(), hesses: vals[c..].to_vec() })
    }
}

/// A candidate split of one tree node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Split {
    /// Split feature. Trainers working on vertical shards initially set the
    /// group-local id and translate to the global id before exchanging
    /// local bests (§4.2.2: "the master needs to recover the original
    /// feature afterwards").
    pub feature: FeatureId,
    /// Instances with bin ≤ this value go left.
    pub bin: BinId,
    /// Where instances missing the feature go.
    pub default_left: bool,
    /// Split gain (Eq. 2).
    pub gain: f64,
    /// Gradient sums of the left child (missing side included).
    pub left: NodeStats,
    /// Gradient sums of the right child (missing side included).
    pub right: NodeStats,
}

impl Split {
    /// Deterministic preference order: larger gain wins; (near-)ties break
    /// toward the smaller feature id, then the smaller bin, then default
    /// left. Every trainer uses this single comparison, which is what makes
    /// all quadrants grow identical trees on equivalent histograms.
    pub fn better_than(&self, other: &Split) -> bool {
        self.key().better_than(&other.key())
    }

    fn key(&self) -> SplitKey {
        SplitKey {
            gain: self.gain,
            feature: self.feature,
            bin: self.bin,
            default_left: self.default_left,
        }
    }

    /// Exact wire encoding for best-split exchange.
    pub fn encode_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(15 + 2 * (4 + self.left.grads.len() * 16));
        out.extend_from_slice(&self.feature.to_le_bytes());
        out.extend_from_slice(&self.bin.to_le_bytes());
        out.push(u8::from(self.default_left));
        out.extend_from_slice(&self.gain.to_le_bytes());
        let left = self.left.encode_bytes();
        let right = self.right.encode_bytes();
        out.extend_from_slice(&(left.len() as u32).to_le_bytes());
        out.extend_from_slice(&left);
        out.extend_from_slice(&right);
        out
    }

    /// Decodes [`Self::encode_bytes`] output.
    pub fn decode_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 19 {
            return None;
        }
        let feature = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
        let bin = u16::from_le_bytes(bytes[4..6].try_into().ok()?);
        let default_left = bytes[6] != 0;
        let gain = f64::from_le_bytes(bytes[7..15].try_into().ok()?);
        let left_len = u32::from_le_bytes(bytes[15..19].try_into().ok()?) as usize;
        let left = NodeStats::decode_bytes(bytes.get(19..19 + left_len)?)?;
        let right = NodeStats::decode_bytes(bytes.get(19 + left_len..)?)?;
        Some(Split { feature, bin, default_left, gain, left, right })
    }
}

/// Finds the best split of one feature from its histogram slice.
///
/// `node` holds the full gradient sums of the node (including instances with
/// missing values for this feature); the missing mass is `node −
/// feature_totals` and is tried on both sides.
pub fn best_split_for_feature(
    hist: &NodeHistogram,
    feature: FeatureId,
    n_bins: usize,
    node: &NodeStats,
    params: &SplitParams,
) -> Option<Split> {
    let scan = NodeScan::new(hist, node, params);
    let key = scan.feature(feature, n_bins, &mut scan.scratch())?;
    Some(scan.split(feature, key))
}

/// Finds the best split over all features of a histogram.
///
/// `n_bins_of` reports the true bin count of each (local) feature, which may
/// be smaller than the histogram stride; `feature_map` translates local ids
/// to global ids for the returned split.
pub fn best_split(
    hist: &NodeHistogram,
    node: &NodeStats,
    params: &SplitParams,
    n_bins_of: impl Fn(FeatureId) -> usize,
    feature_map: impl Fn(FeatureId) -> FeatureId,
) -> Option<Split> {
    best_split_in_range(hist, 0..hist.n_features() as FeatureId, node, params, n_bins_of, feature_map)
}

/// Finds the best split over a (local) feature subrange of a histogram —
/// the feature-sharded split finding of reduce-scatter / parameter-server
/// aggregation, where each worker only holds aggregated histograms for a
/// slice of the features (§4.1).
pub fn best_split_in_range(
    hist: &NodeHistogram,
    range: std::ops::Range<FeatureId>,
    node: &NodeStats,
    params: &SplitParams,
    n_bins_of: impl Fn(FeatureId) -> usize,
    feature_map: impl Fn(FeatureId) -> FeatureId,
) -> Option<Split> {
    debug_assert!(range.end as usize <= hist.n_features());
    let scan = NodeScan::new(hist, node, params);
    let mut scratch = scan.scratch();
    let bests = range.filter_map(|f| {
        let key = scan.feature(f, n_bins_of(f), &mut scratch)?;
        Some((f, SplitKey { feature: feature_map(f), ..key }))
    });
    scan.winner(bests)
}

/// Parallel [`best_split_in_range`]: the per-feature scans fan out across
/// `threads` in contiguous chunks (one scratch each), each feature's
/// candidate key lands in a feature-indexed slot, and the slots are reduced
/// sequentially in ascending feature order with [`Split::better_than`]'s
/// order. The reduction therefore folds the same candidates in the same
/// order as the sequential scan, making the chosen split bit-identical for
/// every thread count.
pub fn best_split_in_range_parallel(
    hist: &NodeHistogram,
    range: std::ops::Range<FeatureId>,
    node: &NodeStats,
    params: &SplitParams,
    n_bins_of: impl Fn(FeatureId) -> usize + Sync,
    feature_map: impl Fn(FeatureId) -> FeatureId + Sync,
    threads: usize,
) -> Option<Split> {
    let len = range.len();
    if threads <= 1 || len < crate::parallel::MIN_PARALLEL_FEATURES {
        return best_split_in_range(hist, range, node, params, n_bins_of, feature_map);
    }
    let scan = NodeScan::new(hist, node, params);
    let start = range.start;
    let per = len.div_ceil(threads.min(len));
    let mut slots: Vec<Option<SplitKey>> = vec![None; len];
    let mut chunks: Vec<&mut [Option<SplitKey>]> = slots.chunks_mut(per).collect();
    crate::parallel::par_map_slots(&mut chunks, threads, |i, chunk| {
        let mut scratch = scan.scratch();
        for (k, slot) in chunk.iter_mut().enumerate() {
            let f = start + (i * per + k) as FeatureId;
            *slot = scan
                .feature(f, n_bins_of(f), &mut scratch)
                .map(|key| SplitKey { feature: feature_map(f), ..key });
        }
    });
    let bests =
        slots.into_iter().enumerate().filter_map(|(k, key)| Some((start + k as FeatureId, key?)));
    scan.winner(bests)
}

/// What candidate splits are ranked by: a [`Split`] without its child sums,
/// which only the winner needs.
#[derive(Debug, Clone, Copy)]
struct SplitKey {
    gain: f64,
    feature: FeatureId,
    bin: BinId,
    default_left: bool,
}

impl SplitKey {
    /// Tolerance below which two gains are considered tied. Quadrants sum
    /// the same per-instance gradients in different orders (horizontal
    /// trainers reduce per-worker partials, vertical trainers sum whole
    /// columns), so mathematically equal gains — e.g. two correlated
    /// features inducing the identical partition — can differ by a few ulps
    /// (observed ≲1e-13 relative). Treating near-equal gains as ties and
    /// resolving them by the (feature, bin, default) key keeps every
    /// trainer's choice identical despite that rounding noise; genuinely
    /// distinct candidates differ by far more than this.
    const GAIN_TIE_REL: f64 = 1e-9;
    const GAIN_TIE_ABS: f64 = 1e-12;

    fn gain_ties(&self, other: &SplitKey) -> bool {
        let tol = Self::GAIN_TIE_ABS + Self::GAIN_TIE_REL * self.gain.abs().max(other.gain.abs());
        (self.gain - other.gain).abs() <= tol
    }

    /// The order of [`Split::better_than`].
    fn better_than(&self, other: &SplitKey) -> bool {
        if !self.gain_ties(other) {
            return self.gain > other.gain;
        }
        if self.feature != other.feature {
            return self.feature < other.feature;
        }
        if self.bin != other.bin {
            return self.bin < other.bin;
        }
        self.default_left && !other.default_left
    }
}

/// One node's split scan: the per-feature scans rank [`SplitKey`]s from
/// running sums over the histogram and allocate nothing; [`Self::split`]
/// builds the one `Split` that wins.
///
/// The float order is fixed, because every trainer must grow bit-identical
/// trees from equal histograms (DESIGN.md item 17): the present mass sums
/// all `n_bins()` histogram bins from 0.0, the left side is a running sum
/// from 0.0, the right side is `present − left`, the missing mass
/// `node − present` is added to the side the default direction sends it,
/// and the gain is `0.5 · (score_L + score_R − score_node) − γ` with each
/// score summed over classes in order. A candidate is kept only if its gain
/// is `> 0.0` (so never NaN) and it beats the running best by
/// [`Split::better_than`].
struct NodeScan<'a> {
    hist: &'a NodeHistogram,
    node: &'a NodeStats,
    params: &'a SplitParams,
    node_score: f64,
}

impl<'a> NodeScan<'a> {
    fn new(hist: &'a NodeHistogram, node: &'a NodeStats, params: &'a SplitParams) -> Self {
        NodeScan { hist, node, params, node_score: node.score(params.lambda) }
    }

    /// The running sums of a C > 1 scan: present and left, `[class][g, h]`.
    /// Empty, so never allocated, for C = 1, whose scan keeps scalars.
    fn scratch(&self) -> Vec<f64> {
        match self.node.n_outputs() {
            1 => Vec::new(),
            c => vec![0.0; 4 * c],
        }
    }

    /// The best candidate of one (local) feature, keyed with its local id.
    fn feature(&self, feature: FeatureId, n_bins: usize, scratch: &mut [f64]) -> Option<SplitKey> {
        if n_bins < 2 {
            return None;
        }
        let stride = self.hist.feature_stride();
        let bins = &self.hist.as_slice()[feature as usize * stride..][..stride];
        if self.node.n_outputs() == 1 {
            self.scan_single(feature, bins, n_bins)
        } else {
            self.scan_multi(feature, bins, n_bins, scratch)
        }
    }

    /// C == 1: scalar running sums. [`Self::scan_multi`] gives the same bits
    /// at C = 1 (a one-term `Iterator::sum` is the term itself) but runs at
    /// half the speed (EXPERIMENTS.md "Split scan").
    fn scan_single(&self, feature: FeatureId, bins: &[f64], n_bins: usize) -> Option<SplitKey> {
        let SplitParams { lambda, gamma, min_child_weight } = *self.params;
        let score = |g: f64, h: f64| g * g / (h + lambda);
        let (mut pg, mut ph) = (0.0f64, 0.0f64);
        for pair in bins.chunks_exact(2) {
            pg += pair[0];
            ph += pair[1];
        }
        let (mg, mh) = (self.node.grads[0] - pg, self.node.hesses[0] - ph);
        let (mut lg, mut lh) = (0.0f64, 0.0f64);
        let mut best: Option<SplitKey> = None;
        // Split after bin b (bins 0..=b left); the last bin never splits.
        for (b, pair) in bins[..2 * (n_bins - 1)].chunks_exact(2).enumerate() {
            lg += pair[0];
            lh += pair[1];
            let (rg, rh) = (pg - lg, ph - lh);
            for (default_left, (xg, xh), (yg, yh)) in
                [(true, (lg + mg, lh + mh), (rg, rh)), (false, (lg, lh), (rg + mg, rh + mh))]
            {
                if xh < min_child_weight || yh < min_child_weight {
                    continue;
                }
                let gain = 0.5 * (score(xg, xh) + score(yg, yh) - self.node_score) - gamma;
                let key = SplitKey { gain, feature, bin: b as BinId, default_left };
                if gain > 0.0 && best.is_none_or(|cur| key.better_than(&cur)) {
                    best = Some(key);
                }
            }
        }
        best
    }

    /// C > 1: the same scan over per-class running sums in `scratch`.
    fn scan_multi(
        &self,
        feature: FeatureId,
        bins: &[f64],
        n_bins: usize,
        scratch: &mut [f64],
    ) -> Option<SplitKey> {
        let SplitParams { lambda, gamma, min_child_weight } = *self.params;
        let node = self.node;
        let width = 2 * node.n_outputs();
        let (present, left) = scratch.split_at_mut(width);
        present.fill(0.0);
        left.fill(0.0);
        for bin in bins.chunks_exact(width) {
            for (p, v) in present.iter_mut().zip(bin) {
                *p += v;
            }
        }
        let mut best: Option<SplitKey> = None;
        for (b, bin) in bins[..width * (n_bins - 1)].chunks_exact(width).enumerate() {
            for (l, v) in left.iter_mut().zip(bin) {
                *l += v;
            }
            for default_left in [true, false] {
                // Hessian totals and scores of both children in one pass over
                // the classes. The sums start at −0.0 as `Iterator::sum`
                // does, so they are `NodeStats::total_hess` and
                // `NodeStats::score` bit for bit.
                let (mut hl, mut hr, mut sl, mut sr) = (-0.0, -0.0, -0.0, -0.0);
                for (k, (l, p)) in left.chunks_exact(2).zip(present.chunks_exact(2)).enumerate() {
                    let (mg, mh) = (node.grads[k] - p[0], node.hesses[k] - p[1]);
                    let (rg, rh) = (p[0] - l[0], p[1] - l[1]);
                    let ((xg, xh), (yg, yh)) = if default_left {
                        ((l[0] + mg, l[1] + mh), (rg, rh))
                    } else {
                        ((l[0], l[1]), (rg + mg, rh + mh))
                    };
                    hl += xh;
                    hr += yh;
                    sl += xg * xg / (xh + lambda);
                    sr += yg * yg / (yh + lambda);
                }
                if hl < min_child_weight || hr < min_child_weight {
                    continue;
                }
                let gain = 0.5 * (sl + sr - self.node_score) - gamma;
                let key = SplitKey { gain, feature, bin: b as BinId, default_left };
                if gain > 0.0 && best.is_none_or(|cur| key.better_than(&cur)) {
                    best = Some(key);
                }
            }
        }
        best
    }

    /// Folds `(local feature, key)` bests in the order given and builds the
    /// winner's `Split`.
    fn winner(&self, bests: impl Iterator<Item = (FeatureId, SplitKey)>) -> Option<Split> {
        let mut best: Option<(FeatureId, SplitKey)> = None;
        for (f, key) in bests {
            if best.is_none_or(|(_, cur)| key.better_than(&cur)) {
                best = Some((f, key));
            }
        }
        best.map(|(f, key)| self.split(f, key))
    }

    /// Materializes `key` on local `feature`: the child sums in the scan's
    /// float order.
    fn split(&self, feature: FeatureId, key: SplitKey) -> Split {
        let present = self.hist.feature_totals(feature);
        let missing = self.node.sub(&present);
        let mut left = NodeStats::zero(self.node.n_outputs());
        for b in 0..=key.bin as usize {
            self.hist.accumulate_bin(feature, b, &mut left);
        }
        let mut right = present.sub(&left);
        if key.default_left {
            left.add(&missing);
        } else {
            right.add(&missing);
        }
        let SplitKey { gain, feature, bin, default_left } = key;
        Split { feature, bin, default_left, gain, left, right }
    }
}

/// Parallel [`best_split`] over all features of a histogram.
pub fn best_split_parallel(
    hist: &NodeHistogram,
    node: &NodeStats,
    params: &SplitParams,
    n_bins_of: impl Fn(FeatureId) -> usize + Sync,
    feature_map: impl Fn(FeatureId) -> FeatureId + Sync,
    threads: usize,
) -> Option<Split> {
    best_split_in_range_parallel(
        hist,
        0..hist.n_features() as FeatureId,
        node,
        params,
        n_bins_of,
        feature_map,
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SplitParams {
        SplitParams { lambda: 1.0, gamma: 0.0, min_child_weight: 0.0 }
    }

    /// Node with two clusters: bin 0 has grads +1 (x4), bin 1 has grads -1 (x4).
    fn two_cluster_hist() -> (NodeHistogram, NodeStats) {
        let mut hist = NodeHistogram::new(1, 2, 1);
        let mut node = NodeStats::zero(1);
        for _ in 0..4 {
            hist.add(0, 0, 0, 1.0, 1.0);
            node.grads[0] += 1.0;
            node.hesses[0] += 1.0;
        }
        for _ in 0..4 {
            hist.add(0, 1, 0, -1.0, 1.0);
            node.grads[0] += -1.0;
            node.hesses[0] += 1.0;
        }
        (hist, node)
    }

    #[test]
    fn leaf_weight_matches_equation_1() {
        let stats = NodeStats { grads: vec![4.0], hesses: vec![3.0] };
        assert_eq!(stats.leaf_weights(1.0), vec![-1.0]);
        assert_eq!(stats.score(1.0), 4.0);
    }

    #[test]
    fn gain_matches_equation_2() {
        let (hist, node) = two_cluster_hist();
        let s = best_split_for_feature(&hist, 0, 2, &node, &params()).unwrap();
        assert_eq!(s.bin, 0);
        // GL=4, HL=4; GR=-4, HR=4; G=0, H=8.
        // gain = 0.5*(16/5 + 16/5 - 0) = 3.2
        assert!((s.gain - 3.2).abs() < 1e-12, "gain {}", s.gain);
        assert_eq!(s.left.grads, vec![4.0]);
        assert_eq!(s.right.grads, vec![-4.0]);
    }

    #[test]
    fn gamma_subtracts_from_gain_and_can_veto() {
        let (hist, node) = two_cluster_hist();
        let p = SplitParams { gamma: 1.0, ..params() };
        let s = best_split_for_feature(&hist, 0, 2, &node, &p).unwrap();
        assert!((s.gain - 2.2).abs() < 1e-12);
        let p = SplitParams { gamma: 10.0, ..params() };
        assert!(best_split_for_feature(&hist, 0, 2, &node, &p).is_none());
    }

    #[test]
    fn min_child_weight_vetoes_thin_children() {
        let (hist, node) = two_cluster_hist();
        let p = SplitParams { min_child_weight: 5.0, ..params() };
        assert!(best_split_for_feature(&hist, 0, 2, &node, &p).is_none());
    }

    #[test]
    fn missing_values_choose_best_default_direction() {
        // Present: bin 0 has grad +2 (hess 2), bin 1 grad 0 (hess 1).
        // Missing mass: grad -3, hess 3. Best: split after bin 0 with
        // missing going right (so left is pure positive).
        let mut hist = NodeHistogram::new(1, 2, 1);
        hist.add(0, 0, 0, 2.0, 2.0);
        hist.add(0, 1, 0, 0.0, 1.0);
        let node = NodeStats { grads: vec![-1.0], hesses: vec![6.0] };
        let s = best_split_for_feature(&hist, 0, 2, &node, &params()).unwrap();
        assert!(!s.default_left);
        assert_eq!(s.left.grads, vec![2.0]);
        assert_eq!(s.right.grads, vec![-3.0]);
        assert_eq!(s.right.hesses, vec![4.0]);
    }

    #[test]
    fn no_split_on_uniform_gradients() {
        // All instances identical: any split gives zero gain.
        let mut hist = NodeHistogram::new(1, 2, 1);
        hist.add(0, 0, 0, 1.0, 1.0);
        hist.add(0, 1, 0, 1.0, 1.0);
        let node = NodeStats { grads: vec![2.0], hesses: vec![2.0] };
        assert!(best_split_for_feature(&hist, 0, 2, &node, &params()).is_none());
    }

    #[test]
    fn single_bin_feature_cannot_split() {
        let (hist, node) = two_cluster_hist();
        assert!(best_split_for_feature(&hist, 0, 1, &node, &params()).is_none());
    }

    #[test]
    fn best_split_prefers_highest_gain_feature() {
        // Feature 0 separates weakly, feature 1 perfectly.
        let mut hist = NodeHistogram::new(2, 2, 1);
        hist.add(0, 0, 0, 1.0, 2.0); // mixed
        hist.add(0, 1, 0, -1.0, 2.0);
        hist.add(1, 0, 0, 2.0, 2.0); // pure
        hist.add(1, 1, 0, -2.0, 2.0);
        let node = NodeStats { grads: vec![0.0], hesses: vec![4.0] };
        let s = best_split(&hist, &node, &params(), |_| 2, |f| f + 100).unwrap();
        assert_eq!(s.feature, 101); // remapped global id
    }

    #[test]
    fn nan_gain_never_wins() {
        // At λ = 0 an empty child scores 0/0 = NaN. Feature 0's bin 0 is
        // empty, so its first candidates have NaN gains; feature 1
        // separates perfectly.
        let p = SplitParams { lambda: 0.0, gamma: 0.0, min_child_weight: 0.0 };
        let mut hist = NodeHistogram::new(2, 3, 1);
        hist.add(0, 1, 0, 1.0, 2.0);
        hist.add(0, 2, 0, -1.0, 2.0);
        hist.add(1, 0, 0, 2.0, 2.0);
        hist.add(1, 1, 0, -2.0, 2.0);
        let node = NodeStats { grads: vec![0.0], hesses: vec![4.0] };
        let s = best_split(&hist, &node, &p, |_| 3, |f| f).unwrap();
        assert_eq!((s.feature, s.bin, s.gain), (1, 0, 2.0));
        assert_eq!(s.left, NodeStats { grads: vec![2.0], hesses: vec![2.0] });
    }

    #[test]
    fn tie_breaks_are_deterministic() {
        // Two identical features: the smaller id must win.
        let mut hist = NodeHistogram::new(2, 2, 1);
        for f in 0..2 {
            hist.add(f, 0, 0, 1.0, 1.0);
            hist.add(f, 1, 0, -1.0, 1.0);
        }
        let node = NodeStats { grads: vec![0.0], hesses: vec![2.0] };
        let s = best_split(&hist, &node, &params(), |_| 2, |f| f).unwrap();
        assert_eq!(s.feature, 0);
        let a = Split {
            feature: 1,
            bin: 0,
            default_left: true,
            gain: 1.0,
            left: NodeStats::zero(1),
            right: NodeStats::zero(1),
        };
        let mut b = a.clone();
        b.feature = 2;
        assert!(a.better_than(&b));
        b.feature = 1;
        b.bin = 1;
        assert!(a.better_than(&b));
        b.bin = 0;
        assert!(!a.better_than(&b)); // identical: first wins via map_or(false)
    }

    #[test]
    fn multiclass_gain_sums_classes() {
        let mut hist = NodeHistogram::new(1, 2, 2);
        hist.add_instance(0, 0, &[1.0, -1.0], &[1.0, 1.0]);
        hist.add_instance(0, 1, &[-1.0, 1.0], &[1.0, 1.0]);
        let node = NodeStats { grads: vec![0.0, 0.0], hesses: vec![2.0, 2.0] };
        let s = best_split_for_feature(&hist, 0, 2, &node, &params()).unwrap();
        // Per class: 0.5*(1/2 + 1/2) = 0.5; two classes -> 1.0.
        assert!((s.gain - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_split_matches_sequential_exactly() {
        // Enough features to clear MIN_PARALLEL_FEATURES so the fan-out
        // path actually engages.
        let d = crate::parallel::MIN_PARALLEL_FEATURES + 9;
        let q = 6;
        let mut hist = NodeHistogram::new(d, q, 1);
        let mut node = NodeStats::zero(1);
        for f in 0..d as u32 {
            for b in 0..q as u16 {
                let g = ((f as f64 * 31.0 + b as f64 * 7.0).sin()) * 0.5;
                hist.add(f, b, 0, g, 1.0);
            }
        }
        // Node totals = sums over feature 0 (every feature sees all mass).
        let t = hist.feature_totals(0);
        node.grads[0] = t.grads[0];
        node.hesses[0] = t.hesses[0];
        let p = params();
        let seq = best_split(&hist, &node, &p, |_| q, |f| f);
        for threads in [1usize, 2, 4, 8] {
            let par = best_split_parallel(&hist, &node, &p, |_| q, |f| f, threads);
            assert_eq!(par, seq, "threads={threads}");
        }
        // Subrange variant too.
        let lo = 10u32;
        let hi = d as u32 - 3;
        let seq = best_split_in_range(&hist, lo..hi, &node, &p, |_| q, |f| f + 1000);
        let par =
            best_split_in_range_parallel(&hist, lo..hi, &node, &p, |_| q, |f| f + 1000, 4);
        assert_eq!(par, seq);
    }

    #[test]
    fn stats_and_split_wire_roundtrip() {
        let stats = NodeStats { grads: vec![1.5, -2.5], hesses: vec![0.5, 3.0] };
        assert_eq!(NodeStats::decode_bytes(&stats.encode_bytes()).unwrap(), stats);
        assert!(NodeStats::decode_bytes(&stats.encode_bytes()[..7]).is_none());
        let split = Split {
            feature: 12,
            bin: 7,
            default_left: false,
            gain: 3.25,
            left: stats.clone(),
            right: NodeStats::zero(2),
        };
        assert_eq!(Split::decode_bytes(&split.encode_bytes()).unwrap(), split);
        assert!(Split::decode_bytes(&split.encode_bytes()[..20]).is_none());
    }
}
