//! Gradient histograms: construction, merge, and subtraction.
//!
//! A node's histogram summarizes, per (feature, bin, class), the summed
//! first- and second-order gradients of the instances on that node
//! (§2.1.2, Figure 3). Its size — the quantity the whole paper's analysis
//! revolves around — is `Sizehist = 2 × D × q × C × 8` bytes (§3.1.1).
//!
//! The layout is one flat `f64` array ordered `[feature][bin][class][g,h]`,
//! so per-feature slices are contiguous for split finding and the whole
//! buffer is contiguous for element-wise aggregation and subtraction.
//!
//! Every gradient lies on one power-of-two grid
//! ([`GradGrid`](crate::loss::GradGrid)), so every cell sum, merge and
//! subtraction is exact: a node's histogram has the same bits whatever the
//! order of its instances, however it is split into partials and in
//! whichever order those merge, and whether it is built or derived from its
//! parent.

use crate::gradients::GradPair;
use crate::split::NodeStats;
use gbdt_data::frame::{DecodeError, Reader};
use gbdt_data::{BinId, FeatureId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// `Sizehist` — histogram bytes for one tree node (paper §3.1.1).
pub const fn histogram_size_bytes(n_features: usize, n_bins: usize, n_outputs: usize) -> usize {
    2 * n_features * n_bins * n_outputs * 8
}

/// Gradient histogram of one tree node over a set of (local) features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeHistogram {
    n_features: usize,
    n_bins: usize,
    n_outputs: usize,
    data: Vec<f64>,
}

impl NodeHistogram {
    /// Allocates a zeroed histogram for `n_features × n_bins × n_outputs`.
    pub fn new(n_features: usize, n_bins: usize, n_outputs: usize) -> Self {
        NodeHistogram {
            n_features,
            n_bins,
            n_outputs,
            data: vec![0.0; n_features * n_bins * n_outputs * 2],
        }
    }

    /// Number of features covered.
    #[inline]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Bins per feature (q).
    #[inline]
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// Classes per bin (C).
    #[inline]
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// Resets all bins to zero without reallocating.
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    #[inline]
    fn offset(&self, feature: usize, bin: usize, class: usize) -> usize {
        ((feature * self.n_bins + bin) * self.n_outputs + class) * 2
    }

    /// Accumulates one gradient pair into `(feature, bin, class)`.
    #[inline]
    pub fn add(&mut self, feature: FeatureId, bin: BinId, class: usize, grad: f64, hess: f64) {
        let k = self.offset(feature as usize, bin as usize, class);
        self.data[k] += grad;
        self.data[k + 1] += hess;
    }

    /// Accumulates all C gradient pairs of one instance into `(feature, bin)`.
    ///
    /// This is the innermost loop of histogram construction: `grads` and
    /// `hesses` are the instance's per-class gradients.
    #[inline]
    pub fn add_instance(&mut self, feature: FeatureId, bin: BinId, grads: &[f64], hesses: &[f64]) {
        let k = self.offset(feature as usize, bin as usize, 0);
        let slot = &mut self.data[k..k + self.n_outputs * 2];
        for c in 0..self.n_outputs {
            slot[c * 2] += grads[c];
            slot[c * 2 + 1] += hesses[c];
        }
    }

    /// Gradient pair stored at `(feature, bin, class)`.
    #[inline]
    pub fn get(&self, feature: FeatureId, bin: BinId, class: usize) -> GradPair {
        let k = self.offset(feature as usize, bin as usize, class);
        GradPair { grad: self.data[k], hess: self.data[k + 1] }
    }

    /// Element-wise sum with another histogram of identical shape
    /// (the aggregation step of horizontal partitioning, §2.2.1).
    pub fn merge_from(&mut self, other: &NodeHistogram) {
        self.assert_same_shape(other);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise subtraction: `self -= other`.
    ///
    /// This is the **histogram subtraction technique** (§2.1.2): the sibling
    /// histogram equals parent minus the built child.
    pub fn subtract_from(&mut self, other: &NodeHistogram) {
        self.assert_same_shape(other);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// Equal flat length does not imply equal (D, B, C) factorization; an
    /// element-wise op on a transposed shape would silently scramble bins.
    fn assert_same_shape(&self, other: &NodeHistogram) {
        assert_eq!(self.data.len(), other.data.len(), "histogram shape mismatch");
        let shape = |h: &NodeHistogram| (h.n_features, h.n_bins, h.n_outputs);
        debug_assert_eq!(shape(self), shape(other), "histogram factor mismatch");
    }

    /// Per-class gradient sums over all bins of one feature — the gradient
    /// mass of instances with a *present* value for the feature. The node
    /// total minus this is the "missing" mass routed by the default
    /// direction.
    pub fn feature_totals(&self, feature: FeatureId) -> NodeStats {
        let mut stats = NodeStats::zero(self.n_outputs);
        for bin in 0..self.n_bins {
            let k = self.offset(feature as usize, bin, 0);
            for c in 0..self.n_outputs {
                stats.grads[c] += self.data[k + c * 2];
                stats.hesses[c] += self.data[k + c * 2 + 1];
            }
        }
        stats
    }

    /// Adds the pairs of `(feature, bin)` into `stats`.
    #[inline]
    pub fn accumulate_bin(&self, feature: FeatureId, bin: usize, stats: &mut NodeStats) {
        let k = self.offset(feature as usize, bin, 0);
        for c in 0..self.n_outputs {
            stats.grads[c] += self.data[k + c * 2];
            stats.hesses[c] += self.data[k + c * 2 + 1];
        }
    }

    /// `f64` elements covering one feature (`n_bins × n_outputs × 2`) — the
    /// stride between consecutive features in the flat buffer, used to carve
    /// the buffer into per-feature regions for column fills.
    #[inline]
    pub fn feature_stride(&self) -> usize {
        self.n_bins * self.n_outputs * 2
    }

    /// The raw flat buffer (for wire transfer and reduce-scatter slicing).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Rebuilds a histogram from a flat buffer (inverse of [`Self::as_slice`]).
    pub fn from_flat(
        n_features: usize,
        n_bins: usize,
        n_outputs: usize,
        data: Vec<f64>,
    ) -> Self {
        assert_eq!(data.len(), n_features * n_bins * n_outputs * 2, "flat buffer mismatch");
        NodeHistogram { n_features, n_bins, n_outputs, data }
    }

    /// Exact wire encoding: 12-byte header + LE f64 payload.
    ///
    /// The buffer is sized once up front and filled through fixed 8-byte
    /// windows — one bulk pass without per-element growth checks, which
    /// matters because aggregation serializes whole `Sizehist` buffers.
    pub fn encode_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; 12 + self.data.len() * 8];
        out[0..4].copy_from_slice(&(self.n_features as u32).to_le_bytes());
        out[4..8].copy_from_slice(&(self.n_bins as u32).to_le_bytes());
        out[8..12].copy_from_slice(&(self.n_outputs as u32).to_le_bytes());
        for (dst, v) in out[12..].chunks_exact_mut(8).zip(&self.data) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decodes [`Self::encode_bytes`] output.
    pub fn decode_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let (f, q, c) = (r.u32()? as usize, r.u32()? as usize, r.u32()? as usize);
        let cells = f.checked_mul(q).and_then(|fq| fq.checked_mul(2 * c));
        let data = r.f64s(cells.ok_or_else(|| r.error("histogram shape overflows"))?)?.collect();
        r.finish()?;
        Ok(NodeHistogram { n_features: f, n_bins: q, n_outputs: c, data })
    }
}

/// Accumulates one instance's per-class gradient pairs into a single
/// feature's region of a histogram buffer (layout `[bin][class][g,h]`), as
/// handed out by column fills.
#[inline]
pub fn add_instance_to_feature_slice(
    slice: &mut [f64],
    n_outputs: usize,
    bin: BinId,
    grads: &[f64],
    hesses: &[f64],
) {
    let k = bin as usize * n_outputs * 2;
    let slot = &mut slice[k..k + n_outputs * 2];
    for c in 0..n_outputs {
        slot[c * 2] += grads[c];
        slot[c * 2 + 1] += hesses[c];
    }
}

/// Pool of per-node histograms with subtraction support and exact peak-memory
/// accounting (the quantity Figure 10(e)/(f) reports).
///
/// One lifetime rule: a histogram lives until its node's split scan has run
/// and no later subtraction reads it. Parent histograms are retained while
/// their children are outstanding (§3.1.2: "we have to conserve the
/// histograms of the parent nodes") and nothing else is: the last built
/// layer, whose children are all leaves, is filled, derived, scanned and
/// released one pair at a time. QD1 is the exception — its instance-to-node
/// index fills a whole layer in one column pass, so its layer is live at
/// once. Buffers are recycled through a free list so steady-state training
/// does not allocate.
#[derive(Debug)]
pub struct HistogramPool {
    n_features: usize,
    n_bins: usize,
    n_outputs: usize,
    live: BTreeMap<u32, NodeHistogram>,
    free: Vec<NodeHistogram>,
    current_bytes: usize,
    peak_bytes: usize,
}

impl HistogramPool {
    /// Creates a pool producing histograms of the given shape.
    pub fn new(n_features: usize, n_bins: usize, n_outputs: usize) -> Self {
        HistogramPool {
            n_features,
            n_bins,
            n_outputs,
            live: BTreeMap::new(),
            free: Vec::new(),
            current_bytes: 0,
            peak_bytes: 0,
        }
    }

    fn hist_bytes(&self) -> usize {
        histogram_size_bytes(self.n_features, self.n_bins, self.n_outputs)
    }

    /// Takes a zeroed histogram for `node`, reusing a free buffer if any.
    pub fn acquire(&mut self, node: u32) -> &mut NodeHistogram {
        assert!(!self.live.contains_key(&node), "node {node} already has a histogram");
        let hist = match self.free.pop() {
            Some(mut h) => {
                h.zero();
                h
            }
            None => NodeHistogram::new(self.n_features, self.n_bins, self.n_outputs),
        };
        self.current_bytes += self.hist_bytes();
        self.peak_bytes = self.peak_bytes.max(self.current_bytes);
        self.live.entry(node).or_insert(hist)
    }

    /// Histogram of `node`, if live.
    pub fn get(&self, node: u32) -> Option<&NodeHistogram> {
        self.live.get(&node)
    }

    /// Mutable histogram of `node`, if live.
    pub fn get_mut(&mut self, node: u32) -> Option<&mut NodeHistogram> {
        self.live.get_mut(&node)
    }

    /// Every live histogram, by ascending node id.
    pub fn live_mut(&mut self) -> impl Iterator<Item = (u32, &mut NodeHistogram)> {
        self.live.iter_mut().map(|(&node, hist)| (node, hist))
    }

    /// Replaces the histogram of `node` (used after aggregation rounds).
    ///
    /// The full shape must match: a histogram with the right feature count
    /// but the wrong bin or class width would silently corrupt every
    /// subtraction and split scan downstream, so it fails loudly here.
    pub fn insert(&mut self, node: u32, hist: NodeHistogram) {
        assert_eq!(hist.n_features, self.n_features, "histogram feature-count mismatch");
        assert_eq!(hist.n_bins, self.n_bins, "histogram bin-count mismatch");
        assert_eq!(hist.n_outputs, self.n_outputs, "histogram class-count mismatch");
        if self.live.insert(node, hist).is_none() {
            self.current_bytes += self.hist_bytes();
            self.peak_bytes = self.peak_bytes.max(self.current_bytes);
        }
    }

    /// Computes the sibling histogram by subtraction: `sibling = parent −
    /// built`, retiring the parent buffer into the sibling's slot.
    pub fn subtract_sibling(&mut self, parent: u32, built: u32, sibling: u32) {
        let mut parent_hist =
            self.live.remove(&parent).expect("parent histogram must be live for subtraction");
        let built_hist = self.live.get(&built).expect("built child histogram must be live");
        parent_hist.subtract_from(built_hist);
        self.live.insert(sibling, parent_hist);
    }

    /// Releases the histogram of `node` back to the free list.
    pub fn release(&mut self, node: u32) {
        if let Some(h) = self.live.remove(&node) {
            self.current_bytes -= self.hist_bytes();
            self.free.push(h);
        }
    }

    /// Releases every live histogram (end of tree).
    pub fn release_all(&mut self) {
        let nodes: Vec<u32> = self.live.keys().copied().collect();
        for node in nodes {
            self.release(node);
        }
    }

    /// Peak bytes of simultaneously *live* histograms seen so far.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Bytes of currently live histograms.
    pub fn current_bytes(&self) -> usize {
        self.current_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_formula_matches_paper_example() {
        // §3.1.4: D = 330K, q = 20, C = 9 -> ~906 MB per node.
        let bytes = histogram_size_bytes(330_000, 20, 9);
        assert_eq!(bytes, 2 * 330_000 * 20 * 9 * 8);
        assert!((bytes as f64 / (1024.0 * 1024.0) - 906.0).abs() < 1.0);
    }

    #[test]
    fn add_and_get() {
        let mut h = NodeHistogram::new(2, 4, 3);
        h.add(1, 2, 0, 0.5, 1.0);
        h.add(1, 2, 0, 0.25, 0.5);
        h.add(1, 2, 2, -1.0, 2.0);
        assert_eq!(h.get(1, 2, 0), GradPair::new(0.75, 1.5));
        assert_eq!(h.get(1, 2, 2), GradPair::new(-1.0, 2.0));
        assert_eq!(h.get(0, 0, 0), GradPair::default());
    }

    #[test]
    fn add_instance_covers_all_classes() {
        let mut h = NodeHistogram::new(1, 2, 2);
        h.add_instance(0, 1, &[0.125, 0.25], &[1.0, 2.0]);
        h.add_instance(0, 1, &[0.375, 0.5], &[3.0, 4.0]);
        assert_eq!(h.get(0, 1, 0), GradPair::new(0.5, 4.0));
        assert_eq!(h.get(0, 1, 1), GradPair::new(0.75, 6.0));
    }

    #[test]
    fn merge_is_elementwise_sum() {
        let mut a = NodeHistogram::new(1, 2, 1);
        let mut b = NodeHistogram::new(1, 2, 1);
        a.add(0, 0, 0, 1.0, 2.0);
        b.add(0, 0, 0, 10.0, 20.0);
        b.add(0, 1, 0, 5.0, 5.0);
        a.merge_from(&b);
        assert_eq!(a.get(0, 0, 0), GradPair::new(11.0, 22.0));
        assert_eq!(a.get(0, 1, 0), GradPair::new(5.0, 5.0));
    }

    #[test]
    fn subtraction_recovers_sibling() {
        // parent = child1 + child2 exactly (same addition order per bin).
        let mut parent = NodeHistogram::new(2, 3, 1);
        let mut child = NodeHistogram::new(2, 3, 1);
        for (f, b, g, h) in [(0u32, 0u16, 1.0, 0.5), (1, 2, -2.0, 1.5), (0, 1, 3.0, 2.5)] {
            parent.add(f, b, 0, g, h);
        }
        child.add(0, 0, 0, 1.0, 0.5);
        let mut sibling = parent.clone();
        sibling.subtract_from(&child);
        assert_eq!(sibling.get(0, 0, 0), GradPair::default());
        assert_eq!(sibling.get(1, 2, 0), GradPair::new(-2.0, 1.5));
        assert_eq!(sibling.get(0, 1, 0), GradPair::new(3.0, 2.5));
    }

    #[test]
    fn feature_totals_sum_bins() {
        let mut h = NodeHistogram::new(2, 3, 2);
        h.add(1, 0, 0, 1.0, 1.0);
        h.add(1, 2, 0, 2.0, 2.0);
        h.add(1, 2, 1, -1.0, 3.0);
        let t = h.feature_totals(1);
        assert_eq!(t.grads, vec![3.0, -1.0]);
        assert_eq!(t.hesses, vec![3.0, 3.0]);
        let t0 = h.feature_totals(0);
        assert_eq!(t0.grads, vec![0.0, 0.0]);
    }

    #[test]
    fn wire_roundtrip() {
        let mut h = NodeHistogram::new(3, 4, 2);
        h.add(2, 3, 1, 0.123, 4.56);
        let bytes = h.encode_bytes();
        assert_eq!(NodeHistogram::decode_bytes(&bytes).unwrap(), h);
        assert!(NodeHistogram::decode_bytes(&bytes[..10]).is_err());
        assert!(NodeHistogram::decode_bytes(&bytes[..bytes.len() - 8]).is_err());
    }

    #[test]
    fn pool_tracks_peak_memory() {
        let mut pool = HistogramPool::new(4, 8, 1);
        let each = histogram_size_bytes(4, 8, 1);
        pool.acquire(0);
        pool.acquire(1);
        assert_eq!(pool.current_bytes(), 2 * each);
        pool.release(0);
        assert_eq!(pool.current_bytes(), each);
        pool.acquire(2);
        pool.acquire(3);
        assert_eq!(pool.peak_bytes(), 3 * each);
        assert_eq!(pool.live_mut().map(|(node, _)| node).collect::<Vec<_>>(), [1, 2, 3]);
        pool.release_all();
        assert_eq!(pool.current_bytes(), 0);
        assert_eq!(pool.peak_bytes(), 3 * each);
    }

    #[test]
    fn pool_subtract_sibling_moves_parent_buffer() {
        let mut pool = HistogramPool::new(1, 2, 1);
        pool.acquire(0).add(0, 0, 0, 10.0, 10.0);
        pool.get_mut(0).unwrap().add(0, 1, 0, 4.0, 4.0);
        pool.acquire(1).add(0, 0, 0, 3.0, 3.0);
        pool.subtract_sibling(0, 1, 2);
        assert!(pool.get(0).is_none());
        let sib = pool.get(2).unwrap();
        assert_eq!(sib.get(0, 0, 0), GradPair::new(7.0, 7.0));
        assert_eq!(sib.get(0, 1, 0), GradPair::new(4.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "bin-count mismatch")]
    fn pool_insert_rejects_wrong_bin_count() {
        // Same feature count, different q — the old n_features-only check
        // let this through and downstream subtraction corrupted silently.
        let mut pool = HistogramPool::new(2, 8, 1);
        pool.insert(0, NodeHistogram::new(2, 4, 1));
    }

    #[test]
    #[should_panic(expected = "class-count mismatch")]
    fn pool_insert_rejects_wrong_class_count() {
        let mut pool = HistogramPool::new(2, 8, 2);
        pool.insert(0, NodeHistogram::new(2, 8, 1));
    }

    #[test]
    #[should_panic(expected = "already has a histogram")]
    fn pool_rejects_double_acquire() {
        let mut pool = HistogramPool::new(1, 2, 1);
        pool.acquire(0);
        pool.acquire(0);
    }

    #[test]
    fn feature_slice_accumulate_matches_add_instance() {
        let mut direct = NodeHistogram::new(3, 4, 2);
        direct.add_instance(1, 2, &[0.5, -0.25], &[1.0, 2.0]);
        let mut sliced = NodeHistogram::new(3, 4, 2);
        let stride = sliced.feature_stride();
        let slice = &mut sliced.as_mut_slice()[stride..2 * stride];
        add_instance_to_feature_slice(slice, 2, 2, &[0.5, -0.25], &[1.0, 2.0]);
        assert_eq!(direct.as_slice(), sliced.as_slice());
    }

    #[test]
    fn wire_roundtrip_empty_and_multiclass() {
        let empty = NodeHistogram::new(0, 20, 3);
        assert_eq!(NodeHistogram::decode_bytes(&empty.encode_bytes()).unwrap(), empty);
        let mut multi = NodeHistogram::new(2, 3, 5);
        multi.add_instance(1, 0, &[0.1, 0.2, 0.3, 0.4, 0.5], &[1.0; 5]);
        let bytes = multi.encode_bytes();
        assert_eq!(bytes.len(), 12 + 2 * 3 * 5 * 2 * 8);
        assert_eq!(NodeHistogram::decode_bytes(&bytes).unwrap(), multi);
    }
}
