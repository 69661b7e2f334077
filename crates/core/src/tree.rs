//! Decision tree structure with complete-tree node indexing.
//!
//! Trees grow layer by layer to at most L layers (the paper's growth model,
//! §3.1.2). Nodes use complete-binary-tree ids: root is 0, children of `i`
//! are `2i+1` and `2i+2`, layer `l` spans ids `2^l − 1 .. 2^(l+1) − 1`.

use crate::split::NodeStats;
use gbdt_data::{BinId, FeatureId};
use serde::{Deserialize, Serialize};

/// Children ids of node `i`.
#[inline]
pub const fn children(node: u32) -> (u32, u32) {
    (2 * node + 1, 2 * node + 2)
}

/// Parent id of a non-root node.
#[inline]
pub const fn parent(node: u32) -> u32 {
    (node - 1) / 2
}

/// Sibling id of a non-root node.
#[inline]
pub const fn sibling(node: u32) -> u32 {
    if node.is_multiple_of(2) { node - 1 } else { node + 1 }
}

/// Node ids of layer `l` (0-based): `2^l − 1 .. 2^(l+1) − 1`.
#[inline]
pub fn layer_range(layer: usize) -> std::ops::Range<u32> {
    ((1u32 << layer) - 1)..((1u32 << (layer + 1)) - 1)
}

/// Maximum node count of an L-layer tree: `2^L − 1`.
#[inline]
pub const fn max_nodes(n_layers: usize) -> usize {
    (1usize << n_layers) - 1
}

/// What a materialized tree node is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeKind {
    /// An internal decision node.
    Internal {
        /// Global id of the split feature.
        feature: FeatureId,
        /// Training-time split: instances with bin ≤ `bin` go left.
        bin: BinId,
        /// Inference-time split: instances with value ≤ `threshold` go left.
        threshold: f32,
        /// Side receiving instances with a missing value for `feature`.
        default_left: bool,
        /// Split gain achieved (Eq. 2) — drives gain-based feature
        /// importance.
        gain: f64,
    },
    /// A leaf carrying C output values (already scaled by η).
    Leaf {
        /// Per-class leaf values.
        values: Vec<f64>,
    },
}

/// A materialized tree node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeNode {
    /// The node payload.
    pub kind: NodeKind,
}

/// One decision tree of the ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    n_layers: usize,
    n_outputs: usize,
    nodes: Vec<Option<TreeNode>>,
}

impl Tree {
    /// Creates an empty tree growing to at most `n_layers` layers, with
    /// C = `n_outputs` values per leaf.
    pub fn new(n_layers: usize, n_outputs: usize) -> Self {
        assert!((1..=24).contains(&n_layers), "n_layers out of range");
        Tree { n_layers, n_outputs, nodes: vec![None; max_nodes(n_layers)] }
    }

    /// Number of layers this tree may grow to.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Values per leaf (C).
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// The node at `id`, if materialized.
    pub fn node(&self, id: u32) -> Option<&TreeNode> {
        self.nodes.get(id as usize).and_then(Option::as_ref)
    }

    /// Materializes an internal node.
    pub fn set_internal(
        &mut self,
        id: u32,
        feature: FeatureId,
        bin: BinId,
        threshold: f32,
        default_left: bool,
    ) {
        self.set_internal_with_gain(id, feature, bin, threshold, default_left, 0.0);
    }

    /// Materializes an internal node, recording its split gain.
    pub fn set_internal_with_gain(
        &mut self,
        id: u32,
        feature: FeatureId,
        bin: BinId,
        threshold: f32,
        default_left: bool,
        gain: f64,
    ) {
        assert!(
            (children(id).1 as usize) < self.nodes.len(),
            "internal node {id} would exceed {} layers",
            self.n_layers
        );
        self.nodes[id as usize] = Some(TreeNode {
            kind: NodeKind::Internal { feature, bin, threshold, default_left, gain },
        });
    }

    /// Materializes a leaf from node statistics (Eq. 1), scaling by η.
    pub fn set_leaf_from_stats(&mut self, id: u32, stats: &NodeStats, lambda: f64, eta: f64) {
        let values = stats.leaf_weights(lambda).into_iter().map(|w| w * eta).collect();
        self.set_leaf(id, values);
    }

    /// Materializes a leaf with explicit values.
    pub fn set_leaf(&mut self, id: u32, values: Vec<f64>) {
        assert_eq!(values.len(), self.n_outputs, "leaf arity mismatch");
        self.nodes[id as usize] = Some(TreeNode { kind: NodeKind::Leaf { values } });
    }

    /// Number of materialized nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// The values of every leaf, in node-id order.
    pub fn leaf_values(&self) -> impl Iterator<Item = &[f64]> {
        self.nodes.iter().filter_map(|n| match n {
            Some(TreeNode { kind: NodeKind::Leaf { values } }) => Some(values.as_slice()),
            _ => None,
        })
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.leaf_values().count()
    }

    /// Walks the tree with a per-feature value lookup returning `None` for
    /// missing values; yields the reached leaf's values.
    ///
    /// This single traversal backs both inference (lookup by raw value
    /// against thresholds) and training-time placement (lookup by bin).
    pub fn predict_with(&self, mut lookup: impl FnMut(FeatureId) -> LookupResult) -> &[f64] {
        let mut id = 0u32;
        loop {
            match &self.node(id).expect("tree traversal reached a missing node").kind {
                NodeKind::Leaf { values } => return values,
                NodeKind::Internal { feature, bin, threshold, default_left, .. } => {
                    let go_left = match lookup(*feature) {
                        LookupResult::Missing => *default_left,
                        LookupResult::Value(v) => v <= *threshold,
                        LookupResult::Bin(b) => b <= *bin,
                    };
                    let (l, r) = children(id);
                    id = if go_left { l } else { r };
                }
            }
        }
    }

    /// Predicts from a sparse row of (sorted) features and raw values.
    pub fn predict_row(&self, feats: &[FeatureId], vals: &[f32]) -> &[f64] {
        self.predict_with(|f| match feats.binary_search(&f) {
            Ok(k) => LookupResult::Value(vals[k]),
            Err(_) => LookupResult::Missing,
        })
    }

    /// Visits every internal node as `(feature, threshold, gain)`.
    pub fn visit_internal(&self, mut visit: impl FnMut(FeatureId, f32, f64)) {
        for node in self.nodes.iter().flatten() {
            if let NodeKind::Internal { feature, threshold, gain, .. } = &node.kind {
                visit(*feature, *threshold, *gain);
            }
        }
    }

    /// Depth of the deepest materialized node (root-only tree = 1).
    pub fn depth(&self) -> usize {
        let mut deepest = 0usize;
        for (id, node) in self.nodes.iter().enumerate() {
            if node.is_some() {
                deepest = deepest.max((usize::BITS - (id + 1).leading_zeros()) as usize);
            }
        }
        deepest
    }
}

/// Result of a feature lookup during tree traversal.
#[derive(Debug, Clone, Copy)]
pub enum LookupResult {
    /// The instance has no value for the feature.
    Missing,
    /// Raw feature value (inference path).
    Value(f32),
    /// Quantized bin (training-time placement path).
    Bin(BinId),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stump() -> Tree {
        // root: feature 0, threshold 1.5 (bin 0), missing -> right
        // left leaf: +1, right leaf: -1
        let mut t = Tree::new(2, 1);
        t.set_internal(0, 0, 0, 1.5, false);
        t.set_leaf(1, vec![1.0]);
        t.set_leaf(2, vec![-1.0]);
        t
    }

    #[test]
    fn id_arithmetic() {
        assert_eq!(children(0), (1, 2));
        assert_eq!(children(2), (5, 6));
        assert_eq!(parent(5), 2);
        assert_eq!(parent(6), 2);
        assert_eq!(sibling(5), 6);
        assert_eq!(sibling(6), 5);
        assert_eq!(layer_range(0).collect::<Vec<_>>(), vec![0]);
        assert_eq!(layer_range(2).collect::<Vec<_>>(), vec![3, 4, 5, 6]);
        assert_eq!(max_nodes(3), 7);
    }

    #[test]
    fn stump_routes_by_threshold() {
        let t = stump();
        assert_eq!(t.predict_row(&[0], &[1.0]), &[1.0]);
        assert_eq!(t.predict_row(&[0], &[1.5]), &[1.0]); // boundary goes left
        assert_eq!(t.predict_row(&[0], &[2.0]), &[-1.0]);
    }

    #[test]
    fn missing_values_use_default_direction() {
        let t = stump();
        // Row lacks feature 0: default is right.
        assert_eq!(t.predict_row(&[3], &[9.0]), &[-1.0]);
        assert_eq!(t.predict_row(&[], &[]), &[-1.0]);
    }

    #[test]
    fn bin_lookup_matches_value_lookup() {
        let t = stump();
        let by_bin = t.predict_with(|_| LookupResult::Bin(0));
        assert_eq!(by_bin, &[1.0]);
        let by_bin = t.predict_with(|_| LookupResult::Bin(1));
        assert_eq!(by_bin, &[-1.0]);
    }

    #[test]
    fn deeper_tree_traversal() {
        let mut t = Tree::new(3, 1);
        t.set_internal(0, 0, 0, 0.0, true);
        t.set_internal(1, 1, 0, 10.0, true);
        t.set_leaf(2, vec![5.0]);
        t.set_leaf(3, vec![1.0]);
        t.set_leaf(4, vec![2.0]);
        assert_eq!(t.predict_row(&[0, 1], &[-1.0, 3.0]), &[1.0]);
        assert_eq!(t.predict_row(&[0, 1], &[-1.0, 30.0]), &[2.0]);
        assert_eq!(t.predict_row(&[0], &[1.0]), &[5.0]);
        assert_eq!(t.n_nodes(), 5);
        assert_eq!(t.n_leaves(), 3);
    }

    #[test]
    fn set_leaf_from_stats_applies_eta_and_lambda() {
        let mut t = Tree::new(1, 2);
        let stats = NodeStats { grads: vec![2.0, -4.0], hesses: vec![1.0, 3.0] };
        t.set_leaf_from_stats(0, &stats, 1.0, 0.5);
        // w = -g/(h+1) * 0.5 -> [-0.5, 0.5]
        assert_eq!(t.predict_row(&[], &[]), &[-0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn internal_node_cannot_exceed_depth() {
        let mut t = Tree::new(2, 1);
        t.set_internal(1, 0, 0, 0.0, true); // children 3,4 don't fit in 2 layers
    }

    #[test]
    fn depth_and_visitor() {
        let mut t = Tree::new(3, 1);
        t.set_internal_with_gain(0, 5, 0, 0.0, true, 2.5);
        t.set_leaf(1, vec![1.0]);
        t.set_leaf(2, vec![-1.0]);
        assert_eq!(t.depth(), 2);
        let mut seen = Vec::new();
        t.visit_internal(|f, _, g| seen.push((f, g)));
        assert_eq!(seen, vec![(5, 2.5)]);
        let t1 = {
            let mut t = Tree::new(1, 1);
            t.set_leaf(0, vec![0.0]);
            t
        };
        assert_eq!(t1.depth(), 1);
    }

    #[test]
    fn multiclass_leaves() {
        let mut t = Tree::new(1, 3);
        t.set_leaf(0, vec![0.1, 0.2, 0.3]);
        assert_eq!(t.predict_row(&[], &[]), &[0.1, 0.2, 0.3]);
    }
}
