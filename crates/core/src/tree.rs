//! Decision tree structure with complete-tree node indexing.
//!
//! Trees grow layer by layer to at most L layers (the paper's growth model,
//! §3.1.2). Nodes use complete-binary-tree ids: root is 0, children of `i`
//! are `2i+1` and `2i+2`, layer `l` spans ids `2^l − 1 .. 2^(l+1) − 1`.
//! A [`Tree`] stores only the nodes it grew, in one flat child-linked
//! array, so its size follows its nodes rather than `2^L`.

use crate::split::NodeStats;
use gbdt_data::{BinId, FeatureId};
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;

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

/// What a materialized tree node is: a view into its tree's storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeKind<'a> {
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
        values: &'a [f64],
    },
}

/// A materialized tree node, as [`Tree::node`] returns it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeNode<'a> {
    /// The node payload.
    pub kind: NodeKind<'a>,
}

/// [`Slot::tag`] of a slot no node has been set at.
const VACANT: u8 = 0;
/// [`Slot::tag`] of a leaf.
const LEAF: u8 = 1;
/// [`Slot::tag`] bit of an internal node.
const INTERNAL: u8 = 2;
/// [`Slot::tag`] bit of an internal node whose missing values go left.
const DEFAULT_LEFT: u8 = 4;

/// One node record of a [`Tree`]'s flat store.
#[derive(Debug, Clone, Copy)]
struct Slot {
    feature: FeatureId,
    threshold: f32,
    /// Internal: the slot of the left child (the right child is the next
    /// slot). Leaf: the offset of its values in the tree's leaf pool.
    link: u32,
    bin: BinId,
    /// [`VACANT`], [`LEAF`], or [`INTERNAL`] with [`DEFAULT_LEFT`] set when
    /// missing values go left.
    tag: u8,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

impl Slot {
    const VACANT: Slot = Slot { feature: 0, threshold: 0.0, link: 0, bin: 0, tag: VACANT };
}

/// One decision tree of the ensemble.
///
/// Nodes are addressed by complete-tree id but stored by materialization:
/// one flat `Vec` of 16-byte records, the root at slot 0, and every
/// `set_internal` appending its two children's (vacant) slots, so a tree
/// holds at most `2·internal + 1` slots whatever its `n_layers`. Leaf
/// values share one pool, split gains another (the internal node whose
/// children sit at slots `2k + 1, 2k + 2` has gain `k`). Every node is set
/// once, below an internal node already set, so every stored node is
/// reachable from the root. Equality is semantic: the same nodes at the
/// same ids, in whatever order they were set.
#[derive(Debug, Clone)]
pub struct Tree {
    n_layers: usize,
    n_outputs: usize,
    slots: Vec<Slot>,
    gains: Vec<f64>,
    leaf_values: Vec<f64>,
}

impl Tree {
    /// Creates an empty tree growing to at most `n_layers` layers, with
    /// C = `n_outputs` values per leaf.
    pub fn new(n_layers: usize, n_outputs: usize) -> Self {
        assert!((1..=24).contains(&n_layers), "n_layers out of range");
        Tree {
            n_layers,
            n_outputs,
            slots: vec![Slot::VACANT],
            gains: Vec::new(),
            leaf_values: Vec::new(),
        }
    }

    /// Reserves room for `internal` more internal nodes and `leaves` more
    /// leaves.
    pub(crate) fn reserve(&mut self, internal: usize, leaves: usize) {
        self.slots.reserve_exact(2 * internal);
        self.gains.reserve_exact(internal);
        self.leaf_values.reserve_exact(leaves * self.n_outputs);
    }

    /// Number of layers this tree may grow to.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Values per leaf (C).
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// The node at `id`, if materialized. Follows the bits of `id + 1`
    /// down from the root: O(depth).
    pub fn node(&self, id: u32) -> Option<TreeNode<'_>> {
        self.slot_of(id).and_then(|slot| self.view(slot))
    }

    /// The slot `id` occupies or would occupy: `None` when `id` is past
    /// the last layer or an ancestor is not an internal node.
    fn slot_of(&self, id: u32) -> Option<usize> {
        if id as usize >= max_nodes(self.n_layers) {
            return None;
        }
        let path = id + 1;
        let mut slot = 0;
        for shift in (0..path.ilog2()).rev() {
            let s = &self.slots[slot];
            if s.tag & INTERNAL == 0 {
                return None;
            }
            slot = s.link as usize + ((path >> shift) & 1) as usize;
        }
        Some(slot)
    }

    /// The node stored at `slot`, if any.
    fn view(&self, slot: usize) -> Option<TreeNode<'_>> {
        let s = &self.slots[slot];
        let kind = match s.tag {
            VACANT => return None,
            LEAF => NodeKind::Leaf { values: self.leaf_at(s.link) },
            tag => NodeKind::Internal {
                feature: s.feature,
                bin: s.bin,
                threshold: s.threshold,
                default_left: tag & DEFAULT_LEFT != 0,
                gain: self.gains[(s.link as usize - 1) / 2],
            },
        };
        Some(TreeNode { kind })
    }

    fn leaf_at(&self, link: u32) -> &[f64] {
        &self.leaf_values[link as usize..][..self.n_outputs]
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
        self.try_set_internal(id, feature, bin, threshold, default_left, gain)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`Self::set_internal_with_gain`], refusing a node past the
    /// second-to-last layer, below no internal node, or already set.
    pub(crate) fn try_set_internal(
        &mut self,
        id: u32,
        feature: FeatureId,
        bin: BinId,
        threshold: f32,
        default_left: bool,
        gain: f64,
    ) -> Result<(), String> {
        if id as usize >= max_nodes(self.n_layers - 1) {
            return Err(format!("internal node {id} would exceed {} layers", self.n_layers));
        }
        let slot = self.vacant_slot(id)?;
        let tag = INTERNAL | if default_left { DEFAULT_LEFT } else { 0 };
        // At most 2^24 slots: every offset fits a u32.
        let link = self.slots.len() as u32;
        self.slots[slot] = Slot { feature, threshold, link, bin, tag };
        self.slots.extend([Slot::VACANT; 2]);
        self.gains.push(gain);
        Ok(())
    }

    /// Materializes a leaf from node statistics (Eq. 1), scaling by η.
    pub fn set_leaf_from_stats(&mut self, id: u32, stats: &NodeStats, lambda: f64, eta: f64) {
        let values = stats.leaf_weights(lambda).into_iter().map(|w| w * eta);
        self.try_set_leaf(id, values).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Materializes a leaf with explicit values.
    pub fn set_leaf(&mut self, id: u32, values: Vec<f64>) {
        self.try_set_leaf(id, values.into_iter()).unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`Self::set_leaf`], refusing a node past the last layer, below no
    /// internal node, already set, or with other than C values.
    pub(crate) fn try_set_leaf(
        &mut self,
        id: u32,
        values: impl ExactSizeIterator<Item = f64>,
    ) -> Result<(), String> {
        if values.len() != self.n_outputs {
            return Err(format!(
                "leaf arity mismatch: {} values for {} outputs",
                values.len(),
                self.n_outputs
            ));
        }
        if id as usize >= max_nodes(self.n_layers) {
            return Err(format!("node {id} exceeds {} layers", self.n_layers));
        }
        let slot = self.vacant_slot(id)?;
        let link = u32::try_from(self.leaf_values.len())
            .map_err(|_| format!("leaf {id}: the leaf pool outgrows u32 offsets"))?;
        self.slots[slot] = Slot { link, tag: LEAF, ..Slot::VACANT };
        self.leaf_values.extend(values);
        Ok(())
    }

    /// Refuses a tree that cannot be walked: one with no root, or with an
    /// internal node whose child was never set. Decoders call it once every
    /// node is read.
    pub(crate) fn check_complete(&self) -> Result<(), String> {
        match self.slots.iter().position(|s| s.tag == VACANT) {
            None => Ok(()),
            Some(0) => Err("the tree has no root".into()),
            Some(_) => Err("an internal node is missing a child".into()),
        }
    }

    /// The vacant slot of `id`, whose parent must be an internal node.
    fn vacant_slot(&self, id: u32) -> Result<usize, String> {
        let slot = self.slot_of(id).ok_or_else(|| format!("node {id} has no internal parent"))?;
        if self.slots[slot].tag != VACANT {
            return Err(format!("node {id} is already set"));
        }
        Ok(slot)
    }

    /// Number of materialized nodes.
    pub fn n_nodes(&self) -> usize {
        self.slots.iter().filter(|s| s.tag != VACANT).count()
    }

    /// Every materialized node with its id, in ascending id order (a
    /// breadth-first walk of the links).
    pub fn nodes(&self) -> impl Iterator<Item = (u32, TreeNode<'_>)> + '_ {
        let mut queue = VecDeque::from([(0u32, 0u32)]);
        std::iter::from_fn(move || {
            while let Some((slot, id)) = queue.pop_front() {
                let Some(node) = self.view(slot as usize) else { continue };
                if let NodeKind::Internal { .. } = node.kind {
                    let (left, (l, r)) = (self.slots[slot as usize].link, children(id));
                    queue.extend([(left, l), (left + 1, r)]);
                }
                return Some((id, node));
            }
            None
        })
    }

    /// Every storage slot in order: `None` where vacant, else its node and
    /// its link — for an internal node the slot of its left child (the
    /// right child is the next slot), for a leaf the offset of its values
    /// in the tree's leaf pool.
    pub fn slots(&self) -> impl ExactSizeIterator<Item = Option<(TreeNode<'_>, u32)>> + '_ {
        (0..self.slots.len()).map(|slot| self.view(slot).map(|n| (n, self.slots[slot].link)))
    }

    /// The values of every leaf, in node-id order.
    pub fn leaf_values(&self) -> impl Iterator<Item = &[f64]> {
        self.nodes().filter_map(|(_, n)| match n.kind {
            NodeKind::Leaf { values } => Some(values),
            NodeKind::Internal { .. } => None,
        })
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.slots.iter().filter(|s| s.tag == LEAF).count()
    }

    /// Walks the tree with a per-feature value lookup returning `None` for
    /// missing values; yields the reached leaf's values.
    ///
    /// This single traversal backs both inference (lookup by raw value
    /// against thresholds) and training-time placement (lookup by bin).
    pub fn predict_with(&self, mut lookup: impl FnMut(FeatureId) -> LookupResult) -> &[f64] {
        let mut slot = 0;
        loop {
            let s = &self.slots[slot];
            match s.tag {
                LEAF => return self.leaf_at(s.link),
                VACANT => panic!("tree traversal reached a missing node"),
                tag => {
                    let go_left = match lookup(s.feature) {
                        LookupResult::Missing => tag & DEFAULT_LEFT != 0,
                        LookupResult::Value(v) => v <= s.threshold,
                        LookupResult::Bin(b) => b <= s.bin,
                    };
                    slot = s.link as usize + usize::from(!go_left);
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

    /// Visits every internal node as `(feature, threshold, gain)`, in
    /// ascending id order.
    pub fn visit_internal(&self, mut visit: impl FnMut(FeatureId, f32, f64)) {
        for (_, node) in self.nodes() {
            if let NodeKind::Internal { feature, threshold, gain, .. } = node.kind {
                visit(feature, threshold, gain);
            }
        }
    }

    /// Depth of the deepest materialized node (root-only tree = 1).
    pub fn depth(&self) -> usize {
        self.depth_below(0)
    }

    /// Layers from `slot` down to its deepest materialized descendant.
    fn depth_below(&self, slot: usize) -> usize {
        let s = &self.slots[slot];
        match s.tag {
            VACANT => 0,
            LEAF => 1,
            _ => {
                let left = s.link as usize;
                1 + self.depth_below(left).max(self.depth_below(left + 1))
            }
        }
    }
}

impl PartialEq for Tree {
    fn eq(&self, other: &Tree) -> bool {
        (self.n_layers, self.n_outputs) == (other.n_layers, other.n_outputs)
            && self.nodes().eq(other.nodes())
    }
}

/// The JSON form of a [`Tree`]: its nodes in ascending id order.
#[derive(Serialize, Deserialize)]
struct TreeJson {
    n_layers: usize,
    n_outputs: usize,
    nodes: Vec<NodeJson>,
}

/// One node of [`TreeJson`]: a leaf has `values`, an internal node none.
#[derive(Serialize, Deserialize)]
struct NodeJson {
    id: u32,
    feature: FeatureId,
    bin: BinId,
    threshold: f32,
    default_left: bool,
    gain: f64,
    values: Option<Vec<f64>>,
}

impl Serialize for Tree {
    fn to_value(&self) -> Value {
        let node = |(id, node): (u32, TreeNode<'_>)| match node.kind {
            NodeKind::Internal { feature, bin, threshold, default_left, gain } => {
                NodeJson { id, feature, bin, threshold, default_left, gain, values: None }
            }
            NodeKind::Leaf { values } => NodeJson {
                id,
                feature: 0,
                bin: 0,
                threshold: 0.0,
                default_left: false,
                gain: 0.0,
                values: Some(values.to_vec()),
            },
        };
        let nodes = self.nodes().map(node).collect();
        TreeJson { n_layers: self.n_layers, n_outputs: self.n_outputs, nodes }.to_value()
    }
}

impl Deserialize for Tree {
    fn from_value(v: &Value) -> Result<Tree, serde::Error> {
        let json = TreeJson::from_value(v)?;
        if !(1..=24).contains(&json.n_layers) {
            return Err(serde::Error::custom(format!("n_layers {} out of range", json.n_layers)));
        }
        let mut tree = Tree::new(json.n_layers, json.n_outputs);
        for n in json.nodes {
            let set = match n.values {
                Some(values) => tree.try_set_leaf(n.id, values.into_iter()),
                None => tree.try_set_internal(
                    n.id,
                    n.feature,
                    n.bin,
                    n.threshold,
                    n.default_left,
                    n.gain,
                ),
            };
            set.map_err(serde::Error::custom)?;
        }
        tree.check_complete().map_err(serde::Error::custom)?;
        Ok(tree)
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
    fn a_deep_tree_holds_the_slots_it_grew() {
        let mut root = Tree::new(24, 1);
        root.set_leaf(0, vec![1.0]);
        assert_eq!(root.slots().len(), 1);
        assert_eq!(root.depth(), 1);

        // The leftmost path: 23 internal nodes, a leaf on the last layer.
        let mut chain = Tree::new(24, 1);
        let mut id = 0;
        for layer in 0..23 {
            chain.set_internal(id, layer, 0, 0.0, true);
            id = children(id).0;
        }
        chain.set_leaf(id, vec![2.0]);
        assert_eq!(chain.slots().len(), 2 * 23 + 1);
        assert_eq!((chain.n_nodes(), chain.n_leaves(), chain.depth()), (24, 1, 24));
        assert_eq!(chain.predict_row(&[], &[]), &[2.0]);
        assert_eq!(chain.node(id).map(|n| n.kind), Some(NodeKind::Leaf { values: &[2.0] }));
        assert_eq!(chain.node(2), None);
        assert_eq!(chain.node(max_nodes(24) as u32 - 1), None);
        assert_eq!(chain.node(u32::MAX), None);
    }

    #[test]
    fn the_order_nodes_are_set_in_does_not_matter() {
        let breadth_first = {
            let mut t = Tree::new(3, 1);
            t.set_internal_with_gain(0, 0, 0, 0.0, true, 1.0);
            t.set_internal_with_gain(1, 1, 0, 10.0, true, 2.0);
            t.set_internal_with_gain(2, 2, 1, 5.0, false, 3.0);
            for id in 3..7 {
                t.set_leaf(id, vec![f64::from(id)]);
            }
            t
        };
        let depth_first = {
            let mut t = Tree::new(3, 1);
            t.set_internal_with_gain(0, 0, 0, 0.0, true, 1.0);
            t.set_internal_with_gain(2, 2, 1, 5.0, false, 3.0);
            t.set_leaf(6, vec![6.0]);
            t.set_leaf(5, vec![5.0]);
            t.set_internal_with_gain(1, 1, 0, 10.0, true, 2.0);
            t.set_leaf(4, vec![4.0]);
            t.set_leaf(3, vec![3.0]);
            t
        };
        assert_eq!(breadth_first, depth_first);
        let ids = |t: &Tree| t.nodes().map(|(id, _)| id).collect::<Vec<_>>();
        assert_eq!(ids(&depth_first), (0..7).collect::<Vec<_>>());
        for row in [[-1.0, 3.0, 0.0], [-1.0, 30.0, 0.0], [1.0, 0.0, 9.0], [1.0, 0.0, 1.0]] {
            let feats = [0, 1, 2];
            assert_eq!(breadth_first.predict_row(&feats, &row), depth_first.predict_row(&feats, &row));
        }
        let mut other_leaf = depth_first.clone();
        other_leaf.leaf_values[0] = -6.0;
        assert_ne!(breadth_first, other_leaf);
    }

    #[test]
    #[should_panic(expected = "no internal parent")]
    fn a_node_needs_an_internal_parent() {
        let mut t = Tree::new(3, 1);
        t.set_leaf(0, vec![0.0]);
        t.set_leaf(1, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "already set")]
    fn a_node_is_set_once() {
        let mut t = Tree::new(2, 1);
        t.set_internal(0, 0, 0, 0.0, true);
        t.set_internal(0, 1, 0, 0.0, true);
    }

    #[test]
    fn multiclass_leaves() {
        let mut t = Tree::new(1, 3);
        t.set_leaf(0, vec![0.1, 0.2, 0.3]);
        assert_eq!(t.predict_row(&[], &[]), &[0.1, 0.2, 0.3]);
    }
}
