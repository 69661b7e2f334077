//! Lowering a trained ensemble into a flattened, cache-friendly layout.
//!
//! `Tree` already stores its nodes as one flat array of 16-byte records in
//! materialization (breadth-first, for every trainer) order with adjacent
//! children, but a step still decodes a kind tag, branches on leaf-ness and
//! looks leaf values up in a per-tree pool. Compilation translates each
//! tree slot for slot into one ensemble-wide array of 16-byte
//! [`FlatNode`]s:
//!
//! * Children occupy adjacent slots (`right = left + 1`), so the taken
//!   child is `left + (1 - go_left)` — pure arithmetic, no branch.
//! * Leaves are *self-looping*: `feature = 0`, `threshold = +∞`,
//!   `default_left = 1`, `left = own slot`. Once a path reaches a leaf,
//!   further steps stay put, so every tree can be walked for a fixed
//!   `depth − 1` iterations with no `is_leaf` test — the property the
//!   branchless/interleaved executors in [`crate::exec`] rely on.
//! * Leaf output vectors live in one pooled `leaf_values` array; the
//!   node's `payload` field is the pool offset.
//!
//! This is the only compiled layout: `compile` allocates these arrays and
//! nothing beside them (`tests/prep_memory.rs` bounds its peak bytes).

use gbdt_core::model::GbdtModel;
use gbdt_core::tree::{NodeKind, Tree};

/// One flattened tree node: 16 bytes, so a 1024-node tree block is
/// 16 KiB — half a typical L1d.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatNode {
    /// Split feature in bits 0..31, default-left direction in bit 31.
    pub feat_dl: u32,
    /// Go left when `value <= threshold` (leaves store `+∞`).
    pub threshold: f32,
    /// Tree-local slot of the left child; right child is `left + 1`.
    /// Leaves store their own slot (self-loop).
    pub left: u32,
    /// Offset into the pooled leaf-value array (leaves only; 0 for
    /// internal nodes).
    pub payload: u32,
}

const DEFAULT_LEFT_BIT: u32 = 1 << 31;

impl FlatNode {
    /// Split feature id.
    #[inline]
    pub fn feature(self) -> u32 {
        self.feat_dl & !DEFAULT_LEFT_BIT
    }

    /// 1 when missing values route left.
    #[inline]
    pub fn default_left(self) -> u32 {
        self.feat_dl >> 31
    }
}

/// An ensemble compiled for inference: all trees' flat nodes in one
/// contiguous array, leaf values pooled, per-tree offsets and fixed step
/// counts precomputed.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledEnsemble {
    /// Monotonically increasing publish version (see
    /// [`crate::server::ModelSlot`]); 0 for a directly compiled model.
    pub version: u64,
    /// Row width every scoring call must supply.
    pub n_features: usize,
    /// Scores per row (C).
    pub n_outputs: usize,
    /// Constant scores added before any tree (bit-copied from the model).
    pub init_scores: Vec<f64>,
    /// All trees' nodes, tree-major, each tree in its own slot order.
    pub nodes: Vec<FlatNode>,
    /// `nodes` offset of each tree, plus a trailing total (len = T + 1).
    pub tree_off: Vec<u32>,
    /// Fixed traversal iterations per tree (`depth − 1`).
    pub tree_steps: Vec<u32>,
    /// Pooled leaf output vectors, `n_outputs` values each.
    pub leaf_values: Vec<f64>,
}

impl CompiledEnsemble {
    /// Number of trees.
    #[inline]
    pub fn n_trees(&self) -> usize {
        self.tree_steps.len()
    }

    /// The deepest tree's fixed step count.
    pub fn max_steps(&self) -> u32 {
        self.tree_steps.iter().copied().max().unwrap_or(0)
    }

    /// Approximate resident size of the hot arrays in bytes.
    pub fn hot_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<FlatNode>() + self.leaf_values.len() * 8
    }
}

/// Compiles one tree, appending into the ensemble-wide pools: slot for
/// slot, so a child's tree-local slot is its compiled one.
fn compile_tree(
    tree: &Tree,
    t: usize,
    nodes: &mut Vec<FlatNode>,
    leaf_values: &mut Vec<f64>,
    n_features: usize,
) -> Result<(), String> {
    for (slot, stored) in tree.slots().enumerate() {
        let (node, link) = stored
            .ok_or_else(|| format!("tree {t}: slot {slot} reachable but not materialized"))?;
        nodes.push(match node.kind {
            NodeKind::Internal { feature, threshold, default_left, .. } => {
                if feature as usize >= n_features {
                    return Err(format!(
                        "tree {t}: split feature {feature} out of range (n_features {n_features})"
                    ));
                }
                if feature & DEFAULT_LEFT_BIT != 0 {
                    return Err(format!("tree {t}: feature id {feature} overflows 31 bits"));
                }
                FlatNode {
                    feat_dl: feature | if default_left { DEFAULT_LEFT_BIT } else { 0 },
                    threshold,
                    left: link,
                    payload: 0,
                }
            }
            NodeKind::Leaf { values } => {
                let payload = u32::try_from(leaf_values.len())
                    .map_err(|_| format!("tree {t}: leaf pool exceeds u32 offsets"))?;
                leaf_values.extend_from_slice(values);
                FlatNode {
                    feat_dl: DEFAULT_LEFT_BIT, // feature 0, missing → left
                    threshold: f32::INFINITY,
                    left: slot as u32, // self-loop
                    payload,
                }
            }
        });
    }
    Ok(())
}

/// Compiles a trained model into the flattened inference layout.
///
/// Fails on structurally broken trees (an internal node whose child was
/// never materialized, split features outside the model's declared
/// width) rather than compiling something that would mis-route rows.
pub fn compile(model: &GbdtModel, version: u64) -> Result<CompiledEnsemble, String> {
    // Leaves probe `row[0]` in the branchless step, so a row must carry at
    // least one cell even for a zero-feature (constant) model.
    let n_features = model.n_features.max(1);
    let n_outputs = model.n_outputs();
    if model.init_scores.len() != n_outputs {
        return Err(format!(
            "init_scores len {} != n_outputs {n_outputs}",
            model.init_scores.len()
        ));
    }
    let mut nodes = Vec::new();
    let mut leaf_values = Vec::new();
    let mut tree_off = Vec::with_capacity(model.trees.len() + 1);
    let mut tree_steps = Vec::with_capacity(model.trees.len());
    for (t, tree) in model.trees.iter().enumerate() {
        if tree.n_outputs() != n_outputs {
            return Err(format!("tree {t}: arity {} != model C {n_outputs}", tree.n_outputs()));
        }
        tree_off.push(nodes.len() as u32);
        compile_tree(tree, t, &mut nodes, &mut leaf_values, n_features)?;
        tree_steps.push(tree.depth().saturating_sub(1) as u32);
    }
    if nodes.len() > u32::MAX as usize {
        return Err("ensemble exceeds u32 node offsets".into());
    }
    tree_off.push(nodes.len() as u32);
    Ok(CompiledEnsemble {
        version,
        n_features,
        n_outputs,
        init_scores: model.init_scores.clone(),
        nodes,
        tree_off,
        tree_steps,
        leaf_values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_core::Objective;

    fn two_layer_model() -> GbdtModel {
        let mut m = GbdtModel::new(Objective::SquaredError, 0.1, 3);
        let mut t = Tree::new(3, 1);
        t.set_internal(0, 2, 0, 0.5, true);
        t.set_internal(1, 0, 0, -1.0, false);
        t.set_leaf(2, vec![3.0]);
        t.set_leaf(3, vec![1.0]);
        t.set_leaf(4, vec![2.0]);
        m.trees.push(t);
        m
    }

    #[test]
    fn bfs_layout_and_self_looping_leaves() {
        let c = compile(&two_layer_model(), 7).unwrap();
        assert_eq!(c.version, 7);
        assert_eq!(c.n_trees(), 1);
        assert_eq!(c.tree_off, vec![0, 5]);
        assert_eq!(c.tree_steps, vec![2]);
        // Slot 0 = root (internal on feature 2, default left).
        assert_eq!(c.nodes[0].feature(), 2);
        assert_eq!(c.nodes[0].default_left(), 1);
        assert_eq!(c.nodes[0].left, 1);
        // Slot 1 = left child (internal, default right), children at 3,4.
        assert_eq!(c.nodes[1].feature(), 0);
        assert_eq!(c.nodes[1].default_left(), 0);
        assert_eq!(c.nodes[1].left, 3);
        // Slot 2 = right child: a self-looping leaf.
        assert_eq!(c.nodes[2].left, 2);
        assert_eq!(c.nodes[2].threshold, f32::INFINITY);
        assert_eq!(c.nodes[2].default_left(), 1);
        assert_eq!(c.leaf_values[c.nodes[2].payload as usize], 3.0);
        // Leaves at slots 3 and 4 hold the deep values.
        assert_eq!(c.leaf_values[c.nodes[3].payload as usize], 1.0);
        assert_eq!(c.leaf_values[c.nodes[4].payload as usize], 2.0);
    }

    #[test]
    fn rejects_missing_children_and_bad_features() {
        let mut broken = GbdtModel::new(Objective::SquaredError, 0.1, 3);
        let mut t = Tree::new(2, 1);
        t.set_internal(0, 0, 0, 0.5, true);
        t.set_leaf(1, vec![1.0]);
        // Node 2 never materialized.
        broken.trees.push(t);
        assert!(compile(&broken, 0).unwrap_err().contains("not materialized"));

        let mut wide = GbdtModel::new(Objective::SquaredError, 0.1, 1);
        let mut t = Tree::new(2, 1);
        t.set_internal(0, 5, 0, 0.5, true); // feature 5 > n_features 1
        t.set_leaf(1, vec![1.0]);
        t.set_leaf(2, vec![2.0]);
        wide.trees.push(t);
        assert!(compile(&wide, 0).unwrap_err().contains("out of range"));
    }

    #[test]
    fn constant_model_compiles() {
        let m = GbdtModel::new(Objective::Logistic, 0.1, 0);
        let c = compile(&m, 0).unwrap();
        assert_eq!(c.n_features, 1); // padded so row[0] is readable
        assert_eq!(c.n_trees(), 0);
        assert!(c.hot_bytes() == 0);
        assert_eq!(c.max_steps(), 0);
    }
}
