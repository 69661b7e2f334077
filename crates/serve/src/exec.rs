//! Execution strategies over a [`CompiledEnsemble`].
//!
//! Two interchangeable strategies implement [`ExecStrategy`], mirroring
//! the query-execution comparison of the decision-forest inference paper:
//!
//! * [`PerRow`] — tuple-at-a-time: each row traverses all trees, with
//!   4 trees interleaved in lockstep so the independent node fetches
//!   overlap (the self-looping leaf encoding makes lockstep safe — a
//!   lane that finishes early just spins on its leaf).
//! * [`Blocked`] — block-at-a-time: rows are processed in tiles and
//!   trees in blocks sized to stay L1-resident, so a block's nodes are
//!   fetched once and reused across the whole tile instead of being
//!   evicted between rows.
//!
//! Both accumulate scores in ascending tree order starting from the
//! model's init scores, which makes every strategy bit-identical to
//! [`GbdtModel::predict_row_into`] — the determinism contract the rest
//! of the repo pins.
//!
//! Rows are dense `f32` slices of width `ens.n_features`; a `NaN` cell
//! means *missing* and routes by the split's default direction, matching
//! the sparse predictor's semantics (see [`nan_dense_rows`]).
//!
//! [`GbdtModel::predict_row_into`]: gbdt_core::model::GbdtModel::predict_row_into

use crate::compile::{CompiledEnsemble, FlatNode};
use gbdt_data::dataset::Dataset;

/// One traversal step: returns the next tree-local slot.
///
/// `go_left = (v <= t) | (isnan(v) & default_left)`; the taken child is
/// `left + (1 − go_left)` because siblings are adjacent. Leaves encode
/// `threshold = +∞`, `default_left = 1`, `left = self`, so they always
/// "go left" into themselves.
#[inline(always)]
fn step(nodes: &[FlatNode], base: u32, idx: u32, row: &[f32]) -> u32 {
    let n = nodes[(base + idx) as usize];
    let v = row[n.feature() as usize];
    let go_left = u32::from(v <= n.threshold) | (u32::from(v.is_nan()) & n.default_left());
    n.left + 1 - go_left
}

/// Adds tree `t`'s reached-leaf outputs for `row` into `out`.
#[inline(always)]
fn accumulate_leaf(ens: &CompiledEnsemble, nodes: &[FlatNode], t: usize, idx: u32, out: &mut [f64]) {
    let p = nodes[(ens.tree_off[t] + idx) as usize].payload as usize;
    for (o, v) in out.iter_mut().zip(&ens.leaf_values[p..p + ens.n_outputs]) {
        *o += v;
    }
}

/// A batch-scoring strategy over a compiled ensemble.
pub trait ExecStrategy {
    /// Short name used in reports and test messages.
    fn label(&self) -> String;

    /// Scores `rows` (row-major, `rows.len() / ens.n_features` rows of
    /// width `ens.n_features`) into `out` (row-major,
    /// `n_rows × ens.n_outputs`, fully overwritten).
    fn predict_into(&self, ens: &CompiledEnsemble, rows: &[f32], out: &mut [f64]) {
        self.predict_prefix_into(ens, rows, usize::MAX, out);
    }

    /// Like [`Self::predict_into`] but scores only the first
    /// `max_trees.min(n_trees)` trees — the degraded-mode prefix. Because
    /// every strategy accumulates in ascending tree order, a `k`-tree
    /// prefix is bit-identical to scoring a model truncated to its first
    /// `k` trees; `usize::MAX` (or anything ≥ `n_trees`) is a full score.
    fn predict_prefix_into(
        &self,
        ens: &CompiledEnsemble,
        rows: &[f32],
        max_trees: usize,
        out: &mut [f64],
    );
}

fn check_shapes(ens: &CompiledEnsemble, rows: &[f32], out: &[f64]) -> usize {
    assert_eq!(rows.len() % ens.n_features, 0, "ragged row buffer");
    let n_rows = rows.len() / ens.n_features;
    assert_eq!(out.len(), n_rows * ens.n_outputs, "output shape mismatch");
    n_rows
}

/// Tuple-at-a-time execution with 4-way tree interleaving.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerRow;

/// Trees interleaved per row: enough lanes to overlap dependent node
/// fetches, few enough that all lanes' paths stay cache-resident.
const LANES: usize = 4;

/// The per-row traversal.
fn per_row_prefix(
    ens: &CompiledEnsemble,
    nodes: &[FlatNode],
    rows: &[f32],
    max_trees: usize,
    out: &mut [f64],
) {
    let n_rows = check_shapes(ens, rows, out);
    let n_trees = ens.n_trees().min(max_trees);
    for r in 0..n_rows {
        let row = &rows[r * ens.n_features..(r + 1) * ens.n_features];
        let o = &mut out[r * ens.n_outputs..(r + 1) * ens.n_outputs];
        o.copy_from_slice(&ens.init_scores);
        let mut t = 0usize;
        while t < n_trees {
            let lanes = LANES.min(n_trees - t);
            let mut idx = [0u32; LANES];
            // All lanes walk the deepest lane's step count; shallower
            // lanes reach their leaf early and self-loop.
            let steps = ens.tree_steps[t..t + lanes].iter().copied().max().unwrap_or(0);
            for _ in 0..steps {
                for (l, slot) in idx.iter_mut().enumerate().take(lanes) {
                    *slot = step(nodes, ens.tree_off[t + l], *slot, row);
                }
            }
            // Leaf sums applied in ascending tree order (bit-identity).
            for (l, slot) in idx.iter().enumerate().take(lanes) {
                accumulate_leaf(ens, nodes, t + l, *slot, o);
            }
            t += lanes;
        }
    }
}

impl ExecStrategy for PerRow {
    fn label(&self) -> String {
        "per-row".into()
    }

    fn predict_prefix_into(
        &self,
        ens: &CompiledEnsemble,
        rows: &[f32],
        max_trees: usize,
        out: &mut [f64],
    ) {
        per_row_prefix(ens, &ens.nodes, rows, max_trees, out);
    }
}

/// Block-at-a-time execution: row tiles × L1-resident tree blocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Blocked {
    /// Trees per block; `0` sizes blocks by node count so each block's
    /// flat nodes fit comfortably in L1d.
    pub trees_per_block: usize,
}

/// Rows per tile: small enough that a tile's rows + partial outputs stay
/// cached while a tree block streams over them.
const ROW_TILE: usize = 64;

/// Auto block budget: 1024 nodes × 16 B = 16 KiB, half a typical L1d,
/// leaving room for the row tile.
const BLOCK_NODE_BUDGET: u32 = 1024;

impl Blocked {
    /// Greedy block boundaries: consecutive trees packed until the node
    /// budget (or fixed tree count) is reached. Every tree lands in exactly
    /// one block, in ascending order.
    fn blocks(&self, ens: &CompiledEnsemble) -> Vec<(usize, usize)> {
        let n_trees = ens.n_trees();
        let mut blocks = Vec::new();
        let mut start = 0usize;
        while start < n_trees {
            let mut end = start + 1;
            if self.trees_per_block > 0 {
                end = (start + self.trees_per_block).min(n_trees);
            } else {
                while end < n_trees
                    && ens.tree_off[end + 1] - ens.tree_off[start] <= BLOCK_NODE_BUDGET
                {
                    end += 1;
                }
            }
            blocks.push((start, end));
            start = end;
        }
        blocks
    }
}

/// The blocked traversal.
fn blocked_prefix(
    ens: &CompiledEnsemble,
    nodes: &[FlatNode],
    blocks: &[(usize, usize)],
    rows: &[f32],
    max_trees: usize,
    out: &mut [f64],
) {
    let n_rows = check_shapes(ens, rows, out);
    let limit = ens.n_trees().min(max_trees);
    for o in out.chunks_exact_mut(ens.n_outputs) {
        o.copy_from_slice(&ens.init_scores);
    }
    let mut tile_start = 0usize;
    while tile_start < n_rows {
        let tile_end = (tile_start + ROW_TILE).min(n_rows);
        // Ascending blocks, ascending trees within a block, so each
        // row's accumulation order is ascending tree order — the same
        // f64 addition sequence as the per-row strategy.
        for &(bs, be) in blocks {
            if bs >= limit {
                break;
            }
            for r in tile_start..tile_end {
                let row = &rows[r * ens.n_features..(r + 1) * ens.n_features];
                let o = &mut out[r * ens.n_outputs..(r + 1) * ens.n_outputs];
                for t in bs..be.min(limit) {
                    let mut idx = 0u32;
                    for _ in 0..ens.tree_steps[t] {
                        idx = step(nodes, ens.tree_off[t], idx, row);
                    }
                    accumulate_leaf(ens, nodes, t, idx, o);
                }
            }
        }
        tile_start = tile_end;
    }
}

impl ExecStrategy for Blocked {
    fn label(&self) -> String {
        match self.trees_per_block {
            0 => "blocked".into(),
            n => format!("blocked:{n}"),
        }
    }

    fn predict_prefix_into(
        &self,
        ens: &CompiledEnsemble,
        rows: &[f32],
        max_trees: usize,
        out: &mut [f64],
    ) {
        blocked_prefix(ens, &ens.nodes, &self.blocks(ens), rows, max_trees, out);
    }
}

/// A configurable strategy ([`crate::avail::AvailConfig`], the benchmark).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// [`PerRow`].
    PerRow,
    /// [`Blocked`] with its `trees_per_block` knob (0 = auto).
    Blocked(usize),
}

impl Strategy {
    /// The executor this name selects.
    pub fn executor(&self) -> Box<dyn ExecStrategy + Send + Sync> {
        match *self {
            Strategy::PerRow => Box::new(PerRow),
            Strategy::Blocked(n) => Box::new(Blocked { trees_per_block: n }),
        }
    }
}

/// Converts a dataset to the dense NaN-for-missing row buffer the
/// executors consume, `n_features` wide per row.
///
/// Every feature a row does not store is `NaN`, so it routes by default
/// direction — exactly the [`GbdtModel::predict_row_into`] semantics. Both
/// storages are read through [`FeatureMatrix::for_each_row`]: an exact `0.0`
/// cell of a dense dataset is absent, as it is to training and to
/// [`GbdtModel::predict_dataset_raw`].
///
/// [`GbdtModel::predict_row_into`]: gbdt_core::model::GbdtModel::predict_row_into
/// [`GbdtModel::predict_dataset_raw`]: gbdt_core::model::GbdtModel::predict_dataset_raw
/// [`FeatureMatrix::for_each_row`]: gbdt_data::dataset::FeatureMatrix::for_each_row
pub fn nan_dense_rows(dataset: &Dataset, n_features: usize) -> Vec<f32> {
    let mut rows = vec![f32::NAN; dataset.n_instances() * n_features];
    dataset.features.for_each_row(|i, feats, vals| {
        let row = &mut rows[i * n_features..(i + 1) * n_features];
        for (&f, &v) in feats.iter().zip(vals) {
            if (f as usize) < n_features {
                row[f as usize] = v;
            }
        }
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use gbdt_core::model::GbdtModel;
    use gbdt_core::tree::Tree;
    use gbdt_core::Objective;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(state: &mut u64) -> f64 {
        (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    /// Random complete-indexed tree over `n_features` features.
    fn random_tree(seed: &mut u64, n_layers: usize, n_outputs: usize, n_features: u32) -> Tree {
        let mut tree = Tree::new(n_layers, n_outputs);
        let mut frontier = vec![0u32];
        let max = gbdt_core::tree::max_nodes(n_layers) as u32;
        while let Some(id) = frontier.pop() {
            let can_split = gbdt_core::tree::children(id).1 < max;
            if can_split && splitmix(seed) % 10 < 7 {
                tree.set_internal(
                    id,
                    (splitmix(seed) % n_features as u64) as u32,
                    (splitmix(seed) % 32) as u16,
                    (unit(seed) * 2.0) as f32,
                    splitmix(seed).is_multiple_of(2),
                );
                let (l, r) = gbdt_core::tree::children(id);
                frontier.push(l);
                frontier.push(r);
            } else {
                tree.set_leaf(id, (0..n_outputs).map(|_| unit(seed)).collect());
            }
        }
        tree
    }

    fn random_model(seed: u64, n_trees: usize, n_features: usize, c: usize) -> GbdtModel {
        let objective = if c == 1 {
            Objective::SquaredError
        } else {
            Objective::Softmax { n_classes: c }
        };
        let mut m = GbdtModel::new(objective, 0.1, n_features);
        let mut state = seed;
        for _ in 0..n_trees {
            m.trees.push(random_tree(&mut state, 5, c, n_features as u32));
        }
        m
    }

    /// Random rows with ~20% missing (NaN) cells.
    fn random_rows(seed: u64, n_rows: usize, n_features: usize) -> Vec<f32> {
        let mut state = seed;
        (0..n_rows * n_features)
            .map(|_| {
                if splitmix(&mut state).is_multiple_of(5) {
                    f32::NAN
                } else {
                    (unit(&mut state) * 3.0) as f32
                }
            })
            .collect()
    }

    /// Reference scores via the tree-walk predictor (sparse row built
    /// from the non-NaN cells, so missing routes by default direction).
    fn reference(model: &GbdtModel, rows: &[f32], n_features: usize) -> Vec<f64> {
        let c = model.n_outputs();
        let mut out = vec![0.0; rows.len() / n_features * c];
        for (r, row) in rows.chunks_exact(n_features).enumerate() {
            let mut feats = Vec::new();
            let mut vals = Vec::new();
            for (f, &v) in row.iter().enumerate() {
                if !v.is_nan() {
                    feats.push(f as u32);
                    vals.push(v);
                }
            }
            model.predict_row_into(&feats, &vals, &mut out[r * c..(r + 1) * c]);
        }
        out
    }

    #[test]
    fn strategies_bit_identical_to_tree_walk() {
        for (seed, n_trees, c) in [(1u64, 1usize, 1usize), (2, 13, 1), (3, 40, 3), (4, 7, 2)] {
            let n_features = 9;
            let model = random_model(seed, n_trees, n_features, c);
            let ens = compile(&model, 0).unwrap();
            let rows = random_rows(seed ^ 0xabcd, 97, n_features);
            let expect = reference(&model, &rows, n_features);
            for strategy in [
                Strategy::PerRow,
                Strategy::Blocked(0),
                Strategy::Blocked(1),
                Strategy::Blocked(5),
            ] {
                let exec = strategy.executor();
                let mut got = vec![0.0f64; expect.len()];
                exec.predict_into(&ens, &rows, &mut got);
                let same = expect.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{} diverged (seed {seed}, T {n_trees}, C {c})", exec.label());
            }
        }
    }

    #[test]
    fn prefix_scoring_matches_truncated_model() {
        for (seed, n_trees, c) in [(11u64, 10usize, 1usize), (12, 25, 3)] {
            let n_features = 7;
            let model = random_model(seed, n_trees, n_features, c);
            let ens = compile(&model, 0).unwrap();
            let rows = random_rows(seed ^ 0x5150, 53, n_features);
            for k in [0usize, 1, 3, n_trees - 1, n_trees, n_trees + 5] {
                // Reference: a model truncated to its first k trees.
                let mut truncated = model.clone();
                truncated.trees.truncate(k);
                let expect = reference(&truncated, &rows, n_features);
                for strategy in [Strategy::PerRow, Strategy::Blocked(0), Strategy::Blocked(4)] {
                    let exec = strategy.executor();
                    let mut got = vec![0.0f64; expect.len()];
                    exec.predict_prefix_into(&ens, &rows, k, &mut got);
                    let same = expect.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "{} prefix k={k} diverged (seed {seed})", exec.label());
                }
            }
        }
    }

    #[test]
    fn empty_batch_and_empty_model() {
        let model = random_model(5, 3, 4, 1);
        let ens = compile(&model, 0).unwrap();
        let mut out: [f64; 0] = [];
        PerRow.predict_into(&ens, &[], &mut out);
        let empty = GbdtModel::new(Objective::SquaredError, 0.1, 4);
        let ens = compile(&empty, 0).unwrap();
        let rows = vec![1.0f32; ens.n_features * 3];
        let mut out = vec![9.0f64; 3];
        Blocked::default().predict_into(&ens, &rows, &mut out);
        assert_eq!(out, vec![0.0; 3]); // init scores only
    }

    #[test]
    fn blocked_auto_packs_by_node_budget() {
        let model = random_model(9, 200, 6, 1);
        let ens = compile(&model, 0).unwrap();
        let blocks = Blocked::default().blocks(&ens);
        assert!(blocks.len() > 1, "200 trees should exceed one L1 block");
        // Blocks tile the tree range exactly, in order.
        let mut next = 0;
        for &(s, e) in &blocks {
            assert_eq!(s, next);
            assert!(e > s);
            next = e;
        }
        assert_eq!(next, ens.n_trees());
        // Every block beyond a single tree respects the node budget.
        for &(s, e) in &blocks {
            if e - s > 1 {
                assert!(ens.tree_off[e] - ens.tree_off[s] <= super::BLOCK_NODE_BUDGET);
            }
        }
    }
}
