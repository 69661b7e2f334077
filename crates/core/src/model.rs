//! The boosted ensemble: prediction, evaluation, and (de)serialization.

use crate::loss::Objective;
use crate::metrics;
use crate::tree::{NodeKind, Tree};
use gbdt_data::dataset::Dataset;
use gbdt_data::frame::{DecodeError, Reader};
use serde::{Deserialize, Serialize};

/// A trained GBDT model: `ŷᵢ = Σ_t η·f_t(xᵢ)` (leaf values are stored
/// already scaled by η).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbdtModel {
    /// The training objective (decides the prediction transform).
    pub objective: Objective,
    /// η used during training (informational; already folded into leaves).
    pub learning_rate: f64,
    /// Dimensionality the model was trained on.
    pub n_features: usize,
    /// Constant scores added before any tree.
    pub init_scores: Vec<f64>,
    /// The boosted trees, in training order.
    pub trees: Vec<Tree>,
}

impl GbdtModel {
    /// Creates an empty model (no trees yet).
    pub fn new(objective: Objective, learning_rate: f64, n_features: usize) -> Self {
        GbdtModel {
            objective,
            learning_rate,
            n_features,
            init_scores: objective.init_scores(),
            trees: Vec::new(),
        }
    }

    /// C — raw scores per instance.
    pub fn n_outputs(&self) -> usize {
        self.objective.n_outputs()
    }

    /// A bound on every |raw score|: the largest |initial score| plus each
    /// tree's largest |leaf|, added in tree order as scores are, so rounding
    /// cannot take a score past it.
    pub fn score_bound(&self) -> f64 {
        let max_abs = |m: f64, v: &f64| m.max(v.abs());
        let init = self.init_scores.iter().fold(0.0, max_abs);
        self.trees.iter().fold(init, |b, t| b + t.leaf_values().flatten().fold(0.0, max_abs))
    }

    /// Raw scores of one sparse row, summed over trees, into `out` (len C).
    pub fn predict_row_into(&self, feats: &[u32], vals: &[f32], out: &mut [f64]) {
        out.copy_from_slice(&self.init_scores);
        for tree in &self.trees {
            for (o, &v) in out.iter_mut().zip(tree.predict_row(feats, vals)) {
                *o += v;
            }
        }
    }

    /// Raw scores of one sparse row.
    pub fn predict_row(&self, feats: &[u32], vals: &[f32]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_outputs()];
        self.predict_row_into(feats, vals, &mut out);
        out
    }

    /// Transformed prediction (probabilities / regression value) of one row.
    pub fn predict_row_transformed(&self, feats: &[u32], vals: &[f32]) -> Vec<f64> {
        self.objective.transform(&self.predict_row(feats, vals))
    }

    /// Raw scores of every instance, row-major `[instance][class]`. Either
    /// storage is read through [`FeatureMatrix::for_each_row`], so an exact
    /// `0.0` dense cell is missing here exactly as it was in training.
    ///
    /// [`FeatureMatrix::for_each_row`]: gbdt_data::dataset::FeatureMatrix::for_each_row
    pub fn predict_dataset_raw(&self, dataset: &Dataset) -> Vec<f64> {
        let c = self.n_outputs();
        let mut scores = vec![0.0; dataset.n_instances() * c];
        dataset.features.for_each_row(|i, feats, vals| {
            self.predict_row_into(feats, vals, &mut scores[i * c..(i + 1) * c]);
        });
        scores
    }

    /// Evaluates the model on a dataset with the task's canonical metrics.
    pub fn evaluate(&self, dataset: &Dataset) -> Evaluation {
        let scores = self.predict_dataset_raw(dataset);
        evaluation_from_scores(&self.objective, &scores, &dataset.labels)
    }

    /// Per-feature importance scores.
    ///
    /// `SplitCount` counts how often each feature is chosen; `TotalGain`
    /// sums the Eq. 2 gains its splits achieved. Both are normalized to sum
    /// to 1 (all-zero when the model has no internal nodes).
    pub fn feature_importance(&self, kind: ImportanceKind) -> Vec<f64> {
        let mut scores = vec![0.0; self.n_features];
        for tree in &self.trees {
            tree.visit_internal(|feature, _, gain| {
                if (feature as usize) < scores.len() {
                    scores[feature as usize] += match kind {
                        ImportanceKind::SplitCount => 1.0,
                        ImportanceKind::TotalGain => gain.max(0.0),
                    };
                }
            });
        }
        let total: f64 = scores.iter().sum();
        if total > 0.0 {
            for s in &mut scores {
                *s /= total;
            }
        }
        scores
    }

    /// Serializes to the compact binary wire format.
    ///
    /// This is the payload a trainer publishes to serving workers
    /// (`gbdt-serve` hot-swap) — all little-endian, fully deterministic:
    /// the same model always encodes to the same bytes, so the pinned
    /// encode fingerprints in `tests/ensemble_pinned.rs` hold across
    /// machines. Layout:
    ///
    /// ```text
    /// magic "GBDT" · u32 format version (1)
    /// u8 objective tag · u32 n_classes (softmax only, else 0)
    /// f64 learning_rate · u32 n_features
    /// u32 init_scores len · f64 × len
    /// u32 n_trees, then per tree:
    ///   u32 n_layers · u32 n_outputs · u32 n_nodes, then per node
    ///   (ascending complete-tree id):
    ///     u32 id · u8 kind (0 = internal, 1 = leaf)
    ///     internal: u32 feature · u16 bin · f32 threshold ·
    ///               u8 default_left · f64 gain
    ///     leaf:     f64 × n_outputs values
    /// ```
    pub fn encode_bytes(&self) -> Vec<u8> {
        let trees: usize = self
            .trees
            .iter()
            .map(|t| {
                let (nodes, leaves) = (t.n_nodes(), t.n_leaves());
                12 + 5 * nodes + INTERNAL_BYTES * (nodes - leaves) + 8 * t.n_outputs() * leaves
            })
            .sum();
        // Header: magic, version, objective, rate, features, scores, tree count.
        let len = 33 + 8 * self.init_scores.len() + trees;
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(MODEL_MAGIC);
        out.extend_from_slice(&MODEL_FORMAT_VERSION.to_le_bytes());
        let (obj_tag, n_classes) = match self.objective {
            Objective::SquaredError => (0u8, 0u32),
            Objective::Logistic => (1, 0),
            Objective::Softmax { n_classes } => (2, n_classes as u32),
        };
        out.push(obj_tag);
        out.extend_from_slice(&n_classes.to_le_bytes());
        out.extend_from_slice(&self.learning_rate.to_le_bytes());
        out.extend_from_slice(&(self.n_features as u32).to_le_bytes());
        out.extend_from_slice(&(self.init_scores.len() as u32).to_le_bytes());
        for s in &self.init_scores {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out.extend_from_slice(&(self.trees.len() as u32).to_le_bytes());
        for tree in &self.trees {
            out.extend_from_slice(&(tree.n_layers() as u32).to_le_bytes());
            out.extend_from_slice(&(tree.n_outputs() as u32).to_le_bytes());
            out.extend_from_slice(&(tree.n_nodes() as u32).to_le_bytes());
            for (id, node) in tree.nodes() {
                out.extend_from_slice(&id.to_le_bytes());
                match node.kind {
                    NodeKind::Internal { feature, bin, threshold, default_left, gain } => {
                        out.push(0);
                        out.extend_from_slice(&feature.to_le_bytes());
                        out.extend_from_slice(&bin.to_le_bytes());
                        out.extend_from_slice(&threshold.to_le_bytes());
                        out.push(u8::from(default_left));
                        out.extend_from_slice(&gain.to_le_bytes());
                    }
                    NodeKind::Leaf { values } => {
                        out.push(1);
                        for v in values {
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                }
            }
        }
        debug_assert_eq!(out.len(), len);
        out
    }

    /// Decodes [`Self::encode_bytes`] output. `decode(encode(m)) == m`
    /// bit-for-bit; malformed or truncated buffers are refused at the first
    /// framing violation instead of panicking.
    pub fn decode_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MODEL_MAGIC {
            return Err(r.error("bad magic: not a GBDT model buffer"));
        }
        let version = r.u32()?;
        if version != MODEL_FORMAT_VERSION {
            return Err(r.error(format!("unsupported model format version {version}")));
        }
        let obj_tag = r.u8()?;
        let n_classes = r.u32()? as usize;
        let objective = match obj_tag {
            0 | 1 if n_classes != 0 => {
                return Err(r.error(format!("objective tag {obj_tag} with {n_classes} classes")))
            }
            0 => Objective::SquaredError,
            1 => Objective::Logistic,
            2 => Objective::Softmax { n_classes },
            t => return Err(r.error(format!("unknown objective tag {t}"))),
        };
        // Every count below that sizes an allocation is checked against the
        // objective or against the bytes left before anything is allocated.
        let c = objective.n_outputs();
        let learning_rate = r.f64()?;
        let n_features = r.u32()? as usize;
        let n_init = r.u32()? as usize;
        if n_init != c {
            return Err(r.error(format!("{n_init} initial scores for {c} outputs")));
        }
        let init_scores = r.f64s(n_init)?.collect();
        let n_trees = r.u32()? as usize;
        // Grown tree by tree, not reserved from `n_trees`: a count the bytes
        // could hold still costs 88 bytes a tree before the first one fails.
        let mut trees = Vec::new();
        for t in 0..n_trees {
            let n_layers = r.u32()? as usize;
            let n_outputs = r.u32()? as usize;
            if !(1..=24).contains(&n_layers) {
                return Err(r.error(format!("tree {t}: n_layers {n_layers} out of range")));
            }
            if n_outputs != c {
                return Err(r.error(format!(
                    "tree {t}: {n_outputs} outputs where the objective has {c}"
                )));
            }
            let n_nodes = r.u32()? as usize;
            let mut tree = Tree::new(n_layers, n_outputs);
            // Room for a complete tree of `n_nodes` nodes, as far as the
            // bytes left can hold them.
            tree.reserve(
                (n_nodes / 2).min(r.remaining() / (5 + INTERNAL_BYTES)),
                (n_nodes - n_nodes / 2).min(r.remaining() / (5 + 8 * c)),
            );
            let mut prev: Option<u32> = None;
            for _ in 0..n_nodes {
                let id = r.u32()?;
                if prev.is_some_and(|p| id <= p) {
                    let what = format!("tree {t}: node ids not strictly ascending at {id}");
                    return Err(r.error(what));
                }
                prev = Some(id);
                let set = match r.u8()? {
                    0 => {
                        let (feature, bin, threshold) = (r.u32()?, r.u16()?, r.f32()?);
                        let (default_left, gain) = (r.flag()?, r.f64()?);
                        tree.try_set_internal(id, feature, bin, threshold, default_left, gain)
                    }
                    1 => tree.try_set_leaf(id, r.f64s(c)?),
                    k => return Err(r.error(format!("tree {t}: unknown node kind {k}"))),
                };
                set.map_err(|e| r.error(format!("tree {t}: {e}")))?;
            }
            tree.check_complete().map_err(|e| r.error(format!("tree {t}: {e}")))?;
            trees.push(tree);
        }
        r.finish()?;
        trees.shrink_to_fit();
        Ok(GbdtModel { objective, learning_rate, n_features, init_scores, trees })
    }

    /// Serializes to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serializes")
    }

    /// Deserializes from [`Self::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

/// Leading bytes of every [`GbdtModel::encode_bytes`] buffer.
pub const MODEL_MAGIC: &[u8; 4] = b"GBDT";
/// Binary model format version ([`GbdtModel::encode_bytes`]).
pub const MODEL_FORMAT_VERSION: u32 = 1;
/// Bytes of an internal node's fields after its id and kind byte.
const INTERNAL_BYTES: usize = 19;

/// How [`GbdtModel::feature_importance`] weighs each split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ImportanceKind {
    /// Each split counts 1.
    SplitCount,
    /// Each split counts its Eq. 2 gain.
    TotalGain,
}

/// Computes the canonical metrics from raw scores (shared with trainers that
/// keep running scores during boosting, avoiding a re-predict per tree).
pub fn evaluation_from_scores(objective: &Objective, scores: &[f64], labels: &[f32]) -> Evaluation {
    match objective {
        Objective::SquaredError => Evaluation {
            auc: None,
            accuracy: None,
            rmse: Some(metrics::rmse(labels, scores)),
            loss: objective.mean_loss(scores, labels),
        },
        Objective::Logistic => {
            let probs: Vec<f64> = scores.iter().map(|&s| crate::loss::sigmoid(s)).collect();
            Evaluation {
                auc: Some(metrics::auc(labels, scores)),
                accuracy: Some(metrics::accuracy_binary(labels, &probs)),
                rmse: None,
                loss: objective.mean_loss(scores, labels),
            }
        }
        Objective::Softmax { n_classes } => Evaluation {
            auc: None,
            accuracy: Some(metrics::accuracy_multiclass(labels, scores, *n_classes)),
            rmse: None,
            loss: objective.mean_loss(scores, labels),
        },
    }
}

/// Task-appropriate evaluation results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// ROC AUC (binary tasks).
    pub auc: Option<f64>,
    /// Accuracy (classification tasks).
    pub accuracy: Option<f64>,
    /// RMSE (regression).
    pub rmse: Option<f64>,
    /// Mean objective loss.
    pub loss: f64,
}

impl Evaluation {
    /// The headline metric the paper plots for this task: AUC for binary,
    /// accuracy for multi-class, RMSE for regression.
    pub fn headline(&self) -> f64 {
        self.auc.or(self.accuracy).or(self.rmse).unwrap_or(self.loss)
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Tree;
    use gbdt_data::dataset::FeatureMatrix;
    use gbdt_data::sparse::CsrBuilder;

    fn stump(leaf_left: f64, leaf_right: f64) -> Tree {
        let mut t = Tree::new(2, 1);
        t.set_internal(0, 0, 0, 0.5, true);
        t.set_leaf(1, vec![leaf_left]);
        t.set_leaf(2, vec![leaf_right]);
        t
    }

    fn toy_dataset() -> Dataset {
        let mut b = CsrBuilder::new(2);
        b.push_row(&[(0, 0.0)]).unwrap();
        b.push_row(&[(0, 1.0)]).unwrap();
        b.push_row(&[(1, 3.0)]).unwrap(); // feature 0 missing
        Dataset::new(FeatureMatrix::Sparse(b.build()), vec![1.0, 0.0, 1.0], 2, "toy").unwrap()
    }

    #[test]
    fn prediction_sums_trees_and_init() {
        let mut m = GbdtModel::new(Objective::Logistic, 0.1, 2);
        m.trees.push(stump(1.0, -1.0));
        m.trees.push(stump(0.5, -0.5));
        assert_eq!(m.predict_row(&[0], &[0.0]), vec![1.5]);
        assert_eq!(m.predict_row(&[0], &[1.0]), vec![-1.5]);
        // Missing feature 0: default left.
        assert_eq!(m.predict_row(&[1], &[3.0]), vec![1.5]);
    }

    #[test]
    fn dataset_prediction_matches_row_prediction() {
        let mut m = GbdtModel::new(Objective::Logistic, 0.1, 2);
        m.trees.push(stump(2.0, -2.0));
        let ds = toy_dataset();
        let scores = m.predict_dataset_raw(&ds);
        assert_eq!(scores, vec![2.0, -2.0, 2.0]);
    }

    #[test]
    fn evaluate_reports_task_metrics() {
        let mut m = GbdtModel::new(Objective::Logistic, 0.1, 2);
        m.trees.push(stump(2.0, -2.0));
        let eval = m.evaluate(&toy_dataset());
        // Labels (1,0,1); scores (2,-2,2): perfect ranking.
        assert_eq!(eval.auc, Some(1.0));
        assert_eq!(eval.accuracy, Some(1.0));
        assert!(eval.rmse.is_none());
        assert!(eval.loss > 0.0);
        assert_eq!(eval.headline(), 1.0);
    }

    #[test]
    fn json_roundtrip() {
        let mut m = GbdtModel::new(Objective::Softmax { n_classes: 3 }, 0.2, 5);
        let mut t = Tree::new(1, 3);
        t.set_leaf(0, vec![0.1, 0.2, 0.3]);
        m.trees.push(t);
        let json = m.to_json();
        let back = GbdtModel::from_json(&json).unwrap();
        assert_eq!(m, back);
        assert!(GbdtModel::from_json("{bad json").is_err());
    }

    #[test]
    fn feature_importance_normalizes_and_ranks() {
        let mut m = GbdtModel::new(Objective::Logistic, 0.1, 3);
        let mut t = Tree::new(3, 1);
        t.set_internal_with_gain(0, 2, 0, 0.5, true, 10.0);
        t.set_internal_with_gain(1, 0, 0, 0.5, true, 1.0);
        t.set_leaf(2, vec![0.0]);
        t.set_leaf(3, vec![0.0]);
        t.set_leaf(4, vec![0.0]);
        m.trees.push(t);
        let by_count = m.feature_importance(ImportanceKind::SplitCount);
        assert!((by_count.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(by_count, vec![0.5, 0.0, 0.5]);
        let by_gain = m.feature_importance(ImportanceKind::TotalGain);
        assert!(by_gain[2] > by_gain[0]);
        assert!((by_gain.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // No trees: all zero, no NaN.
        let empty = GbdtModel::new(Objective::Logistic, 0.1, 3);
        assert_eq!(empty.feature_importance(ImportanceKind::TotalGain), vec![0.0; 3]);
    }

    #[test]
    fn byte_codec_roundtrip() {
        let mut m = GbdtModel::new(Objective::Softmax { n_classes: 3 }, 0.2, 5);
        let mut t = Tree::new(3, 3);
        t.set_internal_with_gain(0, 4, 7, -1.25, false, 3.5);
        t.set_leaf(1, vec![0.1, 0.2, 0.3]);
        t.set_leaf(2, vec![-0.1, f64::MIN_POSITIVE, 0.0]);
        m.trees.push(t);
        let mut t2 = Tree::new(1, 3);
        t2.set_leaf(0, vec![1.0, 2.0, 3.0]);
        m.trees.push(t2);
        let bytes = m.encode_bytes();
        let back = GbdtModel::decode_bytes(&bytes).unwrap();
        assert_eq!(m, back);
        // Determinism: re-encoding the decoded model is byte-identical.
        assert_eq!(bytes, back.encode_bytes());
    }

    #[test]
    fn byte_codec_rejects_malformed() {
        let mut m = GbdtModel::new(Objective::Logistic, 0.1, 2);
        m.trees.push(stump(1.0, -1.0));
        let bytes = m.encode_bytes();
        // Truncation at every prefix must error, never panic.
        for cut in 0..bytes.len() {
            assert!(GbdtModel::decode_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(GbdtModel::decode_bytes(&long).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(GbdtModel::decode_bytes(&bad).is_err());
        // Unknown format version.
        let mut vers = bytes.clone();
        vers[4] = 99;
        assert!(GbdtModel::decode_bytes(&vers).is_err());
        // Unknown objective tag.
        let mut obj = bytes;
        obj[8] = 7;
        assert!(GbdtModel::decode_bytes(&obj).is_err());
    }

    /// A single flipped byte must be an error, never an allocation sized by
    /// the flipped count: the high byte of this 103-byte model's leaf arity
    /// once asked for 17 GB and aborted the process.
    #[test]
    fn a_flipped_count_is_an_error_not_an_allocation() {
        let mut m = GbdtModel::new(Objective::Logistic, 0.1, 2);
        let mut t = Tree::new(3, 1);
        t.set_internal(0, 0, 0, 0.5, true);
        t.set_leaf(1, vec![1.0]);
        t.set_leaf(2, vec![-1.0]);
        m.trees.push(t);
        let bytes = m.encode_bytes();
        assert_eq!(bytes.len(), 103);
        // The tree's n_outputs is bytes 45..49.
        assert_eq!(bytes[45..49], 1u32.to_le_bytes());
        let mut flipped = bytes.clone();
        flipped[48] = 0x7f;
        assert!(GbdtModel::decode_bytes(&flipped).is_err());
        // A class count that every field agrees on but no buffer of this
        // size could carry.
        let mut m = GbdtModel::new(Objective::Softmax { n_classes: 2 }, 0.1, 2);
        m.trees.push(Tree::new(3, 2));
        let mut wide = m.encode_bytes();
        wide[12] = 0x7f; // n_classes
        wide[28] = 0x7f; // n_init
        assert!(GbdtModel::decode_bytes(&wide).is_err());
        // Classes on an objective that has none, and a default side of 2.
        let mut classes = bytes.clone();
        classes[9] = 1;
        assert!(GbdtModel::decode_bytes(&classes).is_err());
        let mut side = bytes;
        side[68] = 2; // the root's default side
        assert!(GbdtModel::decode_bytes(&side).is_err());
    }

    /// A node is decoded only below an internal node decoded before it; a
    /// 24-layer tree costs the nodes it carries, not `2^24` slots.
    #[test]
    fn orphans_are_errors_and_layers_cost_nothing() {
        let mut m = GbdtModel::new(Objective::Logistic, 0.1, 2);
        let mut t = Tree::new(3, 1);
        t.set_internal(0, 0, 0, 0.5, true);
        t.set_leaf(1, vec![1.0]);
        t.set_leaf(2, vec![-1.0]);
        m.trees.push(t);
        let bytes = m.encode_bytes();
        // Node ids at bytes 53, 77 and 90; 2 → 5 puts a leaf below leaf 2.
        assert_eq!(bytes[90..94], 2u32.to_le_bytes());
        let mut orphan = bytes.clone();
        orphan[90] = 5;
        let err = GbdtModel::decode_bytes(&orphan).unwrap_err();
        assert!(err.what.contains("no internal parent"), "{err}");
        // The n_layers field is bytes 41..45.
        let mut deep = bytes;
        deep[41] = 24;
        let decoded = GbdtModel::decode_bytes(&deep).unwrap();
        assert_eq!(decoded.trees[0].n_layers(), 24);
        assert_eq!(decoded.trees[0].slots().len(), 3);
        assert_eq!(decoded.encode_bytes(), deep);
    }

    #[test]
    fn dense_zero_cell_is_missing_in_prediction() {
        // Missing goes right, a value <= 0.5 goes left: a dense zero must
        // take the default direction, as its absent CSR twin does.
        let mut tree = Tree::new(2, 1);
        tree.set_internal(0, 0, 0, 0.5, false);
        tree.set_leaf(1, vec![1.0]);
        tree.set_leaf(2, vec![3.0]);
        let mut m = GbdtModel::new(Objective::SquaredError, 0.1, 2);
        m.trees.push(tree);
        let dense =
            gbdt_data::DenseMatrix::from_rows(&[vec![0.0, 0.0], vec![0.25, 0.0], vec![1.0, 2.0]])
                .unwrap();
        let ds = Dataset::new(FeatureMatrix::Dense(dense), vec![3.0, 1.0, 3.0], 0, "d").unwrap();
        assert_eq!(m.predict_dataset_raw(&ds), vec![3.0, 1.0, 3.0]);
        let twin = Dataset::new(
            FeatureMatrix::Sparse(ds.features.to_csr()),
            ds.labels.clone(),
            0,
            "d-csr",
        )
        .unwrap();
        assert_eq!(m.predict_dataset_raw(&twin), m.predict_dataset_raw(&ds));
        assert_eq!(m.evaluate(&ds).rmse, Some(0.0));
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Three shapes in the binary format, pinned by FNV-1a hash: a complete
    /// 3-layer tree, a 4-layer tree set depth first with one internal
    /// node's children never set, and a root-only leaf. The bytes were
    /// recorded from the dense `2^L`-slot tree this store replaced.
    #[test]
    fn encoded_bytes_are_pinned() {
        let mut m = GbdtModel::new(Objective::Softmax { n_classes: 2 }, 0.25, 9);
        let mut complete = Tree::new(3, 2);
        for id in 0..3u32 {
            let gain = 1.5 * f64::from(id);
            complete.set_internal_with_gain(id, 2 * id, id as u16, id as f32 - 0.5, id != 1, gain);
        }
        for id in 3..7u32 {
            complete.set_leaf(id, vec![f64::from(id) * 0.125, -f64::from(id)]);
        }
        // Depth first: 0, 2, 6, 5, then 1, whose children stay vacant.
        let mut dfs = Tree::new(4, 2);
        dfs.set_internal_with_gain(0, 8, 3, 0.75, false, 2.0);
        dfs.set_internal_with_gain(2, 1, 7, -1.25, true, 0.5);
        dfs.set_leaf(6, vec![0.5, -0.5]);
        dfs.set_leaf(5, vec![f64::MIN_POSITIVE, 1e300]);
        dfs.set_internal(1, 4, 0, 3.0, false);
        let mut root = Tree::new(1, 2);
        root.set_leaf(0, vec![-0.0, 7.0]);
        m.trees = vec![complete, dfs, root];
        let bytes = m.encode_bytes();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (376, 0x3e86_4eba_e064_c6ed));
        // Node 1's children are vacant, so that tree cannot be walked and
        // the decoder refuses it; the other two round-trip.
        let err = GbdtModel::decode_bytes(&bytes).unwrap_err();
        assert!(err.what.contains("tree 1: an internal node is missing a child"), "{err}");
        m.trees.remove(1);
        assert_eq!(GbdtModel::decode_bytes(&m.encode_bytes()).unwrap(), m);
    }

    /// Both decoders refuse a tree that cannot be walked: one with no root,
    /// and one whose internal node lacks a child. Either shape used to
    /// decode and then panic in `predict_row` ("tree traversal reached a
    /// missing node").
    #[test]
    fn trees_that_cannot_be_walked_are_refused() {
        let mut rootless = GbdtModel::new(Objective::Logistic, 0.1, 2);
        rootless.trees.push(Tree::new(3, 1));
        let mut childless = GbdtModel::new(Objective::Logistic, 0.1, 2);
        let mut t = Tree::new(3, 1);
        t.set_internal(0, 0, 0, 0.5, true);
        t.set_leaf(1, vec![1.0]);
        childless.trees.push(t);
        for (m, what) in [(rootless, "no root"), (childless, "missing a child")] {
            let err = GbdtModel::decode_bytes(&m.encode_bytes()).unwrap_err();
            assert!(err.what.contains(what), "{err}");
            let err = GbdtModel::from_json(&m.to_json()).unwrap_err();
            assert!(err.contains(what), "{err}");
        }
    }
}
