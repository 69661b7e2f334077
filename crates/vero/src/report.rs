//! Convergence reporting: metric-versus-time curves (Figures 11 and 12).
//!
//! The paper plots validation AUC (binary) or accuracy (multi-class)
//! against cumulative training time. Given a trained model and the per-tree
//! timing records, [`convergence_curve`] evaluates every tree-prefix of the
//! ensemble incrementally (one tree's predictions added per step, never
//! re-predicting the whole prefix), producing exactly those curves.

use crate::system::TrainOutcome;
use gbdt_core::model::{evaluation_from_scores, Evaluation};
use gbdt_data::dataset::Dataset;
use serde::{Deserialize, Serialize};

/// One point of a convergence curve: the ensemble after `n_trees` trees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergencePoint {
    /// Number of trees included.
    pub n_trees: usize,
    /// Cumulative training seconds (comp + modelled comm).
    pub seconds: f64,
    /// Validation metrics of the prefix ensemble.
    pub eval: Evaluation,
}

/// Builds the metric-vs-time curve of a training run on a validation set.
pub fn convergence_curve(outcome: &TrainOutcome, valid: &Dataset) -> Vec<ConvergencePoint> {
    let model = &outcome.model.inner;
    let c = model.n_outputs();
    let n = valid.n_instances();
    let mut scores = vec![0.0f64; n * c];
    for chunk in scores.chunks_mut(c) {
        chunk.copy_from_slice(&model.init_scores);
    }
    let mut curve = Vec::with_capacity(model.trees.len());
    let mut elapsed = 0.0;
    for (t, tree) in model.trees.iter().enumerate() {
        valid.features.for_each_row(|i, feats, vals| {
            let out = tree.predict_row(feats, vals);
            for (k, &v) in out.iter().enumerate() {
                scores[i * c + k] += v;
            }
        });
        if let Some(stat) = outcome.per_tree.get(t) {
            elapsed += stat.comp_seconds + stat.comm_seconds;
        }
        curve.push(ConvergencePoint {
            n_trees: t + 1,
            seconds: elapsed,
            eval: evaluation_from_scores(&model.objective, &scores, &valid.labels),
        });
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VeroConfig;
    use crate::system::Vero;
    use gbdt_data::synthetic::SyntheticConfig;

    #[test]
    fn curve_is_monotone_in_time_and_converges() {
        let ds = SyntheticConfig {
            n_instances: 1_500,
            n_features: 25,
            n_classes: 2,
            density: 0.5,
            seed: 311,
            ..Default::default()
        }
        .generate();
        let (train_ds, valid_ds) = ds.split_validation(0.3);
        let cfg = VeroConfig::builder().workers(3).n_trees(12).n_layers(5).build().unwrap();
        let outcome = Vero::fit(&cfg, &train_ds);
        let curve = convergence_curve(&outcome, &valid_ds);
        assert_eq!(curve.len(), 12);
        // Time strictly accumulates.
        for w in curve.windows(2) {
            assert!(w[1].seconds >= w[0].seconds);
            assert_eq!(w[1].n_trees, w[0].n_trees + 1);
        }
        // The final AUC beats the first tree's AUC.
        let first = curve.first().unwrap().eval.auc.unwrap();
        let last = curve.last().unwrap().eval.auc.unwrap();
        assert!(last > first, "AUC did not improve: {first} -> {last}");
        // The last prefix equals a full evaluation.
        let full = outcome.model.evaluate(&valid_ds);
        assert!((full.auc.unwrap() - last).abs() < 1e-12);
    }
}
