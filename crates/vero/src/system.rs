//! The Vero system facade: fit, predict, save, load.

use crate::config::VeroConfig;
use gbdt_cluster::stats::ClusterStats;
use gbdt_cluster::Cluster;
use gbdt_core::model::Evaluation;
use gbdt_core::GbdtModel;
use gbdt_data::dataset::Dataset;
use gbdt_quadrants::{qd4, TreeStat};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// The Vero system.
///
/// Stateless entry point: [`Vero::fit`] runs the full pipeline (horizontal
/// shards → vertical transformation → QD4 training) on an in-process
/// cluster and returns the model plus the full cost breakdown.
pub struct Vero;

/// Everything a training run produces.
#[derive(Debug)]
pub struct TrainOutcome {
    /// The trained model.
    pub model: VeroModel,
    /// Per-tree (comp, comm) seconds, straggler-gated.
    pub per_tree: Vec<TreeStat>,
    /// Per-worker instrumentation (bytes, phase times, memory gauges).
    pub stats: ClusterStats,
}

impl Vero {
    /// Trains on `dataset` under `config`.
    ///
    /// # Panics
    /// Panics if the objective is inconsistent with the dataset's labels
    /// (e.g. softmax class count ≠ `dataset.n_classes`).
    pub fn fit(config: &VeroConfig, dataset: &Dataset) -> TrainOutcome {
        check_objective(config, dataset);
        let cluster =
            Cluster::with_cost(config.workers, config.network).with_faults(config.faults);
        let result =
            qd4::train_with_transform(&cluster, dataset, &config.train, &config.transform);
        TrainOutcome {
            model: VeroModel { inner: result.model },
            per_tree: result.per_tree,
            stats: result.stats,
        }
    }
}

/// Result of [`Vero::fit_with_validation`].
#[derive(Debug)]
pub struct ValidatedOutcome {
    /// The trained model, truncated to the best validation iteration.
    pub model: VeroModel,
    /// Number of trees kept (1-based best iteration).
    pub best_iteration: usize,
    /// Whether truncation fired before `n_trees`.
    pub stopped_early: bool,
    /// The full (untruncated) training outcome, for cost analysis.
    pub full: TrainOutcome,
    /// Validation metric of the kept prefix.
    pub best_metric: f64,
}

impl Vero {
    /// Trains like [`Vero::fit`], then applies validation-based early
    /// stopping by truncation: the returned model keeps the tree prefix
    /// whose validation metric is best, stopping the search once the metric
    /// fails to improve for `patience` consecutive trees.
    ///
    /// (Truncation after training is equivalent in model quality to
    /// stopping the boosting loop — boosting prefixes are nested — and
    /// keeps the distributed trainers callback-free.)
    pub fn fit_with_validation(
        config: &VeroConfig,
        train: &Dataset,
        valid: &Dataset,
        patience: usize,
    ) -> ValidatedOutcome {
        let full = Self::fit(config, train);
        let curve = crate::report::convergence_curve(&full, valid);
        // Higher is better for AUC/accuracy; lower for RMSE.
        let higher_is_better = !matches!(config.train.objective, gbdt_core::Objective::SquaredError);
        let mut best_idx = 0usize;
        let mut best_metric = f64::NEG_INFINITY;
        let mut since_best = 0usize;
        let mut stopped_early = false;
        for (i, point) in curve.iter().enumerate() {
            let m = point.eval.headline();
            let m = if higher_is_better { m } else { -m };
            if m > best_metric {
                best_metric = m;
                best_idx = i;
                since_best = 0;
            } else {
                since_best += 1;
                if patience > 0 && since_best >= patience {
                    stopped_early = true;
                    break;
                }
            }
        }
        let mut model = full.model.clone();
        model.inner.trees.truncate(best_idx + 1);
        ValidatedOutcome {
            model,
            best_iteration: best_idx + 1,
            stopped_early,
            best_metric: if higher_is_better { best_metric } else { -best_metric },
            full,
        }
    }
}

fn check_objective(config: &VeroConfig, dataset: &Dataset) {
    use gbdt_core::Objective;
    match config.train.objective {
        Objective::Logistic => assert_eq!(
            dataset.n_classes, 2,
            "logistic objective needs a binary dataset"
        ),
        Objective::Softmax { n_classes } => assert_eq!(
            dataset.n_classes, n_classes,
            "softmax class count must match the dataset"
        ),
        Objective::SquaredError => {}
    }
}

/// A trained Vero model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VeroModel {
    /// The underlying boosted ensemble.
    pub inner: GbdtModel,
}

impl VeroModel {
    /// Raw scores for a sparse row of (sorted feature, value) pairs.
    pub fn predict_raw(&self, feats: &[u32], vals: &[f32]) -> Vec<f64> {
        self.inner.predict_row(feats, vals)
    }

    /// Transformed prediction (probability / class scores / regression).
    pub fn predict(&self, feats: &[u32], vals: &[f32]) -> Vec<f64> {
        self.inner.predict_row_transformed(feats, vals)
    }

    /// Evaluates on a dataset with task-appropriate metrics.
    pub fn evaluate(&self, dataset: &Dataset) -> Evaluation {
        self.inner.evaluate(dataset)
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.inner.trees.len()
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serializes")
    }

    /// Deserializes from [`Self::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Saves the model to a JSON file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a model from a JSON file.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VeroConfig;
    use gbdt_core::Objective;
    use gbdt_data::synthetic::SyntheticConfig;

    fn dataset(n: usize, seed: u64) -> Dataset {
        SyntheticConfig {
            n_instances: n,
            n_features: 30,
            n_classes: 2,
            density: 0.4,
            seed,
            ..Default::default()
        }
        .generate()
    }

    fn small_config(workers: usize) -> VeroConfig {
        VeroConfig::builder().workers(workers).n_trees(8).n_layers(5).build().unwrap()
    }

    #[test]
    fn fit_trains_a_useful_model() {
        let ds = dataset(1_500, 211);
        let (train_ds, valid_ds) = ds.split_validation(0.25);
        let outcome = Vero::fit(&small_config(4), &train_ds);
        assert_eq!(outcome.model.n_trees(), 8);
        assert_eq!(outcome.per_tree.len(), 8);
        assert!(outcome.model.evaluate(&valid_ds).auc.unwrap() > 0.8);
        assert!(outcome.stats.total_bytes_sent() > 0);
    }

    #[test]
    fn predict_matches_evaluate_path() {
        let ds = dataset(600, 223);
        let outcome = Vero::fit(&small_config(2), &ds);
        let csr = ds.features.to_csr();
        let (feats, vals) = csr.row(0);
        let p = outcome.model.predict(feats, vals);
        assert_eq!(p.len(), 1);
        assert!((0.0..=1.0).contains(&p[0]));
        let raw = outcome.model.predict_raw(feats, vals);
        assert!((gbdt_core::loss::sigmoid(raw[0]) - p[0]).abs() < 1e-12);
    }

    #[test]
    fn save_load_roundtrip() {
        let ds = dataset(400, 227);
        let outcome = Vero::fit(&small_config(2), &ds);
        let dir = std::env::temp_dir().join("vero-test-model.json");
        outcome.model.save(&dir).unwrap();
        let loaded = VeroModel::load(&dir).unwrap();
        assert_eq!(outcome.model, loaded);
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn early_stopping_truncates_at_best_prefix() {
        let ds = dataset(1_500, 241);
        let (train, valid) = ds.split_validation(0.3);
        let cfg = VeroConfig::builder().workers(3).n_trees(12).n_layers(5).build().unwrap();
        let validated = Vero::fit_with_validation(&cfg, &train, &valid, 3);
        assert!(validated.best_iteration >= 1 && validated.best_iteration <= 12);
        assert_eq!(validated.model.n_trees(), validated.best_iteration);
        assert_eq!(validated.full.model.n_trees(), 12);
        // The kept prefix's metric equals the reported best.
        let eval = validated.model.evaluate(&valid);
        assert!((eval.auc.unwrap() - validated.best_metric).abs() < 1e-12);
        // No longer prefix within the searched range does better.
        for t in 1..=validated.best_iteration {
            let mut prefix = validated.full.model.clone();
            prefix.inner.trees.truncate(t);
            assert!(
                prefix.evaluate(&valid).auc.unwrap() <= validated.best_metric + 1e-12,
                "prefix {t} beats the chosen best"
            );
        }
    }

    #[test]
    fn zero_patience_searches_every_prefix() {
        let ds = dataset(500, 251);
        let (train, valid) = ds.split_validation(0.3);
        let cfg = VeroConfig::builder().workers(2).n_trees(5).n_layers(4).build().unwrap();
        let validated = Vero::fit_with_validation(&cfg, &train, &valid, 0);
        assert!(!validated.stopped_early);
        assert!(validated.best_iteration <= 5);
    }

    /// q is the training config's even when it is set after `build()`, as
    /// callers set other fields: the transformation bins with the q the
    /// histograms are sized for.
    #[test]
    fn q_set_after_build_trains_like_the_builder() {
        for dense in [false, true] {
            let ds = SyntheticConfig {
                n_instances: 400,
                n_features: 12,
                n_classes: 2,
                density: 0.5,
                dense,
                seed: 257,
                ..Default::default()
            }
            .generate();
            let builder = VeroConfig::builder().workers(2).n_trees(3).n_layers(4);
            let mut mutated = builder.clone().build().unwrap();
            mutated.train.n_bins = 8;
            let built = builder.n_bins(8).build().unwrap();
            let (got, want) = (Vero::fit(&mutated, &ds).model, Vero::fit(&built, &ds).model);
            assert_eq!(got, want, "dense={dense}");
        }
    }

    #[test]
    #[should_panic(expected = "softmax class count")]
    fn objective_mismatch_is_rejected() {
        let ds = dataset(300, 229);
        let cfg = VeroConfig::builder()
            .workers(2)
            .n_trees(1)
            .objective(Objective::Softmax { n_classes: 7 })
            .build()
            .unwrap();
        Vero::fit(&cfg, &ds);
    }
}
