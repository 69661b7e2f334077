//! Vero system configuration.

use gbdt_cluster::{FaultPlan, NetworkCostModel};
use gbdt_core::{Objective, TrainConfig, WireCodec};
use gbdt_partition::transform::{TransformConfig, WireEncoding};
use gbdt_partition::GroupingStrategy;

/// Full configuration of a Vero training run: cluster shape, link model,
/// transformation options, and GBDT hyper-parameters.
#[derive(Debug, Clone)]
pub struct VeroConfig {
    /// Number of workers W.
    pub workers: usize,
    /// Link model for communication-time accounting.
    pub network: NetworkCostModel,
    /// GBDT hyper-parameters (T, L, q, η, λ, γ, objective).
    pub train: TrainConfig,
    /// Horizontal-to-vertical transformation options (its `n_bins` is
    /// ignored: the transformation bins with `train.n_bins`).
    pub transform: TransformConfig,
    /// Optional deterministic fault-injection plan (chaos testing). `None`
    /// trains fault-free with zero overhead.
    pub faults: Option<FaultPlan>,
}

impl VeroConfig {
    /// Starts a builder with the paper's §5.1 defaults (8 workers, 1 Gbps,
    /// T = 100, L = 8, q = 20, greedy-balanced blockified transform).
    pub fn builder() -> VeroConfigBuilder {
        VeroConfigBuilder {
            cfg: VeroConfig {
                workers: 8,
                network: NetworkCostModel::lab_cluster(),
                train: TrainConfig::default(),
                transform: TransformConfig::default(),
                faults: None,
            },
        }
    }
}

/// Fluent builder for [`VeroConfig`].
#[derive(Debug, Clone)]
pub struct VeroConfigBuilder {
    cfg: VeroConfig,
}

impl VeroConfigBuilder {
    /// Sets the worker count W.
    pub fn workers(mut self, w: usize) -> Self {
        self.cfg.workers = w;
        self
    }

    /// Sets the link model.
    pub fn network(mut self, model: NetworkCostModel) -> Self {
        self.cfg.network = model;
        self
    }

    /// Sets T, the number of trees.
    pub fn n_trees(mut self, t: usize) -> Self {
        self.cfg.train.n_trees = t;
        self
    }

    /// Sets L, the number of tree layers.
    pub fn n_layers(mut self, l: usize) -> Self {
        self.cfg.train.n_layers = l;
        self
    }

    /// Sets q, the number of candidate splits.
    pub fn n_bins(mut self, q: usize) -> Self {
        self.cfg.train.n_bins = q;
        self
    }

    /// Sets η, the learning rate.
    pub fn learning_rate(mut self, eta: f64) -> Self {
        self.cfg.train.learning_rate = eta;
        self
    }

    /// Sets λ, the L2 leaf regularization.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.cfg.train.lambda = lambda;
        self
    }

    /// Sets γ, the per-leaf penalty.
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.cfg.train.gamma = gamma;
        self
    }

    /// Sets the training objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.cfg.train.objective = objective;
        self
    }

    /// Sets the intra-worker thread budget (0 = auto:
    /// `available_parallelism() / workers`). Trained ensembles are
    /// bit-identical for every value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.train.threads = threads;
        self
    }

    /// Sets the histogram wire codec (default: dense). Vero's trainer never
    /// aggregates histograms, so this only matters when the same config
    /// drives one of the horizontal quadrants in a comparison run; every
    /// codec trains the identical Vero ensemble.
    pub fn wire(mut self, wire: WireCodec) -> Self {
        self.cfg.train.wire = wire;
        self
    }

    /// Sets the column grouping strategy (default: greedy balanced).
    pub fn grouping(mut self, strategy: GroupingStrategy) -> Self {
        self.cfg.transform.strategy = strategy;
        self
    }

    /// Sets the repartition wire format (default: blockified).
    pub fn encoding(mut self, encoding: WireEncoding) -> Self {
        self.cfg.transform.encoding = encoding;
        self
    }

    /// Injects a deterministic fault plan (drops, duplicates, delays,
    /// scheduled crashes, stragglers). Under any lossless plan the trained
    /// ensemble is bit-identical to the fault-free run.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = Some(plan);
        self
    }

    /// Finalizes, validating everything.
    pub fn build(self) -> Result<VeroConfig, String> {
        if self.cfg.workers == 0 {
            return Err("workers must be >= 1".into());
        }
        self.cfg.train.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = VeroConfig::builder().build().unwrap();
        assert_eq!(cfg.workers, 8);
        assert_eq!(cfg.train.n_trees, 100);
        assert_eq!(cfg.train.n_layers, 8);
        assert_eq!(cfg.train.n_bins, 20);
        assert_eq!(cfg.transform.encoding, WireEncoding::Blockified);
        assert_eq!(cfg.transform.strategy, GroupingStrategy::GreedyBalanced);
    }

    #[test]
    fn threads_flow_into_train_config() {
        let cfg = VeroConfig::builder().threads(4).build().unwrap();
        assert_eq!(cfg.train.threads, 4);
        assert_eq!(VeroConfig::builder().build().unwrap().train.threads, 0); // auto
    }

    #[test]
    fn wire_codec_flows_into_train_config() {
        let cfg = VeroConfig::builder().wire(WireCodec::Auto).build().unwrap();
        assert_eq!(cfg.train.wire, WireCodec::Auto);
        assert_eq!(VeroConfig::builder().build().unwrap().train.wire, WireCodec::Dense);
    }

    #[test]
    fn rejects_invalid() {
        assert!(VeroConfig::builder().workers(0).build().is_err());
        assert!(VeroConfig::builder().n_trees(0).build().is_err());
    }
}
