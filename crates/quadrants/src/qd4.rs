//! QD4 — vertical partitioning + row-store: **Vero's trainer** (§4.2.2).
//!
//! After the horizontal-to-vertical transformation each worker holds *all N
//! rows* of its column group as one row-store — the same [`BinnedStore`] QD2
//! scans, sparse pairs or dense cells by the storage policy — plus every
//! instance label. Training then:
//!
//! * builds histograms only for the worker's own features with the
//!   node-to-instance index and histogram subtraction — no aggregation at
//!   all, because each worker already holds every value of its features;
//! * finds the local best split per node and exchanges only the tiny local
//!   bests (the master recovers the global feature id);
//! * has the split-feature owner compute the instance placement and
//!   broadcast it as a **bitmap** (`⌈N/8⌉` bytes — §4.2.2's 32× reduction),
//!   which every worker applies to its identical node-to-instance index.
//!
//! Communication per layer is therefore `O(N/8 · W)` regardless of D, q, C,
//! or depth — the crux of the paper's Table 1. Because no histogram ever
//! crosses the wire, [`TrainConfig::wire`] is accepted but has nothing to
//! encode: every codec (including the lossy f32) trains the identical
//! ensemble, which `tests/wire_determinism.rs` pins.

use crate::common::DistTrainResult;
use crate::grow::Run;
use crate::vertical::{self, GroupStore};
use gbdt_cluster::Cluster;
use gbdt_core::histogram::HistogramPool;
use gbdt_core::indexes::NodeToInstanceIndex;
use gbdt_core::{kernels, parallel, TrainConfig};
use gbdt_data::dataset::Dataset;
use gbdt_data::{BinId, BinnedStore, FeatureId, InstanceId};
use gbdt_partition::transform::TransformConfig;

/// Trains with QD4 (Vero) on `cluster.world` workers, running the full
/// pipeline: shard → transform → train.
pub fn train(cluster: &Cluster, dataset: &Dataset, config: &TrainConfig) -> DistTrainResult {
    train_with_transform(cluster, dataset, config, &TransformConfig::default())
}

/// Ablation switches for the QD4 trainer.
#[derive(Debug, Clone, Copy)]
pub struct Qd4Options {
    /// Use the histogram subtraction technique (§2.1.2). Disabling it
    /// builds BOTH children directly — the ablation for the design choice
    /// DESIGN.md calls out.
    pub use_subtraction: bool,
}

impl Default for Qd4Options {
    fn default() -> Self {
        Qd4Options { use_subtraction: true }
    }
}

/// Trains with an explicit transformation configuration (used by the
/// Table 5 ablations and the grouping-strategy experiments).
pub fn train_with_transform(
    cluster: &Cluster,
    dataset: &Dataset,
    config: &TrainConfig,
    transform_cfg: &TransformConfig,
) -> DistTrainResult {
    train_with_options(cluster, dataset, config, transform_cfg, Qd4Options::default())
}

/// Trains with explicit transformation configuration and ablation options.
pub fn train_with_options(
    cluster: &Cluster,
    dataset: &Dataset,
    config: &TrainConfig,
    transform_cfg: &TransformConfig,
    options: Qd4Options,
) -> DistTrainResult {
    vertical::train(cluster, dataset, config, transform_cfg, options.use_subtraction, |local_data| {
        // The column group in the layout the storage policy selects: the
        // assembled rows themselves, or packed dense cells that replace them.
        config.storage.bin_store(local_data, config.n_bins)
    })
}

/// The paper's row-store, under both partitionings: QD4's column group,
/// QD2's row shard and the feature-parallel replica's group view all scan a
/// node's rows and look a split feature up here (a binary search of the
/// row's sorted features on the sparse layout, O(1) on the dense one). The
/// node-to-instance index is the only index.
impl GroupStore for BinnedStore {
    fn fill(&self, pool: &mut HistogramPool, node: u32, index: &NodeToInstanceIndex, run: &Run) {
        let (rows, threads) = (index.instances(node), run.threads);
        parallel::build_histogram_chunked(pool, node, rows, threads, &run.meter, |hist, chunk| {
            kernels::fill_rows_chunk(hist, chunk, self, &run.grads, run.config.kernel);
        });
    }

    #[inline]
    fn bin(&self, instance: InstanceId, feature: FeatureId) -> Option<BinId> {
        self.get(instance as usize, feature)
    }

    fn data_bytes(&self) -> usize {
        self.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_core::Objective;
    use gbdt_data::synthetic::SyntheticConfig;
    use gbdt_partition::transform::horizontal_to_vertical;
    use gbdt_partition::HorizontalPartition;

    fn dataset(n: usize, d: usize, classes: usize, seed: u64) -> Dataset {
        SyntheticConfig {
            n_instances: n,
            n_features: d,
            n_classes: classes,
            density: 0.5,
            label_noise: 0.02,
            seed,
            ..Default::default()
        }
        .generate()
    }

    fn config(classes: usize, trees: usize) -> TrainConfig {
        let objective = if classes > 2 {
            Objective::Softmax { n_classes: classes }
        } else {
            Objective::Logistic
        };
        TrainConfig::builder().n_trees(trees).n_layers(5).objective(objective).build().unwrap()
    }

    #[test]
    fn learns_binary() {
        let ds = dataset(1_200, 15, 2, 61);
        let result = train(&Cluster::new(3), &ds, &config(2, 8));
        let eval = result.model.evaluate(&ds);
        assert!(eval.auc.unwrap() > 0.85, "AUC {:?}", eval.auc);
        assert_eq!(result.per_tree.len(), 8);
    }

    #[test]
    fn learns_multiclass() {
        let ds = dataset(900, 12, 4, 67);
        let result = train(&Cluster::new(2), &ds, &config(4, 8));
        assert!(result.model.evaluate(&ds).accuracy.unwrap() > 0.4);
    }

    #[test]
    fn single_worker_matches_single_node_reference() {
        let ds = dataset(700, 12, 2, 71);
        let cfg = config(2, 6);
        let dist = train(&Cluster::new(1), &ds, &cfg);
        let reference = crate::single::train(&ds, &cfg);
        assert_eq!(dist.model, reference);
    }

    #[test]
    fn matches_qd2_across_workers() {
        // The central claim of the shared code base: identical trees from
        // horizontal and vertical trainers on the same data.
        let ds = dataset(800, 14, 2, 73);
        let cfg = config(2, 5);
        let qd2 = crate::qd2::train(
            &Cluster::new(3),
            &ds,
            &cfg,
            crate::common::Aggregation::AllReduce,
        );
        let qd4 = train(&Cluster::new(3), &ds, &cfg);
        let p2 = qd2.model.predict_dataset_raw(&ds);
        let p4 = qd4.model.predict_dataset_raw(&ds);
        for (a, b) in p2.iter().zip(&p4) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn more_workers_than_features_still_works() {
        let ds = dataset(300, 3, 2, 79);
        let cfg = config(2, 3);
        let result = train(&Cluster::new(5), &ds, &cfg);
        assert_eq!(result.model.trees.len(), 3);
    }

    #[test]
    fn bitmap_traffic_is_independent_of_dimensionality(){
        // Fixed N: doubling D must not grow QD4's per-tree traffic much
        // (only the one-off transform grows).
        let cfg = config(2, 4);
        let mut traffic = Vec::new();
        for d in [20usize, 40] {
            let ds = dataset(600, d, 2, 83);
            // Training bytes = the whole run's minus a transform-only run's
            // (fault-free byte counts are deterministic).
            let cluster = Cluster::new(2);
            let partition = HorizontalPartition::new(ds.n_instances(), 2);
            let tcfg = TransformConfig::default();
            let (_, transform_only) = cluster.run(|ctx| {
                let shard = partition.shard(&ds, ctx.rank());
                horizontal_to_vertical(ctx, &shard, partition, &tcfg).unwrap();
            });
            let whole = train(&cluster, &ds, &cfg).stats.total_bytes_sent();
            let train_bytes = whole - transform_only.total_bytes_sent();
            traffic.push(train_bytes);
        }
        let ratio = traffic[1] as f64 / traffic[0] as f64;
        assert!(
            ratio < 1.5,
            "QD4 training traffic should not scale with D: {traffic:?} (ratio {ratio})"
        );
    }
}
