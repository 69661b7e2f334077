//! QD2 — horizontal partitioning + row-store (LightGBM / DimBoost, §4.1).
//!
//! Each worker holds a row shard in binned row-store form with a
//! node-to-instance index — the `ShardStore` of the one horizontal policy
//! (`horizontal`) — and builds *local* histograms for **all D features**
//! with the histogram subtraction technique; the cluster aggregates them
//! into global histograms — the step whose traffic grows as
//! `Sizehist × W × (2^{L−1} − 1)` per tree and dominates on
//! high-dimensional / deep / multi-class workloads (§3.1.3).
//!
//! The three [`Aggregation`]s mirror the real systems and are one sharded
//! push: all-reduce adds the gather of the reduced segments (then every
//! worker finds every split redundantly); reduce-scatter (LightGBM) and the
//! parameter-server push (DimBoost) have each worker find splits for the
//! feature slice it reduced, then exchange local bests.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::common::{Aggregation, DistTrainResult};
use crate::grow::{add_leaf_values_by_node, smaller_sibling_schedule, BuildStep, Run};
use crate::horizontal::{self, ShardStore};
use crate::vertical::GroupStore;
use gbdt_cluster::Cluster;
use gbdt_core::histogram::HistogramPool;
use gbdt_core::indexes::NodeToInstanceIndex;
use gbdt_core::split::Split;
use gbdt_core::TrainConfig;
use gbdt_data::dataset::Dataset;
use gbdt_data::{BinnedStore, InstanceId};

/// Trains with QD2 on `cluster.world` workers.
pub fn train(
    cluster: &Cluster,
    dataset: &Dataset,
    config: &TrainConfig,
    aggregation: Aggregation,
) -> DistTrainResult {
    horizontal::train(cluster, dataset, config, aggregation, |rows| RowShard {
        index: NodeToInstanceIndex::new(rows.n_rows()),
        rows,
    })
}

/// A row shard in binned row-store form (scanned and looked up through the
/// same [`GroupStore`] impl as QD4's column group) under a node-to-instance
/// index.
struct RowShard {
    rows: BinnedStore,
    index: NodeToInstanceIndex,
}

impl ShardStore for RowShard {
    /// The smaller sibling of every pair (the root alone at layer 0), one
    /// pass each: a pair is built, aggregated, derived and scanned before
    /// the next is built.
    fn passes(&self, run: &Run) -> Vec<Vec<BuildStep>> {
        smaller_sibling_schedule(&run.frontier).into_iter().map(|step| vec![step]).collect()
    }

    fn fill(&self, pool: &mut HistogramPool, pass: &[BuildStep], run: &Run) {
        for step in pass {
            self.rows.fill(pool, step.node, &self.index, run);
        }
    }

    /// The split feature looked up per instance, inside the index's
    /// partition of each node.
    fn split(&mut self, splits: &[(u32, Split)]) -> Vec<f64> {
        let mut counts = Vec::with_capacity(splits.len() * 2);
        for (node, split) in splits {
            let bin = |i: InstanceId| self.rows.get(i as usize, split.feature);
            let (left, right) = self.index.split(*node, |i| match bin(i) {
                Some(b) => b <= split.bin,
                None => split.default_left,
            });
            counts.extend([left as f64, right as f64]);
        }
        counts
    }

    fn add_leaf_values(&self, leaves: &[(u32, &[f64])], scores: &mut [f64]) {
        add_leaf_values_by_node(&self.index, leaves, scores);
    }

    fn end_tree(&mut self) {
        self.index.reset();
    }

    fn data_bytes(&self) -> usize {
        self.rows.heap_bytes()
    }

    fn index_bytes(&self) -> usize {
        self.index.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_core::Objective;
    use gbdt_data::synthetic::SyntheticConfig;

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

    fn config(classes: usize) -> TrainConfig {
        let objective = if classes > 2 {
            Objective::Softmax { n_classes: classes }
        } else {
            Objective::Logistic
        };
        TrainConfig::builder().n_trees(8).n_layers(5).objective(objective).build().unwrap()
    }

    #[test]
    fn learns_with_all_reduce() {
        let ds = dataset(1_200, 15, 2, 41);
        let result = train(&Cluster::new(3), &ds, &config(2), Aggregation::AllReduce);
        let eval = result.model.evaluate(&ds);
        assert!(eval.auc.unwrap() > 0.85, "AUC {:?}", eval.auc);
        assert_eq!(result.per_tree.len(), 8);
        assert!(result.stats.total_bytes_sent() > 0);
    }

    #[test]
    fn learns_with_reduce_scatter() {
        let ds = dataset(1_200, 15, 2, 43);
        let result = train(&Cluster::new(3), &ds, &config(2), Aggregation::ReduceScatter);
        assert!(result.model.evaluate(&ds).auc.unwrap() > 0.85);
    }

    #[test]
    fn aggregation_strategies_agree() {
        let ds = dataset(600, 10, 2, 47);
        let cfg = config(2);
        let cluster = Cluster::new(2);
        let a = train(&cluster, &ds, &cfg, Aggregation::AllReduce);
        let b = train(&cluster, &ds, &cfg, Aggregation::ReduceScatter);
        let c = train(&cluster, &ds, &cfg, Aggregation::ParameterServer);
        // Exact global histogram sums under every aggregation -> the same
        // trees, bit for bit.
        let pa = a.model.predict_dataset_raw(&ds);
        let pb = b.model.predict_dataset_raw(&ds);
        let pc = c.model.predict_dataset_raw(&ds);
        for ((x, y), z) in pa.iter().zip(&pb).zip(&pc) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
            assert_eq!(y.to_bits(), z.to_bits(), "{y} vs {z}");
        }
    }

    #[test]
    fn multiclass_runs() {
        let ds = dataset(900, 12, 4, 53);
        let result = train(&Cluster::new(2), &ds, &config(4), Aggregation::ReduceScatter);
        assert!(result.model.evaluate(&ds).accuracy.unwrap() > 0.4);
    }

    #[test]
    fn single_worker_matches_single_node_reference() {
        let ds = dataset(700, 12, 2, 59);
        let cfg = config(2);
        let dist = train(&Cluster::new(1), &ds, &cfg, Aggregation::AllReduce);
        let reference = crate::single::train(&ds, &cfg);
        assert_eq!(dist.model, reference);
    }
}
