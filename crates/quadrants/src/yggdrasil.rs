//! Yggdrasil-style trainer — vertical partitioning + column-store with a
//! **column-wise node-to-instance index** (§4.1, Appendix C).
//!
//! Each worker keeps its columns physically partitioned by tree node
//! (Figure 6), so locating a node's 〈instance, bin〉 pairs on every column is
//! free and histogram construction is a straight sequential read. The price
//! is node splitting: every split must repartition **all** local columns —
//! the `O(D)`-fold index-update cost that makes this design "only applicable
//! for low-dimensional datasets" (§3.2.3).
//!
//! Like every vertical trainer, no histogram ever crosses the wire, so
//! [`TrainConfig::wire`] is accepted but has nothing to encode — all wire
//! codecs (including the lossy f32) train the identical ensemble.

use crate::common::DistTrainResult;
use crate::grow::Run;
use crate::vertical::{self, mark_left, GroupStore};
use gbdt_cluster::{Cluster, Phase, WorkerCtx};
use gbdt_core::histogram::{add_instance_to_feature_slice, HistogramPool};
use gbdt_core::indexes::{ColumnWiseIndex, NodeToInstanceIndex};
use gbdt_core::parallel::par_feature_fill;
use gbdt_core::TrainConfig;
use gbdt_data::dataset::Dataset;
use gbdt_data::{BinId, ColumnStore, FeatureId, InstanceId};
use gbdt_partition::transform::TransformConfig;
use gbdt_partition::PlacementBitmap;

/// Trains Yggdrasil-style on `cluster.world` workers.
pub fn train(cluster: &Cluster, dataset: &Dataset, config: &TrainConfig) -> DistTrainResult {
    vertical::train(cluster, dataset, config, &TransformConfig::default(), true, |local_data| {
        // The rows are consumed building the columns, as in QD3.
        let columns = config.storage.bin_store(local_data, config.n_bins).to_columns();
        let cw_index = ColumnWiseIndex::from_store(&columns);
        let scratch_left = vec![false; columns.n_rows()];
        NodeColumns { columns, cw_index, scratch_left }
    })
}

/// The column group, and the same columns physically partitioned by tree
/// node. The shared node-to-instance index stays the canonical instance
/// order (placement bits, counts, prediction updates).
struct NodeColumns {
    /// Kept for the whole run: every tree rebuilds `cw_index` from it, and
    /// placements look the split feature up in it.
    columns: ColumnStore,
    cw_index: ColumnWiseIndex,
    scratch_left: Vec<bool>,
}

impl GroupStore for NodeColumns {
    /// Direct sequential reads of each column's node slice — the part this
    /// index is good at.
    fn fill(&self, pool: &mut HistogramPool, node: u32, _index: &NodeToInstanceIndex, run: &Run) {
        let hist = pool.acquire(node);
        let c = hist.n_outputs();
        // Whole columns fan out across threads; each feature's region is
        // disjoint and read in the sequential node-slice order, so the
        // result is bit-identical for every thread count.
        par_feature_fill(hist, run.threads, &run.meter, |j, slice| {
            let (insts, bins) = self.cw_index.node_column(node, j);
            for (&i, &b) in insts.iter().zip(bins) {
                let (g, h) = run.grads.instance(i as usize);
                add_instance_to_feature_slice(slice, c, b, g, h);
            }
        });
    }

    /// A point lookup in the kept column, as QD3 does.
    fn bin(&self, instance: InstanceId, feature: FeatureId) -> Option<BinId> {
        self.columns.get(instance as usize, feature)
    }

    /// THE expensive step: repartition every column.
    fn partition(&mut self, node: u32, instances: &[InstanceId], bitmap: &PlacementBitmap) {
        mark_left(&mut self.scratch_left, instances, bitmap);
        let mask = &self.scratch_left;
        self.cw_index.split(node, |i| mask[i as usize]);
    }

    fn end_tree(&mut self, ctx: &mut WorkerCtx) {
        ctx.time(Phase::NodeSplit, || self.cw_index.reset_from_store(&self.columns));
    }

    fn data_bytes(&self) -> usize {
        self.columns.heap_bytes()
    }

    fn index_bytes(&self) -> usize {
        self.cw_index.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_data::synthetic::SyntheticConfig;

    fn dataset(n: usize, d: usize, seed: u64) -> Dataset {
        SyntheticConfig {
            n_instances: n,
            n_features: d,
            n_classes: 2,
            density: 0.5,
            label_noise: 0.02,
            seed,
            ..Default::default()
        }
        .generate()
    }

    fn config(trees: usize) -> TrainConfig {
        TrainConfig::builder().n_trees(trees).n_layers(5).build().unwrap()
    }

    #[test]
    fn learns_binary() {
        let ds = dataset(1_000, 12, 149);
        let result = train(&Cluster::new(2), &ds, &config(8));
        assert!(result.model.evaluate(&ds).auc.unwrap() > 0.85);
    }

    #[test]
    fn matches_qd4_predictions() {
        let ds = dataset(700, 10, 151);
        let cfg = config(5);
        let ygg = train(&Cluster::new(2), &ds, &cfg);
        let qd4 = crate::qd4::train(&Cluster::new(2), &ds, &cfg);
        let py = ygg.model.predict_dataset_raw(&ds);
        let p4 = qd4.model.predict_dataset_raw(&ds);
        for (a, b) in py.iter().zip(&p4) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}
