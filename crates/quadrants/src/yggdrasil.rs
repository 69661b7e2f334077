//! Yggdrasil-style trainer — vertical partitioning + column-store with a
//! **column-wise node-to-instance index** (§4.1, Appendix C).
//!
//! Each worker keeps its columns physically partitioned by tree node
//! (Figure 6), so locating a node's 〈instance, bin〉 pairs on every column is
//! free and histogram construction is a straight sequential read. The
//! partitioned columns are the worker's only copy of its column group: a
//! new tree puts every column back on the root without moving a key. The
//! price is node splitting: every split must repartition **all** local
//! columns — the `O(D)`-fold index-update cost that makes this design "only
//! applicable for low-dimensional datasets" (§3.2.3).
//!
//! Like every vertical trainer, no histogram ever crosses the wire, so
//! [`TrainConfig::wire`] is accepted but has nothing to encode — all wire
//! codecs (including the lossy f32) train the identical ensemble.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::common::DistTrainResult;
use crate::grow::Run;
use crate::vertical::{self, mark_left, GroupStore};
use gbdt_cluster::{Cluster, Phase, WorkerCtx};
use gbdt_core::histogram::{add_instance_to_feature_slice, HistogramPool};
use gbdt_core::indexes::{ColumnWiseIndex, NodeToInstanceIndex};
use gbdt_core::split::Split;
use gbdt_core::TrainConfig;
use gbdt_data::dataset::Dataset;
use gbdt_data::{FeatureId, InstanceId};
use gbdt_partition::transform::TransformConfig;
use gbdt_partition::PlacementBitmap;

/// Trains Yggdrasil-style on `cluster.world` workers.
pub fn train(cluster: &Cluster, dataset: &Dataset, config: &TrainConfig) -> DistTrainResult {
    vertical::train(cluster, dataset, config, &TransformConfig::default(), true, |local_data| {
        // The rows are consumed building the columns, and the columns
        // building the index, so at most two stages are live.
        let columns = config.storage.bin_store(local_data, config.n_bins).to_columns();
        let columns = ColumnWiseIndex::from_store(columns);
        let mask = vec![false; columns.n_rows()];
        NodeColumns { columns, mask }
    })
}

/// The column group, held once: its columns physically partitioned by tree
/// node. The shared node-to-instance index stays the canonical instance
/// order (placement bits, counts, prediction updates).
struct NodeColumns {
    columns: ColumnWiseIndex,
    /// By instance id: which side of the split being applied it goes to.
    mask: Vec<bool>,
}

impl GroupStore for NodeColumns {
    /// Direct sequential reads of each column's node slice — the part this
    /// index is good at.
    fn fill(&self, pool: &mut HistogramPool, node: u32, _index: &NodeToInstanceIndex, run: &Run) {
        let hist = pool.acquire(node);
        let (c, stride) = (hist.n_outputs(), hist.feature_stride());
        for (j, slice) in hist.as_mut_slice().chunks_mut(stride).enumerate() {
            self.columns.for_each_in(node, j, |i, b| {
                let (g, h) = run.grads.instance(i as usize);
                add_instance_to_feature_slice(slice, c, b, g, h);
            });
        }
    }

    /// One read of the node's slice of the split column: every instance of
    /// the node starts on the default side, and each present value moves
    /// its instance to the side its bin picks. No point lookup.
    fn placement(
        &mut self,
        node: u32,
        instances: &[InstanceId],
        feature: FeatureId,
        split: &Split,
    ) -> PlacementBitmap {
        let mask = &mut self.mask;
        for &inst in instances {
            mask[inst as usize] = split.default_left;
        }
        self.columns.for_each_in(node, feature as usize, |inst, bin| {
            mask[inst as usize] = bin <= split.bin;
        });
        PlacementBitmap::from_predicate(instances.len(), |k| mask[instances[k] as usize])
    }

    /// THE expensive step: repartition every column.
    fn partition(&mut self, node: u32, instances: &[InstanceId], bitmap: &PlacementBitmap) {
        mark_left(&mut self.mask, instances, bitmap);
        let mask = &self.mask;
        self.columns.split(node, |i| mask[i as usize]);
    }

    /// Every column back on the root, O(D): no key moves.
    fn end_tree(&mut self, ctx: &mut WorkerCtx) {
        ctx.time(Phase::NodeSplit, || self.columns.reset());
    }

    fn data_bytes(&self) -> usize {
        self.columns.data_bytes()
    }

    fn index_bytes(&self) -> usize {
        self.columns.index_bytes()
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
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }
}
