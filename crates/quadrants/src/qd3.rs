//! QD3 — vertical partitioning + column-store (the Yggdrasil quadrant,
//! implemented with the paper's §5.2.2 "index plan").
//!
//! Storage is per-feature columns of 〈instance, bin〉 pairs. Histogram
//! construction uses the hybrid the paper found fastest for this quadrant
//! (Appendix C): per (node, column) choose between
//!
//! * a **linear scan** of the whole column filtered by an instance-to-node
//!   lookup (cheap when the column is short), and
//! * **binary searches** of the column for each of the node's instances
//!   from the node-to-instance index (cheap when the node is small) — the
//!   `O(log N)` per-access cost and branch-misprediction churn the paper
//!   blames for QD3's 3–4× computation gap and its high per-tree variance.
//!
//! Communication is identical to QD4 (local best splits + placement
//! bitmaps): the two quadrants differ *only* in storage, which is exactly
//! the §5.2.2 controlled comparison. Neither ships histogram payloads, so
//! [`TrainConfig::wire`] is accepted but has nothing to encode here — all
//! wire codecs (including the lossy f32) train the identical ensemble.

use crate::common::DistTrainResult;
use crate::grow::Run;
use crate::vertical::{self, mark_left, GroupStore};
use gbdt_cluster::{Cluster, WorkerCtx};
use gbdt_core::histogram::{add_instance_to_feature_slice, HistogramPool};
use gbdt_core::indexes::{InstanceToNodeIndex, NodeToInstanceIndex};
use gbdt_core::parallel::par_feature_fill;
use gbdt_core::TrainConfig;
use gbdt_data::dataset::Dataset;
use gbdt_data::{BinId, ColumnStore, FeatureId, InstanceId};
use gbdt_partition::transform::TransformConfig;
use gbdt_partition::PlacementBitmap;

/// Trains with QD3 on `cluster.world` workers (shard → transform → train).
pub fn train(cluster: &Cluster, dataset: &Dataset, config: &TrainConfig) -> DistTrainResult {
    vertical::train(cluster, dataset, config, &TransformConfig::default(), true, |local_data| {
        // Column-store of the local feature group, in the configured layout.
        // Each stage of rows → row layout → columns is consumed building the
        // next, so at most two are live and only the columns outlive this.
        let columns = config.storage.bin_store(local_data, config.n_bins).to_columns();
        let n = columns.n_rows();
        HybridColumns {
            columns,
            inst_to_node: InstanceToNodeIndex::new(n),
            scratch_left: vec![false; n],
        }
    })
}

/// Per-feature columns plus the instance-to-node index the linear scans
/// filter by (the shared node-to-instance index drives the point lookups).
struct HybridColumns {
    columns: ColumnStore,
    inst_to_node: InstanceToNodeIndex,
    scratch_left: Vec<bool>,
}

impl GroupStore for HybridColumns {
    /// Hybrid per-(node, column) histogram construction: linear column scan
    /// with instance-to-node filtering vs per-instance binary search,
    /// whichever the cost model predicts cheaper.
    fn fill(&self, pool: &mut HistogramPool, node: u32, index: &NodeToInstanceIndex, run: &Run) {
        let (columns, grads) = (&self.columns, &run.grads);
        let node_count = index.count(node);
        let hist = pool.acquire(node);
        let c = hist.n_outputs();
        // Whole columns fan out across threads: each feature's histogram
        // region is disjoint and filled in the sequential per-column order,
        // so the result is bit-identical for every thread count. Both paths
        // visit the node's present values in ascending instance order
        // (columns store instances ascending; node instance lists stay
        // ascending across splits), so the cost-model choice never changes
        // the accumulated bits — on either storage layout.
        par_feature_fill(hist, run.threads, &run.meter, |j, slice| {
            let (cost_linear, cost_binary) = if columns.is_dense() {
                // Dense: linear scan touches every cell; point lookups are O(1).
                (columns.n_rows(), node_count)
            } else {
                let len = columns.col_nnz(j);
                let log_len = usize::BITS - len.next_power_of_two().leading_zeros();
                (len, node_count * log_len as usize)
            };
            if cost_linear <= cost_binary {
                // Linear scan: touch every pair, keep only this node's.
                columns.for_each_in_col(j, |i, b| {
                    if self.inst_to_node.node_of(i) == node {
                        let (g, h) = grads.instance(i as usize);
                        add_instance_to_feature_slice(slice, c, b, g, h);
                    }
                });
            } else {
                // Point lookup per node instance — binary search on the sparse
                // layout (the log(N) access path), O(1) on the dense layout.
                for &i in index.instances(node) {
                    if let Some(b) = columns.get(i as usize, j as FeatureId) {
                        let (g, h) = grads.instance(i as usize);
                        add_instance_to_feature_slice(slice, c, b, g, h);
                    }
                }
            }
        });
    }

    /// Binary search of the column on the sparse layout, O(1) on the dense.
    fn bin(&self, instance: InstanceId, feature: FeatureId) -> Option<BinId> {
        self.columns.get(instance as usize, feature)
    }

    fn partition(&mut self, node: u32, instances: &[InstanceId], bitmap: &PlacementBitmap) {
        mark_left(&mut self.scratch_left, instances, bitmap);
        let mask = &self.scratch_left;
        self.inst_to_node.split(node, |i| mask[i as usize]);
    }

    fn end_tree(&mut self, _ctx: &mut WorkerCtx) {
        self.inst_to_node.reset();
    }

    fn data_bytes(&self) -> usize {
        self.columns.heap_bytes()
    }

    fn index_bytes(&self) -> usize {
        self.inst_to_node.heap_bytes()
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
        let ds = dataset(1_200, 15, 2, 131);
        let result = train(&Cluster::new(3), &ds, &config(2, 8));
        assert!(result.model.evaluate(&ds).auc.unwrap() > 0.85);
    }

    #[test]
    fn matches_qd4_exactly_in_structure() {
        // Same vertical partitioning, same histograms (column-store scans
        // add the same values in instance order) -> same ensembles.
        let ds = dataset(800, 14, 2, 137);
        let cfg = config(2, 5);
        let qd3 = train(&Cluster::new(3), &ds, &cfg);
        let qd4 = crate::qd4::train(&Cluster::new(3), &ds, &cfg);
        let p3 = qd3.model.predict_dataset_raw(&ds);
        let p4 = qd4.model.predict_dataset_raw(&ds);
        for (a, b) in p3.iter().zip(&p4) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn multiclass_runs() {
        let ds = dataset(900, 12, 4, 139);
        let result = train(&Cluster::new(2), &ds, &config(4, 6));
        assert!(result.model.evaluate(&ds).accuracy.unwrap() > 0.4);
    }
}
