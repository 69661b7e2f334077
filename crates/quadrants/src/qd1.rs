//! QD1 — horizontal partitioning + column-store (XGBoost, §4.1).
//!
//! Each worker stores its row shard as binned *columns* and maintains an
//! **instance-to-node** index: the `ShardStore` of the one horizontal
//! policy (`horizontal`), which owns the aggregation and the split scan.
//! Histograms for a whole layer are built in one linear pass over the
//! columns — for every 〈instance, bin〉 pair the instance's current node is
//! looked up and the gradient lands in that node's histogram. The index
//! cannot enumerate a node's instances, so QD1 **cannot exploit histogram
//! subtraction** (§3.2.3): every layer rescans all local pairs, and both
//! children of every split are built from scratch. Aggregation is
//! all-reduce, after which every worker finds every split redundantly (the
//! leader-based variant has identical traffic shape). Node splitting is the
//! same kind of pass: one scan of the index moves the whole layer.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::common::{Aggregation, DistTrainResult};
use crate::grow::{every_node_schedule, BuildStep, Run};
use crate::horizontal::{self, ShardStore};
use gbdt_cluster::Cluster;
use gbdt_core::histogram::{add_instance_to_feature_slice, HistogramPool};
use gbdt_core::indexes::InstanceToNodeIndex;
use gbdt_core::split::Split;
use gbdt_core::TrainConfig;
use gbdt_data::dataset::Dataset;
use gbdt_data::{ColumnStore, InstanceId};

/// Trains with QD1 on `cluster.world` workers.
pub fn train(cluster: &Cluster, dataset: &Dataset, config: &TrainConfig) -> DistTrainResult {
    horizontal::train(cluster, dataset, config, Aggregation::AllReduce, |rows| {
        let columns = rows.to_columns();
        ColumnShard { index: InstanceToNodeIndex::new(columns.n_rows()), columns }
    })
}

/// A row shard stored as binned columns under an instance-to-node index.
struct ColumnShard {
    columns: ColumnStore,
    index: InstanceToNodeIndex,
}

impl ShardStore for ColumnShard {
    /// One pass for the WHOLE layer: no subtraction, every node scanned.
    fn passes(&self, run: &Run) -> Vec<Vec<BuildStep>> {
        vec![every_node_schedule(&run.frontier)]
    }

    /// One linear pass over the columns builds the histograms of the pass's
    /// nodes — every pair of the shard is touched: each 〈instance, bin〉
    /// pair is routed to its instance's current node, columns ascending and
    /// each column's pairs in stored order. The live set is the pass and
    /// nothing else.
    fn fill(&self, pool: &mut HistogramPool, pass: &[BuildStep], run: &Run) {
        pool.release_all();
        for step in pass {
            pool.acquire(step.node);
        }
        let (columns, index) = (&self.columns, &self.index);
        let c = run.config.n_outputs();
        let stride = run.config.n_bins * c * 2;
        // slots[k] is the histogram of node `layer_base + k`, if it is built.
        let layer_base = (1u32 << run.layer) - 1;
        let mut slots: Vec<Option<&mut [f64]>> = (0..1usize << run.layer).map(|_| None).collect();
        for (node, hist) in pool.live_mut() {
            slots[(node - layer_base) as usize] = Some(hist.as_mut_slice());
        }
        for j in 0..columns.n_features() {
            let off = j * stride;
            columns.for_each_in_col(j, |i, b| {
                let node = index.node_of(i);
                if node < layer_base {
                    return; // instance settled on an earlier leaf
                }
                if let Some(hist) = slots[(node - layer_base) as usize].as_mut() {
                    let (g, h) = run.grads.instance(i as usize);
                    add_instance_to_feature_slice(&mut hist[off..], c, b, g, h);
                }
            });
        }
    }

    /// One pass over each split feature's column places the present
    /// instances; one scan of the index then moves the whole layer, absent
    /// instances to their split's default side.
    fn split(&mut self, splits: &[(u32, Split)]) -> Vec<f64> {
        let (columns, index) = (&self.columns, &mut self.index);
        let mut placed = vec![None; columns.n_rows()];
        for (node, split) in splits {
            columns.for_each_in_col(split.feature as usize, |i, b| {
                if index.node_of(i) == *node {
                    placed[i as usize] = Some(b <= split.bin);
                }
            });
        }
        let nodes: Vec<u32> = splits.iter().map(|(node, _)| *node).collect();
        index
            .split_layer(&nodes, |i, k| placed[i as usize].unwrap_or(splits[k].1.default_left))
            .into_iter()
            .flat_map(|(l, r)| [l as f64, r as f64])
            .collect()
    }

    fn add_leaf_values(&self, leaves: &[(u32, &[f64])], scores: &mut [f64]) {
        let leaf_values: std::collections::BTreeMap<u32, &[f64]> =
            leaves.iter().copied().collect();
        for i in 0..self.columns.n_rows() {
            let values = leaf_values[&self.index.node_of(i as InstanceId)];
            let base = i * values.len();
            for (k, &v) in values.iter().enumerate() {
                scores[base + k] += v;
            }
        }
    }

    fn end_tree(&mut self) {
        self.index.reset();
    }

    fn data_bytes(&self) -> usize {
        self.columns.heap_bytes()
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
        let ds = dataset(1_200, 15, 2, 101);
        let result = train(&Cluster::new(3), &ds, &config(2, 8));
        assert!(result.model.evaluate(&ds).auc.unwrap() > 0.85);
    }

    #[test]
    fn matches_qd2_across_workers() {
        // Same W implies identical merged sketches, hence identical cuts and
        // identical trees. (Comparing W > 1 against the single-node trainer
        // is NOT expected to be exact: sketch merging produces slightly
        // different — equally valid — candidate splits than single-pass
        // sketching; qd2's W = 1 test covers the single-node equivalence.)
        let ds = dataset(800, 14, 2, 103);
        let cfg = config(2, 5);
        let qd1 = train(&Cluster::new(2), &ds, &cfg);
        let qd2 = crate::qd2::train(&Cluster::new(2), &ds, &cfg, Aggregation::AllReduce);
        let p1 = qd1.model.predict_dataset_raw(&ds);
        let p2 = qd2.model.predict_dataset_raw(&ds);
        for (a, b) in p1.iter().zip(&p2) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn multiclass_runs() {
        let ds = dataset(900, 12, 4, 107);
        let result = train(&Cluster::new(2), &ds, &config(4, 6));
        assert!(result.model.evaluate(&ds).accuracy.unwrap() > 0.4);
    }

    #[test]
    fn no_subtraction_means_more_histogram_traffic_than_qd2() {
        // QD1 aggregates histograms for BOTH children of every split; QD2
        // aggregates only the built (smaller) child. Same all-reduce, so
        // QD1's traffic must exceed QD2's.
        let ds = dataset(800, 20, 2, 109);
        let cfg = config(2, 4);
        let qd1 = train(&Cluster::new(2), &ds, &cfg);
        let qd2 = crate::qd2::train(&Cluster::new(2), &ds, &cfg, Aggregation::AllReduce);
        assert!(
            qd1.stats.total_bytes_sent() > qd2.stats.total_bytes_sent(),
            "QD1 {} vs QD2 {}",
            qd1.stats.total_bytes_sent(),
            qd2.stats.total_bytes_sent()
        );
    }
}
