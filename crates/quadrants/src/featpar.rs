//! LightGBM's feature-parallel mode (Appendix D).
//!
//! The dataset is **never partitioned**: every worker loads a full copy.
//! Histogram construction and split finding proceed as in vertical
//! partitioning (each worker covers a feature subset and local bests are
//! exchanged), but node splitting needs no placement broadcast — every
//! worker owns every feature and computes placements locally. The paper's
//! verdict: fast on small data (no histogram aggregation, no bitmap
//! traffic) but "impractical for large-scale workloads" because per-worker
//! memory holds the entire dataset — which our `data_bytes` gauge reports.
//! With no histogram aggregation there is nothing for [`TrainConfig::wire`]
//! to encode: every codec (including the lossy f32) trains the identical
//! ensemble here.

use crate::common::DistTrainResult;
use crate::grow::{self, Run};
use crate::vertical::{placement_by, GroupStore, Vertical};
use gbdt_cluster::{Cluster, CommError, Phase, WorkerCtx};
use gbdt_core::histogram::HistogramPool;
use gbdt_core::indexes::NodeToInstanceIndex;
use gbdt_core::split::Split;
use gbdt_core::{BinCuts, TrainConfig};
use gbdt_data::dataset::Dataset;
use gbdt_data::{BinId, BinnedStore, FeatureId, InstanceId};
use gbdt_partition::{ColumnGrouping, GroupingStrategy, PlacementBitmap};

/// Trains feature-parallel on `cluster.world` workers (full replica each).
pub fn train(cluster: &Cluster, dataset: &Dataset, config: &TrainConfig) -> DistTrainResult {
    grow::run(cluster, config, |ctx| {
        let (rank, world) = (ctx.rank(), ctx.world());
        let (d, n, q) = (dataset.n_features(), dataset.n_instances(), config.n_bins);
        // With a full replica everywhere, cuts and grouping are computed
        // identically and locally on every worker — no sketch repartition.
        let cuts = ctx.time(Phase::Sketch, || BinCuts::from_dataset(dataset, q));
        let full = ctx.time(Phase::Sketch, || cuts.apply_store(dataset, config.storage));
        let grouping = ctx.time(Phase::Sketch, || {
            let mut weights = vec![0u64; d];
            for i in 0..n {
                full.for_each_in_row(i, |j, _| weights[j as usize] += 1);
            }
            ColumnGrouping::build(GroupingStrategy::GreedyBalanced, d, world, &weights)
        });
        // Per-worker feature-subset view (same layout) for histogram building.
        let local = ctx.time(Phase::Sketch, || full.select_cols(grouping.group_features(rank)));
        let policy = Vertical {
            store: Replica { full, local },
            index: NodeToInstanceIndex::new(n),
            pool: HistogramPool::new(grouping.group_len(rank), q, config.n_outputs()),
            grouping,
            n_rows: n,
            use_subtraction: true,
        };
        grow::train_worker(ctx, policy, &dataset.labels, &cuts, config)
    })
}

/// The replicated case of the vertical policy: the worker answers for one
/// feature group (`local`, group-local ids) but holds every feature (`full`,
/// global ids) — the defining cost, which `data_bytes` reports.
struct Replica {
    full: BinnedStore,
    local: BinnedStore,
}

/// The group view answers for the group, exactly as QD4's row-store does.
impl GroupStore for Replica {
    fn fill(&self, pool: &mut HistogramPool, node: u32, index: &NodeToInstanceIndex, run: &Run) {
        self.local.fill(pool, node, index, run);
    }

    fn bin(&self, instance: InstanceId, feature: FeatureId) -> Option<BinId> {
        self.local.bin(instance, feature)
    }

    /// Node splitting is LOCAL: the full replica answers every feature
    /// lookup, by global id — no bitmap broadcast (Appendix D).
    fn place(
        &self,
        ctx: &mut WorkerCtx,
        _grouping: &ColumnGrouping,
        instances: &[InstanceId],
        split: &Split,
    ) -> Result<PlacementBitmap, CommError> {
        Ok(ctx.time(Phase::NodeSplit, || {
            placement_by(instances, split, |inst| self.full.bin(inst, split.feature))
        }))
    }

    fn data_bytes(&self) -> usize {
        self.full.heap_bytes() + self.local.heap_bytes()
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
        let ds = dataset(1_000, 12, 163);
        let result = train(&Cluster::new(3), &ds, &config(8));
        assert!(result.model.evaluate(&ds).auc.unwrap() > 0.85);
    }

    #[test]
    fn matches_single_node_reference() {
        // Full replica + local cuts = exactly the single-node computation,
        // just with split finding sharded.
        let ds = dataset(700, 10, 167);
        let cfg = config(5);
        let fp = train(&Cluster::new(3), &ds, &cfg);
        let single = crate::single::train(&ds, &cfg);
        let pf = fp.model.predict_dataset_raw(&ds);
        let ps = single.predict_dataset_raw(&ds);
        for (a, b) in pf.iter().zip(&ps) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn memory_holds_full_dataset_per_worker() {
        let ds = dataset(500, 10, 173);
        let result = train(&Cluster::new(4), &ds, &config(2));
        // Every worker's data_bytes covers the full dataset, unlike the
        // partitioned quadrants where shards shrink with W.
        let full_bytes = result.stats.workers[0].data_bytes;
        for w in &result.stats.workers {
            assert!(w.data_bytes >= full_bytes * 9 / 10);
        }
        let qd4 = crate::qd4::train(&Cluster::new(4), &ds, &config(2));
        assert!(
            result.stats.max_data_bytes() > qd4.stats.max_data_bytes(),
            "replica {} should exceed vertical shard {}",
            result.stats.max_data_bytes(),
            qd4.stats.max_data_bytes()
        );
    }

    #[test]
    fn no_placement_broadcast_traffic() {
        // Feature-parallel sends only sketches/splits; per-tree traffic
        // must be far below QD4's bitmap broadcasts for the same shape.
        let ds = dataset(2_000, 10, 179);
        let cfg = config(6);
        let fp = train(&Cluster::new(2), &ds, &cfg);
        let qd4 = crate::qd4::train(&Cluster::new(2), &ds, &cfg);
        assert!(
            fp.stats.total_bytes_sent() < qd4.stats.total_bytes_sent(),
            "FP {} vs QD4 {}",
            fp.stats.total_bytes_sent(),
            qd4.stats.total_bytes_sent()
        );
    }
}
