//! QD2 — horizontal partitioning + row-store (LightGBM / DimBoost, §4.1).
//!
//! Each worker holds a row shard in binned row-store form with a
//! node-to-instance index, builds *local* histograms for **all D features**
//! with the histogram subtraction technique, and the cluster aggregates them
//! into global histograms — the step whose traffic grows as
//! `Sizehist × W × (2^{L−1} − 1)` per tree and dominates on
//! high-dimensional / deep / multi-class workloads (§3.1.3).
//!
//! Three aggregation strategies mirror the real systems: ring all-reduce
//! (then every worker finds every split redundantly), feature-sharded
//! reduce-scatter (LightGBM: each worker finds splits for its feature slice,
//! then local bests are exchanged), and the parameter-server push of
//! DimBoost (mechanically the sharded reduction of `gbdt-cluster::ps` with
//! server-side split finding).

use crate::common::{
    all_reduce_counts, all_reduce_root, exchange_local_bests, record_layer_wire_bytes, Aggregation,
    DistTrainResult,
};
use crate::grow::{self, add_leaf_values_by_node, smaller_sibling_schedule, sum_root, Quadrant, Run};
use crate::vertical::GroupStore;
use gbdt_cluster::collectives::segment_bounds;
use gbdt_cluster::{Cluster, CommError, Phase, WorkerCtx};
use gbdt_core::histogram::HistogramPool;
use gbdt_core::indexes::NodeToInstanceIndex;
use gbdt_core::split::{best_split, best_split_in_range, NodeStats, Split};
use gbdt_core::TrainConfig;
use gbdt_data::dataset::Dataset;
use gbdt_data::BinnedStore;
use gbdt_partition::transform::build_global_cuts;
use gbdt_partition::HorizontalPartition;

/// Trains with QD2 on `cluster.world` workers.
pub fn train(
    cluster: &Cluster,
    dataset: &Dataset,
    config: &TrainConfig,
    aggregation: Aggregation,
) -> DistTrainResult {
    let partition = HorizontalPartition::new(dataset.n_instances(), cluster.world);
    grow::run(cluster, config, |ctx| {
        let shard = partition.shard(dataset, ctx.rank());
        let (d, q, c) = (shard.n_features(), config.n_bins, config.n_outputs());
        // Global candidate splits (local sketches merged across the cluster).
        let (cuts, _) = build_global_cuts(ctx, &shard, q, gbdt_core::QuantileSketch::DEFAULT_CAP)?;
        let binned = ctx.time(Phase::Sketch, || cuts.apply_store(&shard, config.storage));
        let (rank, world) = (ctx.rank(), ctx.world());
        let policy = RowShard {
            index: NodeToInstanceIndex::new(binned.n_rows()),
            binned,
            pool: HistogramPool::new(d, q, c),
            aggregation,
            feature_slice: segment_bounds(d, world, rank),
            elem_ranges: (0..world)
                .map(|w| {
                    let (lo, hi) = segment_bounds(d, world, w);
                    (lo * q * c * 2, hi * q * c * 2)
                })
                .collect(),
        };
        grow::train_worker(ctx, policy, &shard.labels, &dataset.labels, &cuts, config)
    })
}

/// A row shard in binned row-store form (scanned and looked up through the
/// same [`GroupStore`] impl as QD4's column group), its node-to-instance
/// index, and local histograms over all D features that `aggregation`
/// makes global.
struct RowShard {
    binned: BinnedStore,
    index: NodeToInstanceIndex,
    pool: HistogramPool,
    aggregation: Aggregation,
    /// The features this worker aggregates and finds splits for under
    /// reduce-scatter / parameter-server aggregation.
    feature_slice: (usize, usize),
    /// Every worker's slice in histogram-element units (feature-aligned).
    elem_ranges: Vec<(usize, usize)>,
}

impl Quadrant for RowShard {
    fn root(&mut self, ctx: &mut WorkerCtx, run: &Run) -> Result<(NodeStats, u64), CommError> {
        let local = sum_root(ctx, run, &self.index);
        all_reduce_root(ctx, local, self.binned.n_rows())
    }

    /// Local histograms of the build set (the smaller siblings), aggregated;
    /// the other sibling is derived by subtraction AFTER aggregation, so
    /// pool histograms are always global.
    fn build(&mut self, ctx: &mut WorkerCtx, run: &Run) -> Result<(), CommError> {
        let steps = smaller_sibling_schedule(&run.frontier);
        ctx.time(Phase::HistogramBuild, || {
            for step in &steps {
                self.binned.fill(&mut self.pool, step.node, &self.index, run);
            }
        });

        // Aggregate local histograms into global ones under the configured
        // wire codec (control traffic stays dense).
        let wire = run.config.wire;
        let wire_before = ctx.comm.counters();
        for step in &steps {
            let hist = self.pool.get_mut(step.node).expect("just built");
            match self.aggregation {
                Aggregation::AllReduce => ctx.comm.all_reduce_f64_codec(wire, hist.as_mut_slice())?,
                Aggregation::ReduceScatter | Aggregation::ParameterServer => {
                    let ranges = &self.elem_ranges;
                    let reduced = ctx.comm.ps_push_and_reduce_codec(wire, hist.as_slice(), ranges)?;
                    let (lo, hi) = ranges[ctx.rank()];
                    hist.as_mut_slice()[lo..hi].copy_from_slice(&reduced);
                }
            }
        }
        record_layer_wire_bytes(ctx, run.layer, wire_before);
        ctx.time(Phase::HistogramBuild, || {
            for step in &steps {
                if let Some((parent, sibling)) = step.derive {
                    self.pool.subtract_sibling(parent, step.node, sibling);
                }
            }
        });
        Ok(())
    }

    fn propose(
        &mut self,
        ctx: &mut WorkerCtx,
        run: &Run,
    ) -> Result<Vec<Option<Split>>, CommError> {
        let hist = |node| self.pool.get(node).expect("histogram live");
        let n_bins = |f| run.cuts.n_bins(f);
        match self.aggregation {
            // Every worker holds the global histograms and finds every
            // split redundantly.
            Aggregation::AllReduce => Ok(run.scan(ctx, |node, stats| {
                best_split(hist(node), stats, &run.params, n_bins, |f| f)
            })),
            // Local best within my feature slice, then exchange.
            Aggregation::ReduceScatter | Aggregation::ParameterServer => {
                let (lo, hi) = self.feature_slice;
                let locals = run.scan(ctx, |node, stats| {
                    best_split_in_range(
                        hist(node),
                        lo as u32..hi as u32,
                        stats,
                        &run.params,
                        n_bins,
                        |f| f,
                    )
                });
                exchange_local_bests(ctx, &locals)
            }
        }
    }

    fn retire(&mut self, node: u32) {
        self.pool.release(node);
    }

    /// Local predicate through the row-store's lookup, inside the index's
    /// partition; then one all-reduce of the child counts of the layer.
    fn apply(
        &mut self,
        ctx: &mut WorkerCtx,
        splits: &[(u32, Split)],
    ) -> Result<Vec<(u64, u64)>, CommError> {
        let mut counts = Vec::with_capacity(splits.len() * 2);
        ctx.time(Phase::NodeSplit, || {
            for (node, split) in splits {
                let (left, right) = self.index.split(*node, |i| {
                    match self.binned.bin(i, split.feature) {
                        Some(b) => b <= split.bin,
                        None => split.default_left,
                    }
                });
                counts.extend([left as f64, right as f64]);
            }
        });
        all_reduce_counts(ctx, counts)
    }

    fn add_leaf_values(&self, leaves: &[(u32, Vec<f64>)], scores: &mut [f64]) {
        add_leaf_values_by_node(&self.index, leaves, scores);
    }

    fn end_tree(&mut self, _ctx: &mut WorkerCtx) {
        self.pool.release_all();
        self.index.reset();
    }

    fn data_bytes(&self) -> usize {
        self.binned.heap_bytes()
    }

    fn index_bytes(&self) -> usize {
        self.index.heap_bytes()
    }

    fn histogram_peak_bytes(&self) -> usize {
        self.pool.peak_bytes()
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
