//! Horizontal partitioning (§3.1, §4.1): one policy, two storages.
//!
//! Every worker holds a row shard of all D features, so its histograms are
//! partial sums: the cluster aggregates every built histogram before any
//! split is found, and the root statistics and child counts are all-reduced
//! too. That traffic — `Sizehist × W` per built node (§3.1.3) — is one term
//! whatever the storage, and the systems differ only in where splits are
//! found: everywhere after an all-reduce, or on each worker's own feature
//! slice after the sharded push, then the local-best exchange
//! ([`Aggregation`]). QD1 and QD2 are this policy over a different
//! [`ShardStore`]: binned columns under an instance-to-node index (one
//! whole-layer scan, no subtraction), or the row-store under a
//! node-to-instance index (the smaller sibling scanned, the other derived
//! after aggregation).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::common::{exchange_local_bests, Aggregation, DistTrainResult};
use crate::grow::{self, sum_root, BuildStep, Quadrant, Run};
use gbdt_cluster::collectives::segment_bounds;
use gbdt_cluster::{Cluster, CommError, Phase, WorkerCtx};
use gbdt_core::histogram::HistogramPool;
use gbdt_core::split::{best_split, best_split_in_range, NodeStats, Split};
use gbdt_core::TrainConfig;
use gbdt_data::dataset::Dataset;
use gbdt_data::BinnedStore;
use gbdt_partition::transform::build_global_cuts;
use gbdt_partition::HorizontalPartition;

/// How a worker stores its row shard and the index over it.
pub(crate) trait ShardStore {
    /// The layer's schedule, in passes: the nodes each pass scans, each
    /// with the sibling it yields by subtraction once aggregated.
    fn passes(&self, run: &Run) -> Vec<Vec<BuildStep>>;

    /// Scans the local histograms of one pass's nodes into `pool`.
    fn fill(&self, pool: &mut HistogramPool, pass: &[BuildStep], run: &Run);

    /// Partitions the index for every split node, in order, and returns the
    /// local `[left, right]` instance counts of each, flattened.
    fn split(&mut self, splits: &[(u32, Split)]) -> Vec<f64>;

    /// [`Quadrant::add_leaf_values`] through the index.
    fn add_leaf_values(&self, leaves: &[(u32, &[f64])], scores: &mut [f64]);

    /// Resets the index for the next tree.
    fn end_tree(&mut self);

    /// Bytes of the stored shard.
    fn data_bytes(&self) -> usize;

    /// Bytes of the index.
    fn index_bytes(&self) -> usize;
}

/// The policy of a worker that holds a row shard: local histograms over
/// every feature, made global by `aggregation`.
struct Horizontal<S> {
    store: S,
    /// Global histograms once a pass is aggregated (over this worker's
    /// feature slice only, when the aggregation is sharded).
    pool: HistogramPool,
    aggregation: Aggregation,
    /// The features this worker aggregates and scans under sharded
    /// aggregation.
    feature_slice: (usize, usize),
    /// Every worker's slice in histogram-element units (feature-aligned).
    elem_ranges: Vec<(usize, usize)>,
}

impl<S: ShardStore> Quadrant for Horizontal<S> {
    fn root(&mut self, ctx: &mut WorkerCtx, run: &Run) -> Result<(NodeStats, u64), CommError> {
        let mut stats = sum_root(ctx, run);
        let c = stats.n_outputs();
        let mut buf = [&stats.grads[..], &stats.hesses[..]].concat();
        ctx.comm.all_reduce_f64(&mut buf)?;
        stats.grads.copy_from_slice(&buf[..c]);
        stats.hesses.copy_from_slice(&buf[c..]);
        let mut count = [run.grads.n_instances() as f64];
        ctx.comm.all_reduce_f64(&mut count)?;
        Ok((stats, count[0] as u64))
    }

    /// Local histograms of the store's schedule, one pass at a time, each
    /// aggregated under the configured wire codec (control traffic stays
    /// dense); siblings are derived AFTER aggregation, so pool histograms
    /// are always global. Every completed node is then scanned: everywhere
    /// after an all-reduce, within this worker's feature slice (then the
    /// local-best exchange) after the sharded push.
    fn find_splits(
        &mut self,
        ctx: &mut WorkerCtx,
        run: &Run,
    ) -> Result<Vec<Option<Split>>, CommError> {
        let (wire, aggregation) = (run.config.wire, self.aggregation);
        let (lo, hi) = self.feature_slice;
        let n_bins = |f| run.cuts.n_bins(f);
        let mut locals = vec![None; run.frontier.nodes.len()];
        let before = ctx.comm.counters();
        for pass in self.store.passes(run) {
            ctx.time(Phase::HistogramBuild, || self.store.fill(&mut self.pool, &pass, run));
            for step in &pass {
                #[expect(clippy::expect_used, reason = "the fill just built every node of `pass`")]
                let hist = self.pool.get_mut(step.node).expect("just built").as_mut_slice();
                match aggregation {
                    Aggregation::AllReduce => ctx.comm.all_reduce_f64_codec(wire, hist)?,
                    Aggregation::ReduceScatter | Aggregation::ParameterServer => {
                        let reduced =
                            ctx.comm.ps_push_and_reduce_codec(wire, hist, &self.elem_ranges)?;
                        let (lo, hi) = self.elem_ranges[ctx.rank()];
                        hist[lo..hi].copy_from_slice(&reduced);
                    }
                }
            }
            for step in &pass {
                if let Some((parent, sibling)) = step.derive {
                    ctx.time(Phase::HistogramBuild, || {
                        self.pool.subtract_sibling(parent, step.node, sibling)
                    });
                }
                run.scan_step(ctx, &mut self.pool, step, &mut locals, |hist, stats| {
                    match aggregation {
                        Aggregation::AllReduce => {
                            best_split(hist, stats, &run.params, n_bins, |f| f)
                        }
                        Aggregation::ReduceScatter | Aggregation::ParameterServer => {
                            let features = lo as u32..hi as u32;
                            best_split_in_range(hist, features, stats, &run.params, n_bins, |f| f)
                        }
                    }
                });
            }
        }
        let now = ctx.comm.counters();
        ctx.stats.record_layer_bytes(
            run.layer,
            now.logical_f64_bytes - before.logical_f64_bytes,
            now.wire_f64_bytes - before.wire_f64_bytes,
        );
        match aggregation {
            // Every worker holds the global histograms and found every
            // split redundantly.
            Aggregation::AllReduce => Ok(locals),
            Aggregation::ReduceScatter | Aggregation::ParameterServer => {
                exchange_local_bests(ctx, run, &locals)
            }
        }
    }

    fn retire(&mut self, node: u32) {
        self.pool.release(node);
    }

    /// The store's local partition, then one all-reduce of the child counts
    /// of the layer.
    fn apply(
        &mut self,
        ctx: &mut WorkerCtx,
        splits: &[(u32, Split)],
    ) -> Result<Vec<(u64, u64)>, CommError> {
        let mut counts = ctx.time(Phase::NodeSplit, || self.store.split(splits));
        ctx.comm.all_reduce_f64(&mut counts)?;
        Ok(counts.chunks(2).map(|lr| (lr[0] as u64, lr[1] as u64)).collect())
    }

    fn add_leaf_values(&self, leaves: &[(u32, &[f64])], scores: &mut [f64]) {
        self.store.add_leaf_values(leaves, scores);
    }

    fn end_tree(&mut self, _ctx: &mut WorkerCtx) {
        self.pool.release_all();
        self.store.end_tree();
    }

    fn data_bytes(&self) -> usize {
        self.store.data_bytes()
    }

    fn index_bytes(&self) -> usize {
        self.store.index_bytes()
    }

    fn histogram_peak_bytes(&self) -> usize {
        self.pool.peak_bytes()
    }
}

/// Trains a horizontal quadrant: shard → global cuts (local sketches
/// merged across the cluster) → `store` (which consumes the binned row
/// shard) → the growth loop.
pub(crate) fn train<S: ShardStore>(
    cluster: &Cluster,
    dataset: &Dataset,
    config: &TrainConfig,
    aggregation: Aggregation,
    store: impl Fn(BinnedStore) -> S + Sync,
) -> DistTrainResult {
    let partition = HorizontalPartition::new(dataset.n_instances(), cluster.world);
    grow::run(cluster, config, |ctx| {
        let shard = partition.shard(dataset, ctx.rank());
        let (d, q, c) = (shard.n_features(), config.n_bins, config.n_outputs());
        let (cuts, _) = build_global_cuts(ctx, &shard, q, gbdt_core::QuantileSketch::DEFAULT_CAP)?;
        let store = ctx.time(Phase::Sketch, || store(cuts.apply_store(&shard, config.storage)));
        let (rank, world) = (ctx.rank(), ctx.world());
        let policy = Horizontal {
            store,
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
