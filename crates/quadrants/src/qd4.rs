//! QD4 — vertical partitioning + row-store: **Vero's trainer** (§4.2.2).
//!
//! After the horizontal-to-vertical transformation each worker holds *all N
//! rows* of its column group, stored row-wise (blockified, two-phase
//! indexed), plus every instance label. Training then:
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

use crate::common::{
    restore_tree_checkpoint, save_tree_checkpoint, subtraction_plan,
    worker_threads, DistTrainResult, Frontier, TreeStat, TreeTracker,
};
use crate::qd2::exchange_local_bests;
use gbdt_cluster::{Cluster, CommError, Phase, WorkerCtx};
use gbdt_core::histogram::HistogramPool;
use gbdt_core::indexes::NodeToInstanceIndex;
use gbdt_core::parallel::{self, Meter};
use gbdt_core::split::{best_split_parallel, NodeStats, Split, SplitParams};
use gbdt_core::tree::{self, Tree};
use gbdt_core::{GbdtModel, GradBuffer, TrainConfig};
use gbdt_data::block::BlockedRows;
use gbdt_data::dataset::Dataset;
use gbdt_data::{DenseBinnedRows, FeatureId};
use gbdt_partition::transform::{horizontal_to_vertical, TransformConfig, TransformOutput};
use gbdt_partition::{HorizontalPartition, PlacementBitmap};

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
    config.validate().expect("invalid training config");
    let partition = HorizontalPartition::new(dataset.n_instances(), cluster.world);
    let (outputs, stats) = cluster.run_recoverable(|ctx| {
        let shard = partition.shard(dataset, ctx.rank());
        let transformed = horizontal_to_vertical(ctx, &shard, partition, transform_cfg)?;
        train_worker_with_options(ctx, transformed, config, options)
    });
    let mut models = Vec::new();
    let mut per_worker_trees = Vec::new();
    for (model, trees) in outputs {
        models.push(model);
        per_worker_trees.push(trees);
    }
    DistTrainResult {
        model: models.swap_remove(0),
        per_tree: crate::common::merge_tree_stats(&per_worker_trees),
        stats,
    }
}

pub(crate) fn train_worker_with_options(
    ctx: &mut WorkerCtx,
    transformed: TransformOutput,
    config: &TrainConfig,
    options: Qd4Options,
) -> Result<(GbdtModel, Vec<TreeStat>), CommError> {
    let TransformOutput { cuts, grouping, local_data, labels, .. } = transformed;
    let rank = ctx.rank();
    let q = config.n_bins;
    let c = config.n_outputs();
    let n = local_data.n_rows();
    let p_local = grouping.group_len(rank);
    let params = SplitParams::from_config(config);
    let objective = config.objective;
    let d_global = grouping.n_features();
    let threads = worker_threads(config, ctx.world());
    let meter = Meter::default();
    ctx.stats.threads = threads as u64;

    // Local column group in the configured layout. When the storage policy
    // selects dense, the packed cells REPLACE the two-phase blocked rows
    // (dropped before the cells are allocated) — histogram scans and
    // placement lookups then run on the dense store with O(1) cell access.
    let local_rows: LocalRows = ctx.time(Phase::Transform, || {
        match config.storage.dense_width(local_data.nnz(), n, p_local, q) {
            Some(width) => {
                let rows = local_data.to_binned_rows();
                drop(local_data);
                LocalRows::Dense(DenseBinnedRows::from_sparse_with_width(&rows, q, width))
            }
            None => LocalRows::Blocked(local_data),
        }
    });

    ctx.stats.data_bytes = (local_rows.heap_bytes() + labels.len() * 4) as u64;

    let mut model = GbdtModel::new(objective, config.learning_rate, d_global);
    let mut scores = vec![0.0f64; n * c];
    for chunk in scores.chunks_mut(c) {
        chunk.copy_from_slice(&model.init_scores);
    }
    let mut grads = GradBuffer::new(n, c);
    let mut index = NodeToInstanceIndex::new(n);
    let mut pool = HistogramPool::new(p_local, q, c);
    ctx.stats.index_bytes = index.heap_bytes() as u64;

    let to_global = |f: FeatureId| grouping.global_id(rank, f);

    let mut tracker = TreeTracker::default();
    tracker.lap(ctx); // exclude transform/setup from the first tree's cost
    let mut per_tree = Vec::with_capacity(config.n_trees);

    let start_tree = restore_tree_checkpoint(ctx, &mut model, &mut scores, &mut per_tree);
    for t in start_tree..config.n_trees {
        // Every worker computes gradients for ALL instances (it has all
        // labels and all rows of its features).
        ctx.time(Phase::Gradients, || objective.compute_gradients(&scores, &labels, &mut grads));
        let mut tree = Tree::new(config.n_layers, c);

        // Root statistics are exact locally — no aggregation needed.
        let mut root_stats = NodeStats::zero(c);
        ctx.time(Phase::Gradients, || {
            let mut g = vec![0.0; c];
            let mut h = vec![0.0; c];
            grads.sum_instances(index.instances(0), &mut g, &mut h);
            root_stats.grads.copy_from_slice(&g);
            root_stats.hesses.copy_from_slice(&h);
        });
        let mut frontier = Frontier::root(root_stats, n as u64);
        let mut leaves: Vec<u32> = Vec::new();

        for layer in 0..config.n_layers {
            ctx.fault_point(t, layer);
            if frontier.nodes.is_empty() {
                break;
            }
            if layer + 1 == config.n_layers {
                for &node in &frontier.nodes {
                    tree.set_leaf_from_stats(
                        node,
                        &frontier.stats[&node],
                        params.lambda,
                        config.learning_rate,
                    );
                    leaves.push(node);
                }
                break;
            }

            // Histogram construction with subtraction, over local features.
            ctx.time(Phase::HistogramBuild, || {
                if layer == 0 {
                    build_histogram(&mut pool, 0, &local_rows, &grads, &index, threads, config.kernel, &meter);
                } else if options.use_subtraction {
                    let mut k = 0;
                    while k < frontier.nodes.len() {
                        let (l, r) = (frontier.nodes[k], frontier.nodes[k + 1]);
                        let (build_left, _) =
                            subtraction_plan(frontier.counts[&l], frontier.counts[&r]);
                        let (b, s) = if build_left { (l, r) } else { (r, l) };
                        build_histogram(&mut pool, b, &local_rows, &grads, &index, threads, config.kernel, &meter);
                        pool.subtract_sibling(tree::parent(l), b, s);
                        k += 2;
                    }
                } else {
                    // Ablation: no subtraction — both children built from
                    // their instances; parent histograms are dropped.
                    for &node in &frontier.nodes {
                        build_histogram(
                            &mut pool,
                            node,
                            &local_rows,
                            &grads,
                            &index,
                            threads,
                            config.kernel,
                            &meter,
                        );
                        let p = tree::parent(node);
                        pool.release(p);
                    }
                }
            });
            ctx.stats.histogram_peak_bytes = pool.peak_bytes() as u64;

            // Local best splits (global feature ids), then exchange.
            let locals: Vec<Option<Split>> = ctx.time(Phase::SplitFind, || {
                frontier
                    .nodes
                    .iter()
                    .map(|&node| {
                        if frontier.counts[&node] < config.min_node_instances as u64 {
                            return None;
                        }
                        best_split_parallel(
                            pool.get(node).expect("histogram live"),
                            &frontier.stats[&node],
                            &params,
                            |f| cuts.n_bins(to_global(f)),
                            to_global,
                            threads,
                        )
                    })
                    .collect()
            });
            let decisions = exchange_local_bests(ctx, &locals)?;

            // Node splitting via owner-computed placement bitmaps.
            let mut next = Frontier::default();
            for (&node, decision) in frontier.nodes.iter().zip(decisions) {
                match decision {
                    Some(split) => {
                        tree.set_internal_with_gain(
                            node,
                            split.feature,
                            split.bin,
                            cuts.threshold(split.feature, split.bin),
                            split.default_left,
                            split.gain,
                        );
                        let owner = grouping.group_of(split.feature);
                        let payload = if rank == owner {
                            let bm = ctx.time(Phase::NodeSplit, || {
                                placement_bitmap(&local_rows, &grouping, &index, node, &split)
                            });
                            bytes::Bytes::from(bm.encode_bytes())
                        } else {
                            bytes::Bytes::new()
                        };
                        let payload = ctx.comm.broadcast(owner, payload)?;
                        let bitmap = PlacementBitmap::decode_bytes(&payload)
                            .expect("owner broadcasts a well-formed bitmap");
                        let (lc, rc) = ctx.time(Phase::NodeSplit, || {
                            // The index visits a node's instances in order;
                            // bit k maps to the k-th instance.
                            let mut k = 0;
                            index.split(node, |_| {
                                let left = bitmap.goes_left(k);
                                k += 1;
                                left
                            })
                        });
                        Frontier::push_children(&mut next, node, &split, lc as u64, rc as u64);
                    }
                    None => {
                        tree.set_leaf_from_stats(
                            node,
                            &frontier.stats[&node],
                            params.lambda,
                            config.learning_rate,
                        );
                        leaves.push(node);
                        pool.release(node);
                    }
                }
            }
            frontier = next;
        }

        // Update scores of every instance from the leaves (identical work on
        // every worker, keeping their states in lockstep).
        ctx.time(Phase::Predict, || {
            for &leaf in &leaves {
                let values = match &tree.node(leaf).expect("leaf set").kind {
                    tree::NodeKind::Leaf { values } => values.clone(),
                    _ => unreachable!("leaves vector only holds leaf nodes"),
                };
                for &i in index.instances(leaf) {
                    let base = i as usize * c;
                    for (k, &v) in values.iter().enumerate() {
                        scores[base + k] += v;
                    }
                }
            }
        });

        pool.release_all();
        index.reset();
        model.trees.push(tree);
        per_tree.push(tracker.lap(ctx));
        save_tree_checkpoint(ctx, &model, &scores, &per_tree);
    }
    ctx.stats.parallel_wall_seconds = meter.wall_seconds();
    ctx.stats.parallel_busy_seconds = meter.busy_seconds();
    Ok((model, per_tree))
}

/// The local column group in whichever layout the storage policy selected:
/// blockified sparse rows (the pre-existing two-phase layout) or packed
/// dense cells.
enum LocalRows {
    Blocked(BlockedRows),
    Dense(DenseBinnedRows),
}

impl LocalRows {
    fn heap_bytes(&self) -> usize {
        match self {
            LocalRows::Blocked(b) => b.heap_bytes(),
            LocalRows::Dense(d) => d.heap_bytes(),
        }
    }
}

/// Builds the placement bitmap for `node` on the worker owning the split
/// feature — two-phase row lookups on the blocked column group, or O(1)
/// cell lookups on the dense layout.
fn placement_bitmap(
    local_rows: &LocalRows,
    grouping: &gbdt_partition::ColumnGrouping,
    index: &NodeToInstanceIndex,
    node: u32,
    split: &Split,
) -> PlacementBitmap {
    let local_feat = grouping.local_id(split.feature);
    let instances = index.instances(node);
    let mut bm = PlacementBitmap::new(instances.len());
    for (k, &inst) in instances.iter().enumerate() {
        let goes_left = match local_rows {
            LocalRows::Dense(dense) => match dense.get(inst as usize, local_feat) {
                Some(b) => b <= split.bin,
                None => split.default_left,
            },
            LocalRows::Blocked(blocked) => {
                let (feats, bins) = blocked.row(inst);
                match feats.binary_search(&local_feat) {
                    Ok(pos) => bins[pos] <= split.bin,
                    Err(_) => split.default_left,
                }
            }
        };
        if goes_left {
            bm.set(k);
        }
    }
    bm
}

#[allow(clippy::too_many_arguments)]
fn build_histogram(
    pool: &mut HistogramPool,
    node: u32,
    local_rows: &LocalRows,
    grads: &GradBuffer,
    index: &NodeToInstanceIndex,
    threads: usize,
    kernel: gbdt_core::Kernel,
    meter: &Meter,
) {
    parallel::build_histogram_chunked(pool, node, index.instances(node), threads, meter, |hist, chunk| {
        match local_rows {
            LocalRows::Dense(dense) => {
                gbdt_core::kernels::fill_dense_rows(hist, chunk, dense, grads, kernel)
            }
            LocalRows::Blocked(blocked) => {
                for &i in chunk {
                    let (g, h) = grads.instance(i as usize);
                    let (feats, bins) = blocked.row(i);
                    for (&f, &b) in feats.iter().zip(bins) {
                        hist.add_instance(f, b, g, h);
                    }
                }
            }
        }
    });
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
            let cluster = Cluster::new(2);
            let partition = HorizontalPartition::new(ds.n_instances(), 2);
            let tcfg = TransformConfig::default();
            let (outputs, stats) = cluster.run(|ctx| {
                let shard = partition.shard(&ds, ctx.rank());
                let transformed =
                    horizontal_to_vertical(ctx, &shard, partition, &tcfg).unwrap();
                let before_train = ctx.comm.counters().bytes_sent;
                let out = train_worker_with_options(ctx, transformed, &cfg, Qd4Options::default())
                    .unwrap();
                (out, ctx.comm.counters().bytes_sent - before_train)
            });
            let train_bytes: u64 = outputs.iter().map(|(_, b)| *b).sum();
            let _ = stats;
            traffic.push(train_bytes);
        }
        let ratio = traffic[1] as f64 / traffic[0] as f64;
        assert!(
            ratio < 1.5,
            "QD4 training traffic should not scale with D: {traffic:?} (ratio {ratio})"
        );
    }
}
