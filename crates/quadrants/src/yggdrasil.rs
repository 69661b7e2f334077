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

use crate::common::{
    column_group_store, restore_tree_checkpoint, save_tree_checkpoint, subtraction_plan,
    worker_threads, DistTrainResult, Frontier, TreeStat, TreeTracker,
};
use crate::qd2::exchange_local_bests;
use gbdt_cluster::{Cluster, CommError, Phase, WorkerCtx};
use gbdt_core::histogram::{add_instance_to_feature_slice, HistogramPool};
use gbdt_core::indexes::{ColumnWiseIndex, NodeToInstanceIndex};
use gbdt_core::parallel::{par_feature_fill, Meter};
use gbdt_core::split::{best_split_parallel, NodeStats, Split, SplitParams};
use gbdt_core::tree::{self, Tree};
use gbdt_core::{GbdtModel, GradBuffer, TrainConfig};
use gbdt_data::dataset::Dataset;
use gbdt_data::{ColumnStore, FeatureId};
use gbdt_partition::transform::{horizontal_to_vertical, TransformConfig, TransformOutput};
use gbdt_partition::{HorizontalPartition, PlacementBitmap};

/// Trains Yggdrasil-style on `cluster.world` workers.
pub fn train(cluster: &Cluster, dataset: &Dataset, config: &TrainConfig) -> DistTrainResult {
    config.validate().expect("invalid training config");
    let partition = HorizontalPartition::new(dataset.n_instances(), cluster.world);
    let transform_cfg = TransformConfig::default();
    let (outputs, stats) = cluster.run_recoverable(|ctx| {
        let shard = partition.shard(dataset, ctx.rank());
        let transformed = horizontal_to_vertical(ctx, &shard, partition, &transform_cfg)?;
        train_worker(ctx, transformed, config)
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

fn train_worker(
    ctx: &mut WorkerCtx,
    transformed: TransformOutput,
    config: &TrainConfig,
) -> Result<(GbdtModel, Vec<TreeStat>), CommError> {
    let TransformOutput { cuts, grouping, local_data, labels, .. } = transformed;
    let rank = ctx.rank();
    let q = config.n_bins;
    let c = config.n_outputs();
    let n = local_data.n_rows();
    let p_local = grouping.group_len(rank);
    let params = SplitParams::from_config(config);
    let objective = config.objective;
    let threads = worker_threads(config, ctx.world());
    let meter = Meter::default();
    ctx.stats.threads = threads as u64;

    let columns: ColumnStore = ctx.time(Phase::Transform, || {
        column_group_store(local_data, config.storage, q)
    });
    let mut cw_index = ctx.time(Phase::Transform, || ColumnWiseIndex::from_store(&columns));
    ctx.stats.data_bytes = (columns.heap_bytes() + labels.len() * 4) as u64;

    let mut model = GbdtModel::new(objective, config.learning_rate, grouping.n_features());
    let mut scores = vec![0.0f64; n * c];
    for chunk in scores.chunks_mut(c) {
        chunk.copy_from_slice(&model.init_scores);
    }
    let mut grads = GradBuffer::new(n, c);
    // Auxiliary plain index for canonical instance ordering, counts, and
    // prediction updates (identical across workers).
    let mut index = NodeToInstanceIndex::new(n);
    let mut pool = HistogramPool::new(p_local, q, c);
    ctx.stats.index_bytes = (index.heap_bytes() + cw_index.heap_bytes()) as u64;

    let to_global = |f: FeatureId| grouping.global_id(rank, f);
    let mut scratch_left = vec![false; n];

    let mut tracker = TreeTracker::default();
    tracker.lap(ctx);
    let mut per_tree = Vec::with_capacity(config.n_trees);

    let start_tree = restore_tree_checkpoint(ctx, &mut model, &mut scores, &mut per_tree);
    for t in start_tree..config.n_trees {
        ctx.time(Phase::Gradients, || objective.compute_gradients(&scores, &labels, &mut grads));
        let mut tree = Tree::new(config.n_layers, c);

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

            // Histogram construction: direct sequential reads of each
            // column's node slice — the part this index is good at.
            ctx.time(Phase::HistogramBuild, || {
                if layer == 0 {
                    build_histogram(&mut pool, 0, &cw_index, &grads, threads, &meter);
                } else {
                    let mut k = 0;
                    while k < frontier.nodes.len() {
                        let (l, r) = (frontier.nodes[k], frontier.nodes[k + 1]);
                        let (build_left, _) =
                            subtraction_plan(frontier.counts[&l], frontier.counts[&r]);
                        let (b, s) = if build_left { (l, r) } else { (r, l) };
                        build_histogram(&mut pool, b, &cw_index, &grads, threads, &meter);
                        pool.subtract_sibling(tree::parent(l), b, s);
                        k += 2;
                    }
                }
            });
            ctx.stats.histogram_peak_bytes = pool.peak_bytes() as u64;

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
                                placement_bitmap(&cw_index, &grouping, &index, node, &split)
                            });
                            bytes::Bytes::from(bm.encode_bytes())
                        } else {
                            bytes::Bytes::new()
                        };
                        let payload = ctx.comm.broadcast(owner, payload)?;
                        let bitmap = PlacementBitmap::decode_bytes(&payload)
                            .expect("owner broadcasts a well-formed bitmap");
                        let (lc, rc) = ctx.time(Phase::NodeSplit, || {
                            for (k, &inst) in index.instances(node).iter().enumerate() {
                                scratch_left[inst as usize] = bitmap.goes_left(k);
                            }
                            // THE expensive step: repartition every column.
                            cw_index.split(node, |i| scratch_left[i as usize]);
                            index.split(node, |i| scratch_left[i as usize])
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
        ctx.time(Phase::NodeSplit, || cw_index.reset_from_store(&columns));
        model.trees.push(tree);
        per_tree.push(tracker.lap(ctx));
        save_tree_checkpoint(ctx, &model, &scores, &per_tree);
    }
    ctx.stats.parallel_wall_seconds = meter.wall_seconds();
    ctx.stats.parallel_busy_seconds = meter.busy_seconds();
    Ok((model, per_tree))
}

fn build_histogram(
    pool: &mut HistogramPool,
    node: u32,
    cw_index: &ColumnWiseIndex,
    grads: &GradBuffer,
    threads: usize,
    meter: &Meter,
) {
    let hist = pool.acquire(node);
    let c = hist.n_outputs();
    // Whole columns fan out across threads; each feature's region is
    // disjoint and read in the sequential node-slice order, so the result
    // is bit-identical for every thread count.
    par_feature_fill(hist, threads, meter, |j, slice| {
        let (insts, bins) = cw_index.node_column(node, j);
        for (&i, &b) in insts.iter().zip(bins) {
            let (g, h) = grads.instance(i as usize);
            add_instance_to_feature_slice(slice, c, b, g, h);
        }
    });
}

/// Bitmap from the column-wise index: the split column's node slice is
/// already contiguous; absent instances fall to the default side.
fn placement_bitmap(
    cw_index: &ColumnWiseIndex,
    grouping: &gbdt_partition::ColumnGrouping,
    index: &NodeToInstanceIndex,
    node: u32,
    split: &Split,
) -> PlacementBitmap {
    let local_feat = grouping.local_id(split.feature) as usize;
    let (insts, bins) = cw_index.node_column(node, local_feat);
    // Present instances, by id. BTreeMap so placement never depends on hash
    // order (only keyed lookups today, but the bitmap reaches the wire).
    let mut present: std::collections::BTreeMap<u32, u16> =
        std::collections::BTreeMap::new();
    for (&i, &b) in insts.iter().zip(bins) {
        present.insert(i, b);
    }
    let instances = index.instances(node);
    let mut bm = PlacementBitmap::new(instances.len());
    for (k, &inst) in instances.iter().enumerate() {
        let goes_left = match present.get(&inst) {
            Some(&b) => b <= split.bin,
            None => split.default_left,
        };
        if goes_left {
            bm.set(k);
        }
    }
    bm
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
