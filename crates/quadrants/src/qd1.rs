//! QD1 — horizontal partitioning + column-store (XGBoost, §4.1).
//!
//! Each worker stores its row shard as binned *columns* and maintains an
//! **instance-to-node** index. Histograms for a whole layer are built in one
//! linear pass over the columns — for every 〈instance, bin〉 pair the
//! instance's current node is looked up and the gradient lands in that
//! node's histogram. The index cannot enumerate a node's instances, so QD1
//! **cannot exploit histogram subtraction** (§3.2.3): every layer rescans
//! all local pairs, and both children of every split are built from
//! scratch. Aggregation is all-reduce, after which every worker finds every
//! split redundantly (the leader-based variant has identical traffic shape).

use crate::common::{
    all_reduce_stats, record_layer_wire_bytes, restore_tree_checkpoint, save_tree_checkpoint,
    worker_threads, DistTrainResult, Frontier, TreeStat, TreeTracker,
};
use gbdt_cluster::{Cluster, CommError, Phase, WorkerCtx};
use gbdt_core::histogram::{add_instance_to_feature_slice, histogram_size_bytes, NodeHistogram};
use gbdt_core::indexes::InstanceToNodeIndex;
use gbdt_core::parallel::Meter;
use gbdt_core::split::{best_split_parallel, NodeStats, Split, SplitParams};
use gbdt_core::tree::{self, Tree};
use gbdt_core::{GbdtModel, GradBuffer, TrainConfig};
use gbdt_data::dataset::Dataset;
use gbdt_data::{ColumnStore, InstanceId};
use gbdt_partition::transform::build_global_cuts;
use gbdt_partition::HorizontalPartition;

/// Trains with QD1 on `cluster.world` workers.
pub fn train(cluster: &Cluster, dataset: &Dataset, config: &TrainConfig) -> DistTrainResult {
    config.validate().expect("invalid training config");
    let partition = HorizontalPartition::new(dataset.n_instances(), cluster.world);
    let (outputs, stats) = cluster.run_recoverable(|ctx| {
        let shard = partition.shard(dataset, ctx.rank());
        train_worker(ctx, &shard, config)
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
    shard: &Dataset,
    config: &TrainConfig,
) -> Result<(GbdtModel, Vec<TreeStat>), CommError> {
    let d = shard.n_features();
    let q = config.n_bins;
    let c = config.n_outputs();
    let params = SplitParams::from_config(config);
    let objective = config.objective;
    let threads = worker_threads(config, ctx.world());
    let meter = Meter::default();
    ctx.stats.threads = threads as u64;

    let (cuts, _) = build_global_cuts(ctx, shard, q, gbdt_core::QuantileSketch::DEFAULT_CAP)?;
    let columns: ColumnStore =
        ctx.time(Phase::Sketch, || cuts.apply_store(shard, config.storage).to_columns());
    ctx.stats.data_bytes = columns.heap_bytes() as u64;

    let n_local = columns.n_rows();
    let mut model = GbdtModel::new(objective, config.learning_rate, d);
    let mut scores = vec![0.0f64; n_local * c];
    for chunk in scores.chunks_mut(c) {
        chunk.copy_from_slice(&model.init_scores);
    }
    let mut grads = GradBuffer::new(n_local, c);
    let mut index = InstanceToNodeIndex::new(n_local);
    ctx.stats.index_bytes = index.heap_bytes() as u64;

    let mut tracker = TreeTracker::default();
    tracker.lap(ctx);
    let mut per_tree = Vec::with_capacity(config.n_trees);
    let mut hist_peak = 0usize;

    let start_tree = restore_tree_checkpoint(ctx, &mut model, &mut scores, &mut per_tree);
    for t in start_tree..config.n_trees {
        ctx.time(Phase::Gradients, || {
            objective.compute_gradients(&scores, &shard.labels, &mut grads)
        });
        let mut tree = Tree::new(config.n_layers, c);

        let mut root_stats = NodeStats::zero(c);
        ctx.time(Phase::Gradients, || {
            for i in 0..n_local {
                let (g, h) = grads.instance(i);
                for k in 0..c {
                    root_stats.grads[k] += g[k];
                    root_stats.hesses[k] += h[k];
                }
            }
        });
        all_reduce_stats(ctx, &mut root_stats)?;
        let mut count_buf = vec![n_local as f64];
        ctx.comm.all_reduce_f64(&mut count_buf)?;
        let mut frontier = Frontier::root(root_stats, count_buf[0] as u64);
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

            // One column pass builds the histograms of the WHOLE layer —
            // no subtraction, every pair of the shard is touched.
            let layer_base = (1u32 << layer) - 1;
            let layer_len = 1usize << layer;
            let mut hists: Vec<Option<NodeHistogram>> = (0..layer_len).map(|_| None).collect();
            for &node in &frontier.nodes {
                hists[(node - layer_base) as usize] = Some(NodeHistogram::new(d, q, c));
            }
            hist_peak = hist_peak.max(frontier.nodes.len() * histogram_size_bytes(d, q, c));
            ctx.time(Phase::HistogramBuild, || {
                build_layer_histograms(
                    &columns, &grads, &index, &mut hists, layer_base, threads, &meter,
                );
            });

            // All-reduce each node's histogram under the configured wire
            // codec; every worker then finds the same best split. Control
            // traffic (counts, root stats) stays dense — only histogram
            // payloads are codec-mediated.
            let wire_before = ctx.comm.counters();
            for &node in &frontier.nodes {
                let hist = hists[(node - layer_base) as usize].as_mut().expect("allocated");
                ctx.comm.all_reduce_f64_codec(config.wire, hist.as_mut_slice())?;
            }
            record_layer_wire_bytes(ctx, layer, wire_before);

            let decisions: Vec<Option<Split>> = ctx.time(Phase::SplitFind, || {
                frontier
                    .nodes
                    .iter()
                    .map(|&node| {
                        if frontier.counts[&node] < config.min_node_instances as u64 {
                            return None;
                        }
                        let hist =
                            hists[(node - layer_base) as usize].as_ref().expect("allocated");
                        best_split_parallel(
                            hist,
                            &frontier.stats[&node],
                            &params,
                            |f| cuts.n_bins(f),
                            |f| f,
                            threads,
                        )
                    })
                    .collect()
            });

            // Node splitting: placements are resolved by scanning the split
            // feature's column and defaulting the absent instances.
            let mut next = Frontier::default();
            let mut split_nodes: Vec<(u32, Split)> = Vec::new();
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
                        split_nodes.push((node, split));
                    }
                    None => {
                        tree.set_leaf_from_stats(
                            node,
                            &frontier.stats[&node],
                            params.lambda,
                            config.learning_rate,
                        );
                        leaves.push(node);
                    }
                }
            }
            let mut counts = vec![0f64; split_nodes.len() * 2];
            ctx.time(Phase::NodeSplit, || {
                let mut went_left = vec![false; n_local];
                for (k, (node, split)) in split_nodes.iter().enumerate() {
                    // Default placement, then overrides from the column.
                    for i in 0..n_local as InstanceId {
                        if index.node_of(i) == *node {
                            went_left[i as usize] = split.default_left;
                        }
                    }
                    columns.for_each_in_col(split.feature as usize, |i, b| {
                        if index.node_of(i) == *node {
                            went_left[i as usize] = b <= split.bin;
                        }
                    });
                    let (lc, rc) = index.split(*node, |i| went_left[i as usize]);
                    counts[2 * k] = lc as f64;
                    counts[2 * k + 1] = rc as f64;
                }
            });
            ctx.comm.all_reduce_f64(&mut counts)?;
            for (k, (node, split)) in split_nodes.into_iter().enumerate() {
                Frontier::push_children(
                    &mut next,
                    node,
                    &split,
                    counts[2 * k] as u64,
                    counts[2 * k + 1] as u64,
                );
            }
            frontier = next;
        }

        // Update local scores: every instance's final node is a leaf.
        ctx.time(Phase::Predict, || {
            let mut leaf_values: std::collections::BTreeMap<u32, Vec<f64>> =
                std::collections::BTreeMap::new();
            for &leaf in &leaves {
                if let tree::NodeKind::Leaf { values } = &tree.node(leaf).expect("leaf set").kind
                {
                    leaf_values.insert(leaf, values.clone());
                }
            }
            for i in 0..n_local {
                let node = index.node_of(i as InstanceId);
                let values = &leaf_values[&node];
                let base = i * c;
                for (k, &v) in values.iter().enumerate() {
                    scores[base + k] += v;
                }
            }
        });

        index.reset();
        model.trees.push(tree);
        per_tree.push(tracker.lap(ctx));
        save_tree_checkpoint(ctx, &model, &scores, &per_tree);
    }
    ctx.stats.histogram_peak_bytes = hist_peak as u64;
    ctx.stats.parallel_wall_seconds = meter.wall_seconds();
    ctx.stats.parallel_busy_seconds = meter.busy_seconds();
    Ok((model, per_tree))
}

/// One linear pass over the columns builds the histograms of a WHOLE layer:
/// every 〈instance, bin〉 pair is routed to its instance's current node.
///
/// Threads fan out over disjoint **feature blocks**: thread `b` owns block
/// `b` of every live node histogram (features are the outermost axis of the
/// flat layout, so a feature block is one contiguous region per histogram).
/// Each f64 slot is written by exactly one thread, in the same per-column
/// pair order as the sequential pass — bit-identical for every thread count.
fn build_layer_histograms(
    columns: &ColumnStore,
    grads: &GradBuffer,
    index: &InstanceToNodeIndex,
    hists: &mut [Option<NodeHistogram>],
    layer_base: u32,
    threads: usize,
    meter: &Meter,
) {
    let d = columns.n_features();
    if threads <= 1 || d < 2 {
        for j in 0..d {
            columns.for_each_in_col(j, |i, b| {
                let node = index.node_of(i);
                if node < layer_base {
                    return; // instance settled on an earlier leaf
                }
                if let Some(hist) =
                    hists.get_mut((node - layer_base) as usize).and_then(Option::as_mut)
                {
                    let (g, h) = grads.instance(i as usize);
                    hist.add_instance(j as u32, b, g, h);
                }
            });
        }
        return;
    }

    let (stride, c) = match hists.iter().flatten().next() {
        Some(h) => (h.feature_stride(), h.n_outputs()),
        None => return,
    };
    let t = threads.min(d);
    let per = d.div_ceil(t);
    let n_blocks = d.div_ceil(per);
    // thread_blocks[b][slot] is feature block `b` of node slot `slot`.
    let mut thread_blocks: Vec<Vec<Option<&mut [f64]>>> =
        (0..n_blocks).map(|_| Vec::with_capacity(hists.len())).collect();
    for hist in hists.iter_mut() {
        match hist {
            Some(h) => {
                let mut chunks = h.as_mut_slice().chunks_mut(per * stride);
                for tb in thread_blocks.iter_mut() {
                    tb.push(chunks.next());
                }
            }
            None => {
                for tb in thread_blocks.iter_mut() {
                    tb.push(None);
                }
            }
        }
    }

    // lint: allow(wall-clock) — measures computation time for modelled stats only
    let start = std::time::Instant::now();
    let busy = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for (bi, mut blocks) in thread_blocks.into_iter().enumerate() {
            let busy = &busy;
            s.spawn(move || {
                // lint: allow(wall-clock) — measures computation time for modelled stats only
                let t0 = std::time::Instant::now();
                let lo = bi * per;
                let hi = (lo + per).min(d);
                for j in lo..hi {
                    let off = (j - lo) * stride;
                    columns.for_each_in_col(j, |i, b| {
                        let node = index.node_of(i);
                        if node < layer_base {
                            return;
                        }
                        let slot = (node - layer_base) as usize;
                        if let Some(block) = blocks.get_mut(slot).and_then(Option::as_mut) {
                            let (g, h) = grads.instance(i as usize);
                            add_instance_to_feature_slice(
                                &mut block[off..off + stride],
                                c,
                                b,
                                g,
                                h,
                            );
                        }
                    });
                }
                busy.fetch_add(
                    t0.elapsed().as_nanos() as u64,
                    std::sync::atomic::Ordering::Relaxed,
                );
            });
        }
    });
    meter.add(
        start.elapsed(),
        std::time::Duration::from_nanos(busy.load(std::sync::atomic::Ordering::Relaxed)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Aggregation;
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
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
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
