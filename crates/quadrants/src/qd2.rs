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
    all_reduce_stats, choose_global_best, record_layer_wire_bytes, restore_tree_checkpoint,
    save_tree_checkpoint, subtraction_plan, worker_threads, Aggregation,
    DistTrainResult, Frontier, TreeStat, TreeTracker,
};
use gbdt_cluster::collectives::segment_bounds;
use gbdt_cluster::{Cluster, CommError, Phase, WorkerCtx};
use gbdt_core::histogram::HistogramPool;
use gbdt_core::indexes::NodeToInstanceIndex;
use gbdt_core::kernels;
use gbdt_core::parallel::{self, Meter};
use gbdt_core::split::{best_split_in_range_parallel, best_split_parallel, NodeStats, Split, SplitParams};
use gbdt_core::tree::{self, Tree};
use gbdt_core::{GbdtModel, GradBuffer, TrainConfig};
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
    config.validate().expect("invalid training config");
    let partition = HorizontalPartition::new(dataset.n_instances(), cluster.world);
    let (outputs, stats) = cluster.run_recoverable(|ctx| {
        let shard = partition.shard(dataset, ctx.rank());
        train_worker(ctx, &shard, config, aggregation)
    });
    let mut models = Vec::new();
    let mut per_worker_trees = Vec::new();
    for (model, trees) in outputs {
        models.push(model);
        per_worker_trees.push(trees);
    }
    let model = models.swap_remove(0);
    DistTrainResult { model, per_tree: crate::common::merge_tree_stats(&per_worker_trees), stats }
}

fn train_worker(
    ctx: &mut WorkerCtx,
    shard: &Dataset,
    config: &TrainConfig,
    aggregation: Aggregation,
) -> Result<(GbdtModel, Vec<TreeStat>), CommError> {
    let d = shard.n_features();
    let q = config.n_bins;
    let c = config.n_outputs();
    let params = SplitParams::from_config(config);
    let objective = config.objective;
    let world = ctx.world();
    let rank = ctx.rank();
    let threads = worker_threads(config, world);
    let meter = Meter::default();
    ctx.stats.threads = threads as u64;

    // Global candidate splits (local sketches merged across the cluster).
    let (cuts, _) = build_global_cuts(ctx, shard, q, gbdt_core::QuantileSketch::DEFAULT_CAP)?;
    let binned = ctx.time(Phase::Sketch, || cuts.apply_store(shard, config.storage));
    ctx.stats.data_bytes = binned.heap_bytes() as u64;

    let n_local = binned.n_rows();
    let mut model = GbdtModel::new(objective, config.learning_rate, d);
    let mut scores = vec![0.0f64; n_local * c];
    for chunk in scores.chunks_mut(c) {
        chunk.copy_from_slice(&model.init_scores);
    }
    let mut grads = GradBuffer::new(n_local, c);
    let mut index = NodeToInstanceIndex::new(n_local);
    let mut pool = HistogramPool::new(d, q, c);
    ctx.stats.index_bytes = index.heap_bytes() as u64;

    // Feature shard for reduce-scatter / parameter-server aggregation, in
    // histogram-element units (feature-aligned).
    let (feat_lo, feat_hi) = segment_bounds(d, world, rank);
    let elem_ranges: Vec<(usize, usize)> = (0..world)
        .map(|w| {
            let (lo, hi) = segment_bounds(d, world, w);
            (lo * q * c * 2, hi * q * c * 2)
        })
        .collect();

    let mut tracker = TreeTracker::default();
    tracker.lap(ctx); // exclude sketch/binning setup from the first tree's cost
    let mut per_tree = Vec::with_capacity(config.n_trees);

    let start_tree = restore_tree_checkpoint(ctx, &mut model, &mut scores, &mut per_tree);
    for t in start_tree..config.n_trees {
        ctx.time(Phase::Gradients, || {
            objective.compute_gradients(&scores, &shard.labels, &mut grads)
        });
        let mut tree = Tree::new(config.n_layers, c);

        // Global root statistics and count.
        let mut root_stats = NodeStats::zero(c);
        ctx.time(Phase::Gradients, || {
            let mut g = vec![0.0; c];
            let mut h = vec![0.0; c];
            grads.sum_instances(index.instances(0), &mut g, &mut h);
            root_stats.grads.copy_from_slice(&g);
            root_stats.hesses.copy_from_slice(&h);
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

            // Local histogram construction for the build set (smaller
            // sibling; the other is derived by subtraction AFTER
            // aggregation, so pool histograms are always global).
            let mut build_nodes: Vec<u32> = Vec::new();
            let mut derive: Vec<(u32, u32, u32)> = Vec::new(); // (parent, built, sibling)
            if layer == 0 {
                build_nodes.push(0);
            } else {
                let mut k = 0;
                while k < frontier.nodes.len() {
                    let (l, r) = (frontier.nodes[k], frontier.nodes[k + 1]);
                    let (build_left, _) =
                        subtraction_plan(frontier.counts[&l], frontier.counts[&r]);
                    let (b, s) = if build_left { (l, r) } else { (r, l) };
                    build_nodes.push(b);
                    derive.push((tree::parent(l), b, s));
                    k += 2;
                }
            }
            ctx.time(Phase::HistogramBuild, || {
                for &node in &build_nodes {
                    build_histogram(&mut pool, node, &binned, &grads, &index, threads, config.kernel, &meter);
                }
            });

            // Aggregate local histograms into global ones under the
            // configured wire codec (control traffic stays dense).
            let wire_before = ctx.comm.counters();
            match aggregation {
                Aggregation::AllReduce => {
                    for &node in &build_nodes {
                        let hist = pool.get_mut(node).expect("just built");
                        ctx.comm.all_reduce_f64_codec(config.wire, hist.as_mut_slice())?;
                    }
                }
                Aggregation::ReduceScatter | Aggregation::ParameterServer => {
                    for &node in &build_nodes {
                        let hist = pool.get_mut(node).expect("just built");
                        let reduced = ctx.comm.ps_push_and_reduce_codec(
                            config.wire,
                            hist.as_slice(),
                            &elem_ranges,
                        )?;
                        let (lo, hi) = elem_ranges[rank];
                        hist.as_mut_slice()[lo..hi].copy_from_slice(&reduced);
                    }
                }
            }
            record_layer_wire_bytes(ctx, layer, wire_before);
            ctx.time(Phase::HistogramBuild, || {
                for &(parent, built, sibling) in &derive {
                    pool.subtract_sibling(parent, built, sibling);
                }
            });
            ctx.stats.histogram_peak_bytes = pool.peak_bytes() as u64;

            // Split finding.
            let decisions: Vec<Option<Split>> = match aggregation {
                Aggregation::AllReduce => ctx.time(Phase::SplitFind, || {
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
                                |f| cuts.n_bins(f),
                                |f| f,
                                threads,
                            )
                        })
                        .collect()
                }),
                Aggregation::ReduceScatter | Aggregation::ParameterServer => {
                    // Local best within my feature slice, then exchange.
                    let locals: Vec<Option<Split>> = ctx.time(Phase::SplitFind, || {
                        frontier
                            .nodes
                            .iter()
                            .map(|&node| {
                                if frontier.counts[&node] < config.min_node_instances as u64 {
                                    return None;
                                }
                                best_split_in_range_parallel(
                                    pool.get(node).expect("histogram live"),
                                    feat_lo as u32..feat_hi as u32,
                                    &frontier.stats[&node],
                                    &params,
                                    |f| cuts.n_bins(f),
                                    |f| f,
                                    threads,
                                )
                            })
                            .collect()
                    });
                    exchange_local_bests(ctx, &locals)?
                }
            };

            // Node splitting + global child counts.
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
                        pool.release(node);
                    }
                }
            }
            let mut counts = vec![0f64; split_nodes.len() * 2];
            ctx.time(Phase::NodeSplit, || {
                for (k, (node, split)) in split_nodes.iter().enumerate() {
                    let (lc, rc) = index.split(*node, |i| {
                        match binned.get(i as usize, split.feature) {
                            Some(b) => b <= split.bin,
                            None => split.default_left,
                        }
                    });
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

        // Update local scores from leaves.
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

/// All-gathers per-node local best splits and resolves each node's global
/// best deterministically. Shared by every trainer that finds splits on
/// feature subsets (QD2-sharded, QD3, QD4, feature-parallel).
pub(crate) fn exchange_local_bests(
    ctx: &mut WorkerCtx,
    locals: &[Option<Split>],
) -> Result<Vec<Option<Split>>, CommError> {
    // Encode: per node, u8 present + length-prefixed split bytes.
    let mut payload = Vec::new();
    payload.extend_from_slice(&(locals.len() as u32).to_le_bytes());
    for s in locals {
        match s {
            Some(split) => {
                let bytes = split.encode_bytes();
                payload.push(1);
                payload.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                payload.extend_from_slice(&bytes);
            }
            None => payload.push(0),
        }
    }
    let gathered = ctx.comm.all_gather(bytes::Bytes::from(payload))?;
    let mut per_worker: Vec<Vec<Option<Split>>> = Vec::with_capacity(gathered.len());
    for buf in gathered {
        let mut pos = 0usize;
        let n = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        pos += 4;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            let present = buf[pos];
            pos += 1;
            if present == 1 {
                let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 4;
                let split = Split::decode_bytes(&buf[pos..pos + len])
                    .expect("peer sends well-formed splits");
                pos += len;
                list.push(Some(split));
            } else {
                list.push(None);
            }
        }
        per_worker.push(list);
    }
    Ok((0..locals.len())
        .map(|k| choose_global_best(per_worker.iter().map(|w| w[k].clone())))
        .collect())
}

#[allow(clippy::too_many_arguments)]
fn build_histogram(
    pool: &mut HistogramPool,
    node: u32,
    binned: &BinnedStore,
    grads: &GradBuffer,
    index: &NodeToInstanceIndex,
    threads: usize,
    kernel: gbdt_core::Kernel,
    meter: &Meter,
) {
    parallel::build_histogram_chunked(pool, node, index.instances(node), threads, meter, |hist, chunk| {
        kernels::fill_rows_chunk(hist, chunk, binned, grads, kernel);
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
        // Same global histograms (mod float summation order) -> same trees.
        let pa = a.model.predict_dataset_raw(&ds);
        let pb = b.model.predict_dataset_raw(&ds);
        let pc = c.model.predict_dataset_raw(&ds);
        for ((x, y), z) in pa.iter().zip(&pb).zip(&pc) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
            assert!((y - z).abs() < 1e-6, "{y} vs {z}");
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
