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
//! Node splitting is the same kind of pass: one scan of the index moves the
//! whole layer.

use crate::common::{all_reduce_counts, all_reduce_root, record_layer_wire_bytes, DistTrainResult};
use crate::grow::{self, every_node_schedule, Quadrant, Run};
use gbdt_cluster::{Cluster, CommError, Phase, WorkerCtx};
use gbdt_core::histogram::{add_instance_to_feature_slice, HistogramPool};
use gbdt_core::indexes::InstanceToNodeIndex;
use gbdt_core::split::{best_split_parallel, NodeStats, Split};
use gbdt_core::TrainConfig;
use gbdt_data::dataset::Dataset;
use gbdt_data::{ColumnStore, InstanceId};
use gbdt_partition::transform::build_global_cuts;
use gbdt_partition::HorizontalPartition;

/// Trains with QD1 on `cluster.world` workers.
pub fn train(cluster: &Cluster, dataset: &Dataset, config: &TrainConfig) -> DistTrainResult {
    let partition = HorizontalPartition::new(dataset.n_instances(), cluster.world);
    grow::run(cluster, config, |ctx| {
        let shard = partition.shard(dataset, ctx.rank());
        let cap = gbdt_core::QuantileSketch::DEFAULT_CAP;
        let (cuts, _) = build_global_cuts(ctx, &shard, config.n_bins, cap)?;
        let columns =
            ctx.time(Phase::Sketch, || cuts.apply_store(&shard, config.storage).to_columns());
        let policy = ColumnShard {
            index: InstanceToNodeIndex::new(columns.n_rows()),
            pool: HistogramPool::new(columns.n_features(), config.n_bins, config.n_outputs()),
            columns,
        };
        grow::train_worker(ctx, policy, &shard.labels, &cuts, config)
    })
}

/// A row shard stored as binned columns under an instance-to-node index.
struct ColumnShard {
    columns: ColumnStore,
    index: InstanceToNodeIndex,
    /// The current layer's histograms: the live set is the frontier and
    /// nothing else.
    pool: HistogramPool,
}

impl Quadrant for ColumnShard {
    fn root(&mut self, ctx: &mut WorkerCtx, run: &Run) -> Result<(NodeStats, u64), CommError> {
        let n_local = self.columns.n_rows();
        let mut local = NodeStats::zero(run.grads.n_outputs());
        ctx.time(Phase::Gradients, || {
            for i in 0..n_local {
                let (g, h) = run.grads.instance(i);
                for k in 0..g.len() {
                    local.grads[k] += g[k];
                    local.hesses[k] += h[k];
                }
            }
        });
        all_reduce_root(ctx, local, n_local)
    }

    /// One column pass builds the histograms of the WHOLE layer — no
    /// subtraction, every pair of the shard is touched.
    fn build(&mut self, ctx: &mut WorkerCtx, run: &Run) -> Result<(), CommError> {
        self.pool.release_all();
        for step in every_node_schedule(&run.frontier) {
            self.pool.acquire(step.node);
        }
        ctx.time(Phase::HistogramBuild, || self.fill_layer(run));

        // All-reduce each node's histogram under the configured wire codec;
        // every worker then finds the same best split. Control traffic
        // (counts, root stats) stays dense — only histogram payloads are
        // codec-mediated.
        let wire_before = ctx.comm.counters();
        for (_, hist) in self.pool.live_mut() {
            ctx.comm.all_reduce_f64_codec(run.config.wire, hist.as_mut_slice())?;
        }
        record_layer_wire_bytes(ctx, run.layer, wire_before);
        Ok(())
    }

    fn propose(
        &mut self,
        ctx: &mut WorkerCtx,
        run: &Run,
    ) -> Result<Vec<Option<Split>>, CommError> {
        Ok(run.scan(ctx, |node, stats| {
            let hist = self.pool.get(node).expect("histogram live");
            let n_bins = |f| run.cuts.n_bins(f);
            best_split_parallel(hist, stats, &run.params, n_bins, |f| f, run.threads)
        }))
    }

    fn retire(&mut self, node: u32) {
        self.pool.release(node);
    }

    /// One pass over each split feature's column places the present
    /// instances; one scan of the index then moves the whole layer, absent
    /// instances to their split's default side. One all-reduce of the
    /// child counts of the layer follows.
    fn apply(
        &mut self,
        ctx: &mut WorkerCtx,
        splits: &[(u32, Split)],
    ) -> Result<Vec<(u64, u64)>, CommError> {
        let (columns, index) = (&self.columns, &mut self.index);
        let counts = ctx.time(Phase::NodeSplit, || {
            let mut placed = vec![None; columns.n_rows()];
            for (node, split) in splits {
                columns.for_each_in_col(split.feature as usize, |i, b| {
                    if index.node_of(i) == *node {
                        placed[i as usize] = Some(b <= split.bin);
                    }
                });
            }
            let nodes: Vec<u32> = splits.iter().map(|(node, _)| *node).collect();
            index.split_layer(&nodes, |i, k| placed[i as usize].unwrap_or(splits[k].1.default_left))
        });
        all_reduce_counts(ctx, counts.iter().flat_map(|&(l, r)| [l as f64, r as f64]).collect())
    }

    fn add_leaf_values(&self, leaves: &[(u32, Vec<f64>)], scores: &mut [f64]) {
        let leaf_values: std::collections::BTreeMap<u32, &Vec<f64>> =
            leaves.iter().map(|(leaf, values)| (*leaf, values)).collect();
        for i in 0..self.columns.n_rows() {
            let values = leaf_values[&self.index.node_of(i as InstanceId)];
            let base = i * values.len();
            for (k, &v) in values.iter().enumerate() {
                scores[base + k] += v;
            }
        }
    }

    fn end_tree(&mut self, _ctx: &mut WorkerCtx) {
        self.index.reset();
    }

    fn data_bytes(&self) -> usize {
        self.columns.heap_bytes()
    }

    fn index_bytes(&self) -> usize {
        self.index.heap_bytes()
    }

    fn histogram_peak_bytes(&self) -> usize {
        self.pool.peak_bytes()
    }
}

impl ColumnShard {
    /// One linear pass over the columns builds the histograms of a WHOLE
    /// layer: every 〈instance, bin〉 pair is routed to its instance's current
    /// node.
    ///
    /// Threads fan out over disjoint **feature blocks**: thread `b` owns
    /// block `b` of every live node histogram (features are the outermost
    /// axis of the flat layout, so a feature block is one contiguous region
    /// per histogram). Each f64 slot is written by exactly one thread, in
    /// the same per-column pair order as a single-block pass — bit-identical
    /// for every thread count.
    fn fill_layer(&mut self, run: &Run) {
        let (columns, index) = (&self.columns, &self.index);
        let d = columns.n_features();
        if d == 0 {
            return;
        }
        let c = run.config.n_outputs();
        let stride = run.config.n_bins * c * 2;
        let per = d.div_ceil(run.threads.clamp(1, d));
        let n_blocks = d.div_ceil(per);
        // blocks[b][slot] is feature block `b` of node `layer_base + slot`.
        let layer_base = (1u32 << run.layer) - 1;
        let mut blocks: Vec<Vec<Option<&mut [f64]>>> =
            (0..n_blocks).map(|_| (0..1usize << run.layer).map(|_| None).collect()).collect();
        for (node, hist) in self.pool.live_mut() {
            let chunks = hist.as_mut_slice().chunks_mut(per * stride);
            for (block, chunk) in blocks.iter_mut().zip(chunks) {
                block[(node - layer_base) as usize] = Some(chunk);
            }
        }
        // The column pass over feature block `bi`.
        let scan = |bi: usize, mut slots: Vec<Option<&mut [f64]>>| {
            let lo = bi * per;
            for j in lo..(lo + per).min(d) {
                let off = (j - lo) * stride;
                columns.for_each_in_col(j, |i, b| {
                    let node = index.node_of(i);
                    if node < layer_base {
                        return; // instance settled on an earlier leaf
                    }
                    let slot = (node - layer_base) as usize;
                    if let Some(block) = slots.get_mut(slot).and_then(Option::as_mut) {
                        let (g, h) = run.grads.instance(i as usize);
                        add_instance_to_feature_slice(&mut block[off..], c, b, g, h);
                    }
                });
            }
        };
        if n_blocks == 1 {
            return scan(0, blocks.pop().expect("one block"));
        }

        // lint: allow(wall-clock) — measures computation time for modelled stats only
        let start = std::time::Instant::now();
        let busy = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for (bi, slots) in blocks.into_iter().enumerate() {
                let (busy, scan) = (&busy, &scan);
                s.spawn(move || {
                    // lint: allow(wall-clock) — measures computation time for modelled stats only
                    let t0 = std::time::Instant::now();
                    scan(bi, slots);
                    busy.fetch_add(
                        t0.elapsed().as_nanos() as u64,
                        std::sync::atomic::Ordering::Relaxed,
                    );
                });
            }
        });
        run.meter.add(
            start.elapsed(),
            std::time::Duration::from_nanos(busy.load(std::sync::atomic::Ordering::Relaxed)),
        );
    }
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
