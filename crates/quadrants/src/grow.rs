//! The one per-tree / per-layer growth loop of distributed training.
//!
//! Every distributed trainer grows trees the same way — gradients, root
//! statistics, then per layer: build histograms, find splits, split nodes —
//! and the paper's claim (Fig. 1, §3) is that systems differ only in how
//! the data is partitioned and stored. [`train_worker`] is that loop, once;
//! a [`Quadrant`] is what differs. The loop owns the score and gradient
//! buffers, the [`Frontier`], the `fault_point` poll, leaf finalisation, the
//! `min_node_instances` gate, per-tree timing and checkpoint/restore; a
//! policy owns its data, its index(es), its histograms and every collective.

use crate::common::{worker_threads, DistTrainResult, TreeStat};
use gbdt_cluster::{Cluster, CommError, Phase, WorkerCtx};
use gbdt_core::indexes::NodeToInstanceIndex;
use gbdt_core::parallel::Meter;
use gbdt_core::split::{NodeStats, Split, SplitParams};
use gbdt_core::tree::{self, Tree};
use gbdt_core::{BinCuts, GbdtModel, GradBuffer, TrainConfig};

/// The loop's state as a policy sees it (read-only): what is fixed for the
/// run, this tree's gradients, and the layer being grown.
pub(crate) struct Run<'a> {
    pub config: &'a TrainConfig,
    /// Global candidate splits, indexed by global feature id.
    pub cuts: &'a BinCuts,
    pub params: SplitParams,
    /// Intra-worker thread budget.
    pub threads: usize,
    /// Wall/busy time of the parallel sections (the `par_speedup` column).
    pub meter: Meter,
    /// Gradients of the instances this worker scores, for the current tree.
    pub grads: GradBuffer,
    pub layer: usize,
    /// The nodes of `layer` still growing, with global stats and counts.
    pub frontier: Frontier,
}

impl Run<'_> {
    /// The timed local split scan of the layer: `best(node, stats)` for
    /// every frontier node with at least `min_node_instances` instances,
    /// `None` for the rest.
    pub fn scan(
        &self,
        ctx: &mut WorkerCtx,
        best: impl Fn(u32, &NodeStats) -> Option<Split>,
    ) -> Vec<Option<Split>> {
        let frontier = &self.frontier;
        ctx.time(Phase::SplitFind, || {
            frontier
                .nodes
                .iter()
                .map(|&node| {
                    if frontier.counts[&node] < self.config.min_node_instances as u64 {
                        return None;
                    }
                    best(node, &frontier.stats[&node])
                })
                .collect()
        })
    }
}

/// One cell of the paper's partitioning × storage space (plus the
/// replicated feature-parallel case): the data a worker holds, the index
/// over it, its histograms, and the collectives that stand in for what the
/// worker does not hold. [`train_worker`] calls `root` per tree, then
/// `build`, `propose`, `apply` per layer; every worker makes every call, so
/// each may communicate.
pub(crate) trait Quadrant {
    /// Global gradient sums and instance count of the root: local sums,
    /// all-reduced when rows are sharded.
    fn root(&mut self, ctx: &mut WorkerCtx, run: &Run) -> Result<(NodeStats, u64), CommError>;

    /// Leaves a global histogram (over the features this worker answers
    /// for) for every frontier node: which nodes are scanned, by which scan,
    /// aggregated how, and which are derived by subtraction afterwards.
    fn build(&mut self, ctx: &mut WorkerCtx, run: &Run) -> Result<(), CommError>;

    /// The global best split per frontier node (global feature ids), `None`
    /// where the node becomes a leaf; goes through [`Run::scan`].
    fn propose(&mut self, ctx: &mut WorkerCtx, run: &Run)
        -> Result<Vec<Option<Split>>, CommError>;

    /// `node` became a leaf: its histogram is dead.
    fn retire(&mut self, node: u32);

    /// Partitions the index(es) for every split node, in order, and returns
    /// the global `(left, right)` instance counts of each.
    fn apply(
        &mut self,
        ctx: &mut WorkerCtx,
        splits: &[(u32, Split)],
    ) -> Result<Vec<(u64, u64)>, CommError>;

    /// Adds each leaf's values to the scores (`n × C`) of the instances
    /// that ended in it.
    fn add_leaf_values(&self, leaves: &[(u32, Vec<f64>)], scores: &mut [f64]);

    /// Resets indexes and histograms for the next tree.
    fn end_tree(&mut self, ctx: &mut WorkerCtx);

    /// Bytes of training data this worker holds (§3.1.2's data term).
    fn data_bytes(&self) -> usize;
    /// Bytes of the index(es) (§3.2).
    fn index_bytes(&self) -> usize;
    /// Peak bytes of simultaneously live histograms so far (Fig. 10(e)/(f)).
    fn histogram_peak_bytes(&self) -> usize;
}

/// Grows `config.n_trees` trees on one worker under policy `q`. The worker
/// scores one instance per label: its row shard, or all N where every
/// worker holds every row.
pub(crate) fn train_worker<Q: Quadrant>(
    ctx: &mut WorkerCtx,
    mut q: Q,
    labels: &[f32],
    cuts: &BinCuts,
    config: &TrainConfig,
) -> Result<(GbdtModel, Vec<TreeStat>), CommError> {
    let (n, c) = (labels.len(), config.n_outputs());
    let objective = config.objective;
    let mut run = Run {
        config,
        cuts,
        params: SplitParams::from_config(config),
        threads: worker_threads(config, ctx.world()),
        meter: Meter::default(),
        grads: GradBuffer::new(n, c),
        layer: 0,
        frontier: Frontier::default(),
    };
    ctx.stats.threads = run.threads as u64;
    ctx.stats.data_bytes = q.data_bytes() as u64;
    ctx.stats.index_bytes = q.index_bytes() as u64;

    let model = GbdtModel::new(objective, config.learning_rate, cuts.n_features());
    let mut scores = vec![0.0f64; n * c];
    for chunk in scores.chunks_mut(c) {
        chunk.copy_from_slice(&model.init_scores);
    }
    let mut progress = Progress { model, scores, per_tree: Vec::with_capacity(config.n_trees) };

    let mut tracker = TreeTracker::default();
    tracker.lap(ctx); // exclude the policy's set-up from the first tree's cost

    let start_tree = restore_tree_checkpoint(ctx, &mut progress);
    for t in start_tree..config.n_trees {
        ctx.time(Phase::Gradients, || {
            objective.compute_gradients(&progress.scores, labels, &mut run.grads)
        });
        let mut tree = Tree::new(config.n_layers, c);
        let (root_stats, root_count) = Q::root(&mut q, ctx, &run)?;
        run.frontier = Frontier::root(root_stats, root_count);
        let mut leaves: Vec<u32> = Vec::new();
        let (lambda, eta) = (run.params.lambda, config.learning_rate);
        let mut set_leaf = |tree: &mut Tree, node: u32, stats: &NodeStats| {
            tree.set_leaf_from_stats(node, stats, lambda, eta);
            leaves.push(node);
        };

        for layer in 0..config.n_layers {
            ctx.fault_point(t, layer);
            if run.frontier.nodes.is_empty() {
                break;
            }
            if layer + 1 == config.n_layers {
                for &node in &run.frontier.nodes {
                    set_leaf(&mut tree, node, &run.frontier.stats[&node]);
                }
                break;
            }
            run.layer = layer;

            Q::build(&mut q, ctx, &run)?;
            ctx.stats.histogram_peak_bytes = q.histogram_peak_bytes() as u64;
            let decisions = Q::propose(&mut q, ctx, &run)?;

            let mut splits: Vec<(u32, Split)> = Vec::new();
            for (&node, decision) in run.frontier.nodes.iter().zip(decisions) {
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
                        splits.push((node, split));
                    }
                    None => {
                        set_leaf(&mut tree, node, &run.frontier.stats[&node]);
                        q.retire(node);
                    }
                }
            }
            let counts = Q::apply(&mut q, ctx, &splits)?;
            let mut next = Frontier::default();
            for ((node, split), (left, right)) in splits.iter().zip(counts) {
                Frontier::push_children(&mut next, *node, split, left, right);
            }
            run.frontier = next;
        }

        // Every instance's final node is a leaf: update the local scores.
        ctx.time(Phase::Predict, || {
            let leaf_values: Vec<(u32, Vec<f64>)> = leaves
                .iter()
                .map(|&leaf| match &tree.node(leaf).expect("leaf set").kind {
                    tree::NodeKind::Leaf { values } => (leaf, values.clone()),
                    _ => unreachable!("leaves vector only holds leaf nodes"),
                })
                .collect();
            q.add_leaf_values(&leaf_values, &mut progress.scores);
        });

        Q::end_tree(&mut q, ctx);
        progress.model.trees.push(tree);
        progress.per_tree.push(tracker.lap(ctx));
        save_tree_checkpoint(ctx, &progress);
    }
    ctx.stats.parallel_wall_seconds = run.meter.wall_seconds();
    ctx.stats.parallel_busy_seconds = run.meter.busy_seconds();
    Ok((progress.model, progress.per_tree))
}

/// Runs `worker` on every rank of `cluster` with crash recovery and folds
/// the per-rank outputs into one result (the model is identical on every
/// worker; rank 0's is returned).
pub(crate) fn run(
    cluster: &Cluster,
    config: &TrainConfig,
    worker: impl Fn(&mut WorkerCtx) -> Result<(GbdtModel, Vec<TreeStat>), CommError> + Sync,
) -> DistTrainResult {
    config.validate().expect("invalid training config");
    let (outputs, stats) = cluster.run_recoverable(worker);
    let (mut models, per_worker_trees): (Vec<GbdtModel>, Vec<Vec<TreeStat>>) =
        outputs.into_iter().unzip();
    DistTrainResult {
        model: models.swap_remove(0),
        per_tree: merge_tree_stats(&per_worker_trees),
        stats,
    }
}

/// Combines per-worker per-tree stats into straggler-gated records: a
/// synchronous layer waits for the slowest worker, so the cluster-level cost
/// of a tree is the max over workers.
fn merge_tree_stats(per_worker: &[Vec<TreeStat>]) -> Vec<TreeStat> {
    let n_trees = per_worker.iter().map(Vec::len).max().unwrap_or(0);
    (0..n_trees)
        .map(|t| {
            let mut out = TreeStat::default();
            for w in per_worker {
                if let Some(s) = w.get(t) {
                    out.comp_seconds = out.comp_seconds.max(s.comp_seconds);
                    out.comm_seconds = out.comm_seconds.max(s.comm_seconds);
                }
            }
            out
        })
        .collect()
}

/// Per-node gradient sums, ordered by node id. A `BTreeMap` by
/// construction: frontier contents feed split decisions and (via leaf
/// weights) the model itself, so no iteration over this map may depend on
/// process-random hash order (lint rule `map-iteration`).
pub type NodeStatsMap = std::collections::BTreeMap<u32, NodeStats>;

/// Frontier bookkeeping for one growing tree: per-node stats and global
/// instance counts (counts gate `min_node_instances` and drive the
/// subtraction schedule).
#[derive(Debug, Default)]
pub struct Frontier {
    /// Nodes to process this layer, ascending.
    pub nodes: Vec<u32>,
    /// Global gradient sums per node.
    pub stats: NodeStatsMap,
    /// Global instance counts per node.
    pub counts: std::collections::BTreeMap<u32, u64>,
}

impl Frontier {
    /// A root-only frontier.
    pub fn root(stats: NodeStats, count: u64) -> Self {
        let mut f = Frontier::default();
        f.nodes.push(0);
        f.stats.insert(0, stats);
        f.counts.insert(0, count);
        f
    }

    /// Registers the children of a split node for the next layer.
    pub fn push_children(
        next: &mut Frontier,
        node: u32,
        split: &Split,
        left_count: u64,
        right_count: u64,
    ) {
        let (l, r) = tree::children(node);
        next.nodes.push(l);
        next.nodes.push(r);
        next.stats.insert(l, split.left.clone());
        next.stats.insert(r, split.right.clone());
        next.counts.insert(l, left_count);
        next.counts.insert(r, right_count);
    }
}

/// One histogram a layer scans for, and the sibling it yields by
/// subtraction from their parent's histogram, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BuildStep {
    pub node: u32,
    /// `(parent, sibling)`.
    pub derive: Option<(u32, u32)>,
}

/// Which sibling to build and which to derive by subtraction: build the
/// child with fewer instances (§2.1.2 — "first construct the histograms of
/// the one child node with fewer instances"); ties build the left child.
pub fn subtraction_plan(left_count: u64, right_count: u64) -> bool {
    left_count <= right_count
}

/// The schedule of an index that can enumerate a node's instances: scan the
/// smaller sibling of every pair, derive the other (the root is scanned).
pub(crate) fn smaller_sibling_schedule(frontier: &Frontier) -> Vec<BuildStep> {
    if frontier.nodes == [0] {
        return every_node_schedule(frontier);
    }
    frontier
        .nodes
        .chunks(2)
        .map(|pair| {
            let (l, r) = (pair[0], pair[1]);
            let build_left = subtraction_plan(frontier.counts[&l], frontier.counts[&r]);
            let (built, sibling) = if build_left { (l, r) } else { (r, l) };
            BuildStep { node: built, derive: Some((tree::parent(l), sibling)) }
        })
        .collect()
}

/// The schedule without subtraction: every frontier node is scanned. QD1
/// has no other (an instance-to-node index cannot enumerate a node, §3.2.3);
/// for QD4 it is the `use_subtraction: false` ablation.
pub(crate) fn every_node_schedule(frontier: &Frontier) -> Vec<BuildStep> {
    frontier.nodes.iter().map(|&node| BuildStep { node, derive: None }).collect()
}

/// Local gradient sums of the root over a node-to-instance index.
pub(crate) fn sum_root(ctx: &mut WorkerCtx, run: &Run, index: &NodeToInstanceIndex) -> NodeStats {
    let mut stats = NodeStats::zero(run.grads.n_outputs());
    ctx.time(Phase::Gradients, || {
        run.grads.sum_instances(index.instances(0), &mut stats.grads, &mut stats.hesses)
    });
    stats
}

/// [`Quadrant::add_leaf_values`] over a node-to-instance index.
pub(crate) fn add_leaf_values_by_node(
    index: &NodeToInstanceIndex,
    leaves: &[(u32, Vec<f64>)],
    scores: &mut [f64],
) {
    for (leaf, values) in leaves {
        for &i in index.instances(*leaf) {
            let row = &mut scores[i as usize * values.len()..][..values.len()];
            for (score, &v) in row.iter_mut().zip(values) {
                *score += v;
            }
        }
    }
}

/// What a worker carries from tree to tree — and therefore the per-tree
/// recovery checkpoint: the model so far, this worker's raw prediction
/// scores, and the per-tree timings. Everything else (indexes, histograms,
/// gradients) is rebuilt per tree, so replaying the in-flight tree from a
/// restored `Progress` is deterministic.
#[derive(Clone)]
struct Progress {
    model: GbdtModel,
    scores: Vec<f64>,
    per_tree: Vec<TreeStat>,
}

/// Restores the `Progress` a crashed attempt saved, if any; returns the
/// tree index to resume from (0 on a fresh run).
fn restore_tree_checkpoint(ctx: &WorkerCtx, progress: &mut Progress) -> usize {
    if let Some(saved) = ctx.load_checkpoint::<Progress>() {
        *progress = saved;
    }
    progress.model.trees.len()
}

/// Saves the `Progress` after a completed tree (cloned only when a
/// checkpoint store is attached, so fault-free runs pay nothing).
fn save_tree_checkpoint(ctx: &WorkerCtx, progress: &Progress) {
    ctx.save_checkpoint(progress);
}

/// Tracks per-tree deltas of a worker's computation and communication time.
#[derive(Debug, Default, Clone, Copy)]
struct TreeTracker {
    last_comp: f64,
    last_comm: f64,
}

impl TreeTracker {
    /// Returns the (comp, comm) delta since the previous call as a
    /// [`TreeStat`] and advances the baseline.
    fn lap(&mut self, ctx: &WorkerCtx) -> TreeStat {
        let comp = ctx.stats.comp_total();
        let comm = ctx.comm.counters().comm_seconds;
        let stat =
            TreeStat { comp_seconds: comp - self.last_comp, comm_seconds: comm - self.last_comm };
        self.last_comp = comp;
        self.last_comm = comm;
        stat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_split(feature: u32, gain: f64) -> Split {
        Split {
            feature,
            bin: 0,
            default_left: true,
            gain,
            left: NodeStats::zero(1),
            right: NodeStats::zero(1),
        }
    }

    #[test]
    fn subtraction_builds_smaller_child() {
        assert!(subtraction_plan(10, 20));
        assert!(!subtraction_plan(20, 10));
        assert!(subtraction_plan(5, 5)); // tie -> left
    }

    #[test]
    fn schedules_cover_the_frontier() {
        let root = Frontier::root(NodeStats::zero(1), 100);
        let scan_root = vec![BuildStep { node: 0, derive: None }];
        assert_eq!(smaller_sibling_schedule(&root), scan_root);
        assert_eq!(every_node_schedule(&root), scan_root);

        let mut layer = Frontier::default();
        Frontier::push_children(&mut layer, 1, &mk_split(0, 1.0), 30, 10);
        Frontier::push_children(&mut layer, 2, &mk_split(0, 1.0), 20, 40);
        assert_eq!(
            smaller_sibling_schedule(&layer),
            vec![
                BuildStep { node: 4, derive: Some((1, 3)) },
                BuildStep { node: 5, derive: Some((2, 6)) },
            ]
        );
        let every: Vec<u32> = every_node_schedule(&layer).iter().map(|s| s.node).collect();
        assert_eq!(every, vec![3, 4, 5, 6]);
    }

    #[test]
    fn merge_tree_stats_takes_worker_max() {
        let a = vec![TreeStat { comp_seconds: 1.0, comm_seconds: 0.5 }];
        let b = vec![TreeStat { comp_seconds: 0.5, comm_seconds: 2.0 }];
        let merged = merge_tree_stats(&[a, b]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].comp_seconds, 1.0);
        assert_eq!(merged[0].comm_seconds, 2.0);
    }

    #[test]
    fn frontier_tracks_children() {
        let mut f = Frontier::root(NodeStats::zero(1), 100);
        assert_eq!(f.nodes, vec![0]);
        let split = mk_split(0, 1.0);
        let mut next = Frontier::default();
        Frontier::push_children(&mut next, 0, &split, 60, 40);
        assert_eq!(next.nodes, vec![1, 2]);
        assert_eq!(next.counts[&1], 60);
        assert_eq!(next.counts[&2], 40);
        f = next;
        assert!(f.stats.contains_key(&1));
    }
}
