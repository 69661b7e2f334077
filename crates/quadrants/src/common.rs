//! Shared pieces of the layer-wise growth engine.

use gbdt_cluster::stats::ClusterStats;
use gbdt_core::split::{NodeStats, Split};
use gbdt_core::tree::{self, Tree};
use gbdt_core::{GbdtModel, Parallelism, Storage, TrainConfig};
use gbdt_data::block::BlockedRows;
use gbdt_data::ColumnStore;
use serde::{Deserialize, Serialize};

/// Resolves the per-worker intra-worker thread budget for a run: the
/// config's explicit `threads` if non-zero, otherwise the cores of the
/// machine divided evenly among the `world` co-located workers so the
/// simulated cluster never oversubscribes the host (§5.1 runs W workers in
/// one process).
pub fn worker_threads(config: &TrainConfig, world: usize) -> usize {
    Parallelism { threads: config.threads }.resolve(world)
}

/// A vertical worker's column group as the column-store `storage` selects
/// (QD3, Yggdrasil), consuming the transformation's blocked rows: each stage
/// of blocked rows → binned rows → row layout → columns is dropped once the
/// next exists, so at most two are live at a time and only the columns
/// outlive the call.
pub(crate) fn column_group_store(local_data: BlockedRows, storage: Storage, q: usize) -> ColumnStore {
    let rows = local_data.to_binned_rows();
    drop(local_data);
    storage.bin_store(rows, q).to_columns()
}

/// Histogram aggregation strategy for horizontal partitioning (§3.1.3/§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aggregation {
    /// Ring all-reduce: every worker ends with the global histograms and
    /// finds splits redundantly (XGBoost's pattern).
    AllReduce,
    /// Feature-sharded reduce-scatter: each worker aggregates and finds
    /// splits for a feature subset, then local bests are exchanged
    /// (LightGBM's pattern).
    ReduceScatter,
    /// Parameter-server push + server-side split finding (DimBoost's
    /// pattern); mechanically the same sharded reduction as reduce-scatter
    /// in a co-located deployment, kept separate for system labelling.
    ParameterServer,
}

/// Per-tree timing record (drives the paper's per-tree cost plots).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TreeStat {
    /// Wall-clock seconds of computation this worker spent on the tree.
    pub comp_seconds: f64,
    /// Modelled communication seconds this worker accrued on the tree.
    pub comm_seconds: f64,
}

/// Result of a distributed training run.
#[derive(Debug)]
pub struct DistTrainResult {
    /// The trained model (identical on every worker; taken from rank 0).
    pub model: GbdtModel,
    /// Per-tree max-over-workers timing.
    pub per_tree: Vec<TreeStat>,
    /// Per-worker instrumentation.
    pub stats: ClusterStats,
}

impl DistTrainResult {
    /// Mean per-tree computation seconds (straggler-gated).
    pub fn mean_tree_comp_seconds(&self) -> f64 {
        mean(self.per_tree.iter().map(|t| t.comp_seconds))
    }

    /// Mean per-tree communication seconds (straggler-gated).
    pub fn mean_tree_comm_seconds(&self) -> f64 {
        mean(self.per_tree.iter().map(|t| t.comm_seconds))
    }

    /// Mean per-tree total (comp + comm) seconds.
    pub fn mean_tree_seconds(&self) -> f64 {
        self.mean_tree_comp_seconds() + self.mean_tree_comm_seconds()
    }

    /// Total modelled run seconds: straggler-gated per-tree comp + comm,
    /// plus any crash-recovery replay time.
    pub fn total_seconds(&self) -> f64 {
        self.per_tree.iter().map(|t| t.comp_seconds + t.comm_seconds).sum::<f64>()
            + self.stats.recovery_seconds
    }

    /// Standard deviation of per-tree total seconds (Figure 10 error bars).
    pub fn std_tree_seconds(&self) -> f64 {
        let totals: Vec<f64> =
            self.per_tree.iter().map(|t| t.comp_seconds + t.comm_seconds).collect();
        let m = mean(totals.iter().copied());
        (mean(totals.iter().map(|t| (t - m) * (t - m)))).sqrt()
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Combines per-worker per-tree stats into straggler-gated records: a
/// synchronous layer waits for the slowest worker, so the cluster-level cost
/// of a tree is the max over workers.
pub fn merge_tree_stats(per_worker: &[Vec<TreeStat>]) -> Vec<TreeStat> {
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

/// Which sibling to build and which to derive by subtraction: build the
/// child with fewer instances (§2.1.2 — "first construct the histograms of
/// the one child node with fewer instances"); ties build the left child.
pub fn subtraction_plan(left_count: u64, right_count: u64) -> (bool, bool) {
    // (build_left, build_right): exactly one true.
    if left_count <= right_count {
        (true, false)
    } else {
        (false, true)
    }
}

/// Picks the global best split from per-worker candidates, deterministically
/// (max gain; ties toward smaller feature, then smaller bin).
pub fn choose_global_best(candidates: impl IntoIterator<Item = Option<Split>>) -> Option<Split> {
    let mut best: Option<Split> = None;
    for c in candidates.into_iter().flatten() {
        if best.as_ref().is_none_or(|b| c.better_than(b)) {
            best = Some(c);
        }
    }
    best
}

/// Decision taken for one frontier node after split finding.
#[derive(Debug, Clone)]
pub enum NodeDecision {
    /// Split with the given plan.
    Split(Split),
    /// Turn into a leaf (no valid split / too few instances / depth).
    Leaf,
}

/// Finalizes a node as a leaf on the tree (Eq. 1 weights × η).
pub fn set_leaf(tree: &mut Tree, node: u32, stats: &NodeStats, lambda: f64, eta: f64) {
    tree.set_leaf_from_stats(node, stats, lambda, eta);
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

/// [`gbdt_partition::HorizontalPartition::shard`] under the name the
/// stand-alone benchmark's probes import; the trainers call the method.
pub fn shard_dataset(
    dataset: &gbdt_data::Dataset,
    partition: gbdt_partition::HorizontalPartition,
    rank: usize,
) -> gbdt_data::Dataset {
    partition.shard(dataset, rank)
}

/// Records the logical-vs-wire histogram-aggregation bytes this worker
/// moved during one tree layer, as the delta from a counters snapshot taken
/// just before the layer's aggregation calls.
pub fn record_layer_wire_bytes(
    ctx: &mut gbdt_cluster::WorkerCtx,
    layer: usize,
    before: gbdt_cluster::comm::CommCounters,
) {
    let now = ctx.comm.counters();
    ctx.stats.record_layer_bytes(
        layer,
        now.logical_f64_bytes - before.logical_f64_bytes,
        now.wire_f64_bytes - before.wire_f64_bytes,
    );
}

/// All-reduces per-class node statistics in place (horizontal root stats).
pub fn all_reduce_stats(
    ctx: &mut gbdt_cluster::WorkerCtx,
    stats: &mut NodeStats,
) -> Result<(), gbdt_cluster::CommError> {
    let c = stats.n_outputs();
    let mut buf = Vec::with_capacity(2 * c);
    buf.extend_from_slice(&stats.grads);
    buf.extend_from_slice(&stats.hesses);
    ctx.comm.all_reduce_f64(&mut buf)?;
    stats.grads.copy_from_slice(&buf[..c]);
    stats.hesses.copy_from_slice(&buf[c..]);
    Ok(())
}

/// Per-tree recovery checkpoint every distributed trainer saves at tree
/// boundaries: the model so far, this worker's raw prediction scores, and
/// the per-tree timings. Replay resumes at `model.trees.len()`.
pub type TreeCheckpoint = (GbdtModel, Vec<f64>, Vec<TreeStat>);

/// Restores a surviving [`TreeCheckpoint`] from a crashed attempt into the
/// trainer's state; returns the tree index to resume from (0 on a fresh
/// run). Everything not checkpointed (indexes, histogram pools, gradients)
/// is rebuilt per tree, so replaying the in-flight tree from here is
/// deterministic.
pub fn restore_tree_checkpoint(
    ctx: &gbdt_cluster::WorkerCtx,
    model: &mut GbdtModel,
    scores: &mut Vec<f64>,
    per_tree: &mut Vec<TreeStat>,
) -> usize {
    if let Some((m, s, p)) = ctx.load_checkpoint::<TreeCheckpoint>() {
        *model = m;
        *scores = s;
        *per_tree = p;
    }
    model.trees.len()
}

/// Saves the [`TreeCheckpoint`] after a completed tree. Skipped entirely
/// when no checkpoint store is attached, so fault-free runs pay no clone.
pub fn save_tree_checkpoint(
    ctx: &gbdt_cluster::WorkerCtx,
    model: &GbdtModel,
    scores: &[f64],
    per_tree: &[TreeStat],
) {
    if ctx.has_checkpoint_store() {
        ctx.save_checkpoint(&(model.clone(), scores.to_vec(), per_tree.to_vec()));
    }
}

/// Tracks per-tree deltas of a worker's computation and communication time.
#[derive(Debug, Default, Clone, Copy)]
pub struct TreeTracker {
    last_comp: f64,
    last_comm: f64,
}

impl TreeTracker {
    /// Returns the (comp, comm) delta since the previous call as a
    /// [`TreeStat`] and advances the baseline.
    pub fn lap(&mut self, ctx: &gbdt_cluster::WorkerCtx) -> TreeStat {
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
        assert_eq!(subtraction_plan(10, 20), (true, false));
        assert_eq!(subtraction_plan(20, 10), (false, true));
        assert_eq!(subtraction_plan(5, 5), (true, false)); // tie -> left
    }

    #[test]
    fn global_best_is_deterministic() {
        let got = choose_global_best(vec![
            Some(mk_split(3, 1.0)),
            None,
            Some(mk_split(1, 2.0)),
            Some(mk_split(2, 2.0)),
        ]);
        let got = got.unwrap();
        assert_eq!(got.feature, 1); // max gain, tie -> lower feature
        assert!(choose_global_best(vec![None, None]).is_none());
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
