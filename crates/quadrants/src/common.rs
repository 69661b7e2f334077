//! What the policies share besides the loop (`grow`): result types, the
//! horizontal root all-reduce, the local-best exchange, wire accounting.

use crate::grow::Run;
use gbdt_cluster::stats::ClusterStats;
use gbdt_cluster::{CommError, WorkerCtx};
use gbdt_core::histogram::HistogramPool;
use gbdt_core::indexes::NodeToInstanceIndex;
use gbdt_core::split::{NodeStats, Split};
use gbdt_core::{kernels, parallel, GbdtModel, Parallelism, Storage, TrainConfig};
use gbdt_data::{BinnedRows, BinnedStore, ColumnStore};
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
/// (QD3, Yggdrasil), consuming the transformation's rows: each stage of rows
/// → row layout → columns is dropped once the next exists, so at most two
/// are live at a time and only the columns outlive the call.
pub(crate) fn column_group_store(rows: BinnedRows, storage: Storage, q: usize) -> ColumnStore {
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
pub(crate) fn record_layer_wire_bytes(
    ctx: &mut WorkerCtx,
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

/// Scans `node`'s rows of a binned row-store into a fresh pool histogram
/// (QD2's shard, QD4's column group, the feature-parallel replica's group
/// view).
pub(crate) fn fill_rows(
    pool: &mut HistogramPool,
    node: u32,
    binned: &BinnedStore,
    index: &NodeToInstanceIndex,
    run: &Run,
) {
    let instances = index.instances(node);
    parallel::build_histogram_chunked(pool, node, instances, run.threads, &run.meter, |hist, chunk| {
        kernels::fill_rows_chunk(hist, chunk, binned, &run.grads, run.config.kernel);
    });
}

/// The child counts of a row-sharded layer: all-reduces the local
/// `[left, right]` pairs of its split nodes into the global ones.
pub(crate) fn all_reduce_counts(
    ctx: &mut WorkerCtx,
    mut counts: Vec<f64>,
) -> Result<Vec<(u64, u64)>, CommError> {
    ctx.comm.all_reduce_f64(&mut counts)?;
    Ok(counts.chunks(2).map(|lr| (lr[0] as u64, lr[1] as u64)).collect())
}

/// The root of a row-sharded tree: all-reduces the local per-class gradient
/// sums, then the local instance count, into the global pair.
pub(crate) fn all_reduce_root(
    ctx: &mut WorkerCtx,
    mut stats: NodeStats,
    n_local: usize,
) -> Result<(NodeStats, u64), CommError> {
    let c = stats.n_outputs();
    let mut buf = Vec::with_capacity(2 * c);
    buf.extend_from_slice(&stats.grads);
    buf.extend_from_slice(&stats.hesses);
    ctx.comm.all_reduce_f64(&mut buf)?;
    stats.grads.copy_from_slice(&buf[..c]);
    stats.hesses.copy_from_slice(&buf[c..]);
    let mut count = vec![n_local as f64];
    ctx.comm.all_reduce_f64(&mut count)?;
    Ok((stats, count[0] as u64))
}

/// All-gathers per-node local best splits and resolves each node's global
/// best deterministically. Shared by every policy that finds splits on
/// feature subsets (QD2-sharded, the vertical quadrants, feature-parallel).
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
}
