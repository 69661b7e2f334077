//! What the policies share besides the loop (`grow`): result types, the
//! horizontal root all-reduce, the local-best exchange, wire accounting.

use gbdt_cluster::stats::ClusterStats;
use gbdt_cluster::{CommError, WorkerCtx};
use gbdt_core::split::{NodeStats, Split};
use gbdt_core::GbdtModel;
use serde::{Deserialize, Serialize};

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
    let n = locals.len();
    let gathered = ctx.comm.all_gather(bytes::Bytes::from(encode_local_bests(locals)))?;
    let mut per_worker = Vec::with_capacity(gathered.len());
    for (from, buf) in gathered.iter().enumerate() {
        per_worker.push(decode_local_bests(buf, n, from)?);
    }
    Ok((0..n).map(|k| choose_global_best(per_worker.iter().map(|w| w[k].clone()))).collect())
}

/// A `u32` node count, then per node a presence byte and, when 1, a
/// `u32`-length-prefixed split.
fn encode_local_bests(locals: &[Option<Split>]) -> Vec<u8> {
    let mut payload = (locals.len() as u32).to_le_bytes().to_vec();
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
    payload
}

/// Rank `from`'s [`encode_local_bests`] output for exactly `n` nodes and
/// nothing after; anything else is [`CommError::Malformed`].
fn decode_local_bests(buf: &[u8], n: usize, from: usize) -> Result<Vec<Option<Split>>, CommError> {
    let decode = || -> Option<Vec<Option<Split>>> {
        let (count, mut rest) = buf.split_first_chunk::<4>()?;
        if u32::from_le_bytes(*count) as usize != n {
            return None;
        }
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            let (&present, tail) = rest.split_first()?;
            rest = tail;
            list.push(match present {
                0 => None,
                1 => {
                    let (len, tail) = rest.split_first_chunk::<4>()?;
                    let (split, tail) = tail.split_at_checked(u32::from_le_bytes(*len) as usize)?;
                    rest = tail;
                    Some(Split::decode_bytes(split)?)
                }
                _ => return None,
            });
        }
        rest.is_empty().then_some(list)
    };
    decode().ok_or(CommError::Malformed { from })
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
    fn malformed_local_bests_are_rejected_not_panicked_on() {
        let locals = vec![Some(mk_split(3, 1.0)), None, Some(mk_split(1, 2.0))];
        let bytes = encode_local_bests(&locals);
        assert_eq!(decode_local_bests(&bytes, 3, 1), Ok(locals));
        let malformed = Err(CommError::Malformed { from: 1 });
        // Every truncation, an over-long payload, and a stray presence byte.
        for cut in 0..bytes.len() {
            assert_eq!(decode_local_bests(&bytes[..cut], 3, 1), malformed, "cut at {cut}");
        }
        assert_eq!(decode_local_bests(&[&bytes[..], &[0]].concat(), 3, 1), malformed);
        let mut stray = bytes.clone();
        stray[4] = 2;
        assert_eq!(decode_local_bests(&stray, 3, 1), malformed);
        // A count other than the receiver's node count: fewer, more, or a
        // hostile one that promises more than the bytes hold.
        assert_eq!(decode_local_bests(&bytes, 2, 1), malformed);
        assert_eq!(decode_local_bests(&bytes, 4, 1), malformed);
        let short = encode_local_bests(&[None, None]);
        assert_eq!(decode_local_bests(&short, 3, 1), malformed);
        assert_eq!(decode_local_bests(&[0xff, 0xff, 0xff, 0xff, 0], 3, 1), malformed);
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
