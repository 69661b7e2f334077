//! What the policies share besides the loop (`grow`): result types, the
//! aggregation choice, and the local-best exchange.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::grow::Run;
use gbdt_cluster::stats::ClusterStats;
use gbdt_cluster::{CommError, WorkerCtx};
use gbdt_core::split::Split;
use gbdt_core::{BinCuts, GbdtModel};
use gbdt_data::frame::{DecodeError, Reader};
use serde::{Deserialize, Serialize};

/// Histogram aggregation strategy for horizontal partitioning (§3.1.3/§4.1).
///
/// All three are one reduction: every worker pushes each feature slice of
/// a histogram to the worker that owns it, which sums the slice. They
/// differ in what follows, i.e. in where splits are found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aggregation {
    /// The push, then every owner sends its reduced slice to every peer:
    /// every worker ends with the global histograms and finds splits
    /// redundantly (XGBoost's pattern).
    AllReduce,
    /// The push alone: each worker finds splits for the feature slice it
    /// reduced, then local bests are exchanged (LightGBM's pattern).
    ReduceScatter,
    /// Parameter-server push + server-side split finding (DimBoost's
    /// pattern): in a co-located deployment the same messages as
    /// reduce-scatter, kept separate for system labelling.
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

/// All-gathers per-node local best splits and resolves each node's global
/// best deterministically. Shared by every policy that finds splits on
/// feature subsets (QD2-sharded, the vertical quadrants, feature-parallel).
pub(crate) fn exchange_local_bests(
    ctx: &mut WorkerCtx,
    run: &Run,
    locals: &[Option<Split>],
) -> Result<Vec<Option<Split>>, CommError> {
    let n = locals.len();
    let gathered = ctx.comm.all_gather(bytes::Bytes::from(encode_local_bests(locals)))?;
    let c = run.grads.n_outputs();
    let mut per_worker = Vec::with_capacity(gathered.len());
    for (from, buf) in gathered.iter().enumerate() {
        per_worker.push(
            decode_local_bests(buf, n, run.cuts, c).map_err(|_| CommError::Malformed { from })?,
        );
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

/// An [`encode_local_bests`] output for exactly `n` nodes and nothing
/// after, every split one the receiver can apply: a feature and a bin of
/// `cuts`, and `c` classes on both children. Anything else is refused.
fn decode_local_bests(
    buf: &[u8],
    n: usize,
    cuts: &BinCuts,
    c: usize,
) -> Result<Vec<Option<Split>>, DecodeError> {
    let fits = |s: &Split| {
        (s.feature as usize) < cuts.n_features()
            && (s.bin as usize) < cuts.n_bins(s.feature)
            && s.left.n_outputs() == c
            && s.right.n_outputs() == c
    };
    let mut r = Reader::new(buf);
    let count = r.u32()? as usize;
    if count != n {
        return Err(r.error(format!("{count} local bests for {n} nodes")));
    }
    let mut list = Vec::with_capacity(n);
    for _ in 0..n {
        list.push(if r.flag()? {
            let len = r.u32()? as usize;
            let split = Split::decode_bytes(r.take(len)?)?;
            if !fits(&split) {
                let what = format!("a split of feature {} the cuts cannot apply", split.feature);
                return Err(r.error(what));
            }
            Some(split)
        } else {
            None
        });
    }
    r.finish()?;
    Ok(list)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_core::split::NodeStats;

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

    /// The receiver's cuts: four features, two bins each.
    fn cuts() -> BinCuts {
        BinCuts::from_cut_values(vec![vec![0.5, 1.5]; 4])
    }

    /// Rank 1's local bests as decoded by a receiver of `cuts()` and C = 1.
    fn decode(bytes: &[u8], n: usize) -> Result<Vec<Option<Split>>, CommError> {
        decode_local_bests(bytes, n, &cuts(), 1).map_err(|_| CommError::Malformed { from: 1 })
    }

    const MALFORMED: Result<Vec<Option<Split>>, CommError> = Err(CommError::Malformed { from: 1 });

    #[test]
    fn malformed_local_bests_are_rejected_not_panicked_on() {
        let locals = vec![Some(mk_split(3, 1.0)), None, Some(mk_split(1, 2.0))];
        let bytes = encode_local_bests(&locals);
        assert_eq!(decode(&bytes, 3), Ok(locals));
        // Every truncation, an over-long payload, and a stray presence byte.
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut], 3), MALFORMED, "cut at {cut}");
        }
        assert_eq!(decode(&[&bytes[..], &[0]].concat(), 3), MALFORMED);
        let mut stray = bytes.clone();
        stray[4] = 2;
        assert_eq!(decode(&stray, 3), MALFORMED);
        // A count other than the receiver's node count: fewer, more, or a
        // hostile one that promises more than the bytes hold.
        assert_eq!(decode(&bytes, 2), MALFORMED);
        assert_eq!(decode(&bytes, 4), MALFORMED);
        let short = encode_local_bests(&[None, None]);
        assert_eq!(decode(&short, 3), MALFORMED);
        assert_eq!(decode(&[0xff, 0xff, 0xff, 0xff, 0], 3), MALFORMED);
    }

    #[test]
    fn a_default_byte_other_than_0_or_1_is_malformed() {
        let bytes = encode_local_bests(&[Some(mk_split(2, 1.0))]);
        // Count (4), presence (1), length (4), then the split: feature (4),
        // bin (2), default side.
        let at = 4 + 1 + 4 + 6;
        assert_eq!(bytes[at], 1);
        for default in [2u8, 0x80, 0xff] {
            let mut hostile = bytes.clone();
            hostile[at] = default;
            assert_eq!(decode(&hostile, 1), MALFORMED, "default byte {default:#x}");
        }
        let mut right = bytes.clone();
        right[at] = 0;
        assert!(!decode(&right, 1).unwrap()[0].as_ref().unwrap().default_left);
    }

    #[test]
    fn a_feature_or_bin_outside_the_cuts_is_malformed() {
        let applicable = Split { bin: 1, ..mk_split(3, 1.0) };
        assert!(decode(&encode_local_bests(&[Some(applicable.clone())]), 1).is_ok());
        // A feature past D, far past it, and a bin past the feature's bins:
        // each would index past the cuts when the tree takes its threshold.
        for hostile in [
            Split { feature: 4, ..applicable.clone() },
            Split { feature: u32::MAX, ..applicable.clone() },
            Split { bin: 2, ..applicable.clone() },
            Split { bin: u16::MAX, ..applicable.clone() },
        ] {
            let bytes = encode_local_bests(&[None, Some(hostile.clone())]);
            assert_eq!(decode(&bytes, 2), MALFORMED, "{hostile:?}");
        }
    }

    #[test]
    fn a_child_with_the_wrong_class_count_is_malformed() {
        for (left, right) in [(2, 1), (1, 2), (0, 0), (3, 3)] {
            let hostile = Split {
                left: NodeStats::zero(left),
                right: NodeStats::zero(right),
                ..mk_split(0, 1.0)
            };
            let bytes = encode_local_bests(&[Some(hostile)]);
            assert_eq!(decode(&bytes, 1), MALFORMED, "C = {left} / {right}");
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
