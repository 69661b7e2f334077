//! Vertical partitioning (§3.1, §4.2.2): one policy, three storages.
//!
//! After the horizontal-to-vertical transformation every worker holds all N
//! rows of its column group and every label, so gradients, root statistics
//! and histograms are exact locally and **no histogram crosses the wire**:
//! workers exchange only their local best splits, and the owner of a split
//! feature broadcasts the instance placement as a bitmap (`⌈N/8⌉` bytes)
//! that every worker applies to its identical node-to-instance index.
//! Every vertical worker starts from the one row-store the transformation
//! assembled. QD3, QD4 and Yggdrasil are this policy over a different
//! [`GroupStore`] built from it — columns, the rows themselves (a
//! `BinnedStore`), node-partitioned columns: exactly the §5.2.2 controlled
//! comparison — and feature-parallel is its
//! replicated case: a store that also holds everyone else's features, so
//! it overrides [`GroupStore::place`] and never broadcasts.

use crate::common::{exchange_local_bests, DistTrainResult};
use crate::grow::{
    self, add_leaf_values_by_node, every_node_schedule, smaller_sibling_schedule, sum_root,
    Quadrant, Run,
};
use gbdt_cluster::{Cluster, CommError, Phase, WorkerCtx};
use gbdt_core::histogram::HistogramPool;
use gbdt_core::indexes::NodeToInstanceIndex;
use gbdt_core::split::{best_split_parallel, NodeStats, Split};
use gbdt_core::tree;
use gbdt_core::TrainConfig;
use gbdt_data::dataset::Dataset;
use gbdt_data::{BinId, BinnedRows, FeatureId, InstanceId};
use gbdt_partition::transform::{horizontal_to_vertical, TransformConfig, TransformOutput};
use gbdt_partition::{ColumnGrouping, HorizontalPartition, PlacementBitmap};

/// How a worker stores the features it answers for (in its own feature-id
/// space) and what it keeps beside the shared node-to-instance index.
pub(crate) trait GroupStore {
    /// Scans `node`'s values into a fresh pool histogram.
    fn fill(&self, pool: &mut HistogramPool, node: u32, index: &NodeToInstanceIndex, run: &Run);

    /// The bin of `instance` on `feature` (group-local id), `None` when the
    /// value is absent.
    fn bin(&self, instance: InstanceId, feature: FeatureId) -> Option<BinId>;

    /// Places a node's `instances` (bit k = k-th of them) on every worker. A
    /// column group is the only holder of its features: the split feature's
    /// owner looks each instance up and broadcasts the bitmap (`⌈N/8⌉` bytes
    /// — §4.2.2's 32× reduction).
    fn place(
        &self,
        ctx: &mut WorkerCtx,
        grouping: &ColumnGrouping,
        instances: &[InstanceId],
        split: &Split,
    ) -> Result<PlacementBitmap, CommError> {
        let owner = grouping.group_of(split.feature);
        let payload = if ctx.rank() == owner {
            let feature = grouping.local_id(split.feature);
            let bitmap = ctx.time(Phase::NodeSplit, || {
                placement_by(instances, split, |inst| self.bin(inst, feature))
            });
            bytes::Bytes::from(bitmap.encode_bytes())
        } else {
            bytes::Bytes::new()
        };
        decode_placement(&ctx.comm.broadcast(owner, payload)?, instances.len(), owner)
    }

    /// Partitions the storage's own second index, if it keeps one.
    fn partition(&mut self, _node: u32, _instances: &[InstanceId], _bitmap: &PlacementBitmap) {}

    /// Resets the second index for the next tree.
    fn end_tree(&mut self, _ctx: &mut WorkerCtx) {}

    /// Bytes of the stored features.
    fn data_bytes(&self) -> usize;

    /// Bytes of the second index.
    fn index_bytes(&self) -> usize {
        0
    }
}

/// Places the instances of a node by looking each one's bin up: left when
/// `bin <= split.bin`, the split's default side when the value is absent.
pub(crate) fn placement_by(
    instances: &[InstanceId],
    split: &Split,
    bin_of: impl Fn(InstanceId) -> Option<BinId>,
) -> PlacementBitmap {
    PlacementBitmap::from_predicate(instances.len(), |k| match bin_of(instances[k]) {
        Some(b) => b <= split.bin,
        None => split.default_left,
    })
}

/// The `owner`'s broadcast placement of a node's `n` instances; anything
/// else is [`CommError::Malformed`].
fn decode_placement(payload: &[u8], n: usize, owner: usize) -> Result<PlacementBitmap, CommError> {
    PlacementBitmap::decode_bytes(payload)
        .filter(|bitmap| bitmap.len() == n)
        .ok_or(CommError::Malformed { from: owner })
}

/// Spreads a node's placement bitmap into a by-instance-id mask, so an
/// index that does not visit the node's instances in list order can split.
pub(crate) fn mark_left(mask: &mut [bool], instances: &[InstanceId], bitmap: &PlacementBitmap) {
    for (k, &inst) in instances.iter().enumerate() {
        mask[inst as usize] = bitmap.goes_left(k);
    }
}

/// The policy of a worker that holds all N rows of a feature group and
/// every label: gradients, root statistics and histograms are exact
/// locally, so only local best splits and placements are communicated.
pub(crate) struct Vertical<S> {
    pub store: S,
    pub grouping: ColumnGrouping,
    /// Identical on every worker: the placements keep it so.
    pub index: NodeToInstanceIndex,
    /// Histograms over this worker's group, in group-local feature ids.
    pub pool: HistogramPool,
    pub n_rows: usize,
    pub use_subtraction: bool,
}

impl<S: GroupStore> Quadrant for Vertical<S> {
    fn root(&mut self, ctx: &mut WorkerCtx, run: &Run) -> Result<(NodeStats, u64), CommError> {
        Ok((sum_root(ctx, run, &self.index), self.n_rows as u64))
    }

    /// Nothing is aggregated: scan, then derive the sibling — or, when
    /// nothing will be derived from the parent, drop the parent.
    fn build(&mut self, ctx: &mut WorkerCtx, run: &Run) -> Result<(), CommError> {
        let steps = if self.use_subtraction {
            smaller_sibling_schedule(&run.frontier)
        } else {
            every_node_schedule(&run.frontier)
        };
        ctx.time(Phase::HistogramBuild, || {
            for step in steps {
                self.store.fill(&mut self.pool, step.node, &self.index, run);
                match step.derive {
                    Some((parent, sibling)) => {
                        self.pool.subtract_sibling(parent, step.node, sibling)
                    }
                    None if step.node > 0 => self.pool.release(tree::parent(step.node)),
                    None => {}
                }
            }
        });
        Ok(())
    }

    /// Local best splits over this worker's group (reported under global
    /// feature ids), then the exchange that picks each node's global best.
    fn propose(
        &mut self,
        ctx: &mut WorkerCtx,
        run: &Run,
    ) -> Result<Vec<Option<Split>>, CommError> {
        let rank = ctx.rank();
        let to_global = |f: FeatureId| self.grouping.global_id(rank, f);
        let locals = run.scan(ctx, |node, stats| {
            best_split_parallel(
                self.pool.get(node).expect("histogram live"),
                stats,
                &run.params,
                |f| run.cuts.n_bins(to_global(f)),
                to_global,
                run.threads,
            )
        });
        exchange_local_bests(ctx, &locals)
    }

    fn retire(&mut self, node: u32) {
        self.pool.release(node);
    }

    fn apply(
        &mut self,
        ctx: &mut WorkerCtx,
        splits: &[(u32, Split)],
    ) -> Result<Vec<(u64, u64)>, CommError> {
        let mut counts = Vec::with_capacity(splits.len());
        for (node, split) in splits {
            let node = *node;
            let instances = self.index.instances(node);
            let bitmap = S::place(&self.store, ctx, &self.grouping, instances, split)?;
            let (left, right) = ctx.time(Phase::NodeSplit, || {
                self.store.partition(node, self.index.instances(node), &bitmap);
                // The index visits a node's instances in order; bit k maps
                // to the k-th instance.
                let mut k = 0;
                self.index.split(node, |_| {
                    let left = bitmap.goes_left(k);
                    k += 1;
                    left
                })
            });
            counts.push((left as u64, right as u64));
        }
        Ok(counts)
    }

    /// Identical work on every worker, keeping their scores in lockstep.
    fn add_leaf_values(&self, leaves: &[(u32, Vec<f64>)], scores: &mut [f64]) {
        add_leaf_values_by_node(&self.index, leaves, scores);
    }

    fn end_tree(&mut self, ctx: &mut WorkerCtx) {
        self.pool.release_all();
        self.index.reset();
        self.store.end_tree(ctx);
    }

    fn data_bytes(&self) -> usize {
        // The stored features plus every instance label.
        self.store.data_bytes() + self.n_rows * 4
    }

    fn index_bytes(&self) -> usize {
        self.index.heap_bytes() + self.store.index_bytes()
    }

    fn histogram_peak_bytes(&self) -> usize {
        self.pool.peak_bytes()
    }
}

/// Trains a vertical quadrant: shard → transform → `store` (which consumes
/// the row-store the transformation assembled: all N rows of this worker's
/// feature group, in group-local ids) → the growth loop. The transformation
/// bins with `config`'s q, the one the histograms are sized for.
pub(crate) fn train<S: GroupStore>(
    cluster: &Cluster,
    dataset: &Dataset,
    config: &TrainConfig,
    transform_cfg: &TransformConfig,
    use_subtraction: bool,
    store: impl Fn(BinnedRows) -> S + Sync,
) -> DistTrainResult {
    let partition = HorizontalPartition::new(dataset.n_instances(), cluster.world);
    let transform_cfg = TransformConfig { n_bins: config.n_bins, ..transform_cfg.clone() };
    grow::run(cluster, config, |ctx| {
        let shard = partition.shard(dataset, ctx.rank());
        let TransformOutput { cuts, grouping, local_data, labels, .. } =
            horizontal_to_vertical(ctx, &shard, partition, &transform_cfg)?;
        let n_rows = local_data.n_rows();
        let p_local = grouping.group_len(ctx.rank());
        let policy = Vertical {
            store: ctx.time(Phase::Transform, || store(local_data)),
            grouping,
            index: NodeToInstanceIndex::new(n_rows),
            pool: HistogramPool::new(p_local, config.n_bins, config.n_outputs()),
            n_rows,
            use_subtraction,
        };
        grow::train_worker(ctx, policy, &labels, &cuts, config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_placement_that_does_not_cover_the_node_is_malformed() {
        let bitmap = PlacementBitmap::from_predicate(70, |k| k % 3 == 0);
        let bytes = bitmap.encode_bytes();
        assert_eq!(decode_placement(&bytes, 70, 1), Ok(bitmap));
        let malformed = Err(CommError::Malformed { from: 1 });
        // Truncated header, truncated body, over-long body.
        assert_eq!(decode_placement(&bytes[..5], 70, 1), malformed);
        assert_eq!(decode_placement(&bytes[..bytes.len() - 1], 70, 1), malformed);
        assert_eq!(decode_placement(&[&bytes[..], &[0]].concat(), 70, 1), malformed);
        // A well-formed bitmap over the wrong number of instances.
        assert_eq!(decode_placement(&bytes, 71, 1), malformed);
        assert_eq!(decode_placement(&bytes, 64, 1), malformed);
        assert_eq!(decode_placement(&[], 0, 1), malformed);
    }
}
