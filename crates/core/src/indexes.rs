//! The three tree-node/instance index structures of the paper (§3.2.1,
//! Figure 5):
//!
//! * [`NodeToInstanceIndex`] — maps a tree node to its instances. The
//!   natural fit for row-store: enables direct row scans per node *and* the
//!   histogram subtraction technique. Implemented as a partitioned positions
//!   array (one `u32` per instance, grouped by node) so splitting a node is
//!   a stable in-place partition, not per-node `Vec` churn.
//! * [`InstanceToNodeIndex`] — maps an instance to its node. The natural fit
//!   for column-store scans (XGBoost / QD1), but it cannot enumerate a
//!   node's instances without a full scan, which is why QD1 cannot exploit
//!   histogram subtraction (§3.2.3). Splitting is a full scan too, so a
//!   layer's splits share one ([`InstanceToNodeIndex::split_layer`]).
//! * [`ColumnWiseIndex`] — a node-to-instance index maintained *per column*
//!   (Yggdrasil / QD3-variant). Locating a node's pairs on every column is
//!   O(1), but every node split must repartition all D columns — the
//!   D-times-higher split cost the paper calls out.

use gbdt_data::{BinId, ColumnStore, InstanceId};
use std::collections::BTreeMap;

/// Node-to-instance index: a positions array partitioned by tree node.
#[derive(Debug, Clone)]
pub struct NodeToInstanceIndex {
    positions: Vec<InstanceId>,
    /// node id → `[start, end)` range into `positions`.
    ranges: BTreeMap<u32, (u32, u32)>,
    scratch: Vec<InstanceId>,
}

impl NodeToInstanceIndex {
    /// All `n_instances` instances start on the root node (id 0).
    pub fn new(n_instances: usize) -> Self {
        let mut ranges = BTreeMap::new();
        ranges.insert(0, (0, n_instances as u32));
        NodeToInstanceIndex {
            positions: (0..n_instances as InstanceId).collect(),
            ranges,
            scratch: Vec::with_capacity(n_instances),
        }
    }

    /// Resets every instance back to the root (start of a new tree).
    pub fn reset(&mut self) {
        for (i, p) in self.positions.iter_mut().enumerate() {
            *p = i as InstanceId;
        }
        self.ranges.clear();
        self.ranges.insert(0, (0, self.positions.len() as u32));
    }

    /// The instances currently on `node` (empty slice when untracked).
    pub fn instances(&self, node: u32) -> &[InstanceId] {
        match self.ranges.get(&node) {
            Some(&(lo, hi)) => &self.positions[lo as usize..hi as usize],
            None => &[],
        }
    }

    /// Number of instances on `node`.
    pub fn count(&self, node: u32) -> usize {
        self.ranges.get(&node).map_or(0, |&(lo, hi)| (hi - lo) as usize)
    }

    /// Splits `node` into its children with a stable partition: instances
    /// for which `goes_left` holds keep their relative order on the left
    /// child, the rest on the right. Returns `(left_count, right_count)`.
    pub fn split(
        &mut self,
        node: u32,
        mut goes_left: impl FnMut(InstanceId) -> bool,
    ) -> (usize, usize) {
        let (lo, hi) = *self.ranges.get(&node).expect("splitting an untracked node");
        let (lo, hi) = (lo as usize, hi as usize);
        self.scratch.clear();
        let mut write = lo;
        // First pass: keep lefts in place (stable), stash rights in scratch.
        for k in lo..hi {
            let inst = self.positions[k];
            if goes_left(inst) {
                self.positions[write] = inst;
                write += 1;
            } else {
                self.scratch.push(inst);
            }
        }
        self.positions[write..hi].copy_from_slice(&self.scratch);
        let (left, right) = crate::tree::children(node);
        self.ranges.remove(&node);
        // Children must partition the parent's range exactly; a re-split or
        // id collision would alias two nodes onto overlapping positions.
        debug_assert!(
            !self.ranges.contains_key(&left) && !self.ranges.contains_key(&right),
            "child node already tracked: split of {node} would alias ranges"
        );
        debug_assert!(lo <= write && write <= hi, "split point outside parent range");
        self.ranges.insert(left, (lo as u32, write as u32));
        self.ranges.insert(right, (write as u32, hi as u32));
        (write - lo, hi - write)
    }

    /// Bytes of heap storage used.
    pub fn heap_bytes(&self) -> usize {
        self.positions.len() * 4 + self.scratch.capacity() * 4 + self.ranges.len() * 16
    }
}

/// Instance-to-node index: one node id per instance.
#[derive(Debug, Clone)]
pub struct InstanceToNodeIndex {
    nodes: Vec<u32>,
}

impl InstanceToNodeIndex {
    /// All instances start on the root node (id 0).
    pub fn new(n_instances: usize) -> Self {
        InstanceToNodeIndex { nodes: vec![0; n_instances] }
    }

    /// Resets every instance back to the root.
    pub fn reset(&mut self) {
        self.nodes.fill(0);
    }

    /// Node currently holding `instance`.
    #[inline]
    pub fn node_of(&self, instance: InstanceId) -> u32 {
        self.nodes[instance as usize]
    }

    /// Moves every instance on `node` to a child according to `goes_left`.
    /// Returns `(left_count, right_count)`.
    pub fn split(
        &mut self,
        node: u32,
        mut goes_left: impl FnMut(InstanceId) -> bool,
    ) -> (usize, usize) {
        self.split_layer(&[node], |i, _| goes_left(i))[0]
    }

    /// Moves the instances of every node in `nodes` to a child in ONE full
    /// scan of the index — the cost the paper attributes to this structure,
    /// paid once per layer as XGBoost's position update does:
    /// `goes_left(instance, k)` decides an instance on `nodes[k]`; instances
    /// on any other node stay put. Returns `(left, right)` counts per node.
    pub fn split_layer(
        &mut self,
        nodes: &[u32],
        mut goes_left: impl FnMut(InstanceId, usize) -> bool,
    ) -> Vec<(usize, usize)> {
        // slot[node - lo] is `node`'s position in `nodes`.
        let lo = nodes.iter().copied().min().unwrap_or(0);
        let mut slot = vec![None; nodes.iter().map(|&n| (n - lo) as usize + 1).max().unwrap_or(0)];
        for (k, &node) in nodes.iter().enumerate() {
            slot[(node - lo) as usize] = Some(k);
        }
        let mut counts = vec![(0, 0); nodes.len()];
        for (i, n) in self.nodes.iter_mut().enumerate() {
            let Some(k) = n.checked_sub(lo).and_then(|s| slot.get(s as usize).copied().flatten())
            else {
                continue;
            };
            let (left, right) = crate::tree::children(*n);
            if goes_left(i as InstanceId, k) {
                *n = left;
                counts[k].0 += 1;
            } else {
                *n = right;
                counts[k].1 += 1;
            }
        }
        counts
    }

    /// Bytes of heap storage used.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.len() * 4
    }
}

/// Column-wise node-to-instance index: each column's 〈instance, bin〉 pairs
/// kept physically partitioned by tree node (Figure 6).
#[derive(Debug, Clone)]
pub struct ColumnWiseIndex {
    n_rows: usize,
    /// Per column: pair arrays, reordered in place as nodes split.
    col_rows: Vec<Vec<InstanceId>>,
    col_bins: Vec<Vec<BinId>>,
    /// node id → per-column `[start, end)` ranges.
    ranges: BTreeMap<u32, Vec<(u32, u32)>>,
}

impl ColumnWiseIndex {
    /// Builds the index from either column-store layout. A dense store
    /// contributes exactly its present cells in ascending instance order —
    /// the same pairs, in the same order, as the sparse store — so the
    /// resulting index (and everything trained from it) is identical.
    pub fn from_store(columns: &ColumnStore) -> Self {
        let d = columns.n_features();
        let mut col_rows = Vec::with_capacity(d);
        let mut col_bins = Vec::with_capacity(d);
        let mut root_ranges = Vec::with_capacity(d);
        for j in 0..d {
            let mut rows: Vec<InstanceId> = Vec::new();
            let mut bins: Vec<BinId> = Vec::new();
            columns.for_each_in_col(j, |i, b| {
                rows.push(i);
                bins.push(b);
            });
            root_ranges.push((0u32, rows.len() as u32));
            col_rows.push(rows);
            col_bins.push(bins);
        }
        let mut ranges = BTreeMap::new();
        ranges.insert(0, root_ranges);
        ColumnWiseIndex { n_rows: columns.n_rows(), col_rows, col_bins, ranges }
    }

    /// Number of instances in the underlying data.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns indexed.
    pub fn n_features(&self) -> usize {
        self.col_rows.len()
    }

    /// The 〈instance, bin〉 pairs of `node` on column `j`.
    pub fn node_column(&self, node: u32, j: usize) -> (&[InstanceId], &[BinId]) {
        match self.ranges.get(&node) {
            Some(r) => {
                let (lo, hi) = r[j];
                (&self.col_rows[j][lo as usize..hi as usize], &self.col_bins[j][lo as usize..hi as usize])
            }
            None => (&[], &[]),
        }
    }

    /// Splits `node`, repartitioning **every** column — the O(D) update cost
    /// that makes this index unsuitable for high-dimensional data (§3.2.3).
    pub fn split(&mut self, node: u32, mut goes_left: impl FnMut(InstanceId) -> bool) {
        let node_ranges = self.ranges.remove(&node).expect("splitting an untracked node");
        let d = self.col_rows.len();
        let mut left_ranges = Vec::with_capacity(d);
        let mut right_ranges = Vec::with_capacity(d);
        let mut scratch_rows: Vec<InstanceId> = Vec::new();
        let mut scratch_bins: Vec<BinId> = Vec::new();
        for (j, &(lo, hi)) in node_ranges.iter().enumerate().take(d) {
            let (lo, hi) = (lo as usize, hi as usize);
            debug_assert!(j < d);
            scratch_rows.clear();
            scratch_bins.clear();
            let mut write = lo;
            for k in lo..hi {
                let inst = self.col_rows[j][k];
                let bin = self.col_bins[j][k];
                if goes_left(inst) {
                    self.col_rows[j][write] = inst;
                    self.col_bins[j][write] = bin;
                    write += 1;
                } else {
                    scratch_rows.push(inst);
                    scratch_bins.push(bin);
                }
            }
            self.col_rows[j][write..hi].copy_from_slice(&scratch_rows);
            self.col_bins[j][write..hi].copy_from_slice(&scratch_bins);
            left_ranges.push((lo as u32, write as u32));
            right_ranges.push((write as u32, hi as u32));
        }
        let (left, right) = crate::tree::children(node);
        // Same aliasing guard as NodeToInstanceIndex::split, per column.
        debug_assert!(
            !self.ranges.contains_key(&left) && !self.ranges.contains_key(&right),
            "child node already tracked: split of {node} would alias ranges"
        );
        self.ranges.insert(left, left_ranges);
        self.ranges.insert(right, right_ranges);
    }

    /// Resets the index for a new tree: every column back on the root.
    pub fn reset_from_store(&mut self, columns: &ColumnStore) {
        *self = Self::from_store(columns);
    }

    /// Bytes of heap storage used.
    pub fn heap_bytes(&self) -> usize {
        self.col_rows.iter().map(|c| c.len() * 4).sum::<usize>()
            + self.col_bins.iter().map(|c| c.len() * 2).sum::<usize>()
            + self.ranges.len() * (8 + self.col_rows.len() * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_data::binned::BinnedRowsBuilder;

    #[test]
    fn node_to_instance_split_is_stable() {
        let mut idx = NodeToInstanceIndex::new(6);
        assert_eq!(idx.instances(0), &[0, 1, 2, 3, 4, 5]);
        let (l, r) = idx.split(0, |i| i % 2 == 0);
        assert_eq!((l, r), (3, 3));
        assert_eq!(idx.instances(1), &[0, 2, 4]);
        assert_eq!(idx.instances(2), &[1, 3, 5]);
        assert!(idx.instances(0).is_empty());
        // Split a child again.
        let (l, r) = idx.split(1, |i| i < 3);
        assert_eq!((l, r), (2, 1));
        assert_eq!(idx.instances(3), &[0, 2]);
        assert_eq!(idx.instances(4), &[4]);
        // Untouched sibling remains.
        assert_eq!(idx.instances(2), &[1, 3, 5]);
    }

    #[test]
    fn node_to_instance_reset() {
        let mut idx = NodeToInstanceIndex::new(4);
        idx.split(0, |i| i < 2);
        idx.reset();
        assert_eq!(idx.instances(0), &[0, 1, 2, 3]);
        assert_eq!(idx.count(1), 0);
    }

    fn nodes_of(idx: &InstanceToNodeIndex, n: u32) -> Vec<u32> {
        (0..n).map(|i| idx.node_of(i)).collect()
    }

    #[test]
    fn instance_to_node_split_scans_all() {
        let mut idx = InstanceToNodeIndex::new(5);
        let (l, r) = idx.split(0, |i| i < 2);
        assert_eq!((l, r), (2, 3));
        assert_eq!(nodes_of(&idx, 5), [1, 1, 2, 2, 2]);
        // Splitting node 2 leaves node 1 instances alone.
        idx.split(2, |i| i == 3);
        assert_eq!(nodes_of(&idx, 5), [1, 1, 6, 5, 6]);
        idx.reset();
        assert_eq!(nodes_of(&idx, 5), [0; 5]);
    }

    #[test]
    fn split_layer_matches_per_node_splits() {
        // Layer 2 of a 12-instance tree: nodes 3, 4, 5 and 6 all populated.
        let mut per_node = InstanceToNodeIndex::new(12);
        per_node.split(0, |i| i < 7);
        per_node.split(1, |i| i % 2 == 0);
        per_node.split(2, |i| i > 9);
        let mut layer = per_node.clone();
        // Nodes 3 and 6 split, each by its own rule; 4 and 5 become leaves.
        let rules: [fn(InstanceId) -> bool; 2] = [|i| i % 3 == 0, |i| i == 8];
        let counts = vec![per_node.split(3, rules[0]), per_node.split(6, rules[1])];
        assert_eq!(layer.split_layer(&[3, 6], |i, k| rules[k](i)), counts);
        assert_eq!(nodes_of(&layer, 12), nodes_of(&per_node, 12));
        // Instance 1 sits on node 4 and 10 on node 5: neither moved.
        assert_eq!((layer.node_of(1), layer.node_of(10)), (4, 5));
        assert_eq!(counts, [(2, 2), (1, 2)]);
    }

    fn sample_columns() -> ColumnStore {
        let mut b = BinnedRowsBuilder::new(2, 8);
        b.push_row(&[(0, 1), (1, 5)]).unwrap(); // inst 0
        b.push_row(&[(0, 2)]).unwrap(); // inst 1
        b.push_row(&[(1, 6)]).unwrap(); // inst 2
        b.push_row(&[(0, 3), (1, 7)]).unwrap(); // inst 3
        ColumnStore::Sparse(b.build().to_columns())
    }

    #[test]
    fn column_wise_index_partitions_every_column() {
        let cols = sample_columns();
        let mut idx = ColumnWiseIndex::from_store(&cols);
        assert_eq!(idx.node_column(0, 0).0, &[0, 1, 3]);
        assert_eq!(idx.node_column(0, 1).0, &[0, 2, 3]);
        // Instances 0, 2 left; 1, 3 right.
        idx.split(0, |i| i == 0 || i == 2);
        assert_eq!(idx.node_column(1, 0), (&[0u32][..], &[1u16][..]));
        assert_eq!(idx.node_column(2, 0), (&[1u32, 3][..], &[2u16, 3][..]));
        assert_eq!(idx.node_column(1, 1), (&[0u32, 2][..], &[5u16, 6][..]));
        assert_eq!(idx.node_column(2, 1), (&[3u32][..], &[7u16][..]));
        // Untracked node yields empty slices.
        assert_eq!(idx.node_column(9, 0).0.len(), 0);
    }

    #[test]
    fn column_wise_index_identical_from_either_layout() {
        let mut b = BinnedRowsBuilder::new(2, 8);
        b.push_row(&[(0, 1), (1, 5)]).unwrap();
        b.push_row(&[(0, 2)]).unwrap();
        b.push_row(&[(1, 6)]).unwrap();
        b.push_row(&[(0, 3), (1, 7)]).unwrap();
        let rows = b.build();
        let sparse = gbdt_data::BinnedStore::sparse(rows.clone()).to_columns();
        let dense = gbdt_data::BinnedStore::dense(rows, 8).to_columns();
        let a = ColumnWiseIndex::from_store(&sparse);
        let bx = ColumnWiseIndex::from_store(&dense);
        for j in 0..2 {
            assert_eq!(a.node_column(0, j), bx.node_column(0, j), "column {j}");
        }
        assert_eq!(a.heap_bytes(), bx.heap_bytes());
    }

    #[test]
    fn column_wise_reset_restores_root() {
        let cols = sample_columns();
        let mut idx = ColumnWiseIndex::from_store(&cols);
        idx.split(0, |i| i < 2);
        idx.reset_from_store(&cols);
        assert_eq!(idx.node_column(0, 0).0, &[0, 1, 3]);
        assert_eq!(idx.node_column(1, 0).0.len(), 0);
    }
}
