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
//!   (Yggdrasil / QD3-variant). It holds the column group's packed keys
//!   themselves, so it is the store as well as the index. Locating a node's
//!   pairs on every column is O(1), but every node split must repartition
//!   all D columns — the D-times-higher split cost the paper calls out.

use gbdt_data::{BinId, ColumnStore, InstanceId, PairKeys};
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
/// kept physically partitioned by tree node (Figure 6). It is the column
/// group's one copy of its data: the packed keys it is built from, with
/// each tracked node's keys contiguous within every column.
#[derive(Debug, Clone)]
pub struct ColumnWiseIndex {
    n_rows: usize,
    /// Every column's keys back to back, column `j` at
    /// `col_start[j]..col_start[j + 1]`; splits reorder keys within a column.
    pairs: PairKeys,
    col_start: Vec<usize>,
    /// Node id → its slot in `ranges` (`UNTRACKED` when it has none).
    slot_of: Vec<u32>,
    /// One slot per tracked node: its D per-column `[start, end)` ranges.
    ranges: Vec<(u32, u32)>,
    n_slots: usize,
    /// A split's right-hand keys between its two passes, sized once for
    /// the longest column.
    scratch: Vec<u64>,
}

const UNTRACKED: u32 = u32::MAX;

impl ColumnWiseIndex {
    /// Builds the index from either column-store layout, consuming it: a
    /// sparse store hands over its keys, and a dense one yields its present
    /// cells in ascending instance order into exactly as many keys — the
    /// same pairs, in the same order, as the sparse store.
    pub fn from_store(columns: ColumnStore) -> Self {
        let n_rows = columns.n_rows();
        let (col_start, pairs) = match columns {
            ColumnStore::Sparse(c) => c.into_parts(),
            ColumnStore::Dense(d) => {
                let mut pairs = PairKeys::with_capacity(n_rows, d.n_bins(), d.nnz());
                let mut col_start = Vec::with_capacity(d.n_features() + 1);
                col_start.push(0);
                for j in 0..d.n_features() {
                    d.for_each_in_col(j, |i, b| pairs.push(i, b));
                    col_start.push(pairs.len());
                }
                (col_start, pairs)
            }
        };
        assert!(pairs.len() <= u32::MAX as usize, "{} pairs overflow u32 ranges", pairs.len());
        let longest = col_start.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let mut index = ColumnWiseIndex {
            n_rows,
            pairs,
            col_start,
            slot_of: Vec::new(),
            ranges: Vec::new(),
            n_slots: 0,
            scratch: Vec::with_capacity(longest),
        };
        index.reset();
        index
    }

    /// Number of instances in the underlying data.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns indexed.
    pub fn n_features(&self) -> usize {
        self.col_start.len() - 1
    }

    /// Where `node`'s ranges start in `ranges`, if it is tracked.
    fn slot(&self, node: u32) -> Option<usize> {
        let d = self.n_features();
        self.slot_of.get(node as usize).filter(|&&s| s != UNTRACKED).map(|&s| s as usize * d)
    }

    /// The 〈instance, bin〉 pairs of `node` on column `j` (none when the
    /// node is untracked).
    #[inline]
    pub fn for_each_in(&self, node: u32, j: usize, f: impl FnMut(InstanceId, BinId)) {
        if let Some(at) = self.slot(node) {
            let (lo, hi) = self.ranges[at + j];
            self.pairs.for_each(lo as usize..hi as usize, f);
        }
    }

    /// Splits `node`, repartitioning **every** column — the O(D) update cost
    /// that makes this index unsuitable for high-dimensional data (§3.2.3).
    /// Each column's node range is partitioned stably in place; after the
    /// first tree of a shape nothing is allocated.
    pub fn split(&mut self, node: u32, mut goes_left: impl FnMut(InstanceId) -> bool) {
        let at = self.slot(node).expect("splitting an untracked node");
        let (left, right) = crate::tree::children(node);
        if self.slot_of.len() <= right as usize {
            self.slot_of.resize(right as usize + 1, UNTRACKED);
        }
        // Same aliasing guard as NodeToInstanceIndex::split, per column.
        debug_assert!(
            self.slot_of[left as usize] == UNTRACKED && self.slot_of[right as usize] == UNTRACKED,
            "child node already tracked: split of {node} would alias ranges"
        );
        let d = self.n_features();
        // The left child keeps the parent's slot; the right takes a new one.
        let right_at = self.n_slots * d;
        self.ranges.resize(right_at + d, (0, 0));
        for j in 0..d {
            let (lo, hi) = self.ranges[at + j];
            let range = lo as usize..hi as usize;
            let mid = self.pairs.partition(range, &mut self.scratch, &mut goes_left) as u32;
            self.ranges[at + j] = (lo, mid);
            self.ranges[right_at + j] = (mid, hi);
        }
        self.slot_of[left as usize] = self.slot_of[node as usize];
        self.slot_of[right as usize] = self.n_slots as u32;
        self.slot_of[node as usize] = UNTRACKED;
        self.n_slots += 1;
    }

    /// Resets the index for a new tree: the node table cleared and every
    /// column's whole range back on the root, D ranges written. No key
    /// moves: each column holds the same pairs in whatever order the last
    /// tree left, and every histogram sum is exact in any order.
    pub fn reset(&mut self) {
        self.slot_of.fill(UNTRACKED);
        match self.slot_of.first_mut() {
            Some(root) => *root = 0,
            None => self.slot_of.push(0),
        }
        self.n_slots = 1;
        self.ranges.clear();
        self.ranges.extend(self.col_start.windows(2).map(|w| (w[0] as u32, w[1] as u32)));
    }

    /// Bytes of the stored data: the keys and the column offsets.
    pub fn data_bytes(&self) -> usize {
        self.pairs.heap_bytes() + self.col_start.len() * std::mem::size_of::<usize>()
    }

    /// Bytes of the index proper: the node table, the per-node ranges and
    /// the split's scratch.
    pub fn index_bytes(&self) -> usize {
        self.slot_of.len() * 4 + self.ranges.len() * 8 + self.scratch.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_data::binned::BinnedRowsBuilder;
    use std::collections::BTreeSet;

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

    fn sample_rows() -> gbdt_data::BinnedRows {
        let mut b = BinnedRowsBuilder::new(2, 8);
        b.push_row(&[(0, 1), (1, 5)]).unwrap(); // inst 0
        b.push_row(&[(0, 2)]).unwrap(); // inst 1
        b.push_row(&[(1, 6)]).unwrap(); // inst 2
        b.push_row(&[(0, 3), (1, 7)]).unwrap(); // inst 3
        b.build()
    }

    fn sample_columns() -> ColumnStore {
        ColumnStore::Sparse(sample_rows().to_columns())
    }

    /// `node`'s pairs on column `j`, in stored order.
    fn pairs_of(idx: &ColumnWiseIndex, node: u32, j: usize) -> Vec<(InstanceId, BinId)> {
        let mut out = Vec::new();
        idx.for_each_in(node, j, |i, b| out.push((i, b)));
        out
    }

    /// `node`'s pairs on column `j` as a set.
    fn set_of(idx: &ColumnWiseIndex, node: u32, j: usize) -> BTreeSet<(InstanceId, BinId)> {
        pairs_of(idx, node, j).into_iter().collect()
    }

    /// 60 instances over 5 columns, each present on about two thirds.
    fn wide_columns() -> ColumnStore {
        let mut b = BinnedRowsBuilder::new(5, 16);
        for i in 0..60u32 {
            let row: Vec<(u32, BinId)> = (0..5u32)
                .filter(|j| (i * 7 + j * 3) % 3 != 0)
                .map(|j| (j, ((i * 13 + j * 5) % 16) as BinId))
                .collect();
            b.push_row(&row).unwrap();
        }
        ColumnStore::Sparse(b.build().to_columns())
    }

    /// Grows one two-layer tree: the root, then both children, each by its
    /// own rule.
    fn grow(idx: &mut ColumnWiseIndex, rules: [fn(InstanceId) -> bool; 3]) {
        idx.split(0, rules[0]);
        idx.split(1, rules[1]);
        idx.split(2, rules[2]);
    }

    #[test]
    fn column_wise_index_partitions_every_column() {
        let mut idx = ColumnWiseIndex::from_store(sample_columns());
        assert_eq!(pairs_of(&idx, 0, 0), [(0, 1), (1, 2), (3, 3)]);
        assert_eq!(pairs_of(&idx, 0, 1), [(0, 5), (2, 6), (3, 7)]);
        // Instances 0, 2 left; 1, 3 right.
        idx.split(0, |i| i == 0 || i == 2);
        assert_eq!(pairs_of(&idx, 1, 0), [(0, 1)]);
        assert_eq!(pairs_of(&idx, 2, 0), [(1, 2), (3, 3)]);
        assert_eq!(pairs_of(&idx, 1, 1), [(0, 5), (2, 6)]);
        assert_eq!(pairs_of(&idx, 2, 1), [(3, 7)]);
        // The split node and an untracked one yield nothing.
        assert!(pairs_of(&idx, 0, 0).is_empty());
        assert!(pairs_of(&idx, 9, 0).is_empty());
    }

    #[test]
    fn split_after_reset_matches_a_fresh_index() {
        let first: [fn(InstanceId) -> bool; 3] = [|i| i % 2 == 0, |i| i < 20, |i| i % 3 == 1];
        let second: [fn(InstanceId) -> bool; 3] = [|i| i >= 25, |i| i % 5 != 0, |i| i < 9];
        let mut reused = ColumnWiseIndex::from_store(wide_columns());
        grow(&mut reused, first);
        reused.reset();
        grow(&mut reused, second);
        let mut fresh = ColumnWiseIndex::from_store(wide_columns());
        grow(&mut fresh, second);
        for node in 0..7 {
            for j in 0..5 {
                let (got, want) = (set_of(&reused, node, j), set_of(&fresh, node, j));
                assert_eq!(got, want, "node {node} col {j}");
            }
        }
        // The leaves cover every pair of every column exactly once.
        for j in 0..5 {
            let leaves: usize = (3..7).map(|node| pairs_of(&reused, node, j).len()).sum();
            assert_eq!(leaves, column_len(&reused, j), "column {j}");
        }
    }

    #[test]
    fn column_wise_reset_restores_root_and_moves_no_key() {
        let mut idx = ColumnWiseIndex::from_store(wide_columns());
        grow(&mut idx, [|i| i % 2 == 0, |i| i < 20, |i| i % 3 == 1]);
        let before = idx.pairs.clone();
        idx.reset();
        assert_eq!(idx.pairs, before);
        // The root sees every column whole again, in the order left behind.
        for j in 0..5 {
            let mut col = Vec::new();
            before.for_each(idx.col_start[j]..idx.col_start[j + 1], |i, b| col.push((i, b)));
            assert_eq!(pairs_of(&idx, 0, j), col, "column {j}");
            assert!(pairs_of(&idx, 1, j).is_empty());
        }
    }

    #[test]
    fn a_node_without_pairs_on_a_column_splits_to_empty_ranges() {
        let mut idx = ColumnWiseIndex::from_store(sample_columns());
        // Node 1 holds instance 1 alone, which has no value on column 1.
        idx.split(0, |i| i == 1);
        assert!(pairs_of(&idx, 1, 1).is_empty());
        idx.split(1, |_| false);
        assert_eq!((pairs_of(&idx, 3, 0), pairs_of(&idx, 4, 0)), (vec![], vec![(1, 2)]));
        assert!(pairs_of(&idx, 3, 1).is_empty() && pairs_of(&idx, 4, 1).is_empty());
        assert_eq!(pairs_of(&idx, 2, 1), [(0, 5), (2, 6), (3, 7)]);
    }

    #[test]
    fn column_wise_index_identical_from_either_layout() {
        let sparse = gbdt_data::BinnedStore::sparse(sample_rows()).to_columns();
        let dense = gbdt_data::BinnedStore::dense(sample_rows(), 8).to_columns();
        let mut a = ColumnWiseIndex::from_store(sparse);
        let mut b = ColumnWiseIndex::from_store(dense);
        for idx in [&mut a, &mut b] {
            idx.split(0, |i| i != 2);
        }
        for node in 0..3 {
            for j in 0..2 {
                assert_eq!(pairs_of(&a, node, j), pairs_of(&b, node, j), "node {node} col {j}");
            }
        }
        assert_eq!((a.data_bytes(), a.index_bytes()), (b.data_bytes(), b.index_bytes()));
        assert_eq!(a.pairs.key_bytes(), b.pairs.key_bytes());
    }

    #[test]
    fn split_allocates_nothing_after_the_first_tree() {
        let rules: [fn(InstanceId) -> bool; 3] = [|i| i % 2 == 0, |i| i < 20, |i| i % 3 == 1];
        let mut idx = ColumnWiseIndex::from_store(wide_columns());
        grow(&mut idx, rules);
        idx.reset();
        let buffers = |idx: &ColumnWiseIndex| {
            [
                (idx.slot_of.as_ptr() as usize, idx.slot_of.capacity()),
                (idx.ranges.as_ptr() as usize, idx.ranges.capacity()),
                (idx.scratch.as_ptr() as usize, idx.scratch.capacity()),
            ]
        };
        let held = buffers(&idx);
        grow(&mut idx, rules);
        assert_eq!(buffers(&idx), held);
        // The scratch was sized for the longest column before any split.
        let longest = (0..5).map(|j| column_len(&idx, j)).max().unwrap();
        assert_eq!(idx.scratch.capacity(), longest);
    }

    fn column_len(idx: &ColumnWiseIndex, j: usize) -> usize {
        idx.col_start[j + 1] - idx.col_start[j]
    }
}
