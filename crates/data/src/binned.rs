//! Bin-encoded matrices: the storage trainers actually scan.
//!
//! After quantile sketching, every feature value is replaced by the index of
//! the histogram bin it falls into (paper §4.2.1 step 3: "we encode feature
//! values with histogram bin indexes … the model accuracy will not be
//! harmed"). Training then only ever touches 〈feature, bin〉 pairs, so the
//! hot-loop storage is specialized:
//!
//! * [`BinnedRows`] — row-store: per instance, a run of 〈feature, bin〉 pairs
//!   (what QD2 and QD4 scan).
//! * [`BinnedColumns`] — column-store: per feature, a run of 〈instance, bin〉
//!   pairs (what QD1 and QD3 scan).
//!
//! Both hold each pair as one packed key ([`PairKeys`]), so a pair costs
//! the bits its id and bin need, rounded to a 2-, 4- or 8-byte key.

use crate::error::DataError;
use crate::pairs::PairKeys;
use crate::{BinId, FeatureId, InstanceId};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Row-store of binned values (CSR of 〈feature, bin〉 keys).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinnedRows {
    n_rows: usize,
    n_features: usize,
    row_ptr: Vec<usize>,
    pairs: PairKeys,
}

/// Column-store of binned values (CSC of 〈instance, bin〉 keys).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinnedColumns {
    n_rows: usize,
    n_features: usize,
    col_ptr: Vec<usize>,
    pairs: PairKeys,
}

/// Incremental builder for [`BinnedRows`].
#[derive(Debug)]
pub struct BinnedRowsBuilder {
    n_features: usize,
    n_bins: usize,
    row_ptr: Vec<usize>,
    pairs: PairKeys,
}

impl BinnedRowsBuilder {
    /// Creates a builder for matrices with `n_features` columns whose bins
    /// are `< n_bins`.
    pub fn new(n_features: usize, n_bins: usize) -> Self {
        Self::with_capacity(n_features, n_bins, 0, 0)
    }

    /// Creates a builder with capacity hints.
    pub fn with_capacity(n_features: usize, n_bins: usize, n_rows: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        row_ptr.push(0);
        BinnedRowsBuilder {
            n_features,
            n_bins,
            row_ptr,
            pairs: PairKeys::with_capacity(n_features, n_bins, nnz),
        }
    }

    /// Appends a row of (feature, bin) pairs; pairs must be sorted by
    /// feature, features `< n_features` and bins `< n_bins`.
    pub fn push_row(&mut self, entries: &[(FeatureId, BinId)]) -> Result<(), DataError> {
        check_row(self.row_ptr.len() - 1, entries.iter().map(|e| e.0), self.n_features)?;
        if let Some(&(_, b)) = entries.iter().find(|e| usize::from(e.1) >= self.n_bins) {
            let (index, bound) = (usize::from(b), self.n_bins);
            return Err(DataError::IndexOutOfBounds { kind: "bin", index, bound });
        }
        for &(f, b) in entries {
            self.pairs.push(f, b);
        }
        self.row_ptr.push(self.pairs.len());
        Ok(())
    }

    /// Finalizes the builder.
    pub fn build(self) -> BinnedRows {
        BinnedRows::from_checked_parts(self.n_features, self.row_ptr, self.pairs)
    }
}

/// Checks that row `row`'s features are strictly ascending and `< n_features`.
pub(crate) fn check_row(
    row: usize,
    feats: impl Iterator<Item = FeatureId>,
    n_features: usize,
) -> Result<(), DataError> {
    let mut prev = None;
    for f in feats {
        if prev.is_some_and(|p| p >= f) {
            return Err(DataError::Shape(format!(
                "row {row} entries not strictly ascending by feature"
            )));
        }
        prev = Some(f);
    }
    match prev {
        Some(last) if last as usize >= n_features => Err(DataError::IndexOutOfBounds {
            kind: "feature",
            index: last as usize,
            bound: n_features,
        }),
        _ => Ok(()),
    }
}

impl BinnedRows {
    /// A row-store over parts the caller has checked: `row_ptr` runs from 0
    /// to the pair count without descending, and every row's features are
    /// strictly ascending and `< n_features` ([`BinnedRowsBuilder`] checks
    /// row by row, [`crate::block::Assembly`] slice by slice).
    pub(crate) fn from_checked_parts(
        n_features: usize,
        row_ptr: Vec<usize>,
        pairs: PairKeys,
    ) -> Self {
        BinnedRows { n_rows: row_ptr.len() - 1, n_features, row_ptr, pairs }
    }

    /// Number of instances.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    #[inline]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of stored pairs.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.pairs.len()
    }

    /// Row pointers: `row_ptr[i]..row_ptr[i + 1]` are row `i`'s pairs.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Every row's pairs, back to back, as packed 〈feature, bin〉 keys.
    #[inline]
    pub fn pairs(&self) -> &PairKeys {
        &self.pairs
    }

    #[inline]
    fn row_range(&self, i: usize) -> Range<usize> {
        self.row_ptr[i]..self.row_ptr[i + 1]
    }

    /// Row `i`'s pairs in ascending feature order.
    #[inline]
    pub fn for_each_in_row(&self, i: usize, f: impl FnMut(FeatureId, BinId)) {
        self.pairs.for_each(self.row_range(i), f);
    }

    /// Bin of `(row, feature)` or `None` when the value is missing.
    #[inline]
    pub fn get(&self, row: usize, feature: FeatureId) -> Option<BinId> {
        self.pairs.find(self.row_range(row), feature)
    }

    /// Converts to the equivalent column-store (same bin field; the key
    /// width follows the instance count).
    pub fn to_columns(&self) -> BinnedColumns {
        let mut counts = vec![0usize; self.n_features];
        self.pairs.for_each(0..self.nnz(), |f, _| counts[f as usize] += 1);
        let mut col_ptr = Vec::with_capacity(self.n_features + 1);
        col_ptr.push(0usize);
        for j in 0..self.n_features {
            col_ptr.push(col_ptr[j] + counts[j]);
        }
        let mut cursor = col_ptr[..self.n_features].to_vec();
        let mut pairs = PairKeys::zeroed(self.n_rows, self.pairs.bin_bits(), self.nnz());
        for i in 0..self.n_rows {
            self.for_each_in_row(i, |f, b| {
                pairs.set(cursor[f as usize], i as InstanceId, b);
                cursor[f as usize] += 1;
            });
        }
        BinnedColumns { n_rows: self.n_rows, n_features: self.n_features, col_ptr, pairs }
    }

    /// Extracts a vertical shard containing `cols` (renumbered `0..cols.len()`
    /// in the given order), keeping all rows and the bin field.
    ///
    /// This is the row-store-of-a-column-group that Vero workers hold.
    pub fn select_cols(&self, cols: &[FeatureId]) -> BinnedRows {
        let mut remap = vec![u32::MAX; self.n_features];
        for (new, &old) in cols.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let mut pairs = PairKeys::with_bin_bits(cols.len(), self.pairs.bin_bits(), 0);
        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        row_ptr.push(0);
        let mut entries: Vec<(FeatureId, BinId)> = Vec::new();
        for i in 0..self.n_rows {
            entries.clear();
            self.for_each_in_row(i, |f, bin| {
                let new = remap[f as usize];
                if new != u32::MAX {
                    entries.push((new, bin));
                }
            });
            entries.sort_unstable_by_key(|&(f, _)| f);
            for &(f, b) in &entries {
                pairs.push(f, b);
            }
            row_ptr.push(pairs.len());
        }
        BinnedRows::from_checked_parts(cols.len(), row_ptr, pairs)
    }

    /// Bytes of heap storage used (exact, for memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>() + self.pairs.heap_bytes()
    }
}

impl BinnedColumns {
    /// Number of instances.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    #[inline]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of stored pairs.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.pairs.len()
    }

    /// Pair range of column `j` in [`Self::pairs`].
    #[inline]
    pub fn col_range(&self, j: usize) -> Range<usize> {
        self.col_ptr[j]..self.col_ptr[j + 1]
    }

    /// Every column's pairs, back to back, as packed 〈instance, bin〉 keys.
    #[inline]
    pub fn pairs(&self) -> &PairKeys {
        &self.pairs
    }

    /// Column `j`'s pairs in ascending instance order.
    #[inline]
    pub fn for_each_in_col(&self, j: usize, f: impl FnMut(InstanceId, BinId)) {
        self.pairs.for_each(self.col_range(j), f);
    }

    /// Bin of `(row, feature)` or `None` when the value is missing.
    #[inline]
    pub fn get(&self, row: usize, feature: FeatureId) -> Option<BinId> {
        self.pairs.find(self.col_range(feature as usize), row as InstanceId)
    }

    /// Bytes of heap storage used (exact, for memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.col_ptr.len() * std::mem::size_of::<usize>() + self.pairs.heap_bytes()
    }

    /// The column pointers and the keys, handed over without a copy.
    pub fn into_parts(self) -> (Vec<usize>, PairKeys) {
        (self.col_ptr, self.pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BinnedRows {
        let mut b = BinnedRowsBuilder::new(4, 6);
        b.push_row(&[(0, 3), (2, 1)]).unwrap();
        b.push_row(&[(1, 2)]).unwrap();
        b.push_row(&[]).unwrap();
        b.push_row(&[(0, 0), (1, 1), (3, 5)]).unwrap();
        b.build()
    }

    fn row(m: &BinnedRows, i: usize) -> Vec<(FeatureId, BinId)> {
        let mut out = Vec::new();
        m.for_each_in_row(i, |f, b| out.push((f, b)));
        out
    }

    fn col(m: &BinnedColumns, j: usize) -> Vec<(InstanceId, BinId)> {
        let mut out = Vec::new();
        m.for_each_in_col(j, |i, b| out.push((i, b)));
        out
    }

    #[test]
    fn builder_validates_order_and_bounds() {
        let mut b = BinnedRowsBuilder::new(3, 4);
        assert!(b.push_row(&[(1, 0), (0, 0)]).is_err());
        assert!(b.push_row(&[(0, 0), (0, 1)]).is_err());
        assert!(b.push_row(&[(0, 0), (3, 1)]).is_err());
        assert!(matches!(
            b.push_row(&[(0, 0), (2, 4)]),
            Err(DataError::IndexOutOfBounds { kind: "bin", index: 4, bound: 4 })
        ));
        assert!(b.push_row(&[(0, 0), (2, 3)]).is_ok());
        let m = b.build();
        assert_eq!((m.n_rows(), m.nnz()), (1, 2), "a rejected row stores nothing");
    }

    #[test]
    fn get_finds_bins() {
        let m = sample();
        assert_eq!(m.get(0, 2), Some(1));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(3, 3), Some(5));
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.get(3, 9), None, "a feature past the store");
        assert_eq!(row(&m, 3), [(0, 0), (1, 1), (3, 5)]);
    }

    #[test]
    fn columns_hold_every_cell_in_instance_order() {
        let m = sample();
        let cols = m.to_columns();
        assert_eq!((cols.n_rows(), cols.n_features(), cols.nnz()), (4, 4, m.nnz()));
        for j in 0..m.n_features() {
            let want: Vec<(InstanceId, BinId)> = (0..m.n_rows())
                .filter_map(|i| m.get(i, j as FeatureId).map(|b| (i as InstanceId, b)))
                .collect();
            assert_eq!(col(&cols, j), want, "column {j}");
            for i in 0..m.n_rows() {
                assert_eq!(cols.get(i, j as FeatureId), m.get(i, j as FeatureId));
            }
        }
    }

    #[test]
    fn columns_are_instance_sorted() {
        let cols = sample().to_columns();
        assert_eq!(col(&cols, 0), [(0, 3), (3, 0)]);
        assert_eq!(col(&cols, 1), [(1, 2), (3, 1)]);
    }

    #[test]
    fn select_cols_shards_vertically_rowstore() {
        let m = sample();
        let shard = m.select_cols(&[3, 0]);
        assert_eq!(shard.n_features(), 2);
        assert_eq!(shard.n_rows(), 4);
        // Original feature 3 is now feature 0; feature 0 is now feature 1.
        assert_eq!(shard.get(3, 0), Some(5));
        assert_eq!(shard.get(3, 1), Some(0));
        assert_eq!(shard.get(0, 1), Some(3));
    }

    #[test]
    fn heap_bytes_is_exact() {
        // Four features at 6 bins: 4 · 2^3 keys fit 2 bytes.
        let m = sample();
        assert_eq!(m.heap_bytes(), 5 * 8 + 6 * 2);
        assert_eq!(m.pairs().key_bytes(), 2);
    }
}
