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

use crate::error::DataError;
use crate::{BinId, FeatureId, InstanceId};
use serde::{Deserialize, Serialize};

/// Row-store of binned values (CSR of 〈feature, bin〉 pairs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinnedRows {
    n_rows: usize,
    n_features: usize,
    row_ptr: Vec<usize>,
    feats: Vec<FeatureId>,
    bins: Vec<BinId>,
}

/// Column-store of binned values (CSC of 〈instance, bin〉 pairs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinnedColumns {
    n_rows: usize,
    n_features: usize,
    col_ptr: Vec<usize>,
    rows: Vec<InstanceId>,
    bins: Vec<BinId>,
}

/// Incremental builder for [`BinnedRows`].
#[derive(Debug)]
pub struct BinnedRowsBuilder {
    n_features: usize,
    row_ptr: Vec<usize>,
    feats: Vec<FeatureId>,
    bins: Vec<BinId>,
}

impl BinnedRowsBuilder {
    /// Creates a builder for matrices with `n_features` columns.
    pub fn new(n_features: usize) -> Self {
        BinnedRowsBuilder { n_features, row_ptr: vec![0], feats: Vec::new(), bins: Vec::new() }
    }

    /// Creates a builder with capacity hints.
    pub fn with_capacity(n_features: usize, n_rows: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        row_ptr.push(0);
        BinnedRowsBuilder {
            n_features,
            row_ptr,
            feats: Vec::with_capacity(nnz),
            bins: Vec::with_capacity(nnz),
        }
    }

    /// Appends a row of (feature, bin) pairs; pairs must be sorted by feature.
    pub fn push_row(&mut self, entries: &[(FeatureId, BinId)]) -> Result<(), DataError> {
        check_row(self.row_ptr.len() - 1, entries.iter().map(|e| e.0), self.n_features)?;
        for &(f, b) in entries {
            self.feats.push(f);
            self.bins.push(b);
        }
        self.row_ptr.push(self.feats.len());
        Ok(())
    }

    /// Finalizes the builder.
    pub fn build(self) -> BinnedRows {
        BinnedRows::from_checked_parts(self.n_features, self.row_ptr, self.feats, self.bins)
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
    /// A row-store over three arrays the caller has checked: `row_ptr` runs
    /// from 0 to the pair count without descending, and every row's features
    /// are strictly ascending and `< n_features` ([`BinnedRowsBuilder`]
    /// checks row by row, [`crate::block::Assembly`] slice by slice).
    pub(crate) fn from_checked_parts(
        n_features: usize,
        row_ptr: Vec<usize>,
        feats: Vec<FeatureId>,
        bins: Vec<BinId>,
    ) -> Self {
        BinnedRows { n_rows: row_ptr.len() - 1, n_features, row_ptr, feats, bins }
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
        self.feats.len()
    }

    /// Row `i` as parallel `(features, bins)` slices.
    #[inline]
    pub fn row(&self, i: usize) -> (&[FeatureId], &[BinId]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.feats[lo..hi], &self.bins[lo..hi])
    }

    /// Bin of `(row, feature)` or `None` when the value is missing.
    pub fn get(&self, row: usize, feature: FeatureId) -> Option<BinId> {
        let (feats, bins) = self.row(row);
        feats.binary_search(&feature).ok().map(|k| bins[k])
    }

    /// Converts to the equivalent column-store.
    pub fn to_columns(&self) -> BinnedColumns {
        let mut counts = vec![0usize; self.n_features];
        for &f in &self.feats {
            counts[f as usize] += 1;
        }
        let mut col_ptr = Vec::with_capacity(self.n_features + 1);
        col_ptr.push(0usize);
        for j in 0..self.n_features {
            col_ptr.push(col_ptr[j] + counts[j]);
        }
        let mut cursor = col_ptr[..self.n_features].to_vec();
        let mut rows = vec![0 as InstanceId; self.nnz()];
        let mut bins = vec![0 as BinId; self.nnz()];
        for i in 0..self.n_rows {
            let (feats, row_bins) = self.row(i);
            for (&f, &b) in feats.iter().zip(row_bins) {
                let dst = cursor[f as usize];
                rows[dst] = i as InstanceId;
                bins[dst] = b;
                cursor[f as usize] += 1;
            }
        }
        BinnedColumns { n_rows: self.n_rows, n_features: self.n_features, col_ptr, rows, bins }
    }

    /// Extracts a vertical shard containing `cols` (renumbered `0..cols.len()`
    /// in the given order), keeping all rows.
    ///
    /// This is the row-store-of-a-column-group that Vero workers hold.
    pub fn select_cols(&self, cols: &[FeatureId]) -> BinnedRows {
        let mut remap = vec![u32::MAX; self.n_features];
        for (new, &old) in cols.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let mut b = BinnedRowsBuilder::new(cols.len());
        let mut entries: Vec<(FeatureId, BinId)> = Vec::new();
        for i in 0..self.n_rows {
            entries.clear();
            let (feats, bins) = self.row(i);
            for (&f, &bin) in feats.iter().zip(bins) {
                let new = remap[f as usize];
                if new != u32::MAX {
                    entries.push((new, bin));
                }
            }
            entries.sort_unstable_by_key(|&(f, _)| f);
            b.push_row(&entries).expect("remapped entries are valid");
        }
        b.build()
    }

    /// Bytes of heap storage used (exact, for memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.feats.len() * std::mem::size_of::<FeatureId>()
            + self.bins.len() * std::mem::size_of::<BinId>()
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
        self.rows.len()
    }

    /// Column `j` as parallel `(instances, bins)` slices; instances ascend.
    #[inline]
    pub fn col(&self, j: usize) -> (&[InstanceId], &[BinId]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.rows[lo..hi], &self.bins[lo..hi])
    }

    /// Bytes of heap storage used (exact, for memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.col_ptr.len() * std::mem::size_of::<usize>()
            + self.rows.len() * std::mem::size_of::<InstanceId>()
            + self.bins.len() * std::mem::size_of::<BinId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BinnedRows {
        let mut b = BinnedRowsBuilder::new(4);
        b.push_row(&[(0, 3), (2, 1)]).unwrap();
        b.push_row(&[(1, 2)]).unwrap();
        b.push_row(&[]).unwrap();
        b.push_row(&[(0, 0), (1, 1), (3, 5)]).unwrap();
        b.build()
    }

    #[test]
    fn builder_validates_order_and_bounds() {
        let mut b = BinnedRowsBuilder::new(3);
        assert!(b.push_row(&[(1, 0), (0, 0)]).is_err());
        assert!(b.push_row(&[(0, 0), (0, 1)]).is_err());
        assert!(b.push_row(&[(0, 0), (3, 1)]).is_err());
        assert!(b.push_row(&[(0, 0), (2, 1)]).is_ok());
    }

    #[test]
    fn get_finds_bins() {
        let m = sample();
        assert_eq!(m.get(0, 2), Some(1));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(3, 3), Some(5));
    }

    #[test]
    fn columns_hold_every_cell_in_instance_order() {
        let m = sample();
        let cols = m.to_columns();
        assert_eq!((cols.n_rows(), cols.n_features(), cols.nnz()), (4, 4, m.nnz()));
        for j in 0..m.n_features() {
            let (rows, bins) = cols.col(j);
            let got: Vec<(InstanceId, BinId)> =
                rows.iter().copied().zip(bins.iter().copied()).collect();
            let want: Vec<(InstanceId, BinId)> = (0..m.n_rows())
                .filter_map(|i| m.get(i, j as FeatureId).map(|b| (i as InstanceId, b)))
                .collect();
            assert_eq!(got, want, "column {j}");
        }
    }

    #[test]
    fn columns_are_instance_sorted() {
        let cols = sample().to_columns();
        let (rows, bins) = cols.col(0);
        assert_eq!(rows, &[0, 3]);
        assert_eq!(bins, &[3, 0]);
        let (rows, _) = cols.col(1);
        assert_eq!(rows, &[1, 3]);
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
        let m = sample();
        assert_eq!(m.heap_bytes(), 5 * 8 + 6 * 4 + 6 * 2);
    }
}
