//! Sparse matrix storage: CSR, the row-store of raw feature values.
//!
//! The paper contrasts two storage patterns (§1, §2.2.2): row-store keeps
//! each instance as a run of 〈feature index, feature value〉 pairs;
//! column-store keeps each feature as a run of 〈instance index, feature
//! value〉 pairs. Raw values only ever live as rows here; the trainers'
//! column-store is the binned `BinnedColumns`, built from binned rows.

use crate::error::DataError;
use crate::FeatureId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Compressed Sparse Row matrix: the row-store of the paper.
///
/// `row_ptr[i]..row_ptr[i + 1]` delimits the nonzeros of instance `i` inside
/// `col_idx` / `values`. Within a row, `col_idx` is strictly ascending.
///
/// The three arrays are immutable and shared: a matrix is a window of rows
/// over them, so [`CsrMatrix::slice_rows`] and `clone` are O(1) and copy no
/// feature bytes — a worker's horizontal shard and a hold-out split alias
/// the dataset they were cut from. Everything observable (`nnz`,
/// `heap_bytes`, `==`, `Debug`, serde) describes the window only. The
/// arrays are freed when the last window over them is dropped, so a small
/// window keeps the whole allocation alive.
#[derive(Clone)]
pub struct CsrMatrix {
    n_cols: usize,
    arrays: Arc<CsrArrays>,
    /// This matrix is rows `lo..hi` of `arrays`.
    lo: usize,
    hi: usize,
}

/// The arrays of the matrix a window was cut from. `row_ptr` holds absolute
/// offsets into `col_idx` / `values` for every row of that matrix.
struct CsrArrays {
    row_ptr: Vec<usize>,
    col_idx: Vec<FeatureId>,
    values: Vec<f32>,
}

/// A window's own arrays with `row_ptr` rebased to 0: what `from_parts`
/// takes, and the serialized and printed form of a [`CsrMatrix`].
#[derive(Serialize, Deserialize)]
struct CsrParts {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<FeatureId>,
    values: Vec<f32>,
}

/// Incremental builder for [`CsrMatrix`], appending one row at a time.
#[derive(Debug, Default)]
pub struct CsrBuilder {
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<FeatureId>,
    values: Vec<f32>,
}

impl CsrBuilder {
    /// Creates a builder for a matrix with `n_cols` columns.
    pub fn new(n_cols: usize) -> Self {
        CsrBuilder { n_cols, row_ptr: vec![0], col_idx: Vec::new(), values: Vec::new() }
    }

    /// Creates a builder with capacity hints for rows and nonzeros.
    pub fn with_capacity(n_cols: usize, n_rows: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        row_ptr.push(0);
        CsrBuilder {
            n_cols,
            row_ptr,
            col_idx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Appends one row given `(feature, value)` pairs.
    ///
    /// Pairs need not be sorted; they are sorted here. Duplicate feature
    /// indices within a row and out-of-range indices are rejected.
    pub fn push_row(&mut self, entries: &[(FeatureId, f32)]) -> Result<(), DataError> {
        let start = self.col_idx.len();
        for &(feat, val) in entries {
            if feat as usize >= self.n_cols {
                return Err(DataError::IndexOutOfBounds {
                    kind: "feature",
                    index: feat as usize,
                    bound: self.n_cols,
                });
            }
            self.col_idx.push(feat);
            self.values.push(val);
        }
        // Sort the just-appended run by feature index.
        let row_len = self.col_idx.len() - start;
        if row_len > 1 {
            let mut perm: Vec<usize> = (0..row_len).collect();
            perm.sort_unstable_by_key(|&k| self.col_idx[start + k]);
            let feats: Vec<FeatureId> = perm.iter().map(|&k| self.col_idx[start + k]).collect();
            let vals: Vec<f32> = perm.iter().map(|&k| self.values[start + k]).collect();
            self.col_idx[start..].copy_from_slice(&feats);
            self.values[start..].copy_from_slice(&vals);
            for w in self.col_idx[start..].windows(2) {
                if w[0] == w[1] {
                    return Err(DataError::Shape(format!(
                        "duplicate feature {} in row {}",
                        w[0],
                        self.row_ptr.len() - 1
                    )));
                }
            }
        }
        self.row_ptr.push(self.col_idx.len());
        Ok(())
    }

    /// Finalizes the builder into a [`CsrMatrix`].
    pub fn build(self) -> CsrMatrix {
        CsrMatrix::whole(self.n_cols, self.row_ptr, self.col_idx, self.values)
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts, validating all invariants.
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<FeatureId>,
        values: Vec<f32>,
    ) -> Result<Self, DataError> {
        if row_ptr.len().checked_sub(1) != Some(n_rows) {
            return Err(DataError::Shape(format!(
                "row_ptr len {} != n_rows {n_rows} + 1",
                row_ptr.len()
            )));
        }
        if col_idx.len() != values.len() {
            return Err(DataError::Shape(format!(
                "col_idx len {} != values len {}",
                col_idx.len(),
                values.len()
            )));
        }
        if row_ptr.last() != Some(&col_idx.len()) || row_ptr.first() != Some(&0) {
            return Err(DataError::Shape("row_ptr does not span the nonzeros".into()));
        }
        for w in row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(DataError::Shape("row_ptr is not monotone".into()));
            }
        }
        for r in 0..n_rows {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(DataError::Shape(format!("row {r} indices not strictly ascending")));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= n_cols {
                    return Err(DataError::IndexOutOfBounds {
                        kind: "feature",
                        index: last as usize,
                        bound: n_cols,
                    });
                }
            }
        }
        Ok(CsrMatrix::whole(n_cols, row_ptr, col_idx, values))
    }

    /// The window over all rows of freshly built arrays (invariants already
    /// established by the caller).
    fn whole(
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<FeatureId>,
        values: Vec<f32>,
    ) -> Self {
        let hi = row_ptr.len() - 1;
        CsrMatrix { n_cols, arrays: Arc::new(CsrArrays { row_ptr, col_idx, values }), lo: 0, hi }
    }

    /// Absolute offsets of this window's rows: `n_rows + 1` entries.
    #[inline]
    fn ptrs(&self) -> &[usize] {
        &self.arrays.row_ptr[self.lo..=self.hi]
    }

    /// This window's stretch of `col_idx` / `values`.
    #[inline]
    fn entries(&self) -> (&[FeatureId], &[f32]) {
        let (base, end) = (self.arrays.row_ptr[self.lo], self.arrays.row_ptr[self.hi]);
        (&self.arrays.col_idx[base..end], &self.arrays.values[base..end])
    }

    fn to_parts(&self) -> CsrParts {
        let ptrs = self.ptrs();
        let (col_idx, values) = self.entries();
        CsrParts {
            n_rows: self.n_rows(),
            n_cols: self.n_cols,
            row_ptr: ptrs.iter().map(|&p| p - ptrs[0]).collect(),
            col_idx: col_idx.to_vec(),
            values: values.to_vec(),
        }
    }

    /// Builds a CSR matrix from a dense row-major slice; zeros are dropped.
    pub fn from_dense(rows: &[Vec<f32>], n_cols: usize) -> Result<Self, DataError> {
        let mut b = CsrBuilder::new(n_cols);
        let mut entries = Vec::new();
        for row in rows {
            entries.clear();
            for (j, &v) in row.iter().enumerate() {
                if crate::dense::present(v) {
                    entries.push((j as FeatureId, v));
                }
            }
            b.push_row(&entries)?;
        }
        Ok(b.build())
    }

    /// Number of instances (rows).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.hi - self.lo
    }

    /// Number of features (columns).
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.arrays.row_ptr[self.hi] - self.arrays.row_ptr[self.lo]
    }

    /// Nonzeros of row `i` as parallel slices `(features, values)`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[FeatureId], &[f32]) {
        let ptrs = self.ptrs();
        let (lo, hi) = (ptrs[i], ptrs[i + 1]);
        (&self.arrays.col_idx[lo..hi], &self.arrays.values[lo..hi])
    }

    /// Iterates rows as `(row index, features, values)`.
    pub fn iter_rows(&self) -> impl Iterator<Item = (usize, &[FeatureId], &[f32])> {
        let arrays = &*self.arrays;
        self.ptrs()
            .windows(2)
            .enumerate()
            .map(move |(i, w)| (i, &arrays.col_idx[w[0]..w[1]], &arrays.values[w[0]..w[1]]))
    }

    /// Value at `(row, col)`, or `None` when the entry is missing (sparse zero).
    pub fn get(&self, row: usize, col: FeatureId) -> Option<f32> {
        let (feats, vals) = self.row(row);
        feats.binary_search(&col).ok().map(|k| vals[k])
    }

    /// The horizontal shard of rows `lo..hi`: a window over the same arrays,
    /// O(1), no bytes copied.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> CsrMatrix {
        assert!(lo <= hi && hi <= self.n_rows(), "row slice out of range");
        CsrMatrix {
            n_cols: self.n_cols,
            arrays: Arc::clone(&self.arrays),
            lo: self.lo + lo,
            hi: self.lo + hi,
        }
    }

    /// Bytes of heap storage the window's rows occupy (exact, for memory
    /// accounting): what a copy of it would allocate, however large the
    /// shared arrays are.
    pub fn heap_bytes(&self) -> usize {
        (self.n_rows() + 1) * std::mem::size_of::<usize>()
            + self.nnz() * (std::mem::size_of::<FeatureId>() + std::mem::size_of::<f32>())
    }
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.ptrs(), other.ptrs());
        self.n_cols == other.n_cols
            && a.len() == b.len()
            && a.iter().map(|p| p - a[0]).eq(b.iter().map(|p| p - b[0]))
            && self.entries() == other.entries()
    }
}

impl std::fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = self.to_parts();
        f.debug_struct("CsrMatrix")
            .field("n_rows", &p.n_rows)
            .field("n_cols", &p.n_cols)
            .field("row_ptr", &p.row_ptr)
            .field("col_idx", &p.col_idx)
            .field("values", &p.values)
            .finish()
    }
}

impl Serialize for CsrMatrix {
    fn to_value(&self) -> serde::Value {
        self.to_parts().to_value()
    }
}

impl Deserialize for CsrMatrix {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let p = CsrParts::from_value(v)?;
        CsrMatrix::from_parts(p.n_rows, p.n_cols, p.row_ptr, p.col_idx, p.values)
            .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csr() -> CsrMatrix {
        // 4 x 3 matrix:
        // [1 0 2]
        // [0 3 0]
        // [0 0 0]
        // [4 5 6]
        let mut b = CsrBuilder::new(3);
        b.push_row(&[(0, 1.0), (2, 2.0)]).unwrap();
        b.push_row(&[(1, 3.0)]).unwrap();
        b.push_row(&[]).unwrap();
        b.push_row(&[(2, 6.0), (0, 4.0), (1, 5.0)]).unwrap();
        b.build()
    }

    #[test]
    fn builder_sorts_rows_and_tracks_shape() {
        let m = sample_csr();
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.nnz(), 6);
        let (f, v) = m.row(3);
        assert_eq!(f, &[0, 1, 2]);
        assert_eq!(v, &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn builder_rejects_out_of_range_feature() {
        let mut b = CsrBuilder::new(3);
        let err = b.push_row(&[(3, 1.0)]).unwrap_err();
        assert!(matches!(err, DataError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn builder_rejects_duplicate_feature() {
        let mut b = CsrBuilder::new(3);
        let err = b.push_row(&[(1, 1.0), (1, 2.0)]).unwrap_err();
        assert!(matches!(err, DataError::Shape(_)));
    }

    #[test]
    fn get_returns_present_and_absent_entries() {
        let m = sample_csr();
        assert_eq!(m.get(0, 2), Some(2.0));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(2, 0), None);
    }

    #[test]
    fn slice_rows_extracts_horizontal_shard() {
        let m = sample_csr();
        let shard = m.slice_rows(1, 4);
        assert_eq!(shard.n_rows(), 3);
        assert_eq!(shard.row(0).0, &[1]);
        assert_eq!(shard.row(1).0, &[] as &[FeatureId]);
        assert_eq!(shard.row(2).1, &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_parts_validates_invariants() {
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CsrMatrix::from_parts(1, 2, vec![0, 2], vec![1, 0], vec![1.0, 2.0]).is_err());
        assert!(CsrMatrix::from_parts(1, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
        // Empty pointer arrays (malformed external input) error, not panic.
        assert!(CsrMatrix::from_parts(0, 2, vec![], vec![], vec![]).is_err());
        // Pointers that start past 0 are rejected.
        assert!(CsrMatrix::from_parts(1, 2, vec![1, 2], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn deserializing_validates_like_from_parts() {
        let m = sample_csr();
        assert_eq!(CsrMatrix::from_value(&m.to_value()).unwrap(), m);
        // Feature 2 is stored, so a 1-column claim is out of bounds; a row
        // count of usize::MAX must be an error, not an overflow.
        for (field, bad) in [("n_cols", 1usize), ("n_rows", usize::MAX)] {
            let serde::Value::Object(mut obj) = m.to_value() else { panic!("not an object") };
            obj.insert(field.to_string(), bad.to_value());
            assert!(CsrMatrix::from_value(&serde::Value::Object(obj)).is_err(), "{field}");
        }
    }

    #[test]
    fn from_dense_drops_zeros() {
        let m = CsrMatrix::from_dense(
            &[vec![0.0, 1.0, 0.0], vec![2.0, 0.0, 3.0]],
            3,
        )
        .unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(1, 2), Some(3.0));
    }

    #[test]
    fn heap_bytes_counts_all_arrays() {
        let m = sample_csr();
        assert_eq!(m.heap_bytes(), 5 * 8 + 6 * 4 + 6 * 4);
    }
}
