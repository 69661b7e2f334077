//! Dense row-major matrix for low-dimensional dense workloads.
//!
//! The paper's "LD" datasets (SUSY, Higgs, Criteo, Epsilon — Table 2) are
//! fully dense with few features; storing them sparsely would waste 4 bytes
//! of index per value. Trainers and predictors read a dense matrix as a
//! row-store whose every non-zero cell is present.

use crate::error::DataError;
use crate::sparse::CsrMatrix;
use crate::FeatureId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Dense row-major feature matrix.
///
/// Like [`CsrMatrix`], a window of rows over an immutable shared buffer:
/// [`DenseMatrix::slice_rows`] and `clone` are O(1) and copy no cells, and
/// `heap_bytes`, `==`, `Debug` and serde describe the window only.
#[derive(Clone)]
pub struct DenseMatrix {
    n_cols: usize,
    values: Arc<Vec<f32>>,
    /// This matrix is rows `lo..lo + n_rows` of `values`.
    lo: usize,
    n_rows: usize,
}

/// A window's own cells: the serialized form of a [`DenseMatrix`].
#[derive(Serialize, Deserialize)]
struct DenseParts {
    n_rows: usize,
    n_cols: usize,
    values: Vec<f32>,
}

/// Whether a dense cell is a stored value. An exact zero is absent — the one
/// meaning `to_csr`, [`CsrMatrix::from_dense`], the LIBSVM writer, sketching,
/// binning and prediction all share.
#[inline]
pub(crate) fn present(v: f32) -> bool {
    v != 0.0
}

impl DenseMatrix {
    /// Builds a dense matrix from a flat row-major buffer.
    pub fn from_flat(n_rows: usize, n_cols: usize, values: Vec<f32>) -> Result<Self, DataError> {
        if n_rows.checked_mul(n_cols) != Some(values.len()) {
            return Err(DataError::Shape(format!(
                "flat buffer len {} != {n_rows} x {n_cols}",
                values.len()
            )));
        }
        Ok(DenseMatrix { n_cols, values: Arc::new(values), lo: 0, n_rows })
    }

    /// Builds a dense matrix from per-row vectors, all of equal length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, DataError> {
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut values = Vec::with_capacity(rows.len() * n_cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n_cols {
                return Err(DataError::Shape(format!(
                    "row {i} has {} values, expected {n_cols}",
                    row.len()
                )));
            }
            values.extend_from_slice(row);
        }
        Ok(DenseMatrix { n_cols, values: Arc::new(values), lo: 0, n_rows: rows.len() })
    }

    /// Number of instances (rows).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features (columns).
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// This window's cells, row-major.
    #[inline]
    fn cells(&self) -> &[f32] {
        &self.values[self.lo * self.n_cols..(self.lo + self.n_rows) * self.n_cols]
    }

    /// Row `i` as a value slice of length `n_cols`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.cells()[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Value at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.row(row)[col]
    }

    /// Visits every row's stored values as parallel `(features, values)`
    /// slices, ascending by feature: the non-zero cells, exactly the entries
    /// [`Self::to_csr`] keeps. A row with no zero cell is handed out in
    /// place against one `0..n_cols` id table; only a row that has one is
    /// filtered into scratch.
    pub fn for_each_row(&self, mut f: impl FnMut(usize, &[FeatureId], &[f32])) {
        let ids: Vec<FeatureId> = (0..self.n_cols as FeatureId).collect();
        let mut feats = Vec::new();
        let mut vals = Vec::new();
        for i in 0..self.n_rows {
            let row = self.row(i);
            if row.iter().all(|&v| present(v)) {
                f(i, &ids, row);
                continue;
            }
            feats.clear();
            vals.clear();
            for (&j, &v) in ids.iter().zip(row) {
                if present(v) {
                    feats.push(j);
                    vals.push(v);
                }
            }
            f(i, &feats, &vals);
        }
    }

    /// Number of stored values: the non-zero cells.
    pub fn n_present(&self) -> usize {
        self.cells().iter().filter(|&&v| present(v)).count()
    }

    /// Converts to a CSR matrix, keeping explicit zeros out of the storage.
    /// A count pass sizes the arrays exactly, so nothing is reallocated.
    pub fn to_csr(&self) -> CsrMatrix {
        let nnz = self.n_present();
        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        self.for_each_row(|_, feats, row_vals| {
            col_idx.extend_from_slice(feats);
            vals.extend_from_slice(row_vals);
            row_ptr.push(col_idx.len());
        });
        CsrMatrix::from_parts(self.n_rows, self.n_cols, row_ptr, col_idx, vals)
            .expect("dense-to-CSR conversion preserves invariants")
    }

    /// The horizontal shard of rows `lo..hi`: a window over the same buffer,
    /// O(1), no cells copied.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> DenseMatrix {
        assert!(lo <= hi && hi <= self.n_rows, "row slice out of range");
        DenseMatrix {
            n_cols: self.n_cols,
            values: Arc::clone(&self.values),
            lo: self.lo + lo,
            n_rows: hi - lo,
        }
    }

    /// Bytes of heap storage the window's cells occupy.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.cells())
    }
}

impl PartialEq for DenseMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n_rows == other.n_rows && self.n_cols == other.n_cols && self.cells() == other.cells()
    }
}

impl std::fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseMatrix")
            .field("n_rows", &self.n_rows)
            .field("n_cols", &self.n_cols)
            .field("values", &self.cells())
            .finish()
    }
}

impl Serialize for DenseMatrix {
    fn to_value(&self) -> serde::Value {
        DenseParts { n_rows: self.n_rows, n_cols: self.n_cols, values: self.cells().to_vec() }
            .to_value()
    }
}

impl Deserialize for DenseMatrix {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let p = DenseParts::from_value(v)?;
        DenseMatrix::from_flat(p.n_rows, p.n_cols, p.values)
            .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_checks_uniform_width() {
        assert!(DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn from_flat_checks_len() {
        assert!(DenseMatrix::from_flat(2, 2, vec![0.0; 3]).is_err());
        assert!(DenseMatrix::from_flat(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn deserializing_validates_like_from_flat() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(DenseMatrix::from_value(&m.to_value()).unwrap(), m);
        for bad in [3usize, usize::MAX] {
            let serde::Value::Object(mut obj) = m.to_value() else { panic!("not an object") };
            obj.insert("n_rows".to_string(), bad.to_value());
            assert!(DenseMatrix::from_value(&serde::Value::Object(obj)).is_err(), "{bad}");
        }
    }

    #[test]
    fn to_csr_drops_zeros_and_preserves_values() {
        let m = DenseMatrix::from_rows(&[vec![0.0, 5.0], vec![7.0, 0.0]]).unwrap();
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 1), Some(5.0));
        assert_eq!(csr.get(1, 0), Some(7.0));
        assert_eq!(csr.get(0, 0), None);
    }
}
