//! Sparse matrix storage: CSR, the row-store of raw feature values.
//!
//! The paper contrasts two storage patterns (§1, §2.2.2): row-store keeps
//! each instance as a run of 〈feature index, feature value〉 pairs;
//! column-store keeps each feature as a run of 〈instance index, feature
//! value〉 pairs. Raw values only ever live as rows here; the trainers'
//! column-store is the binned `BinnedColumns`, built from binned rows.

use crate::error::DataError;
use crate::pairs::{Keys, PairKeys};
use crate::FeatureId;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

/// Compressed Sparse Row matrix: the row-store of the paper.
///
/// `row_ptr[i]..row_ptr[i + 1]` delimits the nonzeros of instance `i` inside
/// `ids` / `values`. Within a row, the ids strictly ascend. The ids are held
/// at the narrowest width that fits `n_cols` of them — 2 bytes up to 65 536
/// features, 4 above (packed keys with a 0-bit bin field, [`PairKeys`]);
/// every accessor hands out [`FeatureId`]s.
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
/// offsets into `ids` / `values` for every row of that matrix.
struct CsrArrays {
    row_ptr: Vec<usize>,
    ids: PairKeys,
    values: Vec<f32>,
}

/// A window's own arrays with `row_ptr` rebased to 0 and the ids at full
/// width: what `from_parts` takes, and the serialized and printed form of a
/// [`CsrMatrix`].
#[derive(Serialize, Deserialize)]
struct CsrParts {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<FeatureId>,
    values: Vec<f32>,
}

/// The feature ids of one run of a [`CsrMatrix`] (a row, or a window's
/// stretch), read in place at the matrix's id width.
#[derive(Clone)]
pub struct RowIds<'a> {
    ids: &'a PairKeys,
    start: usize,
    end: usize,
}

impl<'a> RowIds<'a> {
    /// Number of ids.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the run holds no id.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = FeatureId> + 'a {
        let ids = self.ids;
        (self.start..self.end).map(move |k| ids.get(k).0)
    }

    /// The ids at full width.
    pub fn to_vec(&self) -> Vec<FeatureId> {
        let mut out = Vec::with_capacity(self.len());
        self.ids.extend_ids(self.start..self.end, &mut out);
        out
    }

    /// The key buffer the run lives in and its place there: two runs over
    /// the same buffer and range share their bytes.
    pub fn run(&self) -> (&'a PairKeys, Range<usize>) {
        (self.ids, self.start..self.end)
    }
}

impl PartialEq for RowIds<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for RowIds<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Incremental builder for [`CsrMatrix`], appending one row at a time and
/// writing each id at the matrix's width.
#[derive(Debug)]
pub struct CsrBuilder {
    n_cols: usize,
    row_ptr: Vec<usize>,
    ids: PairKeys,
    values: Vec<f32>,
    /// The row being pushed, sorted by feature: reused across rows.
    sorted: Vec<(FeatureId, f32)>,
}

impl CsrBuilder {
    /// Creates a builder for a matrix with `n_cols` columns.
    pub fn new(n_cols: usize) -> Self {
        Self::with_capacity(n_cols, 0, 0)
    }

    /// Creates a builder with capacity hints for rows and nonzeros.
    pub fn with_capacity(n_cols: usize, n_rows: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        row_ptr.push(0);
        CsrBuilder {
            n_cols,
            row_ptr,
            ids: PairKeys::with_bin_bits(n_cols, 0, nnz),
            values: Vec::with_capacity(nnz),
            sorted: Vec::new(),
        }
    }

    /// Appends one row given `(feature, value)` pairs.
    ///
    /// Pairs need not be sorted; they are sorted here. Duplicate feature
    /// indices within a row and out-of-range indices are rejected, and a
    /// rejected row leaves the builder as it was.
    pub fn push_row(&mut self, entries: &[(FeatureId, f32)]) -> Result<(), DataError> {
        if let Some(&(feat, _)) = entries.iter().find(|&&(f, _)| f as usize >= self.n_cols) {
            return Err(DataError::IndexOutOfBounds {
                kind: "feature",
                index: feat as usize,
                bound: self.n_cols,
            });
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(entries);
        self.sorted.sort_unstable_by_key(|&(feat, _)| feat);
        if let Some(w) = self.sorted.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(DataError::Shape(format!(
                "duplicate feature {} in row {}",
                w[0].0,
                self.row_ptr.len() - 1
            )));
        }
        for &(feat, val) in &self.sorted {
            self.ids.push(feat, 0);
            self.values.push(val);
        }
        self.row_ptr.push(self.values.len());
        Ok(())
    }

    /// Appends one row whose ids are already strictly ascending and in
    /// range (a row another matrix handed out), with no sort and no scratch.
    pub(crate) fn push_ascending(&mut self, feats: &[FeatureId], vals: &[f32]) {
        debug_assert_eq!(feats.len(), vals.len());
        debug_assert!(feats.windows(2).all(|w| w[0] < w[1]), "ids ascend");
        debug_assert!(feats.last().is_none_or(|&f| (f as usize) < self.n_cols), "ids in range");
        for &feat in feats {
            self.ids.push(feat, 0);
        }
        self.values.extend_from_slice(vals);
        self.row_ptr.push(self.values.len());
    }

    /// Finalizes the builder into a [`CsrMatrix`].
    pub fn build(self) -> CsrMatrix {
        CsrMatrix::whole(self.n_cols, self.row_ptr, self.ids, self.values)
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
        let ids = PairKeys::from_ids(n_cols, col_idx);
        Ok(CsrMatrix::whole(n_cols, row_ptr, ids, values))
    }

    /// The window over all rows of freshly built arrays (invariants already
    /// established by the caller).
    fn whole(n_cols: usize, row_ptr: Vec<usize>, ids: PairKeys, values: Vec<f32>) -> Self {
        let hi = row_ptr.len() - 1;
        CsrMatrix { n_cols, arrays: Arc::new(CsrArrays { row_ptr, ids, values }), lo: 0, hi }
    }

    /// Absolute offsets of this window's rows: `n_rows + 1` entries.
    #[inline]
    fn ptrs(&self) -> &[usize] {
        &self.arrays.row_ptr[self.lo..=self.hi]
    }

    /// The ids and values at absolute offsets `start..end`.
    #[inline]
    fn run(&self, start: usize, end: usize) -> (RowIds<'_>, &[f32]) {
        (RowIds { ids: &self.arrays.ids, start, end }, &self.arrays.values[start..end])
    }

    /// This window's stretch of ids / values.
    #[inline]
    fn entries(&self) -> (RowIds<'_>, &[f32]) {
        self.run(self.arrays.row_ptr[self.lo], self.arrays.row_ptr[self.hi])
    }

    fn to_parts(&self) -> CsrParts {
        let ptrs = self.ptrs();
        let (ids, values) = self.entries();
        CsrParts {
            n_rows: self.n_rows(),
            n_cols: self.n_cols,
            row_ptr: ptrs.iter().map(|&p| p - ptrs[0]).collect(),
            col_idx: ids.to_vec(),
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

    /// Bytes of one stored feature id: 2 up to 65 536 columns, else 4.
    pub fn id_bytes(&self) -> usize {
        self.arrays.ids.key_bytes()
    }

    /// Nonzeros of row `i`: its ids in place, and its values.
    #[inline]
    pub fn row(&self, i: usize) -> (RowIds<'_>, &[f32]) {
        let ptrs = self.ptrs();
        self.run(ptrs[i], ptrs[i + 1])
    }

    /// Iterates rows as `(row index, ids, values)`.
    pub fn iter_rows(&self) -> impl Iterator<Item = (usize, RowIds<'_>, &[f32])> {
        self.ptrs().windows(2).enumerate().map(move |(i, w)| {
            let (ids, vals) = self.run(w[0], w[1]);
            (i, ids, vals)
        })
    }

    /// Visits every row as parallel `(features, values)` slices. At 4-byte
    /// width the ids are handed out in place; narrower ids are widened row
    /// by row into one scratch buffer.
    pub fn for_each_row(&self, mut f: impl FnMut(usize, &[FeatureId], &[f32])) {
        let CsrArrays { ids, values, .. } = &*self.arrays;
        let rows = self.ptrs().windows(2).enumerate();
        // A key with a 0-bit bin field is its id.
        if let Keys::U32(wide) = ids.keys() {
            rows.for_each(|(i, w)| f(i, &wide[w[0]..w[1]], &values[w[0]..w[1]]));
        } else {
            let mut scratch = Vec::new();
            rows.for_each(|(i, w)| {
                scratch.clear();
                ids.extend_ids(w[0]..w[1], &mut scratch);
                f(i, &scratch, &values[w[0]..w[1]]);
            });
        }
    }

    /// Value at `(row, col)`, or `None` when the entry is missing (sparse zero).
    pub fn get(&self, row: usize, col: FeatureId) -> Option<f32> {
        let (ptrs, arrays) = (self.ptrs(), &*self.arrays);
        let (lo, hi) = (ptrs[row], ptrs[row + 1]);
        arrays.ids.position(lo..hi, col).map(|k| arrays.values[lo + k])
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
            + self.nnz() * (self.id_bytes() + std::mem::size_of::<f32>())
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
        assert_eq!(f.to_vec(), [0, 1, 2]);
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
        assert_eq!(shard.row(0).0.to_vec(), [1]);
        assert!(shard.row(1).0.is_empty());
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
        assert_eq!(m.id_bytes(), 2);
        assert_eq!(m.heap_bytes(), 5 * 8 + 6 * 2 + 6 * 4);
    }

    #[test]
    fn a_rejected_row_leaves_the_builder_as_it_was() {
        let mut b = CsrBuilder::new(3);
        b.push_row(&[(2, 1.0)]).unwrap();
        assert!(b.push_row(&[(1, 1.0), (1, 2.0)]).is_err());
        assert!(b.push_row(&[(0, 1.0), (3, 2.0)]).is_err());
        b.push_row(&[(0, 3.0)]).unwrap();
        let want = CsrMatrix::from_parts(2, 3, vec![0, 1, 2], vec![2, 0], vec![1.0, 3.0]);
        assert_eq!(b.build(), want.unwrap());
    }
}
