//! Blockified column groups (paper §4.2.3, Figure 9).
//!
//! During the horizontal-to-vertical transformation each source worker sends
//! its slice of a column group as one *block* — three flat arrays (feature
//! indexes, histogram bin indexes, instance pointers) — rather than millions
//! of small vectors, sidestepping (de)serialization overhead. [`Block`] is
//! that slice on the sending side. On the receiving side an [`Assembly`]
//! takes the senders' slices in file-split order ("sorting the received
//! column groups w.r.t. the original worker ids", step 4) straight into the
//! three arrays of one [`BinnedRows`]: where the paper keeps a two-phase
//! index over ≤ 5 merged blocks, a worker here holds one block, and a row
//! lookup is one pointer read.

use crate::binned::{check_row, BinnedRows};
use crate::error::DataError;
use crate::{BinId, FeatureId};

/// One contiguous slice of a column group: rows `row_offset ..
/// row_offset + n_rows()` of the (vertically sharded) dataset.
#[derive(Debug)]
pub struct Block {
    /// Order key: index of the originating file split / source worker.
    pub file_split_index: u32,
    /// Global instance id of the first row in this block.
    pub row_offset: u32,
    /// Group-local feature ids of the stored pairs.
    pub feats: Vec<FeatureId>,
    /// Histogram bin indexes of the stored pairs.
    pub bins: Vec<BinId>,
    /// Instance pointers: `row_ptr[i]..row_ptr[i+1]` delimits local row `i`.
    pub row_ptr: Vec<u32>,
}

impl Block {
    /// Number of rows covered by this block.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of stored pairs.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.feats.len()
    }
}

/// A worker's column group under assembly: the senders' slices, appended in
/// file-split order to the three arrays of one [`BinnedRows`].
#[derive(Debug)]
pub struct Assembly {
    n_features: usize,
    n_rows: usize,
    pub(crate) row_ptr: Vec<usize>,
    pub(crate) feats: Vec<FeatureId>,
    pub(crate) bins: Vec<BinId>,
    /// Slices begun so far: the file-split index the next one must carry.
    slices: u32,
    /// Rows checked so far: every row of the slices before the open one.
    checked: usize,
}

/// A sender's slice that does not assemble: its file-split index — the
/// sender's position among the payloads — and why. A slice's own rows are
/// blamed on it; slices that do not tile the rows are blamed where the gap
/// or overlap shows, on the later slice (only a caller that knows each
/// sender's rows can tell which of the two is wrong).
#[derive(Debug)]
pub struct SliceError {
    /// The failing slice's file-split index.
    pub slice: usize,
    /// What was wrong with it.
    pub error: DataError,
}

impl Assembly {
    /// An empty assembly of `n_rows` rows over `n_features` group-local
    /// features, with room for `nnz` pairs.
    pub fn new(n_features: usize, n_rows: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        row_ptr.push(0);
        let (feats, bins) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        Assembly { n_features, n_rows, row_ptr, feats, bins, slices: 0, checked: 0 }
    }

    /// Closes the open slice, then opens the next sender's, which must
    /// carry the next file-split index and start at the first row not yet
    /// assembled.
    pub fn begin(&mut self, file_split_index: u32, row_offset: u32) -> Result<(), SliceError> {
        self.close()?;
        let next_row = self.row_ptr.len() - 1;
        if file_split_index != self.slices || row_offset as usize != next_row {
            return Err(SliceError {
                slice: self.slices as usize,
                error: DataError::Shape(format!(
                    "slice {file_split_index} starts at row {row_offset}; expected slice {} at \
                     row {next_row}",
                    self.slices
                )),
            });
        }
        self.slices += 1;
        Ok(())
    }

    /// Checks the open slice's rows: pointers that do not descend and end at
    /// the pair count, and features strictly ascending and `< n_features` in
    /// every row.
    fn close(&mut self) -> Result<(), SliceError> {
        let slice = (self.slices as usize).saturating_sub(1);
        let fail = |error| SliceError { slice, error };
        let rows = &self.row_ptr[self.checked..];
        for (i, w) in (self.checked..).zip(rows.windows(2)) {
            let row = self.feats.get(w[0]..w[1]).ok_or_else(|| {
                fail(DataError::Shape(format!("row_ptr is not monotone at row {i}")))
            })?;
            check_row(i, row.iter().copied(), self.n_features).map_err(fail)?;
        }
        if self.row_ptr.last() != Some(&self.feats.len()) {
            return Err(fail(DataError::Shape(
                "row_ptr does not end at the pair count".into(),
            )));
        }
        self.checked = self.row_ptr.len() - 1;
        Ok(())
    }

    /// Appends a pair to the open row.
    #[inline]
    pub fn push(&mut self, feature: FeatureId, bin: BinId) {
        self.feats.push(feature);
        self.bins.push(bin);
    }

    /// Closes the open row.
    #[inline]
    pub fn end_row(&mut self) {
        self.row_ptr.push(self.feats.len());
    }

    /// The assembled rows, once the slices covered all `n_rows`. A short
    /// total is the last slice's error.
    pub fn finish(mut self) -> Result<BinnedRows, SliceError> {
        self.close()?;
        let assembled = self.row_ptr.len() - 1;
        if assembled != self.n_rows {
            return Err(SliceError {
                slice: (self.slices as usize).saturating_sub(1),
                error: DataError::Shape(format!(
                    "{} slices cover {assembled} of {} rows",
                    self.slices, self.n_rows
                )),
            });
        }
        Ok(BinnedRows::from_checked_parts(self.n_features, self.row_ptr, self.feats, self.bins))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends one slice of rows to `asm`.
    fn slice(
        asm: &mut Assembly,
        split: u32,
        offset: u32,
        rows: &[&[(u32, u16)]],
    ) -> Result<(), SliceError> {
        asm.begin(split, offset)?;
        for row in rows {
            for &(f, b) in *row {
                asm.push(f, b);
            }
            asm.end_row();
        }
        Ok(())
    }

    #[test]
    fn slices_assemble_into_one_row_store() {
        // Rows 0-1 from split 0, rows 2-4 from split 1, row 5 from split 2.
        let mut asm = Assembly::new(3, 6, 6);
        slice(&mut asm, 0, 0, &[&[(0, 1), (2, 3)], &[(1, 2)]]).unwrap();
        slice(&mut asm, 1, 2, &[&[], &[(0, 5)], &[(2, 7)]]).unwrap();
        slice(&mut asm, 2, 5, &[&[(1, 9)]]).unwrap();
        let m = asm.finish().unwrap();
        assert_eq!((m.n_rows(), m.nnz()), (6, 6));
        assert_eq!(m.row(0), (&[0u32, 2][..], &[1u16, 3][..]));
        assert_eq!(m.row(2), (&[][..], &[][..]));
        assert_eq!(m.row(4), (&[2u32][..], &[7u16][..]));
        assert_eq!(m.row(5), (&[1u32][..], &[9u16][..]));
    }

    #[test]
    fn slices_must_tile_the_rows_in_file_split_order() {
        let mut asm = Assembly::new(3, 2, 0);
        slice(&mut asm, 0, 0, &[&[(0, 1)]]).unwrap();
        assert!(asm.begin(1, 2).is_err(), "gap between slices");
        assert!(asm.begin(1, 0).is_err(), "overlapping slices");
        assert!(asm.begin(2, 1).is_err(), "out of file-split order");
        let mut short = Assembly::new(3, 2, 0);
        slice(&mut short, 0, 0, &[&[(0, 1)]]).unwrap();
        assert!(short.finish().is_err(), "a row no slice covers");
        slice(&mut asm, 1, 1, &[&[(2, 1)]]).unwrap();
        assert_eq!(asm.finish().unwrap().n_rows(), 2);
    }

    #[test]
    fn each_slice_is_checked_as_it_closes() {
        // Slice 0 is sound; slice 1's one row is not, and the error names it.
        let two_slices = |row: &[(u32, u16)]| {
            let mut asm = Assembly::new(3, 2, 0);
            slice(&mut asm, 0, 0, &[&[(0, 1)]]).unwrap();
            slice(&mut asm, 1, 1, &[row]).unwrap();
            asm.finish()
        };
        assert!(two_slices(&[(0, 1), (2, 3)]).is_ok());
        for row in [&[(1, 0), (1, 0)][..], &[(2, 0), (1, 0)]] {
            assert!(matches!(two_slices(row), Err(SliceError { slice: 1, .. })), "{row:?}");
        }
        assert!(matches!(
            two_slices(&[(3, 0)]),
            Err(SliceError { slice: 1, error: DataError::IndexOutOfBounds { index: 3, bound: 3, .. } })
        ));
        // A pointer that descends: slice 0's second row would end before
        // its first.
        let mut asm = Assembly::new(3, 2, 0);
        slice(&mut asm, 0, 0, &[&[(0, 1), (1, 1)]]).unwrap();
        asm.row_ptr.push(1);
        assert!(matches!(asm.begin(1, 2), Err(SliceError { slice: 0, .. })));
    }
}
