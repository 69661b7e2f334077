//! Blockified column groups (paper §4.2.3, Figure 9).
//!
//! During the horizontal-to-vertical transformation each source worker sends
//! its slice of a column group as one *block* rather than millions of small
//! vectors, sidestepping (de)serialization overhead. Figure 9's three flat
//! arrays (feature indexes, histogram bin indexes, instance pointers) are
//! two in memory: packed 〈feature, bin〉 keys ([`PairKeys`]) and the
//! pointers; the wire form ([`crate::encoding::encode_block`]) is
//! unchanged. [`Block`] is that slice on the sending side. On the receiving
//! side an [`Assembly`] takes the senders' slices in file-split order
//! ("sorting the received column groups w.r.t. the original worker ids",
//! step 4) straight into the keys of one [`BinnedRows`]: where the paper
//! keeps a two-phase index over ≤ 5 merged blocks, a worker here holds one
//! block, and a row lookup is one pointer read.

use crate::binned::BinnedRows;
use crate::error::DataError;
use crate::pairs::PairKeys;
use crate::{BinId, FeatureId};

/// One contiguous slice of a column group: rows `row_offset ..
/// row_offset + n_rows()` of the (vertically sharded) dataset.
#[derive(Debug)]
pub struct Block {
    /// Order key: index of the originating file split / source worker.
    pub file_split_index: u32,
    /// Global instance id of the first row in this block.
    pub row_offset: u32,
    /// The stored pairs: group-local feature ids and histogram bin indexes.
    pub pairs: PairKeys,
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
        self.pairs.len()
    }
}

/// A worker's column group under assembly: the senders' slices, appended in
/// file-split order to the keys and pointers of one [`BinnedRows`].
#[derive(Debug)]
pub struct Assembly {
    /// Bin count of each group-local feature; its length is the group's width.
    n_bins: Vec<usize>,
    n_rows: usize,
    pub(crate) row_ptr: Vec<usize>,
    pub(crate) pairs: PairKeys,
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
    /// An empty assembly of `n_rows` rows over `n_bins.len()` group-local
    /// features, feature `f` binned into `n_bins[f]` bins, with room for
    /// `nnz` pairs. Its keys' bin field holds the largest bin count.
    pub fn new(n_bins: &[usize], n_rows: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        row_ptr.push(0);
        let q = n_bins.iter().copied().max().unwrap_or(0);
        let pairs = PairKeys::with_capacity(n_bins.len(), q, nnz);
        Assembly { n_bins: n_bins.to_vec(), n_rows, row_ptr, pairs, slices: 0, checked: 0 }
    }

    /// The slice a failure inside the open slice blames.
    fn open_slice(&self) -> usize {
        (self.slices as usize).saturating_sub(1)
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
    /// the pair count, and features strictly ascending in every row (each
    /// pair's bounds were checked as it was pushed).
    fn close(&mut self) -> Result<(), SliceError> {
        let fail = |error| SliceError { slice: self.open_slice(), error };
        let rows = &self.row_ptr[self.checked..];
        for (i, w) in (self.checked..).zip(rows.windows(2)) {
            if w[0] > w[1] || w[1] > self.pairs.len() {
                return Err(fail(DataError::Shape(format!("row_ptr is not monotone at row {i}"))));
            }
            if !self.pairs.ids_ascend(w[0]..w[1]) {
                return Err(fail(DataError::Shape(format!(
                    "row {i} entries not strictly ascending by feature"
                ))));
            }
        }
        if self.row_ptr.last() != Some(&self.pairs.len()) {
            return Err(fail(DataError::Shape(
                "row_ptr does not end at the pair count".into(),
            )));
        }
        self.checked = self.row_ptr.len() - 1;
        Ok(())
    }

    /// Appends a pair to the open row: a feature `< n_bins.len()` with a bin
    /// below its bin count, else the open slice's typed error.
    #[inline]
    pub fn push(&mut self, feature: FeatureId, bin: BinId) -> Result<(), SliceError> {
        self.extend(1, || (feature, bin))
    }

    /// Appends `n` pairs drawn from `next` to the open row, each checked as
    /// [`Self::push`] checks it.
    #[inline]
    pub fn extend(
        &mut self,
        n: usize,
        mut next: impl FnMut() -> (FeatureId, BinId),
    ) -> Result<(), SliceError> {
        let (n_bins, slice) = (&self.n_bins, self.open_slice());
        self.pairs.try_extend(n, || {
            let (feature, bin) = next();
            let (f, index) = (feature as usize, usize::from(bin));
            let error = match n_bins.get(f) {
                None => {
                    DataError::IndexOutOfBounds { kind: "feature", index: f, bound: n_bins.len() }
                }
                Some(&bound) if index >= bound => {
                    DataError::IndexOutOfBounds { kind: "bin", index, bound }
                }
                Some(_) => return Ok((feature, bin)),
            };
            Err(SliceError { slice, error })
        })
    }

    /// Closes the open row.
    #[inline]
    pub fn end_row(&mut self) {
        self.row_ptr.push(self.pairs.len());
    }

    /// The assembled rows, once the slices covered all `n_rows`. A short
    /// total is the last slice's error.
    pub fn finish(mut self) -> Result<BinnedRows, SliceError> {
        self.close()?;
        let assembled = self.row_ptr.len() - 1;
        if assembled != self.n_rows {
            return Err(SliceError {
                slice: self.open_slice(),
                error: DataError::Shape(format!(
                    "{} slices cover {assembled} of {} rows",
                    self.slices, self.n_rows
                )),
            });
        }
        Ok(BinnedRows::from_checked_parts(self.n_bins.len(), self.row_ptr, self.pairs))
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
                asm.push(f, b)?;
            }
            asm.end_row();
        }
        Ok(())
    }

    #[test]
    fn slices_assemble_into_one_row_store() {
        // Rows 0-1 from split 0, rows 2-4 from split 1, row 5 from split 2.
        let mut asm = Assembly::new(&[10; 3], 6, 6);
        slice(&mut asm, 0, 0, &[&[(0, 1), (2, 3)], &[(1, 2)]]).unwrap();
        slice(&mut asm, 1, 2, &[&[], &[(0, 5)], &[(2, 7)]]).unwrap();
        slice(&mut asm, 2, 5, &[&[(1, 9)]]).unwrap();
        let m = asm.finish().unwrap();
        assert_eq!((m.n_rows(), m.nnz()), (6, 6));
        let row = |i| {
            let mut out = Vec::new();
            m.for_each_in_row(i, |f, b| out.push((f, b)));
            out
        };
        assert_eq!(row(0), [(0, 1), (2, 3)]);
        assert_eq!(row(2), []);
        assert_eq!(row(4), [(2, 7)]);
        assert_eq!(row(5), [(1, 9)]);
    }

    #[test]
    fn slices_must_tile_the_rows_in_file_split_order() {
        let mut asm = Assembly::new(&[10; 3], 2, 0);
        slice(&mut asm, 0, 0, &[&[(0, 1)]]).unwrap();
        assert!(asm.begin(1, 2).is_err(), "gap between slices");
        assert!(asm.begin(1, 0).is_err(), "overlapping slices");
        assert!(asm.begin(2, 1).is_err(), "out of file-split order");
        let mut short = Assembly::new(&[10; 3], 2, 0);
        slice(&mut short, 0, 0, &[&[(0, 1)]]).unwrap();
        assert!(short.finish().is_err(), "a row no slice covers");
        slice(&mut asm, 1, 1, &[&[(2, 1)]]).unwrap();
        assert_eq!(asm.finish().unwrap().n_rows(), 2);
    }

    #[test]
    fn each_slice_is_checked_as_it_closes() {
        // Slice 0 is sound; slice 1's one row is not, and the error names it.
        let two_slices = |row: &[(u32, u16)]| {
            let mut asm = Assembly::new(&[10; 3], 2, 0);
            slice(&mut asm, 0, 0, &[&[(0, 1)]]).unwrap();
            slice(&mut asm, 1, 1, &[row])?;
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
        // A bin at its feature's bin count.
        assert!(two_slices(&[(2, 9)]).is_ok());
        assert!(matches!(
            two_slices(&[(0, 1), (2, 10)]),
            Err(SliceError {
                slice: 1,
                error: DataError::IndexOutOfBounds { kind: "bin", index: 10, bound: 10 }
            })
        ));
        // A pointer that descends: slice 0's second row would end before
        // its first.
        let mut asm = Assembly::new(&[10; 3], 2, 0);
        slice(&mut asm, 0, 0, &[&[(0, 1), (1, 1)]]).unwrap();
        asm.row_ptr.push(1);
        assert!(matches!(asm.begin(1, 2), Err(SliceError { slice: 0, .. })));
    }
}
