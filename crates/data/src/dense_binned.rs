//! Dense bin-encoded matrices: one bin id per `(row, feature)` cell.
//!
//! The sparse [`BinnedRows`]/[`BinnedColumns`] pay one packed key per
//! stored value (`(id << b) | bin`: 2 bytes while `ids · 2^b ≤ 2^16`, else 4
//! or 8; see [`crate::pairs`]) plus a binary search on point lookups. On
//! dense workloads — the SUSY / Higgs / Criteo / Epsilon class of Table 2,
//! where every cell is present — that indirection is pure overhead.
//! [`DenseBinnedRows`] and [`DenseBinnedColumns`] instead store
//! one bin id per cell in row-/column-major order, packed as `u8` when the
//! bin count allows (`q ≤ 255`) and `u16` otherwise, with the all-ones
//! value of the cell width reserved as the *missing* sentinel. Missing
//! cells keep the sparse semantics exactly: they are skipped by histogram
//! scans and routed through the learned default direction at split time.
//!
//! [`BinnedStore`] and [`ColumnStore`] wrap the dense and sparse layouts
//! behind the one API the trainers use (point lookups, ordered scans,
//! `select_cols`, `to_columns`, `heap_bytes`), so every trainer runs on
//! either representation. The `auto` policy picks dense when the
//! stored-value density reaches [`DEFAULT_DENSE_THRESHOLD`]: at 1 byte per
//! cell vs a 2-byte key per sparse value the dense layout is smaller from
//! ~1/2 density upward (~1/4 against 4-byte keys), and its scans touch no
//! ids.
//!
//! Scan-order guarantee: a dense row scan visits features in ascending
//! order skipping sentinels — exactly the order a sparse row's
//! strictly-ascending `(feature, bin)` run is stored in — and a dense
//! column scan visits instances ascending, matching sparse columns. Every
//! f64 accumulation made from either layout therefore happens in the same
//! sequence, which is what lets the trainers guarantee bit-identical
//! ensembles across storage choices.

use crate::binned::{BinnedColumns, BinnedRows, BinnedRowsBuilder};
use crate::{BinId, FeatureId};
use serde::{Deserialize, Serialize};

/// Stored-value density at or above which the `auto` policy picks the
/// dense layout. Break-even on bytes alone is ~1/2 against 2-byte sparse
/// keys and ~1/4 against 4-byte ones (u8 cells either way); 0.25 was set
/// against the 6-byte pairs the keys replaced, and is kept until a
/// measurement moves it.
pub const DEFAULT_DENSE_THRESHOLD: f64 = 0.25;

/// The `auto` rule: whether `nnz` present values in an `n_rows × n_features`
/// matrix reach [`DEFAULT_DENSE_THRESHOLD`] (never for degenerate empty
/// shapes).
pub fn dense_at_density(nnz: usize, n_rows: usize, n_features: usize) -> bool {
    match n_rows.checked_mul(n_features) {
        Some(cells) if cells > 0 => nnz as f64 / cells as f64 >= DEFAULT_DENSE_THRESHOLD,
        _ => false,
    }
}

/// Missing-cell sentinel for `u8`-packed cells.
pub const MISSING_U8: u8 = u8::MAX;
/// Missing-cell sentinel for `u16`-packed cells.
pub const MISSING_U16: u16 = u16::MAX;

/// Cell width of a dense binned matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinWidth {
    /// 1-byte cells; valid while `n_bins ≤ 255` (bin ids ≤ 254, sentinel 255).
    U8,
    /// 2-byte cells; valid while `n_bins ≤ 65535` (the `BinId` ceiling).
    U16,
}

impl BinWidth {
    /// The narrowest width whose sentinel cannot collide with a bin id.
    pub fn for_bins(n_bins: usize) -> BinWidth {
        if n_bins <= MISSING_U8 as usize {
            BinWidth::U8
        } else {
            BinWidth::U16
        }
    }

    /// Bytes per cell.
    pub fn bytes(self) -> usize {
        match self {
            BinWidth::U8 => 1,
            BinWidth::U16 => 2,
        }
    }
}

/// The packed cell buffer of a dense binned matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinPack {
    /// 1-byte cells, sentinel [`MISSING_U8`].
    U8(Vec<u8>),
    /// 2-byte cells, sentinel [`MISSING_U16`].
    U16(Vec<u16>),
}

impl BinPack {
    fn filled(width: BinWidth, cells: usize) -> BinPack {
        match width {
            BinWidth::U8 => BinPack::U8(vec![MISSING_U8; cells]),
            BinWidth::U16 => BinPack::U16(vec![MISSING_U16; cells]),
        }
    }

    fn set(&mut self, idx: usize, bin: BinId) {
        match self {
            BinPack::U8(c) => c[idx] = bin as u8,
            BinPack::U16(c) => c[idx] = bin,
        }
    }

    #[inline]
    fn get(&self, idx: usize) -> Option<BinId> {
        match self {
            BinPack::U8(c) => {
                let v = c[idx];
                (v != MISSING_U8).then_some(v as BinId)
            }
            BinPack::U16(c) => {
                let v = c[idx];
                (v != MISSING_U16).then_some(v)
            }
        }
    }

    fn width(&self) -> BinWidth {
        match self {
            BinPack::U8(_) => BinWidth::U8,
            BinPack::U16(_) => BinWidth::U16,
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            BinPack::U8(c) => c.len(),
            BinPack::U16(c) => c.len() * 2,
        }
    }
}

/// Copies cells `src[f(k)] -> dst[k]` without widening, for transposes and
/// shard extraction that preserve the pack width.
fn gather(src: &BinPack, dst: &mut BinPack, map: impl Iterator<Item = (usize, usize)>) {
    match (src, dst) {
        (BinPack::U8(s), BinPack::U8(d)) => {
            for (to, from) in map {
                d[to] = s[from];
            }
        }
        (BinPack::U16(s), BinPack::U16(d)) => {
            for (to, from) in map {
                d[to] = s[from];
            }
        }
        _ => unreachable!("gather between mismatched pack widths"),
    }
}

/// Dense row-store of binned values: cell `(i, j)` lives at `i·D + j`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DenseBinnedRows {
    n_rows: usize,
    n_features: usize,
    n_bins: usize,
    nnz: usize,
    pack: BinPack,
}

/// Dense column-store of binned values: cell `(i, j)` lives at `j·N + i`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DenseBinnedColumns {
    n_rows: usize,
    n_features: usize,
    n_bins: usize,
    nnz: usize,
    pack: BinPack,
}

impl DenseBinnedRows {
    /// Materializes a sparse row-store densely. `n_bins` fixes the cell
    /// width deterministically (callers pass the global histogram width, so
    /// every shard of one dataset packs identically).
    pub fn from_sparse(rows: &BinnedRows, n_bins: usize) -> DenseBinnedRows {
        Self::from_sparse_with_width(rows, n_bins, BinWidth::for_bins(n_bins))
    }

    /// [`Self::from_sparse`] with an explicit cell width (a `u16` pack of
    /// `u8`-sized bins is valid and scan-equivalent; tests use this).
    pub fn from_sparse_with_width(
        rows: &BinnedRows,
        n_bins: usize,
        width: BinWidth,
    ) -> DenseBinnedRows {
        let mut out = Self::all_missing(rows.n_rows(), rows.n_features(), n_bins, width);
        for i in 0..rows.n_rows() {
            rows.for_each_in_row(i, |f, b| out.set(i, f, b));
        }
        out
    }

    /// An `n_rows × n_features` matrix of missing cells, to be filled with
    /// [`Self::set`] — how binning writes packed cells directly, without a
    /// sparse intermediate.
    pub fn all_missing(
        n_rows: usize,
        n_features: usize,
        n_bins: usize,
        width: BinWidth,
    ) -> DenseBinnedRows {
        let sentinel_floor = match width {
            BinWidth::U8 => MISSING_U8 as usize,
            BinWidth::U16 => MISSING_U16 as usize,
        };
        assert!(
            n_bins <= sentinel_floor,
            "{n_bins} bins cannot pack into {width:?} cells without sentinel collision"
        );
        let cells = n_rows.checked_mul(n_features).expect("dense cell count overflows usize");
        DenseBinnedRows { n_rows, n_features, n_bins, nnz: 0, pack: BinPack::filled(width, cells) }
    }

    /// Stores `bin` at `(row, feature)`.
    pub fn set(&mut self, row: usize, feature: FeatureId, bin: BinId) {
        assert!((feature as usize) < self.n_features, "feature {feature} out of range");
        debug_assert!((bin as usize) < self.n_bins, "bin id {bin} out of range {}", self.n_bins);
        let idx = row * self.n_features + feature as usize;
        self.nnz += usize::from(self.pack.get(idx).is_none());
        self.pack.set(idx, bin);
    }

    /// Converts back to the sparse row-store (exact inverse of
    /// [`Self::from_sparse`] — sentinels become absent entries).
    pub fn to_sparse(&self) -> BinnedRows {
        let mut b = BinnedRowsBuilder::with_capacity(
            self.n_features,
            self.n_bins,
            self.n_rows,
            self.nnz,
        );
        let mut entries: Vec<(FeatureId, BinId)> = Vec::with_capacity(self.n_features);
        for i in 0..self.n_rows {
            entries.clear();
            let base = i * self.n_features;
            for j in 0..self.n_features {
                if let Some(bin) = self.pack.get(base + j) {
                    entries.push((j as FeatureId, bin));
                }
            }
            b.push_row(&entries).expect("dense cells are feature-ascending");
        }
        b.build()
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

    /// Histogram width the cells were packed for.
    #[inline]
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// Number of present (non-sentinel) cells.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Cell width in use.
    pub fn width(&self) -> BinWidth {
        self.pack.width()
    }

    /// The packed cell buffer (row-major), for specialized kernels.
    #[inline]
    pub fn pack(&self) -> &BinPack {
        &self.pack
    }

    /// Bin of `(row, feature)`, `None` when missing — O(1), no search.
    #[inline]
    pub fn get(&self, row: usize, feature: FeatureId) -> Option<BinId> {
        self.pack.get(row * self.n_features + feature as usize)
    }

    /// Present entries of one row in ascending feature order.
    pub fn for_each_in_row(&self, row: usize, mut f: impl FnMut(FeatureId, BinId)) {
        let base = row * self.n_features;
        for j in 0..self.n_features {
            if let Some(bin) = self.pack.get(base + j) {
                f(j as FeatureId, bin);
            }
        }
    }

    /// Extracts a vertical shard containing `cols` (renumbered
    /// `0..cols.len()` in the given order), keeping all rows.
    pub fn select_cols(&self, cols: &[FeatureId]) -> DenseBinnedRows {
        let d_new = cols.len();
        let mut pack = BinPack::filled(self.width(), self.n_rows * d_new);
        gather(
            &self.pack,
            &mut pack,
            (0..self.n_rows).flat_map(|i| {
                cols.iter().enumerate().map(move |(new, &old)| {
                    (i * d_new + new, i * self.n_features + old as usize)
                })
            }),
        );
        let mut out = DenseBinnedRows {
            n_rows: self.n_rows,
            n_features: d_new,
            n_bins: self.n_bins,
            nnz: 0,
            pack,
        };
        out.nnz = out.count_nnz();
        out
    }

    /// Transposes to the equivalent dense column-store.
    pub fn to_columns(&self) -> DenseBinnedColumns {
        let (n, d) = (self.n_rows, self.n_features);
        let mut pack = BinPack::filled(self.width(), n * d);
        gather(
            &self.pack,
            &mut pack,
            (0..d).flat_map(|j| (0..n).map(move |i| (j * n + i, i * d + j))),
        );
        DenseBinnedColumns {
            n_rows: n,
            n_features: d,
            n_bins: self.n_bins,
            nnz: self.nnz,
            pack,
        }
    }

    /// Bytes of heap storage used (exact, for memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.pack.heap_bytes()
    }

    fn count_nnz(&self) -> usize {
        match &self.pack {
            BinPack::U8(c) => c.iter().filter(|&&v| v != MISSING_U8).count(),
            BinPack::U16(c) => c.iter().filter(|&&v| v != MISSING_U16).count(),
        }
    }
}

impl DenseBinnedColumns {
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

    /// Histogram width the cells were packed for.
    #[inline]
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// Number of present (non-sentinel) cells.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Cell width in use.
    pub fn width(&self) -> BinWidth {
        self.pack.width()
    }

    /// The packed cell buffer (column-major), for specialized kernels.
    #[inline]
    pub fn pack(&self) -> &BinPack {
        &self.pack
    }

    /// Bin of `(row, feature)`, `None` when missing — O(1), no search.
    #[inline]
    pub fn get(&self, row: usize, feature: FeatureId) -> Option<BinId> {
        self.pack.get(feature as usize * self.n_rows + row)
    }

    /// Present entries of one column in ascending instance order — the same
    /// order a sparse column stores, so scans accumulate identically.
    pub fn for_each_in_col(&self, col: usize, mut f: impl FnMut(crate::InstanceId, BinId)) {
        let base = col * self.n_rows;
        match &self.pack {
            BinPack::U8(c) => {
                for (i, &v) in c[base..base + self.n_rows].iter().enumerate() {
                    if v != MISSING_U8 {
                        f(i as crate::InstanceId, v as BinId);
                    }
                }
            }
            BinPack::U16(c) => {
                for (i, &v) in c[base..base + self.n_rows].iter().enumerate() {
                    if v != MISSING_U16 {
                        f(i as crate::InstanceId, v);
                    }
                }
            }
        }
    }

    /// Bytes of heap storage used (exact, for memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.pack.heap_bytes()
    }
}

/// Row-store of binned values in either layout. Everything downstream of
/// binning scans this; the variant is fixed at binning time by the
/// `Storage` policy (`gbdt-core`) and never changes mid-training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BinnedStore {
    /// Sparse 〈feature, bin〉 pairs (the pre-existing layout).
    Sparse(BinnedRows),
    /// One cell per `(row, feature)`, u8/u16-packed.
    Dense(DenseBinnedRows),
}

impl BinnedStore {
    /// Wraps rows sparsely (never densifies).
    pub fn sparse(rows: BinnedRows) -> BinnedStore {
        BinnedStore::Sparse(rows)
    }

    /// Densifies unconditionally.
    pub fn dense(rows: BinnedRows, n_bins: usize) -> BinnedStore {
        BinnedStore::Dense(DenseBinnedRows::from_sparse(&rows, n_bins))
    }

    /// Whether the dense layout was selected.
    pub fn is_dense(&self) -> bool {
        matches!(self, BinnedStore::Dense(_))
    }

    /// Short label for reports (`sparse`, `dense-u8`, `dense-u16`).
    pub fn label(&self) -> &'static str {
        match self {
            BinnedStore::Sparse(_) => "sparse",
            BinnedStore::Dense(d) => match d.width() {
                BinWidth::U8 => "dense-u8",
                BinWidth::U16 => "dense-u16",
            },
        }
    }

    /// Number of instances.
    pub fn n_rows(&self) -> usize {
        match self {
            BinnedStore::Sparse(r) => r.n_rows(),
            BinnedStore::Dense(d) => d.n_rows(),
        }
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        match self {
            BinnedStore::Sparse(r) => r.n_features(),
            BinnedStore::Dense(d) => d.n_features(),
        }
    }

    /// Number of present values.
    pub fn nnz(&self) -> usize {
        match self {
            BinnedStore::Sparse(r) => r.nnz(),
            BinnedStore::Dense(d) => d.nnz(),
        }
    }

    /// Bin of `(row, feature)`, `None` when missing. O(log nnz_row) sparse,
    /// O(1) dense.
    #[inline]
    pub fn get(&self, row: usize, feature: FeatureId) -> Option<BinId> {
        match self {
            BinnedStore::Sparse(r) => r.get(row, feature),
            BinnedStore::Dense(d) => d.get(row, feature),
        }
    }

    /// Present entries of one row in ascending feature order (the shared
    /// scan order of both layouts).
    pub fn for_each_in_row(&self, row: usize, f: impl FnMut(FeatureId, BinId)) {
        match self {
            BinnedStore::Sparse(r) => r.for_each_in_row(row, f),
            BinnedStore::Dense(d) => d.for_each_in_row(row, f),
        }
    }

    /// Extracts a vertical shard containing `cols`, renumbered in order
    /// (same layout).
    pub fn select_cols(&self, cols: &[FeatureId]) -> BinnedStore {
        match self {
            BinnedStore::Sparse(r) => BinnedStore::Sparse(r.select_cols(cols)),
            BinnedStore::Dense(d) => BinnedStore::Dense(d.select_cols(cols)),
        }
    }

    /// Converts to the column-store of the same layout.
    pub fn to_columns(&self) -> ColumnStore {
        match self {
            BinnedStore::Sparse(r) => ColumnStore::Sparse(r.to_columns()),
            BinnedStore::Dense(d) => ColumnStore::Dense(d.to_columns()),
        }
    }

    /// Bytes of heap storage used (exact, for memory accounting).
    pub fn heap_bytes(&self) -> usize {
        match self {
            BinnedStore::Sparse(r) => r.heap_bytes(),
            BinnedStore::Dense(d) => d.heap_bytes(),
        }
    }
}

/// Column-store of binned values in either layout (what the column-scan
/// trainers — QD1, QD3, Yggdrasil — consume).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ColumnStore {
    /// Sparse 〈instance, bin〉 pairs per column.
    Sparse(BinnedColumns),
    /// One cell per `(row, feature)`, column-major.
    Dense(DenseBinnedColumns),
}

impl ColumnStore {
    /// Whether the dense layout was selected.
    pub fn is_dense(&self) -> bool {
        matches!(self, ColumnStore::Dense(_))
    }

    /// Number of instances.
    pub fn n_rows(&self) -> usize {
        match self {
            ColumnStore::Sparse(c) => c.n_rows(),
            ColumnStore::Dense(d) => d.n_rows(),
        }
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        match self {
            ColumnStore::Sparse(c) => c.n_features(),
            ColumnStore::Dense(d) => d.n_features(),
        }
    }

    /// Number of present values.
    pub fn nnz(&self) -> usize {
        match self {
            ColumnStore::Sparse(c) => c.nnz(),
            ColumnStore::Dense(d) => d.nnz(),
        }
    }

    /// Bin of `(row, feature)`, `None` when missing. O(log nnz_col) sparse,
    /// O(1) dense.
    #[inline]
    pub fn get(&self, row: usize, feature: FeatureId) -> Option<BinId> {
        match self {
            ColumnStore::Sparse(c) => c.get(row, feature),
            ColumnStore::Dense(d) => d.get(row, feature),
        }
    }

    /// Present-value count of one column.
    pub fn col_nnz(&self, col: usize) -> usize {
        match self {
            ColumnStore::Sparse(c) => c.col_range(col).len(),
            ColumnStore::Dense(d) => {
                let mut n = 0;
                d.for_each_in_col(col, |_, _| n += 1);
                n
            }
        }
    }

    /// Present entries of one column in ascending instance order — the
    /// single scan order both layouts share.
    pub fn for_each_in_col(&self, col: usize, f: impl FnMut(crate::InstanceId, BinId)) {
        match self {
            ColumnStore::Sparse(c) => c.for_each_in_col(col, f),
            ColumnStore::Dense(d) => d.for_each_in_col(col, f),
        }
    }

    /// Bytes of heap storage used (exact, for memory accounting).
    pub fn heap_bytes(&self) -> usize {
        match self {
            ColumnStore::Sparse(c) => c.heap_bytes(),
            ColumnStore::Dense(d) => d.heap_bytes(),
        }
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

    #[test]
    fn width_selection_follows_bin_count() {
        assert_eq!(BinWidth::for_bins(2), BinWidth::U8);
        assert_eq!(BinWidth::for_bins(255), BinWidth::U8);
        assert_eq!(BinWidth::for_bins(256), BinWidth::U16);
        assert_eq!(BinWidth::U8.bytes(), 1);
        assert_eq!(BinWidth::U16.bytes(), 2);
    }

    #[test]
    fn sparse_roundtrip_is_exact() {
        let rows = sample();
        for width in [BinWidth::U8, BinWidth::U16] {
            let dense = DenseBinnedRows::from_sparse_with_width(&rows, 6, width);
            assert_eq!(dense.nnz(), rows.nnz());
            assert_eq!(dense.to_sparse(), rows, "{width:?}");
        }
    }

    #[test]
    fn get_matches_sparse_everywhere() {
        let rows = sample();
        let dense = DenseBinnedRows::from_sparse(&rows, 6);
        for i in 0..rows.n_rows() {
            for j in 0..rows.n_features() as FeatureId {
                assert_eq!(dense.get(i, j), rows.get(i, j), "cell ({i}, {j})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sentinel collision")]
    fn u8_pack_rejects_wide_bins() {
        DenseBinnedRows::from_sparse_with_width(&sample(), 300, BinWidth::U8);
    }

    #[test]
    fn select_cols_and_transpose_keep_every_cell() {
        let rows = sample();
        let dense = DenseBinnedRows::from_sparse(&rows, 6);
        assert_eq!(dense.select_cols(&[3, 0]).to_sparse(), rows.select_cols(&[3, 0]));
        let cols = dense.to_columns();
        assert_eq!(cols.nnz(), dense.nnz());
        for i in 0..rows.n_rows() {
            for j in 0..rows.n_features() as FeatureId {
                assert_eq!(cols.get(i, j), dense.get(i, j), "cell ({i}, {j})");
            }
        }
    }

    #[test]
    fn column_scan_order_is_instance_ascending() {
        let cols = DenseBinnedRows::from_sparse(&sample(), 6).to_columns();
        let mut seen: Vec<(u32, BinId)> = Vec::new();
        cols.for_each_in_col(0, |i, b| seen.push((i, b)));
        assert_eq!(seen, vec![(0, 3), (3, 0)]);
        assert_eq!(cols.get(3, 3), Some(5));
        assert_eq!(cols.get(2, 0), None);
    }

    #[test]
    fn auto_rule_picks_by_density() {
        // sample(): 6 values over 16 cells = 0.375 density.
        assert!(dense_at_density(6, 4, 4));
        assert!(dense_at_density(4, 4, 4), "the threshold itself is dense");
        assert!(!dense_at_density(3, 4, 4));
        // Degenerate empty shapes stay sparse, as do overflowing ones.
        assert!(!dense_at_density(0, 0, 0));
        assert!(!dense_at_density(0, 5, 0));
        assert!(!dense_at_density(usize::MAX, usize::MAX, 2));
        assert_eq!(BinnedStore::dense(sample(), 6).label(), "dense-u8");
        assert_eq!(BinnedStore::sparse(sample()).label(), "sparse");
    }

    #[test]
    fn store_parity_between_layouts() {
        let rows = sample();
        let sparse = BinnedStore::sparse(rows.clone());
        let dense = BinnedStore::dense(rows.clone(), 6);
        assert_eq!(sparse.n_rows(), dense.n_rows());
        assert_eq!(sparse.nnz(), dense.nnz());
        for i in 0..rows.n_rows() {
            for j in 0..rows.n_features() as FeatureId {
                assert_eq!(sparse.get(i, j), dense.get(i, j));
            }
        }
        let cols = [3, 0];
        let (sparse_cut, dense_cut) = (sparse.select_cols(&cols), dense.select_cols(&cols));
        for i in 0..rows.n_rows() {
            for j in 0..cols.len() as FeatureId {
                assert_eq!(sparse_cut.get(i, j), dense_cut.get(i, j));
            }
        }
    }

    #[test]
    fn dense_heap_bytes_beat_sparse_on_dense_data() {
        // A fully dense 32×16 matrix: sparse pays a 2-byte key a value + row
        // pointers, dense pays 1 B/cell.
        let mut b = BinnedRowsBuilder::new(16, 7);
        for i in 0..32 {
            let entries: Vec<(FeatureId, BinId)> =
                (0..16).map(|j| (j as FeatureId, ((i + j) % 7) as BinId)).collect();
            b.push_row(&entries).unwrap();
        }
        let rows = b.build();
        let sparse_bytes = rows.heap_bytes();
        let dense = DenseBinnedRows::from_sparse(&rows, 7);
        assert_eq!(dense.heap_bytes(), 32 * 16);
        assert!(
            dense.heap_bytes() * 2 <= sparse_bytes,
            "dense {} should be ≤ half of sparse {}",
            dense.heap_bytes(),
            sparse_bytes
        );
    }

    #[test]
    fn column_store_get_matches_row_store() {
        let store = BinnedStore::dense(sample(), 6);
        let cols = store.to_columns();
        assert_eq!(cols.col_nnz(1), 2);
        for i in 0..store.n_rows() {
            for j in 0..store.n_features() as FeatureId {
                assert_eq!(cols.get(i, j), store.get(i, j));
            }
        }
        let sparse_cols = BinnedStore::sparse(sample()).to_columns();
        for i in 0..store.n_rows() {
            for j in 0..store.n_features() as FeatureId {
                assert_eq!(sparse_cols.get(i, j), store.get(i, j));
            }
        }
    }
}
