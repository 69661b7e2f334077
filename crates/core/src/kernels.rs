//! Storage-specialized histogram-build kernels.
//!
//! Histogram construction is the dominant computation cost of every
//! quadrant (§3.1.1), and its inner loop shape depends on the binned
//! storage layout. The sparse kernel walks a row's 〈feature, bin〉 pairs —
//! one `u32` feature-id load plus a single pre-sliced slot index per
//! value. The dense kernels scan the packed cell row directly: the feature
//! id **is** the loop position, so the per-feature histogram region
//! advances by a constant stride with no id loads and no per-feature
//! offset multiplies.
//!
//! On top of the scalar dense scan sits the SIMD fast path ([`Kernel`]
//! knob, default on): cells are loaded in fixed-width lane groups (u8×16 /
//! u16×8, see [`simd`]), one vector compare classifies each lane as
//! present (`bin < n_bins`), missing (the all-ones sentinel), or corrupt
//! (loud panic), and present lanes accumulate through unchecked indices
//! whose bounds are proven by that same compare. Lanes are *features*, not
//! instances: lane `j` of a group targets feature region `f + j`, regions
//! are disjoint, and lanes are drained in ascending order, so there are no
//! bin collisions inside a group and the f64 accumulation order is exactly
//! the scalar kernel's. Multiclass rows pre-interleave the instance's
//! `(g, h)` pairs once per row and add them as f64×4 lane groups per
//! present cell. Every kernel therefore visits values in ascending feature
//! order and skips missing cells — exactly the sparse pair order — so a
//! histogram built from any (layout × kernel) combination is
//! **bit-identical**, and all of them slot into
//! [`crate::parallel::build_histogram_chunked`] as chunk fills without
//! touching the PR-1 determinism invariant.

use crate::config::Kernel;
use crate::gradients::GradBuffer;
use crate::histogram::NodeHistogram;
use gbdt_data::dense_binned::{BinPack, DenseBinnedRows, MISSING_U16, MISSING_U8};
use gbdt_data::{BinId, BinnedRows, BinnedStore};

#[allow(unsafe_code)] // the workspace's one audited `unsafe` module; see its docs
pub mod simd;

/// A packed bin cell: `u8` or `u16` with the all-ones missing sentinel.
pub trait Cell: Copy {
    /// Whether this cell is the missing sentinel.
    fn is_missing(self) -> bool;
    /// The bin index (only meaningful when present).
    fn bin(self) -> usize;
}

impl Cell for u8 {
    #[inline(always)]
    fn is_missing(self) -> bool {
        self == MISSING_U8
    }

    #[inline(always)]
    fn bin(self) -> usize {
        self as usize
    }
}

impl Cell for u16 {
    #[inline(always)]
    fn is_missing(self) -> bool {
        self == MISSING_U16
    }

    #[inline(always)]
    fn bin(self) -> usize {
        self as usize
    }
}

/// [`Cell`] widths that also load as a fixed-width SIMD lane group —
/// 16 cells for `u8`, 8 for `u16`, one 128-bit vector either way.
pub trait CellLanes: Cell {
    /// Cells per lane group.
    const LANES: usize;
    /// The lane-group vector type from [`simd`].
    type Group: Copy;
    /// Loads the first `Self::LANES` cells of `cells` (panics if shorter).
    fn load_group(cells: &[Self]) -> Self::Group;
    /// Bitmask of lanes holding a valid bin: `cell < limit`.
    fn present_mask(group: Self::Group, limit: usize) -> u32;
    /// Bitmask of lanes holding the missing sentinel.
    fn missing_mask(group: Self::Group) -> u32;
    /// Lane `j` widened to a bin index.
    fn group_bin(group: Self::Group, j: usize) -> usize;
}

impl CellLanes for u8 {
    const LANES: usize = simd::U8x16::LANES;
    type Group = simd::U8x16;

    #[inline(always)]
    fn load_group(cells: &[u8]) -> simd::U8x16 {
        simd::U8x16::load(cells)
    }

    #[inline(always)]
    fn present_mask(group: simd::U8x16, limit: usize) -> u32 {
        group.lt_mask(limit.min(MISSING_U8 as usize) as u8)
    }

    #[inline(always)]
    fn missing_mask(group: simd::U8x16) -> u32 {
        group.eq_mask(MISSING_U8)
    }

    #[inline(always)]
    fn group_bin(group: simd::U8x16, j: usize) -> usize {
        group.lane(j)
    }
}

impl CellLanes for u16 {
    const LANES: usize = simd::U16x8::LANES;
    type Group = simd::U16x8;

    #[inline(always)]
    fn load_group(cells: &[u16]) -> simd::U16x8 {
        simd::U16x8::load(cells)
    }

    #[inline(always)]
    fn present_mask(group: simd::U16x8, limit: usize) -> u32 {
        group.lt_mask(limit.min(MISSING_U16 as usize) as u16)
    }

    #[inline(always)]
    fn missing_mask(group: simd::U16x8) -> u32 {
        group.eq_mask(MISSING_U16)
    }

    #[inline(always)]
    fn group_bin(group: simd::U16x8, j: usize) -> usize {
        group.lane(j)
    }
}

/// All-lanes-set mask for one group of `T`.
#[inline(always)]
fn lane_full<T: CellLanes>() -> u32 {
    (1u32 << T::LANES) - 1
}

/// A lane group held a cell that is neither a valid bin nor the missing
/// sentinel — the pack is corrupt (bins are validated at pack time, so
/// this only fires on hand-built or deserialized garbage). Kept out of
/// line so the hot loop carries one predictable branch.
#[cold]
#[inline(never)]
fn corrupt_cell_panic(at: usize, limit: usize) -> ! {
    panic!("corrupt dense pack: non-sentinel cell with bin >= {limit} in lane group at {at}");
}

/// Accumulates one chunk of instances into `hist` from whichever layout
/// `store` holds. This is the chunk-fill body every row-scan trainer hands
/// to [`crate::parallel::build_histogram_chunked`]. `kernel` picks the
/// dense fill implementation (SIMD lane groups vs the scalar reference);
/// both produce bit-identical histograms, and the sparse layout has a
/// single (scalar) kernel.
#[inline]
pub fn fill_rows_chunk(
    hist: &mut NodeHistogram,
    chunk: &[u32],
    store: &BinnedStore,
    grads: &GradBuffer,
    kernel: Kernel,
) {
    match store {
        BinnedStore::Sparse(rows) => fill_sparse_rows(hist, chunk, rows, grads),
        BinnedStore::Dense(dense) => fill_dense_rows(hist, chunk, dense, grads, kernel),
    }
}

/// The sparse row kernel: walk each row's 〈feature, bin〉 pairs.
///
/// The `C = 1` fast path hoists the `(g, h)` loads out of the pair loop
/// and indexes each 2-slot `(g, h)` pair with a single bounds-checked
/// range; multiclass pre-slices the slot once and walks its `(g, h)`
/// interleave with `chunks_exact(2)` — same accumulation order as
/// [`NodeHistogram::add_instance`], fewer per-value bounds checks.
pub fn fill_sparse_rows(
    hist: &mut NodeHistogram,
    chunk: &[u32],
    rows: &BinnedRows,
    grads: &GradBuffer,
) {
    let c = hist.n_outputs();
    let stride = hist.feature_stride();
    let data = hist.as_mut_slice();
    if c == 1 {
        for &i in chunk {
            let (g, h) = grads.pair1(i as usize);
            let (feats, bins) = rows.row(i as usize);
            for (&f, &b) in feats.iter().zip(bins) {
                let pair = &mut data[f as usize * stride + b as usize * 2..][..2];
                pair[0] += g;
                pair[1] += h;
            }
        }
    } else {
        for &i in chunk {
            let (g, h) = grads.instance(i as usize);
            let (feats, bins) = rows.row(i as usize);
            for (&f, &b) in feats.iter().zip(bins) {
                let slot = &mut data[f as usize * stride + b as usize * c * 2..][..c * 2];
                for (pair, (&gv, &hv)) in slot.chunks_exact_mut(2).zip(g.iter().zip(h)) {
                    pair[0] += gv;
                    pair[1] += hv;
                }
            }
        }
    }
}

/// The dense row kernel, dispatching on cell width, class count, and
/// [`Kernel`]. The SIMD arms upgrade the shape checks to hard asserts:
/// the unchecked accumulates in [`simd`] derive their bounds from them.
pub fn fill_dense_rows(
    hist: &mut NodeHistogram,
    chunk: &[u32],
    dense: &DenseBinnedRows,
    grads: &GradBuffer,
    kernel: Kernel,
) {
    match kernel {
        Kernel::Scalar => {
            debug_assert_eq!(hist.n_features(), dense.n_features(), "kernel shape mismatch");
            debug_assert!(dense.n_bins() <= hist.n_bins(), "cells packed for a wider histogram");
            match (dense.pack(), hist.n_outputs()) {
                (BinPack::U8(cells), 1) => dense_rows_c1(hist, chunk, cells, grads),
                (BinPack::U16(cells), 1) => dense_rows_c1(hist, chunk, cells, grads),
                (BinPack::U8(cells), _) => dense_rows_multi(hist, chunk, cells, grads),
                (BinPack::U16(cells), _) => dense_rows_multi(hist, chunk, cells, grads),
            }
        }
        Kernel::Simd => {
            assert_eq!(hist.n_features(), dense.n_features(), "kernel shape mismatch");
            assert!(dense.n_bins() <= hist.n_bins(), "cells packed for a wider histogram");
            let limit = dense.n_bins();
            match (dense.pack(), hist.n_outputs()) {
                (BinPack::U8(cells), 1) => dense_rows_c1_simd(hist, chunk, cells, limit, grads),
                (BinPack::U16(cells), 1) => dense_rows_c1_simd(hist, chunk, cells, limit, grads),
                (BinPack::U8(cells), _) => dense_rows_multi_simd(hist, chunk, cells, limit, grads),
                (BinPack::U16(cells), _) => {
                    dense_rows_multi_simd(hist, chunk, cells, limit, grads)
                }
            }
        }
    }
}

/// Dense scan, `C = 1`: the histogram region of feature `f` is the `f`-th
/// `2·q` window, so the scan zips the cell row against constant-stride
/// windows and adds the interleaved `(g, h)` pair directly.
fn dense_rows_c1<T: Cell>(
    hist: &mut NodeHistogram,
    chunk: &[u32],
    cells: &[T],
    grads: &GradBuffer,
) {
    let d = hist.n_features();
    let stride = hist.feature_stride();
    let data = hist.as_mut_slice();
    for &i in chunk {
        let (g, h) = grads.pair1(i as usize);
        let row = &cells[i as usize * d..i as usize * d + d];
        for (feat_region, &cell) in data.chunks_exact_mut(stride).zip(row) {
            if cell.is_missing() {
                continue;
            }
            let k = cell.bin() * 2;
            feat_region[k] += g;
            feat_region[k + 1] += h;
        }
    }
}

/// Dense scan, multiclass: same constant-stride walk, all `C` pairs per
/// present cell.
fn dense_rows_multi<T: Cell>(
    hist: &mut NodeHistogram,
    chunk: &[u32],
    cells: &[T],
    grads: &GradBuffer,
) {
    let d = hist.n_features();
    let c = hist.n_outputs();
    let stride = hist.feature_stride();
    let data = hist.as_mut_slice();
    for &i in chunk {
        let (g, h) = grads.instance(i as usize);
        let row = &cells[i as usize * d..i as usize * d + d];
        for (feat_region, &cell) in data.chunks_exact_mut(stride).zip(row) {
            if cell.is_missing() {
                continue;
            }
            let slot = &mut feat_region[cell.bin() * c * 2..(cell.bin() + 1) * c * 2];
            for k in 0..c {
                slot[k * 2] += g[k];
                slot[k * 2 + 1] += h[k];
            }
        }
    }
}

/// Dense SIMD scan, `C = 1`: features in lane groups, one vector
/// classification per group, unchecked `(g, h)` accumulates for present
/// lanes in ascending feature order, scalar tail for `D mod LANES`.
///
/// Rows are deliberately processed one at a time: within a row every
/// accumulate targets a *different* feature region, so the stores never
/// collide with in-flight loads. (An earlier draft interleaved two rows
/// for extra ILP; their streams hit the same feature regions a few
/// instructions apart and memory-disambiguation stalls made the fill ~3×
/// slower — do not reintroduce that shape without measuring.) Extracting
/// bins from GPR `u64` words instead of the vector group was also tried
/// and abandoned: derived from the group it de-vectorizes the mask
/// pipeline (~40% slower), and as an independent re-load of the same
/// cells it measured neutral once the stride was monomorphized.
///
/// Bounds for [`simd::add_pair`]: a present lane has `bin < limit`
/// (vector-compared), `limit ≤ hist.n_bins` and `C == 1` give
/// `bin·2 + 1 < stride`, and `f < D` gives
/// `f·stride + bin·2 + 1 < D·stride = data.len()`.
fn dense_rows_c1_simd<T: CellLanes>(
    hist: &mut NodeHistogram,
    chunk: &[u32],
    cells: &[T],
    limit: usize,
    grads: &GradBuffer,
) {
    // Monomorphize the hot shape: stride 40 is `n_bins = 20 × C = 1 × 2`
    // — the default bin budget, the shape every paper experiment and
    // benchmark workload runs. With the stride a compile-time constant the
    // per-lane feature advance folds into constant address displacements
    // (no `base += stride` chain, no per-lane `lea`), worth ~15% on a
    // 6000×60 dense u8 fill. Every other stride takes the runtime-stride body.
    match hist.feature_stride() {
        40 => c1_simd_body::<T, 40>(hist, chunk, cells, limit, grads),
        _ => c1_simd_body::<T, 0>(hist, chunk, cells, limit, grads),
    }
}

/// Body of [`dense_rows_c1_simd`], stride-monomorphized: `S` is the
/// compile-time feature stride, or 0 to read it from `hist` at runtime.
#[inline(always)]
fn c1_simd_body<T: CellLanes, const S: usize>(
    hist: &mut NodeHistogram,
    chunk: &[u32],
    cells: &[T],
    limit: usize,
    grads: &GradBuffer,
) {
    let d = hist.n_features();
    let stride = if S != 0 { S } else { hist.feature_stride() };
    debug_assert_eq!(stride, hist.feature_stride());
    let full = lane_full::<T>();
    let data = hist.as_mut_slice();
    for &i in chunk {
        let (g, h) = grads.pair1(i as usize);
        let row = &cells[i as usize * d..][..d];
        let mut f = 0;
        while f + T::LANES <= d {
            let group = T::load_group(&row[f..]);
            let present = T::present_mask(group, limit);
            let mut base = f * stride;
            if present == full {
                // Fully present group (the common case on dense data): no
                // per-lane branch, and no missing/corrupt classification —
                // all `LANES` bins just vector-checked in range, so neither
                // sentinel nor garbage can be present.
                for j in 0..T::LANES {
                    simd::add_pair(data, base + T::group_bin(group, j) * 2, g, h);
                    base += stride;
                }
            } else {
                if present | T::missing_mask(group) != full {
                    corrupt_cell_panic(f, limit);
                }
                if present != 0 {
                    for j in 0..T::LANES {
                        if present & (1 << j) != 0 {
                            simd::add_pair(data, base + T::group_bin(group, j) * 2, g, h);
                        }
                        base += stride;
                    }
                }
            }
            f += T::LANES;
        }
        c1_simd_tail(data, &row[f..], f * stride, stride, limit, g, h);
    }
}

/// Scalar tail of the C = 1 SIMD scan: the `D mod LANES` cells past the
/// last full lane group, bounds upgraded to a hard assert per present
/// cell. (An overlapped-group tail — reloading the last `LANES` cells and
/// masking off the already-drained lanes — measured ~60% *slower* than
/// this plain walk on a 6000×60 dense u8 fill; the extra live vector wrecks
/// the main loop's register allocation. Don't revisit without measuring.)
#[inline(always)]
fn c1_simd_tail<T: Cell>(
    data: &mut [f64],
    tail: &[T],
    mut base: usize,
    stride: usize,
    limit: usize,
    g: f64,
    h: f64,
) {
    for &cell in tail {
        if !cell.is_missing() {
            let b = cell.bin();
            assert!(b < limit, "corrupt dense pack: bin {b} >= {limit}");
            simd::add_pair(data, base + b * 2, g, h);
        }
        base += stride;
    }
}

/// Dense SIMD scan, multiclass: the instance's `(g, h)` pairs are
/// interleaved into a scratch span once per row, then added per present
/// cell as f64×4 lane groups ([`simd::add_span`] — element-wise, so
/// bit-identical to the scalar per-class loop).
fn dense_rows_multi_simd<T: CellLanes>(
    hist: &mut NodeHistogram,
    chunk: &[u32],
    cells: &[T],
    limit: usize,
    grads: &GradBuffer,
) {
    let d = hist.n_features();
    let c = hist.n_outputs();
    let stride = hist.feature_stride();
    let slot = c * 2;
    let full = lane_full::<T>();
    let data = hist.as_mut_slice();
    let mut gh = vec![0.0f64; slot];
    for &i in chunk {
        let (g, h) = grads.instance(i as usize);
        for k in 0..c {
            gh[k * 2] = g[k];
            gh[k * 2 + 1] = h[k];
        }
        let row = &cells[i as usize * d..][..d];
        let mut f = 0;
        while f + T::LANES <= d {
            let group = T::load_group(&row[f..]);
            let present = T::present_mask(group, limit);
            if present | T::missing_mask(group) != full {
                corrupt_cell_panic(f, limit);
            }
            let mut base = f * stride;
            for j in 0..T::LANES {
                if present & (1 << j) != 0 {
                    simd::add_span(data, base + T::group_bin(group, j) * slot, &gh);
                }
                base += stride;
            }
            f += T::LANES;
        }
        let mut base = f * stride;
        for &cell in &row[f..] {
            if !cell.is_missing() {
                let b = cell.bin();
                assert!(b < limit, "corrupt dense pack: bin {b} >= {limit}");
                simd::add_span(data, base + b * slot, &gh);
            }
            base += stride;
        }
    }
}

/// Accumulates every present value of one column into that feature's
/// histogram region (layout `[bin][class][g,h]`), instances ascending —
/// the column-scan kernel the per-feature-parallel builders use. For the
/// dense layout the inner loop is a straight cell scan with no instance-id
/// loads; `C = 1` drops the per-class loop, and the SIMD kernel
/// classifies instances in lane groups. Bin collisions inside a group
/// (adjacent instances hitting the same bin) accumulate serially in lane
/// order — ascending instance order, exactly the scalar kernel's.
pub fn fill_column_slice(
    slice: &mut [f64],
    n_outputs: usize,
    store: &gbdt_data::ColumnStore,
    col: usize,
    grads: &GradBuffer,
    kernel: Kernel,
) {
    use gbdt_data::ColumnStore;
    match (store, n_outputs) {
        (ColumnStore::Dense(d), 1) => {
            let cells_range = col * d.n_rows()..(col + 1) * d.n_rows();
            match (d.pack(), kernel) {
                (BinPack::U8(cells), Kernel::Simd) => {
                    dense_col_c1_simd(slice, &cells[cells_range], d.n_bins(), grads)
                }
                (BinPack::U16(cells), Kernel::Simd) => {
                    dense_col_c1_simd(slice, &cells[cells_range], d.n_bins(), grads)
                }
                (BinPack::U8(cells), Kernel::Scalar) => {
                    dense_col_c1(slice, &cells[cells_range], grads)
                }
                (BinPack::U16(cells), Kernel::Scalar) => {
                    dense_col_c1(slice, &cells[cells_range], grads)
                }
            }
        }
        _ => store.for_each_in_col(col, |i, b| {
            let (g, h) = grads.instance(i as usize);
            crate::histogram::add_instance_to_feature_slice(slice, n_outputs, b, g, h);
        }),
    }
}

fn dense_col_c1<T: Cell>(slice: &mut [f64], cells: &[T], grads: &GradBuffer) {
    for (i, &cell) in cells.iter().enumerate() {
        if cell.is_missing() {
            continue;
        }
        let (g, h) = grads.instance(i);
        let k = cell.bin() * 2;
        slice[k] += g[0];
        slice[k + 1] += h[0];
    }
}

/// Column SIMD scan, `C = 1`: lanes are consecutive *instances* of one
/// feature. Bounds for [`simd::add_pair`]: `bin < limit` per the group
/// classification and the entry assert gives `bin·2 + 1 < limit·2 ≤
/// slice.len()`.
fn dense_col_c1_simd<T: CellLanes>(
    slice: &mut [f64],
    cells: &[T],
    limit: usize,
    grads: &GradBuffer,
) {
    assert!(limit * 2 <= slice.len(), "column slice narrower than the pack's bin range");
    let full = lane_full::<T>();
    let n = cells.len();
    let mut i = 0;
    while i + T::LANES <= n {
        let group = T::load_group(&cells[i..]);
        let present = T::present_mask(group, limit);
        if present | T::missing_mask(group) != full {
            corrupt_cell_panic(i, limit);
        }
        for j in 0..T::LANES {
            if present & (1 << j) != 0 {
                let (g, h) = grads.instance(i + j);
                simd::add_pair(slice, T::group_bin(group, j) * 2, g[0], h[0]);
            }
        }
        i += T::LANES;
    }
    for (j, &cell) in cells[i..].iter().enumerate() {
        if !cell.is_missing() {
            let b = cell.bin();
            assert!(b < limit, "corrupt dense pack: bin {b} >= {limit}");
            let (g, h) = grads.instance(i + j);
            simd::add_pair(slice, b * 2, g[0], h[0]);
        }
    }
}

/// Bin lookup shared by split-placement paths: `None` routes through the
/// learned default direction. O(1) on the dense layout.
#[inline]
pub fn lookup(store: &BinnedStore, row: usize, feature: u32) -> Option<BinId> {
    store.get(row, feature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_data::binned::BinnedRowsBuilder;
    use gbdt_data::dense_binned::BinWidth;
    use gbdt_data::FeatureId;

    /// A deterministic ragged matrix: ~2/3 of cells present.
    fn rows(n: usize, d: usize, q: usize) -> BinnedRows {
        let mut b = BinnedRowsBuilder::new(d);
        for i in 0..n {
            let entries: Vec<(FeatureId, u16)> = (0..d)
                .filter(|j| (i + j) % 3 != 0)
                .map(|j| (j as FeatureId, ((i * 7 + j * 13) % q) as u16))
                .collect();
            b.push_row(&entries).unwrap();
        }
        b.build()
    }

    /// Fully dense rows: every cell present (exercises the no-branch
    /// full-group SIMD path).
    fn full_rows(n: usize, d: usize, q: usize) -> BinnedRows {
        let mut b = BinnedRowsBuilder::new(d);
        for i in 0..n {
            let entries: Vec<(FeatureId, u16)> =
                (0..d).map(|j| (j as FeatureId, ((i * 11 + j * 5) % q) as u16)).collect();
            b.push_row(&entries).unwrap();
        }
        b.build()
    }

    fn grads(n: usize, c: usize) -> GradBuffer {
        let mut g = GradBuffer::new(n, c);
        for i in 0..n {
            for k in 0..c {
                g.set(i, k, (i as f64 + k as f64) * 0.3517, (i as f64 - k as f64) * 0.636);
            }
        }
        g
    }

    #[test]
    fn dense_kernels_match_sparse_bit_for_bit() {
        // d = 37 exercises both whole lane groups (u8×16 ×2, u16×8 ×4)
        // and a non-lane-multiple tail.
        let (n, q) = (257, 6);
        for d in [11usize, 37] {
            for c in [1usize, 3] {
                for build in [rows, full_rows] {
                    let sparse = build(n, d, q);
                    let g = grads(n, c);
                    let chunk: Vec<u32> = (0..n as u32).collect();
                    let mut expect = NodeHistogram::new(d, q, c);
                    fill_sparse_rows(&mut expect, &chunk, &sparse, &g);
                    for width in [BinWidth::U8, BinWidth::U16] {
                        for kernel in Kernel::ALL {
                            let dense = DenseBinnedRows::from_sparse_with_width(&sparse, q, width);
                            let mut got = NodeHistogram::new(d, q, c);
                            fill_dense_rows(&mut got, &chunk, &dense, &g, kernel);
                            assert_eq!(
                                got.as_slice(),
                                expect.as_slice(),
                                "D={d} C={c} {width:?} {kernel:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn store_dispatch_matches_direct_kernels() {
        let (n, d, q) = (64, 7, 5);
        let sparse = rows(n, d, q);
        let g = grads(n, 1);
        let chunk: Vec<u32> = (0..n as u32).collect();
        let mut via_sparse = NodeHistogram::new(d, q, 1);
        fill_rows_chunk(
            &mut via_sparse,
            &chunk,
            &BinnedStore::sparse(sparse.clone()),
            &g,
            Kernel::Simd,
        );
        for kernel in Kernel::ALL {
            let mut via_dense = NodeHistogram::new(d, q, 1);
            fill_rows_chunk(&mut via_dense, &chunk, &BinnedStore::dense(sparse.clone(), q), &g, kernel);
            assert_eq!(via_sparse.as_slice(), via_dense.as_slice(), "{kernel:?}");
        }
    }

    #[test]
    fn column_kernel_matches_row_kernel() {
        let (n, d, q) = (97, 9, 8);
        for c in [1usize, 2] {
            let sparse = rows(n, d, q);
            let g = grads(n, c);
            let chunk: Vec<u32> = (0..n as u32).collect();
            let mut expect = NodeHistogram::new(d, q, c);
            fill_sparse_rows(&mut expect, &chunk, &sparse, &g);
            for store in [
                BinnedStore::sparse(sparse.clone()).to_columns(),
                BinnedStore::dense(sparse.clone(), q).to_columns(),
            ] {
                for kernel in Kernel::ALL {
                    let mut got = NodeHistogram::new(d, q, c);
                    let stride = got.feature_stride();
                    for (j, slice) in got.as_mut_slice().chunks_mut(stride).enumerate() {
                        fill_column_slice(slice, c, &store, j, &g, kernel);
                    }
                    assert_eq!(got.as_slice(), expect.as_slice(), "C={c} {kernel:?}");
                }
            }
        }
    }

    #[test]
    fn simd_handles_wide_histograms_in_narrow_packs() {
        // The pack may be narrower than the histogram (q < hist.n_bins):
        // the SIMD limit comes from the pack, bounds still hold.
        let (n, d, q) = (130, 21, 9);
        let sparse = rows(n, d, q);
        let g = grads(n, 1);
        let chunk: Vec<u32> = (0..n as u32).collect();
        let wide_bins = 16;
        let mut expect = NodeHistogram::new(d, wide_bins, 1);
        fill_sparse_rows(&mut expect, &chunk, &sparse, &g);
        let dense = DenseBinnedRows::from_sparse_with_width(&sparse, q, BinWidth::U8);
        let mut got = NodeHistogram::new(d, wide_bins, 1);
        fill_dense_rows(&mut got, &chunk, &dense, &g, Kernel::Simd);
        assert_eq!(got.as_slice(), expect.as_slice());
    }

    #[test]
    fn lookup_agrees_across_layouts() {
        let sparse = rows(20, 5, 4);
        let s = BinnedStore::sparse(sparse.clone());
        let d = BinnedStore::dense(sparse, 4);
        for i in 0..20 {
            for j in 0..5u32 {
                assert_eq!(lookup(&s, i, j), lookup(&d, i, j));
            }
        }
    }
}
