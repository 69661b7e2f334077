//! Property test: every histogram fill kernel produces byte-identical
//! `NodeHistogram`s — sparse pair walk, dense scalar scan, and dense SIMD
//! lane-group scan, over both cell widths (`u8`/`u16`), single-output and
//! multiclass gradients, arbitrary missing densities, and row chunks whose
//! lengths are not multiples of the lane width. Bit-identity here is what
//! lets `--storage` and `--kernel` stay pure perf knobs: the ensembles an
//! experiment trains cannot depend on them.

use gbdt_core::histogram::NodeHistogram;
use gbdt_core::kernels::{fill_dense_rows, fill_sparse_rows};
use gbdt_core::{GradBuffer, Kernel};
use gbdt_data::binned::BinnedRowsBuilder;
use gbdt_data::dense_binned::{BinWidth, DenseBinnedRows};
use gbdt_data::BinnedRows;
use proptest::prelude::*;

/// Arbitrary binned rows: up to 41 rows (not a multiple of either lane
/// width) over `d` features with per-cell presence drawn independently, so
/// densities range from fully missing to fully dense.
fn arb_binned(d: usize, q: u16) -> impl Strategy<Value = BinnedRows> {
    prop::collection::vec(prop::collection::vec(prop::option::of(0..q), d), 1..41)
    .prop_map(move |rows| {
        let mut b = BinnedRowsBuilder::new(d, usize::from(q));
        for row in &rows {
            let entries: Vec<(u32, u16)> = row
                .iter()
                .enumerate()
                .filter_map(|(j, bin)| bin.map(|v| (j as u32, v)))
                .collect();
            b.push_row(&entries).unwrap();
        }
        b.build()
    })
}

fn grads(n: usize, c: usize) -> GradBuffer {
    let mut g = GradBuffer::new(n, c);
    for i in 0..n {
        for k in 0..c {
            g.set(i, k, (i as f64 + 1.0) * 0.731 - k as f64 * 0.17, (i as f64) * 0.413 + 1.0);
        }
    }
    g
}

/// Fills one histogram per kernel/layout and asserts exact byte equality.
fn assert_all_kernels_agree(rows: &BinnedRows, q: usize, c: usize, chunk: &[u32]) {
    let d = rows.n_features();
    let g = grads(rows.n_rows(), c);
    let mut reference = NodeHistogram::new(d, q, c);
    fill_sparse_rows(&mut reference, chunk, rows, &g);
    let ref_bytes: Vec<u8> =
        reference.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
    for width in [BinWidth::U8, BinWidth::U16] {
        let dense = DenseBinnedRows::from_sparse_with_width(rows, q, width);
        for kernel in Kernel::ALL {
            let mut hist = NodeHistogram::new(d, q, c);
            fill_dense_rows(&mut hist, chunk, &dense, &g, kernel);
            let bytes: Vec<u8> =
                hist.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(
                bytes,
                ref_bytes,
                "dense {width:?}/{} disagrees with sparse (d={d}, c={c}, q={q})",
                kernel.label()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// d = 19: not a multiple of 16 (u8 lanes) or 8 (u16 lanes), so every
    /// row exercises both the lane-group loop and the scalar remainder.
    #[test]
    fn kernels_agree_single_output(rows in arb_binned(19, 13)) {
        let chunk: Vec<u32> = (0..rows.n_rows() as u32).collect();
        assert_all_kernels_agree(&rows, 13, 1, &chunk);
    }

    #[test]
    fn kernels_agree_multiclass(rows in arb_binned(11, 7)) {
        let chunk: Vec<u32> = (0..rows.n_rows() as u32).collect();
        assert_all_kernels_agree(&rows, 7, 5, &chunk);
    }

    /// Partial chunks (a node's instance subset) hit the same kernels with
    /// non-contiguous row ids.
    #[test]
    fn kernels_agree_on_row_subsets(rows in arb_binned(19, 13), stride in 2usize..5) {
        // Row 0 is always included, so the chunk is never empty.
        let chunk: Vec<u32> = (0..rows.n_rows() as u32).step_by(stride).collect();
        assert_all_kernels_agree(&rows, 13, 1, &chunk);
    }
}

/// Lane-exact row widths (no scalar remainder) and widths below one lane
/// (no group loop) — the two structural extremes the proptest's fixed
/// d = 19 cannot reach.
#[test]
fn kernels_agree_at_lane_boundaries() {
    for d in [1, 7, 8, 15, 16, 32] {
        let mut b = BinnedRowsBuilder::new(d, 9);
        for i in 0..25usize {
            let entries: Vec<(u32, u16)> = (0..d)
                .filter(|j| (i + j) % 4 != 0)
                .map(|j| (j as u32, ((i * 5 + j * 3) % 9) as u16))
                .collect();
            b.push_row(&entries).unwrap();
        }
        let rows = b.build();
        let chunk: Vec<u32> = (0..rows.n_rows() as u32).collect();
        for c in [1, 5] {
            assert_all_kernels_agree(&rows, 9, c, &chunk);
        }
    }
}
