//! Property-based tests for the storage substrate: conversions between
//! row-store and column-store must be lossless, sharding must partition, and
//! wire encodings must round-trip for arbitrary inputs.

use gbdt_data::binned::BinnedRowsBuilder;
use gbdt_data::block::{Block, BlockedRows};
use gbdt_data::dense_binned::{BinWidth, DenseBinnedRows};
use gbdt_data::encoding;
use gbdt_data::sparse::CsrBuilder;
use gbdt_data::{
    BinId, BinnedRows, BinnedStore, CsrMatrix, Dataset, DenseMatrix, FeatureId, FeatureMatrix,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use serde::{Deserialize, Serialize};

/// Strategy: a sparse matrix as rows of sorted, distinct (feature, value).
fn arb_rows(max_rows: usize, n_cols: usize) -> impl Strategy<Value = Vec<Vec<(u32, f32)>>> {
    prop::collection::vec(
        prop::collection::btree_map(0..n_cols as u32, -100.0f32..100.0, 0..n_cols.min(12))
            .prop_map(|m| m.into_iter().collect::<Vec<_>>()),
        0..max_rows,
    )
}

/// Strategy: binned rows with bins < q.
fn arb_binned(max_rows: usize, n_cols: usize, q: u16) -> impl Strategy<Value = Vec<Vec<(u32, u16)>>> {
    prop::collection::vec(
        prop::collection::btree_map(0..n_cols as u32, 0..q, 0..n_cols.min(12))
            .prop_map(|m| m.into_iter().collect::<Vec<_>>()),
        0..max_rows,
    )
}

fn build_csr(rows: &[Vec<(u32, f32)>], n_cols: usize) -> gbdt_data::CsrMatrix {
    let mut b = CsrBuilder::new(n_cols);
    for row in rows {
        b.push_row(row).unwrap();
    }
    b.build()
}

/// Length of the array serialized under `field`.
fn serialized_len(v: &serde::Value, field: &str) -> usize {
    v.get(field).and_then(|a| a.as_array()).map_or(usize::MAX, Vec::len)
}

/// A window must be indistinguishable from `copy`, the matrix built afresh
/// from the same rows (what `slice_rows` returned before it aliased).
fn assert_window_is(window: &CsrMatrix, copy: &CsrMatrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(window, copy);
    prop_assert_eq!(window.n_rows(), copy.n_rows());
    prop_assert_eq!(window.nnz(), copy.nnz());
    prop_assert_eq!(window.heap_bytes(), copy.heap_bytes());
    prop_assert_eq!(window.to_csc(), copy.to_csc());
    prop_assert_eq!(format!("{window:?}"), format!("{copy:?}"));
    for i in 0..copy.n_rows() {
        prop_assert_eq!(window.row(i), copy.row(i));
    }
    prop_assert_eq!(window.iter_rows().collect::<Vec<_>>(), copy.iter_rows().collect::<Vec<_>>());
    Ok(())
}

fn build_binned(rows: &[Vec<(u32, u16)>], n_cols: usize) -> BinnedRows {
    let mut b = BinnedRowsBuilder::new(n_cols);
    for row in rows {
        b.push_row(row).unwrap();
    }
    b.build()
}

/// Whether every row of `cut` is rows `lo..` of `parent` in the same storage,
/// pointing into `parent`'s own buffer — kept variant, no cell copied.
fn aliases_rows_of(cut: &FeatureMatrix, parent: &FeatureMatrix, lo: usize) -> bool {
    match (cut, parent) {
        (FeatureMatrix::Sparse(c), FeatureMatrix::Sparse(p)) => (0..c.n_rows()).all(|i| {
            std::ptr::eq(c.row(i).0, p.row(lo + i).0) && std::ptr::eq(c.row(i).1, p.row(lo + i).1)
        }),
        (FeatureMatrix::Dense(c), FeatureMatrix::Dense(p)) => {
            (0..c.n_rows()).all(|i| std::ptr::eq(c.row(i), p.row(lo + i)))
        }
        _ => false,
    }
}

proptest! {
    #[test]
    fn csr_csc_roundtrip(rows in arb_rows(30, 8)) {
        let m = build_csr(&rows, 8);
        prop_assert_eq!(m.clone(), m.to_csc().to_csr());
    }

    #[test]
    fn csr_get_matches_source(rows in arb_rows(20, 6)) {
        let m = build_csr(&rows, 6);
        for (i, row) in rows.iter().enumerate() {
            for f in 0u32..6 {
                let expected = row.iter().find(|&&(g, _)| g == f).map(|&(_, v)| v);
                prop_assert_eq!(m.get(i, f), expected);
            }
        }
    }

    #[test]
    fn horizontal_shards_partition_rows(rows in arb_rows(30, 6), cut in 0usize..30) {
        let m = build_csr(&rows, 6);
        let cut = cut.min(m.n_rows());
        let a = m.slice_rows(0, cut);
        let b = m.slice_rows(cut, m.n_rows());
        prop_assert_eq!(a.n_rows() + b.n_rows(), m.n_rows());
        prop_assert_eq!(a.nnz() + b.nnz(), m.nnz());
        for i in 0..a.n_rows() {
            prop_assert_eq!(a.row(i), m.row(i));
        }
        for i in 0..b.n_rows() {
            prop_assert_eq!(b.row(i), m.row(cut + i));
        }
    }

    #[test]
    fn csr_window_equals_the_copy_it_replaces(
        rows in arb_rows(30, 6),
        a in 0usize..31,
        b in 0usize..31,
        c in 0usize..31,
        d in 0usize..31,
    ) {
        let m = build_csr(&rows, 6);
        let n = m.n_rows();
        let (lo, hi) = (a.min(b).min(n), a.max(b).min(n));
        let window = m.slice_rows(lo, hi);
        assert_window_is(&window, &build_csr(&rows[lo..hi], 6))?;

        // Aliasing: the window's rows are the parent's bytes, not a copy.
        for i in 0..window.n_rows() {
            prop_assert!(std::ptr::eq(window.row(i).0, m.row(lo + i).0));
            prop_assert!(std::ptr::eq(window.row(i).1, m.row(lo + i).1));
        }

        // A window of a window is the window of the composed range.
        let w = window.n_rows();
        let (lo2, hi2) = (c.min(d).min(w), c.max(d).min(w));
        let inner = window.slice_rows(lo2, hi2);
        assert_window_is(&inner, &build_csr(&rows[lo + lo2..lo + hi2], 6))?;
        prop_assert_eq!(&inner, &m.slice_rows(lo + lo2, lo + hi2));

        // Serde carries the window only, and reads back as an equal matrix.
        let v = window.to_value();
        prop_assert_eq!(serialized_len(&v, "row_ptr"), window.n_rows() + 1);
        prop_assert_eq!(serialized_len(&v, "col_idx"), window.nnz());
        prop_assert_eq!(serialized_len(&v, "values"), window.nnz());
        prop_assert_eq!(CsrMatrix::from_value(&v).unwrap(), window);
    }

    #[test]
    fn dense_window_equals_the_copy_it_replaces(
        cells in prop::collection::vec(prop::collection::vec(-3i8..4, 5), 0..20),
        a in 0usize..21,
        b in 0usize..21,
    ) {
        // Small integers: about one cell in seven is an exact zero.
        let rows: Vec<Vec<f32>> =
            cells.iter().map(|r| r.iter().map(|&v| f32::from(v)).collect()).collect();
        let m = DenseMatrix::from_rows(&rows).unwrap();
        // `from_rows` of no rows has no columns either.
        let (n, d) = (m.n_rows(), m.n_cols());
        let (lo, hi) = (a.min(b).min(n), a.max(b).min(n));
        let window = m.slice_rows(lo, hi);
        let copy = DenseMatrix::from_rows(&rows[lo..hi]).unwrap();
        if lo < hi {
            prop_assert_eq!(&window, &copy);
            prop_assert_eq!(format!("{window:?}"), format!("{copy:?}"));
        }
        prop_assert_eq!(window.n_rows(), hi - lo);
        prop_assert_eq!(window.heap_bytes(), (hi - lo) * d * 4);
        for i in 0..window.n_rows() {
            prop_assert_eq!(window.row(i), &rows[lo + i][..]);
            prop_assert!(std::ptr::eq(window.row(i), m.row(lo + i)));
        }
        // Converting a window converts its own rows only, dropping zeros
        // exactly as the whole matrix's conversion does.
        prop_assert_eq!(window.to_csr(), m.to_csr().slice_rows(lo, hi));
        prop_assert_eq!(window.to_csr(), CsrMatrix::from_dense(&rows[lo..hi], d).unwrap());
        let v = window.to_value();
        prop_assert_eq!(serialized_len(&v, "values"), (hi - lo) * d);
        prop_assert_eq!(DenseMatrix::from_value(&v).unwrap(), window);
    }

    #[test]
    fn dense_for_each_row_visits_the_csr_entries(
        cells in prop::collection::vec(prop::collection::vec(-3i8..4, 5), 1..20),
        zero_free in any::<bool>(),
    ) {
        // With zeros, about one cell in seven is absent; without, every row
        // takes the in-place path.
        let rows: Vec<Vec<f32>> = cells
            .iter()
            .map(|r| r.iter().map(|&v| f32::from(if zero_free && v == 0 { 4 } else { v })).collect())
            .collect();
        let m = DenseMatrix::from_rows(&rows).unwrap();
        let csr = m.to_csr();
        prop_assert_eq!(csr.clone(), CsrMatrix::from_dense(&rows, 5).unwrap());
        let mut visited = 0;
        let mut failure = None;
        m.for_each_row(|i, feats, vals| {
            visited += 1;
            if (feats, vals) != csr.row(i) {
                failure = Some(format!("row {i}: {feats:?} {vals:?} != {:?}", csr.row(i)));
            }
            // A row with no zero cell is the matrix's own cells, not a copy.
            if vals.len() == 5 && !std::ptr::eq(vals, m.row(i)) {
                failure = Some(format!("row {i} was copied"));
            }
        });
        prop_assert_eq!(failure, None);
        prop_assert_eq!(visited, m.n_rows());
    }

    #[test]
    fn dataset_row_cuts_keep_storage_and_alias(
        cells in prop::collection::vec(prop::collection::vec(-3i8..4, 5), 1..20),
        dense in any::<bool>(),
        ends in prop::collection::vec(0usize..21, 4),
        fraction in 0.0f64..0.95,
    ) {
        let (a, b, c, d) = (ends[0], ends[1], ends[2], ends[3]);
        let rows: Vec<Vec<f32>> =
            cells.iter().map(|r| r.iter().map(|&v| f32::from(v)).collect()).collect();
        let n = rows.len();
        let features = if dense {
            FeatureMatrix::Dense(DenseMatrix::from_rows(&rows).unwrap())
        } else {
            FeatureMatrix::Sparse(CsrMatrix::from_dense(&rows, 5).unwrap())
        };
        let labels: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let ds = Dataset::new(features, labels, 0, "p").unwrap();

        let (lo, hi) = (a.min(b).min(n), a.max(b).min(n));
        let cut = ds.slice_rows(lo, hi, "cut");
        prop_assert_eq!(&cut.features, &ds.features.slice_rows(lo, hi));
        prop_assert_eq!(&cut.labels[..], &ds.labels[lo..hi]);
        prop_assert!(aliases_rows_of(&cut.features, &ds.features, lo));

        // A cut of a cut is the cut of the composed range, still aliasing.
        let w = hi - lo;
        let (lo2, hi2) = (c.min(d).min(w), c.max(d).min(w));
        let inner = cut.slice_rows(lo2, hi2, "inner");
        prop_assert_eq!(&inner.features, &ds.features.slice_rows(lo + lo2, lo + hi2));
        prop_assert_eq!(&inner.labels[..], &ds.labels[lo + lo2..lo + hi2]);
        prop_assert!(aliases_rows_of(&inner.features, &ds.features, lo + lo2));

        // The hold-out split is two such cuts that tile the dataset.
        let (train, valid) = ds.split_validation(fraction);
        let n_train = train.n_instances();
        prop_assert_eq!(n_train + valid.n_instances(), n);
        prop_assert!(aliases_rows_of(&train.features, &ds.features, 0));
        prop_assert!(aliases_rows_of(&valid.features, &ds.features, n_train));
        prop_assert_eq!(&train.features, &ds.features.slice_rows(0, n_train));
        prop_assert_eq!(&valid.features, &ds.features.slice_rows(n_train, n));
    }

    #[test]
    fn binned_roundtrip_and_vertical_shard(rows in arb_binned(30, 8, 16)) {
        let m = build_binned(&rows, 8);
        prop_assert_eq!(m.clone(), m.to_columns().to_rows());
        // A 2-way vertical shard partitions the pairs.
        let left: Vec<FeatureId> = (0u32..4).collect();
        let right: Vec<FeatureId> = (4u32..8).collect();
        let a = m.select_cols(&left);
        let b = m.select_cols(&right);
        prop_assert_eq!(a.nnz() + b.nnz(), m.nnz());
        for i in 0..m.n_rows() {
            for f in 0u32..4 {
                prop_assert_eq!(a.get(i, f), m.get(i, f));
                prop_assert_eq!(b.get(i, f), m.get(i, f + 4));
            }
        }
    }

    #[test]
    fn dense_sparse_roundtrip_both_widths(rows in arb_binned(30, 8, 16)) {
        let m = build_binned(&rows, 8);
        for width in [BinWidth::U8, BinWidth::U16] {
            let d = DenseBinnedRows::from_sparse_with_width(&m, 16, width);
            prop_assert_eq!(d.to_sparse(), m.clone());
            prop_assert_eq!(d.nnz(), m.nnz());
            for i in 0..m.n_rows() {
                for f in 0u32..8 {
                    prop_assert_eq!(d.get(i, f), m.get(i, f));
                    prop_assert_eq!(d.to_columns().get(i, f), m.get(i, f));
                }
            }
        }
    }

    #[test]
    fn store_shard_ops_are_layout_invariant(rows in arb_binned(30, 8, 16), cut in 0usize..30) {
        // slice_rows, select_cols, and the column transpose must see through
        // the layout: the dense store's results, lowered back to sparse rows,
        // equal the sparse store's.
        let m = build_binned(&rows, 8);
        let sparse = BinnedStore::sparse(m.clone());
        let dense = BinnedStore::dense(m.clone(), 16);
        let cut = cut.min(m.n_rows());
        prop_assert_eq!(
            sparse.slice_rows(cut, m.n_rows()).to_sparse_rows(),
            dense.slice_rows(cut, m.n_rows()).to_sparse_rows()
        );
        let cols: Vec<FeatureId> = (0u32..8).step_by(2).collect();
        prop_assert_eq!(
            sparse.select_cols(&cols).to_sparse_rows(),
            dense.select_cols(&cols).to_sparse_rows()
        );
        prop_assert_eq!(
            sparse.to_columns().to_rows().to_sparse_rows(),
            dense.to_columns().to_rows().to_sparse_rows()
        );
    }

    #[test]
    fn naive_encoding_roundtrip(pairs in prop::collection::vec((any::<u32>(), -1e9f64..1e9), 0..200)) {
        let enc = encoding::encode_naive(&pairs);
        prop_assert_eq!(enc.len(), pairs.len() * encoding::NAIVE_PAIR_BYTES);
        prop_assert_eq!(encoding::decode_naive(enc).unwrap(), pairs);
    }

    #[test]
    fn compressed_encoding_roundtrip(
        raw in prop::collection::vec((0u32..5000, 0u16..300), 0..200),
        p in 1usize..100_000,
        q in 1usize..400,
    ) {
        let pairs: Vec<(FeatureId, BinId)> = raw
            .into_iter()
            .map(|(f, b)| (f % p.min(u32::MAX as usize) as u32, b % q.min(u16::MAX as usize + 1) as u16))
            .collect();
        let enc = encoding::encode_compressed(&pairs, p, q);
        prop_assert_eq!(encoding::decode_compressed(enc, p, q).unwrap(), pairs);
    }

    #[test]
    fn blockify_roundtrip_via_wire(rows in arb_binned(40, 8, 20), n_blocks in 1usize..5) {
        let m = build_binned(&rows, 8);
        if m.n_rows() == 0 {
            return Ok(());
        }
        // Split rows into n_blocks contiguous chunks, encode each block,
        // decode, assemble, merge — the result must equal the original.
        let n = m.n_rows();
        let chunk = n.div_ceil(n_blocks);
        let mut blocks = Vec::new();
        for (k, lo) in (0..n).step_by(chunk).enumerate() {
            let hi = (lo + chunk).min(n);
            let mut feats = Vec::new();
            let mut bins = Vec::new();
            let mut row_ptr = vec![0u32];
            for i in lo..hi {
                let (f, b) = m.row(i);
                feats.extend_from_slice(f);
                bins.extend_from_slice(b);
                row_ptr.push(feats.len() as u32);
            }
            let block = Block::new(k as u32, lo as u32, feats, bins, row_ptr).unwrap();
            let wire = encoding::encode_block(&block, 8, 20);
            blocks.push(encoding::decode_block(wire, 8, 20).unwrap());
        }
        let mut assembled = BlockedRows::assemble(8, blocks).unwrap();
        assembled.merge(2);
        prop_assert_eq!(assembled.to_binned_rows(), m);
    }
}
