//! Property-based tests for the storage substrate: conversions between
//! row-store and column-store must be lossless, sharding must partition, and
//! wire encodings must round-trip for arbitrary inputs.

use gbdt_data::binned::BinnedRowsBuilder;
use bytes::Bytes;
use gbdt_data::block::{Block, SliceError};
use gbdt_data::dense_binned::{BinWidth, DenseBinnedRows};
use gbdt_data::encoding;
use gbdt_data::sparse::{CsrBuilder, RowIds};
use gbdt_data::{
    BinId, BinnedRows, BinnedStore, ColumnStore, CsrMatrix, DataError, Dataset, DenseMatrix,
    FeatureId, FeatureMatrix, PairKeys,
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
    prop_assert_eq!(format!("{window:?}"), format!("{copy:?}"));
    for i in 0..copy.n_rows() {
        prop_assert_eq!(window.row(i), copy.row(i));
    }
    prop_assert_eq!(window.iter_rows().collect::<Vec<_>>(), copy.iter_rows().collect::<Vec<_>>());
    Ok(())
}

fn build_binned(rows: &[Vec<(u32, u16)>], n_cols: usize, q: usize) -> BinnedRows {
    let mut b = BinnedRowsBuilder::new(n_cols, q);
    for row in rows {
        b.push_row(row).unwrap();
    }
    b.build()
}

/// Whether two id runs are the same bytes of one key buffer, not equal copies.
fn shares_ids(a: &RowIds, b: &RowIds) -> bool {
    let ((keys_a, run_a), (keys_b, run_b)) = (a.run(), b.run());
    std::ptr::eq(keys_a, keys_b) && run_a == run_b
}

/// Whether every row of `cut` is rows `lo..` of `parent` in the same storage,
/// pointing into `parent`'s own buffer — kept variant, no cell copied.
fn aliases_rows_of(cut: &FeatureMatrix, parent: &FeatureMatrix, lo: usize) -> bool {
    match (cut, parent) {
        (FeatureMatrix::Sparse(c), FeatureMatrix::Sparse(p)) => (0..c.n_rows()).all(|i| {
            shares_ids(&c.row(i).0, &p.row(lo + i).0) && std::ptr::eq(c.row(i).1, p.row(lo + i).1)
        }),
        (FeatureMatrix::Dense(c), FeatureMatrix::Dense(p)) => {
            (0..c.n_rows()).all(|i| std::ptr::eq(c.row(i), p.row(lo + i)))
        }
        _ => false,
    }
}

proptest! {
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
            prop_assert!(shares_ids(&window.row(i).0, &m.row(lo + i).0));
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
            let (ids, values) = csr.row(i);
            if (feats, vals) != (&ids.to_vec()[..], values) {
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
    fn binned_columns_and_vertical_shard(rows in arb_binned(30, 8, 16)) {
        let m = build_binned(&rows, 8, 16);
        let cols = ColumnStore::Sparse(m.to_columns());
        prop_assert_eq!(cols.nnz(), m.nnz());
        for i in 0..m.n_rows() {
            for f in 0u32..8 {
                prop_assert_eq!(cols.get(i, f), m.get(i, f));
            }
        }
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
        let m = build_binned(&rows, 8, 16);
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
    fn store_views_are_layout_invariant(rows in arb_binned(30, 8, 16)) {
        // select_cols and the column transpose must see through the layout:
        // every cell of either store's results equals the source's.
        let m = build_binned(&rows, 8, 16);
        let sparse = BinnedStore::sparse(m.clone());
        let dense = BinnedStore::dense(m.clone(), 16);
        let cols: Vec<FeatureId> = (0u32..8).step_by(2).collect();
        let (sparse_cut, dense_cut) = (sparse.select_cols(&cols), dense.select_cols(&cols));
        let (sparse_t, dense_t) = (sparse.to_columns(), dense.to_columns());
        for i in 0..m.n_rows() {
            for f in 0u32..8 {
                prop_assert_eq!(sparse_t.get(i, f), m.get(i, f));
                prop_assert_eq!(dense_t.get(i, f), m.get(i, f));
            }
            for (k, &f) in cols.iter().enumerate() {
                prop_assert_eq!(sparse_cut.get(i, k as FeatureId), m.get(i, f));
                prop_assert_eq!(dense_cut.get(i, k as FeatureId), m.get(i, f));
            }
        }
    }

    #[test]
    fn naive_encoding_roundtrip(pairs in prop::collection::vec((any::<u32>(), -1e9f64..1e9), 0..200)) {
        let enc = encoding::encode_naive(&pairs);
        prop_assert_eq!(enc.len(), pairs.len() * encoding::NAIVE_PAIR_BYTES);
        prop_assert_eq!(encoding::decode_naive(&enc).unwrap(), pairs);
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
        prop_assert_eq!(encoding::decode_compressed(&enc, p, q).unwrap(), pairs);
    }

    #[test]
    fn blockify_roundtrip_via_wire(rows in arb_binned(40, 8, 20), n_blocks in 1usize..6) {
        // Split rows into n_blocks contiguous slices, encode each as a block,
        // and decode them all in place: the result must equal the original.
        let m = build_binned(&rows, 8, 20);
        let wire: Vec<_> =
            slices(&m, n_blocks).iter().map(|b| encoding::encode_block(b, 8, 20)).collect();
        prop_assert_eq!(encoding::decode_blocks(wire, m.n_rows(), &[20; 8], 20).unwrap(), m);
    }

    #[test]
    fn a_corrupt_block_is_a_typed_error(
        rows in prop::collection::vec(arb_row_with_ends(), 10..40),
        n_blocks in 1usize..6,
        target in 0usize..5,
        kind in 0usize..9,
        noise in 0usize..200,
    ) {
        // Rows hold features 0 and 7, so every block has pairs and every row
        // two of them; block 0 has at least two rows. The group is 12
        // features wide, so a feature id takes 4 bits and 12..16 are ids
        // past p that the wire can carry; a bin takes 5, so 20..32 are bins
        // past q that it can carry.
        const P: usize = 12;
        let m = build_binned(&rows, 8, 20);
        let mut blocks = slices(&m, n_blocks);
        let t = target % blocks.len();
        let b = &mut blocks[t];
        let n_rows = b.n_rows();
        // Pair positions: the first two of row 0, and the last of some row
        // (always feature 7, so raising it keeps the row ascending).
        let (first, last) = (b.row_ptr[0] as usize, b.row_ptr[1] as usize - 1);
        let any_last = b.row_ptr[1 + noise % n_rows] as usize - 1;
        let mut truncate = 0;
        let what = match kind {
            0 => { truncate = 1 + noise % 16; "a truncated payload" }
            1 => {
                // The last row's length off by one or more, either way.
                let end = b.row_ptr.last_mut().expect("a row");
                if noise % 2 == 0 { *end += 1 + noise as u32 % 3 } else { *end -= 1 }
                "row lengths that do not sum to the pair count"
            }
            2 => { set_id(b, any_last, (P + noise % (16 - P)) as u32); "a feature >= p" }
            3 => { set_id(b, first + 1, b.pairs.get(first).0); "a repeated feature" }
            4 => {
                let (f_first, f_last) = (b.pairs.get(first).0, b.pairs.get(last).0);
                set_id(b, first, f_last);
                set_id(b, last, f_first);
                "descending features"
            }
            5 => { b.file_split_index += 1 + noise as u32; "a split index out of order" }
            6 => { b.row_offset += 1 + noise as u32; "a row offset that leaves a gap" }
            7 => {
                b.row_offset = b.row_offset.wrapping_sub(1 + noise as u32);
                "a row offset that overlaps"
            }
            _ => {
                let f = b.pairs.get(any_last).0;
                b.pairs.set(any_last, f, 20 + noise as u16 % 12);
                "a bin past its feature's count"
            }
        };
        let mut wire: Vec<_> = blocks.iter().map(|b| encoding::encode_block(b, P, 20)).collect();
        let len = wire[t].len();
        wire[t] = wire[t].slice(0..len - truncate.min(len));
        let out = encoding::decode_blocks(wire, m.n_rows(), &[20; P], 20);
        // The error is typed and names the corrupted block's sender.
        let typed = match &out {
            Err(SliceError { slice, error }) if *slice == t => match kind {
                2 => matches!(error, DataError::IndexOutOfBounds { kind: "feature", .. }),
                8 => matches!(error, DataError::IndexOutOfBounds { kind: "bin", .. }),
                _ => matches!(error, DataError::Shape(_)),
            },
            _ => false,
        };
        prop_assert!(typed, "{} in block {} decoded to {:?}", what, t, out.map(|r| r.n_rows()));
    }

    #[test]
    fn packed_blocks_are_smaller_and_hostile_bytes_are_typed_errors(
        rows in arb_binned(40, 8, 20),
        n_blocks in 1usize..4,
        p in 8usize..300,
        mask in 1u8..=255,
    ) {
        // Sizes: the packed formula, never more than the byte-aligned
        // layout it replaced (16-byte header, whole-byte pairs, a u32
        // pointer a row and one more).
        let m = build_binned(&rows, 8, 20);
        let n_bins = vec![20; p];
        let blocks = slices(&m, n_blocks);
        let wire: Vec<_> = blocks.iter().map(|b| encoding::encode_block(b, p, 20)).collect();
        for (b, bytes) in blocks.iter().zip(&wire) {
            let max_len = b.row_ptr.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0);
            let lb = encoding::row_len_bits(max_len);
            let packed = encoding::block_bytes(b.nnz(), b.n_rows(), lb, p, 20);
            prop_assert_eq!(Some(bytes.len()), packed);
            let pairs = b.nnz() * encoding::compressed_pair_bytes(p, 20);
            let aligned = 16 + pairs + (b.n_rows() + 1) * 4;
            prop_assert!(bytes.len() <= aligned, "{} > {}", bytes.len(), aligned);
        }
        let decode = |wire: Vec<_>| encoding::decode_blocks(wire, m.n_rows(), &n_bins, 20);
        prop_assert_eq!(decode(wire.clone()).map_err(|e| e.slice).map(|r| r.nnz()), Ok(m.nnz()));
        // Every truncation and every single-byte flip of every payload
        // decodes or is a typed error blaming a slice that exists; none
        // panics, and the headers can size nothing the payloads do not hold.
        for t in 0..wire.len() {
            let with = |payload: Bytes| {
                let mut hostile = wire.clone();
                hostile[t] = payload;
                match decode(hostile) {
                    Ok(rows) => rows.n_rows() == m.n_rows(),
                    Err(SliceError { slice, .. }) => slice < wire.len(),
                }
            };
            for cut in 0..wire[t].len() {
                prop_assert!(with(wire[t].slice(..cut)), "payload {} cut at {}", t, cut);
            }
            for at in 0..wire[t].len() {
                let mut flipped = wire[t].to_vec();
                flipped[at] ^= mask;
                prop_assert!(with(Bytes::from(flipped)), "payload {} byte {} ^ {:#x}", t, at, mask);
            }
        }
    }

    #[test]
    fn missing_or_surplus_blocks_are_typed_errors(
        rows in arb_binned(40, 8, 20),
        n_blocks in 1usize..6,
        target in 0usize..5,
    ) {
        let m = build_binned(&rows, 8, 20);
        if m.n_rows() == 0 {
            return Ok(()); // no payload is missing from nothing
        }
        let wire: Vec<_> =
            slices(&m, n_blocks).iter().map(|b| encoding::encode_block(b, 8, 20)).collect();
        let mut missing = wire.clone();
        missing.remove(target % wire.len());
        let surplus: Vec<_> = wire.iter().chain(&wire[..1]).cloned().collect();
        for payloads in [missing, surplus] {
            let out = encoding::decode_blocks(payloads, m.n_rows(), &[20; 8], 20);
            prop_assert!(
                matches!(out, Err(SliceError { error: DataError::Shape(_), .. })),
                "{:?}",
                out.map(|r| r.n_rows())
            );
        }
    }
}

/// `m`'s rows as `n_blocks` contiguous blocks (fewer when `m` is short), as
/// the transformation's senders frame them.
fn slices(m: &BinnedRows, n_blocks: usize) -> Vec<Block> {
    let n = m.n_rows();
    let chunk = n.div_ceil(n_blocks).max(1);
    let bounds: Vec<usize> = (0..n).step_by(chunk).chain([n]).collect();
    let bounds = if n == 0 { vec![0, 0] } else { bounds };
    bounds
        .windows(2)
        .enumerate()
        .map(|(k, w)| {
            let bits = m.pairs().bin_bits();
            let mut pairs = PairKeys::with_bin_bits(m.n_features(), bits, 0);
            let mut row_ptr = vec![0u32];
            for i in w[0]..w[1] {
                m.for_each_in_row(i, |f, b| pairs.push(f, b));
                row_ptr.push(pairs.len() as u32);
            }
            Block { file_split_index: k as u32, row_offset: w[0] as u32, pairs, row_ptr }
        })
        .collect()
}

/// Moves pair `k` of `b` to feature `f`, keeping its bin.
fn set_id(b: &mut Block, k: usize, f: FeatureId) {
    let bin = b.pairs.get(k).1;
    b.pairs.set(k, f, bin);
}

/// A binned row over 8 features that always holds features 0 and 7.
fn arb_row_with_ends() -> impl Strategy<Value = Vec<(u32, u16)>> {
    (prop::collection::btree_map(1u32..7, 0u16..20, 0..6), 0u16..20, 0u16..20).prop_map(
        |(mut row, first, last)| {
            row.insert(0, first);
            row.insert(7, last);
            row.into_iter().collect()
        },
    )
}

/// Strategy: rows of sorted, distinct `(slot, value)` over 16 slots, no
/// value an exact zero; [`at_width`] places the slots at both ends of a
/// matrix's columns.
fn arb_edge_rows() -> impl Strategy<Value = Vec<Vec<(u32, f32)>>> {
    let signed = (0.5f32..100.0, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v });
    prop::collection::vec(
        prop::collection::btree_map(0u32..16, signed, 0..10)
            .prop_map(|m| m.into_iter().collect::<Vec<_>>()),
        0..8,
    )
}

/// `rows` over `n_cols` columns: slots 0..8 are the first ids, slots 8..16
/// the last eight, so the widest id a width must hold is drawn.
fn at_width(rows: &[Vec<(u32, f32)>], n_cols: usize) -> Vec<Vec<(u32, f32)>> {
    let top = n_cols as u32 - 16;
    rows.iter()
        .map(|row| row.iter().map(|&(s, v)| (if s < 8 { s } else { top + s }, v)).collect())
        .collect()
}

/// Everything `m` hands out — rows, lookups, the row visit, serde and the
/// byte count — equals the `u32` oracle `rows` it was built from.
fn assert_matches_oracle(m: &CsrMatrix, rows: &[Vec<(u32, f32)>]) -> Result<(), TestCaseError> {
    prop_assert_eq!(m.n_rows(), rows.len());
    let (mut ids, mut vals) = (Vec::new(), Vec::new());
    for (i, row) in rows.iter().enumerate() {
        let (row_ids, row_vals) = m.row(i);
        let want: Vec<u32> = row.iter().map(|e| e.0).collect();
        prop_assert_eq!(row_ids.to_vec(), want.clone());
        prop_assert_eq!(row_ids.iter().collect::<Vec<_>>(), want.clone());
        prop_assert_eq!(row_vals, &row.iter().map(|e| e.1).collect::<Vec<_>>()[..]);
        for &(f, v) in row {
            prop_assert_eq!(m.get(i, f), Some(v));
        }
        for f in [8, m.n_cols() as u32 - 9, m.n_cols() as u32, u32::MAX] {
            prop_assert_eq!(m.get(i, f), None);
        }
        ids.extend(want);
        vals.extend(row.iter().map(|e| e.1));
    }
    let mut visited = Vec::new();
    m.for_each_row(|i, f, v| visited.push((i, f.to_vec(), v.to_vec())));
    let want: Vec<_> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r.iter().map(|e| e.0).collect(), r.iter().map(|e| e.1).collect()))
        .collect();
    prop_assert_eq!(visited, want);
    let v = m.to_value();
    prop_assert_eq!(Vec::<u32>::from_value(v.get("col_idx").unwrap()).unwrap(), ids);
    prop_assert_eq!(Vec::<f32>::from_value(v.get("values").unwrap()).unwrap(), vals);
    prop_assert_eq!(&CsrMatrix::from_value(&v).unwrap(), m);
    prop_assert_eq!(m.heap_bytes(), (m.n_rows() + 1) * 8 + m.nnz() * (m.id_bytes() + 4));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// At 65 536 columns every id fits 2 bytes; at 65 537 the ids take 4.
    /// Either way a matrix, its windows and windows of windows, its serde
    /// round trip, its row visit and a dense matrix's CSR equal the `u32`
    /// oracle, and a window's ids are its parent's bytes.
    #[test]
    fn csr_ids_take_the_narrowest_width_at_the_boundary(
        slots in arb_edge_rows(),
        ends in prop::collection::vec(0usize..9, 4),
    ) {
        for (n_cols, width) in [(65_536, 2), (65_537, 4)] {
            let rows = at_width(&slots, n_cols);
            let m = build_csr(&rows, n_cols);
            prop_assert_eq!(m.id_bytes(), width);
            assert_matches_oracle(&m, &rows)?;

            let n = rows.len();
            let (lo, hi) = (ends[0].min(ends[1]).min(n), ends[0].max(ends[1]).min(n));
            let window = m.slice_rows(lo, hi);
            assert_matches_oracle(&window, &rows[lo..hi])?;
            assert_window_is(&window, &build_csr(&rows[lo..hi], n_cols))?;
            for i in 0..window.n_rows() {
                prop_assert!(shares_ids(&window.row(i).0, &m.row(lo + i).0));
                prop_assert!(std::ptr::eq(window.row(i).1, m.row(lo + i).1));
            }
            let w = window.n_rows();
            let (lo2, hi2) = (ends[2].min(ends[3]).min(w), ends[2].max(ends[3]).min(w));
            let inner = window.slice_rows(lo2, hi2);
            assert_matches_oracle(&inner, &rows[lo + lo2..lo + hi2])?;
            prop_assert!(
                (0..inner.n_rows()).all(|i| shares_ids(&inner.row(i).0, &m.row(lo + lo2 + i).0))
            );

            let mut row_ptr = vec![0];
            row_ptr.extend(rows.iter().scan(0, |end, r| { *end += r.len(); Some(*end) }));
            let col_idx = rows.iter().flatten().map(|e| e.0).collect();
            let values = rows.iter().flatten().map(|e| e.1).collect();
            let parts = CsrMatrix::from_parts(n, n_cols, row_ptr, col_idx, values).unwrap();
            prop_assert_eq!(parts.id_bytes(), width);
            prop_assert_eq!(&parts, &m);

            let mut cells = vec![0.0f32; n * n_cols];
            for (i, row) in rows.iter().enumerate() {
                for &(f, v) in row {
                    cells[i * n_cols + f as usize] = v;
                }
            }
            let dense = DenseMatrix::from_flat(n, n_cols, cells).unwrap();
            let csr = dense.to_csr();
            prop_assert_eq!(csr.id_bytes(), width);
            assert_matches_oracle(&csr, &rows)?;
            prop_assert_eq!(&csr, &m);
        }
    }
}
