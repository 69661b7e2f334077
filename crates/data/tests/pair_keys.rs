//! The sparse stores' packed keys at every width: `(id << b) | bin` takes
//! 2 bytes while `ids · 2^b ≤ 2^16`, 4 while `≤ 2^32`, else 8. At each
//! boundary, on both sides, and at `p = 2^17` features of 16-bit bins,
//! every view of a store — point lookups, row and column scans, the
//! transpose, a stable partition of each column, a vertical shard and the
//! dense round trip — sees exactly the pairs it was built from.

use gbdt_data::binned::BinnedRowsBuilder;
use gbdt_data::dense_binned::DenseBinnedRows;
use gbdt_data::{BinId, BinnedRows, ColumnStore, FeatureId, InstanceId};
use std::collections::BTreeMap;

/// Pairs at the corners of an `n × d` matrix with bins `< q`: the first and
/// last feature of the first and last row, at bin 0 and at bin `q − 1`, and
/// one pair mid-matrix.
fn corner_pairs(n: usize, d: usize, q: usize) -> BTreeMap<(usize, FeatureId), BinId> {
    let (last_f, top) = ((d - 1) as FeatureId, (q - 1) as BinId);
    BTreeMap::from([
        ((0, 0), top),
        ((0, last_f), 0),
        ((n / 2, (d / 2) as FeatureId), 1),
        ((n - 1, 0), 0),
        ((n - 1, last_f), top),
    ])
}

fn build(n: usize, d: usize, q: usize, cells: &BTreeMap<(usize, FeatureId), BinId>) -> BinnedRows {
    let mut b = BinnedRowsBuilder::new(d, q);
    for i in 0..n {
        let row: Vec<(FeatureId, BinId)> =
            cells.range((i, 0)..(i + 1, 0)).map(|(&(_, f), &bin)| (f, bin)).collect();
        b.push_row(&row).unwrap();
    }
    b.build()
}

/// Builds the corner store of `n × d` at `q` bins, checks its row and column
/// key widths, and checks every view against the pairs.
fn check_shape(n: usize, d: usize, q: usize, row_key_bytes: usize, col_key_bytes: usize) {
    let shape = format!("{n} × {d} at q = {q}");
    let cells = corner_pairs(n, d, q);
    let rows = build(n, d, q, &cells);
    assert_eq!(rows.pairs().key_bytes(), row_key_bytes, "{shape}: row keys");
    assert_eq!(rows.nnz(), cells.len(), "{shape}");

    // Point lookups, present and absent, and row scans in feature order.
    for (&(i, f), &bin) in &cells {
        assert_eq!(rows.get(i, f), Some(bin), "{shape}: ({i}, {f})");
    }
    for (i, f) in [(0, 1), (n - 1, (d - 2) as FeatureId), (n / 2, 0)] {
        if !cells.contains_key(&(i, f)) {
            assert_eq!(rows.get(i, f), None, "{shape}: ({i}, {f}) is absent");
        }
    }
    let mut scanned = BTreeMap::new();
    for i in 0..n {
        let mut prev = None;
        rows.for_each_in_row(i, |f, bin| {
            assert!(prev < Some(f), "{shape}: row {i} ascends");
            prev = Some(f);
            scanned.insert((i, f), bin);
        });
    }
    assert_eq!(scanned, cells, "{shape}: row scans");

    // The transpose: its own key width, instances ascending per column.
    let cols = rows.to_columns();
    assert_eq!(cols.pairs().key_bytes(), col_key_bytes, "{shape}: column keys");
    let mut scanned = BTreeMap::new();
    for j in 0..d {
        let mut prev = None;
        cols.for_each_in_col(j, |i: InstanceId, bin| {
            assert!(prev < Some(i), "{shape}: column {j} ascends");
            prev = Some(i);
            scanned.insert((i as usize, j as FeatureId), bin);
        });
    }
    assert_eq!(scanned, cells, "{shape}: column scans");

    // A stable partition of every column by instance parity, at the
    // column's width: evens first, then odds, each run in its old order.
    let (col_ptr, mut keys) = cols.clone().into_parts();
    let mut scratch = Vec::new();
    for j in 0..d {
        let range = col_ptr[j]..col_ptr[j + 1];
        let mut want: Vec<(InstanceId, BinId)> = Vec::new();
        keys.for_each(range.clone(), |i, bin| want.push((i, bin)));
        want.sort_by_key(|&(i, _)| i % 2);
        let mid = keys.partition(range.clone(), &mut scratch, |i| i % 2 == 0);
        let mut got = Vec::new();
        keys.for_each(range.clone(), |i, bin| got.push((i, bin)));
        assert_eq!(got, want, "{shape}: column {j} partitioned");
        assert_eq!(mid - range.start, want.iter().filter(|p| p.0 % 2 == 0).count(), "{shape}");
    }
    let cols = ColumnStore::Sparse(cols);
    for (&(i, f), &bin) in &cells {
        assert_eq!(cols.get(i, f), Some(bin), "{shape}: column lookup ({i}, {f})");
    }

    // A vertical shard of the last and first features, renumbered 0 and 1.
    let last_f = (d - 1) as FeatureId;
    let shard = rows.select_cols(&[last_f, 0]);
    for i in [0, n / 2, n - 1] {
        assert_eq!(shard.get(i, 0), rows.get(i, last_f), "{shape}: shard row {i}");
        assert_eq!(shard.get(i, 1), rows.get(i, 0), "{shape}: shard row {i}");
    }

    // The dense round trip is exact.
    let dense = DenseBinnedRows::from_sparse(&rows, q);
    for (&(i, f), &bin) in &cells {
        assert_eq!(dense.get(i, f), Some(bin), "{shape}: dense ({i}, {f})");
    }
    assert_eq!(dense.to_sparse(), rows, "{shape}: dense round trip");
}

#[test]
fn row_keys_widen_at_each_boundary() {
    // 5-bit bins: 2 048 features fill 2^16 keys exactly.
    check_shape(3, 2_048, 20, 2, 2);
    check_shape(3, 2_049, 20, 4, 2);
    // 16-bit bins: 65 536 features fill 2^32.
    check_shape(3, 65_536, 65_535, 4, 4);
    check_shape(3, 65_537, 65_535, 8, 4);
}

#[test]
fn column_keys_widen_at_each_boundary() {
    check_shape(2_048, 3, 20, 2, 2);
    check_shape(2_049, 3, 20, 2, 4);
    check_shape(65_536, 2, 65_535, 4, 4);
    check_shape(65_537, 2, 65_535, 4, 8);
}

#[test]
fn u64_keys_hold_2_pow_17_features_of_16_bit_bins() {
    check_shape(3, 1 << 17, 65_535, 8, 4);
}
