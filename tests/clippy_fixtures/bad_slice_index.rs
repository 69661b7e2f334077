//@ scope: comm-layer
// Known-bad (`slice-index`): unchecked indexing in the comm layer can panic
// mid-collective. Range slices are caught too: their bounds need the same
// argument, written down in an `#[expect]`.

pub fn shard_of(ranges: &[(usize, usize)], buf: &[f64], r: usize) -> f64 {
    let (lo, hi) = ranges[r]; //~ clippy::indexing_slicing
    let view = &buf[lo..hi]; //~ clippy::indexing_slicing
    view.iter().sum()
}
