//@ path: crates/cluster/src/collectives.rs
//@ expect: slice-index
// Known-bad: unchecked element indexing in the comm layer. The range
// subscript below is fine (bulk view) and must NOT fire.

pub fn shard_of(ranges: &[(usize, usize)], buf: &[f64], r: usize) -> f64 {
    let (lo, hi) = ranges[r];
    let view = &buf[lo..hi];
    view.iter().sum()
}
