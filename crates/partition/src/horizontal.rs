//! Horizontal (row) partitioning: contiguous instance ranges per worker —
//! the de facto layout of datasets arriving from distributed file systems.

use gbdt_data::Dataset;
use serde::{Deserialize, Serialize};

/// A horizontal partition of N instances over W workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HorizontalPartition {
    n_instances: usize,
    world: usize,
}

impl HorizontalPartition {
    /// Partitions `n_instances` rows over `world` workers as evenly as
    /// possible (earlier workers take the remainder).
    pub fn new(n_instances: usize, world: usize) -> Self {
        assert!(world >= 1, "need at least one worker");
        HorizontalPartition { n_instances, world }
    }

    /// Total instance count.
    pub fn n_instances(&self) -> usize {
        self.n_instances
    }

    /// Worker count.
    pub fn world(&self) -> usize {
        self.world
    }

    /// The `[lo, hi)` row range of worker `w`.
    pub fn bounds(&self, w: usize) -> (usize, usize) {
        assert!(w < self.world, "worker {w} out of range");
        let base = self.n_instances / self.world;
        let extra = self.n_instances % self.world;
        let lo = w * base + w.min(extra);
        let hi = lo + base + usize::from(w < extra);
        (lo, hi)
    }

    /// Worker `rank`'s shard of `dataset`: its rows in the dataset's own
    /// storage, aliasing the dataset's feature buffer, so a worker holds N/W
    /// rows and sharding costs no copy however many workers there are.
    pub fn shard(&self, dataset: &Dataset, rank: usize) -> Dataset {
        assert_eq!(dataset.n_instances(), self.n_instances, "dataset does not match partition");
        let (lo, hi) = self.bounds(rank);
        dataset.slice_rows(lo, hi, &format!("shard{rank}"))
    }

    /// Number of rows on worker `w`.
    pub fn shard_len(&self, w: usize) -> usize {
        let (lo, hi) = self.bounds(w);
        hi - lo
    }

    /// The worker owning global row `i`.
    pub fn owner_of(&self, i: usize) -> usize {
        assert!(i < self.n_instances, "row {i} out of range");
        let base = self.n_instances / self.world;
        let extra = self.n_instances % self.world;
        let boundary = extra * (base + 1);
        if i < boundary {
            i / (base + 1)
        } else {
            extra + (i - boundary) / base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_data::synthetic::SyntheticConfig;
    use gbdt_data::FeatureMatrix;

    /// Every rank's shard at W = 8 — with more rows than workers and with
    /// fewer, so some shards are empty — holds exactly its rows and labels in
    /// the storage the dataset came in, and every row points into the
    /// dataset's own buffer: sparse or dense, no cell is copied.
    #[test]
    fn shards_alias_the_dataset_and_hold_their_rows() {
        for n in [5usize, 8, 203] {
            for dense in [false, true] {
                let full = SyntheticConfig {
                    n_instances: n,
                    n_features: 9,
                    density: 0.4,
                    dense,
                    seed: n as u64,
                    ..Default::default()
                }
                .generate();
                let p = HorizontalPartition::new(n, 8);
                let mut rows_seen = 0;
                for rank in 0..8 {
                    let (lo, hi) = p.bounds(rank);
                    let shard = p.shard(&full, rank);
                    assert_eq!(shard.n_instances(), hi - lo);
                    assert_eq!(shard.labels, full.labels[lo..hi]);
                    assert_eq!(shard.n_classes, full.n_classes);
                    assert_eq!(shard.features, full.features.slice_rows(lo, hi));
                    match (&shard.features, &full.features) {
                        (FeatureMatrix::Sparse(csr), FeatureMatrix::Sparse(whole)) => {
                            for i in 0..csr.n_rows() {
                                let (row, parent) = (csr.row(i), whole.row(lo + i));
                                assert_eq!(row, parent, "n={n} rank={rank} row={i}");
                                assert!(std::ptr::eq(row.0, parent.0), "features copied");
                                assert!(std::ptr::eq(row.1, parent.1), "values copied");
                            }
                        }
                        (FeatureMatrix::Dense(cells), FeatureMatrix::Dense(whole)) => {
                            for i in 0..cells.n_rows() {
                                let (row, parent) = (cells.row(i), whole.row(lo + i));
                                assert_eq!(row, parent, "n={n} rank={rank} row={i}");
                                assert!(std::ptr::eq(row, parent), "cells copied");
                            }
                        }
                        _ => panic!("n={n} rank={rank}: the shard changed storage"),
                    }
                    rows_seen += shard.n_instances();
                }
                assert_eq!(rows_seen, n);
            }
        }
    }

    #[test]
    fn bounds_cover_all_rows_contiguously() {
        for (n, w) in [(10, 3), (7, 7), (5, 8), (100, 1), (0, 4)] {
            let p = HorizontalPartition::new(n, w);
            let mut expected = 0;
            for worker in 0..w {
                let (lo, hi) = p.bounds(worker);
                assert_eq!(lo, expected, "n={n} w={w} worker={worker}");
                assert!(hi >= lo);
                expected = hi;
            }
            assert_eq!(expected, n);
        }
    }

    #[test]
    fn shards_differ_by_at_most_one() {
        let p = HorizontalPartition::new(10, 3);
        let sizes: Vec<_> = (0..3).map(|w| p.shard_len(w)).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn owner_of_inverts_bounds() {
        for (n, w) in [(10, 3), (17, 5), (8, 8), (23, 4)] {
            let p = HorizontalPartition::new(n, w);
            for i in 0..n {
                let owner = p.owner_of(i);
                let (lo, hi) = p.bounds(owner);
                assert!(
                    (lo..hi).contains(&i),
                    "n={n} w={w}: row {i} claimed by {owner} with range {lo}..{hi}"
                );
            }
        }
    }
}
