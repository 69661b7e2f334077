//! Candidate splits and value → bin quantization.
//!
//! [`BinCuts`] holds, per feature, the ascending candidate split values
//! proposed from quantile sketches (§2.1.2, Figure 3). A feature value `v`
//! maps to the first bin whose cut is ≥ `v`; values above the last cut
//! clamp into the last bin (the last cut is the feature maximum, so this
//! only happens for unseen validation values). Zeros — absent entries of a
//! sparse matrix and exact `0.0` cells of a dense one alike — are *not*
//! sketched or binned: they are the "missing values" the split finder routes
//! through the learned default direction (§3.2.3).

use crate::config::Storage;
use crate::sketch::QuantileSketch;
use gbdt_data::binned::BinnedRowsBuilder;
use gbdt_data::dataset::Dataset;
use gbdt_data::frame::{DecodeError, Reader};
use gbdt_data::{BinId, BinnedRows, BinnedStore, DenseBinnedRows, FeatureId};
use serde::{Deserialize, Serialize};

/// Per-feature candidate split values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinCuts {
    cuts: Vec<Vec<f32>>,
}

impl BinCuts {
    /// Builds cuts from one merged sketch per feature, proposing `q`
    /// candidate splits each.
    pub fn from_sketches(sketches: &[QuantileSketch], q: usize) -> Self {
        BinCuts { cuts: sketches.iter().map(|s| s.candidate_splits(q)).collect() }
    }

    /// Builds per-feature sketches from a dataset's stored values.
    ///
    /// This is the single-node path; the distributed path builds local
    /// sketches per worker and merges them (paper §4.2.1 steps 1–2), which
    /// produces the same cuts because the sketch is mergeable.
    pub fn sketch_dataset(dataset: &Dataset, capacity: usize) -> Vec<QuantileSketch> {
        let mut sketches = vec![QuantileSketch::new(capacity); dataset.n_features()];
        dataset.features.for_each_row(|_, feats, vals| {
            for (&f, &v) in feats.iter().zip(vals) {
                sketches[f as usize].insert(v);
            }
        });
        sketches
    }

    /// Convenience: sketch a dataset and propose `q` splits per feature.
    pub fn from_dataset(dataset: &Dataset, q: usize) -> Self {
        Self::from_sketches(&Self::sketch_dataset(dataset, QuantileSketch::DEFAULT_CAP), q)
    }

    /// Builds cuts directly from explicit per-feature split values
    /// (ascending); used by tests for exact control.
    pub fn from_cut_values(cuts: Vec<Vec<f32>>) -> Self {
        for (f, c) in cuts.iter().enumerate() {
            for w in c.windows(2) {
                assert!(w[0] < w[1], "feature {f} cuts not strictly ascending");
            }
        }
        BinCuts { cuts }
    }

    /// Number of features covered.
    pub fn n_features(&self) -> usize {
        self.cuts.len()
    }

    /// Number of bins (candidate splits) of a feature; 0 when the feature
    /// never appeared in the training data.
    #[inline]
    pub fn n_bins(&self, feature: FeatureId) -> usize {
        self.cuts[feature as usize].len()
    }

    /// Largest bin count over all features (histogram width).
    pub fn max_bins(&self) -> usize {
        self.cuts.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Bin of `value` for `feature`: the first bin whose cut is ≥ `value`,
    /// clamped into the last bin. `None` for features with no cuts.
    #[inline]
    pub fn bin(&self, feature: FeatureId, value: f32) -> Option<BinId> {
        let cuts = &self.cuts[feature as usize];
        if cuts.is_empty() {
            return None;
        }
        let idx = cuts.partition_point(|&c| c < value);
        Some(idx.min(cuts.len() - 1) as BinId)
    }

    /// Split threshold represented by `bin`: instances with value ≤ the
    /// returned threshold go left.
    #[inline]
    pub fn threshold(&self, feature: FeatureId, bin: BinId) -> f32 {
        self.cuts[feature as usize][bin as usize]
    }

    /// All cuts of one feature.
    pub fn feature_cuts(&self, feature: FeatureId) -> &[f32] {
        &self.cuts[feature as usize]
    }

    /// Quantizes a dataset into binned row-store form.
    pub fn apply(&self, dataset: &Dataset) -> BinnedRows {
        let n = dataset.n_instances();
        let d = dataset.n_features();
        assert_eq!(d, self.n_features(), "cuts built for a different dimensionality");
        let mut builder = BinnedRowsBuilder::with_capacity(
            d,
            self.max_bins(),
            n,
            dataset.features.n_stored(),
        );
        self.for_each_binned_row(dataset, |_, entries| {
            builder.push_row(entries).expect("binned entries remain sorted");
        });
        builder.build()
    }

    /// Visits each row's `(feature, bin)` entries, ascending by feature: the
    /// stored values of the features that have cuts.
    fn for_each_binned_row(
        &self,
        dataset: &Dataset,
        mut f: impl FnMut(usize, &[(FeatureId, BinId)]),
    ) {
        let mut entries: Vec<(FeatureId, BinId)> = Vec::new();
        dataset.features.for_each_row(|i, feats, vals| {
            entries.clear();
            entries.extend(
                feats.iter().zip(vals).filter_map(|(&f, &v)| Some((f, self.bin(f, v)?))),
            );
            f(i, &entries);
        });
    }

    /// Quantizes a dataset straight into the layout `storage` selects —
    /// equal to `storage.bin_store(self.apply(dataset), self.max_bins())`,
    /// but a dense result is written as packed cells with no sparse
    /// intermediate. The cell width is fixed by these cuts' global
    /// [`Self::max_bins`], so every shard packs identically.
    pub fn apply_store(&self, dataset: &Dataset, storage: Storage) -> BinnedStore {
        let (n, d, q) = (dataset.n_instances(), dataset.n_features(), self.max_bins());
        assert_eq!(d, self.n_features(), "cuts built for a different dimensionality");
        // What `apply` would store: the values of features that have cuts —
        // every stored value, unless some feature has none (training never
        // saw it).
        let binned = if self.cuts.iter().any(Vec::is_empty) {
            let mut binned = 0usize;
            dataset.features.for_each_row(|_, feats, _| {
                binned += feats.iter().filter(|&&f| self.n_bins(f) > 0).count();
            });
            binned
        } else {
            dataset.features.n_stored()
        };
        let Some(width) = storage.dense_width(binned, n, d, q) else {
            return BinnedStore::Sparse(self.apply(dataset));
        };
        let mut cells = DenseBinnedRows::all_missing(n, d, q, width);
        self.for_each_binned_row(dataset, |i, entries| {
            for &(f, b) in entries {
                cells.set(i, f, b);
            }
        });
        BinnedStore::Dense(cells)
    }

    /// Exact wire encoding, for broadcasting candidate splits (§4.2.1 step 2).
    pub fn encode_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            4 + self.cuts.iter().map(|c| 2 + c.len() * 4).sum::<usize>(),
        );
        out.extend_from_slice(&(self.cuts.len() as u32).to_le_bytes());
        for cuts in &self.cuts {
            out.extend_from_slice(&(cuts.len() as u16).to_le_bytes());
            for v in cuts {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Decodes [`Self::encode_bytes`] output: cuts [`Self::from_cut_values`]
    /// accepts, strictly ascending within each feature.
    pub fn decode_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let d = r.u32()? as usize;
        // Each feature takes at least its 2-byte length.
        let mut cuts = Vec::with_capacity(r.count(d, 2)?);
        for f in 0..d {
            let len = r.u16()? as usize;
            let c: Vec<f32> = r.f32s(len)?.collect();
            if !c.windows(2).all(|pair| pair[0] < pair[1]) {
                return Err(r.error(format!("feature {f} cuts not strictly ascending")));
            }
            cuts.push(c);
        }
        r.finish()?;
        Ok(BinCuts { cuts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_data::dataset::FeatureMatrix;
    use gbdt_data::sparse::CsrBuilder;

    fn cuts_simple() -> BinCuts {
        BinCuts::from_cut_values(vec![vec![1.0, 2.0, 3.0], vec![10.0], vec![]])
    }

    #[test]
    fn bin_maps_values_to_first_covering_cut() {
        let c = cuts_simple();
        assert_eq!(c.bin(0, 0.5), Some(0));
        assert_eq!(c.bin(0, 1.0), Some(0));
        assert_eq!(c.bin(0, 1.5), Some(1));
        assert_eq!(c.bin(0, 3.0), Some(2));
        // Above the max cut: clamps to the last bin.
        assert_eq!(c.bin(0, 99.0), Some(2));
        assert_eq!(c.bin(1, -5.0), Some(0));
        // Feature never seen in training.
        assert_eq!(c.bin(2, 1.0), None);
    }

    #[test]
    fn threshold_inverts_bin() {
        let c = cuts_simple();
        assert_eq!(c.threshold(0, 1), 2.0);
        assert_eq!(c.n_bins(0), 3);
        assert_eq!(c.n_bins(2), 0);
        assert_eq!(c.max_bins(), 3);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn from_cut_values_rejects_unsorted() {
        BinCuts::from_cut_values(vec![vec![2.0, 1.0]]);
    }

    #[test]
    fn dataset_cuts_respect_quantiles() {
        // Feature 0 uniform over 0..100; q = 4 splits near 25/50/75/100.
        let mut b = CsrBuilder::new(1);
        for i in 0..100 {
            b.push_row(&[(0, i as f32)]).unwrap();
        }
        let ds = Dataset::new(
            FeatureMatrix::Sparse(b.build()),
            vec![0.0; 100],
            0,
            "t",
        )
        .unwrap();
        let cuts = BinCuts::from_dataset(&ds, 4);
        let c = cuts.feature_cuts(0);
        assert_eq!(c.len(), 4);
        assert_eq!(*c.last().unwrap(), 99.0);
        assert!((c[0] - 25.0).abs() <= 3.0, "first cut {c:?}");
        assert!((c[1] - 50.0).abs() <= 3.0);
    }

    #[test]
    fn apply_bins_every_stored_value() {
        let mut b = CsrBuilder::new(2);
        b.push_row(&[(0, 1.0), (1, 5.0)]).unwrap();
        b.push_row(&[(0, 9.0)]).unwrap();
        b.push_row(&[]).unwrap();
        let ds =
            Dataset::new(FeatureMatrix::Sparse(b.build()), vec![0.0; 3], 0, "t").unwrap();
        let cuts = BinCuts::from_dataset(&ds, 10);
        let binned = cuts.apply(&ds);
        assert_eq!(binned.n_rows(), 3);
        assert_eq!(binned.nnz(), 3);
        // Feature 0 has values {1, 9}: 1 -> bin 0, 9 -> last bin.
        assert_eq!(binned.get(0, 0), Some(0));
        assert_eq!(binned.get(1, 0).unwrap() as usize, cuts.n_bins(0) - 1);
        assert_eq!(binned.get(2, 0), None);
    }

    #[test]
    fn apply_dense_dataset() {
        let dense = gbdt_data::DenseMatrix::from_rows(&[
            vec![1.0, -1.0],
            vec![2.0, 0.0],
            vec![3.0, 1.0],
        ])
        .unwrap();
        let ds = Dataset::new(FeatureMatrix::Dense(dense), vec![0.0; 3], 0, "t").unwrap();
        let cuts = BinCuts::from_dataset(&ds, 4);
        let binned = cuts.apply(&ds);
        // A dense zero is absent, exactly as in the CSR form of the matrix.
        assert_eq!(binned.nnz(), 5);
        assert_eq!(binned.get(1, 1), None);
        let as_csr = Dataset::new(
            FeatureMatrix::Sparse(ds.features.to_csr()),
            ds.labels.clone(),
            0,
            "t",
        )
        .unwrap();
        assert_eq!(BinCuts::from_dataset(&as_csr, 4), cuts);
        assert_eq!(cuts.apply(&as_csr), binned);
    }

    #[test]
    fn wire_roundtrip() {
        let c = cuts_simple();
        let bytes = c.encode_bytes();
        assert_eq!(BinCuts::decode_bytes(&bytes).unwrap(), c);
        assert!(BinCuts::decode_bytes(&bytes[..bytes.len() - 2]).is_err());
        // A feature count past the bytes is rejected before it sizes anything.
        let mut hostile = bytes.clone();
        hostile[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(BinCuts::decode_bytes(&hostile).is_err());
    }

    /// A broadcast whose cuts `from_cut_values` would refuse is refused on
    /// the wire too: feature 0's second cut, 2.0 at bytes 10..14, has its
    /// sign flipped below the first.
    #[test]
    fn cuts_out_of_order_are_refused() {
        let mut bytes = cuts_simple().encode_bytes();
        bytes[13] ^= 0x80;
        let err = BinCuts::decode_bytes(&bytes).unwrap_err();
        assert_eq!(err.what, "feature 0 cuts not strictly ascending");
    }

    #[test]
    fn sketch_then_cuts_matches_single_pass_merge() {
        // Splitting the data into shards, sketching each, and merging gives
        // the same cuts as sketching the whole (deterministic compaction).
        let values: Vec<f32> = (0..2_000).map(|i| ((i * 37) % 500) as f32).collect();
        let mut whole = QuantileSketch::new(128);
        for &v in &values {
            whole.insert(v);
        }
        let mut merged = QuantileSketch::new(128);
        let mut a = QuantileSketch::new(128);
        let mut b = QuantileSketch::new(128);
        for &v in &values[..1_000] {
            a.insert(v);
        }
        for &v in &values[1_000..] {
            b.insert(v);
        }
        merged.merge(&a);
        merged.merge(&b);
        let q = 20;
        let cuts_whole = whole.candidate_splits(q);
        let cuts_merged = merged.candidate_splits(q);
        // Both approximate the same distribution: equal length within 1 and
        // max identical.
        assert_eq!(cuts_whole.last(), cuts_merged.last());
        assert!(
            (cuts_whole.len() as i64 - cuts_merged.len() as i64).abs() <= 2,
            "{} vs {}",
            cuts_whole.len(),
            cuts_merged.len()
        );
    }
}
