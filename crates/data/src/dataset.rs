//! Labeled dataset abstraction shared by every trainer.

use crate::dense::DenseMatrix;
use crate::error::DataError;
use crate::sparse::CsrMatrix;
use crate::FeatureId;
use serde::{Deserialize, Serialize};

/// Feature storage backing a dataset: sparse row-store or dense rows.
///
/// Column-store views (binned columns) are derived from these when a
/// quadrant calls for them — the *source* dataset always arrives
/// row-partitioned and row-stored, exactly as the paper assumes datasets
/// arrive from HDFS (§4.2.1: "training datasets are often horizontally
/// partitioned and stored").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FeatureMatrix {
    /// Sparse CSR storage (the HS / MC workloads).
    Sparse(CsrMatrix),
    /// Dense row-major storage (the LD workloads).
    Dense(DenseMatrix),
}

impl FeatureMatrix {
    /// Number of instances.
    pub fn n_rows(&self) -> usize {
        match self {
            FeatureMatrix::Sparse(m) => m.n_rows(),
            FeatureMatrix::Dense(m) => m.n_rows(),
        }
    }

    /// Number of features.
    pub fn n_cols(&self) -> usize {
        match self {
            FeatureMatrix::Sparse(m) => m.n_cols(),
            FeatureMatrix::Dense(m) => m.n_cols(),
        }
    }

    /// Number of stored values: nnz for sparse (O(1)), the non-zero cells of
    /// a dense matrix (counted) — the entries [`Self::for_each_row`] visits.
    pub fn n_stored(&self) -> usize {
        match self {
            FeatureMatrix::Sparse(m) => m.nnz(),
            FeatureMatrix::Dense(m) => m.n_present(),
        }
    }

    /// The features as a CSR row-store. Sparse data is aliased (O(1), no
    /// bytes copied); dense data is converted, dropping its zero cells — a
    /// copy no trainer or predictor makes (they read either storage through
    /// [`Self::for_each_row`]); the file writers and tests do.
    pub fn to_csr(&self) -> CsrMatrix {
        match self {
            FeatureMatrix::Sparse(m) => m.clone(),
            FeatureMatrix::Dense(m) => m.to_csr(),
        }
    }

    /// Rows `lo..hi` in the same storage, aliasing this matrix (O(1)).
    pub fn slice_rows(&self, lo: usize, hi: usize) -> FeatureMatrix {
        match self {
            FeatureMatrix::Sparse(m) => FeatureMatrix::Sparse(m.slice_rows(lo, hi)),
            FeatureMatrix::Dense(m) => FeatureMatrix::Dense(m.slice_rows(lo, hi)),
        }
    }

    /// Visits every row's stored values as parallel `(features, values)`
    /// slices, ascending by feature — for either storage exactly the entries
    /// of [`Self::to_csr`], so sketching and binning see one dataset whether
    /// it arrives dense, sparse, or as a shard of either.
    pub fn for_each_row(&self, f: impl FnMut(usize, &[FeatureId], &[f32])) {
        match self {
            FeatureMatrix::Sparse(m) => m.for_each_row(f),
            FeatureMatrix::Dense(m) => m.for_each_row(f),
        }
    }

    /// Bytes of heap storage used.
    pub fn heap_bytes(&self) -> usize {
        match self {
            FeatureMatrix::Sparse(m) => m.heap_bytes(),
            FeatureMatrix::Dense(m) => m.heap_bytes(),
        }
    }
}

/// A labeled training or validation dataset.
///
/// `n_classes` is 2 for binary classification (labels in {0, 1}), `C ≥ 3`
/// for multi-classification (labels in `0..C`), and 0 for regression
/// (labels unconstrained). This mirrors the paper's taxonomy where the
/// gradient dimension `C` is 1 for binary tasks and the class count for
/// multi-class tasks (§3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Feature matrix (N × D).
    pub features: FeatureMatrix,
    /// One label per instance.
    pub labels: Vec<f32>,
    /// Number of classes (see type-level docs).
    pub n_classes: usize,
    /// Human-readable dataset name (used in experiment output).
    pub name: String,
}

impl Dataset {
    /// Creates a dataset, validating labels against the declared task.
    pub fn new(
        features: FeatureMatrix,
        labels: Vec<f32>,
        n_classes: usize,
        name: impl Into<String>,
    ) -> Result<Self, DataError> {
        if labels.len() != features.n_rows() {
            return Err(DataError::Shape(format!(
                "{} labels for {} instances",
                labels.len(),
                features.n_rows()
            )));
        }
        if n_classes >= 2 {
            for (i, &y) in labels.iter().enumerate() {
                if y < 0.0 || y >= n_classes as f32 || y.fract() != 0.0 {
                    return Err(DataError::Label(format!(
                        "instance {i} has label {y}, expected an integer in 0..{n_classes}"
                    )));
                }
            }
        }
        Ok(Dataset { features, labels, n_classes, name: name.into() })
    }

    /// Number of instances N.
    pub fn n_instances(&self) -> usize {
        self.features.n_rows()
    }

    /// Number of features D.
    pub fn n_features(&self) -> usize {
        self.features.n_cols()
    }

    /// Average number of stored values per instance (the paper's `d`).
    pub fn avg_nnz_per_row(&self) -> f64 {
        if self.n_instances() == 0 {
            0.0
        } else {
            self.features.n_stored() as f64 / self.n_instances() as f64
        }
    }

    /// Rows `lo..hi` as a dataset named `{name}-{suffix}`: the one way a
    /// dataset is cut by rows (hold-out split, worker shard). The cut keeps
    /// the storage it was given — sparse stays CSR, dense stays dense — and
    /// aliases this dataset's feature buffer (O(1), no cell copied). Labels
    /// are copied.
    pub fn slice_rows(&self, lo: usize, hi: usize, suffix: &str) -> Dataset {
        Dataset {
            features: self.features.slice_rows(lo, hi),
            labels: self.labels[lo..hi].to_vec(),
            n_classes: self.n_classes,
            name: format!("{}-{suffix}", self.name),
        }
    }

    /// Splits off the last `fraction` of instances as a validation set.
    ///
    /// Instances are assumed already shuffled (the synthetic generator and
    /// LIBSVM loader both produce i.i.d. order).
    pub fn split_validation(&self, fraction: f64) -> (Dataset, Dataset) {
        assert!((0.0..1.0).contains(&fraction), "fraction must be in [0, 1)");
        let n = self.n_instances();
        let n_valid = ((n as f64) * fraction).round() as usize;
        let cut = n - n_valid;
        (self.slice_rows(0, cut, "train"), self.slice_rows(cut, n, "valid"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrBuilder;

    fn toy(n_classes: usize, labels: Vec<f32>) -> Result<Dataset, DataError> {
        let mut b = CsrBuilder::new(2);
        for _ in 0..labels.len() {
            b.push_row(&[(0, 1.0)]).unwrap();
        }
        Dataset::new(FeatureMatrix::Sparse(b.build()), labels, n_classes, "toy")
    }

    #[test]
    fn label_count_must_match_rows() {
        let mut b = CsrBuilder::new(2);
        b.push_row(&[(0, 1.0)]).unwrap();
        let err = Dataset::new(FeatureMatrix::Sparse(b.build()), vec![0.0, 1.0], 2, "bad");
        assert!(err.is_err());
    }

    #[test]
    fn classification_labels_are_validated() {
        assert!(toy(2, vec![0.0, 1.0]).is_ok());
        assert!(toy(2, vec![0.0, 2.0]).is_err());
        assert!(toy(2, vec![0.5, 1.0]).is_err());
        assert!(toy(3, vec![2.0, 0.0]).is_ok());
        // Regression accepts anything.
        assert!(toy(0, vec![-3.5, 17.0]).is_ok());
    }

    #[test]
    fn split_validation_partitions_instances() {
        let ds = toy(2, vec![0.0, 1.0, 1.0, 0.0, 1.0]).unwrap();
        let (train, valid) = ds.split_validation(0.4);
        assert_eq!(train.n_instances(), 3);
        assert_eq!(valid.n_instances(), 2);
        assert_eq!(valid.labels, vec![0.0, 1.0]);
        assert_eq!(train.n_features(), 2);
    }

    #[test]
    fn avg_nnz_per_row_reports_density() {
        let ds = toy(2, vec![0.0, 1.0]).unwrap();
        assert!((ds.avg_nnz_per_row() - 1.0).abs() < 1e-12);
    }
}
