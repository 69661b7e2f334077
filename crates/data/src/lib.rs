//! Dataset management substrate for the GBDT reproduction.
//!
//! The paper's central observation is that a training dataset is a
//! two-dimensional matrix that can be *partitioned* (by rows or by columns)
//! and *stored* (row-wise or column-wise) independently, and that the choice
//! matters enormously for distributed GBDT. This crate provides every storage
//! structure that analysis touches:
//!
//! * [`sparse`] — CSR sparse matrices: raw feature values as a row-store
//!   (the column-store of the paper's §1 exists only binned, below).
//! * [`dense`] — dense row-major matrices for low-dimensional dense datasets
//!   (the SUSY / Higgs / Criteo / Epsilon class of workloads).
//! * [`dataset`] — labeled dataset abstraction shared by all trainers.
//! * [`libsvm`] — LIBSVM-format reader/writer (the format the paper's public
//!   datasets ship in).
//! * [`synthetic`] — the paper's §5.2 synthetic workload generator (random
//!   linear regression model) plus shape presets for every dataset used in
//!   the evaluation (Tables 2, 4).
//! * [`binned`] — bin-encoded matrices used after quantization: `BinnedRows`
//!   (row-store of 〈feature, bin〉 pairs) and `BinnedColumns` (column-store).
//! * [`pairs`] — the packed key both hold a sparse pair as: `(id << b) | bin`
//!   in the narrowest of `u16`/`u32`/`u64`.
//! * [`dense_binned`] — dense bin-encoded matrices (one u8/u16 cell per
//!   `(row, feature)` with a missing sentinel) and the `BinnedStore`/
//!   `ColumnStore` wrappers that pick dense vs sparse by density.
//! * [`block`] — blockified column groups (paper §4.2.3, Figure 9): the
//!   block a transformation sender ships, and the assembly that decodes the
//!   received blocks into the keys of one `BinnedRows` per worker.
//! * [`encoding`] — key-value pair encodings: naïve 12-byte pairs vs the
//!   compact ⌈log p⌉ / ⌈log q⌉ byte encoding of §4.2.1 step 3.
//! * [`frame`] — the checked reader and the one error every frame decoder
//!   of the workspace uses.

pub mod binned;
pub mod block;
pub mod dense_binned;
pub mod dataset;
pub mod dense;
pub mod encoding;
pub mod error;
pub mod frame;
#[doc(hidden)]
pub mod hostile;
pub mod libsvm;
pub mod pairs;
pub mod sparse;
pub mod synthetic;

pub use binned::{BinnedColumns, BinnedRows};
pub use block::Block;
pub use dense_binned::{
    dense_at_density, BinPack, BinWidth, BinnedStore, ColumnStore, DenseBinnedColumns,
    DenseBinnedRows, DEFAULT_DENSE_THRESHOLD,
};
pub use dataset::{Dataset, FeatureMatrix};
pub use dense::DenseMatrix;
pub use error::DataError;
pub use pairs::{PairKey, PairKeys};
pub use sparse::CsrMatrix;

/// Index of a training instance (row of the dataset matrix).
pub type InstanceId = u32;
/// Index of a feature (column of the dataset matrix).
pub type FeatureId = u32;
/// Index of a histogram bin a feature value was quantized into.
///
/// The number of candidate splits `q` is "generally a small integer"
/// (paper §4.2.1); `u16` allows up to 65 535 bins which is far beyond any
/// practical sketch resolution.
pub type BinId = u16;
