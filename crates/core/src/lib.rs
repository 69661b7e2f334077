//! GBDT algorithm core.
//!
//! Everything in this crate is *data-management agnostic*: the same
//! histograms, split finding, trees, and losses are shared by all four
//! quadrant trainers (paper §5.2: "we implement different partitioning
//! schemes and storage patterns in the same code base"). The crate covers:
//!
//! * [`config`] — training hyper-parameters (T trees, L layers, q candidate
//!   splits, η, λ, γ — the symbols of §2.1 / §5.1).
//! * [`sketch`] — mergeable quantile sketch for candidate split proposal
//!   (§2.1.2: "the most common approach … is using the quantile sketch").
//! * [`binning`] — candidate splits per feature and value → bin mapping.
//! * [`loss`] — second-order objectives: squared error, logistic, softmax,
//!   and the power-of-two grid that makes every gradient sum exact.
//! * [`gradients`] — flat first-/second-order gradient buffers.
//! * [`histogram`] — gradient histograms with element-wise merge and the
//!   histogram **subtraction** technique (§2.1.2).
//! * [`split`] — split gain (Eq. 2), leaf weights (Eq. 1), missing-value
//!   default direction.
//! * [`tree`] / [`model`] — the decision tree and boosted ensemble.
//! * [`indexes`] — the three tree-node/instance index structures of §3.2.1.
//! * [`metrics`] — AUC, accuracy, RMSE, log-loss.
//! * [`kernels`] — storage-specialized histogram-build kernels (dense row
//!   and column scans, `C = 1` fast path, explicit SIMD lane fills in the
//!   one audited `kernels::simd` unsafe module) that are bit-identical to
//!   the sparse pair walk.

pub mod binning;
pub mod config;
pub mod gradients;
pub mod histogram;
pub mod indexes;
pub mod kernels;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod sketch;
pub mod split;
pub mod tree;

pub use binning::BinCuts;
pub use config::{Kernel, Storage, TrainConfig, WireCodec};
pub use gradients::{GradBuffer, GradPair};
pub use histogram::NodeHistogram;
pub use loss::Objective;
pub use model::GbdtModel;
pub use sketch::QuantileSketch;
pub use split::{NodeStats, Split, SplitParams};
pub use tree::{NodeKind, Tree, TreeNode};
