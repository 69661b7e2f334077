//! The four data-management quadrants of distributed GBDT — one code base.
//!
//! The paper's Figure 1 organizes distributed GBDT systems by data
//! partitioning × data storage:
//!
//! | | column-store | row-store |
//! |---|---|---|
//! | **horizontal** | QD1 (XGBoost) | QD2 (LightGBM, DimBoost) |
//! | **vertical** | QD3 (Yggdrasil) | QD4 (**Vero**, this work) |
//!
//! Every trainer here shares the identical GBDT mathematics from
//! `gbdt-core` (histograms, Eq. 1/2 split finding, losses) and the identical
//! cluster substrate from `gbdt-cluster`; they differ *only* in how the data
//! is partitioned, stored, indexed, and which communication pattern moves
//! histograms or placements — which is precisely the controlled comparison
//! of the paper's §5.2.
//!
//! * [`single`] — single-node reference trainer (ground truth for the
//!   cross-quadrant equivalence tests).
//! * [`qd1`] — horizontal + column-store, instance-to-node index (one scan
//!   of it places a whole layer), all-reduce.
//! * [`qd2`] — horizontal + row-store, node-to-instance index, histogram
//!   subtraction; aggregation: all-reduce, reduce-scatter (LightGBM) or
//!   parameter-server (DimBoost). Its rows are scanned and looked up by the
//!   same code as QD4's column group.
//! * [`qd3`] — vertical + column-store with the hybrid index plan of §5.2.2.
//! * [`qd4`] — vertical + row-store: **Vero's** trainer.
//! * [`yggdrasil`] — vertical + column-store with a column-wise
//!   node-to-instance index (Appendix C).
//! * [`featpar`] — LightGBM's feature-parallel mode: full replica per
//!   worker (Appendix D).
//! * `grow` — the one per-tree / per-layer loop every distributed trainer
//!   above runs, and the `Quadrant` policy trait through which they differ
//!   (root / build / propose / apply); `vertical` — the one policy QD3,
//!   QD4, Yggdrasil and feature-parallel share, parametrised by storage (a
//!   `GroupStore`: a node's histogram fill and a per-instance `bin`
//!   lookup). The row-store's impl is the paper's row-store under both
//!   partitionings. Every policy holds its histograms in a `HistogramPool`.
//! * [`common`] — what policies share besides the loop: result types, the
//!   horizontal root all-reduce, the local-best exchange, wire accounting.
//! * [`System`] — the one system table: each compared system as a row
//!   naming its cell of the grid above and the trainer that runs it.

pub mod common;
pub mod featpar;
mod grow;
pub mod qd1;
pub mod qd2;
pub mod qd3;
pub mod qd4;
pub mod single;
mod system;
mod vertical;
pub mod yggdrasil;

pub use common::{Aggregation, DistTrainResult, TreeStat};
pub use system::System;
