//! Data management policies: how the dataset matrix is split across workers.
//!
//! * [`horizontal`] — row sharding (QD1/QD2; how data arrives from HDFS).
//! * [`vertical`] — column grouping strategies: round-robin, hash, range,
//!   and the greedy load-balanced assignment of §4.2.3.
//! * [`balance`] — greedy multiway number partitioning (the NP-hard feature
//!   assignment heuristic the paper solves greedily).
//! * [`bitmap`] — instance-placement bitmap broadcast after node splitting
//!   (§4.2.2, the 32× network reduction).
//! * [`transform`] — the five-step horizontal-to-vertical transformation of
//!   §4.2.1 (Figure 8) with naïve / compressed / blockified wire variants
//!   (Appendix A, Table 5).

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod balance;
pub mod bitmap;
pub mod horizontal;
pub mod transform;
pub mod vertical;

pub use bitmap::PlacementBitmap;
pub use horizontal::HorizontalPartition;
pub use vertical::{ColumnGrouping, GroupingStrategy};
