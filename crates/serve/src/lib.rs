//! Inference serving engine (`gbdt-serve`).
//!
//! Training is half of a production GBDT system; this crate is the other
//! half — scoring trained ensembles at high request rates. Following
//! *A Comparison of Decision Forest Inference Platforms from A Database
//! Perspective*, inference is framed as a query-execution problem:
//!
//! * [`compile`] lowers a [`gbdt_core::model::GbdtModel`] into a
//!   [`CompiledEnsemble`] — every tree flattened breadth-first into a
//!   contiguous array of 16-byte [`compile::FlatNode`]s (packed
//!   feature/default-direction, threshold, child offset, leaf payload),
//!   with leaf values pooled separately and leaves compiled as
//!   self-looping nodes so traversal needs no `is_leaf` branch.
//! * [`exec`] provides two interchangeable execution strategies behind
//!   one trait: per-row traversal with 4-way tree interleaving
//!   ([`exec::PerRow`]) and blocked batch evaluation ([`exec::Blocked`])
//!   that streams row tiles through L1-resident tree blocks — the
//!   database-style strategy whose win/loss crossover against per-row
//!   moves with batch size and tree count.
//! * [`pool`] parallelizes batch scoring inside a rank: a deterministic
//!   scoped thread pool splits a request into fixed 64-row chunks with
//!   disjoint output slices (`score_threads` knob in
//!   [`avail::AvailConfig`]), bit-identical at every thread count.
//! * [`server`] holds the atomically swappable model
//!   ([`server::ModelSlot`]): a trainer publishes
//!   [`GbdtModel::encode_bytes`] payloads and in-flight traffic only ever
//!   observes fully the old or fully the new version.
//!
//! Serving runs over the `gbdt-cluster` byte-message fabric as a
//! **router group** ([`router`], [`replica`], [`avail`]); a single server
//! is the group with one replica. Rank 0 routes client requests over the
//! replica ranks with per-request deadlines, bounded retries, one hedged
//! backup after a p99-derived delay (duplicates suppressed by routing id),
//! typed load-shedding over bounded inflight queues, optional
//! degraded-mode tree-prefix scoring past the high-water mark, and
//! heartbeat-driven failover with crash recovery + resync. The
//! availability harness ([`avail::run_avail`]) drives open-loop or
//! closed-loop clients, ledgers every request as served / degraded /
//! shed / failed under an optional seeded
//! [`FaultPlan`](gbdt_cluster::FaultPlan), and verifies each response
//! bit-exactly against its stamped `(version, trees_scored)`.
//!
//! Every strategy is bit-identical to [`GbdtModel::predict_row_into`]:
//! scores accumulate in ascending tree order from the same init scores,
//! so the f64 addition sequence — and therefore every output bit — is
//! unchanged. `tests/serve_equivalence.rs` pins this across all seven
//! trainers and Vero.
//!
//! [`GbdtModel::encode_bytes`]: gbdt_core::model::GbdtModel::encode_bytes
//! [`GbdtModel::predict_row_into`]: gbdt_core::model::GbdtModel::predict_row_into

pub mod avail;
pub mod compile;
pub mod exec;
pub mod pool;
pub mod replica;
pub mod router;
pub mod server;
pub mod stats;
pub mod wire;

pub use avail::{run_avail, AvailConfig};
pub use compile::CompiledEnsemble;
pub use exec::{Blocked, ExecStrategy, PerRow, Strategy};
pub use replica::{run_replica, ReplicaConfig, ReplicaStats, ROUTER_RANK};
pub use router::{run_router, RouterConfig, RouterStats};
pub use server::ModelSlot;
pub use stats::AvailRun;
