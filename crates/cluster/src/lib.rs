//! Simulated distributed substrate for the GBDT reproduction.
//!
//! The paper runs on Spark clusters; Rust has no mature distributed ML
//! framework, so this crate provides the substitute documented in
//! `DESIGN.md`: a *cluster-in-a-process*. Each worker is a real OS thread
//! with a private [`comm::Comm`] endpoint; workers exchange **serialized
//! byte messages** over channels, so every byte count the cost analysis
//! depends on is exact. Because channel transfers on one machine take
//! microseconds, network *transfer time* is modelled by a configurable
//! [`cost::NetworkCostModel`] (default 1 Gbps / 0.1 ms, matching the paper's
//! §5.1 lab cluster), while *computation time* is measured wall-clock per
//! worker. The two are reported separately everywhere (Figure 10's
//! Comp/Comm breakdown).
//!
//! * [`cost`] — latency + bandwidth transfer-time model.
//! * [`comm`] — point-to-point endpoint with tag matching and byte
//!   accounting.
//! * [`collectives`] — broadcast, gather, all-gather and the one sharded
//!   reduction, the parameter-server push (DimBoost, §4.1): all-reduce is
//!   the push plus an all-gather of the reduced segments, reduce-scatter the
//!   push alone (the aggregation methods of §3.1.3).
//! * [`wire`] — histogram wire codecs: the lossless grid frame (nonzero
//!   cells as integers of the message's power-of-two unit, raw f64s as the
//!   fallback) and the lossy f32 layouts, used by the codec-aware
//!   collectives.
//! * [`cluster`] — scoped-thread harness running one closure per worker,
//!   with a supervisor that cancels peers on failure and replays crashed
//!   attempts from per-tree checkpoints.
//! * [`fault`] — deterministic seed-driven fault injection (drop / dup /
//!   delay / crash) and the typed [`fault::CommError`].
//! * [`stats`] — per-worker phase timers, byte counters, memory gauges,
//!   retry/recovery accounting.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cluster;
pub mod collectives;
pub mod comm;
pub mod cost;
pub mod fault;
pub mod stats;
pub mod wire;

pub use cluster::{Cluster, WorkerCtx};
pub use comm::{protocol, Comm, Tag};
pub use cost::NetworkCostModel;
pub use fault::{CommError, FaultPlan, InjectedCrash};
pub use stats::{Phase, WorkerStats};
pub use wire::WireCodec;
