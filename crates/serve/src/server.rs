//! The serving request loop and atomic model hot-swap.
//!
//! A server rank multiplexes three tag streams off the cluster fabric
//! with [`gbdt_cluster::Comm::recv_any`]: prediction requests, model
//! publishes, and per-client stops. The served model lives in a
//! [`ModelSlot`] — publishing compiles the incoming
//! [`GbdtModel::encode_bytes`] payload *outside* the lock, then swaps an
//! `Arc` under a brief write lock. In-flight scoring holds its own `Arc`
//! clone, so a swap never tears a batch: every response is stamped with
//! the version that actually scored it, and concurrent traffic observes
//! only whole versions (pinned by the hot-swap tests).
//!
//! [`GbdtModel::encode_bytes`]: gbdt_core::model::GbdtModel::encode_bytes

use crate::compile::{compile, CompiledEnsemble};
use crate::exec::{ExecStrategy, Strategy};
use crate::pool;
use crate::wire::{PredictRequest, PredictResponse, PublishAck, ReplyStatus};
use bytes::Bytes;
use gbdt_cluster::comm::protocol::{
    SERVE_PUBLISH_TAG, SERVE_REQUEST_TAG, SERVE_RESPONSE_TAG, SERVE_STOP_TAG,
};
use gbdt_cluster::{Comm, CommError};
use gbdt_core::model::GbdtModel;
use std::sync::{Arc, RwLock};

/// The atomically swappable published model.
///
/// Readers take an `Arc` snapshot ([`ModelSlot::load`]) and score against
/// it for as long as they like; [`ModelSlot::publish`] swaps the slot for
/// new traffic without invalidating snapshots already handed out. The
/// write lock is held only for the pointer swap — compilation happens
/// before acquiring it.
#[derive(Debug)]
pub struct ModelSlot {
    current: RwLock<Arc<CompiledEnsemble>>,
}

/// A poisoned slot lock only means another thread panicked mid-*swap* of
/// a pointer — the `Arc` inside is always a whole, valid ensemble, so
/// serving continues with it rather than cascading the panic.
fn read_slot(lock: &RwLock<Arc<CompiledEnsemble>>) -> Arc<CompiledEnsemble> {
    match lock.read() {
        Ok(guard) => Arc::clone(&guard),
        Err(poisoned) => Arc::clone(&poisoned.into_inner()),
    }
}

impl ModelSlot {
    /// Compiles `model` as version 1 and seats it in the slot.
    pub fn new(model: &GbdtModel) -> Result<Self, String> {
        Self::new_versioned(model, 1)
    }

    /// Compiles `model` under an externally assigned version (replicated
    /// serving: the router owns version numbers so every replica stamps
    /// the same version for the same model).
    pub fn new_versioned(model: &GbdtModel, version: u64) -> Result<Self, String> {
        Ok(ModelSlot { current: RwLock::new(Arc::new(compile(model, version)?)) })
    }

    /// Snapshot of the currently served ensemble.
    pub fn load(&self) -> Arc<CompiledEnsemble> {
        read_slot(&self.current)
    }

    /// Version of the currently served ensemble.
    pub fn version(&self) -> u64 {
        self.load().version
    }

    /// Compiles `model` as the next version and atomically swaps it in;
    /// returns the new version. On a compile error the slot is untouched.
    pub fn publish(&self, model: &GbdtModel) -> Result<u64, String> {
        self.publish_versioned(model, self.version() + 1)
    }

    /// Compiles `model` under an externally assigned version and swaps it
    /// in. A version at or below the currently served one is stale (a
    /// delayed or duplicated publish frame) and is rejected without
    /// touching the slot, so replicas can never move backwards.
    pub fn publish_versioned(&self, model: &GbdtModel, version: u64) -> Result<u64, String> {
        let current = self.version();
        if version <= current {
            return Err(format!("stale publish: version {version} ≤ served {current}"));
        }
        let compiled = Arc::new(compile(model, version)?);
        let mut guard = match self.current.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        // Re-check under the lock: a racing publish may have won.
        if version <= guard.version {
            return Err(format!("stale publish: version {version} ≤ served {}", guard.version));
        }
        *guard = compiled;
        Ok(version)
    }
}

/// How a serving rank scores: strategy × thread budget.
///
/// This is the one knob bundle every serving entry point (the
/// single-rank [`serve`] loop, replicas, the traffic and availability
/// harnesses) constructs its executor from, via [`ServeConfig::executor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Batch execution strategy.
    pub strategy: Strategy,
    /// Scoring threads per request batch: 1 = serial (the default),
    /// 0 = one per available core, N = exactly N scoped workers.
    pub score_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { strategy: Strategy::PerRow, score_threads: 1 }
    }
}

impl ServeConfig {
    /// A serial config for `strategy` (the pre-parallel behavior — what
    /// `Strategy::executor()` alone provides).
    pub fn serial(strategy: Strategy) -> Self {
        ServeConfig { strategy, ..ServeConfig::default() }
    }

    /// Builds the executor this config describes: the strategy, wrapped
    /// for parallel chunk scoring when `score_threads` resolves past 1
    /// (see [`crate::pool`]).
    pub fn executor(&self) -> Box<dyn ExecStrategy + Send + Sync> {
        pool::parallel(self.strategy.executor(), self.score_threads)
    }
}

/// Scores one decoded request against an ensemble snapshot, honoring the
/// degraded-mode tree budget (`max_trees = 0` scores the full ensemble).
/// The response stamps `(version, trees_scored)` — the exact deterministic
/// function that produced the scores — or `Malformed` on a shape mismatch.
pub fn score_request(
    ens: &CompiledEnsemble,
    strategy: &dyn ExecStrategy,
    req: &PredictRequest,
) -> PredictResponse {
    if req.n_features as usize != ens.n_features {
        return PredictResponse::refusal(req.req_id, ReplyStatus::Malformed);
    }
    let budget = req.max_trees as usize;
    let (limit, trees_scored) = if budget == 0 || budget >= ens.n_trees() {
        (usize::MAX, 0u32)
    } else {
        (budget, budget as u32)
    };
    let n_rows = req.n_rows();
    let mut scores = vec![0.0f64; n_rows * ens.n_outputs];
    strategy.predict_prefix_into(ens, &req.rows, limit, &mut scores);
    PredictResponse {
        req_id: req.req_id,
        version: ens.version,
        status: ReplyStatus::Ok,
        trees_scored,
        n_outputs: ens.n_outputs as u32,
        scores,
    }
}

/// What one serving session handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Prediction requests answered.
    pub requests: u64,
    /// Rows scored.
    pub rows: u64,
    /// Successful model publishes.
    pub publishes: u64,
    /// Frames that failed to decode or had a mismatched shape (each is
    /// answered with an empty error response so the client never hangs).
    pub malformed: u64,
    /// Version being served when the loop exited.
    pub last_version: u64,
}

/// Runs the serving loop on this rank until every one of `n_clients`
/// peers has sent a [`SERVE_STOP_TAG`] message.
///
/// Requests are scored with `strategy` against the current [`ModelSlot`]
/// snapshot and answered on [`SERVE_RESPONSE_TAG`]; publishes hot-swap
/// the slot and are acked with the new version. Malformed frames get an
/// empty response (`version = 0`) so a buggy client fails fast instead
/// of deadlocking the mesh.
pub fn serve(
    comm: &Comm,
    slot: &ModelSlot,
    strategy: &dyn ExecStrategy,
    n_clients: usize,
) -> Result<ServerStats, CommError> {
    let tags = [SERVE_REQUEST_TAG, SERVE_PUBLISH_TAG, SERVE_STOP_TAG];
    let mut stats = ServerStats::default();
    let mut stops = 0usize;
    while stops < n_clients {
        let (from, tag, payload) = comm.recv_any(&tags)?;
        if tag == SERVE_STOP_TAG {
            stops += 1;
        } else if tag == SERVE_REQUEST_TAG {
            let ens = slot.load();
            let response = match PredictRequest::decode(&payload) {
                Ok(req) => {
                    let response = score_request(&ens, strategy, &req);
                    if response.status == ReplyStatus::Ok {
                        stats.requests += 1;
                        stats.rows += req.n_rows() as u64;
                    } else {
                        stats.malformed += 1;
                    }
                    response
                }
                Err(_) => {
                    stats.malformed += 1;
                    PredictResponse::refusal(0, ReplyStatus::Malformed)
                }
            };
            comm.send(from, SERVE_RESPONSE_TAG, Bytes::from(response.encode()))?;
        } else {
            // SERVE_PUBLISH_TAG
            let ack = match GbdtModel::decode_bytes(&payload)
                .and_then(|model| slot.publish(&model))
            {
                Ok(version) => {
                    stats.publishes += 1;
                    PublishAck { version }
                }
                Err(_) => {
                    stats.malformed += 1;
                    PublishAck { version: 0 }
                }
            };
            comm.send(from, SERVE_RESPONSE_TAG, Bytes::from(ack.encode()))?;
        }
    }
    stats.last_version = slot.version();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::PerRow;
    use gbdt_cluster::NetworkCostModel;
    use gbdt_core::tree::Tree;
    use gbdt_core::Objective;

    fn stump_model(leaf_left: f64, leaf_right: f64) -> GbdtModel {
        let mut m = GbdtModel::new(Objective::SquaredError, 0.1, 2);
        let mut t = Tree::new(2, 1);
        t.set_internal(0, 0, 0, 0.5, true);
        t.set_leaf(1, vec![leaf_left]);
        t.set_leaf(2, vec![leaf_right]);
        m.trees.push(t);
        m
    }

    #[test]
    fn request_publish_stop_session() {
        let mesh = Comm::mesh(2, NetworkCostModel { latency_s: 0.0, bandwidth_bytes_per_s: 1e9 });
        let mut mesh = mesh.into_iter();
        let (server_comm, client_comm) = (mesh.next().unwrap(), mesh.next().unwrap());
        let slot = ModelSlot::new(&stump_model(1.0, -1.0)).unwrap();

        std::thread::scope(|scope| {
            let slot = &slot;
            let server = scope.spawn(move || serve(&server_comm, slot, &PerRow, 1).unwrap());

            let req = PredictRequest {
                req_id: 9,
                n_features: 2,
                max_trees: 0,
                rows: vec![0.0, 0.0, 1.0, 0.0],
            };
            client_comm.send(0, SERVE_REQUEST_TAG, Bytes::from(req.encode())).unwrap();
            let resp =
                PredictResponse::decode(&client_comm.recv(0, SERVE_RESPONSE_TAG).unwrap())
                    .unwrap();
            assert_eq!(resp.req_id, 9);
            assert_eq!(resp.version, 1);
            assert_eq!(resp.scores, vec![1.0, -1.0]);

            // Hot-swap to a model with flipped leaves.
            let v2 = stump_model(5.0, -5.0);
            client_comm.send(0, SERVE_PUBLISH_TAG, Bytes::from(v2.encode_bytes())).unwrap();
            let ack =
                PublishAck::decode(&client_comm.recv(0, SERVE_RESPONSE_TAG).unwrap()).unwrap();
            assert_eq!(ack.version, 2);

            client_comm.send(0, SERVE_REQUEST_TAG, Bytes::from(req.encode())).unwrap();
            let resp =
                PredictResponse::decode(&client_comm.recv(0, SERVE_RESPONSE_TAG).unwrap())
                    .unwrap();
            assert_eq!(resp.version, 2);
            assert_eq!(resp.scores, vec![5.0, -5.0]);

            // Malformed request: server answers an error frame, keeps going.
            client_comm.send(0, SERVE_REQUEST_TAG, Bytes::from(vec![1, 2, 3])).unwrap();
            let err =
                PredictResponse::decode(&client_comm.recv(0, SERVE_RESPONSE_TAG).unwrap())
                    .unwrap();
            assert_eq!(err.version, 0);
            assert_eq!(err.status, ReplyStatus::Malformed);

            client_comm.send(0, SERVE_STOP_TAG, Bytes::new()).unwrap();
            let stats = server.join().unwrap();
            assert_eq!(stats.requests, 2);
            assert_eq!(stats.rows, 4);
            assert_eq!(stats.publishes, 1);
            assert_eq!(stats.malformed, 1);
            assert_eq!(stats.last_version, 2);
        });
    }

    #[test]
    fn serve_config_parallel_session_is_bit_identical() {
        // A large batch through a live session with score_threads=4 must
        // produce exactly the serial bits.
        let model = stump_model(1.5, -2.5);
        let slot = ModelSlot::new(&model).unwrap();
        let n_rows = 200usize;
        let rows: Vec<f32> = (0..n_rows * 2).map(|i| (i as f32 * 0.37).sin()).collect();
        let req = PredictRequest { req_id: 1, n_features: 2, max_trees: 0, rows };
        let serial = score_request(&slot.load(), &PerRow, &req);

        let cfg = ServeConfig { strategy: Strategy::Blocked(0), score_threads: 4 };
        let executor = cfg.executor();
        assert_eq!(executor.label(), "blocked+t4");

        let mesh = Comm::mesh(2, NetworkCostModel { latency_s: 0.0, bandwidth_bytes_per_s: 1e9 });
        let mut mesh = mesh.into_iter();
        let (server_comm, client_comm) = (mesh.next().unwrap(), mesh.next().unwrap());
        std::thread::scope(|scope| {
            let slot = &slot;
            let executor = executor.as_ref();
            let server =
                scope.spawn(move || serve(&server_comm, slot, executor, 1).unwrap());
            client_comm.send(0, SERVE_REQUEST_TAG, Bytes::from(req.encode())).unwrap();
            let resp =
                PredictResponse::decode(&client_comm.recv(0, SERVE_RESPONSE_TAG).unwrap())
                    .unwrap();
            let same = serial
                .scores
                .iter()
                .zip(&resp.scores)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "parallel session diverged from serial scoring");
            client_comm.send(0, SERVE_STOP_TAG, Bytes::new()).unwrap();
            let stats = server.join().unwrap();
            assert_eq!(stats.rows, n_rows as u64);
        });
    }

    #[test]
    fn slot_snapshots_survive_publish() {
        let slot = ModelSlot::new(&stump_model(1.0, -1.0)).unwrap();
        let snapshot = slot.load();
        assert_eq!(slot.publish(&stump_model(2.0, -2.0)).unwrap(), 2);
        // The pre-publish snapshot is still whole and scoreable.
        assert_eq!(snapshot.version, 1);
        let mut out = [0.0f64];
        PerRow.predict_into(&snapshot, &[0.0, 0.0], &mut out);
        assert_eq!(out, [1.0]);
        assert_eq!(slot.version(), 2);
        // A broken publish leaves the slot serving the old version.
        let mut broken = stump_model(0.0, 0.0);
        broken.init_scores.clear();
        assert!(slot.publish(&broken).is_err());
        assert_eq!(slot.version(), 2);
        // Versioned publish: stale (≤ current) rejected, forward jumps land.
        assert!(slot.publish_versioned(&stump_model(3.0, -3.0), 2).is_err());
        assert_eq!(slot.publish_versioned(&stump_model(3.0, -3.0), 7).unwrap(), 7);
        assert_eq!(slot.version(), 7);
    }
}
