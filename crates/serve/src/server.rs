//! What every serving replica holds and does per request: the atomically
//! swappable model and the one scoring step.
//!
//! The served model lives in a [`ModelSlot`] — publishing compiles the
//! incoming [`GbdtModel::encode_bytes`] payload *outside* the lock, then
//! swaps an `Arc` under a brief write lock. In-flight scoring holds its own
//! `Arc` clone, so a swap never tears a batch: [`score_request`] stamps
//! every response with the version that actually scored it, and concurrent
//! traffic observes only whole versions (pinned by the hot-swap tests).
//! The frame loop around them is [`crate::replica`]; a single server is a
//! router group of one replica.
//!
//! [`GbdtModel::encode_bytes`]: gbdt_core::model::GbdtModel::encode_bytes

use crate::compile::{compile, CompiledEnsemble};
use crate::exec::ExecStrategy;
use crate::wire::{PredictRequest, PredictResponse, ReplyStatus};
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::PerRow;
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
