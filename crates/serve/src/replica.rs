//! One serving replica in a replicated group.
//!
//! A replica rank holds the compiled ensemble in a [`ModelSlot`] and
//! answers frames from the router (never directly from clients): routed
//! prediction requests, router-versioned model publishes
//! ([`PublishFrame`]), health pings, and stop. Crashes come from the
//! mesh's [`FaultPlan`]: before handling each frame the loop polls
//! [`FaultPlan::serve_crash_at`] against its cumulative frame ordinal,
//! and a hit unwinds the loop as [`ReplicaExit::Crashed`]. The
//! supervising wrapper ([`run_replica`]) then simulates the process
//! dying and restarting — it sleeps the recovery delay, **purges** every
//! queued and buffered frame (a dead process loses its socket buffers),
//! announces itself with a [`ToRouter::Recover`] frame, and reseats
//! whatever model the router sends back before rejoining the group.
//! Versions are always router-assigned, so a replica that slept through a
//! publish can never stamp a response with a version that means something
//! different on a sibling replica.
//!
//! [`FaultPlan`]: gbdt_cluster::FaultPlan
//! [`FaultPlan::serve_crash_at`]: gbdt_cluster::FaultPlan::serve_crash_at

use crate::exec::ExecStrategy;
use crate::inbox::{to_router, ToReplica, ToRouter};
use crate::server::{score_request, ModelSlot};
use crate::wire::{PredictRequest, PublishAck, PublishFrame};
use bytes::Bytes;
use gbdt_cluster::{Comm, CommError};
use std::time::Duration;

/// Rank of the router in a replicated serving mesh.
pub const ROUTER_RANK: usize = 0;

/// How long a crashed replica stays dead before recovering (real time —
/// the router must observe the outage).
const RECOVERY_DELAY: Duration = Duration::from_millis(30);
/// Receive patience per poll of the frame loop.
const TICK: Duration = Duration::from_millis(5);
/// Give up recovering if the router doesn't resync a model within this
/// many ticks (the run is ending or the router is gone).
const MAX_RESYNC_TICKS: usize = 400;

/// What one replica session handled (accumulated across crash cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaStats {
    /// Routed requests scored and answered.
    pub requests: u64,
    /// Rows scored.
    pub rows: u64,
    /// Requests answered from a degraded tree-prefix budget.
    pub degraded: u64,
    /// Model publishes applied (stale ones are skipped, not counted).
    pub publishes: u64,
    /// Publish frames skipped as stale (version ≤ served).
    pub stale_publishes: u64,
    /// Injected crashes survived.
    pub crashes: u64,
    /// Frames that failed to decode.
    pub malformed: u64,
    /// Replies/acks/pongs that could not be sent (lossy plan exhausted
    /// the retry budget); the router's deadline machinery covers these.
    pub send_failures: u64,
    /// Version being served when the loop exited.
    pub last_version: u64,
}

/// Why the inner frame loop returned.
enum LoopExit {
    /// Router said stop; the session is over.
    Stopped,
    /// An injected crash fired; the wrapper should run recovery.
    Crashed,
}

/// Answers `payload` frames until a stop or an injected crash.
///
/// `frames_handled` is the replica's cumulative frame ordinal across
/// crash cycles; [`FaultPlan::serve_crash_at`] is polled against it
/// before each frame so a `crash=R@K` plan entry fires exactly once.
///
/// [`FaultPlan::serve_crash_at`]: gbdt_cluster::FaultPlan::serve_crash_at
fn replica_loop(
    comm: &Comm,
    slot: &ModelSlot,
    strategy: &dyn ExecStrategy,
    stats: &mut ReplicaStats,
    frames_handled: &mut usize,
) -> Result<LoopExit, CommError> {
    comm.set_recv_patience(TICK);
    loop {
        let (from, frame, payload) = match comm.recv_any(ToReplica::ALL) {
            Ok(frame) => frame,
            Err(CommError::Timeout { .. }) => continue,
            Err(e) => return Err(e),
        };
        if from != ROUTER_RANK {
            // Replicas only talk to the router; a stray client frame is a
            // protocol bug upstream, not this replica's problem.
            stats.malformed += 1;
            continue;
        }
        if let Some(plan) = comm.faults() {
            if plan.serve_crash_at(comm.rank(), *frames_handled) {
                // Count the fatal frame so this crash point never re-fires
                // after recovery (the frame itself is lost with the purge).
                *frames_handled += 1;
                stats.crashes += 1;
                return Ok(LoopExit::Crashed);
            }
        }
        *frames_handled += 1;
        match frame {
            ToReplica::Stop => return Ok(LoopExit::Stopped),
            ToReplica::HealthPing => {
                let pong = PublishAck { version: slot.version() }.encode();
                if to_router(comm, ToRouter::HealthPong, Bytes::from(pong)).is_err() {
                    stats.send_failures += 1;
                }
            }
            ToReplica::Route => match PredictRequest::decode(&payload) {
                Ok(req) => {
                    let ens = slot.load();
                    let response = score_request(&ens, strategy, &req);
                    stats.requests += 1;
                    stats.rows += req.n_rows() as u64;
                    if response.trees_scored > 0 {
                        stats.degraded += 1;
                    }
                    if to_router(comm, ToRouter::Reply, Bytes::from(response.encode())).is_err() {
                        stats.send_failures += 1;
                    }
                }
                Err(_) => stats.malformed += 1,
            },
            ToReplica::Publish => {
                handle_publish(comm, slot, &payload, stats);
            }
        }
    }
}

/// Seats a router-versioned publish frame, counts it and acks the version
/// now served. A stale frame (version ≤ served — a delayed or re-sent
/// frame) is skipped but still acked; one that does not decode or seat is
/// counted malformed and not acked. Returns whether it was acked.
fn handle_publish(comm: &Comm, slot: &ModelSlot, payload: &[u8], stats: &mut ReplicaStats) -> bool {
    let seated = PublishFrame::decode(payload).ok().and_then(|frame| {
        if frame.version <= slot.version() {
            return Some(false);
        }
        let model = gbdt_core::model::GbdtModel::decode_bytes(&frame.model_bytes).ok()?;
        slot.publish_versioned(&model, frame.version).ok()?;
        Some(true)
    });
    match seated {
        Some(true) => stats.publishes += 1,
        Some(false) => stats.stale_publishes += 1,
        None => {
            stats.malformed += 1;
            return false;
        }
    }
    let ack = PublishAck { version: slot.version() }.encode();
    if to_router(comm, ToRouter::Ack, Bytes::from(ack)).is_err() {
        stats.send_failures += 1;
    }
    true
}

/// Runs one replica for the whole session, supervising crash cycles.
///
/// Returns the accumulated stats when the router stops the group, or the
/// first unrecoverable comm error.
pub fn run_replica(
    comm: &Comm,
    slot: &ModelSlot,
    strategy: &dyn ExecStrategy,
) -> Result<ReplicaStats, CommError> {
    let mut stats = ReplicaStats::default();
    let mut frames_handled = 0usize;
    loop {
        match replica_loop(comm, slot, strategy, &mut stats, &mut frames_handled)? {
            LoopExit::Stopped => {
                stats.last_version = slot.version();
                return Ok(stats);
            }
            LoopExit::Crashed => {
                // Dead: whatever was parked in our buffers dies with us.
                std::thread::sleep(RECOVERY_DELAY);
                comm.purge_pending();
                // Rejoin: announce, then wait for the router to resync the
                // current model (it may already be ours if the crash hit
                // after the last publish was applied — that frame comes
                // back stale and is skipped). The announcement is re-sent
                // periodically in case a lossy plan ate it.
                let mut resynced = false;
                for tick in 0..MAX_RESYNC_TICKS {
                    if tick % 50 == 0 {
                        match to_router(comm, ToRouter::Recover, Bytes::new()) {
                            Ok(()) => {}
                            Err(CommError::PeerGone { .. }) => {
                                // The router is gone (session torn down
                                // mid-recovery); nothing left to rejoin.
                                stats.last_version = slot.version();
                                return Ok(stats);
                            }
                            Err(_) => stats.send_failures += 1,
                        }
                    }
                    match comm.recv_any(&[ToReplica::Publish, ToReplica::Stop]) {
                        Ok((from, frame, payload)) if from == ROUTER_RANK => {
                            if frame == ToReplica::Stop {
                                stats.last_version = slot.version();
                                return Ok(stats);
                            }
                            frames_handled += 1;
                            if handle_publish(comm, slot, &payload, &mut stats) {
                                resynced = true;
                                break;
                            }
                        }
                        Ok(_) => stats.malformed += 1,
                        Err(CommError::Timeout { .. }) => continue,
                        Err(e) => return Err(e),
                    }
                }
                if !resynced {
                    // The router never resynced us — the session is likely
                    // over; exit cleanly with what we have.
                    stats.last_version = slot.version();
                    return Ok(stats);
                }
            }
        }
    }
}
