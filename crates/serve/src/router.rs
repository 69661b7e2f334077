//! The serving-plane router: failover, hedging, shedding, degradation.
//!
//! Rank [`ROUTER_RANK`] fronts a replica group. Clients talk only to it;
//! it spreads their requests over the healthy replicas and owns every
//! reliability decision:
//!
//! * **Failover** — each forwarded request carries a per-attempt
//!   deadline; an expired attempt strikes the replica it was on and the
//!   request is retried on the next healthy replica, up to
//!   `RETRY_BUDGET` (3) attempts before the client gets a
//!   typed `Failed` response. Enough strikes (or a send failure, or a
//!   missed heartbeat) mark a replica `Down`; a heartbeat pong or a
//!   [`ToRouter::Recover`] announcement brings it back.
//! * **Hedging** — an outstanding first attempt older than a
//!   p99-derived delay (never below `HEDGE_FLOOR`, 25 ms) gets
//!   one backup copy on a different replica. Whichever reply lands first
//!   wins; the loser is suppressed by its router-assigned request id, so
//!   a hedge can never double-count.
//! * **Shedding** — per-replica inflight counters are the bounded queue;
//!   when every healthy replica is at [`RouterConfig::queue_cap`] the
//!   request is refused with a typed `Shed` response instead of being
//!   buffered without bound.
//! * **Degradation** — past [`RouterConfig::high_water`] inflight, the
//!   forwarded request carries a tree-prefix budget
//!   ([`RouterConfig::degrade_trees`]); the replica's response is
//!   stamped `(version, trees_scored)` so degraded scores stay exactly
//!   verifiable — a deterministic prefix, not a best-effort guess.
//! * **Versioning** — publishes flow through the router, which assigns
//!   the version number and re-broadcasts the model to every healthy
//!   replica (recovering or lagging replicas are resynced on their next
//!   recover/pong), so a version stamp means the same model everywhere.
//!
//! Only the three overload knobs are settable ([`RouterConfig`]): they are
//! what a workload varies. Every other timing is a constant below.
//!
//! All wall-clock reads go through [`crate::stats::Clock`] — the scoring
//! path stays clock-free and the clippy allowance stays narrow.

use crate::inbox::{to_client, to_replica, ToClient, ToReplica, ToRouter};
use crate::replica::ROUTER_RANK;
use crate::stats::{percentile, Clock};
use crate::wire::{PredictRequest, PredictResponse, PublishAck, PublishFrame, ReplyStatus};
use bytes::Bytes;
use gbdt_cluster::{Comm, CommError};
use std::collections::BTreeMap;
use std::time::Duration;

/// The overload knobs of the routing policy.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Per-replica inflight bound; past it on every healthy replica the
    /// request is shed.
    pub queue_cap: usize,
    /// Inflight level at which forwarded requests switch to the degraded
    /// tree-prefix budget (`0` disables degraded mode).
    pub high_water: usize,
    /// Trees scored per output in degraded mode.
    pub degrade_trees: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { queue_cap: 32, high_water: 24, degrade_trees: 0 }
    }
}

/// Per-attempt deadline before a request fails over.
pub(crate) const DEADLINE: Duration = Duration::from_millis(120);
/// Max scoring attempts per request (first + retries).
pub(crate) const RETRY_BUDGET: usize = 3;
/// Hedge delay floor; the actual delay is `max(floor, p99)` over a sliding
/// window of completed latencies.
const HEDGE_FLOOR: Duration = Duration::from_millis(25);
/// Deadline strikes that mark a replica `Down`.
const STRIKE_LIMIT: u32 = 2;
/// Heartbeat ping period.
const PING_INTERVAL: Duration = Duration::from_millis(40);
/// `Up` replicas missing pongs for this long go `Down`.
const PONG_TIMEOUT: Duration = Duration::from_millis(400);
/// Event-loop receive patience (the sweep tick).
const TICK: Duration = Duration::from_millis(2);

/// What one routing session did — the availability ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Requests answered with scores (full or degraded).
    pub served: u64,
    /// Requests answered from a degraded tree-prefix.
    pub degraded: u64,
    /// Requests refused with `Shed` (all queues at capacity).
    pub shed: u64,
    /// Requests that exhausted the retry budget and failed.
    pub failed: u64,
    /// Requests that completed only after at least one failover retry.
    pub failed_over: u64,
    /// Failover retries issued.
    pub retries: u64,
    /// Hedged backup requests issued.
    pub hedges: u64,
    /// Replica replies discarded because their request was already
    /// answered (hedge losers, post-failover stragglers, dup frames).
    pub duplicates_suppressed: u64,
    /// Publishes accepted and broadcast.
    pub publishes: u64,
    /// Replica recoveries observed ([`ToRouter::Recover`] announcements).
    pub recoveries: u64,
    /// Replicas marked `Down` (strikes, send failures, missed pongs).
    pub downs: u64,
    /// Frames that failed to decode.
    pub malformed: u64,
    /// Responses/acks that could not be delivered to their client.
    pub response_send_failures: u64,
    /// Version current when the session ended.
    pub last_version: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Up,
    Down,
}

struct Replica {
    rank: usize,
    health: Health,
    inflight: usize,
    strikes: u32,
    last_pong_s: f64,
    /// Version last reported by a pong/ack (for lag-resync decisions).
    version: u64,
}

struct Outstanding {
    client: usize,
    client_req_id: u64,
    req: PredictRequest,
    /// Per-attempt deadline anchor.
    sent_s: f64,
    attempts: usize,
    hedged: bool,
    /// Replicas currently charged an inflight slot for this request.
    charged: Vec<usize>,
    /// Replicas that have ever been tried (preferred-avoid set).
    tried: Vec<usize>,
}

/// Sliding window of completed-request latencies feeding the hedge delay.
const LATENCY_WINDOW: usize = 256;

struct Router<'a> {
    comm: &'a Comm,
    cfg: RouterConfig,
    clock: Clock,
    replicas: Vec<Replica>,
    /// Keyed by router-assigned id, which only grows: the sweep retries
    /// and hedges in request order.
    outstanding: BTreeMap<u64, Outstanding>,
    next_rid: u64,
    version: u64,
    model_bytes: Vec<u8>,
    /// The last [`LATENCY_WINDOW`] completed latencies, a ring whose
    /// oldest sample sits at `next_latency` once it is full.
    latencies_s: Vec<f64>,
    next_latency: usize,
    /// p99 of `latencies_s`, floored; recomputed when a sample lands.
    hedge_delay_s: f64,
    last_ping_s: f64,
    stats: RouterStats,
}

impl<'a> Router<'a> {
    fn new(
        comm: &'a Comm,
        cfg: RouterConfig,
        n_replicas: usize,
        model_bytes: Vec<u8>,
        clock: Clock,
    ) -> Self {
        let replicas = (1..=n_replicas)
            .map(|rank| Replica {
                rank,
                health: Health::Up,
                inflight: 0,
                strikes: 0,
                last_pong_s: clock.elapsed_s(),
                version: 1,
            })
            .collect();
        Router {
            comm,
            cfg,
            clock,
            replicas,
            outstanding: Default::default(),
            next_rid: 1,
            version: 1,
            model_bytes,
            latencies_s: Vec::with_capacity(LATENCY_WINDOW),
            next_latency: 0,
            hedge_delay_s: HEDGE_FLOOR.as_secs_f64(),
            last_ping_s: 0.0,
            stats: RouterStats::default(),
        }
    }

    fn replica_mut(&mut self, rank: usize) -> Option<&mut Replica> {
        self.replicas.iter_mut().find(|r| r.rank == rank)
    }

    fn mark_down(&mut self, rank: usize) {
        if let Some(r) = self.replica_mut(rank) {
            if r.health == Health::Up {
                r.health = Health::Down;
                r.inflight = 0;
                self.stats.downs += 1;
            }
        }
    }

    fn mark_up(&mut self, rank: usize, now_s: f64) {
        if let Some(r) = self.replica_mut(rank) {
            r.health = Health::Up;
            r.strikes = 0;
            r.last_pong_s = now_s;
        }
    }

    /// Healthy replica with the most queue headroom, excluding `avoid`
    /// when possible (retries prefer a replica that hasn't failed them).
    fn pick_replica(&self, avoid: &[usize]) -> Option<usize> {
        let candidate = |skip_avoided: bool| {
            self.replicas
                .iter()
                .filter(|r| r.health == Health::Up && r.inflight < self.cfg.queue_cap)
                .filter(|r| !skip_avoided || !avoid.contains(&r.rank))
                .min_by_key(|r| (r.inflight, r.rank))
                .map(|r| r.rank)
        };
        candidate(true).or_else(|| candidate(false))
    }

    /// Adds a completed latency to the window, replacing the oldest once it
    /// is full, and recomputes the hedge delay: p99 of the window, floored
    /// (the floor alone below 16 samples).
    fn record_latency(&mut self, sample_s: f64) {
        if self.latencies_s.len() < LATENCY_WINDOW {
            self.latencies_s.push(sample_s);
        } else {
            self.latencies_s[self.next_latency] = sample_s;
            self.next_latency = (self.next_latency + 1) % LATENCY_WINDOW;
        }
        if self.latencies_s.len() >= 16 {
            self.hedge_delay_s = percentile(&self.latencies_s, 0.99).max(HEDGE_FLOOR.as_secs_f64());
        }
    }

    /// Sends one attempt of `rid` to `replica`, applying the degraded
    /// budget if the replica is past the high-water mark. Returns `false`
    /// (and downs the replica) if the fabric rejected the send.
    fn forward(&mut self, rid: u64, replica: usize) -> bool {
        let cfg = self.cfg;
        let Some(out) = self.outstanding.get_mut(&rid) else { return false };
        let degraded = cfg.degrade_trees > 0
            && cfg.high_water > 0
            && self
                .replicas
                .iter()
                .find(|r| r.rank == replica)
                .is_some_and(|r| r.inflight >= cfg.high_water);
        let mut req = out.req.clone();
        req.req_id = rid;
        req.max_trees = if degraded { cfg.degrade_trees } else { 0 };
        if !out.tried.contains(&replica) {
            out.tried.push(replica);
        }
        out.charged.push(replica);
        match to_replica(self.comm, replica, ToReplica::Route, Bytes::from(req.encode())) {
            Ok(()) => {
                if let Some(r) = self.replica_mut(replica) {
                    r.inflight += 1;
                }
                true
            }
            Err(_) => {
                if let Some(out) = self.outstanding.get_mut(&rid) {
                    out.charged.retain(|&r| r != replica);
                }
                self.mark_down(replica);
                false
            }
        }
    }

    /// Releases the inflight slots a completed/expired request holds.
    fn release_charges(&mut self, charged: &[usize]) {
        for &rank in charged {
            if let Some(r) = self.replica_mut(rank) {
                r.inflight = r.inflight.saturating_sub(1);
            }
        }
    }

    fn respond(&mut self, client: usize, response: &PredictResponse) {
        let frame = Bytes::from(response.encode());
        if to_client(self.comm, client, ToClient::Response, frame).is_err() {
            self.stats.response_send_failures += 1;
        }
    }

    /// A fresh client request: admit, shed, or fail it.
    fn handle_request(&mut self, client: usize, payload: &[u8], now_s: f64) {
        let req = match PredictRequest::decode(payload) {
            Ok(req) => req,
            Err(_) => {
                self.stats.malformed += 1;
                self.respond(client, &PredictResponse::refusal(0, ReplyStatus::Malformed));
                return;
            }
        };
        let rid = self.next_rid;
        self.next_rid += 1;
        let client_req_id = req.req_id;
        self.outstanding.insert(
            rid,
            Outstanding {
                client,
                client_req_id,
                req,
                sent_s: now_s,
                attempts: 1,
                hedged: false,
                charged: Vec::new(),
                tried: Vec::new(),
            },
        );
        // First attempt; walk the healthy set if sends keep failing.
        while let Some(replica) = self.pick_replica(&[]) {
            if self.forward(rid, replica) {
                return;
            }
        }
        // Nowhere to put it: shed (queues full) or fail (no replica Up).
        self.outstanding.remove(&rid);
        let any_up = self.replicas.iter().any(|r| r.health == Health::Up);
        let status = if any_up { ReplyStatus::Shed } else { ReplyStatus::Failed };
        if status == ReplyStatus::Shed {
            self.stats.shed += 1;
        } else {
            self.stats.failed += 1;
        }
        self.respond(client, &PredictResponse::refusal(client_req_id, status));
    }

    /// A replica's reply: first one wins, stragglers are suppressed.
    fn handle_reply(&mut self, replica: usize, payload: &[u8], now_s: f64) {
        let mut resp = match PredictResponse::decode(payload) {
            Ok(resp) => resp,
            Err(_) => {
                self.stats.malformed += 1;
                return;
            }
        };
        let rid = resp.req_id;
        let Some(out) = self.outstanding.remove(&rid) else {
            self.stats.duplicates_suppressed += 1;
            return;
        };
        self.release_charges(&out.charged);
        if let Some(r) = self.replica_mut(replica) {
            r.strikes = 0;
        }
        self.stats.served += 1;
        if resp.trees_scored > 0 {
            self.stats.degraded += 1;
        }
        if out.attempts > 1 {
            self.stats.failed_over += 1;
        }
        resp.req_id = out.client_req_id;
        self.respond(out.client, &resp);
        // After the response: the hedge delay's sort is off the client's path.
        self.record_latency(now_s - out.sent_s);
    }

    /// A publish from a trainer/client: version it, broadcast, ack.
    fn handle_publish(&mut self, publisher: usize, payload: Vec<u8>) {
        if gbdt_core::model::GbdtModel::decode_bytes(&payload).is_err() {
            self.stats.malformed += 1;
            self.respond_ack(publisher, 0);
            return;
        }
        self.version += 1;
        self.model_bytes = payload;
        self.stats.publishes += 1;
        let frame =
            PublishFrame { version: self.version, model_bytes: self.model_bytes.clone() }
                .encode();
        let up: Vec<usize> = self
            .replicas
            .iter()
            .filter(|r| r.health == Health::Up)
            .map(|r| r.rank)
            .collect();
        for rank in up {
            if to_replica(self.comm, rank, ToReplica::Publish, Bytes::from(frame.clone())).is_err()
            {
                self.mark_down(rank);
            }
        }
        self.respond_ack(publisher, self.version);
    }

    fn respond_ack(&mut self, publisher: usize, version: u64) {
        let ack = PublishAck { version }.encode();
        if to_client(self.comm, publisher, ToClient::Response, Bytes::from(ack)).is_err() {
            self.stats.response_send_failures += 1;
        }
    }

    /// Resyncs `replica` to the current model (recover or lagging pong).
    fn resync(&mut self, replica: usize) {
        let frame =
            PublishFrame { version: self.version, model_bytes: self.model_bytes.clone() }
                .encode();
        if to_replica(self.comm, replica, ToReplica::Publish, Bytes::from(frame)).is_err() {
            self.mark_down(replica);
        }
    }

    /// Deadline, hedge, and heartbeat bookkeeping; runs every tick.
    fn sweep(&mut self, now_s: f64) {
        // Expired attempts: strike their replicas, then retry or fail.
        let deadline_s = DEADLINE.as_secs_f64();
        let expired: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, out)| now_s - out.sent_s >= deadline_s)
            .map(|(&rid, _)| rid)
            .collect();
        for rid in expired {
            let Some(mut out) = self.outstanding.remove(&rid) else { continue };
            let charged = std::mem::take(&mut out.charged);
            self.release_charges(&charged);
            for rank in charged {
                if let Some(r) = self.replica_mut(rank) {
                    r.strikes += 1;
                    if r.strikes >= STRIKE_LIMIT {
                        self.mark_down(rank);
                    }
                }
            }
            if out.attempts >= RETRY_BUDGET {
                self.stats.failed += 1;
                let refusal =
                    PredictResponse::refusal(out.client_req_id, ReplyStatus::Failed);
                self.respond(out.client, &refusal);
                continue;
            }
            out.attempts += 1;
            out.sent_s = now_s;
            self.stats.retries += 1;
            let avoid = out.tried.clone();
            let (client, client_req_id) = (out.client, out.client_req_id);
            self.outstanding.insert(rid, out);
            let mut forwarded = false;
            while let Some(replica) = self.pick_replica(&avoid) {
                if self.forward(rid, replica) {
                    forwarded = true;
                    break;
                }
            }
            if !forwarded {
                self.outstanding.remove(&rid);
                self.stats.failed += 1;
                self.respond(client, &PredictResponse::refusal(client_req_id, ReplyStatus::Failed));
            }
        }

        // Hedges: one backup for slow first attempts.
        let hedge_delay_s = self.hedge_delay_s;
        let hedgeable: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, out)| {
                !out.hedged
                    && now_s - out.sent_s >= hedge_delay_s
                    && now_s - out.sent_s < deadline_s
            })
            .map(|(&rid, _)| rid)
            .collect();
        for rid in hedgeable {
            let avoid = match self.outstanding.get_mut(&rid) {
                Some(out) => {
                    out.hedged = true;
                    out.tried.clone()
                }
                None => continue,
            };
            // Only hedge onto a *different* replica; a second copy on the
            // same struggling one buys nothing.
            if let Some(replica) = self.pick_replica(&avoid) {
                if !avoid.contains(&replica) && self.forward(rid, replica) {
                    self.stats.hedges += 1;
                }
            }
        }

        // Heartbeats.
        if now_s - self.last_ping_s >= PING_INTERVAL.as_secs_f64() {
            self.last_ping_s = now_s;
            let ranks: Vec<usize> = self.replicas.iter().map(|r| r.rank).collect();
            for rank in ranks {
                if to_replica(self.comm, rank, ToReplica::HealthPing, Bytes::new()).is_err() {
                    self.mark_down(rank);
                }
            }
        }
        let pong_timeout_s = PONG_TIMEOUT.as_secs_f64();
        let stale: Vec<usize> = self
            .replicas
            .iter()
            .filter(|r| r.health == Health::Up && now_s - r.last_pong_s > pong_timeout_s)
            .map(|r| r.rank)
            .collect();
        for rank in stale {
            self.mark_down(rank);
        }
    }

    fn run(&mut self, n_clients: usize) -> Result<RouterStats, CommError> {
        self.comm.set_recv_patience(TICK);
        let first_client = self.replicas.len() + 1;
        let mut stops = 0usize;
        while stops < n_clients || !self.outstanding.is_empty() {
            let now_s = self.clock.elapsed_s();
            match self.comm.recv_any(ToRouter::ALL) {
                Ok((from, frame, payload)) => match frame {
                    ToRouter::Stop => stops += 1,
                    // A frame from the wrong side of the group.
                    ToRouter::Request | ToRouter::Publish if from < first_client => {
                        self.stats.malformed += 1;
                    }
                    ToRouter::Reply | ToRouter::Ack | ToRouter::HealthPong | ToRouter::Recover
                        if from == ROUTER_RANK || from >= first_client =>
                    {
                        self.stats.malformed += 1;
                    }
                    ToRouter::Request => self.handle_request(from, &payload, now_s),
                    ToRouter::Reply => self.handle_reply(from, &payload, now_s),
                    ToRouter::Publish => self.handle_publish(from, payload.to_vec()),
                    ToRouter::Ack => {
                        match PublishAck::decode(&payload) {
                            Ok(PublishAck { version }) => {
                                if let Some(r) = self.replica_mut(from) {
                                    r.version = version;
                                }
                            }
                            Err(_) => self.stats.malformed += 1,
                        }
                    }
                    ToRouter::HealthPong => {
                        self.mark_up(from, now_s);
                        match PublishAck::decode(&payload) {
                            Ok(PublishAck { version }) => {
                                if let Some(r) = self.replica_mut(from) {
                                    r.version = version;
                                }
                                if version < self.version {
                                    // Lagging (slept through a publish while
                                    // marked Down): bring it forward.
                                    self.resync(from);
                                }
                            }
                            Err(_) => self.stats.malformed += 1,
                        }
                    }
                    ToRouter::Recover => {
                        self.stats.recoveries += 1;
                        if let Some(r) = self.replica_mut(from) {
                            r.inflight = 0;
                        }
                        self.mark_up(from, now_s);
                        self.resync(from);
                    }
                },
                Err(CommError::Timeout { .. }) => {}
                Err(CommError::PendingOverflow { .. }) => {
                    // Overload shows up as shed requests, not a dead router:
                    // the bound already counted the overflow in comm stats.
                }
                Err(e) => return Err(e),
            }
            self.sweep(self.clock.elapsed_s());
        }
        // Session over: stop every replica.
        for rank in 1..=self.replicas.len() {
            let _ = to_replica(self.comm, rank, ToReplica::Stop, Bytes::new());
        }
        self.stats.last_version = self.version;
        Ok(self.stats)
    }
}

/// Runs the routing event loop on this rank until every one of
/// `n_clients` peers has sent a [`ToRouter::Stop`] frame and no request is
/// outstanding, then stops the replica group.
///
/// The mesh is the router, then the replicas, then the clients: ranks
/// `1..=R` serve, where `R = world − 1 − n_clients`.
///
/// `model_bytes` is the [`GbdtModel::encode_bytes`] payload of the
/// version-1 model every replica was seated with (kept for resyncing
/// recovering replicas).
///
/// [`GbdtModel::encode_bytes`]: gbdt_core::model::GbdtModel::encode_bytes
pub fn run_router(
    comm: &Comm,
    cfg: &RouterConfig,
    model_bytes: Vec<u8>,
    n_clients: usize,
) -> Result<RouterStats, CommError> {
    assert_eq!(comm.rank(), ROUTER_RANK, "router must run on rank 0");
    let n_replicas = comm.world().saturating_sub(1 + n_clients);
    assert!(n_replicas >= 1, "need at least one replica");
    assert!(cfg.queue_cap >= 1, "queue_cap must be positive");
    let clock = Clock::new();
    Router::new(comm, *cfg, n_replicas, model_bytes, clock).run(n_clients)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::PerRow;
    use crate::replica::{run_replica, ReplicaStats};
    use crate::inbox::to_router;
    use crate::server::ModelSlot;
    use gbdt_cluster::comm::MeshControl;
    use gbdt_cluster::{NetworkCostModel, Tag};
    use gbdt_core::model::GbdtModel;
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

    /// Cancels the mesh when the scripted side panics: a replica ignores a
    /// stop from any rank but the router, so a failed script could not end
    /// it otherwise.
    struct CancelOnPanic<'a>(&'a MeshControl);

    impl Drop for CancelOnPanic<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.cancel_all();
            }
        }
    }

    /// One client, the router and one replica, driven frame by frame:
    /// requests are answered by the current version, a publish is acked
    /// with the version the router assigned, and garbage frames are refused
    /// without ending the session or touching the served model. The client
    /// waits at most 2 s for any response, so a router that miscounts its
    /// group fails the test instead of hanging it.
    #[test]
    fn request_publish_stop_session() {
        let cost = NetworkCostModel { latency_s: 0.0, bandwidth_bytes_per_s: 1e9 };
        let (mesh, control) = Comm::mesh_with(3, cost, None);
        let mut mesh = mesh.into_iter();
        let (router_comm, replica_comm, client) =
            (mesh.next().unwrap(), mesh.next().unwrap(), mesh.next().unwrap());
        let v1 = stump_model(1.0, -1.0);
        let slot = ModelSlot::new(&v1).unwrap();
        let cfg = RouterConfig::default();

        client.set_recv_patience(Duration::from_secs(2));

        std::thread::scope(|scope| {
            let slot = &slot;
            let router =
                scope.spawn(move || run_router(&router_comm, &cfg, v1.encode_bytes(), 1).unwrap());
            let replica = scope.spawn(move || run_replica(&replica_comm, slot, &PerRow).unwrap());
            let _cancel = CancelOnPanic(&control);
            let response = |frame, payload: Vec<u8>| {
                to_router(&client, frame, Bytes::from(payload)).unwrap();
                client.recv(ROUTER_RANK, ToClient::Response).unwrap()
            };

            let req = PredictRequest {
                req_id: 9,
                n_features: 2,
                max_trees: 0,
                rows: vec![0.0, 0.0, 1.0, 0.0],
            };
            let resp =
                PredictResponse::decode(&response(ToRouter::Request, req.encode())).unwrap();
            assert_eq!((resp.req_id, resp.version), (9, 1));
            assert_eq!(resp.scores, vec![1.0, -1.0]);

            // Hot-swap to a model with other leaves; the router assigns v2.
            let v2 = stump_model(5.0, -5.0).encode_bytes();
            let ack = PublishAck::decode(&response(ToRouter::Publish, v2)).unwrap();
            assert_eq!(ack.version, 2);

            let resp =
                PredictResponse::decode(&response(ToRouter::Request, req.encode())).unwrap();
            assert_eq!((resp.req_id, resp.version), (9, 2));
            assert_eq!(resp.scores, vec![5.0, -5.0]);

            // Garbage request: a typed refusal, and the session goes on.
            let err = PredictResponse::decode(&response(ToRouter::Request, vec![1, 2, 3])).unwrap();
            assert_eq!((err.version, err.status), (0, ReplyStatus::Malformed));

            // Garbage publish: acked with version 0, v2 stays served.
            let ack = PublishAck::decode(&response(ToRouter::Publish, vec![7; 5])).unwrap();
            assert_eq!(ack.version, 0);

            to_router(&client, ToRouter::Stop, Bytes::new()).unwrap();
            let stats = router.join().unwrap();
            assert!(
                matches!(
                    stats,
                    RouterStats { served: 2, malformed: 2, publishes: 1, last_version: 2, .. }
                ),
                "{stats:?}"
            );
            let replica = replica.join().unwrap();
            assert_eq!((replica.publishes, replica.last_version), (1, 2), "{replica:?}");
        });
    }

    /// Expired requests are retried in the order they arrived: the sweep
    /// re-forwards 64 of them, none charged to a replica, by ascending id.
    #[test]
    fn the_sweep_retries_in_request_order() {
        let mesh = Comm::mesh(2, NetworkCostModel { latency_s: 0.0, bandwidth_bytes_per_s: 1e9 });
        let cfg = RouterConfig { queue_cap: 64, ..RouterConfig::default() };
        let mut router = Router::new(&mesh[0], cfg, 1, Vec::new(), Clock::new());
        for rid in 1..=64 {
            let req = PredictRequest { req_id: rid, n_features: 1, max_trees: 0, rows: vec![0.0] };
            let out = Outstanding {
                client: 0,
                client_req_id: rid,
                req,
                sent_s: 0.0,
                attempts: 1,
                hedged: false,
                charged: Vec::new(),
                tried: Vec::new(),
            };
            router.outstanding.insert(rid, out);
        }
        router.sweep(2.0 * DEADLINE.as_secs_f64());
        let forwarded: Vec<u64> = (0..64)
            .map(|_| mesh[1].recv(0, ToReplica::Route).unwrap())
            .map(|frame| PredictRequest::decode(&frame).unwrap().req_id)
            .collect();
        assert_eq!(forwarded, (1..=64).collect::<Vec<_>>());
    }

    struct Session {
        clean: bool,
        replicas: Vec<ReplicaStats>,
        answered: Vec<Vec<u64>>,
        stray: Vec<usize>,
    }

    /// Runs a `1 + R + C` mesh where every client sends four requests at
    /// once. Returns whether the router ended cleanly, each replica's stats,
    /// the ids answered to each client, and how many replica frames
    /// (routes, pings, publishes, stops) reached each client rank. Nothing
    /// waits forever on a miscounted group: a client gives up after 2 s,
    /// and every replica rank is stopped once the router is done.
    fn session(n_replicas: usize, n_clients: usize) -> Session {
        let world = 1 + n_replicas + n_clients;
        let mesh = Comm::mesh(world, NetworkCostModel { latency_s: 0.0, bandwidth_bytes_per_s: 1e9 });
        let mut mesh = mesh.into_iter();
        let router_comm = mesh.next().unwrap();
        let replica_comms: Vec<Comm> = mesh.by_ref().take(n_replicas).collect();
        let client_comms: Vec<Comm> = mesh.collect();
        let model = stump_model(1.0, -1.0);
        let slots: Vec<ModelSlot> =
            (0..n_replicas).map(|_| ModelSlot::new(&model).unwrap()).collect();
        let bytes = model.encode_bytes();
        // Every request is queued before the router starts, so it sees all
        // of them before any reply and spreads them over every replica.
        for client in &client_comms {
            for req_id in 1..=4 {
                let req = PredictRequest { req_id, n_features: 2, max_trees: 0, rows: vec![0.0; 2] };
                to_router(client, ToRouter::Request, Bytes::from(req.encode())).unwrap();
            }
        }
        std::thread::scope(|scope| {
            let router = scope.spawn(move || {
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_router(&router_comm, &RouterConfig::default(), bytes, n_clients)
                }));
                (matches!(run, Ok(Ok(_))), router_comm)
            });
            let replicas: Vec<_> = replica_comms
                .into_iter()
                .zip(&slots)
                .map(|(comm, slot)| scope.spawn(move || run_replica(&comm, slot, &PerRow).unwrap()))
                .collect();
            let clients: Vec<_> = client_comms
                .into_iter()
                .map(|client| {
                    scope.spawn(move || {
                        // Receives wait at most 20 ms each, and the client
                        // gives up 2 s in: a stream of frames it should never
                        // get cannot hold it.
                        client.set_recv_patience(Duration::from_millis(20));
                        let clock = Clock::new();
                        let (mut answered, mut stray) = (Vec::new(), 0);
                        // The client's own frame, then every frame a
                        // replica accepts, which no client should get.
                        let mut tags = vec![Tag::ServeResponse];
                        tags.extend(ToReplica::ALL.iter().map(|&f| Tag::from(f)));
                        while answered.len() < 4 && clock.elapsed_s() < 2.0 {
                            match client.recv_any(&tags) {
                                Ok((_, Tag::ServeResponse, bytes)) => {
                                    let r = PredictResponse::decode(&bytes).unwrap();
                                    if r.status == ReplyStatus::Ok && r.scores == [1.0] {
                                        answered.push(r.req_id);
                                    }
                                }
                                Ok(_) => stray += 1,
                                Err(_) => {}
                            }
                        }
                        answered.sort_unstable();
                        let _ = to_router(&client, ToRouter::Stop, Bytes::new());
                        (answered, stray, client)
                    })
                })
                .collect();
            let clients: Vec<_> = clients.into_iter().map(|h| h.join().unwrap()).collect();
            let (clean, router_comm) = router.join().unwrap();
            for rank in 1..=n_replicas {
                let _ = to_replica(&router_comm, rank, ToReplica::Stop, Bytes::new());
            }
            let replicas = replicas.into_iter().map(|h| h.join().unwrap()).collect();
            let (answered, stray) = clients
                .into_iter()
                .map(|(answered, stray, client)| {
                    let late = std::iter::from_fn(|| client.recv_any(ToReplica::ALL).ok()).count();
                    (answered, stray + late)
                })
                .unzip();
            Session { clean, replicas, answered, stray }
        })
    }

    /// The router counts its replicas from the mesh: with one replica and
    /// two clients, or two replicas and one client, every request is
    /// answered, every replica rank serves, and no replica frame reaches a
    /// client rank.
    #[test]
    fn replicas_are_the_ranks_between_the_router_and_the_clients() {
        for (n_replicas, n_clients) in [(1, 2), (2, 1)] {
            let run = session(n_replicas, n_clients);
            let shape = format!("R = {n_replicas}, C = {n_clients}");
            assert!(run.clean, "{shape}: the router failed");
            assert_eq!(run.answered, vec![vec![1, 2, 3, 4]; n_clients], "{shape}");
            assert!(run.replicas.iter().all(|r| r.requests > 0), "{shape}: {:?}", run.replicas);
            assert_eq!(run.stray, vec![0; n_clients], "{shape}");
        }
    }
}
