//! The serving-plane router: failover, hedging, shedding, degradation.
//!
//! Rank [`ROUTER_RANK`] fronts a replica group. Clients talk only to it;
//! it spreads their requests over the healthy replicas and owns every
//! reliability decision:
//!
//! * **Failover** — each forwarded request carries a per-attempt
//!   deadline; an expired attempt strikes the replica it was on and the
//!   request is retried on the next healthy replica, up to
//!   [`RouterConfig::retry_budget`] attempts before the client gets a
//!   typed `Failed` response. Enough strikes (or a send failure, or a
//!   missed heartbeat) mark a replica `Down`; a heartbeat pong or a
//!   `SERVE_RECOVER_TAG` announcement brings it back.
//! * **Hedging** — an outstanding first attempt older than a
//!   p99-derived delay (never below [`RouterConfig::hedge_floor`]) gets
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
//! All wall-clock reads go through [`crate::stats::Clock`] — the scoring
//! path stays clock-free and the lint allowlist stays narrow.

use crate::replica::ROUTER_RANK;
use crate::stats::{percentile, Clock};
use crate::wire::{PredictRequest, PredictResponse, PublishAck, PublishFrame, ReplyStatus};
use bytes::Bytes;
use gbdt_cluster::comm::protocol::{
    SERVE_ACK_TAG, SERVE_HEALTH_PING_TAG, SERVE_HEALTH_PONG_TAG, SERVE_PUBLISH_TAG,
    SERVE_RECOVER_TAG, SERVE_REPLY_TAG, SERVE_REQUEST_TAG, SERVE_RESPONSE_TAG,
    SERVE_ROUTE_TAG, SERVE_STOP_TAG,
};
use gbdt_cluster::{Comm, CommError};
use std::collections::HashMap;
use std::time::Duration;

/// Knobs of the routing policy.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Serving replicas (ranks `1..=n_replicas`; clients follow).
    pub n_replicas: usize,
    /// Per-replica inflight bound; past it on every healthy replica the
    /// request is shed.
    pub queue_cap: usize,
    /// Inflight level at which forwarded requests switch to the degraded
    /// tree-prefix budget (`0` disables degraded mode).
    pub high_water: usize,
    /// Trees scored per output in degraded mode.
    pub degrade_trees: u32,
    /// Per-attempt deadline before a request fails over.
    pub deadline: Duration,
    /// Max scoring attempts per request (first + retries).
    pub retry_budget: usize,
    /// Hedge delay floor; the actual delay is `max(floor, p99)` over a
    /// sliding window of completed latencies.
    pub hedge_floor: Duration,
    /// Deadline strikes that mark a replica `Down`.
    pub strike_limit: u32,
    /// Heartbeat ping period.
    pub ping_interval: Duration,
    /// `Up` replicas missing pongs for this long go `Down`.
    pub pong_timeout: Duration,
    /// Event-loop receive patience (the sweep tick).
    pub tick: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            n_replicas: 3,
            queue_cap: 32,
            high_water: 24,
            degrade_trees: 0,
            deadline: Duration::from_millis(120),
            retry_budget: 3,
            hedge_floor: Duration::from_millis(25),
            strike_limit: 2,
            ping_interval: Duration::from_millis(40),
            pong_timeout: Duration::from_millis(400),
            tick: Duration::from_millis(2),
        }
    }
}

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
    /// Replica recoveries observed (`SERVE_RECOVER_TAG` announcements).
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
    outstanding: HashMap<u64, Outstanding>,
    next_rid: u64,
    version: u64,
    model_bytes: Vec<u8>,
    latencies_s: Vec<f64>,
    last_ping_s: f64,
    stats: RouterStats,
}

impl<'a> Router<'a> {
    fn new(comm: &'a Comm, cfg: RouterConfig, model_bytes: Vec<u8>, clock: Clock) -> Self {
        let replicas = (1..=cfg.n_replicas)
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
            outstanding: HashMap::new(),
            next_rid: 1,
            version: 1,
            model_bytes,
            latencies_s: Vec::new(),
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

    /// Current hedge delay: p99 of the completed-latency window, floored.
    fn hedge_delay_s(&self) -> f64 {
        let floor = self.cfg.hedge_floor.as_secs_f64();
        if self.latencies_s.len() < 16 {
            return floor;
        }
        percentile(&self.latencies_s, 0.99).max(floor)
    }

    fn record_latency(&mut self, sample_s: f64) {
        if self.latencies_s.len() >= LATENCY_WINDOW {
            self.latencies_s.remove(0);
        }
        self.latencies_s.push(sample_s);
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
        match self.comm.send(replica, SERVE_ROUTE_TAG, Bytes::from(req.encode())) {
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
        if self.comm.send(client, SERVE_RESPONSE_TAG, Bytes::from(response.encode())).is_err()
        {
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
        self.record_latency(now_s - out.sent_s);
        self.stats.served += 1;
        if resp.trees_scored > 0 {
            self.stats.degraded += 1;
        }
        if out.attempts > 1 {
            self.stats.failed_over += 1;
        }
        resp.req_id = out.client_req_id;
        self.respond(out.client, &resp);
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
            if self.comm.send(rank, SERVE_PUBLISH_TAG, Bytes::from(frame.clone())).is_err() {
                self.mark_down(rank);
            }
        }
        self.respond_ack(publisher, self.version);
    }

    fn respond_ack(&mut self, publisher: usize, version: u64) {
        let ack = PublishAck { version }.encode();
        if self.comm.send(publisher, SERVE_RESPONSE_TAG, Bytes::from(ack)).is_err() {
            self.stats.response_send_failures += 1;
        }
    }

    /// Resyncs `replica` to the current model (recover or lagging pong).
    fn resync(&mut self, replica: usize) {
        let frame =
            PublishFrame { version: self.version, model_bytes: self.model_bytes.clone() }
                .encode();
        if self.comm.send(replica, SERVE_PUBLISH_TAG, Bytes::from(frame)).is_err() {
            self.mark_down(replica);
        }
    }

    /// Deadline, hedge, and heartbeat bookkeeping; runs every tick.
    fn sweep(&mut self, now_s: f64) {
        // Expired attempts: strike their replicas, then retry or fail.
        let deadline_s = self.cfg.deadline.as_secs_f64();
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
                    if r.strikes >= self.cfg.strike_limit {
                        self.mark_down(rank);
                    }
                }
            }
            if out.attempts >= self.cfg.retry_budget {
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
        let hedge_delay_s = self.hedge_delay_s();
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
        if now_s - self.last_ping_s >= self.cfg.ping_interval.as_secs_f64() {
            self.last_ping_s = now_s;
            let ranks: Vec<usize> = self.replicas.iter().map(|r| r.rank).collect();
            for rank in ranks {
                if self.comm.send(rank, SERVE_HEALTH_PING_TAG, Bytes::new()).is_err() {
                    self.mark_down(rank);
                }
            }
        }
        let pong_timeout_s = self.cfg.pong_timeout.as_secs_f64();
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
        let tags = [
            SERVE_REQUEST_TAG,
            SERVE_REPLY_TAG,
            SERVE_PUBLISH_TAG,
            SERVE_ACK_TAG,
            SERVE_HEALTH_PONG_TAG,
            SERVE_RECOVER_TAG,
            SERVE_STOP_TAG,
        ];
        self.comm.set_recv_patience(self.cfg.tick);
        let first_client = self.cfg.n_replicas + 1;
        let mut stops = 0usize;
        while stops < n_clients || !self.outstanding.is_empty() {
            let now_s = self.clock.elapsed_s();
            match self.comm.recv_any(&tags) {
                Ok((from, tag, payload)) => match tag {
                    SERVE_STOP_TAG => stops += 1,
                    SERVE_REQUEST_TAG if from >= first_client => {
                        self.handle_request(from, &payload, now_s);
                    }
                    SERVE_REPLY_TAG if from >= 1 && from < first_client => {
                        self.handle_reply(from, &payload, now_s);
                    }
                    SERVE_PUBLISH_TAG if from >= first_client => {
                        self.handle_publish(from, payload.to_vec());
                    }
                    SERVE_ACK_TAG if from >= 1 && from < first_client => {
                        match payload.as_ref().try_into().map(u64::from_le_bytes) {
                            Ok(version) => {
                                if let Some(r) = self.replica_mut(from) {
                                    r.version = version;
                                }
                            }
                            Err(_) => self.stats.malformed += 1,
                        }
                    }
                    SERVE_HEALTH_PONG_TAG if from >= 1 && from < first_client => {
                        self.mark_up(from, now_s);
                        match payload.as_ref().try_into().map(u64::from_le_bytes) {
                            Ok(version) => {
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
                    SERVE_RECOVER_TAG if from >= 1 && from < first_client => {
                        self.stats.recoveries += 1;
                        if let Some(r) = self.replica_mut(from) {
                            r.inflight = 0;
                        }
                        self.mark_up(from, now_s);
                        self.resync(from);
                    }
                    _ => self.stats.malformed += 1,
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
        for rank in 1..=self.cfg.n_replicas {
            let _ = self.comm.send(rank, SERVE_STOP_TAG, Bytes::new());
        }
        self.stats.last_version = self.version;
        Ok(self.stats)
    }
}

/// Runs the routing event loop on this rank until every one of
/// `n_clients` peers has sent a `SERVE_STOP_TAG` frame and no request is
/// outstanding, then stops the replica group.
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
    assert!(cfg.n_replicas >= 1, "need at least one replica");
    assert!(cfg.queue_cap >= 1, "queue_cap must be positive");
    assert!(cfg.retry_budget >= 1, "retry_budget counts the first attempt");
    let clock = Clock::new();
    Router::new(comm, *cfg, model_bytes, clock).run(n_clients)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::PerRow;
    use crate::replica::{run_replica, ReplicaConfig};
    use crate::server::ModelSlot;
    use gbdt_cluster::NetworkCostModel;
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

    /// One client, the router and one replica, driven frame by frame:
    /// requests are answered by the current version, a publish is acked
    /// with the version the router assigned, and garbage frames are refused
    /// without ending the session or touching the served model.
    #[test]
    fn request_publish_stop_session() {
        let mesh = Comm::mesh(3, NetworkCostModel { latency_s: 0.0, bandwidth_bytes_per_s: 1e9 });
        let mut mesh = mesh.into_iter();
        let (router_comm, replica_comm, client) =
            (mesh.next().unwrap(), mesh.next().unwrap(), mesh.next().unwrap());
        let v1 = stump_model(1.0, -1.0);
        let slot = ModelSlot::new(&v1).unwrap();
        let cfg = RouterConfig { n_replicas: 1, ..RouterConfig::default() };

        std::thread::scope(|scope| {
            let slot = &slot;
            let router =
                scope.spawn(move || run_router(&router_comm, &cfg, v1.encode_bytes(), 1).unwrap());
            let replica = scope.spawn(move || {
                run_replica(&replica_comm, slot, &PerRow, &ReplicaConfig::default()).unwrap()
            });
            let response = |tag, payload: Vec<u8>| {
                client.send(ROUTER_RANK, tag, Bytes::from(payload)).unwrap();
                client.recv(ROUTER_RANK, SERVE_RESPONSE_TAG).unwrap()
            };

            let req = PredictRequest {
                req_id: 9,
                n_features: 2,
                max_trees: 0,
                rows: vec![0.0, 0.0, 1.0, 0.0],
            };
            let resp =
                PredictResponse::decode(&response(SERVE_REQUEST_TAG, req.encode())).unwrap();
            assert_eq!((resp.req_id, resp.version), (9, 1));
            assert_eq!(resp.scores, vec![1.0, -1.0]);

            // Hot-swap to a model with other leaves; the router assigns v2.
            let v2 = stump_model(5.0, -5.0).encode_bytes();
            let ack = PublishAck::decode(&response(SERVE_PUBLISH_TAG, v2)).unwrap();
            assert_eq!(ack.version, 2);

            let resp =
                PredictResponse::decode(&response(SERVE_REQUEST_TAG, req.encode())).unwrap();
            assert_eq!((resp.req_id, resp.version), (9, 2));
            assert_eq!(resp.scores, vec![5.0, -5.0]);

            // Garbage request: a typed refusal, and the session goes on.
            let err = PredictResponse::decode(&response(SERVE_REQUEST_TAG, vec![1, 2, 3])).unwrap();
            assert_eq!((err.version, err.status), (0, ReplyStatus::Malformed));

            // Garbage publish: acked with version 0, v2 stays served.
            let ack = PublishAck::decode(&response(SERVE_PUBLISH_TAG, vec![7; 5])).unwrap();
            assert_eq!(ack.version, 0);

            client.send(ROUTER_RANK, SERVE_STOP_TAG, Bytes::new()).unwrap();
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
}
