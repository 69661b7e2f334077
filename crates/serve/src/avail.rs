//! Availability measurement for replicated serving under chaos.
//!
//! [`run_avail`] stands up a full replicated-serving mesh — rank 0
//! routing ([`crate::router`]), ranks `1..=n_replicas` serving
//! ([`crate::replica`]), the rest driving open-loop load — optionally
//! under a seeded [`FaultPlan`], and ledgers every request's fate:
//! verified-full, verified-degraded, shed, or failed. `n_replicas: 1` is
//! the single-server case.
//!
//! **Verification is exact.** Every scored response names its generating
//! function via the `(version, trees_scored)` stamp, and the harness
//! precomputes the expected scores of every reachable stamp with the
//! tree-walk predictor (`trees_scored > 0` against a model truncated to
//! that prefix). A response that does not bit-match its own stamp is
//! counted `incorrect` — the chaos acceptance tests require that count
//! to be **zero**: chaos may cost availability, never correctness.
//!
//! [`FaultPlan`]: gbdt_cluster::FaultPlan

use crate::exec::Strategy;
use crate::pool;
use crate::replica::{run_replica, ReplicaConfig, ReplicaStats, ROUTER_RANK};
use crate::router::{run_router, RouterConfig, RouterStats};
use crate::server::ModelSlot;
use crate::stats::{AvailRun, Clock};
use crate::wire::{PredictRequest, PredictResponse, PublishAck, ReplyStatus};
use bytes::Bytes;
use gbdt_cluster::comm::protocol::{
    SERVE_PUBLISH_TAG, SERVE_REQUEST_TAG, SERVE_RESPONSE_TAG, SERVE_STOP_TAG,
};
use gbdt_cluster::{Comm, CommError, FaultPlan, NetworkCostModel};
use gbdt_core::model::GbdtModel;
use std::time::Duration;

/// Knobs of one availability run.
#[derive(Debug, Clone)]
pub struct AvailConfig {
    /// Scenario label carried into the [`AvailRun`] report.
    pub label: String,
    /// Serving replicas behind the router.
    pub n_replicas: usize,
    /// Client ranks driving load.
    pub n_clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Rows per request.
    pub batch: usize,
    /// Aggregate offered load, requests/second; 0 = open throttle.
    pub qps: f64,
    /// Execution strategy every replica runs.
    pub strategy: Strategy,
    /// Scoring threads per request batch in every replica (1 = serial,
    /// 0 = auto).
    pub score_threads: usize,
    /// Seed for the synthetic feature rows.
    pub seed: u64,
    /// Routing policy (its `n_replicas` is overridden by ours).
    pub router: RouterConfig,
    /// Replica lifecycle knobs.
    pub replica: ReplicaConfig,
    /// How long a client waits for a response before counting the
    /// request failed. Must exceed `router.deadline × retry_budget`, or a
    /// client gives up on requests the router is still retrying;
    /// [`run_avail`] refuses a config where it does not.
    pub client_patience: Duration,
}

impl Default for AvailConfig {
    fn default() -> Self {
        AvailConfig {
            label: "clean".into(),
            n_replicas: 3,
            n_clients: 2,
            requests_per_client: 150,
            batch: 8,
            qps: 0.0,
            strategy: Strategy::PerRow,
            score_threads: 1,
            seed: 42,
            router: RouterConfig::default(),
            replica: ReplicaConfig::default(),
            client_patience: Duration::from_millis(900),
        }
    }
}

/// Everything one availability session produced: the client-side ledger
/// plus both server-side perspectives, for tests that assert failover
/// mechanics (retry counts, recoveries, suppression) and not just the
/// headline availability.
#[derive(Debug, Clone)]
pub struct AvailOutcome {
    /// The availability ledger.
    pub run: AvailRun,
    /// The router's own accounting.
    pub router: RouterStats,
    /// Per-replica accounting, by replica rank order.
    pub replicas: Vec<ReplicaStats>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic per-client batch: values in ±3 with ~12% missing cells.
fn client_rows(seed: u64, client: usize, batch: usize, n_features: usize) -> Vec<f32> {
    let mut state = seed ^ (client as u64).wrapping_mul(0x9e37_79b9);
    (0..batch * n_features)
        .map(|_| {
            if splitmix(&mut state).is_multiple_of(8) {
                f32::NAN
            } else {
                let unit = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                (unit * 6.0 - 3.0) as f32
            }
        })
        .collect()
}

/// Reference scores of a NaN-dense batch via the tree-walk predictor.
fn walk_scores(model: &GbdtModel, rows: &[f32], n_features: usize) -> Vec<f64> {
    let c = model.n_outputs();
    let mut out = vec![0.0; rows.len() / n_features * c];
    let mut feats = Vec::with_capacity(n_features);
    let mut vals = Vec::with_capacity(n_features);
    for (r, row) in rows.chunks_exact(n_features).enumerate() {
        feats.clear();
        vals.clear();
        for (f, &v) in row.iter().enumerate() {
            if !v.is_nan() {
                feats.push(f as u32);
                vals.push(v);
            }
        }
        model.predict_row_into(&feats, &vals, &mut out[r * c..(r + 1) * c]);
    }
    out
}

#[derive(Default)]
struct ClientOutcome {
    requests: u64,
    served: u64,
    degraded: u64,
    shed: u64,
    failed: u64,
    incorrect: u64,
    latencies_s: Vec<f64>,
    versions: Vec<u64>,
}

/// Expected scores per `(version − 1, stamp)`: `full` for
/// `trees_scored = 0`, `prefix` for the router's degraded budget.
struct Expectation {
    full: Vec<f64>,
    prefix: Option<Vec<f64>>,
}

fn bits_match(expected: &[f64], got: &[f64]) -> bool {
    expected.len() == got.len()
        && expected.iter().zip(got).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Waits for the response to `req_id`, discarding stale frames from
/// requests this client already gave up on. Returns the response and the
/// instant its frame arrived; `None` = client-side timeout.
fn await_response(
    comm: &Comm,
    req_id: u64,
    patience_s: f64,
    clock: Clock,
) -> Option<(PredictResponse, f64)> {
    let deadline_s = clock.elapsed_s() + patience_s;
    loop {
        match comm.recv(ROUTER_RANK, SERVE_RESPONSE_TAG) {
            Ok(bytes) => {
                let arrived_s = clock.elapsed_s();
                if let Ok(resp) = PredictResponse::decode(&bytes) {
                    if resp.req_id == req_id {
                        return Some((resp, arrived_s));
                    }
                }
                // Stale response or stray ack frame: drop it and keep waiting.
            }
            Err(CommError::Timeout { .. }) => {}
            Err(_) => return None,
        }
        if clock.elapsed_s() >= deadline_s {
            return None;
        }
    }
}

/// Open-loop pacing: sleeps until request `i`'s *scheduled* start and
/// returns that schedule — `i / qps`, a pure function of the pacing plan.
/// When the client is running late (a backlogged plane pushed previous
/// completions past the schedule) the scheduled start is returned
/// unchanged rather than "now": latency measured from it then includes the
/// queueing delay the backlog caused. This is the coordinated-omission
/// guard.
///
/// `qps == 0` degrades to closed-loop pacing: each request is scheduled
/// at the moment it is issued.
fn pace_to_schedule(i: usize, per_client_qps: f64, clock: Clock) -> f64 {
    if per_client_qps > 0.0 {
        let target = i as f64 / per_client_qps;
        let now = clock.elapsed_s();
        if now < target {
            std::thread::sleep(Duration::from_secs_f64(target - now));
        }
        target
    } else {
        clock.elapsed_s()
    }
}

/// One client: paced request/verify loop; the first client additionally
/// publishes each follow-up model at an evenly spaced request index.
fn client_loop(
    comm: &Comm,
    cfg: &AvailConfig,
    rows: &[f32],
    n_features: usize,
    expected: &[Expectation],
    publish_payloads: &[(usize, Vec<u8>)],
    clock: Clock,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    comm.set_recv_patience(Duration::from_millis(5));
    let per_client_qps = cfg.qps / cfg.n_clients.max(1) as f64;
    let patience_s = cfg.client_patience.as_secs_f64();
    for i in 0..cfg.requests_per_client {
        for &(at, ref payload) in publish_payloads {
            if at == i {
                let _ = comm.send(ROUTER_RANK, SERVE_PUBLISH_TAG, Bytes::from(payload.clone()));
                // Best-effort ack wait: a lost ack must not stall traffic —
                // verification keys on the stamped version either way.
                let ack_deadline_s = clock.elapsed_s() + patience_s;
                while clock.elapsed_s() < ack_deadline_s {
                    match comm.recv(ROUTER_RANK, SERVE_RESPONSE_TAG) {
                        Ok(bytes) => {
                            if PublishAck::decode(&bytes).is_ok() {
                                break;
                            }
                            // A stale prediction response; keep waiting.
                        }
                        Err(CommError::Timeout { .. }) => {}
                        Err(_) => break,
                    }
                }
            }
        }
        let scheduled_s = pace_to_schedule(i, per_client_qps, clock);
        let req_id = 1 + i as u64;
        let req = PredictRequest {
            req_id,
            n_features: n_features as u32,
            max_trees: 0,
            rows: rows.to_vec(),
        };
        out.requests += 1;
        if comm.send(ROUTER_RANK, SERVE_REQUEST_TAG, Bytes::from(req.encode())).is_err() {
            out.failed += 1;
            continue;
        }
        // Completion is the instant the response frame arrives, before
        // decode: the replica replies only after its last row chunk joins,
        // so this is last-chunk completion, while decode and the bit
        // verification below are the client's own cost and stay out of
        // the served-latency ledger.
        let Some((resp, arrived_s)) = await_response(comm, req_id, patience_s, clock) else {
            out.failed += 1;
            continue;
        };
        match resp.status {
            ReplyStatus::Shed => {
                out.shed += 1;
                continue;
            }
            ReplyStatus::Failed | ReplyStatus::Malformed => {
                out.failed += 1;
                continue;
            }
            ReplyStatus::Ok => {}
        }
        // Bit-exact verification against the stamped (version, mode).
        let Some(exp) = resp.version.checked_sub(1).and_then(|v| expected.get(v as usize))
        else {
            out.incorrect += 1;
            continue;
        };
        let reference = if resp.trees_scored == 0 {
            Some(&exp.full)
        } else if resp.trees_scored == cfg.router.degrade_trees {
            exp.prefix.as_ref()
        } else {
            None
        };
        match reference {
            Some(reference) if bits_match(reference, &resp.scores) => {
                if resp.trees_scored == 0 {
                    out.served += 1;
                } else {
                    out.degraded += 1;
                }
                out.versions.push(resp.version);
                out.latencies_s.push(arrived_s - scheduled_s);
            }
            _ => out.incorrect += 1,
        }
    }
    out
}

/// Runs a full replicated availability session and aggregates the ledger.
///
/// `models[0]` seeds every replica as version 1; each subsequent model
/// is published mid-run by the first client through the router (which
/// assigns versions `2, 3, …`). `faults` applies the same seeded chaos
/// machinery the training plane uses — scope it to serve tags with the
/// `tag=` grammar to target exactly the serving paths.
pub fn run_avail(
    models: &[GbdtModel],
    cfg: &AvailConfig,
    faults: Option<FaultPlan>,
) -> Result<AvailOutcome, String> {
    let first = models.first().ok_or("need at least one model")?;
    if cfg.n_replicas == 0 || cfg.n_clients == 0 || cfg.requests_per_client == 0 {
        return Err("n_replicas, n_clients, and requests_per_client must be positive".into());
    }
    if cfg.batch == 0 {
        return Err("batch must be positive".into());
    }
    let retry_window = cfg.router.deadline.as_secs_f64() * cfg.router.retry_budget as f64;
    if cfg.client_patience.as_secs_f64() <= retry_window {
        return Err(format!(
            "client_patience {:?} must exceed router.deadline × retry_budget = {retry_window} s",
            cfg.client_patience
        ));
    }
    let n_features = first.n_features.max(1);
    for (k, m) in models.iter().enumerate().skip(1) {
        if m.n_features.max(1) != n_features || m.n_outputs() != first.n_outputs() {
            return Err(format!("model {k} shape differs from the initial model"));
        }
    }
    let mut router_cfg = cfg.router;
    router_cfg.n_replicas = cfg.n_replicas;

    let batches: Vec<Vec<f32>> = (0..cfg.n_clients)
        .map(|c| client_rows(cfg.seed, c + 1, cfg.batch, n_features))
        .collect();
    // expectations[client][version - 1]: full + degraded-prefix scores.
    let expectations: Vec<Vec<Expectation>> = batches
        .iter()
        .map(|rows| {
            models
                .iter()
                .map(|m| {
                    let prefix = (router_cfg.degrade_trees > 0).then(|| {
                        let mut truncated = m.clone();
                        truncated.trees.truncate(router_cfg.degrade_trees as usize);
                        walk_scores(&truncated, rows, n_features)
                    });
                    Expectation { full: walk_scores(m, rows, n_features), prefix }
                })
                .collect()
        })
        .collect();
    // The first client publishes model k at an evenly spaced index.
    let publish_payloads: Vec<(usize, Vec<u8>)> = models
        .iter()
        .enumerate()
        .skip(1)
        .map(|(k, m)| (k * cfg.requests_per_client / models.len(), m.encode_bytes()))
        .collect();

    let world = 1 + cfg.n_replicas + cfg.n_clients;
    let (mesh, _control) = Comm::mesh_with(
        world,
        NetworkCostModel { latency_s: 0.0, bandwidth_bytes_per_s: 1e9 },
        faults,
    );
    let mut comms = mesh.into_iter();
    let router_comm = comms.next().ok_or("empty mesh")?;
    let replica_comms: Vec<Comm> = comms.by_ref().take(cfg.n_replicas).collect();
    let client_comms: Vec<Comm> = comms.collect();

    let slots: Vec<ModelSlot> = (0..cfg.n_replicas)
        .map(|_| ModelSlot::new_versioned(first, 1))
        .collect::<Result<_, _>>()?;
    let executor = pool::parallel(cfg.strategy.executor(), cfg.score_threads);
    let model_bytes = first.encode_bytes();
    let clock = Clock::new();

    let mut outcomes: Vec<ClientOutcome> = Vec::new();
    let mut replica_stats: Vec<ReplicaStats> = Vec::new();
    let mut router_result = None;
    std::thread::scope(|scope| {
        let executor = &executor;
        let cfg_ref = &cfg;
        let router_cfg = &router_cfg;
        let router = scope.spawn(move || {
            run_router(&router_comm, router_cfg, model_bytes, cfg_ref.n_clients)
        });
        let mut replica_handles = Vec::new();
        for (comm, slot) in replica_comms.into_iter().zip(&slots) {
            let replica_cfg = cfg.replica;
            replica_handles.push(scope.spawn(move || {
                run_replica(&comm, slot, executor.as_ref(), &replica_cfg)
            }));
        }
        let mut client_handles = Vec::new();
        for (idx, comm) in client_comms.into_iter().enumerate() {
            let rows = &batches[idx];
            let expected = &expectations[idx];
            let publishes: &[(usize, Vec<u8>)] =
                if idx == 0 { &publish_payloads } else { &[] };
            client_handles.push(scope.spawn(move || {
                let outcome =
                    client_loop(&comm, cfg_ref, rows, n_features, expected, publishes, clock);
                let _ = comm.send(ROUTER_RANK, SERVE_STOP_TAG, Bytes::new());
                outcome
            }));
        }
        for h in client_handles {
            if let Ok(outcome) = h.join() {
                outcomes.push(outcome);
            }
        }
        for h in replica_handles {
            if let Ok(Ok(stats)) = h.join() {
                replica_stats.push(stats);
            }
        }
        router_result = Some(router.join());
    });
    let wall_s = clock.elapsed_s();

    let router_stats = match router_result {
        Some(Ok(Ok(stats))) => stats,
        other => return Err(format!("router failed: {other:?}")),
    };
    if outcomes.len() != cfg.n_clients {
        return Err(format!(
            "{} of {} clients panicked",
            cfg.n_clients - outcomes.len(),
            cfg.n_clients
        ));
    }
    if replica_stats.len() != cfg.n_replicas {
        return Err(format!(
            "{} of {} replicas died unrecoverably",
            cfg.n_replicas - replica_stats.len(),
            cfg.n_replicas
        ));
    }
    let mut requests = 0u64;
    let mut served = 0u64;
    let mut degraded = 0u64;
    let mut shed = 0u64;
    let mut failed = 0u64;
    let mut incorrect = 0u64;
    let mut latencies = Vec::new();
    let mut versions = Vec::new();
    for outcome in outcomes {
        requests += outcome.requests;
        served += outcome.served;
        degraded += outcome.degraded;
        shed += outcome.shed;
        failed += outcome.failed;
        incorrect += outcome.incorrect;
        latencies.extend(outcome.latencies_s);
        versions.extend(outcome.versions);
    }
    let mut run = AvailRun::from_outcomes(
        cfg.label.clone(),
        cfg.n_replicas,
        cfg.n_clients,
        cfg.qps,
        requests,
        served,
        degraded,
        shed,
        failed,
        incorrect,
        &latencies,
        versions,
        wall_s,
    );
    run.failed_over = router_stats.failed_over;
    run.hedges = router_stats.hedges;
    run.retries = router_stats.retries;
    run.recoveries = router_stats.recoveries;
    run.duplicates_suppressed = router_stats.duplicates_suppressed;
    Ok(AvailOutcome { run, router: router_stats, replicas: replica_stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_core::tree::Tree;
    use gbdt_core::Objective;

    fn model_with_leaves(l: f64, r: f64, n_trees: usize) -> GbdtModel {
        let mut m = GbdtModel::new(Objective::SquaredError, 0.1, 4);
        for k in 0..n_trees {
            let mut t = Tree::new(2, 1);
            t.set_internal(0, (k % 4) as u32, 0, 0.25, true);
            t.set_leaf(1, vec![l + k as f64 * 0.125]);
            t.set_leaf(2, vec![r - k as f64 * 0.125]);
            m.trees.push(t);
        }
        m
    }

    #[test]
    fn clean_run_serves_everything() {
        let cfg = AvailConfig {
            n_replicas: 2,
            n_clients: 2,
            requests_per_client: 40,
            ..AvailConfig::default()
        };
        let outcome =
            run_avail(&[model_with_leaves(1.0, -1.0, 6)], &cfg, None).unwrap();
        assert_eq!(outcome.run.requests, 80);
        assert_eq!(outcome.run.served, 80);
        assert_eq!(outcome.run.incorrect, 0);
        assert_eq!(outcome.run.shed, 0);
        assert_eq!(outcome.run.failed, 0);
        assert!((outcome.run.availability - 1.0).abs() < 1e-12);
        assert_eq!(outcome.run.versions_seen, vec![1]);
        // Work was actually spread over the group.
        assert!(outcome.replicas.iter().all(|r| r.requests > 0));
    }

    #[test]
    fn publish_mid_run_yields_both_versions() {
        let cfg = AvailConfig {
            n_replicas: 2,
            n_clients: 2,
            requests_per_client: 60,
            ..AvailConfig::default()
        };
        let models =
            [model_with_leaves(1.0, -1.0, 6), model_with_leaves(9.0, -9.0, 6)];
        let outcome = run_avail(&models, &cfg, None).unwrap();
        assert_eq!(outcome.run.incorrect, 0);
        assert_eq!(outcome.run.versions_seen, vec![1, 2]);
        assert_eq!(outcome.router.publishes, 1);
    }

    #[test]
    fn degraded_mode_stays_verifiable() {
        let mut cfg = AvailConfig {
            n_replicas: 1,
            n_clients: 4,
            requests_per_client: 50,
            ..AvailConfig::default()
        };
        cfg.router.queue_cap = 2;
        cfg.router.high_water = 1;
        cfg.router.degrade_trees = 2;
        let outcome =
            run_avail(&[model_with_leaves(0.5, -0.5, 12)], &cfg, None).unwrap();
        assert_eq!(outcome.run.incorrect, 0);
        // With 4 clients against one tiny queue, degradation (and possibly
        // shedding) must kick in; whatever was answered verified bit-exact.
        assert!(outcome.run.served + outcome.run.degraded > 0);
    }

    /// Paced traffic with parallel chunked scoring through one replica:
    /// every response still bit-matches its stamped version (the snapshot
    /// is taken once per request, before the fan-out) and every request is
    /// answered across the hot swap.
    #[test]
    fn paced_parallel_scoring_serves_whole_versions() {
        let cfg = AvailConfig {
            n_replicas: 1,
            n_clients: 2,
            requests_per_client: 25,
            batch: 96, // > one 64-row chunk, so the pool actually fans out
            qps: 1500.0,
            strategy: Strategy::Blocked(0),
            score_threads: 4,
            seed: 13,
            ..AvailConfig::default()
        };
        let models = [model_with_leaves(1.0, -1.0, 6), model_with_leaves(4.0, -4.0, 6)];
        let run = run_avail(&models, &cfg, None).unwrap().run;
        assert_eq!((run.requests, run.served), (50, 50), "{run:?}");
        assert_eq!((run.incorrect, run.shed, run.failed), (0, 0, 0), "{run:?}");
        assert_eq!(run.versions_seen, vec![1, 2], "both versions served, none torn");
        assert!(run.p999_ms >= run.p99_ms && run.p99_ms >= run.p50_ms);
    }

    /// Regression (coordinated omission): a client running *late* must
    /// still get the original schedule back, so latency measured from it
    /// includes the backlog. If pacing ever "resets" to the current
    /// clock, a stalled plane would erase its own queueing delay from
    /// the ledger.
    #[test]
    fn late_pacing_keeps_the_scheduled_start() {
        let clock = Clock::new();
        // Request 2 at 1000 qps is scheduled at 2 ms; by the time the
        // client gets to it the run is already ≥ 20 ms old (a backlog).
        std::thread::sleep(Duration::from_millis(20));
        let scheduled = pace_to_schedule(2, 1000.0, clock);
        assert_eq!(scheduled, 0.002, "late request must keep its scheduled start");
        let latency = clock.elapsed_s() - scheduled;
        assert!(latency >= 0.018, "backlog must surface as latency, got {latency}");
        // Closed loop (qps = 0): scheduled at issue time, so latency
        // excludes think time by construction.
        let scheduled = pace_to_schedule(2, 0.0, clock);
        assert!(scheduled >= 0.02);
    }

    /// A client that gives up before the router's last retry could expire
    /// would count as failed a request the router still answers.
    #[test]
    fn patience_must_outlast_the_router_retry_window() {
        let models = [model_with_leaves(1.0, -1.0, 2)];
        // The default router retries for 120 ms × 3 = 360 ms.
        let impatient =
            AvailConfig { client_patience: Duration::from_millis(300), ..AvailConfig::default() };
        let err = run_avail(&models, &impatient, None).unwrap_err();
        assert!(err.contains("client_patience"), "{err}");
        let cfg = AvailConfig {
            n_replicas: 1,
            n_clients: 1,
            requests_per_client: 4,
            ..AvailConfig::default()
        };
        assert_eq!(cfg.client_patience, Duration::from_millis(900));
        assert_eq!(run_avail(&models, &cfg, None).unwrap().run.served, 4);
    }
}
