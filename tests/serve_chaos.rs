//! Chaos acceptance for replicated serving (PR 8 tentpole).
//!
//! A 3-replica group behind the router must survive a seeded plan that
//! crashes one replica mid-run and drops/dups/delays exactly the
//! serve-tagged frames, while a full open-loop run of client traffic is
//! in flight. The hard criteria, from ISSUE 8:
//!
//! * **zero incorrect responses** — every non-shed scored response is
//!   bit-exact for its stamped `(version, trees_scored)`;
//! * **availability ≥ 99%** of non-shed requests;
//! * **failover is bounded** — every request resolves (served, shed, or
//!   typed-failed within the retry budget); none hang.

use gbdt_cluster::comm::protocol::{
    SERVE_HEALTH_PING_TAG, SERVE_HEALTH_PONG_TAG, SERVE_PUBLISH_TAG, SERVE_REPLY_TAG,
    SERVE_REQUEST_TAG, SERVE_RESPONSE_TAG, SERVE_ROUTE_TAG,
};
use gbdt_cluster::FaultPlan;
use gbdt_core::model::GbdtModel;
use gbdt_core::tree::Tree;
use gbdt_core::Objective;
use gbdt_serve::avail::{run_avail, AvailConfig, AvailOutcome};
use gbdt_serve::exec::Strategy;

fn model(leaf_scale: f64, n_trees: usize, n_features: usize) -> GbdtModel {
    let mut m = GbdtModel::new(Objective::SquaredError, 0.1, n_features);
    for k in 0..n_trees {
        let mut t = Tree::new(3, 1);
        t.set_internal(0, (k % n_features) as u32, 0, 0.25, k % 2 == 0);
        t.set_internal(1, ((k + 1) % n_features) as u32, 0, -0.5, true);
        t.set_leaf(3, vec![leaf_scale * (k as f64 + 1.0) * 0.125]);
        t.set_leaf(4, vec![-leaf_scale * 0.0625]);
        t.set_leaf(2, vec![leaf_scale * 0.5 - k as f64 * 0.03125]);
        m.trees.push(t);
    }
    m
}

/// The serve-path tag scope: chaos confined to exactly the serving plane.
fn serve_tagged(plan: FaultPlan) -> FaultPlan {
    plan.with_tag(SERVE_REQUEST_TAG)
        .with_tag(SERVE_RESPONSE_TAG)
        .with_tag(SERVE_ROUTE_TAG)
        .with_tag(SERVE_REPLY_TAG)
        .with_tag(SERVE_PUBLISH_TAG)
        .with_tag(SERVE_HEALTH_PING_TAG)
        .with_tag(SERVE_HEALTH_PONG_TAG)
}

fn assert_acceptance(outcome: &AvailOutcome) {
    let run = &outcome.run;
    // Every request resolved one way or another — nothing hangs.
    assert_eq!(
        run.served + run.degraded + run.shed + run.failed + run.incorrect,
        run.requests,
        "unaccounted requests: {run:?}"
    );
    // Chaos may cost availability, never correctness.
    assert_eq!(run.incorrect, 0, "bit-inexact responses under chaos: {run:?}");
    assert!(
        run.availability >= 0.99,
        "availability {:.4} below the 99% floor: {run:?}",
        run.availability
    );
}

#[test]
fn three_replica_group_survives_crash_and_lossy_plan() {
    let plan = serve_tagged(
        FaultPlan::new(0x0C_8A05_0801)
            .with_drop(0.05)
            .with_dup(0.05)
            .with_delay(0.05, 0.0005)
            // Replica 1 dies just before handling its 30th frame.
            .with_crash(1, 30, 0),
    );
    let cfg = AvailConfig {
        label: "chaos".into(),
        n_replicas: 3,
        n_clients: 4,
        requests_per_client: 150,
        batch: 6,
        qps: 0.0,
        strategy: Strategy::PerRow,
        seed: 808,
        ..AvailConfig::default()
    };
    let outcome = run_avail(&[model(1.0, 12, 5)], &cfg, Some(plan)).unwrap();
    assert_acceptance(&outcome);
    // The crash actually fired and the replica rejoined the group.
    let crashes: u64 = outcome.replicas.iter().map(|r| r.crashes).sum();
    assert_eq!(crashes, 1, "expected exactly the planned crash: {:?}", outcome.replicas);
    assert!(
        outcome.router.recoveries >= 1,
        "router never saw the recovery: {:?}",
        outcome.router
    );
    // All three replicas did real work across the run.
    assert!(outcome.replicas.iter().all(|r| r.requests > 0), "{:?}", outcome.replicas);
}

/// The full chaos plan with the PR 9 scoring path engaged: a 4-way
/// scoring pool inside every replica, batches wide enough (3 chunks)
/// that each request genuinely fans out. Crash,
/// loss, duplication, failover, recovery resync, and mid-run publishes
/// all land on replicas whose scoring is chunk-parallel — and the
/// ledger must still verify every response bit-exact for its stamped
/// `(version, trees_scored)`: no torn chunk, no version-mixed batch.
#[test]
fn parallel_replicas_survive_the_chaos_plan() {
    let plan = serve_tagged(
        FaultPlan::new(0x0C_8A05_0901)
            .with_drop(0.04)
            .with_dup(0.04)
            .with_delay(0.04, 0.0005)
            .with_crash(2, 40, 0),
    );
    let cfg = AvailConfig {
        label: "chaos-parallel".into(),
        n_replicas: 3,
        n_clients: 3,
        requests_per_client: 60,
        batch: 192,
        qps: 0.0,
        strategy: Strategy::Blocked(0),
        score_threads: 4,
        seed: 909,
        ..AvailConfig::default()
    };
    let models = [model(1.0, 12, 5), model(0.75, 12, 5)];
    let outcome = run_avail(&models, &cfg, Some(plan)).unwrap();
    assert_acceptance(&outcome);
    let crashes: u64 = outcome.replicas.iter().map(|r| r.crashes).sum();
    assert_eq!(crashes, 1, "expected exactly the planned crash: {:?}", outcome.replicas);
    // The mid-run publish landed and both whole versions were served.
    assert_eq!(outcome.router.publishes, 1, "{:?}", outcome.router);
    assert_eq!(outcome.run.versions_seen, vec![1, 2], "{:?}", outcome.run);
}

#[test]
fn hedges_and_duplicates_never_double_count() {
    // Dup-heavy plan on the reply path: the router must suppress every
    // duplicate by router-assigned request id, so served ≤ requests even
    // though the fabric delivers many reply copies.
    let plan = serve_tagged(FaultPlan::new(77).with_dup(0.35));
    let cfg = AvailConfig {
        label: "dup-storm".into(),
        n_replicas: 3,
        n_clients: 3,
        requests_per_client: 120,
        batch: 4,
        qps: 0.0,
        strategy: Strategy::Blocked(0),
        seed: 31,
        ..AvailConfig::default()
    };
    let outcome = run_avail(&[model(0.5, 8, 4)], &cfg, Some(plan)).unwrap();
    assert_acceptance(&outcome);
    assert!(
        outcome.run.served + outcome.run.degraded <= outcome.run.requests,
        "double-counted responses: {:?}",
        outcome.run
    );
}

#[test]
fn shedding_is_typed_and_bounded_under_overload() {
    // One replica with a one-deep queue against six closed-loop clients:
    // the router must shed with a typed response (not buffer unboundedly),
    // degrade what it can, and keep every answered score bit-exact.
    let mut cfg = AvailConfig {
        label: "overload".into(),
        n_replicas: 1,
        n_clients: 6,
        requests_per_client: 60,
        batch: 4,
        qps: 0.0,
        strategy: Strategy::PerRow,
        seed: 99,
        ..AvailConfig::default()
    };
    cfg.router.queue_cap = 2;
    cfg.router.high_water = 1;
    cfg.router.degrade_trees = 3;
    let outcome = run_avail(&[model(0.25, 16, 4)], &cfg, None).unwrap();
    let run = &outcome.run;
    assert_eq!(run.incorrect, 0, "{run:?}");
    assert_eq!(
        run.served + run.degraded + run.shed + run.failed,
        run.requests,
        "{run:?}"
    );
    // Of what was admitted (non-shed), ~everything must be answered.
    assert!(run.availability >= 0.99, "availability {:.4}: {run:?}", run.availability);
    // The overload actually engaged the machinery: something was degraded
    // or shed.
    assert!(run.degraded + run.shed > 0, "overload neither degraded nor shed: {run:?}");
}
