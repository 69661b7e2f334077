//! Hot-swap safety under concurrent traffic.
//!
//! Publishing a new model while requests are in flight must be atomic at
//! the *version* granularity: every response is scored entirely by one
//! published version — never a mix — and no request is ever dropped on
//! the floor during a swap. Two layers pin this:
//!
//! 1. An end-to-end run through a one-replica router group
//!    ([`gbdt_serve::avail::run_avail`]) with trained models: clients
//!    verify every response bit-for-bit against the expectation for the
//!    version stamped on it, so a torn swap (half-old, half-new scores)
//!    counts as `incorrect`.
//! 2. A direct [`ModelSlot`] hammer: reader threads score snapshots while
//!    the main thread publishes repeatedly; every observed score must
//!    equal exactly one version's expected output.

use gbdt_cluster::comm::protocol::{SERVE_PUBLISH_TAG, SERVE_ROUTE_TAG};
use gbdt_cluster::{Cluster, FaultPlan};
use gbdt_core::model::GbdtModel;
use gbdt_core::TrainConfig;
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::Dataset;
use gbdt_quadrants::{qd2, Aggregation};
use gbdt_serve::avail::{run_avail, AvailConfig, AvailOutcome};
use gbdt_serve::exec::{PerRow, Strategy};
use gbdt_serve::server::ModelSlot;
use gbdt_serve::ExecStrategy;

fn dataset(seed: u64) -> Dataset {
    SyntheticConfig {
        n_instances: 400,
        n_features: 10,
        n_classes: 2,
        density: 0.6,
        label_noise: 0.02,
        seed,
        ..Default::default()
    }
    .generate()
}

fn trained(seed: u64, n_trees: usize) -> GbdtModel {
    let cfg = TrainConfig::builder().n_trees(n_trees).n_layers(4).build().unwrap();
    qd2::train(&Cluster::new(2), &dataset(seed), &cfg, Aggregation::ReduceScatter).model
}

/// The run-level invariants of a clean session with two hot swaps: every
/// response verified against its own version, every request answered,
/// both publishes accepted, all three versions served.
fn assert_whole_versions(outcome: &AvailOutcome, requests: u64) {
    let run = &outcome.run;
    assert_eq!(run.incorrect, 0, "torn or mis-versioned response: {run:?}");
    assert_eq!((run.failed, run.shed), (0, 0), "requests lost across the swaps: {run:?}");
    assert_eq!(run.requests, requests, "{run:?}");
    assert_eq!(run.served, run.requests, "every request answered in full: {run:?}");
    assert_eq!(outcome.router.publishes, 2, "both extra versions were published");
    assert_eq!(run.versions_seen, vec![1, 2, 3], "all three whole versions served");
}

/// End-to-end: three clients drive open-throttle traffic through one
/// replica while two more model versions are published mid-run.
#[test]
fn concurrent_traffic_observes_only_whole_versions() {
    let models = [trained(31, 4), trained(32, 4), trained(33, 6)];
    let cfg = AvailConfig {
        n_replicas: 1,
        n_clients: 3,
        requests_per_client: 60,
        batch: 8,
        qps: 0.0,
        strategy: Strategy::Blocked(0),
        seed: 99,
        ..AvailConfig::default()
    };
    let outcome = run_avail(&models, &cfg, None).expect("session completes");
    assert_whole_versions(&outcome, 180);
}

/// Direct slot hammer: snapshots taken while publishes race must each be
/// a whole version. Scores are compared against per-version expectations
/// computed up front; any blend of two versions matches neither.
#[test]
fn slot_snapshots_are_never_torn() {
    let models: Vec<GbdtModel> = (0..4).map(|k| trained(50 + k, 3)).collect();
    let n_features = models[0].n_features;
    let probe: Vec<f32> = (0..n_features).map(|j| (j as f32 * 0.37).sin()).collect();
    let expected: Vec<Vec<u64>> = models
        .iter()
        .map(|m| {
            let slot = ModelSlot::new(m).unwrap();
            let ens = slot.load();
            let mut out = vec![0.0f64; ens.n_outputs];
            PerRow.predict_into(&ens, &probe, &mut out);
            out.iter().map(|v| v.to_bits()).collect()
        })
        .collect();

    let slot = ModelSlot::new(&models[0]).unwrap();
    std::thread::scope(|scope| {
        let slot = &slot;
        let expected = &expected;
        let probe = probe.as_slice();
        let readers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(move || {
                    let mut observed = 0usize;
                    while observed < 2000 {
                        let ens = slot.load();
                        let mut out = vec![0.0f64; ens.n_outputs];
                        PerRow.predict_into(&ens, probe, &mut out);
                        let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                        let version = ens.version as usize;
                        assert!(
                            version >= 1 && version <= expected.len(),
                            "snapshot carries unknown version {version}"
                        );
                        assert_eq!(
                            bits,
                            expected[version - 1],
                            "scores do not match the snapshot's own version {version}: \
                             torn swap"
                        );
                        observed += 1;
                    }
                })
            })
            .collect();
        // Publish the remaining versions while the readers hammer.
        for model in &models[1..] {
            slot.publish(model).unwrap();
            std::thread::yield_now();
        }
        for r in readers {
            r.join().unwrap();
        }
    });
    assert_eq!(slot.version(), models.len() as u64);
}

/// Parallel scoring does not widen the swap window: with `score_threads
/// > 1` every request fans out across chunk workers under ONE snapshot
/// taken before the fan-out, so a publish landing mid-batch must still
/// produce a whole-version response. Batches span several 64-row chunks
/// (so the pool genuinely splits), and the harness bit-verifies every
/// response against its stamped version — a torn or version-mixed chunk
/// counts as `incorrect`.
#[test]
fn parallel_scoring_observes_only_whole_versions() {
    let models = [trained(41, 4), trained(42, 4), trained(43, 6)];
    let cfg = AvailConfig {
        n_replicas: 1,
        n_clients: 3,
        requests_per_client: 40,
        batch: 160,
        qps: 0.0,
        strategy: Strategy::Blocked(0),
        score_threads: 4,
        seed: 907,
        ..AvailConfig::default()
    };
    let outcome = run_avail(&models, &cfg, None).expect("parallel session completes");
    assert_whole_versions(&outcome, 120);
}

/// Hot-swap during failover (PR 8): new versions are published through
/// the router while a crash plan keeps killing a replica mid-run, so at
/// least one publish lands while a replica is dead or mid-recovery. The
/// recovering replica is resynced by the router with the *current*
/// version, and every response — before, during, and after the outage —
/// must stay bit-exact for its stamped version. Versions are
/// router-assigned, so a replica that slept through a publish can never
/// stamp a reused version number on different bits.
#[test]
fn publish_during_crash_recovery_is_never_torn() {
    let models = [trained(61, 4), trained(62, 4), trained(63, 6)];
    // Crash replica 1 twice, spread across the run, with light loss on
    // exactly the route/publish paths so recovery resyncs are exercised
    // under an imperfect fabric too.
    let plan = FaultPlan::new(0xB0B0)
        .with_drop(0.03)
        .with_crash(1, 25, 0)
        .with_crash(1, 90, 0)
        .with_tag(SERVE_ROUTE_TAG)
        .with_tag(SERVE_PUBLISH_TAG);
    let cfg = AvailConfig {
        label: "swap-under-crash".into(),
        n_replicas: 3,
        n_clients: 3,
        requests_per_client: 120,
        batch: 8,
        qps: 0.0,
        strategy: Strategy::Blocked(0),
        seed: 1177,
        ..AvailConfig::default()
    };
    let outcome = run_avail(&models, &cfg, Some(plan)).unwrap();
    let run = &outcome.run;
    assert_eq!(run.incorrect, 0, "torn or mis-versioned response: {run:?}");
    assert_eq!(
        run.served + run.degraded + run.shed + run.failed,
        run.requests,
        "unaccounted requests: {run:?}"
    );
    assert!(run.availability >= 0.99, "availability {:.4}: {run:?}", run.availability);
    // Both publishes were accepted and every version was actually served.
    assert_eq!(outcome.router.publishes, 2, "{:?}", outcome.router);
    assert_eq!(run.versions_seen, vec![1, 2, 3], "{run:?}");
    // The crashes fired and the router resynced the replica each time.
    let crashes: u64 = outcome.replicas.iter().map(|r| r.crashes).sum();
    assert_eq!(crashes, 2, "{:?}", outcome.replicas);
    assert!(outcome.router.recoveries >= 2, "{:?}", outcome.router);
    // Resyncs/publishes reached the crashed replica: every replica ends
    // the run serving the final version.
    assert!(
        outcome.replicas.iter().all(|r| r.last_version == 3),
        "a replica ended stale: {:?}",
        outcome.replicas
    );
}
