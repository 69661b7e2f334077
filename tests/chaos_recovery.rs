//! Chaos suite: the headline fault-tolerance guarantee.
//!
//! Under a seeded fault plan injecting message drops, duplicates, delays,
//! and a mid-tree worker crash, every trainer must produce an ensemble
//! **bit-identical** to its fault-free run — drops are retried, duplicates
//! discarded, delays only charge modelled time, and the crashed attempt
//! replays deterministically from the per-tree checkpoint. The stats must
//! show the recovery actually happened (nonzero retries / recoveries), and
//! fault-free byte accounting must stay deterministic.

use gbdt_cluster::{Cluster, FaultPlan};
use gbdt_core::{GbdtModel, Objective, TrainConfig};
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::Dataset;
use gbdt_quadrants::{single, System};

fn dataset(seed: u64) -> Dataset {
    SyntheticConfig {
        n_instances: 700,
        n_features: 14,
        n_classes: 2,
        density: 0.5,
        label_noise: 0.02,
        seed,
        ..Default::default()
    }
    .generate()
}

fn config() -> TrainConfig {
    TrainConfig::builder()
        .n_trees(3)
        .n_layers(4)
        .objective(Objective::Logistic)
        .build()
        .unwrap()
}

/// The seeded chaos plan: 4% drops, 4% duplicates, 5% delays, and rank 1
/// crashing mid-tree (tree 1, layer 1).
fn chaos_plan() -> FaultPlan {
    FaultPlan::parse("4242:drop=0.04,dup=0.04,delay=0.05@0.0005,crash=1@1.1")
        .expect("valid chaos spec")
}

/// Trains `system` on the dataset of `seed`, clean and under chaos,
/// asserting bit-identical ensembles and that the faults demonstrably fired
/// and were absorbed.
fn assert_recovers(system: System, seed: u64) {
    let (ds, cfg, workers) = (dataset(seed), config(), 3);
    let name = system.name();
    let clean = system.run(&Cluster::new(workers), &ds, &cfg);
    assert_eq!(clean.stats.recoveries, 0, "{name}: clean run recovered");
    assert_eq!(clean.stats.total_retries(), 0, "{name}: clean run retried");

    let faulted = system.run(&Cluster::new(workers).with_faults(Some(chaos_plan())), &ds, &cfg);
    assert_eq!(
        clean.model, faulted.model,
        "{name}: chaos run must recover the bit-identical ensemble"
    );
    assert_eq!(faulted.stats.recoveries, 1, "{name}: the scheduled crash fires once");
    assert!(faulted.stats.recovery_seconds > 0.0, "{name}: replay time is accounted");
    assert!(faulted.stats.total_retries() > 0, "{name}: drops were retried");
    assert!(
        faulted.stats.total_duplicates_dropped() > 0,
        "{name}: duplicates were detected"
    );
    assert!(
        faulted.stats.total_bytes_sent() > clean.stats.total_bytes_sent(),
        "{name}: retries and duplicates cost real bytes"
    );
}

#[test]
fn qd1_recovers_bit_identically() {
    assert_recovers(System::XgboostLike, 31);
}

#[test]
fn qd2_all_reduce_recovers_bit_identically() {
    assert_recovers(System::Qd2AllReduce, 32);
}

#[test]
fn qd2_reduce_scatter_and_ps_recover_bit_identically() {
    assert_recovers(System::LightGbmLike, 33);
    assert_recovers(System::DimBoostLike, 33);
}

#[test]
fn qd3_recovers_bit_identically() {
    assert_recovers(System::Qd3, 34);
}

#[test]
fn qd4_recovers_bit_identically() {
    assert_recovers(System::Vero, 35);
}

#[test]
fn yggdrasil_recovers_bit_identically() {
    assert_recovers(System::Yggdrasil, 36);
}

#[test]
fn featpar_recovers_bit_identically() {
    assert_recovers(System::LightGbmFeatureParallel, 37);
}

/// A one-worker cluster has no network faults to inject, but a scheduled
/// crash still kills and replays the worker — and the recovered ensemble
/// must match both the fault-free distributed run and the plain
/// single-machine trainer.
#[test]
fn single_worker_crash_recovers_bit_identically() {
    let ds = dataset(38);
    let cfg = config();
    let clean = System::Qd2AllReduce.run(&Cluster::new(1), &ds, &cfg);

    let plan = FaultPlan::parse("7:crash=0@1.1").unwrap();
    let faulted = System::Qd2AllReduce.run(&Cluster::new(1).with_faults(Some(plan)), &ds, &cfg);
    assert_eq!(clean.model, faulted.model, "single-worker crash must replay identically");
    assert_eq!(faulted.stats.recoveries, 1);

    // The distributed result agrees with the single-machine trainer.
    let reference: GbdtModel = single::train(&ds, &cfg);
    let pa = clean.model.predict_dataset_raw(&ds);
    let pb = reference.predict_dataset_raw(&ds);
    for (x, y) in pa.iter().zip(&pb) {
        assert_eq!(x.to_bits(), y.to_bits(), "cluster vs single diverged: {x} vs {y}");
    }
}

/// Vero's public config carries the same knob end-to-end.
#[test]
fn vero_recovers_bit_identically() {
    let ds = dataset(39);
    let base = vero::VeroConfig::builder().workers(3).n_trees(3).n_layers(4);
    let clean = vero::Vero::fit(&base.clone().build().unwrap(), &ds);
    let faulted = vero::Vero::fit(&base.faults(chaos_plan()).build().unwrap(), &ds);
    assert_eq!(clean.model, faulted.model, "Vero chaos run must recover identically");
    assert_eq!(faulted.stats.recoveries, 1);
    assert!(faulted.stats.total_retries() > 0);
    assert_eq!(clean.stats.recoveries, 0);
}

/// With faults disabled the comm fast path must stay byte-for-byte
/// deterministic — the accounting regression guard for the fault layer.
#[test]
fn fault_free_byte_accounting_is_deterministic() {
    let ds = dataset(40);
    let cfg = config();
    let a = System::Qd2AllReduce.run(&Cluster::new(3), &ds, &cfg);
    let b = System::Qd2AllReduce.run(&Cluster::new(3).with_faults(None), &ds, &cfg);
    assert_eq!(a.stats.total_bytes_sent(), b.stats.total_bytes_sent());
    assert_eq!(a.stats.total_logical_f64_bytes(), b.stats.total_logical_f64_bytes());
    assert_eq!(a.stats.total_wire_f64_bytes(), b.stats.total_wire_f64_bytes());
    assert_eq!(a.stats.total_retries(), 0);
    assert_eq!(b.stats.total_retries(), 0);
    assert_eq!(a.model, b.model);
}
