//! Pinned ensemble fingerprints.
//!
//! The determinism story of this repository (quadrant equivalence, codec
//! invariance, chaos recovery) assumes trained ensembles are a pure function
//! of `(dataset, config, trainer)` — never of process-random state such as
//! `HashMap` iteration order. These fingerprints were captured *before* the
//! order-sensitive map sites were swapped to `BTreeMap` (see DESIGN.md
//! item 10); the swap must not move a single bit, and any future change that
//! alters a fingerprint is altering trained models and must be deliberate.
//!
//! The sweep test extends the same pins across every storage layout and
//! fill kernel (DESIGN.md item 11): sparse pair walk, dense scalar scan,
//! and dense SIMD lane groups must all reproduce the exact fingerprints
//! pinned here — `TrainConfig::{storage, kernel}` are perf-only by
//! construction, and this test is the proof. (Per-trainer `u16` cells are
//! `storage_determinism::distributed_trainers_are_storage_invariant`'s.)
//!
//! The multi-chunk pins train on 6 000 rows, so wherever a worker's row
//! store holds every row (`single`, Vero, feature-parallel) the root spans
//! two 4 096-row histogram chunks: they fix the order in which row-store
//! builds merge chunk partials (DESIGN.md item 6), which the 600-row set
//! never reaches.

use gbdt_cluster::Cluster;
use gbdt_core::{Kernel, Objective, Storage, TrainConfig};
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::Dataset;
use gbdt_quadrants::{featpar, qd1, qd2, qd3, qd4, single, yggdrasil, Aggregation, System};
use vero::{Vero, VeroConfig};

/// FNV-1a over the little-endian bytes of every raw prediction.
fn fingerprint(preds: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in preds {
        for b in p.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn dataset() -> Dataset {
    SyntheticConfig {
        n_instances: 600,
        n_features: 12,
        n_classes: 2,
        density: 0.5,
        label_noise: 0.02,
        seed: 9157,
        ..Default::default()
    }
    .generate()
}

fn config() -> TrainConfig {
    TrainConfig::builder().n_trees(4).n_layers(4).build().unwrap()
}

fn check(name: &str, preds: &[f64], expected: u64) {
    let got = fingerprint(preds);
    assert_eq!(
        got, expected,
        "{name}: ensemble fingerprint changed: got {got:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn ensembles_are_bit_identical_to_pinned_fingerprints() {
    let ds = dataset();
    let cfg = config();
    let cluster = Cluster::new(2);

    let reference = single::train(&ds, &cfg);
    check("single", &reference.predict_dataset_raw(&ds), FP_SINGLE);

    let r = qd1::train(&cluster, &ds, &cfg);
    check("qd1", &r.model.predict_dataset_raw(&ds), FP_QD1);

    let r = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce);
    check("qd2/all-reduce", &r.model.predict_dataset_raw(&ds), FP_QD2_AR);

    let r = qd2::train(&cluster, &ds, &cfg, Aggregation::ReduceScatter);
    check("qd2/reduce-scatter", &r.model.predict_dataset_raw(&ds), FP_QD2_RS);

    let r = qd3::train(&cluster, &ds, &cfg);
    check("qd3", &r.model.predict_dataset_raw(&ds), FP_QD3);

    let r = qd4::train(&cluster, &ds, &cfg);
    check("qd4", &r.model.predict_dataset_raw(&ds), FP_QD4);

    let r = yggdrasil::train(&cluster, &ds, &cfg);
    check("yggdrasil", &r.model.predict_dataset_raw(&ds), FP_YGG);

    let r = featpar::train(&cluster, &ds, &cfg);
    check("featpar", &r.model.predict_dataset_raw(&ds), FP_FEATPAR);
}

/// Every trainer × every forced storage layout × every fill kernel
/// reproduces the exact fingerprints pinned above.
#[test]
fn fingerprints_hold_across_storage_and_kernel() {
    let ds = dataset();
    let cluster = Cluster::new(2);
    for storage in [Storage::Sparse, Storage::Dense] {
        for kernel in Kernel::ALL {
            let mut cfg = config();
            cfg.storage = storage;
            cfg.kernel = kernel;
            let tag = |t: &str| format!("{t}[{}/{}]", storage.label(), kernel.label());
            let r = single::train(&ds, &cfg);
            check(&tag("single"), &r.predict_dataset_raw(&ds), FP_SINGLE);
            let r = qd1::train(&cluster, &ds, &cfg);
            check(&tag("qd1"), &r.model.predict_dataset_raw(&ds), FP_QD1);
            let r = qd2::train(&cluster, &ds, &cfg, Aggregation::ReduceScatter);
            check(&tag("qd2"), &r.model.predict_dataset_raw(&ds), FP_QD2_RS);
            let r = qd3::train(&cluster, &ds, &cfg);
            check(&tag("qd3"), &r.model.predict_dataset_raw(&ds), FP_QD3);
            let r = qd4::train(&cluster, &ds, &cfg);
            check(&tag("qd4"), &r.model.predict_dataset_raw(&ds), FP_QD4);
            let r = yggdrasil::train(&cluster, &ds, &cfg);
            check(&tag("yggdrasil"), &r.model.predict_dataset_raw(&ds), FP_YGG);
            let r = featpar::train(&cluster, &ds, &cfg);
            check(&tag("featpar"), &r.model.predict_dataset_raw(&ds), FP_FEATPAR);

            let mut vcfg = VeroConfig::builder().workers(2).n_trees(4).n_layers(4).build().unwrap();
            vcfg.train.storage = storage;
            vcfg.train.kernel = kernel;
            let outcome = Vero::fit(&vcfg, &ds);
            check(&tag("vero"), &outcome.model.inner.predict_dataset_raw(&ds), FP_VERO);
        }
    }
}

// Captured from the pre-BTreeMap-swap build (seed state of this PR); see
// module docs. Regenerate only for a change that intentionally alters
// trained ensembles, and say so in the commit. FP_VERO was captured when
// the storage × kernel sweep landed (Vero's pipeline differs from bare
// qd4: grouping + objective defaults), from the then-current scalar/sparse
// build — the SIMD kernels had to match it, not the other way around.
const FP_SINGLE: u64 = 0x6fa4_55f6_cf12_84e1;
const FP_QD1: u64 = 0xd460_8c70_9d41_1ff4;
const FP_QD2_AR: u64 = 0x8a0e_13d1_6225_cf18;
const FP_QD2_RS: u64 = 0x8a0e_13d1_6225_cf18;
const FP_QD3: u64 = 0xe2aa_7b22_b437_c55e;
const FP_QD4: u64 = 0xe2aa_7b22_b437_c55e;
const FP_YGG: u64 = 0xe2aa_7b22_b437_c55e;
const FP_FEATPAR: u64 = 0x6fa4_55f6_cf12_84e1;
const FP_VERO: u64 = 0xe2aa_7b22_b437_c55e;

/// 6 000 rows × 70 features, density 0.3 (module docs).
fn multi_chunk_dataset(classes: usize, seed: u64) -> Dataset {
    SyntheticConfig {
        n_instances: 6_000,
        n_features: 70,
        n_classes: classes,
        density: 0.3,
        label_noise: 0.02,
        seed,
        ..Default::default()
    }
    .generate()
}

fn multi_chunk_config(classes: usize) -> TrainConfig {
    let objective =
        if classes > 2 { Objective::Softmax { n_classes: classes } } else { Objective::Logistic };
    TrainConfig::builder().n_trees(2).n_layers(4).objective(objective).build().unwrap()
}

#[test]
fn multi_chunk_ensembles_are_pinned() {
    let ds = multi_chunk_dataset(2, 2001);
    let m = single::train(&ds, &multi_chunk_config(2));
    check("single", &m.predict_dataset_raw(&ds), FP_MC_SINGLE);

    let ds = multi_chunk_dataset(2, 2003);
    let cluster = Cluster::new(3);
    for (system, expected) in System::ALL.into_iter().zip(FP_MC_BINARY_W3) {
        let r = system.run(&cluster, &ds, &multi_chunk_config(2));
        check(system.name(), &r.model.predict_dataset_raw(&ds), expected);
    }

    let ds = multi_chunk_dataset(4, 2017);
    let cluster = Cluster::new(2);
    let pins = [(System::DimBoostLike, FP_MC_DIMBOOST_C4), (System::Vero, FP_MC_VERO_C4)];
    for (system, expected) in pins {
        let r = system.run(&cluster, &ds, &multi_chunk_config(4));
        check(system.name(), &r.model.predict_dataset_raw(&ds), expected);
    }
}

// Captured before the intra-worker thread paths were deleted, at one
// thread; four threads trained the same bits then.
const FP_MC_SINGLE: u64 = 0x8cd4_0c05_d2bf_de53;
/// In `System::ALL` order, W = 3.
const FP_MC_BINARY_W3: [u64; 8] = [
    0xb8a0_311c_d5c8_50ff, // XGBoost
    0x9501_8496_8fc3_2896, // LightGBM
    0x9501_8496_8fc3_2896, // DimBoost
    0x9501_8496_8fc3_2896, // QD2
    0xba84_5849_4f54_20c7, // QD3
    0x5889_092d_92c7_34f1, // Vero
    0xba84_5849_4f54_20c7, // Yggdrasil
    0x6366_e3d9_6a34_d48e, // LightGBM-FP
];
const FP_MC_DIMBOOST_C4: u64 = 0xd9c6_93a2_154e_cfd0;
const FP_MC_VERO_C4: u64 = 0x2820_3f6f_07ee_decf;

/// Prints the current fingerprints (run with `--nocapture --ignored`).
#[test]
#[ignore]
fn print_fingerprints() {
    let ds = dataset();
    let cfg = config();
    let cluster = Cluster::new(2);
    let fp = |p: &[f64]| fingerprint(p);
    println!("FP_SINGLE: {:#018x}", fp(&single::train(&ds, &cfg).predict_dataset_raw(&ds)));
    println!("FP_QD1: {:#018x}", fp(&qd1::train(&cluster, &ds, &cfg).model.predict_dataset_raw(&ds)));
    println!("FP_QD2_AR: {:#018x}", fp(&qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce).model.predict_dataset_raw(&ds)));
    println!("FP_QD2_RS: {:#018x}", fp(&qd2::train(&cluster, &ds, &cfg, Aggregation::ReduceScatter).model.predict_dataset_raw(&ds)));
    println!("FP_QD3: {:#018x}", fp(&qd3::train(&cluster, &ds, &cfg).model.predict_dataset_raw(&ds)));
    println!("FP_QD4: {:#018x}", fp(&qd4::train(&cluster, &ds, &cfg).model.predict_dataset_raw(&ds)));
    println!("FP_YGG: {:#018x}", fp(&yggdrasil::train(&cluster, &ds, &cfg).model.predict_dataset_raw(&ds)));
    println!("FP_FEATPAR: {:#018x}", fp(&featpar::train(&cluster, &ds, &cfg).model.predict_dataset_raw(&ds)));
    let vcfg = VeroConfig::builder().workers(2).n_trees(4).n_layers(4).build().unwrap();
    println!("FP_VERO: {:#018x}", fp(&Vero::fit(&vcfg, &ds).model.inner.predict_dataset_raw(&ds)));

    let ds = multi_chunk_dataset(2, 2001);
    println!("FP_MC_SINGLE: {:#018x}", fp(&single::train(&ds, &multi_chunk_config(2)).predict_dataset_raw(&ds)));
    let ds = multi_chunk_dataset(2, 2003);
    let cluster = Cluster::new(3);
    for system in System::ALL {
        let r = system.run(&cluster, &ds, &multi_chunk_config(2));
        println!("FP_MC_BINARY_W3 {}: {:#018x}", system.name(), fp(&r.model.predict_dataset_raw(&ds)));
    }
    let ds = multi_chunk_dataset(4, 2017);
    let cluster = Cluster::new(2);
    for system in [System::DimBoostLike, System::Vero] {
        let r = system.run(&cluster, &ds, &multi_chunk_config(4));
        println!("FP_MC C4 {}: {:#018x}", system.name(), fp(&r.model.predict_dataset_raw(&ds)));
    }
}
