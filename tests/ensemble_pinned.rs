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
//! Gradients lie on one power-of-two grid (DESIGN.md item 6), so every
//! histogram sum is exact and an ensemble depends only on the cuts it was
//! binned with, not on how a system partitions, stores, orders, merges or
//! codes its sums. The pins say so: one constant per set of cuts. At W
//! workers every system sketch-merges the same cuts — except
//! feature-parallel, which cuts its full replica exactly as `single` does,
//! so it pins `single`'s value. The larger pins (6 000 rows × 70 features,
//! W = 3, and C = 4) hold that collapse on deeper, wider histograms.

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
    check("qd1", &r.model.predict_dataset_raw(&ds), FP_W2);

    let r = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce);
    check("qd2/all-reduce", &r.model.predict_dataset_raw(&ds), FP_W2);

    let r = qd2::train(&cluster, &ds, &cfg, Aggregation::ReduceScatter);
    check("qd2/reduce-scatter", &r.model.predict_dataset_raw(&ds), FP_W2);

    let r = qd3::train(&cluster, &ds, &cfg);
    check("qd3", &r.model.predict_dataset_raw(&ds), FP_W2);

    let r = qd4::train(&cluster, &ds, &cfg);
    check("qd4", &r.model.predict_dataset_raw(&ds), FP_W2);

    let r = yggdrasil::train(&cluster, &ds, &cfg);
    check("yggdrasil", &r.model.predict_dataset_raw(&ds), FP_W2);

    let r = featpar::train(&cluster, &ds, &cfg);
    check("featpar", &r.model.predict_dataset_raw(&ds), FP_SINGLE);

    let vcfg = VeroConfig::builder().workers(2).n_trees(4).n_layers(4).build().unwrap();
    let outcome = Vero::fit(&vcfg, &ds);
    check("vero", &outcome.model.inner.predict_dataset_raw(&ds), FP_W2);
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
            check(&tag("qd1"), &r.model.predict_dataset_raw(&ds), FP_W2);
            let r = qd2::train(&cluster, &ds, &cfg, Aggregation::ReduceScatter);
            check(&tag("qd2"), &r.model.predict_dataset_raw(&ds), FP_W2);
            let r = qd3::train(&cluster, &ds, &cfg);
            check(&tag("qd3"), &r.model.predict_dataset_raw(&ds), FP_W2);
            let r = qd4::train(&cluster, &ds, &cfg);
            check(&tag("qd4"), &r.model.predict_dataset_raw(&ds), FP_W2);
            let r = yggdrasil::train(&cluster, &ds, &cfg);
            check(&tag("yggdrasil"), &r.model.predict_dataset_raw(&ds), FP_W2);
            let r = featpar::train(&cluster, &ds, &cfg);
            check(&tag("featpar"), &r.model.predict_dataset_raw(&ds), FP_SINGLE);

            let mut vcfg = VeroConfig::builder().workers(2).n_trees(4).n_layers(4).build().unwrap();
            vcfg.train.storage = storage;
            vcfg.train.kernel = kernel;
            let outcome = Vero::fit(&vcfg, &ds);
            check(&tag("vero"), &outcome.model.inner.predict_dataset_raw(&ds), FP_W2);
        }
    }
}

// Re-pinned when gradients moved onto the power-of-two grid; every
// pin before that differed per system in the last bits (module docs).
/// `single`, and feature-parallel at any W: cuts from the whole dataset.
const FP_SINGLE: u64 = 0x22b5_4901_7b03_2847;
/// Every other system and Vero at W = 2: the sketch-merged cuts.
const FP_W2: u64 = 0x5714_e87f_db10_bd53;

/// 6 000 rows × 70 features, density 0.3 (module docs).
fn large_dataset(classes: usize, seed: u64) -> Dataset {
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

fn large_config(classes: usize) -> TrainConfig {
    let objective =
        if classes > 2 { Objective::Softmax { n_classes: classes } } else { Objective::Logistic };
    TrainConfig::builder().n_trees(2).n_layers(4).objective(objective).build().unwrap()
}

#[test]
fn larger_ensembles_are_pinned() {
    let ds = large_dataset(2, 2001);
    let m = single::train(&ds, &large_config(2));
    check("single", &m.predict_dataset_raw(&ds), FP_LARGE_SINGLE);

    let ds = large_dataset(2, 2003);
    let cluster = Cluster::new(3);
    for system in System::ALL {
        let expected = match system {
            System::LightGbmFeatureParallel => FP_LARGE_W3_FEATPAR,
            _ => FP_LARGE_W3,
        };
        let r = system.run(&cluster, &ds, &large_config(2));
        check(system.name(), &r.model.predict_dataset_raw(&ds), expected);
    }
    let m = single::train(&ds, &large_config(2));
    check("single (W = 3 data)", &m.predict_dataset_raw(&ds), FP_LARGE_W3_FEATPAR);

    let ds = large_dataset(4, 2017);
    let cluster = Cluster::new(2);
    for system in [System::DimBoostLike, System::Vero] {
        let r = system.run(&cluster, &ds, &large_config(4));
        check(system.name(), &r.model.predict_dataset_raw(&ds), FP_LARGE_C4);
    }
}

const FP_LARGE_SINGLE: u64 = 0xae91_dc6f_c4ce_75be;
/// Every system but LightGBM-FP at W = 3.
const FP_LARGE_W3: u64 = 0xeebc_e756_bf0c_237a;
/// LightGBM-FP at W = 3, and `single`, on the same dataset.
const FP_LARGE_W3_FEATPAR: u64 = 0x936c_c341_cc4a_c22d;
/// DimBoost and Vero at C = 4, W = 2.
const FP_LARGE_C4: u64 = 0xc00d_b1f3_ae0e_f323;

/// Prints the current fingerprints (run with `--nocapture --ignored`).
#[test]
#[ignore]
fn print_fingerprints() {
    let ds = dataset();
    let cfg = config();
    let cluster = Cluster::new(2);
    let fp = |p: &[f64]| fingerprint(p);
    println!("FP_SINGLE: {:#018x}", fp(&single::train(&ds, &cfg).predict_dataset_raw(&ds)));
    println!("FP_W2 qd1: {:#018x}", fp(&qd1::train(&cluster, &ds, &cfg).model.predict_dataset_raw(&ds)));
    println!("FP_W2 qd2/all-reduce: {:#018x}", fp(&qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce).model.predict_dataset_raw(&ds)));
    println!("FP_W2 qd2/reduce-scatter: {:#018x}", fp(&qd2::train(&cluster, &ds, &cfg, Aggregation::ReduceScatter).model.predict_dataset_raw(&ds)));
    println!("FP_W2 qd3: {:#018x}", fp(&qd3::train(&cluster, &ds, &cfg).model.predict_dataset_raw(&ds)));
    println!("FP_W2 qd4: {:#018x}", fp(&qd4::train(&cluster, &ds, &cfg).model.predict_dataset_raw(&ds)));
    println!("FP_W2 yggdrasil: {:#018x}", fp(&yggdrasil::train(&cluster, &ds, &cfg).model.predict_dataset_raw(&ds)));
    println!("FP_SINGLE featpar: {:#018x}", fp(&featpar::train(&cluster, &ds, &cfg).model.predict_dataset_raw(&ds)));
    let vcfg = VeroConfig::builder().workers(2).n_trees(4).n_layers(4).build().unwrap();
    println!("FP_W2 vero: {:#018x}", fp(&Vero::fit(&vcfg, &ds).model.inner.predict_dataset_raw(&ds)));

    let ds = large_dataset(2, 2001);
    println!("FP_LARGE_SINGLE: {:#018x}", fp(&single::train(&ds, &large_config(2)).predict_dataset_raw(&ds)));
    let ds = large_dataset(2, 2003);
    let cluster = Cluster::new(3);
    for system in System::ALL {
        let r = system.run(&cluster, &ds, &large_config(2));
        println!("FP_LARGE_W3 {}: {:#018x}", system.name(), fp(&r.model.predict_dataset_raw(&ds)));
    }
    let ds = large_dataset(4, 2017);
    let cluster = Cluster::new(2);
    for system in [System::DimBoostLike, System::Vero] {
        let r = system.run(&cluster, &ds, &large_config(4));
        println!("FP_LARGE_C4 {}: {:#018x}", system.name(), fp(&r.model.predict_dataset_raw(&ds)));
    }
}
