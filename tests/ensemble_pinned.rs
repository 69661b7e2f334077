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

use gbdt_cluster::Cluster;
use gbdt_core::{Kernel, Storage, TrainConfig};
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::Dataset;
use gbdt_quadrants::{featpar, qd1, qd2, qd3, qd4, single, yggdrasil, Aggregation};
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
}
