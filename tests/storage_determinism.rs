//! Storage-layout determinism guard: the binned storage layout must never
//! change the trained ensemble, only speed and memory.
//!
//! The dense kernels (DESIGN.md §9) visit values in ascending feature
//! order skipping the missing sentinel — exactly the sparse pair order —
//! and the dense column scans visit instances ascending, so f64
//! accumulation order is identical on either layout. These tests pin that
//! end to end: every trainer (all four quadrants, Yggdrasil, the
//! feature-parallel replica, the single-node reference, and Vero) grows a
//! bit-identical model under `Storage::{Sparse, Dense, Auto}`, on `u8`
//! cells and, past 255 bins, on `u16` cells; and a `u8`-packed store
//! trains the same ensemble as a `u16`-packed one.
//! Density 0.3 sits above the 0.25 auto threshold, so `auto` genuinely
//! takes the dense path here.

use gbdt_cluster::Cluster;
use gbdt_core::binning::BinCuts;
use gbdt_core::{GbdtModel, Objective, Storage, TrainConfig};
use gbdt_data::dense_binned::{BinWidth, DenseBinnedRows};
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::{BinnedStore, Dataset, FeatureMatrix};
use gbdt_quadrants::{qd4, single, System};
use vero::{Vero, VeroConfig};

fn dataset(classes: usize, seed: u64) -> Dataset {
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

fn config(classes: usize, storage: Storage) -> TrainConfig {
    let objective =
        if classes > 2 { Objective::Softmax { n_classes: classes } } else { Objective::Logistic };
    let mut cfg =
        TrainConfig::builder().n_trees(2).n_layers(4).objective(objective).build().unwrap();
    cfg.storage = storage;
    cfg
}

/// q past `u8`'s 255 bins: every dense store of this run packs `u16` cells.
const WIDE_BINS: usize = 300;

fn assert_bit_identical(a: &GbdtModel, b: &GbdtModel, tag: &str) {
    assert_eq!(a, b, "{tag}: ensemble differs between storage layouts");
}

#[test]
fn single_node_is_storage_invariant() {
    let ds = dataset(2, 3001);
    let reference = single::train(&ds, &config(2, Storage::Sparse));
    for storage in [Storage::Dense, Storage::Auto] {
        let m = single::train(&ds, &config(2, storage));
        assert_bit_identical(&reference, &m, &format!("single/{}", storage.label()));
    }
}

/// A `Dense` source with no zero cell (every row takes the in-place path of
/// the row visitor), and the same data as CSR.
fn dense_source_and_csr_twin(seed: u64) -> (Dataset, Dataset) {
    let ds = SyntheticConfig {
        n_instances: 2_000,
        n_features: 16,
        n_classes: 2,
        dense: true,
        label_noise: 0.02,
        seed,
        ..Default::default()
    }
    .generate();
    assert_eq!(ds.features.n_stored(), 2_000 * 16, "the dense source must be zero-free");
    let twin = Dataset::new(
        FeatureMatrix::Sparse(ds.features.to_csr()),
        ds.labels.clone(),
        ds.n_classes,
        "dense-csr",
    )
    .unwrap();
    (ds, twin)
}

#[test]
fn distributed_trainers_are_storage_invariant() {
    let sparse = dataset(2, 3003);
    let (dense, dense_twin) = dense_source_and_csr_twin(3005);
    let wide = dataset(2, 3009);
    let wide_store = BinCuts::from_dataset(&wide, WIDE_BINS).apply_store(&wide, Storage::Dense);
    assert_eq!(wide_store.label(), "dense-u16", "the wide input must drive the u16 kernels");
    let cluster = Cluster::new(3);
    for system in System::ALL {
        let tag = system.name();
        // The reference of the dense source is its CSR twin: the source's
        // storage, like the binned layout, changes no bit and no byte.
        for (source, ds, reference_ds, q) in [
            ("sparse", &sparse, &sparse, 20),
            ("dense", &dense, &dense_twin, 20),
            ("u16", &wide, &wide, WIDE_BINS),
        ] {
            let config = |storage| TrainConfig { n_bins: q, ..config(2, storage) };
            let reference = system.run(&cluster, reference_ds, &config(Storage::Sparse));
            for storage in [Storage::Sparse, Storage::Dense, Storage::Auto] {
                let r = system.run(&cluster, ds, &config(storage));
                assert_bit_identical(
                    &reference.model,
                    &r.model,
                    &format!("{tag}/{source}/{}", storage.label()),
                );
                assert_eq!(
                    reference.stats.total_bytes_sent(),
                    r.stats.total_bytes_sent(),
                    "{tag}/{source}/{}: collective byte counts differ between layouts",
                    storage.label()
                );
            }
        }
    }
}

#[test]
fn vero_is_storage_invariant() {
    let ds = dataset(2, 3007);
    let run = |storage: Storage| {
        let mut cfg = VeroConfig::builder().workers(3).n_trees(2).n_layers(4).build().unwrap();
        cfg.train.storage = storage;
        Vero::fit(&cfg, &ds).model
    };
    let reference = run(Storage::Sparse);
    assert_eq!(reference, run(Storage::Dense), "vero: dense differs from sparse");
    assert_eq!(reference, run(Storage::Auto), "vero: auto differs from sparse");
}

#[test]
fn multiclass_is_storage_invariant() {
    // C > 2 exercises the multiclass dense kernel (per-cell class loop)
    // against sparse add_instance.
    let ds = dataset(4, 3011);
    let cluster = Cluster::new(2);
    let reference = qd4::train(&cluster, &ds, &config(4, Storage::Sparse));
    let dense = qd4::train(&cluster, &ds, &config(4, Storage::Dense));
    assert_bit_identical(&reference.model, &dense.model, "qd4 multiclass");
}

#[test]
fn u8_and_u16_cells_train_identically() {
    // q = 20 fits u8, but a u16 packing of the same bins must accumulate
    // the same f64 stream — widths only change bytes, never bits.
    let ds = dataset(2, 3013);
    let cfg = config(2, Storage::Dense);
    let cuts = BinCuts::from_dataset(&ds, cfg.n_bins);
    let rows = cuts.apply(&ds);
    let models: Vec<GbdtModel> = [BinWidth::U8, BinWidth::U16]
        .into_iter()
        .map(|w| {
            let store = BinnedStore::Dense(DenseBinnedRows::from_sparse_with_width(
                &rows,
                cuts.max_bins(),
                w,
            ));
            assert!(store.is_dense());
            single::train_prebinned(&store, &cuts, &ds.labels, &cfg)
        })
        .collect();
    assert_bit_identical(&models[0], &models[1], "u8 vs u16");
}
