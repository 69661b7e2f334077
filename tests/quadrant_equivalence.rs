//! Cross-quadrant equivalence: the central invariant of the reproduction.
//!
//! All four quadrants (plus the Yggdrasil and feature-parallel variants)
//! implement the same GBDT mathematics over the same binned data — they must
//! grow the same ensembles, differing only in cost. Gradients lie on one
//! power-of-two grid, so every histogram sum is exact and "the same" means
//! bit for bit. These tests pin that property across worker counts,
//! objectives, and shapes.

use gbdt_cluster::Cluster;
use gbdt_core::{Objective, TrainConfig};
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::Dataset;
use gbdt_quadrants::{featpar, qd1, qd2, qd3, qd4, yggdrasil, Aggregation, System};
use vero::{Vero, VeroConfig};

fn dataset(n: usize, d: usize, classes: usize, density: f64, seed: u64) -> Dataset {
    SyntheticConfig {
        n_instances: n,
        n_features: d,
        n_classes: classes,
        density,
        label_noise: 0.02,
        seed,
        ..Default::default()
    }
    .generate()
}

fn config(classes: usize, trees: usize, layers: usize) -> TrainConfig {
    let objective =
        if classes > 2 { Objective::Softmax { n_classes: classes } } else { Objective::Logistic };
    TrainConfig::builder()
        .n_trees(trees)
        .n_layers(layers)
        .objective(objective)
        .build()
        .unwrap()
}

fn assert_same_predictions(ds: &Dataset, a: &gbdt_core::GbdtModel, b: &gbdt_core::GbdtModel, tag: &str) {
    let pa = a.predict_dataset_raw(ds);
    let pb = b.predict_dataset_raw(ds);
    for (i, (x, y)) in pa.iter().zip(&pb).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{tag}: prediction {i} diverged: {x} vs {y}");
    }
}

#[test]
fn all_quadrants_grow_identical_ensembles_binary() {
    let ds = dataset(1_000, 18, 2, 0.5, 1001);
    let cfg = config(2, 5, 5);
    let cluster = Cluster::new(3);
    let m1 = qd1::train(&cluster, &ds, &cfg).model;
    let m2 = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce).model;
    let m2rs = qd2::train(&cluster, &ds, &cfg, Aggregation::ReduceScatter).model;
    let m3 = qd3::train(&cluster, &ds, &cfg).model;
    let m4 = qd4::train(&cluster, &ds, &cfg).model;
    let mygg = yggdrasil::train(&cluster, &ds, &cfg).model;
    assert_same_predictions(&ds, &m1, &m2, "qd1-vs-qd2");
    assert_same_predictions(&ds, &m2, &m2rs, "qd2ar-vs-qd2rs");
    assert_same_predictions(&ds, &m2, &m3, "qd2-vs-qd3");
    assert_same_predictions(&ds, &m3, &m4, "qd3-vs-qd4");
    assert_same_predictions(&ds, &m4, &mygg, "qd4-vs-yggdrasil");
}

#[test]
fn all_quadrants_agree_multiclass() {
    let ds = dataset(900, 15, 4, 0.5, 1009);
    let cfg = config(4, 4, 4);
    let cluster = Cluster::new(2);
    let m1 = qd1::train(&cluster, &ds, &cfg).model;
    let m2 = qd2::train(&cluster, &ds, &cfg, Aggregation::ParameterServer).model;
    let m4 = qd4::train(&cluster, &ds, &cfg).model;
    assert_same_predictions(&ds, &m1, &m2, "qd1-vs-qd2ps");
    assert_same_predictions(&ds, &m2, &m4, "qd2ps-vs-qd4");
}

#[test]
fn regression_agrees_too() {
    // Squared error sizes its gradient grid from max |label| and the
    // model's score bound, so row-sharded and vertical workers must derive
    // the same grid every tree.
    let ds = dataset(800, 14, 0, 0.5, 1021);
    let cfg = TrainConfig::builder()
        .n_trees(6)
        .n_layers(5)
        .objective(Objective::SquaredError)
        .build()
        .unwrap();
    let cluster = Cluster::new(3);
    let m1 = qd1::train(&cluster, &ds, &cfg).model;
    let m2 = qd2::train(&cluster, &ds, &cfg, Aggregation::ReduceScatter).model;
    let m3 = qd3::train(&cluster, &ds, &cfg).model;
    let m4 = qd4::train(&cluster, &ds, &cfg).model;
    assert!(m4.trees.iter().all(|t| t.n_leaves() > 4), "regression trees must split");
    assert_same_predictions(&ds, &m1, &m2, "qd1-vs-qd2rs");
    assert_same_predictions(&ds, &m2, &m3, "qd2rs-vs-qd3");
    assert_same_predictions(&ds, &m3, &m4, "qd3-vs-qd4");
    let reference = gbdt_quadrants::single::train(&ds, &cfg);
    let fp = featpar::train(&cluster, &ds, &cfg).model;
    assert_same_predictions(&ds, &reference, &fp, "single-vs-featpar");
}

#[test]
fn agreement_holds_across_worker_counts() {
    // For each W from 1 to 5, every row of the system table and `Vero::fit`
    // grow the same bits: the protocols run on the code itself at every
    // world size, and `Cluster` fails any run that leaves a message
    // unreceived. Cuts depend on the sketch merge tree, so cross-W
    // comparisons are not expected; the feature-parallel row sketches all
    // rows on every worker, so it matches the single-node oracle instead.
    let ds = dataset(700, 12, 2, 0.6, 1013);
    let cfg = config(2, 3, 5);
    let oracle = gbdt_quadrants::single::train(&ds, &cfg);
    for workers in 1usize..=5 {
        let cluster = Cluster::new(workers);
        let reference = System::Qd2AllReduce.run(&cluster, &ds, &cfg).model;
        for system in System::ALL {
            let model = system.run(&cluster, &ds, &cfg).model;
            let against = match system {
                System::LightGbmFeatureParallel => &oracle,
                _ => &reference,
            };
            let tag = format!("W={workers} {}", system.name());
            assert_same_predictions(&ds, against, &model, &tag);
        }
        let vero_cfg =
            VeroConfig { workers, train: cfg.clone(), ..VeroConfig::builder().build().unwrap() };
        let vero = Vero::fit(&vero_cfg, &ds).model.inner;
        assert_same_predictions(&ds, &reference, &vero, &format!("W={workers} Vero::fit"));
    }
}

#[test]
fn qd4_without_subtraction_grows_the_same_trees_with_more_histograms() {
    // The ablation shares its "scan every node" schedule with QD1.
    // Subtraction derives the sibling's exact sums, so the same splits win
    // (same feature, same bin, hence the same threshold) and predictions
    // agree bit for bit; without it both siblings are live beside their
    // parents' generation, so the histogram peak cannot be smaller.
    let ds = dataset(900, 16, 2, 0.5, 1017);
    let cfg = config(2, 4, 5);
    let cluster = Cluster::new(3);
    let transform = gbdt_partition::transform::TransformConfig::default();
    let with = qd4::train(&cluster, &ds, &cfg);
    let options = qd4::Qd4Options { use_subtraction: false };
    let without = qd4::train_with_options(&cluster, &ds, &cfg, &transform, options);

    let splits = |model: &gbdt_core::GbdtModel| -> Vec<Vec<(u32, u32)>> {
        model
            .trees
            .iter()
            .map(|tree| {
                let mut out = Vec::new();
                tree.visit_internal(|feature, threshold, _gain| {
                    out.push((feature, threshold.to_bits()))
                });
                out
            })
            .collect()
    };
    assert_eq!(splits(&with.model), splits(&without.model), "split features / thresholds differ");
    assert_same_predictions(&ds, &with.model, &without.model, "qd4 subtraction on-vs-off");
    assert!(
        without.stats.max_histogram_bytes() >= with.stats.max_histogram_bytes(),
        "no-subtraction peak {} < default peak {}",
        without.stats.max_histogram_bytes(),
        with.stats.max_histogram_bytes()
    );
}

#[test]
fn feature_parallel_matches_single_node_exactly() {
    // The replica mode computes single-node cuts, so it is exact vs the
    // reference regardless of W.
    let ds = dataset(800, 14, 2, 0.5, 1019);
    let cfg = config(2, 4, 5);
    let reference = gbdt_quadrants::single::train(&ds, &cfg);
    for workers in [2usize, 3, 5] {
        let fp = featpar::train(&Cluster::new(workers), &ds, &cfg).model;
        assert_same_predictions(&ds, &reference, &fp, &format!("featpar W={workers}"));
    }
}

#[test]
fn dense_datasets_agree_too() {
    let ds = SyntheticConfig {
        n_instances: 600,
        n_features: 12,
        n_classes: 2,
        dense: true,
        seed: 1021,
        ..Default::default()
    }
    .generate();
    let cfg = config(2, 3, 4);
    let cluster = Cluster::new(2);
    let m2 = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce).model;
    let m4 = qd4::train(&cluster, &ds, &cfg).model;
    assert_same_predictions(&ds, &m2, &m4, "dense");
}

#[test]
fn deep_trees_agree() {
    let ds = dataset(1_500, 10, 2, 0.7, 1031);
    let cfg = config(2, 2, 9);
    let cluster = Cluster::new(3);
    let m2 = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce).model;
    let m4 = qd4::train(&cluster, &ds, &cfg).model;
    assert_same_predictions(&ds, &m2, &m4, "deep");
}

/// A dense matrix whose cells are integers in -3..=3 (one in seven an exact
/// zero) with its labels, and its CSR twin. 200 rows stay under the sketch
/// capacity, so the cuts are exact for every worker count.
fn dense_with_zero_cells() -> (Dataset, Dataset) {
    let (n, d) = (200usize, 8usize);
    let mut state = 1033u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as i64
    };
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f32> = (0..d).map(|_| (next() % 7 - 3) as f32).collect();
        labels.push(f32::from(u8::from(row[0] + row[1] - row[2] > 0.0)));
        rows.push(row);
    }
    let dense = gbdt_data::DenseMatrix::from_rows(&rows).unwrap();
    assert!(rows.iter().flatten().any(|&v| v == 0.0));
    let ds = Dataset::new(gbdt_data::FeatureMatrix::Dense(dense), labels.clone(), 2, "zeros").unwrap();
    let as_csr =
        Dataset::new(gbdt_data::FeatureMatrix::Sparse(ds.features.to_csr()), labels, 2, "zeros-csr")
            .unwrap();
    (ds, as_csr)
}

/// An exact `0.0` cell of a dense matrix is a missing value to every
/// trainer, as it is to `to_csr` and the LIBSVM writer. Every trainer reads
/// the dense matrix — whole, or as a dense shard of it — through the same
/// row visitor, so all of them must sketch and bin the entries of its CSR
/// twin and grow the single-node reference's ensemble, split by split.
#[test]
fn dense_zero_cells_are_missing_to_every_trainer() {
    let (ds, as_csr) = dense_with_zero_cells();
    let cfg = config(2, 4, 4);

    let reference = gbdt_quadrants::single::train(&as_csr, &cfg);
    let splits = |m: &gbdt_core::GbdtModel| {
        let mut out = Vec::new();
        for tree in &m.trees {
            tree.visit_internal(|f, threshold, _| out.push((f, threshold.to_bits())));
        }
        out
    };
    assert!(!splits(&reference).is_empty());
    let mut others =
        vec![("single on dense".to_string(), gbdt_quadrants::single::train(&ds, &cfg))];
    for world in [1usize, 2] {
        let cluster = Cluster::new(world);
        for system in System::ALL {
            let model = system.run(&cluster, &ds, &cfg).model;
            others.push((format!("{} W={world}", system.name()), model));
        }
        let vcfg = vero::VeroConfig::builder()
            .workers(world)
            .n_trees(cfg.n_trees)
            .n_layers(cfg.n_layers)
            .build()
            .unwrap();
        others.push((format!("Vero::fit W={world}"), vero::Vero::fit(&vcfg, &ds).model.inner));
    }
    for (tag, model) in &others {
        assert_eq!(splits(model), splits(&reference), "{tag}: different splits");
        assert_same_predictions(&as_csr, &reference, model, tag);
        assert_same_predictions(&ds, &reference, model, tag);
    }
}

/// One meaning for a dense zero in prediction too: a model trained on the
/// dense matrix scores it exactly as it scores the CSR twin, through every
/// prediction path — batch predict, the convergence curve's incremental
/// scores, and the compiled serving executors fed by `nan_dense_rows`.
#[test]
fn dense_zero_cells_are_missing_to_every_predictor() {
    let (ds, as_csr) = dense_with_zero_cells();
    let vcfg = vero::VeroConfig::builder().workers(2).n_trees(4).n_layers(4).build().unwrap();
    let outcome = vero::Vero::fit(&vcfg, &ds);
    let model = &outcome.model.inner;
    let assert_same_bits = |got: &[f64], want: &[f64], tag: &str| {
        assert_eq!(got.len(), want.len(), "{tag}: score count");
        let differ = got.iter().zip(want).position(|(g, w)| g.to_bits() != w.to_bits());
        assert_eq!(differ, None, "{tag}: first differing score");
    };

    let on_csr = model.predict_dataset_raw(&as_csr);
    assert_same_bits(&model.predict_dataset_raw(&ds), &on_csr, "batch predict");

    // The curve's last point is evaluated from its final incremental scores.
    let curve = vero::convergence_curve(&outcome, &ds);
    let expected = gbdt_core::model::evaluation_from_scores(&model.objective, &on_csr, &ds.labels);
    assert_eq!(curve.last().unwrap().eval, expected, "convergence curve");
    assert_eq!(vero::convergence_curve(&outcome, &as_csr), curve, "curve on the CSR twin");

    let ens = gbdt_serve::compile::compile(model, 1).unwrap();
    let rows = gbdt_serve::exec::nan_dense_rows(&ds, ens.n_features);
    let twin_rows = gbdt_serve::exec::nan_dense_rows(&as_csr, ens.n_features);
    let cell_bits = |rows: &[f32]| rows.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(cell_bits(&rows), cell_bits(&twin_rows), "serve row buffer");
    for strategy in [gbdt_serve::Strategy::PerRow, gbdt_serve::Strategy::Blocked(0)] {
        let executor = strategy.executor();
        let mut served = vec![0.0; ds.n_instances() * ens.n_outputs];
        executor.predict_into(&ens, &rows, &mut served);
        assert_same_bits(&served, &on_csr, &format!("compiled serve ({})", executor.label()));
    }
}
