//! End-to-end behaviour of the Vero system across objectives, dataset
//! shapes, and transformation options.

use vero::{GroupingStrategy, Objective, Vero, VeroConfig, WireEncoding};
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::Dataset;

fn binary(n: usize, d: usize, seed: u64) -> Dataset {
    SyntheticConfig {
        n_instances: n,
        n_features: d,
        n_classes: 2,
        density: (60.0 / d as f64).min(0.5),
        label_noise: 0.03,
        seed,
        ..Default::default()
    }
    .generate()
}

#[test]
fn learns_high_dimensional_sparse() {
    let ds = binary(3_000, 800, 2001);
    let (train, valid) = ds.split_validation(0.25);
    let cfg = VeroConfig::builder().workers(4).n_trees(30).n_layers(6).build().unwrap();
    let outcome = Vero::fit(&cfg, &train);
    let auc = outcome.model.evaluate(&valid).auc.unwrap();
    // 800 features with only ~60 observed per row is a hard, diluted
    // signal; well above random ranking is the bar.
    assert!(auc > 0.62, "AUC {auc}");
}

#[test]
fn learns_regression() {
    let ds = SyntheticConfig {
        n_instances: 2_000,
        n_features: 20,
        n_classes: 0,
        density: 1.0,
        seed: 2003,
        ..Default::default()
    }
    .generate();
    let cfg = VeroConfig::builder()
        .workers(3)
        .n_trees(30)
        .n_layers(5)
        .objective(Objective::SquaredError)
        .build()
        .unwrap();
    let outcome = Vero::fit(&cfg, &ds);
    let eval = outcome.model.evaluate(&ds);
    let std = {
        let mean: f64 = ds.labels.iter().map(|&y| f64::from(y)).sum::<f64>() / 2_000.0;
        (ds.labels.iter().map(|&y| (f64::from(y) - mean).powi(2)).sum::<f64>() / 2_000.0).sqrt()
    };
    assert!(eval.rmse.unwrap() < 0.6 * std, "rmse {:?} vs std {std}", eval.rmse);
}

#[test]
fn learns_multiclass() {
    let ds = SyntheticConfig {
        n_instances: 3_000,
        n_features: 100,
        n_classes: 6,
        density: 0.3,
        label_noise: 0.0,
        seed: 2011,
        ..Default::default()
    }
    .generate();
    let (train, valid) = ds.split_validation(0.2);
    let cfg = VeroConfig::builder()
        .workers(4)
        .n_trees(15)
        .n_layers(5)
        .objective(Objective::Softmax { n_classes: 6 })
        .build()
        .unwrap();
    let outcome = Vero::fit(&cfg, &train);
    let acc = outcome.model.evaluate(&valid).accuracy.unwrap();
    // Random guessing over 6 classes = 0.167; twice that is solid learning
    // for 15 shallow trees on 30-nonzero rows.
    assert!(acc > 0.33, "accuracy {acc} (random = 0.167)");
}

#[test]
fn wire_encodings_yield_identical_models() {
    // The transformation format is a pure wire concern: the trained model
    // must be bit-identical across naive / compressed / blockified.
    let ds = binary(900, 60, 2017);
    let mut models = Vec::new();
    for encoding in [WireEncoding::Naive, WireEncoding::Compressed, WireEncoding::Blockified] {
        let cfg = VeroConfig::builder()
            .workers(3)
            .n_trees(4)
            .n_layers(4)
            .encoding(encoding)
            .build()
            .unwrap();
        models.push(Vero::fit(&cfg, &ds).model);
    }
    assert_eq!(models[0], models[1]);
    assert_eq!(models[1], models[2]);
}

#[test]
fn grouping_strategies_yield_equivalent_quality() {
    // Grouping moves features between workers; the global best split per
    // node is unchanged, so models agree.
    let ds = binary(900, 60, 2027);
    let mut models = Vec::new();
    for strategy in [
        GroupingStrategy::RoundRobin,
        GroupingStrategy::Hash,
        GroupingStrategy::Range,
        GroupingStrategy::GreedyBalanced,
    ] {
        let cfg = VeroConfig::builder()
            .workers(3)
            .n_trees(4)
            .n_layers(4)
            .grouping(strategy)
            .build()
            .unwrap();
        models.push(Vero::fit(&cfg, &ds).model);
    }
    let reference = models[0].inner.predict_dataset_raw(&ds);
    for m in &models[1..] {
        let p = m.inner.predict_dataset_raw(&ds);
        for (a, b) in reference.iter().zip(&p) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }
}

#[test]
fn convergence_curve_tracks_quality() {
    let ds = binary(2_000, 100, 2029);
    let (train, valid) = ds.split_validation(0.25);
    let cfg = VeroConfig::builder().workers(3).n_trees(15).n_layers(5).build().unwrap();
    let outcome = Vero::fit(&cfg, &train);
    let curve = vero::convergence_curve(&outcome, &valid);
    assert_eq!(curve.len(), 15);
    let first = curve.first().unwrap().eval.headline();
    let last = curve.last().unwrap().eval.headline();
    assert!(last > first, "metric should improve: {first} -> {last}");
    assert!(curve.windows(2).all(|w| w[1].seconds >= w[0].seconds));
}

#[test]
fn handles_more_workers_than_informative_features() {
    let ds = binary(500, 6, 2039);
    let cfg = VeroConfig::builder().workers(8).n_trees(3).n_layers(4).build().unwrap();
    let outcome = Vero::fit(&cfg, &ds);
    assert_eq!(outcome.model.n_trees(), 3);
}

#[test]
fn model_file_roundtrip_preserves_predictions() {
    let ds = binary(600, 40, 2053);
    let cfg = VeroConfig::builder().workers(2).n_trees(5).n_layers(4).build().unwrap();
    let outcome = Vero::fit(&cfg, &ds);
    let path = std::env::temp_dir().join("vero-e2e-roundtrip.json");
    outcome.model.save(&path).unwrap();
    let loaded = vero::VeroModel::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    ds.features.for_each_row(|i, f, v| {
        if i % 37 == 0 {
            assert_eq!(outcome.model.predict_raw(f, v), loaded.predict_raw(f, v));
        }
    });
}
