//! Quickstart: train Vero on a synthetic binary-classification workload,
//! evaluate, inspect the cost breakdown, and round-trip the model to disk.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gbdt_data::synthetic::SyntheticConfig;
use vero::{Vero, VeroConfig, VeroModel};

fn main() {
    // 1. A 10K x 200 sparse binary dataset (20% density), like a small
    //    high-dimensional workload.
    let dataset = SyntheticConfig {
        n_instances: 10_000,
        n_features: 200,
        n_classes: 2,
        density: 0.2,
        label_noise: 0.05,
        seed: 42,
        name: "quickstart".into(),
        ..Default::default()
    }
    .generate();
    let (train, valid) = dataset.split_validation(0.2);
    println!(
        "dataset: {} train / {} valid instances, {} features",
        train.n_instances(),
        valid.n_instances(),
        train.n_features()
    );

    // 2. Configure: 4 workers, 30 trees of 6 layers. Vero defaults to the
    //    greedy-balanced column grouping and the blockified transform.
    let config = VeroConfig::builder()
        .workers(4)
        .n_trees(30)
        .n_layers(6)
        .learning_rate(0.2)
        .build()
        .expect("valid config");

    // 3. Train. The outcome carries the model plus per-tree and per-worker
    //    cost accounting.
    let outcome = Vero::fit(&config, &train);
    let eval = outcome.model.evaluate(&valid);
    println!(
        "validation AUC = {:.4}, accuracy = {:.4}",
        eval.auc.unwrap(),
        eval.accuracy.unwrap()
    );
    let total_comp: f64 = outcome.per_tree.iter().map(|t| t.comp_seconds).sum();
    let total_comm: f64 = outcome.per_tree.iter().map(|t| t.comm_seconds).sum();
    println!(
        "training cost: {:.2}s computation + {:.3}s modelled communication; {} bytes moved",
        total_comp,
        total_comm,
        outcome.stats.total_bytes_sent()
    );

    // 4. Single-instance prediction: sparse (feature, value) pairs.
    let csr = valid.features.to_csr();
    let (feats, vals) = csr.row(0);
    let feats = feats.to_vec();
    let p = outcome.model.predict(&feats, vals);
    println!("P(class 1 | first validation row) = {:.4} (label {})", p[0], valid.labels[0]);

    // 5. Save and reload.
    let path = std::env::temp_dir().join("vero-quickstart.json");
    outcome.model.save(&path).expect("model saves");
    let reloaded = VeroModel::load(&path).expect("model loads");
    assert_eq!(reloaded.predict(&feats, vals), p);
    println!("model saved to {} and reloaded: identical predictions", path.display());
}
