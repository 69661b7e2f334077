//! Train Vero on a LIBSVM-format file — the format the paper's public
//! datasets (SUSY, Higgs, RCV1, …) ship in.
//!
//! ```sh
//! cargo run --release --example libsvm_train -- path/to/data.libsvm [n_classes]
//! ```
//!
//! Without arguments, a small demo file is generated, trained on, and the
//! model is written next to it.

#![allow(
    clippy::disallowed_methods,
    reason = "a CLI entry point reads its own arguments"
)]

use gbdt_data::libsvm;
use gbdt_data::synthetic::SyntheticConfig;
use vero::{Vero, VeroConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let (path, n_classes) = match args.next() {
        Some(p) => {
            let classes = args.next().map(|c| c.parse().expect("numeric class count")).unwrap_or(2);
            (std::path::PathBuf::from(p), classes)
        }
        None => {
            // Demo: write a synthetic dataset out as LIBSVM, then read it
            // back like any external file.
            let path = std::env::temp_dir().join("vero-demo.libsvm");
            let ds = SyntheticConfig {
                n_instances: 5_000,
                n_features: 100,
                density: 0.3,
                seed: 77,
                ..Default::default()
            }
            .generate();
            let mut file = std::fs::File::create(&path).expect("demo file creates");
            libsvm::write_to(&mut file, &ds).expect("demo file writes");
            println!("no input given; wrote a demo dataset to {}", path.display());
            (path, 2)
        }
    };

    let dataset = libsvm::read_file(&path, n_classes, None).expect("readable LIBSVM file");
    println!(
        "loaded {}: {} instances, {} features, {} classes",
        path.display(),
        dataset.n_instances(),
        dataset.n_features(),
        dataset.n_classes
    );
    let (train, valid) = dataset.split_validation(0.2);

    let objective = match n_classes {
        0 => vero::Objective::SquaredError,
        2 => vero::Objective::Logistic,
        c => vero::Objective::Softmax { n_classes: c },
    };
    let config = VeroConfig::builder()
        .workers(4)
        .n_trees(20)
        .n_layers(6)
        .objective(objective)
        .build()
        .expect("valid config");
    let outcome = Vero::fit(&config, &train);
    let eval = outcome.model.evaluate(&valid);
    match (eval.auc, eval.accuracy, eval.rmse) {
        (Some(auc), _, _) => println!("validation AUC = {auc:.4}"),
        (_, Some(acc), _) => println!("validation accuracy = {acc:.4}"),
        (_, _, Some(rmse)) => println!("validation RMSE = {rmse:.4}"),
        _ => {}
    }

    let model_path = path.with_extension("model.json");
    outcome.model.save(&model_path).expect("model saves");
    println!("model written to {}", model_path.display());
}
