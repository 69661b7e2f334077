//! Table 8 (Appendix D) — LightGBM data-parallel vs feature-parallel vs
//! Vero on the small RCV1 / RCV1-multi stand-ins.
//!
//! Expected shape: feature-parallel beats data-parallel (no histogram
//! aggregation), and Vero still wins on these small datasets because the
//! bitmap traffic does not dominate at small N.

use gbdt_bench::args::Args;
use gbdt_bench::datasets;
use gbdt_bench::output::ExperimentWriter;
use gbdt_cluster::Cluster;
use gbdt_core::{Objective, TrainConfig};
use gbdt_quadrants::System;
use serde_json::json;

fn main() {
    let args = Args::parse(&["scale", "trees", "seed", "workers"], &[]);
    let scale = args.get_or("scale", 1.0f64);
    let trees = args.get_or("trees", 3usize);
    let seed = args.get_or("seed", 88u64);
    let workers = args.get_or("workers", 5usize);

    let mut w = ExperimentWriter::new("table8");
    w.section("time per tree (s): LightGBM-DP vs LightGBM-FP vs Vero");

    for name in ["rcv1", "rcv1-multi"] {
        let ds = datasets::load(name, scale, seed);
        let objective = if ds.n_classes > 2 {
            Objective::Softmax { n_classes: ds.n_classes }
        } else {
            Objective::Logistic
        };
        let cfg = TrainConfig::builder()
            .n_trees(trees)
            .n_layers(8)
            .objective(objective)
            .wire(args.wire())
            .build()
            .unwrap();
        let cluster = Cluster::new(workers);
        let mut row = serde_json::Map::new();
        row.insert("dataset".into(), json!(name));
        for system in [System::LightGbmLike, System::LightGbmFeatureParallel, System::Vero] {
            let result = system.run(&cluster, &ds, &cfg);
            let label = match system {
                System::LightGbmLike => "LightGBM-DP",
                other => other.name(),
            };
            row.insert(label.to_string(), json!(result.mean_tree_seconds()));
            row.insert(
                format!("{label}_bytes"),
                json!(result.stats.total_bytes_sent()),
            );
        }
        w.row(serde_json::Value::Object(row));
    }
    println!("\nDone. Rows written to results/table8.jsonl");
}
