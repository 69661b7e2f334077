//! Table 7 (Appendix C) — Yggdrasil vs our QD3 vs Vero on low-dimensional
//! datasets (Epsilon, SUSY, Higgs stand-ins; W = 5).
//!
//! Expected shape: the hybrid-index QD3 beats the column-wise-index
//! Yggdrasil (whose every node split repartitions all columns), and Vero
//! (row-store) is fastest.

use gbdt_bench::args::Args;
use gbdt_bench::datasets;
use gbdt_bench::output::ExperimentWriter;
use gbdt_cluster::Cluster;
use gbdt_core::TrainConfig;
use gbdt_quadrants::System;
use serde_json::json;

fn main() {
    let args = Args::parse(&["scale", "trees", "seed"], &[]);
    let scale = args.get_or("scale", 1.0f64);
    let trees = args.get_or("trees", 3usize);
    let seed = args.get_or("seed", 77u64);

    let mut w = ExperimentWriter::new("table7");
    w.section("time per tree (s): Yggdrasil vs QD3 (ours) vs Vero, W=5");

    for name in ["epsilon", "susy", "higgs"] {
        let ds = datasets::load(name, scale, seed);
        let cfg = TrainConfig::builder()
            .n_trees(trees)
            .n_layers(8)
            .threads(args.threads())
            .wire(args.wire())
            .build()
            .unwrap();
        let cluster = Cluster::new(5);
        let mut row = serde_json::Map::new();
        row.insert("dataset".into(), json!(name));
        row.insert("N".into(), json!(ds.n_instances()));
        row.insert("D".into(), json!(ds.n_features()));
        for system in [System::Yggdrasil, System::Qd3, System::Vero] {
            let result = system.run(&cluster, &ds, &cfg);
            row.insert(system.name().to_string(), json!(result.mean_tree_seconds()));
        }
        w.row(serde_json::Value::Object(row));
    }
    println!("\nDone. Rows written to results/table7.jsonl");
}
