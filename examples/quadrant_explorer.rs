//! Quadrant explorer: run every system of the table — all four
//! data-management quadrants and the variants beside them — on a workload
//! shape of your choosing and see the paper's Table 1 verdict emerge.
//!
//! ```sh
//! cargo run --release --example quadrant_explorer -- [N] [D] [C] [workers]
//! # e.g. a high-dimensional shape:
//! cargo run --release --example quadrant_explorer -- 8000 4000 2 8
//! # a low-dimensional, instance-heavy shape:
//! cargo run --release --example quadrant_explorer -- 40000 50 2 8
//! ```

use gbdt_cluster::Cluster;
use gbdt_core::{Objective, TrainConfig};
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_quadrants::System;

fn main() {
    let args: Vec<usize> =
        std::env::args().skip(1).map(|a| a.parse().expect("numeric argument")).collect();
    let n = args.first().copied().unwrap_or(10_000);
    let d = args.get(1).copied().unwrap_or(1_000);
    let c = args.get(2).copied().unwrap_or(2);
    let workers = args.get(3).copied().unwrap_or(8);

    let dataset = SyntheticConfig {
        n_instances: n,
        n_features: d,
        n_classes: c,
        density: (100.0 / d as f64).min(0.2),
        seed: 1,
        name: "explorer".into(),
        ..Default::default()
    }
    .generate();
    let objective =
        if c > 2 { Objective::Softmax { n_classes: c } } else { Objective::Logistic };
    let config = TrainConfig::builder()
        .n_trees(3)
        .n_layers(8)
        .objective(objective)
        .build()
        .expect("valid config");
    let cluster = Cluster::new(workers);

    println!("workload: N={n} D={d} C={c}, W={workers}, L=8, q=20, 3 trees\n");
    println!(
        "{:<14}{:<26}{:>12}{:>12}{:>12}{:>14}{:>14}",
        "system", "quadrant", "comp s/tree", "comm s/tree", "total", "net MB", "hist MB/wk"
    );

    let mut best = (f64::INFINITY, "");
    for system in System::ALL {
        if c > 2 && !system.supports_multiclass() {
            continue;
        }
        let result = system.run(&cluster, &dataset, &config);
        let total = result.mean_tree_seconds();
        if total < best.0 {
            best = (total, system.name());
        }
        println!(
            "{:<14}{:<26}{:>12.3}{:>12.3}{:>12.3}{:>14.2}{:>14.2}",
            system.name(),
            system.quadrant(),
            result.mean_tree_comp_seconds(),
            result.mean_tree_comm_seconds(),
            total,
            result.stats.total_bytes_sent() as f64 / 1e6,
            result.stats.max_histogram_bytes() as f64 / 1e6,
        );
    }
    println!("\nfastest on this shape (measured): {}", best.1);
    println!("(paper Table 1: vertical wins on high-dim / deep / multi-class;");
    println!(" horizontal wins on low-dim with many instances; row-store beats");
    println!(" column-store unless N is tiny)");
}
