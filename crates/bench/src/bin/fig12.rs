//! Figure 12 + Table 4 — the industrial workloads (§6).
//!
//! Gender (122M × 330K, binary), Age (48M × 330K, 9 classes), Taste
//! (10M × 15K, 100 classes) as scaled synthetic stand-ins, on the §6
//! production link model (10 Gbps). Systems follow the paper: Gender runs
//! XGBoost-like, DimBoost-like, and Vero; Age and Taste run XGBoost-like
//! and Vero (DimBoost does not support multi-class). Reports per-tree run
//! time (Table 4) and the convergence curves (Figure 12).

use gbdt_bench::args::Args;
use gbdt_bench::datasets;
use gbdt_bench::endtoend::{add_fault_columns, config_for, run_system};
use gbdt_bench::output::ExperimentWriter;
use gbdt_cluster::NetworkCostModel;
use gbdt_quadrants::System;
use serde_json::json;

fn main() {
    let args = Args::parse(&["scale", "trees", "layers", "seed", "dataset"], &[]);
    let scale = args.get_or("scale", 1.0f64);
    let trees = args.get_or("trees", 3usize);
    let layers = args.get_or("layers", 8usize);
    let seed = args.get_or("seed", 60_2019u64);
    let only = args.get("dataset").map(str::to_string);

    let mut w = ExperimentWriter::new("fig12");

    let lineups: &[(&str, &[System])] = &[
        ("gender", &[System::XgboostLike, System::DimBoostLike, System::Vero]),
        ("age", &[System::XgboostLike, System::Vero]),
        ("taste", &[System::XgboostLike, System::Vero]),
    ];

    for (name, systems) in lineups {
        if let Some(o) = &only {
            if o != name {
                continue;
            }
        }
        let full = datasets::load(name, scale, seed);
        let (train, valid) = full.split_validation(0.2);
        let workers = datasets::default_workers(name);
        let mut cfg = config_for(&train, trees, layers);
        cfg.wire = args.wire();

        w.section(&format!(
            "{name}: N={} D={} C={} W={workers} (10 Gbps links, paper §6)",
            train.n_instances(),
            train.n_features(),
            full.n_classes
        ));
        for &system in *systems {
            let run = run_system(
                system,
                &train,
                &valid,
                workers,
                NetworkCostModel::production_cluster(),
                &cfg,
                args.faults(),
            );
            let last = run.curve.last().cloned();
            let mut row = json!({
                "dataset": name,
                "system": run.system,
                "s_per_tree": run.seconds_per_tree,
                "comp_s": run.comp_per_tree,
                "comm_s": run.comm_per_tree,
                "final_metric": run.final_metric,
                "total_s": last.map(|p| p.seconds).unwrap_or(0.0),
            });
            if args.faults().is_some() {
                add_fault_columns(&mut row, &run);
            }
            w.row(row);
            w.row_silent(json!({
                "dataset": name,
                "system": run.system,
                "curve": run
                    .curve
                    .iter()
                    .map(|p| json!({"t": p.seconds, "metric": p.eval.headline()}))
                    .collect::<Vec<_>>(),
            }));
        }
    }
    println!("\nDone. Table 4 = the s_per_tree column; curves in results/fig12.jsonl");
}
