//! Figure 11 — end-to-end convergence curves (§5.3).
//!
//! Four systems (XGBoost-like, LightGBM-like, DimBoost-like, Vero) on the
//! eight Table 2 datasets (scaled stand-ins): validation AUC (binary) or
//! accuracy (multi-class) against cumulative training time, one curve per
//! system, plus the per-dataset run-time table feeding Table 3.
//!
//! `--dataset <name>` restricts to one dataset; `--list-datasets` prints the
//! Table 2 inventory.

use gbdt_bench::args::Args;
use gbdt_bench::datasets;
use gbdt_bench::endtoend::{add_fault_columns, config_for, run_system, END_TO_END};
use gbdt_bench::output::ExperimentWriter;
use gbdt_cluster::NetworkCostModel;
use serde_json::json;

/// The Figure 11 dataset line-up (Table 2 order).
pub const FIG11_DATASETS: &[&str] = &[
    "susy",
    "higgs",
    "criteo",
    "epsilon",
    "rcv1",
    "synthesis",
    "rcv1-multi",
    "synthesis-multi",
];

fn main() {
    let args = Args::parse(&["scale", "trees", "layers", "dataset", "seed"], &["list-datasets"]);
    let scale = args.get_or("scale", 1.0f64);
    let trees = args.get_or("trees", 10usize);
    let layers = args.get_or("layers", 8usize);
    let seed = args.get_or("seed", 20190805u64);
    let only = args.get("dataset").map(str::to_string);

    let mut w = ExperimentWriter::new("fig11");

    if args.has("list-datasets") {
        w.section("Table 2 — datasets (paper shape -> scaled stand-in)");
        for name in FIG11_DATASETS {
            let preset = gbdt_data::synthetic::presets::by_name(name).unwrap();
            let ds = datasets::load(name, scale, seed);
            w.row(json!({
                "dataset": name,
                "paper_N": preset.n_instances,
                "paper_D": preset.n_features,
                "labels": preset.n_classes,
                "scaled_N": ds.n_instances(),
                "scaled_D": ds.n_features(),
                "avg_nnz": ds.avg_nnz_per_row(),
            }));
        }
        return;
    }

    for name in FIG11_DATASETS {
        if let Some(o) = &only {
            if o != name {
                continue;
            }
        }
        let full = datasets::load(name, scale, seed);
        let (train, valid) = full.split_validation(0.2);
        let workers = datasets::default_workers(name);
        let multiclass = full.n_classes > 2;
        let mut cfg = config_for(&train, trees, layers);
        cfg.threads = args.threads();
        cfg.wire = args.wire();

        w.section(&format!(
            "{name}: N={} D={} C={} W={workers} T={trees} L={layers}",
            train.n_instances(),
            train.n_features(),
            full.n_classes
        ));
        for &system in END_TO_END {
            if multiclass && !system.supports_multiclass() {
                continue;
            }
            let run = run_system(
                system,
                &train,
                &valid,
                workers,
                NetworkCostModel::lab_cluster(),
                &cfg,
                args.faults(),
            );
            // Print the curve (downsampled to <= 10 points for the table;
            // the JSONL row carries every point).
            let step = (run.curve.len() / 10).max(1);
            let curve_cells: Vec<serde_json::Value> = run
                .curve
                .iter()
                .enumerate()
                .filter(|(i, _)| i % step == 0 || *i + 1 == run.curve.len())
                .map(|(_, p)| json!({"t": p.seconds, "metric": p.eval.headline()}))
                .collect();
            let mut row = json!({
                "dataset": name,
                "system": run.system,
                "s_per_tree": run.seconds_per_tree,
                "comp_s": run.comp_per_tree,
                "comm_s": run.comm_per_tree,
                "final_metric": run.final_metric,
                "bytes_sent": run.bytes_sent,
            });
            if args.faults().is_some() {
                add_fault_columns(&mut row, &run);
            }
            w.row(row);
            w.row_silent(json!({
                "dataset": name,
                "system": run.system,
                "curve": curve_cells,
            }));
        }
    }
    println!("\nDone. Curves written to results/fig11.jsonl (x = seconds, y = AUC/accuracy)");
}
