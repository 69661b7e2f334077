//! Table 3 — average run time per tree **scaled by Vero** (§5.3).
//!
//! Reruns the Figure 11 line-up and reports every system's mean
//! seconds-per-tree divided by Vero's on the same dataset (Vero ≡ 1.0),
//! which is exactly how the paper tabulates it. The expected shape:
//! LightGBM fastest on the low-dimensional dense datasets (ratios < 1),
//! Vero fastest on the high-dimensional sparse and multi-class datasets
//! (ratios > 1).

use gbdt_bench::args::Args;
use gbdt_bench::datasets;
use gbdt_bench::endtoend::{config_for, run_system, END_TO_END};
use gbdt_bench::output::ExperimentWriter;
use gbdt_cluster::NetworkCostModel;
use gbdt_quadrants::System;
use serde_json::json;

const DATASETS: &[&str] = &[
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
    let args = Args::parse(&["scale", "trees", "layers", "seed"], &[]);
    let scale = args.get_or("scale", 1.0f64);
    let trees = args.get_or("trees", 5usize);
    let layers = args.get_or("layers", 8usize);
    let seed = args.get_or("seed", 20190805u64);

    let mut w = ExperimentWriter::new("table3");
    w.section("run time per tree scaled by Vero (Vero = 1.0; lower = faster)");

    for name in DATASETS {
        let full = datasets::load(name, scale, seed);
        let (train, valid) = full.split_validation(0.2);
        let workers = datasets::default_workers(name);
        let mut cfg = config_for(&train, trees, layers);
        cfg.wire = args.wire();
        let multiclass = full.n_classes > 2;

        let mut seconds: Vec<(System, f64)> = Vec::new();
        let (mut retries, mut recoveries) = (0u64, 0u64);
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
            retries += run.retries;
            recoveries += run.recoveries;
            seconds.push((system, run.seconds_per_tree));
        }
        let vero = seconds
            .iter()
            .find(|(s, _)| *s == System::Vero)
            .map(|(_, t)| *t)
            .expect("Vero always runs");
        let ratio = |sys: System| -> serde_json::Value {
            seconds
                .iter()
                .find(|(s, _)| *s == sys)
                .map(|(_, t)| json!(t / vero))
                .unwrap_or(json!("-"))
        };
        let mut row = json!({
            "dataset": name,
            "XGBoost": ratio(System::XgboostLike),
            "LightGBM": ratio(System::LightGbmLike),
            "DimBoost": ratio(System::DimBoostLike),
            "Vero": 1.0,
            "vero_s_per_tree": vero,
        });
        if args.faults().is_some() {
            // Per-tree ratios aggregate across systems, so the recovery
            // counters do too (summed over the dataset's line-up).
            if let serde_json::Value::Object(m) = &mut row {
                m.insert("retries".into(), json!(retries));
                m.insert("recoveries".into(), json!(recoveries));
            }
        }
        w.row(row);
    }
    println!("\nDone. Rows written to results/table3.jsonl");
}
