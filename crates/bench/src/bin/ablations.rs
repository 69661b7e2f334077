//! Ablations of Vero's design choices (beyond the paper's own Table 5
//! wire-format ablation):
//!
//! * **histogram subtraction** on/off (§2.1.2: "such subtraction technique
//!   can speed up the training process considerably");
//! * **column grouping strategy** — greedy-balanced vs round-robin / hash /
//!   range on a skew-heavy dataset (§4.2.3's straggler concern);
//! * **network bandwidth sensitivity** — QD2 vs Vero across 0.1 / 1 / 10
//!   Gbps links (the §6 observation that 10 Gbps lets horizontal systems
//!   close the gap on low-dimensional data);
//! * **histogram wire codec** — dense vs adaptive vs lossy-f32
//!   aggregation payloads on sparse high-dimensional data (DESIGN.md §4.7),
//!   reporting logical vs wire bytes, compression ratio, and wall-time;
//! * **fault recovery** — overhead of the retry/ack protocol and per-tree
//!   checkpoint replay under a seeded chaos plan (drops + duplicates +
//!   one mid-tree crash) vs the fault-free baseline on the lab-cluster
//!   link model, asserting the recovered ensemble is bit-identical.

use gbdt_bench::args::Args;
use gbdt_bench::output::ExperimentWriter;
use gbdt_cluster::{Cluster, NetworkCostModel};
use gbdt_core::{TrainConfig, WireCodec};
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_partition::transform::TransformConfig;
use rand::prelude::*;
use gbdt_partition::GroupingStrategy;
use gbdt_quadrants::qd4::{self, Qd4Options};
use gbdt_quadrants::System;
use serde_json::json;

fn main() {
    let args = Args::parse(&["scale", "trees", "workers"], &[]);
    let scale = args.get_or("scale", 1.0f64);
    let trees = args.get_or("trees", 3usize);
    let workers = args.get_or("workers", 8usize);
    let n = ((20_000.0 / scale) as usize).max(2_000);

    let mut w = ExperimentWriter::new("ablations");
    let cfg = TrainConfig::builder()
        .n_trees(trees)
        .n_layers(8)
        .threads(args.threads())
        .wire(args.wire())
        .build()
        .unwrap();

    // --- 1. Histogram subtraction ---
    w.section("histogram subtraction on/off (QD4)");
    let ds = SyntheticConfig {
        n_instances: n,
        n_features: 1_000,
        density: 0.1,
        seed: 5,
        ..Default::default()
    }
    .generate();
    for use_subtraction in [true, false] {
        let result = qd4::train_with_options(
            &Cluster::new(workers),
            &ds,
            &cfg,
            &TransformConfig::default(),
            Qd4Options { use_subtraction },
        );
        w.row(json!({
            "subtraction": use_subtraction,
            "comp_s_per_tree": result.mean_tree_comp_seconds(),
            "comm_s_per_tree": result.mean_tree_comm_seconds(),
            "hist_mb": result.stats.max_histogram_bytes() as f64 / 1e6,
        }));
    }

    // --- 2. Column grouping strategy on skewed features ---
    // A dataset where a few features are far denser than the rest: greedy
    // balancing should equalize per-worker pair counts.
    w.section("column grouping strategy (skewed feature density)");
    let skewed = {
        // Concatenate a dense block (features 0..20 on every row) with a
        // sparse tail. Build via CSR directly for exact control.
        use gbdt_data::sparse::CsrBuilder;
        let d = 800usize;
        let mut rng = StdRng::seed_from_u64(9);
        let mut b = CsrBuilder::new(d);
        let mut labels = Vec::new();
        for _ in 0..n {
            let mut entries: Vec<(u32, f32)> = (0..20u32)
                .map(|f| (f, rng.gen_range(-1.0f32..1.0)))
                .collect();
            for f in 20..d as u32 {
                if rng.gen_bool(0.02) {
                    entries.push((f, rng.gen_range(-1.0f32..1.0)));
                }
            }
            let label = f32::from(entries[0].1 + entries[1].1 > 0.0);
            b.push_row(&entries).unwrap();
            labels.push(label);
        }
        gbdt_data::Dataset::new(gbdt_data::FeatureMatrix::Sparse(b.build()), labels, 2, "skewed")
            .unwrap()
    };
    for strategy in [
        GroupingStrategy::RoundRobin,
        GroupingStrategy::Hash,
        GroupingStrategy::Range,
        GroupingStrategy::GreedyBalanced,
    ] {
        let tcfg = TransformConfig { strategy, ..Default::default() };
        let result = qd4::train_with_transform(&Cluster::new(workers), &skewed, &cfg, &tcfg);
        // Straggler effect: max vs mean per-worker histogram-build time.
        let max_build = result
            .stats
            .workers
            .iter()
            .map(|s| s.comp(gbdt_cluster::Phase::HistogramBuild))
            .fold(0.0, f64::max);
        let mean_build = result
            .stats
            .workers
            .iter()
            .map(|s| s.comp(gbdt_cluster::Phase::HistogramBuild))
            .sum::<f64>()
            / result.stats.workers.len() as f64;
        w.row(json!({
            "strategy": format!("{strategy:?}"),
            "s_per_tree": result.mean_tree_seconds(),
            "hist_build_max_s": max_build,
            "hist_build_mean_s": mean_build,
            "straggler_ratio": max_build / mean_build.max(1e-12),
        }));
    }

    // --- 3. Bandwidth sensitivity ---
    w.section("link bandwidth sensitivity: QD2 vs Vero (s/tree, D=2500)");
    let hs = SyntheticConfig {
        n_instances: n,
        n_features: 2_500,
        density: 0.04,
        seed: 13,
        ..Default::default()
    }
    .generate();
    for gbps in [0.1f64, 1.0, 10.0] {
        let cluster = Cluster::with_cost(workers, NetworkCostModel::gbps(gbps));
        let qd2 = System::Qd2AllReduce.run(&cluster, &hs, &cfg);
        let vero = System::Vero.run(&cluster, &hs, &cfg);
        w.row(json!({
            "gbps": gbps,
            "qd2_s_per_tree": qd2.mean_tree_seconds(),
            "qd2_comm_s": qd2.mean_tree_comm_seconds(),
            "vero_s_per_tree": vero.mean_tree_seconds(),
            "vero_comm_s": vero.mean_tree_comm_seconds(),
            "speedup": qd2.mean_tree_seconds() / vero.mean_tree_seconds(),
        }));
    }
    // --- 4. Histogram wire codec ---
    // Sparse high-dimensional data keeps most bins empty below the root, so
    // the adaptive codec should cut aggregation bytes hard while staying
    // bit-identical to dense; f32 halves the residual dense payloads at the
    // cost of a (slightly) different ensemble.
    w.section("histogram wire codec (QD2 all-reduce, sparse D=2000)");
    let sparse_ds = SyntheticConfig {
        n_instances: n,
        n_features: 2_000,
        density: 0.05,
        seed: 21,
        ..Default::default()
    }
    .generate();
    let mut dense_model = None;
    for codec in WireCodec::ALL {
        let wcfg = TrainConfig::builder()
            .n_trees(trees)
            .n_layers(8)
            .threads(args.threads())
            .wire(codec)
            .build()
            .unwrap();
        let result = System::Qd2AllReduce.run(&Cluster::new(workers), &sparse_ds, &wcfg);
        let identical = match &dense_model {
            None => {
                dense_model = Some(result.model.clone());
                true
            }
            Some(m) => *m == result.model,
        };
        w.row(json!({
            "wire": codec.label(),
            "logical_mb": result.stats.total_logical_f64_bytes() as f64 / 1e6,
            "wire_mb": result.stats.total_wire_f64_bytes() as f64 / 1e6,
            "compression": result.stats.wire_compression(),
            "s_per_tree": result.mean_tree_seconds(),
            "comm_s_per_tree": result.mean_tree_comm_seconds(),
            "identical_to_dense": identical,
        }));
    }
    // --- 5. Fault recovery overhead ---
    // Same trainer, same data, same lab-cluster links — once fault-free,
    // once under a seeded chaos plan. The headline guarantee: the faulted
    // run recovers to the *bit-identical* ensemble; the rows quantify what
    // that recovery costs in modelled time and extra bytes.
    w.section("fault recovery: retry + per-tree checkpoint vs fault-free (QD2, lab cluster)");
    let chaos = gbdt_cluster::FaultPlan::parse("1031:drop=0.02,dup=0.02,crash=1@1.2")
        .expect("valid chaos spec");
    let mut baseline: Option<(f64, u64, gbdt_core::GbdtModel)> = None;
    for (label, faults) in [("fault-free", None), ("chaos", Some(chaos))] {
        let cluster = Cluster::with_cost(workers, NetworkCostModel::lab_cluster())
            .with_faults(faults);
        let result = System::Qd2AllReduce.run(&cluster, &ds, &cfg);
        let bytes = result.stats.total_bytes_sent();
        let wall = result.total_seconds();
        let identical = match &baseline {
            None => {
                baseline = Some((wall, bytes, result.model.clone()));
                true
            }
            Some((_, _, m)) => *m == result.model,
        };
        let (base_wall, base_bytes, _) = baseline.as_ref().expect("baseline recorded");
        w.row(json!({
            "mode": label,
            "s_per_tree": result.mean_tree_seconds(),
            "total_s": wall,
            "time_overhead": wall / base_wall.max(1e-12),
            "bytes_mb": bytes as f64 / 1e6,
            "byte_overhead": bytes as f64 / (*base_bytes).max(1) as f64,
            "retries": result.stats.total_retries(),
            "duplicates_dropped": result.stats.total_duplicates_dropped(),
            "recoveries": result.stats.recoveries,
            "recovery_s": result.stats.recovery_seconds,
            "identical_to_fault_free": identical,
        }));
        assert!(identical, "chaos run must recover the fault-free ensemble");
    }
    println!("\nDone. Rows written to results/ablations.jsonl");
}
