//! Figure 10 — breakdown comparison of the quadrants (§5.2).
//!
//! Subplots (a)–(d): QD2 (horizontal+row) vs QD4 (vertical+row) per-tree
//! computation and communication time against N, D, L, C. Subplots (e)–(f):
//! per-worker memory (data vs histograms). Subplots (g)–(h): QD3
//! (vertical+column) vs QD4 against D (tiny N) and N.
//!
//! With `--summary` prints the Table 1 advantageous-scenario matrix derived
//! from the measurements.
//!
//! Shapes follow the paper with a documented down-scaling: N divided by
//! `500 × --scale`, D divided by 20; low-D sweeps keep the paper's φ = 20%
//! while high-D sweeps keep ~100 nonzeros/row (the Synthesis shape).
//! Defaults: W = 8, T = 3 trees per point, q = 20.

use gbdt_bench::args::Args;
use gbdt_bench::output::ExperimentWriter;
use gbdt_cluster::Cluster;
use gbdt_core::{Objective, TrainConfig, WireCodec};
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_quadrants::System;
use serde_json::json;

/// Sweep-invariant run settings shared by every fig10 point.
#[derive(Clone, Copy)]
struct Knobs {
    trees: usize,
    threads: usize,
    wire: WireCodec,
}

struct Point {
    n: usize,
    d: usize,
    c: usize,
    l: usize,
}

fn dataset(p: &Point, seed: u64) -> gbdt_data::Dataset {
    // Low-D sweeps keep the paper's phi = 20%; high-D sweeps keep the
    // Synthesis shape of ~100 nonzeros per row (a 60 GB / 5e9-pair dataset
    // at paper scale implies ~0.1% density, not 20%).
    let density = (100.0 / p.d as f64).min(0.2);
    SyntheticConfig {
        n_instances: p.n,
        n_features: p.d,
        n_classes: p.c,
        density,
        informative_ratio: 0.2,
        label_noise: 0.05,
        dense: false,
        seed,
        ..Default::default()
    }
    .generate()
}

fn config(p: &Point, knobs: Knobs) -> TrainConfig {
    let objective = if p.c > 2 {
        Objective::Softmax { n_classes: p.c }
    } else {
        Objective::Logistic
    };
    TrainConfig::builder()
        .n_trees(knobs.trees)
        .n_layers(p.l)
        .objective(objective)
        .threads(knobs.threads)
        .wire(knobs.wire)
        .build()
        .expect("valid fig10 config")
}

fn run_point(
    w: &mut ExperimentWriter,
    system: System,
    p: &Point,
    workers: usize,
    knobs: Knobs,
    label: (&str, usize),
) {
    let ds = dataset(p, 100 + label.1 as u64);
    let cluster = Cluster::new(workers);
    let result = system.run(&cluster, &ds, &config(p, knobs));
    w.row(json!({
        "system": system.name(),
        label.0: label.1,
        "comp_s": result.mean_tree_comp_seconds(),
        "comm_s": result.mean_tree_comm_seconds(),
        "std_s": result.std_tree_seconds(),
        "bytes_sent": result.stats.total_bytes_sent(),
        "data_mb": result.stats.max_data_bytes() as f64 / 1e6,
        "hist_mb": result.stats.max_histogram_bytes() as f64 / 1e6,
        "par_speedup": result.stats.parallel_speedup(),
    }));
}

fn main() {
    let args = Args::parse(&["scale", "workers", "trees", "plot"], &["summary"]);
    let scale = args.get_or("scale", 1.0f64);
    let workers = args.get_or("workers", 8usize);
    let trees = args.get_or("trees", 3usize);
    let knobs = Knobs {
        trees,
        threads: args.threads(),
        wire: args.wire(),
    };
    let which = args.get("plot").map(str::to_string);
    let want = |p: &str| which.as_deref().is_none_or(|w| w == p);
    let sc = |n: usize| ((n as f64 / (500.0 * scale)) as usize).max(1000);

    let mut w = ExperimentWriter::new("fig10");
    let horizontal = System::Qd2AllReduce;
    let vertical = System::Vero;
    let vertical_col = System::Qd3;

    if want("a") {
        w.section("(a) impact of instance number: D=100, C=2, L=8");
        for n in [5_000_000usize, 10_000_000, 15_000_000, 20_000_000] {
            let p = Point { n: sc(n), d: 100, c: 2, l: 8 };
            run_point(&mut w, horizontal, &p, workers, knobs, ("N", p.n));
            run_point(&mut w, vertical, &p, workers, knobs, ("N", p.n));
        }
    }
    if want("b") {
        w.section("(b) impact of dimensionality: N=50M/scale, C=2, L=8");
        for d in [1_250usize, 2_500, 3_750, 5_000] {
            let p = Point { n: sc(50_000_000) / 2, d, c: 2, l: 8 };
            run_point(&mut w, horizontal, &p, workers, knobs, ("D", d));
            run_point(&mut w, vertical, &p, workers, knobs, ("D", d));
        }
    }
    if want("c") {
        w.section("(c) impact of tree depth: N=50M/scale, D=5000, C=2");
        for l in [8usize, 9, 10] {
            let p = Point { n: sc(50_000_000) / 2, d: 5_000, c: 2, l };
            run_point(&mut w, horizontal, &p, workers, Knobs { trees: trees.min(2), ..knobs }, ("L", l));
            run_point(&mut w, vertical, &p, workers, Knobs { trees: trees.min(2), ..knobs }, ("L", l));
        }
    }
    if want("d") {
        w.section("(d) impact of multi-classes: N=50M/scale, D=1250, L=8");
        for c in [3usize, 5, 10] {
            let p = Point { n: sc(50_000_000) / 2, d: 1_250, c, l: 8 };
            run_point(&mut w, horizontal, &p, workers, knobs, ("C", c));
            run_point(&mut w, vertical, &p, workers, knobs, ("C", c));
        }
    }
    if want("e") {
        w.section("(e) memory breakdown vs D: N=50M/scale, C=2, L=8");
        for d in [1_250usize, 2_500, 3_750, 5_000] {
            let p = Point { n: sc(50_000_000) / 2, d, c: 2, l: 8 };
            run_point(&mut w, horizontal, &p, workers, Knobs { trees: 2, ..knobs }, ("D", d));
            run_point(&mut w, vertical, &p, workers, Knobs { trees: 2, ..knobs }, ("D", d));
        }
    }
    if want("f") {
        w.section("(f) memory breakdown vs C: N=50M/scale, D=1250, L=8");
        for c in [3usize, 5, 10] {
            let p = Point { n: sc(50_000_000) / 2, d: 1_250, c, l: 8 };
            run_point(&mut w, horizontal, &p, workers, Knobs { trees: 2, ..knobs }, ("C", c));
            run_point(&mut w, vertical, &p, workers, Knobs { trees: 2, ..knobs }, ("C", c));
        }
    }
    if want("g") {
        w.section("(g) QD3 vs QD4, few instances: N=10K, C=2, L=8");
        for d in [1_250usize, 2_500, 3_750, 5_000] {
            let p = Point { n: 10_000, d, c: 2, l: 8 };
            run_point(&mut w, vertical_col, &p, workers, knobs, ("D", d));
            run_point(&mut w, vertical, &p, workers, knobs, ("D", d));
        }
    }
    if want("h") {
        w.section("(h) QD3 vs QD4 vs instance number: D=5000, C=2, L=8");
        for n in [10_000_000usize, 20_000_000, 30_000_000, 40_000_000] {
            let p = Point { n: sc(n), d: 5_000, c: 2, l: 8 };
            run_point(&mut w, vertical_col, &p, workers, knobs, ("N", p.n));
            run_point(&mut w, vertical, &p, workers, knobs, ("N", p.n));
        }
    }

    if args.has("summary") {
        // Table 1: the advantageous-scenario matrix, stated as measured
        // one-line verdicts over small probe workloads.
        w.section("Table 1 — advantageous scenarios (measured verdicts)");
        // The low-dimensional probe needs genuinely many instances: the
        // horizontal scheme only wins once the N-proportional costs of
        // vertical partitioning (bitmap broadcasts, full-N gradient and
        // node-split work on EVERY worker) outgrow the small histograms.
        let probes = [
            ("high_dim", Point { n: 10_000, d: 5_000, c: 2, l: 8 }),
            ("low_dim_many_inst", Point { n: ((2_000_000.0 / scale) as usize).max(100_000), d: 20, c: 2, l: 8 }),
            ("multi_class", Point { n: 10_000, d: 1_250, c: 10, l: 8 }),
            ("deep_tree", Point { n: 20_000, d: 2_500, c: 2, l: 10 }),
        ];
        for (tag, p) in probes {
            let ds = dataset(&p, 7);
            let cluster = Cluster::new(workers);
            let qd2 = System::Qd2AllReduce.run(&cluster, &ds, &config(&p, Knobs { trees: 2, ..knobs }));
            let qd4 = System::Vero.run(&cluster, &ds, &config(&p, Knobs { trees: 2, ..knobs }));
            let winner = if qd4.mean_tree_seconds() < qd2.mean_tree_seconds() {
                "QD4 (vertical+row)"
            } else {
                "QD2 (horizontal+row)"
            };
            w.row(json!({
                "scenario": tag,
                "qd2_s_per_tree": qd2.mean_tree_seconds(),
                "qd4_s_per_tree": qd4.mean_tree_seconds(),
                "winner": winner,
            }));
        }
    }
    println!("\nDone. Rows written to results/fig10.jsonl");
}
