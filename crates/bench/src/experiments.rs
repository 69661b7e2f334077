//! The table of experiments `reproduce` runs: one row per table or figure
//! of the paper's evaluation (§5.2–§6, Appendices A–D), plus our ablations.
//!
//! Each row names its output file and the paper claim it backs, and bakes
//! in the shape EXPERIMENTS.md records (trees, scale, seed). The command
//! line only multiplies the scale and injects a fault plan; [`Driver`]
//! builds every simulated cluster, so the plan reaches every run.

use crate::datasets;
use crate::endtoend::{config_for, run_system, SystemRun, END_TO_END};
use crate::output::ExperimentWriter;
use gbdt_cluster::stats::ClusterStats;
use gbdt_cluster::{Cluster, FaultPlan, NetworkCostModel, Phase};
use gbdt_core::{TrainConfig, WireCodec};
use gbdt_data::dataset::Dataset;
use gbdt_data::sparse::CsrBuilder;
use gbdt_data::synthetic::{presets, SyntheticConfig};
use gbdt_data::FeatureMatrix;
use gbdt_partition::transform::{
    horizontal_to_vertical, TransformConfig, TransformReport, WireEncoding,
};
use gbdt_partition::{GroupingStrategy, HorizontalPartition};
use gbdt_quadrants::qd4::{self, Qd4Options};
use gbdt_quadrants::System;
use rand::prelude::*;
use serde_json::{json, Map, Value};
use std::cell::OnceCell;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// The baked-in shape of one experiment.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Trees per training run (0 for Table 5, which trains nothing).
    pub trees: usize,
    /// Instance divisor on top of each dataset's default down-scaling
    /// (values > 1 shrink the data).
    pub scale: f64,
    /// Data-generation seed.
    pub seed: u64,
}

/// One row of the experiment table.
pub struct Experiment {
    /// The name `reproduce` selects it by.
    pub name: &'static str,
    /// Output file under `results/`.
    pub file: &'static str,
    /// The paper claim the experiment backs, printed as its heading.
    pub claim: &'static str,
    /// Trees, scale and seed of the recorded results.
    pub shape: Shape,
    /// Runs the experiment at `shape` (scale already multiplied by the
    /// command line's), writing its rows.
    pub run: fn(&Driver, Shape, &mut ExperimentWriter),
}

/// Fig 11's shape, shared by Table 2 (its datasets) and Table 3 (its runs).
const FIG11: Shape = Shape { trees: 8, scale: 1.0, seed: 20190805 };

/// Every experiment, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        file: "table1.jsonl",
        claim: "Table 1: vertical (QD4) wins high-dimensional, multi-class and deep-tree \
                workloads; horizontal (QD2) wins low-dimensional data with many instances",
        shape: Shape { trees: 2, scale: 1.0, seed: 7 },
        run: table1,
    },
    Experiment {
        name: "fig10",
        file: "fig10.jsonl",
        claim: "Figure 10 (§5.2): QD2's communication grows with D, C and depth, QD4's with N; \
                vertical partitioning divides histogram memory by W; column-store QD3 pays \
                off only at tiny N",
        shape: Shape { trees: 2, scale: 2.0, seed: 100 },
        run: fig10,
    },
    Experiment {
        name: "table2",
        file: "table2.jsonl",
        claim: "Table 2: the eight end-to-end datasets, paper shape against scaled stand-in",
        shape: FIG11,
        run: table2,
    },
    Experiment {
        name: "fig11",
        file: "fig11.jsonl",
        claim: "Figure 11 (§5.3): every system converges to the same metric; \
                only the time axis differs",
        shape: FIG11,
        run: fig11,
    },
    Experiment {
        name: "table3",
        file: "table3.jsonl",
        claim: "Table 3 (§5.3): per-tree time scaled by Vero; LightGBM is fastest on \
                low-dimensional dense data, Vero on high-dimensional sparse and multi-class data",
        shape: FIG11,
        run: table3,
    },
    Experiment {
        name: "fig12",
        file: "fig12.jsonl",
        claim: "Figure 12 + Table 4 (§6): on the industrial workloads over 10 Gbps links \
                Vero beats XGBoost; DimBoost nearly ties on binary Gender",
        shape: Shape { trees: 3, scale: 1.0, seed: 60_2019 },
        run: fig12,
    },
    Experiment {
        name: "table5",
        file: "table5.jsonl",
        claim: "Table 5 (Appendix A): repartition cost orders naive > compressed >= \
                blockified (Vero), and compression cuts the bytes ~4x",
        shape: Shape { trees: 0, scale: 1.0, seed: 55 },
        run: table5,
    },
    Experiment {
        name: "table6",
        file: "table6.jsonl",
        claim: "Table 6 (Appendix B): Vero's speedup over W = 2 is sub-linear, better on \
                the instance-heavy subset",
        shape: Shape { trees: 2, scale: 1.0, seed: 66 },
        run: table6,
    },
    Experiment {
        name: "table7",
        file: "table7.jsonl",
        claim: "Table 7 (Appendix C): row-store Vero beats both column-store systems \
                (Yggdrasil, QD3) on low-dimensional data",
        shape: Shape { trees: 3, scale: 1.0, seed: 77 },
        run: table7,
    },
    Experiment {
        name: "table8",
        file: "table8.jsonl",
        claim: "Table 8 (Appendix D): LightGBM feature-parallel beats data-parallel on \
                multi-class data, and Vero still wins",
        shape: Shape { trees: 3, scale: 1.0, seed: 88 },
        run: table8,
    },
    Experiment {
        name: "ablations",
        file: "ablations.jsonl",
        claim: "Ablations (ours): histogram subtraction, column grouping, link bandwidth, \
                wire codec, and fault recovery to the bit-identical ensemble",
        shape: Shape { trees: 3, scale: 1.0, seed: 5 },
        run: ablations,
    },
];

/// The experiments `names` select, in the order given; no names selects
/// every experiment. An unknown name is an error listing the known ones.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            EXPERIMENTS.iter().find(|e| e.name == name).ok_or_else(|| {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                format!("unknown experiment '{name}'; known: {}", known.join(" "))
            })
        })
        .collect()
}

/// A simulated cluster: the only place an experiment's cluster is built.
fn cluster(workers: usize, network: NetworkCostModel, faults: Option<FaultPlan>) -> Cluster {
    Cluster::with_cost(workers, network).with_faults(faults)
}

/// Runs experiments under the command line's scale and fault plan, and
/// keeps Fig 11's runs once trained so Table 3 reads them instead of
/// training the line-up again.
pub struct Driver {
    scale: f64,
    faults: Option<FaultPlan>,
    dir: PathBuf,
    fig11: OnceCell<Vec<DatasetRuns>>,
}

impl Driver {
    /// A driver writing results under `dir`.
    pub fn new(scale: f64, faults: Option<FaultPlan>, dir: impl Into<PathBuf>) -> Driver {
        Driver { scale, faults, dir: dir.into(), fig11: OnceCell::new() }
    }

    /// Runs one experiment and replaces its results file; returns the
    /// file's path. A run that panics leaves the old file in place.
    pub fn run(&self, exp: &Experiment) -> io::Result<PathBuf> {
        println!("\n##### {}: {}", exp.name, exp.claim);
        let mut w = ExperimentWriter::create(&self.dir, exp.name, exp.file);
        (exp.run)(self, Shape { scale: exp.shape.scale * self.scale, ..exp.shape }, &mut w);
        w.finish()
    }

    /// A `workers`-node cluster on `network` under the `--faults` plan.
    pub fn cluster(&self, workers: usize, network: NetworkCostModel) -> Cluster {
        cluster(workers, network, self.faults)
    }

    /// Appends the fault-recovery counters summed over `stats` when a
    /// `--faults` plan is active; fault-free rows keep their columns.
    fn fault_columns<'a>(
        &self,
        row: &mut Value,
        stats: impl IntoIterator<Item = &'a ClusterStats>,
    ) {
        let (Value::Object(m), Some(_)) = (row, self.faults) else {
            return;
        };
        let (mut retries, mut duplicates, mut recoveries, mut recovery_s) = (0, 0, 0, 0.0);
        for s in stats {
            retries += s.total_retries();
            duplicates += s.total_duplicates_dropped();
            recoveries += s.recoveries;
            recovery_s += s.recovery_seconds;
        }
        m.insert("retries".into(), json!(retries));
        m.insert("duplicates_dropped".into(), json!(duplicates));
        m.insert("recoveries".into(), json!(recoveries));
        m.insert("recovery_s".into(), json!(recovery_s));
    }

    /// Fig 11's line-up trained on its eight datasets, once per driver.
    fn fig11_runs(&self, shape: Shape) -> &[DatasetRuns] {
        self.fig11.get_or_init(|| {
            end_to_end(self, shape, FIG11_DATASETS, END_TO_END, NetworkCostModel::lab_cluster())
        })
    }
}

/// Tree depth of every run outside Fig 10's sweeps (§5.1's default).
const LAYERS: usize = 8;

// ---------------------------------------------------------------------------
// Figure 10 and Table 1: synthetic quadrant probes.

/// Workers of Fig 10 and Table 1 (the paper's eight machines).
const FIG10_WORKERS: usize = 8;

/// One synthetic shape: N instances, D features, C classes, L layers.
#[derive(Clone, Copy)]
struct Point {
    n: usize,
    d: usize,
    c: usize,
    l: usize,
}

impl Point {
    fn dataset(&self, seed: u64) -> Dataset {
        // Low-D sweeps keep the paper's phi = 20%; high-D sweeps keep the
        // Synthesis shape of ~100 nonzeros per row (a 60 GB / 5e9-pair dataset
        // at paper scale implies ~0.1% density, not 20%).
        let density = (100.0 / self.d as f64).min(0.2);
        SyntheticConfig {
            n_instances: self.n,
            n_features: self.d,
            n_classes: self.c,
            density,
            informative_ratio: 0.2,
            label_noise: 0.05,
            dense: false,
            seed,
            ..Default::default()
        }
        .generate()
    }
}

/// One Fig 10 subplot: the two systems it compares over points that vary
/// one axis. Subplots (e) and (f) are the memory columns of (b) and (d)'s
/// runs, so they share them.
struct Sweep {
    title: &'static str,
    systems: [System; 2],
    axis: (&'static str, fn(&Point) -> usize),
    points: Vec<Point>,
}

/// Fig 10's sweeps. N is divided by `500 × scale`, D by 20.
fn fig10_sweeps(scale: f64) -> Vec<Sweep> {
    let sc = |n: usize| ((n as f64 / (500.0 * scale)) as usize).max(1000);
    let big = sc(50_000_000) / 2;
    let p = |n, d, c, l| Point { n, d, c, l };
    let row_store = [System::Qd2AllReduce, System::Vero];
    let col_vs_row = [System::Qd3, System::Vero];
    let millions = |m: usize| sc(m * 1_000_000);
    vec![
        Sweep {
            title: "(a) impact of instance number: D=100, C=2, L=8",
            systems: row_store,
            axis: ("N", |p| p.n),
            points: [5, 10, 15, 20].map(|m| p(millions(m), 100, 2, 8)).to_vec(),
        },
        Sweep {
            title: "(b)+(e) time and memory vs dimensionality: N=50M/scale, C=2, L=8",
            systems: row_store,
            axis: ("D", |p| p.d),
            points: [1_250, 2_500, 3_750, 5_000].map(|d| p(big, d, 2, 8)).to_vec(),
        },
        Sweep {
            title: "(c) impact of tree depth: N=50M/scale, D=5000, C=2",
            systems: row_store,
            axis: ("L", |p| p.l),
            points: [8, 9, 10].map(|l| p(big, 5_000, 2, l)).to_vec(),
        },
        Sweep {
            title: "(d)+(f) time and memory vs multi-classes: N=50M/scale, D=1250, L=8",
            systems: row_store,
            axis: ("C", |p| p.c),
            points: [3, 5, 10].map(|c| p(big, 1_250, c, 8)).to_vec(),
        },
        Sweep {
            title: "(g) QD3 vs QD4, few instances: N=10K, C=2, L=8",
            systems: col_vs_row,
            axis: ("D", |p| p.d),
            points: [1_250, 2_500, 3_750, 5_000].map(|d| p(10_000, d, 2, 8)).to_vec(),
        },
        Sweep {
            title: "(h) QD3 vs QD4 vs instance number: D=5000, C=2, L=8",
            systems: col_vs_row,
            axis: ("N", |p| p.n),
            points: [10, 20, 30, 40].map(|m| p(millions(m), 5_000, 2, 8)).to_vec(),
        },
    ]
}

fn fig10(d: &Driver, shape: Shape, w: &mut ExperimentWriter) {
    for sweep in fig10_sweeps(shape.scale) {
        w.section(sweep.title);
        let (axis, value) = sweep.axis;
        for p in &sweep.points {
            let ds = p.dataset(shape.seed + value(p) as u64);
            let cfg = config_for(&ds, shape.trees, p.l);
            for system in sweep.systems {
                let result = system.run(
                    &d.cluster(FIG10_WORKERS, NetworkCostModel::lab_cluster()),
                    &ds,
                    &cfg,
                );
                let mut row = json!({
                    "system": system.name(),
                    axis: value(p),
                    "comp_s": result.mean_tree_comp_seconds(),
                    "comm_s": result.mean_tree_comm_seconds(),
                    "std_s": result.std_tree_seconds(),
                    "bytes_sent": result.stats.total_bytes_sent(),
                    "data_mb": result.stats.max_data_bytes() as f64 / 1e6,
                    "hist_mb": result.stats.max_histogram_bytes() as f64 / 1e6,
                });
                d.fault_columns(&mut row, [&result.stats]);
                w.row(row);
            }
        }
    }
}

fn table1(d: &Driver, shape: Shape, w: &mut ExperimentWriter) {
    w.section("advantageous scenarios (measured verdicts)");
    // The low-dimensional probe needs genuinely many instances: the
    // horizontal scheme only wins once the N-proportional costs of
    // vertical partitioning (bitmap broadcasts, full-N gradient and
    // node-split work on EVERY worker) outgrow the small histograms.
    let many = ((2_000_000.0 / shape.scale) as usize).max(100_000);
    let probes = [
        ("high_dim", Point { n: 10_000, d: 5_000, c: 2, l: 8 }),
        ("low_dim_many_inst", Point { n: many, d: 20, c: 2, l: 8 }),
        ("multi_class", Point { n: 10_000, d: 1_250, c: 10, l: 8 }),
        ("deep_tree", Point { n: 20_000, d: 2_500, c: 2, l: 10 }),
    ];
    for (tag, p) in probes {
        let ds = p.dataset(shape.seed);
        let cfg = config_for(&ds, shape.trees, p.l);
        let cluster = d.cluster(FIG10_WORKERS, NetworkCostModel::lab_cluster());
        let qd2 = System::Qd2AllReduce.run(&cluster, &ds, &cfg);
        let qd4 = System::Vero.run(&cluster, &ds, &cfg);
        let winner = if qd4.mean_tree_seconds() < qd2.mean_tree_seconds() {
            "QD4 (vertical+row)"
        } else {
            "QD2 (horizontal+row)"
        };
        let mut row = json!({
            "scenario": tag,
            "qd2_s_per_tree": qd2.mean_tree_seconds(),
            "qd4_s_per_tree": qd4.mean_tree_seconds(),
            "winner": winner,
        });
        d.fault_columns(&mut row, [&qd2.stats, &qd4.stats]);
        w.row(row);
    }
}

// ---------------------------------------------------------------------------
// Figures 11-12, Tables 2-4: end-to-end runs on the paper's datasets.

/// The Figure 11 dataset line-up (Table 2 order).
const FIG11_DATASETS: &[&str] =
    &["susy", "higgs", "criteo", "epsilon", "rcv1", "synthesis", "rcv1-multi", "synthesis-multi"];

/// One dataset's end-to-end runs.
struct DatasetRuns {
    dataset: &'static str,
    heading: String,
    runs: Vec<SystemRun>,
}

/// Trains `lineup` on each dataset of `names` over `network`, evaluating on
/// a 20 % hold-out. Multi-class datasets skip the systems without
/// multi-class support.
fn end_to_end(
    d: &Driver,
    shape: Shape,
    names: &[&'static str],
    lineup: &[System],
    network: NetworkCostModel,
) -> Vec<DatasetRuns> {
    names
        .iter()
        .map(|&name| {
            let full = datasets::load(name, shape.scale, shape.seed);
            let (train, valid) = full.split_validation(0.2);
            let workers = datasets::default_workers(name);
            let cfg = config_for(&train, shape.trees, LAYERS);
            let cluster = d.cluster(workers, network);
            let runs = lineup
                .iter()
                .filter(|s| full.n_classes <= 2 || s.supports_multiclass())
                .map(|&s| run_system(s, &cluster, &train, &valid, &cfg))
                .collect();
            let heading = format!(
                "{name}: N={} D={} C={} W={workers} T={} L={LAYERS}, {} Gbps links",
                train.n_instances(),
                train.n_features(),
                full.n_classes,
                shape.trees,
                network.bandwidth_bytes_per_s * 8.0 / 1e9,
            );
            DatasetRuns { dataset: name, heading, runs }
        })
        .collect()
}

/// One row per run (Table 4 is the `s_per_tree` column of Fig 12's), plus
/// a file-only row with the run's whole convergence curve.
fn write_end_to_end(d: &Driver, w: &mut ExperimentWriter, all: &[DatasetRuns]) {
    for ds in all {
        w.section(&ds.heading);
        for run in &ds.runs {
            let mut row = json!({
                "dataset": ds.dataset,
                "system": run.system.name(),
                "s_per_tree": run.seconds_per_tree,
                "comp_s": run.comp_per_tree,
                "comm_s": run.comm_per_tree,
                "final_metric": run.final_metric,
                "bytes_sent": run.stats.total_bytes_sent(),
                "total_s": run.curve.last().map_or(0.0, |p| p.seconds),
            });
            d.fault_columns(&mut row, [&run.stats]);
            w.row(row);
            w.row_silent(json!({
                "dataset": ds.dataset,
                "system": run.system.name(),
                "curve": run
                    .curve
                    .iter()
                    .map(|p| json!({"t": p.seconds, "metric": p.eval.headline()}))
                    .collect::<Vec<_>>(),
            }));
        }
    }
}

fn table2(_: &Driver, shape: Shape, w: &mut ExperimentWriter) {
    w.section("datasets (paper shape -> scaled stand-in)");
    for &name in FIG11_DATASETS {
        let preset = presets::by_name(name).expect("every Fig 11 dataset has a preset");
        let ds = datasets::load(name, shape.scale, shape.seed);
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
}

fn fig11(d: &Driver, shape: Shape, w: &mut ExperimentWriter) {
    write_end_to_end(d, w, d.fig11_runs(shape));
}

fn table3(d: &Driver, shape: Shape, w: &mut ExperimentWriter) {
    w.section("run time per tree scaled by Vero (Vero = 1.0; lower = faster)");
    for ds in d.fig11_runs(shape) {
        let seconds =
            |system| ds.runs.iter().find(|r| r.system == system).map(|r| r.seconds_per_tree);
        let vero = seconds(System::Vero).expect("Vero is in the line-up");
        let mut row = Map::new();
        row.insert("dataset".into(), json!(ds.dataset));
        for &system in END_TO_END {
            row.insert(
                system.name().into(),
                seconds(system).map_or(json!("-"), |s| json!(s / vero)),
            );
        }
        row.insert("vero_s_per_tree".into(), json!(vero));
        let mut row = Value::Object(row);
        d.fault_columns(&mut row, ds.runs.iter().map(|r| &r.stats));
        w.row(row);
    }
}

fn fig12(d: &Driver, shape: Shape, w: &mut ExperimentWriter) {
    // The paper runs XGBoost, DimBoost and Vero on Gender; DimBoost has no
    // multi-class support, so Age and Taste run the other two.
    let lineup = [System::XgboostLike, System::DimBoostLike, System::Vero];
    let runs = end_to_end(
        d,
        shape,
        &["gender", "age", "taste"],
        &lineup,
        NetworkCostModel::production_cluster(),
    );
    write_end_to_end(d, w, &runs);
}

// ---------------------------------------------------------------------------
// Appendices A-D.

/// Step-4 repartition of `full` under one wire encoding: max-over-workers
/// sketch, repartition (comp + comm) and label seconds, and total bytes.
fn repartition(
    d: &Driver,
    full: &Dataset,
    workers: usize,
    encoding: WireEncoding,
) -> (f64, f64, f64, u64) {
    let partition = HorizontalPartition::new(full.n_instances(), workers);
    let cfg = TransformConfig { encoding, ..Default::default() };
    let (outputs, _) = d.cluster(workers, NetworkCostModel::lab_cluster()).run(|ctx| {
        let shard = partition.shard(full, ctx.rank());
        horizontal_to_vertical(ctx, &shard, partition, &cfg).expect("transform completes").report
    });
    let max = |f: fn(&TransformReport) -> f64| outputs.iter().map(f).fold(0.0, f64::max);
    (
        max(|r| r.sketch_seconds),
        max(|r| r.repartition_seconds) + max(|r| r.comm_seconds),
        max(|r| r.label_seconds),
        outputs.iter().map(|r| r.repartition_bytes_sent).sum(),
    )
}

fn table5(d: &Driver, shape: Shape, w: &mut ExperimentWriter) {
    w.section("transformation cost: naive vs compressed vs blockified (Vero)");
    for name in ["rcv1", "rcv1-multi", "synthesis"] {
        let t_load = Instant::now();
        let full = datasets::load(name, shape.scale, shape.seed);
        let load_s = t_load.elapsed().as_secs_f64();
        let workers = datasets::default_workers(name);
        let [naive, compress, vero] =
            [WireEncoding::Naive, WireEncoding::Compressed, WireEncoding::Blockified]
                .map(|encoding| repartition(d, &full, workers, encoding));
        w.row(json!({
            "dataset": name,
            "load_s": load_s,
            "get_splits_s": vero.0,
            "repartition_naive_s": naive.1,
            "repartition_compress_s": compress.1,
            "repartition_vero_s": vero.1,
            "broadcast_label_s": vero.2,
            "naive_bytes": naive.3,
            "compress_bytes": compress.3,
            "vero_bytes": vero.3,
        }));
    }
}

fn table6(d: &Driver, shape: Shape, w: &mut ExperimentWriter) {
    // The paper's Synthesis-N10M (first 10M instances) and Synthesis-D25K
    // (first 25K features), scaled like the synthesis preset (N/2000, D/40)
    // and keeping ~100 nonzeros per row.
    let subsets = [
        ("synthesis-n10m", (10_000_000.0 / (2_000.0 * shape.scale)) as usize, 2_500usize, 0.04),
        ("synthesis-d25k", (50_000_000.0 / (2_000.0 * shape.scale)) as usize, 625usize, 0.16),
    ];
    for (name, n, dim, density) in subsets {
        let ds = SyntheticConfig {
            n_instances: n.max(2_000),
            n_features: dim,
            n_classes: 2,
            density,
            seed: shape.seed,
            ..Default::default()
        }
        .generate();
        let cfg = config_for(&ds, shape.trees, LAYERS);
        w.section(&format!("{name}: N={} D={}", ds.n_instances(), ds.n_features()));
        let mut base = None;
        for workers in [2usize, 4, 6, 8] {
            let result =
                System::Vero.run(&d.cluster(workers, NetworkCostModel::lab_cluster()), &ds, &cfg);
            let per_tree = result.mean_tree_seconds();
            let base_time = *base.get_or_insert(per_tree);
            let mut row = json!({
                "dataset": name,
                "workers": workers,
                "s_per_tree": per_tree,
                "comp_s": result.mean_tree_comp_seconds(),
                "comm_s": result.mean_tree_comm_seconds(),
                "speedup_vs_2": base_time / per_tree,
            });
            d.fault_columns(&mut row, [&result.stats]);
            w.row(row);
        }
    }
    println!("note: workers are threads on this machine; with more workers than");
    println!("cores, comp seconds reflect oversubscription — speedup shape, not");
    println!("absolute wall time, is the reproduction target.");
}

/// Workers of Tables 7 and 8 (the paper's five machines).
const APPENDIX_WORKERS: usize = 5;

/// One row per dataset: each labelled system's seconds per tree and bytes
/// sent.
fn seconds_per_tree(
    d: &Driver,
    shape: Shape,
    w: &mut ExperimentWriter,
    names: &[&str],
    systems: &[(&str, System)],
) {
    let labels: Vec<&str> = systems.iter().map(|(label, _)| *label).collect();
    w.section(&format!("time per tree (s), W={APPENDIX_WORKERS}: {}", labels.join(" vs ")));
    for &name in names {
        let ds = datasets::load(name, shape.scale, shape.seed);
        let cfg = config_for(&ds, shape.trees, LAYERS);
        let cluster = d.cluster(APPENDIX_WORKERS, NetworkCostModel::lab_cluster());
        let mut row = Map::new();
        row.insert("dataset".into(), json!(name));
        row.insert("N".into(), json!(ds.n_instances()));
        row.insert("D".into(), json!(ds.n_features()));
        for &(label, system) in systems {
            let result = system.run(&cluster, &ds, &cfg);
            row.insert(label.into(), json!(result.mean_tree_seconds()));
            row.insert(format!("{label}_bytes"), json!(result.stats.total_bytes_sent()));
        }
        w.row(Value::Object(row));
    }
}

fn table7(d: &Driver, shape: Shape, w: &mut ExperimentWriter) {
    let systems = [("Yggdrasil", System::Yggdrasil), ("QD3", System::Qd3), ("Vero", System::Vero)];
    seconds_per_tree(d, shape, w, &["epsilon", "susy", "higgs"], &systems);
}

fn table8(d: &Driver, shape: Shape, w: &mut ExperimentWriter) {
    let systems = [
        ("LightGBM-DP", System::LightGbmLike),
        ("LightGBM-FP", System::LightGbmFeatureParallel),
        ("Vero", System::Vero),
    ];
    seconds_per_tree(d, shape, w, &["rcv1", "rcv1-multi"], &systems);
}

// ---------------------------------------------------------------------------
// Ablations of Vero's design choices.

/// The recovery ablation's plan when `--faults` gives none: drops,
/// duplicates and one mid-tree crash.
const DEFAULT_CHAOS: &str = "1031:drop=0.02,dup=0.02,crash=1@1.2";

/// Five sections: histogram subtraction on/off (§2.1.2); column grouping
/// on skewed features (§4.2.3's stragglers); QD2 vs Vero across link
/// speeds (§6); the histogram wire codec on sparse high-D data (DESIGN.md
/// §4.7); and fault recovery, asserting the faulted run recovers the
/// fault-free ensemble bit for bit.
fn ablations(d: &Driver, shape: Shape, w: &mut ExperimentWriter) {
    let workers = 8;
    let n = ((20_000.0 / shape.scale) as usize).max(2_000);
    let lab = NetworkCostModel::lab_cluster();
    let cfg = TrainConfig::builder()
        .n_trees(shape.trees)
        .n_layers(LAYERS)
        .build()
        .expect("valid ablation config");
    let synthetic = |n_features, density, seed| {
        SyntheticConfig { n_instances: n, n_features, density, seed, ..Default::default() }
            .generate()
    };

    w.section("histogram subtraction on/off (QD4)");
    let ds = synthetic(1_000, 0.1, shape.seed);
    for use_subtraction in [true, false] {
        let result = qd4::train_with_options(
            &d.cluster(workers, lab),
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

    // A dense block (features 0..20 on every row) and a sparse tail: greedy
    // balancing should equalize per-worker pair counts.
    w.section("column grouping strategy (skewed feature density)");
    let skewed = {
        let dim = 800usize;
        let mut rng = StdRng::seed_from_u64(shape.seed + 4);
        let mut b = CsrBuilder::new(dim);
        let mut labels = Vec::new();
        for _ in 0..n {
            let mut entries: Vec<(u32, f32)> =
                (0..20u32).map(|f| (f, rng.gen_range(-1.0f32..1.0))).collect();
            for f in 20..dim as u32 {
                if rng.gen_bool(0.02) {
                    entries.push((f, rng.gen_range(-1.0f32..1.0)));
                }
            }
            labels.push(f32::from(entries[0].1 + entries[1].1 > 0.0));
            b.push_row(&entries).expect("ascending feature ids");
        }
        Dataset::new(FeatureMatrix::Sparse(b.build()), labels, 2, "skewed").expect("valid dataset")
    };
    for strategy in [
        GroupingStrategy::RoundRobin,
        GroupingStrategy::Hash,
        GroupingStrategy::Range,
        GroupingStrategy::GreedyBalanced,
    ] {
        let tcfg = TransformConfig { strategy, ..Default::default() };
        let result = qd4::train_with_transform(&d.cluster(workers, lab), &skewed, &cfg, &tcfg);
        // Straggler effect: max vs mean per-worker histogram-build time.
        let builds: Vec<f64> =
            result.stats.workers.iter().map(|s| s.comp(Phase::HistogramBuild)).collect();
        let max_build = builds.iter().copied().fold(0.0, f64::max);
        let mean_build = builds.iter().sum::<f64>() / builds.len() as f64;
        w.row(json!({
            "strategy": format!("{strategy:?}"),
            "s_per_tree": result.mean_tree_seconds(),
            "hist_build_max_s": max_build,
            "hist_build_mean_s": mean_build,
            "straggler_ratio": max_build / mean_build.max(1e-12),
        }));
    }

    w.section("link bandwidth sensitivity: QD2 vs Vero (s/tree, D=2500)");
    let hs = synthetic(2_500, 0.04, shape.seed + 8);
    for gbps in [0.1f64, 1.0, 10.0] {
        let cluster = d.cluster(workers, NetworkCostModel::gbps(gbps));
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

    // Sparse high-dimensional data keeps most bins empty below the root, so
    // the grid codec should cut aggregation bytes hard while staying
    // lossless (logical_mb is what raw f64s would have sent); f32 narrows
    // the cells further at the cost of a (slightly) different ensemble.
    w.section("histogram wire codec (QD2 all-reduce, sparse D=2000)");
    let sparse_ds = synthetic(2_000, 0.05, shape.seed + 16);
    let mut lossless_model = None;
    for codec in WireCodec::ALL {
        let wcfg = TrainConfig { wire: codec, ..cfg.clone() };
        let result = System::Qd2AllReduce.run(&d.cluster(workers, lab), &sparse_ds, &wcfg);
        let identical =
            *lossless_model.get_or_insert_with(|| result.model.clone()) == result.model;
        w.row(json!({
            "wire": codec.label(),
            "logical_mb": result.stats.total_logical_f64_bytes() as f64 / 1e6,
            "wire_mb": result.stats.total_wire_f64_bytes() as f64 / 1e6,
            "compression": result.stats.wire_compression(),
            "s_per_tree": result.mean_tree_seconds(),
            "comm_s_per_tree": result.mean_tree_comm_seconds(),
            "identical_to_lossless": identical,
        }));
    }

    // Same trainer, data and links, once fault-free and once under the
    // `--faults` plan (or DEFAULT_CHAOS): the rows price the recovery in
    // modelled time and extra bytes; the model must come back bit-identical.
    w.section("fault recovery: retry + per-tree checkpoint vs fault-free (QD2, lab cluster)");
    let plan =
        d.faults.unwrap_or_else(|| FaultPlan::parse(DEFAULT_CHAOS).expect("valid chaos spec"));
    let mut baseline: Option<(f64, u64, gbdt_core::GbdtModel)> = None;
    for (label, faults) in [("fault-free", None), ("chaos", Some(plan))] {
        let result = System::Qd2AllReduce.run(&cluster(workers, lab, faults), &ds, &cfg);
        let bytes = result.stats.total_bytes_sent();
        let wall = result.total_seconds();
        let (base_wall, base_bytes, base_model) =
            baseline.get_or_insert_with(|| (wall, bytes, result.model.clone()));
        let identical = *base_model == result.model;
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
        assert!(identical, "the faulted run must recover the fault-free ensemble");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn experiment_names_are_unique() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    #[test]
    fn no_two_experiments_write_the_same_file() {
        let files: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.file).collect();
        assert_eq!(files.len(), EXPERIMENTS.len());
    }

    #[test]
    fn select_keeps_order_and_rejects_unknown_names() {
        let all = select(&[]).unwrap();
        assert_eq!(all.len(), EXPERIMENTS.len());
        let picked = select(&["table3".into(), "fig11".into()]).unwrap();
        assert_eq!(picked.iter().map(|e| e.name).collect::<Vec<_>>(), ["table3", "fig11"]);
        let err = select(&["fig11".into(), "fig13".into()]).map(|_| ()).unwrap_err();
        assert!(err.contains("unknown experiment 'fig13'"), "{err}");
        for e in EXPERIMENTS {
            assert!(err.contains(e.name), "{err} lists {}", e.name);
        }
    }

    #[test]
    fn the_fault_plan_reaches_the_driver_cluster() {
        let ds = SyntheticConfig {
            n_instances: 400,
            n_features: 12,
            density: 0.5,
            seed: 3,
            ..Default::default()
        }
        .generate();
        let cfg = config_for(&ds, 2, 3);
        let lab = NetworkCostModel::lab_cluster();
        let dir = std::env::temp_dir();
        let clean =
            System::Qd2AllReduce.run(&Driver::new(1.0, None, &dir).cluster(2, lab), &ds, &cfg);
        let plan = FaultPlan::parse("11:drop=0.2").unwrap();
        let faulted = System::Qd2AllReduce.run(
            &Driver::new(1.0, Some(plan), &dir).cluster(2, lab),
            &ds,
            &cfg,
        );
        assert_eq!(clean.stats.total_retries(), 0);
        assert!(faulted.stats.total_retries() > 0);
        assert!(faulted.stats.total_bytes_sent() > clean.stats.total_bytes_sent());
        assert!(faulted.model == clean.model, "a lossless plan trains the fault-free model");
    }
}
