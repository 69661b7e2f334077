//! The three training workloads: set-up, timed passes, checks and the
//! metrics read from what the trainers return.

use crate::measure::{median, timed};
use crate::trace::Tracer;
use crate::{layers, Family, Outcome};
use gbdt_cluster::stats::{ClusterStats, ALL_PHASES};
use gbdt_cluster::{Cluster, Phase};
use gbdt_core::{GbdtModel, Objective, TrainConfig};
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::Dataset;
use gbdt_quadrants::{featpar, qd1, qd2, qd3, single, yggdrasil, Aggregation, TreeStat};
use vero::{Vero, VeroConfig};

/// Simulated workers per training call. With [`THREADS`] this keeps the
/// busy threads at the core count of the 2-vCPU reference box, so no
/// training pass measures oversubscription.
pub const WORKERS: usize = 2;
/// Intra-worker threads per training call.
pub const THREADS: usize = 1;
/// Share of the generated rows held out for `quadrants.valid_loss`.
const HOLD_OUT: f64 = 0.1;
/// Prediction tolerance between systems, as `tests/quadrant_equivalence`
/// pins it.
const EQUIVALENCE_TOL: f64 = 1e-6;

/// The benchmark's own system table: the paper's system names mapped to
/// the public training entry points (kept here, not taken from
/// `gbdt-bench`, which the roadmap will restructure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    Xgboost,
    LightGbm,
    DimBoost,
    Qd2AllReduce,
    Qd3,
    Vero,
    Yggdrasil,
    LightGbmFp,
}

impl System {
    /// All eight, in the order `train-quadrants` runs them.
    pub const ALL: [System; 8] = [
        System::Xgboost,
        System::LightGbm,
        System::DimBoost,
        System::Qd2AllReduce,
        System::Qd3,
        System::Vero,
        System::Yggdrasil,
        System::LightGbmFp,
    ];

    /// Name used inside metric names.
    pub fn key(self) -> &'static str {
        match self {
            System::Xgboost => "xgboost",
            System::LightGbm => "lightgbm",
            System::DimBoost => "dimboost",
            System::Qd2AllReduce => "qd2-allreduce",
            System::Qd3 => "qd3",
            System::Vero => "vero",
            System::Yggdrasil => "yggdrasil",
            System::LightGbmFp => "lightgbm-fp",
        }
    }

    /// The layer entry point the call goes into (the span name).
    fn entry(self) -> &'static str {
        match self {
            System::Xgboost => "quadrants.qd1.train",
            System::LightGbm | System::DimBoost | System::Qd2AllReduce => "quadrants.qd2.train",
            System::Qd3 => "quadrants.qd3.train",
            System::Vero => "vero.fit",
            System::Yggdrasil => "quadrants.yggdrasil.train",
            System::LightGbmFp => "quadrants.featpar.train",
        }
    }

    fn train(self, data: &Dataset, config: &TrainConfig) -> Trained {
        let cluster = Cluster::new(WORKERS);
        let result = match self {
            System::Xgboost => qd1::train(&cluster, data, config),
            System::LightGbm => qd2::train(&cluster, data, config, Aggregation::ReduceScatter),
            System::DimBoost => qd2::train(&cluster, data, config, Aggregation::ParameterServer),
            System::Qd2AllReduce => qd2::train(&cluster, data, config, Aggregation::AllReduce),
            System::Qd3 => qd3::train(&cluster, data, config),
            System::Yggdrasil => yggdrasil::train(&cluster, data, config),
            System::LightGbmFp => featpar::train(&cluster, data, config),
            System::Vero => {
                let mut vero_config = VeroConfig::builder()
                    .workers(WORKERS)
                    .build()
                    .expect("default Vero configuration is valid");
                vero_config.train = config.clone();
                let outcome = Vero::fit(&vero_config, data);
                return Trained {
                    model: outcome.model.inner,
                    per_tree: outcome.per_tree,
                    stats: outcome.stats,
                };
            }
        };
        Trained {
            model: result.model,
            per_tree: result.per_tree,
            stats: result.stats,
        }
    }
}

/// What any training entry point returns, in one shape.
struct Trained {
    model: GbdtModel,
    per_tree: Vec<TreeStat>,
    stats: ClusterStats,
}

/// Shape of one training workload. `--smoke` scales `rows` only.
#[derive(Debug, Clone, Copy)]
pub struct TrainShape {
    /// Generated instances, hold-out included.
    pub rows: usize,
    pub features: usize,
    /// Nonzero share per row; `None` generates a dense matrix.
    pub density: Option<f64>,
    pub classes: usize,
    pub trees: usize,
    pub layers: usize,
    pub systems: &'static [System],
}

impl TrainShape {
    fn objective(&self) -> Objective {
        match self.classes {
            2 => Objective::Logistic,
            c => Objective::Softmax { n_classes: c },
        }
    }

    fn config(&self, trees: usize) -> TrainConfig {
        TrainConfig::builder()
            .n_trees(trees)
            .n_layers(self.layers)
            .objective(self.objective())
            .threads(THREADS)
            .build()
            .expect("workload shapes are valid training configurations")
    }
}

/// What set-up leaves for the timed passes.
pub struct TrainState {
    pub train: Dataset,
    pub valid: Dataset,
    pub config: TrainConfig,
    /// Seconds `SyntheticConfig::generate` took in this set-up.
    pub generate_s: f64,
}

/// One system's share of a timed pass.
struct SystemRun {
    wall_s: f64,
    trained: Trained,
}

/// One timed pass: a full `T`-tree training call per system.
pub struct Pass {
    runs: Vec<SystemRun>,
}

impl Family for TrainShape {
    type State = TrainState;
    type Pass = Pass;

    /// Generation, hold-out split and the warm-up pass (one `T = 1` training
    /// call per system), so sketching, binning and transformation moved into
    /// set-up by a later change would show in `setup_s`.
    fn setup(&self, seed: u64, tr: &mut Tracer) -> TrainState {
        let generator = SyntheticConfig {
            n_instances: self.rows,
            n_features: self.features,
            n_classes: self.classes,
            density: self.density.unwrap_or(1.0),
            dense: self.density.is_none(),
            seed,
            ..SyntheticConfig::default()
        };
        let (data, generate_s) = tr.span("data.generate", |_| timed(|| generator.generate()));
        let (train, valid) = tr.span("data.split_validation", |_| data.split_validation(HOLD_OUT));
        drop(data);
        let warm = self.config(1);
        tr.span("warmup", |tr| {
            for &system in self.systems {
                tr.span(system.entry(), |_| system.train(&train, &warm));
            }
        });
        TrainState {
            train,
            valid,
            config: self.config(self.trees),
            generate_s,
        }
    }

    /// One pass: nothing but the training calls.
    fn pass(&self, state: &TrainState, tr: &mut Tracer) -> Pass {
        let runs = self
            .systems
            .iter()
            .map(|system| {
                let (trained, wall_s) = tr.span(system.entry(), |_| {
                    timed(|| system.train(&state.train, &state.config))
                });
                SystemRun { wall_s, trained }
            })
            .collect();
        Pass { runs }
    }

    /// Pools the timed passes into end-to-end metrics, reported per-layer
    /// metrics and the outcome of every check.
    fn summarize(&self, state: &TrainState, passes: &[Pass], out: &mut Outcome) {
        let n_sys = self.systems.len();
        out.attempted = (passes.len() * n_sys * self.trees) as u64;
        let grown: usize = passes
            .iter()
            .flat_map(|p| &p.runs)
            .map(|r| r.trained.per_tree.len().min(self.trees))
            .sum();
        out.failed = out.attempted - grown as u64;

        let pass_s = out.recorded("run.pass_s");
        // One unit of work is one boosting iteration: the slowest worker's
        // computation on tree t, summed over the systems of the pass, pooled
        // over passes.
        let mut tree_ms = Vec::new();
        for p in passes {
            for t in 0..self.trees {
                let total: f64 = p
                    .runs
                    .iter()
                    .filter_map(|r| r.trained.per_tree.get(t))
                    .map(|s| s.comp_seconds)
                    .sum();
                tree_ms.push(total * 1e3);
            }
        }
        out.layer("quadrants.tree_ms", median(&tree_ms));

        // Reported by the trainers: slowest worker per system, summed over the
        // systems of a pass, median over passes.
        let over_passes =
            |f: &dyn Fn(&Pass) -> f64| -> f64 { median(&passes.iter().map(f).collect::<Vec<_>>()) };
        let sum_runs =
            |p: &Pass, f: &dyn Fn(&SystemRun) -> f64| -> f64 { p.runs.iter().map(f).sum() };
        let max_runs = |p: &Pass, f: &dyn Fn(&SystemRun) -> f64| -> f64 {
            p.runs.iter().map(f).fold(0.0, f64::max)
        };
        // `Phase::Other` is left out: no trainer books time under it.
        for phase in ALL_PHASES.into_iter().filter(|p| *p != Phase::Other) {
            let name = format!("quadrants.{}_s", phase.label());
            let value = over_passes(&|p| sum_runs(p, &|r| r.trained.stats.phase_seconds(phase)));
            out.layer(name, value);
        }
        let attributed = over_passes(&|p| sum_runs(p, &|r| r.trained.stats.comp_seconds()));
        out.layer("quadrants.unattributed_s", pass_s - attributed);
        let in_trees = over_passes(&|p| {
            sum_runs(p, &|r| {
                r.trained
                    .per_tree
                    .iter()
                    .map(|t| t.comp_seconds)
                    .sum::<f64>()
            })
        });
        out.layer("quadrants.prep_s", pass_s - in_trees);
        out.layer(
            "quadrants.worker_skew",
            over_passes(&|p| {
                let slow = sum_runs(p, &|r| r.trained.stats.comp_seconds());
                let fast = sum_runs(p, &|r| {
                    r.trained
                        .stats
                        .workers
                        .iter()
                        .map(|w| w.comp_total())
                        .fold(f64::INFINITY, f64::min)
                });
                slow / fast
            }),
        );
        const MB: f64 = 1e6;
        let last = passes.last().expect("at least one timed pass");
        out.layer(
            "quadrants.data_mb",
            max_runs(last, &|r| r.trained.stats.max_data_bytes() as f64 / MB),
        );
        out.layer(
            "quadrants.hist_peak_mb",
            max_runs(last, &|r| r.trained.stats.max_histogram_bytes() as f64 / MB),
        );
        out.layer(
            "quadrants.index_mb",
            max_runs(last, &|r| {
                r.trained
                    .stats
                    .workers
                    .iter()
                    .map(|w| w.index_bytes)
                    .max()
                    .unwrap_or(0) as f64
                    / MB
            }),
        );
        if n_sys > 1 {
            for (k, system) in self.systems.iter().enumerate() {
                out.layer(
                    format!("quadrants.{}.train_s", system.key()),
                    over_passes(&|p| p.runs[k].wall_s),
                );
            }
        }
        out.end(
            "wire_mb",
            sum_runs(last, &|r| r.trained.stats.total_bytes_sent() as f64 / MB),
        );
        out.layer(
            "cluster.messages_sent",
            sum_runs(last, &|r| {
                r.trained
                    .stats
                    .workers
                    .iter()
                    .map(|w| w.messages_sent)
                    .sum::<u64>() as f64
            }),
        );
        let logical = sum_runs(last, &|r| r.trained.stats.total_logical_f64_bytes() as f64);
        let encoded = sum_runs(last, &|r| r.trained.stats.total_wire_f64_bytes() as f64);
        out.layer(
            "cluster.wire_compression",
            if encoded > 0.0 {
                logical / encoded
            } else {
                1.0
            },
        );
        // Modelled, not measured: the cost model's transfer time on a 1 Gbps
        // link, a function of bytes and message count only.
        out.layer(
            "cluster.comm_model_s",
            sum_runs(last, &|r| r.trained.stats.comm_seconds()),
        );
        let retries = passes
            .iter()
            .flat_map(|p| &p.runs)
            .map(|r| r.trained.stats.total_retries() + r.trained.stats.recoveries)
            .sum::<u64>();
        out.layer("cluster.retries", retries as f64);
        out.layer("data.generate_s", state.generate_s);

        // Checks.
        if retries != 0 {
            out.problems.push(format!(
                "{retries} send retries or recoveries in a fault-free run"
            ));
        }
        for (k, system) in self.systems.iter().enumerate() {
            // The house rule is bit-identical ensembles: compare the bytes.
            let bytes = |p: &Pass| p.runs[k].trained.model.encode_bytes();
            let first = bytes(&passes[0]);
            if passes[1..].iter().any(|p| bytes(p) != first) {
                out.problems.push(format!(
                    "{}: timed passes grew different ensembles",
                    system.key()
                ));
            }
            if passes
                .iter()
                .any(|p| p.runs[k].trained.per_tree.len() != self.trees)
            {
                out.problems.push(format!(
                    "{}: a pass did not grow {} trees",
                    system.key(),
                    self.trees
                ));
            }
        }
        let objective = self.objective();
        let scores: Vec<Vec<f64>> = last
            .runs
            .iter()
            .map(|r| r.trained.model.predict_dataset_raw(&state.valid))
            .collect();
        let valid_loss = objective.mean_loss(&scores[0], &state.valid.labels);
        out.layer("quadrants.valid_loss", valid_loss);
        let chance = (self.classes as f64).ln();
        if valid_loss.is_nan() || valid_loss >= chance {
            out.problems.push(format!(
                "hold-out loss {valid_loss} is not below ln C = {chance}"
            ));
        }
        // Every distributed system grows the same ensemble from the same merged
        // sketches; the feature-parallel replica sketches on one node, so its
        // reference is the single-node trainer (as the equivalence tests pin).
        // `f64::max` drops a NaN operand, so a NaN gap is kept by hand: a
        // system that scores NaN must fail the comparison, not pass it.
        let worst_gap = |a: &[f64], b: &[f64]| {
            assert_eq!(a.len(), b.len(), "hold-out scores of different lengths");
            let gaps = a.iter().zip(b).map(|(x, y)| (x - y).abs());
            if gaps.clone().any(f64::is_nan) {
                f64::NAN
            } else {
                gaps.fold(0.0, f64::max)
            }
        };
        let single = self
            .systems
            .contains(&System::LightGbmFp)
            .then(|| single::train(&state.train, &state.config).predict_dataset_raw(&state.valid));
        for (k, system) in self.systems.iter().enumerate().skip(1) {
            let (reference, against) = match (system, &single) {
                (System::LightGbmFp, Some(single)) => (single, "the single-node trainer"),
                _ => (&scores[0], self.systems[0].key()),
            };
            let worst = worst_gap(reference, &scores[k]);
            if worst.is_nan() || worst >= EQUIVALENCE_TOL {
                out.problems.push(format!(
                    "{} and {against} disagree by {worst} on the hold-out",
                    system.key()
                ));
            }
        }
    }

    fn probe(
        &self,
        state: &TrainState,
        passes: &[Pass],
        _seed: u64,
        tr: &mut Tracer,
        out: &mut Outcome,
    ) {
        // The probes run on an ensemble a timed pass grew on this data.
        layers::train_probes(state, &passes[0].runs[0].trained.model, tr, out)
    }
}
