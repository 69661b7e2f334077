//! End-to-end run machinery shared by Figures 11–12 and Tables 3–4.

use gbdt_cluster::stats::ClusterStats;
use gbdt_cluster::Cluster;
use gbdt_core::{Objective, TrainConfig};
use gbdt_data::dataset::Dataset;
use gbdt_quadrants::{System, TreeStat};
use vero::report::ConvergencePoint;

/// The §5.3 end-to-end line-up.
pub const END_TO_END: &[System] =
    &[System::XgboostLike, System::LightGbmLike, System::DimBoostLike, System::Vero];

/// One system's end-to-end result on one dataset.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// The system that ran.
    pub system: System,
    /// Mean seconds per tree (comp + modelled comm, straggler-gated).
    pub seconds_per_tree: f64,
    /// Split of the above into computation / communication.
    pub comp_per_tree: f64,
    /// Modelled communication share.
    pub comm_per_tree: f64,
    /// Convergence curve (time vs validation metric).
    pub curve: Vec<ConvergencePoint>,
    /// Final validation headline metric (AUC or accuracy).
    pub final_metric: f64,
    /// Cluster-wide counters: bytes sent, retries, recoveries.
    pub stats: ClusterStats,
}

/// Derives the objective a dataset calls for.
pub fn objective_for(dataset: &Dataset) -> Objective {
    match dataset.n_classes {
        0 => Objective::SquaredError,
        2 => Objective::Logistic,
        c => Objective::Softmax { n_classes: c },
    }
}

/// Trains `system` on `train` over `cluster`, evaluating convergence on
/// `valid`.
pub fn run_system(
    system: System,
    cluster: &Cluster,
    train: &Dataset,
    valid: &Dataset,
    config: &TrainConfig,
) -> SystemRun {
    let result = system.run(cluster, train, config);
    let outcome = vero::TrainOutcome {
        model: vero::system::VeroModel { inner: result.model },
        per_tree: result.per_tree,
        stats: result.stats,
    };
    let curve = vero::report::convergence_curve(&outcome, valid);
    let final_metric = curve.last().map(|p| p.eval.headline()).unwrap_or(0.0);
    SystemRun {
        system,
        seconds_per_tree: mean(&outcome.per_tree, |t| t.comp_seconds + t.comm_seconds),
        comp_per_tree: mean(&outcome.per_tree, |t| t.comp_seconds),
        comm_per_tree: mean(&outcome.per_tree, |t| t.comm_seconds),
        curve,
        final_metric,
        stats: outcome.stats,
    }
}

fn mean(stats: &[TreeStat], f: impl Fn(&TreeStat) -> f64) -> f64 {
    if stats.is_empty() {
        return 0.0;
    }
    stats.iter().map(f).sum::<f64>() / stats.len() as f64
}

/// A training config for an end-to-end run on `dataset`.
pub fn config_for(dataset: &Dataset, n_trees: usize, n_layers: usize) -> TrainConfig {
    TrainConfig::builder()
        .n_trees(n_trees)
        .n_layers(n_layers)
        .objective(objective_for(dataset))
        .build()
        .expect("valid end-to-end config")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_data::synthetic::SyntheticConfig;

    #[test]
    fn objective_inference() {
        let mut ds = SyntheticConfig { n_instances: 100, ..Default::default() }.generate();
        assert_eq!(objective_for(&ds), Objective::Logistic);
        ds.n_classes = 0;
        assert_eq!(objective_for(&ds), Objective::SquaredError);
        ds.n_classes = 7;
        assert_eq!(objective_for(&ds), Objective::Softmax { n_classes: 7 });
    }

    #[test]
    fn run_system_produces_curve_and_costs() {
        let ds = SyntheticConfig {
            n_instances: 800,
            n_features: 12,
            density: 0.5,
            seed: 9,
            ..Default::default()
        }
        .generate();
        let (train, valid) = ds.split_validation(0.25);
        let cfg = config_for(&train, 4, 4);
        let run = run_system(System::Vero, &Cluster::new(2), &train, &valid, &cfg);
        assert_eq!(run.curve.len(), 4);
        assert!(run.seconds_per_tree > 0.0);
        assert!(run.final_metric > 0.5);
        assert!(run.stats.total_bytes_sent() > 0);
        assert!((run.comp_per_tree + run.comm_per_tree - run.seconds_per_tree).abs() < 1e-9);
    }
}
