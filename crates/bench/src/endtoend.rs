//! End-to-end run machinery shared by Figures 11–12 and Tables 3–4.

use gbdt_cluster::{Cluster, FaultPlan, NetworkCostModel};
use gbdt_core::{Objective, TrainConfig};
use gbdt_data::dataset::Dataset;
use gbdt_quadrants::{System, TreeStat};
use serde::{Deserialize, Serialize};
use vero::report::ConvergencePoint;

/// The §5.3 end-to-end line-up.
pub const END_TO_END: &[System] =
    &[System::XgboostLike, System::LightGbmLike, System::DimBoostLike, System::Vero];

/// One system's end-to-end result on one dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemRun {
    /// System display name.
    pub system: String,
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
    /// Total bytes sent cluster-wide.
    pub bytes_sent: u64,
    /// Point-to-point send retries triggered by injected drops (0 when
    /// fault-free).
    pub retries: u64,
    /// Duplicate envelopes discarded at intake (0 when fault-free).
    pub duplicates_dropped: u64,
    /// Worker-crash recoveries (checkpoint restarts; 0 when fault-free).
    pub recoveries: u64,
    /// Modelled seconds spent replaying work after crashes.
    pub recovery_seconds: f64,
}

/// Derives the objective a dataset calls for.
pub fn objective_for(dataset: &Dataset) -> Objective {
    match dataset.n_classes {
        0 => Objective::SquaredError,
        2 => Objective::Logistic,
        c => Objective::Softmax { n_classes: c },
    }
}

/// Trains `system` on `train`, evaluating convergence on `valid`.
pub fn run_system(
    system: System,
    train: &Dataset,
    valid: &Dataset,
    workers: usize,
    network: NetworkCostModel,
    config: &TrainConfig,
    faults: Option<FaultPlan>,
) -> SystemRun {
    let cluster = Cluster::with_cost(workers, network).with_faults(faults);
    let result = system.run(&cluster, train, config);
    let outcome = vero::TrainOutcome {
        model: vero::system::VeroModel { inner: result.model },
        per_tree: result.per_tree.clone(),
        stats: result.stats,
    };
    let curve = vero::report::convergence_curve(&outcome, valid);
    let final_metric = curve.last().map(|p| p.eval.headline()).unwrap_or(0.0);
    SystemRun {
        system: system.name().to_string(),
        seconds_per_tree: mean(&result.per_tree, |t| t.comp_seconds + t.comm_seconds),
        comp_per_tree: mean(&result.per_tree, |t| t.comp_seconds),
        comm_per_tree: mean(&result.per_tree, |t| t.comm_seconds),
        curve,
        final_metric,
        bytes_sent: outcome.stats.total_bytes_sent(),
        retries: outcome.stats.total_retries(),
        duplicates_dropped: outcome.stats.total_duplicates_dropped(),
        recoveries: outcome.stats.recoveries,
        recovery_seconds: outcome.stats.recovery_seconds,
    }
}

/// Appends the fault-recovery counters to a report row. The bench binaries
/// call this only when a `--faults` plan is active, so fault-free reports
/// keep their columns byte-for-byte unchanged.
pub fn add_fault_columns(row: &mut serde_json::Value, run: &SystemRun) {
    if let serde_json::Value::Object(m) = row {
        m.insert("retries".into(), serde_json::json!(run.retries));
        m.insert("duplicates_dropped".into(), serde_json::json!(run.duplicates_dropped));
        m.insert("recoveries".into(), serde_json::json!(run.recoveries));
        m.insert("recovery_s".into(), serde_json::json!(run.recovery_seconds));
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
        let run = run_system(
            System::Vero,
            &train,
            &valid,
            2,
            NetworkCostModel::lab_cluster(),
            &cfg,
            None,
        );
        assert_eq!(run.curve.len(), 4);
        assert!(run.seconds_per_tree > 0.0);
        assert!(run.final_metric > 0.5);
        assert!(run.bytes_sent > 0);
        assert!((run.comp_per_tree + run.comm_per_tree - run.seconds_per_tree).abs() < 1e-9);
    }
}
