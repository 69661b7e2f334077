//! The system table: paper system names → quadrant trainers.
//!
//! Figure 1 places every compared system in one partitioning × storage
//! cell; §5.3 compares XGBoost, LightGBM, DimBoost and Vero. Each row here
//! runs the corresponding data-management policy in this code base (the
//! substitution table in `DESIGN.md`): the *data-management* effect is
//! reproduced; the C++-vs-Java constant factors the paper itself flags as
//! confounds are not simulated. Every "for each trainer" loop — the
//! explorer, the determinism, equivalence and serving suites — iterates
//! [`System::ALL`].

use crate::{featpar, qd1, qd2, qd3, qd4, yggdrasil, Aggregation, DistTrainResult};
use gbdt_cluster::Cluster;
use gbdt_core::TrainConfig;
use gbdt_data::dataset::Dataset;

/// A runnable system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// XGBoost policy: QD1 — horizontal + column-store + all-reduce.
    XgboostLike,
    /// LightGBM policy: QD2 — horizontal + row-store + reduce-scatter.
    LightGbmLike,
    /// DimBoost policy: QD2 — horizontal + row-store + parameter server.
    DimBoostLike,
    /// QD2 with plain all-reduce (used by the Figure 10 quadrant study).
    Qd2AllReduce,
    /// QD3 — vertical + column-store with the hybrid index plan.
    Qd3,
    /// Vero: QD4 — vertical + row-store.
    Vero,
    /// Yggdrasil-style: vertical + column-wise node-to-instance index.
    Yggdrasil,
    /// LightGBM feature-parallel: full replica per worker.
    LightGbmFeatureParallel,
}

impl System {
    /// Every runnable system, in table order.
    pub const ALL: [System; 8] = [
        System::XgboostLike,
        System::LightGbmLike,
        System::DimBoostLike,
        System::Qd2AllReduce,
        System::Qd3,
        System::Vero,
        System::Yggdrasil,
        System::LightGbmFeatureParallel,
    ];

    /// Display name used in tables (paper naming).
    pub fn name(&self) -> &'static str {
        match self {
            System::XgboostLike => "XGBoost",
            System::LightGbmLike => "LightGBM",
            System::DimBoostLike => "DimBoost",
            System::Qd2AllReduce => "QD2",
            System::Qd3 => "QD3",
            System::Vero => "Vero",
            System::Yggdrasil => "Yggdrasil",
            System::LightGbmFeatureParallel => "LightGBM-FP",
        }
    }

    /// The quadrant this system occupies (Figure 1).
    pub fn quadrant(&self) -> &'static str {
        match self {
            System::XgboostLike => "QD1 (horizontal, column)",
            System::LightGbmLike | System::DimBoostLike | System::Qd2AllReduce => {
                "QD2 (horizontal, row)"
            }
            System::Qd3 | System::Yggdrasil => "QD3 (vertical, column)",
            System::Vero => "QD4 (vertical, row)",
            System::LightGbmFeatureParallel => "replica (none, row)",
        }
    }

    /// Whether the system supports multi-class training (DimBoost does not,
    /// §5.3: "DimBoost does not support multi-classification").
    pub fn supports_multiclass(&self) -> bool {
        !matches!(self, System::DimBoostLike)
    }

    /// Runs the system.
    pub fn run(&self, cluster: &Cluster, dataset: &Dataset, config: &TrainConfig) -> DistTrainResult {
        match self {
            System::XgboostLike => qd1::train(cluster, dataset, config),
            System::LightGbmLike => {
                qd2::train(cluster, dataset, config, Aggregation::ReduceScatter)
            }
            System::DimBoostLike => {
                qd2::train(cluster, dataset, config, Aggregation::ParameterServer)
            }
            System::Qd2AllReduce => qd2::train(cluster, dataset, config, Aggregation::AllReduce),
            System::Qd3 => qd3::train(cluster, dataset, config),
            System::Vero => qd4::train(cluster, dataset, config),
            System::Yggdrasil => yggdrasil::train(cluster, dataset, config),
            System::LightGbmFeatureParallel => featpar::train(cluster, dataset, config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_data::synthetic::SyntheticConfig;

    #[test]
    fn names_and_quadrants_are_consistent() {
        assert_eq!(System::Vero.quadrant(), "QD4 (vertical, row)");
        assert_eq!(System::XgboostLike.name(), "XGBoost");
        assert!(!System::DimBoostLike.supports_multiclass());
        assert!(System::Vero.supports_multiclass());
    }

    #[test]
    fn every_system_trains() {
        let ds = SyntheticConfig {
            n_instances: 400,
            n_features: 10,
            density: 0.5,
            seed: 7,
            ..Default::default()
        }
        .generate();
        let cfg = TrainConfig::builder().n_trees(2).n_layers(3).build().unwrap();
        let cluster = Cluster::new(2);
        for system in System::ALL {
            let result = system.run(&cluster, &ds, &cfg);
            assert_eq!(result.model.trees.len(), 2, "{}", system.name());
        }
    }
}
