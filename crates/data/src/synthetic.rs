//! The paper's synthetic workload generator (§5.2) and dataset shape presets.
//!
//! > "The synthetic datasets are generated from random linear regression
//! > models. Specifically, given dimensionality D, informative ratio p, and
//! > number of classes C, we first randomly initialize the weight matrix W
//! > with size D×C, and each row of W contains pD nonzero values. Then for
//! > each instance, the feature x is a randomly sampled D-dimensional vector
//! > with density φ, and its label y is determined by argmax xᵀW."
//!
//! The presets in [`presets`] reproduce the *shapes* (N, D, C, density) of
//! every dataset in the paper's Table 2 and §6 — public datasets we cannot
//! ship (SUSY, Higgs, Criteo, Epsilon, RCV1) and Tencent-internal ones we
//! cannot obtain (Gender, Age, Taste) are replaced by synthetic equivalents
//! with the same shape, which is the property all of the paper's cost
//! analysis depends on. Densities for the public datasets are set from their
//! published sizes; real data in LIBSVM format can be substituted via
//! [`crate::libsvm`].

use crate::dataset::{Dataset, FeatureMatrix};
use crate::dense::DenseMatrix;
use crate::sparse::CsrBuilder;
use crate::FeatureId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the random linear-regression-model generator.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Number of instances N.
    pub n_instances: usize,
    /// Feature dimensionality D.
    pub n_features: usize,
    /// Number of classes C (0 = regression, 2 = binary, ≥3 = multi-class).
    pub n_classes: usize,
    /// Feature density φ: expected fraction of nonzero features per instance.
    pub density: f64,
    /// Informative ratio p: fraction of features with nonzero weight per class.
    pub informative_ratio: f64,
    /// Probability of replacing a label with a uniformly random class, so the
    /// learning problem is not perfectly separable.
    pub label_noise: f64,
    /// Materialize as a dense matrix (`density` is then treated as 1.0).
    pub dense: bool,
    /// RNG seed; the generator is fully deterministic given the config.
    pub seed: u64,
    /// Dataset name carried into experiment output.
    pub name: String,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            n_instances: 10_000,
            n_features: 100,
            n_classes: 2,
            density: 0.2,
            informative_ratio: 0.2,
            label_noise: 0.05,
            dense: false,
            seed: 42,
            name: "synthetic".into(),
        }
    }
}

impl SyntheticConfig {
    /// Generates the dataset described by this configuration.
    pub fn generate(&self) -> Dataset {
        assert!(self.n_features > 0, "need at least one feature");
        assert!((0.0..=1.0).contains(&self.density), "density must be in [0, 1]");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let c_eff = self.n_classes.max(1);
        let mut sampler = DistinctSampler::new(self.n_features);
        let weights = self.random_weights(&mut rng, &mut sampler, c_eff);

        let density = if self.dense { 1.0 } else { self.density };
        let nnz_per_row = ((self.n_features as f64) * density).round().max(1.0) as usize;
        let nnz_per_row = nnz_per_row.min(self.n_features);

        let mut labels = Vec::with_capacity(self.n_instances);
        let mut scores = vec![0f64; c_eff];

        if self.dense {
            let mut values = Vec::with_capacity(self.n_instances * self.n_features);
            for _ in 0..self.n_instances {
                scores.iter_mut().for_each(|s| *s = 0.0);
                let base = values.len();
                for j in 0..self.n_features {
                    let v: f32 = rng.gen_range(-1.0..1.0);
                    values.push(v);
                    for (c, s) in scores.iter_mut().enumerate() {
                        *s += f64::from(v) * f64::from(weights[j * c_eff + c]);
                    }
                }
                debug_assert_eq!(values.len() - base, self.n_features);
                labels.push(self.label_from_scores(&scores, &mut rng));
            }
            let dense = DenseMatrix::from_flat(self.n_instances, self.n_features, values)
                .expect("generator produces a consistent flat buffer");
            Dataset::new(FeatureMatrix::Dense(dense), labels, self.n_classes, self.name.clone())
                .expect("generator produces valid labels")
        } else {
            let mut builder = CsrBuilder::with_capacity(
                self.n_features,
                self.n_instances,
                self.n_instances * nnz_per_row,
            );
            let mut entries: Vec<(FeatureId, f32)> = Vec::with_capacity(nnz_per_row);
            for _ in 0..self.n_instances {
                scores.iter_mut().for_each(|s| *s = 0.0);
                entries.clear();
                for &j in sampler.sample(&mut rng, nnz_per_row) {
                    let v: f32 = rng.gen_range(-1.0..1.0);
                    entries.push((j as FeatureId, v));
                    for (c, s) in scores.iter_mut().enumerate() {
                        *s += f64::from(v) * f64::from(weights[j * c_eff + c]);
                    }
                }
                builder.push_row(&entries).expect("sampled indices are distinct and in range");
                labels.push(self.label_from_scores(&scores, &mut rng));
            }
            Dataset::new(
                FeatureMatrix::Sparse(builder.build()),
                labels,
                self.n_classes,
                self.name.clone(),
            )
            .expect("generator produces valid labels")
        }
    }

    /// D×C weight matrix, row-major, with `(1 - p)·D` rows zeroed per class.
    fn random_weights(
        &self,
        rng: &mut StdRng,
        sampler: &mut DistinctSampler,
        c_eff: usize,
    ) -> Vec<f32> {
        let mut w = vec![0f32; self.n_features * c_eff];
        let informative =
            ((self.n_features as f64) * self.informative_ratio).round().max(1.0) as usize;
        let informative = informative.min(self.n_features);
        for c in 0..c_eff {
            for &j in sampler.sample(rng, informative) {
                w[j * c_eff + c] = rng.gen_range(-1.0f32..1.0);
            }
        }
        w
    }

    fn label_from_scores(&self, scores: &[f64], rng: &mut StdRng) -> f32 {
        if self.n_classes == 0 {
            // Regression: the linear response plus bounded noise.
            let noise: f64 = rng.gen_range(-0.1..0.1);
            return (scores[0] + noise) as f32;
        }
        if self.label_noise > 0.0 && rng.gen_bool(self.label_noise) {
            return rng.gen_range(0..self.n_classes) as f32;
        }
        let mut best = 0usize;
        for (c, &s) in scores.iter().enumerate() {
            if s > scores[best] {
                best = c;
            }
        }
        best as f32
    }
}

/// Distinct indices from `0..length`, drawn as `rand::seq::index::sample`
/// draws them (Floyd's algorithm: the same `gen_range` calls in the same
/// order, so the same indices in the same order) into one buffer reused
/// across calls, with a by-index mask for membership where the shim searches
/// its list. Only the entries a call set are cleared by the next.
struct DistinctSampler {
    chosen: Vec<usize>,
    taken: Vec<bool>,
}

impl DistinctSampler {
    fn new(length: usize) -> Self {
        DistinctSampler { chosen: Vec::new(), taken: vec![false; length] }
    }

    /// `amount` distinct indices of `0..length`, in draw order.
    fn sample(&mut self, rng: &mut impl Rng, amount: usize) -> &[usize] {
        let length = self.taken.len();
        assert!(amount <= length, "cannot sample {amount} distinct indices from 0..{length}");
        for &i in &self.chosen {
            self.taken[i] = false;
        }
        self.chosen.clear();
        self.chosen.reserve(amount);
        for j in length - amount..length {
            let t = rng.gen_range(0..j + 1);
            // Every earlier pick is below `j`, so `j` itself is free.
            let pick = if self.taken[t] { j } else { t };
            self.taken[pick] = true;
            self.chosen.push(pick);
        }
        &self.chosen
    }
}

/// Shape presets for every dataset in the paper's evaluation.
pub mod presets {
    use super::SyntheticConfig;

    /// Workload category from the paper's Table 2.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Category {
        /// Low-dimensional dense.
        LowDimDense,
        /// High-dimensional sparse.
        HighDimSparse,
        /// Multi-classification.
        MultiClass,
        /// Tencent industrial (§6).
        Industrial,
    }

    /// A named dataset shape from the paper.
    #[derive(Debug, Clone, Copy)]
    pub struct Preset {
        /// Dataset name as used in the paper.
        pub name: &'static str,
        /// Paper-scale instance count N.
        pub n_instances: usize,
        /// Feature dimensionality D.
        pub n_features: usize,
        /// Number of label classes.
        pub n_classes: usize,
        /// Feature density φ (1.0 = dense).
        pub density: f64,
        /// Materialized densely?
        pub dense: bool,
        /// Workload category.
        pub category: Category,
        /// Number of workers the paper used for this dataset.
        pub paper_workers: usize,
    }

    /// All dataset shapes from Table 2 (public + synthetic) and §6 (industrial).
    pub const ALL: &[Preset] = &[
        Preset { name: "susy", n_instances: 5_000_000, n_features: 18, n_classes: 2, density: 1.0, dense: true, category: Category::LowDimDense, paper_workers: 5 },
        Preset { name: "higgs", n_instances: 11_000_000, n_features: 28, n_classes: 2, density: 1.0, dense: true, category: Category::LowDimDense, paper_workers: 5 },
        Preset { name: "criteo", n_instances: 45_000_000, n_features: 39, n_classes: 2, density: 1.0, dense: true, category: Category::LowDimDense, paper_workers: 5 },
        Preset { name: "epsilon", n_instances: 500_000, n_features: 2_000, n_classes: 2, density: 1.0, dense: true, category: Category::LowDimDense, paper_workers: 5 },
        Preset { name: "rcv1", n_instances: 697_000, n_features: 47_000, n_classes: 2, density: 0.0016, dense: false, category: Category::HighDimSparse, paper_workers: 5 },
        Preset { name: "synthesis", n_instances: 50_000_000, n_features: 100_000, n_classes: 2, density: 0.001, dense: false, category: Category::HighDimSparse, paper_workers: 8 },
        Preset { name: "rcv1-multi", n_instances: 534_000, n_features: 47_000, n_classes: 53, density: 0.0016, dense: false, category: Category::MultiClass, paper_workers: 8 },
        Preset { name: "synthesis-multi", n_instances: 50_000_000, n_features: 25_000, n_classes: 10, density: 0.0012, dense: false, category: Category::MultiClass, paper_workers: 8 },
        Preset { name: "gender", n_instances: 122_000_000, n_features: 330_000, n_classes: 2, density: 0.0003, dense: false, category: Category::Industrial, paper_workers: 50 },
        Preset { name: "age", n_instances: 48_000_000, n_features: 330_000, n_classes: 9, density: 0.0003, dense: false, category: Category::Industrial, paper_workers: 20 },
        Preset { name: "taste", n_instances: 10_000_000, n_features: 15_000, n_classes: 100, density: 0.005, dense: false, category: Category::Industrial, paper_workers: 20 },
    ];

    /// Looks a preset up by its paper name.
    pub fn by_name(name: &str) -> Option<&'static Preset> {
        ALL.iter().find(|p| p.name == name)
    }

    impl Preset {
        /// Generator config with N divided by `scale` (floored at 2 000
        /// instances so metrics stay meaningful) and D divided by
        /// `feature_scale` (floored at 16). `scale = 1.0` reproduces the
        /// paper-scale shape exactly.
        pub fn config(&self, scale: f64, feature_scale: f64, seed: u64) -> SyntheticConfig {
            assert!(scale >= 1.0 && feature_scale >= 1.0, "scales must be >= 1");
            let n = ((self.n_instances as f64 / scale).round() as usize).max(2_000);
            let d = ((self.n_features as f64 / feature_scale).round() as usize).max(16);
            // Keep the per-row nonzero count of the original shape so the
            // paper's `d` (avg nonzeros) is preserved when D shrinks.
            let target_nnz = (self.n_features as f64 * self.density).max(1.0);
            let density = if self.dense { 1.0 } else { (target_nnz / d as f64).min(1.0) };
            SyntheticConfig {
                n_instances: n,
                n_features: d,
                n_classes: self.n_classes,
                density,
                informative_ratio: 0.2,
                label_noise: 0.05,
                dense: self.dense,
                seed,
                name: self.name.to_string(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;

    proptest! {
        /// The reused buffer and its mask draw what the shim's fresh `Vec`
        /// and linear search draw, call after call, and leave the generator
        /// at the same next draw.
        #[test]
        fn the_sampler_draws_what_the_shim_draws(
            length in 1usize..300,
            amounts in proptest::collection::vec(0usize..300, 1..6),
            seed in any::<u64>(),
        ) {
            let mut sampler = DistinctSampler::new(length);
            let (mut ours, mut shims) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for amount in amounts.into_iter().map(|a| a % (length + 1)) {
                let expected = rand::seq::index::sample(&mut shims, length, amount).into_vec();
                prop_assert_eq!(sampler.sample(&mut ours, amount), &expected[..]);
                prop_assert_eq!(ours.next_u64(), shims.next_u64());
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SyntheticConfig { n_instances: 200, n_features: 50, ..Default::default() };
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a, b);
        let c = SyntheticConfig { seed: 7, ..cfg }.generate();
        assert_ne!(a, c);
    }

    #[test]
    fn shape_matches_config() {
        let cfg = SyntheticConfig {
            n_instances: 300,
            n_features: 40,
            density: 0.25,
            ..Default::default()
        };
        let ds = cfg.generate();
        assert_eq!(ds.n_instances(), 300);
        assert_eq!(ds.n_features(), 40);
        // density 0.25 of 40 features = 10 nonzeros per row, exactly.
        assert!((ds.avg_nnz_per_row() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn dense_generation_is_fully_dense() {
        let cfg = SyntheticConfig {
            n_instances: 50,
            n_features: 8,
            dense: true,
            ..Default::default()
        };
        let ds = cfg.generate();
        assert_eq!(ds.features.n_stored(), 50 * 8);
        assert!(matches!(ds.features, FeatureMatrix::Dense(_)));
    }

    #[test]
    fn binary_labels_are_binary() {
        let ds = SyntheticConfig { n_instances: 500, ..Default::default() }.generate();
        assert!(ds.labels.iter().all(|&y| y == 0.0 || y == 1.0));
        // Both classes appear (argmax of a random linear model is balanced-ish).
        assert!(ds.labels.contains(&0.0));
        assert!(ds.labels.contains(&1.0));
    }

    #[test]
    fn multiclass_labels_cover_range() {
        let cfg = SyntheticConfig {
            n_instances: 2_000,
            n_features: 60,
            n_classes: 5,
            ..Default::default()
        };
        let ds = cfg.generate();
        assert!(ds.labels.iter().all(|&y| (0.0..5.0).contains(&y)));
        let distinct: std::collections::BTreeSet<i32> =
            ds.labels.iter().map(|&y| y as i32).collect();
        assert!(distinct.len() >= 4, "expected most classes to appear, got {distinct:?}");
    }

    #[test]
    fn labels_are_learnable_not_random() {
        // A linear model generated the labels, so a single informative
        // feature should correlate with the label far better than chance.
        let cfg = SyntheticConfig {
            n_instances: 4_000,
            n_features: 10,
            density: 1.0,
            label_noise: 0.0,
            ..Default::default()
        };
        let ds = cfg.generate();
        let csr = ds.features.to_csr();
        // Find the feature whose sign best predicts the label.
        let mut best_acc = 0.0f64;
        for j in 0..10u32 {
            let mut hits = 0usize;
            for i in 0..ds.n_instances() {
                let v = csr.get(i, j).unwrap_or(0.0);
                let pred = if v > 0.0 { 1.0 } else { 0.0 };
                if pred == ds.labels[i] {
                    hits += 1;
                }
            }
            let acc = hits as f64 / ds.n_instances() as f64;
            best_acc = best_acc.max(acc.max(1.0 - acc));
        }
        assert!(best_acc > 0.55, "expected a predictive feature, best_acc = {best_acc}");
    }

    #[test]
    fn regression_labels_track_linear_response() {
        let cfg = SyntheticConfig {
            n_instances: 100,
            n_features: 5,
            n_classes: 0,
            density: 1.0,
            ..Default::default()
        };
        let ds = cfg.generate();
        // Labels are real-valued and not all equal.
        let min = ds.labels.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = ds.labels.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert!(max > min);
    }

    #[test]
    fn presets_cover_all_paper_datasets() {
        assert_eq!(presets::ALL.len(), 11);
        for name in [
            "susy", "higgs", "criteo", "epsilon", "rcv1", "synthesis", "rcv1-multi",
            "synthesis-multi", "gender", "age", "taste",
        ] {
            assert!(presets::by_name(name).is_some(), "missing preset {name}");
        }
        assert!(presets::by_name("unknown").is_none());
    }

    #[test]
    fn preset_scaling_preserves_avg_nnz() {
        let p = presets::by_name("synthesis").unwrap();
        let cfg = p.config(10_000.0, 100.0, 1);
        let ds = cfg.generate();
        assert_eq!(ds.n_instances(), 5_000);
        assert_eq!(ds.n_features(), 1_000);
        // Original avg nnz = 100k * 0.001 = 100 per row.
        assert!((ds.avg_nnz_per_row() - 100.0).abs() < 1.0);
    }
}
