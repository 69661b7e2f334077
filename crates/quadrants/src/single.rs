//! Single-node reference trainer.
//!
//! Row-store + node-to-instance index + histogram subtraction — the same
//! mathematics every distributed quadrant runs, without a cluster. All
//! cross-quadrant equivalence tests compare against this implementation:
//! on the same binned data every trainer must grow the same trees.
//! There is no wire at all, so [`TrainConfig::wire`] is trivially a no-op:
//! every codec trains the identical ensemble.

use crate::grow::{subtraction_plan, Frontier};
use gbdt_core::histogram::HistogramPool;
use gbdt_core::indexes::NodeToInstanceIndex;
use gbdt_core::kernels;
use gbdt_core::split::{best_split, NodeStats, SplitParams};
use gbdt_core::tree::{self, Tree};
use gbdt_core::{BinCuts, GbdtModel, GradBuffer, TrainConfig};
use gbdt_data::dataset::Dataset;
use gbdt_data::BinnedStore;

/// Trains a GBDT model on one node.
pub fn train(dataset: &Dataset, config: &TrainConfig) -> GbdtModel {
    config.validate().expect("invalid training config");
    let cuts = BinCuts::from_dataset(dataset, config.n_bins);
    let binned = cuts.apply_store(dataset, config.storage);
    train_prebinned(&binned, &cuts, &dataset.labels, config)
}

/// Trains on already-binned data (shared with tests that need exact control
/// over the cuts).
pub fn train_prebinned(
    binned: &BinnedStore,
    cuts: &BinCuts,
    labels: &[f32],
    config: &TrainConfig,
) -> GbdtModel {
    let n = binned.n_rows();
    let d = binned.n_features();
    let c = config.n_outputs();
    let params = SplitParams::from_config(config);
    let objective = config.objective;

    let mut model = GbdtModel::new(objective, config.learning_rate, d);
    let mut scores = vec![0.0f64; n * c];
    for chunk in scores.chunks_mut(c) {
        chunk.copy_from_slice(&model.init_scores);
    }
    let mut grads = GradBuffer::new(n, c);
    let mut index = NodeToInstanceIndex::new(n);
    let mut pool = HistogramPool::new(d, config.n_bins, c);

    for _ in 0..config.n_trees {
        let grid = objective.grid(labels, model.score_bound());
        objective.compute_gradients_on(grid, &scores, labels, &mut grads);
        let mut tree = Tree::new(config.n_layers, c);

        // Root statistics.
        let mut root_stats = NodeStats::zero(c);
        let mut gbuf = vec![0.0; c];
        let mut hbuf = vec![0.0; c];
        grads.sum_instances(index.instances(0), &mut gbuf, &mut hbuf);
        root_stats.grads.copy_from_slice(&gbuf);
        root_stats.hesses.copy_from_slice(&hbuf);

        let mut frontier = Frontier::root(root_stats, n as u64);
        let mut leaves: Vec<u32> = Vec::new();

        for layer in 0..config.n_layers {
            if frontier.nodes.is_empty() {
                break;
            }
            let last_layer = layer + 1 == config.n_layers;
            if last_layer {
                for &node in &frontier.nodes {
                    tree.set_leaf_from_stats(
                        node,
                        &frontier.stats[&node],
                        params.lambda,
                        config.learning_rate,
                    );
                    leaves.push(node);
                }
                break;
            }

            // Build histograms: root directly; deeper layers build the
            // smaller sibling and subtract for the other.
            let build = |pool: &mut HistogramPool, node: u32| {
                let (hist, rows) = (pool.acquire(node), index.instances(node));
                kernels::fill_rows_chunk(hist, rows, binned, &grads, config.kernel);
            };
            if layer == 0 {
                build(&mut pool, 0);
            } else {
                let mut k = 0;
                while k < frontier.nodes.len() {
                    let left = frontier.nodes[k];
                    let right = frontier.nodes[k + 1];
                    debug_assert_eq!(tree::sibling(left), right);
                    let build_left =
                        subtraction_plan(frontier.counts[&left], frontier.counts[&right]);
                    let (built, derive) = if build_left { (left, right) } else { (right, left) };
                    build(&mut pool, built);
                    pool.subtract_sibling(tree::parent(left), built, derive);
                    k += 2;
                }
            }

            // Split finding + node splitting.
            let mut next = Frontier::default();
            for &node in &frontier.nodes {
                let stats = &frontier.stats[&node];
                let decision = if frontier.counts[&node] < config.min_node_instances as u64 {
                    None
                } else {
                    let hist = pool.get(node).expect("frontier node has a histogram");
                    best_split(hist, stats, &params, |f| cuts.n_bins(f), |f| f)
                };
                match decision {
                    Some(split) => {
                        tree.set_internal_with_gain(
                            node,
                            split.feature,
                            split.bin,
                            cuts.threshold(split.feature, split.bin),
                            split.default_left,
                            split.gain,
                        );
                        let (lc, rc) = index.split(node, |i| {
                            match binned.get(i as usize, split.feature) {
                                Some(b) => b <= split.bin,
                                None => split.default_left,
                            }
                        });
                        Frontier::push_children(&mut next, node, &split, lc as u64, rc as u64);
                    }
                    None => {
                        tree.set_leaf_from_stats(node, stats, params.lambda, config.learning_rate);
                        leaves.push(node);
                        pool.release(node);
                    }
                }
            }
            frontier = next;
        }

        // Apply leaf outputs to the running scores.
        for &leaf in &leaves {
            let values = match tree.node(leaf).expect("leaf materialized").kind {
                gbdt_core::tree::NodeKind::Leaf { values } => values,
                _ => unreachable!("leaf node is a leaf"),
            };
            for &i in index.instances(leaf) {
                let base = i as usize * c;
                for (k, &v) in values.iter().enumerate() {
                    scores[base + k] += v;
                }
            }
        }

        pool.release_all();
        index.reset();
        model.trees.push(tree);
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_core::Objective;
    use gbdt_data::synthetic::SyntheticConfig;

    fn binary_dataset(n: usize, seed: u64) -> Dataset {
        SyntheticConfig {
            n_instances: n,
            n_features: 20,
            n_classes: 2,
            density: 0.6,
            label_noise: 0.02,
            seed,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn learns_binary_classification() {
        let ds = binary_dataset(2_000, 3);
        let (train_ds, valid_ds) = ds.split_validation(0.25);
        let cfg = TrainConfig::builder()
            .n_trees(30)
            .n_layers(5)
            .objective(Objective::Logistic)
            .build()
            .unwrap();
        let model = train(&train_ds, &cfg);
        assert_eq!(model.trees.len(), 30);
        let eval = model.evaluate(&valid_ds);
        assert!(eval.auc.unwrap() > 0.80, "AUC {:?}", eval.auc);
        // Training fit is better than random too.
        assert!(model.evaluate(&train_ds).auc.unwrap() > 0.85);
    }

    #[test]
    fn loss_decreases_monotonically_on_train() {
        let ds = binary_dataset(800, 5);
        let cfg = TrainConfig::builder().n_trees(10).n_layers(4).build().unwrap();
        let model = train(&ds, &cfg);
        // Evaluate prefixes: loss must be non-increasing (small tolerance).
        let mut last = f64::INFINITY;
        for t in [1, 3, 5, 10] {
            let mut prefix = model.clone();
            prefix.trees.truncate(t);
            let loss = prefix.evaluate(&ds).loss;
            assert!(loss <= last + 1e-9, "loss rose from {last} to {loss} at {t} trees");
            last = loss;
        }
    }

    #[test]
    fn learns_multiclass() {
        let ds = SyntheticConfig {
            n_instances: 3_000,
            n_features: 30,
            n_classes: 5,
            density: 0.5,
            label_noise: 0.0,
            seed: 11,
            ..Default::default()
        }
        .generate();
        let (train_ds, valid_ds) = ds.split_validation(0.2);
        let cfg = TrainConfig::builder()
            .n_trees(20)
            .n_layers(5)
            .objective(Objective::Softmax { n_classes: 5 })
            .build()
            .unwrap();
        let model = train(&train_ds, &cfg);
        let eval = model.evaluate(&valid_ds);
        // 5 classes: random = 0.2.
        assert!(eval.accuracy.unwrap() > 0.5, "accuracy {:?}", eval.accuracy);
    }

    #[test]
    fn learns_regression() {
        let ds = SyntheticConfig {
            n_instances: 1_500,
            n_features: 10,
            n_classes: 0,
            density: 1.0,
            seed: 13,
            ..Default::default()
        }
        .generate();
        let cfg = TrainConfig::builder()
            .n_trees(40)
            .n_layers(5)
            .objective(Objective::SquaredError)
            .build()
            .unwrap();
        let model = train(&ds, &cfg);
        let eval = model.evaluate(&ds);
        // Baseline RMSE (predicting 0) is the label std.
        let mean: f64 = ds.labels.iter().map(|&y| f64::from(y)).sum::<f64>() / 1_500.0;
        let var: f64 =
            ds.labels.iter().map(|&y| (f64::from(y) - mean).powi(2)).sum::<f64>() / 1_500.0;
        assert!(
            eval.rmse.unwrap() < var.sqrt() * 0.6,
            "rmse {:?} vs std {}",
            eval.rmse,
            var.sqrt()
        );
    }

    #[test]
    fn deeper_trees_fit_train_better() {
        let ds = binary_dataset(1_000, 17);
        let shallow = train(
            &ds,
            &TrainConfig::builder().n_trees(10).n_layers(2).build().unwrap(),
        );
        let deep = train(
            &ds,
            &TrainConfig::builder().n_trees(10).n_layers(7).build().unwrap(),
        );
        assert!(deep.evaluate(&ds).loss < shallow.evaluate(&ds).loss);
    }

    #[test]
    fn gamma_prunes_to_fewer_leaves() {
        let ds = binary_dataset(1_000, 19);
        let loose = train(
            &ds,
            &TrainConfig::builder().n_trees(3).n_layers(6).gamma(0.0).build().unwrap(),
        );
        let tight = train(
            &ds,
            &TrainConfig::builder().n_trees(3).n_layers(6).gamma(5.0).build().unwrap(),
        );
        let leaves = |m: &GbdtModel| m.trees.iter().map(Tree::n_leaves).sum::<usize>();
        assert!(
            leaves(&tight) < leaves(&loose),
            "gamma should prune: {} vs {}",
            leaves(&tight),
            leaves(&loose)
        );
    }

    #[test]
    fn single_layer_config_yields_constant_leaves() {
        let ds = binary_dataset(200, 23);
        let cfg = TrainConfig::builder().n_trees(2).n_layers(1).build().unwrap();
        let model = train(&ds, &cfg);
        for tree in &model.trees {
            assert_eq!(tree.n_leaves(), 1);
            assert_eq!(tree.n_nodes(), 1);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let ds = binary_dataset(500, 29);
        let cfg = TrainConfig::builder().n_trees(5).n_layers(4).build().unwrap();
        let a = train(&ds, &cfg);
        let b = train(&ds, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn handles_all_identical_labels() {
        let mut ds = binary_dataset(300, 31);
        ds.labels.iter_mut().for_each(|y| *y = 1.0);
        let cfg = TrainConfig::builder().n_trees(3).n_layers(4).build().unwrap();
        let model = train(&ds, &cfg);
        // Gradients shrink toward zero; predictions go positive for all.
        let eval = model.evaluate(&ds);
        assert!(eval.accuracy.unwrap() == 1.0);
    }
}
