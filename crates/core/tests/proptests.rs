//! Property-based tests of the GBDT core invariants.

use gbdt_core::histogram::NodeHistogram;
use gbdt_core::split::{best_split_for_feature, NodeStats, SplitParams};
use gbdt_core::tree::{LookupResult, Tree};
use gbdt_core::{BinCuts, QuantileSketch};
use proptest::prelude::*;

/// Brute-force split gain for a single feature: enumerate every bin
/// boundary and both default directions directly from per-instance data.
fn brute_force_best_gain(
    bins: &[Option<u16>], // None = missing
    grads: &[f64],
    hesses: &[f64],
    n_bins: usize,
    params: &SplitParams,
) -> Option<f64> {
    let score = |g: f64, h: f64| g * g / (h + params.lambda);
    let (gt, ht): (f64, f64) = (grads.iter().sum(), hesses.iter().sum());
    let mut best: Option<f64> = None;
    for b in 0..n_bins.saturating_sub(1) {
        for default_left in [true, false] {
            let (mut gl, mut hl) = (0.0f64, 0.0f64);
            for i in 0..bins.len() {
                let left = match bins[i] {
                    Some(bin) => bin as usize <= b,
                    None => default_left,
                };
                if left {
                    gl += grads[i];
                    hl += hesses[i];
                }
            }
            let (gr, hr) = (gt - gl, ht - hl);
            if hl < params.min_child_weight || hr < params.min_child_weight {
                continue;
            }
            let gain = 0.5 * (score(gl, hl) + score(gr, hr) - score(gt, ht)) - params.gamma;
            if gain > 0.0 && best.is_none_or(|cur| gain > cur) {
                best = Some(gain);
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The histogram split finder must agree with brute-force enumeration.
    #[test]
    fn split_finder_matches_brute_force(
        data in prop::collection::vec(
            (prop::option::of(0u16..6), -2.0f64..2.0, 0.01f64..2.0),
            2..40,
        ),
        lambda in 0.1f64..5.0,
        gamma in 0.0f64..0.5,
    ) {
        let n_bins = 6usize;
        let params = SplitParams { lambda, gamma, min_child_weight: 0.0 };
        let mut hist = NodeHistogram::new(1, n_bins, 1);
        let mut node = NodeStats::zero(1);
        let mut bins = Vec::new();
        let mut grads = Vec::new();
        let mut hesses = Vec::new();
        for &(bin, g, h) in &data {
            if let Some(b) = bin {
                hist.add(0, b, 0, g, h);
            }
            node.grads[0] += g;
            node.hesses[0] += h;
            bins.push(bin);
            grads.push(g);
            hesses.push(h);
        }
        let found = best_split_for_feature(&hist, 0, n_bins, &node, &params);
        let brute = brute_force_best_gain(&bins, &grads, &hesses, n_bins, &params);
        match (found, brute) {
            (Some(s), Some(g)) => prop_assert!(
                (s.gain - g).abs() < 1e-9,
                "finder {} vs brute {}", s.gain, g
            ),
            (None, None) => {}
            (a, b) => prop_assert!(false, "finder {:?} vs brute {:?}", a.map(|s| s.gain), b),
        }
    }

    /// Histogram subtraction must reproduce the directly built sibling.
    #[test]
    fn subtraction_equals_direct_build(
        entries in prop::collection::vec((0u32..4, 0u16..5, -1.0f64..1.0, 0.0f64..1.0, any::<bool>()), 0..60),
    ) {
        let mut parent = NodeHistogram::new(4, 5, 1);
        let mut left = NodeHistogram::new(4, 5, 1);
        let mut right = NodeHistogram::new(4, 5, 1);
        for &(f, b, g, h, goes_left) in &entries {
            parent.add(f, b, 0, g, h);
            if goes_left {
                left.add(f, b, 0, g, h);
            } else {
                right.add(f, b, 0, g, h);
            }
        }
        let mut derived = parent.clone();
        derived.subtract_from(&left);
        for f in 0..4u32 {
            for b in 0..5u16 {
                let d = derived.get(f, b, 0);
                let r = right.get(f, b, 0);
                prop_assert!((d.grad - r.grad).abs() < 1e-9);
                prop_assert!((d.hess - r.hess).abs() < 1e-9);
            }
        }
    }

    /// The histogram wire codec must round-trip every shape bit-exactly,
    /// including empty histograms and multi-class (C > 1) strides.
    #[test]
    fn histogram_codec_round_trips(
        d in 0usize..6,
        q in 1usize..8,
        c in 1usize..4,
        entries in prop::collection::vec(
            (0u32..6, 0u16..8, 0usize..4, -10.0f64..10.0, 0.0f64..10.0),
            0..80,
        ),
    ) {
        let mut hist = NodeHistogram::new(d, q, c);
        for &(f, b, k, g, h) in &entries {
            if (f as usize) < d && (b as usize) < q && k < c {
                hist.add(f, b, k, g, h);
            }
        }
        let bytes = hist.encode_bytes();
        prop_assert_eq!(bytes.len(), 12 + d * q * c * 2 * 8);
        let decoded = NodeHistogram::decode_bytes(&bytes);
        prop_assert_eq!(decoded.as_ref(), Some(&hist), "decode(encode(h)) != h");
        // Truncated payloads must be rejected, never mis-decoded.
        if !bytes.is_empty() {
            prop_assert_eq!(NodeHistogram::decode_bytes(&bytes[..bytes.len() - 1]), None);
        }
    }

    /// Tree routing by raw value must match routing by the value's bin.
    #[test]
    fn value_and_bin_routing_agree(
        cuts in prop::collection::btree_set(-100i32..100, 1..10),
        raw_values in prop::collection::vec(prop::option::of(-120i32..120), 1..20),
    ) {
        let cut_values: Vec<f32> = cuts.iter().map(|&c| c as f32).collect();
        let cuts = BinCuts::from_cut_values(vec![cut_values.clone()]);
        // A stump splitting feature 0 at each LEGAL split bin: the split
        // finder never splits at the last bin (the right side would only
        // hold values clamped into it), so neither do we.
        for bin in 0..cut_values.len().saturating_sub(1) as u16 {
            let mut tree = Tree::new(2, 1);
            tree.set_internal(0, 0, bin, cuts.threshold(0, bin), false);
            tree.set_leaf(1, vec![1.0]);
            tree.set_leaf(2, vec![-1.0]);
            for &raw in &raw_values {
                let by_value = match raw {
                    Some(v) => tree.predict_row(&[0], &[v as f32])[0],
                    None => tree.predict_row(&[], &[])[0],
                };
                let by_bin = tree.predict_with(|_| match raw {
                    Some(v) => LookupResult::Bin(cuts.bin(0, v as f32).unwrap()),
                    None => LookupResult::Missing,
                })[0];
                prop_assert_eq!(by_value, by_bin, "raw {:?} bin-split {}", raw, bin);
            }
        }
    }

    /// Sketch quantiles stay within rank-error bounds under random merges.
    #[test]
    fn merged_sketch_rank_error_bounded(
        chunks in prop::collection::vec(prop::collection::vec(-1000i32..1000, 10..300), 1..6),
    ) {
        let mut merged = QuantileSketch::new(128);
        let mut all: Vec<i32> = Vec::new();
        for chunk in &chunks {
            let mut local = QuantileSketch::new(128);
            for &v in chunk {
                local.insert(v as f32);
            }
            merged.merge(&local);
            all.extend_from_slice(chunk);
        }
        all.sort_unstable();
        let n = all.len();
        for phi in [0.25f64, 0.5, 0.75] {
            let got = merged.quantile(phi).unwrap();
            // Rank of the returned value within the exact data.
            let rank = all.partition_point(|&v| (v as f32) <= got);
            let target = phi * n as f64;
            let err = (rank as f64 - target).abs() / n as f64;
            prop_assert!(err < 0.15, "phi={} got={} rank={} of {} (err {})", phi, got, rank, n, err);
        }
    }

    /// Bin cut application clamps every stored value into a valid bin.
    #[test]
    fn binning_is_total_over_training_range(
        values in prop::collection::vec(-50.0f32..50.0, 1..200),
        q in 2usize..30,
    ) {
        let mut sketch = QuantileSketch::new(64);
        for &v in &values {
            sketch.insert(v);
        }
        let cuts = BinCuts::from_cut_values(vec![sketch.candidate_splits(q)]);
        prop_assert!(cuts.n_bins(0) <= q);
        for &v in &values {
            let bin = cuts.bin(0, v).unwrap();
            prop_assert!((bin as usize) < cuts.n_bins(0));
            // Value is <= its bin's threshold (the defining property).
            prop_assert!(v <= cuts.threshold(0, bin));
        }
    }
}

/// Deterministic splitmix64 step, for growing arbitrary-shape trees from a
/// proptest-chosen seed without a strategy for recursive structures.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit_f64(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Grows a random complete-indexed tree: BFS from the root, each node with
/// room for children splits with probability ~0.7, else becomes a leaf.
fn random_tree(seed: &mut u64, n_layers: usize, n_outputs: usize) -> Tree {
    let mut tree = Tree::new(n_layers, n_outputs);
    let mut frontier = vec![0u32];
    let max = gbdt_core::tree::max_nodes(n_layers) as u32;
    while let Some(id) = frontier.pop() {
        let can_split = gbdt_core::tree::children(id).1 < max;
        if can_split && splitmix(seed) % 10 < 7 {
            tree.set_internal_with_gain(
                id,
                (splitmix(seed) % 16) as u32,
                (splitmix(seed) % 64) as u16,
                unit_f64(seed) as f32 * 10.0,
                splitmix(seed).is_multiple_of(2),
                unit_f64(seed).abs() * 5.0,
            );
            let (l, r) = gbdt_core::tree::children(id);
            frontier.push(l);
            frontier.push(r);
        } else {
            tree.set_leaf(id, (0..n_outputs).map(|_| unit_f64(seed)).collect());
        }
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The binary model codec must round-trip arbitrary ensembles
    /// bit-exactly, and re-encoding the decoded model must reproduce the
    /// exact bytes (the hot-swap publish path depends on both).
    #[test]
    fn model_codec_round_trips(
        seed in any::<u64>(),
        obj_pick in 0u8..3,
        n_layers in 1usize..6,
        n_trees in 0usize..5,
        learning_rate in 0.01f64..1.0,
    ) {
        use gbdt_core::model::GbdtModel;
        use gbdt_core::Objective;
        let objective = match obj_pick {
            0 => Objective::SquaredError,
            1 => Objective::Logistic,
            _ => Objective::Softmax { n_classes: 3 },
        };
        let mut m = GbdtModel::new(objective, learning_rate, 16);
        let n_outputs = m.n_outputs();
        let mut state = seed;
        for _ in 0..n_trees {
            m.trees.push(random_tree(&mut state, n_layers, n_outputs));
        }
        let bytes = m.encode_bytes();
        let back = GbdtModel::decode_bytes(&bytes);
        prop_assert_eq!(back.as_ref(), Ok(&m), "decode(encode(m)) != m");
        prop_assert_eq!(
            back.unwrap().encode_bytes(),
            bytes,
            "re-encode not byte-identical"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// First- and second-order gradients of every objective must match
    /// central finite differences of its mean loss.
    #[test]
    fn gradients_match_finite_differences(
        score in -3.0f64..3.0,
        label_bit in any::<bool>(),
        class_scores in prop::collection::vec(-3.0f64..3.0, 3),
        label_class in 0usize..3,
        target in -2.0f64..2.0,
    ) {
        use gbdt_core::{GradBuffer, Objective};
        let eps = 1e-5;

        // Logistic.
        let obj = Objective::Logistic;
        let y = [if label_bit { 1.0f32 } else { 0.0 }];
        let mut buf = GradBuffer::new(1, 1);
        obj.compute_gradients(&[score], &y, &mut buf);
        let g = buf.get(0, 0).grad;
        let h = buf.get(0, 0).hess;
        let lp = obj.mean_loss(&[score + eps], &y);
        let lm = obj.mean_loss(&[score - eps], &y);
        let l0 = obj.mean_loss(&[score], &y);
        prop_assert!((g - (lp - lm) / (2.0 * eps)).abs() < 1e-5, "logistic grad");
        prop_assert!((h - (lp - 2.0 * l0 + lm) / (eps * eps)).abs() < 1e-3, "logistic hess");

        // Squared error.
        let obj = Objective::SquaredError;
        let y = [target as f32];
        let mut buf = GradBuffer::new(1, 1);
        obj.compute_gradients(&[score], &y, &mut buf);
        let lp = obj.mean_loss(&[score + eps], &y);
        let lm = obj.mean_loss(&[score - eps], &y);
        prop_assert!((buf.get(0, 0).grad - (lp - lm) / (2.0 * eps)).abs() < 1e-4);
        prop_assert!((buf.get(0, 0).hess - 1.0).abs() < 1e-12);

        // Softmax: per-class first-order gradient (hessian uses the common
        // 2p(1-p) GBDT surrogate rather than the exact diagonal, so only
        // the gradient is checked against finite differences).
        let obj = Objective::Softmax { n_classes: 3 };
        let y = [label_class as f32];
        let mut buf = GradBuffer::new(1, 3);
        obj.compute_gradients(&class_scores, &y, &mut buf);
        for k in 0..3 {
            let mut sp = class_scores.clone();
            sp[k] += eps;
            let mut sm = class_scores.clone();
            sm[k] -= eps;
            let num = (obj.mean_loss(&sp, &y) - obj.mean_loss(&sm, &y)) / (2.0 * eps);
            prop_assert!(
                (buf.get(0, k).grad - num).abs() < 1e-4,
                "softmax grad class {}: {} vs {}", k, buf.get(0, k).grad, num
            );
        }
    }

    /// AUC is invariant under strictly monotone score transforms.
    #[test]
    fn auc_is_rank_invariant(
        pairs in prop::collection::vec((any::<bool>(), -5.0f64..5.0), 4..60),
    ) {
        use gbdt_core::metrics::auc;
        let labels: Vec<f32> = pairs.iter().map(|&(y, _)| f32::from(u8::from(y))).collect();
        let scores: Vec<f64> = pairs.iter().map(|&(_, s)| s).collect();
        let transformed: Vec<f64> = scores.iter().map(|&s| (s * 0.3).exp() + 7.0).collect();
        let a = auc(&labels, &scores);
        let b = auc(&labels, &transformed);
        prop_assert!((a - b).abs() < 1e-12, "{} vs {}", a, b);
    }

    /// `apply_store` writes each layout directly; `apply` followed by
    /// `bin_store` — the path it replaced — is the oracle. Covers every
    /// policy, densities on both sides of the auto threshold, a feature
    /// with and without cuts, q > 255, and a dense source with zero cells.
    #[test]
    fn apply_store_matches_apply_then_bin_store(
        cells in prop::collection::vec(prop::collection::vec((0u8..8, -40i16..40), 6), 1..40),
        keep in 1u8..8,
        wide in any::<bool>(),
        unseen in any::<bool>(),
    ) {
        use gbdt_core::Storage;
        use gbdt_data::{CsrMatrix, Dataset, DenseMatrix, FeatureMatrix};
        // A cell is stored when its draw is under `keep` and its value is
        // non-zero: density ≈ keep/8, so 1–2 bin sparse and 3+ bin dense.
        let rows: Vec<Vec<f32>> = cells
            .iter()
            .map(|r| r.iter().map(|&(draw, v)| if draw < keep { f32::from(v) } else { 0.0 }).collect())
            .collect();
        let labels = vec![0.0; rows.len()];
        let dense = Dataset::new(
            FeatureMatrix::Dense(DenseMatrix::from_rows(&rows).unwrap()),
            labels.clone(),
            0,
            "dense",
        )
        .unwrap();
        let sparse = Dataset::new(
            FeatureMatrix::Sparse(CsrMatrix::from_dense(&rows, 6).unwrap()),
            labels,
            0,
            "sparse",
        )
        .unwrap();
        // Feature 0 has 300 cuts when `wide` (u16 cells); feature 5 has none
        // when `unseen`, so its values are not binned.
        let first: Vec<f32> = if wide {
            (0..300).map(|k| -30.0 + 0.2 * k as f32).collect()
        } else {
            vec![-10.0, 0.5, 10.0]
        };
        let cuts = BinCuts::from_cut_values(vec![
            first,
            vec![-20.0, -5.0, 5.0, 20.0],
            vec![0.5],
            vec![-1.0, 1.0],
            vec![-39.0, 39.0],
            if unseen { vec![] } else { vec![0.0] },
        ]);
        for storage in Storage::ALL {
            let oracle = storage.bin_store(cuts.apply(&sparse), cuts.max_bins());
            prop_assert_eq!(&cuts.apply_store(&sparse, storage), &oracle, "{} sparse", storage);
            prop_assert_eq!(&cuts.apply_store(&dense, storage), &oracle, "{} dense", storage);
        }
        prop_assert_eq!(cuts.apply(&dense), cuts.apply(&sparse));
        prop_assert_eq!(
            BinCuts::sketch_dataset(&dense, 16)
                .iter()
                .map(QuantileSketch::count)
                .collect::<Vec<_>>(),
            BinCuts::sketch_dataset(&sparse, 16)
                .iter()
                .map(QuantileSketch::count)
                .collect::<Vec<_>>()
        );
    }
}
