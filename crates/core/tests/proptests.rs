//! Property-based tests of the GBDT core invariants.

use gbdt_core::histogram::NodeHistogram;
use gbdt_core::split::{
    best_split, best_split_for_feature, best_split_in_range, best_split_in_range_parallel,
    NodeStats, Split, SplitParams,
};
use gbdt_core::tree::{LookupResult, Tree};
use gbdt_core::{BinCuts, QuantileSketch};
use gbdt_data::{BinId, FeatureId};
use proptest::prelude::*;

/// The allocating split scan the running-sum scan replaced, kept as the
/// oracle it must equal bit for bit: `NodeStats` per side, per bin and per
/// default direction, and a `Split` per candidate.
fn oracle_best_split_for_feature(
    hist: &NodeHistogram,
    feature: FeatureId,
    n_bins: usize,
    node: &NodeStats,
    params: &SplitParams,
) -> Option<Split> {
    if n_bins < 2 {
        return None;
    }
    let c = node.n_outputs();
    let present = hist.feature_totals(feature);
    let missing = node.sub(&present);
    let node_score = node.score(params.lambda);

    let mut left_present = NodeStats::zero(c);
    let mut best: Option<Split> = None;
    for b in 0..n_bins - 1 {
        hist.accumulate_bin(feature, b, &mut left_present);
        let right_present = present.sub(&left_present);
        for default_left in [true, false] {
            let (left, right) = if default_left {
                let mut l = left_present.clone();
                l.add(&missing);
                (l, right_present.clone())
            } else {
                let mut r = right_present.clone();
                r.add(&missing);
                (left_present.clone(), r)
            };
            if left.total_hess() < params.min_child_weight
                || right.total_hess() < params.min_child_weight
            {
                continue;
            }
            let gain = 0.5 * (left.score(params.lambda) + right.score(params.lambda) - node_score)
                - params.gamma;
            if gain <= 0.0 {
                continue;
            }
            let candidate = Split { feature, bin: b as BinId, default_left, gain, left, right };
            if best.as_ref().is_none_or(|cur| candidate.better_than(cur)) {
                best = Some(candidate);
            }
        }
    }
    best
}

/// The oracle's fold over features, in ascending order.
fn oracle_best_split_in_range(
    hist: &NodeHistogram,
    range: std::ops::Range<FeatureId>,
    node: &NodeStats,
    params: &SplitParams,
    n_bins_of: impl Fn(FeatureId) -> usize,
    feature_map: impl Fn(FeatureId) -> FeatureId,
) -> Option<Split> {
    let mut best: Option<Split> = None;
    for f in range {
        if let Some(mut s) = oracle_best_split_for_feature(hist, f, n_bins_of(f), node, params) {
            s.feature = feature_map(f);
            if best.as_ref().is_none_or(|cur| s.better_than(cur)) {
                best = Some(s);
            }
        }
    }
    best
}

/// `0.0` half the time, else uniform in `0.0..hi`: a veto or missing mass
/// either off exactly or on.
fn zero_or_below(hi: f64) -> impl Strategy<Value = f64> {
    (any::<bool>(), 0.0..hi).prop_map(|(off, v)| if off { 0.0 } else { v })
}

/// A split with every `f64` as its bits, so equality is bit-identity.
type SplitBits = (FeatureId, BinId, bool, u64, Vec<u64>, Vec<u64>);

fn split_bits(split: &Option<Split>) -> Option<SplitBits> {
    let bits = |s: &NodeStats| s.grads.iter().chain(&s.hesses).map(|v| v.to_bits()).collect();
    split.as_ref().map(|s| {
        (s.feature, s.bin, s.default_left, s.gain.to_bits(), bits(&s.left), bits(&s.right))
    })
}

/// A `d × q × c` histogram from `seed`: a bin is empty with probability
/// `empty / 4` (bin 0 included), a bin repeats the one before it and a
/// feature repeats the one before it now and then (exact ties), and the node
/// is feature 0's present mass plus missing mass of scale `missing`.
fn scan_histogram(
    seed: u64,
    d: usize,
    q: usize,
    c: usize,
    empty: u64,
    missing: f64,
) -> (NodeHistogram, NodeStats) {
    let mut state = seed;
    let mut hist = NodeHistogram::new(d, q, c);
    let (stride, width) = (hist.feature_stride(), 2 * c);
    let data = hist.as_mut_slice();
    for f in 0..d {
        let at = f * stride;
        if f > 0 && splitmix(&mut state).is_multiple_of(5) {
            data.copy_within(at - stride..at, at);
            continue;
        }
        for b in 0..q {
            let cell = at + b * width;
            let k = splitmix(&mut state) % 8;
            if k < 2 * empty {
                continue;
            }
            if k == 7 && b > 0 {
                data.copy_within(cell - width..cell, cell);
                continue;
            }
            for pair in data[cell..cell + width].chunks_exact_mut(2) {
                pair[0] = unit_f64(&mut state) * 2.0;
                pair[1] = unit_f64(&mut state).abs() * 2.0;
                // Now and then one half of a pair is exactly zero, so a bin
                // can move the hessian sums and not the gradient sums.
                if k == 6 {
                    pair[(splitmix(&mut state) % 2) as usize] = 0.0;
                }
            }
        }
    }
    let mut node = hist.feature_totals(0);
    for (g, h) in node.grads.iter_mut().zip(&mut node.hesses) {
        *g += unit_f64(&mut state) * missing;
        *h += unit_f64(&mut state).abs() * missing;
    }
    (hist, node)
}

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

    /// The histogram split finder must agree with brute-force enumeration,
    /// with every bin populated (`hole` = 6) or with bin `hole` (bin 0
    /// included) left empty.
    #[test]
    fn split_finder_matches_brute_force(
        data in prop::collection::vec(
            (prop::option::of(0u16..6), -2.0f64..2.0, 0.01f64..2.0),
            2..40,
        ),
        lambda in 0.1f64..5.0,
        gamma in 0.0f64..0.5,
        min_child_weight in zero_or_below(3.0),
        hole in 0u16..7,
    ) {
        let n_bins = 6usize;
        let params = SplitParams { lambda, gamma, min_child_weight };
        let mut hist = NodeHistogram::new(1, n_bins, 1);
        let mut node = NodeStats::zero(1);
        let mut bins = Vec::new();
        let mut grads = Vec::new();
        let mut hesses = Vec::new();
        for &(bin, g, h) in &data {
            let bin = bin.map(|b| if b == hole { (b + 1) % n_bins as u16 } else { b });
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

    /// The running-sum scan equals the allocating oracle bit for bit — the
    /// whole `Option<Split>` — per feature, over all features, over a
    /// remapped subrange, and through the parallel path (D ≥ 64 engages it
    /// at 4 threads). Covers C ∈ {1, 2, 3}, missing mass on either side,
    /// empty and repeated bins, repeated features, `n_bins` below the
    /// stride (down to 1), and γ / `min_child_weight` vetoes.
    #[test]
    fn split_scan_matches_the_allocating_oracle(
        seed in any::<u64>(),
        shape in (1usize..4, 2usize..9, any::<bool>(), 1usize..6),
        empty in 0u64..4,
        missing in zero_or_below(3.0),
        vetoes in (0.05f64..3.0, zero_or_below(2.0), zero_or_below(4.0)),
    ) {
        let (c, q, wide, d) = shape;
        let d = if wide { d + 63 } else { d };
        let (lambda, gamma, min_child_weight) = vetoes;
        let (hist, node) = scan_histogram(seed, d, q, c, empty, missing);
        let params = SplitParams { lambda, gamma, min_child_weight };
        let n_bins_of = |f: FeatureId| q - (f as usize % 3).min(q - 1);
        for f in 0..d as FeatureId {
            prop_assert_eq!(
                split_bits(&best_split_for_feature(&hist, f, n_bins_of(f), &node, &params)),
                split_bits(&oracle_best_split_for_feature(&hist, f, n_bins_of(f), &node, &params)),
                "feature {}", f
            );
        }
        let all = 0..d as FeatureId;
        let oracle = split_bits(&oracle_best_split_in_range(&hist, all, &node, &params, n_bins_of, |f| f));
        prop_assert_eq!(&split_bits(&best_split(&hist, &node, &params, n_bins_of, |f| f)), &oracle);
        for threads in [1, 4] {
            let all = 0..d as FeatureId;
            let par = best_split_in_range_parallel(&hist, all, &node, &params, n_bins_of, |f| f, threads);
            prop_assert_eq!(&split_bits(&par), &oracle, "threads {}", threads);
        }
        let sub = d as FeatureId / 3..d as FeatureId;
        let map = |f: FeatureId| f + 1000;
        prop_assert_eq!(
            split_bits(&best_split_in_range(&hist, sub.clone(), &node, &params, n_bins_of, map)),
            split_bits(&oracle_best_split_in_range(&hist, sub, &node, &params, n_bins_of, map))
        );
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
