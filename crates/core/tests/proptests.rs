//! Property-based tests of the GBDT core invariants.

use gbdt_core::histogram::NodeHistogram;
use gbdt_core::model::GbdtModel;
use gbdt_core::kernels::fill_rows_chunk;
use gbdt_core::loss::GradGrid;
use gbdt_core::split::{
    best_split, best_split_for_feature, best_split_in_range, NodeStats, Split, SplitParams,
};
use gbdt_core::tree::{LookupResult, Tree};
use gbdt_core::{BinCuts, GradBuffer, Kernel, Objective, QuantileSketch};
use gbdt_data::binned::BinnedRowsBuilder;
use gbdt_data::dense_binned::{BinWidth, DenseBinnedRows};
use gbdt_data::frame::Reader;
use gbdt_data::hostile;
use gbdt_data::{BinId, BinnedRows, BinnedStore, FeatureId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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
    /// whole `Option<Split>` — per feature, over all features and over a
    /// remapped subrange, on narrow and wide (D ≥ 64) histograms. Covers
    /// C ∈ {1, 2, 3}, missing mass on either side,
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
        prop_assert_eq!(decoded.as_ref(), Ok(&hist), "decode(encode(h)) != h");
        // Truncated payloads must be rejected, never mis-decoded.
        if !bytes.is_empty() {
            prop_assert!(NodeHistogram::decode_bytes(&bytes[..bytes.len() - 1]).is_err());
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

/// Every row-store layout and fill kernel: the sparse pair walk, and dense
/// `u8` and `u16` cells under each kernel.
fn every_store_and_kernel(rows: &BinnedRows, q: usize) -> Vec<(BinnedStore, Kernel)> {
    let mut out = vec![(BinnedStore::Sparse(rows.clone()), Kernel::Scalar)];
    for width in [BinWidth::U8, BinWidth::U16] {
        for kernel in Kernel::ALL {
            let dense = DenseBinnedRows::from_sparse_with_width(rows, q, width);
            out.push((BinnedStore::Dense(dense), kernel));
        }
    }
    out
}

/// `items` in a seeded Fisher–Yates order.
fn shuffled<T: Clone>(items: &[T], state: &mut u64) -> Vec<T> {
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, (splitmix(state) % (i as u64 + 1)) as usize);
    }
    out
}

fn hist_bits(hist: &NodeHistogram) -> Vec<u64> {
    hist.as_slice().iter().map(|v| v.to_bits()).collect()
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

    /// On grid-valued gradients a node histogram has one set of bits under
    /// every storage × kernel, however it is made: filled from any
    /// permutation of its instances, from any number of partials merged in
    /// any order, or derived by subtracting its sibling from its parent.
    /// (D = 19 leaves a remainder after both lane widths.)
    #[test]
    fn grid_histograms_are_order_free(
        cells in prop::collection::vec(prop::collection::vec(prop::option::of(0u16..13), 19), 1..41),
        c in 1usize..4,
        parts in 1usize..6,
        seed in any::<u64>(),
    ) {
        let (d, q, n) = (19, 13, cells.len());
        let mut builder = BinnedRowsBuilder::new(d, q);
        for row in &cells {
            let entries: Vec<(u32, u16)> = row
                .iter()
                .enumerate()
                .filter_map(|(j, bin)| bin.map(|b| (j as u32, b)))
                .collect();
            builder.push_row(&entries).unwrap();
        }
        let rows = builder.build();
        let mut state = seed;
        let grid = GradGrid::new(n, 1.0);
        let mut grads = GradBuffer::new(n, c);
        for i in 0..n {
            for k in 0..c {
                let (g, h) = (unit_f64(&mut state), unit_f64(&mut state).abs() / 2.0);
                grads.set(i, k, grid.round(g), grid.hessian(h));
            }
        }
        let all: Vec<u32> = (0..n as u32).collect();
        let (node, sibling): (Vec<u32>, Vec<u32>) =
            all.iter().partition(|_| splitmix(&mut state).is_multiple_of(2));
        let fill = |store: &BinnedStore, kernel: Kernel, instances: &[u32]| {
            let mut hist = NodeHistogram::new(d, q, c);
            fill_rows_chunk(&mut hist, instances, store, &grads, kernel);
            hist
        };
        let want = hist_bits(&fill(&BinnedStore::Sparse(rows.clone()), Kernel::Scalar, &node));
        for (store, kernel) in every_store_and_kernel(&rows, q) {
            let tag = format!("{}/{}", if matches!(store, BinnedStore::Sparse(_)) { "sparse" } else { "dense" }, kernel.label());
            let order = shuffled(&node, &mut state);
            prop_assert!(hist_bits(&fill(&store, kernel, &order)) == want, "{} permuted", tag);

            let cut = |k: usize| k * order.len() / parts;
            let partials: Vec<NodeHistogram> =
                (0..parts).map(|k| fill(&store, kernel, &order[cut(k)..cut(k + 1)])).collect();
            let mut merged = NodeHistogram::new(d, q, c);
            for k in shuffled(&(0..parts).collect::<Vec<_>>(), &mut state) {
                merged.merge_from(&partials[k]);
            }
            prop_assert!(hist_bits(&merged) == want, "{} merged from {} partials", tag, parts);

            let mut derived = fill(&store, kernel, &shuffled(&all, &mut state));
            derived.subtract_from(&fill(&store, kernel, &shuffled(&sibling, &mut state)));
            prop_assert!(hist_bits(&derived) == want, "{} derived from its parent", tag);
        }
    }

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

    /// Every gradient and hessian lies on its grid: a whole number of grid
    /// units, g never −0.0 (the sparse wire codec's absent-means-+0.0
    /// argument needs that), and h at least one unit (so no node's H is 0,
    /// even at λ = 0). Scores reach ±40, where the logistic hessian
    /// underflows any grid, and sit within half a unit of their label,
    /// where g rounds to zero from below.
    #[test]
    fn gradients_lie_on_the_grid(
        obj_pick in 0u8..3,
        rows in prop::collection::vec((-40.0f64..40.0, -50.0f32..50.0, 0u8..4), 1..200),
    ) {
        use gbdt_core::{GradBuffer, Objective};
        let obj = match obj_pick {
            0 => Objective::SquaredError,
            1 => Objective::Logistic,
            _ => Objective::Softmax { n_classes: 3 },
        };
        let c = obj.n_outputs();
        let labels: Vec<f32> = rows
            .iter()
            .map(|&(_, y, k)| match obj {
                Objective::SquaredError => y,
                Objective::Logistic => f32::from(k % 2),
                Objective::Softmax { .. } => f32::from(k % 3),
            })
            .collect();
        let mut scores = Vec::with_capacity(rows.len() * c);
        for (i, &(s, _, k)) in rows.iter().enumerate() {
            for _ in 0..c {
                scores.push(match k {
                    0 if obj == Objective::SquaredError => {
                        let y = f64::from(labels[i]);
                        y - (y.abs() * f64::EPSILON).max(1e-300)
                    }
                    1 => s.signum() * 40.0,
                    _ => s,
                });
            }
        }
        let score_bound = scores.iter().fold(0.0, |m: f64, v| m.max(v.abs()));
        let grid = obj.grid(&labels, score_bound);
        let mut buf = GradBuffer::new(rows.len(), c);
        obj.compute_gradients_on(grid, &scores, &labels, &mut buf);
        let on_grid = |v: f64| (v / grid.unit()).fract() == 0.0;
        for i in 0..rows.len() {
            for k in 0..c {
                let p = buf.get(i, k);
                prop_assert!(on_grid(p.grad) && on_grid(p.hess), "({}, {}) off the grid", p.grad, p.hess);
                prop_assert!(p.grad.to_bits() != (-0.0f64).to_bits(), "g is -0.0");
                prop_assert!(p.hess >= grid.unit(), "h {} below one unit", p.hess);
            }
        }
        // The convenience entry point picks the same grid from the same bounds.
        let mut same = GradBuffer::new(rows.len(), c);
        obj.compute_gradients(&scores, &labels, &mut same);
        prop_assert_eq!(same, buf);
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
            let tag = storage.label();
            prop_assert_eq!(&cuts.apply_store(&sparse, storage), &oracle, "{} sparse", tag);
            prop_assert_eq!(&cuts.apply_store(&dense, storage), &oracle, "{} dense", tag);
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

/// `q` calls of [`QuantileSketch::quantile`] under `candidate_splits`'
/// dedup-and-maximum rule: the per-target loop the one-sweep walk replaced,
/// kept as the oracle it must equal bit for bit.
fn oracle_candidate_splits(sketch: &QuantileSketch, q: usize) -> Vec<f32> {
    let Some(max) = sketch.max().filter(|_| q > 0) else {
        return Vec::new();
    };
    let mut cuts: Vec<f32> = Vec::with_capacity(q);
    for i in 1..=q {
        let v = sketch.quantile(i as f64 / q as f64).expect("non-empty");
        if cuts.last().is_none_or(|&last| v > last) {
            cuts.push(v);
        }
    }
    match cuts.last_mut() {
        Some(last) if *last < max => {
            if cuts.len() < q {
                cuts.push(max);
            } else {
                *cuts.last_mut().expect("non-empty") = max;
            }
        }
        None => cuts.push(max),
        _ => {}
    }
    cuts
}

/// A value of one of the shapes sketches must order exactly: small integers
/// (many repeats), ±0.0, ±infinity, subnormals of either sign, and any bits
/// at all (NaN payloads included).
fn sketch_value((kind, bits): (u8, u32)) -> f32 {
    match kind % 6 {
        0 | 1 => (bits % 16) as f32 - 8.0,
        2 => [0.0, -0.0][bits as usize % 2],
        3 => [f32::INFINITY, f32::NEG_INFINITY][bits as usize % 2],
        4 => f32::from_bits((bits & 0x8000_0000) | (bits % 0x0080_0000)),
        _ => f32::from_bits(bits),
    }
}

/// The capacity and the levels' item bits of a sketch's wire encoding, each
/// level in ascending `total_cmp` order: a level's length word has bit 31
/// set when its items are a first key and LEB128 key gaps, clear when they
/// are raw `f32`s.
fn wire_levels(bytes: &[u8]) -> (usize, Vec<Vec<u32>>) {
    let from_key = |key: u32| if key >> 31 == 1 { key & !(1 << 31) } else { !key };
    let mut r = Reader::new(bytes);
    let capacity = r.u32().unwrap() as usize;
    r.take(17).unwrap(); // n, min, max, flip
    let n_levels = r.u32().unwrap();
    let mut level = || {
        let word = r.u32().unwrap();
        let (delta, len) = (word >> 31 == 1, (word & !(1 << 31)) as usize);
        if !delta {
            return r.u32s(len).unwrap().collect();
        }
        let mut key = r.u32().unwrap();
        let mut level = vec![from_key(key)];
        for _ in 1..len {
            let mut gap = 0;
            for shift in (0..).step_by(7) {
                let byte = r.u8().unwrap();
                gap |= u32::from(byte & 0x7f) << shift;
                if byte & 0x80 == 0 {
                    break;
                }
            }
            key += gap;
            level.push(from_key(key));
        }
        level
    };
    (capacity, (0..n_levels).map(|_| level()).collect())
}

/// The raw wire encoding of a sketch of `capacity` holding `levels[h]` at
/// level `h`, in the order given, counting the weight they carry.
fn raw_sketch_bytes(capacity: usize, levels: &[Vec<f32>], flip: bool) -> Vec<u8> {
    let items = || levels.iter().flatten().copied();
    let n: u64 = levels.iter().enumerate().map(|(h, l)| (l.len() as u64) << h).sum();
    let mut bytes = (capacity as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&n.to_le_bytes());
    bytes.extend_from_slice(&items().fold(f32::INFINITY, f32::min).to_le_bytes());
    bytes.extend_from_slice(&items().fold(f32::NEG_INFINITY, f32::max).to_le_bytes());
    bytes.push(u8::from(flip));
    bytes.extend_from_slice(&(levels.len() as u32).to_le_bytes());
    for level in levels {
        bytes.extend_from_slice(&(level.len() as u32).to_le_bytes());
        level.iter().for_each(|v| bytes.extend_from_slice(&v.to_le_bytes()));
    }
    bytes
}

/// The wire encoding of a sketch of `capacity` whose level 0 holds `items`.
fn level_zero_sketch(capacity: usize, items: &[f32], flip: bool) -> QuantileSketch {
    let mut bytes = (capacity as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&(items.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&f32::MIN.to_le_bytes());
    bytes.extend_from_slice(&f32::MAX.to_le_bytes());
    bytes.push(u8::from(flip));
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&(items.len() as u32).to_le_bytes());
    items.iter().for_each(|v| bytes.extend_from_slice(&v.to_le_bytes()));
    QuantileSketch::decode_bytes(&bytes).expect("a well-formed sketch")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One sweep over one sort proposes exactly the cuts `q` separate
    /// quantile walks do, on single and merged sketches alike.
    #[test]
    fn candidate_splits_match_the_quantile_oracle(
        stream in prop::collection::vec((any::<u8>(), any::<u32>()), 0..3_000),
        capacity in 4usize..64,
        cut in any::<usize>(),
        q in 1usize..64,
    ) {
        let values: Vec<f32> = stream.into_iter().map(sketch_value).collect();
        let (head, tail) = values.split_at(cut % (values.len() + 1));
        let mut sketch = QuantileSketch::new(capacity);
        head.iter().for_each(|&v| sketch.insert(v));
        let mut other = QuantileSketch::new(capacity);
        tail.iter().for_each(|&v| other.insert(v));
        sketch.merge(&other);
        let bits = |cuts: Vec<f32>| cuts.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let want = bits(oracle_candidate_splits(&sketch, q));
        prop_assert_eq!(bits(sketch.candidate_splits(q)), want);
    }

    /// A compaction sorts through integer keys into exactly the order a
    /// `total_cmp` sort gives, NaN payloads included: its two offsets
    /// promote the even and the odd positions of that order.
    #[test]
    fn compaction_order_is_the_total_cmp_order(
        stream in prop::collection::vec(any::<u32>(), 4..200),
        last in (any::<u8>(), any::<u32>()),
    ) {
        let items: Vec<f32> = stream.into_iter().map(f32::from_bits).collect();
        let last = Some(sketch_value(last)).filter(|v| !v.is_nan()).unwrap_or(0.5);
        let mut sorted: Vec<f32> = items.iter().copied().chain([last]).collect();
        sorted.sort_unstable_by(f32::total_cmp);
        for flip in [false, true] {
            let mut sketch = level_zero_sketch(items.len(), &items, flip);
            sketch.insert(last);
            let (_, levels) = wire_levels(&sketch.encode_bytes());
            let want: Vec<u32> =
                sorted.iter().skip(usize::from(flip)).step_by(2).map(|v| v.to_bits()).collect();
            prop_assert!(levels[0].is_empty());
            prop_assert_eq!(&levels[1], &want, "flip {}", flip);
        }
    }

    /// Every level holds at most the capacity after any sequence of inserts
    /// and merges, merges of sketches with other capacities included.
    #[test]
    fn every_level_stays_within_capacity(
        ops in prop::collection::vec(
            (any::<bool>(), 4usize..40, prop::collection::vec(-500i32..500, 0..400)),
            1..12,
        ),
        capacity in 4usize..40,
    ) {
        let mut sketch = QuantileSketch::new(capacity);
        for (merge, other_capacity, values) in ops {
            if merge {
                let mut other = QuantileSketch::new(other_capacity);
                values.iter().for_each(|&v| other.insert(v as f32));
                sketch.merge(&other);
            } else {
                values.iter().for_each(|&v| sketch.insert(v as f32));
            }
            let (cap, levels) = wire_levels(&sketch.encode_bytes());
            prop_assert_eq!(cap, capacity);
            for (h, level) in levels.iter().enumerate() {
                prop_assert!(level.len() <= capacity, "level {} holds {}", h, level.len());
            }
        }
    }
}

/// The input of one [`sketch_value`].
fn any_value() -> impl Strategy<Value = (u8, u32)> {
    (any::<u8>(), any::<u32>())
}

/// `levels` of [`sketch_value`]s, NaN dropped.
fn non_nan_levels(levels: Vec<Vec<(u8, u32)>>) -> Vec<Vec<f32>> {
    let level = |l: Vec<(u8, u32)>| l.into_iter().map(sketch_value).filter(|v| !v.is_nan());
    levels.into_iter().map(|l| level(l).collect()).collect()
}

/// Child statistics of `c` classes from raw bits (NaN payloads included),
/// read from `bits` cyclically starting at `at`.
fn stats_from_bits(c: usize, bits: &[u64], at: usize) -> NodeStats {
    let value = |k: usize| f64::from_bits(bits[(at + k) % bits.len()].rotate_left(k as u32));
    NodeStats { grads: (0..c).map(value).collect(), hesses: (c..2 * c).map(value).collect() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sketch — any non-NaN bits at any level (±0.0, ±inf, subnormals,
    /// repeats) in any order — survives its wire bit for bit: the decoded
    /// sketch encodes to the same bytes, holds the same items, and proposes
    /// and merges the same bits. The encoding is `wire_bytes()` long and
    /// never longer than raw `f32` levels.
    #[test]
    fn sketch_wire_round_trips_every_bit(
        levels in prop::collection::vec(prop::collection::vec(any_value(), 0..48), 1..6),
        other in prop::collection::vec(any_value(), 0..400),
        flip in any::<bool>(),
        q in 1usize..40,
    ) {
        let levels = non_nan_levels(levels);
        let raw = raw_sketch_bytes(48, &levels, flip);
        let sketch = QuantileSketch::decode_bytes(&raw).expect("a well-formed sketch");
        let bytes = sketch.encode_bytes();
        prop_assert_eq!(sketch.wire_bytes(), bytes.len());
        prop_assert!(bytes.len() <= raw.len(), "{} > {} raw", bytes.len(), raw.len());
        let back = QuantileSketch::decode_bytes(&bytes).expect("its own encoding");
        prop_assert_eq!(&back.encode_bytes(), &bytes);
        let (_, items) = wire_levels(&bytes);
        for (h, level) in levels.iter().enumerate() {
            let mut want = level.clone();
            want.sort_unstable_by(f32::total_cmp);
            prop_assert_eq!(&items[h], &want.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
        let bits = |cuts: Vec<f32>| cuts.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(bits(back.candidate_splits(q)), bits(sketch.candidate_splits(q)));
        let mut peer = QuantileSketch::new(8);
        other.into_iter().map(sketch_value).for_each(|v| peer.insert(v));
        let (mut a, mut b) = (sketch.clone(), back);
        a.merge(&peer);
        b.merge(&peer);
        prop_assert_eq!(a.encode_bytes(), b.encode_bytes());
        prop_assert_eq!(bits(a.candidate_splits(q)), bits(b.candidate_splits(q)));
    }

    /// Every truncation of a sketch's bytes is `None`, and every single-byte
    /// flip is `None` or a sketch whose own bytes round-trip: no panic.
    #[test]
    fn hostile_sketch_bytes_are_none_or_a_sketch(
        levels in prop::collection::vec(prop::collection::vec(any_value(), 0..16), 1..4),
        mask in 1u8..=255,
    ) {
        let levels = non_nan_levels(levels);
        let sketch = QuantileSketch::decode_bytes(&raw_sketch_bytes(16, &levels, false))
            .expect("a well-formed sketch");
        let bytes = sketch.encode_bytes();
        for variant in hostile::variants(&bytes, mask) {
            if let Ok(s) = QuantileSketch::decode_bytes(&variant) {
                prop_assert_eq!(variant.len(), bytes.len(), "a truncation decodes");
                let again = s.encode_bytes();
                let back = QuantileSketch::decode_bytes(&again).map(|t| t.encode_bytes());
                prop_assert_eq!(back, Ok(again));
            }
        }
    }

    /// A local best split from a peer: any feature, bin, side, gain bits and
    /// child class counts.
    #[test]
    fn hostile_split_bytes_are_none_or_canonical(
        head in (any::<u32>(), any::<u16>(), any::<bool>(), any::<u64>()),
        classes in (0usize..4, 0usize..4),
        bits in prop::collection::vec(any::<u64>(), 1..8),
        flip in 1u8..=255,
    ) {
        let (feature, bin, default_left, gain) = head;
        let split = Split {
            feature,
            bin,
            default_left,
            gain: f64::from_bits(gain),
            left: stats_from_bits(classes.0, &bits, 0),
            right: stats_from_bits(classes.1, &bits, 1),
        };
        hostile::sweep(&split.encode_bytes(), flip, Split::decode_bytes, Split::encode_bytes)
            .map_err(TestCaseError::fail)?;
    }

    /// The cut broadcast every horizontal trainer and the transformation
    /// decode: any feature count, any cut count per feature (none
    /// included), any ascending non-NaN f32 bits (±inf, subnormals).
    #[test]
    fn hostile_cuts_bytes_are_none_or_canonical(
        features in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..6), 0..8),
        flip in 1u8..=255,
    ) {
        let ascending = |bits: &Vec<u32>| {
            let mut cuts: Vec<f32> =
                bits.iter().map(|&b| f32::from_bits(b)).filter(|v| !v.is_nan()).collect();
            cuts.sort_by(f32::total_cmp);
            cuts.dedup_by(|a, b| a == b);
            cuts
        };
        let cuts = BinCuts::from_cut_values(features.iter().map(ascending).collect());
        hostile::sweep(&cuts.encode_bytes(), flip, BinCuts::decode_bytes, BinCuts::encode_bytes)
            .map_err(TestCaseError::fail)?;
    }

    /// A model as a replica receives it in a publish frame: any objective,
    /// any learning-rate and score bits, trees of 1 to 3 layers grown to
    /// any depth, any feature, bin, threshold, side, gain and leaf bits. A
    /// flip that raises a tree's `n_layers` (at most 24) is a valid model
    /// that holds the nodes it carries (`tests/prep_memory.rs` counts it).
    #[test]
    fn hostile_model_bytes_are_err_or_canonical(
        head in (0u8..3, 2usize..4, any::<u64>(), 0u32..70),
        shapes in prop::collection::vec((1usize..4, 0usize..4), 0..3),
        bits in prop::collection::vec(any::<u64>(), 1..8),
        flip in 1u8..=255,
    ) {
        let (tag, classes, rate, n_features) = head;
        let objective = match tag {
            0 => Objective::SquaredError,
            1 => Objective::Logistic,
            _ => Objective::Softmax { n_classes: classes },
        };
        let mut model = GbdtModel::new(objective, f64::from_bits(rate), n_features as usize);
        let c = objective.n_outputs();
        let mut k = 0;
        let mut next = || {
            k += 1;
            bits[k % bits.len()].rotate_left(k as u32)
        };
        model.init_scores = (0..c).map(|_| f64::from_bits(next())).collect();
        for (n_layers, depth) in shapes {
            let depth = depth.min(n_layers - 1);
            let mut tree = Tree::new(n_layers, c);
            // A complete tree `depth` layers deep: internal above, leaves at it.
            for id in 0..(1u32 << (depth + 1)) - 1 {
                let word = next();
                if id < (1 << depth) - 1 {
                    let (feature, bin) = ((word >> 32) as u32, word as u16);
                    let threshold = f32::from_bits((word >> 16) as u32);
                    let gain = f64::from_bits(next());
                    tree.set_internal_with_gain(id, feature, bin, threshold, word & 1 == 1, gain);
                } else {
                    tree.set_leaf(id, (0..c).map(|_| f64::from_bits(next())).collect());
                }
            }
            model.trees.push(tree);
        }
        let bytes = model.encode_bytes();
        hostile::sweep(&bytes, flip, GbdtModel::decode_bytes, GbdtModel::encode_bytes)
            .map_err(TestCaseError::fail)?;
    }

    /// A node histogram: any shape (empty included) and any cell bits.
    #[test]
    fn hostile_histogram_bytes_are_none_or_canonical(
        shape in (0usize..4, 1usize..5, 1usize..3),
        bits in prop::collection::vec(any::<u64>(), 1..8),
        flip in 1u8..=255,
    ) {
        let (f, q, c) = shape;
        let mut hist = NodeHistogram::new(f, q, c);
        for (k, cell) in hist.as_mut_slice().iter_mut().enumerate() {
            *cell = f64::from_bits(bits[k % bits.len()].rotate_left(k as u32));
        }
        let bytes = hist.encode_bytes();
        hostile::sweep(&bytes, flip, NodeHistogram::decode_bytes, NodeHistogram::encode_bytes)
            .map_err(TestCaseError::fail)?;
    }
}
