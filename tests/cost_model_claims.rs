//! The paper's §3 cost claims, asserted as executable invariants over the
//! instrumented trainers: how communication and memory scale with D, C, L,
//! and N for each partitioning scheme.

use gbdt_cluster::Cluster;
use gbdt_core::{Objective, TrainConfig};
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::Dataset;
use gbdt_quadrants::{qd2, qd4, Aggregation, DistTrainResult};

fn dataset(n: usize, d: usize, classes: usize, seed: u64) -> Dataset {
    SyntheticConfig {
        n_instances: n,
        n_features: d,
        n_classes: classes,
        density: (50.0 / d as f64).min(0.5),
        seed,
        ..Default::default()
    }
    .generate()
}

fn config(classes: usize, layers: usize) -> TrainConfig {
    let objective =
        if classes > 2 { Objective::Softmax { n_classes: classes } } else { Objective::Logistic };
    TrainConfig::builder().n_trees(2).n_layers(layers).objective(objective).build().unwrap()
}

/// Bytes sent on the paper's accounting: Sizehist counts uncompressed
/// cells, so codec-mediated payloads count at their logical f64 width.
/// (With the grid codec, compressed horizontal traffic follows occupied
/// bins rather than D·q·C; EXPERIMENTS.md "Known deviations".)
fn train_bytes(result: &DistTrainResult) -> u64 {
    let stats = &result.stats;
    stats.total_bytes_sent() - stats.total_wire_f64_bytes() + stats.total_logical_f64_bytes()
}

#[test]
fn horizontal_comm_scales_with_dimensionality_vertical_does_not() {
    // §3.1.3: QD2's aggregation traffic is proportional to Sizehist ∝ D;
    // QD4's bitmap traffic is independent of D.
    let cluster = Cluster::new(2);
    let cfg = config(2, 6);
    let small = dataset(2_000, 200, 2, 31);
    let large = dataset(2_000, 800, 2, 31);
    let qd2_small = train_bytes(&qd2::train(&cluster, &small, &cfg, Aggregation::AllReduce));
    let qd2_large = train_bytes(&qd2::train(&cluster, &large, &cfg, Aggregation::AllReduce));
    let ratio = qd2_large as f64 / qd2_small as f64;
    assert!(ratio > 2.5, "QD2 traffic should ~4x with 4x D, got {ratio}");

    let qd4_small = train_bytes(&qd4::train(&cluster, &small, &cfg));
    let qd4_large = train_bytes(&qd4::train(&cluster, &large, &cfg));
    let ratio = qd4_large as f64 / qd4_small as f64;
    // Only the one-off transform grows with D; per-tree traffic does not.
    assert!(ratio < 2.0, "QD4 traffic should be nearly flat in D, got {ratio}");
}

#[test]
fn horizontal_comm_scales_with_classes_vertical_does_not() {
    // §3.1.3 / Figure 10(d): Sizehist ∝ C.
    let cluster = Cluster::new(2);
    let ds3 = dataset(2_000, 300, 3, 37);
    let ds10 = dataset(2_000, 300, 10, 37);
    let qd2_c3 = train_bytes(&qd2::train(&cluster, &ds3, &config(3, 6), Aggregation::AllReduce));
    let qd2_c10 = train_bytes(&qd2::train(&cluster, &ds10, &config(10, 6), Aggregation::AllReduce));
    let ratio = qd2_c10 as f64 / qd2_c3 as f64;
    assert!(ratio > 2.0, "QD2 traffic should ~3.3x with C 3->10, got {ratio}");

    let qd4_c3 = train_bytes(&qd4::train(&cluster, &ds3, &config(3, 6)));
    let qd4_c10 = train_bytes(&qd4::train(&cluster, &ds10, &config(10, 6)));
    let ratio = qd4_c10 as f64 / qd4_c3 as f64;
    assert!(ratio < 1.3, "QD4 traffic should not grow with C, got {ratio}");
}

#[test]
fn vertical_comm_scales_with_instances() {
    // §3.1.3: the bitmap broadcast is ⌈N/8⌉ per layer — QD4's traffic grows
    // with N while QD2's histogram traffic does not.
    let cluster = Cluster::new(2);
    let cfg = config(2, 6);
    let small = dataset(1_000, 300, 2, 41);
    let large = dataset(4_000, 300, 2, 41);
    let qd4_small = train_bytes(&qd4::train(&cluster, &small, &cfg));
    let qd4_large = train_bytes(&qd4::train(&cluster, &large, &cfg));
    assert!(
        qd4_large > qd4_small,
        "QD4 traffic should grow with N: {qd4_small} -> {qd4_large}"
    );
    let qd2_small = train_bytes(&qd2::train(&cluster, &small, &cfg, Aggregation::AllReduce));
    let qd2_large = train_bytes(&qd2::train(&cluster, &large, &cfg, Aggregation::AllReduce));
    let ratio = qd2_large as f64 / qd2_small as f64;
    assert!(ratio < 1.5, "QD2 traffic should be ~flat in N, got {ratio}");
}

#[test]
fn horizontal_comm_grows_superlinearly_with_depth() {
    // §3.1.3: per-tree aggregation traffic ∝ (2^{L-1} − 1): depth 6 -> 8
    // should roughly quadruple QD2's bytes while QD4's grow linearly (L
    // bitmap rounds). Depths are kept low enough that the 3 000-instance
    // tree does not saturate (run out of splittable nodes) before the
    // deeper layers, which would flatten the ratio.
    let cluster = Cluster::new(2);
    let ds = dataset(3_000, 200, 2, 43);
    let qd2_l6 = train_bytes(&qd2::train(&cluster, &ds, &config(2, 6), Aggregation::AllReduce));
    let qd2_l8 = train_bytes(&qd2::train(&cluster, &ds, &config(2, 8), Aggregation::AllReduce));
    let qd2_ratio = qd2_l8 as f64 / qd2_l6 as f64;
    let qd4_l6 = train_bytes(&qd4::train(&cluster, &ds, &config(2, 6)));
    let qd4_l8 = train_bytes(&qd4::train(&cluster, &ds, &config(2, 8)));
    let qd4_ratio = qd4_l8 as f64 / qd4_l6 as f64;
    assert!(
        qd2_ratio > qd4_ratio,
        "depth should hurt QD2 more: qd2 x{qd2_ratio:.2} vs qd4 x{qd4_ratio:.2}"
    );
    assert!(qd2_ratio > 2.0, "QD2 bytes should grow superlinearly in depth, got x{qd2_ratio:.2}");
    assert!(qd4_ratio < 1.6, "QD4 bytes should grow ~linearly in depth, got x{qd4_ratio:.2}");
}

#[test]
fn vertical_histogram_memory_divides_by_workers() {
    // §3.1.2: QD2 holds Sizehist × 2^{L-2} per worker; QD4 holds ~1/W of it.
    let ds = dataset(2_000, 600, 2, 47);
    let cfg = config(2, 7);
    let cluster = Cluster::new(4);
    let h2 = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce)
        .stats
        .max_histogram_bytes();
    let h4 = qd4::train(&cluster, &ds, &cfg).stats.max_histogram_bytes();
    let ratio = h2 as f64 / h4 as f64;
    // Expect ~W (4), allow slack for uneven greedy grouping.
    assert!(
        ratio > 2.5,
        "QD2 histogram memory should be ~W x QD4's, got {h2} vs {h4} (x{ratio:.2})"
    );
}

#[test]
fn bitmap_wire_size_matches_ceil_n_over_8() {
    // §3.1.3: dN/8e bytes per placement bitmap, plus the 8-byte header.
    use gbdt_partition::PlacementBitmap;
    for n in [1usize, 8, 9, 1000, 4096] {
        let bm = PlacementBitmap::new(n);
        assert_eq!(bm.encode_bytes().len(), 8 + n.div_ceil(8), "n={n}");
    }
}

#[test]
fn sizehist_formula_drives_qd2_traffic() {
    // Bytes per aggregated node ≈ 2 × Sizehist × (W-1)/W per worker for the
    // ring; verify the order of magnitude on the root histogram.
    use gbdt_core::histogram::histogram_size_bytes;
    let d = 400;
    let ds = dataset(1_500, d, 2, 53);
    let cfg = TrainConfig::builder().n_trees(1).n_layers(2).build().unwrap();
    let cluster = Cluster::new(2);
    let result = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce);
    let bytes = result.stats.total_bytes_sent();
    let sizehist = histogram_size_bytes(d, 20, 1) as u64;
    // One tree, one histogram round (root) + sketch setup + counts: traffic
    // must be within a small factor of 2 workers x 2 x Sizehist.
    assert!(
        bytes > sizehist && bytes < 20 * sizehist,
        "bytes {bytes} vs Sizehist {sizehist}"
    );
}
