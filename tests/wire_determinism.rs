//! Wire-codec determinism and compression guarantees (DESIGN.md §4.7).
//!
//! The lossless codecs (`dense`, `auto`) re-encode the exact f64
//! payload, and the decode-merge runs in the same rank/segment order as the
//! dense path, so the trained ensemble must be bit-identical under every
//! lossless codec and every thread count. On sparse data the adaptive codec
//! must also cut histogram-aggregation wire bytes at least 2x — that is the
//! whole point of the layer.

use gbdt_cluster::Cluster;
use gbdt_core::{GbdtModel, Objective, TrainConfig, WireCodec};
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::Dataset;
use gbdt_quadrants::{qd1, qd2, qd4, Aggregation};

fn config(classes: usize, threads: usize, wire: WireCodec) -> TrainConfig {
    let objective =
        if classes > 2 { Objective::Softmax { n_classes: classes } } else { Objective::Logistic };
    TrainConfig::builder()
        .n_trees(2)
        .n_layers(5)
        .objective(objective)
        .threads(threads)
        .wire(wire)
        .build()
        .unwrap()
}

/// Wide and sparse: instances-per-node shrink 2^layer, so below the root
/// most feature bins are empty and the sparse layout wins decisively.
fn sparse_dataset(seed: u64) -> Dataset {
    SyntheticConfig {
        n_instances: 1_500,
        n_features: 300,
        n_classes: 2,
        density: 0.05,
        label_noise: 0.02,
        seed,
        ..Default::default()
    }
    .generate()
}

#[test]
fn lossless_codecs_are_bit_identical_across_threads() {
    let ds = sparse_dataset(4001);
    let cluster = Cluster::new(3);
    let reference = qd1::train(&cluster, &ds, &config(2, 1, WireCodec::Dense)).model;
    for codec in [WireCodec::Dense, WireCodec::Auto] {
        for threads in [1, 4] {
            let cfg = config(2, threads, codec);
            let q1 = qd1::train(&cluster, &ds, &cfg).model;
            let q2 = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce).model;
            assert_eq!(reference, q1, "qd1 wire={codec} threads={threads}");
            assert_eq!(reference, q2, "qd2 wire={codec} threads={threads}");
        }
    }
}

#[test]
fn auto_codec_compresses_sparse_aggregation_at_least_2x() {
    let ds = sparse_dataset(4003);
    let cluster = Cluster::new(2);
    let dense = qd2::train(&cluster, &ds, &config(2, 1, WireCodec::Dense), Aggregation::AllReduce);
    let auto = qd2::train(&cluster, &ds, &config(2, 1, WireCodec::Auto), Aggregation::AllReduce);

    // Same logical traffic, bit-identical ensemble.
    assert_eq!(dense.model, auto.model, "auto must stay lossless");
    assert_eq!(
        dense.stats.total_logical_f64_bytes(),
        auto.stats.total_logical_f64_bytes(),
        "codec must not change what is logically aggregated"
    );
    // Dense ships every f64 as-is.
    assert_eq!(dense.stats.total_logical_f64_bytes(), dense.stats.total_wire_f64_bytes());

    // The acceptance bar: >= 2x fewer wire bytes on nnz <= 10% data.
    let ratio = dense.stats.total_wire_f64_bytes() as f64 / auto.stats.total_wire_f64_bytes() as f64;
    assert!(
        ratio >= 2.0,
        "auto codec only compressed {ratio:.2}x ({} -> {} bytes)",
        dense.stats.total_wire_f64_bytes(),
        auto.stats.total_wire_f64_bytes()
    );
    assert!(auto.stats.wire_compression() >= 2.0);

    // Per-layer accounting: deeper layers are sparser, so compression at the
    // deepest recorded layer must beat the root layer.
    let layers = auto.stats.layer_wire_bytes();
    assert!(layers.len() >= 2, "expected per-layer byte records, got {layers:?}");
    let ratio_of = |(logical, wire): (u64, u64)| logical as f64 / wire.max(1) as f64;
    assert!(
        ratio_of(layers[layers.len() - 1]) > ratio_of(layers[0]),
        "deep layers should compress better than the root: {layers:?}"
    );
    // Layer records cover only histogram traffic, never more than the total.
    let layer_logical: u64 = layers.iter().map(|&(l, _)| l).sum();
    assert!(layer_logical <= auto.stats.total_logical_f64_bytes());
}

#[test]
fn f32_codec_is_rank_consistent_and_cheaper() {
    // Lossy mode: no bit-identity promise vs dense, but the run must be
    // deterministic and strictly cheaper on the wire.
    let ds = sparse_dataset(4007);
    let cluster = Cluster::new(3);
    let cfg = config(2, 1, WireCodec::F32);
    let a = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce);
    let b = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce);
    assert_eq!(a.model, b.model, "f32 codec must still be run-to-run deterministic");

    let dense = qd2::train(&cluster, &ds, &config(2, 1, WireCodec::Dense), Aggregation::AllReduce);
    assert!(
        a.stats.total_wire_f64_bytes() < dense.stats.total_wire_f64_bytes() / 2,
        "f32 + sparsity should beat half of dense: {} vs {}",
        a.stats.total_wire_f64_bytes(),
        dense.stats.total_wire_f64_bytes()
    );
}

#[test]
fn vertical_trainers_are_codec_invariant() {
    // QD3/QD4/Yggdrasil/featpar exchange split choices and instance
    // bitsets, never histograms — there is nothing for the codec to encode,
    // so even the lossy f32 mode trains the identical ensemble.
    let ds = sparse_dataset(4013);
    let cluster = Cluster::new(2);
    let mut models: Vec<(WireCodec, GbdtModel)> = Vec::new();
    for codec in WireCodec::ALL {
        let r = qd4::train(&cluster, &ds, &config(2, 1, codec));
        assert_eq!(r.stats.total_wire_f64_bytes(), 0, "qd4 has no histogram wire traffic");
        models.push((codec, r.model));
    }
    for (codec, model) in &models[1..] {
        assert_eq!(&models[0].1, model, "qd4 wire={codec} diverged");
    }
}
