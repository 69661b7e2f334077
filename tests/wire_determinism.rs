//! Wire-codec determinism and compression guarantees (DESIGN.md §4.7).
//!
//! The lossless grid codec re-encodes the exact f64 payload, and the
//! decode-merge runs in the same rank/segment order whatever the codec, so
//! the trained ensemble must be bit-identical to the one a single worker
//! grows without sending a byte. On sparse data it must also cut
//! histogram-aggregation wire bytes at least 2x below the raw f64 layout —
//! that is the whole point of the layer.

use gbdt_cluster::Cluster;
use gbdt_core::{GbdtModel, Objective, TrainConfig, WireCodec};
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::Dataset;
use gbdt_quadrants::{qd1, qd2, qd4, Aggregation};

fn config(classes: usize, wire: WireCodec) -> TrainConfig {
    let objective =
        if classes > 2 { Objective::Softmax { n_classes: classes } } else { Objective::Logistic };
    TrainConfig::builder()
        .n_trees(2)
        .n_layers(5)
        .objective(objective)
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

/// The lossless codec, on both horizontal trainers at W = 3, grows the
/// ensemble QD1 grows at W = 1, where nothing crosses the wire. (The name is
/// older than the one-thread-per-worker rule: the threads are the W = 3
/// worker threads the codec crosses between.)
#[test]
fn lossless_codecs_are_bit_identical_across_threads() {
    let ds = sparse_dataset(4001);
    let cfg = config(2, WireCodec::Grid);
    let alone = qd1::train(&Cluster::new(1), &ds, &cfg);
    assert_eq!(alone.stats.total_bytes_sent(), 0, "one worker sends nothing");
    let cluster = Cluster::new(3);
    let q1 = qd1::train(&cluster, &ds, &cfg).model;
    let q2 = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce).model;
    assert_eq!(alone.model, q1, "qd1 wire=grid");
    assert_eq!(alone.model, q2, "qd2 wire=grid");
}

#[test]
fn default_codec_compresses_sparse_aggregation_at_least_2x() {
    let ds = sparse_dataset(4003);
    let cfg = TrainConfig::default();
    assert_eq!(cfg.wire, WireCodec::Grid, "the default codec is the lossless grid");
    let cfg = config(2, cfg.wire);
    let alone = qd2::train(&Cluster::new(1), &ds, &cfg, Aggregation::AllReduce);
    let grid = qd2::train(&Cluster::new(2), &ds, &cfg, Aggregation::AllReduce);

    // Bit-identical ensemble to the run that sends nothing.
    assert_eq!(alone.model, grid.model, "grid must stay lossless");

    // The acceptance bar: >= 2x fewer wire bytes than raw f64s (the
    // logical bytes) on nnz <= 10% data.
    let ratio =
        grid.stats.total_logical_f64_bytes() as f64 / grid.stats.total_wire_f64_bytes() as f64;
    assert!(
        ratio >= 2.0,
        "grid codec only compressed {ratio:.2}x ({} -> {} bytes)",
        grid.stats.total_logical_f64_bytes(),
        grid.stats.total_wire_f64_bytes()
    );
    assert!(grid.stats.wire_compression() >= 2.0);

    // Per-layer accounting: deeper layers are sparser, so compression at the
    // deepest recorded layer must beat the root layer.
    let layers = grid.stats.layer_wire_bytes();
    assert!(layers.len() >= 2, "expected per-layer byte records, got {layers:?}");
    let ratio_of = |(logical, wire): (u64, u64)| logical as f64 / wire.max(1) as f64;
    assert!(
        ratio_of(layers[layers.len() - 1]) > ratio_of(layers[0]),
        "deep layers should compress better than the root: {layers:?}"
    );
    // Layer records cover only histogram traffic, never more than the total.
    let layer_logical: u64 = layers.iter().map(|&(l, _)| l).sum();
    assert!(layer_logical <= grid.stats.total_logical_f64_bytes());
}

#[test]
fn f32_codec_is_rank_consistent_and_cheaper() {
    // Lossy mode: no bit-identity promise vs dense, but the run must be
    // deterministic and ship under half the raw f64 bytes.
    let ds = sparse_dataset(4007);
    let cluster = Cluster::new(3);
    let cfg = config(2, WireCodec::F32);
    let a = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce);
    let b = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce);
    assert_eq!(a.model, b.model, "f32 codec must still be run-to-run deterministic");

    assert!(
        a.stats.total_wire_f64_bytes() < a.stats.total_logical_f64_bytes() / 2,
        "f32 + sparsity should beat half of raw f64s: {} vs {}",
        a.stats.total_wire_f64_bytes(),
        a.stats.total_logical_f64_bytes()
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
        let r = qd4::train(&cluster, &ds, &config(2, codec));
        assert_eq!(r.stats.total_wire_f64_bytes(), 0, "qd4 has no histogram wire traffic");
        models.push((codec, r.model));
    }
    for (codec, model) in &models[1..] {
        assert_eq!(&models[0].1, model, "qd4 wire={codec} diverged");
    }
}
