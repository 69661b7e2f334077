//! Per-layer timed probes of the traced run: the benchmark times one call
//! into a layer's public function on the workload's own data, from outside
//! the program. Each probe names the end-to-end metric it should move in
//! the registry.

use crate::measure::{median, median_call_s, timed};
use crate::serve::{request_rows, ServeShape, ServeState};
use crate::trace::Tracer;
use crate::train::{TrainState, WORKERS};
use crate::Outcome;
use gbdt_cluster::collectives::segment_bounds;
use gbdt_cluster::{wire, Cluster, NetworkCostModel};
use gbdt_core::histogram::NodeHistogram;
use gbdt_core::indexes::{InstanceToNodeIndex, NodeToInstanceIndex};
use gbdt_core::kernels::{fill_column_slice, fill_rows_chunk, lookup};
use gbdt_core::split::best_split;
use gbdt_core::{BinCuts, GbdtModel, GradBuffer, NodeKind, NodeStats, QuantileSketch, SplitParams};
use gbdt_partition::balance::imbalance;
use gbdt_partition::transform::{horizontal_to_vertical, TransformConfig};
use gbdt_partition::{HorizontalPartition, PlacementBitmap};
use gbdt_quadrants::common::shard_dataset;
use gbdt_serve::server::ModelSlot;
use gbdt_serve::wire::{PredictRequest, PredictResponse, ReplyStatus};
use std::hint::black_box;

/// Wall time a repeated probe collects at least, seconds.
const PROBE_S: f64 = 0.2;
/// Calls per collective inside the 2-rank mesh.
const COLLECTIVE_REPS: usize = 9;

/// Times the training-side layers on the workload's training set.
/// `model` is an ensemble a timed pass grew on it.
pub fn train_probes(state: &TrainState, model: &GbdtModel, tr: &mut Tracer, out: &mut Outcome) {
    let cfg = &state.config;
    let train = &state.train;
    let (n, d, q, c) = (
        train.n_instances(),
        train.n_features(),
        cfg.n_bins,
        cfg.n_outputs(),
    );

    // core: sketching and binning, as every trainer does them before tree 1.
    let (cuts, sketch_s) = tr.span("core.sketch", |_| {
        timed(|| {
            let sketches = BinCuts::sketch_dataset(train, QuantileSketch::DEFAULT_CAP);
            BinCuts::from_sketches(&sketches, q)
        })
    });
    out.layer("core.sketch_s", sketch_s);
    let (store, bin_s) = tr.span("core.bin_apply", |_| {
        timed(|| cuts.apply_store(train, cfg.storage))
    });
    out.layer("core.bin_apply_s", bin_s);
    out.layer("data.store_mb", store.heap_bytes() as f64 / 1e6);

    // core: gradients of the initial scores.
    let init = model.init_scores.clone();
    let scores: Vec<f64> = init.iter().copied().cycle().take(n * c).collect();
    let mut grads = GradBuffer::new(n, c);
    let gradients_s = tr.span("core.gradients", |_| {
        median_call_s(PROBE_S, || {
            cfg.objective
                .compute_gradients(&scores, &train.labels, &mut grads)
        })
    });
    out.layer("core.gradients_s", gradients_s);

    // core: the root histogram over every row, by row scan and by column scan.
    let all: Vec<u32> = (0..n as u32).collect();
    let mut hist = NodeHistogram::new(d, q, c);
    fill_rows_chunk(&mut hist, &all, &store, &grads, cfg.kernel);
    let root = hist.clone();
    let cells = store.nnz().max(1) as f64;
    let fill_s = tr.span("core.hist_fill", |_| {
        median_call_s(PROBE_S, || {
            fill_rows_chunk(&mut hist, &all, &store, &grads, cfg.kernel)
        })
    });
    out.layer("core.hist_fill_ns_per_cell", fill_s * 1e9 / cells);
    let columns = store.to_columns();
    let stride = hist.feature_stride();
    let col_s = tr.span("core.hist_fill_col", |_| {
        median_call_s(PROBE_S, || {
            for (col, slice) in hist.as_mut_slice().chunks_mut(stride).enumerate() {
                fill_column_slice(slice, c, &columns, col, &grads, cfg.kernel);
            }
        })
    });
    out.layer("core.hist_fill_col_ns_per_cell", col_s * 1e9 / cells);
    drop(columns);
    let subtract_s = tr.span("core.hist_subtract", |_| {
        median_call_s(PROBE_S, || hist.subtract_from(&root))
    });
    out.layer("core.hist_subtract_s", subtract_s);

    // core: split finding over the full D·q·C histogram of the root.
    let mut node = NodeStats::zero(c);
    grads.sum_instances(&all, &mut node.grads, &mut node.hesses);
    let params = SplitParams::from_config(cfg);
    let split_s = tr.span("core.split_find", |_| {
        median_call_s(PROBE_S, || {
            best_split(&root, &node, &params, |f| cuts.n_bins(f), |f| f)
        })
    });
    out.layer(
        "core.split_find_ns_per_bin",
        split_s * 1e9 / (d * q * c) as f64,
    );

    // core: the root split of both indexes, on the ensemble's first split.
    let (feature, bin, default_left) = match model.trees.first().and_then(|t| t.node(0)) {
        Some(node) => match node.kind {
            NodeKind::Internal {
                feature,
                bin,
                default_left,
                ..
            } => (feature, bin, default_left),
            NodeKind::Leaf { .. } => (0, (q / 2) as u16, true),
        },
        None => (0, (q / 2) as u16, true),
    };
    let goes_left = |i: u32| match lookup(&store, i as usize, feature) {
        Some(b) => b <= bin,
        None => default_left,
    };
    let mut by_node = NodeToInstanceIndex::new(n);
    let mut by_instance = InstanceToNodeIndex::new(n);
    let index_s = tr.span("core.index_split", |_| {
        median_call_s(PROBE_S, || {
            by_node.reset();
            by_instance.reset();
            (by_node.split(0, goes_left), by_instance.split(0, goes_left))
        })
    });
    out.layer("core.index_split_s", index_s);

    // core: byte codecs of a histogram and of the ensemble.
    let hist_codec_s = tr.span("core.hist_codec", |_| {
        median_call_s(PROBE_S, || {
            NodeHistogram::decode_bytes(&root.encode_bytes())
        })
    });
    out.layer("core.hist_codec_s", hist_codec_s);
    out.layer("core.model_codec_s", model_codec_s(model, tr));

    // partition: the horizontal-to-vertical transformation between two
    // workers, and the placement bitmap a vertical split broadcasts.
    let partition = HorizontalPartition::new(n, WORKERS);
    let shards: Vec<_> = (0..WORKERS)
        .map(|w| shard_dataset(train, partition, w))
        .collect();
    let transform_cfg = TransformConfig {
        n_bins: q,
        ..TransformConfig::default()
    };
    let ((outputs, _), transform_s) = tr.span("partition.transform", |_| {
        timed(|| {
            Cluster::new(WORKERS).run(|ctx| {
                let rank = ctx.rank();
                let output = horizontal_to_vertical(ctx, &shards[rank], partition, &transform_cfg)
                    .expect("fault-free transformation");
                (
                    output.report.repartition_bytes_sent,
                    output.grouping,
                    output.feature_counts,
                )
            })
        })
    });
    drop(shards);
    out.layer("partition.transform_s", transform_s);
    out.layer(
        "partition.transform_mb",
        outputs.iter().map(|o| o.0).sum::<u64>() as f64 / 1e6,
    );
    let (_, grouping, counts) = &outputs[0];
    let loads: Vec<u64> = (0..WORKERS)
        .map(|w| {
            grouping
                .group_features(w)
                .iter()
                .map(|&f| counts[f as usize])
                .sum()
        })
        .collect();
    out.layer("partition.group_imbalance", imbalance(&loads));
    let bitmap = PlacementBitmap::from_predicate(n, |i| goes_left(i as u32));
    let bitmap_s = tr.span("partition.bitmap_codec", |_| {
        median_call_s(PROBE_S, || {
            PlacementBitmap::decode_bytes(&bitmap.encode_bytes())
        })
    });
    out.layer("partition.bitmap_codec_s", bitmap_s);

    // cluster: one histogram-sized buffer through each aggregation path of
    // a 2-rank mesh (the link model is free: this times the fabric and the
    // codecs, not the modelled network), and the wire codec alone.
    let buf = root.as_slice();
    let encode_s = tr.span("cluster.wire_encode", |_| {
        median_call_s(PROBE_S, || wire::encode(cfg.wire, buf))
    });
    out.layer("cluster.wire_encode_s", encode_s);
    let encoded = wire::encode(cfg.wire, buf);
    let mut sink = vec![0.0; buf.len()];
    let decode_s = tr.span("cluster.wire_decode", |_| {
        median_call_s(PROBE_S, || wire::decode_add(&encoded, &mut sink))
    });
    out.layer("cluster.wire_decode_s", decode_s);
    let ranges: Vec<(usize, usize)> = (0..WORKERS)
        .map(|w| {
            let (lo, hi) = segment_bounds(d, WORKERS, w);
            (lo * stride, hi * stride)
        })
        .collect();
    let mesh = Cluster::with_cost(WORKERS, NetworkCostModel::infinite());
    let (per_rank, _) = tr.span("cluster.collectives", |_| {
        mesh.run(|ctx| {
            let comm = &ctx.comm;
            // Both ranks must make the same calls: a fixed count inside the
            // mesh, never a time budget. A barrier lines the ranks up first.
            let time = |op: &mut dyn FnMut()| -> f64 {
                let samples: Vec<f64> = (0..COLLECTIVE_REPS)
                    .map(|_| {
                        comm.barrier().expect("fault-free barrier");
                        timed(&mut *op).1
                    })
                    .collect();
                median(&samples)
            };
            let mut local = buf.to_vec();
            [
                time(&mut || {
                    comm.all_reduce_f64_codec(cfg.wire, &mut local)
                        .expect("fault-free all-reduce")
                }),
                time(&mut || {
                    comm.reduce_scatter_f64_codec(cfg.wire, &mut local)
                        .expect("fault-free reduce-scatter");
                }),
                time(&mut || {
                    black_box(
                        comm.ps_push_and_reduce_codec(cfg.wire, &local, &ranges)
                            .expect("fault-free push"),
                    );
                }),
                time(&mut || {
                    comm.broadcast_f64(0, &mut local)
                        .expect("fault-free broadcast")
                }),
            ]
        })
    });
    // A collective ends when its slowest rank does.
    let names = [
        "cluster.allreduce_s",
        "cluster.reduce_scatter_s",
        "cluster.ps_push_s",
        "cluster.broadcast_s",
    ];
    for (k, name) in names.iter().enumerate() {
        out.layer(*name, per_rank.iter().map(|r| r[k]).fold(0.0, f64::max));
    }
}

/// Times `encode_bytes` + `decode_bytes` of an ensemble.
fn model_codec_s(model: &GbdtModel, tr: &mut Tracer) -> f64 {
    tr.span("core.model_codec", |_| {
        median_call_s(PROBE_S, || GbdtModel::decode_bytes(&model.encode_bytes()))
    })
}

/// Times the serving-side layers on one batch of the workload's shape, and
/// checks the executor against the reference walk bit for bit.
pub fn serve_probes(
    shape: &ServeShape,
    state: &ServeState,
    seed: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let model = &state.models[0];
    let ens = &state.compiled;
    let rows = request_rows(seed, shape.batch, shape.features);
    let row_trees = (shape.batch * shape.trees) as f64;

    // serve.exec: the workload's executor on one batch.
    let executor = shape.strategy.executor();
    let mut scores = vec![0.0f64; shape.batch];
    let exec_s = tr.span("serve.exec.predict_into", |_| {
        median_call_s(PROBE_S, || executor.predict_into(ens, &rows, &mut scores))
    });
    out.layer("serve.exec.ns_per_row_tree", exec_s * 1e9 / row_trees);

    // core: the reference walk over the same batch (sparse form built
    // outside the clock).
    let sparse: Vec<(Vec<u32>, Vec<f32>)> = rows
        .chunks_exact(shape.features)
        .map(|row| {
            row.iter()
                .enumerate()
                .filter(|(_, v)| !v.is_nan())
                .map(|(f, &v)| (f as u32, v))
                .unzip()
        })
        .collect();
    let mut walked = vec![0.0f64; shape.batch];
    let walk_s = tr.span("core.model.predict_row_into", |_| {
        median_call_s(PROBE_S, || {
            for ((feats, vals), slot) in sparse.iter().zip(walked.chunks_mut(1)) {
                model.predict_row_into(feats, vals, slot);
            }
        })
    });
    out.layer("serve.exec.walk_ns_per_row_tree", walk_s * 1e9 / row_trees);
    if scores
        .iter()
        .zip(&walked)
        .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        out.problems
            .push("executor scores differ from the reference walk".into());
    }

    // serve.wire: one request and one response frame, encode + decode.
    let request = PredictRequest {
        req_id: 1,
        n_features: shape.features as u32,
        max_trees: 0,
        rows,
    };
    let request_s = tr.span("serve.wire.request_codec", |_| {
        median_call_s(PROBE_S, || PredictRequest::decode(&request.encode()))
    });
    out.layer("serve.wire.request_codec_us", request_s * 1e6);
    let response = PredictResponse {
        req_id: 1,
        version: 1,
        status: ReplyStatus::Ok,
        trees_scored: 0,
        n_outputs: 1,
        scores,
    };
    let response_s = tr.span("serve.wire.response_codec", |_| {
        median_call_s(PROBE_S, || PredictResponse::decode(&response.encode()))
    });
    out.layer("serve.wire.response_codec_us", response_s * 1e6);

    // serve.server: a hot swap (compile + atomic publish) of the ensemble.
    let slot = ModelSlot::new(model).expect("generated ensembles compile");
    let publish_s = tr.span("serve.server.publish", |_| {
        median_call_s(PROBE_S, || slot.publish(model).expect("publish succeeds"))
    });
    out.layer("serve.server.publish_ms", publish_s * 1e3);
    out.layer("core.model_codec_s", model_codec_s(model, tr));

    // What a request spends outside scoring and its frames' codecs: hops,
    // queues and thread hand-offs of the serving plane.
    let p50_ms = out.recorded("serve.client.p50_ms");
    // Each frame is encoded and decoded twice: client–router, router–replica.
    let accounted_ms = exec_s * 1e3 + 2.0 * (request_s + response_s) * 1e3;
    out.layer("serve.exec.share_of_p50", exec_s * 1e3 / p50_ms);
    out.layer("serve.router.plane_overhead_ms", p50_ms - accounted_ms);
    black_box(&walked);
}
