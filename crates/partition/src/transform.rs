//! The five-step horizontal-to-vertical transformation (§4.2.1, Figure 8).
//!
//! Datasets arrive horizontally partitioned (one row shard per worker, as
//! from HDFS); vertical trainers need each worker to hold *all* rows of a
//! feature subset. The transformation:
//!
//! 1. **Build quantile sketches** — each worker sketches every feature of
//!    its shard, then sketches are repartitioned by feature and merged into
//!    global per-feature sketches.
//! 2. **Generate candidate splits** — each sketch owner proposes `q` splits;
//!    the master collects and broadcasts the full [`BinCuts`].
//! 3. **Column grouping** — the master assigns features to workers
//!    (greedy-balanced by key-value counts from the sketches, §4.2.3) and
//!    broadcasts the assignment; each worker re-encodes its shard as W
//!    partial column groups with group-local feature ids and bin indexes.
//! 4. **Repartition column groups** — partial groups are exchanged so each
//!    worker holds all rows of its group. The received slices are decoded in
//!    file-split order straight into one [`BinnedRows`] — one block per
//!    worker where the paper's Figure 9 merges down to ≤ 5 and indexes them
//!    in two phases — each payload dropped once decoded.
//! 5. **Broadcast instance labels** — the master collects every shard's
//!    labels and broadcasts the full vector.
//!
//! Step 4's wire format is selectable ([`WireEncoding`]) to reproduce the
//! Table 5 ablation: naïve 12-byte pairs, compressed pairs (still framed
//! per row), or the blockified flat-array format.

use crate::horizontal::HorizontalPartition;
use crate::vertical::{ColumnGrouping, GroupingStrategy};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gbdt_cluster::comm::protocol::REPARTITION_A2A_TAG;
use gbdt_cluster::{CommError, Phase, WorkerCtx};
use gbdt_core::{BinCuts, QuantileSketch};
use gbdt_data::block::{Assembly, Block, SliceError};
use gbdt_data::dataset::Dataset;
use gbdt_data::encoding;
use gbdt_data::{BinId, BinnedRows, DataError, FeatureId};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Wire format of the step-4 repartition (the Table 5 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireEncoding {
    /// Original 〈u32 feature, f64 value〉 pairs, framed per row.
    Naive,
    /// Compact 〈⌈log p⌉-byte local feature, ⌈log q⌉-byte bin〉 pairs, still
    /// framed per row (compression without blockify).
    Compressed,
    /// Compressed pairs as three flat arrays with one header (Vero).
    Blockified,
}

/// Transformation parameters.
#[derive(Debug, Clone)]
pub struct TransformConfig {
    /// q — candidate splits per feature (vertical trainers use their own).
    pub n_bins: usize,
    /// Quantile sketch per-level capacity.
    pub sketch_capacity: usize,
    /// Column grouping strategy (Vero: greedy balanced).
    pub strategy: GroupingStrategy,
    /// Step-4 wire format.
    pub encoding: WireEncoding,
}

impl Default for TransformConfig {
    fn default() -> Self {
        TransformConfig {
            n_bins: 20,
            sketch_capacity: QuantileSketch::DEFAULT_CAP,
            strategy: GroupingStrategy::GreedyBalanced,
            encoding: WireEncoding::Blockified,
        }
    }
}

/// Timing/traffic breakdown of one transformation (Appendix A, Table 5).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TransformReport {
    /// Steps 1–2: sketching, merge, candidate split generation (comp s).
    pub sketch_seconds: f64,
    /// Steps 3–4: grouping, encode, exchange, decode (comp s).
    pub repartition_seconds: f64,
    /// Step 5: label gather + broadcast (comp s).
    pub label_seconds: f64,
    /// Modelled communication seconds across all steps.
    pub comm_seconds: f64,
    /// Bytes this worker sent during the step-4 exchange.
    pub repartition_bytes_sent: u64,
}

/// Result of the transformation on one worker.
#[derive(Debug)]
pub struct TransformOutput {
    /// Global candidate splits for every feature.
    pub cuts: BinCuts,
    /// The feature → group assignment.
    pub grouping: ColumnGrouping,
    /// All N rows of this worker's column group (group-local feature ids).
    pub local_data: BinnedRows,
    /// All N instance labels.
    pub labels: Vec<f32>,
    /// Per-feature key-value counts (from the global sketches).
    pub feature_counts: Vec<u64>,
    /// Timing and traffic breakdown.
    pub report: TransformReport,
}

/// Steps 1–2: global candidate splits + per-feature counts.
///
/// Also used alone by the horizontal trainers (QD1/QD2), which need global
/// cuts so locally built histograms are aggregatable.
pub fn build_global_cuts(
    ctx: &mut WorkerCtx,
    shard: &Dataset,
    n_bins: usize,
    sketch_capacity: usize,
) -> Result<(BinCuts, Vec<u64>), CommError> {
    let w = ctx.world();
    let rank = ctx.rank();
    let d = shard.n_features();

    // Local sketches over this shard.
    let local = ctx.time(Phase::Sketch, || BinCuts::sketch_dataset(shard, sketch_capacity));

    // Repartition: feature f's sketches merge on worker f mod W.
    let payloads = ctx.time(Phase::Sketch, || encode_sketch_batches(&local, rank, w));
    let mut merged: Vec<QuantileSketch> = local;
    let incoming = all_to_all(ctx, payloads)?;
    ctx.time(Phase::Sketch, || {
        incoming
            .into_iter()
            .enumerate()
            .try_for_each(|(from, batch)| merge_sketch_batch(&mut merged, batch, rank, w, from))
    })?;

    // Owned features: cuts + counts, gathered at master.
    let partial = ctx.time(Phase::Sketch, || encode_cut_part(&merged, rank, w, n_bins));
    let gathered = ctx.comm.gather(0, partial)?;
    let full = if let Some(parts) = gathered {
        let (cut_values, counts) = decode_cut_parts(parts, d, n_bins)?;
        encode_cuts_and_counts(&BinCuts::from_cut_values(cut_values), &counts)
    } else {
        Bytes::new()
    };
    decode_cuts_and_counts(ctx.comm.broadcast(0, full)?, d, n_bins)
}

/// One batch per destination of this worker's non-empty sketches: feature
/// `f`'s goes to worker `f mod W` as a 〈feature, length, sketch〉 record.
fn encode_sketch_batches(local: &[QuantileSketch], rank: usize, w: usize) -> Vec<Bytes> {
    let mut payloads: Vec<BytesMut> = (0..w).map(|_| BytesMut::new()).collect();
    for (f, sketch) in local.iter().enumerate() {
        let dest = f % w;
        if dest == rank || sketch.is_empty() {
            continue;
        }
        let bytes = sketch.encode_bytes();
        payloads[dest].put_u32(f as u32);
        payloads[dest].put_u32(bytes.len() as u32);
        payloads[dest].put_slice(&bytes);
    }
    payloads.into_iter().map(BytesMut::freeze).collect()
}

/// Merges one peer's batch of 〈feature, length, sketch〉 records into the
/// sketches of the features this worker merges (`f mod W = rank`).
/// Anything else, or a count that would overflow the merged count, is
/// [`CommError::Malformed`].
fn merge_sketch_batch(
    merged: &mut [QuantileSketch],
    mut batch: Bytes,
    rank: usize,
    w: usize,
    from: usize,
) -> Result<(), CommError> {
    let malformed = CommError::Malformed { from };
    while batch.has_remaining() {
        if batch.remaining() < 8 {
            return Err(malformed);
        }
        let f = batch.get_u32() as usize;
        let len = batch.get_u32() as usize;
        if f >= merged.len() || f % w != rank || batch.remaining() < len {
            return Err(malformed);
        }
        let Some(sketch) = QuantileSketch::decode_bytes(&batch.split_to(len)) else {
            return Err(malformed);
        };
        if merged[f].count().checked_add(sketch.count()).is_none() {
            return Err(malformed);
        }
        merged[f].merge(&sketch);
    }
    Ok(())
}

/// This worker's 〈feature, count, cuts〉 record for each feature it merged.
fn encode_cut_part(merged: &[QuantileSketch], rank: usize, w: usize, n_bins: usize) -> Bytes {
    let mut out = BytesMut::new();
    for f in (rank..merged.len()).step_by(w) {
        let cuts = merged[f].candidate_splits(n_bins);
        out.put_u32(f as u32);
        out.put_u64(merged[f].count());
        out.put_u16(cuts.len() as u16);
        for c in &cuts {
            out.put_f32(*c);
        }
    }
    out.freeze()
}

/// The master's decode of every worker's 〈feature, count, cuts〉 records:
/// worker `from` sends exactly its features `from, from + W, …` in order,
/// each with at most `n_bins` strictly ascending cuts. Anything else is
/// [`CommError::Malformed`].
fn decode_cut_parts(
    parts: Vec<Bytes>,
    d: usize,
    n_bins: usize,
) -> Result<(Vec<Vec<f32>>, Vec<u64>), CommError> {
    let w = parts.len();
    let mut cut_values: Vec<Vec<f32>> = vec![Vec::new(); d];
    let mut counts = vec![0u64; d];
    for (from, mut part) in parts.into_iter().enumerate() {
        let malformed = CommError::Malformed { from };
        for f in (from..d).step_by(w) {
            if part.remaining() < 14 || part.get_u32() as usize != f {
                return Err(malformed);
            }
            counts[f] = part.get_u64();
            let len = part.get_u16() as usize;
            if len > n_bins || part.remaining() < 4 * len {
                return Err(malformed);
            }
            let cuts: Vec<f32> = (0..len).map(|_| part.get_f32()).collect();
            if !cuts.windows(2).all(|pair| pair[0] < pair[1]) {
                return Err(malformed);
            }
            cut_values[f] = cuts;
        }
        if part.has_remaining() {
            return Err(malformed);
        }
    }
    Ok((cut_values, counts))
}

/// The global cuts, then one count per feature.
fn encode_cuts_and_counts(cuts: &BinCuts, counts: &[u64]) -> Bytes {
    let mut payload = BytesMut::new();
    let cut_bytes = cuts.encode_bytes();
    payload.put_u32(cut_bytes.len() as u32);
    payload.put_slice(&cut_bytes);
    for &c in counts {
        payload.put_u64(c);
    }
    payload.freeze()
}

/// The master's broadcast of the global cuts (at most `n_bins` per feature,
/// for all `d` features) followed by one count per feature. Anything else
/// is [`CommError::Malformed`].
fn decode_cuts_and_counts(
    mut full: Bytes,
    d: usize,
    n_bins: usize,
) -> Result<(BinCuts, Vec<u64>), CommError> {
    let malformed = CommError::Malformed { from: 0 };
    if full.remaining() < 4 {
        return Err(malformed);
    }
    let cut_len = full.get_u32() as usize;
    if full.remaining() != cut_len + 8 * d {
        return Err(malformed);
    }
    let cuts = BinCuts::decode_bytes(&full.split_to(cut_len))
        .filter(|cuts| cuts.n_features() == d && cuts.max_bins() <= n_bins)
        .ok_or(malformed)?;
    let counts = (0..d).map(|_| full.get_u64()).collect();
    Ok((cuts, counts))
}

/// All-to-all exchange: `payloads[w]` goes to worker `w`; returns the
/// payloads received from every worker (own payload included, rank order).
fn all_to_all(ctx: &mut WorkerCtx, payloads: Vec<Bytes>) -> Result<Vec<Bytes>, CommError> {
    assert_eq!(payloads.len(), ctx.world(), "one payload per destination");
    let rank = ctx.rank();
    let mut own = Bytes::new();
    for (dest, payload) in payloads.into_iter().enumerate() {
        if dest == rank {
            own = payload;
        } else {
            // Reuse the collective tag allocator by round-tripping through
            // all_gather-compatible point-to-point sends: one tag per
            // all-to-all, aligned across ranks because every rank calls this
            // in the same program order.
            ctx.comm.send(dest, REPARTITION_A2A_TAG, payload)?;
        }
    }
    let mut out = Vec::with_capacity(ctx.world());
    for from in 0..ctx.world() {
        if from == rank {
            out.push(own.clone());
        } else {
            out.push(ctx.comm.recv(from, REPARTITION_A2A_TAG)?);
        }
    }
    Ok(out)
}

/// Runs the full five-step transformation on this worker.
pub fn horizontal_to_vertical(
    ctx: &mut WorkerCtx,
    shard: &Dataset,
    partition: HorizontalPartition,
    cfg: &TransformConfig,
) -> Result<TransformOutput, CommError> {
    let w = ctx.world();
    let rank = ctx.rank();
    let d = shard.n_features();
    let q = cfg.n_bins;
    let (row_lo, row_hi) = partition.bounds(rank);
    assert_eq!(shard.n_instances(), row_hi - row_lo, "shard does not match partition");
    let mut report = TransformReport::default();
    let comm_before = ctx.comm.counters();

    // Steps 1-2.
    // lint: allow(wall-clock) — measures computation time for modelled stats only
    let t = Instant::now();
    let (cuts, feature_counts) = build_global_cuts(ctx, shard, q, cfg.sketch_capacity)?;
    report.sketch_seconds = t.elapsed().as_secs_f64();

    // Step 3: master decides the grouping, broadcasts the assignment.
    // lint: allow(wall-clock) — measures computation time for modelled stats only
    let t = Instant::now();
    let grouping_bytes = if rank == 0 {
        let g = ColumnGrouping::build(cfg.strategy, d, w, &feature_counts);
        Bytes::from(g.encode_bytes())
    } else {
        Bytes::new()
    };
    let grouping_bytes = ctx.comm.broadcast(0, grouping_bytes)?;
    let grouping = decode_grouping(&grouping_bytes, d, w)?;

    let bytes_before_exchange = ctx.comm.counters().bytes_sent;
    let to_send = encode_groups(shard, rank, row_lo, &cuts, &grouping, cfg);
    report.repartition_seconds += t.elapsed().as_secs_f64();
    ctx.stats.add_comp(Phase::Transform, t.elapsed().as_secs_f64());

    // Step 4: exchange, and decode every sender's slice into one row-store.
    let received = all_to_all(ctx, to_send)?;
    // lint: allow(wall-clock) — measures computation time for modelled stats only
    let t = Instant::now();
    let local_data = decode_group(received, rank, &partition, &cuts, &grouping, cfg)?;
    report.repartition_seconds += t.elapsed().as_secs_f64();
    ctx.stats.add_comp(Phase::Transform, t.elapsed().as_secs_f64());
    report.repartition_bytes_sent = ctx.comm.counters().bytes_sent - bytes_before_exchange;

    // Step 5: labels.
    // lint: allow(wall-clock) — measures computation time for modelled stats only
    let t = Instant::now();
    let label_payload = {
        let mut out = BytesMut::with_capacity(shard.labels.len() * 4);
        for &y in &shard.labels {
            out.put_f32(y);
        }
        out.freeze()
    };
    let gathered = ctx.comm.gather(0, label_payload)?;
    let all_labels = if let Some(parts) = gathered {
        let mut out = BytesMut::new();
        for part in parts {
            out.put_slice(&part);
        }
        out.freeze()
    } else {
        Bytes::new()
    };
    let mut all_labels = ctx.comm.broadcast(0, all_labels)?;
    if all_labels.len() != 4 * partition.n_instances() {
        return Err(CommError::Malformed { from: 0 });
    }
    let mut labels = Vec::with_capacity(partition.n_instances());
    while all_labels.has_remaining() {
        labels.push(all_labels.get_f32());
    }
    report.label_seconds = t.elapsed().as_secs_f64();
    ctx.stats.add_comp(Phase::Transform, t.elapsed().as_secs_f64());

    report.comm_seconds = ctx.comm.counters().comm_seconds - comm_before.comm_seconds;

    Ok(TransformOutput { cuts, grouping, local_data, labels, feature_counts, report })
}

/// Step 3's encode: this shard (rows `row_lo..`) as W partial column
/// groups, one payload per destination, streaming: a counting pass sizes
/// every destination's frame exactly, a binning pass writes each stored
/// value that has a bin straight into its destination's frame, and a frame
/// is freed as soon as it is encoded.
fn encode_groups(
    shard: &Dataset,
    rank: usize,
    row_lo: usize,
    cuts: &BinCuts,
    grouping: &ColumnGrouping,
    cfg: &TransformConfig,
) -> Vec<Bytes> {
    let (w, q) = (grouping.world(), cfg.n_bins);
    let n_local = shard.n_instances();
    let mut pair_counts = vec![0usize; w];
    shard.features.for_each_row(|_, feats, _| {
        for &f in feats {
            if cuts.n_bins(f) > 0 {
                pair_counts[grouping.group_of(f)] += 1;
            }
        }
    });
    // A frame is the block its destination will receive, before encoding.
    let mut frames: Vec<Block> = pair_counts
        .iter()
        .map(|&pairs| {
            let mut row_ptr = Vec::with_capacity(n_local + 1);
            row_ptr.push(0);
            Block {
                file_split_index: rank as u32,
                row_offset: row_lo as u32,
                feats: Vec::with_capacity(pairs),
                bins: Vec::with_capacity(pairs),
                row_ptr,
            }
        })
        .collect();
    shard.features.for_each_row(|_, feats, vals| {
        for (&f, &v) in feats.iter().zip(vals) {
            if let Some(b) = cuts.bin(f, v) {
                let frame = &mut frames[grouping.group_of(f)];
                frame.feats.push(grouping.local_id(f));
                frame.bins.push(b);
            }
        }
        for frame in &mut frames {
            frame.row_ptr.push(frame.feats.len() as u32);
        }
    });
    let mut to_send: Vec<Bytes> = Vec::with_capacity(w);
    for (dest, frame) in frames.into_iter().enumerate() {
        let p = grouping.group_len(dest);
        let payload = match cfg.encoding {
            WireEncoding::Blockified => encoding::encode_block(&frame, p, q),
            WireEncoding::Compressed => encode_rowframed_compressed(
                frame.file_split_index,
                frame.row_offset,
                &frame.feats,
                &frame.bins,
                &frame.row_ptr,
                p,
                q,
            ),
            WireEncoding::Naive => encode_rowframed_naive(
                frame.file_split_index,
                frame.row_offset,
                shard,
                grouping,
                dest,
                &frame.row_ptr,
            ),
        };
        to_send.push(payload);
    }
    to_send
}

/// Step 4's decode: every sender's slice of column group `rank`, in
/// file-split order, into one row-store over the partition's rows. A
/// payload that does not decode, or does not cover exactly its sender's
/// rows, is [`CommError::Malformed`] from its sender.
fn decode_group(
    received: Vec<Bytes>,
    rank: usize,
    partition: &HorizontalPartition,
    cuts: &BinCuts,
    grouping: &ColumnGrouping,
    cfg: &TransformConfig,
) -> Result<BinnedRows, CommError> {
    // Every payload opens with its file-split index, first row and row
    // count, which the partition fixes. Checked here, a slice of the wrong
    // length is blamed on its sender, not on the next slice it pushes out
    // of line.
    for (from, bytes) in received.iter().enumerate() {
        let (lo, hi) = partition.bounds(from);
        let header = bytes.get(..12).map(|mut h| [h.get_u32(), h.get_u32(), h.get_u32()]);
        if header != Some([from, lo, hi - lo].map(|v| v as u32)) {
            return Err(CommError::Malformed { from });
        }
    }
    let (n, p_local, q) = (partition.n_instances(), grouping.group_len(rank), cfg.n_bins);
    match cfg.encoding {
        WireEncoding::Blockified => {
            encoding::decode_blocks(received, n, p_local, q).map_err(malformed_slice)
        }
        WireEncoding::Compressed => {
            let pair_bytes = encoding::compressed_pair_bytes(p_local, q);
            decode_rowframed(received, p_local, n, pair_bytes, |row, rows| {
                for (f, b) in encoding::decode_compressed(row, p_local, q)? {
                    rows.push(f, b);
                }
                Ok(())
            })
        }
        WireEncoding::Naive => {
            decode_rowframed(received, p_local, n, encoding::NAIVE_PAIR_BYTES, |row, rows| {
                for (f, v) in encoding::decode_naive(row)? {
                    if f as usize >= grouping.n_features() || grouping.group_of(f) != rank {
                        return Err(DataError::Shape(format!("feature {f} is not in group {rank}")));
                    }
                    if let Some(b) = cuts.bin(f, v as f32) {
                        rows.push(grouping.local_id(f), b);
                    }
                }
                Ok(())
            })
        }
    }
}

/// The master's broadcast assignment of all `d` features to `w` groups;
/// anything else is [`CommError::Malformed`].
fn decode_grouping(payload: &[u8], d: usize, w: usize) -> Result<ColumnGrouping, CommError> {
    ColumnGrouping::decode_bytes(payload, w)
        .filter(|grouping| grouping.n_features() == d)
        .ok_or(CommError::Malformed { from: 0 })
}

fn encode_rowframed_compressed(
    split: u32,
    row_offset: u32,
    feats: &[FeatureId],
    bins: &[BinId],
    row_ptr: &[u32],
    p: usize,
    q: usize,
) -> Bytes {
    let mut out = BytesMut::new();
    out.put_u32(split);
    out.put_u32(row_offset);
    out.put_u32(row_ptr.len() as u32 - 1);
    for win in row_ptr.windows(2) {
        let (lo, hi) = (win[0] as usize, win[1] as usize);
        out.put_u32((hi - lo) as u32);
        let pairs: Vec<(FeatureId, BinId)> =
            feats[lo..hi].iter().copied().zip(bins[lo..hi].iter().copied()).collect();
        out.put_slice(&encoding::encode_compressed(&pairs, p, q));
    }
    out.freeze()
}

/// Decodes row-framed payloads — one per sender, in file-split order, each
/// with the 12-byte header [`decode_group`] checked — into one row-store of
/// `p` group features over `n_rows` rows, each payload dropped once decoded.
/// `decode_row` appends one row's pairs, `pair_bytes` wide on the wire. A
/// payload that does not decode is [`CommError::Malformed`] from its sender.
fn decode_rowframed(
    received: Vec<Bytes>,
    p: usize,
    n_rows: usize,
    pair_bytes: usize,
    mut decode_row: impl FnMut(Bytes, &mut Assembly) -> Result<(), DataError>,
) -> Result<BinnedRows, CommError> {
    let mut rows = Assembly::new(p, n_rows, 0);
    for (from, mut bytes) in received.into_iter().enumerate() {
        let malformed = CommError::Malformed { from };
        rows.begin(bytes.get_u32(), bytes.get_u32()).map_err(malformed_slice)?;
        for _ in 0..bytes.get_u32() {
            if bytes.remaining() < 4 {
                return Err(malformed);
            }
            let len = bytes.get_u32() as usize * pair_bytes;
            if bytes.remaining() < len {
                return Err(malformed);
            }
            decode_row(bytes.split_to(len), &mut rows).map_err(|_| CommError::Malformed { from })?;
            rows.end_row();
        }
        if bytes.has_remaining() {
            return Err(malformed);
        }
    }
    rows.finish().map_err(malformed_slice)
}

/// A slice the row-store could not take is malformed from its sender: the
/// slice index is the sender's rank.
fn malformed_slice(e: SliceError) -> CommError {
    CommError::Malformed { from: e.slice }
}

fn encode_rowframed_naive(
    split: u32,
    row_offset: u32,
    shard: &Dataset,
    grouping: &ColumnGrouping,
    dest: usize,
    row_ptr: &[u32],
) -> Bytes {
    // The naïve format ships the ORIGINAL 〈global feature id, f64 value〉
    // pairs (12 bytes each) — exactly what a transformation without the
    // bin-index compression would send.
    let mut out = BytesMut::new();
    out.put_u32(split);
    out.put_u32(row_offset);
    out.put_u32(row_ptr.len() as u32 - 1);
    shard.features.for_each_row(|_, feats, vals| {
        let pairs: Vec<(FeatureId, f64)> = feats
            .iter()
            .zip(vals)
            .filter(|&(&f, _)| grouping.group_of(f) == dest)
            .map(|(&f, &v)| (f, f64::from(v)))
            .collect();
        out.put_u32(pairs.len() as u32);
        out.put_slice(&encoding::encode_naive(&pairs));
    });
    out.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_cluster::Cluster;
    use gbdt_data::synthetic::SyntheticConfig;

    fn toy_dataset(n: usize, d: usize, seed: u64) -> Dataset {
        SyntheticConfig {
            n_instances: n,
            n_features: d,
            n_classes: 2,
            density: 0.5,
            seed,
            ..Default::default()
        }
        .generate()
    }

    fn run_transform(world: usize, encoding: WireEncoding) {
        let full = toy_dataset(120, 13, 7);
        let partition = HorizontalPartition::new(full.n_instances(), world);
        let cfg = TransformConfig { encoding, ..Default::default() };
        let cluster = Cluster::new(world);
        let full_ref = &full;
        let cfg_ref = &cfg;
        let (outputs, _) = cluster.run(move |ctx| {
            let shard = partition.shard(full_ref, ctx.rank());
            horizontal_to_vertical(ctx, &shard, partition, cfg_ref).unwrap()
        });

        // Global reference: single-pass cuts + binning.
        let ref_binned = {
            let cuts = &outputs[0].cuts;
            cuts.apply(&full)
        };

        // Every worker agrees on cuts, grouping, labels.
        for out in &outputs {
            assert_eq!(out.cuts, outputs[0].cuts);
            assert_eq!(out.grouping, outputs[0].grouping);
            assert_eq!(out.labels, full.labels);
            assert_eq!(out.local_data.n_rows(), full.n_instances());
        }

        // The union of vertical shards reproduces the binned matrix exactly.
        let grouping = &outputs[0].grouping;
        for (w, out) in outputs.iter().enumerate() {
            let local = &out.local_data;
            assert_eq!(local.n_features(), grouping.group_len(w));
            for i in 0..full.n_instances() {
                for (local_id, &global_f) in grouping.group_features(w).iter().enumerate() {
                    assert_eq!(
                        local.get(i, local_id as u32),
                        ref_binned.get(i, global_f),
                        "worker {w} row {i} feature {global_f} (encoding {:?})",
                        cfg.encoding
                    );
                }
            }
        }
    }

    #[test]
    fn blockified_transform_preserves_data() {
        run_transform(3, WireEncoding::Blockified);
    }

    #[test]
    fn compressed_transform_preserves_data() {
        run_transform(3, WireEncoding::Compressed);
    }

    #[test]
    fn naive_transform_preserves_data() {
        run_transform(3, WireEncoding::Naive);
    }

    #[test]
    fn single_worker_transform_works() {
        run_transform(1, WireEncoding::Blockified);
    }

    #[test]
    fn many_workers_few_features() {
        // More workers than some groups have features.
        let full = toy_dataset(40, 3, 9);
        let partition = HorizontalPartition::new(full.n_instances(), 4);
        let cfg = TransformConfig::default();
        let cluster = Cluster::new(4);
        let (full_ref, cfg_ref) = (&full, &cfg);
        let (outputs, _) = cluster.run(move |ctx| {
            let shard = partition.shard(full_ref, ctx.rank());
            horizontal_to_vertical(ctx, &shard, partition, cfg_ref).unwrap()
        });
        let total_feats: usize =
            (0..4).map(|w| outputs[0].grouping.group_len(w)).sum();
        assert_eq!(total_feats, 3);
        for out in &outputs {
            assert_eq!(out.labels.len(), 40);
        }
    }

    #[test]
    fn compression_shrinks_repartition_traffic() {
        let full = toy_dataset(200, 20, 11);
        let partition = HorizontalPartition::new(full.n_instances(), 2);
        let cluster = Cluster::new(2);
        let mut sent = Vec::new();
        for encoding in [WireEncoding::Naive, WireEncoding::Compressed, WireEncoding::Blockified] {
            let cfg = TransformConfig { encoding, ..Default::default() };
            let (full_ref, cfg_ref) = (&full, &cfg);
            let (outputs, _) = cluster.run(move |ctx| {
                let shard = partition.shard(full_ref, ctx.rank());
                horizontal_to_vertical(ctx, &shard, partition, cfg_ref).unwrap()
            });
            sent.push(
                outputs.iter().map(|o| o.report.repartition_bytes_sent).sum::<u64>(),
            );
        }
        let (naive, compressed, blockified) = (sent[0], sent[1], sent[2]);
        assert!(
            compressed < naive,
            "compressed {compressed} should beat naive {naive}"
        );
        // Blockify removes per-row framing in favour of one pointer array —
        // byte counts are close (its win is (de)serialization time); allow a
        // small header-sized slack but never more than compressed + headers.
        assert!(
            blockified <= compressed + 64,
            "blockified {blockified} should not exceed compressed {compressed} by more than headers"
        );
        // The pair compression alone is ~4x (12 bytes -> 3 with row framing).
        assert!(naive as f64 / blockified as f64 > 3.0);
    }

    /// Sketches of `d` features with distinct value streams.
    fn sketches(d: usize) -> Vec<QuantileSketch> {
        (0..d)
            .map(|f| {
                let mut sketch = QuantileSketch::new(8);
                (0..20).for_each(|i| sketch.insert((i * (f + 1)) as f32));
                sketch
            })
            .collect()
    }

    /// `fields` as the big-endian words `put_u32` writes.
    fn words(fields: &[u32]) -> Vec<u8> {
        fields.iter().flat_map(|x| x.to_be_bytes()).collect()
    }

    #[test]
    fn malformed_sketch_batches_are_rejected_not_panicked_on() {
        // Rank 0 of W = 2 sends rank 1 the sketches of features 1 and 3.
        let (d, w) = (4, 2);
        let batch = encode_sketch_batches(&sketches(d), 0, w).swap_remove(1);
        let merge = |bytes: &[u8]| {
            merge_sketch_batch(&mut sketches(d), Bytes::from(bytes.to_vec()), 1, w, 0)
        };
        let mut merged = sketches(d);
        assert_eq!(merge_sketch_batch(&mut merged, batch.clone(), 1, w, 0), Ok(()));
        assert_eq!((merged[0].count(), merged[1].count(), merged[3].count()), (20, 40, 40));
        assert_eq!(merge(&[]), Ok(()));
        let sketch = sketches(d)[1].encode_bytes();
        let record = |f: u32| [words(&[f, sketch.len() as u32]), sketch.clone()].concat();
        assert_eq!(merge(&batch[..record(1).len()]), Ok(()));
        let malformed = Err(CommError::Malformed { from: 0 });
        // Every other truncation and an over-long batch.
        for cut in (1..batch.len()).filter(|&cut| cut != record(1).len()) {
            assert_eq!(merge(&batch[..cut]), malformed, "cut at {cut}");
        }
        assert_eq!(merge(&[&batch[..], &[0]].concat()), malformed);
        // A feature rank 1 does not merge, one past D, a length past the
        // end, and a well-framed record whose sketch does not decode.
        assert_eq!(merge(&record(2)), malformed);
        assert_eq!(merge(&record(5)), malformed);
        assert_eq!(merge(&words(&[1, u32::MAX])), malformed);
        assert_eq!(merge(&words(&[1, 4, 0])), malformed);
    }

    #[test]
    fn malformed_sketch_counts_that_overflow_are_rejected_not_panicked_on() {
        // Rank 0 of W = 2 sends rank 1 a sketch of feature 1 claiming `n`
        // values; rank 1's own sketch of it already counts 20.
        let (d, w) = (2, 2);
        let merge_count = |n: u64| {
            let mut sketch = sketches(d)[1].encode_bytes();
            sketch[4..12].copy_from_slice(&n.to_le_bytes());
            let batch = [words(&[1, sketch.len() as u32]), sketch].concat();
            merge_sketch_batch(&mut sketches(d), Bytes::from(batch), 1, w, 0)
        };
        assert_eq!(merge_count(u64::MAX - 20), Ok(()));
        assert_eq!(merge_count(u64::MAX - 19), Err(CommError::Malformed { from: 0 }));
    }

    #[test]
    fn malformed_slices_name_their_sender() {
        // W = 2: group 0's slices from both ranks, rank 1's one byte short.
        let full = toy_dataset(60, 6, 3);
        let partition = HorizontalPartition::new(full.n_instances(), 2);
        let grouping = ColumnGrouping::build(GroupingStrategy::RoundRobin, 6, 2, &[]);
        for encoding in [WireEncoding::Blockified, WireEncoding::Compressed, WireEncoding::Naive] {
            let cfg = TransformConfig { encoding, ..Default::default() };
            let cuts = BinCuts::from_sketches(
                &BinCuts::sketch_dataset(&full, cfg.sketch_capacity),
                cfg.n_bins,
            );
            let mut received: Vec<Bytes> = (0..2)
                .map(|rank| {
                    let shard = partition.shard(&full, rank);
                    let row_lo = partition.bounds(rank).0;
                    encode_groups(&shard, rank, row_lo, &cuts, &grouping, &cfg).swap_remove(0)
                })
                .collect();
            let decode = |received| {
                decode_group(received, 0, &partition, &cuts, &grouping, &cfg).err()
            };
            assert_eq!(decode(received.clone()), None, "{encoding:?}");
            if encoding == WireEncoding::Naive {
                // Rank 1's first pair renamed to a feature of group 1, then
                // to one past D.
                let mut pos = 12;
                while received[1][pos..pos + 4] == [0; 4] {
                    pos += 4;
                }
                for f in [1u32, 99] {
                    let mut renamed = received[1].to_vec();
                    renamed[pos + 4..pos + 8].copy_from_slice(&f.to_be_bytes());
                    let payloads = vec![received[0].clone(), Bytes::from(renamed)];
                    assert_eq!(decode(payloads), Some(CommError::Malformed { from: 1 }), "{f}");
                }
            }
            // Rank 0's slice one row short but sound in itself: the gap
            // shows at rank 1's first row, and rank 0 is still named.
            let (lo, hi) = partition.bounds(0);
            let short = full.slice_rows(lo, hi - 1, "short");
            let short = encode_groups(&short, 0, lo, &cuts, &grouping, &cfg).swap_remove(0);
            let payloads = vec![short, received[1].clone()];
            assert_eq!(decode(payloads), Some(CommError::Malformed { from: 0 }), "{encoding:?}");
            received[1] = received[1].slice(0..received[1].len() - 1);
            assert_eq!(decode(received), Some(CommError::Malformed { from: 1 }), "{encoding:?}");
        }
    }

    #[test]
    fn malformed_cut_parts_are_rejected_not_panicked_on() {
        // W = 2, D = 3: rank 0 sends features 0 and 2, rank 1 feature 1.
        let (d, w, q) = (3, 2, 4);
        let merged = sketches(d);
        let parts: Vec<Bytes> = (0..w).map(|rank| encode_cut_part(&merged, rank, w, q)).collect();
        let (cut_values, counts) = decode_cut_parts(parts.clone(), d, q).unwrap();
        assert_eq!(counts, vec![20; 3]);
        assert_eq!(BinCuts::from_cut_values(cut_values), BinCuts::from_sketches(&merged, q));
        let with_part_1 = |bytes: &[u8]| {
            decode_cut_parts(vec![parts[0].clone(), Bytes::from(bytes.to_vec())], d, q)
        };
        let malformed = Err(CommError::Malformed { from: 1 });
        // Every truncation (the empty part included) and an over-long part.
        for cut in 0..parts[1].len() {
            assert_eq!(with_part_1(&parts[1][..cut]), malformed, "cut at {cut}");
        }
        assert_eq!(with_part_1(&[&parts[1][..], &[0]].concat()), malformed);
        // Rank 0's feature, a feature past D, and rank 0's records sent as
        // rank 1's.
        for f in [2, 7] {
            assert_eq!(with_part_1(&[&words(&[f])[..], &parts[1][4..]].concat()), malformed);
        }
        assert_eq!(with_part_1(&parts[0]), malformed);
        // More cuts than q, and cuts that do not ascend (the first cut of
        // feature 1 raised past the second).
        let from_0 = Err(CommError::Malformed { from: 0 });
        assert_eq!(decode_cut_parts(parts.clone(), d, q - 1), from_0);
        let mut descending = parts[1].to_vec();
        descending[14..18].copy_from_slice(&f32::MAX.to_be_bytes());
        assert_eq!(with_part_1(&descending), malformed);
    }

    #[test]
    fn malformed_cut_broadcasts_are_rejected_not_panicked_on() {
        let (d, q) = (3, 4);
        let cuts = BinCuts::from_sketches(&sketches(d), q);
        let full = encode_cuts_and_counts(&cuts, &[5, 6, 7]);
        assert_eq!(decode_cuts_and_counts(full.clone(), d, q), Ok((cuts, vec![5, 6, 7])));
        let decode = |bytes: &[u8]| decode_cuts_and_counts(Bytes::from(bytes.to_vec()), d, q);
        let malformed = Err(CommError::Malformed { from: 0 });
        // Every truncation and an over-long payload.
        for cut in 0..full.len() {
            assert_eq!(decode(&full[..cut]), malformed, "cut at {cut}");
        }
        assert_eq!(decode(&[&full[..], &[0]].concat()), malformed);
        // Cuts for another D, more cuts than q, a cut length past the end.
        assert_eq!(decode_cuts_and_counts(full.clone(), d + 1, q), malformed);
        assert_eq!(decode_cuts_and_counts(full.clone(), d, q - 1), malformed);
        assert_eq!(decode(&words(&[u32::MAX])), malformed);
    }

    #[test]
    fn malformed_groupings_are_rejected_not_panicked_on() {
        let grouping = ColumnGrouping::build(GroupingStrategy::RoundRobin, 5, 2, &[]);
        let bytes = grouping.encode_bytes();
        assert_eq!(decode_grouping(&bytes, 5, 2), Ok(grouping));
        let malformed = Err(CommError::Malformed { from: 0 });
        // Every truncation, an over-long payload, another D, another W.
        for cut in 0..bytes.len() {
            assert_eq!(decode_grouping(&bytes[..cut], 5, 2), malformed, "cut at {cut}");
        }
        assert_eq!(decode_grouping(&[&bytes[..], &[0]].concat(), 5, 2), malformed);
        assert_eq!(decode_grouping(&bytes, 6, 2), malformed);
        assert_eq!(decode_grouping(&bytes, 5, 3), malformed);
        // A feature assigned to a group past W.
        let mut stray = bytes.clone();
        stray[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(decode_grouping(&stray, 5, 2), malformed);
    }
}
