//! The prep pipeline's copy budget, in the paper's terms, as a gate that
//! repeats exactly.
//!
//! The paper's memory analysis (§3.1.2, §3.2) charges a worker for its binned
//! data, its histograms and its index. Everything a trainer allocates before
//! tree 1 beyond that is this repository's overhead, and `peak_rss_mb` is
//! where it shows — but RSS is a property of the allocator and the host. This
//! binary counts bytes instead: a counting global allocator (live bytes, and
//! the highest live count above a mark) around the public prep entry points
//! at W = 1 (and the transformation also at W = 2), so every figure is a pure
//! function of the code under test.
//!
//! The rule the bounds encode (DESIGN.md item 16): a row cut keeps the storage
//! it was given and copies no cell; prep is a stream; an intermediate is
//! consumed by the stage that reads it, so at most two stages are live. The
//! serving compiler is held to the same rule: it builds one layout. The
//! split scan, which runs for every node, is held to a count of allocation
//! calls that does not grow with the D·q bins it scans. Decoders are held
//! to the bytes they read: a decoded model holds its nodes and nothing
//! sized by its layer count, and no hostile model or serve frame costs
//! more than a small multiple of its length.

use gbdt_cluster::Cluster;
use gbdt_core::histogram::NodeHistogram;
use gbdt_core::model::GbdtModel;
use gbdt_cluster::wire::{self, WireCodec};
use gbdt_core::split::{best_split, Split};
use gbdt_core::tree::Tree;
use gbdt_core::{BinCuts, NodeStats, Objective, QuantileSketch, SplitParams, TrainConfig};
use gbdt_data::encoding;
use gbdt_data::hostile;
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::{Dataset, PairKeys};
use gbdt_partition::transform::{horizontal_to_vertical, TransformConfig};
use gbdt_partition::{ColumnGrouping, GroupingStrategy, HorizontalPartition, PlacementBitmap};
use gbdt_quadrants::{qd2, qd3, qd4, yggdrasil, Aggregation};
use gbdt_serve::compile::compile;
use gbdt_serve::wire::{PredictRequest, PredictResponse, PublishAck, PublishFrame, ReplyStatus};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes the program holds right now, and the most it has held.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Calls to `alloc`, `alloc_zeroed` and `realloc` so far.
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting every byte handed out and taken back, and
/// every call that asks for bytes.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocation.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Ordering::SeqCst);
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc_zeroed` is `System`'s.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Ordering::SeqCst);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator with `layout`, i.e. from `System`.
        unsafe { System.dealloc(p, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p` came from `System` with `layout`; `new_size` is the caller's.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            CALLS.fetch_add(1, Ordering::SeqCst);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and reports its peak: the most bytes it held above what was live
/// when it started. The counters are process-wide, so nothing else may
/// allocate meanwhile: this binary has one `#[test]`.
fn measure<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let entry = LIVE.load(Ordering::SeqCst);
    PEAK.store(entry, Ordering::SeqCst);
    let result = f();
    (result, PEAK.load(Ordering::SeqCst) - entry)
}

/// Runs `f` and reports how many allocation calls it made.
fn allocation_calls<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let entry = CALLS.load(Ordering::SeqCst);
    let result = f();
    (result, CALLS.load(Ordering::SeqCst) - entry)
}

const KIB: usize = 1024;

fn dense_dataset() -> Dataset {
    SyntheticConfig {
        n_instances: 20_000,
        n_features: 50,
        n_classes: 2,
        dense: true,
        seed: 2301,
        ..Default::default()
    }
    .generate()
}

/// 20 000 × 120 at density 0.2: under the 0.25 auto threshold, so every
/// stage of the vertical pipeline stays in its sparse form (2-byte row keys:
/// 120 features of 5-bit bins).
fn sparse_dataset() -> Dataset {
    SyntheticConfig {
        n_instances: 20_000,
        n_features: 120,
        n_classes: 2,
        density: 0.2,
        seed: 2302,
        ..Default::default()
    }
    .generate()
}

fn config() -> TrainConfig {
    TrainConfig::builder().n_trees(2).n_layers(4).build().unwrap()
}

/// Generating a sparse dataset of N rows over D ≤ 65 536 features holds what
/// it returns — the CSR at 2-byte ids and 4-byte values, its row pointers
/// and the labels, each allocated once at its final size — plus at most a
/// KiB of working state (the D × C weights of this 64-feature shape, one
/// row's sample). 4-byte ids would hold 2 · nnz bytes more.
fn sparse_generation_holds_two_byte_ids(broken: &mut Vec<String>) {
    let cfg = SyntheticConfig {
        n_instances: 20_000,
        n_features: 64,
        n_classes: 2,
        density: 0.1,
        seed: 2303,
        ..Default::default()
    };
    let (ds, peak) = measure(|| cfg.generate());
    let (n, nnz) = (ds.n_instances(), ds.features.n_stored());
    let returned = nnz * (2 + 4) + (n + 1) * 8 + n * 4;
    let heap = ds.features.heap_bytes() + ds.labels.capacity() * 4;
    if heap != returned {
        broken.push(format!(
            "a generated {n} × {} sparse dataset of {nnz} values counts {heap} B, not {returned} B",
            cfg.n_features
        ));
    }
    if peak > returned + KIB {
        broken.push(format!(
            "generating {nnz} sparse values over {n} rows peaked {peak} B; 2-byte ids, values, \
             row pointers and labels allow {returned} B + 1 KiB"
        ));
    }
}

/// Generating rows allocates per dataset, not per row: one sample buffer and
/// one membership mask serve every row. On `train-hd-sparse`'s shape (80 000
/// rows over 4 000 features at density 0.02) a `Vec` per row would make
/// 80 000 calls.
fn sparse_generation_allocates_per_dataset(broken: &mut Vec<String>) {
    let cfg = SyntheticConfig {
        n_instances: 80_000,
        n_features: 4_000,
        n_classes: 2,
        density: 0.02,
        seed: 3,
        ..Default::default()
    };
    let (ds, calls) = allocation_calls(|| cfg.generate());
    if calls > 64 {
        broken.push(format!(
            "generating {} rows over {} features made {calls} allocation calls, not ≤ 64",
            ds.n_instances(),
            ds.n_features()
        ));
    }
}

/// Converting a dense matrix to CSR holds what it returns — ids written once
/// at their final width, values, row pointers — plus at most a KiB; writing a
/// dense dataset as LIBSVM streams its rows and holds at most a KiB.
fn dense_rows_stream_out_without_a_copy(broken: &mut Vec<String>) {
    let ds = dense_dataset();
    let (csr, peak) = measure(|| ds.features.to_csr());
    if peak > csr.heap_bytes() + KIB {
        broken.push(format!(
            "to_csr on a {} × {} dense matrix peaked {peak} B; the {} B it returns allow + 1 KiB",
            ds.n_instances(),
            ds.n_features(),
            csr.heap_bytes()
        ));
    }
    drop(csr);
    let (written, peak) = measure(|| gbdt_data::libsvm::write_to(&mut std::io::sink(), &ds));
    written.expect("a sink takes every byte");
    if peak > KIB {
        broken.push(format!(
            "writing a {} × {} dense dataset as LIBSVM peaked {peak} B, not ≤ 1 KiB",
            ds.n_instances(),
            ds.n_features()
        ));
    }
}

/// The hold-out split and the worker shard of a dense dataset copy labels and
/// nothing else: every cut is a window over the caller's cells.
fn dense_row_cuts_allocate_their_labels_only(broken: &mut Vec<String>) {
    let ds = dense_dataset();
    let ((train, valid, shard), peak) = measure(|| {
        let (train, valid) = ds.split_validation(0.1);
        let shard = HorizontalPartition::new(train.n_instances(), 1).shard(&train, 0);
        (train, valid, shard)
    });
    let labels = 4 * (train.n_instances() + valid.n_instances() + shard.n_instances());
    if peak > labels + KIB {
        broken.push(format!(
            "cutting a {} B dense matrix allocated {} B for {labels} B of labels",
            ds.features.heap_bytes(),
            peak,
        ));
    }
}

/// Training on a dense matrix never holds a second copy of it: the whole run
/// — shard, sketches, packed cells, gradients, index, histograms — peaks
/// below the bytes of the raw matrix the caller already holds.
fn qd2_on_a_dense_matrix_peaks_below_the_matrix_itself(broken: &mut Vec<String>) {
    let ds = dense_dataset();
    let cluster = Cluster::new(1);
    let cfg = config();
    let (result, peak) = measure(|| qd2::train(&cluster, &ds, &cfg, Aggregation::ReduceScatter));
    assert_eq!(result.model.trees.len(), cfg.n_trees);
    let raw = ds.features.heap_bytes();
    if peak >= raw {
        broken.push(format!(
            "qd2 peaked {} B above entry on a raw dense matrix of {raw} B",
            peak
        ));
    }
}

/// The repartition streams. What a worker holds at once is its staging
/// frames and the payloads encoded from them, then the payloads and the one
/// row-store they are decoded into in place — never a binned copy of the
/// whole shard, nor a decoded block beside the rows it is copied into. At
/// W = 1 the one payload becomes the rows; at W = 2 each worker assembles
/// two senders' blocks into one store. (The sum of all three, times 1.25, is
/// a bound a copying encoder or assembly also meets; the larger of the two
/// live sets is not.)
fn transform_holds_frames_payloads_and_rows_only(broken: &mut Vec<String>) {
    let ds = sparse_dataset();
    let cfg = TransformConfig::default();
    for world in [1, 2] {
        let partition = HorizontalPartition::new(ds.n_instances(), world);
        let shards: Vec<Dataset> = (0..world).map(|w| partition.shard(&ds, w)).collect();
        let cluster = Cluster::new(world);
        let (outputs, peak) = measure(|| {
            let (outputs, _) = cluster.run(|ctx| {
                horizontal_to_vertical(ctx, &shards[ctx.rank()], partition, &cfg)
                    .expect("fault-free transformation")
            });
            outputs
        });
        // A worker's frames are the blocks it sends, before encoding — a
        // packed key per pair, as wide as the widest destination group's
        // keys, and a u32 pointer per row and destination; its payloads are
        // the blockified wire form of the blocks it receives, one per sender:
        // a header each, then its pairs and row lengths bit-packed (a row
        // length no wider than the longest row it assembles needs), padded
        // to a byte.
        let n = ds.n_instances();
        let grouping = &outputs[0].grouping;
        let key_bytes = (0..world)
            .map(|g| PairKeys::with_capacity(grouping.group_len(g), cfg.n_bins, 0).key_bytes())
            .max()
            .expect("a group");
        let budget: usize = outputs
            .iter()
            .zip(&shards)
            .enumerate()
            .map(|(w, (out, shard))| {
                let frames = shard.features.n_stored() * key_bytes
                    + world * (shard.n_instances() + 1) * 4;
                let rows = &out.local_data;
                let longest = rows.row_ptr().windows(2).map(|p| p[1] - p[0]).max().unwrap_or(0);
                let packed = encoding::block_bytes(
                    rows.nnz(),
                    n,
                    encoding::row_len_bits(longest),
                    out.grouping.group_len(w),
                    cfg.n_bins,
                )
                .expect("a block that fits in memory");
                let payloads = packed + (world - 1) * (encoding::BLOCK_HEADER_BYTES + 1);
                let rows = rows.heap_bytes();
                (payloads + frames.max(rows)) * 5 / 4
            })
            .sum();
        let pairs: usize = outputs.iter().map(|o| o.local_data.nnz()).sum();
        assert_eq!(pairs, ds.features.n_stored(), "every stored value has a bin");
        if peak > budget {
            broken.push(format!(
                "the transformation peaked {peak} B above entry at W = {world}; its frames, \
                 payloads and rows allow {budget} B"
            ));
        }
    }
}

/// The vertical trainers consume the transformation's rows: QD4 trains on
/// them (or on the dense cells that replace them), and QD3 and Yggdrasil
/// build their columns from them, so at most two stages of rows → row layout
/// → columns are live, and during trees only the store the trainer scans
/// (for Yggdrasil, the column-wise index that took the columns' keys). The
/// QD4 and Yggdrasil bounds count what each holds during trees — the
/// store, the histogram peak, the index and the gradient buffer — rather
/// than a multiple of the store alone, which packed keys have made small
/// beside the parts that did not shrink.
fn vertical_trainers_keep_one_store(broken: &mut Vec<String>) {
    let ds = sparse_dataset();
    let cluster = Cluster::new(1);
    let cfg = config();

    // QD4 holds its store (rows and labels), the histograms, the index and
    // the gradient buffer (a g and an h per instance and class).
    let (result, peak) = measure(|| qd4::train(&cluster, &ds, &cfg));
    let worker = &result.stats.workers[0];
    let n = ds.n_instances();
    let (store, hists, index) = (
        worker.data_bytes as usize,
        worker.histogram_peak_bytes as usize,
        worker.index_bytes as usize,
    );
    let grads = n * cfg.n_outputs() * 2 * 8;
    let budget = (store + hists + index + grads) * 5 / 4;
    // Never looser than the bound it replaced: 1.5 stores of 6-byte pairs.
    let six_byte_store = ds.features.n_stored() * 6 + (n + 1) * 8 + n * 4;
    assert!(budget <= six_byte_store * 3 / 2, "{budget} B > {} B", six_byte_store * 3 / 2);
    if peak > budget {
        broken.push(format!(
            "qd4 peaked {peak} B above entry; store {store} B, histograms {hists} B, index \
             {index} B and gradients {grads} B allow {budget} B"
        ));
    }

    let (result, peak) = measure(|| qd3::train(&cluster, &ds, &cfg));
    let stage = result.stats.max_data_bytes() as usize;
    if peak > stage * 5 / 2 {
        broken.push(format!(
            "qd3 peaked {} B above entry: more than 2.5 stages of {stage} B were live",
            peak
        ));
    }

    // Yggdrasil holds its column group once, as node-partitioned keys, with
    // QD4's other parts beside them: histograms, the node-to-instance index
    // with its own ranges, and the gradient buffer.
    let (result, peak) = measure(|| yggdrasil::train(&cluster, &ds, &cfg));
    let worker = &result.stats.workers[0];
    let (keys, hists, index) = (
        worker.data_bytes as usize,
        worker.histogram_peak_bytes as usize,
        worker.index_bytes as usize,
    );
    let budget = (keys + hists + index + grads) * 5 / 4;
    // Never looser than the bound it replaced: the columns plus two indexes
    // of 6-byte pairs (one kept, one rebuilt beside it), a quarter over.
    let node_index = n * 8 + 16;
    let six_byte_index = node_index + ds.features.n_stored() * 6;
    let replaced = (keys + 2 * six_byte_index) * 5 / 4;
    assert!(budget <= replaced, "{budget} B > {replaced} B");
    if peak > budget {
        broken.push(format!(
            "yggdrasil peaked {peak} B above entry; keys {keys} B, histograms {hists} B, index \
             {index} B and gradients {grads} B allow {budget} B"
        ));
    }
}

/// `serve-batch`'s ensemble shape: 2048 complete 7-layer trees over 64
/// features, thresholds from a seeded generator.
fn serve_batch_ensemble() -> GbdtModel {
    let (n_trees, n_layers, n_features) = (2048, 7, 64u64);
    let mut state = 2501u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut model = GbdtModel::new(Objective::SquaredError, 0.1, n_features as usize);
    let internal = (1u32 << (n_layers - 1)) - 1;
    for _ in 0..n_trees {
        let mut tree = Tree::new(n_layers, 1);
        for id in 0..internal {
            let threshold = (next() % 6000) as f32 / 1000.0 - 3.0;
            tree.set_internal(id, (next() % n_features) as u32, 0, threshold, next() & 1 == 0);
        }
        for id in internal..2 * internal + 1 {
            tree.set_leaf(id, vec![(next() % 1000) as f64 / 500.0 - 1.0]);
        }
        model.trees.push(tree);
    }
    model
}

/// `compile` holds the flat arrays it returns and nothing beside them: its
/// peak stays within their allocated bytes (so `Vec` growth is allowed) plus
/// a KiB — no second node layout, table or map.
fn compile_builds_one_layout(broken: &mut Vec<String>) {
    let model = serve_batch_ensemble();
    let (ens, peak) = measure(|| compile(&model, 1).expect("complete trees compile"));
    fn allocated<T>(v: &Vec<T>) -> usize {
        v.capacity() * std::mem::size_of::<T>()
    }
    let flat = allocated(&ens.nodes)
        + allocated(&ens.leaf_values)
        + allocated(&ens.tree_off)
        + allocated(&ens.tree_steps)
        + allocated(&ens.init_scores);
    if peak > flat + KIB {
        broken.push(format!(
            "compile peaked {peak} B above entry; the {} nodes, {} leaf values and \
             per-tree arrays it returns hold {flat} B",
            ens.nodes.len(),
            ens.leaf_values.len(),
        ));
    }
}

/// A decoded model holds the nodes it carries. On `serve-batch`'s complete
/// trees (a slot per node) a tree holds at most 16 B a slot, 8 B per
/// internal node (its gain) and 8·C per leaf beside its own header, and
/// decoding allocates nothing it does not return.
fn decoded_trees_hold_their_nodes(broken: &mut Vec<String>) {
    let bytes = serve_batch_ensemble().encode_bytes();
    let entry = LIVE.load(Ordering::SeqCst);
    let (model, peak) = measure(|| GbdtModel::decode_bytes(&bytes).expect("a sound model"));
    let held = LIVE.load(Ordering::SeqCst) - entry;
    let c = model.n_outputs();
    let nodes: usize = model
        .trees
        .iter()
        .map(|t| {
            let (nodes, leaves) = (t.n_nodes(), t.n_leaves());
            16 * nodes + 8 * (nodes - leaves) + 8 * c * leaves
        })
        .sum();
    let budget = nodes + model.trees.len() * std::mem::size_of::<Tree>() + KIB;
    if held.max(peak) > budget {
        broken.push(format!(
            "decoding {} trees held {held} B and peaked {peak} B; their nodes allow {budget} B",
            model.trees.len()
        ));
    }
}

/// A frame's name, its bytes, the mask its flips use besides 0x01, 0x80
/// and 0xff, and whether a variant decodes.
type HostileCase<'a> = (&'a str, &'a [u8], u8, &'a dyn Fn(&[u8]) -> bool);

/// Hostile bytes cost what they carry: decoding any truncation or single
/// flipped byte ([`hostile::variants`]) of a small frame of every public
/// decoder peaks at no more than 4 × its length + 4 KiB, whether it decodes
/// or is refused — a count field read from the bytes never sizes an
/// allocation on its own. The model is a 103-byte stump whose `n_layers`
/// field (bytes 41..45, holding 3) is also flipped to 24, the most a tree
/// may have; a model of 1 000 trees that carry no nodes (12 041 bytes) is
/// refused rather than held at 8.6 × its bytes. A flipped cut count once
/// reserved 64 Ki cuts for a 20-byte cut broadcast.
fn hostile_decodes_cost_their_bytes(broken: &mut Vec<String>) {
    let mut model = GbdtModel::new(Objective::Logistic, 0.1, 2);
    let mut stump = Tree::new(3, 1);
    stump.set_internal(0, 0, 0, 0.5, true);
    stump.set_leaf(1, vec![1.0]);
    stump.set_leaf(2, vec![-1.0]);
    model.trees.push(stump);
    let model_bytes = model.encode_bytes();
    assert_eq!(model_bytes.len(), 103);
    let mut empty_trees = GbdtModel::new(Objective::Logistic, 0.1, 2);
    empty_trees.trees = vec![Tree::new(3, 1); 1_000];
    let empty_bytes = empty_trees.encode_bytes();
    assert_eq!(empty_bytes.len(), 12_041);
    let request =
        PredictRequest { req_id: 7, n_features: 3, max_trees: 0, rows: vec![0.5; 6] }.encode();
    let response = PredictResponse {
        req_id: 7,
        version: 2,
        status: ReplyStatus::Ok,
        trees_scored: 0,
        n_outputs: 1,
        scores: vec![0.25, -0.75],
    }
    .encode();
    let ack = PublishAck { version: 2 }.encode();
    let publish = PublishFrame { version: 2, model_bytes: model_bytes.clone() }.encode();
    let (hist, stats) = split_histogram(2, 3, 2);
    let (left, right) = (stats.clone(), stats.clone());
    let split = Split { feature: 1, bin: 2, default_left: true, gain: 0.5, left, right };
    let cuts = BinCuts::from_cut_values(vec![vec![0.5, 1.5], vec![2.5]]).encode_bytes();
    assert_eq!(cuts.len(), 20);
    let mut sketch = QuantileSketch::new(8);
    (0..20).for_each(|i| sketch.insert(i as f32));
    let bitmap = PlacementBitmap::from_predicate(70, |k| k % 3 == 0).encode_bytes();
    let grouping = ColumnGrouping::build(GroupingStrategy::RoundRobin, 9, 4, &[]).encode_bytes();
    let cells = [0.0, 3.0, 0.0, -1.5, 0.0, 0.0, 0.0, 0.0, 0.0];
    let grid = wire::encode(WireCodec::Grid, &cells).to_vec();
    let sparse = wire::encode(WireCodec::F32, &cells).to_vec();
    let decodes_grid = |b: &[u8]| wire::decode_add(&b.to_vec().into(), &mut [0.0; 9]).is_ok();
    let table: [HostileCase; 15] = [
        ("model", &model_bytes, 3 ^ 24, &|b| GbdtModel::decode_bytes(b).is_ok()),
        ("empty-tree model", &empty_bytes, 0x5a, &|b| GbdtModel::decode_bytes(b).is_ok()),
        ("request", &request, 0x5a, &|b| PredictRequest::decode(b).is_ok()),
        ("response", &response, 0x5a, &|b| PredictResponse::decode(b).is_ok()),
        ("ack", &ack, 0x5a, &|b| PublishAck::decode(b).is_ok()),
        ("publish", &publish, 0x5a, &|b| PublishFrame::decode(b).is_ok()),
        ("histogram", &hist.encode_bytes(), 0x5a, &|b| NodeHistogram::decode_bytes(b).is_ok()),
        ("node stats", &stats.encode_bytes(), 0x5a, &|b| NodeStats::decode_bytes(b).is_ok()),
        ("split", &split.encode_bytes(), 0x5a, &|b| Split::decode_bytes(b).is_ok()),
        ("cuts", &cuts, 0x5a, &|b| BinCuts::decode_bytes(b).is_ok()),
        ("sketch", &sketch.encode_bytes(), 0x5a, &|b| QuantileSketch::decode_bytes(b).is_ok()),
        ("bitmap", &bitmap, 0x5a, &|b| PlacementBitmap::decode_bytes(b).is_ok()),
        ("grouping", &grouping, 0x5a, &|b| ColumnGrouping::decode_bytes(b, 4).is_ok()),
        ("grid", &grid, 0x5a, &decodes_grid),
        ("sparse f32", &sparse, 0x5a, &decodes_grid),
    ];
    for (name, bytes, flip, decode) in table {
        let worst = hostile::variants(bytes, flip)
            .map(|variant| {
                let budget = 4 * variant.len() + 4 * KIB;
                let (_, peak) = measure(|| decode(&variant));
                (peak.saturating_sub(budget), peak, variant.len())
            })
            .max();
        if let Some((over @ 1.., peak, len)) = worst {
            broken.push(format!(
                "a hostile {len}-byte {name} frame peaked {peak} B, {over} B over 4 × its bytes + 4 KiB"
            ));
        }
    }
}

/// A root histogram of `d` features × `q` bins × `c` classes with seeded
/// gradients, and its node sums (no value is missing).
fn split_histogram(d: usize, q: usize, c: usize) -> (NodeHistogram, NodeStats) {
    let mut state = 2601u64;
    let mut hist = NodeHistogram::new(d, q, c);
    for (k, v) in hist.as_mut_slice().iter_mut().enumerate() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
        // [g, h] pairs: gradients in [-0.5, 0.5), hessians in [0, 1).
        *v = if k % 2 == 0 { unit - 0.5 } else { unit };
    }
    let node = hist.feature_totals(0);
    (hist, node)
}

/// Split finding allocates per node, never per feature or per bin: one
/// `best_split` over q = 20 bins makes as many allocation calls at D = 4 000
/// as at D = 100, at C = 1 and at C = 3.
fn split_scan_allocates_per_node_only(broken: &mut Vec<String>) {
    let q = 20;
    for c in [1, 3] {
        let [small, large] = [100, 4_000].map(|d| {
            let (hist, node) = split_histogram(d, q, c);
            let params = SplitParams::default();
            let (split, calls) =
                allocation_calls(|| best_split(&hist, &node, &params, |_| q, |f| f));
            assert!(split.is_some(), "a {d} × {q} × {c} histogram has a split");
            calls
        });
        if small != large {
            broken.push(format!(
                "best_split over q = {q}, C = {c} made {small} allocation calls at D = 100 \
                 and {large} at D = 4000"
            ));
        }
    }
}

/// One test, so that nothing else in the process allocates while a case is
/// measured; every broken bound is reported, not just the first.
#[test]
fn prep_stays_inside_its_copy_budget() {
    let mut broken = Vec::new();
    sparse_generation_holds_two_byte_ids(&mut broken);
    sparse_generation_allocates_per_dataset(&mut broken);
    dense_rows_stream_out_without_a_copy(&mut broken);
    dense_row_cuts_allocate_their_labels_only(&mut broken);
    qd2_on_a_dense_matrix_peaks_below_the_matrix_itself(&mut broken);
    transform_holds_frames_payloads_and_rows_only(&mut broken);
    vertical_trainers_keep_one_store(&mut broken);
    compile_builds_one_layout(&mut broken);
    decoded_trees_hold_their_nodes(&mut broken);
    hostile_decodes_cost_their_bytes(&mut broken);
    split_scan_allocates_per_node_only(&mut broken);
    assert!(broken.is_empty(), "{} bound(s) broken:\n{}", broken.len(), broken.join("\n"));
}
