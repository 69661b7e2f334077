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
//! calls that does not grow with the D·q bins it scans.

use gbdt_cluster::Cluster;
use gbdt_core::histogram::NodeHistogram;
use gbdt_core::model::GbdtModel;
use gbdt_core::split::best_split;
use gbdt_core::tree::Tree;
use gbdt_core::{NodeStats, Objective, SplitParams, TrainConfig};
use gbdt_data::encoding;
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::Dataset;
use gbdt_partition::transform::{horizontal_to_vertical, TransformConfig};
use gbdt_partition::HorizontalPartition;
use gbdt_quadrants::{qd2, qd3, qd4, yggdrasil, Aggregation};
use gbdt_serve::compile::compile;
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
/// stage of the vertical pipeline stays in its 6-byte-per-pair sparse form.
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
    TrainConfig::builder().n_trees(2).n_layers(4).threads(1).build().unwrap()
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
        // A worker's frames are the blocks it sends, before encoding — a u32
        // feature and a u16 bin per pair, a u32 pointer per row and
        // destination; its payloads are the blockified wire form of the
        // blocks it receives, one per sender.
        let n = ds.n_instances();
        let budget: usize = outputs
            .iter()
            .zip(&shards)
            .enumerate()
            .map(|(w, (out, shard))| {
                let frames = shard.features.n_stored() * 6 + world * (shard.n_instances() + 1) * 4;
                let pair_bytes =
                    encoding::compressed_pair_bytes(out.grouping.group_len(w), cfg.n_bins);
                let payloads = world * 20 + out.local_data.nnz() * pair_bytes + n * 4;
                let rows = out.local_data.heap_bytes();
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
/// (and Yggdrasil's column-wise index, which every tree's reset rebuilds
/// beside the old one).
fn vertical_trainers_keep_one_store(broken: &mut Vec<String>) {
    let ds = sparse_dataset();
    let cluster = Cluster::new(1);
    let cfg = config();

    let (result, peak) = measure(|| qd4::train(&cluster, &ds, &cfg));
    let rows = result.stats.max_data_bytes() as usize;
    if peak > rows * 3 / 2 {
        broken.push(format!(
            "qd4 peaked {peak} B above entry: more than 1.5 stores of {rows} B were live"
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

    let (result, peak) = measure(|| yggdrasil::train(&cluster, &ds, &cfg));
    let columns = result.stats.max_data_bytes() as usize;
    let index = result.stats.workers[0].index_bytes as usize;
    let budget = (columns + 2 * index) * 5 / 4;
    if peak > budget {
        broken.push(format!(
            "yggdrasil peaked {} B above entry; columns {columns} B and index {index} B \
             allow {budget} B",
            peak
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
/// one tree's BFS scratch — no second node layout, table or map.
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
    dense_row_cuts_allocate_their_labels_only(&mut broken);
    qd2_on_a_dense_matrix_peaks_below_the_matrix_itself(&mut broken);
    transform_holds_frames_payloads_and_rows_only(&mut broken);
    vertical_trainers_keep_one_store(&mut broken);
    compile_builds_one_layout(&mut broken);
    split_scan_allocates_per_node_only(&mut broken);
    assert!(broken.is_empty(), "{} bound(s) broken:\n{}", broken.len(), broken.join("\n"));
}
