//! Serving equivalence: the compiled flattened ensemble is a perf-only
//! transform.
//!
//! Every trainer in the repository (the single-node reference, every row of
//! `System::ALL`, and `Vero::fit`) produces a `GbdtModel`; `gbdt-serve` compiles that model into a
//! branchless node array and scores it with two interchangeable execution
//! strategies. This test pins the contract the serving layer rides on:
//! per-row traversal, blocked batched traversal, and the model's own
//! tree walk must agree **bit for bit** on every trained model — at every
//! scoring-thread budget (`SCORE_THREADS` env, default `1,4`) — the
//! flattening, the self-looping leaf encoding, the parallel chunking, and
//! the block schedule are never allowed to move a ULP (same bar as the
//! storage/kernel sweeps in `ensemble_pinned.rs`).
//!
//! The byte codec rides the same bar: `encode_bytes` round-trips every
//! trained model exactly, and its output for the pinned dataset/config is
//! fingerprint-pinned so a format change must be deliberate.

use gbdt_cluster::Cluster;
use gbdt_core::model::GbdtModel;
use gbdt_core::TrainConfig;
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::Dataset;
use gbdt_quadrants::{single, System};
use gbdt_serve::compile::compile;
use gbdt_serve::exec::{nan_dense_rows, Strategy};
use gbdt_serve::pool;
use vero::{Vero, VeroConfig};

fn dataset() -> Dataset {
    SyntheticConfig {
        n_instances: 600,
        n_features: 12,
        n_classes: 2,
        density: 0.5,
        label_noise: 0.02,
        seed: 9157,
        ..Default::default()
    }
    .generate()
}

fn config() -> TrainConfig {
    TrainConfig::builder().n_trees(4).n_layers(4).build().unwrap()
}

/// Scoring-thread budgets to sweep: the `SCORE_THREADS` env var as a
/// comma-separated list, defaulting to `1,4` so a plain `cargo test`
/// covers both the serial path and the parallel pool. CI runs the suite
/// once per value to also get each budget in isolation.
fn score_thread_budgets() -> Vec<usize> {
    let spec = std::env::var("SCORE_THREADS").unwrap_or_else(|_| "1,4".to_string());
    let budgets: Vec<usize> = spec
        .split(',')
        .map(|t| t.trim().parse().unwrap_or_else(|e| panic!("bad SCORE_THREADS '{spec}': {e}")))
        .collect();
    assert!(!budgets.is_empty(), "SCORE_THREADS must name at least one budget");
    budgets
}

/// Bit-compares both compiled strategies — at every scoring-thread budget,
/// at several request batch shapes — against the model's own tree walk
/// over the full dataset.
fn assert_serving_equivalence(name: &str, model: &GbdtModel, ds: &Dataset) {
    let reference = model.predict_dataset_raw(ds);
    let ens = compile(model, 1).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let rows = nan_dense_rows(ds, ens.n_features);
    let n_rows = ds.n_instances();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for strategy in [Strategy::PerRow, Strategy::Blocked(0), Strategy::Blocked(1)] {
        for &threads in &score_thread_budgets() {
            let executor = pool::parallel(strategy.executor(), threads);
            for batch in [1usize, 7, 64, n_rows] {
                let mut scores = vec![0.0f64; n_rows * ens.n_outputs];
                for (row_chunk, out_chunk) in rows
                    .chunks(batch * ens.n_features)
                    .zip(scores.chunks_mut(batch * ens.n_outputs))
                {
                    executor.predict_into(&ens, row_chunk, out_chunk);
                }
                assert_eq!(
                    bits(&scores),
                    bits(&reference),
                    "{name}: {} at batch {batch} diverged from the tree walk",
                    executor.label(),
                );
            }
        }
    }
    // The byte codec is exact on every trained model, not just synthetic
    // proptest trees.
    let decoded = GbdtModel::decode_bytes(&model.encode_bytes())
        .unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
    assert_eq!(&decoded, model, "{name}: byte codec round trip changed the model");
}

#[test]
fn all_trainers_serve_bit_identically() {
    let ds = dataset();
    let cfg = config();
    let cluster = Cluster::new(2);

    assert_serving_equivalence("single", &single::train(&ds, &cfg), &ds);
    for system in System::ALL {
        assert_serving_equivalence(system.name(), &system.run(&cluster, &ds, &cfg).model, &ds);
    }

    let vcfg = VeroConfig::builder().workers(2).n_trees(4).n_layers(4).build().unwrap();
    assert_serving_equivalence("vero", &Vero::fit(&vcfg, &ds).model.inner, &ds);
}

/// Multiclass (softmax, C = 3): blocked accumulation interleaves three
/// outputs per row and still must match the walk exactly.
#[test]
fn multiclass_models_serve_bit_identically() {
    let ds = SyntheticConfig {
        n_instances: 300,
        n_features: 10,
        n_classes: 3,
        density: 0.7,
        seed: 4242,
        ..Default::default()
    }
    .generate();
    let cfg = TrainConfig::builder().n_trees(3).n_layers(3).build().unwrap();
    assert_serving_equivalence("single/3-class", &single::train(&ds, &cfg), &ds);
}

/// Fuzz the compiled executors against the model's own walk
/// ([`GbdtModel::predict_row_into`] on each row's sparse form) across
/// randomized ensembles: thresholds drawn from a small palette (so rows
/// land exactly on cuts), random default directions, NaN-bearing rows,
/// ragged row counts and batch sizes, at every strategy and thread budget.
#[test]
fn compiled_scores_match_the_walk_under_fuzz() {
    use gbdt_core::tree::Tree;
    use gbdt_core::Objective;

    let mut state = 0x9157_0bad_c0de_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for case in 0..25 {
        let n_features = 1 + (next() % 13) as usize;
        let n_layers = 2 + (next() % 5) as usize;
        let n_trees = 1 + (next() % 24) as usize;
        // A tiny threshold palette makes distinct trees share cuts.
        let palette: Vec<f32> =
            (0..1 + (next() % 6)).map(|_| (next() % 4000) as f32 / 1000.0 - 2.0).collect();
        let mut model = GbdtModel::new(Objective::SquaredError, 0.1, n_features);
        let internal = (1usize << (n_layers - 1)) - 1;
        let total = (1usize << n_layers) - 1;
        for _ in 0..n_trees {
            let mut tree = Tree::new(n_layers, 1);
            for id in 0..internal {
                tree.set_internal(
                    id as u32,
                    (next() % n_features as u64) as u32,
                    0,
                    palette[(next() % palette.len() as u64) as usize],
                    next() & 1 == 0,
                );
            }
            for id in internal..total {
                tree.set_leaf(id as u32, vec![(next() % 1000) as f64 / 500.0 - 1.0]);
            }
            model.trees.push(tree);
        }
        let ens = compile(&model, 1).unwrap();
        let n_rows = 96 + (next() % 64) as usize;
        let rows: Vec<f32> = (0..n_rows * n_features)
            .map(|_| {
                if next() % 9 == 0 {
                    f32::NAN
                } else {
                    (next() % 5000) as f32 / 1000.0 - 2.5
                }
            })
            .collect();
        let mut expect = vec![0.0f64; n_rows];
        for (row, out) in rows.chunks_exact(n_features).zip(expect.chunks_exact_mut(1)) {
            let (feats, vals): (Vec<u32>, Vec<f32>) = row
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.is_nan())
                .map(|(f, &v)| (f as u32, v))
                .unzip();
            model.predict_row_into(&feats, &vals, out);
        }
        let batch = 1 + (next() % n_rows as u64) as usize;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for strategy in [Strategy::PerRow, Strategy::Blocked(0)] {
            for &threads in &score_thread_budgets() {
                let executor = pool::parallel(strategy.executor(), threads);
                let mut got = vec![0.0f64; n_rows];
                for (row_chunk, out_chunk) in
                    rows.chunks(batch * n_features).zip(got.chunks_mut(batch))
                {
                    executor.predict_into(&ens, row_chunk, out_chunk);
                }
                assert_eq!(
                    bits(&got),
                    bits(&expect),
                    "case {case}: {} at batch {batch} diverged from the tree walk",
                    executor.label(),
                );
            }
        }
    }
}

/// FNV-1a over the encoded model bytes — same hash the ensemble pins use.
fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The serialized byte stream for the pinned dataset/config is itself
/// pinned: any change to the wire format (field order, widths, node
/// enumeration) moves this fingerprint and must be a deliberate,
/// version-bumped decision — models at rest outlive the code that wrote
/// them.
#[test]
fn encoded_model_bytes_are_pinned() {
    let model = single::train(&dataset(), &config());
    let bytes = model.encode_bytes();
    let got = fingerprint(&bytes);
    assert_eq!(
        got, FP_ENCODED_SINGLE,
        "encode_bytes stream changed: got {got:#018x}, pinned {FP_ENCODED_SINGLE:#018x}; \
         bump MODEL_FORMAT_VERSION if this is intentional"
    );
}

// Captured when the byte codec landed (PR 7).
const FP_ENCODED_SINGLE: u64 = 0x5c0c_342e_96ef_fbc4;

/// Prints the current codec fingerprint (run with `--nocapture --ignored`).
#[test]
#[ignore]
fn print_codec_fingerprint() {
    let model = single::train(&dataset(), &config());
    println!("FP_ENCODED_SINGLE: {:#018x}", fingerprint(&model.encode_bytes()));
}
