//! Pinned per-rank traffic and memory gauges.
//!
//! `wire_determinism` and `chaos_recovery` compare a run's byte counts with
//! a second run of the same build, and the benchmark bounds `wire_mb` at
//! 5 %, so a collective that is reordered, duplicated or re-sized the same
//! way on every run would pass all of them. These constants pin what each
//! system actually sends — per rank: bytes, messages, per-layer histogram
//! wire bytes — plus the two gauges the growth loop reports (histogram peak,
//! index bytes) and the per-tree record count, on the `ensemble_pinned`
//! dataset and config at W = 2 and W = 3. A change that moves a value here
//! changes what crosses the wire or what a worker holds and must say so.

use gbdt_cluster::stats::ClusterStats;
use gbdt_cluster::Cluster;
use gbdt_core::TrainConfig;
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::Dataset;
use gbdt_quadrants::{featpar, qd1, qd2, qd3, qd4, yggdrasil, Aggregation};
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

/// One line per run: the per-tree record count, then for every rank its
/// bytes sent, messages sent, histogram peak, index bytes and per-layer
/// histogram wire bytes.
fn describe(per_tree: usize, stats: &ClusterStats) -> String {
    let mut line = format!("trees={per_tree}");
    for (rank, w) in stats.workers.iter().enumerate() {
        line.push_str(&format!(
            " | r{rank} bytes={} msgs={} hist={} index={} layers={:?}",
            w.bytes_sent, w.messages_sent, w.histogram_peak_bytes, w.index_bytes, w.layer_wire_bytes
        ));
    }
    line
}

/// `(label, line)` for every system at world size `world`, in a fixed order.
fn measure(world: usize) -> Vec<(String, String)> {
    let ds = dataset();
    let cfg = config();
    let cluster = Cluster::new(world);
    let mut out = Vec::new();
    let mut push = |name: &str, r: gbdt_quadrants::DistTrainResult| {
        out.push((format!("{name} W={world}"), describe(r.per_tree.len(), &r.stats)));
    };
    push("qd1", qd1::train(&cluster, &ds, &cfg));
    push("qd2/all-reduce", qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce));
    push("qd2/reduce-scatter", qd2::train(&cluster, &ds, &cfg, Aggregation::ReduceScatter));
    push("qd2/parameter-server", qd2::train(&cluster, &ds, &cfg, Aggregation::ParameterServer));
    push("qd3", qd3::train(&cluster, &ds, &cfg));
    push("qd4", qd4::train(&cluster, &ds, &cfg));
    push("yggdrasil", yggdrasil::train(&cluster, &ds, &cfg));
    push("featpar", featpar::train(&cluster, &ds, &cfg));
    let vcfg = VeroConfig::builder().workers(world).n_trees(4).n_layers(4).build().unwrap();
    let outcome = Vero::fit(&vcfg, &ds);
    out.push((format!("vero W={world}"), describe(outcome.per_tree.len(), &outcome.stats)));
    out
}

#[test]
fn traffic_and_gauges_match_the_pinned_values() {
    let measured: Vec<(String, String)> = [2, 3].into_iter().flat_map(measure).collect();
    assert_eq!(measured.len(), PINNED.len(), "one pinned line per system and world size");
    let mut moved = Vec::new();
    for ((label, got), (pinned_label, pinned)) in measured.iter().zip(PINNED) {
        assert_eq!(label, pinned_label, "system order changed");
        if got != pinned {
            moved.push(format!("{label}\n   pinned: {pinned}\n      got: {got}"));
        }
    }
    assert!(moved.is_empty(), "traffic or gauges moved:\n{}", moved.join("\n"));
}

/// The histogram lifetime rule, exactly: a histogram lives until its node
/// is scanned and no later subtraction reads it. On complete trees of L
/// layers the last built layer (2^(L−2) nodes) is filled, derived, scanned
/// and freed one pair at a time beside the 2^(L−3) parents it derives from,
/// so every policy that fills node by node peaks at (2^(L−3) + 1) ·
/// Sizehist of its local width: D/W features on a vertical worker, D on a
/// QD2 worker. QD1 fills the whole layer in one column pass, so it holds
/// 2^(L−2) · Sizehist — the cost of its instance-to-node index (§3.2.3).
#[test]
fn histogram_peaks_follow_the_lifetime_rule_on_complete_trees() {
    use gbdt_core::histogram::histogram_size_bytes;
    let (d, world) = (12, 3);
    let ds = SyntheticConfig {
        n_instances: 8_000,
        n_features: d,
        n_classes: 2,
        dense: true,
        seed: 9161,
        ..Default::default()
    }
    .generate();
    let cluster = Cluster::new(world);
    for n_layers in [4, 5] {
        let cfg = TrainConfig::builder().n_trees(2).n_layers(n_layers).build().unwrap();
        let sizehist = |features| histogram_size_bytes(features, cfg.n_bins, 1) as u64;
        let whole_layer = (1u64 << (n_layers - 2)) * sizehist(d);
        let node_by_node = (1u64 << (n_layers - 3)) + 1;
        let qd2_peak = node_by_node * sizehist(d);
        let group_peak = node_by_node * sizehist(d / world);
        let no_subtraction = qd4::Qd4Options { use_subtraction: false };
        let transform = gbdt_partition::transform::TransformConfig::default();
        let runs = [
            ("qd1", qd1::train(&cluster, &ds, &cfg), whole_layer),
            ("qd2/all-reduce", qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce), qd2_peak),
            ("qd2/sharded", qd2::train(&cluster, &ds, &cfg, Aggregation::ReduceScatter), qd2_peak),
            ("qd3", qd3::train(&cluster, &ds, &cfg), group_peak),
            ("qd4", qd4::train(&cluster, &ds, &cfg), group_peak),
            (
                "qd4 without subtraction",
                qd4::train_with_options(&cluster, &ds, &cfg, &transform, no_subtraction),
                group_peak,
            ),
            ("yggdrasil", yggdrasil::train(&cluster, &ds, &cfg), group_peak),
            ("featpar", featpar::train(&cluster, &ds, &cfg), group_peak),
        ];
        for (name, result, expected) in runs {
            let leaves: Vec<usize> = result.model.trees.iter().map(|t| t.n_leaves()).collect();
            let complete = vec![1 << (n_layers - 1); cfg.n_trees];
            assert_eq!(leaves, complete, "{name} L={n_layers}: incomplete trees");
            for (rank, w) in result.stats.workers.iter().enumerate() {
                assert_eq!(
                    w.histogram_peak_bytes, expected,
                    "{name} L={n_layers} rank {rank}: histogram peak"
                );
            }
        }
    }
}

/// Prints the current lines as the `PINNED` table (run with
/// `--nocapture --ignored`).
#[test]
#[ignore]
fn print_traffic() {
    for (label, line) in [2, 3].into_iter().flat_map(measure) {
        println!("    ({label:?}, {line:?}),");
    }
}

// Captured at the parent of the one-loop refactor (PR 24); that refactor had
// to reproduce every value. Re-pinned five times since: for the grid wire
// codec and the ring all-reduce without its rotation hop (only the QD1/QD2
// lines moved); for the bit-packed transformation (delta-coded sketches,
// packed step-4 blocks, labels as one all-gather: every system but featpar
// sends fewer bytes; at W = 3 ranks 1 and 2 send one more message, their
// labels to each peer); for the all-reduce as the sharded push plus a
// gather of the reduced segments (only the QD1/QD2 W = 3 lines moved, with
// the same message counts and gauges: owners receive raw local segments
// instead of re-encoded partial sums, so each system's total fell or held;
// at W = 2 every message is the ring's by construction); and for Yggdrasil
// holding its column group once (only the two Yggdrasil lines' `index=`
// gauges moved: its index is now the node ranges and the split's scratch,
// and the pairs it used to copy beside its columns are its data); and for
// the histogram lifetime rule (only the `hist=` gauges of the QD2 and
// vertical lines moved: the last built layer is filled, derived, scanned and
// freed pair by pair, 4 → 3 histograms at L = 4; QD1's whole-layer pass and
// every byte, message and index value are unchanged). Regenerate
// only for a change that intentionally alters what is sent or held, and say
// so in the commit.
const PINNED: &[(&str, &str)] = &[
    ("qd1 W=2", "trees=4 | r0 bytes=55501 msgs=98 hist=15360 index=1200 layers=[9359, 17259, 24609] | r1 bytes=54197 msgs=98 hist=15360 index=1200 layers=[9361, 16920, 24094]"),
    ("qd2/all-reduce W=2", "trees=4 | r0 bytes=29728 msgs=74 hist=11520 index=2416 layers=[9359, 8260, 7835] | r1 bytes=28702 msgs=74 hist=11520 index=2416 layers=[9361, 7925, 7594]"),
    ("qd2/reduce-scatter W=2", "trees=4 | r0 bytes=17647 msgs=70 hist=11520 index=2416 layers=[4688, 3628, 3280] | r1 bytes=17374 msgs=70 hist=11520 index=2416 layers=[4680, 3556, 3476]"),
    ("qd2/parameter-server W=2", "trees=4 | r0 bytes=17647 msgs=70 hist=11520 index=2416 layers=[4688, 3628, 3280] | r1 bytes=17374 msgs=70 hist=11520 index=2416 layers=[4680, 3556, 3476]"),
    ("qd3 W=2", "trees=4 | r0 bytes=8751 msgs=32 hist=5760 index=7216 layers=[] | r1 bytes=8018 msgs=29 hist=5760 index=7216 layers=[]"),
    ("qd4 W=2", "trees=4 | r0 bytes=8751 msgs=32 hist=5760 index=4816 layers=[] | r1 bytes=8018 msgs=29 hist=5760 index=4816 layers=[]"),
    ("yggdrasil W=2", "trees=4 | r0 bytes=8751 msgs=32 hist=5760 index=7444 layers=[] | r1 bytes=8018 msgs=29 hist=5760 index=7428 layers=[]"),
    ("featpar W=2", "trees=4 | r0 bytes=1840 msgs=12 hist=5760 index=4816 layers=[] | r1 bytes=1840 msgs=12 hist=5760 index=4816 layers=[]"),
    ("vero W=2", "trees=4 | r0 bytes=8751 msgs=32 hist=5760 index=4816 layers=[] | r1 bytes=8018 msgs=29 hist=5760 index=4816 layers=[]"),
    ("qd1 W=3", "trees=4 | r0 bytes=72973 msgs=196 hist=15360 index=800 layers=[12458, 22558, 32566] | r1 bytes=65615 msgs=195 hist=15360 index=800 layers=[12492, 21105, 28486] | r2 bytes=70010 msgs=195 hist=15360 index=800 layers=[12504, 22169, 31695]"),
    ("qd2/all-reduce W=3", "trees=4 | r0 bytes=38975 msgs=148 hist=11520 index=1616 layers=[12458, 10502, 10624] | r1 bytes=33532 msgs=147 hist=11520 index=1616 layers=[12492, 9461, 8047] | r2 bytes=36241 msgs=147 hist=11520 index=1616 layers=[12504, 10067, 10028]"),
    ("qd2/reduce-scatter W=3", "trees=4 | r0 bytes=23623 msgs=140 hist=11520 index=1616 layers=[6172, 4407, 4099] | r1 bytes=20502 msgs=139 hist=11520 index=1616 layers=[6212, 4106, 2972] | r2 bytes=21513 msgs=139 hist=11520 index=1616 layers=[6254, 3954, 3983]"),
    ("qd2/parameter-server W=3", "trees=4 | r0 bytes=23623 msgs=140 hist=11520 index=1616 layers=[6172, 4407, 4099] | r1 bytes=20502 msgs=139 hist=11520 index=1616 layers=[6212, 4106, 2972] | r2 bytes=21513 msgs=139 hist=11520 index=1616 layers=[6254, 3954, 3983]"),
    ("qd3 W=3", "trees=4 | r0 bytes=11796 msgs=52 hist=3840 index=7216 layers=[] | r1 bytes=9741 msgs=55 hist=3840 index=7216 layers=[] | r2 bytes=9996 msgs=45 hist=3840 index=7216 layers=[]"),
    ("qd4 W=3", "trees=4 | r0 bytes=11796 msgs=52 hist=3840 index=4816 layers=[] | r1 bytes=9741 msgs=55 hist=3840 index=4816 layers=[] | r2 bytes=9996 msgs=45 hist=3840 index=4816 layers=[]"),
    ("yggdrasil W=3", "trees=4 | r0 bytes=11796 msgs=52 hist=3840 index=7428 layers=[] | r1 bytes=9741 msgs=55 hist=3840 index=7412 layers=[] | r2 bytes=9996 msgs=45 hist=3840 index=7284 layers=[]"),
    ("featpar W=3", "trees=4 | r0 bytes=3680 msgs=24 hist=3840 index=4816 layers=[] | r1 bytes=3176 msgs=24 hist=3840 index=4816 layers=[] | r2 bytes=3680 msgs=24 hist=3840 index=4816 layers=[]"),
    ("vero W=3", "trees=4 | r0 bytes=11796 msgs=52 hist=3840 index=4816 layers=[] | r1 bytes=9741 msgs=55 hist=3840 index=4816 layers=[] | r2 bytes=9996 msgs=45 hist=3840 index=4816 layers=[]"),
];
