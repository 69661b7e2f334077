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
// to reproduce every value. Regenerate only for a change that intentionally
// alters what is sent or held, and say so in the commit.
const PINNED: &[(&str, &str)] = &[
    ("qd1 W=2", "trees=4 | r0 bytes=166938 msgs=146 hist=15360 index=1200 layers=[23040, 46080, 92160] | r1 bytes=166466 msgs=146 hist=15360 index=1200 layers=[23040, 46080, 92160]"),
    ("qd2/all-reduce W=2", "trees=4 | r0 bytes=97818 msgs=110 hist=15360 index=2416 layers=[23040, 23040, 46080] | r1 bytes=97346 msgs=110 hist=15360 index=2416 layers=[23040, 23040, 46080]"),
    ("qd2/reduce-scatter W=2", "trees=4 | r0 bytes=38155 msgs=90 hist=15360 index=2416 layers=[7680, 7680, 15360] | r1 bytes=37746 msgs=90 hist=15360 index=2416 layers=[7680, 7680, 15360]"),
    ("qd2/parameter-server W=2", "trees=4 | r0 bytes=38155 msgs=90 hist=15360 index=2416 layers=[7680, 7680, 15360] | r1 bytes=37746 msgs=90 hist=15360 index=2416 layers=[7680, 7680, 15360]"),
    ("qd3 W=2", "trees=4 | r0 bytes=12774 msgs=32 hist=7680 index=7216 layers=[] | r1 bytes=10864 msgs=29 hist=7680 index=7216 layers=[]"),
    ("qd4 W=2", "trees=4 | r0 bytes=12774 msgs=32 hist=7680 index=4816 layers=[] | r1 bytes=10864 msgs=29 hist=7680 index=4816 layers=[]"),
    ("yggdrasil W=2", "trees=4 | r0 bytes=12774 msgs=32 hist=7680 index=15690 layers=[] | r1 bytes=10864 msgs=29 hist=7680 index=15654 layers=[]"),
    ("featpar W=2", "trees=4 | r0 bytes=1840 msgs=12 hist=7680 index=4816 layers=[] | r1 bytes=1840 msgs=12 hist=7680 index=4816 layers=[]"),
    ("vero W=2", "trees=4 | r0 bytes=12774 msgs=32 hist=7680 index=4816 layers=[] | r1 bytes=10864 msgs=29 hist=7680 index=4816 layers=[]"),
    ("qd1 W=3", "trees=4 | r0 bytes=185796 msgs=244 hist=15360 index=800 layers=[25600, 51200, 102400] | r1 bytes=184076 msgs=243 hist=15360 index=800 layers=[25600, 51200, 102400] | r2 bytes=183904 msgs=243 hist=15360 index=800 layers=[25600, 51200, 102400]"),
    ("qd2/all-reduce W=3", "trees=4 | r0 bytes=108996 msgs=184 hist=15360 index=1616 layers=[25600, 25600, 51200] | r1 bytes=107276 msgs=183 hist=15360 index=1616 layers=[25600, 25600, 51200] | r2 bytes=107104 msgs=183 hist=15360 index=1616 layers=[25600, 25600, 51200]"),
    ("qd2/reduce-scatter W=3", "trees=4 | r0 bytes=51110 msgs=160 hist=15360 index=1616 layers=[10240, 10240, 20480] | r1 bytes=49516 msgs=159 hist=15360 index=1616 layers=[10240, 10240, 20480] | r2 bytes=49344 msgs=159 hist=15360 index=1616 layers=[10240, 10240, 20480]"),
    ("qd2/parameter-server W=3", "trees=4 | r0 bytes=51110 msgs=160 hist=15360 index=1616 layers=[10240, 10240, 20480] | r1 bytes=49516 msgs=159 hist=15360 index=1616 layers=[10240, 10240, 20480] | r2 bytes=49344 msgs=159 hist=15360 index=1616 layers=[10240, 10240, 20480]"),
    ("qd3 W=3", "trees=4 | r0 bytes=18076 msgs=52 hist=5120 index=7216 layers=[] | r1 bytes=12000 msgs=54 hist=5120 index=7216 layers=[] | r2 bytes=12254 msgs=44 hist=5120 index=7216 layers=[]"),
    ("qd4 W=3", "trees=4 | r0 bytes=18076 msgs=52 hist=5120 index=4816 layers=[] | r1 bytes=12000 msgs=54 hist=5120 index=4816 layers=[] | r2 bytes=12254 msgs=44 hist=5120 index=4816 layers=[]"),
    ("yggdrasil W=3", "trees=4 | r0 bytes=18076 msgs=52 hist=5120 index=12086 layers=[] | r1 bytes=12000 msgs=54 hist=5120 index=12056 layers=[] | r2 bytes=12254 msgs=44 hist=5120 index=12026 layers=[]"),
    ("featpar W=3", "trees=4 | r0 bytes=3680 msgs=24 hist=5120 index=4816 layers=[] | r1 bytes=3176 msgs=24 hist=5120 index=4816 layers=[] | r2 bytes=3680 msgs=24 hist=5120 index=4816 layers=[]"),
    ("vero W=3", "trees=4 | r0 bytes=18076 msgs=52 hist=5120 index=4816 layers=[] | r1 bytes=12000 msgs=54 hist=5120 index=4816 layers=[] | r2 bytes=12254 msgs=44 hist=5120 index=4816 layers=[]"),
];
