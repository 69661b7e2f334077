//! Thread-count determinism guard: intra-worker parallelism must never
//! change the trained ensemble, only the wall-clock.
//!
//! The parallel layer (DESIGN.md §4.4) fixes chunk boundaries by instance
//! count — never by thread count — and merges partials in ascending chunk
//! order, so f64 accumulation order is identical for every thread budget.
//! These tests pin that: every trainer grows a bit-identical model at
//! threads = 1 and threads = 4, and the distributed ones move exactly the
//! same bytes. Shapes deliberately exceed the 4096-instance chunk size and
//! the 64-feature parallel split-finding gate so the multi-threaded code
//! paths actually execute.

use gbdt_cluster::Cluster;
use gbdt_core::{GbdtModel, Objective, TrainConfig};
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::Dataset;
use gbdt_quadrants::{qd4, single, System};

/// Larger than one 4096-instance chunk so histogram builds split into
/// multiple chunks, and wider than the 64-feature gate so split finding
/// fans out.
fn dataset(classes: usize, seed: u64) -> Dataset {
    SyntheticConfig {
        n_instances: 6_000,
        n_features: 70,
        n_classes: classes,
        density: 0.3,
        label_noise: 0.02,
        seed,
        ..Default::default()
    }
    .generate()
}

fn config(classes: usize, threads: usize) -> TrainConfig {
    let objective =
        if classes > 2 { Objective::Softmax { n_classes: classes } } else { Objective::Logistic };
    TrainConfig::builder()
        .n_trees(2)
        .n_layers(4)
        .objective(objective)
        .threads(threads)
        .build()
        .unwrap()
}

fn assert_bit_identical(a: &GbdtModel, b: &GbdtModel, tag: &str) {
    assert_eq!(a, b, "{tag}: ensemble differs between thread counts");
}

#[test]
fn single_node_is_thread_count_invariant() {
    let ds = dataset(2, 2001);
    let m1 = single::train(&ds, &config(2, 1));
    let m4 = single::train(&ds, &config(2, 4));
    assert_bit_identical(&m1, &m4, "single");
}

#[test]
fn distributed_trainers_are_thread_count_invariant() {
    let ds = dataset(2, 2003);
    let cluster = Cluster::new(3);
    for system in System::ALL {
        let tag = system.name();
        let r1 = system.run(&cluster, &ds, &config(2, 1));
        let r4 = system.run(&cluster, &ds, &config(2, 4));
        assert_bit_identical(&r1.model, &r4.model, tag);
        assert_eq!(
            r1.stats.total_bytes_sent(),
            r4.stats.total_bytes_sent(),
            "{tag}: collective byte counts differ between thread counts"
        );
    }
}

#[test]
fn uneven_thread_counts_agree_too() {
    // 3 threads over 6000/4096 -> 2 chunks exercises the t > n_chunks clamp
    // and uneven feature-block division in the column-store builders.
    let ds = dataset(2, 2011);
    let cluster = Cluster::new(2);
    let m1 = qd4::train(&cluster, &ds, &config(2, 1)).model;
    let m3 = qd4::train(&cluster, &ds, &config(2, 3)).model;
    let m8 = qd4::train(&cluster, &ds, &config(2, 8)).model;
    assert_bit_identical(&m1, &m3, "qd4 t=3");
    assert_bit_identical(&m1, &m8, "qd4 t=8");
}

#[test]
fn multiclass_is_thread_count_invariant() {
    // C > 2 widens the per-feature histogram stride (C gradient pairs per
    // bin) — the bulk-copy and block-partition arithmetic must still land
    // every pair in the same slot.
    let ds = dataset(4, 2017);
    let cluster = Cluster::new(2);
    // The parameter server's sharded push, and the vertical row-store.
    for system in [System::DimBoostLike, System::Vero] {
        let r1 = system.run(&cluster, &ds, &config(4, 1));
        let r4 = system.run(&cluster, &ds, &config(4, 4));
        assert_bit_identical(&r1.model, &r4.model, system.name());
    }
}

#[test]
fn parallel_meter_reports_plausible_speedup() {
    // Not a perf assertion (CI machines vary) — just that the meter wiring
    // produced sane numbers: busy time accrues and speedup is within the
    // physically possible [~1, threads] band. Each of the 2 workers needs
    // > 4096 local instances or every build takes the unmetered direct path.
    let ds = SyntheticConfig {
        n_instances: 10_000,
        n_features: 70,
        n_classes: 2,
        density: 0.3,
        label_noise: 0.02,
        seed: 2027,
        ..Default::default()
    }
    .generate();
    let cluster = Cluster::new(2);
    let r = System::Qd2AllReduce.run(&cluster, &ds, &config(2, 4));
    let speedup = r.stats.parallel_speedup();
    assert!(speedup > 0.0, "speedup should be positive, got {speedup}");
    assert!(speedup <= 4.0 + 1e-9, "speedup cannot exceed thread count, got {speedup}");
    for w in &r.stats.workers {
        assert_eq!(w.threads, 4);
        assert!(w.parallel_wall_seconds > 0.0, "wall time should accrue");
        assert!(w.parallel_busy_seconds > 0.0, "busy time should accrue");
    }
}
