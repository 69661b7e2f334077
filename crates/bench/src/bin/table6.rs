//! Table 6 (Appendix B) — scalability of Vero.
//!
//! Two Synthesis subsets (the paper's Synthesis-N10M: first 10M instances;
//! Synthesis-D25K: first 25K features) trained with W ∈ {2, 4, 6, 8},
//! reporting run time per tree and speedup over W = 2. The paper's
//! observation to reproduce: sub-linear speedup, better on the
//! instance-heavy subset's sibling (N10M scales better than D25K because
//! node splitting touches every instance on every worker).

use gbdt_bench::args::Args;
use gbdt_bench::output::ExperimentWriter;
use gbdt_cluster::Cluster;
use gbdt_core::TrainConfig;
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_quadrants::System;
use serde_json::json;

fn main() {
    let args = Args::parse(&["scale", "trees", "seed"], &[]);
    let scale = args.get_or("scale", 1.0f64);
    let trees = args.get_or("trees", 3usize);
    let seed = args.get_or("seed", 66u64);

    let mut w = ExperimentWriter::new("table6");
    let cfg = TrainConfig::builder()
        .n_trees(trees)
        .n_layers(8)
        .threads(args.threads())
        .wire(args.wire())
        .build()
        .unwrap();

    // Paper subsets, scaled like the synthesis preset (N/2000, D/40),
    // keeping ~100 nonzeros per row.
    let subsets = [
        ("synthesis-n10m", (10_000_000.0 / (2_000.0 * scale)) as usize, 2_500usize, 0.04),
        ("synthesis-d25k", (50_000_000.0 / (2_000.0 * scale)) as usize, 625usize, 0.16),
    ];

    for (name, n, d, density) in subsets {
        let ds = SyntheticConfig {
            n_instances: n.max(2_000),
            n_features: d,
            n_classes: 2,
            density,
            seed,
            ..Default::default()
        }
        .generate();
        w.section(&format!("{name}: N={} D={}", ds.n_instances(), ds.n_features()));
        let mut base = None;
        for workers in [2usize, 4, 6, 8] {
            let result = System::Vero.run(&Cluster::new(workers), &ds, &cfg);
            let per_tree = result.mean_tree_seconds();
            let base_time = *base.get_or_insert(per_tree);
            w.row(json!({
                "dataset": name,
                "workers": workers,
                "s_per_tree": per_tree,
                "comp_s": result.mean_tree_comp_seconds(),
                "comm_s": result.mean_tree_comm_seconds(),
                "speedup_vs_2": base_time / per_tree,
            }));
        }
    }
    println!("\nDone. Rows written to results/table6.jsonl");
    println!("note: workers are threads on this machine; with more workers than");
    println!("cores, comp seconds reflect oversubscription — speedup shape, not");
    println!("absolute wall time, is the reproduction target.");
}
