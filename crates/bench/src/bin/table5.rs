//! Table 5 (Appendix A) — efficiency of the horizontal-to-vertical
//! transformation.
//!
//! For RCV1, RCV1-multi, and Synthesis stand-ins: time for data "loading"
//! (here: synthesis + binning of shards), candidate split generation
//! (sketch build/merge), the step-4 repartition under the three wire
//! formats (naïve 12-byte pairs / compressed pairs / Vero's blockified
//! arrays), and the label broadcast — plus the bytes each format moved.

use gbdt_bench::args::Args;
use gbdt_bench::datasets;
use gbdt_bench::output::ExperimentWriter;
use gbdt_cluster::Cluster;
use gbdt_data::dataset::Dataset;
use gbdt_partition::transform::{horizontal_to_vertical, TransformConfig, WireEncoding};
use gbdt_partition::HorizontalPartition;
use serde_json::json;
use std::time::Instant;

fn run_encoding(
    full: &Dataset,
    workers: usize,
    encoding: WireEncoding,
) -> (f64, f64, f64, f64, u64) {
    let partition = HorizontalPartition::new(full.n_instances(), workers);
    let cfg = TransformConfig { encoding, ..Default::default() };
    let cluster = Cluster::new(workers);
    let (outputs, _) = cluster.run(|ctx| {
        let shard = partition.shard(full, ctx.rank());
        let out =
            horizontal_to_vertical(ctx, &shard, partition, &cfg).expect("fault-free transform");
        out.report
    });
    let sketch = outputs.iter().map(|r| r.sketch_seconds).fold(0.0, f64::max);
    let repart_comp = outputs.iter().map(|r| r.repartition_seconds).fold(0.0, f64::max);
    let comm = outputs.iter().map(|r| r.comm_seconds).fold(0.0, f64::max);
    let labels = outputs.iter().map(|r| r.label_seconds).fold(0.0, f64::max);
    let bytes: u64 = outputs.iter().map(|r| r.repartition_bytes_sent).sum();
    (sketch, repart_comp, comm, labels, bytes)
}

fn main() {
    let args = Args::parse(&["scale", "seed"], &[]);
    let scale = args.get_or("scale", 1.0f64);
    let seed = args.get_or("seed", 55u64);

    let mut w = ExperimentWriter::new("table5");
    w.section("transformation cost: naive vs compressed vs blockified (Vero)");

    for name in ["rcv1", "rcv1-multi", "synthesis"] {
        let t_load = Instant::now();
        let full = datasets::load(name, scale, seed);
        let load_s = t_load.elapsed().as_secs_f64();
        let workers = datasets::default_workers(name);

        let mut repart = Vec::new();
        let mut sketch_s = 0.0;
        let mut label_s = 0.0;
        for encoding in [WireEncoding::Naive, WireEncoding::Compressed, WireEncoding::Blockified] {
            let (sk, rc, comm, lb, bytes) = run_encoding(&full, workers, encoding);
            sketch_s = sk;
            label_s = lb;
            repart.push((encoding, rc + comm, bytes));
        }
        w.row(json!({
            "dataset": name,
            "load_s": load_s,
            "get_splits_s": sketch_s,
            "repartition_naive_s": repart[0].1,
            "repartition_compress_s": repart[1].1,
            "repartition_vero_s": repart[2].1,
            "broadcast_label_s": label_s,
            "naive_bytes": repart[0].2,
            "compress_bytes": repart[1].2,
            "vero_bytes": repart[2].2,
        }));
    }
    println!("\nDone. Rows written to results/table5.jsonl");
}
