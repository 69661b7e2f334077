//! Property-based tests across the full pipeline: for arbitrary small
//! datasets and cluster shapes, the vertical transformation is lossless and
//! horizontal/vertical training agree.

use gbdt_cluster::Cluster;
use gbdt_core::TrainConfig;
use gbdt_data::sparse::CsrBuilder;
use gbdt_data::{Dataset, FeatureMatrix};
use gbdt_partition::transform::{horizontal_to_vertical, TransformConfig};
use gbdt_partition::HorizontalPartition;
use gbdt_quadrants::{qd2, qd4, Aggregation};
use proptest::prelude::*;

/// Arbitrary small labeled sparse dataset.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    let d = 8usize;
    (
        prop::collection::vec(
            (
                prop::collection::btree_map(0..d as u32, -10.0f32..10.0, 1..6),
                0u8..2,
            ),
            20..80,
        ),
        any::<u64>(),
    )
        .prop_map(move |(rows, _seed)| {
            let mut b = CsrBuilder::new(d);
            let mut labels = Vec::new();
            for (row, y) in &rows {
                let entries: Vec<(u32, f32)> = row.iter().map(|(&f, &v)| (f, v)).collect();
                b.push_row(&entries).unwrap();
                labels.push(f32::from(*y));
            }
            Dataset::new(FeatureMatrix::Sparse(b.build()), labels, 2, "prop").unwrap()
        })
        .prop_filter("need both classes", |ds| {
            ds.labels.contains(&0.0) && ds.labels.contains(&1.0)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn transform_is_lossless_for_any_dataset(ds in arb_dataset(), workers in 1usize..4) {
        let partition = HorizontalPartition::new(ds.n_instances(), workers);
        let tcfg = TransformConfig::default();
        let cluster = Cluster::new(workers);
        let ds_ref = &ds;
        let tcfg_ref = &tcfg;
        let (outputs, _) = cluster.run(move |ctx| {
            let shard = partition.shard(ds_ref, ctx.rank());
            horizontal_to_vertical(ctx, &shard, partition, tcfg_ref).unwrap()
        });
        // Reference binning with the distributed cuts.
        let reference = outputs[0].cuts.apply(&ds);
        let grouping = &outputs[0].grouping;
        for (w, out) in outputs.iter().enumerate() {
            prop_assert_eq!(out.labels.as_slice(), ds.labels.as_slice());
            let local = &out.local_data;
            for i in 0..ds.n_instances() {
                for (local_id, &global) in grouping.group_features(w).iter().enumerate() {
                    prop_assert_eq!(
                        local.get(i, local_id as u32),
                        reference.get(i, global),
                        "worker {} row {} feature {}", w, i, global
                    );
                }
            }
        }
    }

    #[test]
    fn horizontal_and_vertical_agree_on_any_dataset(ds in arb_dataset(), workers in 1usize..4) {
        let cfg = TrainConfig::builder().n_trees(2).n_layers(4).build().unwrap();
        let cluster = Cluster::new(workers);
        let m2 = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce).model;
        let m4 = qd4::train(&cluster, &ds, &cfg).model;
        let p2 = m2.predict_dataset_raw(&ds);
        let p4 = m4.predict_dataset_raw(&ds);
        for (a, b) in p2.iter().zip(&p4) {
            prop_assert!((a - b).abs() < 1e-6, "{} vs {}", a, b);
        }
    }
}
