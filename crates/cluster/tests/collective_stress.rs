//! Stress/consistency tests of the cluster substrate beyond unit scale:
//! interleaved collectives, large payloads, and agreement between the three
//! aggregation primitives.

#![allow(clippy::unwrap_used)]

use gbdt_cluster::collectives::segment_bounds;
use gbdt_cluster::{Cluster, NetworkCostModel, WireCodec};

#[test]
fn interleaved_collectives_keep_tags_aligned() {
    // A mix of broadcasts, all-reduces and gathers in a loop — any tag
    // misalignment would deadlock or cross wires.
    let cluster = Cluster::with_cost(4, NetworkCostModel::infinite());
    let (outputs, _) = cluster.run(|ctx| {
        let mut acc = 0.0f64;
        for round in 0..10 {
            let mut buf = vec![(ctx.rank() + round) as f64; 17];
            ctx.comm.all_reduce_f64(&mut buf).unwrap();
            acc += buf[0];
            let payload = if ctx.rank() == round % 4 {
                bytes::Bytes::from(vec![round as u8])
            } else {
                bytes::Bytes::new()
            };
            let got = ctx.comm.broadcast(round % 4, payload).unwrap();
            assert_eq!(got[0] as usize, round);
            ctx.comm.barrier().unwrap();
        }
        acc
    });
    // Each round's all-reduce sums (0+r)+(1+r)+(2+r)+(3+r) = 6 + 4r.
    let expected: f64 = (0..10).map(|r| 6.0 + 4.0 * r as f64).sum();
    for o in outputs {
        assert_eq!(o, expected);
    }
}

#[test]
fn aggregation_primitives_agree_on_large_buffers() {
    // all-reduce, its result broadcast from rank 0, and PS-sharded
    // reduction must produce identical sums on a 100k-element buffer.
    let len = 100_000usize;
    let world = 3;
    let cluster = Cluster::with_cost(world, NetworkCostModel::infinite());
    let (outputs, stats) = cluster.run(|ctx| {
        let base: Vec<f64> =
            (0..len).map(|i| ((ctx.rank() + 1) * (i % 97)) as f64).collect();

        let mut ring = base.clone();
        ctx.comm.all_reduce_f64(&mut ring).unwrap();

        let mut rooted = if ctx.rank() == 0 { ring.clone() } else { vec![0.0; len] };
        ctx.comm.broadcast_f64(0, &mut rooted).unwrap();

        let ranges: Vec<_> = (0..ctx.world()).map(|w| segment_bounds(len, ctx.world(), w)).collect();
        let shard = ctx.comm.ps_push_and_reduce_codec(WireCodec::Grid, &base, &ranges).unwrap();
        let (lo, _hi) = ranges[ctx.rank()];

        // Compare my PS shard against the same region of the ring result.
        for (k, &v) in shard.iter().enumerate() {
            assert_eq!(v, ring[lo + k], "ps vs ring at {k}");
        }
        for (a, b) in ring.iter().zip(&rooted) {
            assert_eq!(a, b, "ring vs rooted");
        }
        ring[0]
    });
    // Element 0 is (rank + 1) · (0 % 97) = 0 on every worker.
    let expected = 0.0f64;
    for o in outputs {
        assert_eq!(o, expected);
    }
    // 100k f64 across three aggregation schemes: traffic was really moved.
    assert!(stats.total_bytes_sent() > (len * 8) as u64);
}

#[test]
fn cost_model_scales_with_bandwidth() {
    // Same program, 10x bandwidth -> ~1/10 modelled comm time (latency
    // fixed at zero for exactness).
    let run = |gbps: f64| {
        let model = NetworkCostModel { latency_s: 0.0, bandwidth_bytes_per_s: gbps * 1e9 / 8.0 };
        let cluster = Cluster::with_cost(2, model);
        let (_, stats) = cluster.run(|ctx| {
            let mut buf = vec![1.0f64; 50_000];
            ctx.comm.all_reduce_f64(&mut buf).unwrap();
        });
        stats.comm_seconds()
    };
    let slow = run(1.0);
    let fast = run(10.0);
    assert!((slow / fast - 10.0).abs() < 0.5, "slow {slow} fast {fast}");
}

#[test]
fn per_worker_byte_accounting_is_symmetric() {
    let cluster = Cluster::with_cost(4, NetworkCostModel::infinite());
    let (_, stats) = cluster.run(|ctx| {
        let payload = bytes::Bytes::from(vec![0u8; 1000]);
        ctx.comm.all_gather(payload).unwrap();
    });
    let sent: u64 = stats.workers.iter().map(|w| w.bytes_sent).sum();
    let received: u64 = stats.workers.iter().map(|w| w.bytes_received).sum();
    assert_eq!(sent, received, "every sent byte is received exactly once");
    assert_eq!(sent, 4 * 3 * 1000);
    for w in &stats.workers {
        assert_eq!(w.messages_sent, 3);
    }
}
