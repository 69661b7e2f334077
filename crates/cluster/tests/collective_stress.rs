//! Stress/consistency tests of the cluster substrate beyond unit scale:
//! interleaved collectives, large payloads, and agreement between the
//! aggregation primitives at two to five ranks.

use gbdt_cluster::collectives::segment_bounds;
use gbdt_cluster::{Cluster, NetworkCostModel, WireCodec, WorkerCtx};

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
    // The all-reduce, its result broadcast from rank 0, the sharded push and
    // the reduce-scatter must produce the same sums, bit for bit, on a
    // 100k-element buffer at every world size; the all-reduce sends
    // 2(W − 1) messages a rank, the push and the reduce-scatter W − 1.
    let len = 100_000usize;
    for world in [2usize, 3, 4, 5] {
        let cluster = Cluster::with_cost(world, NetworkCostModel::infinite());
        let (outputs, stats) = cluster.run(|ctx| {
            let (rank, w) = (ctx.rank(), ctx.world());
            let base: Vec<f64> = (0..len).map(|i| ((rank + 1) * (i % 97)) as f64).collect();
            let mut messages = Vec::new();
            let mut sent = |ctx: &WorkerCtx| {
                let total = ctx.comm.counters().messages_sent;
                messages.push(total - messages.iter().sum::<u64>());
            };

            let mut all = base.clone();
            ctx.comm.all_reduce_f64(&mut all).unwrap();
            sent(ctx);

            let ranges: Vec<_> = (0..w).map(|s| segment_bounds(len, w, s)).collect();
            let pushed = ctx.comm.ps_push_and_reduce_codec(WireCodec::Grid, &base, &ranges).unwrap();
            sent(ctx);

            let mut scattered = base.clone();
            let (lo, hi) = ctx.comm.reduce_scatter_f64_codec(WireCodec::Grid, &mut scattered).unwrap();
            sent(ctx);

            let mut rooted = if rank == 0 { all.clone() } else { vec![0.0; len] };
            ctx.comm.broadcast_f64(0, &mut rooted).unwrap();

            assert_eq!((lo, hi), ranges[rank], "world={w} rank={rank}");
            let exact = |i: usize| ((i % 97) * w * (w + 1) / 2) as f64;
            for (i, v) in all.iter().enumerate() {
                assert_eq!(v.to_bits(), exact(i).to_bits(), "all-reduce at {i}, world={w}");
                assert_eq!(v.to_bits(), rooted[i].to_bits(), "rooted at {i}, world={w}");
            }
            for (k, (p, s)) in pushed.iter().zip(&scattered[lo..hi]).enumerate() {
                assert_eq!(p.to_bits(), all[lo + k].to_bits(), "push at {}, world={w}", lo + k);
                assert_eq!(s.to_bits(), all[lo + k].to_bits(), "scatter at {}, world={w}", lo + k);
            }
            messages
        });
        let w = world as u64;
        for (rank, messages) in outputs.iter().enumerate() {
            assert_eq!(messages, &[2 * (w - 1), w - 1, w - 1], "world={world} rank={rank}");
        }
        // 100k f64 across the aggregation schemes: traffic was really moved.
        assert!(stats.total_bytes_sent() > (len * 8) as u64);
    }
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
