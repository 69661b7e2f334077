//! What the benchmark declares: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics with the end-to-end metric each should
//! move. `--list --json` prints this registry; a test holds
//! `BENCHMARK.json` equal to it, so the two cannot drift.

use crate::serve::{ServeShape, PACED_RATES};
use crate::train::{System, TrainShape};
use gbdt_serve::Strategy;
use serde_json::{json, Value};

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Train(TrainShape),
    Serve(ServeShape),
}

/// One workload: its inputs are generated from the seed alone.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why it is in the benchmark, shape included, on one line.
    pub why: &'static str,
    pub shape: Shape,
}

pub const TRAIN_LD_DENSE: &str = "train-ld-dense";
pub const TRAIN_HD_SPARSE: &str = "train-hd-sparse";
pub const TRAIN_QUADRANTS: &str = "train-quadrants";
pub const SERVE_BATCH: &str = "serve-batch";
pub const SERVE_PLANE: &str = "serve-plane";

const TRAIN: &[&str] = &[TRAIN_LD_DENSE, TRAIN_HD_SPARSE, TRAIN_QUADRANTS];
const SERVE: &[&str] = &[SERVE_BATCH, SERVE_PLANE];
const ALL: &[&str] = &[
    TRAIN_LD_DENSE,
    TRAIN_HD_SPARSE,
    TRAIN_QUADRANTS,
    SERVE_BATCH,
    SERVE_PLANE,
];

/// The five workloads.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: TRAIN_LD_DENSE,
        why: "LightGBM policy (qd2, reduce-scatter), 300000x50 dense, C=2, T=120, L=7: many rows, few features; histogram build and the row index dominate, so a fill-kernel change must show here",
        shape: Shape::Train(TrainShape {
            rows: 300_000,
            features: 50,
            density: None,
            classes: 2,
            trees: 120,
            layers: 7,
            systems: &[System::LightGbm],
        }),
    },
    Workload {
        name: TRAIN_HD_SPARSE,
        why: "Vero::fit, 80000x4000 at density 0.02, C=2, T=12, L=7: the high-dimensional sparse regime Vero targets; split finding over D*q bins dominates, so a fill-kernel change must not move it",
        shape: Shape::Train(TrainShape {
            rows: 80_000,
            features: 4_000,
            density: Some(0.02),
            classes: 2,
            trees: 12,
            layers: 7,
            systems: &[System::Vero],
        }),
    },
    Workload {
        name: TRAIN_QUADRANTS,
        why: "all 8 systems in turn, 25000x300 at density 0.2, C=3, T=12, L=6: column scans, both indexes, all four aggregation paths, multiclass fills; guards a one-loop trainer refactor",
        shape: Shape::Train(TrainShape {
            rows: 25_000,
            features: 300,
            density: Some(0.2),
            classes: 3,
            trees: 12,
            layers: 6,
            systems: &System::ALL,
        }),
    },
    Workload {
        name: SERVE_BATCH,
        why: "router, 1 replica, 1 closed-loop client; 2048 trees x 7 layers x 64 features (5 MiB hot, past L2), blocked, batch 128, 500 requests/pass: scoring is the latency; an executor change must show",
        shape: Shape::Serve(ServeShape {
            replicas: 1,
            clients: 1,
            trees: 2_048,
            layers: 7,
            features: 64,
            strategy: Strategy::Blocked(0),
            batch: 128,
            requests: 500,
            publishes: 0,
        }),
    },
    Workload {
        name: SERVE_PLANE,
        why: "router, 2 replicas, 2 closed-loop clients; 64 trees x 5 layers x 32 features, per-row, batch 4, 200000 requests/pass, 2 hot swaps: hops, queues, codecs dominate; an executor change must not show",
        shape: Shape::Serve(ServeShape {
            replicas: 2,
            clients: 2,
            trees: 64,
            layers: 5,
            features: 32,
            strategy: Strategy::PerRow,
            batch: 4,
            requests: 200_000,
            publishes: 2,
        }),
    },
];

/// Finds a workload by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `--smoke`: a fiftieth of the rows and requests, same pass structure and
/// checks.
pub fn smoke(shape: Shape) -> Shape {
    const SHRINK: usize = 50;
    match shape {
        Shape::Train(t) => Shape::Train(TrainShape {
            rows: t.rows / SHRINK,
            ..t
        }),
        Shape::Serve(s) => Shape::Serve(ServeShape {
            requests: s.requests / SHRINK,
            ..s
        }),
    }
}

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see. Every workload reports every
/// one of them, from its untraced timed passes.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// Wall and CPU time of a pass are not here: on the reference VM they move
/// 15-35 % with the host's memory contention (see README, "Steadiness"), and
/// a metric that cannot repeat within 10 % is reported per-layer
/// (`run.pass_s`, `run.cpu_s`), never kept with a wider bound. `setup_s` is
/// the exception the benchmark contract makes: it must be an end-to-end
/// metric in seconds, so it carries the contract's widest bound.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median of three full set-ups: input generation, hold-out split or compilation, and the warm-up pass (a T=1 training call per system, or a tenth of a traffic pass)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        what: "peak resident set (VmHWM, MiB) of a process that sets up once and runs one pass: the larger of the first set-up's peak and the first timed pass's (watermark reset before it)",
    },
    EndToEnd {
        name: "wire_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        what: "bytes one timed pass puts on the wire (1e6 bytes): what all training workers sent, as the trainers report it, or the request, response and publish frames the serving clients exchange with the router, sized by the public frame codecs; repeats exactly for a seed",
    },
];

/// How a per-layer value is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum How {
    /// The benchmark times a call into the layer's public function on the
    /// workload's own data.
    Timed,
    /// Read from the result the timed passes returned.
    Reported,
    /// Computed from other metrics of the same run.
    Derived,
    /// Produced by a model inside the program, not by a measurement.
    Modelled,
    /// From an extra pass of the traced run that the thread scheduler
    /// shapes; informational.
    Informational,
}

impl How {
    pub fn label(self) -> &'static str {
        match self {
            How::Timed => "timed",
            How::Reported => "reported",
            How::Derived => "derived",
            How::Modelled => "modelled",
            How::Informational => "informational",
        }
    }
}

/// A metric of one layer, reported by the traced run only. It reads 0 on a
/// workload whose path does not cross the layer (`on` lists the others).
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub how: How,
    /// Workloads that measure it.
    pub on: &'static [&'static str],
    /// The end-to-end metric it should move, and where.
    pub moves: &'static str,
}

fn layer(
    name: &str,
    unit: &'static str,
    better: Better,
    how: How,
    on: &'static [&'static str],
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name: name.to_string(),
        unit,
        better,
        how,
        on,
        moves,
    }
}

/// Every per-layer metric, in the order the traced run prints them.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    use How::{Derived, Informational, Modelled, Reported, Timed};
    const QUADRANTS: &[&str] = &[TRAIN_QUADRANTS];
    const PLANE: &[&str] = &[SERVE_PLANE];
    let mut v = vec![
        // the run itself: the timings that do not repeat within 10 % on the
        // reference VM and are therefore not end-to-end metrics
        layer("run.pass_s", "s", Lower, Timed, ALL, "median wall of one timed pass: a full T-tree training call per system of the workload, or one closed-loop traffic pass"),
        layer("run.cpu_s", "s", Lower, Timed, ALL, "median CPU seconds (user + system, every thread) of one timed pass, so a wall-clock gain bought with more busy threads shows"),
        // data
        layer("data.generate_s", "s", Lower, Timed, TRAIN, "setup_s on every train-*"),
        layer("data.store_mb", "MB", Lower, Timed, TRAIN, "peak_rss_mb on train-ld-dense"),
        // core
        layer("core.sketch_s", "s", Lower, Timed, TRAIN, "setup_s and run.pass_s on every train-*, largest share on train-quadrants"),
        layer("core.bin_apply_s", "s", Lower, Timed, TRAIN, "setup_s and run.pass_s on every train-*, largest share on train-quadrants"),
        layer("core.gradients_s", "s", Lower, Timed, TRAIN, "run.pass_s on train-quadrants"),
        layer("core.hist_fill_ns_per_cell", "ns", Lower, Timed, TRAIN, "run.pass_s and quadrants.tree_ms on train-ld-dense; no change on train-hd-sparse"),
        layer("core.hist_fill_col_ns_per_cell", "ns", Lower, Timed, TRAIN, "run.pass_s on train-quadrants only"),
        layer("core.hist_subtract_s", "s", Lower, Timed, TRAIN, "run.pass_s on train-hd-sparse and train-quadrants"),
        layer("core.split_find_ns_per_bin", "ns", Lower, Timed, TRAIN, "run.pass_s and quadrants.tree_ms on train-hd-sparse"),
        layer("core.index_split_s", "s", Lower, Timed, TRAIN, "run.pass_s on train-ld-dense"),
        layer("core.hist_codec_s", "s", Lower, Timed, TRAIN, "run.pass_s on train-quadrants"),
        layer("core.model_codec_s", "s", Lower, Timed, ALL, "serve.server.publish_ms, and through it serve.client.p50_ms on serve-plane"),
        // partition
        layer("partition.transform_s", "s", Lower, Timed, TRAIN, "setup_s and run.pass_s on train-hd-sparse; nothing on train-ld-dense"),
        layer("partition.transform_mb", "MB", Lower, Timed, TRAIN, "wire_mb on train-hd-sparse"),
        layer("partition.bitmap_codec_s", "s", Lower, Timed, TRAIN, "run.pass_s on train-hd-sparse"),
        layer("partition.group_imbalance", "ratio", Lower, Timed, TRAIN, "run.pass_s on train-hd-sparse: the slowest worker gates each layer"),
        // cluster
        layer("cluster.allreduce_s", "s", Lower, Timed, TRAIN, "run.pass_s on train-quadrants"),
        layer("cluster.reduce_scatter_s", "s", Lower, Timed, TRAIN, "run.pass_s on train-quadrants"),
        layer("cluster.ps_push_s", "s", Lower, Timed, TRAIN, "run.pass_s on train-ld-dense and train-quadrants"),
        layer("cluster.broadcast_s", "s", Lower, Timed, TRAIN, "run.pass_s on train-hd-sparse and train-quadrants"),
        layer("cluster.wire_encode_s", "s", Lower, Timed, TRAIN, "run.pass_s on train-quadrants"),
        layer("cluster.wire_decode_s", "s", Lower, Timed, TRAIN, "run.pass_s on train-quadrants"),
        layer("cluster.messages_sent", "count", Lower, Reported, TRAIN, "cluster.comm_model_s"),
        layer("cluster.wire_compression", "ratio", Higher, Reported, TRAIN, "wire_mb"),
        layer("cluster.comm_model_s", "s", Lower, Modelled, TRAIN, "nothing measured: the 1 Gbps cost model over wire_mb and cluster.messages_sent"),
        layer("cluster.retries", "count", Lower, Reported, TRAIN, "must be 0 in a fault-free run"),
        // quadrants / vero
        layer("quadrants.valid_loss", "nats", Lower, Reported, TRAIN, "quality on the 10% hold-out; repeats exactly for a seed"),
        layer("quadrants.sketch_s", "s", Lower, Reported, TRAIN, "run.pass_s on every train-*"),
        layer("quadrants.transform_s", "s", Lower, Reported, TRAIN, "run.pass_s on train-hd-sparse; 0 on train-ld-dense, which never transforms"),
        layer("quadrants.gradients_s", "s", Lower, Reported, TRAIN, "run.pass_s on train-quadrants"),
        layer("quadrants.hist_build_s", "s", Lower, Reported, TRAIN, "run.pass_s on train-ld-dense (at least 30% of it), at most 10% on train-hd-sparse"),
        layer("quadrants.split_find_s", "s", Lower, Reported, TRAIN, "run.pass_s on train-hd-sparse (at least 60% of it)"),
        layer("quadrants.node_split_s", "s", Lower, Reported, TRAIN, "run.pass_s on train-ld-dense"),
        layer("quadrants.predict_s", "s", Lower, Reported, TRAIN, "run.pass_s on train-ld-dense"),
        layer("quadrants.tree_ms", "ms", Lower, Reported, TRAIN, "run.pass_s: median time of one boosting iteration (slowest worker's computation, summed over systems), pooled over passes"),
        layer("quadrants.unattributed_s", "s", Lower, Derived, TRAIN, "run.pass_s minus the slowest worker's phases: sharding, spawn, barriers; at most 20% of run.pass_s"),
        layer("quadrants.prep_s", "s", Lower, Derived, TRAIN, "run.pass_s minus the time inside trees: what a call spends before tree 1"),
        layer("quadrants.worker_skew", "ratio", Lower, Reported, TRAIN, "run.pass_s: slowest over fastest worker's computation"),
        layer("quadrants.data_mb", "MB", Lower, Reported, TRAIN, "peak_rss_mb"),
        layer("quadrants.hist_peak_mb", "MB", Lower, Reported, TRAIN, "peak_rss_mb on train-hd-sparse"),
        layer("quadrants.index_mb", "MB", Lower, Reported, TRAIN, "peak_rss_mb on train-ld-dense"),
    ];
    for system in System::ALL {
        v.push(layer(
            &format!("quadrants.{}.train_s", system.key()),
            "s",
            Lower,
            Reported,
            QUADRANTS,
            "run.pass_s on train-quadrants, which is their sum",
        ));
    }
    v.extend([
        // serve
        layer("serve.compile.compile_s", "s", Lower, Timed, SERVE, "setup_s on serve-batch"),
        layer("serve.compile.hot_mb", "MB", Lower, Timed, SERVE, "peak_rss_mb, and serve.client.p50_ms on serve-batch once it leaves L2"),
        layer("serve.exec.ns_per_row_tree", "ns", Lower, Timed, SERVE, "run.pass_s and serve.client.p50_ms on serve-batch; at most 30% of serve.client.p50_ms on serve-plane"),
        layer("serve.exec.walk_ns_per_row_tree", "ns", Lower, Timed, SERVE, "nothing end to end: the reference the executor is checked against"),
        layer("serve.exec.share_of_p50", "ratio", Lower, Derived, SERVE, "one batch's scoring time over serve.client.p50_ms: at least 0.9 on serve-batch, at most 0.3 on serve-plane"),
        layer("serve.wire.request_codec_us", "us", Lower, Timed, SERVE, "serve.client.p50_ms on serve-plane"),
        layer("serve.wire.response_codec_us", "us", Lower, Timed, SERVE, "serve.client.p50_ms on serve-plane"),
        layer("serve.server.publish_ms", "ms", Lower, Timed, SERVE, "serve.client.p999_ms on serve-plane"),
        layer("serve.router.plane_overhead_ms", "ms", Lower, Derived, SERVE, "serve.client.p50_ms on serve-plane: serve.client.p50_ms minus scoring and the frames' codecs"),
        layer("serve.client.goodput_rps", "1/s", Higher, Reported, SERVE, "the reciprocal view of run.pass_s: verified responses per second"),
        layer("serve.client.p50_ms", "ms", Lower, Reported, SERVE, "run.pass_s: with a fixed number of closed-loop clients, goodput is clients over mean latency"),
        layer("serve.client.p99_ms", "ms", Lower, Reported, SERVE, "tail of serve.client.p50_ms; 600000 samples on serve-plane, 1500 on serve-batch"),
        layer("serve.client.p999_ms", "ms", Lower, Reported, SERVE, "tail of serve.client.p50_ms around hot swaps on serve-plane"),
        layer("serve.router.hedges", "count", Lower, Reported, SERVE, "run.cpu_s: a hedge scores a request twice"),
        layer("serve.router.retries", "count", Lower, Reported, SERVE, "serve.client.p50_ms tail"),
        layer("serve.router.shed", "count", Lower, Reported, SERVE, "must be 0"),
        layer("serve.router.failed", "count", Lower, Reported, SERVE, "must be 0"),
        layer("serve.router.duplicates_suppressed", "count", Lower, Reported, SERVE, "run.cpu_s"),
        layer("serve.router.downs", "count", Lower, Reported, SERVE, "must be 0"),
        layer("serve.router.publishes", "count", Higher, Reported, SERVE, "fixed by the workload: 2 a pass on serve-plane, none on serve-batch"),
        layer("serve.replica.balance", "ratio", Higher, Reported, SERVE, "run.pass_s on serve-plane: least over most loaded replica"),
    ]);
    for (key, _) in PACED_RATES {
        v.push(layer(
            &format!("serve.paced.{key}.p50_ms"),
            "ms",
            Lower,
            Informational,
            PLANE,
            "open loop, timed from the scheduled send",
        ));
        v.push(layer(
            &format!("serve.paced.{key}.p99_ms"),
            "ms",
            Lower,
            Informational,
            PLANE,
            "open loop, timed from the scheduled send",
        ));
    }
    v.extend([
        layer(
            "serve.paced.slo_rate_rps",
            "1/s",
            Higher,
            Informational,
            PLANE,
            "highest offered rate answered in full with p99 at most 1 ms; 0 when none is",
        ),
        layer(
            "serve.chaos.availability",
            "ratio",
            Higher,
            Informational,
            PLANE,
            "verified responses over requests under the seeded fault plan",
        ),
        layer(
            "serve.chaos.goodput_ratio",
            "ratio",
            Higher,
            Informational,
            PLANE,
            "chaos goodput over a clean pass of the same size",
        ),
        layer(
            "serve.chaos.p99_ms",
            "ms",
            Lower,
            Informational,
            PLANE,
            "tail under faults",
        ),
        layer(
            "serve.chaos.retries",
            "count",
            Lower,
            Informational,
            PLANE,
            "failover work the plan caused",
        ),
        layer(
            "serve.chaos.recoveries",
            "count",
            Lower,
            Informational,
            PLANE,
            "replica crash recoveries",
        ),
        layer(
            "serve.chaos.incorrect",
            "count",
            Lower,
            Informational,
            PLANE,
            "must be 0: chaos may cost availability, never correctness",
        ),
        // the run itself
        layer(
            "trace.overhead_pct",
            "%",
            Lower,
            Derived,
            ALL,
            "traced pass over the untraced median, minus one; within +-5",
        ),
        layer(
            "host.probe_ms",
            "ms",
            Lower,
            Timed,
            ALL,
            "a fixed integer + memory probe: moves with the host, never with the program",
        ),
        layer(
            "host.probe_spread_pct",
            "%",
            Lower,
            Timed,
            ALL,
            "spread of the probe across the run: a noisy host, not a slower program",
        ),
    ]);
    v
}

/// The registry as `--list --json` prints it. Projected onto the keys of
/// `BENCHMARK.json` it equals that file's `workloads`, `end_to_end` and
/// `per_layer` sections.
pub fn as_json() -> Value {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({"name": w.name, "why": w.why}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            json!({
                "name": m.name,
                "unit": m.unit,
                "better": m.better.label(),
                "bound": m.bound,
                "workloads": ALL,
                "what": m.what,
            })
        })
        .collect();
    let per_layer: Vec<Value> = per_layer()
        .iter()
        .map(|m| {
            json!({
                "name": m.name,
                "unit": m.unit,
                "better": m.better.label(),
                "how": m.how.label(),
                "workloads": m.on,
                "moves": m.moves,
            })
        })
        .collect();
    json!({"workloads": workloads, "end_to_end": end_to_end, "per_layer": per_layer})
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The limits the benchmark contract puts on `BENCHMARK.json`.
    #[test]
    fn registry_is_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {} chars",
                w.name,
                w.why.len()
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            // The contract's ceiling for set-up time, the issue's 10 % for
            // every other metric.
            let ceiling = if m.name == "setup_s" { 0.25 } else { 0.10 };
            assert!(m.bound > 0.0 && m.bound <= ceiling, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        for m in &layers {
            assert!(valid_name(&m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(
                !m.on.is_empty() && m.on.iter().all(|w| workload(w).is_some()),
                "{}",
                m.name
            );
        }
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn smoke_keeps_the_structure() {
        for w in &WORKLOADS {
            match (w.shape, smoke(w.shape)) {
                (Shape::Train(full), Shape::Train(small)) => {
                    assert_eq!(small.rows, full.rows / 50);
                    assert_eq!(
                        (small.trees, small.layers, small.features),
                        (full.trees, full.layers, full.features)
                    );
                }
                (Shape::Serve(full), Shape::Serve(small)) => {
                    assert_eq!(small.requests, full.requests / 50);
                    assert_eq!(
                        (small.trees, small.batch, small.clients),
                        (full.trees, full.batch, full.clients)
                    );
                }
                _ => panic!("smoke changed the family of {}", w.name),
            }
        }
    }
}
