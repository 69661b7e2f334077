//! The two serving workloads: set-up, timed traffic passes, checks, the
//! metrics read from what the availability harness returns, and the
//! informational open-loop and chaos passes of the traced run.

use crate::measure::{median, timed};
use crate::trace::Tracer;
use crate::{layers, Family, Outcome};
use gbdt_cluster::FaultPlan;
use gbdt_core::tree::Tree;
use gbdt_core::{GbdtModel, Objective};
use gbdt_serve::avail::AvailOutcome;
use gbdt_serve::compile::{compile, CompiledEnsemble};
use gbdt_serve::wire::{PredictRequest, PredictResponse, ReplyStatus};
use gbdt_serve::{run_avail, AvailConfig, Strategy};

/// The warm-up pass is this share of a timed traffic pass.
const WARMUP_SHARE: usize = 10;
/// Offered rates of the open-loop passes, requests per second.
pub const PACED_RATES: [(&str, f64); 3] = [("r10k", 10e3), ("r20k", 20e3), ("r40k", 40e3)];
/// Seconds of offered load per open-loop pass.
const PACED_SECONDS: f64 = 1.5;
/// Latency limit an open-loop rate must keep at its 99th percentile.
const SLO_P99_MS: f64 = 1.0;
/// Requests of the chaos pass: every dropped frame costs a 120 ms
/// deadline, so the pass is sized in requests, not seconds.
const CHAOS_REQUESTS: usize = 600;
/// The chaos scenario of `benchgrids/avail.json`, copied so the benchmark
/// reads nothing outside its own directory.
const CHAOS_FAULTS: &str = "53752000801:drop=0.05,dup=0.05,delay=0.05@0.0005,crash=1@30,\
tag=serve_request,tag=serve_response,tag=serve_route,tag=serve_reply,tag=serve_publish,\
tag=health_ping,tag=health_pong";

/// Shape of one serving workload. `--smoke` scales `requests` only.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    pub replicas: usize,
    /// Closed-loop clients: one, so router, replicas and the client stay
    /// within the two vCPUs of the reference box and a request's latency is
    /// the plane's own cost, not run-queue wait.
    pub clients: usize,
    pub trees: usize,
    /// Layers of every (complete) tree; the bottom layer is leaves.
    pub layers: usize,
    pub features: usize,
    pub strategy: Strategy,
    /// Rows per request.
    pub batch: usize,
    /// Requests per timed pass, over all clients.
    pub requests: usize,
    /// Models published mid-pass through the router (hot swaps).
    pub publishes: usize,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// The benchmark's own ensemble generator: `trees` complete trees, every
/// node above the bottom layer an internal node on a seeded feature and
/// threshold in the value range of the harness's request rows (±3), so
/// traversal takes both children and the default direction.
pub fn ensemble(seed: u64, shape: &ServeShape) -> GbdtModel {
    let mut state = seed ^ 0x6265_6e63_686d_6172;
    let mut model = GbdtModel::new(Objective::SquaredError, 0.1, shape.features);
    let internal = (1usize << (shape.layers - 1)) - 1;
    let total = (1usize << shape.layers) - 1;
    for _ in 0..shape.trees {
        let mut tree = Tree::new(shape.layers, 1);
        for id in 0..internal {
            let feature = (splitmix(&mut state) % shape.features as u64) as u32;
            let threshold = (unit(&mut state) * 5.0 - 2.5) as f32;
            let default_left = splitmix(&mut state) & 1 == 0;
            tree.set_internal(id as u32, feature, 0, threshold, default_left);
        }
        for id in internal..total {
            tree.set_leaf(id as u32, vec![unit(&mut state) * 0.2 - 0.1]);
        }
        model.trees.push(tree);
    }
    model
}

/// Deterministic request rows in the harness's value range (±3, one cell
/// in eight missing), for the executor and codec probes.
pub fn request_rows(seed: u64, batch: usize, features: usize) -> Vec<f32> {
    let mut state = seed ^ 0x726f_7773;
    (0..batch * features)
        .map(|_| {
            if splitmix(&mut state).is_multiple_of(8) {
                f32::NAN
            } else {
                (unit(&mut state) * 6.0 - 3.0) as f32
            }
        })
        .collect()
}

/// What set-up leaves for the timed passes.
pub struct ServeState {
    /// `models[0]` is served first; the rest are published mid-pass.
    pub models: Vec<GbdtModel>,
    /// The first model compiled, for the executor probes.
    pub compiled: CompiledEnsemble,
    /// Seconds the stand-alone `compile` call took in this set-up.
    pub compile_s: f64,
    seed: u64,
}

/// The harness configuration of one pass: the workload's shape, and every
/// other knob (deadlines, hedging, queue bounds, patience) at the library's
/// default, so a changed default shows and a stall the shipped failure
/// detection would report is reported here too.
fn config(shape: &ServeShape, seed: u64, requests: usize, label: &str) -> AvailConfig {
    AvailConfig {
        label: label.into(),
        n_replicas: shape.replicas,
        n_clients: shape.clients,
        requests_per_client: (requests / shape.clients).max(1),
        batch: shape.batch,
        strategy: shape.strategy,
        seed,
        ..AvailConfig::default()
    }
}

impl Family for ServeShape {
    type State = ServeState;
    type Pass = AvailOutcome;

    /// Ensemble generation, compilation and the warm-up pass (a tenth of a
    /// timed traffic pass, hot swaps included).
    fn setup(&self, seed: u64, tr: &mut Tracer) -> ServeState {
        let models: Vec<GbdtModel> = tr.span("bench.ensemble", |_| {
            (0..=self.publishes as u64)
                .map(|k| ensemble(seed.wrapping_add(k << 32), self))
                .collect()
        });
        let (compiled, compile_s) = tr.span("serve.compile", |_| {
            timed(|| compile(&models[0], 1).expect("generated ensembles compile"))
        });
        let warm = config(self, seed, self.requests / WARMUP_SHARE, "warmup");
        tr.span("warmup", |tr| {
            tr.span("serve.run_avail", |_| run_avail(&models, &warm, None))
                .expect("warm-up traffic pass runs");
        });
        ServeState {
            models,
            compiled,
            compile_s,
            seed,
        }
    }

    /// One closed-loop pass of `requests` requests.
    fn pass(&self, state: &ServeState, tr: &mut Tracer) -> AvailOutcome {
        let cfg = config(self, state.seed, self.requests, "timed");
        tr.span("serve.run_avail", |_| run_avail(&state.models, &cfg, None))
            .expect("traffic pass runs")
    }

    /// Pools the timed passes into end-to-end metrics, reported per-layer
    /// metrics and the outcome of every check.
    fn summarize(&self, state: &ServeState, passes: &[AvailOutcome], out: &mut Outcome) {
        let over_passes = |f: &dyn Fn(&AvailOutcome) -> f64| -> f64 {
            median(&passes.iter().map(f).collect::<Vec<_>>())
        };
        let total =
            |f: &dyn Fn(&AvailOutcome) -> u64| -> f64 { passes.iter().map(f).sum::<u64>() as f64 };

        out.attempted = passes.iter().map(|p| p.run.requests).sum();
        let verified: u64 = passes.iter().map(|p| p.run.served).sum();
        out.failed = out.attempted - verified;

        out.layer(
            "serve.client.goodput_rps",
            over_passes(&|p| p.run.goodput_rps),
        );
        out.layer("serve.client.p50_ms", over_passes(&|p| p.run.p50_ms));
        out.layer("serve.client.p99_ms", over_passes(&|p| p.run.p99_ms));
        out.layer("serve.client.p999_ms", over_passes(&|p| p.run.p999_ms));
        out.layer("serve.router.hedges", total(&|p| p.router.hedges));
        out.layer("serve.router.retries", total(&|p| p.router.retries));
        out.layer("serve.router.shed", total(&|p| p.router.shed));
        out.layer("serve.router.failed", total(&|p| p.router.failed));
        out.layer(
            "serve.router.duplicates_suppressed",
            total(&|p| p.router.duplicates_suppressed),
        );
        out.layer("serve.router.downs", total(&|p| p.router.downs));
        out.layer("serve.router.publishes", total(&|p| p.router.publishes));
        out.layer(
            "serve.replica.balance",
            over_passes(&|p| {
                let served = p.replicas.iter().map(|r| r.requests);
                let most = served.clone().max().unwrap_or(0) as f64;
                let least = served.min().unwrap_or(0) as f64;
                if most > 0.0 {
                    least / most
                } else {
                    0.0
                }
            }),
        );
        // Bytes the clients exchange with the router in one pass, sized by
        // the public codecs: a request and a response frame per verified
        // request, and the payload of every publish.
        let last = passes.last().expect("at least one timed pass");
        let request = PredictRequest {
            req_id: 0,
            n_features: self.features as u32,
            max_trees: 0,
            rows: request_rows(state.seed, self.batch, self.features),
        };
        let response = PredictResponse {
            req_id: 0,
            version: 1,
            status: ReplyStatus::Ok,
            trees_scored: 0,
            n_outputs: 1,
            scores: vec![0.0; self.batch],
        };
        let frames = (request.encode().len() + response.encode().len()) as u64;
        let published: usize = state.models[1..]
            .iter()
            .map(|m| m.encode_bytes().len())
            .sum();
        out.end(
            "wire_mb",
            (last.run.served * frames + published as u64) as f64 / 1e6,
        );
        out.layer("serve.compile.compile_s", state.compile_s);
        out.layer(
            "serve.compile.hot_mb",
            state.compiled.hot_bytes() as f64 / (1 << 20) as f64,
        );

        // Checks. The harness bit-matches every response against the walk
        // scores of the version stamped on it and counts mismatches.
        let versions: Vec<u64> = (1..=self.publishes as u64 + 1).collect();
        for (k, p) in passes.iter().enumerate() {
            let run = &p.run;
            if run.incorrect != 0 || run.shed != 0 || run.failed != 0 || run.degraded != 0 {
                out.problems.push(format!(
                    "pass {k}: {} incorrect, {} shed, {} failed, {} degraded responses",
                    run.incorrect, run.shed, run.failed, run.degraded
                ));
            }
            if run.served != run.requests {
                out.problems.push(format!(
                    "pass {k}: {} of {} requests verified",
                    run.served, run.requests
                ));
            }
            if run.versions_seen != versions {
                out.problems.push(format!(
                    "pass {k}: saw versions {:?}, want {versions:?}",
                    run.versions_seen
                ));
            }
            if p.router.publishes != self.publishes as u64 {
                out.problems.push(format!(
                    "pass {k}: {} publishes, want {}",
                    p.router.publishes, self.publishes
                ));
            }
        }
    }

    fn probe(
        &self,
        state: &ServeState,
        _passes: &[AvailOutcome],
        seed: u64,
        tr: &mut Tracer,
        out: &mut Outcome,
    ) {
        layers::serve_probes(self, state, seed, tr, out);
        // The open-loop and chaos passes need a replica group: the chaos
        // plan crashes a replica, and one replica leaves nothing to fail
        // over to.
        if self.replicas > 1 {
            tr.span("paced", |tr| paced(self, state, tr, out));
            tr.span("chaos", |tr| chaos(self, state, tr, out));
        }
    }
}

/// Open-loop passes at fixed offered rates, each request timed from its
/// scheduled send. Thread-scheduled, so informational.
fn paced(shape: &ServeShape, state: &ServeState, tr: &mut Tracer, out: &mut Outcome) {
    let mut slo_rate = 0.0;
    for (key, rate) in PACED_RATES {
        let requests = ((rate * PACED_SECONDS) as usize).min(shape.requests);
        let mut cfg = config(shape, state.seed, requests, key);
        cfg.qps = rate;
        let outcome = tr
            .span("serve.run_avail.paced", |_| {
                run_avail(&state.models[..1], &cfg, None)
            })
            .expect("open-loop pass runs");
        let run = outcome.run;
        if run.incorrect != 0 {
            out.problems.push(format!(
                "open loop at {rate} rps: {} incorrect",
                run.incorrect
            ));
        }
        let answered = run.served == run.requests;
        out.layer(format!("serve.paced.{key}.p50_ms"), run.p50_ms);
        out.layer(format!("serve.paced.{key}.p99_ms"), run.p99_ms);
        if answered && run.p99_ms <= SLO_P99_MS {
            slo_rate = rate;
        }
    }
    out.layer("serve.paced.slo_rate_rps", slo_rate);
}

/// One pass under the seeded chaos plan, against a clean pass of the same
/// size. Chaos may cost availability, never correctness.
fn chaos(shape: &ServeShape, state: &ServeState, tr: &mut Tracer, out: &mut Outcome) {
    let requests = CHAOS_REQUESTS.min(shape.requests);
    let cfg = config(shape, state.seed, requests, "chaos");
    let plan = FaultPlan::parse(CHAOS_FAULTS).expect("chaos spec parses");
    let clean = tr
        .span("serve.run_avail.clean", |_| {
            run_avail(&state.models[..1], &cfg, None)
        })
        .expect("clean reference pass runs");
    let faulty = tr
        .span("serve.run_avail.chaos", |_| {
            run_avail(&state.models[..1], &cfg, Some(plan))
        })
        .expect("chaos pass runs");
    let run = faulty.run;
    if run.incorrect != 0 {
        out.problems
            .push(format!("chaos pass: {} incorrect responses", run.incorrect));
    }
    out.layer("serve.chaos.availability", run.availability);
    out.layer(
        "serve.chaos.goodput_ratio",
        run.goodput_rps / clean.run.goodput_rps,
    );
    out.layer("serve.chaos.p99_ms", run.p99_ms);
    out.layer("serve.chaos.retries", run.retries as f64);
    out.layer("serve.chaos.recoveries", run.recoveries as f64);
    out.layer("serve.chaos.incorrect", run.incorrect as f64);
}
