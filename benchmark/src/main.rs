//! The repository's one repeatable benchmark.
//!
//! `--workload <name> --seed <n>` runs one workload in this process: three
//! full set-ups, then three timed passes of a fixed size, then the checks.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced run otherwise.
//! `--all`, `--aa` and `--smoke` drive that same single-workload run.
//! See `README.md` beside this package.

mod layers;
mod measure;
mod registry;
mod serve;
mod trace;
mod train;

use measure::{cpu_seconds, median, peak_rss_mb, reset_peak_rss, spread_pct, timed, HostProbe};
use registry::{Shape, Workload, END_TO_END, WORKLOADS};
use serde_json::{json, Map, Value};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use trace::Tracer;

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed passes per run, each a fixed amount of work sized to about 5 s on
/// the reference box: a count, never a time budget, because the peak
/// resident set and "median of N" both move with N.
const PASSES: usize = 3;
/// Host-probe calls of a traced run.
const PROBES: usize = 5;
/// Runs in each of the two sets `--aa` compares.
const AA_PAIRS: u64 = 3;

/// What one run of one workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work the timed passes asked for (trees or requests).
    pub attempted: u64,
    /// Units that were not delivered and verified.
    pub failed: u64,
    /// Checks that did not hold; empty means `correct`.
    pub problems: Vec<String>,
    pub end_to_end: Vec<(String, f64)>,
    pub per_layer: Vec<(String, f64)>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn end(&mut self, name: impl Into<String>, value: f64) {
        self.end_to_end.push((name.into(), value));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.per_layer.push((name.into(), value));
    }

    /// A metric recorded earlier in this run, of either kind.
    pub fn recorded(&self, name: &str) -> f64 {
        let all = self.end_to_end.iter().chain(&self.per_layer);
        let found = all.into_iter().find(|(n, _)| n == name);
        found
            .unwrap_or_else(|| panic!("{name} is recorded before it is read"))
            .1
    }
}

/// `--trace`: which metrics a run prints, and where its spans go.
#[derive(Debug, Default, PartialEq)]
enum Trace {
    /// `0`: end-to-end metrics, no spans.
    #[default]
    Off,
    /// `1`: per-layer metrics, spans to `out/<workload>.trace.jsonl`.
    On,
    /// A path: per-layer metrics, spans to that file.
    To(PathBuf),
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    trace: Trace,
    all: bool,
    smoke: bool,
    aa: bool,
    list: bool,
    json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            // The driver passes the registry's `run_seconds`. A run is
            // always [`PASSES`] passes of fixed work, which that number
            // describes; it sizes nothing.
            "--seconds" => {
                value("a number")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("0, 1 or a file")?.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    file => Trace::To(PathBuf::from(file)),
                }
            }
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            "--list" => args.list = true,
            "--json" => args.json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.list && !args.all && args.workload.is_none() {
        return Err("give --workload <name>, --all or --list".into());
    }
    if let Some(name) = &args.workload {
        if registry::workload(name).is_none() {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; known: {}",
                known.join(", ")
            ));
        }
    }
    Ok(args)
}

/// What the training and the serving workloads have in common: a run is
/// set-ups, then timed passes, then a summary with the checks, and in the
/// traced run the layer probes.
pub trait Family {
    /// What set-up leaves for the passes.
    type State;
    /// What one timed pass returns.
    type Pass;
    /// One full set-up from the seed.
    fn setup(&self, seed: u64, tr: &mut Tracer) -> Self::State;
    /// One pass; the caller times it.
    fn pass(&self, state: &Self::State, tr: &mut Tracer) -> Self::Pass;
    /// Pools the passes into metrics and runs every check.
    fn summarize(&self, state: &Self::State, passes: &[Self::Pass], out: &mut Outcome);
    /// The traced run's timed layer probes and informational passes.
    fn probe(
        &self,
        state: &Self::State,
        passes: &[Self::Pass],
        seed: u64,
        tr: &mut Tracer,
        out: &mut Outcome,
    );
}

/// Runs one workload in this process.
fn run_workload(workload: &Workload, args: &Args) -> Outcome {
    let shape = if args.smoke {
        registry::smoke(workload.shape)
    } else {
        workload.shape
    };
    match shape {
        Shape::Train(shape) => run_family(&shape, workload, args),
        Shape::Serve(shape) => run_family(&shape, workload, args),
    }
}

fn run_family<F: Family>(family: &F, workload: &Workload, args: &Args) -> Outcome {
    let traced = args.trace != Trace::Off;
    let mut out = Outcome::default();
    // Set-up and the timed passes go through an inert recorder: end-to-end
    // metrics never come from a pass that records spans.
    let mut off = Tracer::new(false);

    // `peak_rss_mb` is what a process that sets up once and runs one pass
    // would peak at: the first set-up (from process start) and the first
    // timed pass (watermark reset before it). Later set-ups and passes see
    // an allocator that earlier ones shaped, and their peaks drift with it.
    let mut setups = Vec::new();
    let mut state = None;
    let mut first_setup_peak = 0.0;
    for k in 0..SETUPS {
        // The previous set-up's data goes first, so no set-up holds two
        // copies of the inputs.
        drop(state.take());
        let (s, secs) = timed(|| family.setup(args.seed, &mut off));
        state = Some(s);
        setups.push(secs);
        if k == 0 {
            first_setup_peak = peak_rss_mb();
        }
    }
    let state = state.expect("at least one set-up");
    eprintln!("set-ups: {setups:.4?} s");
    out.end("setup_s", median(&setups));
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut first_pass_peak = 0.0;
    let passes: Vec<F::Pass> = (0..PASSES)
        .map(|k| {
            if k == 0 {
                reset_peak_rss();
            }
            let cpu_before = cpu_seconds();
            let (pass, wall_s) = timed(|| family.pass(&state, &mut off));
            cpus.push(cpu_seconds() - cpu_before);
            walls.push(wall_s);
            if k == 0 {
                first_pass_peak = peak_rss_mb();
            }
            pass
        })
        .collect();
    eprintln!("passes: {walls:.4?} s");
    out.layer("run.pass_s", median(&walls));
    out.layer("run.cpu_s", median(&cpus));
    eprintln!("peak MiB: first set-up {first_setup_peak:.1}, first pass {first_pass_peak:.1}");
    out.end("peak_rss_mb", first_setup_peak.max(first_pass_peak));
    family.summarize(&state, &passes, &mut out);
    if !traced {
        return out;
    }
    for (name, value) in &out.end_to_end {
        eprintln!("{name} = {value}");
    }

    let mut tr = Tracer::new(true);
    let mut host = HostProbe::new();
    let mut probes = vec![host.run_ms()];
    tr.set_pass(PASSES as u32 + 1);
    let (_, traced_wall_s) = timed(|| tr.span("pass", |tr| family.pass(&state, tr)));
    // The traced pass against the untraced median.
    out.layer(
        "trace.overhead_pct",
        (traced_wall_s / out.recorded("run.pass_s") - 1.0) * 100.0,
    );
    probes.push(host.run_ms());
    tr.span("probes", |tr| {
        family.probe(&state, &passes, args.seed, tr, &mut out)
    });
    while probes.len() < PROBES {
        probes.push(host.run_ms());
    }
    out.layer("host.probe_ms", median(&probes));
    out.layer("host.probe_spread_pct", spread_pct(&probes));

    let path = match &args.trace {
        Trace::To(path) => path.clone(),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.trace.jsonl", workload.name)),
    };
    match tr.write_jsonl(&path, workload.name) {
        Ok(()) => eprintln!("trace: {}", path.display()),
        Err(e) => out
            .problems
            .push(format!("cannot write {}: {e}", path.display())),
    }
    eprintln!("self time of the traced pass and probes, seconds:");
    for (name, seconds) in tr.self_times() {
        eprintln!("  {seconds:>10.4}  {name}");
    }
    out
}

/// The result line: every declared metric of the mode, by name and unit.
/// The driver wants every per-layer name on every workload; one whose layer
/// the workload does not cross reads 0 (`--list` says which those are).
fn result_line(out: &Outcome, traced: bool) -> Result<Value, String> {
    let mut metrics = Map::new();
    let mut problems = out.problems.clone();
    if traced {
        let declared = registry::per_layer();
        if let Some((name, _)) = out
            .per_layer
            .iter()
            .find(|(name, _)| declared.iter().all(|d| d.name != *name))
        {
            return Err(format!("{name} measured but not in the registry"));
        }
        for decl in &declared {
            let measured = out.per_layer.iter().find(|(name, _)| *name == decl.name);
            let value = measured.map_or(0.0, |(_, v)| *v);
            if !value.is_finite() {
                problems.push(format!("{} is not finite", decl.name));
            }
            metrics.insert(
                decl.name.clone(),
                json!({"value": value, "unit": decl.unit}),
            );
        }
    } else {
        for decl in END_TO_END {
            let (_, value) = out
                .end_to_end
                .iter()
                .find(|(name, _)| name == decl.name)
                .ok_or_else(|| format!("{} not measured", decl.name))?;
            if !(value.is_finite() && *value > 0.0) {
                problems.push(format!("{} = {value} is not a positive number", decl.name));
            }
            metrics.insert(
                decl.name.to_string(),
                json!({"value": *value, "unit": decl.unit}),
            );
        }
    }
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    Ok(json!({
        "correct": problems.is_empty() && out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": Value::Object(metrics),
    }))
}

/// Runs this executable again for one workload and parses its result line.
fn child_run(workload: &str, seed: u64, args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    match &args.trace {
        Trace::Off => cmd.args(["--trace", "0"]),
        Trace::On => cmd.args(["--trace", "1"]),
        Trace::To(path) => cmd.arg("--trace").arg(path),
    };
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let value: Value = serde_json::from_str(line).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if !output.status.success() || value.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{workload} seed {seed} failed: {line}; stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(value)
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

/// `--aa`: two interleaved sets of [`AA_PAIRS`] runs of the same code (A1 B1
/// A2 B2 A3 B3, seeds S, S+1, S+2), each run a process of its own. Prints,
/// per end-to-end metric, the two medians, how much worse the second is than
/// the first, and the bound; a host probe runs between runs, so a breach
/// can be told from a noisy host. True when no gap exceeds its bound.
fn aa(workload: &str, args: &Args) -> Result<bool, String> {
    let mut sets: [Vec<Value>; 2] = [Vec::new(), Vec::new()];
    let mut host = HostProbe::new();
    let mut probes = Vec::new();
    for k in 0..AA_PAIRS {
        for (set, label) in sets.iter_mut().zip(["A", "B"]) {
            let probe = host.run_ms();
            let seed = args.seed + k;
            let result = child_run(workload, seed, args)?;
            let values: Vec<String> = END_TO_END
                .iter()
                .map(|m| format!("{}={:.5}", m.name, metric(&result, m.name)))
                .collect();
            eprintln!(
                "{label}{} seed {seed} probe_ms={probe:.2} {}",
                k + 1,
                values.join(" ")
            );
            probes.push(probe);
            set.push(result);
        }
    }
    println!(
        "{workload}: {AA_PAIRS} + {AA_PAIRS} interleaved runs, seeds {}..{}",
        args.seed,
        args.seed + AA_PAIRS - 1
    );
    println!(
        "  {:<12} {:>12} {:>12} {:>8} {:>7}",
        "metric", "median A", "median B", "B vs A", "bound"
    );
    let mut ok = true;
    for decl in END_TO_END {
        let values =
            |set: &[Value]| -> Vec<f64> { set.iter().map(|r| metric(r, decl.name)).collect() };
        let (ma, mb) = (median(&values(&sets[0])), median(&values(&sets[1])));
        let worse = match decl.better {
            registry::Better::Lower => mb / ma - 1.0,
            registry::Better::Higher => 1.0 - mb / ma,
        };
        // A NaN gap (a metric missing from a result) is a breach too.
        let within = worse <= decl.bound;
        ok &= within;
        println!(
            "  {:<12} {:>12.5} {:>12.5} {:>+7.2}% {:>6.1}%{}",
            decl.name,
            ma,
            mb,
            worse * 100.0,
            decl.bound * 100.0,
            if within { "" } else { "  BREACH" }
        );
    }
    println!(
        "  host.probe_ms {:.3}, host.probe_spread_pct {:.1}",
        median(&probes),
        spread_pct(&probes)
    );
    Ok(ok)
}

fn list(args: &Args) {
    if args.json {
        println!("{}", registry::as_json());
        return;
    }
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("end-to-end metrics (every workload):");
    for m in END_TO_END {
        println!(
            "  {:<12} {:<3} {} is better, bound {}%: {}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("per-layer metrics (traced run):");
    for m in registry::per_layer() {
        println!(
            "  {:<36} {:<6} {:<13} {} -> {}",
            m.name,
            m.unit,
            m.how.label(),
            m.on.join(","),
            m.moves
        );
    }
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.list {
        list(&args);
        return Ok(true);
    }
    let names: Vec<&str> = match &args.workload {
        Some(name) if !args.all => vec![name.as_str()],
        _ => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    if args.aa {
        let mut ok = true;
        for name in names {
            ok &= aa(name, &args)?;
        }
        return Ok(ok);
    }
    if args.all {
        // One process per workload, so no workload sees another's heap.
        for name in names {
            let result = child_run(name, args.seed, &args)?;
            println!("{}", json!({"workload": name, "result": result}));
        }
        return Ok(true);
    }
    let workload = registry::workload(names[0]).expect("validated by parse_args");
    let out = run_workload(workload, &args);
    let line = result_line(&out, args.trace != Trace::Off)?;
    let correct = line.get("correct").and_then(Value::as_bool) == Some(true);
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("gbdt-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
