//! Runs every workload at `--smoke` size through the real executable, in
//! both trace modes, and holds the result lines to the registry: every
//! metric a workload declares is present, finite and non-zero; a per-layer
//! metric it does not declare reads exactly 0; nothing else is printed.

use serde_json::Value;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_gbdt-benchmark");

/// Counters that read 0 on a healthy run of a workload that declares them.
const ZERO_WHEN_HEALTHY: &[&str] = &[
    "cluster.retries",
    "quadrants.transform_s",
    "serve.router.hedges",
    "serve.router.retries",
    "serve.router.shed",
    "serve.router.failed",
    "serve.router.duplicates_suppressed",
    "serve.router.downs",
    "serve.router.publishes",
    "serve.paced.slo_rate_rps",
    "serve.chaos.retries",
    "serve.chaos.recoveries",
    "serve.chaos.incorrect",
];

fn run(args: &[&str]) -> (bool, String) {
    let output = Command::new(EXE)
        .args(args)
        .output()
        .expect("benchmark executable starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    (
        output.status.success(),
        stdout.lines().last().unwrap_or("").to_string(),
    )
}

fn registry() -> Value {
    let (ok, line) = run(&["--list", "--json"]);
    assert!(ok, "--list --json failed");
    serde_json::from_str(&line).expect("--list --json prints JSON")
}

fn names(section: &Value) -> Vec<String> {
    section
        .as_array()
        .expect("registry section is a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs one workload in one trace mode and returns its `metrics` object
/// after the checks every result line must pass.
fn smoke_metrics(workload: &str, trace: &str) -> Vec<(String, f64, String)> {
    let (ok, line) = run(&[
        "--smoke",
        "--workload",
        workload,
        "--seed",
        "7",
        "--trace",
        trace,
    ]);
    assert!(ok, "{workload} --trace {trace} exited non-zero: {line}");
    let result: Value = serde_json::from_str(&line).expect("result line is JSON");
    let object = result.as_object().expect("result line is an object");
    let mut keys: Vec<&str> = object.keys().map(String::as_str).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1,
        "{workload}"
    );
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(valid_name(name), "bad metric name {name:?}");
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .expect("unit")
                .to_string();
            (name.clone(), value, unit)
        })
        .collect()
}

#[test]
fn every_workload_reports_what_it_declares() {
    let registry = registry();
    let end_to_end = registry.get("end_to_end").expect("end_to_end section");
    let per_layer = registry.get("per_layer").expect("per_layer section");
    for workload in names(registry.get("workloads").expect("workloads section")) {
        // Untraced: exactly the end-to-end metrics, none of them 0.
        let got = smoke_metrics(&workload, "0");
        let got_names: Vec<String> = got.iter().map(|(n, _, _)| n.clone()).collect();
        assert_eq!(got_names, names(end_to_end), "{workload}");
        for ((name, value, unit), decl) in got.iter().zip(end_to_end.as_array().unwrap()) {
            assert!(*value > 0.0, "{workload}: {name} = {value}");
            assert_eq!(
                Some(unit.as_str()),
                decl.get("unit").and_then(Value::as_str),
                "{name}"
            );
        }

        // Traced: exactly the per-layer metrics; 0 where not declared.
        let got = smoke_metrics(&workload, "1");
        let got_names: Vec<String> = got.iter().map(|(n, _, _)| n.clone()).collect();
        assert_eq!(got_names, names(per_layer), "{workload}");
        for ((name, value, unit), decl) in got.iter().zip(per_layer.as_array().unwrap()) {
            assert_eq!(
                Some(unit.as_str()),
                decl.get("unit").and_then(Value::as_str),
                "{name}"
            );
            let declared = decl
                .get("workloads")
                .and_then(Value::as_array)
                .expect("workloads of a per-layer metric")
                .iter()
                .any(|w| w.as_str() == Some(workload.as_str()));
            if !declared {
                assert_eq!(*value, 0.0, "{workload} does not declare {name}");
            } else if !ZERO_WHEN_HEALTHY.contains(&name.as_str()) {
                assert!(*value != 0.0, "{workload}: declared {name} reads 0");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [&["--workload", "no-such-workload"][..], &["--bogus"], &[]] {
        let output = Command::new(EXE)
            .args(args)
            .output()
            .expect("benchmark executable starts");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
