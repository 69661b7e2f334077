//! `BENCHMARK.json` at the repository root and the executable's own
//! registry (`--list --json`) must say the same thing, so the two cannot
//! drift.

use serde_json::{json, Value};
use std::path::Path;
use std::process::Command;

/// One section of the registry, cut down to the keys `BENCHMARK.json`
/// keeps for it.
fn project(section: &Value, keys: &[&str]) -> Vec<Value> {
    section
        .as_array()
        .expect("section is a list")
        .iter()
        .map(|entry| {
            let mut kept = serde_json::Map::new();
            for key in keys {
                kept.insert(
                    key.to_string(),
                    entry.get(key).expect("declared key").clone(),
                );
            }
            Value::Object(kept)
        })
        .collect()
}

#[test]
fn benchmark_json_equals_the_registry() {
    let output = Command::new(env!("CARGO_BIN_EXE_gbdt-benchmark"))
        .args(["--list", "--json"])
        .output()
        .expect("benchmark executable starts");
    assert!(output.status.success());
    let registry: Value =
        serde_json::from_str(String::from_utf8(output.stdout).expect("utf-8").trim())
            .expect("--list --json prints JSON");

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let file: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");

    let mut keys: Vec<&str> = file
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(file.get("paths"), Some(&json!(["benchmark"])));

    let section = |name: &str| registry.get(name).expect("registry section");
    let in_file = |name: &str| {
        file.get(name)
            .and_then(Value::as_array)
            .expect("file section")
    };
    assert_eq!(
        in_file("workloads"),
        &project(section("workloads"), &["name", "why"])
    );
    assert_eq!(
        in_file("end_to_end"),
        &project(section("end_to_end"), &["name", "unit", "better", "bound"])
    );
    assert_eq!(
        in_file("per_layer"),
        &project(section("per_layer"), &["name", "unit", "better"])
    );

    // Three passes sized to about 5 s each: what the driver's `--seconds` says.
    assert_eq!(file.get("run_seconds"), Some(&json!(15)));
}
