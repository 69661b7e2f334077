//! The lint gate: fixture self-tests, the workspace cleanliness invariant,
//! and an injection test proving the gate actually catches the regression
//! it claims to (unsorted hash drains).

use gbdt_analysis::rules::TRAINER_FILES;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/analysis -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/analysis has a workspace two levels up")
        .to_path_buf()
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Parses the `//@ path:` / `//@ expect:` directives a fixture carries.
fn directives(source: &str) -> (String, BTreeSet<String>) {
    let mut path = None;
    let mut expect = BTreeSet::new();
    for line in source.lines() {
        let line = line.trim();
        if let Some(p) = line.strip_prefix("//@ path:") {
            path = Some(p.trim().to_string());
        } else if let Some(e) = line.strip_prefix("//@ expect:") {
            for rule in e.split(',') {
                expect.insert(rule.trim().to_string());
            }
        }
    }
    (path.expect("fixture must carry a //@ path: directive"), expect)
}

fn fired_rules(path: &str, source: &str) -> BTreeSet<String> {
    gbdt_analysis::lint_source(path, source)
        .into_iter()
        .map(|d| d.rule.to_string())
        .collect()
}

/// Every `bad_*.rs` fixture fires exactly the rule set it declares, and the
/// clean fixture fires nothing — under the strictest (trainer) scope.
#[test]
fn fixtures_fire_exactly_their_declared_rules() {
    let dir = fixtures_dir();
    let mut seen_bad = 0;
    let mut seen_clean = 0;
    let mut covered: BTreeSet<String> = BTreeSet::new();
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no fixtures found in {}", dir.display());

    for fixture in entries {
        let name = fixture.file_name().unwrap().to_string_lossy().to_string();
        let source = fs::read_to_string(&fixture).expect("fixture is readable");
        let (virtual_path, expect) = directives(&source);
        let fired = fired_rules(&virtual_path, &source);
        if name.starts_with("bad_") {
            seen_bad += 1;
            assert!(!expect.is_empty(), "{name}: bad fixture must declare //@ expect:");
            assert_eq!(
                fired, expect,
                "{name} (as {virtual_path}): fired {fired:?}, expected {expect:?}"
            );
            covered.extend(expect);
        } else {
            seen_clean += 1;
            assert!(expect.is_empty(), "{name}: clean fixture must not declare //@ expect:");
            assert!(
                fired.is_empty(),
                "{name} (as {virtual_path}): clean fixture fired {fired:?}"
            );
        }
    }
    // At least one bad fixture per rule in the catalog (a rule may have
    // several — e.g. the out-of-registry and duplicate-value flavors of
    // tag-registry), plus the clean files.
    assert!(seen_bad >= gbdt_analysis::rules::RULES.len(), "a bad fixture per rule at minimum");
    let catalog: BTreeSet<String> =
        gbdt_analysis::rules::RULES.iter().map(|(name, _)| name.to_string()).collect();
    assert_eq!(covered, catalog, "every cataloged rule needs a bad fixture proving it fires");
    assert!(seen_clean >= 1, "at least one clean fixture");
}

/// Tier-1 gate: the shipped workspace is lint-clean. Any new hash-order
/// iteration, wall-clock read, comm-layer panic, or stray tag constant
/// fails this test (and CI) at the line that introduced it.
#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let diags = gbdt_analysis::lint_workspace(&root).expect("workspace walk succeeds");
    let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
    assert!(
        diags.is_empty(),
        "workspace has {} lint error(s):\n{}",
        diags.len(),
        rendered.join("\n")
    );
}

/// The workspace walk actually covers the trainers and the comm layer —
/// guards against the gate going green by silently walking nothing.
#[test]
fn workspace_walk_covers_product_sources() {
    let root = workspace_root();
    let sources = gbdt_analysis::workspace_sources(&root).expect("workspace walk succeeds");
    let paths: BTreeSet<&str> = sources.iter().map(|(p, _)| p.as_str()).collect();
    let others = [
        "crates/cluster/src/comm.rs",
        "crates/cluster/src/collectives.rs",
        "crates/cluster/src/ps.rs",
        "crates/core/src/histogram.rs",
    ];
    for must in TRAINER_FILES.iter().copied().chain(others) {
        assert!(paths.contains(must), "workspace walk missed {must}");
    }
}

/// Acceptance check: injecting an unsorted `HashMap` drain into a real
/// trainer makes the gate fail. (A rank-conditional collective injected
/// the same way is `model_check_gate`'s business.)
#[test]
fn injected_hashmap_drain_fails_the_gate() {
    let root = workspace_root();
    for rel in TRAINER_FILES.iter().copied() {
        let mut source = fs::read_to_string(root.join(rel)).expect("trainer source readable");
        source.push_str(
            "\n\npub fn injected_drain(map: &mut std::collections::HashMap<u32, f64>) -> Vec<(u32, f64)> {\n\
             \x20   let mut out = Vec::new();\n\
             \x20   for (k, v) in map.drain() {\n\
             \x20       out.push((k, v));\n\
             \x20   }\n\
             \x20   out\n\
             }\n",
        );
        let fired = fired_rules(rel, &source);
        assert!(
            fired.contains("map-iteration"),
            "{rel}: injected hash drain not caught; fired {fired:?}"
        );
    }
}

/// A pragma only licenses the rule it names — `allow(wall-clock)` does not
/// quiet a map-iteration finding on the same line.
#[test]
fn pragma_is_rule_specific() {
    let src = "\
use std::collections::HashMap;
pub fn f(m: &HashMap<u32, f64>) -> f64 {
    let mut s = 0.0;
    // lint: allow(wall-clock) — wrong rule on purpose
    for v in m.values() { s += v; }
    s
}
";
    let fired = fired_rules("crates/core/src/x.rs", src);
    assert!(fired.contains("map-iteration"), "mismatched pragma must not suppress: {fired:?}");

    let src_ok = src.replace("allow(wall-clock)", "allow(map-iteration)");
    let fired_ok = fired_rules("crates/core/src/x.rs", &src_ok);
    assert!(fired_ok.is_empty(), "matching pragma must suppress: {fired_ok:?}");
}

/// Scoping: the same source is clean outside the rule's scope and dirty
/// inside it.
#[test]
fn rules_respect_path_scopes() {
    let src = "pub fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
    // bench is a sanctioned timing site; trainers are not.
    assert!(fired_rules("crates/bench/src/run.rs", src).is_empty());
    assert!(fired_rules("crates/cluster/src/stats.rs", src).is_empty());
    let fired = fired_rules("crates/quadrants/src/qd1.rs", src);
    assert!(fired.contains("wall-clock"), "{fired:?}");
    // In the serving crate only stats.rs may read the clock; the
    // traversal/server modules are inside the rule's scope.
    assert!(fired_rules("crates/serve/src/stats.rs", src).is_empty());
    for serve_path in ["crates/serve/src/exec.rs", "crates/serve/src/server.rs"] {
        let fired = fired_rules(serve_path, src);
        assert!(fired.contains("wall-clock"), "{serve_path}: {fired:?}");
    }
}
