//! The lint gate: fixture self-tests, the workspace cleanliness invariant,
//! and injection tests proving the gate catches the regressions it claims
//! to on the real sources (an unsorted hash drain in every trainer; a
//! mistagged health reply, a recovery without `purge_pending` or without
//! its RECOVER frame in the replica; a registry tag nobody uses).

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

/// Parses the `//@ expect:` directive a fixture carries. Where the fixture
/// lives is its `//@ path:`, or one `//@ file:` per section of a
/// multi-file fixture (see `gbdt_analysis::virtual_files`).
fn expected_rules(source: &str) -> BTreeSet<String> {
    let mut expect = BTreeSet::new();
    for line in source.lines() {
        if let Some(e) = line.trim().strip_prefix("//@ expect:") {
            for rule in e.split(',') {
                expect.insert(rule.trim().to_string());
            }
        }
    }
    expect
}

fn rules_of(diags: Vec<gbdt_analysis::Diagnostic>) -> BTreeSet<String> {
    diags.into_iter().map(|d| d.rule.to_string()).collect()
}

fn fired_rules(path: &str, source: &str) -> BTreeSet<String> {
    rules_of(gbdt_analysis::lint_source(path, source))
}

/// Every `bad_*.rs` fixture fires exactly the rule set it declares, and the
/// clean fixtures fire nothing — each under the scope it names.
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
        let expect = expected_rules(&source);
        let files = gbdt_analysis::virtual_files(&name, &source);
        assert!(
            files.iter().all(|(path, _)| path.starts_with("crates/")),
            "{name}: every section needs a //@ path: or //@ file: directive"
        );
        let fired = rules_of(gbdt_analysis::lint_files(&files));
        if name.starts_with("bad_") {
            seen_bad += 1;
            assert!(!expect.is_empty(), "{name}: bad fixture must declare //@ expect:");
            assert_eq!(fired, expect, "{name}: fired {fired:?}, expected {expect:?}");
            covered.extend(expect);
        } else {
            seen_clean += 1;
            assert!(expect.is_empty(), "{name}: clean fixture must not declare //@ expect:");
            assert!(fired.is_empty(), "{name}: clean fixture fired {fired:?}");
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
        "crates/core/src/histogram.rs",
    ];
    for must in TRAINER_FILES.iter().copied().chain(others) {
        assert!(paths.contains(must), "workspace walk missed {must}");
    }
}

/// Acceptance check: injecting an unsorted `HashMap` drain into a real
/// trainer makes the gate fail. (A rank-conditional collective is not a
/// lint finding: it fails `quadrant_equivalence` and `Cluster`'s
/// end-of-run message check on the code that runs.)
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

/// The workspace file set with one file's source rewritten by `mutate`.
fn mutated_workspace(rel: &str, mutate: impl Fn(&str) -> String) -> Vec<(String, String)> {
    let mut files = gbdt_analysis::workspace_sources(&workspace_root()).expect("workspace walk");
    let slot = files
        .iter_mut()
        .find(|(p, _)| p == rel)
        .unwrap_or_else(|| panic!("{rel} not in workspace walk"));
    let mutated = mutate(&slot.1);
    assert_ne!(mutated, slot.1, "mutation of {rel} must change the source");
    slot.1 = mutated;
    files
}

fn rules_at(files: &[(String, String)], rel: &str) -> BTreeSet<String> {
    rules_of(gbdt_analysis::lint_files(files).into_iter().filter(|d| d.path == rel).collect())
}

/// Acceptance check: the serving plane's bugs that no serving suite notices
/// are caught on the real sources. A health reply sent as a PING is a frame
/// the router never accepts; a recovery that keeps pre-crash frames, or
/// never announces itself, leaves the fault path open. (A recovery without
/// its RECOVER frame also fails `serve_chaos` and `serve_hotswap`.)
#[test]
fn injected_serving_bugs_fail_the_gate() {
    let replica = "crates/serve/src/replica.rs";
    let fired = |mutate: fn(&str) -> String| rules_at(&mutated_workspace(replica, mutate), replica);
    let ping = fired(|s| s.replace("SERVE_HEALTH_PONG_TAG, Bytes", "SERVE_HEALTH_PING_TAG, Bytes"));
    assert!(ping.contains("serve-orphan-frame"), "PONG sent as PING not caught: {ping:?}");
    let no_purge = fired(|s| s.replace("comm.purge_pending();", ""));
    assert!(no_purge.contains("serve-fault-closure"), "no purge_pending not caught: {no_purge:?}");
    let no_recover =
        fired(|s| s.replace("SERVE_RECOVER_TAG, Bytes::new()", "SERVE_ACK_TAG, Bytes::new()"));
    assert!(no_recover.contains("serve-fault-closure"), "no RECOVER not caught: {no_recover:?}");
}

/// Acceptance check: a registry tag whose only sender and receiver stop
/// using it is dead surface, reported at the registry.
#[test]
fn an_unused_registry_tag_fails_the_gate() {
    let files = mutated_workspace("crates/partition/src/transform.rs", |s| {
        s.replace("REPARTITION_A2A_TAG", "TRANSFORM_LOCAL_TAG_NAME")
    });
    let fired = rules_at(&files, "crates/cluster/src/comm.rs");
    assert!(fired.contains("tag-registry"), "dead tag not caught; fired {fired:?}");
}
