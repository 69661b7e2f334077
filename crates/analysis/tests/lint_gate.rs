//! The lint gate: fixture self-tests, the workspace cleanliness invariant,
//! and injection tests proving the gate catches the regressions it claims
//! to on the real sources (a mistagged health reply, a recovery without
//! `purge_pending` or without its RECOVER frame in the replica; a registry
//! tag nobody uses). The determinism rules clippy enforces have their
//! fixtures in the root `tests/clippy_fixtures/`.

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

/// Tier-1 gate: the shipped workspace is lint-clean. Any stray, duplicate
/// or dead tag, unpolled or second per-tree loop, or serving frame nobody
/// accepts fails this test (and CI) at the line that introduced it.
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

/// Scoping: the same source is clean outside the rule's scope and dirty
/// inside it.
#[test]
fn rules_respect_path_scopes() {
    let tree_loop = "pub fn train(c: &TrainConfig) { for t in 0..c.n_trees { grow(t); } }\n";
    // The single-node oracle has no fault machinery to poll; a policy file
    // may not grow trees of its own.
    assert!(fired_rules("crates/quadrants/src/single.rs", tree_loop).is_empty());
    assert!(fired_rules("crates/core/src/model.rs", tree_loop).is_empty());
    let fired = fired_rules("crates/quadrants/src/qd3.rs", tree_loop);
    assert!(fired.contains("fault-point"), "{fired:?}");
    // A tag constant belongs in the registry: stray under crates/, not in
    // the examples.
    let tag = "const SHUFFLE_TAG: u64 = 0x1234;\n";
    assert!(fired_rules("examples/demo.rs", tag).is_empty());
    let fired = fired_rules("crates/partition/src/transform.rs", tag);
    assert!(fired.contains("tag-registry"), "{fired:?}");
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
