//! The model-check gate: fixture self-tests for every checker rule, the
//! workspace protocol-cleanliness invariant, schedule-coverage assertions,
//! and injection tests that corrupt real trainer/serving sources in memory
//! and prove the checker catches each corruption.

use gbdt_analysis::rules::{GROWTH_LOOP, TRAINER_FILES};
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

fn mc_fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mc")
}

/// Parses the `//@ expect:` directive a fixture carries (may be absent for
/// clean fixtures; `//@ path:` is optional because multi-file fixtures name
/// their sections with `//@ file:` instead).
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

fn mc_fired(files: &[(String, String)]) -> BTreeSet<String> {
    gbdt_analysis::model_check_files(files)
        .diags
        .into_iter()
        .map(|d| d.rule.to_string())
        .collect()
}

/// Every `bad_*.rs` fixture in `fixtures/mc/` fires exactly the rule set it
/// declares, every `clean_*.rs` fixture fires nothing, and together the bad
/// fixtures cover the whole model-check catalog.
#[test]
fn mc_fixtures_fire_exactly_their_declared_rules() {
    let dir = mc_fixtures_dir();
    let mut seen_bad = 0;
    let mut seen_clean = 0;
    let mut covered: BTreeSet<String> = BTreeSet::new();
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("mc fixtures directory exists")
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
        let fired = mc_fired(&files);
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
    let catalog: BTreeSet<String> =
        gbdt_analysis::mc::MC_RULES.iter().map(|(name, _)| name.to_string()).collect();
    assert_eq!(covered, catalog, "every model-check rule needs a bad fixture proving it fires");
    assert!(seen_bad >= 1 && seen_clean >= 2, "bad and clean fixtures both present");
}

/// Tier-1 gate: the shipped workspace model-checks clean. Every extracted
/// schedule completes without deadlock, divergence, or orphan messages for
/// world sizes 1-4, the serving frame machine covers every emitted tag, the
/// fault path is closed, and every registry tag is used.
#[test]
fn workspace_is_protocol_clean() {
    let root = workspace_root();
    let outcome = gbdt_analysis::model_check_workspace(&root).expect("workspace walk succeeds");
    let rendered: Vec<String> = outcome.diags.iter().map(|d| d.to_string()).collect();
    assert!(
        outcome.diags.is_empty(),
        "workspace has {} model-check error(s):\n{}",
        outcome.diags.len(),
        rendered.join("\n")
    );
    let verified = outcome.units.iter().filter(|u| u.skipped.is_none()).count();
    assert!(verified >= 20, "only {verified} schedules verified — extraction has regressed");
}

/// The extracted units actually cover the collectives layer, every trainer,
/// and the Vero system — guards against the checker going green by silently
/// extracting nothing.
#[test]
fn units_cover_collectives_and_trainers() {
    let root = workspace_root();
    let outcome = gbdt_analysis::model_check_workspace(&root).expect("workspace walk succeeds");
    let verified: BTreeSet<(&str, &str)> = outcome
        .units
        .iter()
        .filter(|u| u.skipped.is_none())
        .map(|u| (u.path.as_str(), u.name.as_str()))
        .collect();
    for (path, name) in [
        ("crates/cluster/src/collectives.rs", "broadcast"),
        ("crates/cluster/src/collectives.rs", "gather"),
        ("crates/cluster/src/collectives.rs", "all_gather"),
        ("crates/cluster/src/collectives.rs", "reduce_scatter_f64"),
        ("crates/cluster/src/ps.rs", "ps_push_and_reduce"),
        ("crates/partition/src/transform.rs", "all_to_all"),
        ("crates/partition/src/transform.rs", "build_global_cuts"),
    ] {
        assert!(verified.contains(&(path, name)), "no verified schedule for {path}::{name}");
    }
    // The growth loop, every policy file, and Vero's driver.
    for path in TRAINER_FILES.iter().copied().chain(["crates/vero/src/system.rs"]) {
        assert!(
            verified.iter().any(|(p, _)| *p == path),
            "no verified schedule extracted from {path}"
        );
    }
}

/// The one loop's verified schedule is not empty: between `fault_point`s it
/// meets every policy call as a rendezvous, because each of `root`,
/// `build`, `propose` and `apply` issues a collective in some policy. The
/// `--model-check` report prints that list under the unit.
#[test]
fn growth_loop_schedule_contains_the_policy_calls() {
    let root = workspace_root();
    let outcome = gbdt_analysis::model_check_workspace(&root).expect("workspace walk succeeds");
    let unit = outcome
        .units
        .iter()
        .find(|u| u.path == GROWTH_LOOP && u.name == "train_worker" && u.skipped.is_none())
        .expect("grow::train_worker is a verified unit");
    for kind in ["fault_point", "fn root", "fn build", "fn propose", "fn apply"] {
        assert!(
            unit.rendezvous.iter().any(|k| k == kind),
            "train_worker never meets `{kind}`: {:?}",
            unit.rendezvous
        );
    }
    let report = gbdt_analysis::mc::render_report(&outcome);
    let listed = format!("meets: {}", unit.rendezvous.join(", "));
    assert!(report.contains(&listed), "report does not list `{listed}`:\n{report}");
}

/// Loads the workspace sources and applies `mutate` to the one file at
/// `rel`, returning the full mutated file set.
fn mutated_workspace(root: &Path, rel: &str, mutate: impl Fn(&str) -> String) -> Vec<(String, String)> {
    let mut files = gbdt_analysis::workspace_sources(root).expect("workspace walk succeeds");
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
    gbdt_analysis::model_check_files(files)
        .diags
        .into_iter()
        .filter(|d| d.path == rel)
        .map(|d| d.rule.to_string())
        .collect()
}

/// Acceptance check: a rank-conditional collective injected into each real
/// trainer file — the growth loop and every policy file — is caught by the
/// simulator as a divergent rendezvous. This is the workspace's only
/// rank-branch deadlock check; `fixtures/mc/bad_mc_rank_*.rs` hold it to
/// every shape a rank test takes (`if`, `else`, a `let`-bound rank, an
/// opaque owner, `match`, `while`).
#[test]
fn injected_rank_conditional_collective_fails_the_model_check() {
    let root = workspace_root();
    for rel in TRAINER_FILES.iter().copied() {
        let files = mutated_workspace(&root, rel, |src| {
            let mut s = src.to_string();
            s.push_str(
                "\n\npub fn injected_sync(ctx: &mut WorkerCtx, buf: &mut [f64]) -> Result<(), CommError> {\n\
                 \x20   if ctx.comm.rank() == 0 {\n\
                 \x20       ctx.comm.all_reduce_f64(buf)?;\n\
                 \x20   }\n\
                 \x20   Ok(())\n\
                 }\n",
            );
            s
        });
        let fired = rules_at(&files, rel);
        assert!(
            fired.contains("mc-collective-divergence"),
            "{rel}: injected divergence not caught; fired {fired:?}"
        );
    }
}

/// Acceptance check: retagging the repartition receive so it no longer
/// matches the send makes the all-to-all schedule deadlock in simulation.
#[test]
fn injected_tag_mismatch_deadlocks_the_repartition() {
    let root = workspace_root();
    let rel = "crates/partition/src/transform.rs";
    let files = mutated_workspace(&root, rel, |src| {
        src.replace(
            "ctx.comm.recv(from, REPARTITION_A2A_TAG)",
            "ctx.comm.recv(from, SERVE_REQUEST_TAG)",
        )
    });
    let fired = rules_at(&files, rel);
    assert!(fired.contains("mc-deadlock"), "{rel}: tag mismatch not caught; fired {fired:?}");
}

/// Acceptance check: a receive-before-send ring appended to the collectives
/// layer is caught as a cyclic wait.
#[test]
fn injected_recv_before_send_ring_deadlocks() {
    let root = workspace_root();
    let rel = "crates/cluster/src/collectives.rs";
    let files = mutated_workspace(&root, rel, |src| {
        let mut s = src.to_string();
        s.push_str(
            "\n\nimpl Communicator {\n\
             \x20   pub fn injected_ring_exchange(&self, payload: Bytes) -> Result<Bytes, CommError> {\n\
             \x20       let tag = self.alloc_collective_tag();\n\
             \x20       let next = (self.rank() + 1) % self.world();\n\
             \x20       let prev = (self.rank() + self.world() - 1) % self.world();\n\
             \x20       let got = self.recv(prev, tag)?;\n\
             \x20       self.send(next, tag, payload)?;\n\
             \x20       Ok(got)\n\
             \x20   }\n\
             }\n",
        );
        s
    });
    let fired = rules_at(&files, rel);
    assert!(fired.contains("mc-deadlock"), "{rel}: injected ring not caught; fired {fired:?}");
}

/// Acceptance check: mistagging the replica's health reply as a PING makes
/// it a frame the router never listens for.
#[test]
fn injected_health_pong_mistag_orphans_the_frame() {
    let root = workspace_root();
    let rel = "crates/serve/src/replica.rs";
    let files = mutated_workspace(&root, rel, |src| {
        src.replace("SERVE_HEALTH_PONG_TAG", "SERVE_HEALTH_PING_TAG")
    });
    let fired = rules_at(&files, rel);
    assert!(
        fired.contains("mc-orphan-frame"),
        "{rel}: mistagged health reply not caught; fired {fired:?}"
    );
}
