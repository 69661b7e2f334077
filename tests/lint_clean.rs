//! Tier-1 gate: the workspace is clippy-clean under the determinism rules
//! (DESIGN.md item 10), so a plain `cargo test -q` enforces every rule
//! without needing `--workspace`.
//!
//! Types and clippy hold the rules. The protocol's are types: a
//! point-to-point tag is a variant of `gbdt_cluster::Tag` (a repeated id is
//! rustc error E0081), and a serving frame is a variant of its receiving
//! role's inbox (`gbdt_serve::inbox`), so a frame nobody accepts does not
//! compile. The tests hold what a type cannot: `tests/chaos_recovery.rs`
//! that the growth loop polls `fault_point`, `tests/serve_chaos.rs` that a
//! crashed replica purges its queue and announces its recovery. clippy
//! holds hash-order iteration, wall-clock and environment reads, comm-layer
//! panics, indexing and unwraps, and stale exemptions: the root
//! `clippy.toml` names the disallowed types and methods,
//! `[workspace.lints]` sets their levels, and module-level `#![deny]` lines
//! carry the path-scoped ones. The fixtures in `tests/clippy_fixtures/`
//! show each rule fires; [`SCOPES`] shows each scoped file carries its deny
//! line.
//!
//! The SPMD protocol is checked on the code that runs (DESIGN.md item 15).

use serde_json::Value;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The comm layer's deny line: a panic or an out-of-bounds index there
/// strands every peer blocked on the rendezvous.
const COMM_LAYER: &str =
    "#![deny(clippy::panic, clippy::unimplemented, clippy::todo, clippy::indexing_slicing)]";

/// The supervised paths' deny line: an unwrap turns a recoverable
/// `CommError` into a worker abort that bypasses retry and supervision.
const COMM_UNWRAP: &str = "#![deny(clippy::unwrap_used, clippy::expect_used)]";

/// `(scope, deny line, files that must carry it)`. A crate root's line
/// covers its whole crate.
const SCOPES: &[(&str, &str, &[&str])] = &[
    (
        "comm-layer",
        COMM_LAYER,
        &[
            "crates/cluster/src/comm.rs",
            "crates/cluster/src/collectives.rs",
            "crates/cluster/src/fault.rs",
        ],
    ),
    (
        "comm-unwrap",
        COMM_UNWRAP,
        &[
            "crates/cluster/src/lib.rs",
            "crates/partition/src/lib.rs",
            "crates/quadrants/src/common.rs",
            "crates/vero/src/system.rs",
            // The growth loop and every policy it is generic over.
            "crates/quadrants/src/grow.rs",
            "crates/quadrants/src/vertical.rs",
            "crates/quadrants/src/horizontal.rs",
            "crates/quadrants/src/qd1.rs",
            "crates/quadrants/src/qd2.rs",
            "crates/quadrants/src/qd3.rs",
            "crates/quadrants/src/qd4.rs",
            "crates/quadrants/src/yggdrasil.rs",
            "crates/quadrants/src/featpar.rs",
        ],
    ),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `cargo clippy` with its own target directory under `name`, so it never
/// waits on the build lock of the `cargo test` that runs it. `None`, after
/// a skip line, where `cargo clippy --version` fails.
fn clippy(name: &str) -> Option<Command> {
    let cargo = env!("CARGO");
    let version = Command::new(cargo).args(["clippy", "--version"]).output();
    if !version.is_ok_and(|o| o.status.success()) {
        eprintln!("skipped: `cargo clippy --version` failed, so clippy is not installed");
        return None;
    }
    let mut cmd = Command::new(cargo);
    cmd.args(["clippy", "--offline", "--quiet", "--target-dir"])
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join(name));
    Some(cmd)
}

#[test]
fn workspace_is_clippy_clean() {
    let Some(mut cmd) = clippy("clippy") else {
        return;
    };
    let out = cmd
        .current_dir(root())
        .args(["--workspace", "--all-targets", "--", "-D", "warnings"])
        .output()
        .expect("cargo clippy runs");
    assert!(
        out.status.success(),
        "`cargo clippy --workspace --all-targets -- -D warnings` fails:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Removing a scope's deny line, or a crate's inheritance of the
/// workspace's lint levels, fails here.
#[test]
fn old_scopes_carry_their_deny_lines() {
    for &(scope, line, files) in SCOPES {
        for file in files {
            let src = fs::read_to_string(root().join(file)).expect("scoped file is readable");
            assert!(
                src.lines().any(|l| l == line),
                "{file} lost the {scope} deny line `{line}`"
            );
        }
    }
    for entry in fs::read_dir(root().join("crates")).expect("crates/ is readable") {
        let manifest = entry.expect("readable entry").path().join("Cargo.toml");
        let text = fs::read_to_string(&manifest).expect("every crate has a manifest");
        assert!(
            text.contains("[lints]\nworkspace = true"),
            "{} does not inherit [workspace.lints]",
            manifest.display()
        );
    }
}

/// The root manifest's `[workspace.lints.*]` tables as a package's
/// `[lints.*]` tables.
fn workspace_lints() -> String {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).expect("root manifest");
    let mut out = String::new();
    let mut inside = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            inside = line.starts_with("[workspace.lints.");
            if inside {
                out.push_str(&line.replacen("[workspace.", "[", 1));
                out.push('\n');
                continue;
            }
        }
        if inside {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// `(file name, line, lint)` for every `//~ <lint>[, <lint>]` marker.
fn markers(name: &str, src: &str) -> BTreeSet<(String, u64, String)> {
    let mut out = BTreeSet::new();
    for (i, line) in src.lines().enumerate() {
        if let Some((_, lints)) = line.split_once("//~") {
            for lint in lints.split(',') {
                out.insert((name.to_string(), i as u64 + 1, lint.trim().to_string()));
            }
        }
    }
    out
}

/// Each fixture of a rule clippy holds is rejected,
/// under the root `clippy.toml` and the workspace's lint levels, by exactly
/// the lints its `//~` markers name on exactly those lines. A fixture with
/// an `//@ scope:` directive gets that scope's deny line, as the scoped
/// files carry it.
#[test]
fn clippy_rejects_the_moved_rules_fixtures() {
    let Some(mut cmd) = clippy("clippy-fixtures") else {
        return;
    };
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-fixture-crate");
    fs::create_dir_all(&dir).expect("fixture crate directory");
    let mut fixtures: Vec<PathBuf> = fs::read_dir(root().join("tests/clippy_fixtures"))
        .expect("fixtures directory exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    fixtures.sort();

    let mut lib = String::new();
    let mut expected = BTreeSet::new();
    for path in &fixtures {
        let name = path
            .file_name()
            .expect("file name")
            .to_string_lossy()
            .to_string();
        let src = fs::read_to_string(path).expect("fixture is readable");
        let marked = markers(&name, &src);
        assert!(
            !marked.is_empty(),
            "{name}: a bad fixture marks its lints with //~"
        );
        expected.extend(marked);
        if let Some(scope) = src.lines().find_map(|l| l.strip_prefix("//@ scope: ")) {
            let (_, line, _) = SCOPES
                .iter()
                .find(|(s, _, _)| *s == scope)
                .expect("known scope");
            lib.push_str(&line.replacen("#![", "#[", 1));
            lib.push('\n');
        }
        lib.push_str(&format!(
            "#[path = {:?}]\npub mod {};\n",
            path,
            name.trim_end_matches(".rs")
        ));
    }
    let manifest = format!(
        "[package]\nname = \"clippy-fixtures\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
         [lib]\npath = \"lib.rs\"\n\n[workspace]\n\n{}",
        workspace_lints()
    );
    fs::write(dir.join("Cargo.toml"), manifest).expect("write fixture manifest");
    fs::write(dir.join("lib.rs"), lib).expect("write fixture crate root");

    let out = cmd
        .current_dir(&dir)
        .env("CLIPPY_CONF_DIR", root())
        .args(["--message-format", "json", "--", "-D", "warnings"])
        .output()
        .expect("cargo clippy runs");
    assert!(!out.status.success(), "clippy accepted the bad fixtures");
    let mut fired = BTreeSet::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let msg: Value = serde_json::from_str(line).expect("cargo emits JSON lines");
        let Some(msg) = msg.get("message") else {
            continue;
        };
        let Some(lint) = msg
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Value::as_str)
        else {
            continue;
        };
        for span in msg
            .get("spans")
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
        {
            if span.get("is_primary").and_then(Value::as_bool) != Some(true) {
                continue;
            }
            let file = span
                .get("file_name")
                .and_then(Value::as_str)
                .unwrap_or_default();
            let name = Path::new(file)
                .file_name()
                .unwrap_or_default()
                .to_string_lossy();
            let line = span
                .get("line_start")
                .and_then(Value::as_u64)
                .unwrap_or_default();
            fired.insert((name.to_string(), line, lint.to_string()));
        }
    }
    assert_eq!(
        fired, expected,
        "clippy's findings differ from the fixtures' //~ markers"
    );

    let lints: BTreeSet<&str> = expected.iter().map(|(_, _, lint)| lint.as_str()).collect();
    let mapped = [
        "clippy::disallowed_methods",
        "clippy::disallowed_types",
        "clippy::expect_used",
        "clippy::indexing_slicing",
        "clippy::iter_over_hash_type",
        "clippy::panic",
        "clippy::todo",
        "clippy::unimplemented",
        "clippy::unwrap_used",
        "unfulfilled_lint_expectations",
    ];
    assert_eq!(
        lints,
        BTreeSet::from(mapped),
        "every mapped lint needs a fixture that fires it"
    );
}
