//! `gbdt-analysis`: workspace lint + SPMD protocol checker.
//!
//! The reproduction's headline claims — quadrant equivalence, codec
//! invariance, chaos-recovery bit-identity — all reduce to two invariants:
//! *nothing nondeterministic reaches wire bytes or model output*, and
//! *every rank executes the same collective schedule*. The runtime suites
//! sample those properties; this crate checks them structurally, at the
//! source level, on every CI run.
//!
//! Two passes over the same lexed sources:
//! * **Lint** — [`lexer`] (a minimal Rust tokenizer that is sound about
//!   strings, raw strings, char literals, nested block comments, and
//!   `#[cfg(test)]` stripping, and that harvests `// lint: allow(<rule>)`
//!   pragmas) and [`rules`] (the deny-by-default catalog
//!   [`rules::RULES`], tag registry included).
//! * **Model check** (`gbdt-lint --model-check`) — [`ir`]/[`extract`]
//!   lower every protocol-bearing function to a typed op tree, [`mc`]
//!   exhaustively simulates it for world sizes 1–4 (deadlock, collective
//!   divergence, orphan sends, serve-plane frame coverage, fault-path
//!   closure, dead registry tags). A collective under a rank branch is a
//!   collective divergence: the simulator is the one place that check
//!   lives.
//!
//! The crate keeps only what no other check holds. Wire-codec parity is
//! the round-trip tests' (`serve::wire::tests`, `cluster`'s
//! `wire_proptests`), and confining `unsafe` to `gbdt-core::kernels::simd`
//! is rustc's (`unsafe_code = "deny"` in every manifest).
//!
//! The `gbdt-lint` binary (and the `workspace_is_lint_clean` /
//! `workspace_is_protocol_clean` tests) walk every product source file —
//! `crates/*/src/**` and `examples/` — and fail on any diagnostic. Test
//! code is exempt by construction: the lexer strips `#[cfg(test)]`
//! items, and the workspace walk skips `tests/` directories, whose
//! failure-path exercises are covered by the clippy `unwrap_used` gate
//! instead.

pub mod extract;
pub mod ir;
pub mod lexer;
pub mod mc;
pub mod rules;

pub use mc::{model_check_files, model_check_workspace, McOutcome};

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One finding, in rustc's `file:line:col` shape.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub line: u32,
    pub col: u32,
    /// Rule id from [`rules::RULES`].
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}]: {}\n  --> {}:{}:{}",
            self.rule, self.message, self.path, self.line, self.col
        )
    }
}

impl Diagnostic {
    /// Hand-rolled JSON object (this crate has no dependencies on purpose).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"path":{},"line":{},"col":{},"rule":{},"message":{}}}"#,
            json_str(&self.path),
            self.line,
            self.col,
            json_str(self.rule),
            json_str(&self.message)
        )
    }
}

/// Serializes a diagnostic list as a JSON array (one object per line for
/// greppable CI logs).
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&d.to_json());
    }
    out.push_str(if diags.is_empty() { "]" } else { "\n]" });
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lints one file's source text. `rel_path` must be workspace-relative with
/// `/` separators — it selects which rules apply (see the scope functions
/// in [`rules`]).
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let lexed = lexer::lex(source);
    rules::check_file(rel_path, &lexed)
}

/// A `//@ path: <workspace-relative path>` directive, as used by the
/// self-test fixtures to lint a snippet *as if* it lived at a scoped
/// location. Honoured by `gbdt-lint FILE` so fixtures fail from the CLI
/// exactly as they do in the test suite.
pub fn virtual_path(source: &str) -> Option<String> {
    source.lines().find_map(|l| {
        l.trim().strip_prefix("//@ path:").map(|p| p.trim().to_string())
    })
}

/// Splits a fixture into its virtual file set. Multi-file fixtures (the
/// model-check suite needs a registry *and* its users, or a router *and*
/// its replica) mark each section with `//@ file: <workspace-relative
/// path>`; a fixture without such markers is a single file at its
/// `//@ path:` (or `rel`). Header lines before the first marker are
/// dropped.
pub fn virtual_files(rel: &str, source: &str) -> Vec<(String, String)> {
    let mut sections: Vec<(String, String)> = Vec::new();
    for line in source.lines() {
        if let Some(p) = line.trim().strip_prefix("//@ file:") {
            sections.push((p.trim().to_string(), String::new()));
        } else if let Some((_, body)) = sections.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    if sections.is_empty() {
        vec![(
            virtual_path(source).unwrap_or_else(|| rel.to_string()),
            source.to_string(),
        )]
    } else {
        sections
    }
}

/// Walks the workspace at `root` and lints every product source file.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    for (rel, src) in workspace_sources(root)? {
        diags.extend(lint_source(&rel, &src));
    }
    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col).cmp(&(b.path.as_str(), b.line, b.col))
    });
    Ok(diags)
}

/// Collects `(workspace-relative path, source)` for every linted file:
/// `crates/*/src/**/*.rs` plus `examples/*.rs`. Skips `target/`, vendored
/// `shims/`, and all `tests/` trees (test code is covered by other gates).
pub fn workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let examples = root.join("examples");
    if examples.is_dir() {
        collect_rs(&examples, &mut files)?;
    }
    let mut out = Vec::with_capacity(files.len());
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push((rel, fs::read_to_string(&f)?));
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Finds the workspace root by walking up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
