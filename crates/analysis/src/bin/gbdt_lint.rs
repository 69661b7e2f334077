//! `gbdt-lint` — the protocol half of the workspace determinism gate.
//!
//! ```text
//! gbdt-lint [--root PATH] [--json] [FILE...]
//! ```
//!
//! With no `FILE` arguments, lints every product source in the workspace
//! (`crates/*/src/**`, `examples/`). Explicit files are linted as one set
//! under their workspace-relative paths (fixtures' `//@ path:` and
//! `//@ file:` directives honoured), so rule scoping and the rules that
//! compare files behave identically. Exits 1 if any diagnostic fires;
//! `--json` emits a machine-readable array for CI.

#![allow(
    clippy::disallowed_methods,
    reason = "a CLI entry point reads its own arguments"
)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: gbdt-lint [--root PATH] [--json] [FILE...]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut files: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root requires a path"),
            },
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                println!("\nlint rules:");
                for (id, summary) in gbdt_analysis::rules::RULES {
                    println!("  {id:<24} {summary}");
                }
                return ExitCode::SUCCESS;
            }
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => return usage(&format!("unknown flag {other}")),
        }
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(root) = root.or_else(|| gbdt_analysis::find_workspace_root(&cwd)) else {
        return usage("could not find a workspace root (no Cargo.toml with [workspace] above cwd)");
    };

    let diags = if files.is_empty() {
        match gbdt_analysis::lint_workspace(&root) {
            Ok(d) => d,
            Err(e) => return usage(&format!("failed to read workspace: {e}")),
        }
    } else {
        // Explicit FILE arguments, read and normalized to workspace-relative
        // paths.
        let mut virtual_set: Vec<(String, String)> = Vec::new();
        for f in &files {
            let abs = if PathBuf::from(f).is_absolute() { PathBuf::from(f) } else { cwd.join(f) };
            let rel = abs
                .strip_prefix(&root)
                .map(|p| p.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/"))
                .unwrap_or_else(|_| f.clone());
            match std::fs::read_to_string(&abs) {
                Ok(src) => virtual_set.extend(gbdt_analysis::virtual_files(&rel, &src)),
                Err(e) => return usage(&format!("cannot read {f}: {e}")),
            }
        }
        gbdt_analysis::lint_files(&virtual_set)
    };

    if json {
        println!("{}", gbdt_analysis::diagnostics_to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}\n");
        }
        if diags.is_empty() {
            eprintln!("gbdt-lint: clean");
        } else {
            eprintln!("gbdt-lint: {} error(s)", diags.len());
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("gbdt-lint: {err}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}
