//! `gbdt-lint` — the workspace determinism / deadlock-freedom gate.
//!
//! ```text
//! gbdt-lint [--root PATH] [--json] [--model-check] [FILE...]
//! ```
//!
//! With no `FILE` arguments, lints every product source in the workspace
//! (`crates/*/src/**`, `examples/`). Explicit files are linted under their
//! workspace-relative paths, so rule scoping behaves identically. Exits 1
//! if any diagnostic fires; `--json` emits a machine-readable array for
//! CI; `--model-check` runs the bounded protocol model checker (worlds 1–4
//! simulation, serve frame coverage, fault-path closure, dead tags)
//! instead of the lint rules and prints the per-unit schedule report, with
//! the rendezvous kinds each unit meets.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: gbdt-lint [--root PATH] [--json] [--model-check] [FILE...]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut model_check = false;
    let mut files: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root requires a path"),
            },
            "--json" => json = true,
            "--model-check" => model_check = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                println!("\nlint rules:");
                for (id, summary) in gbdt_analysis::rules::RULES {
                    println!("  {id:<24} {summary}");
                }
                println!("\nmodel-check rules (--model-check):");
                for (id, summary) in gbdt_analysis::mc::MC_RULES {
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

    // Explicit FILE arguments, read and normalized to workspace-relative
    // paths (with `//@ path:` / `//@ file:` fixture directives honoured).
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

    if model_check {
        let outcome = if files.is_empty() {
            match gbdt_analysis::model_check_workspace(&root) {
                Ok(o) => o,
                Err(e) => return usage(&format!("failed to read workspace: {e}")),
            }
        } else {
            gbdt_analysis::model_check_files(&virtual_set)
        };
        if json {
            println!("{}", gbdt_analysis::diagnostics_to_json(&outcome.diags));
        } else {
            print!("{}", gbdt_analysis::mc::render_report(&outcome));
            for d in &outcome.diags {
                println!("{d}\n");
            }
        }
        return if outcome.diags.is_empty() {
            if !json {
                eprintln!("gbdt-lint: model check clean");
            }
            ExitCode::SUCCESS
        } else {
            if !json {
                eprintln!("gbdt-lint: {} model-check error(s)", outcome.diags.len());
            }
            ExitCode::FAILURE
        };
    }

    let diags = if files.is_empty() {
        match gbdt_analysis::lint_workspace(&root) {
            Ok(d) => d,
            Err(e) => return usage(&format!("failed to read workspace: {e}")),
        }
    } else {
        let mut d = Vec::new();
        for (rel, src) in &virtual_set {
            d.extend(gbdt_analysis::lint_source(rel, src));
        }
        d
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
