//! Tier-1 gate: the workspace is `gbdt-lint` clean.
//!
//! The root-package twin of `gbdt-analysis`'s own
//! `workspace_is_lint_clean` test, so that the plain `cargo test -q`
//! tier-1 run enforces the source-level determinism invariants (DESIGN.md
//! item 10) — the serving plane's frame coverage (`serve-orphan-frame`),
//! its crash-recovery closure (`serve-fault-closure`) and dead registry
//! tags (`tag-registry`) among them — without needing `--workspace`. The
//! SPMD protocol is checked on the code that runs (DESIGN.md item 15). The
//! fixture self-tests and injection tests live with the analysis crate.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let diags = gbdt_analysis::lint_workspace(root).expect("workspace walk succeeds");
    let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
    assert!(
        diags.is_empty(),
        "workspace has {} lint error(s) — run `cargo run -p gbdt-analysis --bin gbdt-lint`:\n{}",
        diags.len(),
        rendered.join("\n")
    );
}
