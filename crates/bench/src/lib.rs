//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5, §6, Appendices A–D).
//!
//! One binary, `reproduce`, runs any subset of the experiment table
//! [`experiments::EXPERIMENTS`] (`table1`, `fig10`, `table2`, `fig11`,
//! `table3`, `fig12`, `table5`–`table8`, `ablations`). Performance is
//! measured by the stand-alone `benchmark/` package, not here. Modules:
//!
//! * [`args`] — the command line: experiment names, `--scale`, `--faults`.
//! * [`datasets`] — scaled synthetic stand-ins for every paper dataset.
//! * [`endtoend`] — one system's end-to-end run with its convergence
//!   curve, and the §5.3 line-up of `gbdt_quadrants::System`.
//! * [`experiments`] — the table: each experiment's shape, claim, output
//!   file and run function, and the driver that builds every cluster.
//! * [`output`] — aligned human tables + machine-readable JSONL rows under
//!   `results/`, replaced only when an experiment finishes.
//!
//! Absolute numbers will differ from the paper (their 8×4-core cluster vs
//! one process; real vs modelled links); the *shape* of each comparison is
//! the reproduction target, recorded in `EXPERIMENTS.md`.

#![allow(
    clippy::disallowed_methods,
    reason = "the bench harness times experiments; nothing it reads reaches a model"
)]

pub mod args;
pub mod datasets;
pub mod endtoend;
pub mod experiments;
pub mod output;
