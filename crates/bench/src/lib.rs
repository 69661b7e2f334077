//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5, §6, Appendices A–D).
//!
//! One binary per artifact (`fig10`, `fig11`, `table3`, `fig12`, `table5`,
//! `table6`, `table7`, `table8`) plus `ablations`. Performance is measured
//! by the stand-alone `benchmark/` package, not here. Shared machinery:
//!
//! * [`args`] — a tiny flag parser (`--scale`, `--workers`, `--trees`, …).
//! * [`datasets`] — scaled synthetic stand-ins for every paper dataset.
//! * [`endtoend`] — run machinery shared by Figures 11–12 and Tables 3–4,
//!   and the §5.3 line-up of `gbdt_quadrants::System`, the system table
//!   every binary draws its rows from.
//! * [`output`] — aligned human tables + machine-readable JSONL rows under
//!   `results/`.
//!
//! Absolute numbers will differ from the paper (their 8×4-core cluster vs
//! one process; real vs modelled links); the *shape* of each comparison is
//! the reproduction target, recorded in `EXPERIMENTS.md`.

pub mod args;
pub mod datasets;
pub mod endtoend;
pub mod output;
