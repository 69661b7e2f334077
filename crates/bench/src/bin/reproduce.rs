//! `reproduce [NAME…] [--scale S] [--faults SPEC]`: regenerates the
//! paper's tables and figures into `results/<name>.jsonl`, echoing each as
//! an aligned table. No names runs every experiment of
//! `gbdt_bench::experiments::EXPERIMENTS`.

#![allow(
    clippy::disallowed_methods,
    reason = "a CLI entry point reads its own arguments"
)]

use gbdt_bench::args::Args;
use gbdt_bench::experiments::{select, Driver};
use std::process::exit;

fn main() {
    let args = Args::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("reproduce: {e}");
        exit(2)
    });
    let chosen = select(&args.names).unwrap_or_else(|e| {
        eprintln!("reproduce: {e}");
        exit(2)
    });
    let driver = Driver::new(args.scale, args.faults, "results");
    let mut failed = false;
    for exp in chosen {
        match driver.run(exp) {
            Ok(path) => println!("\nRows written to {}", path.display()),
            Err(e) => {
                eprintln!("reproduce: results/{} not updated: {e}", exp.file);
                failed = true;
            }
        }
    }
    if failed {
        exit(1);
    }
}
