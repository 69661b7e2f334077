// Known-bad (`ambient-env`): process environment and thread identity are
// ambient inputs a trainer must never consult.

use std::thread;

pub fn ambient_inputs() -> usize {
    let from_env = std::env::var("GBDT_THREADS").map_or(1, |v| v.len()); //~ clippy::disallowed_methods
    let tid = format!("{:?}", thread::current().id()); //~ clippy::disallowed_methods
    let argc = std::env::args().count(); //~ clippy::disallowed_methods
    from_env + tid.len() + argc
}
