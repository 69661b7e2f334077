// Known-bad (`wall-clock`): a wall-clock read inside a serving traversal
// kernel. Only serve/src/stats.rs may read the clock — a clock in the
// scoring hot path both perturbs the measurement and parks nondeterminism
// next to the bit-identity contract.

use std::time::Instant;

pub fn traverse_timed(nodes: &[u32], mut idx: usize) -> (usize, f64) {
    let t0 = Instant::now(); //~ clippy::disallowed_methods
    for _ in 0..8 {
        idx = nodes.get(idx).copied().unwrap_or(0) as usize;
    }
    (idx, t0.elapsed().as_secs_f64())
}
