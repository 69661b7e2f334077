// Known-bad (`map-iteration`): draining a HashMap in hash order feeds a
// process-random ordering straight into the output vector.

use std::collections::HashMap; //~ clippy::disallowed_types

pub fn leak_hash_order(m: &mut HashMap<u32, f64>) -> Vec<(u32, f64)> { //~ clippy::disallowed_types
    let mut out = Vec::new();
    for (k, v) in m.drain() { //~ clippy::iter_over_hash_type
        out.push((k, v));
    }
    out
}
