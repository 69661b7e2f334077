//@ path: crates/quadrants/src/grow.rs
// Clean file under the strictest scope (the growth loop): every construct below
// LOOKS like a violation to a naive matcher but is fine — strings,
// comments, raw strings, sorted iteration, rank-conditional payloads with
// the collective hoisted out, pragma-justified loops, and test-only code.

use std::collections::HashMap;

/* A block comment quoting bad code:
   /* nested! */ ctx.comm.all_reduce_f64(buf).unwrap(); panic!("boom");
   still inside the comment. */

pub fn train_worker(ctx: &mut WorkerCtx, config: &TrainConfig) -> Result<(), CommError> {
    // A commented-out deadlock must not fire:
    // if rank == 0 { ctx.comm.all_reduce_f64(&mut buf)?; }
    let diag = "call .unwrap() and panic! and Instant::now() loudly";
    let raw = r#"for (k, v) in map.drain() { HashMap::new(); }"#;
    let marker = 'u';
    let bytes = b"unwrap() in a byte string";
    log(diag, raw, marker, bytes);

    for t in 0..config.n_trees {
        ctx.fault_point(t, 0);
        let rank = ctx.rank();
        let owner = t % ctx.world();
        // Rank-conditional *payload*, symmetric collective: the sanctioned
        // pattern. Every rank reaches the broadcast.
        let payload = if rank == owner { encode_tree(t) } else { Bytes::new() };
        let full = ctx.comm.broadcast(owner, payload)?;
        apply(full)?;
    }
    Ok(())
}

/// Hash iteration immediately sorted is deterministic and allowed.
pub fn sorted_keys(pool: &HashMap<u32, f64>) -> Vec<u32> {
    let mut keys: Vec<u32> = pool.keys().copied().collect();
    keys.sort_unstable();
    keys
}

/// Order-insensitive reduction over a hash map, justified in place.
pub fn total(pool: &HashMap<u32, f64>) -> f64 {
    let mut sum = 0.0;
    // lint: allow(map-iteration) — f64 sum reordering is absorbed before any wire use
    for v in pool.values() {
        sum += v;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_code_may_unwrap_comm_results() {
        let mut buf = vec![1.0];
        ctx.comm.all_reduce_f64(&mut buf).unwrap();
        if rank == 0 {
            ctx.comm.broadcast(0, payload).unwrap();
        }
        panic!("test-only panics are the clippy gate's business");
    }
}
