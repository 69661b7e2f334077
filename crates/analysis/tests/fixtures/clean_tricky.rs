//@ path: crates/quadrants/src/grow.rs
// Clean file under the strictest scope (the growth loop): every construct below
// LOOKS like a violation to a naive matcher but is fine — strings, comments,
// raw strings and char literals quoting bad code, the one per-tree loop with
// its fault_point poll, and test-only code.

/* A block comment quoting bad code:
   /* nested! */ for t in 0..config.n_trees { grow_tree(ctx, t)?; }
   const STRAY_TAG: u64 = 7;
   still inside the comment. */

pub fn train_worker(ctx: &mut WorkerCtx, config: &TrainConfig) -> Result<(), CommError> {
    // A commented-out second loop must not fire:
    // for t in start_tree..config.n_trees { grow_tree(ctx, t)?; }
    let diag = "const STRAY_TAG: u64 = 7; for t in 0..config.n_trees {}";
    let raw = r#"for t in start_tree..config.n_trees { ctx.comm.send(1, SHUFFLE_TAG, b) }"#;
    let marker = '{';
    let bytes = b"const BYTE_TAG: u64 = 1;";
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

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_ONLY_TAG: u64 = 0x7e57;

    #[test]
    fn test_code_may_loop_over_trees_and_tag_its_own_messages() {
        for t in 0..config.n_trees {
            ctx.comm.send(1, TEST_ONLY_TAG, encode_tree(t)).unwrap();
        }
    }
}
