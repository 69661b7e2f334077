//@ path: crates/quadrants/src/vertical.rs
//@ expect: mc-collective-divergence
//! The split's owner comes from a call the checker cannot evaluate, and
//! only the owner enters the broadcast. The owner is enumerated over
//! every rank; for each choice the other ranks never arrive.

fn apply(ctx: &mut WorkerCtx, split: &Split) -> Result<(), CommError> {
    let rank = ctx.rank();
    let owner = owner_of(split.feature);
    if rank == owner {
        ctx.comm.broadcast(owner, encode_bitmap(split))?;
    }
    Ok(())
}
