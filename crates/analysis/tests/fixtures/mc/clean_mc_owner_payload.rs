//@ path: crates/quadrants/src/vertical.rs
//! The sanctioned shape of the vertical quadrants (§3.1.3, §4): the
//! worker that owns a split's feature encodes the placement bitmap, every
//! other worker contributes an empty payload, and every rank reaches the
//! broadcast. The payload depends on the rank; the schedule does not.

fn apply(ctx: &mut WorkerCtx, splits: &[Split]) -> Result<(), CommError> {
    let rank = ctx.rank();
    for split in splits {
        let owner = owner_of(split.feature);
        let payload = if rank == owner { encode_bitmap(split) } else { Bytes::new() };
        let bitmap = ctx.comm.broadcast(owner, payload)?;
        apply_bitmap(bitmap);
    }
    Ok(())
}
