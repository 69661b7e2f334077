//@ path: crates/quadrants/src/qd2.rs
//@ expect: mc-collective-divergence
//! The rank is bound to a name first and the branch tests the name: the
//! checker must see through the binding. Rank 0 enters the all-reduce,
//! the rest never arrive.

pub fn train_layer(ctx: &mut WorkerCtx, buf: &mut [f64]) -> Result<(), CommError> {
    let rank = ctx.rank();
    if rank == 0 {
        ctx.comm.all_reduce_f64(buf)?;
    }
    Ok(())
}
