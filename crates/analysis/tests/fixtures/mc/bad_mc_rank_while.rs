//@ path: crates/quadrants/src/qd1.rs
//@ expect: mc-collective-divergence
//! A `while` whose condition tests the rank: rank 0 enters the loop and
//! the all-reduce, every other rank skips the loop on its first test.

fn train(ctx: &mut WorkerCtx, buf: &mut [f64]) -> Result<(), CommError> {
    while ctx.comm.rank() == 0 {
        ctx.comm.all_reduce_f64(buf)?;
        break;
    }
    Ok(())
}
