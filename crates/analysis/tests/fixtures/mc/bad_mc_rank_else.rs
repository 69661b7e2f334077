//@ path: crates/quadrants/src/qd1.rs
//@ expect: mc-collective-divergence
//! The collective sits in the `else` arm of a rank test: only rank 0
//! reaches the all-reduce, every other rank takes the other arm and
//! finishes the schedule without it.

fn train(ctx: &mut WorkerCtx, buf: &mut [f64]) -> Result<(), CommError> {
    if ctx.comm.rank() != 0 {
        buf.fill(0.0);
    } else {
        ctx.comm.all_reduce_f64(buf)?;
    }
    Ok(())
}
