//@ path: crates/quadrants/src/qd1.rs
//@ expect: mc-collective-divergence
//! A `match` on the rank with integer arms is a rank test like any `if`:
//! rank 0 takes the arm with the all-reduce, every other rank takes `_`.

fn train(ctx: &mut WorkerCtx, buf: &mut [f64]) -> Result<(), CommError> {
    match ctx.comm.rank() {
        0 => {
            ctx.comm.all_reduce_f64(buf)?;
        }
        _ => {}
    }
    Ok(())
}
