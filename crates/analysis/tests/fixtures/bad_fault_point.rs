//@ path: crates/quadrants/src/grow.rs
//@ expect: fault-point
// Known-bad: the growth loop's per-tree loop never polls fault_point — an
// injected crash can only land mid-tree, where no checkpoint can recover.

pub fn train_worker(ctx: &mut WorkerCtx, config: &TrainConfig) -> Result<(), CommError> {
    for t in 0..config.n_trees {
        grow_tree(ctx, t)?;
    }
    Ok(())
}
