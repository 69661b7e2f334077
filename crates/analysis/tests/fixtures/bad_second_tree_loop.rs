//@ path: crates/quadrants/src/qd3.rs
//@ expect: fault-point
// Known-bad: a policy file growing trees in a loop of its own. Even though
// it polls fault_point, it bypasses the one loop in quadrants::grow that
// owns checkpoint/restore, the min_node_instances gate and per-tree timing.

pub fn train_worker(ctx: &mut WorkerCtx, config: &TrainConfig) -> Result<(), CommError> {
    let start_tree = 0;
    for t in start_tree..config.n_trees {
        ctx.fault_point(t, 0);
        grow_tree(ctx, t)?;
    }
    Ok(())
}
