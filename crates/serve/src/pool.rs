//! Deterministic parallel batch scoring inside one replica.
//!
//! [`Parallel`] wraps any [`ExecStrategy`] and splits a request batch
//! into fixed-size row chunks scored concurrently by scoped threads,
//! reusing the `gbdt-core::parallel` chunked map-reduce discipline
//! ([`par_map_slots`]): chunk boundaries are fixed multiples of
//! [`SCORE_CHUNK`] — *independent of the thread count* — and each chunk
//! writes a disjoint slice of the output buffer. Rows are scored
//! independently (no cross-row accumulation), so any chunking produces
//! bit-identical output to the serial walk; the fixed boundaries
//! additionally keep each chunk aligned with the blocked executor's
//! 64-row tiles.
//!
//! Hot-swap safety is inherited, not re-proven: the wrapper is
//! stateless and scores whatever `&CompiledEnsemble` snapshot the
//! caller passed, so a publish mid-batch can never mix versions — the
//! snapshot was taken once, before the fan-out (see
//! [`crate::server::score_request`]). Degraded-mode prefix scoring
//! parallelizes for free because the wrapper forwards `max_trees` to
//! every chunk.
//!
//! The reply path waits on every chunk: `std::thread::scope` joins all
//! spawned workers before [`ExecStrategy::predict_prefix_into`]
//! returns, so a request's completion time is its *last* chunk's
//! completion — the property the availability harness's latency
//! accounting relies on (no chunk finishes "early" for the ledger).

use crate::compile::CompiledEnsemble;
use crate::exec::ExecStrategy;
use gbdt_core::parallel::par_map_slots;

/// Rows per parallel chunk. Matches the blocked executor's row tile so
/// a chunk is a whole number of tiles, and is small enough that a large
/// batch fans out evenly across any sane thread count.
pub const SCORE_CHUNK: usize = 64;

/// An [`ExecStrategy`] scoring row chunks on a scoped thread pool.
///
/// Construct via [`parallel`], which resolves the thread budget and
/// skips the wrapper entirely when it would be a no-op.
pub struct Parallel {
    inner: Box<dyn ExecStrategy + Send + Sync>,
    threads: usize,
}

/// Resolves a `score_threads` knob: `0` = one thread per available
/// core, anything else is taken literally.
pub fn resolve_score_threads(score_threads: usize) -> usize {
    if score_threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        score_threads
    }
}

/// Wraps `inner` for parallel chunk scoring with `score_threads`
/// workers (0 = auto). A resolved budget of 1 returns `inner` unwrapped
/// — single-threaded scoring stays the exact code path it always was.
pub fn parallel(
    inner: Box<dyn ExecStrategy + Send + Sync>,
    score_threads: usize,
) -> Box<dyn ExecStrategy + Send + Sync> {
    let threads = resolve_score_threads(score_threads);
    if threads <= 1 {
        inner
    } else {
        Box::new(Parallel { inner, threads })
    }
}

impl ExecStrategy for Parallel {
    fn label(&self) -> String {
        format!("{}+t{}", self.inner.label(), self.threads)
    }

    fn predict_prefix_into(
        &self,
        ens: &CompiledEnsemble,
        rows: &[f32],
        max_trees: usize,
        out: &mut [f64],
    ) {
        assert_eq!(rows.len() % ens.n_features, 0, "ragged row buffer");
        let n_rows = rows.len() / ens.n_features;
        assert_eq!(out.len(), n_rows * ens.n_outputs, "output shape mismatch");
        // A batch within one chunk gains nothing from fan-out: take the
        // serial path directly (identical bits either way).
        if n_rows <= SCORE_CHUNK {
            self.inner.predict_prefix_into(ens, rows, max_trees, out);
            return;
        }
        // Fixed chunk boundaries; disjoint output slices; contiguous
        // chunk blocks per thread (par_map_slots). Joining the scope
        // before returning makes completion = last-chunk completion.
        let mut chunks: Vec<&mut [f64]> = out.chunks_mut(SCORE_CHUNK * ens.n_outputs).collect();
        par_map_slots(&mut chunks, self.threads, |i, o| {
            let start = i * SCORE_CHUNK;
            let end = (start + SCORE_CHUNK).min(n_rows);
            self.inner.predict_prefix_into(
                ens,
                &rows[start * ens.n_features..end * ens.n_features],
                max_trees,
                o,
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::exec::Strategy;
    use gbdt_core::model::GbdtModel;
    use gbdt_core::tree::Tree;
    use gbdt_core::Objective;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn model(n_trees: usize, n_features: usize) -> GbdtModel {
        let mut m = GbdtModel::new(Objective::SquaredError, 0.1, n_features);
        for k in 0..n_trees {
            let mut t = Tree::new(3, 1);
            t.set_internal(0, (k % n_features) as u32, 0, 0.25, k % 2 == 0);
            t.set_internal(1, ((k + 1) % n_features) as u32, 0, -0.5, true);
            t.set_leaf(3, vec![(k as f64 + 1.0) * 0.125]);
            t.set_leaf(4, vec![-0.0625]);
            t.set_leaf(2, vec![0.5 - k as f64 * 0.03125]);
            m.trees.push(t);
        }
        m
    }

    fn rows(seed: u64, n_rows: usize, n_features: usize) -> Vec<f32> {
        let mut state = seed;
        (0..n_rows * n_features)
            .map(|_| {
                if splitmix(&mut state).is_multiple_of(8) {
                    f32::NAN
                } else {
                    (splitmix(&mut state) % 200) as f32 / 100.0 - 1.0
                }
            })
            .collect()
    }

    #[test]
    fn parallel_is_bit_identical_at_every_thread_count() {
        let n_features = 5;
        let ens = compile(&model(30, n_features), 0).unwrap();
        // 3 full chunks + a ragged tail, so boundaries are exercised.
        let rows = rows(0xDECADE, 3 * SCORE_CHUNK + 17, n_features);
        for strategy in [Strategy::PerRow, Strategy::Blocked(0)] {
            let mut expect = vec![0.0f64; rows.len() / n_features];
            strategy.executor().predict_into(&ens, &rows, &mut expect);
            for threads in [0usize, 1, 2, 3, 8, 32] {
                let exec = parallel(strategy.executor(), threads);
                let mut got = vec![0.0f64; expect.len()];
                exec.predict_into(&ens, &rows, &mut got);
                let same = expect.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{} threads={threads} diverged", exec.label());
            }
        }
    }

    #[test]
    fn parallel_prefix_matches_serial_prefix() {
        let n_features = 4;
        let ens = compile(&model(17, n_features), 0).unwrap();
        let rows = rows(7, 2 * SCORE_CHUNK + 5, n_features);
        for k in [0usize, 1, 9, 17, 40] {
            let mut expect = vec![0.0f64; rows.len() / n_features];
            Strategy::PerRow.executor().predict_prefix_into(&ens, &rows, k, &mut expect);
            let exec = parallel(Strategy::PerRow.executor(), 4);
            let mut got = vec![0.0f64; expect.len()];
            exec.predict_prefix_into(&ens, &rows, k, &mut got);
            let same = expect.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "prefix k={k} diverged under parallel scoring");
        }
    }

    #[test]
    fn single_thread_budget_skips_the_wrapper() {
        let exec = parallel(Strategy::PerRow.executor(), 1);
        assert_eq!(exec.label(), "per-row", "threads=1 must not relabel the executor");
        let exec = parallel(Strategy::Blocked(0).executor(), 3);
        assert_eq!(exec.label(), "blocked+t3");
    }

    #[test]
    fn small_batches_take_the_direct_path() {
        // One chunk of rows: the wrapper must not spawn (and must still
        // be bit-identical); we can only observe the bits, so pin those.
        let n_features = 3;
        let ens = compile(&model(5, n_features), 0).unwrap();
        let rows = rows(42, SCORE_CHUNK, n_features);
        let mut expect = vec![0.0f64; SCORE_CHUNK];
        Strategy::PerRow.executor().predict_into(&ens, &rows, &mut expect);
        let mut got = vec![0.0f64; SCORE_CHUNK];
        parallel(Strategy::PerRow.executor(), 8).predict_into(&ens, &rows, &mut got);
        assert_eq!(
            expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
