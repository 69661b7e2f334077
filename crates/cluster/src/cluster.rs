//! Scoped-thread cluster harness: runs one closure per worker and collects
//! results plus instrumentation.
//!
//! The harness supervises its workers: a panic or a [`CommError`] on any
//! rank cancels the peers promptly (no more blocking forever in `recv`
//! behind a dead worker) and propagates the root cause. With a
//! [`FaultPlan`] attached, scheduled crashes unwind with an
//! [`InjectedCrash`] payload which [`Cluster::run_recoverable`] catches:
//! the failed attempt is thrown away and every worker restarts, using the
//! per-rank checkpoint store to fast-forward past completed trees so the
//! in-flight tree is deterministically replayed.
//!
//! An attempt in which every worker succeeded is then checked for
//! messages nobody received: each endpoint lives until all workers have
//! returned, and one still holding a message fails the run with
//! [`CommError::Unconsumed`]. Training blocks only in `recv(from, tag)`,
//! so the fabric is confluent and this one run decides what a protocol
//! model checker would: a deadlock is a receive timeout, ranks that
//! diverge fail on a payload or a leftover, an orphan send is a leftover.

use crate::comm::Comm;
use crate::cost::NetworkCostModel;
use crate::fault::{CommError, FaultPlan, InjectedCrash, MAX_CRASHES};
use crate::stats::{ClusterStats, WorkerStats};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

type CheckpointSlot = Arc<Mutex<Option<Box<dyn Any + Send>>>>;

/// Everything a worker closure gets: its communication endpoint and its
/// stats sink.
pub struct WorkerCtx {
    /// This worker's mesh endpoint.
    pub comm: Comm,
    /// This worker's instrumentation (folded with comm counters at exit).
    pub stats: WorkerStats,
    faults: Option<FaultPlan>,
    crash_fired: Arc<[AtomicBool; MAX_CRASHES]>,
    checkpoint: Option<CheckpointSlot>,
}

impl WorkerCtx {
    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Number of workers.
    pub fn world(&self) -> usize {
        self.comm.world()
    }

    /// Times `f` as computation in `phase` (convenience passthrough).
    pub fn time<T>(&mut self, phase: crate::stats::Phase, f: impl FnOnce() -> T) -> T {
        #[expect(clippy::disallowed_methods, reason = "times computation for modelled stats only")]
        let start = std::time::Instant::now();
        let out = f();
        self.stats.add_comp(phase, start.elapsed().as_secs_f64());
        out
    }

    /// Fault-injection hook called by trainers at `(tree, layer)`
    /// boundaries. If the attached plan schedules a crash of this rank
    /// here, the worker unwinds with an [`InjectedCrash`] payload — exactly
    /// once across replay attempts, so the recovered run does not re-crash.
    pub fn fault_point(&self, tree: usize, layer: usize) {
        let Some(plan) = self.faults else { return };
        if let Some(i) = plan.crash_index(self.rank(), tree, layer) {
            if !self.crash_fired[i].swap(true, Ordering::SeqCst) {
                // resume_unwind skips the panic hook: an injected crash is
                // scheduled, not a bug, so no backtrace spam.
                resume_unwind(Box::new(InjectedCrash { rank: self.rank(), tree, layer }));
            }
        }
    }

    /// Saves this rank's recovery state (typically `(model, scores, …)`
    /// cloned at a tree boundary). A no-op outside
    /// [`Cluster::run_recoverable`], so fault-free runs pay nothing.
    #[expect(
        clippy::expect_used,
        reason = "a poisoned slot means a worker panicked, which fails the run anyway"
    )]
    pub fn save_checkpoint<T: Clone + Send + 'static>(&self, state: &T) {
        if let Some(slot) = &self.checkpoint {
            *slot.lock().expect("checkpoint lock") = Some(Box::new(state.clone()));
        }
    }

    /// Restores the most recent [`WorkerCtx::save_checkpoint`] state for
    /// this rank, surviving across replay attempts. `None` on a fresh run
    /// or when the saved type differs.
    #[expect(
        clippy::expect_used,
        reason = "a poisoned slot means a worker panicked, which fails the run anyway"
    )]
    pub fn load_checkpoint<T: Clone + Send + 'static>(&self) -> Option<T> {
        let slot = self.checkpoint.as_ref()?;
        let guard = slot.lock().expect("checkpoint lock");
        guard.as_ref()?.downcast_ref::<T>().cloned()
    }
}

/// Why a run attempt failed: a worker panic (with its payload) or the first
/// typed communication error.
enum Failure {
    Panic(Box<dyn Any + Send>),
    Comm(usize, CommError),
}

/// A W-worker simulated cluster.
#[derive(Debug, Clone, Copy)]
pub struct Cluster {
    /// Number of workers W.
    pub world: usize,
    /// Link model used for communication-time accounting.
    pub cost: NetworkCostModel,
    /// Optional deterministic fault-injection plan.
    pub faults: Option<FaultPlan>,
}

impl Cluster {
    /// Cluster with the paper's §5.1 lab link model (1 Gbps).
    pub fn new(world: usize) -> Self {
        Cluster { world, cost: NetworkCostModel::lab_cluster(), faults: None }
    }

    /// Cluster with an explicit link model.
    pub fn with_cost(world: usize, cost: NetworkCostModel) -> Self {
        Cluster { world, cost, faults: None }
    }

    /// Attaches a fault-injection plan.
    pub fn with_faults(mut self, faults: Option<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Runs `f` once per worker on its own OS thread; returns each worker's
    /// output and its stats, indexed by rank.
    ///
    /// A panic on any worker cancels the peers and propagates in bounded
    /// time. Scheduled crashes are *not* recovered here — use
    /// [`Cluster::run_recoverable`] for that.
    pub fn run<T, F>(&self, f: F) -> (Vec<T>, ClusterStats)
    where
        T: Send,
        F: Fn(&mut WorkerCtx) -> T + Sync,
    {
        let crash_fired: Arc<[AtomicBool; MAX_CRASHES]> = Arc::new(std::array::from_fn(|_| AtomicBool::new(false)));
        match self.run_attempt(&|ctx| Ok(f(ctx)), &crash_fired, None) {
            Ok(out) => out,
            Err((Failure::Panic(payload), _)) => resume_unwind(payload),
            Err((Failure::Comm(rank, e), _)) => panic!("worker {rank} failed: {e}"),
        }
    }

    /// Like [`Cluster::run`], but the closure returns a `Result` so comm
    /// errors surface as values instead of panics.
    pub fn try_run<T, F>(&self, f: F) -> Result<(Vec<T>, ClusterStats), CommError>
    where
        T: Send,
        F: Fn(&mut WorkerCtx) -> Result<T, CommError> + Sync,
    {
        let crash_fired: Arc<[AtomicBool; MAX_CRASHES]> = Arc::new(std::array::from_fn(|_| AtomicBool::new(false)));
        match self.run_attempt(&f, &crash_fired, None) {
            Ok(out) => Ok(out),
            Err((Failure::Panic(payload), _)) => resume_unwind(payload),
            Err((Failure::Comm(_, e), _)) => Err(e),
        }
    }

    /// Runs `f` with crash recovery: when a worker unwinds with an
    /// [`InjectedCrash`] payload, the whole attempt is discarded and every
    /// worker restarts against a fresh mesh. A per-rank checkpoint store
    /// survives attempts, so closures that `save_checkpoint` at tree
    /// boundaries and `load_checkpoint` on entry fast-forward past
    /// completed trees and replay only the in-flight tree. The number of
    /// recoveries and the wall-clock seconds lost to failed attempts are
    /// reported in the returned [`ClusterStats`].
    ///
    /// Non-injected panics and comm errors propagate like [`Cluster::run`].
    pub fn run_recoverable<T, F>(&self, f: F) -> (Vec<T>, ClusterStats)
    where
        T: Send,
        F: Fn(&mut WorkerCtx) -> Result<T, CommError> + Sync,
    {
        let crash_fired: Arc<[AtomicBool; MAX_CRASHES]> = Arc::new(std::array::from_fn(|_| AtomicBool::new(false)));
        let checkpoints: Vec<CheckpointSlot> =
            (0..self.world).map(|_| Arc::new(Mutex::new(None))).collect();
        let budget = self.faults.map_or(0, |p| p.crashes().count());
        // No scheduled crashes -> no store: fault-free runs skip the
        // per-tree checkpoint clone entirely.
        let store = if budget > 0 { Some(checkpoints.as_slice()) } else { None };
        let mut recoveries = 0u64;
        let mut recovery_seconds = 0.0f64;
        // Per-rank stats of failed attempts: the bytes and seconds a crash
        // wasted are real overhead and must survive into the final report.
        let mut carry: Vec<WorkerStats> = vec![WorkerStats::default(); self.world];
        loop {
            #[expect(
                clippy::disallowed_methods,
                reason = "times computation for modelled stats only"
            )]
            let start = std::time::Instant::now();
            match self.run_attempt(&f, &crash_fired, store) {
                Ok((outputs, mut stats)) => {
                    for (w, lost) in stats.workers.iter_mut().zip(&carry) {
                        w.merge(lost);
                    }
                    stats.recoveries = recoveries;
                    stats.recovery_seconds = recovery_seconds;
                    return (outputs, stats);
                }
                Err((Failure::Panic(payload), lost)) => {
                    let recoverable = payload.downcast_ref::<InjectedCrash>().is_some()
                        && (recoveries as usize) < budget;
                    if !recoverable {
                        resume_unwind(payload);
                    }
                    for (acc, w) in carry.iter_mut().zip(&lost) {
                        acc.merge(w);
                    }
                    recoveries += 1;
                    recovery_seconds += start.elapsed().as_secs_f64();
                }
                Err((Failure::Comm(rank, e), _)) => panic!("worker {rank} failed: {e}"),
            }
        }
    }

    /// One supervised attempt: spawns the workers, watches a completion
    /// channel, and cancels every peer as soon as the first worker fails.
    ///
    /// On failure the per-rank stats collected before the attempt died are
    /// returned alongside the root cause, so a recovering caller can account
    /// the wasted traffic and computation.
    #[expect(clippy::expect_used, reason = "with no failure, every worker filled its slot")]
    fn run_attempt<T, F>(
        &self,
        f: &F,
        crash_fired: &Arc<[AtomicBool; MAX_CRASHES]>,
        checkpoints: Option<&[CheckpointSlot]>,
    ) -> Result<(Vec<T>, ClusterStats), (Failure, Vec<WorkerStats>)>
    where
        T: Send,
        F: Fn(&mut WorkerCtx) -> Result<T, CommError> + Sync,
    {
        let (mesh, control) = Comm::mesh_with(self.world, self.cost, self.faults);
        // Each worker hands its endpoint back with its output, so no
        // endpoint closes before every worker has returned: a late send
        // lands in a queue the check below reads instead of failing.
        let mut slots: Vec<Option<(Option<T>, WorkerStats, Comm)>> =
            (0..self.world).map(|_| None).collect();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<(usize, Option<Failure>)>();
        let failure = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.world);
            for (comm, slot) in mesh.into_iter().zip(slots.iter_mut()) {
                let done = done_tx.clone();
                let faults = self.faults;
                let crash_fired = Arc::clone(crash_fired);
                let checkpoint = checkpoints.map(|c| Arc::clone(&c[comm.rank()]));
                handles.push(scope.spawn(move || {
                    let rank = comm.rank();
                    let mut ctx = WorkerCtx {
                        comm,
                        stats: WorkerStats::default(),
                        faults,
                        crash_fired,
                        checkpoint,
                    };
                    let result = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                    ctx.comm.fold_into(&mut ctx.stats);
                    let (out, outcome) = match result {
                        Ok(Ok(out)) => (Some(out), None),
                        Ok(Err(e)) => (None, Some(Failure::Comm(rank, e))),
                        Err(payload) => (None, Some(Failure::Panic(payload))),
                    };
                    *slot = Some((out, ctx.stats, ctx.comm));
                    // The supervisor (below) outlives every worker; a send
                    // failure would mean it already stopped listening.
                    let _ = done.send((rank, outcome));
                }));
            }
            drop(done_tx);
            // Supervise: collect one completion per worker; cancel the rest
            // the moment the first failure lands. Workers blocked in `recv`
            // wake with `CommError::Cancelled`, so the scope exits in
            // bounded time instead of hanging behind a dead peer.
            let mut failures: Vec<Failure> = Vec::new();
            while let Ok((_rank, outcome)) = done_rx.recv() {
                if let Some(failure) = outcome {
                    if failures.is_empty() {
                        control.cancel_all();
                    }
                    failures.push(failure);
                }
            }
            // Join, not just the scope's own wait: the scope returns once
            // every closure has finished, while the OS threads are still
            // tearing down and still own their allocator arenas. The next
            // call's workers would then race that teardown, and when they
            // win they get a fresh arena beside the old ones' retained heap
            // (≈ 10 MB more resident for the rest of the process on
            // `train-quadrants`). A joined thread has given its arena back.
            for handle in handles {
                if let Err(payload) = handle.join() {
                    resume_unwind(payload);
                }
            }
            pick_root_cause(failures)
        });
        // Every worker has returned, so a message still waiting now was
        // sent and never received: the protocol, not the numbers, is wrong.
        // Only a successful attempt is checked; a failed one was cut short.
        let failure = failure.or_else(|| {
            slots.iter().enumerate().find_map(|(holder, slot)| {
                let (from, tag) = slot.as_ref()?.2.unconsumed()?;
                Some(Failure::Comm(holder, CommError::Unconsumed { holder, from, tag }))
            })
        });
        if let Some(failure) = failure {
            let lost = slots
                .into_iter()
                .map(|slot| slot.map(|(_, stats, _)| stats).unwrap_or_default())
                .collect();
            return Err((failure, lost));
        }
        let (outputs, stats): (Vec<T>, Vec<WorkerStats>) = slots
            .into_iter()
            .map(|slot| {
                let (out, stats, _) = slot.expect("worker finished");
                (out.expect("worker finished without failure"), stats)
            })
            .unzip();
        Ok((outputs, ClusterStats::new(stats)))
    }
}

/// Chooses the failure to report: an injected crash beats everything (it is
/// the recoverable root cause even if a peer noticed trouble first), then
/// any real panic, then the first comm error that is not a secondary
/// cancellation, then whatever is left.
fn pick_root_cause(failures: Vec<Failure>) -> Option<Failure> {
    let mut fallback: Option<Failure> = None;
    let mut comm: Option<Failure> = None;
    let mut panic: Option<Failure> = None;
    for failure in failures {
        match &failure {
            Failure::Panic(payload) => {
                if payload.downcast_ref::<InjectedCrash>().is_some() {
                    return Some(failure);
                }
                if panic.is_none() {
                    panic = Some(failure);
                }
            }
            Failure::Comm(_, CommError::Cancelled) => {
                if fallback.is_none() {
                    fallback = Some(failure);
                }
            }
            Failure::Comm(..) => {
                if comm.is_none() {
                    comm = Some(failure);
                }
            }
        }
    }
    panic.or(comm).or(fallback)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Phase;
    use bytes::Bytes;

    #[test]
    fn run_returns_rank_ordered_outputs() {
        let cluster = Cluster::new(4);
        let (outputs, _) = cluster.run(|ctx| ctx.rank() * 2);
        assert_eq!(outputs, vec![0, 2, 4, 6]);
    }

    /// A worker's thread-locals are destroyed after its closure returns,
    /// which is all `std::thread::scope` waits for; only a join waits for
    /// the thread itself. Loops because without the join the caller loses
    /// the race only now and then.
    #[test]
    fn workers_have_exited_when_run_returns() {
        use std::sync::atomic::AtomicUsize;
        static TORN_DOWN: AtomicUsize = AtomicUsize::new(0);
        struct AtExit;
        impl Drop for AtExit {
            fn drop(&mut self) {
                // Widens the window a joinless `run` would return in.
                std::thread::yield_now();
                TORN_DOWN.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local!(static AT_EXIT: AtExit = const { AtExit });
        let cluster = Cluster::new(3);
        for round in 1..=200 {
            cluster.run(|_| AT_EXIT.with(|_| ()));
            assert_eq!(TORN_DOWN.load(Ordering::SeqCst), 3 * round, "round {round}");
        }
    }

    #[test]
    fn workers_really_communicate() {
        let cluster = Cluster::new(3);
        let (outputs, stats) = cluster.run(|ctx| {
            // Ring: send rank to next, receive from prev.
            let next = (ctx.rank() + 1) % ctx.world();
            let prev = (ctx.rank() + ctx.world() - 1) % ctx.world();
            ctx.comm.send_raw(next, 5, Bytes::from(vec![ctx.rank() as u8])).unwrap();
            ctx.comm.recv_raw(prev, 5).unwrap()[0] as usize
        });
        assert_eq!(outputs, vec![2, 0, 1]);
        assert_eq!(stats.total_bytes_sent(), 3);
        assert!(stats.comm_seconds() > 0.0);
    }

    #[test]
    fn stats_capture_phase_times() {
        let cluster = Cluster::new(2);
        let (_, stats) = cluster.run(|ctx| {
            ctx.time(Phase::HistogramBuild, || {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        assert!(stats.phase_seconds(Phase::HistogramBuild) >= 0.004);
        assert_eq!(stats.workers.len(), 2);
    }

    #[test]
    fn collectives_work_under_harness() {
        let cluster = Cluster::new(4);
        let (outputs, _) = cluster.run(|ctx| {
            let mut buf = vec![ctx.rank() as f64; 8];
            ctx.comm.all_reduce_f64(&mut buf).unwrap();
            buf[0]
        });
        for o in outputs {
            assert_eq!(o, 6.0); // 0+1+2+3
        }
    }

    #[test]
    fn single_worker_cluster_works() {
        let cluster = Cluster::new(1);
        let (outputs, stats) = cluster.run(|ctx| {
            let mut buf = vec![3.0f64];
            ctx.comm.all_reduce_f64(&mut buf).unwrap();
            ctx.comm.barrier().unwrap();
            buf[0]
        });
        assert_eq!(outputs, vec![3.0]);
        assert_eq!(stats.total_bytes_sent(), 0);
    }

    /// Regression: a single-worker panic used to leave every peer blocked
    /// forever in `recv` (all endpoints hold senders to each other, so the
    /// channel never disconnects). The supervisor must cancel peers and
    /// fail the run in bounded time.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "the test bounds the run's wall time")]
    fn single_worker_panic_fails_run_in_bounded_time() {
        let cluster = Cluster::new(3);
        let start = std::time::Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            cluster.run(|ctx| {
                if ctx.rank() == 1 {
                    panic!("worker 1 exploded");
                }
                // Peers wait on a message the dead worker will never send.
                let _ = ctx.comm.recv_raw(1, 77);
            })
        }));
        let payload = result.expect_err("run must fail");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "worker 1 exploded");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "propagation took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn try_run_surfaces_comm_errors_as_values() {
        let cluster = Cluster::new(2);
        let err = cluster
            .try_run(|ctx| {
                if ctx.rank() == 0 {
                    Err(CommError::RetriesExhausted { to: 1, tag: 9, attempts: 3 })
                } else {
                    ctx.comm.recv_raw(0, 1).map(|_| ())
                }
            })
            .unwrap_err();
        assert_eq!(err, CommError::RetriesExhausted { to: 1, tag: 9, attempts: 3 });
    }

    #[test]
    fn a_message_nobody_receives_fails_the_run() {
        let cluster = Cluster::new(3);
        let err = cluster
            .try_run(|ctx| {
                if ctx.rank() == 2 {
                    ctx.comm.send_raw(1, 0x51, Bytes::from_static(b"orphan"))?;
                }
                ctx.comm.barrier()
            })
            .unwrap_err();
        assert_eq!(err, CommError::Unconsumed { holder: 1, from: 2, tag: 0x51 });
        assert_eq!(err.to_string(), "rank 1 holds an unconsumed message from rank 2 tag 0x51");
    }

    /// Every message is duplicated on the wire and each receiver returns as
    /// soon as it has the original, so the last copy of every exchange is
    /// still queued when the workers return. Those copies are duplicates
    /// of received messages, not leftovers.
    #[test]
    fn late_duplicates_of_received_messages_are_not_leftovers() {
        let plan = FaultPlan::new(11).with_dup(1.0);
        let cluster = Cluster::new(3).with_faults(Some(plan));
        let (outputs, stats) = cluster
            .try_run(|ctx| {
                let next = (ctx.rank() + 1) % ctx.world();
                let prev = (ctx.rank() + ctx.world() - 1) % ctx.world();
                let mut buf = vec![ctx.rank() as f64; 5];
                ctx.comm.all_reduce_f64(&mut buf)?;
                ctx.comm.send_raw(next, 7, Bytes::from(vec![ctx.rank() as u8]))?;
                let got = ctx.comm.recv_raw(prev, 7)?;
                Ok((buf[0], got[0]))
            })
            .unwrap();
        assert_eq!(outputs, vec![(3.0, 2), (3.0, 0), (3.0, 1)]);
        assert!(stats.workers.iter().all(|w| w.duplicates_dropped > 0));
    }

    /// A failed attempt is cut short, so what it leaves behind says nothing
    /// about the protocol: its own error is reported, and a recovered run
    /// is judged by the attempt that succeeded.
    #[test]
    fn failed_and_recovered_attempts_are_not_checked() {
        let err = Cluster::new(2)
            .try_run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.comm.send_raw(1, 3, Bytes::new())?;
                    return Err(CommError::RetriesExhausted { to: 1, tag: 4, attempts: 2 });
                }
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err, CommError::RetriesExhausted { to: 1, tag: 4, attempts: 2 });

        let plan = FaultPlan::new(5).with_crash(1, 0, 0);
        let cluster = Cluster::new(2).with_faults(Some(plan));
        let (outputs, stats) = cluster.run_recoverable(|ctx| {
            let replay = ctx.load_checkpoint::<bool>().is_some();
            ctx.save_checkpoint(&true);
            if ctx.rank() == 0 && !replay {
                // Rank 1 crashes before it could receive this.
                ctx.comm.send_raw(1, 9, Bytes::from_static(b"stale"))?;
            }
            ctx.comm.barrier()?;
            ctx.fault_point(0, 0);
            Ok(ctx.rank())
        });
        assert_eq!(outputs, vec![0, 1]);
        assert_eq!(stats.recoveries, 1);
    }

    #[test]
    fn run_recoverable_restarts_after_injected_crash() {
        let plan = FaultPlan::new(17).with_crash(1, 2, 0);
        let cluster = Cluster::new(3).with_faults(Some(plan));
        let (outputs, stats) = cluster.run_recoverable(|ctx| {
            // Fast-forward past trees already completed before the crash.
            let mut done: Vec<usize> = ctx.load_checkpoint().unwrap_or_default();
            for tree in done.len()..4 {
                ctx.fault_point(tree, 0);
                done.push(tree * 10 + ctx.rank());
                ctx.save_checkpoint(&done);
            }
            Ok(done)
        });
        assert_eq!(stats.recoveries, 1);
        assert!(stats.recovery_seconds >= 0.0);
        for (rank, out) in outputs.iter().enumerate() {
            assert_eq!(out, &vec![rank, 10 + rank, 20 + rank, 30 + rank]);
        }
    }

    #[test]
    fn run_recoverable_without_faults_is_plain() {
        let cluster = Cluster::new(2);
        let (outputs, stats) = cluster.run_recoverable(|ctx| Ok(ctx.rank()));
        assert_eq!(outputs, vec![0, 1]);
        assert_eq!(stats.recoveries, 0);
        assert_eq!(stats.recovery_seconds, 0.0);
    }

    #[test]
    fn real_panics_are_not_recovered() {
        let plan = FaultPlan::new(1).with_crash(0, 0, 0);
        let cluster = Cluster::new(2).with_faults(Some(plan));
        let result = catch_unwind(AssertUnwindSafe(|| {
            cluster.run_recoverable(|ctx| -> Result<(), CommError> {
                if ctx.rank() == 1 {
                    panic!("genuine bug");
                }
                let _ = ctx.comm.recv_raw(1, 3);
                Ok(())
            })
        }));
        assert!(result.is_err());
    }
}
