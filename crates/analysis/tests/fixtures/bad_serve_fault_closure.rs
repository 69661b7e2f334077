//@ path: crates/serve/src/replica.rs
//@ expect: serve-fault-closure
//! A replica that models crashes but recovers carelessly: it neither
//! purges frames buffered across the crash nor announces itself to the
//! router with a RECOVER frame. Stale pre-crash frames replay into the
//! recovered schedule and the router never resyncs the replica.

enum ReplicaState {
    Healthy,
    Crashed,
}

impl Replica {
    fn serve_tick(&mut self) -> Result<(), CommError> {
        let tags = [SERVE_ROUTE_TAG, SERVE_PUBLISH_TAG, SERVE_STOP_TAG];
        let frame = self.comm.recv_any(&tags)?;
        let _ = frame;
        Ok(())
    }
}
