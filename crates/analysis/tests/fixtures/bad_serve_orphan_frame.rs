//@ expect: serve-orphan-frame
//@ file: crates/serve/src/router.rs
//! Router that emits a frame tag its replicas never listen for: the
//! replica demux drops `SERVE_BOGUS_TAG` on the floor, so the route
//! request silently vanishes.

impl Router {
    fn dispatch(&mut self, replica_rank: usize, req: Bytes) -> Result<(), CommError> {
        self.comm.send(replica_rank, SERVE_BOGUS_TAG, req)?;
        Ok(())
    }
}

//@ file: crates/serve/src/replica.rs

impl Replica {
    fn serve_tick(&mut self) -> Result<(), CommError> {
        let tags = [SERVE_ROUTE_TAG, SERVE_PUBLISH_TAG, SERVE_STOP_TAG];
        let frame = self.comm.recv_any(&tags)?;
        let _ = frame;
        Ok(())
    }
}
