//@ file: crates/serve/src/router.rs
//! A router/replica frame machine in full agreement: every tag either
//! side emits is in the other side's listen set. The serving-plane rules
//! must stay quiet.

impl Router {
    fn dispatch(&mut self, replica_rank: usize, req: Bytes) -> Result<(), CommError> {
        self.comm.send(replica_rank, SERVE_ROUTE_TAG, req)?;
        Ok(())
    }

    fn pump(&mut self) -> Result<(), CommError> {
        let tags = [SERVE_REPLY_TAG, SERVE_ACK_TAG];
        let frame = self.comm.recv_any(&tags)?;
        let _ = frame;
        Ok(())
    }
}

//@ file: crates/serve/src/replica.rs

impl Replica {
    fn serve_tick(&mut self) -> Result<(), CommError> {
        let tags = [SERVE_ROUTE_TAG, SERVE_PUBLISH_TAG, SERVE_STOP_TAG];
        let frame = self.comm.recv_any(&tags)?;
        let reply_to = frame.from;
        self.comm.send(reply_to, SERVE_REPLY_TAG, Bytes::new())?;
        Ok(())
    }
}
