//@ expect: tag-registry
//@ file: crates/cluster/src/comm.rs
//! A registry with a tag no file ever sends or receives: dead protocol
//! surface that new code could collide with silently (the dead-tag arm of
//! `tag-registry`, which compares the registry with its users).

pub mod protocol {
    /// Exercised by the ring exchange below.
    pub const USED_TAG: u64 = 0x10;
    /// Registered, never sent, never received.
    pub const DEAD_TAG: u64 = 0x11;
}

//@ file: crates/cluster/src/collectives.rs

impl Comm {
    pub fn exchange(&self, payload: Bytes) -> Result<Bytes, CommError> {
        let next = (self.rank() + 1) % self.world();
        let prev = (self.rank() + self.world() - 1) % self.world();
        self.send(next, USED_TAG, payload)?;
        self.recv(prev, USED_TAG)
    }
}
