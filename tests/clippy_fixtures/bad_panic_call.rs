//@ scope: comm-layer
// Known-bad (`panic-call`): a panic in the comm layer strands every peer
// blocked on the rendezvous; faults must surface as typed CommError values.

pub fn broadcast_or_die(ok: bool) {
    if !ok {
        panic!("peer misbehaved"); //~ clippy::panic
    }
    unimplemented!("unreachable either way"); //~ clippy::unimplemented
}

pub fn later() {
    todo!() //~ clippy::todo
}
