//@ scope: comm-unwrap
// Known-bad (`comm-unwrap`): unwrapping a comm result turns a recoverable
// CommError (drop, timeout, peer crash) into a worker abort that bypasses
// supervision.

#[derive(Debug)]
pub struct CommError;

pub struct Comm;

impl Comm {
    pub fn all_reduce_f64(&self, _buf: &mut [f64]) -> Result<(), CommError> {
        Ok(())
    }

    pub fn recv(&self, _from: usize, _tag: u64) -> Result<Vec<u8>, CommError> {
        Ok(Vec::new())
    }
}

pub fn aggregate(comm: &Comm, buf: &mut [f64]) -> usize {
    comm.all_reduce_f64(buf).unwrap(); //~ clippy::unwrap_used
    comm.recv(0, 7).expect("peer always answers").len() //~ clippy::expect_used
}
