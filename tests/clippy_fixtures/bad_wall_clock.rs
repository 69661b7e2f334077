// Known-bad (`wall-clock`): a wall-clock read in a trainer path — timing
// jitter could steer a decision and break bit-identity across runs.

use std::time::Instant;

pub fn timed_choice() -> bool {
    let t0 = Instant::now(); //~ clippy::disallowed_methods
    expensive();
    t0.elapsed().as_micros() > 100
}

fn expensive() {}
