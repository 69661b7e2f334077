//! Clocks, process gauges, order statistics and the host probe.

use std::hint::black_box;
use std::time::Instant;

/// Runs `f` once and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median seconds of one call to `f`: at least three calls, and more until
/// `min_total_s` of wall time is spent, so a microsecond-scale layer call
/// is timed over enough repetitions to read.
pub fn median_call_s<T>(min_total_s: f64, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < min_total_s {
        let (out, s) = timed(&mut f);
        black_box(out);
        samples.push(s);
    }
    median(&samples)
}

/// Median of a non-empty sample set (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `(max − min) / median` of a sample set, in percent.
pub fn spread_pct(samples: &[f64]) -> f64 {
    let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / median(samples) * 100.0
}

fn proc_self(file: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{file}"))
        .unwrap_or_else(|e| panic!("cannot read /proc/self/{file}: {e}"))
}

/// Peak resident set of this process so far (`VmHWM`), in MiB (the unit
/// the registry abbreviates as `MB`).
pub fn peak_rss_mb() -> f64 {
    let status = proc_self("status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Resets the kernel's resident-set watermark of this process, so the next
/// [`peak_rss_mb`] reads the peak since now. Writing `5` to
/// `/proc/self/clear_refs` touches this process's own accounting only. On a
/// kernel that refuses, the watermark stays cumulative and the next read is
/// the run's peak so far — coarser, never wrong.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU seconds (user + system) this process has used so far, summed over
/// every thread it ever ran. `/proc/self/stat` counts in clock ticks;
/// Linux fixes `USER_HZ` at 100 on every architecture this builds for.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = proc_self("stat");
    // Fields after the parenthesised command name, which may hold spaces.
    let tail = stat
        .rsplit_once(')')
        .expect("comm field in /proc/self/stat")
        .1;
    let fields: Vec<&str> = tail.split_whitespace().collect();
    // `tail` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |field: usize| -> f64 {
        fields[field - 3]
            .parse()
            .expect("numeric tick count in /proc/self/stat")
    };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// A fixed amount of integer and memory work, timed: the same instructions
/// on every call, so a change in its time is a change in the host, not in
/// the program under test.
pub struct HostProbe {
    buf: Vec<u64>,
}

impl HostProbe {
    const ALU_STEPS: u64 = 12_000_000;
    const WORDS: usize = 4 << 20; // 32 MiB of u64: past every cache level
    const STRIDE: usize = 4099; // prime, so the walk visits scattered lines

    /// Allocates and touches the probe's buffer once, so no later call
    /// times page faults.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        HostProbe {
            buf: vec![1u64; Self::WORDS],
        }
    }

    /// Runs the probe; returns milliseconds.
    pub fn run_ms(&mut self) -> f64 {
        let (_, s) = timed(|| {
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..Self::ALU_STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            let mut at = (x as usize) % Self::WORDS;
            for _ in 0..Self::WORDS / 4 {
                self.buf[at] = self.buf[at].wrapping_add(x);
                at = (at + Self::STRIDE) % Self::WORDS;
            }
            black_box((x, self.buf[at]));
        });
        s * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn gauges_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(HostProbe::new().run_ms() > 0.0);
    }
}
