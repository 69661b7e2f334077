//! Serving-side time measurement and latency accounting.
//!
//! This module is the **only** place in `gbdt-serve` permitted to read the
//! wall clock (the one `#![allow(clippy::disallowed_methods)]` in the
//! crate). The scoring hot path stays clock-free — traversal kernels
//! measuring themselves would both perturb the measurement and smuggle
//! nondeterminism next to the bit-identity contract. Everything else
//! (client pacing, router deadlines, latency percentiles) goes through [`Clock`].

#![allow(
    clippy::disallowed_methods,
    reason = "the sanctioned stopwatch: its readings feed modelled stats, never bytes or a model"
)]

use std::time::Instant;

/// A monotonic stopwatch handed to the router and the availability harness.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
}

impl Clock {
    /// Starts the stopwatch.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Clock { start: Instant::now() }
    }

    /// Seconds elapsed since [`Clock::new`].
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Latency percentile from a sample set, in the same unit as the samples.
///
/// Nearest-rank on a sorted copy: `p(q) = sorted[⌈q·n⌉ − 1]`. Returns 0
/// for an empty sample set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One availability run's ledger — the serving analogue of the training
/// side's `SystemRun`: what fraction of offered load got a verified
/// answer, and at what latency, while replicas crashed and frames
/// misbehaved.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailRun {
    /// Scenario label (e.g. `clean` or the fault spec).
    pub label: String,
    /// Serving replicas behind the router.
    pub n_replicas: usize,
    /// Client threads driving load.
    pub n_clients: usize,
    /// Offered load in requests/second across all clients (0 = open
    /// throttle).
    pub target_qps: f64,
    /// Requests issued by clients.
    pub requests: u64,
    /// Verified full-ensemble responses.
    pub served: u64,
    /// Verified degraded (tree-prefix) responses.
    pub degraded: u64,
    /// Requests refused with a typed `Shed` response.
    pub shed: u64,
    /// Requests that failed: typed `Failed` responses plus client-side
    /// timeouts.
    pub failed: u64,
    /// Requests that completed only after a failover retry.
    pub failed_over: u64,
    /// Hedged backup requests the router issued.
    pub hedges: u64,
    /// Failover retries the router issued.
    pub retries: u64,
    /// Replica crash-recoveries observed.
    pub recoveries: u64,
    /// Late/duplicate replica replies the router suppressed.
    pub duplicates_suppressed: u64,
    /// Responses whose scores did not bit-match their stamped
    /// `(version, trees_scored)` expectation. **Must be 0.**
    pub incorrect: u64,
    /// Verified responses over non-shed requests.
    pub availability: f64,
    /// Verified responses per second of wall time.
    pub goodput_rps: f64,
    /// Distinct model versions stamped on verified responses, ascending.
    pub versions_seen: Vec<u64>,
    /// Wall-clock duration of the run, seconds.
    pub wall_s: f64,
    /// Median verified-response latency, ms (from scheduled start).
    pub p50_ms: f64,
    /// 99th percentile latency, ms.
    pub p99_ms: f64,
    /// 99.9th percentile latency, ms.
    pub p999_ms: f64,
}

impl AvailRun {
    /// Builds the ledger from raw outcome counts and verified-response
    /// latencies (seconds).
    #[allow(clippy::too_many_arguments)]
    pub fn from_outcomes(
        label: String,
        n_replicas: usize,
        n_clients: usize,
        target_qps: f64,
        requests: u64,
        served: u64,
        degraded: u64,
        shed: u64,
        failed: u64,
        incorrect: u64,
        latencies_s: &[f64],
        mut versions_seen: Vec<u64>,
        wall_s: f64,
    ) -> Self {
        versions_seen.sort_unstable();
        versions_seen.dedup();
        let verified = served + degraded;
        let non_shed = requests.saturating_sub(shed).max(1);
        let wall = wall_s.max(1e-9);
        AvailRun {
            label,
            n_replicas,
            n_clients,
            target_qps,
            requests,
            served,
            degraded,
            shed,
            failed,
            failed_over: 0,
            hedges: 0,
            retries: 0,
            recoveries: 0,
            duplicates_suppressed: 0,
            incorrect,
            availability: verified as f64 / non_shed as f64,
            goodput_rps: verified as f64 / wall,
            versions_seen,
            wall_s,
            p50_ms: percentile(latencies_s, 0.50) * 1e3,
            p99_ms: percentile(latencies_s, 0.99) * 1e3,
            p999_ms: percentile(latencies_s, 0.999) * 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avail_run_aggregates() {
        let run = AvailRun::from_outcomes(
            "chaos".into(),
            3,
            2,
            500.0,
            100,
            90,
            6,
            2,
            2,
            0,
            &[0.001, 0.002, 0.003],
            vec![2, 1],
            2.0,
        );
        assert_eq!(run.versions_seen, vec![1, 2]);
        assert_eq!(run.incorrect, 0);
        assert!((run.availability - 96.0 / 98.0).abs() < 1e-12);
        assert_eq!(run.goodput_rps, 48.0);
        assert!(run.p99_ms >= run.p50_ms);
    }

    #[test]
    fn percentile_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&samples, 0.50), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 0.999), 100.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Unsorted input is handled.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn clock_is_monotone() {
        let clock = Clock::new();
        let a = clock.elapsed_s();
        let b = clock.elapsed_s();
        assert!(b >= a && a >= 0.0);
    }
}
