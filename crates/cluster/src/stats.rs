//! Per-worker instrumentation: phase timers, communication accounting, and
//! memory gauges — the raw material behind every bar in Figure 10.

#![allow(
    clippy::disallowed_methods,
    reason = "the sanctioned stopwatch: its readings feed modelled stats, never bytes or a model"
)]

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Training phases whose computation time is tracked separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Quantile sketching and candidate split generation.
    Sketch,
    /// Horizontal-to-vertical transformation (encode / repartition / merge).
    Transform,
    /// Gradient computation.
    Gradients,
    /// Histogram construction (the dominant cost, §3.2.4).
    HistogramBuild,
    /// Split finding on histograms.
    SplitFind,
    /// Node splitting / index update.
    NodeSplit,
    /// Prediction updates and metric evaluation.
    Predict,
    /// Anything else.
    Other,
}

/// All phases, in display order.
pub const ALL_PHASES: [Phase; 8] = [
    Phase::Sketch,
    Phase::Transform,
    Phase::Gradients,
    Phase::HistogramBuild,
    Phase::SplitFind,
    Phase::NodeSplit,
    Phase::Predict,
    Phase::Other,
];

impl Phase {
    fn index(self) -> usize {
        match self {
            Phase::Sketch => 0,
            Phase::Transform => 1,
            Phase::Gradients => 2,
            Phase::HistogramBuild => 3,
            Phase::SplitFind => 4,
            Phase::NodeSplit => 5,
            Phase::Predict => 6,
            Phase::Other => 7,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Sketch => "sketch",
            Phase::Transform => "transform",
            Phase::Gradients => "gradients",
            Phase::HistogramBuild => "hist_build",
            Phase::SplitFind => "split_find",
            Phase::NodeSplit => "node_split",
            Phase::Predict => "predict",
            Phase::Other => "other",
        }
    }
}

/// Per-worker measurements for one training run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Wall-clock computation seconds per phase.
    pub comp_seconds: [f64; 8],
    /// Modelled communication seconds (latency + bytes/bandwidth).
    pub comm_seconds: f64,
    /// Exact bytes sent.
    pub bytes_sent: u64,
    /// Exact bytes received.
    pub bytes_received: u64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Bytes used to store the worker's (binned) data shard.
    pub data_bytes: u64,
    /// Peak bytes of simultaneously live gradient histograms.
    pub histogram_peak_bytes: u64,
    /// Bytes of auxiliary index structures.
    pub index_bytes: u64,
    /// Logical (decoded f64) bytes of codec-mediated collective payloads —
    /// what the dense wire would have sent.
    pub logical_f64_bytes: u64,
    /// Encoded bytes actually sent for those payloads.
    pub wire_f64_bytes: u64,
    /// Per-tree-layer logical bytes of histogram aggregation (index =
    /// layer − 1, summed across trees); see [`WorkerStats::record_layer_bytes`].
    pub layer_logical_bytes: Vec<u64>,
    /// Per-tree-layer wire bytes of histogram aggregation.
    pub layer_wire_bytes: Vec<u64>,
    /// Send attempts dropped by fault injection and retried.
    pub retries: u64,
    /// Duplicated deliveries detected and discarded.
    pub duplicates_dropped: u64,
    /// Pending-buffer overflows hit by an out-of-order consumer.
    pub pending_overflows: u64,
}

impl WorkerStats {
    /// Total computation seconds across phases.
    pub fn comp_total(&self) -> f64 {
        self.comp_seconds.iter().sum()
    }

    /// Computation seconds of one phase.
    pub fn comp(&self, phase: Phase) -> f64 {
        self.comp_seconds[phase.index()]
    }

    /// Adds computation time to a phase.
    pub fn add_comp(&mut self, phase: Phase, seconds: f64) {
        self.comp_seconds[phase.index()] += seconds;
    }

    /// Times `f` as computation in `phase`.
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_comp(phase, start.elapsed().as_secs_f64());
        out
    }

    /// Adds one layer's histogram-aggregation byte pair (0-based layer index
    /// into the growing loop; the root layer never aggregates). Vectors grow
    /// on demand so trees of different depth can share one stats object.
    pub fn record_layer_bytes(&mut self, layer: usize, logical: u64, wire: u64) {
        if self.layer_logical_bytes.len() <= layer {
            self.layer_logical_bytes.resize(layer + 1, 0);
            self.layer_wire_bytes.resize(layer + 1, 0);
        }
        self.layer_logical_bytes[layer] += logical;
        self.layer_wire_bytes[layer] += wire;
    }

    /// Compression ratio of the wire codec on this worker's codec-mediated
    /// payloads: logical / wire (1.0 when nothing codec-mediated was sent).
    pub fn wire_compression(&self) -> f64 {
        if self.wire_f64_bytes > 0 {
            self.logical_f64_bytes as f64 / self.wire_f64_bytes as f64
        } else {
            1.0
        }
    }

    /// Merges another worker's stats (for averaging across runs).
    pub fn merge(&mut self, other: &WorkerStats) {
        for (a, b) in self.comp_seconds.iter_mut().zip(&other.comp_seconds) {
            *a += b;
        }
        self.comm_seconds += other.comm_seconds;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.messages_sent += other.messages_sent;
        self.data_bytes = self.data_bytes.max(other.data_bytes);
        self.histogram_peak_bytes = self.histogram_peak_bytes.max(other.histogram_peak_bytes);
        self.index_bytes = self.index_bytes.max(other.index_bytes);
        self.logical_f64_bytes += other.logical_f64_bytes;
        self.wire_f64_bytes += other.wire_f64_bytes;
        for (layer, (&logical, &wireb)) in
            other.layer_logical_bytes.iter().zip(&other.layer_wire_bytes).enumerate()
        {
            self.record_layer_bytes(layer, logical, wireb);
        }
        self.retries += other.retries;
        self.duplicates_dropped += other.duplicates_dropped;
        self.pending_overflows += other.pending_overflows;
    }
}

/// Cluster-level summary over per-worker stats.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterStats {
    /// Per-worker stats, by rank.
    pub workers: Vec<WorkerStats>,
    /// Worker-crash recoveries performed by the run supervisor.
    pub recoveries: u64,
    /// Wall-clock seconds spent in failed attempts that were replayed.
    pub recovery_seconds: f64,
}

impl ClusterStats {
    /// Wraps per-worker stats.
    pub fn new(workers: Vec<WorkerStats>) -> Self {
        ClusterStats { workers, recoveries: 0, recovery_seconds: 0.0 }
    }

    /// Slowest worker's total computation time (the straggler that gates a
    /// synchronous layer).
    pub fn comp_seconds(&self) -> f64 {
        self.workers.iter().map(WorkerStats::comp_total).fold(0.0, f64::max)
    }

    /// Slowest worker's modelled communication time.
    pub fn comm_seconds(&self) -> f64 {
        self.workers.iter().map(|w| w.comm_seconds).fold(0.0, f64::max)
    }

    /// Total bytes sent across the cluster.
    pub fn total_bytes_sent(&self) -> u64 {
        self.workers.iter().map(|w| w.bytes_sent).sum()
    }

    /// Total fault-injection retries across the cluster.
    pub fn total_retries(&self) -> u64 {
        self.workers.iter().map(|w| w.retries).sum()
    }

    /// Total duplicated deliveries discarded across the cluster.
    pub fn total_duplicates_dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.duplicates_dropped).sum()
    }

    /// Largest per-worker data storage.
    pub fn max_data_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.data_bytes).max().unwrap_or(0)
    }

    /// Largest per-worker peak histogram storage.
    pub fn max_histogram_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.histogram_peak_bytes).max().unwrap_or(0)
    }

    /// Slowest worker's computation within one phase.
    pub fn phase_seconds(&self, phase: Phase) -> f64 {
        self.workers.iter().map(|w| w.comp(phase)).fold(0.0, f64::max)
    }

    /// Total logical (decoded f64) bytes of codec-mediated payloads across
    /// the cluster — what the dense wire would have sent.
    pub fn total_logical_f64_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.logical_f64_bytes).sum()
    }

    /// Total encoded bytes actually sent for codec-mediated payloads.
    pub fn total_wire_f64_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.wire_f64_bytes).sum()
    }

    /// Cluster-wide compression ratio of the wire codec: logical / wire
    /// (1.0 when nothing codec-mediated was sent).
    pub fn wire_compression(&self) -> f64 {
        let wireb = self.total_wire_f64_bytes();
        if wireb > 0 {
            self.total_logical_f64_bytes() as f64 / wireb as f64
        } else {
            1.0
        }
    }

    /// Per-tree-layer `(logical, wire)` histogram-aggregation bytes summed
    /// across workers; index = layer position in the growing loop.
    pub fn layer_wire_bytes(&self) -> Vec<(u64, u64)> {
        let depth =
            self.workers.iter().map(|w| w.layer_logical_bytes.len()).max().unwrap_or(0);
        let mut out = vec![(0u64, 0u64); depth];
        for w in &self.workers {
            for (layer, (&logical, &wireb)) in
                w.layer_logical_bytes.iter().zip(&w.layer_wire_bytes).enumerate()
            {
                out[layer].0 += logical;
                out[layer].1 += wireb;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_accounting() {
        let mut s = WorkerStats::default();
        s.add_comp(Phase::HistogramBuild, 1.5);
        s.add_comp(Phase::HistogramBuild, 0.5);
        s.add_comp(Phase::SplitFind, 0.25);
        assert_eq!(s.comp(Phase::HistogramBuild), 2.0);
        assert_eq!(s.comp_total(), 2.25);
    }

    #[test]
    fn time_measures_closures() {
        let mut s = WorkerStats::default();
        let v = s.time(Phase::Other, || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            42
        });
        assert_eq!(v, 42);
        assert!(s.comp(Phase::Other) >= 0.009);
    }

    #[test]
    fn cluster_summary_takes_stragglers() {
        let mut a = WorkerStats::default();
        a.add_comp(Phase::Other, 1.0);
        a.comm_seconds = 3.0;
        a.bytes_sent = 100;
        a.histogram_peak_bytes = 10;
        let mut b = WorkerStats::default();
        b.add_comp(Phase::Other, 2.0);
        b.comm_seconds = 1.0;
        b.bytes_sent = 200;
        b.histogram_peak_bytes = 50;
        let c = ClusterStats::new(vec![a, b]);
        assert_eq!(c.comp_seconds(), 2.0);
        assert_eq!(c.comm_seconds(), 3.0);
        assert_eq!(c.total_bytes_sent(), 300);
        assert_eq!(c.max_histogram_bytes(), 50);
        assert_eq!(c.phase_seconds(Phase::Other), 2.0);
    }

    #[test]
    fn merge_accumulates_times_and_maxes_memory() {
        let mut a = WorkerStats::default();
        a.add_comp(Phase::Sketch, 1.0);
        a.histogram_peak_bytes = 100;
        let mut b = WorkerStats::default();
        b.add_comp(Phase::Sketch, 2.0);
        b.histogram_peak_bytes = 50;
        a.merge(&b);
        assert_eq!(a.comp(Phase::Sketch), 3.0);
        assert_eq!(a.histogram_peak_bytes, 100);
    }

    #[test]
    fn wire_accounting_ratios_and_merge() {
        assert_eq!(WorkerStats::default().wire_compression(), 1.0); // nothing codec-mediated
        let mut w = WorkerStats {
            logical_f64_bytes: 800,
            wire_f64_bytes: 200,
            ..WorkerStats::default()
        };
        w.record_layer_bytes(0, 500, 100);
        w.record_layer_bytes(2, 300, 100); // skipping a layer zero-fills it
        assert_eq!(w.wire_compression(), 4.0);
        assert_eq!(w.layer_logical_bytes, vec![500, 0, 300]);

        let mut other = WorkerStats {
            logical_f64_bytes: 200,
            wire_f64_bytes: 50,
            ..WorkerStats::default()
        };
        other.record_layer_bytes(1, 200, 50);
        w.merge(&other);
        assert_eq!(w.logical_f64_bytes, 1000);
        assert_eq!(w.layer_logical_bytes, vec![500, 200, 300]);

        let c = ClusterStats::new(vec![w, other]);
        assert_eq!(c.total_logical_f64_bytes(), 1200);
        assert_eq!(c.total_wire_f64_bytes(), 300);
        assert_eq!(c.wire_compression(), 4.0);
        assert_eq!(c.layer_wire_bytes(), vec![(500, 100), (400, 100), (300, 100)]);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> =
            ALL_PHASES.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), ALL_PHASES.len());
    }
}
