//! Latency and throughput measurement.
//!
//! [`LatencyStats`] accumulates per-packet creation-to-last-reception
//! latencies (the paper's "complete action" convention, §2.2) and
//! [`ThroughputStats`] counts *received* flits (so a broadcast delivered to
//! 15 destinations counts 15 times — the convention behind the 1024 Gb/s
//! theoretical limit of Table 1). Both reset in place, keeping storage, for
//! warm network reuse.

use noc_types::Cycle;
use serde::{Deserialize, Serialize};

/// Online latency statistics (count, mean, min, max and a coarse histogram).
///
/// Latency is measured in cycles from packet creation at the source NIC to
/// reception of the tail flit at the last destination NIC — the same
/// "complete action" convention the paper uses for its theoretical limits.
///
/// # Examples
///
/// ```
/// use noc_sim::LatencyStats;
///
/// let mut stats = LatencyStats::new();
/// stats.record(10);
/// stats.record(20);
/// assert_eq!(stats.count(), 2);
/// assert_eq!(stats.mean(), 15.0);
/// assert_eq!(stats.max(), Some(20));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    count: u64,
    sum: u64,
    min: Option<Cycle>,
    max: Option<Cycle>,
    /// Histogram with 1-cycle bins up to 255 and an overflow bin.
    histogram: Vec<u64>,
}

impl Default for LatencyStats {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyStats {
    /// Number of histogram bins (latencies 0..=254 plus an overflow bin).
    const BINS: usize = 256;

    /// Creates an empty statistics accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::with_bins(Self::BINS)
    }

    /// Creates an empty accumulator with a custom histogram width: `bins - 1`
    /// one-cycle bins plus an overflow bin (clamped to at least 2 bins).
    /// Percentiles saturate at `bins - 1` cycles; closed-loop RTT histograms
    /// use a wider range than the default 256 because a round trip stacks
    /// two network traversals on top of the service latency.
    ///
    /// Merging accumulators of different widths keeps the receiver's width
    /// (overflowing latencies stay clamped).
    #[must_use]
    pub fn with_bins(bins: usize) -> Self {
        Self {
            count: 0,
            sum: 0,
            min: None,
            max: None,
            histogram: vec![0; bins.max(2)],
        }
    }

    /// Forgets every recorded latency, keeping the histogram storage (warm
    /// network reset).
    pub fn reset(&mut self) {
        self.count = 0;
        self.sum = 0;
        self.min = None;
        self.max = None;
        self.histogram.fill(0);
    }

    /// Records one packet latency in cycles.
    pub fn record(&mut self, latency: Cycle) {
        self.count += 1;
        self.sum += latency;
        self.min = Some(self.min.map_or(latency, |m| m.min(latency)));
        self.max = Some(self.max.map_or(latency, |m| m.max(latency)));
        let bin = (latency as usize).min(self.histogram.len() - 1);
        self.histogram[bin] += 1;
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let overflow = self.histogram.len() - 1;
        for (bin, &n) in other.histogram.iter().enumerate() {
            self.histogram[bin.min(overflow)] += n;
        }
    }

    /// Number of recorded packets.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in cycles (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Minimum recorded latency.
    #[must_use]
    pub fn min(&self) -> Option<Cycle> {
        self.min
    }

    /// Maximum recorded latency.
    #[must_use]
    pub fn max(&self) -> Option<Cycle> {
        self.max
    }

    /// Approximate latency percentile (`p` in `[0, 1]`) from the histogram.
    ///
    /// Returns `None` when no latency has been recorded.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<Cycle> {
        if self.count == 0 {
            return None;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (bin, &n) in self.histogram.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(bin as Cycle);
            }
        }
        self.max
    }
}

/// Received-throughput accounting.
///
/// Throughput is counted in *received* flits (the paper's convention): a
/// broadcast flit delivered to 15 destinations counts 15 times, which is what
/// makes the 1024 Gb/s theoretical limit reachable by 16 ejection ports of
/// 64 bits at 1 GHz.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ThroughputStats {
    received_flits: u64,
    received_packets: u64,
    injected_flits: u64,
    injected_packets: u64,
    measured_cycles: u64,
}

impl ThroughputStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every recorded injection and reception (warm network reset).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Records the injection of a packet of `flits` flits at a source NIC.
    pub fn record_injection(&mut self, flits: u64) {
        self.injected_packets += 1;
        self.injected_flits += flits;
    }

    /// Records the reception of a packet of `flits` flits at one destination
    /// NIC (call once per destination for multicasts).
    pub fn record_reception(&mut self, flits: u64) {
        self.received_packets += 1;
        self.received_flits += flits;
    }

    /// Sets the number of cycles over which the receptions were measured.
    pub fn set_measured_cycles(&mut self, cycles: u64) {
        self.measured_cycles = cycles;
    }

    /// Total flits received across all NICs.
    #[must_use]
    pub fn received_flits(&self) -> u64 {
        self.received_flits
    }

    /// Total packet receptions (one per destination reached).
    #[must_use]
    pub fn received_packets(&self) -> u64 {
        self.received_packets
    }

    /// Total flits injected by all NICs.
    #[must_use]
    pub fn injected_flits(&self) -> u64 {
        self.injected_flits
    }

    /// Total packets injected by all NICs.
    #[must_use]
    pub fn injected_packets(&self) -> u64 {
        self.injected_packets
    }

    /// Measurement window in cycles.
    #[must_use]
    pub fn measured_cycles(&self) -> u64 {
        self.measured_cycles
    }

    /// Received flits per cycle over the measurement window.
    #[must_use]
    pub fn received_flits_per_cycle(&self) -> f64 {
        if self.measured_cycles == 0 {
            0.0
        } else {
            self.received_flits as f64 / self.measured_cycles as f64
        }
    }

    /// Received throughput in Gb/s for a given flit width and clock.
    #[must_use]
    pub fn received_gbps(&self, flit_bits: u32, frequency_ghz: f64) -> f64 {
        self.received_flits_per_cycle() * f64::from(flit_bits) * frequency_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_basic() {
        let mut s = LatencyStats::new();
        for l in [5, 10, 15] {
            s.record(l);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 10.0);
        assert_eq!(s.min(), Some(5));
        assert_eq!(s.max(), Some(15));
        assert_eq!(s.percentile(0.0), Some(5));
        assert_eq!(s.percentile(1.0), Some(15));
    }

    #[test]
    fn latency_stats_empty() {
        let s = LatencyStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn latency_stats_merge() {
        let mut a = LatencyStats::new();
        let mut b = LatencyStats::new();
        a.record(10);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 20.0);
        assert_eq!(a.max(), Some(30));
    }

    #[test]
    fn latency_histogram_overflow_bin() {
        let mut s = LatencyStats::new();
        s.record(10_000);
        assert_eq!(s.percentile(1.0), Some(255));
        assert_eq!(s.max(), Some(10_000));
    }

    #[test]
    fn custom_bin_width_extends_percentile_range() {
        let mut s = LatencyStats::with_bins(1024);
        s.record(600);
        assert_eq!(s.percentile(1.0), Some(600));
        // Merging into a narrower accumulator clamps into its overflow bin
        // without losing the count.
        let mut narrow = LatencyStats::with_bins(4);
        narrow.merge(&s);
        assert_eq!(narrow.count(), 1);
        assert_eq!(narrow.percentile(1.0), Some(3));
    }

    #[test]
    fn throughput_accounting() {
        let mut t = ThroughputStats::new();
        t.record_injection(1);
        t.record_injection(5);
        // Broadcast of 1 flit delivered to 15 destinations.
        for _ in 0..15 {
            t.record_reception(1);
        }
        t.set_measured_cycles(10);
        assert_eq!(t.injected_flits(), 6);
        assert_eq!(t.received_flits(), 15);
        assert_eq!(t.received_flits_per_cycle(), 1.5);
        // 1.5 flits/cycle x 64 bits x 1 GHz = 96 Gb/s.
        assert_eq!(t.received_gbps(64, 1.0), 96.0);
    }

    #[test]
    fn throughput_zero_window_is_zero() {
        let t = ThroughputStats::new();
        assert_eq!(t.received_flits_per_cycle(), 0.0);
        assert_eq!(t.received_gbps(64, 1.0), 0.0);
    }
}
