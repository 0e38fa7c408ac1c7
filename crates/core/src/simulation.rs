//! Warmup / measurement / drain driver around a [`Network`].

use noc_types::NocError;

use crate::config::NocConfig;
use crate::network::Network;
use crate::result::SimulationResult;

/// Drives a [`Network`] through the standard measurement methodology:
///
/// 1. **warmup** — inject traffic without recording anything, so queues and
///    VC occupancies reach steady state (the chip's scan-chain warmup of 128
///    cycles plays the same role);
/// 2. **measurement** — keep injecting; record the latency of packets created
///    in this window and the flits received in it;
/// 3. **drain** — stop injecting and keep simulating until every measured
///    packet has reached all of its destinations (bounded by a drain limit so
///    a saturated network still terminates).
#[derive(Debug)]
pub struct Simulation {
    config: NocConfig,
    network: Network,
}

impl Simulation {
    /// Creates a simulation of `config`.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] when the configuration is invalid.
    pub fn new(config: NocConfig) -> Result<Self, NocError> {
        let network = Network::new(config, 0.0)?;
        Ok(Self { config, network })
    }

    /// The configuration being simulated.
    #[must_use]
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Read access to the underlying network (for inspection in examples).
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Rewinds the simulation to cycle zero with the PRBS generators
    /// re-seeded from `seed`, keeping the network's warmed-up buffer
    /// capacity (see [`Network::reset`]). A following [`run`](Self::run)
    /// behaves bit-identically to one on a freshly constructed simulation
    /// with that base seed — this is how [`crate::SweepRunner`] batches many
    /// sweep points through one simulation per worker thread.
    pub fn reset(&mut self, seed: u64) {
        self.network.reset(seed);
        self.config = *self.network.config();
    }

    /// Starts recording every packet the NICs inject into an in-memory
    /// trace (see [`Network::record_trace`]). Call before
    /// [`run`](Self::run) to capture a whole run.
    pub fn record_trace(&mut self) {
        self.network.record_trace();
    }

    /// Stops recording and returns the captured trace (see
    /// [`Network::take_recorded_trace`]).
    pub fn take_recorded_trace(&mut self) -> noc_types::Trace {
        self.network.take_recorded_trace()
    }

    /// Installs `trace` as the traffic source of every NIC (see
    /// [`Network::load_trace`]). A following [`run`](Self::run) over the
    /// same phase schedule as the recorded run reproduces it bit-for-bit;
    /// the `rate` argument is ignored by replay sources.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] when the trace's mesh side length does
    /// not match this simulation's.
    pub fn load_trace(&mut self, trace: &noc_types::Trace) -> Result<(), NocError> {
        self.network.load_trace(trace)
    }

    /// Runs warmup + measurement + drain at `rate` flits/node/cycle and
    /// returns the measured statistics.
    ///
    /// The drain phase is bounded at `4 × measure_cycles + 2000` cycles so a
    /// saturated network still returns (whatever packets completed by then
    /// determine the latency statistics, which is the standard treatment
    /// beyond saturation).
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] when `rate` is negative or above one
    /// flit/cycle (the NIC cannot inject more than one flit per cycle).
    pub fn run(
        &mut self,
        rate: f64,
        warmup_cycles: u64,
        measure_cycles: u64,
    ) -> Result<SimulationResult, NocError> {
        if !(0.0..=1.0).contains(&rate) {
            return Err(noc_types::ConfigError::InvalidInjectionRate { rate }.into());
        }
        self.network.set_rate(rate);

        // Warmup.
        self.network.set_measuring(false);
        for _ in 0..warmup_cycles {
            self.network.step(true);
        }

        // Measurement.
        self.network.set_measuring(true);
        for _ in 0..measure_cycles {
            self.network.step(true);
        }
        self.network.set_measuring(false);
        self.network
            .throughput_mut()
            .set_measured_cycles(measure_cycles);

        // Drain.
        let drain_limit = 4 * measure_cycles + 2000;
        let mut drained = 0;
        while self.network.outstanding_tracked_packets() > 0 && drained < drain_limit {
            self.network.step(false);
            drained += 1;
        }

        let latency = self.network.latency();
        let throughput = self.network.throughput();
        let counters = self.network.counters();
        Ok(SimulationResult {
            injection_rate: rate,
            average_latency_cycles: latency.mean(),
            p50_latency_cycles: latency.percentile(0.50).unwrap_or(0) as f64,
            p95_latency_cycles: latency.percentile(0.95).unwrap_or(0) as f64,
            p99_latency_cycles: latency.percentile(0.99).unwrap_or(0) as f64,
            measured_packets: latency.count(),
            received_flits_per_cycle: throughput.received_flits_per_cycle(),
            received_gbps: throughput
                .received_gbps(self.config.flit_bits, self.config.frequency_ghz),
            injected_flits: throughput.injected_flits(),
            measured_cycles: measure_cycles,
            bypass_fraction: counters.bypass_fraction(),
            counters,
            total_cycles: warmup_cycles + measure_cycles + drained,
            frequency_ghz: self.config.frequency_ghz,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetworkVariant, NocConfig};
    use noc_traffic::{SeedMode, TrafficMix};

    #[test]
    fn rejects_invalid_rates() {
        let mut sim = Simulation::new(NocConfig::proposed_chip().unwrap()).unwrap();
        assert!(sim.run(-0.1, 10, 10).is_err());
        assert!(sim.run(1.5, 10, 10).is_err());
    }

    #[test]
    fn low_load_run_produces_sane_statistics() {
        let config = NocConfig::proposed_chip()
            .unwrap()
            .with_seed_mode(SeedMode::PerNode);
        let mut sim = Simulation::new(config).unwrap();
        let result = sim.run(0.02, 200, 1500).unwrap();
        assert!(result.measured_packets > 10);
        assert!(result.average_latency_cycles >= 5.0);
        assert!(result.average_latency_cycles <= 15.0);
        assert!(result.received_flits_per_cycle > 0.0);
        assert!(result.bypass_fraction > 0.5);
        // Received throughput for broadcast-heavy mixed traffic exceeds the
        // injected rate because every broadcast is delivered 15 times.
        assert!(result.received_gbps > result.offered_gbps(4, 64));
    }

    #[test]
    fn throughput_saturates_below_the_theoretical_limit() {
        let config = NocConfig::proposed_chip()
            .unwrap()
            .with_mix(TrafficMix::broadcast_only())
            .with_seed_mode(SeedMode::PerNode);
        let mut sim = Simulation::new(config).unwrap();
        // Offer far more broadcast load than the ejection links can deliver.
        let result = sim.run(0.2, 300, 1200).unwrap();
        let limit_flits_per_cycle = 16.0;
        assert!(result.received_flits_per_cycle <= limit_flits_per_cycle + 1e-9);
        assert!(
            result.received_flits_per_cycle > 0.5 * limit_flits_per_cycle,
            "saturation throughput {:.2} should approach the 16 flits/cycle limit",
            result.received_flits_per_cycle
        );
    }

    #[test]
    fn proposed_beats_the_baseline_on_mixed_traffic_latency() {
        let run = |variant: NetworkVariant| {
            let config = NocConfig::variant(variant)
                .unwrap()
                .with_seed_mode(SeedMode::PerNode);
            let mut sim = Simulation::new(config).unwrap();
            sim.run(0.05, 300, 1500).unwrap().average_latency_cycles
        };
        let baseline = run(NetworkVariant::FullSwingUnicast);
        let proposed = run(NetworkVariant::LowSwingBroadcastBypass);
        let reduction = 1.0 - proposed / baseline;
        assert!(
            reduction > 0.3,
            "expected a large latency reduction, got {:.1}% (baseline {baseline:.1}, proposed {proposed:.1})",
            reduction * 100.0
        );
    }
}
