//! Injection-rate sweeps, saturation detection and the §4.1 summary numbers.
//!
//! The paper presents its latency-throughput results (Figs. 5 and 13) as
//! curves of average packet latency versus received throughput, one curve per
//! network, with the theoretical limits overlaid, and summarises them as:
//! latency reduction before saturation, saturation-throughput improvement
//! over the baseline, and fraction of the theoretical throughput limit
//! reached. This module produces exactly those artefacts.
//!
//! ## Parallel sweeps and warm-network batching
//!
//! Every sweep point is an independent simulation, so [`SweepRunner`] shards
//! points across `std::thread` workers. Each worker batches its points
//! through **one warmed [`Simulation`]**: between points the network is
//! rewound with [`Simulation::reset`] (re-seeding the PRBS generators while
//! keeping the event wheel's slot rings, NIC injection rings, VC buffers and
//! fork caches at their high-water-mark capacity), so only the first point
//! per worker pays cold-start allocation.
//!
//! Determinism is preserved by construction: each point's PRBS base seed is
//! derived from the configuration's base seed and the *point index* (not
//! from scheduling order), a reset-then-run is bit-identical to a cold
//! per-point simulation, and results are stitched back together in index
//! order — a sweep run with one thread and with N threads produces
//! bit-identical [`SweepCurve`]s. See `tests/determinism.rs`.

use std::time::Instant;

use noc_topology::limits::MeshLimits;
use noc_types::{ConfigError, NocError};
use serde::{Deserialize, Serialize};

use crate::config::NocConfig;
use crate::result::SimulationResult;
use crate::simulation::Simulation;

/// One sweep point: a simulation at one injection rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Offered injection rate (flits/node/cycle).
    pub injection_rate: f64,
    /// Average packet latency (cycles).
    pub latency_cycles: f64,
    /// Received throughput (Gb/s).
    pub received_gbps: f64,
    /// Received throughput (flits/cycle).
    pub received_flits_per_cycle: f64,
    /// Fraction of hops that bypassed the router pipeline.
    pub bypass_fraction: f64,
}

impl From<&SimulationResult> for SweepPoint {
    fn from(r: &SimulationResult) -> Self {
        Self {
            injection_rate: r.injection_rate,
            latency_cycles: r.average_latency_cycles,
            received_gbps: r.received_gbps,
            received_flits_per_cycle: r.received_flits_per_cycle,
            bypass_fraction: r.bypass_fraction,
        }
    }
}

/// A full latency-throughput curve for one network configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCurve {
    /// Points in increasing injection-rate order.
    pub points: Vec<SweepPoint>,
    /// Low-load ("zero-load") latency: the latency of the first point.
    pub zero_load_latency_cycles: f64,
    /// Saturation throughput in Gb/s (the paper's definition: the received
    /// throughput at the first point whose latency reaches 3× the zero-load
    /// latency; the last point's throughput if none does).
    pub saturation_gbps: f64,
    /// Injection rate at which saturation was detected.
    pub saturation_rate: f64,
}

impl SweepCurve {
    /// Builds a curve from sweep points (already ordered by injection rate).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    #[must_use]
    pub fn from_points(points: Vec<SweepPoint>) -> Self {
        assert!(!points.is_empty(), "a sweep needs at least one point");
        let zero_load = points[0].latency_cycles;
        let saturation_point = points
            .iter()
            .find(|p| p.latency_cycles >= 3.0 * zero_load)
            .or_else(|| points.last())
            .expect("points is non-empty");
        Self {
            zero_load_latency_cycles: zero_load,
            saturation_gbps: saturation_point.received_gbps,
            saturation_rate: saturation_point.injection_rate,
            points,
        }
    }

    /// Latency at the lowest injection rate, i.e. the measured analogue of
    /// the zero-load latency of Table 2.
    #[must_use]
    pub fn low_load_latency(&self) -> f64 {
        self.zero_load_latency_cycles
    }
}

/// Side-by-side comparison of a proposed and a baseline curve, plus the
/// theoretical limits — the numbers §4.1 quotes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepComparison {
    /// The proposed network's curve.
    pub proposed: SweepCurve,
    /// The baseline network's curve.
    pub baseline: SweepCurve,
    /// Latency reduction of the proposed network at low load (0..1).
    pub latency_reduction: f64,
    /// Saturation-throughput improvement factor over the baseline.
    pub throughput_improvement: f64,
    /// Proposed saturation throughput as a fraction of the theoretical limit.
    pub fraction_of_theoretical_limit: f64,
    /// The theoretical throughput limit used for that fraction (Gb/s).
    pub theoretical_limit_gbps: f64,
    /// Theoretical latency limit (cycles per packet, including NIC cycles).
    pub theoretical_latency_cycles: f64,
}

/// One fully measured sweep point as produced by a [`SweepRunner`]: the
/// complete simulation result plus the wall-clock time the point took.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPointOutcome {
    /// Offered injection rate of this point.
    pub injection_rate: f64,
    /// The point's full simulation result.
    pub result: SimulationResult,
    /// Wall-clock milliseconds spent simulating this point.
    pub wall_ms: f64,
}

/// Everything a [`SweepRunner`] run produces: the curve, the per-point
/// results/wall-clocks, and the total wall-clock time.
///
/// Wall-clock times live here — outside [`SweepCurve`] — so curves stay
/// bit-comparable across runs with different thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The latency-throughput curve (bit-identical for any thread count).
    pub curve: SweepCurve,
    /// Per-point outcomes in injection-rate (input) order.
    pub points: Vec<SweepPointOutcome>,
    /// Total wall-clock milliseconds for the whole sweep.
    pub total_wall_ms: f64,
}

/// Runs the points of an injection-rate sweep, optionally in parallel.
///
/// Each point owns an independent [`Simulation`] seeded from
/// [`point_seed`](SweepRunner::point_seed), so points can execute on any
/// thread in any order and still reproduce the sequential result exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunner {
    jobs: usize,
    warmup_cycles: u64,
    measure_cycles: u64,
}

impl SweepRunner {
    /// A runner distributing points over `jobs` worker threads (`0` is
    /// treated as `1`), with default warmup/measurement windows of
    /// 1000/5000 cycles.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            warmup_cycles: 1_000,
            measure_cycles: 5_000,
        }
    }

    /// Replaces the warmup and measurement windows (cycles). A zero-cycle
    /// warmup is legal (measurement starts cold); a zero-cycle measurement
    /// window is not — it would divide every throughput by zero and poison
    /// the curve with NaNs.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidSweepWindow`] when `measure_cycles == 0`.
    pub fn with_windows(
        mut self,
        warmup_cycles: u64,
        measure_cycles: u64,
    ) -> Result<Self, NocError> {
        if measure_cycles == 0 {
            return Err(ConfigError::InvalidSweepWindow { measure_cycles }.into());
        }
        self.warmup_cycles = warmup_cycles;
        self.measure_cycles = measure_cycles;
        Ok(self)
    }

    /// Number of worker threads this runner uses.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The PRBS base seed of sweep point `index` under `config`: a SplitMix64
    /// finalizer over (configured base seed, index), truncated to the LFSR
    /// width. Depends only on its inputs — never on thread count or
    /// execution order.
    #[must_use]
    pub fn point_seed(config: &NocConfig, index: usize) -> u16 {
        let mut z = (u64::from(config.base_seed) << 32) ^ (index as u64).wrapping_add(1);
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // The LFSR remaps 0 to a fixed constant; fold to a non-zero seed
        // ourselves so distinct points can never alias through that remap.
        let seed = (z & 0xFFFF) as u16;
        if seed == 0 {
            0x1D0C
        } else {
            seed
        }
    }

    /// Runs one sweep over `rates`, sharding points across the runner's
    /// worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptySweep`] when `rates` is empty, and
    /// propagates configuration errors from the underlying simulations.
    pub fn run(&self, config: NocConfig, rates: &[f64]) -> Result<SweepOutcome, NocError> {
        if rates.is_empty() {
            return Err(ConfigError::EmptySweep.into());
        }
        let sweep_start = Instant::now();
        // Each worker batches its points through one warmed simulation
        // (reset between points, buffers kept).
        let points = shard_indexed(
            self.jobs,
            rates.len(),
            |sim: &mut Option<Simulation>, index| {
                let sim = match sim {
                    Some(sim) => sim,
                    None => sim.insert(Simulation::new(config)?),
                };
                self.run_point(sim, &config, rates, index)
            },
        )?;
        let curve =
            SweepCurve::from_points(points.iter().map(|p| SweepPoint::from(&p.result)).collect());
        Ok(SweepOutcome {
            curve,
            points,
            total_wall_ms: sweep_start.elapsed().as_secs_f64() * 1_000.0,
        })
    }

    /// Simulates sweep point `index` of `rates` on a (possibly warm) batch
    /// simulation: the network is reset to the point's derived seed, so the
    /// outcome is bit-identical to a cold per-point simulation while reusing
    /// all of `sim`'s buffer capacity.
    fn run_point(
        &self,
        sim: &mut Simulation,
        config: &NocConfig,
        rates: &[f64],
        index: usize,
    ) -> Result<SweepPointOutcome, NocError> {
        let start = Instant::now();
        sim.reset(u64::from(Self::point_seed(config, index)));
        let result = sim.run(rates[index], self.warmup_cycles, self.measure_cycles)?;
        Ok(SweepPointOutcome {
            injection_rate: rates[index],
            result,
            wall_ms: start.elapsed().as_secs_f64() * 1_000.0,
        })
    }
}

/// Runs `run_point(worker_state, index)` for every index in `0..n`, sharded
/// round-robin over at most `jobs` scoped worker threads, and returns the
/// results in index order — never in scheduling order, which is what keeps
/// sharded sweeps bit-identical for any `jobs`. Each worker owns one
/// `W::default()` state for its whole batch (the warm simulation of a
/// [`SweepRunner`] worker) and stops at its first error; with one job
/// everything runs on the calling thread.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub(crate) fn shard_indexed<T, W, F>(
    jobs: usize,
    n: usize,
    run_point: F,
) -> Result<Vec<T>, NocError>
where
    T: Send,
    W: Default,
    F: Fn(&mut W, usize) -> Result<T, NocError> + Sync,
{
    let jobs = jobs.clamp(1, n.max(1));
    let run_shard = |worker: usize| -> Result<Vec<T>, NocError> {
        let mut state = W::default();
        (worker..n)
            .step_by(jobs)
            .map(|index| run_point(&mut state, index))
            .collect()
    };
    if jobs == 1 {
        return run_shard(0);
    }
    let run_shard = &run_shard;
    let shards: Vec<Result<Vec<T>, NocError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|worker| scope.spawn(move || run_shard(worker)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker thread panicked"))
            .collect()
    });
    // Stitch by index: point `i` is entry `i / jobs` of shard `i % jobs`.
    let mut shards = shards
        .into_iter()
        .map(|shard| shard.map(Vec::into_iter))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((0..n)
        .map(|index| {
            shards[index % jobs]
                .next()
                .expect("every sweep point was simulated")
        })
        .collect())
}

/// Compares a proposed and a baseline configuration over the same rates,
/// sweeping both networks through `runner` (so the points of each curve run
/// on the runner's worker threads), and computes the §4.1 summary
/// statistics. Results are identical for any thread count.
///
/// # Errors
///
/// Propagates configuration errors from the underlying simulations.
pub fn compare_with(
    runner: &SweepRunner,
    proposed: NocConfig,
    baseline: NocConfig,
    rates: &[f64],
) -> Result<SweepComparison, NocError> {
    let proposed_curve = runner.run(proposed, rates)?.curve;
    let baseline_curve = runner.run(baseline, rates)?.curve;
    Ok(comparison_from_curves(
        &proposed,
        proposed_curve,
        baseline_curve,
    ))
}

/// Builds the §4.1 summary statistics from two already-swept curves
/// (`proposed_config` supplies the theoretical-limit parameters).
///
/// Callers that need the sweeps' raw [`SweepOutcome`]s (e.g. for
/// machine-readable reports) run the curves through a [`SweepRunner`]
/// themselves and use this to derive the comparison.
#[must_use]
pub fn comparison_from_curves(
    proposed_config: &NocConfig,
    proposed: SweepCurve,
    baseline: SweepCurve,
) -> SweepComparison {
    let limits = MeshLimits::new(proposed_config.k);
    let theoretical_limit_gbps = limits.throughput_limit_gbps(
        true,
        proposed_config.flit_bits,
        proposed_config.frequency_ghz,
    );
    let broadcast_heavy = proposed_config.mix.broadcast_request() > 0.0;
    let mean_flits = proposed_config.mix.expected_flits_per_packet() as usize;
    let theoretical_latency_cycles =
        limits.packet_latency_limit(broadcast_heavy, mean_flits.max(1));
    SweepComparison {
        latency_reduction: 1.0 - proposed.low_load_latency() / baseline.low_load_latency(),
        throughput_improvement: proposed.saturation_gbps / baseline.saturation_gbps,
        fraction_of_theoretical_limit: proposed.saturation_gbps / theoretical_limit_gbps,
        theoretical_limit_gbps,
        theoretical_latency_cycles,
        proposed,
        baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkVariant;
    use noc_traffic::SeedMode;

    #[test]
    fn curve_detects_saturation_with_the_3x_rule() {
        let points = vec![
            SweepPoint {
                injection_rate: 0.01,
                latency_cycles: 10.0,
                received_gbps: 100.0,
                received_flits_per_cycle: 1.5,
                bypass_fraction: 0.9,
            },
            SweepPoint {
                injection_rate: 0.05,
                latency_cycles: 14.0,
                received_gbps: 400.0,
                received_flits_per_cycle: 6.0,
                bypass_fraction: 0.8,
            },
            SweepPoint {
                injection_rate: 0.07,
                latency_cycles: 35.0,
                received_gbps: 700.0,
                received_flits_per_cycle: 11.0,
                bypass_fraction: 0.6,
            },
        ];
        let curve = SweepCurve::from_points(points);
        assert_eq!(curve.zero_load_latency_cycles, 10.0);
        assert_eq!(curve.saturation_gbps, 700.0);
        assert_eq!(curve.saturation_rate, 0.07);
    }

    #[test]
    fn curve_without_saturation_uses_the_last_point() {
        let points = vec![
            SweepPoint {
                injection_rate: 0.01,
                latency_cycles: 10.0,
                received_gbps: 100.0,
                received_flits_per_cycle: 1.5,
                bypass_fraction: 0.9,
            },
            SweepPoint {
                injection_rate: 0.02,
                latency_cycles: 12.0,
                received_gbps: 200.0,
                received_flits_per_cycle: 3.0,
                bypass_fraction: 0.85,
            },
        ];
        let curve = SweepCurve::from_points(points);
        assert_eq!(curve.saturation_gbps, 200.0);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_sweep_panics() {
        let _ = SweepCurve::from_points(Vec::new());
    }

    #[test]
    fn point_seeds_are_stable_and_distinct() {
        let config = NocConfig::proposed_chip().unwrap();
        let seeds: Vec<u16> = (0..16)
            .map(|i| SweepRunner::point_seed(&config, i))
            .collect();
        // Deterministic.
        let again: Vec<u16> = (0..16)
            .map(|i| SweepRunner::point_seed(&config, i))
            .collect();
        assert_eq!(seeds, again);
        // No zero seeds (the LFSR would remap them) and no adjacent aliases.
        assert!(seeds.iter().all(|&s| s != 0));
        let unique: std::collections::HashSet<u16> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len(), "16 points must get 16 seeds");
        // A different base seed moves every point seed.
        let other = config.with_base_seed(0x1234);
        assert_ne!(SweepRunner::point_seed(&other, 0), seeds[0]);
    }

    #[test]
    fn zero_measurement_windows_are_rejected_with_a_config_error() {
        let err = SweepRunner::new(1).with_windows(100, 0).unwrap_err();
        assert!(matches!(
            err,
            NocError::Config(ConfigError::InvalidSweepWindow { measure_cycles: 0 })
        ));
        // A zero warmup stays legal.
        assert!(SweepRunner::new(1).with_windows(0, 100).is_ok());
    }

    #[test]
    fn empty_rate_lists_are_rejected_with_a_config_error() {
        let config = NocConfig::proposed_chip().unwrap();
        let err = SweepRunner::new(2).run(config, &[]).unwrap_err();
        assert_eq!(err, NocError::Config(ConfigError::EmptySweep));
    }

    #[test]
    fn parallel_and_sequential_runners_agree_exactly() {
        let config = NocConfig::proposed_chip()
            .unwrap()
            .with_seed_mode(SeedMode::PerNode);
        let rates = [0.02, 0.08, 0.14, 0.2, 0.26];
        let sequential = SweepRunner::new(1)
            .with_windows(100, 400)
            .unwrap()
            .run(config, &rates)
            .unwrap();
        let parallel = SweepRunner::new(4)
            .with_windows(100, 400)
            .unwrap()
            .run(config, &rates)
            .unwrap();
        assert_eq!(sequential.curve, parallel.curve);
        for (s, p) in sequential.points.iter().zip(parallel.points.iter()) {
            assert_eq!(s.result, p.result, "rate {} diverged", s.injection_rate);
        }
    }

    #[test]
    fn small_comparison_shows_the_proposed_network_ahead() {
        // A deliberately small sweep so the test stays fast; the full-size
        // sweeps live in the bench harness.
        let proposed = NocConfig::variant(NetworkVariant::LowSwingBroadcastBypass)
            .unwrap()
            .with_seed_mode(SeedMode::PerNode);
        let baseline = NocConfig::variant(NetworkVariant::FullSwingUnicast)
            .unwrap()
            .with_seed_mode(SeedMode::PerNode);
        let rates = [0.02, 0.12, 0.3];
        let runner = SweepRunner::new(1).with_windows(200, 800).unwrap();
        let comparison = compare_with(&runner, proposed, baseline, &rates).unwrap();
        assert!(comparison.latency_reduction > 0.2);
        assert!(comparison.throughput_improvement > 1.0);
        assert!(comparison.fraction_of_theoretical_limit <= 1.0);
        assert!(comparison.theoretical_limit_gbps == 1024.0);
    }
}
