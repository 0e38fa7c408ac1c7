//! `fig5_sweep`: the paper's Fig. 5 latency-throughput comparison.
//!
//! Open-loop Bernoulli sources in simulated time, so the generator is never
//! late. The untraced rep is the body of `mesh_noc::sweep::compare_with` —
//! two `SweepRunner::run` calls and `comparison_from_curves` — called
//! directly, because `compare_with` drops the per-point `total_cycles` that
//! `router_cycles_per_s` needs.
//!
//! The traced rep is a harness-side replica of `Simulation::run`, driven
//! through public `Network` calls with a span per sweep-point phase. Its
//! per-point results are compared field by field with `SweepRunner`'s; a
//! mismatch means the replica no longer mirrors the library and the phase
//! table is stale (`mesh-noc.replica_mismatch_points`) — it says nothing
//! about the simulator, so it is not a failed op.

use std::time::Instant;

use mesh_noc::sweep::{self, SweepComparison, SweepCurve};
use mesh_noc::{Network, NetworkVariant, NocConfig, SimulationResult, SweepRunner};
use noc_traffic::TrafficMix;

use super::{check_open_loop, Rep, Size, Workload};
use crate::digest::Digest;
use crate::paper;
use crate::spans::Tracer;

/// The Fig. 5 grid as it stood when the benchmark was defined (flits per
/// node per cycle).
const RATES: [f64; 8] = [0.01, 0.04, 0.08, 0.12, 0.16, 0.20, 0.24, 0.28];
const WARMUP_CYCLES: u64 = 1_000;
const MEASURE_CYCLES: u64 = 5_000;

/// Phases of one sweep point, in the order the replica runs them.
pub const PHASES: [&str; 6] = [
    "reset",
    "warmup",
    "measure",
    "drain",
    "drain_poll",
    "result",
];
pub const NETWORKS: [&str; 2] = [VARIANTS[0].0, VARIANTS[1].0];

/// `(label, variant)` in sweep order: proposed first, as `compare_with`.
const VARIANTS: [(&str, NetworkVariant); 2] = [
    ("proposed", NetworkVariant::LowSwingBroadcastBypass),
    ("baseline", NetworkVariant::FullSwingUnicast),
];
const K: u16 = 4;

pub struct Fig5Sweep {
    warmup: u64,
    measure: u64,
    /// `SweepRunner`'s results of the latest untraced rep, the replica's
    /// reference.
    reference: Option<Reference>,
}

struct Reference {
    seed: u16,
    /// Per network, per rate.
    results: [Vec<SimulationResult>; 2],
    comparison: SweepComparison,
}

impl Fig5Sweep {
    pub fn new(size: Size) -> Self {
        Self {
            warmup: size.scale(WARMUP_CYCLES),
            measure: size.scale(MEASURE_CYCLES),
            reference: None,
        }
    }

    /// The two networks' configurations at `seed`.
    fn configs(seed: u16) -> Result<[NocConfig; 2], noc_types::NocError> {
        let config = |variant| {
            NocConfig::variant(variant)
                .map(|c| c.with_mix(TrafficMix::mixed()).with_base_seed(seed))
        };
        Ok([config(VARIANTS[0].1)?, config(VARIANTS[1].1)?])
    }

    fn router_cycles(cycles: u64) -> u64 {
        u64::from(K) * u64::from(K) * cycles
    }

    fn untraced_rep(&mut self, seed: u16) -> Rep {
        let ops = (RATES.len() * VARIANTS.len()) as u64;
        let start = Instant::now();
        let swept = (|| {
            let configs = Self::configs(seed)?;
            let runner = SweepRunner::new(1).with_windows(self.warmup, self.measure)?;
            let proposed = runner.run(configs[0], &RATES)?;
            let baseline = runner.run(configs[1], &RATES)?;
            let comparison =
                sweep::comparison_from_curves(&configs[0], proposed.curve, baseline.curve);
            Ok::<_, noc_types::NocError>((proposed.points, baseline.points, comparison))
        })();
        let timed_s = start.elapsed().as_secs_f64();
        let (proposed, baseline, comparison) = match swept {
            Ok(swept) => swept,
            Err(error) => {
                return Rep::failed(ops, format!("fig5 sweep returned an error: {error}"))
            }
        };

        let results = [proposed, baseline]
            .map(|points| points.into_iter().map(|p| p.result).collect::<Vec<_>>());
        let mut digest = Digest::new();
        let mut failures = Vec::new();
        let mut cycles = 0;
        for ((label, _), results) in VARIANTS.iter().zip(&results) {
            for r in results {
                digest.simulation(r);
                cycles += r.total_cycles;
                check_open_loop(
                    &format!("{label} @ {}", r.injection_rate),
                    K,
                    r.average_latency_cycles,
                    r.received_flits_per_cycle,
                    &mut failures,
                );
            }
        }
        let latency_reduction_pct = 100.0 * comparison.latency_reduction;
        let fraction_of_limit_pct = 100.0 * comparison.fraction_of_theoretical_limit;
        for v in [
            comparison.proposed.saturation_gbps,
            comparison.baseline.saturation_gbps,
            comparison.theoretical_limit_gbps,
            latency_reduction_pct,
            comparison.throughput_improvement,
            fraction_of_limit_pct,
        ] {
            digest.f64(v);
        }
        if [
            latency_reduction_pct,
            comparison.throughput_improvement,
            fraction_of_limit_pct,
        ]
        .iter()
        .any(|v| !v.is_finite())
        {
            failures.push("fig5 comparison: non-finite summary statistic".to_owned());
        }
        let model = vec![
            (
                "model.lowload_latency_cycles.proposed".to_owned(),
                comparison.proposed.zero_load_latency_cycles,
            ),
            (
                "model.lowload_latency_cycles.baseline".to_owned(),
                comparison.baseline.zero_load_latency_cycles,
            ),
            (
                "model.saturation_gbps.proposed".to_owned(),
                comparison.proposed.saturation_gbps,
            ),
            (
                "model.saturation_gbps.baseline".to_owned(),
                comparison.baseline.saturation_gbps,
            ),
            (
                "model.latency_reduction_pct".to_owned(),
                latency_reduction_pct,
            ),
            (
                "model.throughput_improvement_x".to_owned(),
                comparison.throughput_improvement,
            ),
            (
                "model.fraction_of_limit_pct".to_owned(),
                fraction_of_limit_pct,
            ),
        ];
        self.reference = Some(Reference {
            seed,
            results,
            comparison,
        });
        Rep {
            timed_s,
            router_cycles: Self::router_cycles(cycles),
            digest: Some(digest.finish()),
            ops,
            failures,
            model,
        }
    }

    /// The replica of `SweepRunner::run` + `Simulation::run` for one network:
    /// one warmed network, reset to the point's derived seed before each
    /// rate. Returns the cycles stepped.
    fn replica_sweep(
        &self,
        net_index: usize,
        reference: &Reference,
        tracer: &mut Tracer,
        totals: &mut ReplicaTotals,
    ) -> Result<u64, noc_types::NocError> {
        let label = VARIANTS[net_index].0;
        let config = Self::configs(reference.seed)?[net_index];
        let reference = &reference.results[net_index];
        let mut phase_s = [0.0; PHASES.len()];
        let mut cycles = 0;

        let span = tracer.open("network_new", "mesh-noc");
        let mut network = Network::new(config, 0.0)?;
        tracer.close(span);

        for (index, &rate) in RATES.iter().enumerate() {
            let point = tracer.open(&format!("point.{label}"), "bench");

            let span = tracer.open("reset", "mesh-noc");
            network.reset(u64::from(SweepRunner::point_seed(&config, index)));
            phase_s[0] += tracer.close(span);

            let span = tracer.open("warmup", "mesh-noc");
            network.set_rate(rate);
            network.set_measuring(false);
            for _ in 0..self.warmup {
                network.step(true);
            }
            phase_s[1] += tracer.close(span);

            let span = tracer.open("measure", "mesh-noc");
            network.set_measuring(true);
            for _ in 0..self.measure {
                network.step(true);
            }
            network.set_measuring(false);
            network.throughput_mut().set_measured_cycles(self.measure);
            phase_s[2] += tracer.close(span);

            // Drain. A span per cycle would be millions of spans, so step
            // and poll time are accumulated and recorded as one child each.
            let span = tracer.open("drain_loop", "bench");
            let drain_start_ns = tracer.now_ns();
            let drain_limit = 4 * self.measure + 2000;
            let (mut step_ns, mut poll_ns, mut drained) = (0u64, 0u64, 0u64);
            let mut mark = Instant::now();
            let unmeasured = loop {
                let outstanding = network.outstanding_tracked_packets();
                let polled = Instant::now();
                poll_ns += (polled - mark).as_nanos() as u64;
                if outstanding == 0 || drained >= drain_limit {
                    break outstanding;
                }
                network.step(false);
                mark = Instant::now();
                step_ns += (mark - polled).as_nanos() as u64;
                drained += 1;
            };
            tracer.add_child(
                "drain",
                "mesh-noc",
                drain_start_ns,
                drain_start_ns + step_ns,
            );
            tracer.add_child(
                "drain_poll",
                "mesh-noc",
                drain_start_ns + step_ns,
                drain_start_ns + step_ns + poll_ns,
            );
            tracer.close(span);
            phase_s[3] += step_ns as f64 * 1e-9;
            phase_s[4] += poll_ns as f64 * 1e-9;

            let span = tracer.open("result", "mesh-noc");
            let latency = network.latency();
            let throughput = network.throughput();
            let counters = network.counters();
            let percentile = |p| latency.percentile(p).unwrap_or(0) as f64;
            let total_cycles = self.warmup + self.measure + drained;
            let r = &reference[index];
            let same = latency.mean().to_bits() == r.average_latency_cycles.to_bits()
                && percentile(0.50) == r.p50_latency_cycles
                && percentile(0.95) == r.p95_latency_cycles
                && percentile(0.99) == r.p99_latency_cycles
                && latency.count() == r.measured_packets
                && throughput.received_flits_per_cycle().to_bits()
                    == r.received_flits_per_cycle.to_bits()
                && throughput
                    .received_gbps(config.flit_bits, config.frequency_ghz)
                    .to_bits()
                    == r.received_gbps.to_bits()
                && throughput.injected_flits() == r.injected_flits
                && counters.bypass_fraction().to_bits() == r.bypass_fraction.to_bits()
                && counters == r.counters
                && total_cycles == r.total_cycles;
            phase_s[5] += tracer.close(span);

            totals.mismatch_points += u64::from(!same);
            totals.drain_cycles += drained;
            totals.truncated_points += u64::from(unmeasured > 0);
            totals.unmeasured_packets += unmeasured as u64;
            cycles += total_cycles;
            tracer.close(point);
        }
        for (i, phase) in PHASES.iter().enumerate() {
            tracer.sample(&format!("mesh-noc.{label}.{phase}_s"), phase_s[i]);
            totals.phase_s[i] += phase_s[i];
        }
        Ok(cycles)
    }

    /// The replica of the latest untraced rep (the child runs them in pairs
    /// with one seed), checked against that rep's results.
    fn traced_rep(&mut self, seed: u16, tracer: &mut Tracer) -> Rep {
        let ops = (RATES.len() * VARIANTS.len()) as u64;
        let reference = match &self.reference {
            Some(reference) if reference.seed == seed => reference,
            _ => {
                let failure = "no untraced rep with this seed to replicate";
                return Rep::failed(ops, failure.to_owned());
            }
        };
        let mut totals = ReplicaTotals::default();
        let mut failures = Vec::new();
        let mut cycles = 0;
        let start = Instant::now();
        for (net_index, network) in NETWORKS.iter().enumerate() {
            let span = tracer.open(&format!("sweep.{network}"), "bench");
            match self.replica_sweep(net_index, reference, tracer, &mut totals) {
                Ok(stepped) => cycles += stepped,
                Err(error) => failures.push(format!("replica sweep returned an error: {error}")),
            }
            tracer.close(span);
        }
        let span = tracer.open("stitch", "mesh-noc");
        let proposed = SweepCurve::from_points(reference.comparison.proposed.points.clone());
        let baseline = SweepCurve::from_points(reference.comparison.baseline.points.clone());
        let stitched = Self::configs(seed)
            .map(|configs| sweep::comparison_from_curves(&configs[0], proposed, baseline));
        let stitch_s = tracer.close(span);
        let timed_s = start.elapsed().as_secs_f64();
        if stitched.as_ref() != Ok(&reference.comparison) {
            totals.mismatch_points += 1;
        }

        for (phase, seconds) in PHASES.iter().zip(totals.phase_s) {
            tracer.sample(&format!("mesh-noc.{phase}_s"), seconds);
        }
        tracer.sample("mesh-noc.stitch_s", stitch_s);
        tracer.sample(
            "mesh-noc.replica_mismatch_points",
            totals.mismatch_points as f64,
        );
        tracer.sample("model.cycles_stepped", cycles as f64);
        tracer.sample("model.drain_cycles", totals.drain_cycles as f64);
        tracer.sample(
            "model.drain_truncated_points",
            totals.truncated_points as f64,
        );
        tracer.sample("model.unmeasured_packets", totals.unmeasured_packets as f64);

        // No digest of its own: the replica is checked against the
        // reference field by field above, and a mismatch is not a failed op.
        Rep {
            timed_s,
            router_cycles: Self::router_cycles(cycles),
            digest: None,
            ops,
            failures,
            model: Vec::new(),
        }
    }
}

#[derive(Default)]
struct ReplicaTotals {
    phase_s: [f64; PHASES.len()],
    mismatch_points: u64,
    drain_cycles: u64,
    truncated_points: u64,
    unmeasured_packets: u64,
}

impl Workload for Fig5Sweep {
    fn rep(&mut self, seed: u16, tracer: Option<&mut Tracer>) -> Rep {
        match tracer {
            None => self.untraced_rep(seed),
            Some(tracer) => self.traced_rep(seed, tracer),
        }
    }
}

/// The chip's own PRBS boot seed (`TrafficGenerator::DEFAULT_BASE_SEED`),
/// the configuration `repro fig5` reproduces.
pub const PAPER_SEED: u16 = 0xACE1;

/// `paper_gap_pct`: one untimed rep of the Fig. 5 sweep at [`PAPER_SEED`].
///
/// Not at `--seed`: the gap belongs to the model, and across seeds the
/// library's 3×-knee saturation estimate jumps between grid points (the gap
/// read 19 % to 36 % over seeds 1..10) — that says something about the
/// estimator (ROADMAP item 1), nothing about a change under test. At a fixed
/// seed the metric repeats exactly, so any movement is a model change.
pub fn paper_gap(size: Size) -> Result<f64, String> {
    let rep = Fig5Sweep::new(size).untraced_rep(PAPER_SEED);
    if let Some(failure) = rep.failures.first() {
        return Err(failure.clone());
    }
    let model = |name: &str| {
        rep.model
            .iter()
            .find(|(known, _)| known == name)
            .map(|(_, value)| *value)
            .ok_or_else(|| format!("the fig5 rep reported no {name}"))
    };
    Ok(paper::paper_gap_pct(
        model("model.latency_reduction_pct")?,
        model("model.throughput_improvement_x")?,
        model("model.fraction_of_limit_pct")?,
    ))
}
