//! One function per table / figure of the paper.

use mesh_noc::sweep::{self, SweepCurve, SweepPoint};
use mesh_noc::{
    NetworkVariant, NocConfig, Scenario, ServingOutcome, ServingRunner, Simulation,
    SimulationResult, SweepRunner,
};
use noc_circuit::{
    AreaModel, CriticalPathModel, EyeAnalysis, LowSwingLink, MulticastPowerPoint,
    SenseAmpVariation, Wire,
};
use noc_power::{
    reference, MeasuredPowerModel, OrionPowerModel, PostLayoutPowerModel, PowerBreakdown,
    PowerEstimator,
};
use noc_topology::chips;
use noc_topology::limits::{DatapathEnergy, MeshLimits};
use noc_traffic::{SeedMode, SpatialPattern, TrafficMix};

use crate::format::{num, pct, Table};
use crate::record::{SweepPointRecord, SweepRecord};
use crate::registry::RunOpts;
use crate::report::Report;

/// How much simulation time to spend on the simulation-backed experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Small warmup/measurement windows and coarse sweeps; used by the tests,
    /// `repro --quick` and the repo benchmark.
    Quick,
    /// The full-size runs `repro` performs by default.
    Full,
}

impl Effort {
    fn warmup(self) -> u64 {
        match self {
            Effort::Quick => 200,
            Effort::Full => 1_000,
        }
    }

    fn measure(self) -> u64 {
        match self {
            Effort::Quick => 1_000,
            Effort::Full => 5_000,
        }
    }

    fn thin<T: Copy>(self, rates: &[T]) -> Vec<T> {
        match self {
            Effort::Quick => rates.iter().copied().step_by(2).collect(),
            Effort::Full => rates.to_vec(),
        }
    }
}

fn run_single(config: NocConfig, rate: f64, effort: Effort) -> SimulationResult {
    let mut sim = Simulation::new(config).expect("built-in configurations are valid");
    sim.run(rate, effort.warmup(), effort.measure())
        .expect("built-in rates are valid")
}

/// The [`SweepRunner`] every open-loop sweep experiment runs through: the
/// effort's windows on [`RunOpts::jobs`] worker threads.
fn sweep_runner(opts: RunOpts) -> SweepRunner {
    SweepRunner::new(opts.jobs)
        .with_windows(opts.effort.warmup(), opts.effort.measure())
        .expect("effort windows are non-zero")
}

// --------------------------------------------------------------------- Table 1

/// Table 1: theoretical limits of a k×k mesh for unicast and broadcast
/// traffic.
#[must_use]
pub fn table1_report() -> String {
    let mut out = String::from("Table 1 - Theoretical limits of a k x k mesh NoC\n\n");
    let energy = DatapathEnergy::default();
    let mut table = Table::new([
        "k",
        "H_avg uni",
        "H_avg bcast",
        "bisection load (xR)",
        "ejection load (xR)",
        "bcast bisection (xR)",
        "bcast ejection (xR)",
        "R_sat uni",
        "R_sat bcast",
        "E_uni (pJ)",
        "E_bcast (pJ)",
    ]);
    for k in [2u16, 4, 5, 8, 16] {
        let l = MeshLimits::new(k);
        table.row([
            k.to_string(),
            num(l.unicast_average_hops(), 2),
            num(l.broadcast_average_hops(), 2),
            num(l.unicast_bisection_load(1.0), 2),
            num(l.unicast_ejection_load(1.0), 2),
            num(l.broadcast_bisection_load(1.0), 1),
            num(l.broadcast_ejection_load(1.0), 1),
            num(l.unicast_saturation_rate(), 3),
            num(l.broadcast_saturation_rate(), 4),
            num(l.unicast_energy_limit_pj(energy), 2),
            num(l.broadcast_energy_limit_pj(energy), 2),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\npaper check (k=4): H_uni = 3.33, H_bcast = 5.5, theoretical throughput limit\n\
         = 16 flits/cycle = 1024 Gb/s at 64 bits / 1 GHz.\n",
    );
    out
}

// --------------------------------------------------------------------- Table 2

/// Table 2: comparison of mesh NoC chip prototypes.
#[must_use]
pub fn table2_report() -> String {
    let mut out = String::from("Table 2 - Comparison of mesh NoC chip prototypes\n\n");
    let mut table = Table::new([
        "chip",
        "zero-load uni (cycles)",
        "zero-load bcast (cycles)",
        "channel load uni (xR)",
        "channel load bcast (xR)",
        "bisection BW (Gb/s)",
        "delay/hop (ns)",
    ]);
    for row in chips::table2() {
        table.row([
            row.name.clone(),
            num(row.unicast_zero_load_cycles, 1),
            num(row.broadcast_zero_load_cycles, 1),
            num(row.unicast_channel_load_factor, 0),
            num(row.broadcast_channel_load_factor, 0),
            num(row.bisection_bandwidth_gbps, 1),
            num(row.delay_per_hop_ns, 2),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\npaper values: Teraflops 30/120.5 cycles, TILE64 9/77.5, SWIFT 12/86,\n\
         this work 6/11.5 (modeled 8x8) and 3.3/5.5 (4x4); channel loads 64R/4096R\n\
         for the prior chips vs 64R/64R and 16R/16R for this work.\n",
    );
    out
}

// ------------------------------------------------------------- Figs. 5 and 13

fn latency_throughput_full(
    experiment: &str,
    title: &str,
    mix: TrafficMix,
    rates: &[f64],
    opts: RunOpts,
) -> (String, Vec<SweepRecord>) {
    let proposed_cfg = NocConfig::variant(NetworkVariant::LowSwingBroadcastBypass)
        .expect("valid preset")
        .with_mix(mix);
    let baseline_cfg = NocConfig::variant(NetworkVariant::FullSwingUnicast)
        .expect("valid preset")
        .with_mix(mix);
    let rates = opts.effort.thin(rates);
    let runner = sweep_runner(opts);
    let proposed_outcome = runner
        .run(proposed_cfg, &rates)
        .expect("built-in sweep configuration is valid");
    let baseline_outcome = runner
        .run(baseline_cfg, &rates)
        .expect("built-in sweep configuration is valid");
    let records = vec![
        SweepRecord::from_outcome(
            experiment,
            "proposed",
            proposed_cfg.k,
            runner.jobs(),
            &proposed_outcome,
        ),
        SweepRecord::from_outcome(
            experiment,
            "baseline",
            baseline_cfg.k,
            runner.jobs(),
            &baseline_outcome,
        ),
    ];
    let comparison = sweep::comparison_from_curves(
        &proposed_cfg,
        proposed_outcome.curve,
        baseline_outcome.curve,
    );

    let mut out = format!("{title}\n\n");
    let mut table = Table::new([
        "offered rate (flits/node/cyc)",
        "baseline latency (cyc)",
        "baseline thru (Gb/s)",
        "proposed latency (cyc)",
        "proposed thru (Gb/s)",
        "bypass fraction",
    ]);
    for (b, p) in comparison
        .baseline
        .points
        .iter()
        .zip(comparison.proposed.points.iter())
    {
        table.row([
            num(p.injection_rate, 3),
            num(b.latency_cycles, 1),
            num(b.received_gbps, 1),
            num(p.latency_cycles, 1),
            num(p.received_gbps, 1),
            num(p.bypass_fraction, 2),
        ]);
    }
    out.push_str(&table.render());
    out.push('\n');
    out.push_str(&format!(
        "theoretical latency limit: {:.1} cycles/packet, theoretical throughput limit: {:.0} Gb/s\n",
        comparison.theoretical_latency_cycles, comparison.theoretical_limit_gbps
    ));
    out.push_str(&format!(
        "low-load latency: baseline {:.1} vs proposed {:.1} cycles -> {} reduction (paper: 48.7% mixed / 55.1% bcast)\n",
        comparison.baseline.zero_load_latency_cycles,
        comparison.proposed.zero_load_latency_cycles,
        pct(comparison.latency_reduction)
    ));
    out.push_str(&format!(
        "saturation throughput: baseline {:.0} vs proposed {:.0} Gb/s -> {:.2}x improvement (paper: 2.1x mixed / 2.2x bcast)\n",
        comparison.baseline.saturation_gbps,
        comparison.proposed.saturation_gbps,
        comparison.throughput_improvement
    ));
    out.push_str(&format!(
        "proposed saturation = {} of the theoretical limit (paper: 87% mixed / 91% bcast)\n",
        pct(comparison.fraction_of_theoretical_limit)
    ));
    out.push_str(&format!(
        "sweep wall-clock: proposed {:.0} ms, baseline {:.0} ms ({} thread{})\n",
        records[0].total_wall_ms,
        records[1].total_wall_ms,
        runner.jobs(),
        if runner.jobs() == 1 { "" } else { "s" }
    ));
    (out, records)
}

/// Fig. 5: latency versus throughput under mixed traffic (50% broadcast
/// requests, 25% unicast requests, 25% unicast responses) at 1 GHz.
#[must_use]
pub fn fig5_report(effort: Effort) -> String {
    fig5_full(RunOpts::new(effort)).0
}

/// [`fig5_report`] with thread counts (see [`RunOpts`]), also returning the
/// machine-readable sweep records.
#[must_use]
pub fn fig5_full(opts: RunOpts) -> (String, Vec<SweepRecord>) {
    let rates = [0.01, 0.04, 0.08, 0.12, 0.16, 0.20, 0.24, 0.28];
    latency_throughput_full(
        "fig5",
        "Figure 5 - Throughput-latency with mixed traffic at 1 GHz",
        TrafficMix::mixed(),
        &rates,
        opts,
    )
}

/// Fig. 13: latency versus throughput under broadcast-only traffic.
#[must_use]
pub fn fig13_report(effort: Effort) -> String {
    fig13_full(RunOpts::new(effort)).0
}

/// [`fig13_report`] with thread counts (see [`RunOpts`]), also returning the
/// machine-readable sweep records.
#[must_use]
pub fn fig13_full(opts: RunOpts) -> (String, Vec<SweepRecord>) {
    let rates = [0.005, 0.015, 0.025, 0.035, 0.045, 0.055, 0.065, 0.075];
    latency_throughput_full(
        "fig13",
        "Figure 13 - Throughput-latency with broadcast-only traffic at 1 GHz",
        TrafficMix::broadcast_only(),
        &rates,
        opts,
    )
}

// -------------------------------------------------------------------- stress8

/// `stress8`: an 8×8-mesh mixed-traffic sweep across saturation — the
/// end-to-end scaling stressor for the simulation core. Not a paper figure;
/// it exists so `repro --jobs N stress8` makes the event-wheel core and the
/// parallel [`SweepRunner`] measurable on a workload 4× the prototype's
/// node count (the paper's own Table 2 models the chip as an 8×8 network).
#[must_use]
pub fn stress8_full(opts: RunOpts) -> (String, Vec<SweepRecord>) {
    let config = NocConfig::proposed_chip()
        .expect("valid preset")
        .with_side(8)
        .with_seed_mode(SeedMode::PerNode);
    let rates = opts
        .effort
        .thin(&[0.01, 0.04, 0.08, 0.12, 0.16, 0.20, 0.24, 0.28]);
    stress_mesh_full("stress8", "Stress 8x8", config, &rates, opts)
}

/// `stress16`: a 16×16-mesh mixed-traffic sweep — [`stress8_full`] at four
/// times the node count again. Not a paper figure; at 256 nodes the routers,
/// NICs and active-set masks span four 64-bit words and the step loop
/// dominates sweep wall-clock, so this is the end-to-end canary for the core
/// at the largest supported mesh.
#[must_use]
pub fn stress16_full(opts: RunOpts) -> (String, Vec<SweepRecord>) {
    let config = NocConfig::proposed_chip()
        .expect("valid preset")
        .with_side(16)
        .with_seed_mode(SeedMode::PerNode);
    let rates = opts.effort.thin(&[0.01, 0.03, 0.06, 0.10]);
    stress_mesh_full("stress16", "Stress 16x16", config, &rates, opts)
}

fn stress_mesh_full(
    experiment: &str,
    title: &str,
    config: NocConfig,
    rates: &[f64],
    opts: RunOpts,
) -> (String, Vec<SweepRecord>) {
    let runner = sweep_runner(opts);
    let outcome = runner
        .run(config, rates)
        .expect("built-in sweep configuration is valid");
    let record =
        SweepRecord::from_outcome(experiment, "proposed", config.k, runner.jobs(), &outcome);

    let mut out = format!("{title} - proposed network, mixed traffic, per-node seeds\n\n");
    let mut table = Table::new([
        "offered rate (flits/node/cyc)",
        "latency (cyc)",
        "p95 (cyc)",
        "thru (Gb/s)",
        "bypass fraction",
        "wall (ms)",
    ]);
    for p in &record.points {
        table.row([
            num(p.injection_rate, 3),
            num(p.latency_cycles, 1),
            num(p.p95_latency_cycles, 1),
            num(p.received_gbps, 1),
            num(p.bypass_fraction, 2),
            num(p.wall_ms, 1),
        ]);
    }
    out.push_str(&table.render());
    out.push('\n');
    out.push_str(&format!(
        "saturation throughput {:.0} Gb/s at rate {:.3}; zero-load latency {:.1} cycles\n",
        record.saturation_gbps, record.saturation_rate, record.zero_load_latency_cycles
    ));
    out.push_str(&format!(
        "total wall-clock {:.0} ms on {} sweep thread{} \
         (identical results for any thread count)\n",
        record.total_wall_ms,
        runner.jobs(),
        if runner.jobs() == 1 { "" } else { "s" }
    ));
    (out, vec![record])
}

// ------------------------------------------------------------------ hotspot16

/// The hotspot16 traffic scenario: a 16×16 proposed-chip mesh under unicast
/// traffic where 90% of packets target the far-corner node. XY routing
/// funnels that load into a congestion tree, so per-node activity is heavily
/// skewed.
fn hotspot16_scenario() -> Scenario {
    let hotspot = noc_types::DestinationSet::unicast(255);
    Scenario::builder()
        .mesh(16)
        .pattern(SpatialPattern::hotspot(hotspot, 0.9))
        .mix(TrafficMix::unicast_only())
        .seed_mode(SeedMode::PerNode)
        .build()
        .expect("the hotspot16 scenario is a valid preset")
}

/// `hotspot16`: a latency/throughput sweep of a 16×16 mesh under a
/// weighted hotspot (the `hotspot16/proposed/k16/*` baseline pins). Not a
/// paper figure: uniform traffic spreads load evenly, whereas this sweep
/// drives a deep congestion tree through the largest supported mesh.
#[must_use]
pub fn hotspot16_full(opts: RunOpts) -> (String, Vec<SweepRecord>) {
    let scenario = hotspot16_scenario();
    let runner = sweep_runner(opts);
    let rates = opts.effort.thin(&[0.01, 0.02, 0.04, 0.06]);
    let outcome = scenario
        .sweep(&runner, &rates)
        .expect("built-in sweep configuration is valid");
    let record = SweepRecord::from_outcome(
        "hotspot16",
        "proposed",
        scenario.config().k,
        runner.jobs(),
        &outcome,
    );

    let mut out =
        String::from("Hotspot 16x16 - 90% of unicast traffic targets the far-corner node\n\n");
    let mut table = Table::new([
        "offered rate (flits/node/cyc)",
        "latency (cyc)",
        "p95 (cyc)",
        "thru (Gb/s)",
        "wall (ms)",
    ]);
    for p in &record.points {
        table.row([
            num(p.injection_rate, 3),
            num(p.latency_cycles, 1),
            num(p.p95_latency_cycles, 1),
            num(p.received_gbps, 1),
            num(p.wall_ms, 1),
        ]);
    }
    out.push_str(&table.render());
    out.push('\n');
    out.push_str(&format!(
        "saturation throughput {:.0} Gb/s at rate {:.3}; zero-load latency {:.1} cycles\n",
        record.saturation_gbps, record.saturation_rate, record.zero_load_latency_cycles
    ));
    (out, vec![record])
}

// ------------------------------------------------------------------- patterns

/// `patterns`: a per-pattern saturation sweep of the proposed chip under
/// unicast traffic, one curve per [`SpatialPattern`] family — uniform-random
/// (unbiased resampling), transpose, bit-complement, bit-reverse, tornado,
/// nearest-neighbour, shuffle and a four-corner hotspot. Not a paper figure:
/// the chip's RTL only generates uniform traffic, but the pattern gallery is
/// the standard way to expose routing pathologies that uniform traffic
/// averages away. Quick effort sweeps the 4×4 chip; full effort adds the
/// 8×8 scaled mesh.
#[must_use]
pub fn patterns_report(opts: RunOpts) -> Report {
    let runner = sweep_runner(opts);
    let mut report = Report::new("patterns");
    let sides: &[u16] = match opts.effort {
        Effort::Quick => &[4],
        Effort::Full => &[4, 8],
    };
    let mut sweeps = Vec::new();
    for &k in sides {
        let rates = opts
            .effort
            .thin(&[0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]);
        let limits = MeshLimits::new(k);
        let unicast_limit_gbps = limits.throughput_limit_gbps(false, 64, 1.0);
        let mut table = Table::new([
            "pattern",
            "zero-load latency (cyc)",
            "saturation thru (Gb/s)",
            "saturation rate",
            "fraction of uni limit",
        ]);
        for pattern in SpatialPattern::gallery(k) {
            let scenario = Scenario::builder()
                .mesh(k)
                .pattern(pattern)
                .mix(TrafficMix::unicast_only())
                .seed_mode(SeedMode::PerNode)
                .build()
                .expect("the gallery validates on power-of-two meshes");
            let outcome = scenario
                .sweep(&runner, &rates)
                .expect("built-in sweep configuration is valid");
            let record =
                SweepRecord::from_outcome("patterns", pattern.name(), k, runner.jobs(), &outcome);
            table.row([
                pattern.name().to_owned(),
                num(record.zero_load_latency_cycles, 1),
                num(record.saturation_gbps, 1),
                num(record.saturation_rate, 3),
                pct(record.saturation_gbps / unicast_limit_gbps),
            ]);
            sweeps.push(record);
        }
        let mut body = table.render();
        body.push_str(&format!(
            "\ntheoretical unicast throughput limit: {unicast_limit_gbps:.0} Gb/s \
             (bisection-limited at {:.3} flits/node/cycle)\n",
            limits.unicast_saturation_rate()
        ));
        report.push_section(
            &format!("Pattern gallery - {k}x{k} proposed chip, unicast traffic, per-node seeds"),
            body,
        );
    }
    report.with_sweeps(sweeps)
}

// -------------------------------------------------------------------- serving

/// `serving`: closed-loop request/reply serving on the proposed chip — every
/// client keeps a bounded window of requests outstanding against uniformly
/// drawn home nodes, so the network's own latency throttles offered load (see
/// [`mesh_noc::serving`]). Not a paper figure: the chip's RTL is open-loop
/// only, but the closed-loop knee is how a NoC behaves under a real
/// request/reply workload. The sweep grows the client population to the
/// throughput knee and reports the round-trip latency distribution
/// (mean / p50 / p95 / p99) per population point; results are bit-identical
/// for any `jobs`.
#[must_use]
pub fn serving_report(opts: RunOpts) -> Report {
    let populations = opts.effort.thin(&[2, 4, 8, 16, 32, 64, 96, 128]);
    let config = NocConfig::proposed_chip().expect("valid preset");
    let runner = ServingRunner::new(opts.jobs)
        .with_windows(opts.effort.warmup(), opts.effort.measure())
        .expect("effort windows are non-zero");
    let outcome = runner
        .run(config, &populations)
        .expect("built-in serving configuration is valid");
    let record = serving_record(&config, &runner, &outcome);

    let mut out = String::from(
        "Serving - closed-loop request/reply on the proposed chip (1-flit requests,\n\
         5-flit replies, uniform home nodes)\n\n",
    );
    let mut table = Table::new([
        "clients",
        "rtt mean (cyc)",
        "rtt p50",
        "rtt p95",
        "rtt p99",
        "completed/cyc",
        "delivered (Gb/s)",
        "wall (ms)",
    ]);
    for p in &outcome.points {
        table.row([
            p.clients.to_string(),
            num(p.result.rtt_mean_cycles, 1),
            num(p.result.rtt_p50_cycles, 0),
            num(p.result.rtt_p95_cycles, 0),
            num(p.result.rtt_p99_cycles, 0),
            num(p.result.completed_per_cycle, 3),
            num(p.result.received_gbps, 1),
            num(p.wall_ms, 1),
        ]);
    }
    out.push_str(&table.render());
    out.push('\n');
    let first = &outcome.points[0].result;
    out.push_str(&format!(
        "window {} outstanding/client, service latency {} cycles\n",
        first.window, first.service_cycles
    ));
    out.push_str(&format!(
        "low-population RTT {:.1} cycles; knee at {:.0} clients delivering {:.0} Gb/s\n",
        record.zero_load_latency_cycles, record.saturation_rate, record.saturation_gbps
    ));
    out.push_str(&format!(
        "total wall-clock {:.0} ms on {} sweep thread{} \
         (identical results for any thread count)\n",
        record.total_wall_ms,
        runner.jobs(),
        if runner.jobs() == 1 { "" } else { "s" }
    ));
    Report::from_text("serving", out).with_sweeps(vec![record])
}

/// Shapes a [`ServingOutcome`] into the common [`SweepRecord`] so
/// `BENCH_*.json` consumers need no special casing: the "injection rate"
/// axis carries the client population, latencies carry the request→reply
/// round trip, and the zero-load latency and saturation knee come from
/// [`SweepCurve::from_points`], the open-loop sweeps' 3×-zero-load rule.
fn serving_record(
    config: &NocConfig,
    runner: &ServingRunner,
    outcome: &ServingOutcome,
) -> SweepRecord {
    let points: Vec<SweepPointRecord> = outcome
        .points
        .iter()
        .map(|p| SweepPointRecord {
            injection_rate: p.clients as f64,
            latency_cycles: p.result.rtt_mean_cycles,
            p50_latency_cycles: p.result.rtt_p50_cycles,
            p95_latency_cycles: p.result.rtt_p95_cycles,
            p99_latency_cycles: p.result.rtt_p99_cycles,
            received_gbps: p.result.received_gbps,
            received_flits_per_cycle: p.result.received_flits_per_cycle,
            bypass_fraction: p.result.bypass_fraction,
            measured_packets: p.result.measured_requests,
            wall_ms: p.wall_ms,
        })
        .collect();
    let curve = SweepCurve::from_points(
        points
            .iter()
            .map(|p| SweepPoint {
                injection_rate: p.injection_rate,
                latency_cycles: p.latency_cycles,
                received_gbps: p.received_gbps,
                received_flits_per_cycle: p.received_flits_per_cycle,
                bypass_fraction: p.bypass_fraction,
            })
            .collect(),
    );
    SweepRecord {
        experiment: "serving".to_owned(),
        network: "proposed".to_owned(),
        k: config.k,
        jobs: runner.jobs(),
        zero_load_latency_cycles: curve.zero_load_latency_cycles,
        saturation_gbps: curve.saturation_gbps,
        saturation_rate: curve.saturation_rate,
        total_wall_ms: outcome.total_wall_ms,
        partition_loads: Vec::new(),
        points,
    }
}

// ---------------------------------------------------------------------- Fig 6

/// The delivered-throughput operating point of Fig. 6 (653 Gb/s of broadcast
/// delivery at 1 GHz and 64-bit flits): each node injects one broadcast every
/// ~23 cycles, which the 16 ejection links turn into ~10.2 delivered
/// flits/cycle.
const FIG6_RATE: f64 = 0.0425;

fn fig6_power(variant: NetworkVariant, effort: Effort) -> (PowerBreakdown, SimulationResult) {
    let config = NocConfig::variant(variant)
        .expect("valid preset")
        .with_mix(TrafficMix::broadcast_only());
    let result = run_single(config, FIG6_RATE, effort);
    let power = result.power(&config.energy_params());
    (power, result)
}

/// Fig. 6: measured power reduction at 653 Gb/s broadcast delivery, across
/// the four design variants A (full-swing unicast), B (low-swing unicast),
/// C (+router-level broadcast support), D (+multicast buffer bypass).
#[must_use]
pub fn fig6_report(effort: Effort) -> String {
    let mut out =
        String::from("Figure 6 - Power at 653 Gb/s broadcast delivery across variants A-D\n\n");
    let mut table = Table::new([
        "variant",
        "delivered (Gb/s)",
        "clocking (mW)",
        "router logic+buffers (mW)",
        "datapath (mW)",
        "leakage (mW)",
        "total (mW)",
    ]);
    let mut results = Vec::new();
    for variant in NetworkVariant::FIG6 {
        let (power, result) = fig6_power(variant, effort);
        table.row([
            format!(
                "{} ({})",
                variant.fig6_label().unwrap_or('?'),
                variant_name(variant)
            ),
            num(result.received_gbps, 0),
            num(power.clocking_group_mw(), 1),
            num(power.router_logic_and_buffer_mw(), 1),
            num(power.datapath_group_mw(), 1),
            num(power.leakage_mw, 1),
            num(power.total_mw(), 1),
        ]);
        results.push(power);
    }
    out.push_str(&table.render());
    out.push('\n');
    let (a, b, c, d) = (&results[0], &results[1], &results[2], &results[3]);
    out.push_str(&format!(
        "A->B datapath power reduction: {} (paper: {})\n",
        pct(1.0 - b.datapath_group_mw() / a.datapath_group_mw()),
        pct(reference::DATAPATH_REDUCTION)
    ));
    out.push_str(&format!(
        "B->C router logic+buffer reduction: {} (paper: {} of router logic)\n",
        pct(1.0 - c.router_logic_and_buffer_mw() / b.router_logic_and_buffer_mw()),
        pct(reference::ROUTER_LOGIC_REDUCTION)
    ));
    out.push_str(&format!(
        "C->D buffer power reduction: {} (paper: {} of buffers)\n",
        pct(1.0 - d.buffers_mw / c.buffers_mw),
        pct(reference::BUFFER_REDUCTION)
    ));
    out.push_str(&format!(
        "A->D total power reduction: {} (paper: {})\n",
        pct(1.0 - d.total_mw() / a.total_mw()),
        pct(reference::TOTAL_REDUCTION)
    ));
    out.push_str(&format!(
        "measured chip reference at this operating point: {:.1} mW\n",
        reference::CHIP_POWER_AT_653_GBPS_MW
    ));
    out
}

fn variant_name(variant: NetworkVariant) -> &'static str {
    match variant {
        NetworkVariant::TextbookBaseline => "textbook baseline",
        NetworkVariant::FullSwingUnicast => "full-swing unicast",
        NetworkVariant::LowSwingUnicast => "low-swing unicast",
        NetworkVariant::LowSwingBroadcastNoBypass => "low-swing broadcast, no bypass",
        NetworkVariant::LowSwingBroadcastBypass | NetworkVariant::ProposedChip => {
            "low-swing broadcast + bypass"
        }
    }
}

// ---------------------------------------------------------------------- Fig 8

/// Fig. 8: the same two networks priced by ORION-style, post-layout-style and
/// measured-calibration power models.
#[must_use]
pub fn fig8_report(effort: Effort) -> String {
    let mut out = String::from(
        "Figure 8 - Power estimates (ORION-style / post-layout-style / measured calibration)\n\n",
    );
    let baseline_cfg = NocConfig::variant(NetworkVariant::FullSwingUnicast)
        .expect("valid preset")
        .with_mix(TrafficMix::broadcast_only());
    let proposed_cfg = NocConfig::variant(NetworkVariant::LowSwingBroadcastBypass)
        .expect("valid preset")
        .with_mix(TrafficMix::broadcast_only());
    let baseline = run_single(baseline_cfg, FIG6_RATE, effort);
    let proposed = run_single(proposed_cfg, FIG6_RATE, effort);

    let mut table = Table::new([
        "model",
        "baseline total (mW)",
        "proposed total (mW)",
        "relative reduction",
        "ratio to measured (proposed)",
    ]);
    let price =
        |estimator: &dyn PowerEstimator, result: &SimulationResult, energy_cfg: &NocConfig| {
            let _ = energy_cfg;
            estimator
                .estimate(&result.counters, result.total_cycles, result.frequency_ghz)
                .total_mw()
        };

    let measured_baseline = MeasuredPowerModel::new(baseline_cfg.energy_params());
    let measured_proposed = MeasuredPowerModel::new(proposed_cfg.energy_params());
    let orion_baseline = OrionPowerModel::new(baseline_cfg.energy_params());
    let orion_proposed = OrionPowerModel::new(proposed_cfg.energy_params());
    let post_baseline = PostLayoutPowerModel::new(baseline_cfg.energy_params());
    let post_proposed = PostLayoutPowerModel::new(proposed_cfg.energy_params());

    let m_b = price(&measured_baseline, &baseline, &baseline_cfg);
    let m_p = price(&measured_proposed, &proposed, &proposed_cfg);
    let rows: [(&str, f64, f64); 3] = [
        (
            "ORION-style",
            price(&orion_baseline, &baseline, &baseline_cfg),
            price(&orion_proposed, &proposed, &proposed_cfg),
        ),
        (
            "post-layout-style",
            price(&post_baseline, &baseline, &baseline_cfg),
            price(&post_proposed, &proposed, &proposed_cfg),
        ),
        ("measured calibration", m_b, m_p),
    ];
    for (name, b, p) in rows {
        table.row([
            name.to_owned(),
            num(b, 1),
            num(p, 1),
            pct(1.0 - p / b),
            format!("{:.2}x", p / m_p),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\npaper: ORION over-estimates by {:.1}-{:.1}x but sees a 32% reduction; post-layout is\n\
         within 6-13% and sees 34%; the measured reduction is 38%.\n",
        reference::ORION_OVERESTIMATE.0,
        reference::ORION_OVERESTIMATE.1
    ));
    out
}

// -------------------------------------------------------------------- Table 3

/// Table 3: critical-path analysis of the baseline and virtual-bypassed
/// routers.
#[must_use]
pub fn table3_report() -> String {
    let model = CriticalPathModel::chip_45nm();
    let report = model.table3();
    let mut out = String::from("Table 3 - Critical path analysis\n\n");
    let mut table = Table::new(["quantity", "reproduced", "paper"]);
    table.row([
        "baseline pre-layout (ps)".to_owned(),
        num(report.baseline_pre_layout_ps, 0),
        "549".to_owned(),
    ]);
    table.row([
        "proposed pre-layout (ps)".to_owned(),
        num(report.proposed_pre_layout_ps, 0),
        "593 (1.08x)".to_owned(),
    ]);
    table.row([
        "baseline post-layout (ps)".to_owned(),
        num(report.baseline_post_layout_ps, 0),
        "658".to_owned(),
    ]);
    table.row([
        "proposed post-layout (ps)".to_owned(),
        num(report.proposed_post_layout_ps, 0),
        "793 (1.21x)".to_owned(),
    ]);
    table.row([
        "measured critical path (ps)".to_owned(),
        num(report.measured_ps, 0),
        "961 (1/1.04 GHz)".to_owned(),
    ]);
    table.row([
        "pre-layout overhead".to_owned(),
        format!("{:.2}x", report.pre_layout_overhead),
        "1.08x".to_owned(),
    ]);
    table.row([
        "post-layout overhead".to_owned(),
        format!("{:.2}x", report.post_layout_overhead),
        "1.21x".to_owned(),
    ]);
    table.row([
        "max measured frequency (GHz)".to_owned(),
        num(report.measured_frequency_ghz, 2),
        "1.04".to_owned(),
    ]);
    out.push_str(&table.render());
    out
}

// -------------------------------------------------------------------- Table 4

/// Table 4: area comparison of the low-swing and full-swing crossbars and
/// routers.
#[must_use]
pub fn table4_report() -> String {
    let report = AreaModel::chip_45nm().table4();
    let mut out = String::from("Table 4 - Area comparison with full-swing signaling\n\n");
    let mut table = Table::new(["quantity", "reproduced (um^2)", "paper (um^2)"]);
    table.row([
        "synthesized full-swing crossbar".to_owned(),
        num(report.full_swing_crossbar_um2, 0),
        "26,840".to_owned(),
    ]);
    table.row([
        "proposed low-swing crossbar".to_owned(),
        num(report.low_swing_crossbar_um2, 0),
        "83,200 (3.1x)".to_owned(),
    ]);
    table.row([
        "router with full-swing crossbar".to_owned(),
        num(report.full_swing_router_um2, 0),
        "227,230".to_owned(),
    ]);
    table.row([
        "router with low-swing crossbar".to_owned(),
        num(report.low_swing_router_um2, 0),
        "318,600 (1.4x)".to_owned(),
    ]);
    out.push_str(&table.render());
    out.push_str(&format!(
        "\ncrossbar overhead {:.2}x (paper 3.1x), router overhead {:.2}x (paper 1.4x)\n",
        report.crossbar_overhead, report.router_overhead
    ));
    out
}

// ---------------------------------------------------------------------- Fig 7

/// Fig. 7: energy efficiency of the tri-state RSD versus an equivalent
/// full-swing repeater, and the maximum single-cycle ST+LT data rates.
#[must_use]
pub fn fig7_report() -> String {
    let mut out = String::from("Figure 7 - Low-swing link energy efficiency (PRBS data)\n\n");
    let mut table = Table::new([
        "link length (mm)",
        "low-swing energy (fJ/bit)",
        "full-swing energy (fJ/bit)",
        "energy gain",
        "max ST+LT frequency (GHz)",
    ]);
    for length in [0.5, 1.0, 1.5, 2.0] {
        let wire = Wire::link_45nm(length);
        let low = LowSwingLink::new(wire, 0.3);
        let full = LowSwingLink::full_swing_equivalent(wire);
        table.row([
            num(length, 1),
            num(low.energy_per_bit_fj(), 1),
            num(full.energy_per_bit_fj(), 1),
            format!("{:.2}x", full.energy_per_bit_fj() / low.energy_per_bit_fj()),
            num(low.max_frequency_ghz(), 2),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\npaper: up to 3.2x lower energy at 300 mV swing; single-cycle ST+LT up to 5.4 GHz\n\
         over 1 mm links and 2.6 GHz over 2 mm links.\n",
    );
    out
}

// --------------------------------------------------------------------- Fig 10

/// Fig. 10: link failure probability and energy versus voltage swing
/// (Monte-Carlo over sense-amplifier offsets).
#[must_use]
pub fn fig10_report() -> String {
    let model = SenseAmpVariation::chip_45nm();
    let mut out =
        String::from("Figure 10 - Low-swing reliability vs energy trade-off (1000 MC runs)\n\n");
    let mut table = Table::new([
        "swing (mV)",
        "analytic failure prob",
        "MC failure rate (1000 runs)",
        "energy (norm. to 300 mV)",
        "sigma margin",
    ]);
    for (swing, failure, energy) in model.fig10_sweep(&[0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50]) {
        let mc = model.monte_carlo(swing, 1000, 0xD0C5_EED5);
        table.row([
            num(swing * 1000.0, 0),
            format!("{failure:.2e}"),
            num(mc.failure_rate(), 3),
            num(energy, 2),
            num(model.sigma_margin(swing), 1),
        ]);
    }
    out.push_str(&table.render());
    out.push_str("\npaper: 300 mV swing chosen for better-than-3-sigma reliability.\n");
    out
}

// --------------------------------------------------------------------- Fig 11

/// Fig. 11: dynamic power of the 1-bit tri-state RSD crossbar versus
/// multicast count.
#[must_use]
pub fn fig11_report() -> String {
    let mut out = String::from(
        "Figure 11 - Dynamic power of the tri-state RSD crossbar vs multicast count (1 mm, 5 Gb/s)\n\n",
    );
    let mut table = Table::new([
        "multicast count",
        "dynamic power (mW)",
        "relative to unicast",
    ]);
    let points = MulticastPowerPoint::sweep(1.0, 0.3, 5.0);
    let unicast = points[0].power_mw;
    for p in &points {
        table.row([
            p.fanout.to_string(),
            num(p.power_mw, 3),
            format!("{:.2}x", p.power_mw / unicast),
        ]);
    }
    out.push_str(&table.render());
    out.push_str("\npaper: power grows linearly with the multicast count because only the\nselected vertical wires and links are driven.\n");
    out
}

// --------------------------------------------------------------------- Fig 12

/// Fig. 12: repeated versus repeaterless low-swing signaling over a 2 mm span.
#[must_use]
pub fn fig12_report() -> String {
    let repeated = EyeAnalysis::repeated_2mm();
    let direct = EyeAnalysis::repeaterless_2mm();
    let mut out = String::from(
        "Figure 12 - Repeated (1 mm + 1 mm) vs repeaterless (2 mm) low-swing links at 2.5 Gb/s\n\n",
    );
    let mut table = Table::new([
        "configuration",
        "latency (cycles)",
        "energy (fJ/bit)",
        "eye @ nominal R (V)",
        "eye @ +30% R (V)",
        "eye @ +50% R (V)",
    ]);
    for (name, analysis) in [("1mm repeated", &repeated), ("2mm repeaterless", &direct)] {
        table.row([
            name.to_owned(),
            analysis.latency_cycles().to_string(),
            num(analysis.energy_per_bit_fj(), 1),
            num(analysis.eye_height_v(2.5, 1.0), 3),
            num(analysis.eye_height_v(2.5, 1.3), 3),
            num(analysis.eye_height_v(2.5, 1.5), 3),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nrepeated option: +1 cycle and {} more energy for a larger noise margin (paper: +1 cycle, +28% energy)\n",
        pct(repeated.energy_per_bit_fj() / direct.energy_per_bit_fj() - 1.0)
    ));
    out
}

// ------------------------------------------------------------------ zero load

/// §4.1 zero-load router power: the breakdown of per-router power at an
/// injection rate of 3/255 flits/node/cycle.
#[must_use]
pub fn zero_load_report(effort: Effort) -> String {
    let config = NocConfig::proposed_chip().expect("valid preset");
    let rate = 3.0 / 255.0;
    let result = run_single(config, rate, effort);
    let power = result.power(&config.energy_params());
    let routers = 16.0;
    let mut out = String::from("Zero-load router power breakdown (injection rate 3/255)\n\n");
    let mut table = Table::new(["component", "reproduced (mW/router)", "paper (mW/router)"]);
    table.row([
        "clocking".to_owned(),
        num(power.clocking_mw / routers, 2),
        "(part of 5.6 limit)".to_owned(),
    ]);
    table.row([
        "VC bookkeeping state".to_owned(),
        num(power.vc_state_mw / routers, 2),
        num(reference::ZERO_LOAD_VC_STATE_MW, 1),
    ]);
    table.row([
        "buffers".to_owned(),
        num(power.buffers_mw / routers, 2),
        num(reference::ZERO_LOAD_BUFFERS_MW, 1),
    ]);
    table.row([
        "allocators".to_owned(),
        num(power.allocators_mw / routers, 2),
        num(reference::ZERO_LOAD_ALLOCATORS_MW, 1),
    ]);
    table.row([
        "lookaheads".to_owned(),
        num(power.lookahead_mw / routers, 2),
        num(reference::ZERO_LOAD_LOOKAHEAD_MW, 1),
    ]);
    table.row([
        "datapath".to_owned(),
        num(power.datapath_group_mw() / routers, 2),
        "(part of 5.6 limit)".to_owned(),
    ]);
    table.row([
        "leakage".to_owned(),
        num(power.leakage_mw / routers, 2),
        num(reference::CHIP_LEAKAGE_MW / 16.0, 1),
    ]);
    table.row([
        "total per router".to_owned(),
        num(power.total_mw() / routers, 2),
        num(reference::ZERO_LOAD_ROUTER_MEASURED_MW, 1),
    ]);
    out.push_str(&table.render());
    out.push_str(&format!(
        "\ntheoretical per-router limit (clocking + datapath only): paper {:.1} mW\n",
        reference::ZERO_LOAD_ROUTER_LIMIT_MW
    ));
    out.push_str(&format!(
        "bypass fraction at this load: {:.2}\n",
        result.bypass_fraction
    ));
    out
}

// ------------------------------------------------------------------- headline

/// The §4.1 headline numbers: latency reduction, throughput improvement,
/// fraction of the theoretical limit, and the contention-per-hop effect of
/// the identical-seed PRBS artifact.
#[must_use]
pub fn headline_report(effort: Effort) -> String {
    let mut out = String::from("Headline summary (Section 4.1)\n\n");

    // Contention per hop at low load: identical vs per-node PRBS seeds.
    let limits = MeshLimits::new(4);
    let low_rate = 0.02;
    for (label, seed_mode, paper) in [
        (
            "identical PRBS seeds (chip artifact)",
            SeedMode::Identical,
            "1.03 cycles/hop (mixed)",
        ),
        (
            "per-node PRBS seeds (fixed RTL)",
            SeedMode::PerNode,
            "0.04 cycles/hop (mixed)",
        ),
    ] {
        let config = NocConfig::proposed_chip()
            .expect("valid preset")
            .with_seed_mode(seed_mode);
        let result = run_single(config, low_rate, effort);
        let ideal = limits.packet_latency_limit(true, 2);
        let contention_per_hop =
            (result.average_latency_cycles - ideal).max(0.0) / limits.broadcast_average_hops();
        out.push_str(&format!(
            "{label}: low-load latency {:.1} cycles, contention {:.2} cycles/hop (paper: {paper})\n",
            result.average_latency_cycles, contention_per_hop
        ));
    }
    out.push('\n');
    out.push_str(
        "latency / throughput / fraction-of-limit summaries are printed by `repro fig5` and\n`repro fig13`; power waterfalls by `repro fig6` and `repro fig8`.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_reports_contain_paper_anchors() {
        assert!(table1_report().contains("1024"));
        assert!(table2_report().contains("Intel Teraflops"));
        assert!(table3_report().contains("961"));
        assert!(table4_report().contains("3.1x"));
        assert!(fig7_report().contains("GHz"));
        assert!(fig10_report().contains("sigma"));
        assert!(fig11_report().contains("4"));
        assert!(fig12_report().contains("repeaterless"));
    }

    #[test]
    fn fig6_waterfall_shows_total_reduction() {
        let report = fig6_report(Effort::Quick);
        assert!(report.contains("A->D total power reduction"));
        assert!(report.contains("A (full-swing unicast)"));
    }

    #[test]
    fn fig5_quick_report_has_summary_lines() {
        let report = fig5_report(Effort::Quick);
        assert!(report.contains("low-load latency"));
        assert!(report.contains("saturation throughput"));
        assert!(report.contains("theoretical"));
    }
}
