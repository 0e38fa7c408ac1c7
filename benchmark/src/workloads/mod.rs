//! The five workloads.
//!
//! A rep is a fixed, deterministic amount of simulated work: same seed, same
//! simulated statistics, so two reps with one seed must produce one digest.
//! Every input but the seed (rates, windows, populations, experiment ids) is
//! hard-coded here, so a later change to an experiment's grid or to the
//! registry does not silently change a workload.

pub mod repro;
pub mod serving;
pub mod step;
pub mod sweep;

use crate::spans::Tracer;

/// Workload names with the one-line reason each exists (the same text goes
/// into `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "fig5_sweep",
        "the paper's headline experiment: the whole sweep-point lifecycle (reset, warmup, measure, drain with scoreboard polling, stitch) on both router generations",
    ),
    (
        "sat_step_8x8",
        "steady-state stepping just past the knee, where router allocation/traversal and the event wheel/slab do the work; no sweep machinery, drain or polling in the timed region",
    ),
    (
        "lowload_step_16x16",
        "the regime most sweep points live in: routers asleep >90% of router-cycles, so the active-set walk, PRBS scout/nap and traffic sources dominate; a router-only speedup should not move it",
    ),
    (
        "serving_8x8",
        "closed loop on the same Network::step: Bernoulli injection silenced, inject_packet, delivery log, BTreeMap service/in-flight queues; before and after the knee (64 and 256 clients)",
    ),
    (
        "repro_quick_all",
        "what CI and a first-time user run: the registered experiments at quick effort (bar the multi-threaded hotspot16), rendered as text and JSON; only here do noc-power, noc-circuit and noc-bench show",
    ),
];

/// What one rep produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Host seconds of the rep's timed region.
    pub timed_s: f64,
    /// Router-cycles (k² × cycles stepped) simulated in the timed region.
    pub router_cycles: u64,
    /// Digest of the rep's simulated statistics (see [`crate::digest`]);
    /// `None` when the rep produced none to compare (an error, or the
    /// `fig5_sweep` replica, which is checked field by field instead).
    pub digest: Option<u64>,
    /// Ops attempted: sweep points, step reps, serving points or experiment
    /// runs.
    pub ops: u64,
    /// One line per failed op.
    pub failures: Vec<String>,
    /// `model.*` statistics of this rep: simulated, exact-repeat.
    pub model: Vec<(String, f64)>,
}

impl Rep {
    /// A rep that could not run: nothing timed, nothing to compare.
    pub fn failed(ops: u64, failure: String) -> Self {
        Self {
            timed_s: 0.0,
            router_cycles: 0,
            digest: None,
            ops,
            failures: vec![failure],
            model: Vec::new(),
        }
    }
}

pub trait Workload {
    /// Runs one rep with `seed` as the PRBS base seed. With a tracer the rep
    /// records spans and per-layer samples around its calls into the layers;
    /// without one it makes no clock reads beyond the two that bound the
    /// timed region.
    fn rep(&mut self, seed: u16, tracer: Option<&mut Tracer>) -> Rep;
}

/// How much simulated work a rep holds: `Full` is the benchmark, `Smoke` is
/// a plumbing check (1/20 of the windows and steps) whose numbers mean
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn scale(self, full: u64) -> u64 {
        match self {
            Size::Full => full,
            Size::Smoke => (full / 20).max(1),
        }
    }
}

/// Cold construction of workload `name`. Seeds arrive with each rep.
pub fn build(name: &str, size: Size) -> Result<Box<dyn Workload>, String> {
    let built: Box<dyn Workload> = match name {
        "fig5_sweep" => Box::new(sweep::Fig5Sweep::new(size)),
        "sat_step_8x8" => Box::new(step::StepWorkload::saturated_8x8(size)?),
        "lowload_step_16x16" => Box::new(step::StepWorkload::lowload_16x16(size)?),
        "serving_8x8" => Box::new(serving::Serving::new(size)?),
        "repro_quick_all" => Box::new(repro::ReproQuickAll::new(size)),
        other => return Err(format!("unknown workload '{other}'")),
    };
    Ok(built)
}

/// Shared op checks on one open-loop statistic set: every value finite and
/// no more flits received per cycle than the mesh has ejection links.
pub fn check_open_loop(
    what: &str,
    k: u16,
    mean_latency: f64,
    received_flits_per_cycle: f64,
    failures: &mut Vec<String>,
) {
    if !mean_latency.is_finite() || !received_flits_per_cycle.is_finite() {
        failures.push(format!("{what}: non-finite statistic"));
    }
    let ejection_links = f64::from(k) * f64::from(k);
    if received_flits_per_cycle > ejection_links {
        failures.push(format!(
            "{what}: received {received_flits_per_cycle} flits/cycle on {ejection_links} ejection links"
        ));
    }
}
