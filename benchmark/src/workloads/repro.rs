//! `repro_quick_all`: the registered experiments at quick effort, rendered
//! as text and JSON — what `repro --quick all` does for CI and a first-time
//! user.
//!
//! The ids are those registered when the benchmark was defined, looked up by
//! name: a new registry entry does not join the workload, and a removed one
//! is a failed op. The experiments take no seed, so `--seed` does not change
//! this workload's inputs.
//!
//! `hotspot16` is registered but left out. Its balance runs step four mesh
//! partitions on the worker pool whatever `RunOpts` says — four busy threads
//! on the two-vCPU reference host — so its host time is scheduler noise
//! (1.74 s to 2.74 s over five repeats in one process, against ±1 % for
//! everything else) and ROADMAP forbids parallel claims from that host.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use noc_bench::{find_experiment, Effort, Report, RunOpts};

use super::{Rep, Size, Workload};
use crate::digest::Digest;
use crate::spans::{spanned, Tracer};

pub const EXPERIMENT_IDS: [&str; 18] = [
    "table1", "table2", "fig5", "fig6", "table3", "fig7", "table4", "fig8", "fig10", "fig11",
    "fig12", "fig13", "zeroload", "headline", "stress8", "stress16", "patterns", "serving",
];

/// Quick effort cannot be scaled down, so the smoke profile runs one
/// analytic, one circuit-model and one sweep-backed experiment instead.
const SMOKE_IDS: [&str; 3] = ["table1", "fig7", "fig5"];

/// Router-cycles credited per swept point on this workload. The experiments
/// expose no cycle count (their reports carry `k` and the points, not the
/// windows or the drain length), so `router_cycles_per_s` here is a nominal
/// floor: `k² × points × 1 200`, the 200 + 1 000 cycle windows quick effort
/// used when the benchmark was defined. It still tells "did less work" from
/// "did the work faster" when a sweep gains or loses points.
const NOMINAL_CYCLES_PER_POINT: u64 = 1_200;

pub struct ReproQuickAll {
    ids: &'static [&'static str],
}

impl ReproQuickAll {
    pub fn new(size: Size) -> Self {
        Self {
            ids: match size {
                Size::Full => &EXPERIMENT_IDS,
                Size::Smoke => &SMOKE_IDS,
            },
        }
    }
}

impl Workload for ReproQuickAll {
    fn rep(&mut self, _seed: u16, mut tracer: Option<&mut Tracer>) -> Rep {
        let mut digest = Digest::new();
        let mut failures = Vec::new();
        let mut router_cycles = 0;
        let (mut text_s, mut json_s, mut json_bytes) = (0.0, 0.0, 0usize);
        let start = Instant::now();
        for &id in self.ids {
            let span = tracer
                .as_mut()
                .map(|t| t.open(&format!("experiment.{id}"), "bench"));
            // A panicking experiment is one failed op, not the end of the run.
            let (ran, run_s) = spanned(&mut tracer, "run", "noc-bench", || {
                catch_unwind(AssertUnwindSafe(|| {
                    find_experiment(id).map(|e| e.run(RunOpts::new(Effort::Quick)))
                }))
            });
            match ran {
                Err(_) => failures.push(format!("{id}: panicked")),
                Ok(None) => failures.push(format!("{id}: not in the registry")),
                Ok(Some(report)) => {
                    let (text, seconds) = spanned(&mut tracer, "render_text", "noc-bench", || {
                        report.render_text()
                    });
                    text_s += seconds;
                    let (json, seconds) = spanned(&mut tracer, "render_json", "noc-bench", || {
                        report.render_json()
                    });
                    json_s += seconds;
                    json_bytes += json.len();
                    if text.trim().is_empty() || json.trim().is_empty() {
                        failures.push(format!("{id}: empty report"));
                    }
                    router_cycles += fold_report(id, &report, &text, &mut digest, &mut failures);
                }
            }
            if let (Some(tracer), Some(span)) = (tracer.as_mut(), span) {
                tracer.close(span);
                tracer.sample(&format!("noc-bench.exp.{id}_s"), run_s);
            }
        }
        let timed_s = start.elapsed().as_secs_f64();
        if let Some(tracer) = tracer {
            tracer.sample("noc-bench.render_text_s", text_s);
            tracer.sample("noc-bench.render_json_s", json_s);
            tracer.sample("noc-bench.json_bytes", json_bytes as f64);
        }
        Rep {
            timed_s,
            router_cycles,
            digest: Some(digest.finish()),
            ops: self.ids.len() as u64,
            failures,
            model: Vec::new(),
        }
    }
}

/// Folds one report's simulated content into `digest`, checks it, and
/// returns the nominal router-cycles of its sweeps.
///
/// Sweep-backed reports print wall-clock columns in their text, so only
/// their records' simulated fields are folded; the text of the others holds
/// no host time and is folded whole.
fn fold_report(
    id: &str,
    report: &Report,
    text: &str,
    digest: &mut Digest,
    failures: &mut Vec<String>,
) -> u64 {
    digest.str(id);
    if report.sweeps.is_empty() {
        digest.str(text);
        return 0;
    }
    let mut router_cycles = 0;
    for sweep in &report.sweeps {
        digest.str(&sweep.network);
        digest.u64(u64::from(sweep.k));
        let mut statistics = vec![
            sweep.zero_load_latency_cycles,
            sweep.saturation_gbps,
            sweep.saturation_rate,
        ];
        for point in &sweep.points {
            statistics.extend([
                point.injection_rate,
                point.latency_cycles,
                point.p50_latency_cycles,
                point.p95_latency_cycles,
                point.p99_latency_cycles,
                point.received_gbps,
                point.received_flits_per_cycle,
                point.bypass_fraction,
            ]);
            digest.u64(point.measured_packets);
        }
        for &load in &sweep.partition_loads {
            digest.u64(load);
        }
        if statistics.iter().any(|v| !v.is_finite()) {
            failures.push(format!("{id}/{}: non-finite statistic", sweep.network));
        }
        for v in statistics {
            digest.f64(v);
        }
        router_cycles += u64::from(sweep.k)
            * u64::from(sweep.k)
            * sweep.points.len() as u64
            * NOMINAL_CYCLES_PER_POINT;
    }
    router_cycles
}
