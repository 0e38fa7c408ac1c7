//! The metric catalogue: every metric's name, unit, direction and — for
//! end-to-end metrics — bound; for per-layer metrics, the end-to-end metric
//! and workload it is expected to move. `BENCHMARK.json` is generated from
//! this table (`run.sh manifest`) and a test keeps the two identical.

use crate::json::Value;
use crate::workloads::repro::EXPERIMENT_IDS;
use crate::workloads::WORKLOADS;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`, and the
/// default `--seconds`).
pub const RUN_SECONDS: u64 = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the simulator sees. All are host-side except
/// `paper_gap_pct`, which is simulated and repeats exactly.
///
/// The bounds come from the spread measured over runs with different seeds
/// (README, "Reference numbers"): each is at least three times the widest
/// spread seen, except `peak_rss_mb`, whose 25 % is the most the contract
/// allows (`fig5_sweep`'s peak is a maximum over the run's seeds of a backlog
/// that grows without bound at the saturated baseline points; it spread up
/// to 14 %). `paper_gap_pct` repeats exactly, so its bound — about 0.13
/// points — is a ratchet on the model, not a noise allowance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        what: "host seconds per rep (timed region), median over the timed reps",
    },
    EndToEnd {
        name: "router_cycles_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        what: "k² × cycles stepped ÷ host seconds, median over the timed reps",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM of the child at exit",
    },
    EndToEnd {
        name: "paper_gap_pct",
        unit: "%",
        better: Better::Lower,
        bound: 0.005,
        what: "mean absolute relative gap to the paper's three Fig. 5 numbers (simulated)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "cold construction plus the cold reference rep, median of the set-ups in a run",
    },
];

/// A metric of one layer, named `<crate>.<metric>`. No bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const SAT: &str = "router_cycles_per_s on sat_step_8x8";
const SAT_NOT_LOW: &str =
    "router_cycles_per_s on sat_step_8x8 (fig5_sweep less); no change predicted on lowload_step_16x16";
const LOW: &str = "router_cycles_per_s on lowload_step_16x16; no change predicted on sat_step_8x8";
const SWEEP: &str = "wall_s on fig5_sweep and repro_quick_all; absent from the step workloads";
const STEP: &str = "router_cycles_per_s on the two step workloads";
const SETUP: &str = "setup_s on every workload";
const SERVING: &str = "wall_s on serving_8x8";
const REPRO: &str = "wall_s on repro_quick_all";
const MODEL: &str = "explains paper_gap_pct; simulated, repeats exactly";
const ESTIMATE: &str = "estimate: unit cost × exact count ÷ timed region, step workloads only";

fn group(all: &mut Vec<Layer>, moves: &'static str, metrics: &[(&str, &'static str, Better)]) {
    for &(name, unit, better) in metrics {
        all.push(Layer {
            name: name.to_owned(),
            unit,
            better,
            moves,
        });
    }
}

/// Every per-layer metric the traced pass reports.
pub fn per_layer() -> Vec<Layer> {
    use Better::{Higher, Lower};
    let mut all = Vec::new();
    group(
        &mut all,
        SAT,
        &[
            ("noc-types.flit_bytes", "bytes", Lower),
            ("noc-types.destset_bytes", "bytes", Lower),
            ("noc-types.packet_to_flits_ns", "ns", Lower),
            ("noc-types.fifo_push_pop_ns", "ns", Lower),
            ("noc-topology.requested_ports_ns", "ns", Lower),
            ("noc-topology.multicast_branches_ns", "ns", Lower),
            ("noc-sim.wheel_event_ns", "ns", Lower),
            ("noc-sim.slab_insert_take_ns", "ns", Lower),
            ("noc-sim.slab_replica_ns", "ns", Lower),
            ("noc-sim.latency_record_ns", "ns", Lower),
            ("noc-sim.latency_percentile_ns", "ns", Lower),
            ("noc-sim.wheel_events", "count", Lower),
        ],
    );
    group(
        &mut all,
        LOW,
        &[
            ("noc-sim.prbs_coin_ns", "ns", Lower),
            ("noc-sim.prbs_scout_skip_ns", "ns", Lower),
            ("noc-router.idle_step_ns", "ns", Lower),
            ("noc-traffic.generate_ns", "ns", Lower),
            ("noc-traffic.pattern_draw_ns", "ns", Lower),
            ("noc-traffic.packets_generated", "count", Higher),
        ],
    );
    group(
        &mut all,
        SAT_NOT_LOW,
        &[
            ("noc-router.bypass_hop_ns", "ns", Lower),
            ("noc-router.buffered_hop_ns", "ns", Lower),
            ("noc-router.fork_hop_ns", "ns", Lower),
            ("noc-router.msa1_arbitrate_ns", "ns", Lower),
            ("noc-router.msa2_arbitrate_ns", "ns", Lower),
            ("noc-router.buffer_writes", "count", Lower),
            ("noc-router.bypasses", "count", Higher),
            ("noc-router.crossbar_traversals", "count", Lower),
            ("noc-router.sa_local_arbitrations", "count", Lower),
            ("noc-router.sa_global_arbitrations", "count", Lower),
            ("noc-router.multicast_forks", "count", Lower),
        ],
    );
    group(
        &mut all,
        SWEEP,
        &[
            ("mesh-noc.reset_s", "s", Lower),
            ("mesh-noc.warmup_s", "s", Lower),
            ("mesh-noc.measure_s", "s", Lower),
            ("mesh-noc.drain_s", "s", Lower),
            ("mesh-noc.drain_poll_s", "s", Lower),
            ("mesh-noc.result_s", "s", Lower),
            ("mesh-noc.stitch_s", "s", Lower),
            ("mesh-noc.replica_mismatch_points", "count", Lower),
            ("model.cycles_stepped", "cycles", Lower),
            ("model.drain_cycles", "cycles", Lower),
            ("model.drain_truncated_points", "count", Lower),
            ("model.unmeasured_packets", "count", Lower),
        ],
    );
    group(
        &mut all,
        STEP,
        &[
            ("mesh-noc.inject_ns_per_router_cycle", "ns", Lower),
            ("mesh-noc.drain_ns_per_router_cycle", "ns", Lower),
            ("mesh-noc.step_block_p50_us", "us", Lower),
            ("mesh-noc.step_block_p95_us", "us", Lower),
            ("mesh-noc.peak_in_flight_flits", "count", Lower),
            ("mesh-noc.peak_outstanding_packets", "count", Lower),
        ],
    );
    group(
        &mut all,
        SETUP,
        &[
            ("mesh-noc.network_new_us.k4", "us", Lower),
            ("mesh-noc.network_new_us.k8", "us", Lower),
            ("mesh-noc.network_new_us.k16", "us", Lower),
            ("mesh-noc.network_reset_us.k4", "us", Lower),
            ("mesh-noc.network_reset_us.k8", "us", Lower),
            ("mesh-noc.network_reset_us.k16", "us", Lower),
        ],
    );
    group(
        &mut all,
        SERVING,
        &[
            ("mesh-noc.serving_new_s", "s", Lower),
            ("mesh-noc.serving_run_s", "s", Lower),
            ("mesh-noc.serving_drain_s", "s", Lower),
            ("mesh-noc.serving_ns_per_router_cycle", "ns", Lower),
        ],
    );
    for id in EXPERIMENT_IDS {
        group(
            &mut all,
            REPRO,
            &[(&format!("noc-bench.exp.{id}_s"), "s", Lower)],
        );
    }
    group(
        &mut all,
        REPRO,
        &[
            ("noc-bench.render_text_s", "s", Lower),
            ("noc-bench.render_json_s", "s", Lower),
            ("noc-bench.json_bytes", "bytes", Lower),
        ],
    );
    group(
        &mut all,
        MODEL,
        &[
            ("model.lowload_latency_cycles.proposed", "cycles", Lower),
            ("model.lowload_latency_cycles.baseline", "cycles", Lower),
            ("model.saturation_gbps.proposed", "Gb/s", Higher),
            ("model.saturation_gbps.baseline", "Gb/s", Higher),
            ("model.latency_reduction_pct", "%", Higher),
            ("model.throughput_improvement_x", "x", Higher),
            ("model.fraction_of_limit_pct", "%", Higher),
            ("model.mean_latency_cycles", "cycles", Lower),
            ("model.p99_latency_cycles", "cycles", Lower),
            ("model.received_flits_per_cycle", "flits/cycle", Higher),
            ("model.bypass_fraction", "share", Higher),
            ("model.flit_moves_per_router_cycle", "1/cycle", Higher),
            ("model.rtt_p50_cycles.c64", "cycles", Lower),
            ("model.rtt_p50_cycles.c256", "cycles", Lower),
            ("model.rtt_p99_cycles.c64", "cycles", Lower),
            ("model.rtt_p99_cycles.c256", "cycles", Lower),
            ("model.completed_per_cycle.c64", "1/cycle", Higher),
            ("model.completed_per_cycle.c256", "1/cycle", Higher),
            // The low 48 bits of the digest, so it fits a JSON number
            // exactly. An identity, not a quantity: the direction is nominal.
            ("model.sim_digest", "hash48", Lower),
        ],
    );
    group(
        &mut all,
        ESTIMATE,
        &[
            ("noc-router.est_share", "share", Lower),
            ("noc-sim.est_share", "share", Lower),
            ("noc-traffic.est_share", "share", Lower),
            ("mesh-noc.unattributed_share", "share", Lower),
        ],
    );
    group(
        &mut all,
        "none: the cost of the harness's own spans, traced ÷ untraced rep − 1",
        &[("bench.trace_overhead_pct", "%", Lower)],
    );
    all
}

/// The unit of every catalogued metric, by name.
pub fn units() -> std::collections::BTreeMap<String, &'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name.to_owned(), m.unit))
        .chain(per_layer().into_iter().map(|m| (m.name, m.unit)))
        .collect()
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let text = |s: &str| Value::Str(s.to_owned());
    Value::Obj(vec![
        (
            "command".into(),
            Value::Arr(vec![text("bash"), text("benchmark/run.sh")]),
        ),
        ("paths".into(), Value::Arr(vec![text("benchmark")])),
        ("run_seconds".into(), Value::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::Obj(vec![("name".into(), text(name)), ("why".into(), text(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::Obj(vec![
                            ("name".into(), text(m.name)),
                            ("unit".into(), text(m.unit)),
                            ("better".into(), text(m.better.as_str())),
                            ("bound".into(), Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Value::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Value::Obj(vec![
                            ("name".into(), text(&m.name)),
                            ("unit".into(), text(m.unit)),
                            ("better".into(), text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} metrics",
            layers.len()
        );
        let mut names = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), m.unit))
            .chain(layers.iter().map(|m| (m.name.clone(), m.unit)))
            .chain(WORKLOADS.iter().map(|(name, _)| ((*name).to_owned(), "s")))
        {
            assert!(valid_name(&name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(names.insert(name.clone()), "{name} is used twice");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name} why");
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    /// `BENCHMARK.json` at the repository root is `run.sh manifest`, byte
    /// for byte.
    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest().pretty(),
            "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }
}
