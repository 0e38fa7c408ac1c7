//! `sat_step_8x8` and `lowload_step_16x16`: raw `Network::step` throughput.
//!
//! Per rep: `reset(seed)`, untimed warm-up steps, the timed `step(true)`
//! calls with measuring on, then an untimed verify-drain that checks every
//! tracked packet arrives. No sweep machinery, no drain and no scoreboard
//! polling sit inside the timed region.
//!
//! The traced rep cuts the timed region into blocks with a span each, times
//! the verify-drain, samples queue depths at block boundaries and takes the
//! exact `ActivityCounters` delta of the timed region, which the
//! budget estimate multiplies by the unit costs.

use std::time::Instant;

use mesh_noc::{Network, NocConfig};
use noc_sim::ActivityCounters;
use noc_traffic::{SeedMode, TrafficMix};

use super::{check_open_loop, Rep, Size, Workload};
use crate::digest::Digest;
use crate::spans::{spanned, Tracer};

/// Steps per traced block. 500 (not 1 000) so that three traced reps of the
/// shorter workload give 240 block samples — enough for p95 under the
/// percentile rule (ten samples beyond it needs 200).
pub const BLOCK_STEPS: u64 = 500;
/// The verify-drain polls the scoreboard once per this many cycles.
const DRAIN_POLL_CYCLES: u64 = 64;
const DRAIN_LIMIT_CYCLES: u64 = 50_000;

pub struct StepWorkload {
    network: Network,
    rate: f64,
    warmup_steps: u64,
    timed_steps: u64,
}

impl StepWorkload {
    /// 8×8 proposed chip, per-node seeds, mixed traffic at 0.055
    /// flits/node/cycle: just past the 3× knee, with the backlog bounded
    /// (about 340 flits in flight), so every step moves flits on most links
    /// and the verify-drain still completes.
    pub fn saturated_8x8(size: Size) -> Result<Self, String> {
        Self::new(8, TrafficMix::mixed(), 0.055, size.scale(40_000), size)
    }

    /// 16×16, unicast only, 0.005 flits/node/cycle: routers asleep for more
    /// than 90 % of router-cycles.
    pub fn lowload_16x16(size: Size) -> Result<Self, String> {
        Self::new(
            16,
            TrafficMix::unicast_only(),
            0.005,
            size.scale(200_000),
            size,
        )
    }

    fn new(
        k: u16,
        mix: TrafficMix,
        rate: f64,
        timed_steps: u64,
        size: Size,
    ) -> Result<Self, String> {
        // Every rep starts with `reset(seed)`, which is bit-identical to a
        // network built with that base seed, so none is set here.
        let config = NocConfig::proposed_chip()
            .map_err(|e| e.to_string())?
            .with_side(k)
            .with_mix(mix)
            .with_seed_mode(SeedMode::PerNode);
        Ok(Self {
            network: Network::new(config, rate).map_err(|e| e.to_string())?,
            rate,
            warmup_steps: size.scale(5_000),
            timed_steps,
        })
    }

    fn nodes(&self) -> u64 {
        let k = u64::from(self.network.config().k);
        k * k
    }
}

impl Workload for StepWorkload {
    fn rep(&mut self, seed: u16, mut tracer: Option<&mut Tracer>) -> Rep {
        let nodes = self.nodes();
        let network = &mut self.network;

        spanned(&mut tracer, "reset", "mesh-noc", || {
            network.reset(u64::from(seed));
            network.set_rate(self.rate);
            network.set_measuring(false);
        });
        spanned(&mut tracer, "warmup", "mesh-noc", || {
            for _ in 0..self.warmup_steps {
                network.step(true);
            }
        });

        network.set_measuring(true);
        let timed_s = match tracer.as_mut() {
            None => {
                let start = Instant::now();
                for _ in 0..self.timed_steps {
                    network.step(true);
                }
                start.elapsed().as_secs_f64()
            }
            Some(tracer) => timed_blocks(network, self.timed_steps, nodes, tracer),
        };
        network.set_measuring(false);
        network
            .throughput_mut()
            .set_measured_cycles(self.timed_steps);

        // Verify-drain: untimed in the untraced rep.
        let (drained, drain_s) = spanned(&mut tracer, "verify_drain", "mesh-noc", || {
            let mut drained = 0;
            while drained < DRAIN_LIMIT_CYCLES && network.outstanding_tracked_packets() > 0 {
                for _ in 0..DRAIN_POLL_CYCLES {
                    network.step(false);
                }
                drained += DRAIN_POLL_CYCLES;
            }
            drained
        });
        if let (Some(tracer), true) = (tracer.as_mut(), drained > 0) {
            tracer.sample(
                "mesh-noc.drain_ns_per_router_cycle",
                drain_s * 1e9 / (drained * nodes) as f64,
            );
        }

        let mut failures = Vec::new();
        let outstanding = network.outstanding_tracked_packets();
        if outstanding > 0 {
            failures.push(format!(
                "{outstanding} tracked packets outstanding after a {drained}-cycle verify-drain"
            ));
        }
        let latency = network.latency();
        let throughput = network.throughput();
        let counters = network.counters();
        let received = throughput.received_flits_per_cycle();
        check_open_loop(
            "step rep",
            network.config().k,
            latency.mean(),
            received,
            &mut failures,
        );
        let p99 = latency.percentile(0.99).unwrap_or(0);
        let mut digest = Digest::new();
        digest.counters(&counters);
        digest.u64(latency.count());
        digest.f64(latency.mean());
        digest.u64(latency.percentile(0.50).unwrap_or(0));
        digest.u64(p99);
        digest.u64(throughput.received_flits());
        digest.u64(throughput.injected_flits());
        digest.u64(network.injected_packets());
        digest.u64(network.now());

        let model = vec![
            ("model.mean_latency_cycles".to_owned(), latency.mean()),
            ("model.p99_latency_cycles".to_owned(), p99 as f64),
            ("model.received_flits_per_cycle".to_owned(), received),
            (
                "model.bypass_fraction".to_owned(),
                counters.bypass_fraction(),
            ),
            (
                "model.flit_moves_per_router_cycle".to_owned(),
                (counters.buffer_reads + counters.bypasses) as f64 / counters.cycles.max(1) as f64,
            ),
        ];
        Rep {
            timed_s,
            router_cycles: nodes * self.timed_steps,
            digest: Some(digest.finish()),
            ops: 1,
            failures,
            model,
        }
    }
}

/// The traced timed region: `steps` calls of `step(true)` in blocks of
/// [`BLOCK_STEPS`], a span per block. Returns the summed block time, so the
/// sampling between blocks does not count as stepping.
fn timed_blocks(network: &mut Network, steps: u64, nodes: u64, tracer: &mut Tracer) -> f64 {
    let before = network.counters();
    let packets_before = network.injected_packets();
    let (mut peak_flits, mut peak_packets) = (0usize, 0usize);
    let mut stepped_s = 0.0;
    let mut done = 0;
    while done < steps {
        let block = BLOCK_STEPS.min(steps - done);
        let span = tracer.open("step_block", "mesh-noc");
        for _ in 0..block {
            network.step(true);
        }
        let block_s = tracer.close(span);
        stepped_s += block_s;
        if block == BLOCK_STEPS {
            tracer.sample("mesh-noc.step_block_us", block_s * 1e6);
        }
        done += block;
        peak_flits = peak_flits.max(network.in_flight_flits());
        peak_packets = peak_packets.max(network.outstanding_tracked_packets());
    }
    let after = network.counters();
    tracer.sample(
        "mesh-noc.inject_ns_per_router_cycle",
        stepped_s * 1e9 / (steps * nodes) as f64,
    );
    tracer.sample("mesh-noc.peak_in_flight_flits", peak_flits as f64);
    tracer.sample("mesh-noc.peak_outstanding_packets", peak_packets as f64);
    tracer.sample(
        "noc-traffic.packets_generated",
        (network.injected_packets() - packets_before) as f64,
    );
    for (name, count) in counter_deltas(&before, &after) {
        tracer.sample(name, count as f64);
    }
    stepped_s
}

/// Exact event counts of the timed region, by catalogue name. The first six
/// are the `noc-router` counts the benchmark lists; the rest feed only the
/// budget estimate.
fn counter_deltas(
    before: &ActivityCounters,
    after: &ActivityCounters,
) -> [(&'static str, u64); 11] {
    [
        (
            "noc-router.buffer_writes",
            after.buffer_writes - before.buffer_writes,
        ),
        ("noc-router.bypasses", after.bypasses - before.bypasses),
        (
            "noc-router.crossbar_traversals",
            after.crossbar_traversals - before.crossbar_traversals,
        ),
        (
            "noc-router.sa_local_arbitrations",
            after.sa_local_arbitrations - before.sa_local_arbitrations,
        ),
        (
            "noc-router.sa_global_arbitrations",
            after.sa_global_arbitrations - before.sa_global_arbitrations,
        ),
        (
            "noc-router.multicast_forks",
            after.multicast_forks - before.multicast_forks,
        ),
        (
            "count.link_traversals",
            after.link_traversals - before.link_traversals,
        ),
        (
            "count.local_link_traversals",
            after.local_link_traversals - before.local_link_traversals,
        ),
        (
            "count.credits_sent",
            after.credits_sent - before.credits_sent,
        ),
        (
            "count.lookaheads_sent",
            after.lookaheads_sent - before.lookaheads_sent,
        ),
        ("count.ejections", after.ejections - before.ejections),
    ]
}
