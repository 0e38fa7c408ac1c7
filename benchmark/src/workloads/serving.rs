//! `serving_8x8`: the closed-loop request/reply layer on an 8×8 mesh.
//!
//! A closed loop: each client sends its next request only after a reply
//! frees a slot in its window, so a slow network receives less load. Two
//! population points per rep, one before the throughput knee (64 clients)
//! and one after it (256 clients), each `ClosedLoop::new` -> `run` -> drain.

use std::time::Instant;

use mesh_noc::{ClosedLoop, NocConfig, ServingOpts};
use noc_traffic::SeedMode;

use super::{Rep, Size, Workload};
use crate::digest::Digest;
use crate::spans::{spanned, Tracer};

const CLIENTS: [usize; 2] = [64, 256];
const WINDOW: u32 = 4;
const SERVICE_CYCLES: u64 = 16;
const DRAIN_LIMIT_CYCLES: u64 = 100_000;

pub struct Serving {
    config: NocConfig,
    opts: ServingOpts,
    warmup: u64,
    measure: u64,
}

impl Serving {
    pub fn new(size: Size) -> Result<Self, String> {
        let config = NocConfig::proposed_chip()
            .map_err(|e| e.to_string())?
            .with_side(8)
            .with_seed_mode(SeedMode::PerNode);
        // Assigned field by field, not as a struct literal: the defaults and
        // the field list may change, the workload may not.
        #[allow(clippy::field_reassign_with_default)]
        let opts = {
            let mut opts = ServingOpts::default();
            opts.window = WINDOW;
            opts.service_cycles = SERVICE_CYCLES;
            opts
        };
        Ok(Self {
            config,
            opts,
            warmup: size.scale(1_000),
            measure: size.scale(20_000),
        })
    }
}

impl Workload for Serving {
    fn rep(&mut self, seed: u16, mut tracer: Option<&mut Tracer>) -> Rep {
        // The clients' destination streams are seeded from the base seed.
        let config = self.config.with_base_seed(seed);
        let nodes = u64::from(config.k) * u64::from(config.k);
        let mut digest = Digest::new();
        let mut failures = Vec::new();
        let mut model = Vec::new();
        let mut cycles = 0;
        let (mut new_s, mut run_s, mut drain_s) = (0.0, 0.0, 0.0);
        let start = Instant::now();
        for clients in CLIENTS {
            let what = format!("{clients} clients");
            let point = tracer
                .as_mut()
                .map(|t| t.open(&format!("point.c{clients}"), "bench"));
            let (built, seconds) = spanned(&mut tracer, "serving_new", "mesh-noc", || {
                ClosedLoop::new(config, clients, self.opts)
            });
            new_s += seconds;
            let ran = built.and_then(|mut serving| {
                let (result, seconds) = spanned(&mut tracer, "serving_run", "mesh-noc", || {
                    serving.run(self.warmup, self.measure)
                });
                run_s += seconds;
                result.map(|result| (serving, result))
            });
            let drained = ran.map(|(mut serving, result)| {
                // One cycle per call, so the drain's cycles can be counted:
                // the loop exposes neither its clock nor its network.
                let (drained, seconds) = spanned(&mut tracer, "serving_drain", "mesh-noc", || {
                    let mut drained = 0;
                    while serving.outstanding_requests() > 0 && drained < DRAIN_LIMIT_CYCLES {
                        serving.drain_remaining(1);
                        drained += 1;
                    }
                    drained
                });
                drain_s += seconds;
                (serving, result, drained)
            });
            if let (Some(tracer), Some(point)) = (tracer.as_mut(), point) {
                tracer.close(point);
            }
            let (serving, result, drained) = match drained {
                Ok(point) => point,
                Err(error) => {
                    failures.push(format!("{what}: returned an error: {error}"));
                    continue;
                }
            };

            if serving.outstanding_requests() > 0 {
                failures.push(format!(
                    "{what}: {} requests outstanding after the drain",
                    serving.outstanding_requests()
                ));
            }
            if serving.requests_issued() != serving.replies_completed() {
                failures.push(format!(
                    "{what}: {} requests issued, {} replies completed",
                    serving.requests_issued(),
                    serving.replies_completed()
                ));
            }
            if serving.peak_outstanding() > WINDOW {
                failures.push(format!(
                    "{what}: peak outstanding {} exceeds the window {WINDOW}",
                    serving.peak_outstanding()
                ));
            }
            let statistics = [
                result.rtt_mean_cycles,
                result.rtt_p50_cycles,
                result.rtt_p99_cycles,
                result.completed_per_cycle,
                result.received_flits_per_cycle,
            ];
            if statistics.iter().any(|v| !v.is_finite()) {
                failures.push(format!("{what}: non-finite statistic"));
            }
            if result.received_flits_per_cycle > nodes as f64 {
                failures.push(format!(
                    "{what}: received {} flits/cycle on {nodes} ejection links",
                    result.received_flits_per_cycle
                ));
            }

            digest.serving(&result);
            digest.u64(serving.requests_issued());
            digest.u64(drained);
            cycles += result.total_cycles + drained;
            for (stat, value) in [
                ("rtt_p50_cycles", result.rtt_p50_cycles),
                ("rtt_p99_cycles", result.rtt_p99_cycles),
                ("completed_per_cycle", result.completed_per_cycle),
            ] {
                model.push((format!("model.{stat}.c{clients}"), value));
            }
        }
        let timed_s = start.elapsed().as_secs_f64();
        if let Some(tracer) = tracer {
            tracer.sample("mesh-noc.serving_new_s", new_s);
            tracer.sample("mesh-noc.serving_run_s", run_s);
            tracer.sample("mesh-noc.serving_drain_s", drain_s);
            tracer.sample(
                "mesh-noc.serving_ns_per_router_cycle",
                timed_s * 1e9 / (cycles * nodes).max(1) as f64,
            );
        }
        Rep {
            timed_s,
            router_cycles: cycles * nodes,
            digest: Some(digest.finish()),
            ops: CLIENTS.len() as u64,
            failures,
            model,
        }
    }
}
