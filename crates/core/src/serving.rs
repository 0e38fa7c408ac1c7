//! Closed-loop request/reply serving on top of the mesh.
//!
//! The paper characterises its chip with *open-loop* synthetic injection:
//! every NIC flips an independent Bernoulli coin per cycle, so offered load
//! is fixed regardless of how the network responds. A serving system behaves
//! differently — each **client** keeps a bounded number of requests
//! outstanding and only issues a new one when a reply comes back, so the
//! network's own latency throttles the offered load. This module models that
//! shape (the master–slave request/reply pattern of MultiNoC-style NoC
//! workload studies):
//!
//! * [`ClosedLoop`] — clients round-robin-mapped onto mesh nodes issue
//!   unicast 1-flit [`PacketKind::Request`]s to uniformly drawn home nodes;
//!   every node doubles as a **home node** that answers each request with a
//!   5-flit [`PacketKind::Response`] after a configurable service latency.
//!   Requests ride the request VC class and replies the response class, so
//!   the protocol inherits the chip's message-class deadlock avoidance.
//! * [`ServingRunner`] — sweeps the client population across worker threads
//!   (like [`crate::SweepRunner`] does injection rates) and reports, per
//!   population point, the delivered throughput and the end-to-end
//!   request→reply round-trip latency distribution (mean / p50 / p95 / p99).
//!
//! ## Determinism
//!
//! Everything is deterministic by construction: client destination draws are
//! SplitMix64 streams seeded from `(base_seed, client index)`, replies are
//! released in the network's delivery order, and population points get
//! index-derived seeds and are stitched in index order — so a serving sweep
//! is bit-identical for any `jobs`.
//!
//! ## Latency accounting
//!
//! RTT is measured from the cycle a request is *created* at the client to
//! the cycle the reply's tail flit is *accepted* back at the client's NIC —
//! the closed-loop analogue of the paper's "complete action" convention. A
//! request is measured iff it was issued during the measurement window;
//! after the window closes the loop keeps running (clients keep issuing
//! unmeasured requests, so measured stragglers complete under load) until
//! every measured request has its reply or the drain bound hits.

use std::collections::BTreeMap;
use std::time::Instant;

use noc_sim::LatencyStats;
use noc_types::{
    ConfigError, Cycle, DestinationSet, NocError, NodeId, Packet, PacketId, PacketKind,
};

use crate::config::NocConfig;
use crate::network::Network;
use crate::nic::Reception;
use crate::sweep::{shard_indexed, SweepRunner};

/// Tag bit marking closed-loop request packet ids (bit 59 — flit ids are
/// `packet_id * 16 + seq`, so packet ids must stay below 2^60).
/// NIC-generated ids are `(node << 40) | seq` with node ≤ 255, so tagged
/// ids can never collide with them.
const REQUEST_BIT: PacketId = 1 << 59;
/// Tag bit marking closed-loop reply packet ids (bit 58).
const REPLY_BIT: PacketId = 1 << 58;
/// Low bits shared by a request id and its reply id.
const PAIR_MASK: PacketId = REPLY_BIT - 1;

/// RTT histogram width: one-cycle bins to 4094 cycles plus overflow — a
/// round trip stacks two network traversals on the service latency, so the
/// default 256-cycle histogram would clip saturated populations.
const RTT_BINS: usize = 4096;

/// Knobs of the closed-loop protocol (population and windows live on
/// [`ClosedLoop::new`] / [`ServingRunner`] instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingOpts {
    /// Maximum outstanding requests per client (the closed-loop window).
    pub window: u32,
    /// Cycles a home node takes to service a request before injecting the
    /// reply.
    pub service_cycles: Cycle,
}

impl Default for ServingOpts {
    fn default() -> Self {
        Self {
            window: 4,
            service_cycles: 16,
        }
    }
}

/// One closed-loop client.
#[derive(Debug, Clone)]
struct Client {
    node: NodeId,
    outstanding: u32,
    /// SplitMix64 state driving this client's destination draws.
    rng: u64,
    next_seq: u64,
}

/// A request that has been issued and not yet answered.
#[derive(Debug, Clone, Copy)]
struct InFlightRequest {
    client: u32,
    issued_at: Cycle,
    measured: bool,
}

/// A serviced request waiting for its reply to be injected.
#[derive(Debug, Clone, Copy)]
struct PendingReply {
    home: NodeId,
    client_node: NodeId,
    reply_id: PacketId,
}

/// Everything measured during one closed-loop run at a fixed client
/// population.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingResult {
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Outstanding-request window per client.
    pub window: u32,
    /// Home-node service latency in cycles.
    pub service_cycles: Cycle,
    /// Requests issued over the whole run.
    pub requests_issued: u64,
    /// Replies completed over the whole run.
    pub replies_completed: u64,
    /// Requests whose round trip was measured.
    pub measured_requests: u64,
    /// Cycles in the measurement window.
    pub measured_cycles: u64,
    /// Mean request→reply round trip in cycles.
    pub rtt_mean_cycles: f64,
    /// Median round trip in cycles.
    pub rtt_p50_cycles: f64,
    /// 95th-percentile round trip in cycles.
    pub rtt_p95_cycles: f64,
    /// 99th-percentile round trip in cycles.
    pub rtt_p99_cycles: f64,
    /// Replies completed per cycle during the measurement window (the
    /// delivered closed-loop throughput).
    pub completed_per_cycle: f64,
    /// Network-wide received flits per cycle during the window.
    pub received_flits_per_cycle: f64,
    /// Received throughput in Gb/s at the configured flit width and clock.
    pub received_gbps: f64,
    /// Fraction of router-to-router hops that used the bypass path.
    pub bypass_fraction: f64,
    /// Total cycles simulated (warmup + measurement + drain).
    pub total_cycles: u64,
}

/// A closed-loop request/reply simulation at one client population.
///
/// Drive it with [`run`](Self::run) for the standard warmup / measure /
/// drain methodology, or manually with [`advance`](Self::advance) +
/// [`drain_remaining`](Self::drain_remaining) (the conservation property
/// tests do the latter).
#[derive(Debug)]
pub struct ClosedLoop {
    network: Network,
    opts: ServingOpts,
    clients: Vec<Client>,
    /// Serviced requests keyed by the cycle their reply becomes ready.
    /// Within one ready cycle, insertion (= delivery) order.
    service_queue: BTreeMap<Cycle, Vec<PendingReply>>,
    /// Outstanding requests by packet id. A `BTreeMap` keeps every scan
    /// deterministic (noc-lint rule D01) — lookups are keyed, but the drain
    /// bookkeeping must not depend on a hasher's iteration order.
    in_flight: BTreeMap<PacketId, InFlightRequest>,
    rtt: LatencyStats,
    /// Copy buffer for the network's delivery log (reused every cycle).
    delivery_scratch: Vec<Reception>,
    issuing: bool,
    /// `true` while requests issued now should have their RTT measured.
    window_active: bool,
    measured_in_flight: u64,
    requests_issued: u64,
    replies_completed: u64,
    completed_in_window: u64,
    peak_outstanding: u32,
}

impl ClosedLoop {
    /// Builds a closed loop of `clients` clients over a fresh network of
    /// `config`. Client `i` lives on node `i % k²` and draws destinations
    /// from a SplitMix64 stream seeded by `(config.base_seed, i)`.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] when the configuration is invalid, the
    /// mesh has fewer than two nodes (a client cannot address itself) or
    /// `clients` or the window is zero.
    pub fn new(config: NocConfig, clients: usize, opts: ServingOpts) -> Result<Self, NocError> {
        let mut network = Network::new(config, 0.0)?;
        let nodes = usize::from(config.k) * usize::from(config.k);
        if nodes < 2 {
            return Err(ConfigError::InvalidPattern {
                reason: "closed-loop serving needs a mesh of at least two nodes".to_owned(),
            }
            .into());
        }
        if clients == 0 || opts.window == 0 {
            return Err(ConfigError::InvalidPattern {
                reason: format!(
                    "closed-loop serving needs at least one client and a non-zero \
                     window, got {clients} clients with window {}",
                    opts.window
                ),
            }
            .into());
        }
        network.set_delivery_logging(true);
        let clients = (0..clients)
            .map(|i| Client {
                node: NodeId::try_from(i % nodes).expect("mesh nodes fit NodeId"),
                outstanding: 0,
                rng: splitmix_seed(config.base_seed, i),
                next_seq: 0,
            })
            .collect();
        Ok(Self {
            network,
            opts,
            clients,
            service_queue: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            rtt: LatencyStats::with_bins(RTT_BINS),
            delivery_scratch: Vec::new(),
            issuing: true,
            window_active: false,
            measured_in_flight: 0,
            requests_issued: 0,
            replies_completed: 0,
            completed_in_window: 0,
            peak_outstanding: 0,
        })
    }

    /// Total requests issued so far.
    #[must_use]
    pub fn requests_issued(&self) -> u64 {
        self.requests_issued
    }

    /// Total replies completed (received back at their client) so far.
    #[must_use]
    pub fn replies_completed(&self) -> u64 {
        self.replies_completed
    }

    /// Requests currently awaiting service or a reply in flight.
    #[must_use]
    pub fn outstanding_requests(&self) -> usize {
        self.in_flight.len()
    }

    /// Highest per-client outstanding count ever observed (the
    /// window-bound property tests pin this at ≤ the configured window).
    #[must_use]
    pub fn peak_outstanding(&self) -> u32 {
        self.peak_outstanding
    }

    /// The configured protocol knobs.
    #[must_use]
    pub fn opts(&self) -> ServingOpts {
        self.opts
    }

    /// Runs `cycles` closed-loop cycles with clients issuing.
    pub fn advance(&mut self, cycles: u64) {
        self.issuing = true;
        for _ in 0..cycles {
            self.cycle();
        }
    }

    /// Stops issuing and keeps the loop running until every outstanding
    /// request has completed or `limit` cycles elapse. Returns `true` when
    /// fully drained (at which point every issued request has exactly one
    /// completed reply).
    pub fn drain_remaining(&mut self, limit: u64) -> bool {
        self.issuing = false;
        let mut drained = 0;
        while (!self.in_flight.is_empty() || !self.service_queue.is_empty()) && drained < limit {
            self.cycle();
            drained += 1;
        }
        self.in_flight.is_empty() && self.service_queue.is_empty()
    }

    /// Runs the standard closed-loop methodology: warmup (RTTs not
    /// recorded), measurement (requests issued in this window are RTT-
    /// measured and completions counted), then a bounded drain during which
    /// clients keep issuing unmeasured requests so measured stragglers
    /// complete under load.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] when `measure_cycles` is zero (the
    /// throughput would divide by zero).
    pub fn run(
        &mut self,
        warmup_cycles: u64,
        measure_cycles: u64,
    ) -> Result<ServingResult, NocError> {
        if measure_cycles == 0 {
            return Err(ConfigError::InvalidSweepWindow { measure_cycles }.into());
        }
        self.issuing = true;
        self.window_active = false;
        for _ in 0..warmup_cycles {
            self.cycle();
        }

        self.window_active = true;
        self.network.set_measuring(true);
        for _ in 0..measure_cycles {
            self.cycle();
        }
        self.window_active = false;
        self.network.set_measuring(false);
        self.network
            .throughput_mut()
            .set_measured_cycles(measure_cycles);

        let drain_limit = 4 * measure_cycles + 2000;
        let mut drained = 0;
        while self.measured_in_flight > 0 && drained < drain_limit {
            self.cycle();
            drained += 1;
        }

        let throughput = self.network.throughput();
        let counters = self.network.counters();
        Ok(ServingResult {
            clients: self.clients.len(),
            window: self.opts.window,
            service_cycles: self.opts.service_cycles,
            requests_issued: self.requests_issued,
            replies_completed: self.replies_completed,
            measured_requests: self.rtt.count(),
            measured_cycles: measure_cycles,
            rtt_mean_cycles: self.rtt.mean(),
            rtt_p50_cycles: self.rtt.percentile(0.50).unwrap_or(0) as f64,
            rtt_p95_cycles: self.rtt.percentile(0.95).unwrap_or(0) as f64,
            rtt_p99_cycles: self.rtt.percentile(0.99).unwrap_or(0) as f64,
            completed_per_cycle: self.completed_in_window as f64 / measure_cycles as f64,
            received_flits_per_cycle: throughput.received_flits_per_cycle(),
            received_gbps: throughput.received_gbps(
                self.network.config().flit_bits,
                self.network.config().frequency_ghz,
            ),
            bypass_fraction: counters.bypass_fraction(),
            total_cycles: warmup_cycles + measure_cycles + drained,
        })
    }

    /// One closed-loop cycle: consume last cycle's deliveries (requests
    /// reaching home nodes, replies reaching clients), release due replies
    /// from the service queues, let clients refill their windows, then step
    /// the network one cycle.
    fn cycle(&mut self) {
        let now = self.network.now();

        // 1. Deliveries from the previous step, in delivery order.
        let mut deliveries = std::mem::take(&mut self.delivery_scratch);
        deliveries.clear();
        deliveries.extend_from_slice(self.network.deliveries());
        self.network.clear_deliveries();
        for reception in &deliveries {
            self.handle_delivery(*reception);
        }
        self.delivery_scratch = deliveries;

        // 2. Replies whose service latency has elapsed are injected at their
        //    home nodes, oldest ready-cycle first, delivery order within one.
        while let Some(entry) = self.service_queue.first_entry() {
            if *entry.key() > now {
                break;
            }
            let batch = entry.remove();
            for pending in batch {
                self.network.inject_packet(Packet::new(
                    pending.reply_id,
                    pending.home,
                    DestinationSet::unicast(pending.client_node),
                    PacketKind::Response,
                    now,
                ));
            }
        }

        // 3. Clients refill their windows in client-index order.
        if self.issuing {
            for ci in 0..self.clients.len() {
                while self.clients[ci].outstanding < self.opts.window {
                    self.issue_request(ci, now);
                }
                self.peak_outstanding = self.peak_outstanding.max(self.clients[ci].outstanding);
            }
        }

        // 4. One network cycle. Closed-loop packets enter through
        //    `Network::inject_packet`, so the NIC Bernoulli sources stay
        //    silent (`inject = false`) and the PRBS state untouched.
        self.network.step(false);
    }

    fn handle_delivery(&mut self, reception: Reception) {
        if reception.id & REQUEST_BIT != 0 {
            // A request reached its home node: schedule the reply.
            let request = self.in_flight[&reception.id];
            let client_node = self.clients[request.client as usize].node;
            let ready = reception.at + self.opts.service_cycles;
            self.service_queue
                .entry(ready)
                .or_default()
                .push(PendingReply {
                    home: reception.node,
                    client_node,
                    reply_id: REPLY_BIT | (reception.id & PAIR_MASK),
                });
        } else if reception.id & REPLY_BIT != 0 {
            // A reply made it back to its client: the round trip is complete.
            let request_id = REQUEST_BIT | (reception.id & PAIR_MASK);
            let request = self
                .in_flight
                .remove(&request_id)
                .expect("reply matches an in-flight request");
            let client = &mut self.clients[request.client as usize];
            debug_assert_eq!(client.node, reception.node);
            client.outstanding -= 1;
            self.replies_completed += 1;
            if self.window_active {
                self.completed_in_window += 1;
            }
            if request.measured {
                self.rtt.record(reception.at - request.issued_at);
                self.measured_in_flight -= 1;
            }
        }
        // NIC-generated ids (no tag bit) cannot appear: the loop never
        // injects through the Bernoulli sources.
    }

    fn issue_request(&mut self, ci: usize, now: Cycle) {
        let nodes = u64::from(self.network.config().k) * u64::from(self.network.config().k);
        let client = &mut self.clients[ci];
        // Uniform draw over the other nodes.
        let draw = splitmix_next(&mut client.rng) % (nodes - 1);
        let dest = if draw >= u64::from(client.node) {
            draw + 1
        } else {
            draw
        };
        let id = REQUEST_BIT | ((ci as PacketId) << 32) | (client.next_seq & 0xFFFF_FFFF);
        client.next_seq += 1;
        client.outstanding += 1;
        let source = client.node;
        self.in_flight.insert(
            id,
            InFlightRequest {
                client: u32::try_from(ci).expect("client index fits u32"),
                issued_at: now,
                measured: self.window_active,
            },
        );
        if self.window_active {
            self.measured_in_flight += 1;
        }
        self.requests_issued += 1;
        self.network.inject_packet(Packet::new(
            id,
            source,
            DestinationSet::unicast(NodeId::try_from(dest).expect("mesh nodes fit NodeId")),
            PacketKind::Request,
            now,
        ));
    }
}

/// One fully measured population point of a serving sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingPointOutcome {
    /// Client population of this point.
    pub clients: usize,
    /// The point's full closed-loop result.
    pub result: ServingResult,
    /// Wall-clock milliseconds spent simulating this point.
    pub wall_ms: f64,
}

/// Everything a [`ServingRunner`] run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingOutcome {
    /// Per-population outcomes in input order.
    pub points: Vec<ServingPointOutcome>,
    /// Total wall-clock milliseconds for the whole sweep.
    pub total_wall_ms: f64,
}

/// Sweeps the client population of a closed-loop serving workload, sharding
/// points across worker threads with bit-identical results for any thread
/// count (the serving analogue of [`SweepRunner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingRunner {
    jobs: usize,
    warmup_cycles: u64,
    measure_cycles: u64,
    opts: ServingOpts,
}

impl ServingRunner {
    /// A runner distributing population points over `jobs` worker threads
    /// (`0` is treated as `1`) with default windows of 1000/5000 cycles and
    /// default [`ServingOpts`].
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            warmup_cycles: 1_000,
            measure_cycles: 5_000,
            opts: ServingOpts::default(),
        }
    }

    /// Replaces the warmup and measurement windows (cycles).
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

    /// Replaces the closed-loop protocol knobs.
    #[must_use]
    pub fn with_opts(mut self, opts: ServingOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Worker threads population points are sharded across.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs one population sweep over `populations`, sharding points across
    /// the runner's worker threads. Point `index` runs on a network seeded
    /// with [`SweepRunner::point_seed`]`(config, index)`, so results depend
    /// only on inputs — never on scheduling.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptySweep`] when `populations` is empty, and
    /// propagates configuration errors from the underlying simulations.
    pub fn run(
        &self,
        config: NocConfig,
        populations: &[usize],
    ) -> Result<ServingOutcome, NocError> {
        if populations.is_empty() {
            return Err(ConfigError::EmptySweep.into());
        }
        let sweep_start = Instant::now();
        let points = shard_indexed(self.jobs, populations.len(), |(): &mut (), index| {
            self.run_point(&config, populations, index)
        })?;
        Ok(ServingOutcome {
            points,
            total_wall_ms: sweep_start.elapsed().as_secs_f64() * 1_000.0,
        })
    }

    fn run_point(
        &self,
        config: &NocConfig,
        populations: &[usize],
        index: usize,
    ) -> Result<ServingPointOutcome, NocError> {
        let start = Instant::now();
        let seeded = config.with_base_seed(SweepRunner::point_seed(config, index));
        let mut loop_ = ClosedLoop::new(seeded, populations[index], self.opts)?;
        let result = loop_.run(self.warmup_cycles, self.measure_cycles)?;
        Ok(ServingPointOutcome {
            clients: populations[index],
            result,
            wall_ms: start.elapsed().as_secs_f64() * 1_000.0,
        })
    }
}

/// Seeds client `index`'s SplitMix64 stream from the configuration seed.
fn splitmix_seed(base_seed: u16, index: usize) -> u64 {
    let mut state =
        (u64::from(base_seed) << 32) ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // Burn one output so adjacent clients decorrelate immediately.
    splitmix_next(&mut state);
    state
}

/// One SplitMix64 step (same finalizer the sweep point seeds use).
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;

    fn quick_config() -> NocConfig {
        NocConfig::proposed_chip().unwrap()
    }

    #[test]
    fn rejects_degenerate_setups() {
        let config = quick_config();
        assert!(ClosedLoop::new(config, 0, ServingOpts::default()).is_err());
        assert!(ClosedLoop::new(
            config,
            4,
            ServingOpts {
                window: 0,
                service_cycles: 8
            }
        )
        .is_err());
        let one_node = NocConfig { k: 1, ..config };
        assert!(ClosedLoop::new(one_node, 4, ServingOpts::default()).is_err());
        assert!(ServingRunner::new(1).with_windows(100, 0).is_err());
    }

    #[test]
    fn empty_population_lists_are_rejected_with_a_config_error() {
        let err = ServingRunner::new(2).run(quick_config(), &[]).unwrap_err();
        assert_eq!(err, NocError::Config(ConfigError::EmptySweep));
    }

    #[test]
    fn every_request_gets_exactly_one_reply() {
        let mut loop_ = ClosedLoop::new(quick_config(), 24, ServingOpts::default()).unwrap();
        loop_.advance(400);
        assert!(loop_.requests_issued() > 0);
        assert!(loop_.drain_remaining(10_000), "closed loop must drain");
        assert_eq!(loop_.replies_completed(), loop_.requests_issued());
        assert_eq!(loop_.outstanding_requests(), 0);
        assert!(loop_.peak_outstanding() <= loop_.opts().window);
    }

    #[test]
    fn run_reports_sane_statistics() {
        let mut loop_ = ClosedLoop::new(quick_config(), 16, ServingOpts::default()).unwrap();
        let result = loop_.run(200, 800).unwrap();
        assert!(result.measured_requests > 0);
        assert!(result.rtt_mean_cycles > result.service_cycles as f64);
        assert!(result.rtt_p50_cycles <= result.rtt_p95_cycles);
        assert!(result.rtt_p95_cycles <= result.rtt_p99_cycles);
        assert!(result.completed_per_cycle > 0.0);
        assert!(result.received_gbps > 0.0);
        assert_eq!(result.measured_cycles, 800);
    }

    #[test]
    fn serving_is_deterministic_across_jobs() {
        let config = quick_config();
        let populations = [4, 16, 32];
        let strip = |outcome: ServingOutcome| -> Vec<ServingResult> {
            outcome.points.into_iter().map(|p| p.result).collect()
        };
        let base = strip(
            ServingRunner::new(1)
                .with_windows(100, 300)
                .unwrap()
                .run(config, &populations)
                .unwrap(),
        );
        let sharded = strip(
            ServingRunner::new(3)
                .with_windows(100, 300)
                .unwrap()
                .run(config, &populations)
                .unwrap(),
        );
        assert_eq!(base, sharded);
    }

    #[test]
    fn throughput_grows_then_saturates_with_population() {
        let config = quick_config();
        let populations = [2, 16, 96];
        let outcome = ServingRunner::new(2)
            .with_windows(200, 800)
            .unwrap()
            .run(config, &populations)
            .unwrap();
        let tput: Vec<f64> = outcome
            .points
            .iter()
            .map(|p| p.result.completed_per_cycle)
            .collect();
        assert!(
            tput[1] > tput[0],
            "throughput must grow with population: {tput:?}"
        );
        // At 96 clients the network is the bottleneck; RTT inflates instead
        // of throughput growing linearly.
        let rtts: Vec<f64> = outcome
            .points
            .iter()
            .map(|p| p.result.rtt_mean_cycles)
            .collect();
        assert!(
            rtts[2] > rtts[0],
            "saturated RTT must exceed low-load RTT: {rtts:?}"
        );
    }
}
