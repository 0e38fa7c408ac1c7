//! The cycle-accurate network orchestrator.
//!
//! All inter-component messages (flits on links, lookaheads, returning
//! credits) travel at most a few cycles, so they are scheduled through
//! fixed-horizon [`noc_sim::EventWheel`]s instead of a general priority
//! queue: the steady-state [`Network::step`] performs zero heap allocation —
//! slot buffers, router outputs and NIC scratch space are all reused cycle
//! after cycle. The wheel is split into **typed lanes** (word-sized control
//! messages vs. slab-parked flit handles), and an **active-set scheduler**
//! visits only the routers woken by a flit or lookahead delivery (or still
//! buffering flits) and naps quiescent NICs through provably losing
//! injection coin flips, waking them from a min-heap of wake ordinals — both
//! bit-identical to the naive full scan (the per-cycle phase machinery lives
//! in the `step` submodule).
//!
//! One mesh is always stepped by one thread; parallelism lives one level up,
//! in [`crate::SweepRunner`]'s sharding of independent sweep points (see
//! `ARCHITECTURE.md`, "Why there is no intra-step parallelism").

mod step;

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use noc_router::{Router, RouterOutput};
use noc_sim::{ActivityCounters, Clock, EventWheel, FlitSlab, LatencyStats, ThroughputStats};
use noc_topology::Mesh;
use noc_traffic::TrafficSource;
use noc_types::{ConfigError, Cycle, NocError, PacketId, Port, Trace, TraceEvent};

use crate::config::NocConfig;
use crate::nic::{Nic, PacketRegistration, Reception};
use step::{full_awake_mask, FlitEvent, WordEvent};

/// Scoreboard entry tracking one packet until every destination received it.
#[derive(Debug, Clone, Copy)]
struct TrackedPacket {
    created_at: Cycle,
    remaining_receptions: u32,
}

/// A k×k mesh NoC: routers, NICs, links and the measurement machinery.
///
/// The network advances in lock-step cycles via [`Network::step`]. Traffic
/// injection and measurement are controlled per cycle so that a
/// [`crate::Simulation`] can run warmup / measurement / drain phases over the
/// same instance. Cloning snapshots the complete simulation state (used by
/// benches to replay from a fixed mid-flight state).
#[derive(Debug, Clone)]
pub struct Network {
    config: NocConfig,
    mesh: Mesh,
    /// One router per node, indexed by node id.
    routers: Vec<Router>,
    /// One NIC per node, indexed by node id.
    nics: Vec<Nic>,
    word_lane: EventWheel<WordEvent>,
    flit_lane: EventWheel<FlitEvent>,
    slab: FlitSlab,
    router_scratch: RouterOutput,
    /// Active-set words over the routers (bit index = node id).
    router_wake: Vec<u64>,
    /// Bit set ⇔ the NIC has queued flits (drain-phase active set).
    nic_active: Vec<u64>,
    /// Router-cycles skipped by the active-set scheduler, folded back into
    /// the merged `cycles` activity counter.
    idle_router_cycles: u64,
    /// Bit set ⇔ the NIC is awake (must flip its injection coin when an
    /// injecting step runs).
    nic_awake: Vec<u64>,
    /// `(inject ordinal to wake at, node)` of every NIC asleep on a finite
    /// nap, earliest first.
    nic_wakes: BinaryHeap<Reverse<(u64, usize)>>,
    /// Per-NIC inject ordinal of the tick after which the NIC went to sleep.
    nic_slept_at: Vec<u64>,
    clock: Clock,
    /// Completed injecting steps (`step(true)` calls) — the ordinal clock the
    /// NIC nap bookkeeping is keyed by. Non-injecting steps flip no PRBS
    /// coins and therefore do not advance it.
    inject_steps: u64,
    /// Chicken bit for the quiescent-NIC nap (on by default; `false` restores
    /// the serial one-coin-per-NIC-per-cycle loop).
    nic_idle_skip: bool,
    /// Keyed by a `BTreeMap` so iteration (diagnostics, drain checks) is
    /// deterministic — a hash map's order would depend on the hasher seed
    /// and leak into any output derived from a scan (noc-lint rule D01).
    scoreboard: BTreeMap<PacketId, TrackedPacket>,
    latency: LatencyStats,
    throughput: ThroughputStats,
    measuring: bool,
    /// When `true`, every reception is also appended to `deliveries` (in
    /// delivery order) for an external protocol layer to consume.
    log_deliveries: bool,
    /// Receptions logged since the last [`Network::clear_deliveries`].
    deliveries: Vec<Reception>,
}

impl Network {
    /// Builds a network from `config` with all NICs injecting at `rate`.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] when the configuration is invalid.
    pub fn new(config: NocConfig, rate: f64) -> Result<Self, NocError> {
        config.validate()?;
        let mesh = Mesh::new(config.k).map_err(NocError::from)?;
        let count = mesh.node_count();
        let routers = mesh
            .nodes()
            .map(|coord| Router::new(&config.router, mesh, coord))
            .collect();
        let nics = mesh
            .nodes()
            .map(|coord| Nic::new(&config, mesh, mesh.id_of(coord), rate))
            .collect();
        let horizon = config
            .link_delay_cycles()
            .max(config.credit_delay_cycles)
            .max(1);
        let words = count.div_ceil(64);
        Ok(Self {
            config,
            mesh,
            routers,
            nics,
            word_lane: EventWheel::new(horizon),
            flit_lane: EventWheel::new(horizon),
            slab: FlitSlab::new(),
            router_scratch: RouterOutput::default(),
            router_wake: vec![0; words],
            nic_active: vec![0; words],
            idle_router_cycles: 0,
            nic_awake: full_awake_mask(words, count),
            nic_wakes: BinaryHeap::new(),
            nic_slept_at: vec![0; count],
            clock: Clock::new(),
            inject_steps: 0,
            nic_idle_skip: true,
            scoreboard: BTreeMap::new(),
            latency: LatencyStats::with_bins(4096),
            throughput: ThroughputStats::new(),
            measuring: false,
            log_deliveries: false,
            deliveries: Vec::new(),
        })
    }

    /// The configuration this network was built from.
    #[must_use]
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Restores the network to the state of a freshly built one whose
    /// configuration carries the given PRBS base seed, while keeping every
    /// warmed-up buffer capacity: the event wheels' slot rings, the NIC
    /// injection rings and segmentation scratch, the routers' VC buffers and
    /// fork caches, and the router-output scratch all survive with their
    /// high-water-mark storage intact. This is what lets a sweep runner batch
    /// many points through one network per worker thread without re-paying
    /// cold-start allocation per point.
    ///
    /// `seed` is folded (XOR of its 16-bit limbs, zero remapped to a fixed
    /// non-zero constant) into the 16-bit domain of the chip's PRBS LFSRs;
    /// seeds that already fit 16 bits are used as-is. Behaviour after a
    /// reset is bit-identical to `Network::new` with that base seed —
    /// `tests/determinism.rs` pins this.
    ///
    /// # Examples
    ///
    /// ```
    /// use mesh_noc::{Network, NocConfig};
    ///
    /// let mut network = Network::new(NocConfig::proposed_chip()?, 0.1)?;
    /// for _ in 0..50 {
    ///     network.step(true);
    /// }
    /// network.reset(0xBEEF);
    /// assert_eq!(network.now(), 0);
    /// assert_eq!(network.in_flight_flits(), 0);
    /// assert_eq!(network.injected_packets(), 0);
    /// assert_eq!(network.config().base_seed, 0xBEEF);
    /// # Ok::<(), noc_types::NocError>(())
    /// ```
    pub fn reset(&mut self, seed: u64) {
        let folded = (seed ^ (seed >> 16) ^ (seed >> 32) ^ (seed >> 48)) as u16;
        self.config.base_seed = if folded == 0 { 0x1D0C } else { folded };
        for router in &mut self.routers {
            router.reset();
        }
        for nic in &mut self.nics {
            nic.reset(&self.config);
        }
        self.word_lane.reset();
        self.flit_lane.reset();
        self.slab.reset();
        self.router_scratch.clear();
        self.router_wake.fill(0);
        self.nic_active.fill(0);
        self.idle_router_cycles = 0;
        self.nic_awake = full_awake_mask(self.nic_awake.len(), self.nics.len());
        self.nic_wakes.clear();
        self.nic_slept_at.fill(0);
        self.clock.reset();
        self.inject_steps = 0;
        self.scoreboard.clear();
        self.latency.reset();
        self.throughput.reset();
        self.measuring = false;
        // Delivery logging is a configuration knob; only the buffered log is
        // part of the run state.
        self.deliveries.clear();
    }

    /// The mesh topology.
    #[must_use]
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Current cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.clock.now()
    }

    /// Changes the injection rate of every NIC.
    ///
    /// Sleeping NICs are woken first (replaying their napped-over coin
    /// flips), because a nap's length was promised under the old rate's
    /// Bernoulli threshold.
    pub fn set_rate(&mut self, rate: f64) {
        self.wake_all_nics();
        for nic in &mut self.nics {
            nic.set_rate(rate);
        }
    }

    /// Enables or disables the quiescent-NIC nap (on by default). Disabling
    /// restores the serial one-coin-per-NIC-per-cycle inject loop; the
    /// traffic streams are bit-identical either way — this knob exists to
    /// prove exactly that (`tests/determinism.rs`) and as an escape hatch.
    pub fn set_nic_idle_skip(&mut self, enabled: bool) {
        self.wake_all_nics();
        self.nic_idle_skip = enabled;
    }

    /// Starts or stops counting receptions and latencies.
    pub fn set_measuring(&mut self, measuring: bool) {
        self.measuring = measuring;
    }

    /// Latency statistics of packets injected while measuring.
    #[must_use]
    pub fn latency(&self) -> &LatencyStats {
        &self.latency
    }

    /// Throughput statistics of receptions while measuring.
    #[must_use]
    pub fn throughput(&self) -> &ThroughputStats {
        &self.throughput
    }

    /// Mutable access to the throughput accumulator (the simulation driver
    /// sets the measurement window length).
    pub fn throughput_mut(&mut self) -> &mut ThroughputStats {
        &mut self.throughput
    }

    /// Enables or disables the delivery log. While enabled, every reception
    /// (local NIC accepting the tail flit of a packet copy) is appended to
    /// the log in delivery order — ascending destination-node order within
    /// a cycle. The closed-loop serving layer uses this to match replies to
    /// outstanding requests.
    pub fn set_delivery_logging(&mut self, enabled: bool) {
        self.log_deliveries = enabled;
        if !enabled {
            self.deliveries.clear();
        }
    }

    /// Receptions logged since the last [`clear_deliveries`](Self::clear_deliveries),
    /// in delivery order. Empty unless
    /// [`set_delivery_logging`](Self::set_delivery_logging) enabled the log.
    #[must_use]
    pub fn deliveries(&self) -> &[Reception] {
        &self.deliveries
    }

    /// Empties the delivery log, keeping its storage for reuse.
    pub fn clear_deliveries(&mut self) {
        self.deliveries.clear();
    }

    /// Starts recording every packet injected by every NIC from now on into
    /// an in-memory trace; collect it with
    /// [`take_recorded_trace`](Self::take_recorded_trace). Restarting
    /// recording discards anything recorded so far, and
    /// [`reset`](Self::reset) rebuilds the NIC sources cold (recording off).
    pub fn record_trace(&mut self) {
        for nic in &mut self.nics {
            nic.source_mut().start_recording();
        }
    }

    /// Stops recording and returns everything recorded since
    /// [`record_trace`](Self::record_trace) as one trace, events sorted by
    /// `(cycle, source)`. Returns an empty trace when recording was never
    /// started.
    pub fn take_recorded_trace(&mut self) -> Trace {
        let mut events = Vec::new();
        for nic in &mut self.nics {
            events.append(&mut nic.source_mut().take_recorded_events());
        }
        Trace::from_events(self.config.k, events)
    }

    /// Replaces every NIC's traffic source with a deterministic replayer of
    /// its per-node slice of `trace`. A subsequent run over the same phase
    /// schedule reproduces the recorded run bit-for-bit; nodes without
    /// events simply stay quiet. [`set_rate`](Self::set_rate) becomes a
    /// no-op on replay sources, and [`reset`](Self::reset) restores live
    /// Bernoulli generation.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] when the trace was recorded on a mesh of
    /// a different side length than this network's.
    pub fn load_trace(&mut self, trace: &Trace) -> Result<(), NocError> {
        if trace.k() != self.config.k {
            return Err(ConfigError::InvalidPattern {
                reason: format!(
                    "trace recorded on a {0}x{0} mesh cannot replay on a {1}x{1} mesh",
                    trace.k(),
                    self.config.k
                ),
            }
            .into());
        }
        let mut per_node: Vec<Vec<TraceEvent>> = vec![Vec::new(); self.nics.len()];
        for event in trace.events() {
            per_node[usize::from(event.source)].push(*event);
        }
        for (nic, events) in self.nics.iter_mut().zip(per_node) {
            nic.set_source(TrafficSource::replay(nic.node(), events));
        }
        Ok(())
    }

    /// Merged activity counters of all routers and NICs.
    ///
    /// Routers skipped by the active-set scheduler never stepped, so their
    /// individual `cycles` counters undercount wall-clock cycles; the
    /// idle-cycle ledger makes up the difference here, keeping the merged
    /// counters identical to stepping every router every cycle.
    #[must_use]
    pub fn counters(&self) -> ActivityCounters {
        let mut total = ActivityCounters::new();
        for router in &self.routers {
            total.merge(router.counters());
        }
        for nic in &self.nics {
            total.merge(nic.counters());
        }
        total.cycles += self.idle_router_cycles;
        total
    }

    /// Total flits currently buffered in routers, queued in NICs or in
    /// flight on links (used to detect drain completion and saturation).
    #[must_use]
    pub fn in_flight_flits(&self) -> usize {
        let buffered: usize = self.routers.iter().map(Router::buffered_flits).sum();
        let queued: usize = self.nics.iter().map(Nic::queued_flits).sum();
        // Between steps every live slab handle is exactly one scheduled
        // flit-lane event, so the slab doubles as the on-links scoreboard.
        debug_assert_eq!(self.slab.live(), self.flit_lane.pending());
        buffered + queued + self.slab.live()
    }

    /// Number of tracked packets that have not yet reached every destination.
    #[must_use]
    pub fn outstanding_tracked_packets(&self) -> usize {
        // Entries leave the scoreboard at their last reception, so every
        // entry still present is outstanding.
        self.scoreboard.len()
    }

    /// Total packets injected by all NICs so far.
    #[must_use]
    pub fn injected_packets(&self) -> u64 {
        self.nics.iter().map(Nic::injected_packets).sum()
    }

    /// Prints the location of every buffered or queued flit to stderr
    /// (diagnostic aid used by tests and examples when a network fails to
    /// drain).
    pub fn debug_dump(&self) {
        for (node, nic) in self.nics.iter().enumerate() {
            if nic.queued_flits() > 0 {
                eprintln!("nic {node}: {} queued flits", nic.queued_flits());
            }
        }
        let busy = || {
            self.routers
                .iter()
                .enumerate()
                .filter(|(_, router)| router.buffered_flits() > 0)
        };
        for (node, router) in busy() {
            for port in Port::ALL {
                let input = router.input(port);
                for vc_idx in 0..input.vc_count() {
                    let vc = input.vc_at(vc_idx);
                    if vc.occupancy() > 0 {
                        let head = vc.head().expect("non-empty VC has a head");
                        eprintln!(
                            "router {node} port {port} vc#{vc_idx} ({:?} vc {:?}): {} flits, head packet {} kind {:?} dests {:?} route {:?}",
                            vc.class(),
                            vc.id(),
                            vc.occupancy(),
                            head.packet_id(),
                            head.kind(),
                            head.destinations(),
                            vc.route(),
                        );
                    }
                }
            }
        }
        for (node, router) in busy() {
            for port in Port::ALL {
                if port.is_local() {
                    continue;
                }
                let output = router.output(port);
                for class in noc_types::MessageClass::ALL {
                    for vc in 0..2u8 {
                        if let Some(state) = output.downstream_vc(class, vc) {
                            if state.allocated || state.credits < state.depth() {
                                eprintln!(
                                    "router {node} output {port} {class:?} vc {vc}: allocated={} credits={} tail_sent={}",
                                    state.allocated, state.credits, state.tail_sent
                                );
                            }
                        }
                    }
                }
            }
        }
        for (id, tracked) in &self.scoreboard {
            eprintln!(
                "scoreboard: packet {id} still needs {} receptions (created {})",
                tracked.remaining_receptions, tracked.created_at
            );
        }
    }

    fn register_packet(&mut self, registration: PacketRegistration) {
        // Packets created outside a measurement window are never recorded
        // anywhere (receptions of unknown ids are ignored), so they skip the
        // scoreboard entirely — at overdriven rates the map would otherwise
        // grow without bound and put a cache-missing lookup on every
        // reception.
        if !self.measuring {
            return;
        }
        debug_assert!(
            registration.expected_receptions >= 1,
            "a packet with no destinations would never leave the scoreboard"
        );
        self.throughput
            .record_injection(u64::from(registration.flits_per_reception));
        self.scoreboard.insert(
            registration.id,
            TrackedPacket {
                created_at: registration.created_at,
                remaining_receptions: registration.expected_receptions,
            },
        );
    }

    fn apply_reception(&mut self, reception: Reception) {
        if self.log_deliveries {
            self.deliveries.push(reception);
        }
        if self.measuring {
            self.throughput.record_reception(u64::from(reception.flits));
        }
        if let Some(tracked) = self.scoreboard.get_mut(&reception.id) {
            tracked.remaining_receptions = tracked.remaining_receptions.saturating_sub(1);
            if tracked.remaining_receptions == 0 {
                self.latency.record(reception.at - tracked.created_at);
                self.scoreboard.remove(&reception.id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetworkVariant, NocConfig};

    fn run_cycles(network: &mut Network, cycles: u64, inject: bool) {
        for _ in 0..cycles {
            network.step(inject);
        }
    }

    #[test]
    fn an_idle_network_stays_idle() {
        let mut network = Network::new(NocConfig::proposed_chip().unwrap(), 0.0).unwrap();
        run_cycles(&mut network, 100, true);
        assert_eq!(network.in_flight_flits(), 0);
        assert_eq!(network.injected_packets(), 0);
        assert_eq!(network.latency().count(), 0);
    }

    #[test]
    fn low_load_traffic_is_delivered_and_drains() {
        let mut network = Network::new(NocConfig::proposed_chip().unwrap(), 0.05).unwrap();
        network.set_measuring(true);
        run_cycles(&mut network, 500, true);
        run_cycles(&mut network, 300, false);
        assert!(network.injected_packets() > 0);
        assert!(network.latency().count() > 0, "packets must complete");
        assert_eq!(network.in_flight_flits(), 0, "the network must drain");
        assert_eq!(network.outstanding_tracked_packets(), 0);
    }

    #[test]
    fn proposed_network_achieves_near_single_cycle_hops_at_low_load() {
        // With per-node seeds (no artifact) and a very low rate, the average
        // mixed-traffic latency should sit close to the theoretical limit
        // (hops + 2 NIC cycles + serialization).
        let config = NocConfig::proposed_chip()
            .unwrap()
            .with_seed_mode(noc_traffic::SeedMode::PerNode);
        let mut network = Network::new(config, 0.01).unwrap();
        network.set_measuring(true);
        run_cycles(&mut network, 3000, true);
        run_cycles(&mut network, 500, false);
        let avg = network.latency().mean();
        assert!(network.latency().count() > 20);
        // Mixed traffic limit is ~8 cycles; allow generous contention slack.
        assert!(avg < 12.0, "average latency too high: {avg}");
        assert!(avg >= 5.0, "average latency implausibly low: {avg}");
    }

    #[test]
    fn baseline_broadcasts_are_much_slower_than_proposed() {
        let run = |variant| {
            let config = NocConfig::variant(variant)
                .unwrap()
                .with_mix(noc_traffic::TrafficMix::broadcast_only())
                .with_seed_mode(noc_traffic::SeedMode::PerNode);
            let mut network = Network::new(config, 0.02).unwrap();
            network.set_measuring(true);
            run_cycles(&mut network, 2000, true);
            run_cycles(&mut network, 1000, false);
            network.latency().mean()
        };
        let baseline = run(NetworkVariant::FullSwingUnicast);
        let proposed = run(NetworkVariant::LowSwingBroadcastBypass);
        assert!(
            baseline > 1.5 * proposed,
            "baseline {baseline:.1} cycles should be well above proposed {proposed:.1}"
        );
    }

    #[test]
    fn bypassing_actually_happens_on_the_proposed_network() {
        let config = NocConfig::proposed_chip()
            .unwrap()
            .with_seed_mode(noc_traffic::SeedMode::PerNode);
        let mut network = Network::new(config, 0.02).unwrap();
        run_cycles(&mut network, 1000, true);
        let counters = network.counters();
        assert!(counters.bypasses > 0, "lookahead bypassing must occur");
        assert!(
            counters.bypass_fraction() > 0.5,
            "most hops should bypass at low load"
        );
        // The baseline never bypasses.
        let baseline = NocConfig::variant(NetworkVariant::FullSwingUnicast).unwrap();
        let mut baseline_net = Network::new(baseline, 0.02).unwrap();
        run_cycles(&mut baseline_net, 1000, true);
        assert_eq!(baseline_net.counters().bypasses, 0);
    }

    #[test]
    fn bypass_fraction_is_a_true_fraction_under_broadcast_traffic() {
        // Broadcast flits fork at bypass time and eject locally mid-tree;
        // counting bypasses per flit instead of per link traversal used to
        // push the ratio above 1.0 on broadcast-heavy runs.
        let config = NocConfig::proposed_chip()
            .unwrap()
            .with_mix(noc_traffic::TrafficMix::broadcast_only());
        let mut network = Network::new(config, 0.02).unwrap();
        run_cycles(&mut network, 2000, true);
        let counters = network.counters();
        assert!(counters.bypasses > 0, "broadcasts must bypass at low load");
        let fraction = counters.bypass_fraction();
        assert!(
            (0.0..=1.0).contains(&fraction),
            "bypass fraction must be a fraction: {fraction}"
        );
    }

    #[test]
    fn reset_reproduces_a_cold_network_exactly() {
        let config = NocConfig::proposed_chip()
            .unwrap()
            .with_seed_mode(noc_traffic::SeedMode::PerNode);
        let run = |network: &mut Network| {
            network.set_rate(0.1);
            network.set_measuring(true);
            run_cycles(network, 400, true);
            run_cycles(network, 400, false);
            (
                network.injected_packets(),
                network.latency().mean(),
                network.throughput().received_flits(),
                network.counters(),
            )
        };
        // Cold reference with the target seed.
        let mut cold = Network::new(config.with_base_seed(0x1234), 0.1).unwrap();
        let reference = run(&mut cold);
        // Warm network: drive it mid-flight on a different seed, then reset.
        let mut warm = Network::new(config, 0.2).unwrap();
        run_cycles(&mut warm, 300, true);
        assert!(warm.in_flight_flits() > 0, "warm network should be loaded");
        warm.reset(0x1234);
        assert_eq!(warm.now(), 0);
        assert_eq!(warm.in_flight_flits(), 0);
        assert_eq!(run(&mut warm), reference, "warm reset diverged from cold");
    }

    #[test]
    fn reset_folds_wide_seeds_into_the_lfsr_domain() {
        let mut network = Network::new(NocConfig::proposed_chip().unwrap(), 0.0).unwrap();
        network.reset(0xABCD);
        assert_eq!(network.config().base_seed, 0xABCD);
        network.reset(0x0001_0000_0000_ABCD);
        assert_eq!(network.config().base_seed, 0xABCC, "limbs are XOR-folded");
        network.reset(0);
        assert_ne!(network.config().base_seed, 0, "zero must be remapped");
    }

    #[test]
    fn outstanding_packets_are_the_injected_ones_not_yet_completed() {
        // Measured from cycle 0, every injected packet is tracked, so the
        // O(1) scoreboard poll must equal injected minus completed at every
        // step — on the multicast router, on the NIC-duplicating baseline
        // and on a single node (unicast only), through injection and drain.
        let per_node = |config: NocConfig| config.with_seed_mode(noc_traffic::SeedMode::PerNode);
        let configs = [
            per_node(NocConfig::variant(NetworkVariant::LowSwingBroadcastBypass).unwrap()),
            per_node(NocConfig::variant(NetworkVariant::FullSwingUnicast).unwrap()),
            NocConfig::proposed_chip()
                .unwrap()
                .with_side(1)
                .with_mix(noc_traffic::TrafficMix::unicast_only()),
        ];
        for (case, config) in configs.into_iter().enumerate() {
            let mut network = Network::new(config, 0.06).unwrap();
            network.set_measuring(true);
            for cycle in 0..1500 {
                network.step(cycle < 800);
                assert_eq!(
                    network.outstanding_tracked_packets() as u64,
                    network.injected_packets() - network.latency().count(),
                    "case {case} at cycle {cycle}"
                );
            }
            assert!(network.latency().count() > 0);
            assert_eq!(network.in_flight_flits(), 0);
            assert_eq!(network.outstanding_tracked_packets(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "packet has at least one destination")]
    fn injecting_a_packet_without_destinations_panics() {
        let mut network = Network::new(NocConfig::proposed_chip().unwrap(), 0.0).unwrap();
        network.inject_packet(noc_types::Packet::new(
            1,
            0,
            noc_types::DestinationSet::empty(),
            noc_types::PacketKind::Request,
            0,
        ));
    }

    #[test]
    fn conservation_no_flit_is_lost_or_duplicated() {
        // Inject for a while, drain completely, and check that every tracked
        // packet reached all of its destinations.
        let config = NocConfig::proposed_chip().unwrap();
        let mut network = Network::new(config, 0.08).unwrap();
        network.set_measuring(true);
        run_cycles(&mut network, 1500, true);
        run_cycles(&mut network, 1500, false);
        assert_eq!(network.in_flight_flits(), 0, "network must fully drain");
        assert_eq!(
            network.outstanding_tracked_packets(),
            0,
            "every measured packet must complete all receptions"
        );
        assert!(network.throughput().received_flits() > 0);
    }
}
