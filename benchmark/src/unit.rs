//! The unit-cost pass: host nanoseconds of one call into each layer's public
//! functions, measured from outside.
//!
//! These are the per-layer numbers an optimisation of that layer moves
//! first. Multiplied by the exact event counts of a step workload they give
//! the cycle-budget *estimate* (see `budget`); in-program spans (ROADMAP
//! item 2(a)) will replace that estimate.
//!
//! Every unit is the median over [`BATCHES`] batches of the mean time per
//! work unit in the batch; inputs and results pass through `black_box`.

use std::hint::black_box;
use std::time::Instant;

use mesh_noc::{Network, NocConfig};
use noc_router::{Lookahead, MatrixArbiter, RoundRobinArbiter, Router, RouterConfig, RouterOutput};
use noc_sim::{bernoulli_threshold, EventWheel, FlitSlab, LatencyStats, PrbsGenerator};
use noc_topology::{routing, Mesh};
use noc_traffic::{SeedMode, SpatialPattern, TrafficGenerator, TrafficMix};
use noc_types::{ArrayFifo, Coord, Credit, DestinationSet, Flit, Packet, PacketKind, Port};

use crate::stats::median;
use crate::workloads::Size;

const BATCHES: usize = 9;

/// Median over the batches of `ns / units`, where each call of `f` returns
/// the work units it did. One extra batch runs first, untimed, to warm
/// caches and buffers.
fn ns_per_unit(calls: u64, mut f: impl FnMut() -> u64) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    for batch in 0..=BATCHES {
        let mut units = 0;
        let start = Instant::now();
        for _ in 0..calls {
            units += f();
        }
        let ns = start.elapsed().as_nanos() as f64;
        if batch > 0 {
            samples.push(ns / units.max(1) as f64);
        }
    }
    median(&samples)
}

fn unicast_flit(id: u64) -> Flit {
    let packet = Packet::new(id, 0, DestinationSet::unicast(7), PacketKind::Request, 0);
    let mut flit = packet.to_flits().remove(0);
    flit.set_vc((id % 4) as u8);
    flit
}

/// `flit` with the lookahead an upstream router would send ahead of it.
fn with_lookahead(mesh: &Mesh, at: Coord, flit: Flit) -> (Flit, Lookahead) {
    let lookahead = Lookahead::new(
        flit.id(),
        flit.message_class(),
        flit.vc().expect("callers assign the VC"),
        routing::requested_ports(mesh, at, flit.destinations()),
    );
    (flit, lookahead)
}

/// Steps `router` once and returns a credit for every flit that left on a
/// mesh link, as an always-ready downstream router would, so flow control
/// never stalls the loop. Returns the departures seen.
fn step_and_credit(
    router: &mut Router,
    now: u64,
    slab: &mut FlitSlab,
    out: &mut RouterOutput,
) -> u64 {
    router.step_into(now, slab, out);
    for departure in &out.departures {
        let flit = slab.take(departure.flit);
        if let (false, Some(vc)) = (departure.port.is_local(), flit.vc()) {
            router.accept_credit(departure.port, Credit::new(flit.message_class(), vc));
        }
    }
    out.departures.len() as u64
}

/// Runs every unit and returns `(metric name, value)` pairs.
pub fn run(size: Size) -> Vec<(String, f64)> {
    let calls = |full: u64| size.scale(full);
    let mut units: Vec<(String, f64)> = Vec::new();
    let mut add = |name: &str, value: f64| units.push((name.to_owned(), value));

    // ------------------------------------------------------------ noc-types
    add("noc-types.flit_bytes", std::mem::size_of::<Flit>() as f64);
    add(
        "noc-types.destset_bytes",
        std::mem::size_of::<DestinationSet>() as f64,
    );
    let packet = Packet::new(1, 0, DestinationSet::unicast(7), PacketKind::Response, 0);
    let mut flits = Vec::with_capacity(8);
    add(
        "noc-types.packet_to_flits_ns",
        ns_per_unit(calls(100_000), || {
            flits.clear();
            black_box(&packet).write_flits_into(&mut flits);
            black_box(&flits);
            1
        }),
    );
    let flit = unicast_flit(1);
    let mut fifo: ArrayFifo<Flit, 4> = ArrayFifo::new();
    add(
        "noc-types.fifo_push_pop_ns",
        ns_per_unit(calls(400_000), || {
            fifo.push_back(black_box(&flit).clone());
            black_box(fifo.pop_front());
            1
        }),
    );

    // --------------------------------------------------------- noc-topology
    let mesh = Mesh::new(8).expect("8x8 is a valid mesh");
    let centre = Coord::new(3, 3);
    let broadcast = DestinationSet::broadcast(8, mesh.id_of(centre));
    add(
        "noc-topology.requested_ports_ns",
        ns_per_unit(calls(20_000), || {
            black_box(routing::requested_ports(
                &mesh,
                centre,
                black_box(&broadcast),
            ));
            1
        }),
    );
    add(
        "noc-topology.multicast_branches_ns",
        ns_per_unit(calls(20_000), || {
            black_box(routing::multicast_branches(
                &mesh,
                centre,
                black_box(&broadcast),
            ));
            1
        }),
    );

    // -------------------------------------------------------------- noc-sim
    const EVENTS_PER_CYCLE: u64 = 8;
    let mut wheel: EventWheel<u64> = EventWheel::new(4);
    let mut now = 0;
    add(
        "noc-sim.wheel_event_ns",
        ns_per_unit(calls(100_000), || {
            for event in 0..EVENTS_PER_CYCLE {
                wheel.schedule(now + 2, event);
            }
            let mut due = wheel.take_due(now);
            while let Some(event) = due.pop_front() {
                black_box(event);
            }
            wheel.restore(due);
            now += 1;
            EVENTS_PER_CYCLE
        }),
    );
    let mut slab = FlitSlab::new();
    add(
        "noc-sim.slab_insert_take_ns",
        ns_per_unit(calls(400_000), || {
            let handle = slab.insert(black_box(&flit).clone());
            black_box(slab.take(handle));
            1
        }),
    );
    const REPLICAS: u64 = 3;
    add(
        "noc-sim.slab_replica_ns",
        ns_per_unit(calls(100_000), || {
            let base = slab.insert(black_box(&flit).clone());
            let replicas =
                [5, 6, 7].map(|d| slab.replicate(base, DestinationSet::unicast(d), 1, Some(true)));
            slab.release(base);
            for replica in replicas {
                black_box(slab.take(replica));
            }
            REPLICAS
        }),
    );
    let mut latency = LatencyStats::with_bins(4096);
    let mut sample = 0u64;
    add(
        "noc-sim.latency_record_ns",
        ns_per_unit(calls(1_000_000), || {
            sample = sample.wrapping_add(0x9E37_79B9);
            latency.record(black_box(sample % 300));
            1
        }),
    );
    add(
        "noc-sim.latency_percentile_ns",
        ns_per_unit(calls(20_000), || {
            black_box(latency.percentile(black_box(0.99)));
            1
        }),
    );
    // The low-load workload's coin: 0.005 flits/node/cycle of unicast-only
    // traffic.
    let threshold =
        bernoulli_threshold(0.005 / TrafficMix::unicast_only().expected_flits_per_packet());
    let mut prbs = PrbsGenerator::new(0xACE1);
    add(
        "noc-sim.prbs_coin_ns",
        ns_per_unit(calls(1_000_000), || {
            black_box(prbs.coin(black_box(threshold)));
            1
        }),
    );
    add(
        "noc-sim.prbs_scout_skip_ns",
        ns_per_unit(calls(2_000), || {
            let run = prbs.scout_coin_run(black_box(threshold), 4096);
            prbs.skip_coin_flips(run + 1);
            run + 1
        }),
    );

    // ----------------------------------------------------------- noc-router
    let chip = Mesh::new(4).expect("4x4 is a valid mesh");
    let at = Coord::new(1, 1);
    let mut out = RouterOutput::default();

    let mut router = Router::new(&RouterConfig::proposed(true), chip, at);
    let mut cycle = 0;
    add(
        "noc-router.idle_step_ns",
        ns_per_unit(calls(200_000), || {
            cycle += 1;
            router.step_into(cycle, &mut slab, &mut out);
            1
        }),
    );
    // Flits and their lookaheads are built outside the timed calls, one per
    // VC: a hop is accept + step + credit return, nothing else.
    let arriving: Vec<(Flit, Lookahead)> = (0..4)
        .map(|id| with_lookahead(&chip, at, unicast_flit(id)))
        .collect();
    add(
        "noc-router.bypass_hop_ns",
        ns_per_unit(calls(20_000), || {
            cycle += 1;
            let (flit, lookahead) = &arriving[(cycle % 4) as usize];
            router.accept_flit(Port::West, flit.clone());
            router.accept_lookahead(Port::West, *lookahead);
            step_and_credit(&mut router, cycle, &mut slab, &mut out)
        }),
    );
    // A broadcast from node (0,1) travelling east: at (1,1) it forks north,
    // south, east and to the local NIC.
    let source = Coord::new(0, 1);
    let east = routing::multicast_branches(
        &chip,
        source,
        &DestinationSet::broadcast(4, chip.id_of(source)),
    )
    .iter()
    .find(|branch| branch.port == Port::East)
    .expect("a broadcast from column 0 travels east")
    .destinations;
    let forking: Vec<(Flit, Lookahead)> = (0..4)
        .map(|id| {
            let packet = Packet::new(id, chip.id_of(source), east, PacketKind::Request, 0);
            let mut flit = packet.to_flits().remove(0);
            flit.set_vc(id as u8);
            with_lookahead(&chip, at, flit)
        })
        .collect();
    let mut fork_router = Router::new(&RouterConfig::proposed(true), chip, at);
    add(
        "noc-router.fork_hop_ns",
        ns_per_unit(calls(20_000), || {
            cycle += 1;
            let (flit, lookahead) = &forking[(cycle % 4) as usize];
            fork_router.accept_flit(Port::West, flit.clone());
            fork_router.accept_lookahead(Port::West, *lookahead);
            // One unit per forking hop, however many branches left.
            step_and_credit(&mut fork_router, cycle, &mut slab, &mut out).min(1)
        }),
    );
    // Buffered path: the baseline router has no bypass, so every flit is
    // written, arbitrated through mSA-I/mSA-II and read. A new flit enters
    // only when its VC has drained, as a credit-limited upstream would send
    // it; the cost is per departure.
    let mut buffered = Router::new(&RouterConfig::aggressive_baseline(), chip, at);
    add(
        "noc-router.buffered_hop_ns",
        ns_per_unit(calls(20_000), || {
            cycle += 1;
            let flit = &arriving[(cycle % 4) as usize].0;
            let vc = flit.vc().expect("set at construction");
            if buffered
                .input(Port::West)
                .vc(flit.message_class(), vc)
                .is_empty()
            {
                buffered.accept_flit(Port::West, flit.clone());
            }
            step_and_credit(&mut buffered, cycle, &mut slab, &mut out)
        }),
    );
    let mut round_robin = RoundRobinArbiter::new(6);
    let mut pattern = 0u32;
    add(
        "noc-router.msa1_arbitrate_ns",
        ns_per_unit(calls(1_000_000), || {
            pattern = pattern.wrapping_add(0x9E37_79B9);
            black_box(round_robin.arbitrate_mask(pattern & 0x3F | 1));
            1
        }),
    );
    let mut matrix = MatrixArbiter::new(5);
    add(
        "noc-router.msa2_arbitrate_ns",
        ns_per_unit(calls(1_000_000), || {
            pattern = pattern.wrapping_add(0x9E37_79B9);
            black_box(matrix.arbitrate_mask(pattern & 0x1F | 1));
            1
        }),
    );

    // ---------------------------------------------------------- noc-traffic
    // A rate of one packet per cycle, so every call builds a packet: coin,
    // kind pick, destination draw and `Packet` construction.
    let mix = TrafficMix::mixed();
    let mut generator = TrafficGenerator::new(
        5,
        8,
        mix,
        SeedMode::PerNode,
        mix.expected_flits_per_packet(),
    );
    add(
        "noc-traffic.generate_ns",
        ns_per_unit(calls(100_000), || {
            cycle += 1;
            u64::from(black_box(generator.generate(cycle)).is_some())
        }),
    );
    let uniform = SpatialPattern::uniform_legacy();
    add(
        "noc-traffic.pattern_draw_ns",
        ns_per_unit(calls(1_000_000), || {
            black_box(uniform.draw(&mut prbs, 5, 8));
            1
        }),
    );

    // ------------------------------------------------------------- mesh-noc
    for k in [4u16, 8, 16] {
        let config = NocConfig::proposed_chip()
            .expect("valid preset")
            .with_side(k)
            .with_seed_mode(SeedMode::PerNode);
        let news = calls(2_000 / u64::from(k * k));
        add(
            &format!("mesh-noc.network_new_us.k{k}"),
            ns_per_unit(news.max(1), || {
                black_box(Network::new(black_box(config), 0.1).expect("valid config"));
                1
            }) / 1e3,
        );
        // Reset of a dirty network, the turnaround a sweep worker pays
        // between points; re-dirtying is untimed.
        let mut network = Network::new(config, 0.1).expect("valid config");
        let mut resets = Vec::with_capacity(BATCHES);
        for seed in 0..=BATCHES as u64 {
            for _ in 0..size.scale(100) {
                network.step(true);
            }
            let start = Instant::now();
            network.reset(seed + 1);
            let ns = start.elapsed().as_nanos() as f64;
            if seed > 0 {
                resets.push(ns / 1e3);
            }
        }
        add(&format!("mesh-noc.network_reset_us.k{k}"), median(&resets));
    }
    units
}
