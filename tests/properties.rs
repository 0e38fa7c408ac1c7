//! Property-based tests over the core data structures and invariants.

use noc_repro::noc::{ClosedLoop, Network, NocConfig, ServingOpts};
use noc_repro::router::{MatrixArbiter, RoundRobinArbiter};
use noc_repro::sim::{bernoulli_threshold, FlitHandle, FlitSlab, Lfsr, PrbsGenerator};
use noc_repro::topology::limits::MeshLimits;
use noc_repro::topology::{routing, Mesh};
use noc_repro::traffic::SpatialPattern;
use noc_repro::types::{
    ArrayFifo, Coord, DestinationSet, Packet, PacketKind, Port, PortSet, Trace, TraceEvent,
};
use proptest::prelude::*;

proptest! {
    // ------------------------------------------------------------ array fifo

    /// Pins `ArrayFifo` — the inline ring behind every VC buffer — against a
    /// `VecDeque` reference model under random op sequences. Each word
    /// encodes (op, value) as `value * 6 + op`: op 0 pushes (skipped when
    /// full, since the fifo panics by contract), 1 pops, 2 peeks, 3 peeks
    /// mutably and edits, 4 clears, 5 checks `get` at `value % capacity`.
    #[test]
    fn array_fifo_matches_a_vecdeque_model(ops in proptest::collection::vec(0u32..6000, 0..200)) {
        let mut fifo: ArrayFifo<u32, 4> = ArrayFifo::new();
        let mut model: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        for word in ops {
            let (op, value) = (word % 6, word / 6);
            match op {
                0 => {
                    if !fifo.is_full() {
                        fifo.push_back(value);
                        model.push_back(value);
                    }
                }
                1 => prop_assert_eq!(fifo.pop_front(), model.pop_front()),
                2 => prop_assert_eq!(fifo.front(), model.front()),
                3 => {
                    if let Some(head) = fifo.front_mut() {
                        *head ^= value;
                    }
                    if let Some(head) = model.front_mut() {
                        *head ^= value;
                    }
                }
                4 => {
                    fifo.clear();
                    model.clear();
                }
                _ => {
                    let i = value as usize % fifo.capacity();
                    prop_assert_eq!(fifo.get(i), model.get(i));
                }
            }
            prop_assert_eq!(fifo.len(), model.len());
            prop_assert_eq!(fifo.is_empty(), model.is_empty());
            prop_assert_eq!(fifo.iter().copied().collect::<Vec<_>>(),
                            model.iter().copied().collect::<Vec<_>>());
        }
    }

    // ------------------------------------------------------------ coordinates

    #[test]
    fn coord_node_id_round_trips(k in 1u16..=16, x in 0u16..16, y in 0u16..16) {
        let coord = Coord::new(x % k, y % k);
        prop_assert_eq!(Coord::from_node_id(coord.node_id(k), k), coord);
    }

    #[test]
    fn manhattan_distance_is_a_metric(ax in 0u16..8, ay in 0u16..8, bx in 0u16..8, by in 0u16..8, cx in 0u16..8, cy in 0u16..8) {
        let (a, b, c) = (Coord::new(ax, ay), Coord::new(bx, by), Coord::new(cx, cy));
        prop_assert_eq!(a.manhattan_distance(b), b.manhattan_distance(a));
        prop_assert_eq!(a.manhattan_distance(a), 0);
        prop_assert!(a.manhattan_distance(c) <= a.manhattan_distance(b) + b.manhattan_distance(c));
    }

    // ------------------------------------------------------------ destination sets

    #[test]
    fn destination_set_behaves_like_a_set(ids in proptest::collection::vec(0u16..256, 0..40)) {
        let set: DestinationSet = ids.iter().copied().collect();
        let unique: std::collections::BTreeSet<u16> = ids.iter().copied().collect();
        prop_assert_eq!(set.len(), unique.len());
        for id in &unique {
            prop_assert!(set.contains(*id));
        }
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), unique.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn destination_set_algebra_is_consistent(a in proptest::collection::vec(0u16..64, 0..20),
                                             b in proptest::collection::vec(0u16..64, 0..20)) {
        let sa: DestinationSet = a.into_iter().collect();
        let sb: DestinationSet = b.into_iter().collect();
        let union = sa.union(&sb);
        let inter = sa.intersection(&sb);
        let diff = sa.difference(&sb);
        prop_assert_eq!(union.len() + inter.len(), sa.len() + sb.len());
        prop_assert_eq!(diff.len() + inter.len(), sa.len());
        for id in inter.iter() {
            prop_assert!(sa.contains(id) && sb.contains(id));
        }
        for id in diff.iter() {
            prop_assert!(sa.contains(id) && !sb.contains(id));
        }
    }

    // ------------------------------------------------------------ port sets

    #[test]
    fn port_set_round_trips(ports in proptest::collection::vec(0usize..5, 0..5)) {
        let set: PortSet = ports.iter().filter_map(|&i| Port::from_index(i)).collect();
        for i in 0..5 {
            let port = Port::from_index(i).unwrap();
            prop_assert_eq!(set.contains(port), ports.contains(&i));
        }
        prop_assert!(set.len() <= 5);
    }

    // ------------------------------------------------------------ packets and flits

    #[test]
    fn packets_segment_into_well_formed_flits(id in 0u64..1_000_000, src in 0u16..16, dst in 0u16..16,
                                              kind in prop_oneof![Just(PacketKind::Request), Just(PacketKind::Response)]) {
        let dst = if dst == src { (dst + 1) % 16 } else { dst };
        let packet = Packet::new(id, src, DestinationSet::unicast(dst), kind, 42);
        let flits = packet.to_flits();
        prop_assert_eq!(flits.len(), kind.flit_count());
        prop_assert!(flits[0].kind().is_head());
        prop_assert!(flits[flits.len() - 1].kind().is_tail());
        for (i, flit) in flits.iter().enumerate() {
            prop_assert_eq!(flit.sequence() as usize, i);
            prop_assert_eq!(flit.packet_id(), id);
            prop_assert_eq!(flit.source(), src);
            prop_assert_eq!(flit.created_at(), 42);
            // Only the first and last flits may be head/tail.
            if i != 0 { prop_assert!(!flit.kind().is_head()); }
            if i != flits.len() - 1 { prop_assert!(!flit.kind().is_tail()); }
        }
    }

    // ------------------------------------------------------------ routing

    #[test]
    fn xy_routes_are_minimal_and_stay_in_the_mesh(k in 2u16..=8, from in 0u16..64, to in 0u16..64) {
        let mesh = Mesh::new(k).unwrap();
        let from = Coord::from_node_id(from % (k * k), k);
        let to = Coord::from_node_id(to % (k * k), k);
        let route = routing::xy_route(&mesh, from, to);
        prop_assert_eq!(route.len() as u32, from.manhattan_distance(to) + 1);
        for hop in &route {
            prop_assert!(mesh.contains(*hop));
        }
        // Dimension order: once the route starts moving in Y it never moves in X again.
        let mut seen_y = false;
        for pair in route.windows(2) {
            let moved_x = pair[0].x != pair[1].x;
            if seen_y {
                prop_assert!(!moved_x, "route moved in X after moving in Y");
            }
            if pair[0].y != pair[1].y {
                seen_y = true;
            }
        }
    }

    #[test]
    fn multicast_branches_partition_the_destinations(k in 2u16..=8,
                                                     current in 0u16..64,
                                                     dests in proptest::collection::vec(0u16..64, 1..20)) {
        let mesh = Mesh::new(k).unwrap();
        let nodes = k * k;
        let current = Coord::from_node_id(current % nodes, k);
        let dests: DestinationSet = dests.into_iter().map(|d| d % nodes).collect();
        let branches = routing::multicast_branches(&mesh, current, &dests);
        let mut covered = DestinationSet::empty();
        let mut total = 0;
        for branch in &branches {
            total += branch.destinations.len();
            covered = covered.union(&branch.destinations);
        }
        prop_assert_eq!(covered, dests);
        prop_assert_eq!(total, dests.len());
        prop_assert!(branches.len() <= 5);
    }

    #[test]
    fn broadcast_tree_reaches_every_node_with_minimal_links(k in 2u16..=8, source in 0u16..64) {
        let mesh = Mesh::new(k).unwrap();
        let nodes = k * k;
        let source = Coord::from_node_id(source % nodes, k);
        let dests = DestinationSet::broadcast(k, mesh.id_of(source));
        let visited = routing::multicast_tree_nodes(&mesh, source, &dests);
        prop_assert_eq!(visited.len(), usize::from(nodes));
        // A spanning tree of n nodes has exactly n-1 edges.
        prop_assert_eq!(
            routing::multicast_link_traversals(&mesh, source, &dests),
            usize::from(nodes) - 1
        );
    }

    // ------------------------------------------------------------ theoretical limits

    #[test]
    fn limits_are_monotone_in_mesh_size(k in 2u16..=15) {
        let small = MeshLimits::new(k);
        let large = MeshLimits::new(k + 1);
        prop_assert!(large.unicast_average_hops() > small.unicast_average_hops());
        prop_assert!(large.broadcast_average_hops() > small.broadcast_average_hops());
        prop_assert!(large.broadcast_saturation_rate() < small.broadcast_saturation_rate());
        prop_assert!(large.unicast_saturation_rate() <= small.unicast_saturation_rate());
    }

    #[test]
    fn broadcast_channel_load_is_always_ejection_limited(k in 2u16..=16, rate in 0.0f64..1.0) {
        let limits = MeshLimits::new(k);
        prop_assert!(limits.broadcast_ejection_load(rate) >= limits.broadcast_bisection_load(rate));
        prop_assert!((limits.broadcast_max_channel_load(rate) - limits.broadcast_ejection_load(rate)).abs() < 1e-12);
    }

    // ------------------------------------------------------------ arbiters

    #[test]
    fn round_robin_is_work_conserving_and_fair(requests in proptest::collection::vec(any::<bool>(), 1..8)) {
        let mut arb = RoundRobinArbiter::new(requests.len());
        match arb.arbitrate(&requests) {
            Some(winner) => prop_assert!(requests[winner]),
            None => prop_assert!(requests.iter().all(|&r| !r)),
        }
    }

    #[test]
    fn matrix_arbiter_is_work_conserving(requests in proptest::collection::vec(any::<bool>(), 1..8)) {
        let mut arb = MatrixArbiter::new(requests.len());
        match arb.arbitrate(&requests) {
            Some(winner) => prop_assert!(requests[winner]),
            None => prop_assert!(requests.iter().all(|&r| !r)),
        }
    }

    #[test]
    fn round_robin_mask_agrees_with_slice_on_random_32bit_patterns(
        patterns in proptest::collection::vec(0u32..u32::MAX, 1..40),
        size in 1usize..=32,
    ) {
        // Drive a slice-based and a mask-based arbiter through the same
        // request sequence; every pick and every internal rotation state
        // must stay identical.
        let mut slice_arb = RoundRobinArbiter::new(size);
        let mut mask_arb = RoundRobinArbiter::new(size);
        for pattern in patterns {
            let requests: Vec<bool> = (0..size).map(|i| pattern >> i & 1 != 0).collect();
            prop_assert_eq!(slice_arb.arbitrate(&requests), mask_arb.arbitrate_mask(pattern));
            prop_assert_eq!(&slice_arb, &mask_arb);
        }
    }

    #[test]
    fn matrix_mask_agrees_with_slice_on_random_32bit_patterns(
        patterns in proptest::collection::vec(0u32..u32::MAX, 1..40),
        size in 1usize..=32,
    ) {
        let mut slice_arb = MatrixArbiter::new(size);
        let mut mask_arb = MatrixArbiter::new(size);
        for pattern in patterns {
            let requests: Vec<bool> = (0..size).map(|i| pattern >> i & 1 != 0).collect();
            prop_assert_eq!(slice_arb.arbitrate(&requests), mask_arb.arbitrate_mask(pattern));
            prop_assert_eq!(&slice_arb, &mask_arb);
        }
    }

    #[test]
    fn matrix_arbiter_never_starves_anyone(size in 2usize..6, rounds in 10usize..60) {
        let mut arb = MatrixArbiter::new(size);
        let mut wins = vec![0u32; size];
        for _ in 0..rounds * size {
            let winner = arb.arbitrate(&vec![true; size]).unwrap();
            wins[winner] += 1;
        }
        let max = *wins.iter().max().unwrap();
        let min = *wins.iter().min().unwrap();
        prop_assert!(max - min <= 1, "wins spread too wide: {wins:?}");
    }

    // ------------------------------------------------------------ spatial patterns

    #[test]
    fn every_pattern_yields_in_range_never_self_destinations(
        k in 2u16..=8,
        seed in 1u16..,
        source_raw in 0u16..64,
        pick in 0usize..8,
        draws in 1usize..60,
    ) {
        let pattern = SpatialPattern::gallery(k)[pick];
        if pattern.validate(k).is_err() {
            // Bit permutations on non-power-of-two meshes: nothing to check.
            return Ok(());
        }
        let nodes = k * k;
        let source = source_raw % nodes;
        let mut prbs = PrbsGenerator::new(seed);
        for _ in 0..draws {
            let dest = pattern.draw(&mut prbs, source, k);
            prop_assert!(dest < nodes, "{}: dest {dest} outside {nodes} nodes", pattern.name());
            prop_assert!(dest != source, "{} self-addressed from {source}", pattern.name());
        }
    }

    #[test]
    fn pattern_draws_are_bit_identical_for_equal_prbs_state(
        k in 2u16..=8,
        seed in 1u16..,
        source_raw in 0u16..64,
        pick in 0usize..8,
        draws in 1usize..60,
    ) {
        // A pattern is a pure function of (PRBS state, source, k): two
        // generators walked in lockstep must agree on every draw and leave
        // their PRBS states identical — the property the parallel sweep
        // runner's determinism contract rests on.
        let pattern = SpatialPattern::gallery(k)[pick];
        if pattern.validate(k).is_err() {
            return Ok(());
        }
        let source = source_raw % (k * k);
        let mut a = PrbsGenerator::new(seed);
        let mut b = PrbsGenerator::new(seed);
        for _ in 0..draws {
            prop_assert_eq!(pattern.draw(&mut a, source, k), pattern.draw(&mut b, source, k));
            prop_assert!(a == b, "PRBS states diverged");
        }
    }

    #[test]
    fn legacy_uniform_matches_the_historical_draw_for_any_seed(
        k in 2u16..=8,
        seed in 1u16..,
        source_raw in 0u16..64,
        draws in 1usize..60,
    ) {
        let nodes = k * k;
        let source = source_raw % nodes;
        let pattern = SpatialPattern::uniform_legacy();
        let mut via_pattern = PrbsGenerator::new(seed);
        let mut reference = PrbsGenerator::new(seed);
        for _ in 0..draws {
            // The exact inline expression build_packet used pre-refactor.
            let mut expected = reference.next_below(nodes);
            if expected == source {
                expected = (expected + 1) % nodes;
            }
            prop_assert_eq!(pattern.draw(&mut via_pattern, source, k), expected);
        }
    }

    // ------------------------------------------------------------ PRBS

    #[test]
    fn lfsr_sequences_are_deterministic_and_nonzero(seed in 1u16.., steps in 1usize..500) {
        let mut a = Lfsr::new(seed);
        let mut b = Lfsr::new(seed);
        for _ in 0..steps {
            prop_assert_eq!(a.next_bit(), b.next_bit());
            prop_assert_ne!(a.state(), 0);
        }
    }

    #[test]
    fn prbs_chance_is_monotone_in_probability(seed in 1u16.., p in 0.0f64..0.5) {
        let trials = 4000;
        let mut low = PrbsGenerator::new(seed);
        let mut high = PrbsGenerator::new(seed);
        let low_hits: u32 = (0..trials).map(|_| u32::from(low.chance(p))).sum();
        let high_hits: u32 = (0..trials).map(|_| u32::from(high.chance(p + 0.4))).sum();
        prop_assert!(high_hits >= low_hits);
    }

    /// `Lfsr::leap16` must be a drop-in for sixteen serial register steps:
    /// same output word (MSB first), same end state, from any nonzero seed
    /// and across consecutive leaps.
    #[test]
    fn leap16_matches_sixteen_serial_steps(seed in 1u16.., leaps in 1usize..64) {
        let mut serial = Lfsr::new(seed);
        let mut leaping = Lfsr::new(seed);
        for _ in 0..leaps {
            let word = serial.next_bits(16);
            prop_assert_eq!(leaping.leap16(), word);
            prop_assert_eq!(leaping.state(), serial.state());
        }
    }

    /// The nap protocol (`scout_coin_run` + `skip_coin_flips`) must replay
    /// the exact Bernoulli stream a serial `coin` loop draws: every scouted
    /// flip is a loss, the first flip after the run wins, and the generator
    /// lands in the bit-identical end state.
    #[test]
    fn scout_then_skip_replays_the_exact_coin_stream(
        seed in 1u16..,
        p in 0.0f64..0.3,
        draws in 1usize..200,
    ) {
        let threshold = bernoulli_threshold(p);
        let mut serial = PrbsGenerator::new(seed);
        let serial_hits: Vec<bool> = (0..draws).map(|_| serial.coin(threshold)).collect();

        let mut napping = PrbsGenerator::new(seed);
        let mut i = 0usize;
        while i < draws {
            let run = napping
                .scout_coin_run(threshold, (draws - i) as u64)
                .min((draws - i) as u64);
            for hit in &serial_hits[i..i + run as usize] {
                prop_assert!(!hit, "scouted flips must all lose");
            }
            napping.skip_coin_flips(run);
            i += run as usize;
            if i < draws {
                prop_assert!(serial_hits[i], "the flip after a scouted run wins");
                prop_assert!(napping.coin(threshold));
                i += 1;
            }
        }
        prop_assert_eq!(napping, serial);
    }

    // ------------------------------------------------------------- flit slab

    /// Random insert/fork/take/release traffic against a shadow map: a
    /// recycled slot or handle must never alias a payload that is still
    /// live, and every live handle keeps resolving to its own packet.
    #[test]
    fn slab_handle_recycling_never_aliases_live_payloads(
        ops in proptest::collection::vec(0u32..4000, 0..120),
    ) {
        let flit_with_id = |id: u64| {
            let packet = Packet::new(id, 0, DestinationSet::unicast(3), PacketKind::Request, 0);
            packet.to_flits().remove(0)
        };
        let mut slab = FlitSlab::new();
        let mut live: Vec<(FlitHandle, u64)> = Vec::new();
        let mut next_id = 1u64;
        for op in ops {
            match op % 4 {
                0 => {
                    live.push((slab.insert(flit_with_id(next_id)), next_id));
                    next_id += 1;
                }
                1 => {
                    // A two-way fork: base inserted, replicated, released.
                    let base = slab.insert(flit_with_id(next_id));
                    for vc in 0..2 {
                        let replica = slab.replicate(
                            base,
                            DestinationSet::unicast(u16::from(vc)),
                            vc,
                            Some(vc == 0),
                        );
                        live.push((replica, next_id));
                    }
                    slab.release(base);
                    next_id += 1;
                }
                2 if !live.is_empty() => {
                    let victim = (op as usize / 4) % live.len();
                    let (handle, id) = live.swap_remove(victim);
                    prop_assert_eq!(slab.take(handle).packet_id(), id);
                }
                3 if !live.is_empty() => {
                    let victim = (op as usize / 4) % live.len();
                    let (handle, id) = live.swap_remove(victim);
                    prop_assert_eq!(slab.peek_payload(handle).packet_id(), id);
                    slab.release(handle);
                }
                _ => {}
            }
            // The aliasing invariant proper: recycling never redirected a
            // live handle to another packet's payload.
            for (handle, id) in &live {
                prop_assert_eq!(slab.peek_payload(*handle).packet_id(), *id);
            }
            prop_assert_eq!(slab.live(), live.len());
        }
        for (handle, id) in live.drain(..) {
            prop_assert_eq!(slab.take(handle).packet_id(), id);
        }
        prop_assert!(slab.is_empty());
    }

    /// A warm `Network::reset` must leave the pooled flit slab and event
    /// lanes observably cold: nothing in flight, and a post-reset drain with
    /// injection off stays empty instead of replaying stale handles.
    #[test]
    fn warm_network_reset_drains_the_slab_to_cold(seed in 0u64..u64::MAX, steps in 1usize..100) {
        let config = NocConfig::proposed_chip().unwrap().with_side(4);
        let mut network = Network::new(config, 0.4).unwrap();
        for _ in 0..steps {
            network.step(true);
        }
        network.reset(seed);
        prop_assert_eq!(network.in_flight_flits(), 0);
        for _ in 0..32 {
            network.step(false);
        }
        prop_assert_eq!(network.in_flight_flits(), 0);
        prop_assert_eq!(network.latency().count(), 0);
    }

    // ------------------------------------------------------------------ traces

    /// The binary trace format must round-trip arbitrary event lists exactly:
    /// every cycle (LEB128 delta-coded), source, kind and destination set
    /// (unicast / broadcast / general tags) survives `to_bytes` →
    /// `from_bytes` bit for bit, and the decoded events come back in the
    /// canonical `(cycle, source)` order. Each word decodes one event:
    /// low bits pick the cycle gap, then the source node, the packet kind
    /// and the destination-set shape.
    #[test]
    fn trace_serialization_round_trips_arbitrary_events(
        k in 2u16..=16,
        words in proptest::collection::vec(any::<u64>(), 0..80),
    ) {
        let nodes = k * k;
        let mut cycle = 0u64;
        let mut events = Vec::with_capacity(words.len());
        for word in words {
            cycle += word % 300;
            let source = (word >> 9) as u16 % nodes;
            let kind = if word >> 20 & 1 == 0 { PacketKind::Request } else { PacketKind::Response };
            let destinations = match word >> 21 & 3 {
                0 => DestinationSet::unicast((source + 1 + (word >> 23) as u16 % (nodes - 1)) % nodes),
                1 => DestinationSet::broadcast(k, source),
                // A "general" multicast: a handful of nodes spread from the
                // word's high bits, never including the source.
                _ => (0..5)
                    .map(|i| (word >> (23 + 7 * i)) as u16 % nodes)
                    .filter(|&d| d != source)
                    .chain(std::iter::once((source + 1) % nodes))
                    .collect(),
            };
            events.push(TraceEvent { cycle, source, kind, destinations });
        }
        let trace = Trace::from_events(k, events);
        let decoded = Trace::from_bytes(&trace.to_bytes()).expect("well-formed bytes decode");
        prop_assert_eq!(&decoded, &trace);
        prop_assert_eq!(decoded.k(), k);
        for pair in decoded.events().windows(2) {
            prop_assert!(
                (pair[0].cycle, pair[0].source) <= (pair[1].cycle, pair[1].source),
                "decoded events left canonical order"
            );
        }
    }

    /// Double round trip: decoding is a left inverse of encoding on its own
    /// output, so re-encoding a decoded trace yields identical bytes.
    #[test]
    fn trace_bytes_are_a_fixed_point_of_the_round_trip(
        k in 2u16..=8,
        gaps in proptest::collection::vec(0u64..50, 0..40),
    ) {
        let nodes = k * k;
        let mut cycle = 0u64;
        let mut trace = Trace::new(k);
        for (i, gap) in gaps.iter().enumerate() {
            cycle += gap;
            let source = i as u16 % nodes;
            trace.record(TraceEvent {
                cycle,
                source,
                kind: PacketKind::Request,
                destinations: DestinationSet::unicast((source + 1) % nodes),
            });
        }
        let bytes = trace.to_bytes();
        let decoded = Trace::from_bytes(&bytes).expect("well-formed bytes decode");
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    // ------------------------------------------------------- closed-loop serving

    /// Conservation and flow control of the closed-loop request/reply layer:
    /// after any issuing phase, requests only lead replies by what is still
    /// in flight; no client ever exceeds its outstanding window; and a
    /// bounded drain completes every request with **exactly one** reply —
    /// a dropped, duplicated or misrouted reply breaks one of these counts.
    #[test]
    fn closed_loop_conserves_requests_and_respects_the_window(
        clients in 1usize..24,
        window in 1u32..5,
        service_cycles in 0u64..24,
        cycles in 1u64..200,
    ) {
        let config = NocConfig::proposed_chip().unwrap();
        let opts = ServingOpts { window, service_cycles };
        let mut serving = ClosedLoop::new(config, clients, opts).unwrap();
        serving.advance(cycles);
        prop_assert!(serving.requests_issued() > 0);
        prop_assert!(serving.peak_outstanding() <= window, "window bound exceeded");
        // Issued minus completed must equal what is still in flight.
        prop_assert_eq!(
            serving.requests_issued() - serving.replies_completed(),
            serving.outstanding_requests() as u64
        );
        prop_assert!(serving.drain_remaining(50_000), "closed loop failed to drain");
        prop_assert_eq!(serving.replies_completed(), serving.requests_issued());
        prop_assert_eq!(serving.outstanding_requests(), 0);
        prop_assert!(serving.peak_outstanding() <= window, "window bound exceeded in drain");
    }
}
