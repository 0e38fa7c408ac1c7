//! The per-cycle machinery behind [`Network::step`]: the two event-wheel
//! lanes' event types, the three phases of one cycle and the quiescent-NIC
//! nap bookkeeping.
//!
//! Only flits and lookaheads wake a router; a credit just updates the
//! upstream output bank. A router with buffered flits is stepped anyway
//! (the carryover mask), and one without has no head a credit could make
//! eligible, so stepping it would change nothing but its `cycles` counter,
//! which the idle ledger folds back in. Sleeping NICs wait in a min-heap
//! keyed by wake ordinal, so an injecting cycle touches only the NICs that
//! are awake or due.
//!
//! Within one cycle every delivery commutes: a router input port receives at
//! most one flit and one lookahead per cycle (one link per port, one
//! departure per output port), credits are per-VC counter increments, wake
//! bits are idempotent ORs, and the latency/throughput accumulators are sums
//! and histograms. The one order that is observable — the delivery log — is
//! fixed by the ascending-node router walk of phase B2, which schedules
//! every ejection with the same one-cycle delay.

use std::cmp::Reverse;

use noc_router::{Departure, Lookahead, RouterOutput};
use noc_sim::FlitHandle;
use noc_types::{Credit, Cycle, NodeId, Packet, Port, PORT_COUNT};

use super::Network;

/// `port_code` value of a [`FlitEvent`] ejecting to the node's NIC (router
/// input ports use their `Port::index()`, `0..PORT_COUNT`).
const NIC_PORT_CODE: u8 = PORT_COUNT as u8;

/// Cap on how far a NIC scouts its injection coin stream ahead: one full
/// 16-bit LFSR word period. Bounds the scout's worst-case work; a NIC whose
/// idle run is longer simply naps in `MAX_NIC_SCOUT` instalments.
const MAX_NIC_SCOUT: u64 = 65_535;

/// A flit hop in flight on the flit lane: the payload is parked in the
/// network's [`noc_sim::FlitSlab`] and only this small ticket rides the
/// wheel.
#[derive(Debug, Clone, Copy)]
pub(super) struct FlitEvent {
    node: NodeId,
    /// Router input-port index (`Port::from_index`), or [`NIC_PORT_CODE`]
    /// for ejection to the node's NIC.
    port_code: u8,
    handle: FlitHandle,
}

/// A word-sized control message in flight on the word lane.
#[derive(Debug, Clone, Copy)]
pub(super) enum WordEvent {
    Lookahead {
        node: NodeId,
        port: Port,
        lookahead: Lookahead,
    },
    CreditToRouter {
        node: NodeId,
        port: Port,
        credit: Credit,
    },
    CreditToNic {
        node: NodeId,
        credit: Credit,
    },
}

/// Mask with one set bit per NIC of a `count`-node mesh, spread over `words`
/// 64-bit words (the reset value of `nic_awake`).
pub(super) fn full_awake_mask(words: usize, count: usize) -> Vec<u64> {
    let mut mask = vec![u64::MAX; words];
    if !count.is_multiple_of(64) {
        if let Some(last) = mask.last_mut() {
            *last = (1u64 << (count % 64)) - 1;
        }
    }
    mask
}

impl Network {
    /// Advances the network by one cycle.
    ///
    /// `inject` enables the NIC traffic generators for this cycle (warmup and
    /// measurement phases inject; the drain phase does not).
    pub fn step(&mut self, inject: bool) {
        let now = self.clock.now();

        // Phase A: deliver everything scheduled for this cycle — the word
        // lane (credits and lookaheads) first, then the flit lane. Each due
        // slot is detached from its wheel so deliveries can schedule
        // follow-up events, then its (drained) buffer is recycled. Every
        // delivery to a router marks it in the wake mask phase B2 walks.
        let mut due_words = self.word_lane.take_due(now);
        while let Some(event) = due_words.pop_front() {
            self.deliver_word(event);
        }
        self.word_lane.restore(due_words);
        let mut due_flits = self.flit_lane.take_due(now);
        while let Some(event) = due_flits.pop_front() {
            self.deliver_flit(event, now);
        }
        self.flit_lane.restore(due_flits);

        // Phase B1: NICs create and inject traffic. While injecting, the
        // serial contract is one Bernoulli PRBS coin per NIC per cycle;
        // quiescent NICs nap through provably losing flips and replay them
        // in one batched leap at wake (see `maybe_sleep_nic`). In the drain
        // phase only NICs that still hold queued flits can do anything.
        if inject {
            let ordinal = self.inject_steps;
            if self.nic_idle_skip {
                self.wake_due_nics(ordinal);
                for w in 0..self.nic_awake.len() {
                    let mut bits = self.nic_awake[w];
                    while bits != 0 {
                        let node = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        self.tick_nic(node, now, true);
                        self.maybe_sleep_nic(node, ordinal);
                    }
                }
            } else {
                for node in 0..self.nics.len() {
                    self.tick_nic(node, now, true);
                }
            }
            self.inject_steps += 1;
        } else {
            for w in 0..self.nic_active.len() {
                let mut bits = self.nic_active[w];
                while bits != 0 {
                    let node = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.tick_nic(node, now, false);
                }
            }
        }

        // Phase B2: step only the woken routers (ascending node order). Each
        // word is detached first so the carryover bits routers set for the
        // next cycle do not feed back into this one's scan.
        let mut output = std::mem::take(&mut self.router_scratch);
        let mut stepped = 0usize;
        for w in 0..self.router_wake.len() {
            let mut bits = std::mem::take(&mut self.router_wake[w]);
            stepped += bits.count_ones() as usize;
            while bits != 0 {
                let offset = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let node = w * 64 + offset;
                self.step_router(node, now, &mut output);
                if self.routers[node].buffered_flits() > 0 {
                    self.router_wake[w] |= 1 << offset;
                }
            }
        }
        self.router_scratch = output;
        self.idle_router_cycles += (self.routers.len() - stepped) as u64;

        self.clock.tick();
    }

    /// Enqueues an externally created packet at its source node's NIC, as if
    /// the NIC's own source had generated it this cycle. The packet is
    /// segmented and injected through the normal NIC queue (so it competes
    /// for link bandwidth like any other packet), it is registered with the
    /// scoreboard under the measuring flag of this call, and the NIC stays
    /// active through non-injecting steps until its queue drains. This is
    /// the injection path of the closed-loop serving layer, which drives
    /// `step(inject = false)` and feeds every request and reply in by hand.
    ///
    /// # Panics
    ///
    /// Panics when the packet's source node is outside the mesh or its
    /// destination set is empty (such a head flit could never depart).
    pub fn inject_packet(&mut self, packet: Packet) {
        let node = usize::from(packet.source());
        assert!(
            node < self.nics.len(),
            "packet source node is inside the mesh"
        );
        assert!(
            !packet.destinations().is_empty(),
            "packet has at least one destination"
        );
        let registration = self.nics[node].enqueue_packet(packet);
        self.register_packet(registration);
        self.nic_active[node / 64] |= 1 << (node % 64);
    }

    /// Ticks NIC `node` (phase B1), registers and schedules whatever it
    /// produced, and refreshes its bit in the queued-flits mask.
    fn tick_nic(&mut self, node: usize, now: Cycle, inject: bool) {
        let (injection, registration) = self.nics[node].tick(now, inject);
        if let Some(registration) = registration {
            self.register_packet(registration);
        }
        if let Some(injection) = injection {
            let arrival = now + 1;
            let id = node as NodeId;
            let handle = self.slab.insert(injection.flit);
            self.flit_lane.schedule(
                arrival,
                FlitEvent {
                    node: id,
                    port_code: Port::Local.index() as u8,
                    handle,
                },
            );
            if let Some(lookahead) = injection.lookahead {
                self.word_lane.schedule(
                    arrival,
                    WordEvent::Lookahead {
                        node: id,
                        port: Port::Local,
                        lookahead,
                    },
                );
            }
        }
        let bit = 1u64 << (node % 64);
        if self.nics[node].queued_flits() > 0 {
            self.nic_active[node / 64] |= bit;
        } else {
            self.nic_active[node / 64] &= !bit;
        }
    }

    /// Runs router `node`'s allocation/traversal cycle (phase B2) and
    /// schedules its departures and credits, reusing `output` as scratch.
    fn step_router(&mut self, node: usize, now: Cycle, output: &mut RouterOutput) {
        self.routers[node].step_into(now, &mut self.slab, output);
        // Node indices are node ids (at most 256 nodes), so this never
        // truncates — and unlike asking the NIC it touches no NIC memory.
        let id = node as NodeId;
        let link_arrival = now + self.config.link_delay_cycles();
        let credit_arrival = now + self.config.credit_delay_cycles;
        for Departure {
            port,
            flit,
            lookahead,
        } in output.departures.drain(..)
        {
            if port.is_local() {
                self.flit_lane.schedule(
                    now + 1,
                    FlitEvent {
                        node: id,
                        port_code: NIC_PORT_CODE,
                        handle: flit,
                    },
                );
            } else {
                let dir = port.direction().expect("non-local port has a direction");
                let dest_node = self.routers[node]
                    .neighbor_id(dir)
                    .expect("routers never send off the mesh edge");
                let dest_port = dir.opposite().port();
                self.flit_lane.schedule(
                    link_arrival,
                    FlitEvent {
                        node: dest_node,
                        port_code: dest_port.index() as u8,
                        handle: flit,
                    },
                );
                if let Some(lookahead) = lookahead {
                    self.word_lane.schedule(
                        link_arrival,
                        WordEvent::Lookahead {
                            node: dest_node,
                            port: dest_port,
                            lookahead,
                        },
                    );
                }
            }
        }
        for (in_port, credit) in output.credits.drain(..) {
            if in_port.is_local() {
                self.word_lane
                    .schedule(credit_arrival, WordEvent::CreditToNic { node: id, credit });
            } else {
                let dir = in_port.direction().expect("non-local port has a direction");
                let upstream = self.routers[node]
                    .neighbor_id(dir)
                    .expect("credits only go to existing neighbours");
                self.word_lane.schedule(
                    credit_arrival,
                    WordEvent::CreditToRouter {
                        node: upstream,
                        port: dir.opposite().port(),
                        credit,
                    },
                );
            }
        }
    }

    /// Marks the router of `node` as having work this cycle.
    #[inline]
    fn wake_router(&mut self, node: usize) {
        self.router_wake[node / 64] |= 1 << (node % 64);
    }

    /// Puts NIC `node` to sleep after its tick at inject ordinal `ordinal`
    /// if it provably cannot act for a while (empty queue, scouted PRBS
    /// stream promises `idle ≥ 1` losing coin flips). Skipped flips are
    /// replayed in one batched leap at wake, keeping the coin stream
    /// bit-identical to serial ticking.
    fn maybe_sleep_nic(&mut self, node: usize, ordinal: u64) {
        if self.nics[node].queued_flits() > 0 {
            return;
        }
        let idle = self.nics[node].idle_inject_cycles_hint(MAX_NIC_SCOUT);
        if idle == 0 {
            return;
        }
        self.nic_awake[node / 64] &= !(1 << (node % 64));
        self.nic_slept_at[node] = ordinal;
        // A nap of `u64::MAX` (zero rate) lasts until `wake_all_nics`.
        if idle != u64::MAX {
            self.nic_wakes.push(Reverse((ordinal + idle + 1, node)));
        }
    }

    /// Wakes every sleeping NIC whose wake ordinal has arrived, replaying
    /// its napped-over coin flips. Each sleeping NIC has at most one heap
    /// entry (a NIC leaves the heap only by waking), so popping the due
    /// prefix touches exactly the NICs that wake.
    fn wake_due_nics(&mut self, ordinal: u64) {
        while let Some(&Reverse((wake_at, node))) = self.nic_wakes.peek() {
            if wake_at > ordinal {
                break;
            }
            self.nic_wakes.pop();
            // The nap covered inject ordinals slept_at+1 ..= ordinal-1;
            // this ordinal's coin is consumed by the NIC's own tick.
            let missed = ordinal.saturating_sub(self.nic_slept_at[node] + 1);
            if missed > 0 {
                self.nics[node].skip_inject_cycles(missed);
            }
            self.nic_awake[node / 64] |= 1 << (node % 64);
        }
    }

    /// Wakes every sleeping NIC immediately, replaying the coin flips of all
    /// completed inject ordinals it napped through. Called before anything
    /// that invalidates a promised nap (rate changes, toggling the nap
    /// feature).
    pub(super) fn wake_all_nics(&mut self) {
        for node in 0..self.nics.len() {
            let bit = 1u64 << (node % 64);
            if self.nic_awake[node / 64] & bit != 0 {
                continue;
            }
            let missed = self
                .inject_steps
                .saturating_sub(self.nic_slept_at[node] + 1);
            if missed > 0 {
                self.nics[node].skip_inject_cycles(missed);
            }
            self.nic_awake[node / 64] |= bit;
        }
        self.nic_wakes.clear();
    }

    fn deliver_word(&mut self, event: WordEvent) {
        match event {
            WordEvent::Lookahead {
                node,
                port,
                lookahead,
            } => {
                let node = usize::from(node);
                self.wake_router(node);
                self.routers[node].accept_lookahead(port, lookahead);
            }
            // A credit wakes nothing: a router that buffers flits is already
            // in the carryover mask, and one that does not has no head for
            // the credit to make eligible.
            WordEvent::CreditToRouter { node, port, credit } => {
                self.routers[usize::from(node)].accept_credit(port, credit);
            }
            WordEvent::CreditToNic { node, credit } => {
                self.nics[usize::from(node)].accept_credit(credit);
            }
        }
    }

    fn deliver_flit(&mut self, event: FlitEvent, now: Cycle) {
        let node = usize::from(event.node);
        if event.port_code == NIC_PORT_CODE {
            // NIC reception reads only override-independent payload fields
            // (kind, packet id, packet length), so a fork replica's shared
            // payload is peeked in place and never materialised.
            let reception = self.nics[node].accept_flit(self.slab.peek_payload(event.handle), now);
            self.slab.release(event.handle);
            if let Some(reception) = reception {
                self.apply_reception(reception);
            }
        } else {
            self.wake_router(node);
            let port = Port::from_index(usize::from(event.port_code))
                .expect("flit events carry a valid router input port");
            let flit = self.slab.take(event.handle);
            self.routers[node].accept_flit(port, flit);
        }
    }
}
