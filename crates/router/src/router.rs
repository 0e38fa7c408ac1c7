//! The router model itself: the per-cycle allocation/traversal pipeline
//! (lookahead bypass → mSA-I → mSA-II → crossbar traversal) over bitset
//! request vectors, plus the XY-tree fork cache and the reusable
//! [`RouterOutput`] that keep the steady-state step allocation-free.

use noc_sim::{ActivityCounters, FlitHandle, FlitSlab};
use noc_topology::routing::{BranchList, RouteBranch, XyPortMasks};
use noc_topology::Mesh;
use noc_types::{
    Coord, Credit, Cycle, DestinationSet, Flit, FlitId, MessageClass, NodeId, Port, PortSet, VcId,
    PORT_COUNT,
};
use serde::{Deserialize, Serialize};

use crate::arbiter::{MatrixArbiter, RoundRobinArbiter};
use crate::config::RouterConfig;
use crate::input::{InputBank, InputPortRef, VcRoute};
use crate::lookahead::Lookahead;
use crate::output::{OutputBank, OutputPortRef};

/// A flit leaving the router on one of its output ports during this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Departure {
    /// Output port the flit leaves on ([`Port::Local`] means ejection to the
    /// NIC).
    pub port: Port,
    /// Handle of the departing flit in the [`FlitSlab`] the router stepped
    /// against. When materialised ([`FlitSlab::take`]) its destination set is
    /// already narrowed to the destinations served through `port`, its `vc`
    /// field names the virtual channel allocated at the downstream input
    /// port, and any link hop has been recorded.
    pub flit: FlitHandle,
    /// Lookahead to forward to the downstream router alongside the flit
    /// (only present when virtual bypassing is enabled).
    pub lookahead: Option<Lookahead>,
}

/// Everything a router produces in one cycle.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RouterOutput {
    /// Flits leaving on output ports.
    pub departures: Vec<Departure>,
    /// Credits to return upstream, tagged with the *input* port whose buffer
    /// slot was freed.
    pub credits: Vec<(Port, Credit)>,
}

impl RouterOutput {
    /// Empties the output while keeping the buffers' capacity, so one
    /// `RouterOutput` can be reused across routers and cycles
    /// (see [`Router::step_into`]).
    pub fn clear(&mut self) {
        self.departures.clear();
        self.credits.clear();
    }
}

/// Internal plan for one crossbar traversal branch.
#[derive(Debug, Clone, Copy)]
struct BranchPlan {
    port: Port,
    destinations: DestinationSet,
    out_vc: VcId,
    newly_allocated: bool,
}

/// The committed traversal plan of one flit, stored inline (at most one
/// branch per output port).
#[derive(Debug, Clone, Copy)]
struct PlanList {
    plans: [BranchPlan; PORT_COUNT],
    len: usize,
}

impl PlanList {
    fn new() -> Self {
        Self {
            plans: [BranchPlan {
                port: Port::Local,
                destinations: DestinationSet::empty(),
                out_vc: 0,
                newly_allocated: false,
            }; PORT_COUNT],
            len: 0,
        }
    }

    fn push(&mut self, plan: BranchPlan) {
        debug_assert!(self.len < PORT_COUNT);
        self.plans[self.len] = plan;
        self.len += 1;
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn iter(&self) -> std::slice::Iter<'_, BranchPlan> {
        self.plans[..self.len].iter()
    }
}

/// ORs input port `i`'s requested `PortSet` (raw bits) into the per-output
/// mSA-II request words (`out_requests[p]` bit `i` = input `i` wants output
/// `p`) — the transpose both allocation phases feed the matrix arbiters.
fn transpose_requests(out_requests: &mut [u32; PORT_COUNT], bits: u8, i: usize) {
    for (p, req) in out_requests.iter_mut().enumerate() {
        *req |= u32::from(bits >> p & 1) << i;
    }
}

/// Cached XY-tree fork of the head flit of one input VC.
///
/// Buffered head flits sit in their VC for many cycles under load, and the
/// router needs their fork (branches / requested ports) in switch-allocation
/// eligibility, in the mSA-II request vector and again at traversal — all
/// per cycle. The entry is keyed by flit id *and* remaining destination set,
/// so it self-invalidates when the VC head changes or a partially served
/// multicast shrinks its destinations; no explicit invalidation hooks exist.
#[derive(Debug, Clone, Copy)]
struct ForkCacheEntry {
    flit_id: FlitId,
    destinations: DestinationSet,
    branches: BranchList,
}

impl ForkCacheEntry {
    fn invalid() -> Self {
        Self {
            flit_id: FlitId::MAX,
            destinations: DestinationSet::empty(),
            branches: BranchList::new(),
        }
    }
}

/// A cycle-accurate model of one mesh router.
///
/// The router is driven by an external orchestrator in two phases per cycle:
///
/// 1. *Arrival phase*: the orchestrator delivers flits, lookaheads and
///    credits produced by neighbours in the previous cycle via
///    [`accept_flit`](Router::accept_flit),
///    [`accept_lookahead`](Router::accept_lookahead) and
///    [`accept_credit`](Router::accept_credit).
/// 2. *Allocation/traversal phase*: [`step`](Router::step) performs switch
///    allocation (with lookahead bypassing when enabled), moves flits through
///    the crossbar, and returns the cycle's [`RouterOutput`].
#[derive(Debug, Clone)]
pub struct Router {
    config: RouterConfig,
    coord: Coord,
    node_id: NodeId,
    inputs: InputBank,
    outputs: OutputBank,
    msa1: Vec<RoundRobinArbiter>,
    msa2: Vec<MatrixArbiter>,
    counters: ActivityCounters,
    arrived: Vec<Option<Flit>>,
    arrived_lookaheads: Vec<Option<Lookahead>>,
    /// Per-(input port, flat VC) cached fork of the buffered head flit.
    fork_cache: Vec<ForkCacheEntry>,
    /// Precomputed XY port partition at this router's coordinate: turns the
    /// per-destination fork scan into five word-wide mask intersections.
    port_masks: XyPortMasks,
    /// The same partition at each neighbouring coordinate (indexed by
    /// `Direction::index()`), used to build the lookahead a departing flit
    /// carries. Edge directions keep this router's own masks as a never-read
    /// placeholder — routing never departs off the mesh edge.
    neighbor_masks: [XyPortMasks; 4],
    /// Node id of the neighbour in each direction (indexed by
    /// `Direction::index()`; `None` off the mesh edge), cached so the
    /// network's hot departure loop resolves link endpoints without touching
    /// the mesh.
    neighbor_ids: [Option<NodeId>; 4],
}

impl Router {
    /// Creates a router at `coord` of `mesh` with the given configuration.
    #[must_use]
    pub fn new(config: &RouterConfig, mesh: Mesh, coord: Coord) -> Self {
        let inputs = InputBank::new(config);
        let outputs = OutputBank::new(config);
        let msa1 = (0..PORT_COUNT)
            .map(|_| RoundRobinArbiter::new(config.total_vcs()))
            .collect();
        let msa2 = (0..PORT_COUNT)
            .map(|_| MatrixArbiter::new(PORT_COUNT))
            .collect();
        let mut counters = ActivityCounters::new();
        counters.routers = 1;
        let port_masks = XyPortMasks::new(&mesh, coord);
        let neighbor_masks = std::array::from_fn(|d| {
            mesh.neighbor(coord, noc_types::Direction::ALL[d])
                .map_or(port_masks, |next| XyPortMasks::new(&mesh, next))
        });
        let neighbor_ids = std::array::from_fn(|d| {
            mesh.neighbor(coord, noc_types::Direction::ALL[d])
                .map(|next| mesh.id_of(next))
        });
        Self {
            config: *config,
            node_id: mesh.id_of(coord),
            coord,
            inputs,
            outputs,
            msa1,
            msa2,
            counters,
            arrived: vec![None; PORT_COUNT],
            arrived_lookaheads: vec![None; PORT_COUNT],
            fork_cache: vec![ForkCacheEntry::invalid(); PORT_COUNT * config.total_vcs()],
            port_masks,
            neighbor_masks,
            neighbor_ids,
        }
    }

    /// Restores the router to its post-construction state — buffers empty,
    /// credits full, arbiters at initial priority, counters zeroed — keeping
    /// every buffer's capacity. Part of the warm network reset
    /// (`mesh_noc::Network::reset`) that lets sweep runners reuse one
    /// network across points.
    pub fn reset(&mut self) {
        self.inputs.reset();
        self.outputs.reset();
        for arbiter in &mut self.msa1 {
            arbiter.reset();
        }
        for arbiter in &mut self.msa2 {
            arbiter.reset();
        }
        self.counters = ActivityCounters::new();
        self.counters.routers = 1;
        self.arrived.fill(None);
        self.arrived_lookaheads.fill(None);
        self.fork_cache.fill(ForkCacheEntry::invalid());
    }

    /// The cached (or freshly computed) XY-tree fork of `flit`, assumed to be
    /// the head of flat VC `vc_idx` of input port `in_port`.
    ///
    /// A free function over disjoint router fields so callers holding other
    /// borrows of `self` can use it.
    fn fork_of(
        fork_cache: &mut [ForkCacheEntry],
        port_masks: &XyPortMasks,
        vc_count: usize,
        in_port: usize,
        vc_idx: usize,
        flit: &Flit,
    ) -> BranchList {
        let entry = &mut fork_cache[in_port * vc_count + vc_idx];
        if entry.flit_id == flit.id() && entry.destinations == *flit.destinations() {
            return entry.branches;
        }
        let branches = port_masks.branches(flit.destinations());
        *entry = ForkCacheEntry {
            flit_id: flit.id(),
            destinations: *flit.destinations(),
            branches,
        };
        branches
    }

    /// Position of the router in the mesh.
    #[must_use]
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// Node id of the router.
    #[must_use]
    pub fn node_id(&self) -> NodeId {
        self.node_id
    }

    /// Node id of the neighbouring router in `dir`, or `None` at the mesh
    /// edge. Cached at construction so per-cycle departure handling never
    /// consults the mesh.
    #[must_use]
    pub fn neighbor_id(&self, dir: noc_types::Direction) -> Option<NodeId> {
        self.neighbor_ids[dir.port().index()]
    }

    /// Router configuration.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Activity counters accumulated so far.
    #[must_use]
    pub fn counters(&self) -> &ActivityCounters {
        &self.counters
    }

    /// Total flits buffered in the router's input ports (O(1); the input
    /// bank maintains the count incrementally, which is what lets the
    /// network's active-set scheduler poll every router cheaply).
    #[must_use]
    pub fn buffered_flits(&self) -> usize {
        self.inputs.buffered_flits()
    }

    /// Read-only view of one output port (used by NIC models and tests).
    #[must_use]
    pub fn output(&self, port: Port) -> OutputPortRef<'_> {
        self.outputs.port(port)
    }

    /// Read-only view of one input port (used by diagnostics and tests).
    #[must_use]
    pub fn input(&self, port: Port) -> InputPortRef<'_> {
        self.inputs.port(port)
    }

    /// Delivers a flit arriving on `port` this cycle.
    ///
    /// # Panics
    ///
    /// Panics if a flit has already arrived on `port` this cycle (links are
    /// one flit wide) or if the flit does not carry its input VC assignment.
    pub fn accept_flit(&mut self, port: Port, flit: Flit) {
        assert!(
            self.arrived[port.index()].is_none(),
            "two flits delivered on the same link in one cycle"
        );
        assert!(
            flit.vc().is_some(),
            "arriving flit must carry its VC assignment"
        );
        self.arrived[port.index()] = Some(flit);
    }

    /// Delivers a lookahead arriving on `port` this cycle.
    pub fn accept_lookahead(&mut self, port: Port, lookahead: Lookahead) {
        self.arrived_lookaheads[port.index()] = Some(lookahead);
    }

    /// Delivers a credit returned by the downstream router attached to output
    /// `port`.
    pub fn accept_credit(&mut self, port: Port, credit: Credit) {
        self.outputs.on_credit(port.index(), credit);
    }

    /// Runs one allocation/traversal cycle and returns the flits, lookaheads
    /// and credits produced. Departing flit payloads are parked in `slab`;
    /// the returned [`Departure`]s carry their handles.
    ///
    /// Allocates a fresh [`RouterOutput`] per call; the orchestrator's hot
    /// loop uses [`step_into`](Router::step_into) with a reused buffer
    /// instead.
    pub fn step(&mut self, now: Cycle, slab: &mut FlitSlab) -> RouterOutput {
        let mut out = RouterOutput::default();
        self.step_into(now, slab, &mut out);
        out
    }

    /// Runs one allocation/traversal cycle, parking departing flit payloads
    /// in `slab` and writing the produced departures, lookaheads and credits
    /// into `out` (cleared first). Reusing one `RouterOutput` across calls
    /// keeps the steady-state step free of heap allocation.
    pub fn step_into(&mut self, now: Cycle, slab: &mut FlitSlab, out: &mut RouterOutput) {
        out.clear();
        self.counters.cycles += 1;
        let mut output_used = [false; PORT_COUNT];
        if self.config.kind.lookahead_enabled() {
            self.bypass_phase(slab, out, &mut output_used);
        }
        // With nothing buffered there is no head to arbitrate: the phase
        // would only probe the outputs and change nothing.
        if self.inputs.buffered_flits() > 0 {
            self.buffered_phase(now, slab, out, &mut output_used);
        }
        self.write_arrivals(now);
    }

    // ----------------------------------------------------------------- bypass

    fn bypass_phase(
        &mut self,
        slab: &mut FlitSlab,
        out: &mut RouterOutput,
        output_used: &mut [bool; PORT_COUNT],
    ) {
        // Collect candidates: arriving flits accompanied by a matching
        // lookahead whose input VC is empty (so bypassing cannot reorder a
        // packet) and, for body/tail flits, whose VC has route state. The
        // fork is computed once per candidate and reused for the request
        // vector and the traversal plan.
        let mut candidates: [Option<(PortSet, BranchList)>; PORT_COUNT] = [None; PORT_COUNT];
        for (i, candidate) in candidates.iter_mut().enumerate() {
            let (Some(flit), Some(la)) = (&self.arrived[i], &self.arrived_lookaheads[i]) else {
                continue;
            };
            if la.flit_id != flit.id() {
                continue;
            }
            let class = flit.message_class();
            let vc = flit.vc().expect("arriving flit carries its VC");
            let flat = self.inputs.flat_vc(class, vc);
            if !self.inputs.is_empty(i, flat) {
                continue;
            }
            if !flit.kind().is_head() && self.inputs.route(i, flat).is_none() {
                continue;
            }
            let branches = self.port_masks.branches(flit.destinations());
            *candidate = Some((branches.ports(), branches));
        }

        // mSA-II among lookahead requests (they take priority over buffered
        // flits, which are arbitrated afterwards on the remaining ports).
        // The candidates' port sets are transposed into one request word per
        // output port (bit i = input port i), fed straight to the matrix
        // arbiters' mask path.
        let mut out_requests = [0u32; PORT_COUNT];
        for (i, candidate) in candidates.iter().enumerate() {
            if let Some((ps, _)) = candidate {
                transpose_requests(&mut out_requests, ps.bits(), i);
            }
        }
        // granted[i] is the PortSet (as raw bits) input port i won.
        let mut granted = [0u8; PORT_COUNT];
        for (p, &requests) in out_requests.iter().enumerate() {
            if requests != 0 {
                self.counters.sa_global_arbitrations += 1;
                if let Some(w) = self.msa2[p].arbitrate_mask(requests) {
                    granted[w] |= 1 << p;
                }
            }
        }

        for i in 0..PORT_COUNT {
            let Some((ports, branches)) = candidates[i] else {
                continue;
            };
            // Bypassing is all-or-nothing: every requested port must have
            // been granted.
            if ports.bits() & !granted[i] != 0 {
                continue;
            }
            let flit = self.arrived[i].take().expect("candidate has a flit");
            let class = flit.message_class();
            let in_vc = flit.vc().expect("arriving flit carries its VC");
            let is_head = flit.kind().is_head();
            let Some(plan) = self.plan_branches(class, i, in_vc, is_head, &branches, true) else {
                // No resources: put the flit back so it is buffered normally
                // by `write_arrivals`.
                self.arrived[i] = Some(flit);
                continue;
            };
            // Commit the bypass: the flit crosses the switch and the link in
            // this very cycle and its (never used) buffer slot is credited
            // back immediately.
            self.arrived_lookaheads[i] = None;
            if is_head {
                self.counters.route_computations += 1;
            }
            self.execute_traversal(flit, class, i, in_vc, &plan, true, slab, out, output_used);
            out.credits.push((Port::ALL[i], Credit::new(class, in_vc)));
        }
    }

    // --------------------------------------------------------------- buffered

    fn buffered_phase(
        &mut self,
        now: Cycle,
        slab: &mut FlitSlab,
        out: &mut RouterOutput,
        output_used: &mut [bool; PORT_COUNT],
    ) {
        // mSA-I: each input port picks one of its VCs with an eligible head.
        // A head is only allowed to request the switch when it could actually
        // move: head flits need a free downstream VC with a credit on at
        // least one of their requested ports, body flits need a credit on
        // their packet's allocated VC. This mirrors the chip, where the VA
        // stage (free-VC queues) and credit counters gate the switch
        // requests, and it prevents a resource-starved VC from phase-locking
        // the round-robin and matrix arbiters against its neighbours.
        //
        // Everything here is word-wide: the head check intersects the flit's
        // cached fork ports with a per-class "which outputs can take a head"
        // summary, the body check is one bit of the output's credit mask, and
        // only VCs set in the port's occupancy mask are visited at all.
        let vc_count = self.inputs.vc_count();
        let mut head_ok = [0u8; 2];
        for class in MessageClass::ALL {
            let mut mask = 0u8;
            for p in 0..PORT_COUNT {
                mask |= u8::from(self.outputs.can_accept_head(p, class)) << p;
            }
            head_ok[class.index()] = mask;
        }
        let mut winners: [Option<usize>; PORT_COUNT] = [None; PORT_COUNT];
        for (i, winner) in winners.iter_mut().enumerate() {
            let mut requests = 0u32;
            let mut occupied = self.inputs.occupied_mask(i);
            while occupied != 0 {
                let v = occupied.trailing_zeros() as usize;
                occupied &= occupied - 1;
                // The readiness probe touches only the bank's flat
                // head-ready word, not the flit.
                if self.inputs.head_ready(i, v) > now {
                    continue;
                }
                let flit = self.inputs.head(i, v).expect("occupied VC has a head");
                let class = flit.message_class();
                let eligible = if flit.kind().is_head() {
                    let fork =
                        Self::fork_of(&mut self.fork_cache, &self.port_masks, vc_count, i, v, flit);
                    fork.ports().bits() & head_ok[class.index()] != 0
                } else {
                    let route = self
                        .inputs
                        .route(i, v)
                        .expect("body flit must follow an allocated route");
                    self.outputs.credit_mask(route.out_port.index(), class) & (1u32 << route.out_vc)
                        != 0
                };
                requests |= u32::from(eligible) << v;
            }
            if requests != 0 {
                self.counters.sa_local_arbitrations += 1;
                *winner = self.msa1[i].arbitrate_mask(requests);
            }
        }

        // Output-port requests of each mSA-I winner, transposed on the fly
        // into one request word per output port (bit i = input port i).
        let mut requested: [Option<PortSet>; PORT_COUNT] = [None; PORT_COUNT];
        let mut out_requests = [0u32; PORT_COUNT];
        for i in 0..PORT_COUNT {
            let Some(v) = winners[i] else { continue };
            let flit = self.inputs.head(i, v).expect("winner has a head flit");
            let ports = if flit.kind().is_head() {
                Self::fork_of(&mut self.fork_cache, &self.port_masks, vc_count, i, v, flit).ports()
            } else {
                PortSet::single(
                    self.inputs
                        .route(i, v)
                        .expect("body flit must follow an allocated route")
                        .out_port,
                )
            };
            requested[i] = Some(ports);
            transpose_requests(&mut out_requests, ports.bits(), i);
        }

        // mSA-II on the output ports not already taken by bypassing flits.
        // granted[i] is the PortSet (as raw bits) input port i won.
        let mut granted = [0u8; PORT_COUNT];
        for (p, &requests) in out_requests.iter().enumerate() {
            if output_used[p] || requests == 0 {
                continue;
            }
            self.counters.sa_global_arbitrations += 1;
            if let Some(w) = self.msa2[p].arbitrate_mask(requests) {
                granted[w] |= 1 << p;
            }
        }

        // Traverse granted branches (possibly a subset of a multicast's
        // branches — the rest of the destinations stay buffered and retry).
        for i in 0..PORT_COUNT {
            let Some(v) = winners[i] else { continue };
            let Some(req_ports) = requested[i] else {
                continue;
            };
            let granted_ports = req_ports.intersection(PortSet::from_bits(granted[i]));
            if granted_ports.is_empty() {
                continue;
            }
            let head = self.inputs.head(i, v).expect("winner has a head flit");
            let class = head.message_class();
            let in_vc = head.vc().expect("buffered flit carries its VC");
            let is_head = head.kind().is_head();
            let all_destinations = *head.destinations();
            let mut branches = BranchList::new();
            if is_head {
                let fork = Self::fork_of(
                    &mut self.fork_cache,
                    &self.port_masks,
                    vc_count,
                    i,
                    v,
                    self.inputs.head(i, v).expect("winner has a head"),
                );
                for b in fork.iter().filter(|b| granted_ports.contains(b.port)) {
                    branches.push(*b);
                }
            } else {
                branches.push(RouteBranch {
                    port: self
                        .inputs
                        .route(i, v)
                        .expect("body flit must follow an allocated route")
                        .out_port,
                    destinations: all_destinations,
                });
            }
            let Some(plan) = self.plan_branches(class, i, in_vc, is_head, &branches, false) else {
                continue;
            };
            self.counters.buffer_reads += 1;

            // Take the flit out of the buffer: by value (crediting the freed
            // slot upstream) when every destination is served this cycle,
            // as a clone (the rare partially-served-multicast path) when
            // some destinations must stay behind and retry.
            let served: DestinationSet = plan
                .iter()
                .fold(DestinationSet::empty(), |acc, b| acc.union(&b.destinations));
            let remaining = all_destinations.difference(&served);
            let flit = if remaining.is_empty() {
                let popped = self.inputs.pop_flit(i, v).expect("winner has a head flit");
                out.credits.push((Port::ALL[i], Credit::new(class, in_vc)));
                popped
            } else {
                let head = self.inputs.head_mut(i, v).expect("flit still buffered");
                let copy = head.clone();
                head.set_destinations(remaining);
                copy
            };
            self.execute_traversal(flit, class, i, in_vc, &plan, false, slab, out, output_used);
        }
    }

    // ------------------------------------------------------------ primitives

    /// Checks resources (downstream VC and credit) for every branch and
    /// returns the committed plan.
    ///
    /// With `all_or_nothing` (the bypass path, matching the chip: a flit that
    /// cannot be fully served is buffered instead), any branch lacking
    /// resources aborts the whole plan. Without it (the buffered path),
    /// branches lacking resources are simply skipped so a multicast can be
    /// served partially and retry the rest on later cycles.
    fn plan_branches(
        &self,
        class: MessageClass,
        in_port: usize,
        in_vc: VcId,
        is_head: bool,
        branches: &[RouteBranch],
        all_or_nothing: bool,
    ) -> Option<PlanList> {
        if branches.is_empty() {
            return None;
        }
        let mut plan = PlanList::new();
        for b in branches {
            let out_port = b.port.index();
            if b.port.is_local() {
                plan.push(BranchPlan {
                    port: b.port,
                    destinations: b.destinations,
                    out_vc: 0,
                    newly_allocated: false,
                });
                continue;
            }
            if is_head {
                match self.outputs.peek_free_vc(out_port, class) {
                    Some(vc) if self.outputs.has_credit(out_port, class, vc) => {
                        plan.push(BranchPlan {
                            port: b.port,
                            destinations: b.destinations,
                            out_vc: vc,
                            newly_allocated: true,
                        });
                    }
                    _ if all_or_nothing => return None,
                    _ => {}
                }
            } else {
                let route = self
                    .inputs
                    .route(in_port, self.inputs.flat_vc(class, in_vc))
                    .expect("body flit must follow an allocated route");
                if route.out_port == b.port
                    && self.outputs.has_credit(out_port, class, route.out_vc)
                {
                    plan.push(BranchPlan {
                        port: b.port,
                        destinations: b.destinations,
                        out_vc: route.out_vc,
                        newly_allocated: false,
                    });
                } else if all_or_nothing {
                    return None;
                }
            }
        }
        if plan.is_empty() {
            None
        } else {
            Some(plan)
        }
    }

    /// Moves a flit through the crossbar onto every branch of `plan`.
    ///
    /// The flit is consumed into `slab`: the unicast fast path applies its
    /// per-branch overrides in place and parks the flit once, while a
    /// multicast fork (more than one granted branch) parks the payload once
    /// and issues a refcounted replica handle per branch — no branch clones
    /// the flit here; replicas materialise lazily at delivery (ejection
    /// branches never do).
    #[allow(clippy::too_many_arguments)]
    fn execute_traversal(
        &mut self,
        flit: Flit,
        class: MessageClass,
        in_port: usize,
        in_vc: VcId,
        plan: &PlanList,
        bypassed: bool,
        slab: &mut FlitSlab,
        out: &mut RouterOutput,
        output_used: &mut [bool; PORT_COUNT],
    ) {
        let fork = plan.len > 1;
        if fork {
            self.counters.multicast_forks += 1;
        }
        let kind = flit.kind();
        let flit_id = flit.id();
        let mut solo = Some(flit);
        let base = if fork {
            Some(slab.insert(solo.take().expect("fork parks the payload once")))
        } else {
            None
        };
        for b in plan.iter() {
            output_used[b.port.index()] = true;
            if b.newly_allocated {
                self.outputs.allocate_vc(b.port.index(), class, b.out_vc);
                self.counters.vc_allocations += 1;
            }
            self.outputs
                .send_flit(b.port.index(), class, b.out_vc, kind.is_tail());
            self.counters.crossbar_traversals += 1;

            let lookahead = if self.config.kind.lookahead_enabled() && !b.port.is_local() {
                let next_ports = self.neighbor_masks[b.port.index()].ports(&b.destinations);
                self.counters.lookaheads_sent += 1;
                Some(Lookahead::new(flit_id, class, b.out_vc, next_ports))
            } else {
                None
            };

            let hop = if b.port.is_local() {
                self.counters.local_link_traversals += 1;
                if kind.is_tail() {
                    self.counters.ejections += 1;
                }
                None
            } else {
                self.counters.link_traversals += 1;
                // Counted per link traversal (not per bypassing flit) so
                // `bypasses / link_traversals` is a true fraction: a bypass
                // that forks to n links counts n times, and one that only
                // ejects locally counts zero — it crossed no link.
                if bypassed {
                    self.counters.bypasses += 1;
                }
                Some(bypassed)
            };

            let handle = if let Some(base) = base {
                slab.replicate(base, b.destinations, b.out_vc, hop)
            } else {
                let mut departing = solo.take().expect("single-branch plan departs once");
                departing.set_destinations(b.destinations);
                departing.set_vc(b.out_vc);
                if let Some(bypassed) = hop {
                    departing.record_hop(bypassed);
                }
                slab.insert(departing)
            };

            out.departures.push(Departure {
                port: b.port,
                flit: handle,
                lookahead,
            });
        }
        if let Some(base) = base {
            slab.release(base);
        }

        // Maintain per-VC route state so body/tail flits of multi-flit
        // (unicast) packets follow their head.
        let flat = self.inputs.flat_vc(class, in_vc);
        if kind.is_head() && !kind.is_tail() {
            let first = plan.plans[0];
            self.inputs.set_route(
                in_port,
                flat,
                VcRoute {
                    out_port: first.port,
                    out_vc: first.out_vc,
                },
            );
        }
        if kind.is_tail() && !kind.is_head() {
            self.inputs.clear_route(in_port, flat);
        }
    }

    /// Buffers every arrived flit that did not bypass.
    fn write_arrivals(&mut self, now: Cycle) {
        for i in 0..PORT_COUNT {
            if let Some(flit) = self.arrived[i].take() {
                let class = flit.message_class();
                let vc = flit.vc().expect("arriving flit carries its VC");
                if flit.kind().is_head() {
                    self.counters.route_computations += 1;
                }
                self.counters.buffer_writes += 1;
                let ready = now + self.config.kind.buffered_pipeline_delay();
                self.inputs.push_flit(i, class, vc, flit, ready);
            }
            self.arrived_lookaheads[i] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouterConfig;
    use noc_types::{Packet, PacketKind};

    fn mesh4() -> Mesh {
        Mesh::new(4).unwrap()
    }

    /// A unicast request flit from `src` to `dst`, pre-assigned to VC 0.
    fn unicast_flit(id: u64, src: NodeId, dst: NodeId) -> Flit {
        let p = Packet::new(
            id,
            src,
            DestinationSet::unicast(dst),
            PacketKind::Request,
            0,
        );
        let mut f = p.to_flits().remove(0);
        f.set_vc(0);
        f
    }

    fn broadcast_flit(id: u64, src: NodeId) -> Flit {
        let p = Packet::new(
            id,
            src,
            DestinationSet::broadcast(4, src),
            PacketKind::Request,
            0,
        );
        let mut f = p.to_flits().remove(0);
        f.set_vc(0);
        f
    }

    fn lookahead_for(router: &Router, flit: &Flit) -> Lookahead {
        let ports = noc_topology::routing::requested_ports(
            &Mesh::new(4).unwrap(),
            router.coord(),
            flit.destinations(),
        );
        Lookahead::new(flit.id(), flit.message_class(), flit.vc().unwrap(), ports)
    }

    #[test]
    fn buffered_unicast_departs_after_pipeline_delay() {
        // Aggressive baseline: arrive at t, depart at t+2 (3 cycles per hop
        // counting the link the orchestrator adds).
        let mut slab = FlitSlab::new();
        let mut r = Router::new(
            &RouterConfig::aggressive_baseline(),
            mesh4(),
            Coord::new(1, 1),
        );
        let flit = unicast_flit(1, 0, 15); // needs to keep going East/North
        r.accept_flit(Port::West, flit);
        let out0 = r.step(10, &mut slab);
        assert!(
            out0.departures.is_empty(),
            "flit is only being buffered at t"
        );
        let out1 = r.step(11, &mut slab);
        assert!(out1.departures.is_empty(), "pipeline delay not yet elapsed");
        let out2 = r.step(12, &mut slab);
        assert_eq!(out2.departures.len(), 1);
        assert_eq!(out2.departures[0].port, Port::East);
        assert!(out2.departures[0].lookahead.is_none());
        // The freed buffer slot is credited upstream.
        assert_eq!(out2.credits.len(), 1);
        assert_eq!(out2.credits[0].0, Port::West);
    }

    #[test]
    fn bypassed_unicast_departs_in_its_arrival_cycle() {
        let mut slab = FlitSlab::new();
        let mut r = Router::new(&RouterConfig::proposed(true), mesh4(), Coord::new(1, 1));
        let flit = unicast_flit(1, 0, 7); // destination (3,1): continue East
        let la = lookahead_for(&r, &flit);
        r.accept_flit(Port::West, flit);
        r.accept_lookahead(Port::West, la);
        let out = r.step(10, &mut slab);
        assert_eq!(out.departures.len(), 1);
        assert_eq!(out.departures[0].port, Port::East);
        assert_eq!(slab.take(out.departures[0].flit).bypassed_hops(), 1);
        assert!(
            out.departures[0].lookahead.is_some(),
            "bypass keeps pre-allocating downstream"
        );
        // Credit returned immediately because the buffer was never used.
        assert_eq!(out.credits.len(), 1);
        assert_eq!(r.counters().bypasses, 1);
        assert_eq!(r.counters().buffer_writes, 0);
    }

    #[test]
    fn without_lookahead_the_proposed_router_buffers() {
        let mut slab = FlitSlab::new();
        let mut r = Router::new(&RouterConfig::proposed(true), mesh4(), Coord::new(1, 1));
        let flit = unicast_flit(1, 0, 7);
        r.accept_flit(Port::West, flit);
        let out = r.step(10, &mut slab);
        assert!(out.departures.is_empty());
        assert_eq!(r.counters().buffer_writes, 1);
        assert_eq!(r.buffered_flits(), 1);
    }

    #[test]
    fn broadcast_flit_forks_in_the_crossbar() {
        // Broadcast from node 5 = (1,1) observed at its source router: the
        // XY-tree forks East, West, North and South.
        let mut slab = FlitSlab::new();
        let mut r = Router::new(&RouterConfig::proposed(true), mesh4(), Coord::new(1, 1));
        let flit = broadcast_flit(1, 5);
        let la = lookahead_for(&r, &flit);
        r.accept_flit(Port::Local, flit);
        r.accept_lookahead(Port::Local, la);
        let out = r.step(0, &mut slab);
        assert_eq!(out.departures.len(), 4);
        let ports: Vec<Port> = out.departures.iter().map(|d| d.port).collect();
        assert!(ports.contains(&Port::East) && ports.contains(&Port::West));
        assert!(ports.contains(&Port::North) && ports.contains(&Port::South));
        assert_eq!(r.counters().multicast_forks, 1);
        assert_eq!(r.counters().crossbar_traversals, 4);
        // Destination subsets are disjoint and cover all 15 destinations.
        let total: usize = out
            .departures
            .iter()
            .map(|d| slab.take(d.flit).destinations().len())
            .sum();
        assert_eq!(total, 15);
    }

    #[test]
    fn ejection_goes_to_the_local_port() {
        let mut slab = FlitSlab::new();
        let mut r = Router::new(&RouterConfig::proposed(true), mesh4(), Coord::new(2, 2));
        let flit = unicast_flit(1, 0, 10); // node 10 == (2,2)
        let la = lookahead_for(&r, &flit);
        r.accept_flit(Port::West, flit);
        r.accept_lookahead(Port::West, la);
        let out = r.step(0, &mut slab);
        assert_eq!(out.departures.len(), 1);
        assert_eq!(out.departures[0].port, Port::Local);
        assert!(
            out.departures[0].lookahead.is_none(),
            "no lookahead to a NIC"
        );
        assert_eq!(r.counters().ejections, 1);
    }

    #[test]
    fn contending_lookaheads_buffer_the_loser() {
        // Two flits arrive in the same cycle, both needing the East port.
        let mut slab = FlitSlab::new();
        let mut r = Router::new(&RouterConfig::proposed(true), mesh4(), Coord::new(1, 1));
        let f_a = unicast_flit(1, 0, 7);
        let f_b = unicast_flit(2, 4, 7);
        let la_a = lookahead_for(&r, &f_a);
        let la_b = lookahead_for(&r, &f_b);
        r.accept_flit(Port::West, f_a);
        r.accept_lookahead(Port::West, la_a);
        r.accept_flit(Port::South, f_b);
        r.accept_lookahead(Port::South, la_b);
        let out = r.step(0, &mut slab);
        assert_eq!(
            out.departures.len(),
            1,
            "only one flit can win the East port"
        );
        assert_eq!(r.counters().bypasses, 1);
        assert_eq!(r.counters().buffer_writes, 1, "the loser is buffered");
        assert_eq!(r.buffered_flits(), 1);
    }

    #[test]
    fn credits_are_required_to_depart() {
        // Exhaust the East output's request VCs, then check a flit stays put.
        let mut slab = FlitSlab::new();
        let mut r = Router::new(&RouterConfig::proposed(false), mesh4(), Coord::new(1, 1));
        for vc in 0..4 {
            r.outputs
                .allocate_vc(Port::East.index(), MessageClass::Request, vc);
            r.outputs
                .send_flit(Port::East.index(), MessageClass::Request, vc, true);
        }
        let flit = unicast_flit(9, 0, 7);
        r.accept_flit(Port::West, flit);
        r.step(0, &mut slab);
        r.step(1, &mut slab);
        let out = r.step(2, &mut slab);
        assert!(
            out.departures.is_empty(),
            "no downstream VC/credit available"
        );
        assert_eq!(r.buffered_flits(), 1);
        // Return one credit; the flit can now leave.
        r.accept_credit(Port::East, Credit::new(MessageClass::Request, 0));
        let out = r.step(3, &mut slab);
        assert_eq!(out.departures.len(), 1);
    }

    #[test]
    fn partial_multicast_service_keeps_remaining_destinations() {
        // A broadcast needs East and North, but North has no free VCs: only
        // the East branch is served and the rest stays buffered.
        let mut slab = FlitSlab::new();
        let mut r = Router::new(&RouterConfig::proposed(false), mesh4(), Coord::new(0, 0));
        for vc in 0..4 {
            r.outputs
                .allocate_vc(Port::North.index(), MessageClass::Request, vc);
            r.outputs
                .send_flit(Port::North.index(), MessageClass::Request, vc, true);
        }
        let flit = broadcast_flit(1, 0);
        r.accept_flit(Port::Local, flit);
        r.step(0, &mut slab);
        r.step(1, &mut slab);
        let out = r.step(2, &mut slab);
        assert_eq!(out.departures.len(), 1);
        assert_eq!(out.departures[0].port, Port::East);
        assert!(out.credits.is_empty(), "flit still owns its buffer slot");
        assert_eq!(r.buffered_flits(), 1);
        let remaining = r
            .input(Port::Local)
            .vc(MessageClass::Request, 0)
            .head()
            .unwrap()
            .destinations()
            .len();
        assert_eq!(remaining, 3, "only the own-column destinations remain");
        // Free the North VCs: the remainder drains and the credit follows.
        for vc in 0..4 {
            r.accept_credit(Port::North, Credit::new(MessageClass::Request, vc));
        }
        let out = r.step(3, &mut slab);
        assert_eq!(out.departures.len(), 1);
        assert_eq!(out.departures[0].port, Port::North);
        assert_eq!(out.credits.len(), 1);
        assert_eq!(r.buffered_flits(), 0);
    }

    #[test]
    fn five_flit_response_streams_in_order_on_one_vc() {
        let mut slab = FlitSlab::new();
        let mut r = Router::new(
            &RouterConfig::aggressive_baseline(),
            mesh4(),
            Coord::new(1, 1),
        );
        let packet = Packet::new(7, 0, DestinationSet::unicast(7), PacketKind::Response, 0);
        let flits: Vec<Flit> = packet
            .to_flits()
            .into_iter()
            .map(|mut f| {
                f.set_vc(0);
                f
            })
            .collect();
        // Feed the first three flits (the downstream VC is 3 deep).
        let mut received = Vec::new();
        let mut next_to_send = 0usize;
        for cycle in 0..30 {
            if next_to_send < flits.len()
                && r.input(Port::West)
                    .vc(MessageClass::Response, 0)
                    .occupancy()
                    < 3
            {
                r.accept_flit(Port::West, flits[next_to_send].clone());
                next_to_send += 1;
            }
            let out = r.step(cycle, &mut slab);
            for d in out.departures {
                assert_eq!(d.port, Port::East);
                received.push(slab.take(d.flit).sequence());
            }
            // Model the downstream router always making room promptly.
            for (_, credit) in out.credits {
                let _ = credit;
            }
            // Return credits to the East output so the stream keeps moving.
            let dvc = r
                .output(Port::East)
                .downstream_vc(MessageClass::Response, 0)
                .unwrap();
            if dvc.credits < 3 && dvc.allocated {
                r.accept_credit(Port::East, Credit::new(MessageClass::Response, 0));
            }
        }
        assert_eq!(received, vec![0, 1, 2, 3, 4], "flits must stay in order");
    }
}
