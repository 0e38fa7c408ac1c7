//! # mesh-noc
//!
//! The paper's contribution as a library: a 16-node (or k×k) mesh
//! Network-on-Chip with router-level multicast support, lookahead virtual
//! bypassing and a low-swing datapath model, together with the baseline
//! networks and measurement machinery needed to reproduce every experiment of
//! *"Approaching the Theoretical Limits of a Mesh NoC with a 16-Node Chip
//! Prototype in 45nm SOI"* (Park et al., DAC 2012).
//!
//! ## What lives where
//!
//! * [`NocConfig`] / [`NetworkVariant`] — configuration presets for every
//!   network the paper measures: the textbook and aggressive baselines, the
//!   four power-study variants A–D of Fig. 6, and the fabricated chip.
//! * [`Scenario`] / [`ScenarioBuilder`] — fluent construction of a validated
//!   configuration plus operating point
//!   (`Scenario::builder().variant(..).mesh(8).pattern(..).rate(0.6)`), so
//!   examples and tests stop hand-assembling configs. Spatial traffic
//!   patterns themselves live in `noc-traffic` ([`noc_traffic::SpatialPattern`]).
//! * [`Network`] — the cycle-accurate orchestrator that wires 16 routers
//!   (from `noc-router`) and 16 NICs together, advances them cycle by cycle
//!   and keeps latency / throughput / activity statistics.
//! * [`Simulation`] — warmup + measurement + drain around a [`Network`],
//!   producing a [`SimulationResult`].
//! * [`sweep`] — injection-rate sweeps, saturation detection and the summary
//!   statistics (latency reduction, saturation-throughput gain, fraction of
//!   the theoretical limit) the paper quotes in §4.1; [`SweepRunner`] shards
//!   sweep points across threads with bit-identical results for any thread
//!   count, batching each worker's points through one warmed network via
//!   [`Network::reset`] (buffer capacity survives, PRBS state re-seeds).
//! * [`serving`] — the closed-loop request/reply layer: [`ClosedLoop`]
//!   attaches per-node clients (bounded outstanding windows) and homes
//!   (fixed service latency) to a [`Network`], measures request round-trip
//!   times into a p50/p95/p99 histogram, and [`ServingRunner`] sweeps the
//!   client population with the same bit-identical sharding as
//!   [`SweepRunner`]. Trace record/replay (`Simulation::record_trace` /
//!   `Simulation::load_trace`) reuses the same delivery machinery with the
//!   Bernoulli sources swapped out for [`noc_types::Trace`] playback.
//!
//! The layering above this crate, the event-wheel core it steps, and the
//! determinism contract behind [`SweepRunner`] are documented in
//! `ARCHITECTURE.md` at the repository root.
//!
//! ## Quickstart
//!
//! ```
//! use mesh_noc::{NetworkVariant, NocConfig, Simulation};
//!
//! // The fabricated chip: proposed router, bypassing, low-swing datapath.
//! let config = NocConfig::variant(NetworkVariant::ProposedChip)?;
//! let mut sim = Simulation::new(config)?;
//! let result = sim.run(0.02, 200, 1_000)?;
//! assert!(result.average_latency_cycles > 0.0);
//! assert!(result.received_flits_per_cycle > 0.0);
//! # Ok::<(), noc_types::NocError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod network;
mod nic;
mod result;
mod scenario;
pub mod serving;
mod simulation;
pub mod sweep;

pub use config::{DatapathKind, NetworkVariant, NocConfig};
pub use network::Network;
pub use nic::{Nic, Reception};
pub use result::SimulationResult;
pub use scenario::{Scenario, ScenarioBuilder};
pub use serving::{
    ClosedLoop, ServingOpts, ServingOutcome, ServingPointOutcome, ServingResult, ServingRunner,
};
pub use simulation::Simulation;
pub use sweep::{SweepOutcome, SweepPointOutcome, SweepRunner};
