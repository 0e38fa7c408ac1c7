//! # noc-sim
//!
//! Cycle-driven simulation kernel for the DAC 2012 mesh NoC reproduction.
//!
//! The kernel is deliberately small: the paper's chip is a synchronous
//! design clocked at 1 GHz, so a fixed-timestep, two-phase (compute /
//! commit) cycle loop models it faithfully without the complexity of a
//! general discrete-event engine. The crate provides:
//!
//! * [`Clock`] — the global cycle counter,
//! * [`EventWheel`] and [`RingQueue`] — the fixed-horizon calendar queue
//!   (and its reusable slot buffer) the network core schedules link, credit
//!   and NIC traversals through without steady-state heap allocation,
//! * [`Lfsr`] and [`PrbsGenerator`] — the pseudo-random binary sequence
//!   generators the chip's NICs use to produce traffic (including the
//!   "identical seeds on every NIC" artifact the paper discusses), with a
//!   precomputed GF(2) 16-step leap ([`Lfsr::leap16`]) and a scout/skip API
//!   that lets schedulers fast-forward quiescent traffic sources bit-exactly,
//! * [`FlitSlab`] and [`FlitHandle`] — pooled refcounted payload storage so
//!   the wheel's flit lane moves 8-byte handles instead of whole flits and
//!   multicast forks share one payload across branches,
//! * [`LatencyStats`], [`ThroughputStats`] — measurement helpers for the
//!   latency/throughput curves of Figs. 5 and 13,
//! * [`ActivityCounters`] — per-component event counts (buffer reads/writes,
//!   crossbar and link traversals, allocator arbitrations, lookaheads,
//!   bypasses) that the power models in `noc-power` convert into energy.
//!
//! The clock, wheel and statistics all support an in-place `reset` that
//! keeps their storage capacity — the kernel half of the warm network reset
//! (`mesh_noc::Network::reset`) that lets experiment runners reuse one
//! simulation across sweep points. The wheel's take/restore lifecycle and
//! the zero-allocation contract are documented in `ARCHITECTURE.md` at the
//! repository root.
//!
//! # Examples
//!
//! ```
//! use noc_sim::{Clock, PrbsGenerator};
//!
//! let mut clock = Clock::new();
//! let mut prbs = PrbsGenerator::new(0xACE1);
//! let mut injected = 0;
//! for _ in 0..1000 {
//!     // Bernoulli injection at rate 0.25 flits/cycle.
//!     if prbs.chance(0.25) {
//!         injected += 1;
//!     }
//!     clock.tick();
//! }
//! assert_eq!(clock.now(), 1000);
//! assert!(injected > 150 && injected < 350);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod counters;
mod prbs;
mod slab;
mod stats;
mod wheel;

pub use clock::Clock;
pub use counters::ActivityCounters;
pub use prbs::{bernoulli_threshold, Lfsr, PrbsGenerator};
pub use slab::{FlitHandle, FlitSlab};
pub use stats::{LatencyStats, ThroughputStats};
pub use wheel::{EventWheel, RingQueue};
