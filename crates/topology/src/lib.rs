//! # noc-topology
//!
//! Mesh topology, routing and the *theoretical mesh limits* of the DAC 2012
//! paper "Approaching the Theoretical Limits of a Mesh NoC with a 16-Node
//! Chip Prototype in 45nm SOI" (Park et al.).
//!
//! The crate provides three layers:
//!
//! * [`Mesh`] — a k×k mesh topology: neighbours, links, bisection and
//!   ejection link enumeration.
//! * [`routing`] — dimension-ordered XY unicast routing and the XY-tree
//!   multicast routing used by the chip (deadlock-free, fork-on-demand).
//! * [`limits`] — closed-form theoretical limits for latency, throughput and
//!   energy under uniform-random unicast and broadcast traffic (Table 1 of
//!   the paper), and [`chips`] — the analytical zero-load latency / channel
//!   load model used for the prior-chip comparison (Table 2).
//!
//! # Examples
//!
//! ```
//! use noc_topology::{limits::MeshLimits, Mesh};
//!
//! let mesh = Mesh::new(4)?;
//! let limits = MeshLimits::new(4);
//! // Average unicast hop count of a 4x4 mesh is 2(k+1)/3 = 10/3.
//! assert!((limits.unicast_average_hops() - 10.0 / 3.0).abs() < 1e-12);
//! assert_eq!(mesh.bisection_links(), 4);
//! # Ok::<(), noc_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chips;
pub mod limits;
mod mesh;
pub mod routing;

pub use mesh::{Link, Mesh};
