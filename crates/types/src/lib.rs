//! # noc-types
//!
//! Shared vocabulary for the DAC 2012 mesh NoC reproduction
//! ("Approaching the Theoretical Limits of a Mesh NoC with a 16-Node Chip
//! Prototype in 45nm SOI", Park et al.).
//!
//! Every other crate in the workspace speaks in terms of these types:
//!
//! * [`Coord`] / [`NodeId`] — positions in a k×k mesh,
//! * [`Direction`], [`Port`] and [`PortSet`] — the five router ports
//!   (North, East, South, West, Local/NIC) and multicast port vectors,
//! * [`MessageClass`] — the two virtual networks (request / response) used to
//!   avoid message-level deadlock in cache-coherent multicores,
//! * [`DestinationSet`] — the set of destination nodes of a unicast,
//!   multicast or broadcast packet,
//! * [`Packet`] and [`Flit`] — the units of transfer: packets are segmented
//!   into 64-bit flits, only the head flit carries routing information,
//! * [`VcId`], [`Credit`] — virtual-channel bookkeeping for credit-based
//!   flow control,
//! * [`ArrayFifo`] — the inline, fixed-capacity ring FIFO behind every
//!   virtual-channel buffer.
//!
//! # Examples
//!
//! ```
//! use noc_types::{Coord, DestinationSet, MessageClass, Packet, PacketKind};
//!
//! // A broadcast request injected by node (1, 2) of a 4x4 mesh.
//! let src = Coord::new(1, 2);
//! let dests = DestinationSet::broadcast(4, src.node_id(4));
//! let packet = Packet::new(0, src.node_id(4), dests, PacketKind::Request, 0);
//! assert_eq!(packet.flit_count(), 1);
//! assert_eq!(packet.message_class(), MessageClass::Request);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coord;
mod destset;
mod direction;
mod error;
mod fifo;
mod flit;
mod message;
mod packet;
mod trace;

pub use coord::{Coord, NodeId};
pub use destset::DestinationSet;
pub use direction::{Direction, Port, PortSet, PORT_COUNT};
pub use error::{ConfigError, NocError};
pub use fifo::ArrayFifo;
pub use flit::{Flit, FlitId, FlitKind, FLIT_BITS};
pub use message::{MessageClass, TrafficKind, MESSAGE_CLASS_COUNT};
pub use packet::{Packet, PacketId, PacketKind};
pub use trace::{Trace, TraceError, TraceEvent};

/// Identifier of a virtual channel within one input port and message class.
///
/// The fabricated chip uses 6 VCs per port: 4 one-flit-deep VCs in the
/// request class and 2 three-flit-deep VCs in the response class.
pub type VcId = u8;

/// A single flow-control credit returned from a downstream router when a
/// buffer slot is freed.
///
/// Credits are tagged with the virtual channel they replenish so that the
/// upstream router can update the correct VC's credit counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Credit {
    /// Message class of the freed buffer slot.
    pub class: MessageClass,
    /// Virtual channel (within `class`) whose slot was freed.
    pub vc: VcId,
}

impl Credit {
    /// Creates a credit for virtual channel `vc` of message class `class`.
    ///
    /// ```
    /// use noc_types::{Credit, MessageClass};
    /// let c = Credit::new(MessageClass::Request, 2);
    /// assert_eq!(c.vc, 2);
    /// ```
    #[must_use]
    pub fn new(class: MessageClass, vc: VcId) -> Self {
        Self { class, vc }
    }
}

/// Simulation time measured in router clock cycles.
pub type Cycle = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_round_trip() {
        let c = Credit::new(MessageClass::Response, 1);
        assert_eq!(c.class, MessageClass::Response);
        assert_eq!(c.vc, 1);
    }

    #[test]
    fn types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Coord>();
        assert_send_sync::<Flit>();
        assert_send_sync::<Packet>();
        assert_send_sync::<DestinationSet>();
        assert_send_sync::<Credit>();
        assert_send_sync::<NocError>();
    }
}
