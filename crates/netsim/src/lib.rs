//! Packet-level datacenter fabric simulator.
//!
//! This crate models the *network* of the Presto testbed (§4 of the paper):
//! output-queued Ethernet switches with drop-tail per-port buffers, 10 Gbps
//! links, exact-match L2 forwarding (the substrate for shadow-MAC label
//! switching), ECMP hash groups, and OpenFlow-style fast-failover backup
//! ports. Hosts are attachment points only — NICs, vSwitches, GRO and TCP
//! live in the `presto-endhost`, `presto-gro` and `presto-transport`
//! crates, and the composed simulator in `presto-testbed` wires everything
//! together.
//!
//! The fabric is event-driven: callers inject packets at host uplinks and
//! feed [`NetEvent`]s back into [`Fabric::handle`]; completed deliveries
//! surface through the [`NetScheduler`] callback, keeping this crate free
//! of any knowledge about the end-host stack.

#![warn(missing_docs)]

pub mod buffer;
pub mod fabric;
pub mod ids;
pub mod link;
pub mod packet;
pub mod switch;
pub mod topology;

pub use buffer::SharedBuffer;
pub use fabric::{Fabric, LinkView, NetEvent, NetScheduler, SwitchView};
pub use ids::{HostId, LinkId, Mac, Node, SwitchId};
pub use link::{Link, LinkConfig, LinkCounters, LinkQueue, PacketArena};
pub use packet::{
    FlowKey, Packet, PacketKind, ACK_WIRE_BYTES, MSS, PROBE_WIRE_BYTES, WIRE_OVERHEAD,
};
pub use switch::{EcmpMode, Switch};
pub use topology::{ClosSpec, ThreeTierSpec, Topology, TopologyBuilder};
