//! # starlink-netsim
//!
//! A deterministic, event-driven, packet-level network simulator — the
//! substrate every active measurement in the reproduction runs on
//! (traceroute, iperf, speedtests, congestion-control stress tests).
//!
//! Design follows the smoltcp school: explicit state machines, no async
//! runtime, no clever type tricks. A [`Network`] owns nodes and directed
//! links ([`LinkConfig`]); packets experience **loss → queueing → serialisation →
//! propagation** on each link, routers decrement TTL and answer expired
//! probes with ICMP Time-Exceeded (which is what makes traceroute work),
//! and hosts hand packets to pluggable [`Handler`]s (the transport crate's
//! TCP endpoints are handlers).
//!
//! Links can be *dynamic*: a [`LinkDynamics`] implementation may vary
//! propagation delay, rate and loss probability over time — the hook the
//! Starlink bent pipe (moving satellites, handover loss bursts, diurnal
//! queueing) plugs into.
//!
//! Everything is deterministic: the event queue breaks ties by schedule
//! order and all randomness comes from seeded [`starlink_simcore::SimRng`]
//! streams.
//!
//! ```
//! use starlink_netsim::{LinkConfig, Network, Payload, NodeKind};
//! use starlink_simcore::{Bytes, DataRate, SimDuration, SimTime};
//!
//! let mut net = Network::new(42);
//! let a = net.add_node("client", NodeKind::Host);
//! let r = net.add_node("router", NodeKind::Router);
//! let b = net.add_node("server", NodeKind::Host);
//! net.connect_duplex(a, r, LinkConfig::ethernet(), LinkConfig::ethernet());
//! net.connect_duplex(r, b, LinkConfig::ethernet(), LinkConfig::ethernet());
//! net.route_linear(&[a, r, b]);
//!
//! net.send_packet(a, b, Bytes::new(100), 64, Payload::Raw(7));
//! net.run_until(SimTime::from_millis(100));
//! assert_eq!(net.stats().delivered, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod arena;
pub mod fault;
pub mod link;
pub mod network;
pub mod node;
pub mod trace;
pub mod wire;

pub use fault::{FaultEffect, FaultMode, FaultSchedule, FaultWindow};
pub use link::{LinkConfig, LinkDynamics, LinkStats};
pub use network::{Network, NetworkStats};
pub use node::{Ctx, Handler, NodeId, NodeKind, NodeStats};
pub use trace::EventTrace;
pub use wire::{Packet, Payload, SackBlocks, TcpFlags, TcpHeader, UdpDatagram};
