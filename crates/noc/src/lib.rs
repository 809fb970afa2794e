//! # noctest-noc — a cycle-level wormhole mesh network-on-chip simulator
//!
//! This crate implements the *test access mechanism* substrate of the DATE'05
//! paper "Test Time Reduction Reusing Multiple Processors in a Network-on-Chip
//! Based Architecture" (Amory et al.): a Hermes-like packet-switched mesh NoC
//! with
//!
//! * a 2-D grid (mesh) [`topology`] with five-port routers
//!   (North/South/East/West/Local),
//! * dimension-ordered **XY routing** (plus YX and West-First variants for
//!   ablation studies) in [`routing`],
//! * **wormhole switching** with credit-based flow control in [`router`] and
//!   [`network`] — driven by one event-driven core ([`batch`], with
//!   [`Network`] as its one-lane view) that gives idle routers, empty FIFOs
//!   and paced injectors zero per-cycle cost and fast-forwards fully idle
//!   spans (the full-scan cycle-stepped loop survives in [`mod@reference`]
//!   as the executable specification the core is differentially tested
//!   against),
//! * a configurable performance characterisation — *routing latency* (the
//!   intra-router cycles needed to set up a connection for a header flit) and
//!   *flow-control latency* (the inter-router cycles needed to forward each
//!   flit) — exactly the two metrics the paper's Section 2 asks the designer
//!   to extract from the NoC, and
//! * an energy/power model ([`power`]) that charges every router a packet
//!   traverses, mirroring the paper's measurement methodology ("the mean
//!   power consumption to send packets of random size and random payload ...
//!   added to each router the packet passes through").
//!
//! The companion planner crate (`noctest-core`) consumes only the *analytic*
//! characterisation ([`NocCharacterization`]); the cycle-level simulator in
//! this crate exists so that the characterisation can be measured rather than
//! assumed, and so that planned test schedules can be *replayed* flit by flit
//! to validate the analytic timing model.
//!
//! ## Quickstart
//!
//! ```
//! use noctest_noc::{NocConfig, Network, Packet, NodeId};
//!
//! # fn main() -> Result<(), noctest_noc::NocError> {
//! let config = NocConfig::builder(4, 4).flit_width_bits(16).build()?;
//! let mut net = Network::new(config)?;
//! let src = NodeId::new(0);
//! let dst = net.topology().node_at(3, 3).unwrap();
//! net.inject(Packet::new(src, dst, 8))?;
//! let delivered = net.run_until_idle(10_000)?;
//! assert_eq!(delivered.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod characterize;
pub mod config;
pub mod error;
pub mod flit;
pub mod geometry;
pub mod network;
pub mod power;
pub mod reference;
pub mod rng;
pub mod router;
pub mod routing;
pub mod stats;
pub mod table;
pub mod topology;
pub mod traffic;

pub use batch::BatchNetwork;
pub use characterize::{characterize, NocCharacterization};
pub use config::{NocConfig, NocConfigBuilder};
pub use error::NocError;
pub use flit::{Flit, FlitKind, Packet, PacketId};
pub use geometry::{Direction, Position};
pub use network::{DeliveredPacket, Network};
pub use power::{EnergyLedger, PowerParams};
pub use reference::ReferenceNetwork;
pub use routing::RoutingKind;
pub use stats::{LatencyStats, NetworkStats};
pub use table::RouteTable;
pub use topology::{LinkId, Mesh, NodeId};
pub use traffic::{TrafficPattern, TrafficSpec};
