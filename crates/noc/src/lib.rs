//! # tenoc-noc — cycle-level on-chip network simulator
//!
//! A from-scratch, deterministic, cycle-level simulator for 2D-mesh
//! networks-on-chip with virtual-channel wormhole flow control, built to
//! reproduce the network microarchitecture evaluated in *Throughput-Effective
//! On-Chip Networks for Manycore Accelerators* (Bakhoda, Kim, Aamodt,
//! MICRO 2010).
//!
//! The crate provides:
//!
//! * A canonical input-queued virtual-channel router ([`router::Router`])
//!   with a configurable pipeline depth (4-stage baseline, 3-stage
//!   half-routers, aggressive 1-cycle routers), credit-based flow control
//!   and iSLIP-style separable switch allocation.
//! * The paper's **checkerboard** network organization: alternating
//!   full-routers and *half-routers* with restricted connectivity
//!   ([`topology::RouterKind`]), plus the **checkerboard routing** (CR)
//!   oblivious routing algorithm ([`routing`]).
//! * Multi-port (extra injection/ejection) routers for memory-controller
//!   nodes, and channel-sliced **double networks** ([`double::DoubleNetwork`]),
//!   generic over the engine that runs each slice.
//! * The idealized interconnect of the paper's limit studies: a
//!   zero-latency network whose aggregate-bandwidth cap is finite for the
//!   Figure 6 study and infinite for the perfect network ([`ideal`]).
//! * Two engines for the same simulation: the flat structure-of-arrays
//!   [`arena`] kernel, which [`build_network`] picks for every shape it
//!   can pack and which carries the [`telemetry`] instruments, and the
//!   per-router [`network`] kernel, a plain full sweep that serves as the
//!   fallback for other shapes and as the arena's differential reference.
//! * An open-loop traffic harness for latency/throughput curves under
//!   many-to-few-to-many traffic ([`openloop`]), reproducing Figure 21.
//!
//! # Example
//!
//! Send a packet across a 6x6 baseline mesh and observe its latency:
//!
//! ```
//! use tenoc_noc::{build_network, NetworkConfig, Packet};
//!
//! let cfg = NetworkConfig::baseline_mesh(6);
//! let mut net = build_network(&cfg, false); // false: one mesh, not sliced
//! let pkt = Packet::request(0, 35, 8, 42); // src, dst, bytes, tag
//! net.try_inject(0, pkt).expect("empty network accepts injection");
//! net.tick_n(200);
//! let out = net.pop(35).expect("packet delivered");
//! assert_eq!(out.header.tag, 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activeset;
pub mod arbiter;
pub mod arena;
pub mod audit;
pub mod buffer;
pub mod channel;
pub mod config;
pub mod double;
pub mod ideal;
pub mod interconnect;
pub mod network;
pub mod openloop;
pub mod packet;
pub mod router;
pub mod routing;
pub mod stats;
pub mod synthetic;
pub mod telemetry;
pub mod tick;
pub mod topology;
pub mod types;

pub use activeset::ActiveSet;
pub use arena::ArenaNetwork;
pub use config::{AllocatorKind, NetworkConfig, RouterTiming, RoutingKind, VcLayout};
pub use double::DoubleNetwork;
pub use ideal::IdealInterconnect;
pub use interconnect::{build_network, build_reference_network, uses_arena, Interconnect};
pub use network::Network;
pub use packet::{EjectedPacket, Flit, Packet, PacketClass, PacketHeader, Phase};
pub use routing::{OutPort, RouteDecision, VcSet};
pub use stats::NetStats;
pub use telemetry::{
    ArmSpec, FlightEvent, FlightRecorder, LatencyHistogram, LatencyHistograms, LinkRecord,
    TelemetryConfig, TelemetryReport,
};
pub use tick::Tick;
pub use topology::{Fabric, Mesh, Placement, RouterKind, Topology};
pub use types::{Coord, Direction, NodeId};
