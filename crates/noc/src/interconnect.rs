//! The interface between the compute/memory system and any interconnect
//! implementation (real mesh, double network, or idealized models), and
//! the one place that decides which engine simulates a physical network.

use crate::arena::ArenaNetwork;
use crate::config::NetworkConfig;
use crate::double::DoubleNetwork;
use crate::network::Network;
use crate::packet::{EjectedPacket, Packet};
use crate::stats::NetStats;
use crate::telemetry::{TelemetryConfig, TelemetryReport};
use crate::tick::Tick;
use crate::types::NodeId;

/// A network as seen from its terminals.
///
/// Implementations: [`crate::ArenaNetwork`] (the production engine for
/// one mesh), [`crate::Network`] (the per-router reference engine for the
/// same), [`crate::DoubleNetwork`] (two channel-sliced meshes on either
/// engine) and [`crate::IdealInterconnect`] (zero latency, with a capped
/// or infinite aggregate bandwidth).
///
/// Cycle advancement comes from the [`Tick`] supertrait: every
/// implementation's clock edge is `Tick::tick`.
pub trait Interconnect: Tick {
    /// Offers a packet for injection at `node`.
    ///
    /// # Errors
    ///
    /// Returns the packet back if the node's network interface cannot
    /// accept it this cycle (all injection ports busy). Callers should
    /// retry on a later cycle; the refusal is recorded in the statistics
    /// (this is the MC-stall signal of the paper's Figure 11).
    fn try_inject(&mut self, node: NodeId, packet: Packet) -> Result<(), Packet>;

    /// Removes the next packet ejected at `node`, if any.
    fn pop(&mut self, node: NodeId) -> Option<EjectedPacket>;

    /// Current cycle (number of `tick` calls so far).
    fn cycle(&self) -> u64;

    /// Snapshot of aggregate statistics.
    fn stats(&self) -> NetStats;

    /// Total flits currently buffered or in flight (zero when fully
    /// drained).
    fn in_flight(&self) -> usize;

    /// Total link traversals (flit-hops) since construction. Ideal
    /// networks report zero — they have no links.
    fn flit_hops(&self) -> u64 {
        0
    }

    /// Arms the observability layer (latency histograms, link/VC
    /// counters, occupancy sampling, flight recorder); the instruments
    /// count from this call on. The arena engine implements it; the
    /// default is a no-op, for ideal networks (no links or buffers to
    /// observe) and the per-router reference engine. Telemetry never
    /// changes simulated outcomes — with or without it, every packet
    /// takes the same path at the same cycle.
    fn enable_telemetry(&mut self, _cfg: TelemetryConfig) {}

    /// Snapshots of every physical network's telemetry: one report for
    /// a single mesh, two (request + reply) for a double network, none
    /// for ideal networks, the per-router engine, or when telemetry was
    /// never enabled.
    fn telemetry_reports(&self) -> Vec<TelemetryReport> {
        Vec::new()
    }
}

/// `true` when [`build_network`] runs `cfg` on the arena engine: the
/// physical shape — `cfg` itself, or its half-width slice when `sliced`
/// asks for the double network equivalent to `cfg` — fits the arena's
/// packed slabs ([`ArenaNetwork::supports`]).
pub fn uses_arena(cfg: &NetworkConfig, sliced: bool) -> bool {
    if sliced {
        ArenaNetwork::supports(&cfg.slice())
    } else {
        ArenaNetwork::supports(cfg)
    }
}

/// Builds the production engine for `cfg`, or for the channel-sliced
/// double network equivalent to `cfg` when `sliced` is set: the arena
/// whenever [`uses_arena`] holds, the per-router engine otherwise. Both
/// engines produce bit-identical results, so the choice never shows in
/// a simulated outcome.
///
/// # Panics
///
/// Panics if `cfg` fails validation, or if `sliced` is set and the
/// channel width is odd.
pub fn build_network(cfg: &NetworkConfig, sliced: bool) -> Box<dyn Interconnect> {
    match (sliced, uses_arena(cfg, sliced)) {
        (false, true) => Box::new(ArenaNetwork::new(cfg.clone())),
        (true, true) => Box::new(DoubleNetwork::from_single(cfg, ArenaNetwork::new)),
        _ => build_reference_network(cfg, sliced),
    }
}

/// Builds the per-router reference engine ([`Network`], or a
/// [`DoubleNetwork`] of two when `sliced` is set) for any shape. Its uses are
/// shapes the arena cannot pack (where telemetry is a no-op: only the
/// arena carries the instruments) and differential checks of the arena
/// against it.
///
/// # Panics
///
/// As [`build_network`].
pub fn build_reference_network(cfg: &NetworkConfig, sliced: bool) -> Box<dyn Interconnect> {
    if sliced {
        Box::new(DoubleNetwork::from_single(cfg, Network::new))
    } else {
        Box::new(Network::new(cfg.clone()))
    }
}
