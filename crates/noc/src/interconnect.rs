//! The interface between the compute/memory system and any interconnect
//! implementation (real mesh, double network, or idealized models), and
//! the one place that decides which engine simulates a physical network.

use crate::arena::{ArenaDoubleNetwork, ArenaNetwork};
use crate::config::NetworkConfig;
use crate::network::{DoubleNetwork, Network};
use crate::packet::{EjectedPacket, Packet};
use crate::stats::NetStats;
use crate::telemetry::{TelemetryConfig, TelemetryReport};
use crate::tick::Tick;
use crate::types::NodeId;

/// A network as seen from its terminals.
///
/// Implementations: [`crate::ArenaNetwork`] / [`crate::ArenaDoubleNetwork`]
/// (the production engine for one mesh / two channel-sliced meshes),
/// [`crate::Network`] / [`crate::DoubleNetwork`] (the per-router engine
/// for the same two),
/// [`crate::PerfectInterconnect`] (zero latency, infinite bandwidth) and
/// [`crate::BandwidthLimitedInterconnect`] (zero latency, capped aggregate
/// bandwidth).
///
/// Cycle advancement comes from the [`Tick`] supertrait: every
/// implementation's clock edge is `Tick::tick`, and [`Interconnect::step`]
/// is a provided alias kept for terminal-side callers.
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

    /// Advances the interconnect by one cycle (alias for [`Tick::tick`]).
    fn step(&mut self) {
        self.tick();
    }

    /// Current cycle (number of `step` calls so far).
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

    /// Appends snapshots of every physical network's telemetry into a
    /// caller-provided buffer: one report for a single mesh, two
    /// (request + reply) for a double network, none for ideal networks
    /// or when telemetry was never enabled. The buffer is *not* cleared,
    /// so callers can reuse one `Vec` across reads without reallocating.
    fn telemetry_reports_into(&self, _out: &mut Vec<TelemetryReport>) {}

    /// Convenience wrapper over [`Interconnect::telemetry_reports_into`]
    /// that allocates a fresh `Vec`. Hot paths should reuse a buffer via
    /// the `_into` form instead.
    fn telemetry_reports(&self) -> Vec<TelemetryReport> {
        let mut out = Vec::new();
        self.telemetry_reports_into(&mut out);
        out
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
        (true, true) => Box::new(ArenaDoubleNetwork::from_single(cfg)),
        _ => build_reference_network(cfg, sliced),
    }
}

/// Builds the per-router reference engine ([`Network`], or
/// [`DoubleNetwork`] when `sliced` is set) for any shape. Its uses are
/// shapes the arena cannot pack (where telemetry is a no-op: only the
/// arena carries the instruments) and differential checks of the arena
/// against it.
///
/// # Panics
///
/// As [`build_network`].
pub fn build_reference_network(cfg: &NetworkConfig, sliced: bool) -> Box<dyn Interconnect> {
    if sliced {
        Box::new(DoubleNetwork::from_single(cfg))
    } else {
        Box::new(Network::new(cfg.clone()))
    }
}
