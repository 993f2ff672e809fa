//! The channel-sliced double network (paper Section IV-C), generic over
//! the engine that simulates each slice.

use crate::config::NetworkConfig;
use crate::interconnect::Interconnect;
use crate::packet::{EjectedPacket, Packet, PacketClass};
use crate::stats::NetStats;
use crate::telemetry::{TelemetryConfig, TelemetryReport};
use crate::tick::Tick;
use crate::types::NodeId;

/// Two parallel channel-sliced networks: one dedicated to requests, one to
/// replies (paper Section IV-C).
///
/// Each subnetwork runs at half the channel width of the single network it
/// replaces, keeping total bisection bandwidth constant while shrinking
/// crossbar area quadratically. Because classes are physically separated,
/// no virtual channels are needed for protocol deadlock avoidance.
///
/// `N` is the engine of each slice: [`crate::ArenaNetwork`] in production,
/// [`crate::Network`] as the per-router reference (see
/// [`crate::build_network`]). Everything that makes the pair one double
/// network — the class split, the reply slice's seed, the tick order, the
/// merged statistics and the telemetry labels — is defined here once.
pub struct DoubleNetwork<N> {
    request: N,
    reply: N,
}

impl<N: Interconnect> DoubleNetwork<N> {
    /// Derives a double network from a single-network configuration by
    /// halving the channel width and splitting the VC layout
    /// ([`NetworkConfig::slice`]), building each slice with `build`
    /// (e.g. `ArenaNetwork::new` or `Network::new`). The reply slice's
    /// seed is offset from the request slice's so the two draw
    /// independent routing randomness.
    ///
    /// Channel slicing shrinks the *fabric* datapath, not the terminal
    /// interface: the MC network interfaces still move the original
    /// channel width per cycle, so each slice's MC routers carry
    /// `slice factor x` the configured local ports. (The paper's
    /// Figure 18 — double network ~= single network — requires terminal
    /// bandwidth to be preserved; Table VI's area accounting likewise
    /// charges extra *16-byte-equivalent* ports only for the explicit 2P
    /// design.)
    ///
    /// # Panics
    ///
    /// Panics if the single network's channel width is not even, if the
    /// slice declares more than one class, or if `build` panics (invalid
    /// slice configuration).
    pub fn from_single(cfg: &NetworkConfig, mut build: impl FnMut(NetworkConfig) -> N) -> Self {
        let request_cfg = cfg.slice();
        assert_eq!(request_cfg.vcs.classes, 1, "double network slices carry one class each");
        let mut reply_cfg = request_cfg.clone();
        reply_cfg.seed = request_cfg.seed.wrapping_add(0x9e37_79b9);
        DoubleNetwork { request: build(request_cfg), reply: build(reply_cfg) }
    }

    /// The request subnetwork.
    pub fn request_net(&self) -> &N {
        &self.request
    }

    /// The reply subnetwork.
    pub fn reply_net(&self) -> &N {
        &self.reply
    }
}

impl<N: Interconnect> Tick for DoubleNetwork<N> {
    /// One cycle of each slice, request before reply.
    fn tick(&mut self) {
        self.request.tick();
        self.reply.tick();
    }
}

impl<N: Interconnect> Interconnect for DoubleNetwork<N> {
    fn try_inject(&mut self, node: NodeId, packet: Packet) -> Result<(), Packet> {
        match packet.header.class {
            PacketClass::Request => self.request.try_inject(node, packet),
            PacketClass::Reply => self.reply.try_inject(node, packet),
        }
    }

    fn pop(&mut self, node: NodeId) -> Option<EjectedPacket> {
        self.request.pop(node).or_else(|| self.reply.pop(node))
    }

    fn cycle(&self) -> u64 {
        self.request.cycle()
    }

    fn stats(&self) -> NetStats {
        // The slices tick in lockstep, so they meet merge_parallel's
        // same-window contract by construction.
        let mut s = self.request.stats();
        s.merge_parallel(&self.reply.stats());
        s
    }

    fn in_flight(&self) -> usize {
        self.request.in_flight() + self.reply.in_flight()
    }

    fn flit_hops(&self) -> u64 {
        self.request.flit_hops() + self.reply.flit_hops()
    }

    fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        self.request.enable_telemetry(cfg);
        self.reply.enable_telemetry(cfg);
    }

    /// The request slice's reports, then the reply slice's, relabeled
    /// `request` and `reply`.
    fn telemetry_reports(&self) -> Vec<TelemetryReport> {
        let mut out = Vec::new();
        for (net, label) in [(&self.request, "request"), (&self.reply, "reply")] {
            out.extend(net.telemetry_reports().into_iter().map(|mut r| {
                r.label = label.to_string();
                r
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ArenaNetwork;
    use crate::network::Network;

    /// The double network segregates classes onto separate slices.
    #[test]
    fn double_network_separates_classes() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mut dn = DoubleNetwork::from_single(&cfg, Network::new);
        dn.try_inject(0, Packet::request(0, 10, 8, 1)).unwrap();
        dn.try_inject(10, Packet::reply(10, 0, 64, 2)).unwrap();
        dn.tick_n(300);
        let req = dn.pop(10).expect("request delivered");
        assert_eq!(req.header.class, PacketClass::Request);
        // 8-byte slices: a 64-byte reply is 8 flits.
        let rep = dn.pop(0).expect("reply delivered");
        assert_eq!(rep.header.flits, 8);
        assert_eq!(dn.request_net().stats().packets[0], 1);
        assert_eq!(dn.reply_net().stats().packets[1], 1);
    }

    /// The double network arms both slices and yields one labeled report
    /// per slice.
    #[test]
    fn double_network_reports_both_slices() {
        let mut dn =
            DoubleNetwork::from_single(&NetworkConfig::baseline_mesh(6), ArenaNetwork::new);
        dn.enable_telemetry(TelemetryConfig::default());
        dn.try_inject(0, Packet::request(0, 10, 8, 1)).unwrap();
        dn.try_inject(10, Packet::reply(10, 0, 64, 2)).unwrap();
        dn.tick_n(300);
        let reports = dn.telemetry_reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].label, "request");
        assert_eq!(reports[1].label, "reply");
        assert_eq!(reports[0].hist.total[0].count(), 1, "request slice saw the request");
        assert_eq!(reports[1].hist.total[1].count(), 1, "reply slice saw the reply");
        assert!(reports.iter().all(|r| !r.flight.is_empty()));
    }
}
