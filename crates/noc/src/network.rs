//! A complete single physical network (routers + channels + network
//! interfaces).
//!
//! This is the per-router reference engine: one cycle is the plain
//! four-stage sweep (deliver, eject credits, NI, router) over every node,
//! the literal definition of the simulation. Production cells run on the
//! bit-identical [`arena`](crate::arena) kernel, whose active-set
//! scheduler must reproduce this sweep; this engine serves shapes the
//! arena cannot pack and differential checks of the arena against it
//! (see [`crate::build_network`]).

use crate::channel::Channel;
use crate::config::NetworkConfig;
use crate::interconnect::Interconnect;
use crate::packet::{EjectedPacket, Packet, PacketHeader};
use crate::router::{RouteCtx, Router, RouterOutputs};
use crate::routing::{self};
use crate::stats::NetStats;
use crate::tick::Tick;
use crate::types::{Direction, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// A packet being streamed flit-by-flit into a router injection port.
#[derive(Copy, Clone, Debug)]
struct NiPacket {
    hdr: PacketHeader,
    next_seq: u16,
    vc: Option<u8>,
}

/// One physical mesh network.
///
/// See the crate-level documentation for an end-to-end example.
pub struct Network {
    cfg: NetworkConfig,
    routers: Vec<Router>,
    /// Outgoing channel of `node` toward direction `d` at index
    /// `node * 4 + d.index()` (unused entries exist at mesh edges).
    channels: Vec<Channel>,
    /// Per node, per injection port: packet currently being streamed.
    ni: Vec<Vec<Option<NiPacket>>>,
    /// Round-robin cursor over injection ports per node.
    ni_cursor: Vec<usize>,
    /// Ejected packets per node.
    ejected: Vec<VecDeque<EjectedPacket>>,
    /// Ejection-buffer credits to return `(due, node, out_port, vc)`.
    eject_credits: VecDeque<(u64, NodeId, usize, u8)>,
    cycle: u64,
    stats: NetStats,
    rng: SmallRng,
    next_pkt_id: u64,
    scratch: RouterOutputs,
}

impl Network {
    /// Builds a network from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    pub fn new(cfg: NetworkConfig) -> Self {
        cfg.validate().expect("invalid network configuration");
        crate::audit::audit(&cfg);
        let n = cfg.mesh.len();
        let routers = (0..n)
            .map(|node| {
                let dir_exists = std::array::from_fn(|i| {
                    cfg.mesh.neighbor(node, Direction::from_index(i)).is_some()
                });
                Router::with_allocator(
                    node,
                    cfg.mesh.kind(node),
                    cfg.timing(node),
                    cfg.allocator,
                    cfg.vcs.total as usize,
                    cfg.vc_depth,
                    cfg.inject_ports(node),
                    cfg.eject_ports(node),
                    dir_exists,
                )
            })
            .collect();
        let ni = (0..n).map(|node| vec![None; cfg.inject_ports(node)]).collect();
        Network {
            routers,
            channels: (0..n * 4).map(|_| Channel::new()).collect(),
            ni,
            ni_cursor: vec![0; n],
            ejected: (0..n).map(|_| VecDeque::new()).collect(),
            eject_credits: VecDeque::new(),
            cycle: 0,
            stats: NetStats::new(n),
            rng: SmallRng::seed_from_u64(cfg.seed),
            next_pkt_id: 1,
            scratch: RouterOutputs::default(),
            cfg,
        }
    }

    /// The network's configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Per-link traffic: `(source node, direction, flits carried)` for
    /// every physical channel, in node order. Divide by
    /// [`Interconnect::cycle`] for utilization (flits/cycle; 1.0 = fully
    /// utilized link).
    pub fn link_loads(&self) -> Vec<(NodeId, Direction, u64)> {
        let mut out = Vec::new();
        for node in 0..self.cfg.mesh.len() {
            for dir in Direction::ALL {
                if self.cfg.mesh.neighbor(node, dir).is_some() {
                    out.push((node, dir, self.channels[node * 4 + dir.index()].total_flits()));
                }
            }
        }
        out
    }

    /// NI phase for one node: streams one flit per busy injection port
    /// into the router, choosing each packet's VC at head injection.
    fn stream_ni_node(&mut self, node: NodeId, now: u64) {
        for port in 0..self.ni[node].len() {
            let Some(mut pkt) = self.ni[node][port] else { continue };
            let in_port = 4 + port;
            // Choose the VC once, at head injection.
            if pkt.vc.is_none() {
                let set = routing::vc_set_for(
                    self.cfg.routing,
                    &self.cfg.vcs,
                    pkt.hdr.class,
                    pkt.hdr.phase,
                );
                let router = &self.routers[node];
                let best = set
                    .iter()
                    .map(|vc| (router.inject_space(port, vc), vc))
                    .filter(|&(space, _)| space > 0)
                    .max_by_key(|&(space, vc)| (space, std::cmp::Reverse(vc)));
                match best {
                    Some((_, vc)) => {
                        pkt.vc = Some(vc);
                        pkt.hdr.injected = now;
                    }
                    None => {
                        self.ni[node][port] = Some(pkt);
                        continue;
                    }
                }
            }
            let vc = pkt.vc.expect("vc chosen above");
            // Stream one flit per cycle while space remains.
            if self.routers[node].inject_space(port, vc) > 0 {
                let flit = crate::packet::Flit { hdr: pkt.hdr, seq: pkt.next_seq };
                self.routers[node].accept_flit(in_port, vc, flit, now);
                pkt.next_seq += 1;
            }
            self.ni[node][port] = if pkt.next_seq >= pkt.hdr.flits { None } else { Some(pkt) };
        }
    }

    /// Delivery phase for one node, receiver-centric: pops this node's due
    /// incoming flits (from each neighbor's channel toward it) and due
    /// returning credits (from its own outgoing channels).
    ///
    /// Every channel FIFO is drained by exactly one receiver, so visiting
    /// receivers in any order yields the same post-phase state as the old
    /// sender-ordered collect-then-apply sweep.
    fn deliver_node(&mut self, node: NodeId, now: u64) {
        for dir in Direction::ALL {
            let Some(neighbor) = self.cfg.mesh.neighbor(node, dir) else { continue };
            // The neighbor toward `dir` sends to us on its outgoing
            // channel toward `dir.opposite()`.
            let inbound = neighbor * 4 + dir.opposite().index();
            while let Some((vc, flit)) = self.channels[inbound].pop_flit(now) {
                self.routers[node].accept_flit(dir.index(), vc, flit, now);
            }
            let outbound = node * 4 + dir.index();
            while let Some(vc) = self.channels[outbound].pop_credit(now) {
                self.routers[node].accept_credit(dir.index(), vc);
            }
        }
    }

    /// Returns due ejection-buffer credits to their routers.
    fn return_eject_credits(&mut self, now: u64) {
        while let Some(&(due, node, out_port, vc)) = self.eject_credits.front() {
            if due > now {
                break;
            }
            self.eject_credits.pop_front();
            self.routers[node].accept_credit(out_port, vc);
        }
    }

    /// Router phase for one node: runs the pipeline and routes emitted
    /// flits/credits onto channels.
    fn step_router_node(&mut self, node: NodeId, now: u64) {
        let timing = self.routers[node].timing();
        let flit_delay = timing.st_delay + self.cfg.link_latency as u64 + 1;
        self.scratch.clear();
        {
            let ctx =
                RouteCtx { mesh: &self.cfg.mesh, routing: self.cfg.routing, layout: self.cfg.vcs };
            self.routers[node].step(now, &ctx, &mut self.scratch);
        }
        for i in 0..self.scratch.flits.len() {
            let (out_port, vc, flit) = self.scratch.flits[i];
            if out_port < 4 {
                self.channels[node * 4 + out_port].push_flit(now + flit_delay, vc, flit);
            } else {
                // Ejection: the sink consumes immediately and returns
                // the buffer credit next cycle.
                debug_assert!(
                    self.eject_credits.back().is_none_or(|&(due, ..)| due <= now + 1),
                    "eject credit queue must stay due-ordered"
                );
                self.eject_credits.push_back((now + 1, node, out_port, vc));
                if flit.is_tail() {
                    let pkt = EjectedPacket { header: flit.hdr, ejected: now };
                    self.stats.record_ejection(&pkt);
                    self.ejected[node].push_back(pkt);
                }
            }
        }
        for i in 0..self.scratch.credits.len() {
            let (in_dir, vc) = self.scratch.credits[i];
            let upstream = self
                .cfg
                .mesh
                .neighbor(node, in_dir)
                .expect("credit for a direction port implies a neighbor");
            self.channels[upstream * 4 + in_dir.opposite().index()].push_credit(now + 1, vc);
        }
    }
}

impl Tick for Network {
    /// One cycle: every node's deliveries, the due ejection credits,
    /// every node's NI, then every node's router, each stage a full
    /// sweep in ascending node order.
    fn tick(&mut self) {
        let now = self.cycle;
        let n = self.cfg.mesh.len();
        for node in 0..n {
            self.deliver_node(node, now);
        }
        self.return_eject_credits(now);
        for node in 0..n {
            self.stream_ni_node(node, now);
        }
        for node in 0..n {
            self.step_router_node(node, now);
        }
        self.stats.cycles += 1;
        self.cycle += 1;
    }
}

impl Interconnect for Network {
    fn try_inject(&mut self, node: NodeId, mut packet: Packet) -> Result<(), Packet> {
        self.stats.inject_attempts_by_node[node] += 1;
        let ports = self.ni[node].len();
        let start = self.ni_cursor[node];
        let free = (0..ports).map(|i| (start + i) % ports).find(|&p| self.ni[node][p].is_none());
        let Some(port) = free else {
            self.stats.inject_blocked_by_node[node] += 1;
            return Err(packet);
        };
        self.ni_cursor[node] = (port + 1) % ports;

        let hdr = &mut packet.header;
        let (phase, via) =
            routing::plan_injection(self.cfg.routing, &self.cfg.mesh, node, hdr.dst, &mut self.rng)
                .expect("workload sent a packet between unroutable checkerboard endpoints");
        hdr.src = node;
        hdr.phase = phase;
        hdr.via = via;
        hdr.id = self.next_pkt_id;
        self.next_pkt_id += 1;
        hdr.flits = Packet { header: *hdr }.flits_at_width(self.cfg.channel_bytes);
        if hdr.created == PacketHeader::CREATED_UNSET {
            hdr.created = self.cycle;
        }
        self.stats.injected_flits_by_node[node] += hdr.flits as u64;
        self.ni[node][port] = Some(NiPacket { hdr: *hdr, next_seq: 0, vc: None });
        Ok(())
    }

    fn pop(&mut self, node: NodeId) -> Option<EjectedPacket> {
        self.ejected[node].pop_front()
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn stats(&self) -> NetStats {
        self.stats.clone()
    }

    fn in_flight(&self) -> usize {
        let buffered: usize = self.routers.iter().map(Router::occupancy).sum();
        let flying: usize = self.channels.iter().map(Channel::flits_in_flight).sum();
        let pending: usize = self
            .ni
            .iter()
            .flatten()
            .filter_map(|p| p.map(|p| (p.hdr.flits - p.next_seq) as usize))
            .sum();
        buffered + flying + pending
    }

    fn flit_hops(&self) -> u64 {
        self.channels.iter().map(Channel::total_flits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetworkConfig, RoutingKind, VcLayout};
    use crate::packet::PacketClass;
    use crate::types::Coord;

    fn run_until_delivered(net: &mut Network, dst: NodeId, max: u64) -> EjectedPacket {
        for _ in 0..max {
            net.tick();
            if let Some(p) = net.pop(dst) {
                return p;
            }
        }
        panic!("packet not delivered within {max} cycles");
    }

    #[test]
    fn single_packet_crosses_baseline_mesh() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mut net = Network::new(cfg);
        let src = 0;
        let dst = 35;
        net.try_inject(src, Packet::request(src, dst, 8, 99)).unwrap();
        let out = run_until_delivered(&mut net, dst, 500);
        assert_eq!(out.header.tag, 99);
        assert_eq!(out.header.src, src);
        assert_eq!(out.header.flits, 1);
        assert_eq!(net.in_flight(), 0, "network drains after delivery");
    }

    /// Zero-load latency of a 1-flit packet over h hops with 4-stage
    /// routers and 1-cycle links is h * 5 plus injection/ejection
    /// overheads, which are constant. Verify the per-hop increment is 5.
    #[test]
    fn zero_load_per_hop_latency_is_five() {
        let mut lat = Vec::new();
        for hops in [1usize, 2, 3, 4, 5] {
            let cfg = NetworkConfig::baseline_mesh(6);
            let mut net = Network::new(cfg);
            let src = 0;
            let dst = hops; // walk east along row 0
            net.try_inject(src, Packet::request(src, dst, 8, 0)).unwrap();
            let out = run_until_delivered(&mut net, dst, 500);
            lat.push(out.network_latency());
        }
        for w in lat.windows(2) {
            assert_eq!(w[1] - w[0], 5, "per-hop latency must be 5 cycles: {lat:?}");
        }
    }

    /// With 1-cycle routers the per-hop increment drops to 2.
    #[test]
    fn one_cycle_router_per_hop_latency_is_two() {
        let mut lat = Vec::new();
        for hops in [1usize, 3, 5] {
            let mut cfg = NetworkConfig::baseline_mesh(6);
            cfg.router_stages = 1;
            let mut net = Network::new(cfg);
            net.try_inject(0, Packet::request(0, hops, 8, 0)).unwrap();
            lat.push(run_until_delivered(&mut net, hops, 500).network_latency());
        }
        assert_eq!(lat[1] - lat[0], 4);
        assert_eq!(lat[2] - lat[1], 4);
    }

    /// A 4-flit packet takes 3 extra serialization cycles end to end.
    #[test]
    fn serialization_latency() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mut net = Network::new(cfg);
        net.try_inject(0, Packet::request(0, 3, 8, 0)).unwrap();
        let small = run_until_delivered(&mut net, 3, 500).network_latency();

        let cfg = NetworkConfig::baseline_mesh(6);
        let mut net = Network::new(cfg);
        net.try_inject(0, Packet::reply(0, 3, 64, 0)).unwrap();
        let large = run_until_delivered(&mut net, 3, 500).network_latency();
        assert_eq!(large - small, 3, "3 extra flits serialize at 1 flit/cycle");
    }

    /// Packets of both classes traverse the checkerboard mesh between all
    /// core-MC pairs.
    #[test]
    fn checkerboard_core_to_mc_traffic() {
        let cfg = NetworkConfig::checkerboard_mesh(6);
        let mcs = cfg.mc_nodes.clone();
        let cores: Vec<NodeId> = (0..cfg.mesh.len()).filter(|n| !mcs.contains(n)).collect();
        let mut net = Network::new(cfg);
        let mut expected = 0u64;
        for (i, &core) in cores.iter().enumerate() {
            let mc = mcs[i % mcs.len()];
            net.try_inject(core, Packet::request(core, mc, 8, core as u64)).unwrap();
            expected += 1;
        }
        let mut got = 0u64;
        for _ in 0..2000 {
            net.tick();
            for &mc in &mcs {
                while let Some(p) = net.pop(mc) {
                    assert_eq!(p.header.tag, p.header.src as u64);
                    got += 1;
                }
            }
        }
        assert_eq!(got, expected);
        assert_eq!(net.in_flight(), 0);
    }

    /// MC-to-core replies on the checkerboard (half-router sources).
    #[test]
    fn checkerboard_mc_to_core_replies() {
        let cfg = NetworkConfig::checkerboard_mesh(6);
        let mcs = cfg.mc_nodes.clone();
        let cores: Vec<NodeId> = (0..cfg.mesh.len()).filter(|n| !mcs.contains(n)).collect();
        let mut net = Network::new(cfg);
        for (i, &core) in cores.iter().enumerate() {
            let mc = mcs[i % mcs.len()];
            net.try_inject(mc, Packet::reply(mc, core, 64, 7)).ok();
        }
        let mut got = 0;
        for _ in 0..3000 {
            net.tick();
            for &core in &cores {
                while net.pop(core).is_some() {
                    got += 1;
                }
            }
        }
        assert!(got >= mcs.len(), "at least one reply per MC delivered, got {got}");
        assert_eq!(net.in_flight(), 0);
    }

    /// Multi-port MC injection accepts two packets in the same cycle.
    #[test]
    fn multiport_injection_doubles_acceptance() {
        let mut cfg = NetworkConfig::baseline_mesh(6);
        cfg.mc_inject_ports = 2;
        let mc = cfg.mc_nodes[0];
        let mut net = Network::new(cfg);
        assert!(net.try_inject(mc, Packet::reply(mc, 14, 64, 0)).is_ok());
        assert!(net.try_inject(mc, Packet::reply(mc, 15, 64, 1)).is_ok());
        // Third must be refused: both ports busy.
        assert!(net.try_inject(mc, Packet::reply(mc, 16, 64, 2)).is_err());
        let s = net.stats();
        assert_eq!(s.inject_attempts_by_node[mc], 3);
        assert_eq!(s.inject_blocked_by_node[mc], 1);
    }

    /// Saturating one VC must not corrupt packet ordering or contents.
    #[test]
    fn heavy_contention_preserves_integrity() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mesh = cfg.mesh.clone();
        let dst = mesh.node(Coord::new(3, 0)); // an MC-ish node on row 0
        let mut net = Network::new(cfg);
        let sources: Vec<NodeId> = (6..30).collect();
        let mut pending: Vec<Packet> =
            sources.iter().map(|&s| Packet::request(s, dst, 64, s as u64)).collect();
        let mut delivered = 0;
        for _ in 0..5000 {
            pending.retain(|&p| net.try_inject(p.header.src, p).is_err());
            net.tick();
            while let Some(p) = net.pop(dst) {
                assert_eq!(p.header.tag, p.header.src as u64);
                delivered += 1;
            }
            if delivered == sources.len() && pending.is_empty() {
                break;
            }
        }
        assert_eq!(delivered, sources.len());
        assert_eq!(net.in_flight(), 0);
    }

    /// DOR on the baseline mesh with routing kind DorYx works symmetrically.
    #[test]
    fn dor_yx_network_delivers() {
        let mut cfg = NetworkConfig::baseline_mesh(6);
        cfg.routing = RoutingKind::DorYx;
        let mut net = Network::new(cfg);
        net.try_inject(2, Packet::request(2, 33, 8, 5)).unwrap();
        let p = run_until_delivered(&mut net, 33, 500);
        assert_eq!(p.header.tag, 5);
    }

    /// Link-load telemetry matches the path a lone packet takes.
    #[test]
    fn link_loads_track_a_single_packet() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mut net = Network::new(cfg);
        // 0 -> 3: three eastward hops along row 0, one flit.
        net.try_inject(0, Packet::request(0, 3, 8, 0)).unwrap();
        for _ in 0..100 {
            net.tick();
        }
        net.pop(3).expect("delivered");
        let loads = net.link_loads();
        let total: u64 = loads.iter().map(|&(_, _, f)| f).sum();
        assert_eq!(total, 3, "one flit crosses exactly three links");
        for &(node, dir, f) in &loads {
            if f > 0 {
                assert_eq!(dir, Direction::East);
                assert!(node < 3, "only row-0 eastward links used, saw node {node}");
            }
        }
    }

    /// Request and reply latencies are tracked per class.
    #[test]
    fn stats_separate_classes() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mut net = Network::new(cfg);
        net.try_inject(0, Packet::request(0, 2, 8, 0)).unwrap();
        net.try_inject(14, Packet::reply(14, 20, 64, 0)).unwrap();
        for _ in 0..200 {
            net.tick();
        }
        net.pop(2).unwrap();
        net.pop(20).unwrap();
        let s = net.stats();
        assert_eq!(s.packets, [1, 1]);
        assert_eq!(s.flits, [1, 4]);
        assert!(s.avg_network_latency_class(PacketClass::Reply) > 0.0);
        assert!(s.avg_network_latency_class(PacketClass::Request) > 0.0);
    }

    /// Two packets queued on the same VC keep their order (wormhole FIFO).
    #[test]
    fn same_vc_packets_stay_ordered() {
        let cfg = NetworkConfig::baseline_mesh(6);
        let mut net = Network::new(cfg);
        let mut delivered = Vec::new();
        let mut pending = vec![
            Packet::request(0, 4, 64, 1),
            Packet::request(0, 4, 64, 2),
            Packet::request(0, 4, 64, 3),
        ];
        for _ in 0..1000 {
            pending.retain(|&p| net.try_inject(0, p).is_err());
            net.tick();
            while let Some(p) = net.pop(4) {
                delivered.push(p.header.tag);
            }
        }
        assert_eq!(delivered, vec![1, 2, 3], "same source/dest/class traffic is FIFO");
    }

    /// The output-first allocator delivers the same traffic as iSLIP.
    #[test]
    fn output_first_allocator_delivers() {
        let mut cfg = NetworkConfig::baseline_mesh(6);
        cfg.allocator = crate::config::AllocatorKind::OutputFirst;
        let mcs = cfg.mc_nodes.clone();
        let mut net = Network::new(cfg);
        let mut pending: Vec<Packet> =
            (6..30).map(|s| Packet::request(s, mcs[s % 8], 64, s as u64)).collect();
        let mut delivered = 0;
        for _ in 0..5000 {
            pending.retain(|&p| net.try_inject(p.header.src, p).is_err());
            net.tick();
            for &mc in &mcs {
                while let Some(p) = net.pop(mc) {
                    assert_eq!(p.header.tag, p.header.src as u64);
                    delivered += 1;
                }
            }
        }
        assert_eq!(delivered, 24);
        assert_eq!(net.in_flight(), 0);
    }

    /// Wider channels shrink packet flit counts.
    #[test]
    fn channel_width_affects_flitization() {
        let mut cfg = NetworkConfig::baseline_mesh(6);
        cfg.channel_bytes = 32;
        cfg.vcs = VcLayout::new(2, 2, false);
        let mut net = Network::new(cfg);
        net.try_inject(0, Packet::reply(0, 5, 64, 0)).unwrap();
        let p = run_until_delivered(&mut net, 5, 500);
        assert_eq!(p.header.flits, 2);
    }
}
