//! Open-loop many-to-few-to-many traffic harness (paper Figure 21).
//!
//! Compute nodes inject single-flit read requests at a configurable rate
//! toward the few MC nodes (uniform-random or hotspot selection); each MC
//! responds to every request with a four-flit read reply. Latency is
//! reported over packets *generated* during the measurement window,
//! including source queueing, so the curves exhibit the classic saturation
//! blow-up as offered load approaches network capacity.
//!
//! [`run_open_loop`] runs a probe on the production engine
//! ([`build_network`]); [`run_open_loop_on`] runs it on a caller-built
//! network, e.g. a double network or one with telemetry armed.

use crate::config::NetworkConfig;
use crate::interconnect::{build_network, Interconnect};
use crate::packet::Packet;
use crate::types::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Destination selection among the MC nodes.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum TrafficPattern {
    /// Each request picks an MC uniformly at random (1/m each).
    UniformRandom,
    /// A fraction of requests target one hot MC; the rest are uniform over
    /// the others. The paper uses 20% to one of eight MCs.
    Hotspot {
        /// Index (into the MC list) of the hot MC.
        hot: usize,
        /// Fraction of requests sent to the hot MC.
        fraction: f64,
    },
}

/// Open-loop experiment configuration.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// Network under test. Its `mc_nodes` are the few destinations.
    pub net: NetworkConfig,
    /// Offered load per compute node, in flits/cycle (requests are one
    /// flit, so this equals packets/cycle/node).
    pub injection_rate: f64,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Warm-up cycles before measurement.
    pub warmup: u64,
    /// Measurement window in cycles.
    pub measure: u64,
    /// Extra cycles allowed for measured packets to drain.
    pub drain: u64,
    /// Request payload bytes (default 8: one flit at 16-byte channels).
    pub request_bytes: u32,
    /// Reply payload bytes (default 64: four flits at 16-byte channels).
    pub reply_bytes: u32,
    /// Traffic RNG seed.
    pub seed: u64,
}

impl OpenLoopConfig {
    /// Defaults matching Figure 21 for a given network configuration and
    /// injection rate.
    pub fn new(net: NetworkConfig, injection_rate: f64, pattern: TrafficPattern) -> Self {
        OpenLoopConfig {
            net,
            injection_rate,
            pattern,
            warmup: 10_000,
            measure: 20_000,
            drain: 30_000,
            request_bytes: 8,
            reply_bytes: 64,
            seed: 0x0f21,
        }
    }

    /// `true` when a packet generated at cycle `now` belongs to the
    /// measurement window: **inclusive** of `warmup` (the first measured
    /// cycle), **exclusive** of `warmup + measure` (the first drain
    /// cycle). The single source of truth for measurement membership —
    /// both the generation and the throughput-accounting paths of
    /// [`run_open_loop`] go through here, so the boundary semantics
    /// cannot drift apart.
    pub fn in_measurement_window(&self, now: u64) -> bool {
        (self.warmup..self.warmup + self.measure).contains(&now)
    }
}

/// Result of one open-loop run at one injection rate.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopResult {
    /// Offered load (flits/cycle/compute-node), as configured.
    pub offered: f64,
    /// Accepted throughput over the measurement window, in ejected flits
    /// per cycle per node (all nodes, both classes).
    pub accepted: f64,
    /// Flits ejected *during* the measurement window per cycle per node,
    /// regardless of when they were generated — the classic
    /// accepted-throughput metric. Unlike [`accepted`](Self::accepted)
    /// (which follows window-generated packets into the drain and can
    /// transiently exceed sustainable rates past saturation), this is a
    /// steady-state rate bounded by the fabric's physical capacity, so it
    /// is the quantity the static saturation bound (`tenoc-verify`'s
    /// `LoadReport::accepted_bound`) is validated against.
    pub ejection_rate: f64,
    /// Like [`ejection_rate`](Self::ejection_rate) but in payload *bytes*
    /// per cycle per node, summed from each ejected packet's true size
    /// rather than its flit count. Flit counts depend on the channel
    /// width of the fabric that carried the packet, so this is the
    /// throughput measure that stays comparable across fabrics of
    /// different channel widths (including the half-width slices of a
    /// double network).
    pub ejection_bytes_rate: f64,
    /// Mean latency of measured packets (generation to ejection),
    /// requests and replies combined.
    pub avg_latency: f64,
    /// Mean measured request latency.
    pub avg_request_latency: f64,
    /// Mean measured reply latency.
    pub avg_reply_latency: f64,
    /// Fraction of measured packets that drained before the deadline.
    /// Values below ~0.99 indicate the network is past saturation.
    pub delivered_fraction: f64,
}

impl OpenLoopResult {
    /// `true` when the run shows saturation (undelivered measured packets
    /// or very large mean latency).
    pub fn saturated(&self) -> bool {
        self.delivered_fraction < 0.99 || self.avg_latency > 500.0
    }
}

/// Runs one open-loop simulation.
///
/// # Panics
///
/// Panics if the configuration has no MC nodes or fails validation.
pub fn run_open_loop(cfg: &OpenLoopConfig) -> OpenLoopResult {
    run_open_loop_on(cfg, &mut *build_network(&cfg.net, false))
}

/// Runs one open-loop simulation on a caller-provided network: the
/// channel-sliced double network of `cfg.net`, or a fabric the caller
/// observes — arm telemetry beforehand
/// ([`Interconnect::enable_telemetry`]) and read the reports after the
/// run. The network must be freshly built from `cfg.net` (the traffic
/// generator addresses `cfg.net`'s compute and MC nodes).
///
/// One loop iteration is one simulated cycle: generate, drain source
/// queues, service MCs, consume replies, step the network.
///
/// # Panics
///
/// Panics if the configuration has no MC nodes.
pub fn run_open_loop_on(cfg: &OpenLoopConfig, net: &mut dyn Interconnect) -> OpenLoopResult {
    assert!(!cfg.net.mc_nodes.is_empty(), "open-loop traffic needs MC nodes");
    let mcs = &cfg.net.mc_nodes;
    let nodes = cfg.net.mesh.len();
    let compute: Vec<NodeId> = (0..nodes).filter(|n| !mcs.contains(n)).collect();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    // Unbounded source queues (standard open-loop methodology).
    let mut src_q: Vec<VecDeque<Packet>> = vec![VecDeque::new(); nodes];
    let mut reply_q: Vec<VecDeque<Packet>> = vec![VecDeque::new(); nodes];
    let meas_end = cfg.warmup + cfg.measure;
    let mut generated_measured = 0u64;
    let mut delivered_measured = 0u64;
    let mut lat_sum = [0u64; 2];
    let mut lat_cnt = [0u64; 2];
    let mut ejected_flits_window = 0u64;
    let mut ejected_flits_in_window = 0u64;
    let mut ejected_bytes_in_window = 0u64;

    for now in 0..meas_end + cfg.drain {
        // Generate new requests at the compute nodes.
        if now < meas_end {
            for &c in &compute {
                if rng.gen_bool(cfg.injection_rate.min(1.0)) {
                    let dst = pick_mc(mcs, cfg.pattern, &mut rng);
                    let mut p = Packet::request(c, dst, cfg.request_bytes, 0);
                    p.header.created = now;
                    if cfg.in_measurement_window(now) {
                        generated_measured += 1;
                        // Mark measured packets via the tag.
                        p.header.tag = 1;
                    }
                    src_q[c].push_back(p);
                }
            }
        }
        // Drain source queues into the network.
        for &c in &compute {
            while let Some(&p) = src_q[c].front() {
                if net.try_inject(c, p).is_ok() {
                    src_q[c].pop_front();
                } else {
                    break;
                }
            }
        }
        // MCs: service ejected requests, emit replies; drain reply queues.
        for &mc in mcs {
            while let Some(req) = net.pop(mc) {
                let mut rep = Packet::reply(mc, req.header.src, cfg.reply_bytes, req.header.tag);
                // Stamped at the service cycle, matching the request
                // convention (created == first cycle the packet can
                // inject); stamping now+1 would credit replies one cycle
                // of latency they never paid.
                rep.header.created = now;
                reply_q[mc].push_back(rep);
                if cfg.in_measurement_window(now) {
                    ejected_flits_in_window += req.header.flits as u64;
                    ejected_bytes_in_window += req.header.size_bytes as u64;
                }
                if req.header.tag == 1 {
                    lat_sum[0] += req.total_latency();
                    lat_cnt[0] += 1;
                    if cfg.in_measurement_window(req.header.created) {
                        ejected_flits_window += req.header.flits as u64;
                    }
                }
            }
            while let Some(&p) = reply_q[mc].front() {
                if net.try_inject(mc, p).is_ok() {
                    reply_q[mc].pop_front();
                } else {
                    break;
                }
            }
        }
        // Compute nodes: consume replies.
        for &c in &compute {
            while let Some(rep) = net.pop(c) {
                if cfg.in_measurement_window(now) {
                    ejected_flits_in_window += rep.header.flits as u64;
                    ejected_bytes_in_window += rep.header.size_bytes as u64;
                }
                if rep.header.tag == 1 {
                    lat_sum[1] += rep.total_latency();
                    lat_cnt[1] += 1;
                    delivered_measured += 1;
                    ejected_flits_window += rep.header.flits as u64;
                }
            }
        }
        net.tick();
    }

    let per_node_cycle = |x: u64| x as f64 / cfg.measure as f64 / nodes as f64;
    let mean = |sum: u64, cnt: u64| if cnt == 0 { f64::INFINITY } else { sum as f64 / cnt as f64 };
    OpenLoopResult {
        offered: cfg.injection_rate,
        accepted: per_node_cycle(ejected_flits_window),
        ejection_rate: per_node_cycle(ejected_flits_in_window),
        ejection_bytes_rate: per_node_cycle(ejected_bytes_in_window),
        avg_latency: mean(lat_sum.iter().sum(), lat_cnt.iter().sum()),
        avg_request_latency: mean(lat_sum[0], lat_cnt[0]),
        avg_reply_latency: mean(lat_sum[1], lat_cnt[1]),
        delivered_fraction: if generated_measured == 0 {
            1.0
        } else {
            delivered_measured as f64 / generated_measured as f64
        },
    }
}

fn pick_mc<R: Rng>(mcs: &[NodeId], pattern: TrafficPattern, rng: &mut R) -> NodeId {
    match pattern {
        TrafficPattern::UniformRandom => mcs[rng.gen_range(0..mcs.len())],
        TrafficPattern::Hotspot { hot, fraction } => {
            if rng.gen_bool(fraction) {
                mcs[hot]
            } else {
                let others: usize = rng.gen_range(0..mcs.len() - 1);
                let idx = if others >= hot { others + 1 } else { others };
                mcs[idx]
            }
        }
    }
}

/// Sweeps injection rates and returns the (rate, result) curve, stopping
/// early once two consecutive points are saturated.
pub fn latency_curve(
    base: &OpenLoopConfig,
    rates: impl IntoIterator<Item = f64>,
) -> Vec<OpenLoopResult> {
    let mut out = Vec::new();
    let mut saturated_streak = 0;
    for rate in rates {
        let mut cfg = base.clone();
        cfg.injection_rate = rate;
        let r = run_open_loop(&cfg);
        let sat = r.saturated();
        out.push(r);
        saturated_streak = if sat { saturated_streak + 1 } else { 0 };
        if saturated_streak >= 2 {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;

    fn quick_cfg(rate: f64) -> OpenLoopConfig {
        let mut c = OpenLoopConfig::new(
            NetworkConfig::baseline_mesh(6),
            rate,
            TrafficPattern::UniformRandom,
        );
        c.warmup = 500;
        c.measure = 1500;
        c.drain = 3000;
        c
    }

    #[test]
    fn low_load_latency_near_zero_load() {
        let r = run_open_loop(&quick_cfg(0.005));
        assert!(!r.saturated(), "0.005 flits/cycle/node must be below saturation");
        // Zero-load-ish: a handful of hops at 5 cycles plus serialization.
        assert!(r.avg_latency > 10.0 && r.avg_latency < 80.0, "latency {}", r.avg_latency);
        assert!(r.delivered_fraction > 0.99);
    }

    #[test]
    fn latency_grows_with_load() {
        let lo = run_open_loop(&quick_cfg(0.005));
        let hi = run_open_loop(&quick_cfg(0.05));
        assert!(
            hi.avg_latency > lo.avg_latency,
            "latency must rise with load: {} vs {}",
            lo.avg_latency,
            hi.avg_latency
        );
    }

    #[test]
    fn extreme_load_saturates() {
        let r = run_open_loop(&quick_cfg(0.5));
        assert!(r.saturated(), "0.5 flits/cycle/node is far past many-to-few capacity");
    }

    #[test]
    fn hotspot_pick_respects_fraction() {
        let mcs: Vec<NodeId> = (0..8).collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 20_000;
        let mut hot_hits = 0;
        for _ in 0..n {
            let mc = pick_mc(&mcs, TrafficPattern::Hotspot { hot: 2, fraction: 0.2 }, &mut rng);
            if mc == 2 {
                hot_hits += 1;
            }
        }
        let frac = hot_hits as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.02, "hot fraction {frac}");
    }

    /// Satellite regression: pin the measurement-window boundaries so
    /// inclusive/exclusive semantics can't drift. A packet generated
    /// exactly at `warmup` is measured; one generated exactly at
    /// `warmup + measure` is not.
    #[test]
    fn measurement_window_boundaries_are_pinned() {
        let cfg = quick_cfg(0.01); // warmup 500, measure 1500
        assert!(!cfg.in_measurement_window(cfg.warmup - 1), "last warm-up cycle is unmeasured");
        assert!(cfg.in_measurement_window(cfg.warmup), "first measured cycle is warmup itself");
        assert!(cfg.in_measurement_window(cfg.warmup + cfg.measure - 1), "last measured cycle");
        assert!(
            !cfg.in_measurement_window(cfg.warmup + cfg.measure),
            "a packet generated at warmup + measure belongs to the drain, not the window"
        );
    }

    /// The window helper is the arbiter for a degenerate zero-length
    /// window: nothing is ever measured.
    #[test]
    fn zero_length_window_measures_nothing() {
        let mut cfg = quick_cfg(0.01);
        cfg.measure = 0;
        assert!(!cfg.in_measurement_window(cfg.warmup));
    }

    #[test]
    fn curve_stops_after_saturation() {
        let base = quick_cfg(0.0);
        let rates = [0.01, 0.3, 0.4, 0.5, 0.6];
        let curve = latency_curve(&base, rates);
        assert!(curve.len() < rates.len(), "sweep must stop early once saturated");
    }

    fn results_eq(a: &OpenLoopResult, b: &OpenLoopResult) -> bool {
        a.offered == b.offered
            && a.accepted == b.accepted
            && a.ejection_rate == b.ejection_rate
            && a.avg_latency == b.avg_latency
            && a.avg_request_latency == b.avg_request_latency
            && a.avg_reply_latency == b.avg_reply_latency
            && a.delivered_fraction == b.delivered_fraction
    }

    /// The production engine and the per-router reference produce the
    /// same probe result, single and channel-sliced.
    #[test]
    fn arena_probe_matches_reference() {
        use crate::interconnect::build_reference_network;
        let cfg = quick_cfg(0.03);
        for sliced in [false, true] {
            assert!(crate::uses_arena(&cfg.net, sliced), "baseline mesh is arena-eligible");
            let arena = run_open_loop_on(&cfg, &mut *build_network(&cfg.net, sliced));
            let oracle = run_open_loop_on(&cfg, &mut *build_reference_network(&cfg.net, sliced));
            assert!(results_eq(&arena, &oracle), "sliced={sliced}: {arena:?} vs {oracle:?}");
        }
    }
}
