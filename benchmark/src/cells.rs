//! `cells`: closed-loop, single-threaded runs of `System::new` and
//! `System::run`, the path `tenoc run`/`suite` and the paper benches take.
//!
//! The six inputs pair the paper's throughput-effective design with the
//! baseline on one benchmark of each traffic class: RD (HH) saturates the
//! reply path, MM (LH) loads it moderately and AES (LL) barely loads the
//! network, so a congestion-path kernel change moves the RD rows and
//! leaves the AES rows nearly unchanged.

use crate::report::{median, secs, Outcome};
use crate::trace::{Tracer, ROOT};
use std::time::{Duration, Instant};
use tenoc_core::{Clocks, Domain, Preset, RunMetrics, System, SystemConfig, Tick};
use tenoc_simt::KernelSpec;

const PRESETS: [Preset; 2] = [Preset::ThroughputEffective, Preset::BaselineTbDor];
const BENCHMARKS: [&str; 3] = ["RD", "MM", "AES"];
const MESH_K: usize = 6;
/// Kernel-length scale: one pass over the six cells takes several seconds
/// on the per-router engine, so it still lasts seconds after a 3x faster
/// network kernel.
const SCALE: f64 = 0.3;
/// `core_cycles scalar_insts flit_hops` per cell at seed 0.
const EXPECTED: &str = include_str!("../expected_cells.txt");

struct Cell {
    label: String,
    cfg: SystemConfig,
    spec: KernelSpec,
}

/// The workload's inputs: only the simulator seed depends on `seed`, and
/// seed 0 keeps `SystemConfig`'s default.
fn inputs(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for preset in PRESETS {
        for bench in BENCHMARKS {
            let mut cfg = SystemConfig::with_icnt(preset.icnt(MESH_K));
            cfg.seed = crate::derive_seed(cfg.seed, seed);
            let spec = tenoc_workloads::by_name(bench).expect("suite benchmark").scaled(SCALE);
            cells.push(Cell { label: format!("{}.{bench}", preset.label()), cfg, spec });
        }
    }
    cells
}

impl Cell {
    fn system(&self) -> System {
        System::new(self.cfg.clone(), &self.spec)
    }
}

/// The pinned `(core_cycles, scalar_insts, flit_hops)` of a cell at seed 0.
fn expected(label: &str) -> Option<[u64; 3]> {
    EXPECTED.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        (f.len() == 4 && f[0] == label).then(|| {
            [f[1], f[2], f[3]].map(|x| x.parse().expect("expected_cells.txt holds integers"))
        })
    })
}

/// Checks one finished cell; `reference` is the same cell's first run.
fn check(
    cell: &Cell,
    cores: usize,
    m: &RunMetrics,
    reference: Option<&RunMetrics>,
    seed: u64,
) -> Vec<String> {
    let mut errs = Vec::new();
    let l = &cell.label;
    if !m.completed {
        errs.push(format!("{l}: did not complete"));
    }
    let insts = cores as u64 * cell.spec.total_warp_insts() * 32;
    if m.scalar_insts != insts {
        errs.push(format!("{l}: scalar_insts {} != {insts} issued", m.scalar_insts));
    }
    if let Some(r) = reference {
        // Debug text compares every field, NaN included.
        if format!("{m:?}") != format!("{r:?}") {
            errs.push(format!("{l}: metrics differ from this run's first pass"));
        }
    }
    if seed == 0 {
        let got = [m.core_cycles, m.scalar_insts, m.flit_hops];
        match expected(l) {
            Some(want) if want == got => {}
            Some(want) => errs.push(format!(
                "{l}: (core_cycles, scalar_insts, flit_hops) {got:?} != pinned {want:?}"
            )),
            None => errs.push(format!("{l}: no pinned values in expected_cells.txt")),
        }
    }
    errs
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let cells = inputs(seed);
    let mut out = Outcome::default();
    let mut reference: Vec<RunMetrics> = Vec::new();
    let (mut setup, mut walls, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sim_cycles, mut sim_time) = (0u64, Duration::ZERO);
    let start = Instant::now();
    while walls.is_empty() || secs(start.elapsed()) < seconds {
        let cpu0 = crate::report::cpu_seconds();
        let (mut new, mut wall) = (Duration::ZERO, Duration::ZERO);
        // One system alive at a time, as `tenoc run` has it. Set-up is
        // memory-bound, and on the shared 2-core machine that measured the
        // baseline its speed differed by up to 2x between runs a few
        // seconds apart. Timing each build right before its run spreads a
        // pass's set-up sample over the whole pass.
        for (i, cell) in cells.iter().enumerate() {
            let t = Instant::now();
            let mut sys = cell.system();
            new += t.elapsed();
            let t = Instant::now();
            let m = std::hint::black_box(sys.run());
            wall += t.elapsed();
            out.check(check(cell, sys.num_cores(), &m, reference.get(i), seed));
            sim_cycles += m.core_cycles;
            if reference.len() == i {
                reference.push(m);
            }
        }
        cpus.push(crate::report::cpu_seconds() - cpu0);
        setup.push(secs(new));
        sim_time += wall;
        walls.push(secs(wall));
    }
    out.put("setup_s", median(&setup), "s");
    out.notes.push(format!("set-up samples (s): {}", crate::report::summary(&setup)));
    out.put("wall_s", median(&walls), "s");
    out.put("cpu_s", median(&cpus), "s");
    out.put("cells.sim_cycles_per_s", sim_cycles as f64 / secs(sim_time), "1/s");
    out.put("cells.passes", walls.len() as f64, "count");
    out.notes.push(format!("pass times (s): {walls:.3?}"));
    for (cell, m) in cells.iter().zip(&reference) {
        let p = format!("cells.{}", cell.label);
        out.put(format!("{p}.ipc"), m.ipc, "inst/cycle");
        out.put(format!("{p}.core_cycles"), m.core_cycles as f64, "cycles");
        out.put(format!("{p}.flit_hops"), m.flit_hops as f64, "count");
        out.put(format!("{p}.avg_net_latency"), m.avg_net_latency, "cycles");
        out.put(format!("{p}.mc_stall_fraction"), m.mc_stall_fraction, "ratio");
        out.put(format!("{p}.dram_efficiency"), m.dram_efficiency, "ratio");
        out.put(format!("{p}.l2_read_hit_rate"), m.l2_read_hit_rate, "ratio");
        out.put(format!("{p}.core_replays"), m.core_replays as f64, "count");
    }
    if seed == 0 {
        // Printed in the pinned-file format, for re-pinning after a
        // deliberate model change.
        for (cell, m) in cells.iter().zip(&reference) {
            out.notes.push(format!(
                "pinned form: {} {} {} {}",
                cell.label, m.core_cycles, m.scalar_insts, m.flit_hops
            ));
        }
    }
    if tracer.enabled() {
        traced_pass(&cells, &reference, median(&walls), seed, tracer, &mut out);
    }
    out
}

/// Host time and clock edges charged to one clock domain.
#[derive(Default, Clone, Copy)]
struct DomainTime {
    busy: Duration,
    edges: u64,
}

/// Drives every cell edge by edge through `Tick`, charging each edge's
/// host time to the domain a parallel `Clocks` says it belongs to, and
/// stops at the untraced run's final core cycle. The simulated metrics
/// must come out identical to the untraced run's.
fn traced_pass(
    cells: &[Cell],
    reference: &[RunMetrics],
    untraced_wall: f64,
    seed: u64,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let pass = tracer.begin("cells.pass", ROOT, 0);
    let mut total = [DomainTime::default(); 3];
    let (mut setup, mut drive, mut hops) = (Duration::ZERO, Duration::ZERO, 0u64);
    for (i, (cell, want)) in cells.iter().zip(reference).enumerate() {
        let req = i as u64 + 1;
        let span = tracer.begin(&format!("cell {}", cell.label), pass, req);
        let s = tracer.begin("System::new", span, req);
        let t = Instant::now();
        let mut sys = cell.system();
        setup += t.elapsed();
        tracer.end(s);

        let d = tracer.begin("Tick::tick", span, req);
        let mut clocks = Clocks::new(cell.cfg.clocks);
        let mut dom = [DomainTime::default(); 3];
        let t_drive = Instant::now();
        loop {
            let domain = clocks.tick();
            let t = Instant::now();
            sys.tick();
            let slot = &mut dom[match domain {
                Domain::Core => 0,
                Domain::Icnt => 1,
                Domain::Dram => 2,
            }];
            slot.busy += t.elapsed();
            slot.edges += 1;
            if domain == Domain::Core && clocks.cycles(Domain::Core) >= want.core_cycles {
                break;
            }
        }
        drive += t_drive.elapsed();
        tracer.end(d);
        let m = sys.metrics(true);
        let mut errs = check(cell, sys.num_cores(), &m, Some(want), seed);
        if clocks.cycles(Domain::Icnt) != want.icnt_cycles {
            errs.push(format!(
                "{}: traced run stopped at icnt cycle {}, untraced at {}",
                cell.label,
                clocks.cycles(Domain::Icnt),
                want.icnt_cycles
            ));
        }
        out.check(errs);
        tracer.end(span);

        let p = format!("cells.{}", cell.label);
        for (name, x) in ["core", "icnt", "dram"].iter().zip(dom) {
            tracer.count(d, &format!("{name}.self_ns"), x.busy.as_nanos() as f64);
            tracer.count(d, &format!("{name}.edges"), x.edges as f64);
        }
        let [core, icnt, dram] = dom;
        out.put(format!("{p}.icnt.self_s"), secs(icnt.busy), "s");
        out.put(format!("{p}.core.self_s"), secs(core.busy), "s");
        out.put(format!("{p}.dram.self_s"), secs(dram.busy), "s");
        out.put(
            format!("{p}.icnt.ns_per_flit_hop"),
            icnt.busy.as_nanos() as f64 / m.flit_hops.max(1) as f64,
            "ns",
        );
        for (acc, x) in total.iter_mut().zip(dom) {
            acc.busy += x.busy;
            acc.edges += x.edges;
        }
        hops += m.flit_hops;
    }
    tracer.end(pass);
    let [core, icnt, dram] = total;
    out.put("icnt.self_s", secs(icnt.busy), "s");
    out.put("icnt.edges", icnt.edges as f64, "count");
    out.put("icnt.ns_per_edge", icnt.busy.as_nanos() as f64 / icnt.edges as f64, "ns");
    out.put("icnt.ns_per_flit_hop", icnt.busy.as_nanos() as f64 / hops.max(1) as f64, "ns");
    out.put("core.self_s", secs(core.busy), "s");
    out.put("core.edges", core.edges as f64, "count");
    out.put("dram.self_s", secs(dram.busy), "s");
    out.put("dram.edges", dram.edges as f64, "count");
    out.put("system.setup_s", secs(setup), "s");
    out.put("trace_overhead_pct", (secs(drive) / untraced_wall - 1.0) * 100.0, "%");
}
