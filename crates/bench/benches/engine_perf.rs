//! Criterion benchmarks of the cycle kernel: the fig. 20 combined design
//! point end to end, and the cost of ticking a drained network on the
//! production engine. These track simulator performance, not paper
//! data; the checked-in `BENCH_engine.json` (from `tenoc engine-bench`)
//! records the headline simulated-cycles-per-second figure.

use criterion::{criterion_group, criterion_main, Criterion};
use tenoc_core::presets::Preset;
use tenoc_core::system::{System, SystemConfig};
use tenoc_noc::{ArenaNetwork, NetworkConfig, Tick};
use tenoc_workloads::by_name;

fn bench_fig20_combined(c: &mut Criterion) {
    c.bench_function("engine_fig20_combined_rd", |b| {
        let spec = by_name("RD").unwrap().scaled(0.02);
        b.iter(|| {
            let cfg = SystemConfig::with_icnt(Preset::ThroughputEffective.icnt(6));
            let mut sys = System::new(cfg, &spec);
            sys.run()
        });
    });
}

fn bench_drained_tick(c: &mut Criterion) {
    c.bench_function("network_tick_drained", |b| {
        let mut net = ArenaNetwork::new(NetworkConfig::baseline_mesh(6));
        net.tick();
        b.iter(|| net.tick());
    });
}

criterion_group!(engine, bench_fig20_combined, bench_drained_tick);
criterion_main!(engine);
