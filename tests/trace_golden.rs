//! Golden snapshots of traced runs: the full telemetry content (metrics,
//! latency histograms, per-link/per-VC counters, heatmaps, occupancy
//! means and the flight-recorder sample, including event order within a
//! cycle) of two closed-loop runs must stay byte-identical.
//!
//! One snapshot covers a double network (Thr-Eff: `request` + `reply`
//! reports), the other a single mesh (TB-DOR: one `net` report). A small
//! flight-recorder ring keeps the files compact.
//!
//! When an intentional change moves the numbers, refresh the snapshots
//! with `TENOC_BLESS=1 cargo test --release --test trace_golden` and
//! review the diff like any other code change.

use serde::Serialize;
use tenoc::core::experiments::run_traced;
use tenoc::core::presets::Preset;
use tenoc::noc::TelemetryConfig;
use tenoc::workloads::by_name;

const SCALE: f64 = 0.05;
const FLIGHT_CAPACITY: usize = 128;

/// The traced run of `bench` on `preset` as pretty JSON: the run's
/// metrics plus every telemetry report.
fn traced_json(preset: Preset, bench: &str) -> String {
    let spec = by_name(bench).expect("benchmark exists");
    let tcfg = TelemetryConfig { flight_capacity: FLIGHT_CAPACITY, ..TelemetryConfig::default() };
    let (metrics, reports) = run_traced(preset, &spec, SCALE, tcfg);
    serde::json::Value::Object(vec![
        ("preset".to_string(), preset.label().to_value()),
        ("benchmark".to_string(), bench.to_value()),
        ("scale".to_string(), SCALE.to_value()),
        ("metrics".to_string(), metrics.to_value()),
        ("reports".to_string(), reports.to_value()),
    ])
    .to_json_pretty()
}

fn check(preset: Preset, bench: &str, file: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file);
    let current = traced_json(preset, bench);
    if std::env::var_os("TENOC_BLESS").is_some() {
        std::fs::write(&path, format!("{current}\n")).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden snapshot present");
    assert!(
        golden.trim_end() == current.trim_end(),
        "traced {bench} on {} drifted from tests/golden/{file}; if intended, re-bless with \
         `TENOC_BLESS=1 cargo test --release --test trace_golden`",
        preset.label()
    );
}

#[test]
fn thr_eff_trace_matches_checked_in_snapshot() {
    check(Preset::ThroughputEffective, "RD", "trace_thr_eff_rd.json");
}

#[test]
fn tb_dor_trace_matches_checked_in_snapshot() {
    check(Preset::BaselineTbDor, "RD", "trace_tb_dor_rd.json");
}
