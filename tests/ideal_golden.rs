//! Golden snapshot of the ideal networks: closed-loop runs on the perfect
//! network and on the zero-latency bandwidth-capped network at both ends
//! of the Figure 6 cap sweep must keep their fingerprints byte for byte.
//! The tiny grid (`harness_golden.rs`) covers only physical networks, so
//! this grid is what pins `IcntConfig::Perfect` and
//! `IcntConfig::BwLimited` end to end.
//!
//! When an intentional change moves the numbers, refresh the snapshot
//! with `TENOC_BLESS=1 cargo test --release --test ideal_golden` and
//! review the diff like any other code change.

use tenoc::core::presets::Preset;
use tenoc::harness::{check_fingerprints, engine, from_jsonl, to_jsonl, SweepGrid};

/// `[Perfect, BwLimited(0.2), BwLimited(1.6)] x [HIS, RD]` at the tiny
/// grid's scale, with the default derived per-cell seeds.
fn ideal_grid() -> SweepGrid {
    SweepGrid::new(
        vec![Preset::Perfect, Preset::BwLimited(0.2), Preset::BwLimited(1.6)],
        vec!["HIS".into(), "RD".into()],
        0.02,
    )
}

#[test]
fn ideal_sweep_matches_checked_in_fingerprints() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ideal.jsonl");
    let records = engine::run_sweep(&ideal_grid(), tenoc::harness::jobs_from_env());
    if std::env::var_os("TENOC_BLESS").is_some() {
        std::fs::write(&path, to_jsonl(&records)).expect("write golden snapshot");
        return;
    }
    let golden_text = std::fs::read_to_string(&path).expect("golden snapshot present");
    let golden = from_jsonl(&golden_text).expect("golden snapshot parses");
    assert_eq!(golden.len(), ideal_grid().len(), "snapshot covers the whole grid");
    if let Err(problems) = check_fingerprints(&records, &golden) {
        panic!(
            "ideal-network sweep drifted ({} problems):\n  {}\nif intended, re-bless with \
             `TENOC_BLESS=1 cargo test --release --test ideal_golden`",
            problems.len(),
            problems.join("\n  ")
        );
    }
}
