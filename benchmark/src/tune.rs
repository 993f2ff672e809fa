//! `tune`: a cold `run_tune` of the default k = 6 search on two workers,
//! the repository's time-to-frontier task. It covers what `cells`
//! bypasses: construction and static verification, the audit ranking,
//! open-loop probes and closed-loop cells on the worker pool.
//!
//! The search input is fixed: the checked-in golden frontier defines the
//! correct output for exactly this spec, so the workload seed does not
//! reach it.

use crate::report::{cpu_seconds, median, secs, Outcome};
use crate::trace::{Tracer, ROOT};
use std::time::Instant;
use tenoc_tune::{run_tune, TuneOptions, TuneReport, TuneSpec};

const JOBS: usize = 2;
const GOLDEN: &str = "tests/golden/frontier.json";
/// The paper's combined-design gain in IPC/mm² over the baseline, %.
const PAPER_GAIN_PCT: f64 = 25.4;
const SETUP_SAMPLES: usize = 11;
const SETUP_BATCH: usize = 2000;

fn options() -> TuneOptions {
    TuneOptions { jobs: JOBS, ..Default::default() }
}

/// Simulated IPC/mm² gain of Thr-Eff over TB-DOR among the finalists, %.
fn thr_eff_gain_pct(report: &TuneReport) -> Option<f64> {
    let per_mm2 = |alias: &str| {
        report
            .finalists
            .iter()
            .find(|f| f.aliases.iter().any(|a| a == alias))
            .map(|f| f.ipc_per_mm2)
    };
    Some((per_mm2("Thr-Eff")? / per_mm2("TB-DOR")? - 1.0) * 100.0)
}

pub fn run(seconds: f64, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let golden = std::fs::read_to_string(GOLDEN).map_err(|e| format!("reading {GOLDEN}: {e}"))?;
    let spec = TuneSpec::default_at(6);

    let (mut setup, mut walls, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    while walls.is_empty() || secs(start.elapsed()) < seconds {
        let (cpu0, t) = (cpu_seconds(), Instant::now());
        let result = run_tune(&spec, &options());
        walls.push(secs(t.elapsed()));
        cpus.push(cpu_seconds() - cpu0);
        let (report, stats) = result.map_err(|e| format!("run_tune: {e}"))?;
        let mut errs = Vec::new();
        if report.to_json() != golden {
            errs.push(format!("tune: report differs from {GOLDEN}"));
        }
        out.check(errs);
        last = Some((report, stats));
        // Building the spec takes microseconds: time batches of builds
        // after every search, so the samples spread over the run.
        setup.extend((0..SETUP_SAMPLES).map(|_| {
            let t = Instant::now();
            for _ in 0..SETUP_BATCH {
                std::hint::black_box(TuneSpec::default_at(std::hint::black_box(6)));
            }
            secs(t.elapsed()) / SETUP_BATCH as f64
        }));
    }
    let (report, stats) = last.expect("at least one search ran");
    let wall = median(&walls);
    out.put("setup_s", median(&setup), "s");
    out.notes.push(format!("set-up samples (s): {}", crate::report::summary(&setup)));
    out.put("wall_s", wall, "s");
    out.put("cpu_s", median(&cpus), "s");
    out.put("tune.searches", walls.len() as f64, "count");
    out.notes.push(format!("search times (s): {walls:.3?}"));
    match thr_eff_gain_pct(&report) {
        Some(gain) => {
            out.put("tune.thr_eff_gain_pct", gain, "%");
            out.put("tune.paper_gap_pp", (gain - PAPER_GAIN_PCT).abs(), "pp");
            out.notes.push(format!(
                "simulated Thr-Eff IPC/mm2 gain over TB-DOR: {gain:+.2}% vs the paper's +{PAPER_GAIN_PCT}% \
                 (gap {:.2} pp). It covers only the tuner's 3-benchmark ladder (HIS, MM, RD) at scale {}, \
                 not the paper's 31-benchmark suite; modelled caches start empty in every run.",
                (gain - PAPER_GAIN_PCT).abs(),
                spec.scale
            ));
        }
        None => out.check(vec!["tune: Thr-Eff or TB-DOR missing from the finalists".into()]),
    }
    let c = &report.counts;
    out.put("tune.cpu_util", median(&cpus) / (wall * JOBS as f64), "ratio");
    out.put("tune.enumerated", c.enumerated as f64, "count");
    out.put("tune.legal", c.legal as f64, "count");
    out.put("tune.probes", stats.probes as f64, "count");
    out.put("tune.stage3_cells", stats.stage3_cells as f64, "count");
    out.put("tune.finalists", c.finalists as f64, "count");
    out.put("tune.legal_per_enumerated", c.legal as f64 / c.enumerated as f64, "ratio");
    out.put(
        "tune.finalists_per_stage3_cell",
        c.finalists as f64 / stats.stage3_cells as f64,
        "ratio",
    );

    if tracer.enabled() {
        let span = tracer.begin("run_tune", ROOT, 1);
        let (cpu0, t) = (cpu_seconds(), Instant::now());
        let result = run_tune(&spec, &options());
        let traced = secs(t.elapsed());
        tracer.count(span, "cpu_s", cpu_seconds() - cpu0);
        tracer.end(span);
        let (report, _) = result.map_err(|e| format!("run_tune: {e}"))?;
        let check = tracer.begin("check golden", ROOT, 1);
        let same = report.to_json() == golden;
        tracer.end(check);
        out.check(if same {
            Vec::new()
        } else {
            vec![format!("tune (traced): report differs from {GOLDEN}")]
        });
        out.put("trace_overhead_pct", (traced / wall - 1.0) * 100.0, "%");
    }
    Ok(out)
}
