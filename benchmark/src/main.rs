//! The tenoc benchmark: closed-loop cells, a frontier search and a served
//! sweep, measured from outside through the crates' public functions.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload cells|tune|serve|all --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the `end_to_end` list of `BENCHMARK.json`, with `--trace 1`
//! its `per_layer` list. Every figure, the run's context and (traced) the
//! span file are also written under `benchmark/out/`. Any failed output
//! check makes the exit code 1.

mod cells;
mod report;
mod serve;
mod trace;
mod tune;

use report::{metric_value, Outcome};
use serde::json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["cells", "tune", "serve"];
const OUT_DIR: &str = "benchmark/out";

/// The simulator seed for benchmark seed `seed`: seed 0 keeps the
/// program's default, every other seed moves it by a distinct odd step.
pub fn derive_seed(default: u64, seed: u64) -> u64 {
    default.wrapping_add(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: "all".into(), seed: 0, seconds: 20.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {} (cells, tune, serve or all)", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A metric list of `BENCHMARK.json`: `(name, unit)` pairs.
fn metric_list(spec: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    let items = spec
        .field(key)
        .and_then(|v| v.as_array())
        .map_err(|e| format!("BENCHMARK.json {key}: {e}"))?;
    items
        .iter()
        .map(|m| {
            let s = |f: &str| m.field(f).and_then(|v| v.as_str()).map(str::to_string);
            Ok((s("name").map_err(|e| e.to_string())?, s("unit").map_err(|e| e.to_string())?))
        })
        .collect()
}

fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        // Only this checkout's own repository, never one above it.
        .env("GIT_DIR", ".git")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn context(args: &Args) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Object(vec![
        ("command".into(), Value::String(std::env::args().collect::<Vec<_>>().join(" "))),
        ("workload".into(), Value::String(args.workload.clone())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("git_revision".into(), Value::String(command_output("git", &["rev-parse", "HEAD"]))),
        ("rustc".into(), Value::String(command_output("rustc", &["-V"]))),
    ])
}

fn run_workload(
    name: &str,
    args: &Args,
    scratch: &Path,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    let mut out = match name {
        "cells" => cells::run(args.seed, args.seconds, tracer),
        "tune" => tune::run(args.seconds, tracer)?,
        "serve" => serve::run(args.seed, args.seconds, scratch, tracer)?,
        _ => unreachable!("workload names are checked when parsing"),
    };
    out.put("peak_rss_mb", report::peak_rss_mb(), "MB");
    out.put("failed_frac", out.failed as f64 / out.attempted.max(1) as f64, "ratio");
    Ok(out)
}

fn print_outcome(name: &str, out: &Outcome) {
    println!("== {name}: {} checked operations, {} failed", out.attempted, out.failed);
    for m in &out.metrics {
        let v = if m.value != 0.0 && m.value.abs() < 1e-3 {
            format!("{:.4e}", m.value)
        } else {
            format!("{:.6}", m.value)
        };
        println!("  {:<44} {v:>18} {}", m.name, m.unit);
    }
    for n in &out.notes {
        println!("  note: {n}");
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let spec_text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("run from the repository root (BENCHMARK.json: {e})"))?;
    let spec = serde::json::parse(&spec_text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let wanted = metric_list(&spec, if args.trace { "per_layer" } else { "end_to_end" })?;

    let ctx = context(&args);
    println!("context: {}", ctx.to_json_compact());
    let tag = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let scratch = PathBuf::from(OUT_DIR).join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let tracer = Tracer::new(args.trace);

    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let mut outcomes = Vec::new();
    let mut result = Ok(());
    for name in names {
        match run_workload(name, &args, &scratch, &tracer) {
            Ok(out) => {
                print_outcome(name, &out);
                outcomes.push((name, out));
            }
            Err(e) => {
                result = Err(format!("{name}: {e}"));
                break;
            }
        }
    }
    // The scratch caches are inputs of one run only.
    let _ = std::fs::remove_dir_all(&scratch);
    result?;

    if tracer.enabled() {
        let path = PathBuf::from(OUT_DIR).join(format!("spans-{tag}.jsonl"));
        let n = tracer.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {n} spans written to {}", path.display());
    }

    // The result line: exactly the listed metrics. For a single
    // workload, a listed per-layer metric it does not measure reads 0
    // (that layer did no work in it); a missing end-to-end metric is an
    // error. `all` prefixes each metric with its workload unless its name
    // already starts with it.
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    let mut everything = Vec::new();
    let single = outcomes.len() == 1;
    for (name, out) in &outcomes {
        attempted += out.attempted;
        failed += out.failed;
        let all = out.metrics.iter().map(|m| (m.name.clone(), metric_value(m.value, m.unit)));
        everything.push((name.to_string(), Value::Object(all.collect())));
        for (metric, unit) in &wanted {
            let value = match out.get(metric) {
                Some(v) if v.is_finite() => v,
                Some(v) => return Err(format!("{name}: {metric} is {v}")),
                None if args.trace && single => 0.0,
                None if args.trace => continue,
                None => return Err(format!("{name}: end-to-end metric {metric} was not measured")),
            };
            let key = if single || metric.starts_with(&format!("{name}.")) {
                metric.clone()
            } else {
                format!("{name}.{metric}")
            };
            metrics.push((key, metric_value(value, unit)));
        }
    }
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    let file = Value::Object(vec![
        ("context".into(), ctx),
        ("result".into(), line.clone()),
        ("all_metrics".into(), Value::Object(everything)),
    ]);
    let path = PathBuf::from(OUT_DIR).join(format!("result-{tag}.json"));
    std::fs::write(&path, file.to_json_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", line.to_json_compact());
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::from(1) })
}
