//! `serve`: an in-process sweep service with two workers and two client
//! connections, where writes (cold simulation, journal appends) and reads
//! (cache hits) run on the same layer.
//!
//! Each session starts a server on a fresh cache directory and runs three
//! phases: one connection submits a cold grid; 50 ms later a second
//! connection submits a small, disjoint grid for another tenant (the
//! fairness probe); once both are done, the first connection resubmits
//! the cold grid `WARM_REQUESTS` times in a closed loop, every one a pure
//! cache hit. A network-kernel speedup moves the cold phase and not the
//! warm one; serve-path work shows on the warm one.

use crate::report::{cpu_seconds, median, quantile, secs, Outcome};
use crate::trace::{Tracer, ROOT};
use serde::json::Value;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tenoc_serve::{
    canon, fetch_stats, start, submit_on, CachedCell, DiskCache, ServerConfig, SubmitOutcome,
    SweepRequest,
};

const WORKERS: usize = 2;
/// Closed-loop warm resubmissions per session. Each takes about 88 ms on
/// the seed code (two TCP delayed-ACK waits, not CPU), so 1000 would not
/// fit in a run; 250 leave more than ten samples beyond the p95.
const WARM_REQUESTS: usize = 250;
const PROBE_DELAY: Duration = Duration::from_millis(50);
/// Server restarts timed for `setup_s`, after the timed sessions so the
/// processor is as warm as for them.
const SETUP_REPS: usize = 21;
/// Records in the journal each timed restart replays. Replaying them
/// outweighs the thread start-up jitter of an empty start.
const REPLAY_RECORDS: usize = 1000;
/// Iterations of the traced run's per-call timings.
const KEY_CALLS: usize = 20_000;
const PUT_CALLS: usize = 2_000;

fn cold_request(seed: u64) -> SweepRequest {
    SweepRequest {
        tenant: "bulk".into(),
        presets: vec!["thr-eff".into(), "baseline".into()],
        benchmarks: vec!["RD".into(), "MM".into(), "AES".into(), "HIS".into()],
        scale: 0.5,
        seed: crate::derive_seed(tenoc_serve::DEFAULT_SEED, seed),
        ..SweepRequest::default()
    }
}

/// Disjoint from the cold grid: a preset the cold grid does not use.
fn probe_request(seed: u64) -> SweepRequest {
    SweepRequest {
        tenant: "probe".into(),
        presets: vec!["cp-cr".into()],
        benchmarks: vec!["AES".into(), "HIS".into()],
        scale: 0.02,
        seed: crate::derive_seed(tenoc_serve::DEFAULT_SEED, seed),
        ..SweepRequest::default()
    }
}

fn config(dir: &Path) -> ServerConfig {
    let mut cfg = ServerConfig::new("127.0.0.1:0", dir);
    cfg.workers = WORKERS;
    cfg
}

fn counter(stats: &Value, name: &str) -> u64 {
    stats.field(name).and_then(|v| v.as_u64()).unwrap_or(u64::MAX)
}

/// Checks a stream that must have simulated every planned cell.
fn check_cold(what: &str, o: &SubmitOutcome, cells: usize) -> Vec<String> {
    let mut errs = Vec::new();
    if o.aborted || o.planned != cells as u64 || o.lines.len() != cells {
        errs.push(format!(
            "{what}: planned {} / streamed {} of {cells} cells (aborted: {})",
            o.planned,
            o.lines.len(),
            o.aborted
        ));
    }
    if o.simulated + o.dedup_hits != cells as u64 || o.cache_hits != 0 {
        errs.push(format!(
            "{what}: cold grid reported {} simulated, {} dedup, {} cache hits",
            o.simulated, o.dedup_hits, o.cache_hits
        ));
    }
    errs
}

/// What one session measured.
struct Session {
    wall: f64,
    cpu: f64,
    cold: f64,
    probe: f64,
    cold_cpu_util: f64,
    warm_ms: Vec<f64>,
    cold_stream: SubmitOutcome,
    stats: Value,
    arrivals: Vec<Instant>,
}

/// A client connection. A stream that stalls for a minute fails the run
/// instead of hanging it.
fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(60)))?;
    Ok(conn)
}

/// Polls the journal and timestamps every record appended to it.
fn watch_journal(path: &Path, stop: &AtomicBool) -> Vec<Instant> {
    let (mut seen_len, mut seen_lines, mut arrivals) = (0u64, 0usize, Vec::new());
    while !stop.load(Ordering::SeqCst) {
        let len = std::fs::metadata(path).map_or(0, |m| m.len());
        if len != seen_len {
            let now = Instant::now();
            let lines =
                std::fs::read(path).map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count());
            arrivals.extend(std::iter::repeat_n(now, lines.saturating_sub(seen_lines)));
            (seen_len, seen_lines) = (len, lines);
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    arrivals
}

fn session(dir: &Path, seed: u64, tracer: &Tracer, out: &mut Outcome) -> std::io::Result<Session> {
    let cold_req = cold_request(seed);
    let probe_req = probe_request(seed);
    let cold_cells = cold_req.grid().expect("cold grid is valid").len();
    let probe_cells = probe_req.grid().expect("probe grid is valid").len();
    let sess = tracer.begin("serve.session", ROOT, 0);

    let sp = tracer.begin("tenoc_serve::start", sess, 0);
    let server = start(config(dir))?;
    let addr = server.addr();
    let mut conn = connect(addr)?;
    tracer.end(sp);

    let (cpu0, t0) = (cpu_seconds(), Instant::now());
    let stop = AtomicBool::new(false);
    let journal = DiskCache::journal_path(dir);
    let (cold, probe, arrivals) = std::thread::scope(|s| -> std::io::Result<_> {
        let watcher = tracer.enabled().then(|| s.spawn(|| watch_journal(&journal, &stop)));
        let probe = s.spawn(|| -> std::io::Result<(SubmitOutcome, f64)> {
            std::thread::sleep(PROBE_DELAY);
            let mut conn = connect(addr)?;
            let sp = tracer.begin("submit_on probe", sess, 2);
            let t = Instant::now();
            let o = submit_on(&mut conn, &probe_req)?;
            tracer.end(sp);
            Ok((o, secs(t.elapsed())))
        });
        let sp = tracer.begin("submit_on cold", sess, 1);
        let cold = submit_on(&mut conn, &cold_req);
        tracer.end(sp);
        let cold_s = secs(t0.elapsed());
        let cold_cpu = cpu_seconds() - cpu0;
        let probe = probe.join();
        // Stop the watcher on every path, or the scope never ends.
        stop.store(true, Ordering::SeqCst);
        let arrivals =
            watcher.map(|w| w.join().expect("journal watcher panicked")).unwrap_or_default();
        let probe = probe.expect("probe client thread panicked")?;
        Ok(((cold?, cold_s, cold_cpu), probe, arrivals))
    })?;
    let ((cold_stream, cold_s, cold_cpu), (probe_stream, probe_s)) = (cold, probe);
    out.check(check_cold("cold grid", &cold_stream, cold_cells));
    out.check(check_cold("probe grid", &probe_stream, probe_cells));

    let sp = tracer.begin("fetch_stats", sess, 0);
    let before = fetch_stats(addr)?;
    tracer.end(sp);
    let cold_jsonl = cold_stream.jsonl();
    let mut warm_ms = Vec::with_capacity(WARM_REQUESTS);
    for i in 0..WARM_REQUESTS {
        let sp = tracer.begin("submit_on warm", sess, 3 + i as u64);
        let t = Instant::now();
        let o = submit_on(&mut conn, &cold_req)?;
        warm_ms.push(secs(t.elapsed()) * 1e3);
        tracer.end(sp);
        let mut errs = Vec::new();
        if o.jsonl() != cold_jsonl {
            errs.push(format!("warm request {i}: stream differs from the cold stream"));
        }
        if o.simulated != 0 || o.dedup_hits != 0 || o.cache_hits != cold_cells as u64 {
            errs.push(format!(
                "warm request {i}: {} simulated, {} dedup, {} cache hits",
                o.simulated, o.dedup_hits, o.cache_hits
            ));
        }
        out.check(errs);
    }
    let sp = tracer.begin("fetch_stats", sess, 0);
    let stats = fetch_stats(addr)?;
    tracer.end(sp);
    let wall = secs(t0.elapsed());
    let cpu = cpu_seconds() - cpu0;

    let mut errs = Vec::new();
    if counter(&stats, "simulated") != counter(&before, "simulated") {
        errs.push("warm phase: the simulated counter moved".to_string());
    }
    let hits = counter(&stats, "cache_hits").wrapping_sub(counter(&before, "cache_hits"));
    if hits != (WARM_REQUESTS * cold_cells) as u64 {
        errs.push(format!(
            "warm phase: {hits} cache hits for {} cell requests",
            WARM_REQUESTS * cold_cells
        ));
    }
    out.check(errs);
    drop(conn);
    let sp = tracer.begin("ServerHandle::shutdown", sess, 0);
    server.shutdown();
    tracer.end(sp);
    tracer.end(sess);
    Ok(Session {
        wall,
        cpu,
        cold: cold_s,
        probe: probe_s,
        cold_cpu_util: cold_cpu / (cold_s * WORKERS as f64),
        warm_ms,
        cold_stream,
        stats,
        arrivals,
    })
}

/// The cache entries a stream's records imply.
fn cached_cells(stream: &SubmitOutcome) -> std::io::Result<Vec<CachedCell>> {
    let records = stream.records().map_err(std::io::Error::other)?;
    Ok(records
        .iter()
        .map(|r| CachedCell {
            class: tenoc_workloads::by_name(&r.benchmark).expect("suite benchmark").class,
            metrics: r.metrics,
        })
        .collect())
}

/// Restarts a server on a journal of `REPLAY_RECORDS` records; returns the
/// time from `start` to the first accepted connection of each restart.
fn setup_reps(scratch: &Path, cached: &[CachedCell]) -> std::io::Result<Vec<f64>> {
    let dir = scratch.join("restart");
    let mut cache = DiskCache::open(&dir)?;
    for i in 0..REPLAY_RECORDS {
        cache.put(&format!("restart-{i}"), cached[i % cached.len()])?;
    }
    drop(cache);
    (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let server = start(config(&dir))?;
            let conn = connect(server.addr())?;
            let s = secs(t.elapsed());
            drop(conn);
            server.shutdown();
            Ok(s)
        })
        .collect()
}

fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("serve {what}: {e}")
}

pub fn run(seed: u64, seconds: f64, scratch: &Path, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let off = Tracer::new(false);
    let mut sessions = Vec::new();
    let start = Instant::now();
    while sessions.is_empty() || secs(start.elapsed()) < seconds {
        let dir = scratch.join(format!("session-{}", sessions.len()));
        sessions.push(session(&dir, seed, &off, &mut out).map_err(io("session"))?);
    }
    let last = sessions.last().expect("at least one session");
    let cached = cached_cells(&last.cold_stream).map_err(io("records"))?;
    let setup = setup_reps(scratch, &cached).map_err(io("setup"))?;
    let pick = |f: fn(&Session) -> f64| median(&sessions.iter().map(f).collect::<Vec<_>>());
    let warm: Vec<f64> = sessions.iter().flat_map(|s| s.warm_ms.iter().copied()).collect();
    let wall = pick(|s| s.wall);
    out.put("setup_s", median(&setup), "s");
    out.notes.push(format!("set-up samples (s): {}", crate::report::summary(&setup)));
    out.put("wall_s", wall, "s");
    out.put("cpu_s", pick(|s| s.cpu), "s");
    out.put("serve.sessions", sessions.len() as f64, "count");
    out.put("serve.cold_s", pick(|s| s.cold), "s");
    out.put("serve.probe_s", pick(|s| s.probe), "s");
    out.put("serve.warm_p50_ms", median(&warm), "ms");
    out.put("serve.warm_p95_ms", quantile(&warm, 0.95), "ms");
    out.put("serve.warm.samples", warm.len() as f64, "count");
    out.put("serve.cold.cpu_util", pick(|s| s.cold_cpu_util), "ratio");
    for name in ["simulated", "cache_hits", "dedup_hits"] {
        out.put(format!("serve.{name}"), counter(&last.stats, name) as f64, "count");
    }
    let base = (WARM_REQUESTS * last.cold_stream.lines.len()) as f64;
    let hits = counter(&last.stats, "cache_hits") as f64;
    out.put("serve.warm.hit_ratio", hits / base, "ratio");
    out.put("serve.warm.hit_base", base, "count");
    out.notes.push(format!(
        "warm latency over {} requests ({} sessions of {WARM_REQUESTS}); hit ratio {hits}/{base} cell lookups",
        warm.len(),
        sessions.len()
    ));

    if tracer.enabled() {
        traced(seed, scratch, wall, tracer, &mut out).map_err(io("traced session"))?;
    }
    Ok(out)
}

fn traced(
    seed: u64,
    scratch: &Path,
    untraced_wall: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let dir: PathBuf = scratch.join("session-traced");
    let s = session(&dir, seed, tracer, out)?;
    out.put("trace_overhead_pct", (s.wall / untraced_wall - 1.0) * 100.0, "%");
    let gaps: Vec<f64> = s.arrivals.windows(2).map(|w| secs(w[1] - w[0]) * 1e3).collect();
    if !gaps.is_empty() {
        out.put("serve.cold.arrival_gap_p50_ms", median(&gaps), "ms");
        out.put("serve.cold.arrival_gap_p90_ms", quantile(&gaps, 0.9), "ms");
    }

    // The read path: replay the journal the session wrote.
    let sp = tracer.begin("DiskCache::open (replay)", ROOT, 0);
    let t = Instant::now();
    let replayed = DiskCache::open(&dir)?;
    out.put("serve.journal.replay_ms", secs(t.elapsed()) * 1e3, "ms");
    tracer.end(sp);
    let journaled =
        s.cold_stream.lines.len() + probe_request(seed).grid().expect("probe grid is valid").len();
    out.check(if replayed.len() == journaled && replayed.skipped_lines == 0 {
        Vec::new()
    } else {
        vec![format!(
            "journal replay: {} cells ({} skipped lines), {journaled} journaled",
            replayed.len(),
            replayed.skipped_lines
        )]
    });

    // The content address of every cold cell, per call.
    let cells = cold_request(seed).grid().expect("cold grid is valid").cells();
    let sp = tracer.begin("canon::cell_key", ROOT, 0);
    let t = Instant::now();
    for i in 0..KEY_CALLS {
        std::hint::black_box(canon::cell_key(std::hint::black_box(&cells[i % cells.len()])));
    }
    out.put("serve.canon.key_us", secs(t.elapsed()) * 1e6 / KEY_CALLS as f64, "us");
    tracer.end(sp);

    // The write path: journal appends into a scratch cache.
    let cached = cached_cells(&s.cold_stream)?;
    let mut cache = DiskCache::open(&scratch.join("put-bench"))?;
    let sp = tracer.begin("DiskCache::put", ROOT, 0);
    let t = Instant::now();
    for i in 0..PUT_CALLS {
        cache.put(&format!("bench-{i}"), cached[i % cached.len()])?;
    }
    out.put("serve.journal.put_us", secs(t.elapsed()) * 1e6 / PUT_CALLS as f64, "us");
    tracer.end(sp);
    Ok(())
}
