//! The persistent content-addressed result cache.
//!
//! One append-only JSON-lines journal (`cells.jsonl` in the cache
//! directory) is both the durable cache and the crash-resume log: every
//! completed cell is appended *before* its result is fanned out to
//! waiters, so a server killed mid-sweep loses at most the cell currently
//! simulating. On startup the journal is replayed into the in-memory map
//! and every journaled cell is served without re-simulation — across
//! restarts, across tenants, across sweeps.

use serde::json::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use tenoc_core::RunMetrics;
use tenoc_simt::TrafficClass;

/// One cached cell result: everything a record needs beyond the cell's
/// own identity.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CachedCell {
    /// Traffic class of the cell's benchmark.
    pub class: TrafficClass,
    /// The measured closed-loop metrics.
    pub metrics: RunMetrics,
}

fn class_label(class: TrafficClass) -> &'static str {
    match class {
        TrafficClass::LL => "LL",
        TrafficClass::LH => "LH",
        TrafficClass::HH => "HH",
    }
}

fn class_from_label(s: &str) -> Option<TrafficClass> {
    match s {
        "LL" => Some(TrafficClass::LL),
        "LH" => Some(TrafficClass::LH),
        "HH" => Some(TrafficClass::HH),
        _ => None,
    }
}

/// The on-disk cache: an in-memory map over an append-only journal.
pub struct DiskCache {
    path: PathBuf,
    journal: File,
    map: HashMap<String, CachedCell>,
    /// Journal lines that failed to parse on load (a crash can truncate
    /// the final line; anything else indicates corruption worth seeing).
    pub skipped_lines: usize,
}

impl DiskCache {
    /// The journal file inside a cache directory.
    pub fn journal_path(dir: &Path) -> PathBuf {
        dir.join("cells.jsonl")
    }

    /// Opens (creating if needed) the cache rooted at `dir` and replays
    /// its journal.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory or journal
    /// cannot be created or read.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = Self::journal_path(dir);
        let mut map = HashMap::new();
        let skipped_lines = match File::open(&path) {
            Ok(file) => Self::replay(BufReader::new(file), &path, &mut map)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e),
        };
        let journal = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(DiskCache { path, journal, map, skipped_lines })
    }

    /// Replays the journal at `path` into `map` one line at a time, so
    /// replay holds one record in memory rather than the whole file.
    /// Returns the number of skipped lines.
    fn replay(
        mut reader: BufReader<File>,
        path: &Path,
        map: &mut HashMap<String, CachedCell>,
    ) -> std::io::Result<usize> {
        let mut line = String::new();
        let mut skipped_lines = 0;
        // Bytes up to and including the last '\n' read so far.
        let mut boundary = 0;
        loop {
            line.clear();
            let n = reader.read_line(&mut line)?;
            if n == 0 {
                return Ok(skipped_lines);
            }
            if !line.ends_with('\n') {
                // Only '\n'-terminated lines are records: a crash mid-append
                // leaves a partial tail, and even a tail that happens to
                // parse (crash between the payload and its newline) is
                // treated as the one in-flight cell the durability contract
                // allows losing.
                if !line.trim().is_empty() {
                    skipped_lines += 1;
                }
                // Trim the partial tail before reopening for append:
                // appending after it would glue the next record onto the
                // partial bytes and silently lose that record on the *next*
                // replay.
                OpenOptions::new().write(true).open(path)?.set_len(boundary)?;
                return Ok(skipped_lines);
            }
            boundary += n as u64;
            if line.trim().is_empty() {
                continue;
            }
            // The parser skips the trailing "\n" (or "\r\n") as whitespace.
            match Self::parse_line(&line) {
                Some((key, cell)) => {
                    map.insert(key, cell);
                }
                None => skipped_lines += 1,
            }
        }
    }

    fn parse_line(line: &str) -> Option<(String, CachedCell)> {
        let v = serde::json::parse(line).ok()?;
        let key = v.field("key").ok()?.as_str().ok()?.to_string();
        let class = class_from_label(v.field("class").ok()?.as_str().ok()?)?;
        let metrics = RunMetrics::from_value(v.field("metrics").ok()?).ok()?;
        Some((key, CachedCell { class, metrics }))
    }

    /// Looks up a cell by content address.
    pub fn get(&self, key: &str) -> Option<&CachedCell> {
        self.map.get(key)
    }

    /// Number of distinct cached cells.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Journals and caches a freshly-simulated cell. The journal line is
    /// flushed before this returns — once a waiter sees the result, a
    /// restart will too.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the append fails; the
    /// in-memory insert happens regardless so the running server stays
    /// correct even on a full disk.
    pub fn put(&mut self, key: &str, cell: CachedCell) -> std::io::Result<()> {
        if self.map.insert(key.to_string(), cell).is_some() {
            // Already journaled (e.g. two workers raced on a non-deduped
            // path); keep the journal free of duplicates.
            return Ok(());
        }
        let line = Value::Object(vec![
            ("key".to_string(), key.to_value()),
            ("class".to_string(), class_label(cell.class).to_value()),
            ("metrics".to_string(), cell.metrics.to_value()),
        ]);
        let mut text = line.to_json_compact();
        text.push('\n');
        self.journal.write_all(text.as_bytes())?;
        self.journal.flush()
    }

    /// The journal's path (for stats and diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> RunMetrics {
        RunMetrics {
            completed: true,
            core_cycles: 1000,
            icnt_cycles: 464,
            scalar_insts: 12345,
            ipc: 12.345,
            avg_net_latency: 20.5,
            mc_injection_rate: 0.25,
            core_injection_rate: 0.05,
            mc_stall_fraction: 0.4,
            dram_efficiency: 0.5,
            l2_read_hit_rate: 0.3,
            accepted_flits_per_node: 0.125,
            core_replays: 7,
            flit_hops: 4096,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tenoc-serve-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_across_reopen() {
        let dir = tmp_dir("roundtrip");
        let cell = CachedCell { class: TrafficClass::HH, metrics: sample_metrics() };
        {
            let mut cache = DiskCache::open(&dir).unwrap();
            assert!(cache.is_empty());
            cache.put("00aa", cell).unwrap();
            cache.put("00bb", cell).unwrap();
            assert_eq!(cache.len(), 2);
        }
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("00aa"), Some(&cell));
        assert_eq!(cache.skipped_lines, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_puts_do_not_duplicate_journal_lines() {
        let dir = tmp_dir("dupes");
        let cell = CachedCell { class: TrafficClass::LL, metrics: sample_metrics() };
        let mut cache = DiskCache::open(&dir).unwrap();
        cache.put("k", cell).unwrap();
        cache.put("k", cell).unwrap();
        drop(cache);
        let text = std::fs::read_to_string(DiskCache::journal_path(&dir)).unwrap();
        assert_eq!(text.lines().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_final_line_is_skipped_not_fatal() {
        let dir = tmp_dir("truncated");
        let cell = CachedCell { class: TrafficClass::LH, metrics: sample_metrics() };
        {
            let mut cache = DiskCache::open(&dir).unwrap();
            cache.put("good", cell).unwrap();
        }
        // Simulate a crash mid-append: a half-written final line.
        {
            let mut f =
                OpenOptions::new().append(true).open(DiskCache::journal_path(&dir)).unwrap();
            f.write_all(b"{\"key\":\"bad\",\"cla").unwrap();
        }
        let cell2 = CachedCell { class: TrafficClass::HH, metrics: sample_metrics() };
        {
            let mut cache = DiskCache::open(&dir).unwrap();
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.skipped_lines, 1);
            assert!(cache.get("good").is_some());
            // The partial line must have been trimmed: a put after reopen
            // starts on a fresh line instead of gluing onto the stub.
            cache.put("after-crash", cell2).unwrap();
        }
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2, "both cells survive a second replay");
        assert!(cache.get("good").is_some());
        assert!(cache.get("after-crash").is_some());
        assert_eq!(cache.skipped_lines, 0, "the trimmed journal is fully parseable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_with_no_complete_lines_truncates_to_empty() {
        let dir = tmp_dir("all-partial");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(DiskCache::journal_path(&dir), b"{\"key\":\"never-finis").unwrap();
        let cell = CachedCell { class: TrafficClass::LL, metrics: sample_metrics() };
        {
            let mut cache = DiskCache::open(&dir).unwrap();
            assert_eq!(cache.len(), 0);
            assert_eq!(cache.skipped_lines, 1);
            cache.put("fresh", cell).unwrap();
        }
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.get("fresh").is_some());
        assert_eq!(cache.skipped_lines, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
